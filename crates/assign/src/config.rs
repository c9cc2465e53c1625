//! Tunable parameters of the assignment stack.

use datawa_core::TravelModel;

/// Configuration shared by sequence generation, planning and the adaptive
/// runner.
///
/// The paper does not bound the length of valid task sequences; in practice
/// the search space is kept tractable by the worker dependency separation.
/// This implementation additionally caps the number of reachable tasks
/// considered per worker (`max_reachable_per_worker`, nearest-first) and the
/// sequence length (`max_sequence_len`), which bounds `|Q_w|` — the ablation
/// bench quantifies the effect of these caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignConfig {
    /// Travel model shared by every validity rule.
    pub travel: TravelModel,
    /// Maximum number of (nearest) reachable tasks considered per worker when
    /// enumerating candidate sequences.
    pub max_reachable_per_worker: usize,
    /// Maximum length of a candidate task sequence.
    pub max_sequence_len: usize,
    /// Whether `Q_w` keeps non-maximal task sets too (needed by the exact
    /// search to reach the optimum; maximal-only is faster).
    pub include_subsets: bool,
    /// Hard cap on exact-DFSearch node expansions per tree node, after which
    /// the search falls back to the best assignment found so far. Keeps the
    /// worst-case planning latency bounded on dense cliques.
    pub search_node_budget: usize,
    /// Whether to use the worker-dependency-separation clique tree (ablation
    /// switch; `false` solves each connected component as a single node).
    pub use_dependency_separation: bool,
    /// Accepted and ignored: the planner searches partitions serially. The
    /// field remains because existing callers (the frozen benchmark harness
    /// among them) still set it.
    pub threads: usize,
}

impl Default for AssignConfig {
    fn default() -> Self {
        AssignConfig {
            travel: TravelModel::urban_driving(),
            max_reachable_per_worker: 8,
            max_sequence_len: 3,
            include_subsets: true,
            search_node_budget: 20_000,
            use_dependency_separation: true,
            threads: 0,
        }
    }
}

impl AssignConfig {
    /// Config with a unit-speed Euclidean travel model, convenient for small
    /// hand-built examples (like the paper's Fig. 1) whose coordinates are in
    /// abstract units.
    pub fn unit_speed() -> AssignConfig {
        AssignConfig {
            travel: TravelModel::euclidean(1.0),
            ..AssignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = AssignConfig::default();
        assert!(c.max_sequence_len >= 1);
        assert!(c.max_reachable_per_worker >= c.max_sequence_len);
        assert!(c.search_node_budget > 0);
        assert!(c.use_dependency_separation);
    }

    #[test]
    fn unit_speed_uses_unit_euclidean_travel() {
        let c = AssignConfig::unit_speed();
        assert_eq!(c.travel.speed, 1.0);
    }
}
