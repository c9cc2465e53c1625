//! Tunable parameters of the assignment stack.

use datawa_core::TravelModel;

/// Configuration shared by sequence generation, planning and the adaptive
/// runner.
///
/// The paper does not bound the length of valid task sequences; in practice
/// the search space is kept tractable by the worker dependency separation.
/// This implementation additionally caps the number of reachable tasks
/// considered per worker (`max_reachable_per_worker`, nearest-first) and the
/// sequence length (`max_sequence_len`). With `R` and `L` for the two caps,
/// `|Q_w|` is at most `Σ_{k≤L} C(R, k)` task sets (92 at the defaults), and
/// generation validates at most `Σ_{k≤L} R!/(R−k)!` orderings per worker (400).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignConfig {
    /// Travel model shared by every validity rule.
    pub travel: TravelModel,
    /// Maximum number of (nearest) reachable tasks considered per worker when
    /// enumerating candidate sequences.
    pub max_reachable_per_worker: usize,
    /// Maximum length of a candidate task sequence.
    pub max_sequence_len: usize,
    /// Hard cap on exact-DFSearch node expansions per planning partition
    /// (cluster-tree root subtree):
    /// [`crate::DfSearch::exact_partition`] starts every partition with the
    /// full budget. Once it is spent, every subproblem the search still
    /// enters is finished by the greedy completion (each pending worker
    /// takes its first compatible candidate) instead of being branched on.
    /// Keeps the worst-case planning latency bounded on dense cliques.
    pub search_node_budget: usize,
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
            search_node_budget: 20_000,
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
    }

    #[test]
    fn unit_speed_uses_unit_euclidean_travel() {
        let c = AssignConfig::unit_speed();
        assert_eq!(c.travel.speed, 1.0);
    }
}
