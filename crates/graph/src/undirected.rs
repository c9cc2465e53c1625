//! Simple undirected graphs over dense node indices.

use std::collections::BTreeSet;

/// An undirected graph over nodes `0..n` with set-based adjacency.
///
/// The worker dependency graphs of the paper are small (hundreds of nodes) and
/// sparse, and the algorithms that consume them (MCS, clique enumeration, RTC)
/// need ordered neighbour iteration and O(log n) membership tests, so a
/// `BTreeSet` adjacency representation is a good fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnGraph {
    adj: Vec<BTreeSet<usize>>,
}

impl UnGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> UnGraph {
        UnGraph {
            adj: vec![BTreeSet::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|s| s.len()).sum::<usize>() / 2
    }

    /// Adds the undirected edge `{u, v}` (self-loops are ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        if u == v {
            return;
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
    }

    /// Removes the undirected edge `{u, v}` if present.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        if u < self.adj.len() && v < self.adj.len() {
            self.adj[u].remove(&v);
            self.adj[v].remove(&u);
        }
    }

    /// Whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u).is_some_and(|s| s.contains(&v))
    }

    /// The neighbours of `u` in ascending order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[u].iter().copied()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Nodes of the graph (`0..n`).
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.adj.len()
    }

    /// Connected components, each as a sorted list of nodes. Components are
    /// returned in order of their smallest node.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u);
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// Connected components of the graph restricted to `allowed` nodes
    /// (edges with an endpoint outside `allowed` are ignored).
    pub fn components_within(&self, allowed: &BTreeSet<usize>) -> Vec<Vec<usize>> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut components = Vec::new();
        for &start in allowed {
            if seen.contains(&start) {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen.insert(start);
            while let Some(u) = stack.pop() {
                comp.push(u);
                for v in self.neighbors(u) {
                    if allowed.contains(&v) && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// The subgraph induced by `nodes`, together with the mapping from new
    /// (dense) indices back to the original node ids. An ascending `nodes`
    /// (what every caller in the workspace passes) resolves each neighbour's
    /// new index by binary search; any other order falls back to a scan.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> (UnGraph, Vec<usize>) {
        let mapping: Vec<usize> = nodes.to_vec();
        let ascending = mapping.windows(2).all(|p| p[0] < p[1]);
        debug_assert!(ascending, "induced_subgraph is handed ascending nodes");
        let index_of = |orig: usize| {
            if ascending {
                mapping.binary_search(&orig).ok()
            } else {
                mapping.iter().position(|&m| m == orig)
            }
        };
        let mut g = UnGraph::new(mapping.len());
        for (new_u, &orig_u) in mapping.iter().enumerate() {
            for orig_v in self.neighbors(orig_u) {
                if let Some(new_v) = index_of(orig_v) {
                    if new_u < new_v {
                        g.add_edge(new_u, new_v);
                    }
                }
            }
        }
        (g, mapping)
    }

    /// Whether `clique` is a clique in this graph (every pair adjacent).
    pub fn is_clique(&self, clique: &[usize]) -> bool {
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                if !self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        g.add_edge(0, 1); // idempotent
        assert_eq!(g.edge_count(), 1);
        g.remove_edge(0, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = UnGraph::new(2);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn connected_components_of_a_path_and_isolated_nodes() {
        let mut g = path_graph(4);
        // add two isolated nodes
        g = {
            let mut bigger = UnGraph::new(6);
            for u in g.nodes() {
                for v in g.neighbors(u) {
                    if u < v {
                        bigger.add_edge(u, v);
                    }
                }
            }
            bigger
        };
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1, 2, 3]);
        assert_eq!(comps[1], vec![4]);
        assert_eq!(comps[2], vec![5]);
    }

    #[test]
    fn components_within_a_restriction() {
        let g = path_graph(5); // 0-1-2-3-4
        let allowed: BTreeSet<usize> = [0, 1, 3, 4].into_iter().collect();
        let comps = g.components_within(&allowed);
        assert_eq!(comps, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn induced_subgraph_preserves_internal_edges() {
        let mut g = UnGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        let (sub, mapping) = g.induced_subgraph(&[1, 2, 4]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(mapping, vec![1, 2, 4]);
        assert!(sub.has_edge(0, 1)); // 1-2 edge survives
        assert!(!sub.has_edge(1, 2)); // 2-4 never existed
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn is_clique_checks_all_pairs() {
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(!g.is_clique(&[0, 1, 3]));
        assert!(g.is_clique(&[2])); // singleton is trivially a clique
        assert!(g.is_clique(&[])); // empty set too
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = UnGraph::new(2);
        g.add_edge(0, 5);
    }
}
