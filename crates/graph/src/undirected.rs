//! Undirected graphs over dense node indices, stored as bit rows.

use std::borrow::Borrow;

/// An undirected graph over nodes `0..n`, one adjacency bit row per node.
///
/// Every row is `ceil(n / 64)` `u64` words, all rows back to back in one
/// `Vec<u64>`; bit `v` of row `u` is set when `{u, v}` is an edge. A
/// planning call's graph has tens of nodes, so a row is one or two words
/// (costs per operation: see the crate doc). The matrix takes `n² / 8`
/// bytes, so a graph is sized by the nodes it plans, never by a store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnGraph {
    n: usize,
    /// Words per row, `ceil(n / 64)`.
    words: usize,
    /// `n` rows of `words` words, symmetric, no bit at or past `n`.
    rows: Vec<u64>,
}

/// The set bits of a mask given word by word, ascending.
pub(crate) fn ones<W: Borrow<u64>>(
    words: impl IntoIterator<Item = W>,
) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(i, word)| {
        let mut rest = *word.borrow();
        std::iter::from_fn(move || {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (bit < 64).then_some(i * 64 + bit)
        })
    })
}

/// Sets bit `v` of `mask`.
pub(crate) fn set_bit(mask: &mut [u64], v: usize) {
    mask[v / 64] |= 1 << (v % 64);
}

/// Number of set bits of `mask`.
pub(crate) fn count(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

impl UnGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> UnGraph {
        let mut graph = UnGraph::default();
        graph.reset(n);
        graph
    }

    /// Makes this the graph of `n` isolated nodes, keeping the row buffer.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        self.rows.clear();
        self.rows.resize(n * self.words, 0);
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Words per row, `ceil(n / 64)`.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The adjacency row of `u`.
    pub(crate) fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }

    /// The row of `u`, for the chordal completion to OR fill-in edges into.
    pub(crate) fn row_mut(&mut self, u: usize) -> &mut [u64] {
        &mut self.rows[u * self.words..(u + 1) * self.words]
    }

    /// The mask of every node, into `mask`.
    pub(crate) fn all_nodes(&self, mask: &mut Vec<u64>) {
        mask.clear();
        mask.resize(self.words, 0);
        (0..self.n).for_each(|v| set_bit(mask, v));
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        count(&self.rows) / 2
    }

    /// Adds the undirected edge `{u, v}` (self-loops are ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        self.add_clique([u, v].into_iter());
    }

    /// Makes `nodes` pairwise adjacent, ORing each one's bit into the row of
    /// every other.
    pub fn add_clique(&mut self, nodes: impl Iterator<Item = usize> + Clone) {
        assert!(nodes.clone().all(|v| v < self.n), "node out of range");
        for u in nodes.clone() {
            let others = nodes.clone().filter(|&v| v != u);
            let row = self.row_mut(u);
            others.for_each(|v| set_bit(row, v));
        }
    }

    /// Removes the undirected edge `{u, v}` if present.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        if u < self.n && v < self.n {
            self.row_mut(u)[v / 64] &= !(1 << (v % 64));
            self.row_mut(v)[u / 64] &= !(1 << (u % 64));
        }
    }

    /// Whether the edge `{u, v}` exists.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && v < self.n && self.row(u)[v / 64] >> (v % 64) & 1 == 1
    }

    /// The neighbours of `u` in ascending order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.row(u))
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        count(self.row(u))
    }

    /// Nodes of the graph (`0..n`).
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.n
    }

    /// Connected components, each as a sorted list of nodes. Components are
    /// returned in order of their smallest node.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let (mut within, mut flood) = (Vec::new(), Flood::default());
        self.all_nodes(&mut within);
        let mut components = Vec::new();
        while flood.pop(self, &mut within) {
            components.push(ones(&flood.component).collect());
        }
        components
    }
}

/// A word-parallel flood fill's buffers, reused across fills.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flood {
    /// The component the last [`Flood::pop`] took.
    pub(crate) component: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl Flood {
    /// Takes the component of the lowest node of `within` (in the subgraph
    /// `within` induces) out of `within` into `component`; `false` when
    /// `within` is empty. Each reached node costs one OR of its row.
    pub(crate) fn pop(&mut self, graph: &UnGraph, within: &mut [u64]) -> bool {
        let Some(start) = ones(&*within).next() else {
            return false;
        };
        for buf in [&mut self.component, &mut self.frontier, &mut self.next] {
            buf.clear();
            buf.resize(within.len(), 0);
        }
        within[start / 64] &= !(1 << (start % 64));
        set_bit(&mut self.component, start);
        set_bit(&mut self.frontier, start);
        loop {
            self.next.fill(0);
            for v in ones(&self.frontier) {
                self.next
                    .iter_mut()
                    .zip(graph.row(v))
                    .for_each(|(n, r)| *n |= r);
            }
            let mut reached = 0;
            let words = self.next.iter_mut().zip(within.iter_mut());
            for ((n, w), c) in words.zip(&mut self.component) {
                *n &= *w;
                *w &= !*n;
                *c |= *n;
                reached |= *n;
            }
            if reached == 0 {
                return true;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UnGraph {
        /// Whether `clique` is a clique in this graph (every pair adjacent).
        pub(crate) fn is_clique(&self, clique: &[usize]) -> bool {
            let mut pairs = clique.iter().enumerate();
            pairs.all(|(i, &u)| clique[i + 1..].iter().all(|&v| self.has_edge(u, v)))
        }
    }

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
    fn rows_span_words_at_the_64_node_boundaries() {
        let mut g = UnGraph::new(130);
        g.add_edge(63, 64);
        g.add_edge(64, 127);
        g.add_clique([0, 128, 129].into_iter());
        assert!(g.has_edge(64, 63) && g.has_edge(127, 64) && g.has_edge(129, 0));
        assert_eq!(g.neighbors(64).collect::<Vec<_>>(), vec![63, 127]);
        assert_eq!((g.degree(0), g.edge_count()), (2, 5));
        let comps = g.connected_components();
        assert_eq!(comps[0], vec![0, 128, 129]);
        assert_eq!(
            comps.iter().find(|c| c.contains(&63)).unwrap(),
            &vec![63, 64, 127]
        );
        assert_eq!(comps.len(), 130 - 6 + 2);
        g.reset(3);
        assert_eq!((g.node_count(), g.edge_count()), (3, 0));
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
