//! Chordal completion and maximal cliques via Maximum Cardinality Search.
//!
//! §IV-A.3 of the paper partitions the worker dependency graph by (i) adding
//! fill-in edges so the graph becomes chordal and (ii) enumerating the maximal
//! cliques of the chordal graph. Both steps follow the classical Tarjan &
//! Yannakakis construction: an MCS ordering, the elimination game along that
//! ordering (which adds the fill-in edges and yields a perfect elimination
//! ordering of the result), and the clique candidates `{v} ∪ N_later(v)`
//! collected during elimination, filtered down to the maximal ones.

use crate::undirected::{count, ones, set_bit, UnGraph};
use std::cmp::Reverse;

/// The result of chordal completion on a graph.
#[derive(Debug, Clone)]
pub struct ChordalDecomposition {
    /// The input graph plus fill-in edges (a chordal supergraph).
    pub chordal: UnGraph,
    /// A perfect elimination ordering of `chordal` (first element eliminated
    /// first).
    pub elimination_order: Vec<usize>,
    /// The fill-in edges that were added, as ascending `(u, v)`, `u < v`.
    pub fill_edges: Vec<(usize, usize)>,
    /// The maximal cliques of `chordal`, each sorted ascending.
    pub cliques: Vec<Vec<usize>>,
}

/// The chordal completion of the subgraph a node mask induces, on masks over
/// the graph's own node ids: the buffers of one completion, reused across
/// calls. The one implementation behind [`mcs_fill_in`] and RTC.
#[derive(Debug, Clone, Default)]
pub(crate) struct Completion {
    /// The completion of the induced subgraph; rows outside the mask empty.
    filled: UnGraph,
    /// The masked nodes in MCS visit order.
    visit: Vec<usize>,
    /// The maximal cliques, one mask of the graph's row width each, in
    /// elimination order.
    pub(crate) cliques: Vec<u64>,
    weight: Vec<u32>,
    unvisited: Vec<u64>,
}

impl Completion {
    /// Completes the subgraph of `graph` induced by `within`.
    ///
    /// Maximum Cardinality Search visits the unvisited node with the most
    /// visited neighbours, ties to the smallest id. The elimination game runs
    /// in reverse visit order — which makes that a perfect elimination
    /// ordering of the result — ORing each node's later neighbourhood into
    /// the rows of its members. A candidate `{v} ∪ later(v)` can only lie in
    /// a larger candidate of a node eliminated before `v` that holds `v`, and
    /// then in a maximal one: it is kept unless a kept clique holding `v`
    /// contains it, tested word by word.
    pub(crate) fn run(&mut self, graph: &UnGraph, within: &[u64]) {
        let w = graph.words();
        self.weight.clear();
        self.weight.resize(graph.node_count(), 0);
        self.unvisited.clear();
        self.unvisited.extend_from_slice(within);
        self.visit.clear();
        while let Some(v) = ones(&self.unvisited).max_by_key(|&v| (self.weight[v], Reverse(v))) {
            self.unvisited[v / 64] &= !(1 << (v % 64));
            self.visit.push(v);
            let later = graph.row(v).iter().zip(&self.unvisited).map(|(r, u)| r & u);
            ones(later).for_each(|u| self.weight[u] += 1);
        }
        self.filled.reset(graph.node_count());
        for v in ones(within) {
            let induced = self.filled.row_mut(v).iter_mut().zip(graph.row(v));
            induced.zip(within).for_each(|((f, r), m)| *f = r & m);
        }
        // `unvisited` is empty again: it holds the eliminated nodes now.
        let eliminated = &mut self.unvisited;
        self.cliques.clear();
        for &v in self.visit.iter().rev() {
            let at = self.cliques.len();
            let row = self.filled.row(v).iter().zip(eliminated.iter());
            self.cliques.extend(row.map(|(f, e)| f & !e));
            let (kept, c) = self.cliques.split_at_mut(at);
            for a in ones(&*c) {
                let row = self.filled.row_mut(a);
                row.iter_mut().zip(&*c).for_each(|(f, l)| *f |= l);
                row[a / 64] &= !(1 << (a % 64));
            }
            set_bit(c, v);
            set_bit(eliminated, v);
            let contains = |d: &[u64]| {
                let holds_v = d[v / 64] >> (v % 64) & 1 == 1;
                holds_v && count(d) > count(c) && c.iter().zip(d).all(|(c, d)| c & !d == 0)
            };
            if kept.chunks_exact(w).any(contains) {
                self.cliques.truncate(at);
            }
        }
    }
}

/// Chordal completion of `g` using the MCS ordering and the elimination game,
/// together with the maximal cliques of the completed graph (§IV-A.3 steps i
/// and ii).
pub fn mcs_fill_in(g: &UnGraph) -> ChordalDecomposition {
    let (mut all, mut completion) = (Vec::new(), Completion::default());
    g.all_nodes(&mut all);
    completion.run(g, &all);
    let masks = completion.cliques.chunks_exact(g.words().max(1));
    let mut cliques: Vec<Vec<usize>> = masks.map(|c| ones(c).collect()).collect();
    cliques.sort_unstable();
    let chordal = completion.filled;
    let fill_edges = g
        .nodes()
        .flat_map(|u| chordal.neighbors(u).map(move |v| (u, v)))
        .filter(|&(u, v)| u < v && !g.has_edge(u, v))
        .collect();
    ChordalDecomposition {
        elimination_order: completion.visit.into_iter().rev().collect(),
        chordal,
        fill_edges,
        cliques,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `g` is chordal, verified by re-running the elimination game along
    /// the given perfect elimination ordering and checking that no fill-in edge is
    /// required.
    fn is_chordal_with_peo(g: &UnGraph, elimination_order: &[usize]) -> bool {
        let n = g.node_count();
        let mut eliminated = vec![false; n];
        for &v in elimination_order {
            let later: Vec<usize> = g.neighbors(v).filter(|&u| !eliminated[u]).collect();
            for (i, &a) in later.iter().enumerate() {
                for &b in &later[i + 1..] {
                    if !g.has_edge(a, b) {
                        return false;
                    }
                }
            }
            eliminated[v] = true;
        }
        true
    }

    /// C4 (a 4-cycle) is the canonical non-chordal graph: one chord is needed.
    #[test]
    fn four_cycle_gets_exactly_one_fill_edge() {
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 0);
        let d = mcs_fill_in(&g);
        assert_eq!(d.fill_edges.len(), 1);
        assert!(is_chordal_with_peo(&d.chordal, &d.elimination_order));
        // A chorded 4-cycle decomposes into two triangles.
        assert_eq!(d.cliques.len(), 2);
        assert!(d.cliques.iter().all(|c| c.len() == 3));
        assert!(d.cliques.iter().all(|c| d.chordal.is_clique(c)));
    }

    #[test]
    fn tree_needs_no_fill_and_cliques_are_edges() {
        // A star K1,3 is already chordal; maximal cliques are its edges.
        let mut g = UnGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let d = mcs_fill_in(&g);
        assert!(d.fill_edges.is_empty());
        assert_eq!(d.cliques.len(), 3);
        assert!(d.cliques.iter().all(|c| c.len() == 2 && c.contains(&0)));
    }

    #[test]
    fn complete_graph_is_a_single_clique() {
        let mut g = UnGraph::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                g.add_edge(i, j);
            }
        }
        let d = mcs_fill_in(&g);
        assert!(d.fill_edges.is_empty());
        assert_eq!(d.cliques, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn isolated_nodes_become_singleton_cliques() {
        let g = UnGraph::new(3);
        let d = mcs_fill_in(&g);
        assert_eq!(d.cliques.len(), 3);
        assert!(d.cliques.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn cliques_cover_all_vertices_and_are_cliques() {
        // A 6-cycle plus one chord.
        let mut g = UnGraph::new(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6);
        }
        g.add_edge(0, 3);
        let d = mcs_fill_in(&g);
        assert!(is_chordal_with_peo(&d.chordal, &d.elimination_order));
        let covered: std::collections::BTreeSet<usize> =
            d.cliques.iter().flatten().copied().collect();
        assert_eq!(covered.len(), 6);
        for c in &d.cliques {
            assert!(d.chordal.is_clique(c));
        }
        // Original edges are preserved in the chordal supergraph.
        for u in g.nodes() {
            for v in g.neighbors(u) {
                assert!(d.chordal.has_edge(u, v));
            }
        }
    }

    #[test]
    fn elimination_order_is_a_permutation() {
        let mut g = UnGraph::new(7);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(4, 5);
        let d = mcs_fill_in(&g);
        let mut order = d.elimination_order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..7).collect::<Vec<_>>());
    }
}
