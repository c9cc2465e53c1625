//! Recursive Tree Construction (RTC, §IV-A.4).
//!
//! Given a worker dependency graph, RTC picks the maximal clique whose removal
//! disconnects the graph into the largest number of components, makes that
//! clique the root of a (sub)tree, and recurses into each component. The
//! resulting tree has two properties the paper relies on (and which the tests
//! and property tests verify):
//!
//! 1. every graph node appears in exactly one tree node, and
//! 2. the node sets of sibling tree nodes (in fact, of different subtrees
//!    hanging off the same parent) are independent — no graph edge crosses
//!    between them — so the assignment sub-problems they induce can be solved
//!    independently.
//!
//! Every node set is a bit mask over the graph's node ids, a row wide. The
//! chordal completion runs on the set's mask and a clique is scored by
//! counting the flood-fill components of `set & !clique`, so no subgraph is
//! copied and no id renumbered: every tie goes to the smallest id. The
//! recursion is a stack of masks, children pushed in reverse order of their
//! smallest node, so nodes are created in the recursive definition's preorder.

use crate::chordal::Completion;
use crate::undirected::{count, ones, Flood, UnGraph};
use std::cmp::Reverse;

/// One node of the cluster tree: a set of graph nodes (a separator clique of
/// the subgraph it was extracted from) plus child tree nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Graph nodes (e.g. worker indices) grouped in this tree node.
    pub members: Vec<usize>,
    /// Indices (into [`ClusterTree::nodes`]) of the child tree nodes.
    pub children: Vec<usize>,
}

/// The tree produced by recursive tree construction. A disconnected input
/// graph yields one root per connected component.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterTree {
    /// All tree nodes, in creation order.
    pub nodes: Vec<TreeNode>,
    /// Indices of the root nodes (one per connected component of the input).
    pub roots: Vec<usize>,
}

impl ClusterTree {
    /// Builds the cluster tree of `graph` by applying RTC to every connected
    /// component.
    pub fn build(graph: &UnGraph) -> ClusterTree {
        ClusterTree::build_with(graph, &mut TreeScratch::default())
    }

    /// [`ClusterTree::build`] on the buffers of `scratch`. A complete set
    /// (one vertex, or every worker in reach of one new task) is its own and
    /// only maximal clique, the separator the generic step would pick with
    /// nothing left below it: it becomes one node without a chordal
    /// completion. An isolated node becomes a root leaf without a mask.
    pub fn build_with(graph: &UnGraph, scratch: &mut TreeScratch) -> ClusterTree {
        let (sc, mut tree) = (scratch, ClusterTree::default());
        graph.all_nodes(&mut sc.unplaced);
        for v in graph.nodes() {
            if sc.unplaced[v / 64] >> (v % 64) & 1 == 0 {
                continue;
            }
            tree.roots.push(tree.nodes.len());
            if graph.degree(v) == 0 {
                sc.unplaced[v / 64] &= !(1 << (v % 64));
                let (members, children) = (vec![v], Vec::new());
                tree.nodes.push(TreeNode { members, children });
            } else if sc.flood.pop(graph, &mut sc.unplaced) {
                sc.pending.extend_from_slice(&sc.flood.component);
                sc.parents.push(usize::MAX);
                sc.grow(graph, &mut tree);
            }
        }
        tree
    }

    /// Total number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (empty input graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the members of every node in the subtree rooted at `node`.
    pub fn subtree_members(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.extend(&self.nodes[n].members);
            stack.extend(&self.nodes[n].children);
        }
        out.sort_unstable();
        out
    }

    /// Verifies the sibling-independence property against the original graph:
    /// for every tree node, and for the roots, the subtrees rooted at its
    /// children must be pairwise non-adjacent in `graph`. Returns `true` when
    /// the property holds. Exposed for tests and debugging.
    pub fn verify_sibling_independence(&self, graph: &UnGraph) -> bool {
        let groups = self.nodes.iter().map(|n| &n.children).chain([&self.roots]);
        groups.into_iter().all(|siblings| {
            let sets: Vec<_> = siblings.iter().map(|&c| self.subtree_members(c)).collect();
            sets.iter().enumerate().all(|(i, a)| {
                let apart =
                    |b: &Vec<usize>| a.iter().all(|&u| b.iter().all(|&v| !graph.has_edge(u, v)));
                sets[i + 1..].iter().all(apart)
            })
        })
    }
}

/// The buffers of [`ClusterTree::build_with`], kept across builds.
#[derive(Debug, Clone, Default)]
pub struct TreeScratch {
    completion: Completion,
    flood: Flood,
    /// Node sets waiting for their subtree, one mask each, and the tree node
    /// each hangs under (`usize::MAX`, no node, for a root).
    pending: Vec<u64>,
    parents: Vec<usize>,
    /// The nodes no tree node holds yet; the set being built, and what is
    /// left of it once a clique is removed.
    unplaced: Vec<u64>,
    set: Vec<u64>,
    rest: Vec<u64>,
    best: Vec<u64>,
}

impl TreeScratch {
    /// Builds the subtrees of the pending sets into `tree`, depth first.
    fn grow(&mut self, graph: &UnGraph, tree: &mut ClusterTree) {
        while let Some(parent) = self.parents.pop() {
            let at = self.pending.len() - graph.words();
            self.set.clear();
            self.set.extend(self.pending.drain(at..));
            let index = tree.nodes.len();
            let members = if is_complete(graph, &self.set) {
                ones(&self.set).collect()
            } else {
                self.choose_separator(graph);
                self.rest.clear();
                let rest = self.set.iter().zip(&self.best).map(|(s, c)| s & !c);
                self.rest.extend(rest);
                self.push_components(graph, index);
                ones(&self.best).collect()
            };
            let children = Vec::new();
            tree.nodes.push(TreeNode { members, children });
            if let Some(parent) = tree.nodes.get_mut(parent) {
                parent.children.push(index);
            }
        }
    }

    /// Pushes the components of `rest` under `parent`, the one with the
    /// largest smallest node first, so that they pop in ascending order.
    fn push_components(&mut self, graph: &UnGraph, parent: usize) {
        let start = self.pending.len();
        while self.flood.pop(graph, &mut self.rest) {
            self.pending.extend_from_slice(&self.flood.component);
            self.parents.push(parent);
        }
        self.pending[start..].reverse();
        let masks = self.pending[start..].chunks_mut(graph.words().max(1));
        masks.for_each(<[u64]>::reverse);
    }

    /// Leaves in `best` the separator of the (connected, not complete) set:
    /// the maximal clique of its chordal completion whose removal leaves the
    /// most components, then the smaller clique, then the first in ascending
    /// lexicographic order of the member lists.
    fn choose_separator(&mut self, graph: &UnGraph) {
        self.completion.run(graph, &self.set);
        let mut best: Option<(Reverse<usize>, usize)> = None;
        for clique in self.completion.cliques.chunks_exact(graph.words()) {
            self.rest.clear();
            self.rest
                .extend(self.set.iter().zip(clique).map(|(s, c)| s & !c));
            let mut components = 0;
            while self.flood.pop(graph, &mut self.rest) {
                components += 1;
            }
            let score = (Reverse(components), count(clique));
            if best.is_none_or(|b| score < b || score == b && first_in_order(clique, &self.best)) {
                best = Some(score);
                self.best.clear();
                self.best.extend_from_slice(clique);
            }
        }
    }
}

/// Whether the set is complete: every member's row holds every other member.
fn is_complete(graph: &UnGraph, set: &[u64]) -> bool {
    let missing = |v| ones(set.iter().zip(graph.row(v)).map(|(s, r)| s & !r));
    ones(set).all(|v| missing(v).count() == 1)
}

/// Whether `a` comes before `b`, two distinct equal-sized sets, as ascending
/// member lists: the lowest member of one but not both is `a`'s.
fn first_in_order(a: &[u64], b: &[u64]) -> bool {
    let differ = a.iter().zip(b).find(|(x, y)| x != y);
    differ.is_some_and(|(x, y)| x & (x ^ y) & (x ^ y).wrapping_neg() != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every graph node the tree holds, sorted.
    fn covered(tree: &ClusterTree) -> Vec<usize> {
        let mut all: Vec<usize> = tree
            .roots
            .iter()
            .flat_map(|&r| tree.subtree_members(r))
            .collect();
        all.sort_unstable();
        all
    }

    fn path(n: usize) -> UnGraph {
        let mut g = UnGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn single_node_graph_yields_single_leaf() {
        let g = UnGraph::new(1);
        let t = ClusterTree::build(&g);
        assert_eq!(t.len(), 1);
        assert_eq!(t.roots, vec![0]);
        assert_eq!(t.nodes[0].members, vec![0]);
        assert!(t.nodes[0].children.is_empty());
    }

    #[test]
    fn every_node_is_covered_exactly_once() {
        let g = path(9);
        let t = ClusterTree::build(&g);
        assert_eq!(covered(&t), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn path_separator_splits_into_two_children() {
        let g = path(7);
        let t = ClusterTree::build(&g);
        assert_eq!(t.roots.len(), 1);
        // The root separator of a path should produce two independent halves.
        let root = &t.nodes[t.roots[0]];
        assert!(
            root.children.len() >= 2,
            "root of a path should have ≥2 children"
        );
        assert!(t.verify_sibling_independence(&g));
    }

    #[test]
    fn disconnected_graph_has_one_root_per_component() {
        let mut g = UnGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(4, 5);
        let t = ClusterTree::build(&g);
        assert_eq!(t.roots.len(), 3);
        assert!(t.verify_sibling_independence(&g));
        assert_eq!(covered(&t), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn complete_graph_collapses_to_one_node() {
        let mut g = UnGraph::new(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j);
            }
        }
        let t = ClusterTree::build(&g);
        assert_eq!(t.len(), 1);
        assert_eq!(t.nodes[0].members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sibling_independence_on_a_grid_like_graph() {
        // 3x3 grid graph.
        let mut g = UnGraph::new(9);
        for r in 0..3 {
            for c in 0..3 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(v, v + 1);
                }
                if r + 1 < 3 {
                    g.add_edge(v, v + 3);
                }
            }
        }
        let t = ClusterTree::build(&g);
        assert!(t.verify_sibling_independence(&g));
        assert_eq!(covered(&t), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn subtree_members_include_descendants() {
        let g = path(5);
        let t = ClusterTree::build(&g);
        let all = t.subtree_members(t.roots[0]);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_graph_builds_empty_tree() {
        let g = UnGraph::new(0);
        let t = ClusterTree::build(&g);
        assert!(t.is_empty());
    }
}
