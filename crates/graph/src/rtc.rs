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

use crate::chordal::mcs_fill_in;
use crate::undirected::UnGraph;
use std::collections::BTreeSet;

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
        let mut tree = ClusterTree::default();
        for component in graph.connected_components() {
            let root = build_component(graph, component, &mut tree.nodes);
            tree.roots.push(root);
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

    /// All graph nodes covered by the tree, sorted.
    pub fn covered_nodes(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .nodes
            .iter()
            .flat_map(|n| n.members.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Returns the members of every node in the subtree rooted at `node`.
    pub fn subtree_members(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.extend(self.nodes[n].members.iter().copied());
            stack.extend(self.nodes[n].children.iter().copied());
        }
        out.sort_unstable();
        out
    }

    /// Depth of the tree (longest root-to-leaf path, in nodes). Zero for an
    /// empty tree.
    pub fn depth(&self) -> usize {
        fn depth_of(tree: &ClusterTree, node: usize) -> usize {
            1 + tree.nodes[node]
                .children
                .iter()
                .map(|&c| depth_of(tree, c))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth_of(self, r))
            .max()
            .unwrap_or(0)
    }

    /// Verifies the sibling-independence property against the original graph:
    /// for every tree node, the subtrees rooted at its children must be
    /// pairwise non-adjacent in `graph`. Returns `true` when the property
    /// holds. Exposed for tests and debugging.
    pub fn verify_sibling_independence(&self, graph: &UnGraph) -> bool {
        for node in &self.nodes {
            let child_sets: Vec<Vec<usize>> = node
                .children
                .iter()
                .map(|&c| self.subtree_members(c))
                .collect();
            for i in 0..child_sets.len() {
                for j in (i + 1)..child_sets.len() {
                    for &u in &child_sets[i] {
                        for &v in &child_sets[j] {
                            if graph.has_edge(u, v) {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        // Roots correspond to different connected components: independent by
        // construction, but verify anyway.
        for i in 0..self.roots.len() {
            for j in (i + 1)..self.roots.len() {
                let a = self.subtree_members(self.roots[i]);
                let b = self.subtree_members(self.roots[j]);
                for &u in &a {
                    for &v in &b {
                        if graph.has_edge(u, v) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// Builds the subtree of one connected (non-empty) component and returns the
/// index of its root node. A complete component — one vertex, or every pair
/// adjacent, the common shape when every worker in reach of one new task
/// depends on every other — is its own and only maximal clique: removing it
/// leaves nothing, so it is the separator the recursive step would pick and
/// there is nothing below it. It becomes a single node, members ascending,
/// without the induced subgraph, chordal completion and per-clique scoring
/// the recursive step would run to reach the same node.
fn build_component(graph: &UnGraph, component: Vec<usize>, nodes: &mut Vec<TreeNode>) -> usize {
    // The degree test rejects a sparse component in one pass before any
    // adjacency lookup.
    let complete = component
        .iter()
        .all(|&v| graph.degree(v) + 1 >= component.len())
        && graph.is_clique(&component);
    if complete {
        nodes.push(TreeNode {
            members: component,
            children: Vec::new(),
        });
        return nodes.len() - 1;
    }
    build_recursive(graph, &component.into_iter().collect(), nodes)
}

/// Recursive step of RTC on the subgraph of `graph` induced by the non-empty
/// set `allowed`. Returns the index of the created root node.
fn build_recursive(graph: &UnGraph, allowed: &BTreeSet<usize>, nodes: &mut Vec<TreeNode>) -> usize {
    // Work on the induced subgraph so clique enumeration only sees `allowed`.
    let member_list: Vec<usize> = allowed.iter().copied().collect();
    let (sub, mapping) = graph.induced_subgraph(&member_list);
    let decomposition = mcs_fill_in(&sub);
    // Pick the clique whose removal yields the most components (paper step i),
    // breaking ties towards smaller cliques then lexicographic order, so the
    // construction is deterministic.
    let mut best_clique: Option<&Vec<usize>> = None;
    let mut best_score: Option<(std::cmp::Reverse<usize>, usize)> = None;
    for clique in &decomposition.cliques {
        let clique_set: BTreeSet<usize> = clique.iter().copied().collect();
        let rest: BTreeSet<usize> = (0..sub.node_count())
            .filter(|v| !clique_set.contains(v))
            .collect();
        let comps = sub.components_within(&rest);
        let score = (std::cmp::Reverse(comps.len()), clique.len());
        if best_score.is_none_or(|bs| score < bs) {
            best_score = Some(score);
            best_clique = Some(clique);
        }
    }
    let separator = best_clique
        .expect("non-empty graph yields at least one clique")
        .clone();
    // Map separator back to original node ids.
    let members: Vec<usize> = separator.iter().map(|&v| mapping[v]).collect();
    let node_index = nodes.len();
    nodes.push(TreeNode {
        members: members.clone(),
        children: Vec::new(),
    });
    // Recurse into each component of (allowed \ separator).
    let member_set: BTreeSet<usize> = members.iter().copied().collect();
    let remaining: BTreeSet<usize> = allowed.difference(&member_set).copied().collect();
    let children = graph
        .components_within(&remaining)
        .into_iter()
        .map(|component| build_component(graph, component, nodes))
        .collect();
    nodes[node_index].children = children;
    node_index
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn every_node_is_covered_exactly_once() {
        let g = path(9);
        let t = ClusterTree::build(&g);
        assert_eq!(t.covered_nodes(), (0..9).collect::<Vec<_>>());
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
        assert_eq!(t.covered_nodes(), (0..6).collect::<Vec<_>>());
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
        assert_eq!(t.depth(), 1);
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
        assert_eq!(t.covered_nodes(), (0..9).collect::<Vec<_>>());
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
        assert_eq!(t.depth(), 0);
    }
}
