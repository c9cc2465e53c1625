//! `ClusterTree::build` against an independent reference: a `BTreeSet`
//! construction of the paper's steps (`support/cluster_tree_reference.rs`)
//! that reads the graph through its edge queries only. The trees must be
//! equal — node order, members and children — because the planner's
//! partition order and every index tie-break hang off them; every tree must
//! also keep sibling subtrees independent.
//!
//! Small graphs (under 40 nodes) cover the shapes; graphs of 60–200 nodes
//! put components across the 64-node boundaries of a bit row, with a band of
//! short-range edges so that nodes 63/64 and 127/128 sit in one component.

#[path = "support/cluster_tree_reference.rs"]
mod reference;

use datawa::graph::{ClusterTree, UnGraph};
use proptest::prelude::*;
use reference::reference_tree;

/// Every graph node the tree holds, sorted.
fn covered(tree: &ClusterTree) -> Vec<usize> {
    let roots = tree.roots.iter();
    let mut all: Vec<usize> = roots.flat_map(|&r| tree.subtree_members(r)).collect();
    all.sort_unstable();
    all
}

/// The tree of `graph` equals the reference's, covers every node once and
/// keeps sibling subtrees independent.
fn check(graph: &UnGraph) {
    let tree = ClusterTree::build(graph);
    assert_eq!(tree, reference_tree(graph));
    assert_eq!(covered(&tree), (0..graph.node_count()).collect::<Vec<_>>());
    assert!(tree.verify_sibling_independence(graph));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random graphs of up to 40 nodes, from empty to about three edges per
    /// node: isolated nodes, paths, cycles needing fill-in, dense clusters.
    #[test]
    fn small_graphs_match_the_reference(
        n in 1usize..40,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..120),
    ) {
        let mut graph = UnGraph::new(n);
        for &(u, v) in &raw_edges {
            graph.add_edge(u % n, v % n);
        }
        check(&graph);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Graphs of 60–200 nodes: short-range edges `u — u + 1 + d` (d < 4)
    /// from a random share of the nodes, plus a few long-range ones.
    #[test]
    fn multi_word_graphs_match_the_reference(
        n in 60usize..200,
        band in prop::collection::vec((0usize..1000, 0usize..4), 20..160),
        long in prop::collection::vec((0usize..1000, 0usize..1000), 0..6),
    ) {
        let mut graph = UnGraph::new(n);
        for &(u, d) in &band {
            let u = u % n;
            graph.add_edge(u, (u + 1 + d).min(n - 1));
        }
        for &(u, v) in &long {
            graph.add_edge(u % n, v % n);
        }
        // The word boundaries, bridged.
        for b in [63, 127] {
            if b + 1 < n {
                graph.add_edge(b, b + 1);
            }
        }
        check(&graph);
    }
}
