//! `ClusterTree::build` turns a one-vertex component (a whole isolated
//! vertex, or what is left of a component once its separator is removed)
//! into a leaf directly. The trees must stay exactly the ones the generic
//! recursive construction produces — node order, members and children —
//! because the planner's partition order and every index tie-break hang off
//! them.

use datawa::graph::{mcs_fill_in, ClusterTree, TreeNode, UnGraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Recursive tree construction without the leaf shortcut: every component,
/// one vertex or many, goes through induced subgraph → chordal completion →
/// best separator clique → recursion.
fn generic_tree(graph: &UnGraph) -> ClusterTree {
    fn recurse(graph: &UnGraph, allowed: &BTreeSet<usize>, nodes: &mut Vec<TreeNode>) -> usize {
        let member_list: Vec<usize> = allowed.iter().copied().collect();
        let (sub, mapping) = graph.induced_subgraph(&member_list);
        let decomposition = mcs_fill_in(&sub);
        let separator = decomposition
            .cliques
            .iter()
            .min_by_key(|clique| {
                let rest: BTreeSet<usize> = (0..sub.node_count())
                    .filter(|v| !clique.contains(v))
                    .collect();
                // Most components first, then the smaller clique; `min_by_key`
                // keeps the first of equals, like the strict `<` it mirrors.
                (
                    std::cmp::Reverse(sub.components_within(&rest).len()),
                    clique.len(),
                )
            })
            .expect("non-empty graph yields at least one clique");
        let members: Vec<usize> = separator.iter().map(|&v| mapping[v]).collect();
        let index = nodes.len();
        nodes.push(TreeNode {
            members: members.clone(),
            children: Vec::new(),
        });
        let remaining: BTreeSet<usize> = allowed
            .iter()
            .copied()
            .filter(|v| !members.contains(v))
            .collect();
        let mut children = Vec::new();
        for component in graph.components_within(&remaining) {
            let component: BTreeSet<usize> = component.into_iter().collect();
            children.push(recurse(graph, &component, nodes));
        }
        nodes[index].children = children;
        index
    }

    let mut tree = ClusterTree::default();
    for component in graph.connected_components() {
        let allowed: BTreeSet<usize> = component.into_iter().collect();
        let root = recurse(graph, &allowed, &mut tree.nodes);
        tree.roots.push(root);
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Sparse random graphs: at most as many edges as vertices, so isolated
    /// vertices, pendant vertices (one-vertex children under a separator)
    /// and a few larger components all occur.
    #[test]
    fn leaf_shortcut_builds_the_generic_tree(
        n in 1usize..40,
        raw_edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..40),
    ) {
        let mut graph = UnGraph::new(n);
        for &(u, v) in raw_edges.iter().take(n) {
            graph.add_edge(u % n, v % n);
        }
        let tree = ClusterTree::build(&graph);
        prop_assert_eq!(&tree, &generic_tree(&graph));
        prop_assert_eq!(tree.covered_nodes(), (0..n).collect::<Vec<_>>());
        let isolated = (0..n).filter(|&v| graph.degree(v) == 0).count();
        let leaf_roots = tree
            .roots
            .iter()
            .filter(|&&r| tree.nodes[r].members.len() == 1 && tree.nodes[r].children.is_empty())
            .count();
        prop_assert_eq!(leaf_roots, isolated);
    }
}
