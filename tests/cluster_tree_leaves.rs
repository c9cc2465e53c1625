//! `ClusterTree::build` turns a complete component — one vertex, or every
//! pair adjacent; a whole component of the graph, or what is left of one once
//! its separator is removed — into a single node directly. The trees must
//! stay exactly the ones the generic recursive construction produces — node
//! order, members and children — because the planner's partition order and
//! every index tie-break hang off them.

use datawa::graph::{mcs_fill_in, ClusterTree, TreeNode, UnGraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Recursive tree construction without the shortcut: every component, one
/// vertex or many, complete or not, goes through induced subgraph → chordal
/// completion → best separator clique → recursion.
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

/// Adds every edge among `vertices`.
fn connect_all(graph: &mut UnGraph, vertices: &[usize]) {
    for (i, &u) in vertices.iter().enumerate() {
        for &v in &vertices[i + 1..] {
            graph.add_edge(u, v);
        }
    }
}

/// The vertices `start, start + step, ..` below `n`, `size` of them at most.
fn stride(start: usize, step: usize, size: usize, n: usize) -> Vec<usize> {
    (start..n).step_by(step).take(size).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Disjoint complete components of every size, interleaved in vertex
    /// order (component `c` of `k` holds the vertices `c, c + k, ..`), among
    /// isolated vertices: each is one node, members ascending, no children.
    #[test]
    fn complete_components_are_single_nodes(
        k in 1usize..6,
        sizes in prop::collection::vec(1usize..9, 1..6),
        n in 1usize..48,
    ) {
        let mut graph = UnGraph::new(n);
        let mut cliques = Vec::new();
        for (c, &size) in sizes.iter().take(k).enumerate() {
            let members = stride(c, k, size, n);
            connect_all(&mut graph, &members);
            cliques.push(members);
        }
        let tree = ClusterTree::build(&graph);
        prop_assert_eq!(&tree, &generic_tree(&graph));
        prop_assert_eq!(tree.len(), tree.roots.len(), "one node per component");
        for members in cliques.iter().filter(|m| !m.is_empty()) {
            let node = tree
                .nodes
                .iter()
                .find(|node| node.members.contains(&members[0]))
                .expect("covered");
            prop_assert_eq!(&node.members, members);
            prop_assert!(node.children.is_empty());
        }
    }

    /// A complete component with one edge taken back out is the smallest
    /// thing the shortcut must *not* fire on: its root is one of its two
    /// maximal cliques (everything but one of the now non-adjacent vertices)
    /// with that vertex as a leaf under it.
    #[test]
    fn one_edge_short_of_complete_goes_through_the_generic_step(
        size in 3usize..10,
        drop_a in 0usize..100,
        drop_b in 0usize..100,
        offset in 0usize..5,
    ) {
        let n = size + offset + 2;
        let members: Vec<usize> = (offset..offset + size).collect();
        let mut graph = UnGraph::new(n);
        connect_all(&mut graph, &members);
        let a = members[drop_a % size];
        let b = members[(drop_a % size + 1 + drop_b % (size - 1)) % size];
        graph.remove_edge(a, b);
        let tree = ClusterTree::build(&graph);
        prop_assert_eq!(&tree, &generic_tree(&graph));
        let root = &tree.nodes[tree.roots[offset]];
        prop_assert_eq!(root.members.len(), size - 1);
        prop_assert_eq!(root.children.len(), 1);
        prop_assert_eq!(tree.nodes[root.children[0]].members.len(), 1);
        prop_assert!(tree.verify_sibling_independence(&graph));
    }

    /// Cliques hanging under a separator: a hub adjacent to every vertex of
    /// several otherwise disjoint cliques. Removing the hub leaves components
    /// whose vertices all still have the hub as a neighbour outside the
    /// component — completeness has to be judged inside the component, not by
    /// degree alone. Random extra edges inside and across cliques make some
    /// of them incomplete or merge them, so both outcomes occur.
    #[test]
    fn cliques_under_a_separator_match_the_generic_tree(
        sizes in prop::collection::vec(1usize..6, 2..5),
        extra in prop::collection::vec((0usize..1000, 0usize..1000), 0..4),
        dropped in prop::collection::vec((0usize..1000, 0usize..1000), 0..3),
    ) {
        let n = 1 + sizes.iter().sum::<usize>();
        let mut graph = UnGraph::new(n);
        let mut next = 1;
        for &size in &sizes {
            let members: Vec<usize> = (next..next + size).collect();
            connect_all(&mut graph, &members);
            for &v in &members {
                graph.add_edge(0, v);
            }
            next += size;
        }
        for &(u, v) in &extra {
            graph.add_edge(1 + u % (n - 1), 1 + v % (n - 1));
        }
        for &(u, v) in &dropped {
            graph.remove_edge(1 + u % (n - 1), 1 + v % (n - 1));
        }
        let tree = ClusterTree::build(&graph);
        prop_assert_eq!(&tree, &generic_tree(&graph));
        prop_assert_eq!(tree.covered_nodes(), (0..n).collect::<Vec<_>>());
        prop_assert!(tree.verify_sibling_independence(&graph));
    }
}
