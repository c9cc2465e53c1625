//! A self-contained `BTreeSet` reference of recursive tree construction
//! (§IV-A.3–4), written from the paper's steps and not from the crate's
//! code: it reads the input graph through `UnGraph`'s edge queries only.
//!
//! Every component, complete or not, goes through the generic step: the
//! separator clique leaves the most components, then is the smaller clique,
//! then the first in ascending lexicographic order.

use datawa::graph::{ClusterTree, TreeNode, UnGraph};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

type Set = BTreeSet<usize>;

/// The connected components of `graph` restricted to `within`, in order of
/// their smallest node.
fn components(graph: &UnGraph, within: &Set) -> Vec<Set> {
    let mut seen = Set::new();
    let mut out = Vec::new();
    for &start in within {
        if !seen.insert(start) {
            continue;
        }
        let mut component = Set::from([start]);
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for v in graph.neighbors(u) {
                if within.contains(&v) && seen.insert(v) {
                    component.insert(v);
                    stack.push(v);
                }
            }
        }
        out.push(component);
    }
    out
}

/// The maximal cliques of the chordal completion of the subgraph induced by
/// `within`, each ascending, sorted lexicographically.
///
/// Maximum Cardinality Search visits the unvisited node with the most
/// visited neighbours, ties to the smallest id; the elimination game
/// eliminates in reverse visit order, making each node's later neighbours
/// pairwise adjacent; every `{v} ∪ later(v)` is a clique candidate, and the
/// inclusion-maximal ones are the cliques.
fn maximal_cliques(graph: &UnGraph, within: &Set) -> Vec<Vec<usize>> {
    let mut weight: BTreeMap<usize, usize> = within.iter().map(|&v| (v, 0)).collect();
    let mut visit = Vec::new();
    while let Some((&v, _)) = weight.iter().max_by_key(|&(&v, &w)| (w, Reverse(v))) {
        weight.remove(&v);
        visit.push(v);
        for u in graph.neighbors(v) {
            if let Some(w) = weight.get_mut(&u) {
                *w += 1;
            }
        }
    }
    let induced = |v: usize| graph.neighbors(v).filter(|u| within.contains(u)).collect();
    let mut filled: BTreeMap<usize, Set> = within.iter().map(|&v| (v, induced(v))).collect();
    let mut eliminated = Set::new();
    let mut candidates: Vec<Set> = Vec::new();
    for &v in visit.iter().rev() {
        let later: Set = filled[&v].difference(&eliminated).copied().collect();
        for &a in &later {
            let row = filled.get_mut(&a).expect("a node of `within`");
            row.extend(later.iter().copied().filter(|&b| b != a));
        }
        let mut candidate = later;
        candidate.insert(v);
        candidates.push(candidate);
        eliminated.insert(v);
    }
    let mut cliques: Vec<Vec<usize>> = candidates
        .iter()
        .filter(|c| {
            !candidates
                .iter()
                .any(|d| c.len() < d.len() && c.is_subset(d))
        })
        .map(|c| c.iter().copied().collect())
        .collect();
    cliques.sort();
    cliques.dedup();
    cliques
}

/// Builds the subtree over the connected set `within`; returns its root.
fn build(graph: &UnGraph, within: &Set, nodes: &mut Vec<TreeNode>) -> usize {
    let separator: Set = maximal_cliques(graph, within)
        .into_iter()
        .map(|clique| clique.into_iter().collect::<Set>())
        .min_by_key(|clique| {
            let rest: Set = within.difference(clique).copied().collect();
            (Reverse(components(graph, &rest).len()), clique.len())
        })
        .expect("a non-empty set has a clique");
    let index = nodes.len();
    let (members, children) = (separator.iter().copied().collect(), Vec::new());
    nodes.push(TreeNode { members, children });
    let rest: Set = within.difference(&separator).copied().collect();
    let children = components(graph, &rest)
        .iter()
        .map(|component| build(graph, component, nodes))
        .collect();
    nodes[index].children = children;
    index
}

/// The cluster tree of `graph`: one root per connected component, in order
/// of the component's smallest node, node indices in creation (preorder).
pub fn reference_tree(graph: &UnGraph) -> ClusterTree {
    let mut tree = ClusterTree::default();
    let all: Set = (0..graph.node_count()).collect();
    for component in components(graph, &all) {
        tree.roots.push(build(graph, &component, &mut tree.nodes));
    }
    tree
}
