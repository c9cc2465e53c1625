//! # datawa-graph
//!
//! Graph substrate for the Worker Dependency Separation phase of DATA-WA
//! (§IV-A): undirected graphs over dense `usize` node ids, chordal completion
//! via Maximum Cardinality Search, maximal-clique enumeration on chordal
//! graphs, connected components, and the Recursive Tree Construction (RTC)
//! algorithm that arranges worker clusters into a tree whose sibling nodes are
//! independent.
//!
//! The crate is deliberately domain-agnostic: nodes are plain indices. The
//! `datawa-assign` crate maps workers onto node indices and interprets the
//! resulting clusters.
//!
//! Everything runs on dense bit rows: a graph of `n` nodes keeps one row of
//! `ceil(n / 64)` `u64` words per node in one buffer, and every node set (a
//! component, a clique, what a separator leaves) is a mask of that width
//! over the original ids. An edge test is one bit test, a degree a popcount
//! per word, a set operation one instruction per word, and a flood fill one
//! row OR per node it reaches; MCS is quadratic in the set it orders, and
//! scoring a set's cliques is one flood fill each. [`ClusterTree::build_with`]
//! reuses one [`TreeScratch`] across builds.
//!
//! ```
//! use datawa_graph::UnGraph;
//!
//! let mut g = UnGraph::new(4);
//! g.add_edge(0, 1);
//! g.add_edge(2, 3);
//! assert_eq!(g.connected_components().len(), 2);
//! ```

pub mod chordal;
pub mod rtc;
pub mod undirected;

pub use chordal::{mcs_fill_in, ChordalDecomposition};
pub use rtc::{ClusterTree, TreeNode, TreeScratch};
pub use undirected::UnGraph;
