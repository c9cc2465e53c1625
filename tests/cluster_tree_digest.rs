//! Golden digest of the cluster trees the public planning stages build.
//!
//! At every task-arrival instant of a workload, the workers available then
//! and the tasks open then go through `reachable_tasks` →
//! `build_worker_dependency_graph` → `ClusterTree::build`, and an FNV-1a
//! digest folds each tree's node count, roots, node order, members and
//! children. No assignment is made, so the instants are independent of the
//! planner's search and of any dispatch.
//!
//! The workloads are `golden_counts`'s `yueche-0.1` trace and 400×150
//! heavy-tailed churn at both seeds, and one session of the benchmark's
//! `churn-batched` shape (625 tasks, 1,000 workers): every available worker
//! is a node, so its graphs run past 64 and 128 nodes. A change to the
//! graph, the chordal completion or recursive tree construction must leave
//! every digest unchanged.

use datawa::assign::{build_worker_dependency_graph, reachable_tasks};
use datawa::graph::ClusterTree;
use datawa::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest {
    state: u64,
    /// Largest graph seen, in nodes.
    max_nodes: usize,
}

impl Digest {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_list(&mut self, list: &[usize]) {
        self.fold(list.len() as u64);
        for &x in list {
            self.fold(x as u64);
        }
    }

    fn fold_tree(&mut self, tree: &ClusterTree) {
        self.fold(tree.len() as u64);
        self.fold_list(&tree.roots);
        for node in &tree.nodes {
            self.fold_list(&node.members);
            self.fold_list(&node.children);
        }
    }
}

/// The digest of every task-arrival instant's tree, and the largest graph.
fn digest(workload: &Workload) -> (u64, usize) {
    let workers = WorkerStore::from_workers(workload.workers.iter().copied());
    let tasks = TaskStore::from_tasks(workload.tasks.iter().copied());
    let config = AssignConfig::default();
    let mut instants: Vec<Timestamp> = workload.tasks.iter().map(|t| t.publication).collect();
    instants.sort_by(|a, b| a.0.total_cmp(&b.0));
    instants.dedup();
    let mut digest = Digest {
        state: FNV_OFFSET,
        max_nodes: 0,
    };
    for now in instants {
        let available = workers.available_at(now);
        let open = tasks.open_at(now);
        let reachable = reachable_tasks(&available, &open, &workers, &tasks, &config, now);
        let (graph, mapping) = build_worker_dependency_graph(&available, &reachable);
        assert_eq!(mapping, available);
        digest.max_nodes = digest.max_nodes.max(graph.node_count());
        digest.fold(graph.edge_count() as u64);
        digest.fold_tree(&ClusterTree::build(&graph));
    }
    (digest.state, digest.max_nodes)
}

const SEEDS: [u64; 2] = [77003, 20161101];

/// `(workload, seed, digest)`, written at the commit before the graph moved
/// onto bit rows.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("yueche-0.1", 77003, 0x118751ea5ea41dfa),
    ("churn", 77003, 0x5b21dc3f3fcb2979),
    ("yueche-0.1", 20161101, 0x001c43d65f6887d6),
    ("churn", 20161101, 0x4240e5ce55d65637),
    ("churn-batched", 77003, 0xa35fbcf43d9b49c2),
];

#[test]
fn cluster_trees_match_the_golden_digests() {
    let mut rows = Vec::new();
    for seed in SEEDS {
        let trace = SyntheticTrace::generate(TraceSpec::yueche().scaled(0.1).with_seed(seed));
        rows.push(("yueche-0.1", seed, digest(&trace.workload())));
        let churn = ScenarioSpec::small()
            .with_tasks(400)
            .with_workers(150)
            .with_seed(seed);
        rows.push((
            "churn",
            seed,
            digest(&HeavyTailedChurn::new(churn).generate()),
        ));
    }
    let dense = ScenarioSpec::small()
        .with_tasks(625)
        .with_workers(1_000)
        .with_horizon(1_250.0)
        .with_seed(SEEDS[0]);
    let (dense_digest, dense_nodes) = digest(&HeavyTailedChurn::new(dense).generate());
    assert!(
        dense_nodes > 128,
        "largest churn-batched graph: {dense_nodes} nodes"
    );
    rows.push(("churn-batched", SEEDS[0], (dense_digest, dense_nodes)));
    for (name, seed, (d, nodes)) in &rows {
        println!("(\"{name}\", {seed}, {d:#018x}), // {nodes} nodes");
    }
    let actual: Vec<(&str, u64, u64)> = rows.iter().map(|&(n, s, (d, _))| (n, s, d)).collect();
    assert_eq!(actual, GOLDEN);
}
