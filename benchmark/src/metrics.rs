//! The metric catalogue and the result of one run.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares (the smoke test holds the two against each other); the bounds
//! live in `BENCHMARK.json` only, and `compare` reads them from there.

use crate::json::{escape, number};
use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The seven end-to-end metrics, reported on every workload.
/// (`cpu_ms_per_kevent` was planned as the eighth; it could not be held
/// steady over the socket and is the per-layer `obs.cpu_ms_per_kevent`.)
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    higher("events_per_s", "1/s"),
    lower("decision_latency_p50_ms", "ms"),
    lower("decision_latency_p90_ms", "ms"),
    lower("mem_high_water_mb", "MB"),
    lower("recovery_s", "s"),
    higher("assigned_tasks", "count"),
];

/// The per-layer metrics of the traced run; the prefix is the crate. A metric
/// whose layer a workload does not exercise is reported as 0 there.
pub const PER_LAYER: [MetricDef; 47] = [
    lower("net.encode_ns_per_frame", "ns"),
    lower("net.decode_ns_per_frame", "ns"),
    lower("net.wire_bytes_per_event", "B"),
    lower("net.frames_out_per_event", "count"),
    lower("net.connect_ms", "ms"),
    lower("net.close_drain_ms", "ms"),
    lower("net.loopback_us_per_event", "us"),
    lower("net.overhead_us_per_event", "us"),
    lower("net.refused_frames", "count"),
    lower("net.generator_late_p90_ms", "ms"),
    lower("net.decision_latency_p99_ms", "ms"),
    lower("service.pump_us_per_event", "us"),
    lower("service.overhead_us_per_event", "us"),
    lower("service.backpressure_flushes", "count"),
    lower("service.backlog_high_water", "count"),
    lower("stream.session_us_per_event", "us"),
    lower("stream.ingest_ns_per_event", "ns"),
    lower("stream.advance_us_per_call", "us"),
    lower("stream.journal_append_ns_per_event", "ns"),
    lower("stream.journal_bytes_per_event", "B"),
    lower("stream.journal_scan_ns_per_record", "ns"),
    lower("stream.recover_us_per_event", "us"),
    lower("stream.queue_depth_peak", "count"),
    higher("stream.decisions_per_event", "count"),
    lower("stream.close_drain_ms", "ms"),
    lower("stream.decision_latency_p99_ms", "ms"),
    lower("assign.replan_share_pct", "%"),
    lower("assign.replan_us_mean", "us"),
    lower("assign.planning_calls", "count"),
    higher("assign.cache_hit_pct", "%"),
    lower("assign.partitions_peak", "count"),
    lower("assign.partition_workers_peak", "count"),
    lower("assign.plan_full_us_per_instant", "us"),
    lower("assign.search_nodes_per_instant", "count"),
    lower("assign.reachable_us_per_instant", "us"),
    lower("assign.sequences_us_per_instant", "us"),
    lower("assign.tvf_train_s", "s"),
    lower("assign.threads2_slowdown_ratio", "ratio"),
    lower("graph.cluster_tree_us_per_instant", "us"),
    lower("predict.train_s", "s"),
    lower("predict.observe_ns_per_arrival", "ns"),
    lower("predict.forecast_us_per_query", "us"),
    lower("predict.refreshes", "count"),
    lower("predict.predicted_tasks_per_query", "count"),
    lower("obs.allocs_per_event", "count"),
    lower("obs.cpu_ms_per_kevent", "ms"),
    lower("obs.trace_overhead_pct", "%"),
];

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["yueche-dta", "yueche-datawa", "churn-batched", "net-greedy"];

/// One measured metric: the reported value is `summary.value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: MetricDef,
    pub summary: Summary,
}

/// Everything one `run` reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub scale: &'static str,
    pub traced: bool,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(m.def.name),
                    number(m.summary.value),
                    escape(m.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The richer record `--out` writes and `compare`/`calibrate` read: the
    /// contract fields plus quartiles and sample counts.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                    escape(m.def.name),
                    number(m.summary.value),
                    escape(m.def.unit),
                    m.def.better.as_str(),
                    number(m.summary.q1),
                    number(m.summary.q3),
                    m.summary.n
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \"trace\": {}, \"rounds\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
            escape(&self.workload),
            self.seed,
            self.scale,
            u8::from(self.traced),
            self.rounds,
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics.join(", ")
        )
    }

    /// The human-readable table: every metric by name with its unit, the
    /// quartiles and the sample count beside each median.
    pub fn print_table(&self) {
        println!(
            "workload {}  seed {}  scale {}  {}  timed rounds {}",
            self.workload,
            self.seed,
            self.scale,
            if self.traced { "traced" } else { "untraced" },
            self.rounds
        );
        for m in &self.metrics {
            let s = &m.summary;
            if s.n > 1 {
                println!(
                    "  {:<40} {:>16.6} {:<6} (q1 {:.6}, q3 {:.6}, n {})",
                    m.def.name, s.value, m.def.unit, s.q1, s.q3, s.n
                );
            } else {
                println!("  {:<40} {:>16.6} {:<6}", m.def.name, s.value, m.def.unit);
            }
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}
