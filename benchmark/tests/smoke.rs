//! Keeps the frozen harness compiling and honest against the current API:
//! every workload at `--scale smoke`, the output held against
//! `BENCHMARK.json`, counts repeatable per seed and different between seeds.

use datawa_benchmark::compare::{default_bounds_path, read_bounds};
use datawa_benchmark::json::{parse, Json};
use datawa_benchmark::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(default_bounds_path()).expect("BENCHMARK.json is readable");
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {value:?}"))
}

/// Runs the binary and returns (exit ok, standard output).
fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("output is UTF-8"),
    )
}

/// One smoke run; returns the parsed contract line.
fn smoke(workload: &str, seed: u64, trace: u8) -> Json {
    let (ok, stdout) = run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0",
        "--trace",
        &trace.to_string(),
        "--scale",
        "smoke",
    ]);
    assert!(ok, "{workload} seed {seed} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    result
}

/// (name, unit) of every metric of a result, each holding exactly a finite
/// `value` and a `unit`.
fn reported(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            let members = m.as_object().expect("a metric object");
            assert_eq!(members.len(), 2, "{name} holds exactly value and unit");
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), text(m, "unit").to_string())
        })
        .collect()
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {metric}"))
}

#[test]
fn benchmark_json_declares_what_the_binary_reports() {
    let doc = benchmark_json();
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("no {key}"))
            .iter()
            .map(|m| {
                (
                    text(m, "name").to_string(),
                    text(m, "unit").to_string(),
                    m.get("better")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let catalogue =
        |defs: &[datawa_benchmark::metrics::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect()
        };
    assert_eq!(names("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(names("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert!(!text(w, "why").is_empty());
            text(w, "name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let bounds = read_bounds(&default_bounds_path()).expect("bounds parse");
    assert!(bounds.iter().all(|b| (0.0..=0.25).contains(&b.bound)));
    let setup = bounds
        .iter()
        .find(|b| b.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
}

#[test]
fn every_workload_runs_and_reports_the_declared_metrics() {
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect();
    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect();
    for workload in WORKLOADS {
        let first = smoke(workload, 7, 0);
        assert_eq!(reported(&first), end_to_end, "{workload}");
        assert!(
            value(&first, "assigned_tasks") > 0.0,
            "{workload} assigned nothing"
        );

        // The same seed gives the same inputs, so counts repeat exactly.
        let again = smoke(workload, 7, 0);
        assert_eq!(
            value(&first, "assigned_tasks"),
            value(&again, "assigned_tasks"),
            "{workload}"
        );
        assert_eq!(first.get("attempted"), again.get("attempted"), "{workload}");

        // Another seed gives other inputs.
        let others = [smoke(workload, 8, 0), smoke(workload, 9, 0)];
        assert!(
            others
                .iter()
                .any(|o| value(o, "assigned_tasks") != value(&first, "assigned_tasks")),
            "{workload}: seeds 7, 8 and 9 all assign the same number of tasks"
        );

        let traced = smoke(workload, 7, 1);
        assert_eq!(reported(&traced), per_layer, "{workload}");
        let trace_path = datawa_benchmark::out_dir().join(format!("trace-{workload}.json"));
        let trace = parse(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace file is JSON");
        let spans = trace.get("spans").and_then(Json::as_array).expect("spans");
        assert!(!spans.is_empty(), "{workload} recorded no span");
        for span in spans.iter().take(100) {
            for key in ["id", "parent", "start_ns", "end_ns"] {
                assert!(
                    span.get(key).and_then(Json::as_f64).is_some(),
                    "span without {key}"
                );
            }
            assert!(span.get("name").and_then(Json::as_str).is_some());
        }
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let (ok, stdout) = run(&["run", "--workload", "no-such-workload", "--scale", "smoke"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "printed: {stdout}");
}
