//! `compare`: two result files against the bounds of `BENCHMARK.json`.
//! `calibrate`: two interleaved sets of runs of the same code, and the spread
//! table the bounds are derived from.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `BENCHMARK.json` beside the benchmark's directory.
pub fn default_bounds_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the end-to-end declarations (with their bounds) of `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: end_to_end entry without {key}", path.display()))
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better: match text("better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("{}: better = {other:?}", path.display())),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: end_to_end entry without bound", path.display()))?,
            })
        })
        .collect()
}

/// One metric of one run, as a result file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    value: f64,
    q1: f64,
    q3: f64,
}

/// The runs of one result file, keyed by (workload, traced).
#[derive(Debug, Default)]
struct Results {
    /// metric name → one sample per run.
    runs: BTreeMap<(String, bool), BTreeMap<String, Vec<Sample>>>,
    seeds: BTreeMap<(String, bool), Vec<u64>>,
    incorrect: Vec<String>,
}

impl Results {
    fn add(&mut self, run: &Json, origin: &str) -> Result<(), String> {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{origin}: a run without a workload"))?
            .to_string();
        let traced = run.get("trace").and_then(Json::as_f64).unwrap_or(0.0) != 0.0;
        let key = (workload.clone(), traced);
        if run.get("correct").and_then(Json::as_bool) != Some(true) {
            self.incorrect
                .push(format!("{origin}: {workload} did not pass its checks"));
        }
        if let Some(seed) = run.get("seed").and_then(Json::as_f64) {
            self.seeds.entry(key.clone()).or_default().push(seed as u64);
        }
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{origin}: {workload} has no metrics"))?;
        let by_name = self.runs.entry(key).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{origin}: {workload}.{name} has no value"))?;
            let quartile = |k| m.get(k).and_then(Json::as_f64).unwrap_or(value);
            by_name.entry(name.clone()).or_default().push(Sample {
                value,
                q1: quartile("q1"),
                q3: quartile("q3"),
            });
        }
        Ok(())
    }
}

/// Reads a result file: one run record, or `{"runs": [...]}` (what `run.sh`
/// and `calibrate` write).
fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut results = Results::default();
    match doc.get("runs").and_then(Json::as_array) {
        Some(runs) => {
            for run in runs {
                results.add(run, path)?;
            }
        }
        None => results.add(&doc, path)?,
    }
    Ok(results)
}

/// (q1, median, q3) of one side: across its runs when it has several, the
/// run's own quartiles over its rounds otherwise.
fn side(samples: &[Sample]) -> (f64, f64, f64) {
    match samples {
        [one] => (one.q1, one.value, one.q3),
        many => quartiles(&many.iter().map(|s| s.value).collect::<Vec<_>>()),
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    WithinBound,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::WithinBound => "within bound",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. Counts taken on the same seed are compared exactly;
/// everything else by its bound, and a timing whose quartile ranges overlap
/// by more than the bound is unresolved, not unchanged.
pub fn judge(
    a: (f64, f64, f64),
    b: (f64, f64, f64),
    declared: &Declared,
    exact: bool,
) -> (f64, Verdict) {
    let worse = worse_by(a.1, b.1, declared.better);
    if exact {
        let verdict = match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Same,
        };
        return (worse, verdict);
    }
    let overlap = (a.2.min(b.2) - a.0.max(b.0)).max(0.0);
    let verdict = if a.1 != 0.0 && overlap / a.1.abs() > declared.bound {
        Verdict::Unresolved
    } else if worse > declared.bound {
        Verdict::Regressed
    } else if worse < -declared.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    (worse, verdict)
}

/// `benchmark compare A.json B.json`: exit code 1 when any metric regressed
/// or a side failed its checks.
pub fn compare_command(files: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("compare takes two result files".to_string());
    };
    let declared = read_bounds(&default_bounds_path())?;
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    let mut regressed = 0;
    for line in a.incorrect.iter().chain(&b.incorrect) {
        println!("FAILED CHECKS: {line}");
        regressed += 1;
    }
    for (key, a_metrics) in &a.runs {
        let Some(b_metrics) = b.runs.get(key) else {
            println!("{} (trace {}): only in {a_path}", key.0, u8::from(key.1));
            continue;
        };
        let same_seeds = a.seeds.get(key) == b.seeds.get(key);
        println!(
            "\n{}{}  (A = {a_path}, B = {b_path}{})",
            key.0,
            if key.1 { " [per layer]" } else { "" },
            if same_seeds {
                ", same seeds"
            } else {
                ", different seeds"
            }
        );
        println!(
            "  {:<40} {:>16} {:>16} {:>9}  {:>6}  verdict",
            "metric", "A", "B", "worse by", "bound"
        );
        for (name, a_samples) in a_metrics {
            let Some(b_samples) = b_metrics.get(name) else {
                continue;
            };
            let (sa, sb) = (side(a_samples), side(b_samples));
            match declared.iter().find(|d| &d.name == name).filter(|_| !key.1) {
                Some(d) => {
                    let exact = d.unit == "count" && same_seeds;
                    let (worse, verdict) = judge(sa, sb, d, exact);
                    if verdict == Verdict::Regressed {
                        regressed += 1;
                    }
                    println!(
                        "  {:<40} {:>16.6} {:>16.6} {:>8.2}%  {:>5.1}%  {}",
                        name,
                        sa.1,
                        sb.1,
                        100.0 * worse,
                        if exact { 0.0 } else { 100.0 * d.bound },
                        verdict.label()
                    );
                }
                // Per-layer metrics have no bound: shown, not judged.
                None => println!(
                    "  {:<40} {:>16.6} {:>16.6} {:>8.2}%",
                    name,
                    sa.1,
                    sb.1,
                    100.0 * worse_by(sa.1, sb.1, Better::Lower)
                ),
            }
        }
    }
    println!(
        "\n{}",
        if regressed == 0 {
            "no end-to-end metric regressed".to_string()
        } else {
            format!("{regressed} regression(s)")
        }
    );
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs this binary's `run` once in a child process and returns the record
/// it wrote.
fn child_run(workload: &str, seed: u64, out: &Path) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !status.success() {
        return Err(format!("run of {workload} (seed {seed}) failed: {status}"));
    }
    std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))
}

/// Runs per set and workload: what the acceptance check of the benchmark
/// takes.
const CALIBRATION_RUNS: u64 = 10;

/// Seed of calibration run `i`. The acceptance check gives every run another
/// seed; these lie far enough apart that the panels of two runs (a workload
/// runs the traces of seeds `s, s+1, …`) share no trace.
fn calibration_seed(i: u64) -> u64 {
    1_000 * (i + 1) + 7
}

/// `benchmark calibrate`: per workload, two interleaved sets (A, B, A, B, …)
/// of ten runs each, run `i` of both sets on `calibration_seed(i)` — the shape
/// of the acceptance check. Prints, per end-to-end metric, both medians, how
/// far set B's median is on the worse side of set A's, the spread (quartile
/// distance over the median) inside each set, whether the declared bound
/// holds (spread and drift inside it: what the acceptance check enforces) and
/// whether the spread is under a third of it (what it asks for). Both sets'
/// records are also written to `out/calibrate-{A,B}.json` for `compare`.
pub fn calibrate_command() -> Result<ExitCode, String> {
    let declared = read_bounds(&default_bounds_path())?;
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut records: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut all_hold = true;
    println!("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | holds | under a third |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|---|");
    for workload in WORKLOADS {
        let mut sets: [Results; 2] = [Results::default(), Results::default()];
        for i in 0..CALIBRATION_RUNS {
            for (set, label) in ["A", "B"].iter().enumerate() {
                let path = out.join(format!("calibrate-{workload}-{label}{i}.json"));
                let record = child_run(workload, calibration_seed(i), &path)?;
                let doc = json::parse(&record).map_err(|e| format!("{}: {e}", path.display()))?;
                sets[set].add(&doc, &path.display().to_string())?;
                records[set].push(record.trim().to_string());
                let _ = std::fs::remove_file(&path);
            }
        }
        let key = (workload.to_string(), false);
        for d in &declared {
            let values = |set: &Results| -> Vec<f64> {
                set.runs[&key][&d.name].iter().map(|s| s.value).collect()
            };
            let (va, vb) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let drift = worse_by(ma, mb, d.better);
            let (sa, sb) = (spread(&va), spread(&vb));
            // `setup_s` is held to its bound on drift only.
            let exempt = d.name == "setup_s";
            let holds = (exempt || sa.max(sb) <= d.bound) && drift <= d.bound;
            let third = exempt || sa.max(sb) <= d.bound / 3.0;
            all_hold &= holds;
            println!(
                "| {workload} | {} | {ma:.6} | {mb:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} | {} |",
                d.name,
                100.0 * drift,
                100.0 * sa,
                100.0 * sb,
                100.0 * d.bound,
                if holds { "yes" } else { "NO" },
                if third { "yes" } else { "no" }
            );
        }
    }
    for (set, label) in ["A", "B"].iter().enumerate() {
        let path = out.join(format!("calibrate-{label}.json"));
        std::fs::write(
            &path,
            format!("{{\"runs\": [\n{}\n]}}\n", records[set].join(",\n")),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "\n{CALIBRATION_RUNS} runs per set and workload, seeds {}..{}, {} metrics per workload.",
        calibration_seed(0),
        calibration_seed(CALIBRATION_RUNS - 1),
        END_TO_END.len()
    );
    Ok(if all_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(better: Better, bound: f64, unit: &str) -> Declared {
        Declared {
            name: "m".to_string(),
            unit: unit.to_string(),
            better,
            bound,
        }
    }

    #[test]
    fn timings_are_judged_by_their_bound() {
        let d = declared(Better::Lower, 0.10, "ms");
        let tight = |m: f64| (m * 0.99, m, m * 1.01);
        assert_eq!(
            judge(tight(10.0), tight(10.5), &d, false).1,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(tight(10.0), tight(11.5), &d, false).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(tight(10.0), tight(8.0), &d, false).1,
            Verdict::Improved
        );
        // Quartile ranges that overlap by more than the bound settle nothing.
        let wide = |m: f64| (m * 0.8, m, m * 1.2);
        assert_eq!(
            judge(wide(10.0), wide(10.2), &d, false).1,
            Verdict::Unresolved
        );
        let up = declared(Better::Higher, 0.10, "1/s");
        assert_eq!(
            judge(tight(100.0), tight(80.0), &up, false).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn counts_on_the_same_seed_are_exact() {
        let d = declared(Better::Higher, 0.05, "count");
        let at = |v: f64| (v, v, v);
        assert_eq!(judge(at(8426.0), at(8426.0), &d, true).1, Verdict::Same);
        assert_eq!(
            judge(at(8426.0), at(8425.0), &d, true).1,
            Verdict::Regressed
        );
        assert_eq!(judge(at(8426.0), at(8427.0), &d, true).1, Verdict::Improved);
        // On different seeds one task fewer is inside the bound.
        assert_eq!(
            judge(at(8426.0), at(8425.0), &d, false).1,
            Verdict::WithinBound
        );
    }
}
