//! `llr_bench` — end-to-end and per-layer benchmark of the sharded
//! simulator, the wall-clock runtime and the `repro` suite.
//!
//! ```text
//! llr_bench [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
//! llr_bench --compare BASE.json NEW.json
//! ```
//!
//! Each repetition runs in a fresh child process (a re-exec of this binary),
//! one child at a time; repetitions continue until `--seconds` have passed.
//! Every metric prints as `workload metric value unit` with its quartiles
//! and repetition count, `DIR/results.json` collects them, and the last line
//! of standard output is a JSON summary. The exit status is nonzero when a
//! correctness check fails. See README.md for the workloads and metrics.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod replay;
mod stats;
mod trace;
mod workload;

use json::{num, obj, string, Json};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Check, ChildReport, Workload};

/// End-to-end metrics, `(name, unit, child value it is the median of)`.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "body_s"),
    ("setup_s", "s", "setup_s"),
    ("peak_rss_mb", "MiB", "rss_mb"),
];

/// Per-layer metrics of the traced repetition, `(name, unit)`. A workload
/// that does not use a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("shard.events", "count"),
    ("shard.rounds", "count"),
    ("shard.events_per_round", "count"),
    ("shard.ns_per_event", "ns"),
    ("shard.queue_push_pop_ns", "ns"),
    ("sharded.summaries", "count"),
    ("sharded.summaries_per_req", "ratio"),
    ("sharded.copies_issued", "count"),
    ("sharded.copies_cancelled", "count"),
    ("sharded.useful_copy_frac", "ratio"),
    ("sharded.req_per_s", "req/s"),
    ("estimator.rate_observe_ns", "ns"),
    ("estimator.peer_total_rate_ns", "ns"),
    ("estimator.summary_apply_ns", "ns"),
    ("estimator.bank_observe_ns", "ns"),
    ("estimator.moment_observe_ns", "ns"),
    ("planner.decide_ns", "ns"),
    ("planner.threshold_cold_ms", "ms"),
    ("cancel.token_ns", "ns"),
    ("hashring.build_ms", "ms"),
    ("hashring.place_table_ms", "ms"),
    ("stats.push_ns", "ns"),
    ("stats.p99_ms", "ms"),
    ("rt.call_overhead_s", "s"),
    ("rt.req_per_s", "req/s"),
    ("rt.mean_latency_us", "us"),
    ("rt.p99_latency_us", "us"),
    ("rt.useful_copy_frac", "ratio"),
    ("rt.late_frac", "ratio"),
    ("rt.purged_frac", "ratio"),
    ("rt.aborted_frac", "ratio"),
    ("fig.queuesim_s", "s"),
    ("fig.disk_s", "s"),
    ("fig.service_s", "s"),
    ("fig.wansim_s", "s"),
    ("budget.queue_s", "s"),
    ("budget.frontend_s", "s"),
    ("budget.aggregate_s", "s"),
    ("budget.decision_s", "s"),
    ("budget.residual_s", "s"),
    ("trace_overhead_frac", "ratio"),
];

/// The run length when `--seconds` is not given (`run_seconds` in
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

/// Repetitions a run makes however long they take.
const MIN_REPS: usize = 3;

/// Marks the child's report line on its standard output.
const CHILD_MARK: &str = "llr-bench-child ";

/// The check a repetition that crashed or printed no report fails.
const REP_COMPLETES: &str = "repetition completes";

enum Mode {
    Run {
        workloads: Vec<Workload>,
        seed: Option<u64>,
        seconds: f64,
        trace: bool,
        out: PathBuf,
    },
    Child {
        workload: Workload,
        seed: u64,
        out: PathBuf,
        traced: bool,
    },
    Compare {
        base: PathBuf,
        new: PathBuf,
    },
}

const USAGE: &str =
    "usage: llr_bench [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
       llr_bench --compare BASE.json NEW.json
workloads: sim-scale sim-lanes rt-closed repro-quick (default: all four)";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workloads = Vec::new();
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from("target/llr-bench");
    let mut child = None;
    let mut traced = false;
    let mut compare = None;
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload =
        |name: String| Workload::parse(&name).ok_or(format!("unknown workload `{name}`"));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workloads.push(workload(value(&mut it, arg)?)?),
            "--seed" => {
                let v = value(&mut it, arg)?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value(&mut it, arg)?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => out = PathBuf::from(value(&mut it, arg)?),
            "--compare" => compare = Some((value(&mut it, arg)?, value(&mut it, arg)?)),
            "--child" => child = Some(workload(value(&mut it, arg)?)?),
            "--traced" => traced = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some((base, new)) = compare {
        return Ok(Mode::Compare {
            base: base.into(),
            new: new.into(),
        });
    }
    if let Some(workload) = child {
        return Ok(Mode::Child {
            workload,
            seed: seed.unwrap_or(workload.default_seed()),
            out,
            traced,
        });
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Mode::Run {
        workloads,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Child {
            workload,
            seed,
            out,
            traced,
        } => workload::run_child(workload, seed, &out, traced, started)
            .map(|rep| println!("{CHILD_MARK}{}", rep.to_json()))
            .map(|()| true),
        Mode::Compare { base, new } => compare::run(&base, &new),
        Mode::Run {
            workloads,
            seed,
            seconds,
            trace,
            out,
        } => run(&workloads, seed, seconds, trace, &out),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("llr_bench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs each workload, prints its rows and JSON line, and merges it into
/// `DIR/results.json`. `Ok(false)` when a correctness check failed.
fn run(
    workloads: &[Workload],
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut all_correct = true;
    for &w in workloads {
        let seed = seed.unwrap_or(w.default_seed());
        let res = run_workload(w, seed, seconds, trace, out);
        res.print();
        let path = out.join("results.json");
        let mut doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| json::parse(&t).ok())
            .and_then(|d| d.get("workloads")?.as_obj().cloned())
            .unwrap_or_default();
        doc.insert(w.name().to_string(), res.to_json());
        let text = obj([("workloads", Json::Obj(doc))]).to_string();
        std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("{}", res.driver_line(trace));
        all_correct &= res.correct();
    }
    Ok(all_correct)
}

/// One workload's run: its repetitions, the traced repetition if any, and
/// the checks that span repetitions.
struct WorkloadResult {
    workload: String,
    seed: u64,
    reps: Vec<ChildReport>,
    traced: Option<ChildReport>,
    /// Checks made by the parent: child failures and cross-repetition
    /// identity.
    checks: Vec<Check>,
}

/// Spawns one repetition and reads its report.
fn spawn_child(w: Workload, seed: u64, out: &Path, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(w.name())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--out")
        .arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}: {}",
            w.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(CHILD_MARK))
        .ok_or("child printed no report")?;
    let doc = json::parse(line).map_err(|e| format!("child report: {e}"))?;
    ChildReport::from_json(&doc).ok_or_else(|| "malformed child report".to_string())
}

fn run_workload(w: Workload, seed: u64, seconds: f64, trace: bool, out: &Path) -> WorkloadResult {
    let t0 = Instant::now();
    // A traced run spends the second half on the traced repetition and its
    // replays.
    let window = if trace { seconds / 2.0 } else { seconds };
    let mut res = WorkloadResult {
        workload: w.name().to_string(),
        seed,
        reps: Vec::new(),
        traced: None,
        checks: Vec::new(),
    };
    loop {
        match spawn_child(w, seed, out, false) {
            Ok(rep) => res.reps.push(rep),
            Err(e) => {
                res.checks.push(Check {
                    name: REP_COMPLETES.into(),
                    ok: false,
                    detail: e,
                });
                break;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let per_rep = elapsed / res.reps.len() as f64;
        if res.reps.len() >= MIN_REPS && elapsed + per_rep > window {
            break;
        }
    }
    if trace {
        match spawn_child(w, seed, out, true) {
            Ok(rep) => res.traced = Some(rep),
            Err(e) => res.checks.push(Check {
                name: REP_COMPLETES.into(),
                ok: false,
                detail: e,
            }),
        }
    }
    let prints: Vec<&str> = res.all_reps().map(|r| r.fingerprint.as_str()).collect();
    if let Some(first) = prints.first() {
        let same = prints.iter().all(|p| p == first);
        res.checks.push(Check {
            name: "outputs identical across repetitions".into(),
            ok: same,
            detail: if same {
                (*first).to_string()
            } else {
                prints.join(" | ")
            },
        });
    }
    res
}

impl WorkloadResult {
    fn all_reps(&self) -> impl Iterator<Item = &ChildReport> {
        self.reps.iter().chain(self.traced.as_ref())
    }

    fn all_checks(&self) -> impl Iterator<Item = &Check> {
        self.all_reps()
            .flat_map(|r| r.checks.iter())
            .chain(self.checks.iter())
    }

    fn correct(&self) -> bool {
        !self.reps.is_empty() && self.all_checks().all(|c| c.ok)
    }

    /// Operations attempted and failed over every repetition; a repetition
    /// that failed outright counts as one failed attempt.
    fn attempted_failed(&self) -> (u64, u64) {
        let crashed = self
            .checks
            .iter()
            .filter(|c| !c.ok && c.name == REP_COMPLETES)
            .count() as u64;
        let sum = |k: &str| self.all_reps().map(|r| r.get(k) as u64).sum::<u64>();
        (sum("ops") + crashed, sum("ops_failed") + crashed)
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, Summary)> {
        if self.reps.is_empty() {
            return Vec::new();
        }
        END_TO_END
            .iter()
            .map(|&(name, unit, key)| {
                let values: Vec<f64> = self.reps.iter().map(|r| r.get(key)).collect();
                (name, unit, Summary::of(&values))
            })
            .collect()
    }

    /// The traced repetition's per-layer values: every `PER_LAYER` metric
    /// (0 where the workload skips the layer) plus the per-experiment
    /// `fig.<id>_s` times.
    fn per_layer(&self) -> Vec<(String, &'static str, f64)> {
        let Some(traced) = &self.traced else {
            return Vec::new();
        };
        let untraced = self
            .end_to_end()
            .into_iter()
            .find(|(n, _, _)| *n == "wall_s")
            .map_or(f64::NAN, |(_, _, s)| s.median);
        let mut rows: Vec<(String, &'static str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "trace_overhead_frac" {
                    traced.get("body_s") / untraced - 1.0
                } else {
                    traced.get(name)
                };
                (name.to_string(), unit, v)
            })
            .collect();
        for (name, v) in &traced.values {
            if name.starts_with("fig.") && !PER_LAYER.iter().any(|(n, _)| n == name) {
                rows.push((name.clone(), "s", *v));
            }
        }
        rows
    }

    fn print(&self) {
        let w = &self.workload;
        for (name, unit, s) in self.end_to_end() {
            println!(
                "{w:<12} {name:<28} {:>14.6} {unit:<6} p25={:.6} p75={:.6} n={}",
                s.median,
                s.p25,
                s.p75,
                s.values.len()
            );
        }
        for (name, unit, v) in self.per_layer() {
            println!("{w:<12} {name:<28} {v:>14.6} {unit:<6} n=1");
        }
        for c in self.all_checks().filter(|c| !c.ok) {
            println!("{w:<12} FAIL {}: {}", c.name, c.detail);
        }
        let (attempted, failed) = self.attempted_failed();
        println!(
            "{w:<12} seed={} reps={} attempted={attempted} failed={failed} correct={}",
            self.seed,
            self.reps.len(),
            self.correct()
        );
    }

    /// The summary line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or with `trace` the per-layer ones.
    fn driver_line(&self, trace: bool) -> Json {
        let metric = |v: f64, unit: &str| obj([("value", num(v)), ("unit", string(unit))]);
        let metrics: BTreeMap<String, Json> = if trace {
            let layers = self.per_layer();
            PER_LAYER
                .iter()
                .filter_map(|&(name, unit)| {
                    let (_, _, v) = layers.iter().find(|(n, _, _)| n == name)?;
                    Some((name.to_string(), metric(*v, unit)))
                })
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|(name, unit, s)| (name.to_string(), metric(s.median, unit)))
                .collect()
        };
        let (attempted, failed) = self.attempted_failed();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(attempted.max(1) as f64)),
            ("failed", num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    fn to_json(&self) -> Json {
        let (attempted, failed) = self.attempted_failed();
        let e2e = self.end_to_end().into_iter().map(|(name, unit, s)| {
            (
                name,
                obj([
                    ("median", num(s.median)),
                    ("p25", num(s.p25)),
                    ("p75", num(s.p75)),
                    ("n", num(s.values.len() as f64)),
                    ("unit", string(unit)),
                    (
                        "values",
                        Json::Arr(s.values.iter().map(|v| num(*v)).collect()),
                    ),
                ]),
            )
        });
        let layers = self
            .per_layer()
            .into_iter()
            .map(|(name, unit, v)| (name, obj([("value", num(v)), ("unit", string(unit))])));
        obj([
            ("seed", num(self.seed as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(attempted as f64)),
            ("failed", num(failed as f64)),
            ("end_to_end", obj(e2e)),
            ("per_layer", obj(layers)),
            (
                "reps",
                Json::Arr(self.reps.iter().map(ChildReport::to_json).collect()),
            ),
            (
                "traced",
                self.traced
                    .as_ref()
                    .map_or(Json::Null, ChildReport::to_json),
            ),
            (
                "checks",
                Json::Arr(self.checks.iter().map(Check::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(body_s: f64, setup_s: f64) -> ChildReport {
        let mut r = ChildReport {
            fingerprint: "f".into(),
            ..ChildReport::default()
        };
        for (k, v) in [
            ("body_s", body_s),
            ("setup_s", setup_s),
            ("rss_mb", 40.5),
            ("ops", 1000.0),
            ("ops_failed", 0.0),
        ] {
            r.values.insert(k.into(), v);
        }
        r
    }

    fn sample() -> WorkloadResult {
        let mut traced = rep(1.1, 0.2);
        traced.values.insert("shard.events".into(), 6.2e6);
        traced.values.insert("fig.tcp_s".into(), 0.003);
        WorkloadResult {
            workload: "sim-scale".into(),
            seed: 7,
            reps: vec![rep(1.0, 0.2), rep(1.2, 0.25), rep(0.9, 0.21)],
            traced: Some(traced),
            checks: vec![Check {
                name: "outputs identical across repetitions".into(),
                ok: true,
                detail: "f".into(),
            }],
        }
    }

    #[test]
    fn results_json_round_trips() {
        let res = sample();
        let doc = json::parse(&res.to_json().to_string()).expect("parses");
        // What `--compare` reads back is exactly what was summarized.
        for (name, _, s) in res.end_to_end() {
            let back = doc
                .get("end_to_end")
                .and_then(|e| e.get(name))
                .and_then(compare::summary)
                .expect("summary reads back");
            assert_eq!(back, s, "{name}");
        }
        let reps = doc.get("reps").and_then(Json::as_arr).expect("reps");
        let back: Vec<ChildReport> = reps
            .iter()
            .map(|r| ChildReport::from_json(r).expect("report reads back"))
            .collect();
        assert_eq!(back, res.reps);
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_obj)
            .expect("per_layer");
        assert_eq!(
            layers["fig.tcp_s"].get("value").and_then(Json::as_f64),
            Some(0.003)
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_metrics() {
        let res = sample();
        let line = res.driver_line(false);
        let keys: Vec<&String> = line.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(4000.0));

        let traced = res.driver_line(true);
        let layers = traced
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert_eq!(layers.len(), PER_LAYER.len());
        let overhead = layers["trace_overhead_frac"]
            .get("value")
            .and_then(Json::as_f64);
        assert!((overhead.expect("value") - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut res = sample();
        assert!(res.correct());
        res.reps[1].checks.push(Check {
            name: "completed == requests".into(),
            ok: false,
            detail: "999 of 1000".into(),
        });
        assert!(!res.correct());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../BENCHMARK.json");
        let spec =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (id, group) in workload::REPRO_SET {
            let row = format!("fig.{group}_s");
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == row),
                "{id}: no {row} row"
            );
        }
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args: Vec<String> = [
            "--workload",
            "rt-closed",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&args) {
            Ok(Mode::Run {
                workloads,
                seed,
                seconds,
                trace,
                ..
            }) => {
                assert_eq!(workloads, vec![Workload::RtClosed]);
                assert_eq!((seed, seconds, trace), (Some(3), 10.0, false));
            }
            _ => panic!("expected a run"),
        }
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
