//! The four workloads, as one repetition runs them inside a child process:
//! set-up, the timed body, the correctness checks and, in the traced
//! repetition, the layer replays.

use crate::json::{num, obj, string, Json};
use crate::replay::{budget, process_cpu_s, rt_layers, sim_layers, RtShape, SimShape};
use crate::trace::Tracer;
use repro_bench::{run_experiment, Effort};
use simcore::dist::{DynDist, Exponential};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;
use storesim::rt::{self, RtConfig};
use storesim::service::Frontend;
use storesim::{run_sharded, ServiceConfig, ShardedOutcome};

/// Threads one repetition may use: 2 engine threads for the simulations,
/// the runner width for repro, and 1 worker plus the frontend for rt.
const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimScale,
    SimLanes,
    RtClosed,
    ReproQuick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimScale,
        Workload::SimLanes,
        Workload::RtClosed,
        Workload::ReproQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimScale => "sim-scale",
            Workload::SimLanes => "sim-lanes",
            Workload::RtClosed => "rt-closed",
            Workload::ReproQuick => "repro-quick",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SimScale | Workload::SimLanes => 0x5E81CE,
            Workload::RtClosed => 0x5C11_07E5,
            // Every experiment's seed is fixed by the registry.
            Workload::ReproQuick => 0,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

impl Check {
    pub fn to_json(&self) -> Json {
        obj([
            ("name", string(self.name.clone())),
            ("ok", Json::Bool(self.ok)),
            ("detail", string(self.detail.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Check> {
        Some(Check {
            name: v.get("name")?.as_str()?.to_string(),
            ok: v.get("ok")?.as_bool()?,
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// What one repetition reports to the parent.
///
/// `values` always holds `setup_s`, `body_s`, `rss_mb`, `ops` and
/// `ops_failed`; a traced repetition adds its per-layer metrics.
/// `fingerprint` must be identical across repetitions of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    pub values: BTreeMap<String, f64>,
    pub fingerprint: String,
    pub checks: Vec<Check>,
}

impl ChildReport {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn to_json(&self) -> Json {
        obj([
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
            ("fingerprint", string(self.fingerprint.clone())),
            (
                "checks",
                Json::Arr(self.checks.iter().map(Check::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<ChildReport> {
        Some(ChildReport {
            values: v
                .get("values")?
                .as_obj()?
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect::<Option<_>>()?,
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
            checks: v
                .get("checks")?
                .as_arr()?
                .iter()
                .map(Check::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// Runs one repetition. `started` is when the child process entered
/// `main`; everything from there to the timed body is set-up.
pub fn run_child(
    w: Workload,
    seed: u64,
    dir: &Path,
    traced: bool,
    started: Instant,
) -> Result<ChildReport, String> {
    simcore::runner::set_global_threads(THREADS);
    let mut tr = Tracer::new(traced);
    let mut rep = match w {
        Workload::SimScale => sim_child(&mut tr, 1, seed, started)?,
        Workload::SimLanes => sim_child(&mut tr, 8, seed, started)?,
        Workload::RtClosed => rt_child(&mut tr, seed, started)?,
        Workload::ReproQuick => repro_child(&mut tr, dir, started)?,
    };
    rep.set("rss_mb", peak_rss_mb()?);
    if traced {
        let path = dir.join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, tr.to_json(w.name()).to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(rep)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Server groups of the sharded engine (the `fig-service-scale` quick
/// setting).
const GROUPS: usize = 8;

/// The `fig-service-scale` quick configuration on `lanes` frontend lanes:
/// 256 servers, 65 536 shards stored 2-way, FIFO, cancellation on,
/// clairvoyant Global-model adaptive frontend, 200 µs propagation as the
/// engine lookahead, 1 M requests after 50 k of warm-up.
fn service_config(lanes: usize, seed: u64) -> ServiceConfig {
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.servers = 256;
    cfg.shards = 65_536;
    cfg.vnodes = 16;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.requests = 1_000_000;
    cfg.warmup = 50_000;
    cfg.frontend_lanes = lanes;
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = 8192;
    }
    cfg.seed = seed;
    cfg
}

fn sim_child(
    tr: &mut Tracer,
    lanes: usize,
    seed: u64,
    started: Instant,
) -> Result<ChildReport, String> {
    let cfg = tr.span("setup", |tr| {
        let cfg = tr.span("config", |_| service_config(lanes, seed));
        let mut warm = cfg.clone();
        warm.requests /= 10;
        warm.warmup /= 10;
        tr.span("storesim::sharded::run_sharded", |_| {
            run_sharded(&warm, GROUPS, THREADS)
        });
        cfg
    });
    let setup_s = started.elapsed().as_secs_f64();
    let cpu0 = process_cpu_s()?;
    let t = Instant::now();
    let out: ShardedOutcome = tr.span("body", |tr| {
        tr.span("storesim::sharded::run_sharded", |_| {
            run_sharded(&cfg, GROUPS, THREADS)
        })
    });
    let body_s = t.elapsed().as_secs_f64();
    let body_cpu_s = process_cpu_s()? - cpu0;

    let res = &out.result;
    let mut rep = ChildReport::default();
    rep.set("setup_s", setup_s);
    rep.set("body_s", body_s);
    rep.set("body_cpu_s", body_cpu_s);
    rep.set("ops", cfg.requests as f64);
    rep.set(
        "ops_failed",
        cfg.requests.saturating_sub(res.completed) as f64,
    );
    rep.fingerprint = format!(
        "events={} rounds={} summaries={} copies={} switch_off={:016x}",
        out.engine.events,
        out.engine.rounds,
        out.summaries,
        res.copies_issued,
        res.switch_off.to_bits()
    );
    let delta = res.switch_off - res.planner_threshold;
    rep.checks = vec![
        check(
            "completed == requests",
            res.completed == cfg.requests,
            format!("{} of {}", res.completed, cfg.requests),
        ),
        check(
            "|switch-off - offline threshold| <= 0.05",
            delta.abs() <= 0.05,
            format!("{:.5} vs {:.5}", res.switch_off, res.planner_threshold),
        ),
        if lanes == 1 {
            check(
                "no lane summaries on one lane",
                out.summaries == 0,
                format!("{} summaries", out.summaries),
            )
        } else {
            check(
                "lanes exchange summaries",
                out.summaries > 0,
                format!("{} summaries", out.summaries),
            )
        },
    ];

    if tr.enabled() {
        let total = (cfg.requests + cfg.warmup) as f64;
        let events = out.engine.events as f64;
        let Frontend::Adaptive { window, .. } = cfg.frontend else {
            unreachable!("service_config builds an adaptive frontend")
        };
        let shape = SimShape {
            servers: cfg.servers,
            vnodes: cfg.vnodes,
            shards: cfg.shards,
            stored: cfg.stored_replicas,
            lanes,
            window,
            mean_service: cfg.service.mean(),
            samples: cfg.requests,
        };
        let layers = tr.span("replay", |tr| sim_layers(tr, &shape));
        let l: BTreeMap<&str, f64> = layers.iter().copied().collect();
        for (name, v) in &layers {
            rep.set(name, *v);
        }
        rep.set("shard.events", events);
        rep.set("shard.rounds", out.engine.rounds as f64);
        rep.set(
            "shard.events_per_round",
            events / out.engine.rounds.max(1) as f64,
        );
        rep.set("shard.ns_per_event", body_s * 1e9 / events);
        rep.set("sharded.summaries", out.summaries as f64);
        rep.set("sharded.summaries_per_req", out.summaries as f64 / total);
        rep.set("sharded.copies_issued", res.copies_issued as f64);
        rep.set("sharded.copies_cancelled", res.copies_cancelled as f64);
        rep.set(
            "sharded.useful_copy_frac",
            res.completed as f64 / res.copies_issued as f64,
        );
        rep.set("sharded.req_per_s", total / body_s);
        // Every handled event is one push and one pop; every request makes
        // one Global-model decision; every completion is pushed into two
        // sample sets (run-wide and per bucket), each sorted once at the end.
        let rows = budget(
            body_s,
            body_cpu_s,
            &[
                (
                    "budget.queue_s",
                    l["shard.queue_push_pop_ns"] * events * 1e-9,
                ),
                (
                    "budget.frontend_s",
                    ((l["estimator.rate_observe_ns"] + l["estimator.peer_total_rate_ns"]) * total
                        + l["estimator.summary_apply_ns"] * out.summaries as f64)
                        * 1e-9
                        + (l["planner.threshold_cold_ms"]
                            + l["hashring.build_ms"]
                            + l["hashring.place_table_ms"])
                            * 1e-3,
                ),
                (
                    "budget.aggregate_s",
                    l["stats.push_ns"] * 2.0 * res.completed as f64 * 1e-9
                        + l["stats.p99_ms"] * 2.0 * 1e-3,
                ),
            ],
        );
        for (name, s) in rows {
            rep.set(name, s);
        }
    }
    Ok(rep)
}

/// `RtConfig::smoke` as a closed loop of 8 outstanding requests on one
/// worker thread.
fn rt_config(requests: usize, seed: u64) -> RtConfig {
    let mut cfg = RtConfig::smoke(requests, 1);
    cfg.inflight = 8;
    cfg.seed = seed;
    cfg
}

fn rt_child(tr: &mut Tracer, seed: u64, started: Instant) -> Result<ChildReport, String> {
    let cfg = tr.span("setup", |tr| {
        let cfg = tr.span("config", |_| rt_config(200_000, seed));
        let warm = rt_config(cfg.requests / 10, seed);
        tr.span("storesim::rt::run", |_| rt::run(&warm));
        cfg
    });
    let setup_s = started.elapsed().as_secs_f64();
    let cpu0 = process_cpu_s()?;
    let t = Instant::now();
    let res = tr.span("body", |tr| tr.span("storesim::rt::run", |_| rt::run(&cfg)));
    let body_s = t.elapsed().as_secs_f64();
    let body_cpu_s = process_cpu_s()? - cpu0;

    let mut rep = ChildReport::default();
    rep.set("setup_s", setup_s);
    rep.set("body_s", body_s);
    rep.set("body_cpu_s", body_cpu_s);
    rep.set("ops", res.requests as f64);
    rep.set(
        "ops_failed",
        res.requests.saturating_sub(res.responses) as f64,
    );
    rep.fingerprint = format!("{:016x}", res.trace_fingerprint);
    let accounted = res.responses + res.late + res.purged + res.aborted;
    rep.checks = vec![
        check(
            "responses == requests",
            res.responses == res.requests,
            format!("{} of {}", res.responses, res.requests),
        ),
        check(
            "issued == responses + late + purged + aborted",
            res.issued_copies == accounted,
            format!("{} vs {accounted}", res.issued_copies),
        ),
    ];

    if tr.enabled() {
        let layers = tr.span("replay", |tr| {
            rt_layers(
                tr,
                &RtShape {
                    servers: cfg.servers,
                    window: cfg.window,
                    moment_window: cfg.moment_window,
                    mean_service: cfg.service.mean(),
                },
            )
        });
        let l: BTreeMap<&str, f64> = layers.iter().copied().collect();
        for (name, v) in &layers {
            rep.set(name, *v);
        }
        let issued = res.issued_copies as f64;
        let requests = res.requests as f64;
        rep.set("rt.call_overhead_s", body_s - res.wall_secs);
        rep.set("rt.req_per_s", requests / res.wall_secs);
        rep.set("rt.mean_latency_us", res.mean_latency_s * 1e6);
        rep.set("rt.p99_latency_us", res.p99_latency_s * 1e6);
        rep.set("rt.useful_copy_frac", res.responses as f64 / issued);
        rep.set("rt.late_frac", res.late as f64 / issued);
        rep.set("rt.purged_frac", res.purged as f64 / issued);
        rep.set("rt.aborted_frac", res.aborted as f64 / issued);
        // Per request: two routed arrivals with their utilization reads,
        // one decision and one token; per issued copy: one moment sample;
        // per run: one uncached threshold bisection.
        let rows = budget(
            body_s,
            body_cpu_s,
            &[(
                "budget.decision_s",
                ((2.0 * l["estimator.bank_observe_ns"]
                    + l["planner.decide_ns"]
                    + l["cancel.token_ns"])
                    * requests
                    + l["estimator.moment_observe_ns"] * issued)
                    * 1e-9
                    + l["planner.threshold_cold_ms"] * 1e-3,
            )],
        );
        for (name, s) in rows {
            rep.set(name, s);
        }
    }
    Ok(rep)
}

/// The experiments a `repro-quick` repetition runs, with the crate each
/// one exercises. A representative subset of `repro all --quick`: the full
/// list takes ~29 s on 2 cores, too long to repeat inside one run, and the
/// packet-level netsim figures vary by ±20 % from run to run. The service
/// experiments dominate and each pays the `ThresholdCache` fill cold, as
/// every `repro` invocation does.
pub const REPRO_SET: &[(&str, &str)] = &[
    ("fig2b", "queuesim"),
    ("fig2c", "queuesim"),
    ("fig4", "queuesim"),
    ("fig10", "disk"),
    ("fig-service", "service"),
    ("fig-service-est", "service"),
    ("fig-service-tail", "service"),
    ("fig-service-skew", "service"),
    ("fig-service-skew-aware", "service"),
    ("fig-service-ps-est", "service"),
    ("tcp", "wansim"),
    ("fig15", "wansim"),
    ("fig16", "wansim"),
];

/// The experiments a `repro-quick` child runs during set-up: two quick
/// queuesim experiments outside [`REPRO_SET`], which warm the allocator and
/// the runner but not the `ThresholdCache`.
const REPRO_WARMUP: &[&str] = &["thm1", "fig1c"];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs one experiment and writes `<dir>/<id>.txt`, folding the report
/// into `hash`.
fn experiment(dir: &Path, id: &str, hash: &mut u64) -> Result<(), String> {
    let report = run_experiment(id, Effort::Quick);
    fnv1a(hash, id.as_bytes());
    fnv1a(hash, report.as_bytes());
    let path = dir.join(format!("{id}.txt"));
    std::fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The repository root, where `scripts/check_headlines.sh` lives.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../..")
}

fn repro_child(tr: &mut Tracer, dir: &Path, started: Instant) -> Result<ChildReport, String> {
    let out = dir.join("repro");
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    tr.span("setup", |tr| {
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        for id in REPRO_WARMUP {
            tr.span(&format!("repro_bench::run_experiment({id})"), |_| {
                experiment(&out, id, &mut hash)
            })?;
        }
        Ok::<(), String>(())
    })?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut rep = ChildReport::default();
    let t = Instant::now();
    tr.span("body", |tr| {
        for (id, group) in REPRO_SET {
            let t_id = Instant::now();
            tr.span(&format!("repro_bench::run_experiment({id})"), |_| {
                experiment(&out, id, &mut hash)
            })?;
            let s = t_id.elapsed().as_secs_f64();
            rep.set(&format!("fig.{id}_s"), s);
            *rep.values.entry(format!("fig.{group}_s")).or_insert(0.0) += s;
        }
        Ok::<(), String>(())
    })?;
    let body_s = t.elapsed().as_secs_f64();
    rep.set("setup_s", setup_s);
    rep.set("body_s", body_s);
    rep.fingerprint = format!("{hash:016x}");

    let (checks, failed) = tr.span("check", |_| headline_checks(&out))?;
    rep.set("ops", REPRO_SET.len() as f64);
    rep.set("ops_failed", failed as f64);
    rep.checks = checks;
    if tr.enabled() {
        // The `fig.<group>_s` sums are this workload's budget rows.
        let figs: f64 = REPRO_SET
            .iter()
            .map(|(id, _)| rep.get(&format!("fig.{id}_s")))
            .sum();
        rep.set("budget.residual_s", body_s - figs);
    }
    Ok(rep)
}

/// Runs the repository's headline-band gate over `dir` and keeps the lines
/// about experiments this workload ran (the gate also reports, as missing,
/// every experiment outside the subset). Returns the checks and how many
/// experiments failed one.
fn headline_checks(dir: &Path) -> Result<(Vec<Check>, usize), String> {
    let script = repo_root().join("scripts/check_headlines.sh");
    let output = Command::new("bash")
        .arg(&script)
        .arg(dir)
        .output()
        .map_err(|e| format!("run {}: {e}", script.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let ran = |id: &str| REPRO_WARMUP.contains(&id) || REPRO_SET.iter().any(|(x, _)| *x == id);
    let mut checks = Vec::new();
    let mut failed_ids: Vec<&str> = Vec::new();
    for line in text.lines() {
        let (ok, label) = if let Some(rest) = line.strip_prefix("ok   ") {
            (true, rest)
        } else if let Some(rest) = line.strip_prefix("FAIL ") {
            (false, rest)
        } else {
            continue;
        };
        let id = label.split(':').next().unwrap_or("").trim();
        if !ran(id) {
            continue;
        }
        if !ok && !failed_ids.contains(&id) {
            failed_ids.push(id);
        }
        checks.push(check(&format!("headline {label}"), ok, String::new()));
    }
    if checks.is_empty() {
        checks.push(check(
            "headline gate ran",
            false,
            format!("no lines for this subset from {}", script.display()),
        ));
    }
    let failed = failed_ids
        .iter()
        .filter(|id| !REPRO_WARMUP.contains(id))
        .count();
    Ok((checks, failed))
}
