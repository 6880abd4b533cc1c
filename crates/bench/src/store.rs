//! §2.2/§2.3 reproductions: Figures 5–13.

use crate::util::{ms, num, Report};
use crate::Effort;
use redundancy::policy::Policy;
use simcore::dist::{Distribution, DynDist, Exponential};
use simcore::runner::{global_threads, Runner};
use std::sync::Arc;
use std::time::Duration;
use storesim::experiments::{ccdf_at_load, run_load_sweep, run_service_ramp, ExperimentSpec};
use storesim::memcached::{self, run as run_memcached, MemcachedConfig};
use storesim::service::{
    bounded_pareto_with_mean, stored_load_shares, weibull_with_mean, zipf_popularity, Autoscale,
    Discipline, Frontend, LoadModel, MomentSource, ServiceConfig, ServiceResult,
};
use storesim::sharded::run_sharded;

/// Runs one §2.2 figure: mean + 99.9th vs load, and the CCDF at 20 % load.
pub fn disk_figure(spec: &ExperimentSpec, effort: Effort) -> String {
    let mut r = Report::new(
        &format!("{}: disk-backed store, 1 vs 2 copies", spec.name),
        spec.paper_ref,
    );
    let requests = effort.scale(150_000, 25_000);
    let loads: Vec<f64> = match effort {
        Effort::Full => (1..=18).map(|i| i as f64 * 0.05).collect(),
        Effort::Quick => vec![0.1, 0.2, 0.3, 0.4, 0.6],
    };
    r.header(&[
        "load",
        "mean_1copy_ms",
        "mean_2copies_ms",
        "p999_1copy_ms",
        "p999_2copies_ms",
    ]);
    for row in run_load_sweep(spec, &loads, requests, 0xD15C) {
        r.row(&[
            num(row.load),
            ms(row.mean_single),
            ms(row.mean_double),
            ms(row.p999_single),
            ms(row.p999_double),
        ]);
    }
    r.blank();
    let ccdf_requests = effort.scale(600_000, 50_000);
    let (single, double) = ccdf_at_load(spec, 0.2, ccdf_requests, 60, 0xCCDF);
    r.ccdf("load 0.2, 1 copy", &single);
    r.ccdf("load 0.2, 2 copies", &double);
    r.finish()
}

/// Fig 12: memcached response times vs load, 1 vs 2 copies.
pub fn fig12(effort: Effort) -> String {
    let mut r = Report::new(
        "fig12-memcached: replication loses at every load",
        "Figure 12",
    );
    let requests = effort.scale(300_000, 40_000);
    let loads: Vec<f64> = match effort {
        Effort::Full => (1..=9).map(|i| i as f64 * 0.05).collect(),
        Effort::Quick => vec![0.1, 0.2, 0.4],
    };
    r.header(&[
        "load",
        "mean_1copy_ms",
        "mean_2copies_ms",
        "p999_1copy_ms",
        "p999_2copies_ms",
    ]);
    // One task per (load, copies) pair, in parallel on the global runner.
    // The right panel's CCDFs are taken at 20 % load, which both effort
    // levels already sweep — reuse those runs, only simulating a separate
    // pair if a future load grid drops 0.2.
    let ccdf_idx = loads.iter().position(|&l| (l - 0.2).abs() < 1e-9);
    let extra = if ccdf_idx.is_some() { 0 } else { 2 };
    let mut results = Runner::global().run(loads.len() * 2 + extra, |task| {
        let (load, copies) = if task < loads.len() * 2 {
            (loads[task / 2], 1 + task % 2)
        } else {
            (0.2, 1 + (task - loads.len() * 2))
        };
        let mut c = MemcachedConfig::paper_like(copies, load);
        c.requests = requests;
        run_memcached(&c)
    });
    let ccdf_base = match ccdf_idx {
        Some(i) => 2 * i,
        None => loads.len() * 2,
    };
    for (i, &load) in loads.iter().enumerate() {
        let one_mean = results[2 * i].response.mean();
        let one_p999 = results[2 * i].response.quantile(0.999);
        let two_mean = results[2 * i + 1].response.mean();
        let two_p999 = results[2 * i + 1].response.quantile(0.999);
        r.row(&[
            num(load),
            ms(one_mean),
            ms(two_mean),
            ms(one_p999),
            ms(two_p999),
        ]);
    }
    r.blank();
    // CCDF at 20% load, matching the figure's right panel.
    let one_ccdf = results[ccdf_base].response.ccdf(50);
    let two_ccdf = results[ccdf_base + 1].response.ccdf(50);
    r.ccdf("load 0.2, 1 copy", &one_ccdf);
    r.ccdf("load 0.2, 2 copies", &two_ccdf);
    r.finish()
}

/// The service-layer load ramp: a sharded store whose front-end consults
/// the planner per request, switching replication off live as the load
/// estimate crosses the §2.1 threshold. The headline is the switch-off
/// load vs. the offline threshold (exponential workload ⇒ 1/3).
pub fn fig_service(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service: sharded service, planner-driven replication on a load ramp",
        "Section 2.1 threshold, exercised online (no direct paper figure)",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.requests = effort.scale(200_000, 50_000);
    cfg.warmup = cfg.requests / 10;
    let reps = effort.scale(8, 4);
    let out = run_service_ramp(&cfg, reps);
    r.note(&format!(
        "{} servers, {} shards stored {}-way, FIFO service, exponential 1 ms workload, {} reps",
        cfg.servers, cfg.shards, cfg.stored_replicas, reps
    ));
    ramp_table(&mut r, "load", &out);
    switch_off_notes(&mut r, &out, "+-0.05");
    r.finish()
}

/// The per-bucket `load, frac_k2, mean_ms, p99_ms` table of one ramp, its
/// first column headed `load`.
fn ramp_table(r: &mut Report, load: &str, res: &ServiceResult) {
    r.header(&[load, "frac_k2", "mean_ms", "p99_ms"]);
    for b in &res.buckets {
        r.row(&[
            num(b.load),
            num(b.frac_k2()),
            ms(b.mean_response),
            ms(b.p99),
        ]);
    }
    r.blank();
}

/// The switch-off headline notes: the planner's switch-off load, the
/// offline threshold, and their difference with its `band`.
fn switch_off_notes(r: &mut Report, res: &ServiceResult, band: &str) {
    r.note(&format!("planner switch-off load: {:.5}", res.switch_off));
    r.note(&format!("offline threshold: {:.5}", res.planner_threshold));
    r.note(&format!(
        "switch-off minus threshold: {:+.5} (band: {band})",
        res.switch_off - res.planner_threshold
    ));
}

/// `fig-service-est`: the self-calibration experiment. The same adaptive
/// load ramp runs twice — once with the planner's threshold computed from
/// the config's exact service moments (clairvoyant, the PR 3 mode) and
/// once with every input measured: arrival rate from the windowed gap
/// estimator, mean and SCV from a `MomentEstimator` over per-copy service
/// durations, threshold recalibrated online. The headline is how close the
/// estimated-mode switch-off lands to the clairvoyant threshold.
pub fn fig_service_est(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-est: self-calibrating planner, estimated vs clairvoyant service moments",
        "Section 2.1 threshold from live (rate, mean, SCV); no direct paper figure",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.requests = effort.scale(200_000, 40_000);
    cfg.warmup = cfg.requests / 10;
    let reps = effort.scale(8, 3);
    let clair = run_service_ramp(&cfg, reps);
    cfg.frontend = Frontend::Adaptive {
        window: 2048,
        moments: MomentSource::estimated(),
        load_model: LoadModel::Global,
    };
    let est = run_service_ramp(&cfg, reps);
    r.note(&format!(
        "{} servers, {} shards stored {}-way, FIFO, exponential 1 ms workload, {} reps per mode",
        cfg.servers, cfg.shards, cfg.stored_replicas, reps
    ));
    r.header(&[
        "load",
        "frac_k2_clairvoyant",
        "frac_k2_estimated",
        "mean_ms_estimated",
        "p99_ms_estimated",
    ]);
    for (c, e) in clair.buckets.iter().zip(&est.buckets) {
        r.row(&[
            num(c.load),
            num(c.frac_k2()),
            num(e.frac_k2()),
            ms(e.mean_response),
            ms(e.p99),
        ]);
    }
    r.blank();
    r.note(&format!(
        "clairvoyant switch-off load: {:.5}",
        clair.switch_off
    ));
    r.note(&format!("estimated switch-off load: {:.5}", est.switch_off));
    r.note(&format!(
        "offline threshold: {:.5}",
        clair.planner_threshold
    ));
    r.note(&format!(
        "estimated final mean service: {:.6} s (config 0.001000 s)",
        est.est_mean_service
    ));
    r.note(&format!(
        "estimated final scv: {:.3} (config 1.000)",
        est.est_scv
    ));
    r.note(&format!(
        "estimated live threshold: {:.5}",
        est.live_threshold
    ));
    r.note(&format!(
        "estimated minus clairvoyant switch-off: {:+.5}",
        est.switch_off - clair.switch_off
    ));
    r.note(&format!(
        "estimated minus offline threshold: {:+.5} (band: +-0.08)",
        est.switch_off - clair.planner_threshold
    ));
    r.finish()
}

/// One self-calibrating ramp for `fig-service-tail`.
fn tail_ramp(service: DynDist, requests: usize, reps: usize) -> ServiceResult {
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.55);
    cfg.requests = requests;
    cfg.warmup = requests / 10;
    cfg.frontend = Frontend::Adaptive {
        window: 2048,
        moments: MomentSource::estimated(),
        load_model: LoadModel::Global,
    };
    run_service_ramp(&cfg, reps)
}

/// `fig-service-tail`: the self-calibrating planner across service-time
/// shapes — light (Weibull shape 2), exponential, and heavy
/// (BoundedPareto α = 1.4 over three decades). The estimator must discover
/// each workload's SCV online; the planner's two-moment threshold is
/// maximal at scv = 1 and degrades toward its deterministic floor on both
/// sides (see `queuesim::analytic::two_moment`'s validity note), so both
/// the light- and heavy-tail switch-offs must land *below* the
/// exponential one.
pub fn fig_service_tail(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-tail: self-calibrating planner vs service-time shape",
        "Fig 2's SCV axis exercised online (two-moment planner regime)",
    );
    let requests = effort.scale(160_000, 40_000);
    let reps = effort.scale(6, 3);
    let workloads: [(&str, DynDist); 3] = [
        ("weibull-light", Arc::new(weibull_with_mean(2.0, 1.0e-3))),
        ("exponential", Arc::new(Exponential::with_mean(1.0e-3))),
        (
            "pareto-heavy",
            Arc::new(bounded_pareto_with_mean(1.4, 1000.0, 1.0e-3)),
        ),
    ];
    r.note(&format!(
        "adaptive frontend, estimated moments (window 8192), load ramp 0.05 -> 0.55, {reps} reps"
    ));
    r.header(&[
        "workload",
        "scv_true",
        "scv_estimated",
        "offline_threshold",
        "live_threshold",
        "switch_off",
        "switch_off_minus_threshold",
    ]);
    let mut measured = Vec::new();
    for (name, service) in &workloads {
        let scv_true = service.scv();
        let out = tail_ramp(service.clone(), requests, reps);
        r.row(&[
            (*name).to_string(),
            num(scv_true),
            num(out.est_scv),
            num(out.planner_threshold),
            num(out.live_threshold),
            num(out.switch_off),
            format!("{:+.5}", out.switch_off - out.planner_threshold),
        ]);
        measured.push(out);
    }
    r.blank();
    r.note(&format!(
        "light-tail switch-off load: {:.5}",
        measured[0].switch_off
    ));
    r.note(&format!(
        "exponential switch-off load: {:.5}",
        measured[1].switch_off
    ));
    r.note(&format!(
        "heavy-tail switch-off load: {:.5}",
        measured[2].switch_off
    ));
    r.note(&format!(
        "heavy minus exponential: {:+.5} (band: < 0; the two-moment planner's threshold peaks at scv = 1)",
        measured[2].switch_off - measured[1].switch_off
    ));
    r.finish()
}

/// `fig-service-skew`: mixed-key traffic. A Zipf(0.6) shard popularity
/// concentrates the ring's load on hot servers; the global-rate planner
/// still flips at the balanced-load threshold (its estimator is
/// load-shape blind — the measured point of the experiment), while the
/// hot servers' queueing shows up as tail inflation that a `Hedged`
/// policy riding the same ramp claws back for a small fired fraction.
pub fn fig_service_skew(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-skew: skewed shard popularity and hedging on the load ramp",
        "Hot-server contention under the Section 2.1 planner; no direct paper figure",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    // The ramp stops at 0.45: the hot server runs ~1.85x the fair share,
    // so 0.45 global keeps the k = 1 regime stable (hot util ~0.83) while
    // the k = 2 phase below the threshold still transiently saturates it
    // (hot util ~1.2) -- the contention hump the decision curve ignores.
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.45);
    cfg.requests = effort.scale(160_000, 30_000);
    cfg.warmup = cfg.requests / 10;
    cfg.frontend = Frontend::Adaptive {
        window: 2048,
        moments: MomentSource::estimated(),
        load_model: LoadModel::Global,
    };
    let reps = effort.scale(6, 3);

    let uniform = run_service_ramp(&cfg, reps);
    cfg.popularity = Some(zipf_popularity(cfg.shards, 0.6));
    let shares = stored_load_shares(&cfg);
    let hot_share = shares.iter().cloned().fold(0.0, f64::max);
    let skewed = run_service_ramp(&cfg, reps);

    let mut single_cfg = cfg.clone();
    single_cfg.frontend = Frontend::Fixed(Policy::Single);
    let single = run_service_ramp(&single_cfg, reps);
    let mut hedged_cfg = cfg.clone();
    hedged_cfg.frontend = Frontend::Fixed(Policy::Hedged {
        copies: 2,
        after: Duration::from_micros(8_000),
    });
    hedged_cfg.cancellation = true;
    let hedged = run_service_ramp(&hedged_cfg, reps);

    r.note(&format!(
        "{} servers, {} shards, Zipf(0.6) popularity, exponential 1 ms workload, {} reps per mode",
        cfg.servers, cfg.shards, reps
    ));
    r.header(&[
        "load",
        "frac_k2_uniform",
        "frac_k2_skewed",
        "p99_ms_single",
        "p99_ms_hedged",
        "frac_hedge_fired",
    ]);
    for i in 0..uniform.buckets.len() {
        r.row(&[
            num(uniform.buckets[i].load),
            num(uniform.buckets[i].frac_k2()),
            num(skewed.buckets[i].frac_k2()),
            ms(single.buckets[i].p99),
            ms(hedged.buckets[i].p99),
            num(hedged.buckets[i].frac_k2()),
        ]);
    }
    r.blank();
    let last = uniform.buckets.len() - 1;
    r.note(&format!(
        "uniform switch-off load: {:.5}",
        uniform.switch_off
    ));
    r.note(&format!("skewed switch-off load: {:.5}", skewed.switch_off));
    r.note(&format!(
        "offline threshold: {:.5}",
        skewed.planner_threshold
    ));
    r.note(&format!(
        "hottest-server load share: {:.4} (fair share {:.4})",
        hot_share,
        1.0 / cfg.servers as f64
    ));
    r.note(&format!(
        "skewed single p99 at ramp end: {} ms (uniform-mix planner p99 {} ms)",
        ms(single.buckets[last].p99),
        ms(uniform.buckets[last].p99)
    ));
    r.note(&format!(
        "hedged p99 at ramp end: {} ms vs single {} ms (ratio {:.3})",
        ms(hedged.buckets[last].p99),
        ms(single.buckets[last].p99),
        hedged.buckets[last].p99 / single.buckets[last].p99
    ));
    r.note(&format!(
        "hedge fired fraction: {:.5}",
        hedged.overall_frac_k2()
    ));
    r.note(&format!(
        "hedge cancel fraction: {:.5}",
        hedged.cancel_fraction()
    ));
    r.finish()
}

/// `fig-service-skew-aware`: the fix for the contention hump
/// `fig-service-skew` documented. The same Zipf(0.6) ramp runs twice —
/// once under the global-rate planner (load-shape blind, the PR 4
/// behavior) and once under the per-server planner (`LivePlanner` with
/// one index per server): each request's decision compares the maximum
/// estimated utilization of its own stored pair against the threshold, so
/// pairs containing the hot server switch off early while cold pairs keep
/// replicating. Headlines: the hot server's peak busy fraction over the
/// ramp, the p99 hump it caused, and the per-temperature decision curves.
pub fn fig_service_skew_aware(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-skew-aware: per-server load planning under a Zipf key mix",
        "Skew-aware refinement of the Section 2.1 planner; no direct paper figure",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.45);
    cfg.requests = effort.scale(160_000, 30_000);
    cfg.warmup = cfg.requests / 10;
    cfg.popularity = Some(zipf_popularity(cfg.shards, 0.6));
    let reps = effort.scale(6, 3);
    let frontend = |load_model: LoadModel| Frontend::Adaptive {
        window: 512,
        moments: MomentSource::estimated(),
        load_model,
    };
    cfg.frontend = frontend(LoadModel::Global);
    let global = run_service_ramp(&cfg, reps);
    cfg.frontend = frontend(LoadModel::PerServer);
    let per = run_service_ramp(&cfg, reps);
    let shares = stored_load_shares(&cfg);
    let hot_share = shares.iter().cloned().fold(0.0, f64::max);

    r.note(&format!(
        "{} servers, {} shards, Zipf(0.6) popularity, exponential 1 ms workload, \
         estimated moments, {} reps per mode",
        cfg.servers, cfg.shards, reps
    ));
    r.header(&[
        "load",
        "frac_k2_global",
        "frac_k2_perserver",
        "frac_k2_hot_pairs",
        "frac_k2_cold_pairs",
        "peak_util_global",
        "peak_util_perserver",
        "p99_ms_global",
        "p99_ms_perserver",
    ]);
    for (g, p) in global.buckets.iter().zip(&per.buckets) {
        r.row(&[
            num(g.load),
            num(g.frac_k2()),
            num(p.frac_k2()),
            num(p.frac_k2_hot()),
            num(p.frac_k2_cold()),
            num(g.peak_utilization),
            num(p.peak_utilization),
            ms(g.p99),
            ms(p.p99),
        ]);
    }
    r.blank();
    let hump = |o: &ServiceResult| o.buckets.iter().map(|b| b.p99).fold(f64::NAN, f64::max);
    r.note(&format!(
        "hottest-server load share: {:.4} (fair share {:.4})",
        hot_share,
        1.0 / cfg.servers as f64
    ));
    r.note(&format!("offline threshold: {:.5}", per.planner_threshold));
    r.note(&format!("global switch-off load: {:.5}", global.switch_off));
    r.note(&format!(
        "per-server switch-off load: {:.5}",
        per.switch_off
    ));
    r.note(&format!(
        "per-server hot-pair switch-off load: {:.5}",
        per.switch_off_hot()
    ));
    r.note(&format!(
        "per-server cold-pair switch-off load: {:.5} (band: exceeds the hot-pair \
         switch-off by > 0.10 — cold keys keep replicating after hot keys \
         switched off; NaN = never crosses inside the ramp)",
        per.switch_off_cold()
    ));
    let last = per.buckets.last().expect("ramp has buckets");
    r.note(&format!(
        "hot-pair k2 fraction at ramp end: {:.5}",
        last.frac_k2_hot()
    ));
    r.note(&format!(
        "cold-pair k2 fraction at ramp end: {:.5}",
        last.frac_k2_cold()
    ));
    r.note(&format!(
        "global hot-server peak utilization: {:.5}",
        global.peak_utilization()
    ));
    r.note(&format!(
        "per-server hot-server peak utilization: {:.5}",
        per.peak_utilization()
    ));
    r.note(&format!(
        "peak utilization reduction: {:+.5} (band: per-server below global by > 0.05)",
        global.peak_utilization() - per.peak_utilization()
    ));
    r.note(&format!("global p99 hump: {} ms", ms(hump(&global))));
    r.note(&format!("per-server p99 hump: {} ms", ms(hump(&per))));
    r.note(&format!(
        "p99 hump ratio: {:.3} (band: < 0.9; the contention hump flattens)",
        hump(&per) / hump(&global)
    ));
    r.finish()
}

/// `fig-service-ps-est`: the previously rejected Estimated + PS +
/// cancellation combination, made legal by dispatch-time demand reporting.
/// PS cancellation kills the in-flight *loser* — systematically the
/// larger-demand copy — so completion-based moment estimation would
/// sample min(demands), roughly halve the estimated mean, and push the
/// observable switch-off far above the threshold. Reporting each copy's
/// demand at dispatch observes every issued copy exactly once, before
/// cancellation can censor it; the headline is the switch-off landing back
/// inside the ±0.08 band with unbiased (mean, SCV) estimates.
pub fn fig_service_ps_est(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-ps-est: dispatch-time demand reporting under PS cancellation",
        "Censoring-free self-calibration (lifts the PR 4 rejection); no direct paper figure",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.requests = effort.scale(200_000, 40_000);
    cfg.warmup = cfg.requests / 10;
    cfg.discipline = Discipline::Ps;
    cfg.cancellation = true;
    cfg.frontend = Frontend::Adaptive {
        window: 2048,
        moments: MomentSource::estimated(),
        load_model: LoadModel::Global,
    };
    let reps = effort.scale(8, 3);
    let out = run_service_ramp(&cfg, reps);
    r.note(&format!(
        "{} servers, {} shards, PS service with cancellation, exponential 1 ms workload, \
         estimated moments reported at dispatch, {} reps",
        cfg.servers, cfg.shards, reps
    ));
    ramp_table(&mut r, "load", &out);
    switch_off_notes(&mut r, &out, "+-0.08");
    r.note(&format!(
        "estimated final mean service: {:.6} s (config 0.001000 s; completion \
         reporting would have censored this toward ~0.0005)",
        out.est_mean_service
    ));
    r.note(&format!(
        "estimated final scv: {:.3} (config 1.000)",
        out.est_scv
    ));
    r.note(&format!(
        "estimated live threshold: {:.5}",
        out.live_threshold
    ));
    r.note(&format!("cancel fraction: {:.5}", out.cancel_fraction()));
    r.finish()
}

/// Fig 13: stub vs real memcached at 0.1 % load — the client-side-cost
/// isolation experiment.
pub fn fig13(effort: Effort) -> String {
    let mut r = Report::new(
        "fig13-memcached-stub: client-side cost isolation at 0.1% load",
        "Figure 13",
    );
    let requests = effort.scale(400_000, 60_000);
    let mut sets = Vec::new();
    for (label, copies, stub) in [
        ("1 copy real", 1, false),
        ("2 copies real", 2, false),
        ("1 copy stub", 1, true),
        ("2 copies stub", 2, true),
    ] {
        let mut c = MemcachedConfig::paper_like(copies, 0.001);
        c.requests = requests;
        if stub {
            c = c.stubbed();
        }
        let mut out = run_memcached(&c);
        r.note(&format!("{label}: mean {} ms", ms(out.response.mean())));
        sets.push((label, out.response.ccdf(50)));
    }
    for (label, c) in &sets {
        r.ccdf(label, c);
    }
    r.note(&format!(
        "stub overhead of replication should be >= 9% of the {} ms mean service time",
        ms(memcached::mean_service())
    ));
    r.finish()
}

/// `fig-service-scale`: the headline experiment of the sharded parallel
/// engine — one adaptive ramp at cluster scale (≥256 servers, ≥1M
/// requests in quick mode) spread over many server groups. The run
/// executes on [`storesim::sharded::run_sharded`] with the process
/// thread budget (`repro --threads`); the §2.1 switch-off headline must
/// land on the offline threshold exactly as at small scale, and the report
/// is **byte-identical at every thread count** (CI diffs `--threads
/// 1/3/8` trees), so no wall-clock figures appear here — engine
/// throughput lives in `BENCH_engine.json`.
pub fn fig_service_scale(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-scale: large-cluster adaptive ramp on the sharded parallel engine",
        "Section 2.1 threshold at scale; engine-scaling headline (no direct paper figure)",
    );
    let (cfg, groups) = scale_ramp(effort);
    let out = run_sharded(&cfg, groups, global_threads());
    let res = &out.result;
    r.note(&format!(
        "{} servers in {} groups (+1 frontend shard), {} shards stored {}-way, FIFO, \
         cancellation on, exponential 1 ms workload, {} requests (+{} warmup), single ramp",
        cfg.servers, out.groups, cfg.shards, cfg.stored_replicas, cfg.requests, cfg.warmup
    ));
    ramp_table(&mut r, "load", res);
    switch_off_notes(&mut r, res, "+-0.05");
    r.note(&format!(
        "engine: {} events in {} rounds ({:.1} events/round), lookahead {} us",
        out.engine.events,
        out.engine.rounds,
        out.engine.events as f64 / out.engine.rounds.max(1) as f64,
        cfg.propagation * 1e6
    ));
    r.note(&format!(
        "simulated span: {:.3} s; copies issued {}, cancelled {}; mean utilization {:.4}",
        out.engine.end_time.as_secs(),
        res.copies_issued,
        res.copies_cancelled,
        res.mean_utilization
    ));
    r.note(&format!("completed: {} of {}", res.completed, cfg.requests));
    r.finish()
}

/// The cluster-scale adaptive ramp `fig-service-scale` runs and
/// `fig-service-frontier` reruns per lane count, with its server-group
/// count.
fn scale_ramp(effort: Effort) -> (ServiceConfig, usize) {
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.servers = effort.scale(512, 256);
    cfg.shards = effort.scale(131_072, 65_536);
    cfg.vnodes = 16;
    cfg.cancellation = true;
    // Wide-area propagation doubles as the engine's lookahead window:
    // 200 µs keeps synchronization rounds fat (hundreds of events each).
    cfg.propagation = 200.0e-6;
    cfg.requests = effort.scale(4_000_000, 1_000_000);
    cfg.warmup = effort.scale(200_000, 50_000);
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = 8192;
    }
    (cfg, effort.scale(16, 8))
}

/// `fig-service-frontier`: the lane sweep of the sharded engine. The
/// `fig-service-scale` ramp is rerun with its frontend decomposed into
/// L ∈ {1, 2, 4, 8} lanes, each lane its own engine shard. Every row must
/// land the §2.1 switch-off on the offline threshold (asserted), and the
/// rows show what the decomposition costs in deterministic counts: the
/// cross-lane load summaries and the extra engine events they bring. The
/// L = 1 row is the `fig-service-scale` run itself. Wall-clock
/// requests/sec per lane count lives in `BENCH_engine.json`, keeping this
/// report byte-identical at every thread count like the rest of the suite.
pub fn fig_service_frontier(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-frontier: frontend lane sweep on the sharded parallel engine",
        "Section 2.1 threshold under a decomposed frontend; lane-tax headline \
         (no direct paper figure)",
    );
    let (mut cfg, groups) = scale_ramp(effort);
    r.note(&format!(
        "{} servers in {} groups, {} shards stored {}-way, FIFO, cancellation on, \
         exponential 1 ms workload, {} requests (+{} warmup), single ramp repeated \
         at L = 1/2/4/8 frontend lanes (one engine shard each)",
        cfg.servers, groups, cfg.shards, cfg.stored_replicas, cfg.requests, cfg.warmup
    ));
    r.header(&[
        "lanes",
        "switch_off",
        "delta_vs_threshold",
        "summaries",
        "events",
        "rounds",
    ]);
    let total = (cfg.requests + cfg.warmup) as f64;
    let mut events_per_req = Vec::new();
    for lanes in [1usize, 2, 4, 8] {
        cfg.frontend_lanes = lanes;
        let out = run_sharded(&cfg, groups, global_threads());
        let res = &out.result;
        let delta = res.switch_off - res.planner_threshold;
        assert!(
            delta.abs() <= 0.05,
            "switch-off {:.5} strays from threshold {:.5} at L={lanes}",
            res.switch_off,
            res.planner_threshold
        );
        r.row(&[
            format!("{lanes}"),
            num(res.switch_off),
            format!("{delta:+.5}"),
            format!("{}", out.summaries),
            format!("{}", out.engine.events),
            format!("{}", out.engine.rounds),
        ]);
        events_per_req.push(out.engine.events as f64 / total);
    }
    r.blank();
    r.note(&format!(
        "engine events per request: {:.3} at L = 1, {:.3} at L = 8 (the lane tax in events)",
        events_per_req[0], events_per_req[3]
    ));
    r.note("wall-clock requests/sec per lane count: see BENCH_engine.json (service_lanes)");
    r.finish()
}

/// `fig-service-elastic`: the elastic-scaling headline — a diurnal load
/// curve over a cluster that must resize 64 → 256 → 64 while traffic
/// flows. The lane-0 autoscaler reads the live utilization estimate,
/// servers join/leave the hash ring mid-run (successor-walk replicas, so
/// each step moves ~1/n of the keys), moving shards dual-dispatch to old
/// and new owners through a migration window, and the per-server
/// estimator state churns per index. The report's ramp buckets bin by
/// **instantaneous per-live-server load**, so the planner switch-off
/// landing on the offline threshold demonstrates the ISSUE's claim: the
/// threshold tracks *current* capacity, not the configured fleet. The
/// diurnal peak (1.84× the baseline capacity) is deliberately chosen so
/// the controller cannot stop short of the 256-server ceiling
/// (1.84 · 64/224 > 0.5 = scale-out trigger) yet the full fleet absorbs
/// it inside the hysteresis band (1.84 · 64/256 = 0.46 ≤ 0.5). Like the
/// other sharded headlines, the report is byte-identical at every thread
/// count (CI diffs `--threads 1/3/8` trees).
pub fn fig_service_elastic(effort: Effort) -> String {
    let mut r = Report::new(
        "fig-service-elastic: diurnal autoscaling ramp on the sharded parallel engine",
        "elastic capacity tracking of the Section 2.1 threshold (no direct paper figure)",
    );
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    // `load_start`/`load_end` are the per-live-server bucket axis; the
    // cluster-level arrival curve is the diurnal half-sine up to
    // `peak_load` relative to the 64-server baseline.
    let mut cfg = ServiceConfig::ramp(service, 0.08, 0.6);
    cfg.servers = 64;
    cfg.shards = effort.scale(131_072, 65_536);
    cfg.vnodes = 16;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.requests = effort.scale(4_000_000, 1_000_000);
    cfg.warmup = effort.scale(100_000, 20_000);
    cfg.frontend_lanes = 4;
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = 8192;
    }
    cfg.autoscale = Some(Autoscale {
        max_servers: 256,
        step: 32,
        scale_out: 0.50,
        scale_in: 0.30,
        period: 5.0e-3,
        migration: 2.0e-3,
        peak_load: 1.84,
    });
    let groups = 8;
    let out = run_sharded(&cfg, groups, global_threads());
    let res = &out.result;
    let a = cfg.autoscale.unwrap();
    r.note(&format!(
        "{}..{} servers (step {}) in {} groups, {} shards stored {}-way, FIFO, \
         cancellation on, exponential 1 ms workload, diurnal peak {}x baseline, \
         {} requests (+{} warmup), 4 frontend lanes",
        cfg.servers,
        a.max_servers,
        a.step,
        out.groups,
        cfg.shards,
        cfg.stored_replicas,
        a.peak_load,
        cfg.requests,
        cfg.warmup
    ));
    ramp_table(&mut r, "rho_live", res);
    r.header(&["t_s", "servers", "rho_at_decision"]);
    for e in &out.scale_log {
        r.row(&[format!("{:.4}", e.at), format!("{}", e.servers), num(e.rho)]);
    }
    r.blank();
    // The headline claims, asserted in-run and gated again by the
    // `fig-service-elastic` bands in `crate::bands` from the printed notes.
    assert_eq!(
        out.peak_live, a.max_servers,
        "fleet never reached the ceiling: {:?}",
        out.scale_log
    );
    assert_eq!(
        out.final_live, cfg.servers,
        "fleet did not return to the floor: {:?}",
        out.scale_log
    );
    let delta = res.switch_off - res.planner_threshold;
    assert!(
        delta.abs() <= 0.06,
        "switch-off {:.5} strays from threshold {:.5} through the resizes",
        res.switch_off,
        res.planner_threshold
    );
    let ups = out
        .scale_log
        .windows(2)
        .filter(|w| w[1].servers > w[0].servers)
        .count()
        + usize::from(
            out.scale_log
                .first()
                .is_some_and(|e| e.servers > cfg.servers),
        );
    let downs = out.scale_log.len() - ups;
    r.note(&format!(
        "planner switch-off load (per live server): {:.5}",
        res.switch_off
    ));
    r.note(&format!("offline threshold: {:.5}", res.planner_threshold));
    r.note(&format!(
        "switch-off minus threshold: {:+.5} (band: +-0.06)",
        delta
    ));
    r.note(&format!(
        "peak live servers: {} (ceiling {}); final live servers: {} (floor {})",
        out.peak_live, a.max_servers, out.final_live, cfg.servers
    ));
    r.note(&format!(
        "scale events: {} ({} out, {} in); migration window {} ms",
        out.scale_log.len(),
        ups,
        downs,
        a.migration * 1e3
    ));
    r.note(&format!(
        "engine: {} events in {} rounds ({:.1} events/round), lookahead {} us",
        out.engine.events,
        out.engine.rounds,
        out.engine.events as f64 / out.engine.rounds.max(1) as f64,
        cfg.propagation * 1e6
    ));
    r.note(&format!(
        "simulated span: {:.3} s; copies issued {}, cancelled {}; provisioned mean utilization {:.4}",
        out.engine.end_time.as_secs(),
        res.copies_issued,
        res.copies_cancelled,
        res.mean_utilization
    ));
    r.note(&format!("completed: {} of {}", res.completed, cfg.requests));
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_report_shows_no_win() {
        let out = disk_figure(&ExperimentSpec::fig11_all_in_ram(), Effort::Quick);
        crate::bands::assert_holds("fig11", &out);
    }
}
