//! Wall-clock frontend hot-path probes
//! (`cargo bench -p repro-bench --bench hotpath`).
//!
//! Measures the per-request work `storesim::rt`'s frontend does between
//! pulling a request off the script and handing copies to the workers,
//! in isolation and as the combined sequence, against the < 1 µs budget
//! that makes per-request planning viable at all (Shah/Lee/Ramchandran's
//! point: past some per-decision overhead, redundancy flips negative):
//!
//! * `estimator_ingest` — two `LivePlanner::observe_demand` calls, the
//!   per-copy moment ingest (with its recalibration cadence) of a
//!   replicated request;
//! * `planner_decision` — one `LivePlanner::decide` over a stored pair:
//!   two routed arrival observations, two load reads, the threshold
//!   comparison;
//! * `cancel_issue` — the cancellation lifecycle the frontend drives per
//!   request: token issue, the clone handed to each copy, the cancel on
//!   first response, and the loser's observation of it;
//! * `combined` — the stages chained exactly as `rt::run`'s dispatch
//!   loop chains them (decide, trace-fingerprint, per-copy demand
//!   ingest, token issue). `--assert-budget` turns the < 1000 ns
//!   budget into a hard failure — the CI gate;
//! * `threshold_cold` — one uncached `Planner::threshold_load()` (the
//!   bisection a `ThresholdCache` miss pays, inline on `storesim::rt`'s
//!   frontend thread) at scv 0.26, 1 and 10, best of 3 in either mode.
//!   The heavy law's quadrature branch is the expensive case, so
//!   `--assert-budget` also fails when heavy costs more than 5× the
//!   exponential — a within-run ratio, immune to the runner's speed;
//! * `race` — one `sync_exec::race` (two thread-spawned replicas) vs,
//!   under `--features tokio-exec`, one `tokio_exec::race_async` (two
//!   futures on the built-in single-thread executor), both over trivial
//!   bodies so the numbers isolate executor dispatch + first-response
//!   cancellation, not the work being raced.
//!
//! Results print as text and merge into the `"hotpath"` section of
//! `BENCH_engine.json` (default; `--out PATH` overrides; relative paths
//! resolve against the workspace root). Other sections of an existing
//! file are preserved — the `engine` bench owns those.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use redundancy::cancel::CancelToken;
use redundancy::planner::{LivePlanner, Planner, WorkloadProfile};
use redundancy::sync_exec::{race, replica};
use repro_bench::util::{json_extract_object, json_with_object};

/// Best-of-3 [`time_ns`] (the minimum; interference only adds time).
fn best_ns(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| time_ns(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Times `f` and returns ns/iter over a ~100 ms window (20 ms warm-up).
fn time_ns(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut warm_iters = 0u64;
    while t0.elapsed() < Duration::from_millis(20) {
        f();
        warm_iters += 1;
    }
    let est = t0.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
    let iters = ((100.0e6 / est.max(1.0)) as u64).clamp(10, 50_000_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t1.elapsed().as_nanos() as f64 / iters as f64
}

/// The FNV-1a step `rt::run` folds each trace entry through.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01B3);
    }
}

fn json_f(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_budget = args.iter().any(|a| a == "--assert-budget");
    let out_arg = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let out_path = if std::path::Path::new(&out_arg).is_absolute() {
        out_arg
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&out_arg)
            .to_string_lossy()
            .into_owned()
    };
    // Quick mode keeps the same measurement window but takes one sample
    // instead of best-of-3 — the stages are ns-scale, so even one window
    // is tens of millions of iterations.
    let measure = |f: &mut dyn FnMut()| if quick { time_ns(f) } else { best_ns(f) };

    // Mirror RtConfig::smoke's planner: 8 servers, 512-gap arrival
    // windows, a 4096-demand moment window trusted after 256 and
    // recalibrated every 512, exponential service (scv 1), and a client
    // overhead well under the paper's 9 % flip.
    let servers = 8u16;
    let mean_service = 5.0e-6;
    let planner = Planner::new(WorkloadProfile {
        mean_service,
        scv: 1.0,
        client_overhead: 0.02 * mean_service,
    });
    let threshold = planner.threshold_load();
    // One moment window of exponential demands, replayed in a cycle: once
    // a full cycle is in, the window's moments repeat exactly, so every
    // timed recalibration is a warm cache hit (scv ~1, threshold ~1/3).
    let mut rng = simcore::rng::Rng::seed_from(0x407_9A7);
    let demands: Vec<f64> = (0..4096).map(|_| rng.exponential(1.0 / mean_service)).collect();
    // A warm loop, shared by the stages below: every index has seen a few
    // gaps (so requests read real loads, not the cold-server fallback)
    // and the moment window is full.
    let mut live = LivePlanner::new(planner, threshold, servers as usize, 512, 0, 0.05)
        .with_moments(demands.len(), 256, 512);
    for i in 0..servers * 8 {
        live.decide(f64::from(i) * 1.0e-5, &[i % servers], 2.0);
    }
    for &d in &demands {
        live.observe_demand(d);
    }
    let (mut t, mut s, mut j) = (1.0e-3f64, 0u16, 0usize);
    let budget_ns = 1000.0;

    // --- estimator ingest: a replicated request's two demand reports ---
    let ingest_ns = measure(&mut || {
        for _ in 0..2 {
            live.observe_demand(demands[j]);
            j = (j + 1) % demands.len();
        }
    });
    println!("estimator_ingest               {ingest_ns:>10.2} ns/iter");

    // --- planner decision: two routed arrivals, two loads, the compare ---
    let decision_ns = measure(&mut || {
        s = (s + 1) % servers;
        t += 2.0e-5;
        black_box(live.decide(t, &[s, (s + 3) % servers], 2.0));
    });
    println!("planner_decision               {decision_ns:>10.2} ns/iter");

    // --- cancel issue: token, per-copy clones, cancel, loser observes ---
    let cancel_ns = measure(&mut || {
        let token = CancelToken::new();
        let c0 = token.clone();
        let c1 = token.clone();
        token.cancel();
        black_box((c0.is_cancelled(), c1.is_cancelled()));
    });
    println!("cancel_issue                   {cancel_ns:>10.2} ns/iter");

    // --- the combined per-request sequence, as rt::run chains it ---
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    let mut singles = 0u64;
    let combined_ns = measure(&mut || {
        s = (s + 1) % servers;
        t += 2.0e-5;
        let k = 1 + u8::from(live.decide(t, &[s, (s + 3) % servers], 2.0));
        singles += u64::from(k == 1);
        fnv1a(&mut fingerprint, &[k]);
        for _ in 0..k {
            live.observe_demand(demands[j]);
            j = (j + 1) % demands.len();
        }
        let token = CancelToken::new();
        black_box((fingerprint, token.is_cancelled()));
    });
    // Loads sit far below the threshold, so every request takes the
    // heavier k = 2 path (two demand reports).
    assert_eq!(singles, 0, "combined stage left the k = 2 path");
    println!(
        "combined_hot_path              {combined_ns:>10.2} ns/iter (budget {budget_ns:.0})"
    );

    // --- thread racer vs async racer over trivial bodies ---
    let thread_race_ns = measure(&mut || {
        let out = race(vec![
            replica(|_t: &CancelToken| 1u32),
            replica(|_t: &CancelToken| 2u32),
        ])
        .unwrap();
        black_box((out.value, out.winner));
    });
    println!(
        "race_thread_executor           {thread_race_ns:>10.2} ns/race (2 copies, sync_exec::race)"
    );
    #[cfg(feature = "tokio-exec")]
    let async_race_ns = {
        use redundancy::tokio_exec::{block_on, race_async};
        let ns = measure(&mut || {
            let futs: Vec<_> = (1u32..=2).map(|i| async move { i }).collect();
            let out = block_on(race_async(futs)).unwrap();
            black_box(out);
        });
        println!(
            "race_async_executor            {ns:>10.2} ns/race (2 copies, tokio_exec::race_async)"
        );
        println!(
            "race_thread_over_async         {:>10.2} x (thread-spawn cost per race)",
            thread_race_ns / ns
        );
        Some(ns)
    };
    #[cfg(not(feature = "tokio-exec"))]
    let async_race_ns: Option<f64> = {
        println!("race_async_executor            skipped (build with --features tokio-exec)");
        None
    };

    // --- cold thresholds: one uncached bisection each (a cache fill) ---
    // Best of 3 single calls in either mode: each takes milliseconds.
    let cold_ms = |scv: f64| {
        let planner = Planner::new(WorkloadProfile {
            mean_service,
            scv,
            client_overhead: 0.0,
        });
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(planner.threshold_load());
                t0.elapsed().as_secs_f64() * 1.0e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let [light_ms, exponential_ms, heavy_ms] = [0.26, 1.0, 10.0].map(cold_ms);
    let heavy_over_exponential = heavy_ms / exponential_ms;
    let cold_ratio_budget = 5.0;
    println!("threshold_cold_light           {light_ms:>10.3} ms (scv 0.26)");
    println!("threshold_cold_exponential     {exponential_ms:>10.3} ms (scv 1)");
    println!("threshold_cold_heavy           {heavy_ms:>10.3} ms (scv 10)");
    println!(
        "heavy_over_exponential         {heavy_over_exponential:>10.2} x (budget {cold_ratio_budget:.1})"
    );

    let hotpath = format!(
        "{{\n    \"mode\": \"{}\",\n    \"servers\": {},\n    \
         \"estimator_ingest_ns\": {},\n    \
         \"planner_decision_ns\": {},\n    \
         \"cancel_issue_ns\": {},\n    \
         \"combined_ns\": {},\n    \
         \"budget_ns\": {},\n    \
         \"race_thread_executor_ns\": {},\n    \
         \"race_async_executor_ns\": {},\n    \
         \"threshold_cold_ms_light\": {},\n    \
         \"threshold_cold_ms_exponential\": {},\n    \
         \"threshold_cold_ms_heavy\": {},\n    \
         \"heavy_over_exponential_threshold_cold\": {},\n    \
         \"heavy_over_exponential_budget\": {:.1}\n  }}",
        if quick { "quick" } else { "full" },
        servers,
        json_f(ingest_ns, 1),
        json_f(decision_ns, 1),
        json_f(cancel_ns, 1),
        json_f(combined_ns, 1),
        budget_ns as u64,
        json_f(thread_race_ns, 1),
        async_race_ns.map_or("null".to_string(), |ns| json_f(ns, 1)),
        json_f(light_ms, 3),
        json_f(exponential_ms, 3),
        json_f(heavy_ms, 3),
        json_f(heavy_over_exponential, 2),
        cold_ratio_budget,
    );
    let doc = match std::fs::read_to_string(&out_path) {
        Ok(old) => json_with_object(&old, "hotpath", &hotpath),
        // No engine run yet (fresh checkout / CI job workspace): a
        // minimal document holding just this bench's section.
        Err(_) => format!(
            "{{\n  \"generated_by\": \"cargo bench -p repro-bench --bench hotpath\",\n  \
             \"hotpath\": {hotpath}\n}}\n"
        ),
    };
    debug_assert!(json_extract_object(&doc, "hotpath").is_some());
    std::fs::write(&out_path, &doc).expect("write BENCH_engine.json");
    println!("wrote {out_path} (hotpath section)");

    if assert_budget {
        assert!(
            combined_ns < budget_ns,
            "combined hot path {combined_ns:.1} ns/iter exceeds the {budget_ns:.0} ns budget"
        );
        println!("asserted combined hot path {combined_ns:.1} ns < {budget_ns:.0} ns budget");
        assert!(
            heavy_over_exponential <= cold_ratio_budget,
            "a cold heavy-tail threshold costs {heavy_over_exponential:.2}x the exponential one \
             (budget {cold_ratio_budget:.1}x)"
        );
        println!(
            "asserted cold threshold heavy/exponential {heavy_over_exponential:.2}x <= \
             {cold_ratio_budget:.1}x budget"
        );
    }
}
