//! Engine and hot-path benchmarks (`cargo bench -p repro-bench --bench engine`).
//!
//! Measures the event-engine hot paths the sharded parallel engine was
//! built to accelerate and the per-request decision path of the live
//! frontend, and writes every number as one JSON document (default
//! `BENCH_engine.json`; relative paths resolve against the workspace
//! root, not the package directory `cargo bench` runs in, so the
//! committed copy updates in place. `--out PATH` overrides; `--quick`
//! shrinks the workloads to CI size):
//!
//! * `event_queue` — push/pop ns/iter through one [`ShardQueue`], default
//!   growth vs `with_capacity` pre-sizing, plus the `std::collections::
//!   BinaryHeap` baseline the queue's 4-ary heap replaced (the delta is
//!   the regression guard for that swap);
//! * `ping` — a synthetic token-passing workload executed twice over the
//!   *same* event multiset: once on one flat [`ShardQueue`] holding every
//!   shard's events, the way the sequential simulators run, and once on
//!   the [`ShardEngine`] at 1 worker and at every available core. This is
//!   the apples-to-apples events/sec comparison between one flat queue
//!   and the sharded engine;
//! * `service` — the real `fig-service-scale` workload: [`run_sharded`]
//!   at 1 and N workers, with the engine's deterministic event and
//!   cross-shard wire counts. The 1-worker and N-worker runs alternate
//!   (1, N, 1, N, 1, N) and each side keeps its best, so a burst of
//!   co-tenant load on a shared host hits both sides of the speedup;
//! * `service_lanes` — the same workload with its frontend decomposed
//!   into L ∈ {1, 2, 4, 8} lanes (one engine shard each) at full
//!   parallelism: requests/sec per lane count, so the L = 8 over L = 1
//!   ratio is the lane tax as a within-run ratio;
//! * `hotpath` — the per-request work `storesim::rt`'s frontend does
//!   between pulling a request off the script and handing copies to the
//!   workers, timed on `LivePlanner`, the loop both runtimes run:
//!   - `estimator_ingest`: two `LivePlanner::observe_demand` calls, the
//!     per-copy moment ingest (with its recalibration cadence) of a
//!     replicated request;
//!   - `planner_decision`: one `LivePlanner::decide` over a stored pair:
//!     two routed arrival observations, two load reads, the threshold
//!     comparison;
//!   - `cancel_issue`: token issue, the clone handed to each copy, the
//!     cancel on first response, and the loser's observation of it;
//!   - `combined`: the stages chained exactly as `rt::run`'s dispatch loop
//!     chains them (decide, trace-fingerprint, per-copy demand ingest,
//!     token issue);
//!   - `race`: one `sync_exec::race` (two thread-spawned replicas) vs one
//!     `tokio_exec::race_async` (two futures on the built-in single-thread
//!     executor), both over trivial bodies so the numbers isolate executor
//!     dispatch + first-response cancellation, not the work being raced;
//!   - `threshold_cold`: one uncached `Planner::threshold_load()` (the
//!     offline bisection a run pays once, before its first request; a
//!     `ThresholdCache` miss pays the same, but only off the committed
//!     overhead-0 column) at scv 0.26, 1 and 10, best of 3 in either mode.
//!
//! `--assert` gates the run (the CI gate): after writing the JSON it
//! prints one `ok`/`FAIL` line per gate and exits 1 if any failed.
//!
//! * The combined hot path costs < 1000 ns, the budget that makes
//!   per-request planning viable at all (Shah/Lee/Ramchandran's point:
//!   past some per-decision overhead, redundancy flips negative).
//! * A cold scv-10 threshold costs ≤ 5× a cold scv-1 one. The heavy law's
//!   quadrature branch is the expensive case; the bound is a within-run
//!   ratio, immune to the runner's speed.
//! * The service `within_run_speedup` is > 1.0. It needs more than one
//!   core, so it is checked only there; on a single-core host the JSON
//!   records the (still meaningful) absolute throughputs and a speedup
//!   of ~1.
//!
//! The harness is self-contained (`harness = false`, no external
//! dependencies).

#![expect(
    clippy::disallowed_types,
    reason = "benchmarks measure wall-clock; that is their output, not simulation state"
)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use redundancy::cancel::CancelToken;
use redundancy::planner::{LivePlanner, Planner, WorkloadProfile};
use redundancy::sync_exec::{race, replica};
use redundancy::tokio_exec::{block_on, race_async};
use simcore::dist::{DynDist, Exponential};
use simcore::shard::{EngineStats, ShardCtx, ShardEngine, ShardLogic, ShardQueue};
use simcore::time::SimTime;
use storesim::service::{Frontend, ServiceConfig};
use storesim::sharded::run_sharded;

/// `--assert`: the combined per-request hot path costs less than this.
const BUDGET_NS: f64 = 1000.0;
/// `--assert`: a cold scv-10 threshold costs at most this multiple of a
/// cold scv-1 one.
const COLD_RATIO_BUDGET: f64 = 5.0;
/// `--assert`: the service's N-worker run beats its 1-worker run by more
/// than this factor (on a multi-core host).
const MIN_SPEEDUP: f64 = 1.0;

/// Best-of-3 [`time_ns`]: the minimum over three measurement windows.
/// The ns-scale queue stages sit well inside scheduler
/// noise on a shared runner; the minimum is the standard noise-robust
/// estimator there (interference only ever adds time).
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

/// Wall-clock seconds of the fastest of three runs of `f` (reduces
/// scheduler noise without a full statistics pass).
fn best_of_3_secs(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Synthetic token-passing workload.
//
// `jobs` tokens start on each of `shards` shards; every handled hop
// reschedules the token after a deterministic pseudo-random gap, and every
// fourth hop crosses to the next shard with a delay that lands exactly on
// the lookahead floor (the engine's hardest case). Total events are exactly
// shards * jobs * (hops + 1) on both engines.
// ---------------------------------------------------------------------------

const PING_LOOKAHEAD_SECS: f64 = 100.0e-6;

#[derive(Clone, Copy)]
struct Token {
    id: u32,
    hops: u32,
}

/// Deterministic per-hop gap in (0, 1] ms — a hash, not an RNG, so the
/// sequential and sharded runs process identical timestamps.
fn gap_secs(id: u32, hops: u32) -> f64 {
    let h = (id.wrapping_mul(2_654_435_761) ^ hops.wrapping_mul(0x9E37_79B9)) % 1000;
    (h + 1) as f64 * 1.0e-6
}

struct PingShard {
    shards: usize,
    handled: u64,
}

impl ShardLogic for PingShard {
    type Event = Token;

    fn handle(&mut self, _now: SimTime, ev: Token, ctx: &mut ShardCtx<'_, Token>) {
        self.handled += 1;
        if ev.hops == 0 {
            return;
        }
        let next = Token {
            id: ev.id,
            hops: ev.hops - 1,
        };
        let gap = SimTime::from_secs(gap_secs(ev.id, ev.hops));
        if ev.hops.is_multiple_of(4) && self.shards > 1 {
            let to = (ctx.shard() + 1) % self.shards;
            ctx.send(to, SimTime::from_secs(PING_LOOKAHEAD_SECS) + gap, next);
        } else {
            ctx.schedule_after(gap, next);
        }
    }
}

/// The same workload on one flat [`ShardQueue`] (events carry their
/// shard id; state is the per-shard handled counter).
fn ping_flat(shards: usize, jobs: u32, hops: u32) -> u64 {
    let mut q: ShardQueue<(usize, Token)> =
        ShardQueue::with_capacity(0, (shards * jobs as usize) * 2);
    for s in 0..shards {
        for j in 0..jobs {
            let id = (s as u32) << 16 | j;
            q.push(SimTime::ZERO, (s, Token { id, hops }));
        }
    }
    let mut handled = 0u64;
    while let Some((now, (s, ev))) = q.pop() {
        handled += 1;
        if ev.hops == 0 {
            continue;
        }
        let next = Token {
            id: ev.id,
            hops: ev.hops - 1,
        };
        let gap = SimTime::from_secs(gap_secs(ev.id, ev.hops));
        if ev.hops.is_multiple_of(4) && shards > 1 {
            let at = now + SimTime::from_secs(PING_LOOKAHEAD_SECS) + gap;
            q.push(at, ((s + 1) % shards, next));
        } else {
            q.push(now + gap, (s, next));
        }
    }
    black_box(handled)
}

fn ping_sharded(shards: usize, jobs: u32, hops: u32, workers: usize) -> EngineStats {
    let states = (0..shards)
        .map(|_| PingShard { shards, handled: 0 })
        .collect();
    let mut engine = ShardEngine::new(states, SimTime::from_secs(PING_LOOKAHEAD_SECS));
    for s in 0..shards {
        engine.reserve(s, jobs as usize * 2);
        for j in 0..jobs {
            let id = (s as u32) << 16 | j;
            engine.schedule(s, SimTime::ZERO, Token { id, hops });
        }
    }
    black_box(engine.run_with(workers))
}

/// The `fig-service-scale` workload at benchmark size.
fn service_config(quick: bool) -> ServiceConfig {
    let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
    let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
    cfg.servers = if quick { 64 } else { 256 };
    cfg.shards = if quick { 16_384 } else { 65_536 };
    cfg.vnodes = 16;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.requests = if quick { 200_000 } else { 1_000_000 };
    cfg.warmup = if quick { 10_000 } else { 50_000 };
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = 8192;
    }
    cfg
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
    let assert = args.iter().any(|a| a == "--assert");
    let out_arg = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    // `cargo bench` runs with the package dir as CWD; anchor relative
    // paths at the workspace root so the committed JSON updates in place.
    let out_path = if std::path::Path::new(&out_arg).is_absolute() {
        out_arg
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&out_arg)
            .to_string_lossy()
            .into_owned()
    };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- event queue push/pop: std BinaryHeap baseline vs the 4-ary heap ---
    // The baseline reproduces the event queue before the 4-ary swap: a std
    // binary heap over the same reversed (time, seq) keys.
    let qlen = 4096usize;
    let push_pop_binary_heap_ns = best_ns(|| {
        let mut q: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
        for i in 0..qlen {
            q.push(Reverse((
                SimTime::from_secs((i % 97) as f64),
                i as u64,
                i as u32,
            )));
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    }) / qlen as f64;
    let push_pop_default_ns = best_ns(|| {
        let mut q: ShardQueue<u32> = ShardQueue::new(0);
        for i in 0..qlen {
            q.push(SimTime::from_secs((i % 97) as f64), i as u32);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    }) / qlen as f64;
    let push_pop_presized_ns = best_ns(|| {
        let mut q: ShardQueue<u32> = ShardQueue::with_capacity(0, qlen);
        for i in 0..qlen {
            q.push(SimTime::from_secs((i % 97) as f64), i as u32);
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    }) / qlen as f64;
    let heap_delta_ns = push_pop_default_ns - push_pop_binary_heap_ns;
    println!("event_queue_push_pop_binheap   {push_pop_binary_heap_ns:>10.2} ns/event (pre-swap baseline)");
    println!("event_queue_push_pop_default   {push_pop_default_ns:>10.2} ns/event");
    println!("event_queue_push_pop_presized  {push_pop_presized_ns:>10.2} ns/event");
    println!(
        "event_queue_heap4_delta        {heap_delta_ns:>10.2} ns/event (negative = 4-ary faster)"
    );

    // --- synthetic ping: one flat queue vs ShardEngine ---
    let (shards, jobs, hops) = if quick { (8, 64, 200) } else { (16, 128, 1000) };
    let ping_events = (shards as u64) * (jobs as u64) * (hops as u64 + 1);
    let flat_secs = best_of_3_secs(|| {
        assert_eq!(ping_flat(shards, jobs, hops), ping_events);
    });
    let t1_secs = best_of_3_secs(|| {
        assert_eq!(ping_sharded(shards, jobs, hops, 1).events, ping_events);
    });
    let mut ping_workers = 1usize;
    let tn_secs = best_of_3_secs(|| {
        let stats = ping_sharded(shards, jobs, hops, host_threads);
        assert_eq!(stats.events, ping_events);
        ping_workers = stats.threads;
    });
    let flat_eps = ping_events as f64 / flat_secs;
    let t1_eps = ping_events as f64 / t1_secs;
    let tn_eps = ping_events as f64 / tn_secs;
    println!("ping_flat_queue                {flat_eps:>12.0} events/sec");
    println!("ping_sharded_1_worker          {t1_eps:>12.0} events/sec");
    println!("ping_sharded_multi             {tn_eps:>12.0} events/sec ({ping_workers} workers)");
    println!("ping_within_run_speedup        {:>12.2} x", tn_eps / t1_eps);

    // --- the real service workload ---
    let cfg = service_config(quick);
    let groups = 8usize;
    // Bypass the process thread budget (capacity 1 under `cargo bench`)
    // the same way the engine tests do: set it explicitly. A 1-worker run
    // leases one thread either way.
    simcore::runner::set_global_threads(host_threads);
    let mut svc_events = 0u64;
    let mut svc_wires = 0u64;
    let mut svc_workers = 1usize;
    let (mut svc_t1_secs, mut svc_tn_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let t = Instant::now();
        let out = run_sharded(&cfg, groups, 1);
        svc_t1_secs = svc_t1_secs.min(t.elapsed().as_secs_f64());
        svc_events = out.engine.events;
        svc_wires = out.engine.wires;
        black_box(out.result.completed);
        let t = Instant::now();
        let out = run_sharded(&cfg, groups, host_threads);
        svc_tn_secs = svc_tn_secs.min(t.elapsed().as_secs_f64());
        svc_workers = out.engine.threads;
        black_box(out.result.completed);
    }
    let svc_t1_eps = svc_events as f64 / svc_t1_secs;
    let svc_tn_eps = svc_events as f64 / svc_tn_secs;
    let svc_speedup = svc_tn_eps / svc_t1_eps;
    println!("service_sharded_1_worker       {svc_t1_eps:>12.0} events/sec");
    println!(
        "service_sharded_multi          {svc_tn_eps:>12.0} events/sec ({svc_workers} workers)"
    );
    println!("service_within_run_speedup     {svc_speedup:>12.2} x");

    // --- the lane sweep (L lanes, one engine shard each) ---
    // The fig-service-frontier experiment reports the deterministic
    // summary and event counts of the same sweep; this measures the
    // wall-clock they cost at full parallelism.
    let mut cfg_lanes = service_config(quick);
    let lane_counts = [1usize, 2, 4, 8];
    let mut lanes_rps = Vec::with_capacity(lane_counts.len());
    for &lanes in &lane_counts {
        cfg_lanes.frontend_lanes = lanes;
        let secs = best_of_3_secs(|| {
            let out = run_sharded(&cfg_lanes, groups, host_threads);
            black_box(out.result.completed);
        });
        let rps = cfg_lanes.requests as f64 / secs;
        println!("service_lanes_l{lanes}              {rps:>12.0} requests/sec");
        lanes_rps.push(rps);
    }
    let lane_tax = lanes_rps[0] / lanes_rps[3];
    println!("service_lane_tax_l1_over_l8    {lane_tax:>12.2} x");

    // --- the per-request hot path ---
    // Quick mode keeps the same measurement window but takes one sample
    // instead of best-of-3 — the stages are ns-scale, so even one window
    // is tens of millions of iterations.
    let measure = |f: &mut dyn FnMut()| if quick { time_ns(f) } else { best_ns(f) };

    // Mirror RtConfig::smoke's planner: 8 servers, 512-gap arrival
    // windows, a 4096-demand moment window (which sets the trust gate and
    // recalibration cadence, as in rt), exponential service (scv 1).
    // Smoke charges no client overhead; this bench adds its own, 2 % of
    // the mean service, well under the paper's 9 % flip.
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
    // The 2 % overhead puts these keys off the committed overhead-0
    // column, so the store's memo is what keeps them warm.
    let mut rng = simcore::rng::Rng::seed_from(0x407_9A7);
    let demands: Vec<f64> = (0..4096)
        .map(|_| rng.exponential(1.0 / mean_service))
        .collect();
    // A warm loop, shared by the stages below: every index has seen a few
    // gaps (so requests read real loads, not the cold-server fallback)
    // and the moment window is full.
    let mut live = LivePlanner::new(planner, threshold, servers as usize, 512, 0, 0.05)
        .with_moments(demands.len());
    for i in 0..servers * 8 {
        live.decide(f64::from(i) * 1.0e-5, &[i % servers], 2.0);
    }
    for &d in &demands {
        live.observe_demand(d);
    }
    let (mut t, mut s, mut j) = (1.0e-3f64, 0u16, 0usize);

    // estimator ingest: a replicated request's two demand reports
    let ingest_ns = measure(&mut || {
        for _ in 0..2 {
            live.observe_demand(demands[j]);
            j = (j + 1) % demands.len();
        }
    });
    println!("estimator_ingest               {ingest_ns:>10.2} ns/iter");

    // planner decision: two routed arrivals, two loads, the compare
    let decision_ns = measure(&mut || {
        s = (s + 1) % servers;
        t += 2.0e-5;
        black_box(live.decide(t, &[s, (s + 3) % servers], 2.0));
    });
    println!("planner_decision               {decision_ns:>10.2} ns/iter");

    // cancel issue: token, per-copy clones, cancel, loser observes
    let cancel_ns = measure(&mut || {
        let token = CancelToken::new();
        let c0 = token.clone();
        let c1 = token.clone();
        token.cancel();
        black_box((c0.is_cancelled(), c1.is_cancelled()));
    });
    println!("cancel_issue                   {cancel_ns:>10.2} ns/iter");

    // the combined per-request sequence, as rt::run chains it
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
    println!("combined_hot_path              {combined_ns:>10.2} ns/iter (budget {BUDGET_NS:.0})");

    // thread racer vs async racer over trivial bodies
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
    let async_race_ns = measure(&mut || {
        let futs: Vec<_> = (1u32..=2).map(|i| async move { i }).collect();
        black_box(block_on(race_async(futs)).unwrap());
    });
    println!(
        "race_async_executor            {async_race_ns:>10.2} ns/race (2 copies, tokio_exec::race_async)"
    );
    println!(
        "race_thread_over_async         {:>10.2} x (thread-spawn cost per race)",
        thread_race_ns / async_race_ns
    );

    // cold thresholds: one uncached bisection each (a run's offline
    // threshold), best of 3 single calls in either mode: each takes
    // milliseconds
    let cold_ms = |scv: f64| {
        let planner = Planner::new(WorkloadProfile {
            mean_service,
            scv,
            client_overhead: 0.0,
        });
        best_of_3_secs(|| {
            black_box(planner.threshold_load());
        }) * 1.0e3
    };
    let [light_ms, exponential_ms, heavy_ms] = [0.26, 1.0, 10.0].map(cold_ms);
    let heavy_over_exponential = heavy_ms / exponential_ms;
    println!("threshold_cold_light           {light_ms:>10.3} ms (scv 0.26)");
    println!("threshold_cold_exponential     {exponential_ms:>10.3} ms (scv 1)");
    println!("threshold_cold_heavy           {heavy_ms:>10.3} ms (scv 10)");
    println!(
        "heavy_over_exponential         {heavy_over_exponential:>10.2} x (budget {COLD_RATIO_BUDGET:.1})"
    );

    let mode = if quick { "quick" } else { "full" };
    let lanes_json = lane_counts
        .iter()
        .zip(&lanes_rps)
        .map(|(l, rps)| format!("    \"l{}_requests_per_sec\": {}", l, json_f(*rps, 1)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"generated_by\": \"cargo bench -p repro-bench --bench engine{}\",\n  \
         \"mode\": \"{mode}\",\n  \"host_threads\": {},\n  \
         \"event_queue\": {{\n    \"push_pop_binary_heap_ns_per_event\": {},\n    \
         \"push_pop_default_ns_per_event\": {},\n    \
         \"push_pop_presized_ns_per_event\": {},\n    \
         \"heap4_minus_binary_heap_ns_per_event\": {}\n  }},\n  \
         \"ping\": {{\n    \"shards\": {}, \"events\": {},\n    \
         \"flat_queue_events_per_sec\": {},\n    \
         \"sharded_1_worker_events_per_sec\": {},\n    \
         \"workers\": {},\n    \
         \"sharded_multi_worker_events_per_sec\": {},\n    \
         \"within_run_speedup\": {:.3}\n  }},\n  \
         \"service\": {{\n    \"servers\": {}, \"requests\": {}, \"groups\": {}, \"engine_events\": {},\n    \
         \"engine_wires\": {},\n    \
         \"sharded_1_worker_events_per_sec\": {},\n    \
         \"workers\": {},\n    \
         \"sharded_multi_worker_events_per_sec\": {},\n    \
         \"within_run_speedup\": {:.3}\n  }},\n  \
         \"service_lanes\": {{\n    \"workers\": {},\n{},\n    \
         \"l1_over_l8_lane_tax\": {:.3}\n  }},\n  \
         \"hotpath\": {{\n    \"mode\": \"{mode}\",\n    \"servers\": {},\n    \
         \"estimator_ingest_ns\": {},\n    \
         \"planner_decision_ns\": {},\n    \
         \"cancel_issue_ns\": {},\n    \
         \"combined_ns\": {},\n    \
         \"budget_ns\": {BUDGET_NS},\n    \
         \"race_thread_executor_ns\": {},\n    \
         \"race_async_executor_ns\": {},\n    \
         \"threshold_cold_ms_light\": {},\n    \
         \"threshold_cold_ms_exponential\": {},\n    \
         \"threshold_cold_ms_heavy\": {},\n    \
         \"heavy_over_exponential_threshold_cold\": {},\n    \
         \"heavy_over_exponential_budget\": {COLD_RATIO_BUDGET:.1}\n  }}\n}}\n",
        if quick { " -- --quick" } else { "" },
        host_threads,
        json_f(push_pop_binary_heap_ns, 1),
        json_f(push_pop_default_ns, 1),
        json_f(push_pop_presized_ns, 1),
        json_f(heap_delta_ns, 1),
        shards,
        ping_events,
        json_f(flat_eps, 1),
        json_f(t1_eps, 1),
        ping_workers,
        json_f(tn_eps, 1),
        tn_eps / t1_eps,
        cfg.servers,
        cfg.requests,
        groups,
        svc_events,
        svc_wires,
        json_f(svc_t1_eps, 1),
        svc_workers,
        json_f(svc_tn_eps, 1),
        svc_speedup,
        svc_workers,
        lanes_json,
        lane_tax,
        servers,
        json_f(ingest_ns, 1),
        json_f(decision_ns, 1),
        json_f(cancel_ns, 1),
        json_f(combined_ns, 1),
        json_f(thread_race_ns, 1),
        json_f(async_race_ns, 1),
        json_f(light_ms, 3),
        json_f(exponential_ms, 3),
        json_f(heavy_ms, 3),
        json_f(heavy_over_exponential, 2),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");

    if assert {
        let mut failed = 0;
        let mut gate = |ok: bool, what: String| {
            println!("{} {what}", if ok { "ok  " } else { "FAIL" });
            failed += usize::from(!ok);
        };
        gate(
            combined_ns < BUDGET_NS,
            format!("hotpath: combined {combined_ns:.1} ns < {BUDGET_NS:.0} ns budget"),
        );
        gate(
            heavy_over_exponential <= COLD_RATIO_BUDGET,
            format!(
                "threshold_cold: scv 10 costs {heavy_over_exponential:.2}x scv 1 \
                 <= {COLD_RATIO_BUDGET:.1}x"
            ),
        );
        if host_threads > 1 {
            gate(
                svc_speedup > MIN_SPEEDUP,
                format!(
                    "service: within_run_speedup {svc_speedup:.3} > {MIN_SPEEDUP:.1} \
                     on {host_threads} cores"
                ),
            );
        } else {
            println!("skip service: within_run_speedup needs more than one core");
        }
        if failed > 0 {
            std::process::exit(1);
        }
    }
}
