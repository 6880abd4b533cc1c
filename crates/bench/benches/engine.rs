//! Engine benchmarks (`cargo bench -p repro-bench --bench engine`).
//!
//! Measures the event-engine hot paths the sharded parallel engine was
//! built to accelerate, and emits the numbers as JSON (default
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
//!   ratio is the lane tax as a within-run ratio.
//!
//! The per-request decision hot path is timed (and budget-gated) by the
//! `hotpath` bench, which owns the `"hotpath"` section of the same file.
//!
//! `within_run_speedup` > 1 needs more than one core; on a single-core
//! host the JSON records the (still meaningful) absolute throughputs and
//! a speedup of ~1. `--assert-speedup` turns the service speedup into a
//! hard failure when the host has more than one core (the CI gate).
//!
//! The harness is self-contained (`harness = false`, no external
//! dependencies).

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcore::dist::{DynDist, Exponential};
use simcore::shard::{EngineStats, ShardCtx, ShardEngine, ShardLogic, ShardQueue};
use simcore::time::SimTime;
use storesim::service::{Frontend, ServiceConfig};
use storesim::sharded::run_sharded;

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

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let assert_speedup = args.iter().any(|a| a == "--assert-speedup");
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
            q.push(Reverse((SimTime::from_secs((i % 97) as f64), i as u64, i as u32)));
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
    println!("event_queue_heap4_delta        {heap_delta_ns:>10.2} ns/event (negative = 4-ary faster)");

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
    println!("service_sharded_multi          {svc_tn_eps:>12.0} events/sec ({svc_workers} workers)");
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

    let lanes_json = lane_counts
        .iter()
        .zip(&lanes_rps)
        .map(|(l, rps)| format!("    \"l{}_requests_per_sec\": {}", l, json_f(*rps)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"generated_by\": \"cargo bench -p repro-bench --bench engine{}\",\n  \
         \"mode\": \"{}\",\n  \"host_threads\": {},\n  \
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
         \"l1_over_l8_lane_tax\": {:.3}\n  }}\n}}\n",
        if quick { " -- --quick" } else { "" },
        if quick { "quick" } else { "full" },
        host_threads,
        json_f(push_pop_binary_heap_ns),
        json_f(push_pop_default_ns),
        json_f(push_pop_presized_ns),
        json_f(heap_delta_ns),
        shards,
        ping_events,
        json_f(flat_eps),
        json_f(t1_eps),
        ping_workers,
        json_f(tn_eps),
        tn_eps / t1_eps,
        cfg.servers,
        cfg.requests,
        groups,
        svc_events,
        svc_wires,
        json_f(svc_t1_eps),
        svc_workers,
        json_f(svc_tn_eps),
        svc_speedup,
        svc_workers,
        lanes_json,
        lane_tax,
    );
    // The hotpath bench owns the "hotpath" section of this file; carry an
    // existing one over so the two benches can run in either order.
    let json = match std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|old| repro_bench::util::json_extract_object(&old, "hotpath"))
    {
        Some(hp) => repro_bench::util::json_with_object(&json, "hotpath", &hp),
        None => json,
    };
    std::fs::write(&out_path, &json).expect("write BENCH_engine.json");
    println!("wrote {out_path}");

    if assert_speedup && host_threads > 1 {
        assert!(
            svc_speedup > 1.0,
            "service within_run_speedup {svc_speedup:.3} <= 1.0 on a {host_threads}-core host"
        );
        println!("asserted service within_run_speedup {svc_speedup:.3} > 1.0");
    }
}
