//! Micro-benchmarks of the substrate hot paths (`cargo bench -p repro-bench`).
//!
//! These guard the performance assumptions the figure harness relies on
//! (tens of millions of events per second through the kernel; O(1)
//! sampling, cache and ring operations). The figure *reproductions*
//! themselves live in the `repro` binary — they are simulations whose
//! output is data, not wall time.
//!
//! The harness is self-contained (`harness = false`, no external
//! dependencies): each benchmark is warmed up, then timed over enough
//! iterations to fill a ~100 ms window, reporting ns/iter. Pass a substring
//! as the first argument to filter benchmarks by name.

#![expect(
    clippy::disallowed_types,
    reason = "benchmarks measure wall-clock; that is their output, not simulation state"
)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use netsim::topology::FatTree;
use queuesim::model::{run as run_queue, Config};
use simcore::dist::{Distribution, Exponential, Pareto};
use simcore::rng::Rng;
use simcore::shard::ShardQueue;
use simcore::time::SimTime;
use storesim::hashring::HashRing;
use storesim::lru::LruCache;

/// Times `f` and prints a criterion-style `name ... ns/iter` line.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Warm up and estimate a per-iteration cost.
    let t0 = Instant::now();
    let mut warm_iters = 0u64;
    while t0.elapsed() < Duration::from_millis(20) {
        f();
        warm_iters += 1;
    }
    let est = t0.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;
    // Aim for a ~100 ms measurement window.
    let iters = ((100.0e6 / est.max(1.0)) as u64).clamp(10, 50_000_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_iter = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {per_iter:>12.1} ns/iter   ({iters} iters)");
}

fn main() {
    // First non-flag argument is the filter (`cargo bench` injects a
    // `--bench` flag before user arguments; skip anything flag-shaped).
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();

    // --- event queue ---
    {
        let mut rng = Rng::seed_from(1);
        bench(&filter, "shard_queue_push_pop_1k", || {
            let mut q = ShardQueue::with_capacity(0, 1024);
            for _ in 0..1024 {
                q.push(SimTime::from_secs(rng.f64()), 0u32);
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        });
    }

    // --- rng + distributions ---
    {
        let mut rng = Rng::seed_from(2);
        bench(&filter, "rng_next_u64", || {
            black_box(rng.next_u64());
        });
        let mut rng = Rng::seed_from(3);
        let d = Exponential::unit();
        bench(&filter, "sample_exponential", || {
            black_box(d.sample(&mut rng));
        });
        let mut rng = Rng::seed_from(4);
        let d = Pareto::unit_mean(2.1);
        bench(&filter, "sample_pareto", || {
            black_box(d.sample(&mut rng));
        });
    }

    // --- LRU ---
    {
        let mut cache = LruCache::new(1 << 20);
        for k in 0..1000u64 {
            cache.insert(k, 1000);
        }
        let mut i = 0u64;
        bench(&filter, "lru_access_hit", || {
            i = (i + 7) % 1000;
            black_box(cache.access(i));
        });
        let mut cache = LruCache::new(100_000);
        let mut k = 0u64;
        bench(&filter, "lru_insert_evict", || {
            k += 1;
            cache.insert(k, 999);
        });
    }

    // --- hash ring ---
    {
        let ring = HashRing::new(16, 128);
        let mut k = 0u64;
        bench(&filter, "hashring_primary", || {
            k += 1;
            black_box(ring.primary(k));
        });
    }

    // --- fat-tree routing ---
    {
        let topo = FatTree::new(6);
        let mut i = 0u32;
        bench(&filter, "fattree_candidates", || {
            i = (i + 1) % 54;
            let edge = 54 + (i % 18);
            black_box(topo.candidates(edge, (i * 7) % 54));
        });
    }

    // --- one full (small) queue simulation per iteration ---
    {
        let cfg = Config::new(Exponential::unit(), 0.2)
            .with_copies(2)
            .with_requests(10_000, 1_000);
        let mut seed = 0u64;
        bench(&filter, "queuesim_10k_requests_k2", || {
            seed += 1;
            black_box(run_queue(&cfg, seed).moments.mean());
        });
    }
}
