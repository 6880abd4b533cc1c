//! Quickstart: race two replicas, hedge a third, and ask the planner
//! whether always-on replication is worth it for your workload.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use low_latency_redundancy::redundancy::prelude::*;
use low_latency_redundancy::simcore::dist::{Distribution, LogNormal};
use low_latency_redundancy::simcore::rng::Rng;
use std::time::Duration;

/// A fake backend replica: log-normal "service time" slept on a thread.
fn backend(name: &'static str, mean_ms: f64, seed: u64) -> impl FnOnce(&CancelToken) -> &'static str {
    move |token: &CancelToken| {
        let dist = LogNormal::with_mean_sigma(mean_ms, 0.8);
        let mut rng = Rng::seed_from(seed);
        let total = dist.sample(&mut rng);
        // Sleep in 1 ms slices so cancellation is honored promptly.
        let mut slept = 0.0;
        while slept < total {
            if token.is_cancelled() {
                return name; // cancelled mid-flight
            }
            std::thread::sleep(Duration::from_millis(1));
            slept += 1.0;
        }
        name
    }
}

fn main() {
    println!("== 1. Race two replicas (the paper's always-replicate) ==");
    let out = race(vec![
        replica(backend("replica-A", 20.0, 1)),
        replica(backend("replica-B", 20.0, 2)),
    ])
    .expect("some replica answers");
    println!(
        "   winner: {} (index {}) in {:?}; {} copies launched\n",
        out.value, out.winner, out.latency, out.launched
    );

    println!("== 2. Hedged request (duplicate only the slow tail) ==");
    let out = hedged(
        vec![
            replica(backend("primary", 60.0, 3)),
            replica(backend("hedge", 10.0, 4)),
        ],
        Duration::from_millis(25),
    )
    .expect("some replica answers");
    println!(
        "   winner: {} in {:?}; launched {} of 2 copies\n",
        out.value, out.latency, out.launched
    );

    println!("== 3. Should you replicate? (paper section 2.1 as an API) ==");
    // Describe the workload: 4 ms mean service, exponential-ish variability,
    // 50 us client-side cost per extra copy.
    let profile = WorkloadProfile {
        mean_service: 4.0e-3,
        scv: 1.0,
        client_overhead: 50.0e-6,
    };
    let planner = Planner::new(profile);
    println!(
        "   threshold load for this workload: {:.1}% utilization",
        planner.threshold_load() * 100.0
    );
    for load in [0.10, 0.25, 0.40] {
        let advice = planner.advise(load);
        println!(
            "   at {:>3.0}% load: replicate={} (predicted {:.2} ms -> {:.2} ms, speedup {:.2}x)",
            load * 100.0,
            advice.replicate,
            advice.mean_single * 1e3,
            advice.mean_replicated * 1e3,
            advice.speedup()
        );
    }
}
