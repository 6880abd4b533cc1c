//! Capacity planning with the threshold rule: for your measured workload,
//! at which utilizations does always-on replication pay, and how does the
//! answer move with service variability and client-side cost?
//!
//! The planner's predictions are then *checked against the paper's §2.1
//! simulator* at a few points — the same validation loop a cautious
//! operator would run before enabling hedging in production.
//!
//! ```text
//! cargo run --release --example capacity_planner
//! ```

use low_latency_redundancy::queuesim::model::{run, Config};
use low_latency_redundancy::redundancy::prelude::*;
use low_latency_redundancy::simcore::dist::{Exponential, HyperExponential};

fn main() {
    println!("threshold load by workload shape (client overhead as % of mean service):\n");
    println!(
        "{:>24} | {:>7} {:>7} {:>7} {:>7}",
        "service variability", "0%", "10%", "25%", "50%"
    );
    for (label, scv) in [
        ("deterministic (scv 0)", 0.0),
        ("Erlang-4 (scv 0.25)", 0.25),
        ("exponential (scv 1)", 1.0),
    ] {
        let mut cells = Vec::new();
        for frac in [0.0, 0.1, 0.25, 0.5] {
            let planner = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead: frac,
            });
            cells.push(format!("{:>6.1}%", planner.threshold_load() * 100.0));
        }
        println!("{label:>24} | {}", cells.join(" "));
    }

    println!("\nvalidating the exponential column against the queueing simulator:");
    let planner = Planner::new(WorkloadProfile {
        mean_service: 1.0,
        scv: 1.0,
        client_overhead: 0.0,
    });
    for load in [0.25, 0.40] {
        let advice = planner.advise(load);
        let base = Config::new(Exponential::unit(), load).with_requests(120_000, 12_000);
        let single = run(&base.clone().with_copies(1), 9).moments.mean();
        let double = run(&base.with_copies(2), 9).moments.mean();
        println!(
            "  load {load:.2}: planner says replicate={}, predicts {:.3} vs {:.3}; \
             simulator measures {:.3} vs {:.3}",
            advice.replicate, advice.mean_single, advice.mean_replicated, single, double
        );
    }

    println!("\nand a heavy-tailed workload for contrast (H2, scv 8):");
    let heavy = HyperExponential::unit_mean_with_scv(8.0);
    for load in [0.25, 0.40] {
        let base = Config::new(heavy, load).with_requests(120_000, 12_000);
        let single = run(&base.clone().with_copies(1), 9).moments.mean();
        let double = run(&base.with_copies(2), 9).moments.mean();
        println!(
            "  load {load:.2}: simulator measures mean {single:.3} (1 copy) vs {double:.3} (2 copies)"
        );
    }
    println!("\nheavier tails keep replication profitable deeper into the load range —");
    println!("the paper's Figure 2 in one terminal screen.");
}
