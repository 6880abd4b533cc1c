//! A miniature of the paper's §2.2 disk-backed store experiment: sweep the
//! load, watch replication help below ~30 % and hurt above it.
//!
//! ```text
//! cargo run --release --example replicated_store
//! ```

use low_latency_redundancy::storesim::experiments::{run_load_sweep, ExperimentSpec};

fn main() {
    let spec = ExperimentSpec::fig5_base();
    println!("disk-backed store, 4 servers / 10 clients, 4 KB files, cache:disk 0.1\n");
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12} | verdict",
        "load", "mean 1x (ms)", "mean 2x (ms)", "p999 1x", "p999 2x"
    );
    let loads = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45];
    for row in run_load_sweep(&spec, &loads, 60_000, 7) {
        let verdict = if row.mean_double < row.mean_single {
            "replicate"
        } else {
            "don't"
        };
        println!(
            "{:>6.2} | {:>12.3} {:>12.3} | {:>12.1} {:>12.1} | {verdict}",
            row.load,
            row.mean_single * 1e3,
            row.mean_double * 1e3,
            row.p999_single * 1e3,
            row.p999_double * 1e3,
        );
    }
    println!("\nthe crossover near 0.3 load is the paper's Figure 5 threshold");
}
