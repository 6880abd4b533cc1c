//! In-network replication on the paper's 54-host fat-tree (§2.4): replicate
//! the first 8 packets of every flow on an alternate ECMP path at low
//! priority, and compare short-flow completion times.
//!
//! ```text
//! cargo run --release --example fat_tree_flows [load] [flows]
//! ```

use low_latency_redundancy::netsim::{run_pair, SimConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let load: f64 = args
        .next()
        .map(|s| s.parse().expect("load must be a number in (0,1)"))
        .unwrap_or(0.4);
    let flows: usize = args
        .next()
        .map(|s| s.parse().expect("flows must be an integer"))
        .unwrap_or(10_000);

    println!("fat-tree k=6 (54 hosts, 45 switches), 5 Gbps links, 2 us/hop");
    println!("load {load}, {flows} flows, replicating first 8 packets\n");

    let cfg = SimConfig {
        load,
        flows,
        seed: 1,
        ..SimConfig::default()
    };
    let mut pair = run_pair(&cfg);

    println!("flows < 10 KB:");
    println!(
        "  median FCT: {:>8.1} us -> {:>8.1} us   ({:+.1}%)",
        pair.baseline.small_median() * 1e6,
        pair.replicated.small_median() * 1e6,
        -pair.median_improvement_pct(),
    );
    println!(
        "  p99 FCT:    {:>8.1} us -> {:>8.1} us",
        pair.baseline.small_p99() * 1e6,
        pair.replicated.small_p99() * 1e6,
    );
    println!(
        "  timeouts:   {:>8} -> {:>8}",
        pair.baseline.timeouts, pair.replicated.timeouts
    );
    println!(
        "  drops (original class): {} -> {}   (replica class: {})",
        pair.baseline.drops_high, pair.replicated.drops_high, pair.replicated.drops_low
    );
    println!(
        "\nelephants (>= 1 MB): mean change {:+.2}% (paper: statistically insignificant)",
        -pair.elephant_mean_change_pct()
    );
}
