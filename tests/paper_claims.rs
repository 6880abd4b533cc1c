//! End-to-end integration tests: every headline claim of the paper, checked
//! across crate boundaries at CI-sized effort.
//!
//! These intentionally go through the same entry points a user would: the
//! `repro-bench` experiment runners and the public crate APIs.

use low_latency_redundancy::queuesim::threshold::{threshold_load, ThresholdOptions};
use low_latency_redundancy::simcore::dist::{Deterministic, Exponential, Pareto, TwoPoint};
use repro_bench::{bands, run_experiment, Effort};

/// §2.1: "there is strong evidence to suggest that no matter what the
/// service time distribution, the threshold load has to be more than 25%"
/// and cannot exceed 50%.
#[test]
fn threshold_band_holds_across_distributions() {
    let opts = ThresholdOptions::fast();
    for dist in [
        Box::new(Deterministic::unit()) as Box<dyn low_latency_redundancy::simcore::dist::Distribution>,
        Box::new(Exponential::unit()),
        Box::new(Pareto::unit_mean(2.5)),
        Box::new(TwoPoint::new(0.5)),
    ] {
        let t = threshold_load(&dist.as_ref(), &opts);
        assert!(
            (0.22..0.5).contains(&t),
            "{}: threshold {t} outside the paper's band",
            dist.label()
        );
    }
}

/// Runs experiment `id` at quick effort and requires every headline band
/// `repro_bench::bands` records for it to hold.
fn bands_hold(id: &str) {
    bands::assert_holds(id, &run_experiment(id, Effort::Quick));
}

/// Theorem 1 through the full reproduction harness.
#[test]
fn thm1_report_consistent() {
    bands_hold("thm1");
}

/// §2.2 (Fig 5): the disk-backed store's threshold is ~30% load, and the
/// tail cut at 20% load is large.
#[test]
fn disk_store_report_shape() {
    bands_hold("fig5");
}

/// §2.3 (Fig 12): memcached replication never wins.
#[test]
fn memcached_report_shape() {
    bands_hold("fig12");
}

/// The per-request planner switches replication off, live, at the
/// offline §2.1 threshold.
#[test]
fn service_layer_flips_at_the_offline_threshold() {
    bands_hold("fig-service");
}

/// With rate, mean and SCV all measured online, the switch-off lands on
/// the offline threshold and on the clairvoyant run.
#[test]
fn estimated_mode_switch_off_lands_in_band() {
    bands_hold("fig-service-est");
}

/// The heavy-tail switch-off sits below the exponential one, and every
/// service shape lands on its own threshold.
#[test]
fn heavy_tail_switch_off_sits_below_exponential() {
    bands_hold("fig-service-tail");
}

/// Under a Zipf key mix the per-server planner cuts the hot server's
/// peak, flattens the p99 hump and staggers hot and cold pairs.
#[test]
fn per_server_planner_cuts_the_hot_server_peak() {
    bands_hold("fig-service-skew-aware");
}

/// Estimated + PS + cancellation, reported at dispatch, lands in band
/// with unbiased moments.
#[test]
fn ps_estimated_switch_off_lands_in_band() {
    bands_hold("fig-service-ps-est");
}

/// §2.4 headline: replicating the first packets improves the small-flow
/// median at moderate load without hurting originals.
#[test]
fn network_replication_helps_small_flows() {
    use low_latency_redundancy::netsim::{run_pair, SimConfig};
    let cfg = SimConfig {
        flows: 4_000,
        load: 0.4,
        seed: 5,
        ..SimConfig::default()
    };
    let mut pair = run_pair(&cfg);
    assert!(
        pair.median_improvement_pct() > 3.0,
        "improvement {:.1}%",
        pair.median_improvement_pct()
    );
}

/// §3.1 headline: handshake duplication saves ≥ an order of magnitude more
/// than the 16 ms/KB break-even.
#[test]
fn handshake_cost_effectiveness() {
    use low_latency_redundancy::wansim::costbench::savings_ms_per_kb;
    use low_latency_redundancy::wansim::handshake::HandshakeModel;
    let m = HandshakeModel::default();
    let rate = savings_ms_per_kb(m.expected_savings() * 1e3, m.extra_bytes());
    assert!(rate > 160.0, "{rate} ms/KB");
}

/// §3.2 headline: querying 10 DNS servers halves the latency metrics.
#[test]
fn dns_reduction_band() {
    use low_latency_redundancy::wansim::dns::{reduction_table, DnsExperiment, DnsPopulation};
    let exp = DnsExperiment::rank(DnsPopulation::paper_like(3), 3_000, 1);
    let rows = reduction_table(&exp, 60_000, 2);
    let last = rows.last().unwrap();
    assert!(
        (35.0..80.0).contains(&last.mean_pct),
        "10-server mean reduction {last:?}"
    );
}

/// The planner (library layer) and the simulator (model layer) agree on
/// the replicate/don't-replicate decision far from the threshold.
#[test]
fn planner_agrees_with_simulation() {
    use low_latency_redundancy::queuesim::model::{run, Config};
    use low_latency_redundancy::redundancy::prelude::*;
    let planner = Planner::new(WorkloadProfile {
        mean_service: 1.0,
        scv: 1.0,
        client_overhead: 0.0,
    });
    for (load, expect) in [(0.2, true), (0.45, false)] {
        let advice = planner.advise(load);
        assert_eq!(advice.replicate, expect, "planner at {load}");
        let base = Config::new(Exponential::unit(), load).with_requests(80_000, 8_000);
        let single = run(&base.clone().with_copies(1), 3).moments.mean();
        let double = run(&base.with_copies(2), 3).moments.mean();
        assert_eq!(double < single, expect, "simulator at {load}");
    }
}

/// The full experiment list dispatches (quick mode) for the cheap WAN and
/// queueing figures — a smoke net over the harness wiring.
#[test]
fn harness_dispatch_smoke() {
    for id in ["tcp", "fig16", "fig17"] {
        let out = run_experiment(id, Effort::Quick);
        assert!(out.contains("paper:"), "{id} report malformed");
    }
}

/// The §2.1 switch-off at 256 servers and 1M requests on the parallel
/// engine, with every request completed.
#[test]
fn sharded_scale_switch_off_lands_in_band() {
    bands_hold("fig-service-scale");
}
