//! End-to-end integration tests: every headline claim of the paper, checked
//! across crate boundaries at CI-sized effort.
//!
//! These intentionally go through the same entry points a user would: the
//! `repro-bench` experiment runners and the public crate APIs.

#![forbid(unsafe_code)]

use low_latency_redundancy::queuesim::threshold::{threshold_load, ThresholdOptions};
use low_latency_redundancy::simcore::dist::{Deterministic, Exponential, Pareto, TwoPoint};
use repro_bench::{run_experiment, Effort};

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

/// Theorem 1 through the full reproduction harness.
#[test]
fn thm1_report_consistent() {
    let out = run_experiment("thm1", Effort::Quick);
    let vals: Vec<f64> = out
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split('\t').nth(1)?.parse().ok())
        .collect();
    assert_eq!(vals.len(), 3, "three methods expected:\n{out}");
    for v in vals {
        assert!((v - 1.0 / 3.0).abs() < 0.04, "{v} != 1/3\n{out}");
    }
}

/// §2.2 headline: the disk-backed store's threshold is ~30% and the tail
/// improvement at 20% load is large.
#[test]
fn disk_store_report_shape() {
    let out = run_experiment("fig5", Effort::Quick);
    let rows: Vec<Vec<f64>> = out
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split('\t').filter_map(|c| c.parse().ok()).collect())
        .filter(|r: &Vec<f64>| r.len() == 5)
        .collect();
    let at = |load: f64| -> &Vec<f64> {
        rows.iter()
            .find(|r| (r[0] - load).abs() < 1e-9)
            .unwrap_or_else(|| panic!("missing load {load} in:\n{out}"))
    };
    // Replication wins at 0.1, loses by 0.4 (mean columns 1 vs 2).
    assert!(at(0.1)[2] < at(0.1)[1], "{:?}", at(0.1));
    assert!(at(0.4)[2] > at(0.4)[1], "{:?}", at(0.4));
    // Tail cut at 0.2 load (p999 columns 3 vs 4).
    assert!(at(0.2)[4] < at(0.2)[3], "{:?}", at(0.2));
}

/// §2.3 headline: memcached replication is not a win at the tested loads.
#[test]
fn memcached_report_shape() {
    let out = run_experiment("fig12", Effort::Quick);
    let rows: Vec<Vec<f64>> = out
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split('\t').filter_map(|c| c.parse().ok()).collect())
        .filter(|r: &Vec<f64>| r.len() == 5)
        .collect();
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(
            r[2] > r[1] * 0.97,
            "memcached replication should not clearly win at load {}: {r:?}",
            r[0]
        );
    }
}

/// The service layer closes the loop the paper only sweeps offline: a
/// sharded store whose front-end consults the planner per request must
/// switch replication off, live, within ±0.05 of the offline §2.1
/// threshold for the exponential workload.
#[test]
fn service_layer_flips_at_the_offline_threshold() {
    let out = run_experiment("fig-service", Effort::Quick);
    let grab = |tag: &str| -> f64 {
        out.lines()
            .find_map(|l| l.strip_prefix(tag))
            .unwrap_or_else(|| panic!("missing '{tag}' in:\n{out}"))
            .trim()
            .parse()
            .expect("numeric headline")
    };
    let switch_off = grab("# planner switch-off load:");
    let threshold = grab("# offline threshold:");
    assert!(
        (threshold - 1.0 / 3.0).abs() < 0.01,
        "offline threshold {threshold} != 1/3"
    );
    assert!(
        (switch_off - threshold).abs() <= 0.05,
        "switch-off {switch_off} vs threshold {threshold}"
    );
}

/// Pulls the first numeric token after a `# tag:` headline line.
fn grab_headline(out: &str, tag: &str) -> f64 {
    out.lines()
        .find_map(|l| l.strip_prefix(tag))
        .unwrap_or_else(|| panic!("missing '{tag}' in:\n{out}"))
        .split_whitespace()
        .next()
        .expect("empty headline")
        .parse()
        .expect("numeric headline")
}

/// The self-calibrating planner: with *every* input measured — arrival
/// rate, mean service time, and SCV — the live switch-off must land within
/// ±0.08 of the offline §2.1 threshold, and within the same band of the
/// clairvoyant run it replaces.
#[test]
fn estimated_mode_switch_off_lands_in_band() {
    let out = run_experiment("fig-service-est", Effort::Quick);
    let est = grab_headline(&out, "# estimated switch-off load:");
    let clair = grab_headline(&out, "# clairvoyant switch-off load:");
    let threshold = grab_headline(&out, "# offline threshold:");
    assert!(
        (threshold - 1.0 / 3.0).abs() < 0.01,
        "offline threshold {threshold} != 1/3"
    );
    assert!(
        (est - threshold).abs() <= 0.08,
        "estimated switch-off {est} vs offline threshold {threshold}"
    );
    assert!(
        (est - clair).abs() <= 0.08,
        "estimated switch-off {est} vs clairvoyant {clair}"
    );
    // The calibration itself must have converged on the config truth.
    let mean = grab_headline(&out, "# estimated final mean service:");
    let scv = grab_headline(&out, "# estimated final scv:");
    assert!((mean - 1.0e-3).abs() / 1.0e-3 < 0.1, "est mean {mean}");
    assert!((scv - 1.0).abs() < 0.25, "est scv {scv}");
}

/// Service-shape ordering through the self-calibrating service: the
/// two-moment planner's threshold peaks at scv = 1 (its approximation is
/// exact for M/M/1 and degrades toward the deterministic floor on both
/// sides — the documented regime of the paper's own Myers–Vernon
/// stand-in), so the measured heavy-tail switch-off must sit *below* the
/// exponential one, and every workload's switch-off must land within
/// ±0.08 of its own offline threshold.
#[test]
fn heavy_tail_switch_off_sits_below_exponential() {
    let out = run_experiment("fig-service-tail", Effort::Quick);
    let heavy = grab_headline(&out, "# heavy-tail switch-off load:");
    let exp = grab_headline(&out, "# exponential switch-off load:");
    assert!(
        heavy < exp,
        "heavy-tail switch-off {heavy} not below exponential {exp}"
    );
    // Per-workload band: the table rows carry
    // (workload, scv_true, scv_est, offline, live, switch_off, diff).
    let mut rows = 0;
    for l in out.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let cells: Vec<&str> = l.split('\t').collect();
        if cells.len() != 7 {
            continue;
        }
        rows += 1;
        let diff: f64 = cells[6].parse().expect("diff cell");
        assert!(
            diff.abs() <= 0.08,
            "{}: switch-off off by {diff} from its own threshold",
            cells[0]
        );
        // Self-calibration sanity: the estimated SCV is on the right side
        // of 1 for every shape.
        let scv_true: f64 = cells[1].parse().unwrap();
        let scv_est: f64 = cells[2].parse().unwrap();
        if scv_true < 0.5 {
            assert!(scv_est < 0.7, "{}: est scv {scv_est}", cells[0]);
        }
        if scv_true > 2.0 {
            assert!(scv_est > 2.0, "{}: est scv {scv_est}", cells[0]);
        }
    }
    assert_eq!(rows, 3, "three workload rows expected:\n{out}");
}

/// Skew-aware planning: under a Zipf key mix the per-server planner
/// (`LivePlanner` with one index per server) must cut the hot server's peak busy
/// fraction strictly below the global planner's, flatten the mid-ramp
/// p99 contention hump, and stagger the decision by temperature — hot
/// pairs off well below the balanced-load threshold, cold pairs
/// switching off markedly later (or never, inside the ramp).
#[test]
fn per_server_planner_cuts_the_hot_server_peak() {
    let out = run_experiment("fig-service-skew-aware", Effort::Quick);
    let global_peak = grab_headline(&out, "# global hot-server peak utilization:");
    let per_peak = grab_headline(&out, "# per-server hot-server peak utilization:");
    assert!(
        per_peak < global_peak - 0.05,
        "per-server peak {per_peak} not strictly below global {global_peak}"
    );
    let hump_ratio = grab_headline(&out, "# p99 hump ratio:");
    assert!(hump_ratio < 0.9, "p99 hump ratio {hump_ratio} not flattened");
    let hot_off = grab_headline(&out, "# per-server hot-pair switch-off load:");
    let threshold = grab_headline(&out, "# offline threshold:");
    assert!(
        hot_off < threshold - 0.05,
        "hot pairs must switch off well below the balanced threshold: \
         {hot_off} vs {threshold}"
    );
    let cold_off = grab_headline(&out, "# per-server cold-pair switch-off load:");
    assert!(
        cold_off.is_nan() || cold_off > hot_off + 0.10,
        "cold pairs must switch off markedly later than hot pairs: \
         cold {cold_off} vs hot {hot_off}"
    );
}

/// Censoring-free PS calibration: the previously rejected Estimated +
/// PS + cancellation combination, run through dispatch-time demand
/// reporting, must land its switch-off inside the same ±0.08 band as the
/// uncensored FIFO experiments, with unbiased moment estimates — the
/// exact outcome completion-based sampling could not deliver (it would
/// have measured min(demands) and roughly halved the mean).
#[test]
fn ps_estimated_switch_off_lands_in_band() {
    let out = run_experiment("fig-service-ps-est", Effort::Quick);
    let switch_off = grab_headline(&out, "# planner switch-off load:");
    let threshold = grab_headline(&out, "# offline threshold:");
    assert!(
        (threshold - 1.0 / 3.0).abs() < 0.01,
        "offline threshold {threshold} != 1/3"
    );
    assert!(
        (switch_off - threshold).abs() <= 0.08,
        "PS-estimated switch-off {switch_off} vs threshold {threshold}"
    );
    let mean = grab_headline(&out, "# estimated final mean service:");
    assert!(
        (mean - 1.0e-3).abs() / 1.0e-3 < 0.1,
        "dispatch-reported mean must be unbiased: {mean}"
    );
    let scv = grab_headline(&out, "# estimated final scv:");
    assert!((scv - 1.0).abs() < 0.25, "est scv {scv}");
    let cancel = grab_headline(&out, "# cancel fraction:");
    assert!(
        cancel > 0.05,
        "cancellation never fired meaningfully: {cancel}"
    );
}

/// §2.4 headline: replicating the first packets improves the small-flow
/// median at moderate load without hurting originals.
#[test]
fn network_replication_helps_small_flows() {
    use low_latency_redundancy::netsim::experiments::{run_pair, NetConfig};
    let cfg = NetConfig {
        flows: 4_000,
        load: 0.4,
        ..NetConfig::default()
    };
    let mut pair = run_pair(&cfg, 5);
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

/// Sharded-engine headline: the §2.1 switch-off still lands on the
/// offline threshold when the adaptive ramp runs at cluster scale
/// (256 servers, 1M requests) on the parallel engine — and the run
/// completes, i.e. the conservative synchronization never deadlocks or
/// drops an event at this size.
#[test]
fn sharded_scale_switch_off_lands_in_band() {
    let out = run_experiment("fig-service-scale", Effort::Quick);
    let switch_off = grab_headline(&out, "# planner switch-off load:");
    let threshold = grab_headline(&out, "# offline threshold:");
    assert!(
        (threshold - 1.0 / 3.0).abs() < 0.01,
        "offline threshold {threshold} != 1/3"
    );
    assert!(
        (switch_off - threshold).abs() <= 0.05,
        "scale switch-off {switch_off} vs threshold {threshold}"
    );
    assert!(
        out.contains("# completed: 1000000 of 1000000"),
        "scale ramp must complete every request"
    );
}
