//! Ablations: design choices the paper fixes, swept.
//!
//! * `abl-cancel` — what if losers could be cancelled (tied requests)?
//!   The paper's model never cancels; Dean & Barroso's systems do. The
//!   sweep shows cancellation extends the profitable load range well past
//!   the 1/3 threshold.
//! * `abl-copies` — why k = 2? Threshold load versus replication factor
//!   (Theorem 1 generalizes to `1/(k+1)`: more copies help *less* of the
//!   load range, even before client costs).
//! * `abl-depth` — why replicate only the *first 8* packets? Median
//!   small-flow improvement versus the replication depth J, including the
//!   replicate-everything extreme the paper argues against.
//! * `abl-spacing` — footnote 3: spacing the duplicated handshake packets
//!   to decorrelate losses.
//! * `abl-warming` — §3.2's closing remark: the caching side-benefit of
//!   racing multiple resolvers, quantified.
//! * `heavytail` — the analytic heavy-tail threshold table across tail
//!   indices (Theorem 3's regime).

use crate::util::{ms, num, pct, Report};
use crate::Effort;
use netsim::sim::{run as run_fabric, SimConfig};
use queuesim::analytic::mm1;
use queuesim::model::{run as run_queue, Config};
use simcore::dist::Exponential;
use simcore::runner::Runner;
use wansim::dns::{DnsExperiment, DnsPopulation};
use wansim::dns_caching::{run_warming, WarmingConfig};
use wansim::handshake::HandshakeModel;

/// Ablation experiment ids.
pub const ABLATION_IDS: &[&str] = &[
    "abl-cancel",
    "abl-copies",
    "abl-depth",
    "abl-spacing",
    "abl-warming",
    "heavytail",
];

/// Dispatches an ablation id.
pub fn run_ablation(id: &str, effort: Effort) -> String {
    match id {
        "abl-cancel" => cancellation(effort),
        "abl-copies" => copies(effort),
        "abl-depth" => depth(effort),
        "abl-spacing" => spacing(effort),
        "abl-warming" => warming(effort),
        "heavytail" => crate::queueing::heavy_tail_table(),
        other => panic!("unknown ablation id: {other}"),
    }
}

fn cancellation(effort: Effort) -> String {
    let mut r = Report::new(
        "abl-cancel: tied requests vs the paper's no-cancellation model",
        "Section 4 discussion of Dean & Barroso",
    );
    let requests = effort.scale(300_000, 60_000);
    r.header(&[
        "load",
        "mean_1copy",
        "mean_2copies",
        "mean_2copies_tied",
        "tied_utilization",
    ]);
    let loads = [0.1, 0.2, 0.3, 0.4, 0.45];
    // One task per (load, variant) triple, parallel on the global runner.
    let results = Runner::global().run(loads.len() * 3, |task| {
        let load = loads[task / 3];
        let base = Config::new(Exponential::unit(), load).with_requests(requests, requests / 10);
        let cfg = match task % 3 {
            0 => base.with_copies(1),
            1 => base.with_copies(2),
            _ => base.with_copies(2).with_cancellation(true),
        };
        run_queue(&cfg, 77)
    });
    for (i, &load) in loads.iter().enumerate() {
        let (single, plain, tied) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);
        r.row(&[
            num(load),
            num(single.moments.mean()),
            num(plain.moments.mean()),
            num(tied.moments.mean()),
            num(tied.achieved_utilization),
        ]);
    }
    r.note("tied requests shed queued siblings: the win region extends past 1/3");
    r.finish()
}

fn copies(effort: Effort) -> String {
    let mut r = Report::new(
        "abl-copies: threshold load vs replication factor k",
        "Theorem 1 generalized",
    );
    let requests = effort.scale(200_000, 40_000);
    r.header(&[
        "k",
        "threshold_theory_1_over_k_plus_1",
        "mean_at_10pct_load_sim",
    ]);
    let ks: Vec<u32> = (2..=6).collect();
    let outs = Runner::global().map(&ks, |_i, &k| {
        let cfg = Config::new(Exponential::unit(), 0.10)
            .with_copies(k as usize)
            .with_servers(30)
            .with_requests(requests, requests / 10);
        run_queue(&cfg, 5)
    });
    for (k, out) in ks.iter().zip(&outs) {
        r.row(&[
            k.to_string(),
            num(mm1::threshold(*k)),
            num(out.moments.mean()),
        ]);
    }
    r.note("more copies shrink the profitable load range (1/(k+1)) even as");
    r.note("they shrink low-load latency (min of k exponentials)");
    r.finish()
}

fn depth(effort: Effort) -> String {
    let mut r = Report::new(
        "abl-depth: median small-flow FCT improvement vs packets replicated",
        "Section 2.4's choice of 8 packets",
    );
    let flows = effort.scale(20_000, 4_000);
    r.header(&["replicate_first_J", "improvement_pct_at_load_0.4"]);
    let depths = [1u32, 2, 4, 8, 16, 64, 10_000];
    // Every depth is compared against the same unreplicated run on the
    // same flows, so that baseline runs once, as task 0, beside the
    // replicated runs.
    let mut runs = Runner::global().run(depths.len() + 1, |task| {
        run_fabric(&SimConfig {
            load: 0.4,
            flows,
            replicate_first: if task == 0 { 0 } else { depths[task - 1] },
            seed: 9,
            ..SimConfig::default()
        })
    });
    let (baseline, replicated) = runs.split_at_mut(1);
    let baseline_median = baseline[0].small_median();
    for (&depth, run) in depths.iter().zip(replicated) {
        let label = if depth == 10_000 {
            "everything".to_string()
        } else {
            depth.to_string()
        };
        // As `PairOutput::median_improvement_pct` computes it.
        let imp = 100.0 * (1.0 - run.small_median() / baseline_median);
        r.row(&[label, pct(imp)]);
    }
    r.note("diminishing returns past the first handful of packets: short flows");
    r.note("are covered, and extra replicas only queue against each other");
    r.finish()
}

fn spacing(effort: Effort) -> String {
    let _ = effort; // analytic, effort-independent
    let mut r = Report::new(
        "abl-spacing: spaced duplicated handshake packets (footnote 3)",
        "Section 3.1, footnote 3",
    );
    let m = HandshakeModel::default();
    let tau = 10.0e-3;
    r.header(&["spacing_ms", "pair_loss_prob", "expected_completion_ms"]);
    for delta_ms in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 200.0] {
        let d = delta_ms * 1e-3;
        r.row(&[
            num(delta_ms),
            format!("{:.2e}", m.pair_loss_with_spacing(d, tau)),
            ms(m.expected_completion_spaced(d, tau)),
        ]);
    }
    r.note(&format!(
        "back-to-back duplication: {} ms; single copy: {} ms",
        ms(m.expected_completion(true)),
        ms(m.expected_completion(false))
    ));
    r.note("a few ms of spacing buys most of the decorrelation at negligible cost");
    r.finish()
}

fn warming(effort: Effort) -> String {
    let mut r = Report::new(
        "abl-warming: the caching side-benefit of replicated DNS queries",
        "Section 3.2 closing remark",
    );
    let exp = DnsExperiment::rank(
        DnsPopulation::paper_like(15),
        effort.scale(20_000, 3_000),
        3,
    );
    let queries = effort.scale(400_000, 80_000);
    r.header(&[
        "copies",
        "mean_ms",
        "overall_hit_rate",
        "secondary_slot_hit_rate",
    ]);
    for k in [1usize, 2, 3] {
        let out = run_warming(
            &exp,
            &WarmingConfig {
                copies: k,
                queries,
                ..Default::default()
            },
        );
        let secondary = if k >= 2 {
            num(out.per_slot_hit_rate[1])
        } else {
            "-".into()
        };
        r.row(&[
            k.to_string(),
            ms(out.response.mean()),
            num(out.hit_rate),
            secondary,
        ]);
    }
    r.note("replication keeps every raced cache warm (free failover), but hits");
    r.note("become correlated across servers, so the race dodges fewer misses");
    r.note("than independent-cache models predict");
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_table_is_monotone_then_rises() {
        let out = spacing(Effort::Quick);
        assert!(out.contains("back-to-back"));
    }

    #[test]
    fn ablation_dispatch() {
        for id in ABLATION_IDS {
            // Only the cheap analytic one end-to-end here; others covered
            // by their crates' tests.
            if *id == "abl-spacing" {
                let out = run_ablation(id, Effort::Quick);
                assert!(!out.is_empty());
            }
        }
    }
}
