//! # repro-bench — regenerate every table and figure of the paper.
//!
//! Each public `fig*`/`tcp`/`thm1` function runs the corresponding
//! experiment end-to-end and returns the series as printable text (the same
//! rows the paper plots). The `repro` binary dispatches on experiment id;
//! `EXPERIMENTS.md` at the workspace root records paper-vs-measured values,
//! and [`bands`] holds the headline bands `repro check` gates them on.
//!
//! Two effort levels: `Effort::Quick` (seconds per figure — used in CI and
//! the workspace integration tests) and `Effort::Full` (figure quality,
//! minutes for the packet-level sweeps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod bands;
pub mod network;
pub mod queueing;
pub mod rt_report;
pub mod store;
pub mod util;
pub mod wan;

pub use ablations::ABLATION_IDS;
pub use rt_report::WALL_CLOCK_IDS;

/// How much compute to spend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// CI-sized: every figure in seconds, shapes preserved, tails shallow.
    Quick,
    /// Figure-sized: the settings EXPERIMENTS.md records.
    Full,
}

impl Effort {
    /// Scales a "full" count down in quick mode.
    pub fn scale(&self, full: usize, quick: usize) -> usize {
        match self {
            Effort::Full => full,
            Effort::Quick => quick,
        }
    }
}

/// All experiment ids, in paper order.
pub const ALL_IDS: &[&str] = &[
    "thm1",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig-service",
    "fig-service-est",
    "fig-service-tail",
    "fig-service-skew",
    "fig-service-skew-aware",
    "fig-service-ps-est",
    "fig-service-scale",
    "fig-service-frontier",
    "fig-service-elastic",
    "fig14a",
    "fig14b",
    "fig14c",
    "tcp",
    "fig15",
    "fig16",
    "fig17",
];

/// Every runnable experiment id, in `repro list` order: the figures,
/// the ablations, then the wall-clock experiments.
pub fn known_ids() -> impl Iterator<Item = &'static str> {
    ALL_IDS
        .iter()
        .chain(ABLATION_IDS)
        .chain(WALL_CLOCK_IDS)
        .copied()
}

/// Runs one experiment by id, returning its printable report.
///
/// # Panics
/// Panics on an unknown id (the binary validates first).
pub fn run_experiment(id: &str, effort: Effort) -> String {
    match id {
        "thm1" => queueing::thm1(effort),
        "fig1a" => queueing::fig1a(effort),
        "fig1b" => queueing::fig1b(effort),
        "fig1c" => queueing::fig1c(effort),
        "fig2a" => queueing::fig2a(effort),
        "fig2b" => queueing::fig2b(effort),
        "fig2c" => queueing::fig2c(effort),
        "fig3" => queueing::fig3(effort),
        "fig4" => queueing::fig4(effort),
        "fig5" => store::disk_figure(store::DiskFigure::Fig5, effort),
        "fig6" => store::disk_figure(store::DiskFigure::Fig6, effort),
        "fig7" => store::disk_figure(store::DiskFigure::Fig7, effort),
        "fig8" => store::disk_figure(store::DiskFigure::Fig8, effort),
        "fig9" => store::disk_figure(store::DiskFigure::Fig9, effort),
        "fig10" => store::disk_figure(store::DiskFigure::Fig10, effort),
        "fig11" => store::disk_figure(store::DiskFigure::Fig11, effort),
        "fig12" => store::fig12(effort),
        "fig13" => store::fig13(effort),
        "fig-service" => store::fig_service(effort),
        "fig-service-est" => store::fig_service_est(effort),
        "fig-service-tail" => store::fig_service_tail(effort),
        "fig-service-skew" => store::fig_service_skew(effort),
        "fig-service-skew-aware" => store::fig_service_skew_aware(effort),
        "fig-service-ps-est" => store::fig_service_ps_est(effort),
        "fig-service-scale" => store::fig_service_scale(effort),
        "fig-service-frontier" => store::fig_service_frontier(effort),
        "fig-service-elastic" => store::fig_service_elastic(effort),
        "fig14a" => network::fig14a(effort),
        "fig14b" => network::fig14b(effort),
        "fig14c" => network::fig14c(effort),
        "tcp" => wan::tcp_handshake(effort),
        "fig15" => wan::fig15(effort),
        "fig16" => wan::fig16(effort),
        "fig17" => wan::fig17(effort),
        id if ABLATION_IDS.contains(&id) => ablations::run_ablation(id, effort),
        id if WALL_CLOCK_IDS.contains(&id) => rt_report::svc_rt(effort),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_dispatch() {
        // Smoke: quick mode of the cheapest experiments end-to-end; the
        // expensive ones are covered by the workspace integration tests.
        for id in ["thm1", "tcp"] {
            let out = run_experiment(id, Effort::Quick);
            assert!(!out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("fig99", Effort::Quick);
    }
}
