//! The `svc-rt` smoke experiment: the wall-clock service runtime
//! (`storesim::rt`) driven end-to-end over a scripted workload.
//!
//! Like `heavytail` and the ablations, `svc-rt` is intentionally **not**
//! in [`crate::ALL_IDS`]: its report contains measured wall-clock
//! latencies, which are real and therefore not byte-identical across
//! machines or runs. The *decision trace* is deterministic, and this
//! experiment asserts it in-run: the same script is served at 1, 4, and
//! 8 worker threads and every trace fingerprint must match before the
//! report is emitted. Each run must also answer every request and account
//! every dispatched copy exactly once.

use crate::util::{num, Report};
use crate::Effort;
use storesim::rt::{run, RtConfig};

/// Wall-clock experiment ids: runnable by name, listed by `repro list`,
/// but outside `repro all` and the byte-diffs.
pub const WALL_CLOCK_IDS: &[&str] = &["svc-rt"];

/// Runs the scripted wall-clock service at several worker counts,
/// asserts the decision traces are identical and every copy accounted, and
/// reports the deterministic trace statistics followed by the
/// (non-deterministic) wall-clock numbers.
///
/// # Panics
/// Panics if any worker count produces a different decision trace — that
/// would mean wall-clock state leaked into the planner inputs — or leaves
/// a request unanswered or a dispatched copy unaccounted.
pub fn svc_rt(effort: Effort) -> String {
    let requests = effort.scale(100_000, 20_000);
    let worker_counts = [1usize, 4, 8];
    let runs: Vec<_> = worker_counts
        .iter()
        .map(|&w| run(&RtConfig::smoke(requests, w)))
        .collect();
    let base = &runs[0];
    for out in &runs {
        assert_eq!(
            out.trace_fingerprint, base.trace_fingerprint,
            "decision trace diverged across worker counts — wall-clock \
             state leaked into the planner inputs"
        );
        assert_eq!(out.responses, out.requests, "{out:?}");
        assert_eq!(
            out.issued_copies,
            out.responses + out.late + out.purged + out.aborted,
            "a dispatched copy is unaccounted: {out:?}"
        );
    }

    let mut r = Report::new(
        "svc-rt: wall-clock service runtime, scripted smoke run",
        "ROADMAP wall-clock runtime (decision-trace determinism + real-thread cancellation)",
    );
    r.note("deterministic section (identical at any worker count, asserted in-run):");
    r.note(&format!(
        "trace fingerprint: {:016x} (workers {:?} all agree)",
        base.trace_fingerprint, worker_counts
    ));
    r.note(&format!(
        "requests: {} ({} replicated), offline threshold: {}",
        base.requests,
        base.decisions_k2,
        num(base.offline_threshold)
    ));
    if base.switch_off_load.is_nan() {
        r.note("planner switch-off load: none (never switched off)");
    } else {
        r.note(&format!(
            "planner switch-off load: {}",
            num(base.switch_off_load)
        ));
    }
    r.header(&["offered_load", "k2_fraction"]);
    for &(load, frac) in &base.k2_fraction_by_bucket {
        r.row(&[num(load), num(frac)]);
    }
    r.blank();
    r.note("wall-clock section (real latencies — NOT byte-stable, excluded");
    r.note("from CI byte-diff trees; svc-rt is deliberately outside `repro all`):");
    r.header(&[
        "workers",
        "wall_s",
        "mean_latency_us",
        "p99_latency_us",
        "responses",
        "late",
        "purged",
        "aborted",
    ]);
    for out in &runs {
        r.row(&[
            out.workers.to_string(),
            format!("{:.3}", out.wall_secs),
            format!("{:.2}", out.mean_latency_s * 1e6),
            format!("{:.2}", out.p99_latency_s * 1e6),
            out.responses.to_string(),
            out.late.to_string(),
            out.purged.to_string(),
            out.aborted.to_string(),
        ]);
    }
    r.note(
        "every dispatched copy is accounted (asserted in-run): responses + late + purged + aborted",
    );
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svc_rt_quick_renders_and_asserts_determinism() {
        // Also asserts, at 1, 4 and 8 workers, that every request is
        // answered and every dispatched copy accounted.
        let out = svc_rt(Effort::Quick);
        assert!(out.contains("trace fingerprint"));
        assert!(out.contains("planner switch-off load"));
    }
}
