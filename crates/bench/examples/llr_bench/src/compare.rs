//! `--compare BASE.json NEW.json`: one verdict per (workload, end-to-end
//! metric) under the bounds in BENCHMARK.json.

use crate::json::{self, Json};
use crate::stats::Summary;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread between quartiles is wider than the bound, so a change
    /// within it cannot be told from noise.
    Unresolved,
}

/// Set-up time counts as worse only past this many seconds as well as
/// past its relative bound: a few milliseconds of process start-up are
/// noise, not a regression.
const SETUP_FLOOR_S: f64 = 0.05;

/// Judges `new` against `base`. `bound` is the share of the base median
/// by which the metric may get worse; a change must also exceed
/// `abs_floor` in the metric's unit to count.
pub fn verdict(
    base: &Summary,
    new: &Summary,
    lower_is_better: bool,
    bound: f64,
    abs_floor: f64,
) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (new.median - base.median) / base.median.abs();
    if base.spread().max(new.spread()) > bound {
        let all_better = new
            .values
            .iter()
            .all(|n| base.values.iter().all(|b| sign * (n - b) < 0.0));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let material = (new.median - base.median).abs() > abs_floor;
    if worse_by > bound && material {
        Verdict::Worse
    } else if worse_by < -bound && material {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn summary(v: &Json) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        p25: v.get("p25")?.as_f64()?,
        p75: v.get("p75")?.as_f64()?,
        values: v
            .get("values")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?,
    })
}

/// Prints the comparison; `Ok(false)` when any pairing is worse.
pub fn run(base: &Path, new: &Path) -> Result<bool, String> {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../BENCHMARK.json");
    let spec = load(&spec_path)?;
    let (base, new) = (load(base)?, load(new)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |doc: &Json| doc.get("workloads").and_then(Json::as_obj).cloned();
    let (base_w, new_w) = (
        workloads(&base).ok_or("BASE has no workloads")?,
        workloads(&new).ok_or("NEW has no workloads")?,
    );
    let mut any_worse = false;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "change"
    );
    for (name, b) in &base_w {
        let Some(n) = new_w.get(name) else {
            println!("{name:<12} missing from NEW");
            continue;
        };
        for m in metrics {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let floor = if metric == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let pick = |doc: &Json| doc.get("end_to_end")?.get(metric).and_then(summary);
            let (Some(bs), Some(ns)) = (pick(b), pick(n)) else {
                println!("{name:<12} {metric:<14} missing");
                continue;
            };
            let v = verdict(&bs, &ns, lower, bound, floor);
            any_worse |= v == Verdict::Worse;
            println!(
                "{name:<12} {metric:<14} {:>14.6} {:>14.6} {:>+8.2}%  {v:?} (bound {:.0}%)",
                bs.median,
                ns.median,
                (ns.median / bs.median - 1.0) * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_rule() {
        let base = Summary::of(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let slower = Summary::of(&[1.12, 1.13, 1.11, 1.12, 1.14]);
        let faster = Summary::of(&[0.88, 0.89, 0.87, 0.88, 0.90]);
        let close = Summary::of(&[1.03, 1.04, 1.02, 1.03, 1.05]);
        assert_eq!(verdict(&base, &slower, true, 0.08, 0.0), Verdict::Worse);
        assert_eq!(verdict(&base, &faster, true, 0.08, 0.0), Verdict::Better);
        assert_eq!(verdict(&base, &close, true, 0.08, 0.0), Verdict::Same);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &slower, false, 0.08, 0.0), Verdict::Better);
    }

    #[test]
    fn setup_needs_the_absolute_floor_too() {
        // +20 % but only 10 ms: noise for set-up time.
        let base = Summary::of(&[0.050, 0.050, 0.051]);
        let new = Summary::of(&[0.060, 0.060, 0.061]);
        assert_eq!(
            verdict(&base, &new, true, 0.10, SETUP_FLOOR_S),
            Verdict::Same
        );
        assert_eq!(verdict(&base, &new, true, 0.10, 0.0), Verdict::Worse);
        let big_base = Summary::of(&[0.50, 0.50, 0.51]);
        let big_new = Summary::of(&[0.60, 0.60, 0.61]);
        assert_eq!(
            verdict(&big_base, &big_new, true, 0.10, SETUP_FLOOR_S),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = Summary::of(&[0.8, 1.0, 1.2, 0.9, 1.1]);
        let slower = Summary::of(&[1.1, 1.2, 1.0, 1.3, 1.15]);
        assert_eq!(
            verdict(&noisy, &slower, true, 0.08, 0.0),
            Verdict::Unresolved
        );
        let much_faster = Summary::of(&[0.5, 0.55, 0.6, 0.52, 0.58]);
        assert_eq!(
            verdict(&noisy, &much_faster, true, 0.08, 0.0),
            Verdict::Better
        );
    }
}
