//! The headline bands: what a quick-mode report must show for the run to
//! still reproduce the paper.
//!
//! [`BANDS`] is a checked-in table, one [`Band`] per claim: the experiment
//! id, the claim as printed, the reason (the EXPERIMENTS.md section or the
//! paper claim it pins) and a check over the report text. `repro check DIR`
//! evaluates it against `DIR/<id>.txt`; `tests/paper_claims.rs` and this
//! crate's unit tests evaluate it on the reports they produce. Bands, not
//! digits: quick-mode estimates carry Monte-Carlo spread, and libm
//! differences across platforms can perturb the last bits. A failing band
//! means a model's behavior changed; if that is intended, re-pin the band
//! here and update EXPERIMENTS.md in the same change.
//!
//! A check reads the report through [`ReportText`]: `# key: value` notes
//! matched on the exact key, numbers later in a note, and tab-separated data
//! rows. A missing note or row, or a token that is not a number, is an
//! `Err`, so a renamed note fails its band instead of passing it.

use crate::ALL_IDS;
use std::cell::RefCell;
use std::fmt;
use std::path::Path;

/// The §2.1 threshold load for exponential service (Theorem 1).
const THIRD: f64 = 1.0 / 3.0;

/// One headline band.
pub struct Band {
    /// Experiment id; the band reads that experiment's report.
    pub id: &'static str,
    /// What must hold, printed on the band's line.
    pub claim: &'static str,
    /// Why the band exists: the EXPERIMENTS.md section or the paper claim.
    pub reason: &'static str,
    /// `Ok(true)` when the claim holds; `Err` when the report lacks a note,
    /// a row or a number the check reads.
    pub check: fn(&ReportText) -> Result<bool, String>,
}

/// The band table, in paper order. When two earlier copies of a band
/// disagreed, both bounds are kept (their intersection).
pub const BANDS: &[Band] = &[
    Band {
        id: "thm1",
        claim: "3 thresholds, each within 0.04 of 1/3 and inside (0.293, 0.373)",
        reason: "Theorem 1 (EXPERIMENTS.md §2.1): for exponential service the closed form, \
                 the two-moment model and the simulation all give 1/3",
        check: |r| {
            let each = r.every(|row| {
                let t = cell(row, 1)?;
                Ok(t > 0.293 && t < 0.373 && (t - THIRD).abs() < 0.04)
            })?;
            Ok(each && r.rows().len() == 3)
        },
    },
    Band {
        id: "fig2a",
        claim: "Weibull gamma = 10 threshold >= 0.45",
        reason: "Fig 2(a) (EXPERIMENTS.md §2.1): the Weibull family climbs toward the 50 % ceiling",
        check: |r| Ok(cell(r.row(&["10.00000"])?, 1)? >= 0.45),
    },
    Band {
        id: "fig2b",
        claim: "Pareto beta = 0.9 threshold in [0.33, 0.42]",
        reason: "Fig 2(b) (EXPERIMENTS.md §2.1 axis note): heavier Pareto tails lift the \
                 threshold above 1/3; tightened around the recorded quick value 0.36238",
        check: |r| Ok((0.33..=0.42).contains(&cell(r.row(&["0.90000"])?, 1)?)),
    },
    Band {
        id: "fig2c",
        claim: "two-point p = 0 threshold in [0.22, 0.31]",
        reason: "Fig 2(c) (EXPERIMENTS.md §2.1): the deterministic worst case sits near 0.258",
        check: |r| Ok((0.22..=0.31).contains(&cell(r.row(&["0.00000"])?, 1)?)),
    },
    Band {
        id: "fig3",
        claim: "every random-distribution threshold in [0.20, 0.50)",
        reason: "Fig 3 (EXPERIMENTS.md §2.1): the threshold stays inside the conjectured \
                 25-50 % band for any service law",
        check: |r| r.every(|row| Ok(row.len() == 4 && cell(row, 2)? >= 0.20 && cell(row, 3)? < 0.50)),
    },
    Band {
        id: "fig4",
        claim: "exponential threshold > 0.28 at zero overhead, < 0.05 at overhead = mean service",
        reason: "Fig 4 (EXPERIMENTS.md §2.1): client-side overhead equal to the mean service \
                 time removes the gain",
        check: |r| {
            let free = cell(r.row(&["0.00000", "exponential"])?, 2)?;
            let full = cell(r.row(&["1.00000", "exponential"])?, 2)?;
            Ok(free > 0.28 && full < 0.05)
        },
    },
    Band {
        id: "fig5",
        claim: "2 copies beat 1 on the mean at load 0.1 and lose at load 0.4",
        reason: "Fig 5 (EXPERIMENTS.md §2.2-2.3): the disk-backed store's threshold is about 30 % load",
        check: |r| {
            let (low, high) = (r.row(&["0.10000"])?, r.row(&["0.40000"])?);
            Ok(cell(low, 2)? < cell(low, 1)? && cell(high, 2)? > cell(high, 1)?)
        },
    },
    Band {
        id: "fig5",
        claim: "2 copies cut the p99.9 at load 0.2",
        reason: "Fig 5 (EXPERIMENTS.md §2.2-2.3): the tail improvement at 20 % load is large",
        check: |r| {
            let row = r.row(&["0.20000"])?;
            Ok(cell(row, 4)? < cell(row, 3)?)
        },
    },
    Band {
        id: "fig11",
        claim: "2-copy mean > 0.9 x 1-copy mean at load 0.2",
        reason: "Fig 11 (§2.2): with every file in RAM, service is near-deterministic and \
                 replication shows no mean win",
        check: |r| {
            let row = r.row(&["0.20000"])?;
            Ok(cell(row, 2)? > cell(row, 1)? * 0.9)
        },
    },
    Band {
        id: "fig12",
        claim: "2-copy mean > 0.97 x 1-copy mean at every load",
        reason: "Fig 12 (EXPERIMENTS.md §2.2-2.3): memcached replication never wins",
        check: |r| r.every(|row| Ok(cell(row, 2)? > cell(row, 1)? * 0.97)),
    },
    Band {
        id: "fig-service",
        claim: "offline threshold within 0.01 of 1/3",
        reason: "EXPERIMENTS.md fig-service: the exponential workload's §2.1 threshold is 1/3",
        check: threshold_is_a_third,
    },
    Band {
        id: "fig-service",
        claim: "live switch-off within 0.05 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service: the per-request planner switches replication off, \
                 live, at the §2.1 threshold",
        check: |r| lands(r, "planner switch-off load", 0.05),
    },
    Band {
        id: "fig-service-est",
        claim: "offline threshold within 0.01 of 1/3",
        reason: "EXPERIMENTS.md fig-service-est: the exponential workload's §2.1 threshold is 1/3",
        check: threshold_is_a_third,
    },
    Band {
        id: "fig-service-est",
        claim: "estimated switch-off within 0.08 of the offline threshold and of the clairvoyant run",
        reason: "EXPERIMENTS.md fig-service-est: with rate, mean and SCV all measured online \
                 the switch-off matches the clairvoyant planner",
        check: |r| {
            let est = r.note("estimated switch-off load")?;
            let clairvoyant = r.note("clairvoyant switch-off load")?;
            Ok(lands(r, "estimated switch-off load", 0.08)? && (est - clairvoyant).abs() <= 0.08)
        },
    },
    Band {
        id: "fig-service-est",
        claim: "estimated mean within 10 % of 1 ms, SCV within 0.25 of 1",
        reason: "EXPERIMENTS.md fig-service-est: the calibration converges on the config truth",
        check: calibrated,
    },
    Band {
        id: "fig-service-tail",
        claim: "heavy-tail switch-off below the exponential one",
        reason: "EXPERIMENTS.md fig-service-tail: the two-moment planner's threshold peaks at scv = 1",
        check: |r| Ok(r.note("heavy-tail switch-off load")? < r.note("exponential switch-off load")?),
    },
    Band {
        id: "fig-service-tail",
        claim: "3 workload rows, each switch-off within 0.08 of its own offline threshold",
        reason: "EXPERIMENTS.md fig-service-tail: every service shape lands on its own threshold",
        check: |r| {
            let each = r.every(|row| Ok(row.len() == 7 && cell(row, 6)?.abs() <= 0.08))?;
            Ok(each && r.rows().len() == 3)
        },
    },
    Band {
        id: "fig-service-tail",
        claim: "estimated SCV < 0.7 where the true SCV < 0.5, > 2 where it is > 2",
        reason: "EXPERIMENTS.md fig-service-tail: self-calibration puts every shape on the right \
                 side of scv = 1",
        check: |r| {
            r.every(|row| {
                let (truth, est) = (cell(row, 1)?, cell(row, 2)?);
                Ok((truth >= 0.5 || est < 0.7) && (truth <= 2.0 || est > 2.0))
            })
        },
    },
    Band {
        id: "fig-service-skew",
        claim: "skewed switch-off within 0.08 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service-skew: the global-rate planner still flips in band \
                 under a Zipf key mix",
        check: |r| lands(r, "skewed switch-off load", 0.08),
    },
    Band {
        id: "fig-service-skew",
        claim: "hedged/single ramp-end p99 ratio < 0.97, hedge fired fraction in (0.001, 0.3)",
        reason: "EXPERIMENTS.md fig-service-skew: hedging cuts the skewed ramp-end p99 for a \
                 small fired fraction",
        check: |r| {
            let ratio = r.note_after("hedged p99 at ramp end", "ratio")?;
            let fired = r.note("hedge fired fraction")?;
            Ok(ratio < 0.97 && fired > 0.001 && fired < 0.3)
        },
    },
    Band {
        id: "fig-service-skew-aware",
        claim: "per-server hot-server peak utilization below the global planner's - 0.05",
        reason: "EXPERIMENTS.md fig-service-skew-aware: per-server planning keeps the Zipf hot \
                 server out of saturation",
        check: |r| {
            Ok(r.note("per-server hot-server peak utilization")?
                < r.note("global hot-server peak utilization")? - 0.05)
        },
    },
    Band {
        id: "fig-service-skew-aware",
        claim: "p99 hump ratio < 0.9",
        reason: "EXPERIMENTS.md fig-service-skew-aware: the mid-ramp contention hump flattens",
        check: |r| Ok(r.note("p99 hump ratio")? < 0.9),
    },
    Band {
        id: "fig-service-skew-aware",
        claim: "hot-pair switch-off below the offline threshold - 0.05",
        reason: "EXPERIMENTS.md fig-service-skew-aware: hot pairs switch off near threshold / 1.85",
        check: |r| {
            Ok(r.note("per-server hot-pair switch-off load")? < r.note("offline threshold")? - 0.05)
        },
    },
    Band {
        id: "fig-service-skew-aware",
        claim: "cold-pair switch-off above the hot-pair one + 0.10, or NaN",
        reason: "EXPERIMENTS.md fig-service-skew-aware: cold keys replicate markedly longer; \
                 NaN (never crosses inside the ramp) is the maximal stagger",
        check: |r| {
            let hot = r.note("per-server hot-pair switch-off load")?;
            let cold = r.note("per-server cold-pair switch-off load")?;
            Ok(cold.is_nan() || cold > hot + 0.10)
        },
    },
    Band {
        id: "fig-service-ps-est",
        claim: "offline threshold within 0.01 of 1/3",
        reason: "EXPERIMENTS.md fig-service-ps-est: the exponential workload's §2.1 threshold is 1/3",
        check: threshold_is_a_third,
    },
    Band {
        id: "fig-service-ps-est",
        claim: "switch-off within 0.08 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service-ps-est: Estimated + PS + cancellation lands in the \
                 same band as the FIFO experiments",
        check: |r| lands(r, "planner switch-off load", 0.08),
    },
    Band {
        id: "fig-service-ps-est",
        claim: "dispatch-reported mean in [0.0009, 0.0011] s and within 10 % of 1 ms, SCV within 0.25 of 1",
        reason: "EXPERIMENTS.md fig-service-ps-est: dispatch-time reporting is unbiased, where \
                 completion reporting would censor the mean toward 0.0005 s",
        check: |r| {
            let mean = r.note("estimated final mean service")?;
            Ok((0.0009..=0.0011).contains(&mean) && calibrated(r)?)
        },
    },
    Band {
        id: "fig-service-ps-est",
        claim: "cancel fraction > 0.05",
        reason: "EXPERIMENTS.md fig-service-ps-est: PS cancellation actually fires",
        check: |r| Ok(r.note("cancel fraction")? > 0.05),
    },
    Band {
        id: "fig-service-scale",
        claim: "offline threshold within 0.01 of 1/3",
        reason: "EXPERIMENTS.md fig-service-scale: the exponential workload's §2.1 threshold is 1/3",
        check: threshold_is_a_third,
    },
    Band {
        id: "fig-service-scale",
        claim: "switch-off within 0.05 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service-scale: the sharded engine reproduces the §2.1 \
                 switch-off at 256 servers",
        check: |r| lands(r, "planner switch-off load", 0.05),
    },
    Band {
        id: "fig-service-scale",
        claim: "1000000 of 1000000 requests completed (>= 1M)",
        reason: "EXPERIMENTS.md fig-service-scale: the million-request run completes, so the \
                 engine neither deadlocks nor drops an event",
        check: |r| {
            let done = r.note("completed")?;
            let total = r.note_after("completed", "of")?;
            Ok(done >= 1e6 && done == total && total == 1e6)
        },
    },
    Band {
        id: "fig-service-frontier",
        claim: "4 rows, every switch-off within 0.05 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service-frontier: the decomposed frontend lands the §2.1 \
                 switch-off at every lane count",
        check: |r| {
            let each = r.every(|row| Ok(cell(row, 2)?.abs() <= 0.05))?;
            Ok(each && r.rows().len() == 4)
        },
    },
    Band {
        id: "fig-service-frontier",
        claim: "lanes 1, 2, 4, 8; no summaries at L = 1, some at every other L",
        reason: "EXPERIMENTS.md fig-service-frontier: the summaries column shows the exchange \
                 the decomposition costs",
        check: |r| {
            let lanes: Vec<&str> = r.rows().iter().map(|row| row[0]).collect();
            let summaries = r.every(|row| {
                let sent = cell(row, 3)?;
                Ok(if row[0] == "1" { sent == 0.0 } else { sent > 0.0 })
            })?;
            Ok(lanes == ["1", "2", "4", "8"] && summaries)
        },
    },
    Band {
        id: "fig-service-elastic",
        claim: "switch-off per live server within 0.06 of the offline threshold",
        reason: "EXPERIMENTS.md fig-service-elastic: the planner tracks live capacity, not the \
                 configured 64 servers",
        check: |r| lands(r, "planner switch-off load (per live server)", 0.06),
    },
    Band {
        id: "fig-service-elastic",
        claim: "scaled to the ceiling and back to the floor",
        reason: "EXPERIMENTS.md fig-service-elastic: the autoscaler follows the diurnal load both ways",
        check: |r| {
            let key = "peak live servers";
            let (peak, ceiling) = (r.note(key)?, r.note_after(key, "ceiling")?);
            let (last, floor) = (r.note_after(key, "final live servers:")?, r.note_after(key, "floor")?);
            Ok(peak == ceiling && last == floor)
        },
    },
    Band {
        id: "fig-service-elastic",
        claim: ">= 4 scale events",
        reason: "EXPERIMENTS.md fig-service-elastic: the fleet scales out and in more than once",
        check: |r| Ok(r.note("scale events")? >= 4.0),
    },
    Band {
        id: "fig-service-elastic",
        claim: "every request completed across migrations",
        reason: "EXPERIMENTS.md fig-service-elastic: ring migration loses no request",
        check: |r| Ok(r.note("completed")? == r.note_after("completed", "of")?),
    },
    Band {
        id: "tcp",
        claim: "handshake duplication saves >= 160 ms per KB",
        reason: "§3.1 (EXPERIMENTS.md §3): the paper measures >= 170 ms/KB, an order of magnitude \
                 above the 16 ms/KB break-even",
        check: |r| Ok(r.note("savings per KB")? >= 160.0),
    },
    Band {
        id: "fig15",
        claim: "10 servers cut the fraction later than 500 ms >= 3x",
        reason: "Fig 15 (EXPERIMENTS.md §3): querying 10 DNS servers shrinks the tail severalfold \
                 (paper: 6.5x)",
        check: |r| Ok(r.note_after("fraction later than 500 ms", "(")? >= 3.0),
    },
    Band {
        id: "fig16",
        claim: "10-server mean reduction in [35, 80] %, p99 reduction > 30 %",
        reason: "Fig 16 (EXPERIMENTS.md §3): 10 DNS servers cut every latency metric by half or more \
                 (paper: 50-62 %)",
        check: |r| {
            let row = r.row(&["10"])?;
            Ok((35.0..=80.0).contains(&cell(row, 1)?) && cell(row, 4)? > 30.0)
        },
    },
    Band {
        id: "fig16",
        claim: "10 rows, one per server count",
        reason: "Fig 16: the reduction is reported for 1 to 10 servers",
        check: |r| Ok(r.rows().len() == 10),
    },
];

fn threshold_is_a_third(r: &ReportText) -> Result<bool, String> {
    Ok((r.note("offline threshold")? - THIRD).abs() < 0.01)
}

/// `true` when note `key` lies within `tol` of the offline threshold.
fn lands(r: &ReportText, key: &str, tol: f64) -> Result<bool, String> {
    Ok((r.note(key)? - r.note("offline threshold")?).abs() <= tol)
}

/// `true` when the estimated moments converged on the 1 ms exponential
/// workload's.
fn calibrated(r: &ReportText) -> Result<bool, String> {
    let mean = r.note("estimated final mean service")?;
    let scv = r.note("estimated final scv")?;
    Ok((mean - 1.0e-3).abs() / 1.0e-3 < 0.1 && (scv - 1.0).abs() < 0.25)
}

/// A report, parsed into its `# key: value` notes and its tab-separated
/// data rows. Every note and row a check reads is recorded, and printed on
/// the band's line.
pub struct ReportText<'a> {
    notes: Vec<(&'a str, &'a str)>,
    rows: Vec<Vec<&'a str>>,
    seen: RefCell<Vec<String>>,
}

impl<'a> ReportText<'a> {
    /// Splits `text` into notes and data rows. Other lines (blank lines,
    /// the CCDF series) are skipped.
    fn parse(text: &'a str) -> Self {
        let mut notes = Vec::new();
        let mut rows = Vec::new();
        for line in text.lines() {
            if let Some(note) = line.strip_prefix("# ") {
                notes.extend(note.split_once(": "));
            } else if line.contains('\t') {
                rows.push(line.split('\t').collect());
            }
        }
        ReportText {
            notes,
            rows,
            seen: RefCell::new(Vec::new()),
        }
    }

    fn saw(&self, what: String) {
        let mut seen = self.seen.borrow_mut();
        if !seen.contains(&what) {
            seen.push(what);
        }
    }

    /// The first number in note `# key: ...`.
    fn note(&self, key: &str) -> Result<f64, String> {
        self.note_after(key, "")
    }

    /// The first number after `label` in note `# key: ...`. A number is
    /// a decimal (`0.34896`, `+0.017`, `1000000`, the `19.04237` of
    /// `(19.04237x)`) or exactly `NaN`.
    fn note_after(&self, key: &str, label: &str) -> Result<f64, String> {
        let (_, value) = self
            .notes
            .iter()
            .find(|(k, _)| *k == key)
            .ok_or_else(|| format!("no note `{key}`"))?;
        let at = value
            .find(label)
            .ok_or_else(|| format!("no `{label}` in note `{key}`"))?;
        let rest = value[at + label.len()..].trim_start();
        let len = if rest.starts_with("NaN") {
            3
        } else {
            rest.find(|c: char| !(c.is_ascii_digit() || "+-.e".contains(c)))
                .unwrap_or(rest.len())
        };
        let x = rest[..len]
            .parse()
            .map_err(|_| format!("note `{key}`: `{rest}` is not a number"))?;
        // The `(band: ...)` reminders some notes carry restate the claim.
        let shown = value.split(" (band:").next().unwrap_or(value);
        self.saw(format!("{key}: {shown}"));
        Ok(x)
    }

    /// Every data row, split into cells.
    fn rows(&self) -> &[Vec<&'a str>] {
        self.saw(format!("{} rows", self.rows.len()));
        &self.rows
    }

    /// The first data row whose leading cells are `lead`.
    fn row(&self, lead: &[&str]) -> Result<&[&'a str], String> {
        let row = self
            .rows
            .iter()
            .find(|cells| cells.starts_with(lead))
            .ok_or_else(|| format!("no row `{}`", lead.join(" ")))?;
        self.saw(format!("row {}", row.join(" ")));
        Ok(row)
    }

    /// `true` when there is a data row and `pred` holds on every one; the
    /// first row it fails on is printed.
    fn every(&self, pred: impl Fn(&[&str]) -> Result<bool, String>) -> Result<bool, String> {
        let rows = self.rows();
        for row in rows {
            if !pred(row)? {
                self.saw(format!("fails on row {}", row.join(" ")));
                return Ok(false);
            }
        }
        Ok(!rows.is_empty())
    }
}

/// Cell `i` of a data row, as a number.
fn cell(row: &[&str], i: usize) -> Result<f64, String> {
    let text = row
        .get(i)
        .ok_or_else(|| format!("row `{}` has no column {i}", row.join(" ")))?;
    text.parse()
        .map_err(|_| format!("row `{}`: `{text}` is not a number", row.join(" ")))
}

/// One line of a check: a band's outcome, or a missing report.
pub struct Verdict {
    /// Experiment id.
    pub id: &'static str,
    /// Whether the band held.
    pub ok: bool,
    /// The claim and what was measured, or why the check failed.
    pub text: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.ok { "ok  " } else { "FAIL" };
        write!(f, "{tag} {}: {}", self.id, self.text)
    }
}

/// Evaluates every band of `id` against the report `text`.
pub fn check_report(id: &str, text: &str) -> Vec<Verdict> {
    let r = ReportText::parse(text);
    BANDS
        .iter()
        .filter(|b| b.id == id)
        .map(|b| {
            let outcome = (b.check)(&r);
            let seen = r.seen.take().join(", ");
            let (ok, detail) = match outcome {
                Ok(ok) => (ok, seen),
                Err(why) => (false, why),
            };
            Verdict {
                id: b.id,
                ok,
                text: format!("{} ({detail})", b.claim),
            }
        })
        .collect()
}

/// Evaluates the table against `dir/<id>.txt` for every figure in
/// [`ALL_IDS`]. A figure without a report fails as missing, so an
/// experiment that drops out of `repro all` cannot pass unchecked.
pub fn check_dir(dir: &Path) -> Vec<Verdict> {
    let mut out = Vec::new();
    for &id in ALL_IDS {
        let path = dir.join(format!("{id}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => out.extend(check_report(id, &text)),
            Err(e) => out.push(Verdict {
                id,
                ok: false,
                text: if e.kind() == std::io::ErrorKind::NotFound {
                    format!("missing {}", path.display())
                } else {
                    format!("cannot read {}: {e}", path.display())
                },
            }),
        }
    }
    out
}

/// Panics unless `id` has bands and every one holds on `text`, listing
/// the band lines and the report. For tests that produce a report anyway.
pub fn assert_holds(id: &str, text: &str) {
    let verdicts = check_report(id, text);
    let lines: Vec<String> = verdicts.iter().map(Verdict::to_string).collect();
    assert!(
        !verdicts.is_empty() && verdicts.iter().all(|v| v.ok),
        "bands of {id}:\n{}\n{text}",
        lines.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(id: &str, text: &str) -> Vec<String> {
        check_report(id, text)
            .iter()
            .map(Verdict::to_string)
            .collect()
    }

    /// `true` when every band of `id` holds on `good`, and the band lines
    /// for `good` with `from` replaced by `to` include a FAIL naming `id`.
    fn tamper_fails(id: &str, good: &str, from: &str, to: &str) -> bool {
        let bad = good.replace(from, to);
        assert_ne!(bad, good, "tamper `{from}` did not take");
        assert_holds(id, good);
        let prefix = format!("FAIL {id}: ");
        lines(id, &bad).iter().any(|l| l.starts_with(&prefix))
    }

    #[test]
    fn band_table_is_well_formed() {
        let mut ids: Vec<&str> = BANDS.iter().map(|b| b.id).collect();
        ids.dedup();
        assert_eq!(
            ids.len(),
            21,
            "bands of one id must be adjacent; 21 ids expected"
        );
        let mut pairs: Vec<(&str, &str)> = BANDS.iter().map(|b| (b.id, b.claim)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), BANDS.len(), "duplicate (id, claim) pair");
        for b in BANDS {
            assert!(ALL_IDS.contains(&b.id), "{} is not in ALL_IDS", b.id);
            assert!(
                !b.reason.trim().is_empty(),
                "{}: {} has no reason",
                b.id,
                b.claim
            );
        }
    }

    #[test]
    fn note_against_note_fails_out_of_band() {
        let good = "# planner switch-off load: 0.34896\n# offline threshold: 0.33332\n";
        assert!(tamper_fails("fig-service", good, "0.34896", "0.45000"));
    }

    #[test]
    fn note_in_range_fails_out_of_band() {
        let good = "# savings per KB: 178.3 ms/KB vs 16 ms/KB break-even (paper: >= 170)\n";
        assert!(tamper_fails("tcp", good, "178.3", "150.0"));
    }

    #[test]
    fn row_predicate_fails_out_of_band() {
        let good = "# inverse_scale_beta\tthreshold_load\n0.70000\t0.33965\n0.90000\t0.36238\n";
        assert!(tamper_fails("fig2b", good, "0.36238", "0.45000"));
    }

    #[test]
    fn number_mid_note_fails_out_of_band() {
        let good =
            "# fraction later than 500 ms: 1 server 0.02247, 10 servers 0.00118 (19.04237x)\n";
        assert!(tamper_fails("fig15", good, "(19.04237x)", "(2.00000x)"));
    }

    #[test]
    fn missing_or_renamed_note_fails() {
        let good = "# planner switch-off load: 0.34896\n# offline threshold: 0.33332\n";
        assert!(tamper_fails(
            "fig-service",
            good,
            "# offline threshold:",
            "# offline thresh:"
        ));
        assert!(tamper_fails(
            "fig-service",
            good,
            "# offline threshold: 0.33332\n",
            ""
        ));
        // An empty report passes no band at all.
        for b in BANDS {
            let line = lines(b.id, "").join("\n");
            assert!(!line.contains("ok   "), "{line}");
        }
    }

    #[test]
    fn cold_pair_nan_passes_and_a_word_fails() {
        let good = "# per-server hot-pair switch-off load: 0.18824\n\
                    # per-server cold-pair switch-off load: NaN (band: exceeds the hot-pair \
                    switch-off by > 0.10)\n";
        let cold = |text: &str| {
            let r = ReportText::parse(text);
            let band = BANDS
                .iter()
                .find(|b| b.claim.starts_with("cold-pair"))
                .expect("the cold-pair band");
            (band.check)(&r)
        };
        assert_eq!(cold(good), Ok(true));
        assert_eq!(cold(&good.replace("NaN", "0.37415")), Ok(true));
        assert_eq!(cold(&good.replace("NaN", "0.20000")), Ok(false));
        assert!(cold(&good.replace("NaN", "never")).is_err());
    }
}
