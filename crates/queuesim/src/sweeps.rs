//! Parameter sweeps behind Figures 1–4 of the paper.
//!
//! Each function returns plain data series (no I/O); the `repro-bench`
//! harness formats them into the same rows the paper plots. Everything is
//! deterministic given the options' seed — including under parallelism:
//! every sweep fans its independent runs out on a [`Runner`] (the `*_on`
//! variants take an explicit one; the plain versions use
//! [`Runner::global`]), with each run's randomness derived from its index,
//! so results are bit-identical at any thread count. A Fig 2 family runs
//! its threshold searches one at a time and parallelizes the replications
//! inside each; a Fig 4 sweep runs its overhead points side by side over
//! one draw cache; Fig 3's many small searches run side by side.

use crate::model::{run, Config};
use crate::threshold::{threshold_load_on, ThresholdOptions};
use simcore::dist::{Distribution, Pareto, TwoPoint, Weibull};
use simcore::rng::Rng;
use simcore::runner::Runner;
use simcore::simplex::random_unit_mean_discrete;
use simcore::stats::Ccdf;

/// One point of a mean-response-vs-load curve (Fig 1(a)/1(b)).
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Base per-server load ρ.
    pub load: f64,
    /// Mean response time with 1 copy.
    pub mean_single: f64,
    /// Mean response time with 2 copies.
    pub mean_double: f64,
    /// 99.9th percentile with 1 copy.
    pub p999_single: f64,
    /// 99.9th percentile with 2 copies.
    pub p999_double: f64,
}

/// Sweeps mean response time over `loads` for 1 and 2 copies (Fig 1(a)/(b)).
pub fn mean_vs_load<D: Distribution + Clone>(
    dist: &D,
    loads: &[f64],
    requests: usize,
    seed: u64,
) -> Vec<LoadPoint> {
    mean_vs_load_on(&Runner::global(), dist, loads, requests, seed)
}

/// [`mean_vs_load`] on an explicit [`Runner`]; load points run in
/// parallel, bit-identical at any thread count.
pub fn mean_vs_load_on<D: Distribution + Clone>(
    runner: &Runner,
    dist: &D,
    loads: &[f64],
    requests: usize,
    seed: u64,
) -> Vec<LoadPoint> {
    runner.map(loads, |_i, &rho| {
        let base = Config::new(dist.clone(), rho).with_requests(requests, requests / 10);
        let mut single = run(&base.clone().with_copies(1), seed);
        let mut double = run(&base.with_copies(2), seed);
        LoadPoint {
            load: rho,
            mean_single: single.moments.mean(),
            mean_double: double.moments.mean(),
            p999_single: single.response.quantile(0.999),
            p999_double: double.response.quantile(0.999),
        }
    })
}

/// Response-time CCDFs at one load for 1 and 2 copies (Fig 1(c)). The
/// paired runs execute in parallel on the global runner.
pub fn ccdf_at_load<D: Distribution + Clone>(
    dist: &D,
    load: f64,
    requests: usize,
    points: usize,
    seed: u64,
) -> (Ccdf, Ccdf) {
    let base = Config::new(dist.clone(), load).with_requests(requests, requests / 10);
    let (mut single, mut double) = Runner::global().pair(
        || run(&base.clone().with_copies(1), seed),
        || run(&base.clone().with_copies(2), seed),
    );
    (single.response.ccdf(points), double.response.ccdf(points))
}

/// Fig 2(a): threshold load vs Weibull inverse shape γ.
pub fn weibull_family(gammas: &[f64], opts: &ThresholdOptions) -> Vec<(f64, f64)> {
    family(gammas, Weibull::unit_mean_inverse_shape, opts)
}

/// Fig 2(b): threshold load vs Pareto inverse scale β.
pub fn pareto_family(betas: &[f64], opts: &ThresholdOptions) -> Vec<(f64, f64)> {
    family(betas, Pareto::unit_mean_inverse_scale, opts)
}

/// Fig 2(c): threshold load vs the two-point parameter p.
pub fn two_point_family(ps: &[f64], opts: &ThresholdOptions) -> Vec<(f64, f64)> {
    family(ps, TwoPoint::new, opts)
}

/// One threshold search per family parameter, in order. The searches run
/// one at a time, each fanning its replications out on the global runner,
/// so one search's draw cache is resident at once and the peak does not
/// depend on which search finishes first.
fn family<D: Distribution + Clone>(
    params: &[f64],
    dist: impl Fn(f64) -> D,
    opts: &ThresholdOptions,
) -> Vec<(f64, f64)> {
    let runner = Runner::global();
    params
        .iter()
        .map(|&x| (x, threshold_load_on(&runner, &dist(x), opts)))
        .collect()
}

/// One row of Fig 3: the spread of threshold loads over randomly drawn
/// unit-mean discrete distributions with a given support size.
#[derive(Clone, Copy, Debug)]
pub struct RandomDistRow {
    /// Support size N.
    pub support: usize,
    /// Smallest threshold observed across the random draws.
    pub min_threshold: f64,
    /// Largest threshold observed.
    pub max_threshold: f64,
}

/// Fig 3: for each support size, draws `samples` random distributions from
/// a symmetric Dirichlet(α) on the simplex (α = 1 → the paper's "Uniform"
/// series; α = 0.1 → its "Dirichlet" series), normalizes them to unit mean,
/// and reports the min/max threshold load observed.
///
/// All `supports.len() × samples` threshold searches run in parallel; each
/// random distribution is drawn from a stream forked per (support, sample)
/// index, so the result is independent of scheduling.
pub fn random_distributions(
    supports: &[usize],
    samples: usize,
    alpha: f64,
    opts: &ThresholdOptions,
) -> Vec<RandomDistRow> {
    let mut rng = Rng::seed_from(opts.seed ^ 0xF163);
    // Draw every candidate distribution upfront (serial, deterministic),
    // then fan the expensive threshold searches out over the runner.
    let dists: Vec<(usize, simcore::dist::DiscreteEmpirical)> = supports
        .iter()
        .enumerate()
        .flat_map(|(si, &n)| {
            let mut draw_rng = rng.fork(si as u64);
            (0..samples)
                .map(|_| (n, random_unit_mean_discrete(&mut draw_rng, n, alpha)))
                .collect::<Vec<_>>()
        })
        .collect();
    let runner = Runner::global();
    let thresholds = runner.map(&dists, |_i, (_n, d)| threshold_load_on(&runner, d, opts));
    supports
        .iter()
        .enumerate()
        .map(|(si, &n)| {
            let slice = &thresholds[si * samples..(si + 1) * samples];
            RandomDistRow {
                support: n,
                min_threshold: slice.iter().copied().fold(f64::INFINITY, f64::min),
                max_threshold: slice.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        })
        .collect()
}

/// Fig 4: threshold load vs client-side overhead (as a fraction of the
/// mean service time), for one service distribution. All points share one
/// CRN draw cache ([`crate::threshold::overhead_thresholds_on`]): the
/// draws depend only on the seed, not the overhead, so they are generated
/// once instead of per point — bit-identical to per-point searches.
/// The points search side by side on the global runner.
pub fn overhead_sweep<D: Distribution + Clone>(
    dist: &D,
    overhead_fractions: &[f64],
    opts: &ThresholdOptions,
) -> Vec<(f64, f64)> {
    let mean = dist.mean();
    let overheads: Vec<f64> = overhead_fractions.iter().map(|&f| f * mean).collect();
    let thresholds =
        crate::threshold::overhead_thresholds_on(&Runner::global(), dist, &overheads, opts);
    overhead_fractions.iter().copied().zip(thresholds).collect()
}

/// The sweep row whose threshold (first element) is nearest `target`.
///
/// Uses `f64::total_cmp` on the absolute distances — the workspace-wide
/// rule for float comparators — so the choice is deterministic for every
/// input: equal distances resolve to the earliest row, and non-finite
/// distances (a NaN threshold, or an infinite one when `target` is
/// finite) sort *after* every finite distance, so such rows are only
/// returned when no finite candidate exists. A `partial_cmp(..).unwrap()`
/// here would instead panic the moment a sweep produced a NaN row.
///
/// # Panics
/// If `entries` is empty.
pub fn nearest_entry(entries: &[(f64, f64)], target: f64) -> (f64, f64) {
    *entries
        .iter()
        .min_by(|a, b| (a.0 - target).abs().total_cmp(&(b.0 - target).abs()))
        .expect("nearest_entry requires at least one sweep row")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Deterministic, Exponential};

    #[test]
    fn fig1_shape_deterministic() {
        // Fig 1(a): with deterministic service, the k=2 curve crosses the
        // k=1 curve between ~0.2 and ~0.35 load.
        let pts = mean_vs_load(&Deterministic::unit(), &[0.1, 0.2, 0.3, 0.4], 60_000, 1);
        assert!(pts[0].mean_double <= pts[0].mean_single + 1e-3);
        assert!(pts[3].mean_double > pts[3].mean_single);
    }

    #[test]
    fn fig1c_tail_orders() {
        let (single, double) = ccdf_at_load(&Pareto::unit_mean(2.1), 0.2, 80_000, 30, 3);
        // Every tail fraction of the replicated curve is <= the single's at
        // matching thresholds (curves share the log grid only roughly, so
        // compare at the single curve's median threshold).
        let mid = single.entries()[single.entries().len() / 2];
        let d_at = nearest_entry(double.entries(), mid.0);
        assert!(d_at.1 <= mid.1 + 0.01, "double {d_at:?} vs single {mid:?}");
    }

    #[test]
    fn nearest_entry_total_order_on_ties_and_non_finite() {
        // Equal distances: |3-4| == |5-4|; total_cmp makes them a true tie
        // and min_by keeps the earliest row, deterministically.
        let rows = [(1.0, 0.9), (3.0, 0.5), (5.0, 0.1)];
        assert_eq!(nearest_entry(&rows, 4.0), (3.0, 0.5));

        // Non-finite candidates (NaN / inf thresholds) lose to any finite
        // row: |NaN| sorts above +inf under total_cmp (abs() clears the
        // sign bit, so the NaN distance is always positive NaN).
        let rows = [(f64::NAN, 0.2), (f64::INFINITY, 0.3), (2.0, 0.7)];
        assert_eq!(nearest_entry(&rows, 0.0), (2.0, 0.7));

        // All-NaN input returns a row instead of panicking, which is the
        // whole point of dropping partial_cmp(..).unwrap().
        let rows = [(f64::NAN, 0.1), (f64::NAN, 0.2)];
        let got = nearest_entry(&rows, 1.0);
        assert!(got.0.is_nan());
        assert_eq!(got.1, 0.1);
    }

    #[test]
    fn fig2c_endpoints() {
        // p = 0 is deterministic (threshold ~0.26); large p is heavy
        // (threshold near 0.5).
        let opts = ThresholdOptions::fast();
        let rows = two_point_family(&[0.0, 0.9], &opts);
        assert!(rows[0].1 < 0.31, "p=0 threshold {}", rows[0].1);
        assert!(rows[1].1 > rows[0].1, "{rows:?}");
    }

    #[test]
    fn fig3_rows_within_conjecture() {
        let mut opts = ThresholdOptions::fast();
        opts.requests = 20_000;
        opts.replications = 3;
        let rows = random_distributions(&[2, 8], 3, 1.0, &opts);
        for r in &rows {
            assert!(
                r.min_threshold >= 0.2 && r.max_threshold < 0.5,
                "row {r:?} violates the conjectured band"
            );
            assert!(r.min_threshold <= r.max_threshold);
        }
    }

    #[test]
    fn fig4_overhead_collapses_threshold() {
        let opts = ThresholdOptions::fast();
        let rows = overhead_sweep(&Exponential::unit(), &[0.0, 1.0], &opts);
        assert!(rows[0].1 > 0.28, "zero-overhead threshold {}", rows[0].1);
        assert!(rows[1].1 < 0.05, "full-overhead threshold {}", rows[1].1);
    }

    #[test]
    fn mean_vs_load_bit_identical_across_thread_counts() {
        let loads = [0.1, 0.25, 0.4];
        let base = mean_vs_load_on(&Runner::serial(), &Exponential::unit(), &loads, 10_000, 7);
        for threads in [2, 8] {
            let pts = mean_vs_load_on(
                &Runner::new(threads),
                &Exponential::unit(),
                &loads,
                10_000,
                7,
            );
            for (a, b) in base.iter().zip(&pts) {
                assert_eq!(a.mean_single.to_bits(), b.mean_single.to_bits());
                assert_eq!(a.mean_double.to_bits(), b.mean_double.to_bits());
                assert_eq!(a.p999_single.to_bits(), b.p999_single.to_bits());
                assert_eq!(a.p999_double.to_bits(), b.p999_double.to_bits());
            }
        }
    }
}
