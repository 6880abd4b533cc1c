//! Closed forms and approximations for the replicated-queue model.
//!
//! Four layers, in decreasing exactness:
//!
//! 1. [`mm1`] — exact M/M/1 results, including **Theorem 1**: with
//!    exponential service the threshold load for k-way replication is
//!    exactly `1/(k+1)` (1/3 for the paper's k = 2).
//! 2. [`pk`] — the Pollaczek–Khinchine mean for M/G/1, exact for any
//!    service distribution with two finite moments.
//! 3. [`two_moment`] — a Gamma-shaped response-time approximation driven by
//!    the first two service moments. This is our documented stand-in for
//!    the Myers–Vernon estimate the paper uses (the original formula is in
//!    a paywalled SIGMETRICS PER note; ours has the same inputs, is exact
//!    for M/M/1, and reproduces Theorem 2's qualitative content: the
//!    threshold is minimized by deterministic service).
//! 4. [`heavy_tail`] — a regularly-varying tail approximation in the spirit
//!    of Olvera-Cravioto et al., applicable to Pareto-like service times;
//!    reproduces Theorem 3's regime (`α < 1 + √2` ⇒ threshold > 30 %).

pub mod heavy_tail;
pub mod mm1;
pub mod pk;
pub mod two_moment;

/// Numerically integrates a nonincreasing tail function `ccdf` over
/// `[0, ∞)` — i.e. computes `E[X] = ∫ P(X > x) dx` — by composite Simpson
/// on `[0, hi]` where `hi` is found by doubling until `ccdf(hi)` is
/// negligible, plus a geometric tail correction.
#[cfg(test)]
pub(crate) fn integrate_ccdf(ccdf: impl Fn(f64) -> f64, hint: f64) -> f64 {
    // Find an upper cutoff where the tail is negligible.
    let mut hi = hint.max(1e-9);
    let mut guard = 0;
    while ccdf(hi) > 1e-12 && guard < 200 {
        hi *= 2.0;
        guard += 1;
    }
    // Composite Simpson with enough panels that the answer is stable for
    // the smooth CCDFs we integrate.
    let n = 20_000usize; // even
    let h = hi / n as f64;
    let mut acc = ccdf(0.0) + ccdf(hi);
    for i in 1..n {
        let x = i as f64 * h;
        acc += ccdf(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    acc * h / 3.0
}

/// Generic bisection for the threshold load given a replication-gain
/// function `g(ρ) = mean₂(ρ) − mean₁(ρ)` assumed negative below the root.
pub(crate) fn bisect_threshold(g: impl Fn(f64) -> f64, tol: f64) -> f64 {
    bisect_threshold_with_floor(&g, |rho| g(rho) > 0.0, tol)
}

/// [`bisect_threshold`] with the floor check — does replication already
/// lose at the lowest load, `g(ρ_min) > 0`, making the threshold 0? —
/// answered by `loses_at_floor`, which must agree with `g` exactly but
/// may decide it more cheaply.
pub(crate) fn bisect_threshold_with_floor(
    g: impl Fn(f64) -> f64,
    loses_at_floor: impl FnOnce(f64) -> bool,
    tol: f64,
) -> f64 {
    let mut lo = 1e-4;
    let mut hi = 0.5 - 1e-6;
    if loses_at_floor(lo) {
        return 0.0;
    }
    if g(hi) < 0.0 {
        return hi;
    }
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if g(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrate_exponential_ccdf() {
        // E[Exp(rate 2)] = 0.5.
        let m = integrate_ccdf(|x| (-2.0 * x).exp(), 1.0);
        assert!((m - 0.5).abs() < 1e-4, "{m}");
    }

    #[test]
    fn integrate_min_of_two_exponentials() {
        // min of two Exp(1) is Exp(2): mean 0.5.
        let m = integrate_ccdf(|x| (-x).exp().powi(2), 1.0);
        assert!((m - 0.5).abs() < 1e-4, "{m}");
    }

    #[test]
    fn bisect_finds_known_root() {
        // g(rho) = rho - 1/3.
        let t = bisect_threshold(|rho| rho - 1.0 / 3.0, 1e-6);
        assert!((t - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn bisect_clamps_at_edges() {
        assert_eq!(bisect_threshold(|_| 1.0, 1e-6), 0.0);
        assert!(bisect_threshold(|_| -1.0, 1e-6) > 0.49);
    }
}
