//! Two-moment response-time approximation — our stand-in for the paper's
//! use of Myers & Vernon \[23\].
//!
//! The paper evaluates its Conjecture 1 ("deterministic service minimizes
//! the threshold load") inside an approximation of the M/G/1 response-time
//! *distribution* that depends only on the first two moments of the service
//! time. The exact Myers–Vernon formula is not reproducible offline, so we
//! build a documented substitute with the same inputs and regime:
//!
//! * **Waiting time** `W`: an atom of mass `1 − u` at zero (PASTA: an
//!   arrival finds the server idle with the exact probability `1 − u`) plus
//!   an exponential excursion with mean `W_PK/u`, so that `E[W]` equals the
//!   exact Pollaczek–Khinchine mean.
//! * **Service** `S`: a Gamma fit to `(E[S], Var S)` (point mass when
//!   Var S = 0). `R = W + S` with `W ⊥ S` (true for FIFO M/G/1).
//! * The response CCDF is then *exactly computable* for the model:
//!   `P(R > x) = Q_S(x) + u·e^{−μx}(1−μθ)^{−κ}·P_Γ(κ, (1/θ−μ)x)` when the
//!   exponential rate `μ = u/W_PK` is smaller than the Gamma rate `1/θ`
//!   (closed-form Gamma⊛Exp convolution), and by an exponential
//!   quantile-mixture quadrature otherwise.
//! * **Replication**: the k-copy response is the min of k i.i.d. model
//!   responses at per-server load `kρ`; its mean is `∫ P(R > x)^k dx`.
//!
//! Exactness anchors: for exponential service the model CCDF collapses
//! algebraically to `e^{−(1−u)x}` — the *true* M/M/1 response law — so
//! Theorem 1's threshold of 1/3 is reproduced to the bisection tolerance.
//! For deterministic service everything is closed-form and the threshold is
//! `1 − √2/2 ≈ 0.2929` (vs ≈ 0.258 simulated — the right end of the
//! corridor, and the *minimum over distributions* as Theorem 2 requires;
//! see the tests).
//!
//! **Validity regime.** Like the original Myers–Vernon estimate — whose
//! authors "note that the approximation is likely to be inappropriate when
//! the service times are heavy tailed" (quoted in the paper) — this model
//! is trustworthy for light-tailed service (scv ≲ 1, the
//! deterministic–Erlang–exponential range). Beyond scv = 1 the exponential
//! excursion underestimates how much a min-of-two gains from heavy waiting
//! tails, and the model's threshold drifts back toward its deterministic
//! floor instead of climbing toward 50 % as simulation does. That is
//! precisely why the paper (and [`crate::analytic::heavy_tail`]) switch to
//! a regularly-varying asymptotic in the heavy regime, and why Figure 2's
//! curves come from simulation ([`crate::threshold`]) rather than from this
//! approximation.
//!
//! **Cost, and the certified floor check.** A [`threshold`] is a bisection
//! of 15 gain evaluations, each a 4 010-point log-grid integral of the
//! squared CCDF. A fit computes its Gamma constants once — `ln Γ(κ)` and
//! `(1 − μθ)^(−κ)` — instead of once per CCDF point, which runs the same
//! operations on the same inputs in the same order. For scv > 1 the
//! bisection's floor check, `gain(10⁻⁴) > 0` ("replication already loses
//! at the lowest load"), lands on the quadrature branch, where each CCDF
//! point costs 257 incomplete-gamma evaluations: that one integral was
//! ~85 % of a heavy-tailed threshold. `gain_positive_by_bounds` decides
//! it from two cheap integrals instead, and the answer is exactly the one
//! the full integral would give:
//!
//! * each stratum term `(u/256)·Q(x − t_j)` lies in `[0, u/256]`, and
//!   floating-point addition of non-negative terms never decreases a sum,
//!   so the computed CCDF lies between the idle term `(1 − u)·Q(x)` and
//!   that term plus `u`, widened by a rounding slack (1e-12 relative plus
//!   1e-15 absolute; the 257-term sum is off by at most ~2.8e-14);
//! * `min(·, 1)`, `powi(2)` and each trapezoid step are monotone in
//!   floating point, and the grid (`lo`, the upper cutoff, the ratio) is
//!   placed by the exact CCDF, so the two integrals bracket, bit for bit,
//!   the value the exact integral returns;
//! * the gain `fl(fl(m₂ + over) − m₁)` is monotone in `m₂`. An upper gain
//!   `≤ 0` makes the check false, a lower gain `> 0` makes it true, and
//!   only between the two — an overhead within ~4·10⁻⁴ mean of extinction
//!   — is the full integral evaluated. Closed-form and deterministic fits
//!   have no quadrature; their bounds are the exact value.
//!
//! The bisection assumes the gain crosses zero once. For near-deterministic
//! service with a client overhead it crosses twice (positive at the lowest
//! loads, where there is nothing to win, negative in the middle), and the
//! floor check reads that as threshold 0: deterministic service at overhead
//! 5·10⁻⁴ of the mean gets 0 while scv 0.02 gets ~0.30.

use super::bisect_threshold_with_floor;
use super::pk::{self, ServiceMoments};
use simcore::special::IncompleteGamma;

/// Equal-probability strata of the exponential wait in the CCDF's
/// quadrature branch.
const WAIT_STRATA: usize = 256;

/// Relative and absolute slack that widens the quadrature branch's upper
/// CCDF bound over the rounding of its 257-term sum of non-negative terms
/// (at most `256·ε ≈ 2.8e-14` relative).
const SUM_SLACK: (f64, f64) = (1e-12, 1e-15);

/// Atom-exponential-wait + Gamma-service response model at one utilization.
#[derive(Clone, Debug)]
pub struct AtomExpResponse {
    /// Per-server utilization u.
    pub utilization: f64,
    /// Rate of the conditional (busy-found) exponential wait.
    mu: f64,
    /// Gamma service law (`None` = deterministic service).
    gamma: Option<GammaService>,
    /// Gamma service scale, or the deterministic service time.
    scale: f64,
    mean_service: f64,
    mean_wait: f64,
}

/// The fitted Gamma service law and its constants, computed once per fit.
#[derive(Clone, Copy, Debug)]
struct GammaService {
    /// `P` and `Q` at the service shape κ, `ln Γ(κ)` precomputed.
    shape: IncompleteGamma,
    /// `Some((1/θ − μ, (1 − μθ)^(−κ)))` — the closed-form convolution's
    /// rate and factor — when `1/θ − μ > 1e-9`; `None` selects the
    /// quadrature over wait quantiles.
    closed: Option<(f64, f64)>,
}

impl AtomExpResponse {
    /// Fits the model at utilization `u` for service moments `s`.
    pub fn fit(s: ServiceMoments, u: f64) -> Self {
        assert!((0.0..1.0).contains(&u), "utilization out of range: {u}");
        let w = pk::mean_wait(s, u);
        // Conditional wait mean w/u; mu is its rate. At u = 0 the wait is
        // identically zero; use an arbitrary finite rate (atom mass is 1).
        let mu = if w > 0.0 { u / w } else { 1.0 };
        let (gamma, scale) = if s.variance <= 1e-12 * s.mean * s.mean {
            (None, s.mean)
        } else {
            let k = s.mean * s.mean / s.variance;
            let theta = s.variance / s.mean;
            let a = 1.0 / theta - mu;
            let closed = (a > 1e-9).then(|| (a, (1.0 - mu * theta).powf(-k)));
            let shape = IncompleteGamma::new(k);
            (Some(GammaService { shape, closed }), theta)
        };
        AtomExpResponse {
            utilization: u,
            mu,
            gamma,
            scale,
            mean_service: s.mean,
            mean_wait: w,
        }
    }

    /// Mean of the model response — the exact P–K mean by construction.
    pub fn mean(&self) -> f64 {
        self.mean_service + self.mean_wait
    }

    /// Service-time CCDF of the fitted (Gamma or degenerate) service law.
    /// Always in `[0, 1]`.
    fn service_ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        match self.gamma {
            None => {
                if x < self.scale {
                    1.0
                } else {
                    0.0
                }
            }
            Some(g) => g.shape.q(x / self.scale),
        }
    }

    /// `true` when [`ccdf`](Self::ccdf) integrates over wait quantiles.
    fn quadrature(&self) -> bool {
        self.utilization > 0.0 && matches!(self.gamma, Some(GammaService { closed: None, .. }))
    }

    /// The idle-server term `(1 − u)·P(S > x)` that starts the quadrature.
    fn idle_term(&self, x: f64) -> f64 {
        (1.0 - self.utilization) * self.service_ccdf(x)
    }

    /// CCDF of the model response `R = W + S`.
    pub fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        let u = self.utilization;
        if u == 0.0 {
            return self.service_ccdf(x);
        }
        match self.gamma {
            None => {
                // Deterministic service d: P(R > x) = 1 for x < d, else the
                // busy-branch exponential tail u·e^{−μ(x−d)}.
                let d = self.scale;
                if x < d {
                    1.0
                } else {
                    u * (-self.mu * (x - d)).exp()
                }
            }
            Some(GammaService {
                shape,
                closed: Some((a, factor)),
            }) => {
                // Closed-form Gamma ⊛ Exp convolution.
                let conv = (-self.mu * x).exp() * factor * shape.p(a * x);
                (self.service_ccdf(x) + u * conv).min(1.0)
            }
            Some(GammaService { closed: None, .. }) => {
                // mu >= Gamma rate: integrate over exponential-wait
                // quantiles (midpoint rule on equal-probability strata).
                let mut acc = self.idle_term(x);
                for j in 0..WAIT_STRATA {
                    let q = (j as f64 + 0.5) / WAIT_STRATA as f64;
                    let t = -(1.0 - q).ln() / self.mu;
                    acc += (u / WAIT_STRATA as f64) * self.service_ccdf(x - t);
                }
                acc.min(1.0)
            }
        }
    }

    /// `[lower, upper]` around [`ccdf`](Self::ccdf)`(x)` as computed, for
    /// a quadrature-branch fit, at one service-CCDF evaluation instead of
    /// 257: each stratum term `(u/256)·P(S > x − t_j)` lies in
    /// `[0, u/256]`, and floating-point addition of non-negative terms never
    /// decreases the sum, so the computed CCDF lies between the idle term
    /// and the idle term plus `u`, widened by [`SUM_SLACK`] for rounding.
    fn ccdf_bounds(&self, x: f64) -> [f64; 2] {
        if x <= 0.0 {
            return [1.0, 1.0];
        }
        let idle = self.idle_term(x);
        let (rel, abs) = SUM_SLACK;
        let upper = (idle + self.utilization) * (1.0 + rel) + abs;
        [idle.min(1.0), upper.min(1.0)]
    }

    /// Mean of the min of `k` i.i.d. model responses.
    pub fn mean_min_of(&self, k: u32) -> f64 {
        assert!(k >= 1);
        if k == 1 {
            return self.mean();
        }
        if self.gamma.is_none() {
            // Analytic: d + ∫ u^k e^{−kμt} dt.
            let kf = k as f64;
            return self.scale + self.utilization.powf(kf) / (kf * self.mu);
        }
        let f = |x: f64| self.ccdf(x).powi(k as i32);
        integrate_ccdf_log(f, |x| [f(x)], self.mean())[0]
    }

    /// `[lower, upper]` around [`mean_min_of`](Self::mean_min_of)`(2)` as
    /// computed, bit for bit. Without quadrature both equal the exact
    /// value. With it, the log grid is placed by the exact CCDF, and the
    /// pointwise CCDF bounds (see the module doc) are integrated on it by
    /// the same monotone operations (`min`, `powi`, the trapezoid steps),
    /// so they bracket the exact integral.
    fn mean_min_of_two_bounds(&self) -> [f64; 2] {
        if !self.quadrature() {
            let m = self.mean_min_of(2);
            return [m, m];
        }
        integrate_ccdf_log(
            |x| self.ccdf(x).powi(2),
            |x| self.ccdf_bounds(x).map(|b| b.powi(2)),
            self.mean(),
        )
    }
}

/// Integrates nonincreasing CCDFs over (0, ∞) on a log-spaced grid —
/// robust to distributions whose mass spans many orders of magnitude.
/// `grid_ccdf` places the grid (its tail sets the upper cutoff); `lanes`
/// gives the `N` integrands at each grid point, each integrated by the
/// same operations in the same order, so a lane equal to `grid_ccdf`
/// reproduces the one-lane integral bit for bit.
fn integrate_ccdf_log<const N: usize>(
    grid_ccdf: impl Fn(f64) -> f64,
    lanes: impl Fn(f64) -> [f64; N],
    scale_hint: f64,
) -> [f64; N] {
    let lo = scale_hint * 1e-7;
    let mut hi = scale_hint.max(1e-12);
    let mut guard = 0;
    while grid_ccdf(hi) > 1e-10 && guard < 400 {
        hi *= 1.5;
        guard += 1;
    }
    let n = 4_000usize;
    let ratio = (hi / lo).powf(1.0 / n as f64);
    // Integral over [0, lo] bounded by lo (ccdf <= 1 there).
    let mut acc = lanes(lo * 0.5).map(|f| lo * f.min(1.0));
    let mut x = lo;
    let mut f_prev = lanes(lo);
    for _ in 0..n {
        let x_next = x * ratio;
        let f_next = lanes(x_next);
        for ((a, p), f) in acc.iter_mut().zip(f_prev).zip(f_next) {
            *a += 0.5 * (p + f) * (x_next - x);
        }
        x = x_next;
        f_prev = f_next;
    }
    acc
}

/// Mean response under k-way replication within the approximation: min of
/// k fitted responses, each at per-server load `k·rho`.
pub fn mean_response_replicated(s: ServiceMoments, rho: f64, k: u32) -> f64 {
    let u = rho * k as f64;
    assert!(u < 1.0, "k*rho = {u} saturates");
    AtomExpResponse::fit(s, u).mean_min_of(k)
}

/// The replication gain `mean₂(ρ) + client_overhead − mean₁(ρ)` decided
/// for sign from bounds alone: `Some(gain > 0)` when the bounds on the
/// k = 2 mean settle it, `None` when they straddle zero. The decision is
/// the one the exact gain would give, because
/// `fl(fl(m₂ + over) − m₁)` is monotone in `m₂`.
fn gain_positive_by_bounds(s: ServiceMoments, rho: f64, client_overhead: f64) -> Option<bool> {
    let [lower, upper] = AtomExpResponse::fit(s, rho * 2.0).mean_min_of_two_bounds();
    let m1 = pk::mean_response(s, rho);
    if upper + client_overhead - m1 <= 0.0 {
        Some(false)
    } else if lower + client_overhead - m1 > 0.0 {
        Some(true)
    } else {
        None
    }
}

/// Threshold load within the approximation (k = 2) when each replicated
/// request also pays `client_overhead` (the paper's Fig 4): the root of
/// `mean₂(ρ) + client_overhead − mean₁(ρ)` on (0, 0.5), 0 when replication
/// already loses at the lowest load. The floor check is decided by
/// `gain_positive_by_bounds` where it can be, and exactly otherwise.
pub fn threshold(s: ServiceMoments, client_overhead: f64) -> f64 {
    let gain = |rho: f64| {
        mean_response_replicated(s, rho, 2) + client_overhead - pk::mean_response(s, rho)
    };
    bisect_threshold_with_floor(
        gain,
        |rho| gain_positive_by_bounds(s, rho, client_overhead).unwrap_or_else(|| gain(rho) > 0.0),
        1e-4,
    )
}

/// Threshold as a function of the squared coefficient of variation, for
/// unit-mean service — the approximation's view of Fig 2's x-axes.
pub fn threshold_for_scv(scv: f64) -> f64 {
    threshold(ServiceMoments::new(1.0, scv), 0.0)
}

/// The closed-form threshold for deterministic service within this model:
/// `1 − √2/2 ≈ 0.2929` (solve `ρ²/(1−2ρ) = ρ/(2(1−ρ))`).
pub fn deterministic_threshold_closed_form() -> f64 {
    1.0 - std::f64::consts::SQRT_2 / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::Distribution;
    use simcore::dist::{Deterministic, Erlang, Exponential, HyperExponential};

    #[test]
    fn exact_for_mm1() {
        // Exponential service: the model CCDF must equal the true M/M/1
        // response law e^{−(1−u)x}, and the threshold must be 1/3.
        let s = ServiceMoments::of(&Exponential::unit());
        let fit = AtomExpResponse::fit(s, 0.4);
        for &x in &[0.1, 0.5, 1.0, 3.0, 8.0] {
            let exact = (-0.6f64 * x).exp();
            let got = fit.ccdf(x);
            assert!(
                (got - exact).abs() < 1e-9,
                "ccdf({x}) {got} vs exact {exact}"
            );
        }
        let thr = threshold(s, 0.0);
        assert!((thr - 1.0 / 3.0).abs() < 2e-3, "threshold {thr}");
    }

    #[test]
    fn min_of_two_halves_exponential_mean() {
        let s = ServiceMoments::of(&Exponential::unit());
        let fit = AtomExpResponse::fit(s, 0.4);
        let m2 = fit.mean_min_of(2);
        assert!(
            (m2 - fit.mean() / 2.0).abs() < 0.005 * fit.mean(),
            "m2 {m2} vs half of {}",
            fit.mean()
        );
    }

    #[test]
    fn deterministic_closed_form() {
        let t = threshold(ServiceMoments::of(&Deterministic::unit()), 0.0);
        let expect = deterministic_threshold_closed_form();
        assert!(
            (t - expect).abs() < 1e-3,
            "deterministic threshold {t} vs closed form {expect}"
        );
    }

    #[test]
    fn deterministic_minimizes_threshold() {
        // Theorem 2 (within the approximation): deterministic service is
        // the worst case for replication.
        let t_det = threshold(ServiceMoments::of(&Deterministic::unit()), 0.0);
        for dist in [
            Box::new(Exponential::unit()) as Box<dyn Distribution>,
            Box::new(Erlang::unit_mean(2)),
            Box::new(Erlang::unit_mean(8)),
            Box::new(HyperExponential::unit_mean_with_scv(2.0)),
            Box::new(HyperExponential::unit_mean_with_scv(8.0)),
        ] {
            let t = threshold(ServiceMoments::of(dist.as_ref()), 0.0);
            assert!(
                t >= t_det - 1e-3,
                "{}: threshold {t} below deterministic {t_det}",
                dist.label()
            );
        }
    }

    #[test]
    fn threshold_monotone_in_scv_light_tail_regime() {
        // Within the approximation's regime of validity (light tails,
        // scv <= 1: the deterministic -> Erlang -> exponential family) the
        // threshold rises with variability, as in the paper's Fig 2.
        let ts: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&scv| threshold_for_scv(scv))
            .collect();
        for w in ts.windows(2) {
            assert!(w[1] >= w[0] - 2e-3, "not monotone: {ts:?}");
        }
        assert!(ts.iter().all(|&t| t < 0.5));
    }

    #[test]
    fn threshold_bounded_for_all_scv() {
        // Outside the light-tail regime the approximation is documented to
        // be conservative, but it must stay inside the paper's conjectured
        // corridor: never below the deterministic floor, never at/above 50%.
        let floor = deterministic_threshold_closed_form();
        for scv in [2.0, 4.0, 8.0, 32.0] {
            let t = threshold_for_scv(scv);
            assert!(
                (floor - 1e-3..0.5).contains(&t),
                "scv {scv}: threshold {t} escapes [{floor}, 0.5)"
            );
        }
    }

    #[test]
    fn mean_bounds_bracket_quadrature_and_equal_closed_forms() {
        // At the bisection floor (u = 2e-4) a heavy Gamma fit takes the
        // quadrature branch: the cheap bounds must bracket the exact
        // integral without collapsing onto it.
        for scv in [1.02, 4.45, 24.4] {
            let fit = AtomExpResponse::fit(ServiceMoments::new(1.0, scv), 2e-4);
            assert!(fit.quadrature(), "scv {scv} should integrate over the wait");
            let [lower, upper] = fit.mean_min_of_two_bounds();
            let exact = fit.mean_min_of(2);
            assert!(
                lower <= exact && exact <= upper && lower < upper,
                "scv {scv}: {lower} <= {exact} <= {upper}"
            );
        }
        // Closed-form and deterministic fits have no quadrature: the
        // bounds are the exact value, bit for bit.
        for (scv, u) in [(0.0, 2e-4), (0.26, 2e-4), (1.0, 2e-4), (4.45, 0.9)] {
            let fit = AtomExpResponse::fit(ServiceMoments::new(1.0, scv), u);
            assert!(!fit.quadrature(), "scv {scv} at u {u}");
            let exact = fit.mean_min_of(2).to_bits();
            assert_eq!(
                fit.mean_min_of_two_bounds().map(f64::to_bits),
                [exact, exact]
            );
        }
    }

    #[test]
    fn floor_check_is_decided_by_bounds_without_overhead() {
        // Without client overhead, replication wins clearly at the floor
        // load, so the bounds alone decide the check, and they decide it
        // the way the exact gain does.
        for scv in [0.0, 0.26, 1.0, 1.02, 4.45, 24.4] {
            let s = ServiceMoments::new(1.0, scv);
            let exact = mean_response_replicated(s, 1e-4, 2) - pk::mean_response(s, 1e-4) > 0.0;
            assert_eq!(
                gain_positive_by_bounds(s, 1e-4, 0.0),
                Some(exact),
                "scv {scv}"
            );
            assert!(!exact);
        }
    }

    #[test]
    fn floor_check_falls_back_to_the_exact_gain_near_extinction() {
        // Two `ThresholdCache` grid points (scv keys 83 and 122, overhead
        // keys 1200 and 1648) where the overhead all but cancels the floor
        // load's gain: the bounds straddle zero, the exact integral
        // decides, and replication loses (threshold 0).
        let grid = [
            (83.0 * 0.02, 1200.0 * 5.0e-4),
            (2.0 * (22.0f64 * 0.05).exp(), 1648.0 * 5.0e-4),
        ];
        for (scv, over) in grid {
            let s = ServiceMoments::new(1.0, scv);
            assert_eq!(gain_positive_by_bounds(s, 1e-4, over), None, "scv {scv}");
            assert_eq!(threshold(s, over), 0.0);
        }
    }

    #[test]
    fn approximation_tracks_simulation_mean() {
        // The model's k=2 mean should be within ~10% of simulation for a
        // moderate-variance service law.
        use crate::model::{run, Config};
        let dist = Erlang::unit_mean(2);
        let s = ServiceMoments::of(&dist);
        let rho = 0.2;
        let sim = run(
            &Config::new(dist, rho)
                .with_copies(2)
                .with_requests(200_000, 20_000),
            17,
        )
        .moments
        .mean();
        let approx = mean_response_replicated(s, rho, 2);
        assert!(
            (sim - approx).abs() / sim < 0.10,
            "sim {sim} vs approx {approx}"
        );
    }

    #[test]
    fn ccdf_monotone_and_bounded() {
        for scv in [0.0, 0.5, 1.0, 4.0] {
            let s = ServiceMoments::new(1.0, scv);
            let fit = AtomExpResponse::fit(s, 0.5);
            let mut prev = 1.0;
            for i in 1..400 {
                let x = i as f64 * 0.05;
                let c = fit.ccdf(x);
                assert!((0.0..=1.0).contains(&c), "scv {scv} x {x}: {c}");
                assert!(c <= prev + 1e-9, "scv {scv}: ccdf increased at {x}");
                prev = c;
            }
        }
    }

    #[test]
    fn model_mean_equals_pk_mean() {
        for scv in [0.0, 1.0, 3.0] {
            let s = ServiceMoments::new(1.0, scv);
            for u in [0.1, 0.5, 0.9] {
                let fit = AtomExpResponse::fit(s, u);
                assert!((fit.mean() - pk::mean_response(s, u)).abs() < 1e-12);
            }
        }
    }
}
