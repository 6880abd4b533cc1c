//! Pollaczek–Khinchine: exact M/G/1 mean waiting time.
//!
//! `E[W] = λ·E[S²] / (2(1 − ρ))`, equivalently
//! `E[W] = ρ·E[S]·(1 + c²ₛ) / (2(1 − ρ))` with `c²ₛ` the squared
//! coefficient of variation. This anchors both approximation layers: any
//! stand-in we use for the paper's Myers–Vernon estimate must reproduce this
//! first moment exactly.

use simcore::dist::Distribution;

/// First two moments of a service-time distribution, the only inputs the
/// two-moment approximations need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceMoments {
    /// E\[S\].
    pub mean: f64,
    /// Var\[S\] (must be finite for the light-tailed approximations).
    pub variance: f64,
}

impl ServiceMoments {
    /// Captures the moments of a distribution.
    ///
    /// # Panics
    /// Panics if either moment is non-finite — heavy-tailed laws with
    /// infinite variance belong to [`crate::analytic::heavy_tail`].
    pub fn of(dist: &dyn Distribution) -> Self {
        let mean = dist.mean();
        let variance = dist.variance();
        assert!(
            mean.is_finite() && variance.is_finite(),
            "{dist:?} has non-finite moments; use the heavy-tail analysis"
        );
        ServiceMoments { mean, variance }
    }

    /// Explicit constructor.
    pub fn new(mean: f64, variance: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite() && variance >= 0.0 && variance.is_finite());
        ServiceMoments { mean, variance }
    }

    /// Squared coefficient of variation.
    pub fn scv(&self) -> f64 {
        self.variance / (self.mean * self.mean)
    }

    /// E\[S²\].
    pub fn second_raw(&self) -> f64 {
        self.variance + self.mean * self.mean
    }
}

/// P–K mean waiting time at utilization `rho`.
pub fn mean_wait(s: ServiceMoments, rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "rho out of range: {rho}");
    let lambda = rho / s.mean;
    lambda * s.second_raw() / (2.0 * (1.0 - rho))
}

/// P–K mean response time (wait + service).
pub fn mean_response(s: ServiceMoments, rho: f64) -> f64 {
    s.mean + mean_wait(s, rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Deterministic, Erlang, Exponential};

    #[test]
    fn reduces_to_mm1() {
        let s = ServiceMoments::of(&Exponential::unit());
        for &rho in &[0.1, 0.5, 0.9] {
            assert!((mean_response(s, rho) - 1.0 / (1.0 - rho)).abs() < 1e-12);
        }
    }

    #[test]
    fn md1_is_half_mm1_wait() {
        // M/D/1 waits are exactly half of M/M/1 waits.
        let d = ServiceMoments::of(&Deterministic::unit());
        let e = ServiceMoments::of(&Exponential::unit());
        for &rho in &[0.2, 0.6] {
            assert!((mean_wait(d, rho) - 0.5 * mean_wait(e, rho)).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_interpolates() {
        let e4 = ServiceMoments::of(&Erlang::unit_mean(4));
        let rho = 0.5;
        let w = mean_wait(e4, rho);
        let w_det = mean_wait(ServiceMoments::of(&Deterministic::unit()), rho);
        let w_exp = mean_wait(ServiceMoments::of(&Exponential::unit()), rho);
        assert!(w_det < w && w < w_exp);
        // Exact: (1 + 1/4)/2 * rho/(1-rho).
        assert!((w - 0.625 * rho / (1.0 - rho)).abs() < 1e-12);
    }

    #[test]
    fn matches_simulation_for_mg1() {
        // Cross-check the P-K formula against the event simulator with an
        // Erlang-2 service at rho = 0.4.
        use crate::model::{run, Config};
        let dist = Erlang::unit_mean(2);
        let s = ServiceMoments::of(&dist);
        let cfg = Config::new(dist, 0.4).with_requests(300_000, 30_000);
        let sim = run(&cfg, 99).moments.mean();
        let theory = mean_response(s, 0.4);
        assert!(
            (sim - theory).abs() / theory < 0.05,
            "sim {sim} vs P-K {theory}"
        );
    }
}
