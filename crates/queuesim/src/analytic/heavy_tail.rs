//! Regularly-varying (heavy-tail) response approximation — our stand-in for
//! the paper's use of Olvera-Cravioto, Blanchet & Glynn \[24\].
//!
//! For M/G/1 with a regularly varying service tail `F̄(x) = (xm/x)^α` the
//! classical subexponential asymptotic (Pakes' theorem, which \[24\] refines)
//! gives the stationary waiting-time tail
//!
//! ```text
//! P(W > x) ~ (ρ/(1−ρ)) · F̄ᵢ(x),      F̄ᵢ(x) = (1/E[S]) ∫ₓ^∞ F̄(u) du
//! ```
//!
//! and, because subexponential sums behave like their maximum,
//! `P(R > x) = P(W + S > x) ~ P(W > x) + P(S > x)`. For the Pareto family
//! both terms are pure power laws, so the mean of the **minimum of k
//! copies** — the k-th power of the CCDF — integrates in closed form past
//! the point `x₀` where the approximation drops below 1:
//!
//! ```text
//! E[min] = x₀ + Σᵢ C(k,i)·aⁱ·b^(k−i) · x₀^(1−p)/(p−1),  p = k(α−1)+i
//! ```
//!
//! Convergence requires `k(α−1) > 1`: one copy needs α > 2 for a finite
//! mean, two copies only α > 1.5. That asymmetry *is* the paper's Theorem 3
//! regime — for tails heavy enough (α < 1 + √2 ≈ 2.414 per the theorem;
//! dramatically for α ≤ 2 where the unreplicated mean diverges outright),
//! replication wins across (almost) the whole load range.

use super::bisect_threshold;

/// The heavy-tail response model for unit-mean Pareto(α) service at a given
/// per-server utilization.
#[derive(Clone, Copy, Debug)]
pub struct HeavyTailResponse {
    alpha: f64,
    xm: f64,
    /// Coefficient of the service-tail term `a·x^{−α}`.
    a: f64,
    /// Coefficient of the waiting-tail term `b·x^{1−α}`.
    b: f64,
}

impl HeavyTailResponse {
    /// Builds the model at per-server utilization `u` for unit-mean
    /// Pareto service with tail index `alpha > 1`.
    pub fn new(alpha: f64, u: f64) -> Self {
        assert!(
            alpha > 1.0,
            "regularly varying with finite mean needs alpha > 1"
        );
        assert!((0.0..1.0).contains(&u), "utilization {u} out of range");
        let xm = (alpha - 1.0) / alpha; // unit mean
        let a = xm.powf(alpha);
        // Integrated tail of Pareto: ∫ₓ F̄ = xm^α x^{1−α}/(α−1); E[S] = 1.
        let b = u / (1.0 - u) * xm.powf(alpha) / (alpha - 1.0);
        HeavyTailResponse { alpha, xm, a, b }
    }

    /// Approximate response CCDF.
    pub fn ccdf(&self, x: f64) -> f64 {
        if x <= self.xm {
            return 1.0;
        }
        (self.a * x.powf(-self.alpha) + self.b * x.powf(1.0 - self.alpha)).min(1.0)
    }

    /// The crossover point x₀ past which the power-law expression is < 1.
    fn crossover(&self) -> f64 {
        let f = |x: f64| self.a * x.powf(-self.alpha) + self.b * x.powf(1.0 - self.alpha);
        let mut lo = self.xm;
        let mut hi = self.xm.max(1.0);
        let mut guard = 0;
        while f(hi) > 1.0 && guard < 500 {
            hi *= 2.0;
            guard += 1;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 1.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Mean of the minimum of `k` i.i.d. responses under this model;
    /// `f64::INFINITY` when the defining integral diverges
    /// (`k(α−1) ≤ 1`).
    pub fn mean_min_of(&self, k: u32) -> f64 {
        assert!(k >= 1);
        let kf = k as f64;
        if kf * (self.alpha - 1.0) <= 1.0 {
            return f64::INFINITY;
        }
        let x0 = self.crossover();
        // Binomial expansion of (a x^{−α} + b x^{1−α})^k, each term a pure
        // power x^{−p} with p = k(α−1) + i for the term with i service
        // factors; integral over [x0, ∞) is x0^{1−p}/(p−1).
        let mut tail = 0.0;
        let mut binom = 1.0f64; // C(k, 0)
        for i in 0..=k {
            let ifl = i as f64;
            let p = kf * (self.alpha - 1.0) + ifl;
            let coef = binom * self.a.powf(ifl) * self.b.powf(kf - ifl);
            tail += coef * x0.powf(1.0 - p) / (p - 1.0);
            binom = binom * (kf - ifl) / (ifl + 1.0);
        }
        x0 + tail
    }
}

/// Threshold load for 2-way replication within the heavy-tail
/// approximation, for unit-mean Pareto(α) service.
///
/// For `α ≤ 2` the unreplicated mean response diverges at every positive
/// load while the replicated mean is finite (for `α > 1.5`), so replication
/// wins everywhere and the threshold sits at its 50 % ceiling.
pub fn threshold_pareto(alpha: f64) -> f64 {
    assert!(alpha > 1.5, "mean of min-of-two diverges for alpha <= 1.5");
    if alpha <= 2.0 {
        return 0.5 - 1e-6;
    }
    bisect_threshold(
        |rho| {
            let single = HeavyTailResponse::new(alpha, rho).mean_min_of(1);
            let double = HeavyTailResponse::new(alpha, 2.0 * rho).mean_min_of(2);
            double - single
        },
        1e-4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_is_valid() {
        let m = HeavyTailResponse::new(2.1, 0.4);
        let mut prev = 1.0;
        for i in 0..200 {
            let x = 0.1 * (i as f64 + 1.0);
            let c = m.ccdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c <= prev + 1e-12, "ccdf increased at {x}");
            prev = c;
        }
    }

    #[test]
    fn divergence_regimes() {
        // k=1 diverges for alpha <= 2; k=2 for alpha <= 1.5.
        assert!(HeavyTailResponse::new(1.9, 0.2)
            .mean_min_of(1)
            .is_infinite());
        assert!(HeavyTailResponse::new(1.9, 0.2).mean_min_of(2).is_finite());
        assert!(HeavyTailResponse::new(1.45, 0.2)
            .mean_min_of(2)
            .is_infinite());
        assert!(HeavyTailResponse::new(2.5, 0.2).mean_min_of(1).is_finite());
    }

    #[test]
    fn theorem_3_band() {
        // Theorem 3: for regularly varying service with alpha < 1 + sqrt(2),
        // the threshold load exceeds 30%.
        for &alpha in &[1.6, 1.8, 2.0, 2.1, 2.3, 2.41] {
            let t = threshold_pareto(alpha);
            assert!(t > 0.30, "alpha={alpha}: threshold {t} <= 30%");
            assert!(t < 0.5);
        }
    }

    #[test]
    fn threshold_decreases_as_tail_lightens_in_valid_regime() {
        // The asymptotic is only meaningful for genuinely heavy tails; the
        // paper applies it below alpha = 1 + sqrt(2). Within that regime the
        // threshold should fall as the tail lightens.
        let t1 = threshold_pareto(2.05);
        let t2 = threshold_pareto(2.2);
        let t3 = threshold_pareto(2.41);
        assert!(t1 >= t2 && t2 >= t3, "{t1} {t2} {t3}");
    }

    #[test]
    fn mean_increases_with_load() {
        let lo = HeavyTailResponse::new(2.2, 0.1).mean_min_of(1);
        let hi = HeavyTailResponse::new(2.2, 0.6).mean_min_of(1);
        assert!(hi > lo);
    }

    #[test]
    fn crossover_at_least_xm() {
        for &(alpha, u) in &[(2.1, 0.1), (3.0, 0.4), (2.4, 0.8)] {
            let m = HeavyTailResponse::new(alpha, u);
            assert!(m.crossover() >= m.xm - 1e-9);
        }
    }
}
