//! Special functions needed to normalize distribution families to unit mean.
//!
//! The paper's §2.1 sweeps (Fig 2) hold the mean of the service-time
//! distribution at 1 while varying its variance, so the Weibull and Pareto
//! families need Γ(·) to solve for their scale parameters.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~15 significant digits for `x > 0`; uses the reflection
/// formula for `x < 0.5`.
///
/// # Panics
/// Panics for non-positive integers (poles of Γ).
pub fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    #[allow(
        clippy::excessive_precision,
        reason = "published Lanczos coefficients, kept digit-for-digit"
    )]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(
        !(x <= 0.0 && x.fract() == 0.0),
        "ln_gamma pole at non-positive integer {x}"
    );
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin().abs()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The gamma function Γ(x) for moderate arguments.
pub fn gamma_fn(x: f64) -> f64 {
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        pi / ((pi * x).sin() * gamma_fn(1.0 - x))
    } else {
        ln_gamma(x).exp()
    }
}

/// The regularized incomplete gamma functions `P(a, x) = γ(a, x)/Γ(a)` and
/// `Q(a, x) = 1 − P(a, x)` at one shape `a` — the CDF and CCDF of a
/// Gamma(shape `a`, scale 1) variate, which the two-moment M/G/1 response
/// approximation in `queuesim` integrates.
///
/// Series expansion for `x < a + 1`, Lentz continued fraction otherwise
/// (Numerical Recipes §6.2). `ln Γ(a)` is computed once, in
/// [`new`](Self::new), not per evaluation: the approximation evaluates
/// thousands of `x` at one shape.
#[derive(Clone, Copy, Debug)]
pub struct IncompleteGamma {
    a: f64,
    ln_gamma_a: f64,
}

impl IncompleteGamma {
    /// The incomplete gamma functions at shape `a`.
    ///
    /// # Panics
    /// Panics if `a ≤ 0`.
    pub fn new(a: f64) -> Self {
        assert!(a > 0.0, "incomplete gamma needs a > 0");
        IncompleteGamma {
            a,
            ln_gamma_a: ln_gamma(a),
        }
    }

    /// `P(a, x)`, the lower tail.
    ///
    /// # Panics
    /// Panics if `x < 0`.
    pub fn p(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "incomplete gamma needs x >= 0");
        if x == 0.0 {
            return 0.0;
        }
        if x < self.a + 1.0 {
            gamma_p_series(self.a, self.ln_gamma_a, x)
        } else {
            1.0 - gamma_q_cf(self.a, self.ln_gamma_a, x)
        }
    }

    /// `Q(a, x)`, the upper tail, computed directly for accuracy deep in
    /// the tail.
    ///
    /// # Panics
    /// Panics if `x < 0`.
    pub fn q(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "incomplete gamma needs x >= 0");
        if x == 0.0 {
            return 1.0;
        }
        if x < self.a + 1.0 {
            1.0 - gamma_p_series(self.a, self.ln_gamma_a, x)
        } else {
            gamma_q_cf(self.a, self.ln_gamma_a, x)
        }
    }
}

fn gamma_p_series(a: f64, ln_gamma_a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma_a).exp()
}

fn gamma_q_cf(a: f64, ln_gamma_a: f64, x: f64) -> f64 {
    // Modified Lentz's method for the continued fraction representation.
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma_a).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn gamma_integers_are_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                close(gamma_fn(n as f64), fact, 1e-12),
                "Γ({n}) = {} != {fact}",
                gamma_fn(n as f64)
            );
        }
    }

    #[test]
    fn gamma_half_is_sqrt_pi() {
        assert!(close(gamma_fn(0.5), std::f64::consts::PI.sqrt(), 1e-12));
        // Γ(3/2) = √π/2.
        assert!(close(gamma_fn(1.5), std::f64::consts::PI.sqrt() / 2.0, 1e-12));
    }

    #[test]
    fn reflection_region() {
        // Γ(0.25)Γ(0.75) = π / sin(π/4) = π√2.
        let prod = gamma_fn(0.25) * gamma_fn(0.75);
        assert!(close(prod, std::f64::consts::PI * 2f64.sqrt(), 1e-10));
    }

    #[test]
    fn ln_gamma_large_argument() {
        // Stirling check at x = 100: ln Γ(100) = ln(99!).
        let ln99fact: f64 = (1..=99u32).map(|k| (k as f64).ln()).sum();
        assert!(close(ln_gamma(100.0), ln99fact, 1e-12));
    }

    #[test]
    #[should_panic(expected = "pole")]
    fn pole_panics() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn incomplete_gamma_shape_one_is_exponential() {
        // Gamma(1, 1) is Exp(1): P(1, x) = 1 - e^{-x}.
        let g = IncompleteGamma::new(1.0);
        for &x in &[0.0f64, 0.1, 1.0, 3.0, 10.0, 40.0] {
            let expect = 1.0 - (-x).exp();
            assert!((g.p(x) - expect).abs() < 1e-12, "P(1,{x}) = {}", g.p(x));
            assert!((g.q(x) - (1.0 - expect)).abs() < 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_complement() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 50.0] {
            let g = IncompleteGamma::new(a);
            for &x in &[0.01, 0.5, 1.0, 5.0, 30.0, 100.0] {
                let s = g.p(x) + g.q(x);
                assert!((s - 1.0).abs() < 1e-10, "P+Q at a={a} x={x}: {s}");
            }
        }
    }

    #[test]
    fn incomplete_gamma_integer_shape() {
        // P(2, x) = 1 - e^{-x}(1 + x)  (Erlang-2 CDF).
        for &x in &[0.5f64, 2.0, 7.0] {
            let expect = 1.0 - (-x).exp() * (1.0 + x);
            assert!((IncompleteGamma::new(2.0).p(x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_median_of_large_shape() {
        // For large a, the Gamma(a,1) median approaches a - 1/3.
        let a = 100.0;
        let med = a - 1.0 / 3.0;
        let p = IncompleteGamma::new(a).p(med);
        assert!((p - 0.5).abs() < 0.01, "P(100, {med}) = {p}");
    }
}
