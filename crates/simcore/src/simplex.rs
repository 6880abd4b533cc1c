//! Random probability vectors — the generator behind the paper's Figure 3.
//!
//! Fig 3 samples "the space of all unit-mean discrete probability
//! distributions with support {1, 2, …, N}" in two ways: uniformly at random
//! (i.e. uniform on the probability simplex, which is Dirichlet(1,…,1)), and
//! from a symmetric Dirichlet with concentration 0.1 (spikier vectors, hence
//! a wider spread of shapes). The resulting distribution is then rescaled to
//! unit mean, and the min/max observed threshold load over many draws is
//! plotted against N.

use crate::dist::DiscreteEmpirical;
use crate::rng::Rng;

/// Draws from a symmetric Dirichlet with concentration `alpha` by
/// normalizing independent Gamma(α, 1) variates; α = 1 is the uniform
/// distribution on the simplex.
///
/// # Panics
/// Panics if `n == 0` or `alpha ≤ 0`.
pub fn dirichlet(rng: &mut Rng, n: usize, alpha: f64) -> Vec<f64> {
    assert!(n > 0 && alpha > 0.0);
    loop {
        let draws: Vec<f64> = (0..n).map(|_| rng.gamma(alpha, 1.0)).collect();
        let total: f64 = draws.iter().sum();
        // For very small alpha, all gammas can underflow to ~0; redraw.
        if total > 0.0 && total.is_finite() {
            return draws.iter().map(|g| g / total).collect();
        }
    }
}

/// A random unit-mean discrete distribution on support `{1, …, n}` with
/// probabilities drawn from a symmetric Dirichlet(α) — the exact object
/// Fig 3 sweeps (α = 1 reproduces the "Uniform" series, α = 0.1 the
/// "Dirichlet" series).
pub fn random_unit_mean_discrete(rng: &mut Rng, n: usize, alpha: f64) -> DiscreteEmpirical {
    let probs = dirichlet(rng, n, alpha);
    let pairs: Vec<(f64, f64)> = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| ((i + 1) as f64, p))
        .collect();
    DiscreteEmpirical::new(&pairs).scaled_to_unit_mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    #[test]
    fn simplex_sums_to_one() {
        let mut rng = Rng::seed_from(99);
        for n in [1usize, 2, 7, 64] {
            let v = dirichlet(&mut rng, n, 1.0);
            assert_eq!(v.len(), n);
            let s: f64 = v.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "sum {s}");
            assert!(v.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn dirichlet_concentration_controls_spread() {
        // Small alpha → spiky vectors (high max component on average).
        let mut rng = Rng::seed_from(123);
        let n = 16;
        let trials = 500;
        let avg_max = |rng: &mut Rng, alpha: f64| -> f64 {
            (0..trials)
                .map(|_| dirichlet(rng, n, alpha).into_iter().fold(0.0f64, f64::max))
                .sum::<f64>()
                / trials as f64
        };
        let spiky = avg_max(&mut rng, 0.1);
        let flat = avg_max(&mut rng, 10.0);
        assert!(
            spiky > flat + 0.2,
            "expected alpha=0.1 spikier: {spiky} vs {flat}"
        );
    }

    #[test]
    fn dirichlet_marginal_mean() {
        // Each component of a symmetric Dirichlet has mean 1/n.
        let mut rng = Rng::seed_from(7);
        let n = 8;
        let trials = 2_000;
        let mut acc = vec![0.0f64; n];
        for _ in 0..trials {
            for (a, p) in acc.iter_mut().zip(dirichlet(&mut rng, n, 0.5)) {
                *a += p;
            }
        }
        for a in acc {
            let m = a / trials as f64;
            assert!((m - 1.0 / n as f64).abs() < 0.015, "marginal mean {m}");
        }
    }

    #[test]
    fn random_discrete_has_unit_mean() {
        let mut rng = Rng::seed_from(42);
        for n in [2usize, 4, 32, 256] {
            for alpha in [0.1, 1.0] {
                let d = random_unit_mean_discrete(&mut rng, n, alpha);
                assert!(
                    (d.mean() - 1.0).abs() < 1e-9,
                    "n={n} alpha={alpha} mean={}",
                    d.mean()
                );
            }
        }
    }
}
