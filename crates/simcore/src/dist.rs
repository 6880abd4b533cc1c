//! Service-time distribution families.
//!
//! Everything the paper's §2.1 analysis sweeps lives here: the unit-mean
//! families of Figure 2 (Weibull, Pareto, two-point), the light-tailed
//! ladder the two-moment analytics are validated on (deterministic →
//! Erlang → exponential → hyper-exponential), the empirical/discrete
//! distributions behind Figure 3 and the §2.4 flow-size workload, and the
//! composition helpers ([`Mixture`], [`Shifted`]) the storage and WAN
//! models build their noise processes from.
//!
//! Design rules, enforced throughout:
//!
//! * **Closed-form first two moments.** [`Distribution::mean`] and
//!   [`Distribution::variance`] are exact (or `f64::INFINITY` where the
//!   moment diverges, e.g. Pareto with `α ≤ 2`), never estimated — the
//!   Pollaczek–Khinchine and two-moment layers in `queuesim` validate
//!   *simulation against these formulas*, so they must not share an
//!   estimation path with the sampler.
//! * **Determinism.** Sampling draws only from [`Rng`], so every
//!   experiment is bit-reproducible from its seed.
//! * **Unit-mean normalization.** Each family offers a unit-mean
//!   constructor (`unit`, `unit_mean`, `scaled_to_unit_mean`, …) because
//!   the paper holds `E[S] = 1` while varying shape.
//!
//! ## Example
//!
//! ```
//! use simcore::dist::{Distribution, Exponential, Pareto};
//! use simcore::rng::Rng;
//!
//! let mut rng = Rng::seed_from(7);
//! let exp = Exponential::unit();
//! let par = Pareto::unit_mean(2.1);
//! assert!((exp.mean() - 1.0).abs() < 1e-12);
//! assert!((par.mean() - 1.0).abs() < 1e-12);
//! // Same mean, very different variability:
//! assert!((exp.scv() - 1.0).abs() < 1e-12);
//! assert!(par.scv() > 4.0);
//! let x = exp.sample(&mut rng);
//! assert!(x > 0.0);
//! ```

use crate::rng::Rng;
use crate::special::ln_gamma;
use std::sync::Arc;

/// A (nonnegative, continuous or discrete) service-time distribution with
/// exact first two moments.
///
/// The trait is object-safe; use [`DynDist`] (an `Arc`) where heterogeneous
/// distributions must be stored, cloned, and shared.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draws one variate. All randomness comes from `rng`, so sampling is
    /// bit-reproducible given the seed.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// Exact mean, or `f64::INFINITY` when the first moment diverges.
    fn mean(&self) -> f64;

    /// Exact variance, or `f64::INFINITY` when the second moment diverges.
    fn variance(&self) -> f64;

    /// Squared coefficient of variation `Var[S]/E[S]²` — the x-axis of the
    /// paper's variability sweeps (0 = deterministic, 1 = exponential).
    fn scv(&self) -> f64 {
        let m = self.mean();
        self.variance() / (m * m)
    }

    /// Alias for [`scv`](Self::scv) (`c²` in the queueing literature).
    fn cv2(&self) -> f64 {
        self.scv()
    }

    /// Short human-readable name with parameters, for reports and
    /// assertion messages.
    fn label(&self) -> String;
}

/// A shared, heterogeneous distribution handle (cheap to clone).
pub type DynDist = Arc<dyn Distribution>;

/// References to distributions are distributions (lets `&dyn Distribution`
/// satisfy `D: Distribution + Clone` bounds on simulator configs).
impl<D: Distribution + ?Sized> Distribution for &D {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (**self).sample(rng)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn scv(&self) -> f64 {
        (**self).scv()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

impl Distribution for Box<dyn Distribution> {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (**self).sample(rng)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn scv(&self) -> f64 {
        (**self).scv()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

impl Distribution for Arc<dyn Distribution> {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (**self).sample(rng)
    }
    fn mean(&self) -> f64 {
        (**self).mean()
    }
    fn variance(&self) -> f64 {
        (**self).variance()
    }
    fn scv(&self) -> f64 {
        (**self).scv()
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

// ---------------------------------------------------------------------------
// Degenerate and uniform
// ---------------------------------------------------------------------------

/// A point mass: every sample is exactly `value`. The paper's conjectured
/// worst case for replication (Theorem 2 / Conjecture 1).
#[derive(Clone, Copy, Debug)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Point mass at `value` (must be finite and ≥ 0).
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0, "Deterministic({value})");
        Deterministic { value }
    }

    /// Point mass at 1 — the unit-mean member.
    pub fn unit() -> Self {
        Deterministic::new(1.0)
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
    fn label(&self) -> String {
        format!("Deterministic({})", self.value)
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)` with `0 ≤ lo ≤ hi`, both finite (service
    /// times are nonnegative).
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi,
            "Uniform({lo}, {hi})"
        );
        Uniform { lo, hi }
    }

    /// Unit-mean member with the given half-width `w ∈ [0, 1]`:
    /// uniform on `[1 − w, 1 + w]`.
    pub fn unit_mean(half_width: f64) -> Self {
        assert!((0.0..=1.0).contains(&half_width));
        Uniform::new(1.0 - half_width, 1.0 + half_width)
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.f64_range(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
    fn label(&self) -> String {
        format!("Uniform({}, {})", self.lo, self.hi)
    }
}

// ---------------------------------------------------------------------------
// The light-tailed ladder: exponential, Erlang, hyper-exponential
// ---------------------------------------------------------------------------

/// Exponential with rate `λ` (mean `1/λ`, scv 1). Theorem 1's service law.
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with the given rate (> 0).
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "Exponential rate {rate}");
        Exponential { rate }
    }

    /// Exponential with the given mean (> 0).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "Exponential mean {mean}");
        Exponential { rate: 1.0 / mean }
    }

    /// The unit-mean member (rate 1).
    pub fn unit() -> Self {
        Exponential { rate: 1.0 }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.exponential(self.rate)
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
    fn label(&self) -> String {
        format!("Exponential(rate={})", self.rate)
    }
}

/// Erlang-k: the sum of `k` i.i.d. exponentials (scv `1/k`) — the bridge
/// between deterministic (`k → ∞`) and exponential (`k = 1`) service.
#[derive(Clone, Copy, Debug)]
pub struct Erlang {
    k: u32,
    rate: f64,
}

impl Erlang {
    /// Erlang with `k ≥ 1` stages, each at `rate` (> 0). Mean `k/rate`.
    pub fn new(k: u32, rate: f64) -> Self {
        assert!(k >= 1, "Erlang needs k >= 1");
        assert!(rate > 0.0 && rate.is_finite(), "Erlang rate {rate}");
        Erlang { k, rate }
    }

    /// The unit-mean member with `k` stages (per-stage rate `k`).
    pub fn unit_mean(k: u32) -> Self {
        Erlang::new(k, k as f64)
    }
}

impl Distribution for Erlang {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Sum of exponentials: exact, branch-free, and k is small in every
        // workload here (≤ ~16).
        (0..self.k).map(|_| rng.exponential(self.rate)).sum()
    }
    fn mean(&self) -> f64 {
        self.k as f64 / self.rate
    }
    fn variance(&self) -> f64 {
        self.k as f64 / (self.rate * self.rate)
    }
    fn label(&self) -> String {
        format!("Erlang(k={}, rate={})", self.k, self.rate)
    }
}

/// Two-branch hyper-exponential (H₂) with balanced means — the standard
/// two-moment fit for scv > 1: branch `i` is chosen with probability `pᵢ`
/// and then serviced at rate `μᵢ`, with `p₁/μ₁ = p₂/μ₂`.
#[derive(Clone, Copy, Debug)]
pub struct HyperExponential {
    p1: f64,
    r1: f64,
    r2: f64,
}

impl HyperExponential {
    /// General two-branch form: probability `p1` of rate `r1`, else `r2`.
    pub fn new(p1: f64, r1: f64, r2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p1), "H2 p1 {p1}");
        assert!(r1 > 0.0 && r2 > 0.0, "H2 rates must be positive");
        HyperExponential { p1, r1, r2 }
    }

    /// The unit-mean member with the given squared coefficient of
    /// variation (`scv ≥ 1`; `scv = 1` degenerates to `Exponential::unit`),
    /// using the balanced-means parameterization.
    pub fn unit_mean_with_scv(scv: f64) -> Self {
        assert!(scv >= 1.0, "H2 needs scv >= 1, got {scv}");
        // p1 = (1 + sqrt((c²−1)/(c²+1)))/2, μi = 2 pi: mean = 1, scv = c².
        let g = ((scv - 1.0) / (scv + 1.0)).sqrt();
        let p1 = 0.5 * (1.0 + g);
        let p2 = 1.0 - p1;
        HyperExponential::new(p1, 2.0 * p1, 2.0 * p2)
    }

    fn second_raw(&self) -> f64 {
        let p2 = 1.0 - self.p1;
        2.0 * (self.p1 / (self.r1 * self.r1) + p2 / (self.r2 * self.r2))
    }
}

impl Distribution for HyperExponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let rate = if rng.chance(self.p1) { self.r1 } else { self.r2 };
        rng.exponential(rate)
    }
    fn mean(&self) -> f64 {
        self.p1 / self.r1 + (1.0 - self.p1) / self.r2
    }
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.second_raw() - m * m
    }
    fn label(&self) -> String {
        format!("H2(p1={:.4}, r1={:.4}, r2={:.4})", self.p1, self.r1, self.r2)
    }
}

// ---------------------------------------------------------------------------
// Heavy tails: Pareto, bounded Pareto, Weibull, log-normal
// ---------------------------------------------------------------------------

/// Pareto with tail index `α` and minimum `x_m`:
/// `P(X > x) = (x_m/x)^α` for `x ≥ x_m`. The mean diverges for `α ≤ 1`
/// and the variance for `α ≤ 2` — Theorem 3's regime.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    alpha: f64,
    xm: f64,
}

impl Pareto {
    /// Pareto with tail index `alpha` (> 0) and scale `xm` (> 0).
    pub fn new(alpha: f64, xm: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "Pareto alpha {alpha}");
        assert!(xm > 0.0 && xm.is_finite(), "Pareto xm {xm}");
        Pareto { alpha, xm }
    }

    /// The unit-mean member with tail index `alpha > 1`
    /// (`x_m = (α−1)/α`).
    pub fn unit_mean(alpha: f64) -> Self {
        assert!(alpha > 1.0, "unit-mean Pareto needs alpha > 1");
        Pareto::new(alpha, (alpha - 1.0) / alpha)
    }

    /// The Figure 2(b) parameterization: unit-mean Pareto with tail index
    /// `α = 1 + 1/β` for `β ∈ (0, 1)`. `β → 0` is nearly deterministic;
    /// `β → 1` approaches `α = 2`, where the variance blows up.
    ///
    /// This is the only mapping consistent with the figure's behaviour at
    /// both ends of its axis: the threshold must fall toward the
    /// deterministic ~0.26 as `β → 0` (so `α` must diverge there, ruling
    /// out `α = 1 + β`) and climb toward the 50 % ceiling as `β → 1`
    /// (finite mean, exploding variance — exactly `α → 2`). A direct
    /// check against the paper's axis label is still outstanding: only
    /// the abstract is on file (see PAPERS.md), and
    /// `pareto_inverse_scale_axis_endpoints` pins the mapping so any
    /// future correction is a deliberate, test-visible change.
    pub fn unit_mean_inverse_scale(beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0, "Pareto inverse scale {beta}");
        Pareto::unit_mean(1.0 + 1.0 / beta)
    }

    /// The tail index α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF on U in (0, 1]: x_m · U^{−1/α}.
        self.xm * rng.f64_open().powf(-1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }
    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
    fn label(&self) -> String {
        format!("Pareto(alpha={}, xm={:.4})", self.alpha, self.xm)
    }
}

/// Pareto truncated to `[lo, hi]`: density `∝ x^{−α−1}` on the interval.
/// All moments are finite regardless of `α`, which is what lets the §2.2
/// file-size workload be heavy-spread without terabyte outliers.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Bounded Pareto with tail index `alpha > 0` on `[lo, hi]`,
    /// `0 < lo < hi`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "BoundedPareto alpha {alpha}");
        assert!(0.0 < lo && lo < hi && hi.is_finite(), "BoundedPareto [{lo}, {hi}]");
        BoundedPareto { alpha, lo, hi }
    }

    /// Raw moment `E[X^n]` (closed form; handles the `α = n` removable
    /// singularity via the logarithmic limit).
    fn raw_moment(&self, n: f64) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        // Normalizing constant of the truncated density: C = α l^α / (1 − (l/h)^α).
        let c = a * l.powf(a) / (1.0 - (l / h).powf(a));
        if (a - n).abs() < 1e-12 {
            // ∫ x^{n−α−1} dx degenerates to a log (n − α ≈ 0).
            c * (h / l).ln() * l.powf(n - a)
        } else {
            c * (h.powf(n - a) - l.powf(n - a)) / (n - a)
        }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inverse CDF of the truncated Pareto.
        let u = rng.f64();
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.raw_moment(2.0) - m * m
    }
    fn label(&self) -> String {
        format!("BoundedPareto(alpha={}, {}..{})", self.alpha, self.lo, self.hi)
    }
}

/// Weibull with shape `k` and scale `λ`:
/// `P(X > x) = e^{−(x/λ)^k}`. `k = 1` is exponential; `k < 1` is
/// heavier-than-exponential (the Figure 2(a) direction).
#[derive(Clone, Copy, Debug)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Weibull with the given shape and scale (both > 0).
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "Weibull shape {shape}");
        assert!(scale > 0.0 && scale.is_finite(), "Weibull scale {scale}");
        Weibull { shape, scale }
    }

    /// The unit-mean member with the given shape
    /// (`λ = 1/Γ(1 + 1/k)`).
    pub fn unit_mean(shape: f64) -> Self {
        assert!(shape > 0.0, "Weibull shape {shape}");
        let scale = (-ln_gamma(1.0 + 1.0 / shape)).exp();
        Weibull::new(shape, scale)
    }

    /// The Figure 2(a) parameterization: unit-mean Weibull with shape
    /// `k = 1/γ`. `γ < 1` is lighter than exponential, `γ > 1` heavier.
    pub fn unit_mean_inverse_shape(gamma: f64) -> Self {
        assert!(gamma > 0.0, "Weibull inverse shape {gamma}");
        Weibull::unit_mean(1.0 / gamma)
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale * (-rng.f64_open().ln()).powf(1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        self.scale * ln_gamma(1.0 + 1.0 / self.shape).exp()
    }
    fn variance(&self) -> f64 {
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }
    fn label(&self) -> String {
        format!("Weibull(k={}, scale={:.4})", self.shape, self.scale)
    }
}

/// Log-normal: `exp(μ + σZ)` for standard normal `Z`. The WAN models'
/// workhorse (RTT jitter, resolver miss times, memcached service bodies).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal from the underlying normal's parameters (`sigma ≥ 0`).
    pub fn from_mu_sigma(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Log-normal with the given *distribution* mean (> 0) and underlying
    /// normal σ: `μ = ln(mean) − σ²/2`.
    pub fn with_mean_sigma(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "LogNormal mean {mean}");
        LogNormal::from_mu_sigma(mean.ln() - 0.5 * sigma * sigma, sigma)
    }

    /// The unit-mean member with the given σ.
    pub fn unit_mean(sigma: f64) -> Self {
        LogNormal::with_mean_sigma(1.0, sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * rng.normal()).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
    fn label(&self) -> String {
        format!("LogNormal(mu={:.4}, sigma={})", self.mu, self.sigma)
    }
}

// ---------------------------------------------------------------------------
// Two-point and composition
// ---------------------------------------------------------------------------

/// The paper's Figure 2(c) two-point family: mass `p` at `1/2` and mass
/// `1 − p` at `1/2 + 1/(2(1−p))`. Unit mean for every `p ∈ [0, 1)`;
/// `p = 0` is the deterministic unit; as `p → 1` a shrinking fraction of
/// requests carries a growing "giant" service time
/// (`Var = p/(4(1−p))`, e.g. 4.75 at `p = 0.95`).
#[derive(Clone, Copy, Debug)]
pub struct TwoPoint {
    p: f64,
}

impl TwoPoint {
    /// The family member at `p ∈ [0, 1)`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "TwoPoint p {p}");
        TwoPoint { p }
    }

    /// The common (low) value, `1/2`.
    pub fn low(&self) -> f64 {
        0.5
    }

    /// The rare (giant) value, `1/2 + 1/(2(1−p))`.
    pub fn high(&self) -> f64 {
        0.5 + 0.5 / (1.0 - self.p)
    }
}

impl Distribution for TwoPoint {
    fn sample(&self, rng: &mut Rng) -> f64 {
        if rng.chance(self.p) {
            self.low()
        } else {
            self.high()
        }
    }
    fn mean(&self) -> f64 {
        1.0
    }
    fn variance(&self) -> f64 {
        self.p / (4.0 * (1.0 - self.p))
    }
    fn label(&self) -> String {
        format!("TwoPoint(p={})", self.p)
    }
}

/// A finite mixture of distributions: component `i` is selected with its
/// (normalized) weight, then sampled. Moments are exact via the law of
/// total expectation/variance.
#[derive(Clone, Debug)]
pub struct Mixture {
    components: Vec<(f64, DynDist)>,
}

impl Mixture {
    /// A mixture from `(weight, distribution)` pairs. Weights must be
    /// nonnegative with a positive sum; they are normalized internally.
    pub fn new(components: Vec<(f64, DynDist)>) -> Self {
        assert!(!components.is_empty(), "empty mixture");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            total > 0.0 && total.is_finite() && components.iter().all(|(w, _)| *w >= 0.0),
            "mixture weights must be nonnegative with positive sum"
        );
        Mixture {
            components: components.into_iter().map(|(w, d)| (w / total, d)).collect(),
        }
    }

    /// Convenience two-component mixture.
    pub fn of_two<A, B>(w1: f64, d1: A, w2: f64, d2: B) -> Self
    where
        A: Distribution + 'static,
        B: Distribution + 'static,
    {
        Mixture::new(vec![(w1, Arc::new(d1) as DynDist), (w2, Arc::new(d2) as DynDist)])
    }

    fn second_raw(&self) -> f64 {
        self.components
            .iter()
            .map(|(w, d)| {
                let m = d.mean();
                w * (d.variance() + m * m)
            })
            .sum()
    }

    /// Selects the component for a uniform draw `u`. Cumulative-weight
    /// rounding can leave `u` past every component; the fallback must then
    /// pick the last *positive-weight* component — a trailing zero-weight
    /// entry has probability zero and must never be sampled.
    fn component_for(&self, mut u: f64) -> &DynDist {
        for (w, d) in &self.components {
            if u < *w {
                return d;
            }
            u -= w;
        }
        &self
            .components
            .iter()
            .rev()
            .find(|(w, _)| *w > 0.0)
            .expect("mixture has a positive-weight component")
            .1
    }
}

impl Distribution for Mixture {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.f64();
        self.component_for(u).sample(rng)
    }
    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.second_raw() - m * m
    }
    fn label(&self) -> String {
        let parts: Vec<String> = self
            .components
            .iter()
            .map(|(w, d)| format!("{w:.4}*{}", d.label()))
            .collect();
        format!("Mixture({})", parts.join(" + "))
    }
}

/// A distribution translated by a constant offset: `offset + X`.
/// Models a fixed cost (propagation, syscall) in front of a variable one.
#[derive(Clone, Debug)]
pub struct Shifted {
    offset: f64,
    inner: DynDist,
}

impl Shifted {
    /// Shifts `inner` right by `offset ≥ 0`.
    pub fn new<D: Distribution + 'static>(offset: f64, inner: D) -> Self {
        assert!(offset >= 0.0 && offset.is_finite(), "Shifted offset {offset}");
        Shifted {
            offset,
            inner: Arc::new(inner),
        }
    }

    /// Shifts an already-shared distribution.
    pub fn of(offset: f64, inner: DynDist) -> Self {
        assert!(offset >= 0.0 && offset.is_finite(), "Shifted offset {offset}");
        Shifted { offset, inner }
    }
}

impl Distribution for Shifted {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.offset + self.inner.sample(rng)
    }
    fn mean(&self) -> f64 {
        self.offset + self.inner.mean()
    }
    fn variance(&self) -> f64 {
        self.inner.variance()
    }
    fn label(&self) -> String {
        format!("Shifted({} + {})", self.offset, self.inner.label())
    }
}

// ---------------------------------------------------------------------------
// Discrete empirical (alias method)
// ---------------------------------------------------------------------------

/// A finite discrete distribution over arbitrary `f64` support values,
/// sampled in O(1) by Walker/Vose's alias method. This is both the
/// Figure 3 object (random unit-mean discrete service laws) and the §2.4
/// empirical flow-size workload.
#[derive(Clone, Debug)]
pub struct DiscreteEmpirical {
    values: Vec<f64>,
    probs: Vec<f64>,
    /// Alias table: `accept[i]` is the probability of keeping column `i`,
    /// otherwise `alias[i]` is emitted.
    accept: Vec<f64>,
    alias: Vec<usize>,
}

impl DiscreteEmpirical {
    /// Builds from `(value, weight)` pairs. Weights must be nonnegative
    /// with a positive sum; they are normalized to probabilities.
    /// Zero-weight values never sample.
    pub fn new(pairs: &[(f64, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empty discrete distribution");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(
            total > 0.0 && total.is_finite() && pairs.iter().all(|&(_, w)| w >= 0.0),
            "discrete weights must be nonnegative with positive sum"
        );
        let n = pairs.len();
        let values: Vec<f64> = pairs.iter().map(|&(v, _)| v).collect();
        let probs: Vec<f64> = pairs.iter().map(|&(_, w)| w / total).collect();

        // Vose's alias construction on probabilities scaled by n.
        let mut scaled: Vec<f64> = probs.iter().map(|p| p * n as f64).collect();
        let mut accept = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            accept[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (numerical slack): they keep their own column.
        for &i in small.iter().chain(large.iter()) {
            accept[i] = 1.0;
            alias[i] = i;
        }
        DiscreteEmpirical {
            values,
            probs,
            accept,
            alias,
        }
    }

    /// The same distribution rescaled so its mean is exactly 1.
    ///
    /// # Panics
    /// Panics if the current mean is not positive and finite.
    pub fn scaled_to_unit_mean(&self) -> Self {
        let m = self.mean();
        assert!(m > 0.0 && m.is_finite(), "cannot normalize mean {m}");
        let pairs: Vec<(f64, f64)> = self
            .values
            .iter()
            .zip(&self.probs)
            .map(|(&v, &p)| (v / m, p))
            .collect();
        DiscreteEmpirical::new(&pairs)
    }

    /// Support values (in construction order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Normalized probabilities (parallel to [`values`](Self::values)).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }
}

impl Distribution for DiscreteEmpirical {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let i = rng.index(self.values.len());
        if rng.f64() < self.accept[i] {
            self.values[i]
        } else {
            self.values[self.alias[i]]
        }
    }
    fn mean(&self) -> f64 {
        self.values.iter().zip(&self.probs).map(|(v, p)| v * p).sum()
    }
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.values
            .iter()
            .zip(&self.probs)
            .map(|(v, p)| p * (v - m) * (v - m))
            .sum()
    }
    fn label(&self) -> String {
        format!("DiscreteEmpirical(n={})", self.values.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample-moment check against the closed forms, at a fixed seed.
    /// Tolerances are on the *relative* error of the mean and variance
    /// (variance tolerance is looser: its estimator has ~scv²·kurtosis
    /// noise).
    fn check_moments(d: &dyn Distribution, seed: u64, n: usize, tol_mean: f64, tol_var: f64) {
        let mut rng = Rng::seed_from(seed);
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x.is_finite(), "{}: non-finite sample", d.label());
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = (sum2 / n as f64 - mean * mean).max(0.0);
        let em = d.mean();
        let ev = d.variance();
        assert!(
            (mean - em).abs() <= tol_mean * em.abs().max(1e-9),
            "{}: sample mean {mean} vs exact {em}",
            d.label()
        );
        assert!(
            (var - ev).abs() <= tol_var * ev.abs().max(1e-9),
            "{}: sample var {var} vs exact {ev}",
            d.label()
        );
    }

    /// Two same-seed streams must be byte-identical.
    fn check_deterministic(d: &dyn Distribution, seed: u64) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..1_000 {
            let x = d.sample(&mut a);
            let y = d.sample(&mut b);
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{}: same seed diverged",
                d.label()
            );
        }
    }

    /// Every family in one table: (distribution, mean tol, var tol).
    fn all_families() -> Vec<(Box<dyn Distribution>, f64, f64)> {
        vec![
            (Box::new(Deterministic::unit()), 1e-12, 1e-12),
            (Box::new(Deterministic::new(3.5)), 1e-12, 1e-12),
            (Box::new(Uniform::new(0.5, 1.5)), 0.005, 0.02),
            (Box::new(Uniform::unit_mean(0.25)), 0.005, 0.02),
            (Box::new(Exponential::unit()), 0.01, 0.03),
            (Box::new(Exponential::with_mean(0.25)), 0.01, 0.03),
            (Box::new(Exponential::with_rate(4.0)), 0.01, 0.03),
            (Box::new(Erlang::unit_mean(2)), 0.01, 0.03),
            (Box::new(Erlang::unit_mean(8)), 0.01, 0.03),
            (Box::new(Erlang::new(3, 0.5)), 0.01, 0.03),
            (Box::new(HyperExponential::unit_mean_with_scv(1.0)), 0.01, 0.03),
            (Box::new(HyperExponential::unit_mean_with_scv(4.0)), 0.01, 0.05),
            (Box::new(HyperExponential::unit_mean_with_scv(16.0)), 0.02, 0.10),
            (Box::new(Pareto::unit_mean(3.0)), 0.01, 0.10),
            (Box::new(Pareto::new(4.0, 2.0)), 0.01, 0.10),
            // The alpha = 1.2 bounded Pareto's second moment is dominated
            // by draws near the 4 MB cap (~2e-5 of the mass), so the
            // sample-variance estimator has ~25% standard error even at
            // 400k draws; the mean is still tight.
            (Box::new(BoundedPareto::new(1.2, 256.0, 4.0 * 1024.0 * 1024.0)), 0.05, 0.60),
            (Box::new(BoundedPareto::new(2.0, 1.0, 100.0)), 0.01, 0.10),
            (Box::new(Weibull::unit_mean(2.0)), 0.01, 0.03),
            (Box::new(Weibull::unit_mean_inverse_shape(2.0)), 0.02, 0.15),
            (Box::new(LogNormal::unit_mean(0.5)), 0.01, 0.05),
            (Box::new(LogNormal::with_mean_sigma(2.0e-3, 1.0)), 0.02, 0.10),
            (Box::new(TwoPoint::new(0.0)), 1e-12, 1e-9),
            (Box::new(TwoPoint::new(0.5)), 0.01, 0.03),
            (Box::new(TwoPoint::new(0.9)), 0.01, 0.05),
            (
                Box::new(Mixture::of_two(
                    0.9,
                    Deterministic::new(0.0),
                    0.1,
                    Exponential::with_mean(10.0),
                )),
                0.02,
                0.05,
            ),
            (Box::new(Shifted::new(2.0, Exponential::unit())), 0.01, 0.03),
            (
                Box::new(DiscreteEmpirical::new(&[(1.0, 0.5), (2.0, 0.3), (10.0, 0.2)])),
                0.01,
                0.03,
            ),
        ]
    }

    #[test]
    fn moment_matching_all_families() {
        for (i, (d, tm, tv)) in all_families().into_iter().enumerate() {
            check_moments(d.as_ref(), 0xD157 + i as u64, 400_000, tm, tv);
        }
    }

    #[test]
    fn determinism_all_families() {
        for (i, (d, _, _)) in all_families().into_iter().enumerate() {
            check_deterministic(d.as_ref(), 0x5EED + i as u64);
        }
    }

    #[test]
    fn unit_mean_constructors_are_exactly_unit() {
        let units: Vec<Box<dyn Distribution>> = vec![
            Box::new(Deterministic::unit()),
            Box::new(Uniform::unit_mean(0.5)),
            Box::new(Exponential::unit()),
            Box::new(Erlang::unit_mean(5)),
            Box::new(HyperExponential::unit_mean_with_scv(7.0)),
            Box::new(Pareto::unit_mean(2.5)),
            Box::new(Pareto::unit_mean_inverse_scale(0.5)),
            Box::new(Weibull::unit_mean(0.7)),
            Box::new(Weibull::unit_mean_inverse_shape(6.0)),
            Box::new(LogNormal::unit_mean(1.3)),
            Box::new(TwoPoint::new(0.77)),
            Box::new(
                DiscreteEmpirical::new(&[(3.0, 1.0), (9.0, 2.0)]).scaled_to_unit_mean(),
            ),
        ];
        for d in units {
            assert!(
                (d.mean() - 1.0).abs() < 1e-9,
                "{}: mean {}",
                d.label(),
                d.mean()
            );
        }
    }

    #[test]
    fn scv_ladder_is_ordered() {
        // deterministic < Erlang-4 < exponential < H2(4) on variability.
        let scvs = [
            Deterministic::unit().scv(),
            Erlang::unit_mean(4).scv(),
            Exponential::unit().scv(),
            HyperExponential::unit_mean_with_scv(4.0).scv(),
        ];
        assert!(scvs.windows(2).all(|w| w[0] < w[1]), "{scvs:?}");
        assert!((scvs[1] - 0.25).abs() < 1e-12);
        assert!((scvs[2] - 1.0).abs() < 1e-12);
        assert!((scvs[3] - 4.0).abs() < 1e-9);
        // cv2 is an alias.
        assert_eq!(Exponential::unit().cv2(), Exponential::unit().scv());
    }

    #[test]
    fn pareto_moment_divergence() {
        assert!(Pareto::new(0.9, 1.0).mean().is_infinite());
        assert!(Pareto::unit_mean(1.5).mean().is_finite());
        assert!(Pareto::unit_mean(1.5).variance().is_infinite());
        assert!(Pareto::unit_mean(2.1).variance().is_finite());
        // Unit-mean Pareto(alpha): Var = 1/(alpha(alpha-2)).
        let v = Pareto::unit_mean(2.1).variance();
        assert!((v - 1.0 / (2.1 * 0.1)).abs() < 1e-9, "{v}");
    }

    #[test]
    fn pareto_inverse_scale_axis_endpoints() {
        // Pins the Fig 2(b) axis mapping α = 1 + 1/β (see the method docs
        // for why no other mapping fits the figure's endpoints). Changing
        // the mapping must break this test, re-pin the fig2b headline band
        // in repro-bench's `bands` table, and update EXPERIMENTS.md §2.1.
        for (beta, alpha) in [(0.1, 11.0), (0.5, 3.0), (0.9, 1.0 + 1.0 / 0.9), (0.98, 1.0 + 1.0 / 0.98)] {
            let d = Pareto::unit_mean_inverse_scale(beta);
            assert!((d.alpha() - alpha).abs() < 1e-12, "beta={beta}: {}", d.alpha());
            assert!((d.mean() - 1.0).abs() < 1e-12, "beta={beta} mean {}", d.mean());
        }
        // β → 0: tail index diverges, variance vanishes (deterministic
        // limit). β → 1: α → 2 from above, variance diverges.
        assert!(Pareto::unit_mean_inverse_scale(0.05).scv() < 0.01);
        assert!(Pareto::unit_mean_inverse_scale(0.99).scv() > 20.0);
    }

    #[test]
    fn pareto_samples_respect_support() {
        let d = Pareto::unit_mean(2.5);
        let xm = (2.5 - 1.0) / 2.5;
        let mut rng = Rng::seed_from(11);
        for _ in 0..50_000 {
            assert!(d.sample(&mut rng) >= xm);
        }
    }

    #[test]
    fn bounded_pareto_support_and_spread() {
        let d = BoundedPareto::new(1.2, 256.0, 4.0 * 1024.0 * 1024.0);
        let mut rng = Rng::seed_from(13);
        let mut lo_hits = 0;
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            assert!((256.0..=4.0 * 1024.0 * 1024.0).contains(&x));
            if x < 1024.0 {
                lo_hits += 1;
            }
        }
        // Heavy concentration at the low end, long reach at the top.
        assert!(lo_hits > 60_000, "only {lo_hits} below 1 KB");
        // Mean around a KB for these parameters (the fig7 workload): the
        // closed form gives ~1315 bytes.
        assert!((500.0..8_000.0).contains(&d.mean()), "mean {}", d.mean());
    }

    #[test]
    fn bounded_pareto_alpha_equals_moment_order() {
        // alpha = 1 hits the removable singularity in E[X]; alpha = 2 in
        // E[X^2]. Check against numerically integrated truth.
        for &(alpha, lo, hi) in &[(1.0, 1.0, 50.0), (2.0, 0.5, 20.0)] {
            let d = BoundedPareto::new(alpha, lo, hi);
            check_moments(&d, 0xB0B, 400_000, 0.02, 0.05);
        }
    }

    #[test]
    fn two_point_matches_documented_variance() {
        assert!((TwoPoint::new(0.95).variance() - 4.75).abs() < 1e-12);
        let d = TwoPoint::new(0.6);
        let mut rng = Rng::seed_from(17);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!(x == d.low() || x == d.high(), "{x}");
            assert!(x > 0.0);
        }
    }

    #[test]
    fn mixture_moments_via_total_variance() {
        // Exact check: mixture of Det(0) w.p. .988 and Exp(mean 40e-3).
        let m = Mixture::of_two(
            0.988,
            Deterministic::new(0.0),
            0.012,
            Exponential::with_mean(40.0e-3),
        );
        let em = 0.012 * 40.0e-3;
        assert!((m.mean() - em).abs() < 1e-15);
        let e2 = 0.012 * 2.0 * 40.0e-3 * 40.0e-3;
        assert!((m.variance() - (e2 - em * em)).abs() < 1e-15);
    }

    #[test]
    fn mixture_weights_are_normalized() {
        let m = Mixture::of_two(2.0, Deterministic::new(1.0), 6.0, Deterministic::new(5.0));
        assert!((m.mean() - (0.25 * 1.0 + 0.75 * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn mixture_fallback_skips_zero_weight_components() {
        // Regression: with weights [1.0, 0.0], cumulative-weight rounding
        // (u falling past every `u < w` test) used to land on the final,
        // zero-weight component. The fallback must pick the last component
        // with positive weight instead. `component_for(1.0)` exercises the
        // fall-through branch directly (rng draws are < 1, but subtraction
        // slack produces the same path).
        let m = Mixture::of_two(1.0, Deterministic::new(7.0), 0.0, Deterministic::new(999.0));
        let mut rng = Rng::seed_from(0x317);
        let picked = m.component_for(1.0);
        assert_eq!(picked.sample(&mut rng), 7.0, "fallback chose a zero-weight component");
        // And ordinary sampling never emits the zero-weight value.
        for _ in 0..50_000 {
            assert_eq!(m.sample(&mut rng), 7.0);
        }
        // A zero-weight component in the middle is equally unreachable.
        let m = Mixture::new(vec![
            (0.5, Arc::new(Deterministic::new(1.0)) as DynDist),
            (0.0, Arc::new(Deterministic::new(999.0)) as DynDist),
            (0.5, Arc::new(Deterministic::new(2.0)) as DynDist),
        ]);
        assert_eq!(m.component_for(1.0).sample(&mut rng), 2.0);
    }

    #[test]
    fn shifted_translates_mean_only() {
        let s = Shifted::new(3.0, Exponential::unit());
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert!((s.variance() - 1.0).abs() < 1e-12);
        let mut rng = Rng::seed_from(19);
        for _ in 0..10_000 {
            assert!(s.sample(&mut rng) >= 3.0);
        }
    }

    #[test]
    fn discrete_alias_only_emits_support() {
        // Include zero-weight entries: they must never sample.
        let d = DiscreteEmpirical::new(&[(1.0, 0.2), (2.0, 0.0), (3.0, 0.5), (4.0, 0.0), (5.0, 0.3)]);
        let mut rng = Rng::seed_from(23);
        // BTreeMap keeps the `{counts:?}` failure message in key order and
        // stays clear of clippy's HashMap-traversal bans.
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..100_000 {
            let x = d.sample(&mut rng);
            *counts.entry(x as u64).or_insert(0usize) += 1;
        }
        assert!(!counts.contains_key(&2) && !counts.contains_key(&4), "{counts:?}");
        let f1 = counts[&1] as f64 / 100_000.0;
        let f3 = counts[&3] as f64 / 100_000.0;
        let f5 = counts[&5] as f64 / 100_000.0;
        assert!((f1 - 0.2).abs() < 0.01 && (f3 - 0.5).abs() < 0.01 && (f5 - 0.3).abs() < 0.01);
    }

    #[test]
    fn discrete_scaled_to_unit_mean() {
        let d = DiscreteEmpirical::new(&[(2.0, 1.0), (6.0, 1.0)]).scaled_to_unit_mean();
        assert!((d.mean() - 1.0).abs() < 1e-12);
        assert_eq!(d.values().len(), 2);
    }

    #[test]
    fn trait_object_and_reference_impls_agree() {
        let concrete = Exponential::unit();
        let boxed: Box<dyn Distribution> = Box::new(Exponential::unit());
        let arced: DynDist = Arc::new(Exponential::unit());
        let by_ref = &concrete;
        for d in [
            concrete.mean(),
            boxed.mean(),
            arced.mean(),
            by_ref.mean(),
            Distribution::mean(&by_ref),
        ] {
            assert_eq!(d, 1.0);
        }
        assert_eq!(boxed.label(), concrete.label());
        assert_eq!(by_ref.scv(), 1.0);
    }

    #[test]
    fn figure2_parameterizations_move_the_right_way() {
        // Fig 2(a): larger gamma (smaller shape) = heavier tail = more scv.
        let w_light = Weibull::unit_mean_inverse_shape(0.5).scv();
        let w_exp = Weibull::unit_mean_inverse_shape(1.0).scv();
        let w_heavy = Weibull::unit_mean_inverse_shape(4.0).scv();
        assert!(w_light < w_exp && w_exp < w_heavy, "{w_light} {w_exp} {w_heavy}");
        assert!((w_exp - 1.0).abs() < 1e-9, "gamma=1 is exponential");
        // Fig 2(b): larger beta = smaller alpha = heavier.
        let p_light = Pareto::unit_mean_inverse_scale(0.1).scv();
        let p_heavy = Pareto::unit_mean_inverse_scale(0.9).scv();
        assert!(p_light < p_heavy);
        // beta -> 1 approaches the alpha = 2 variance blow-up.
        assert!(Pareto::unit_mean_inverse_scale(0.98).alpha() < 2.05);
        // Fig 2(c): variance rises with p.
        assert!(TwoPoint::new(0.9).variance() > TwoPoint::new(0.2).variance());
    }

    #[test]
    #[should_panic(expected = "alpha > 1")]
    fn unit_mean_pareto_needs_finite_mean() {
        let _ = Pareto::unit_mean(1.0);
    }

    #[test]
    #[should_panic(expected = "scv >= 1")]
    fn h2_rejects_sub_exponential_scv() {
        let _ = HyperExponential::unit_mean_with_scv(0.5);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn discrete_rejects_all_zero_weights() {
        let _ = DiscreteEmpirical::new(&[(1.0, 0.0), (2.0, 0.0)]);
    }
}
