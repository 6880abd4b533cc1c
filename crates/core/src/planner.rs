//! Should you replicate? The paper's answer, as an API.
//!
//! §2.1 of the paper characterizes when always-on replication lowers mean
//! latency in a fixed-capacity system: below a **threshold load** that
//! (absent client-side cost) always lies between ~26 % and 50 % of
//! utilization, higher for more variable service times, and degraded
//! toward zero as the client-side cost of an extra copy approaches the
//! mean service time (Fig 4). [`Planner`] packages those results:
//! describe your workload ([`WorkloadProfile`]) and current utilization,
//! get back an [`Advice`] with the predicted speedup.
//!
//! The analytics are the `queuesim::analytic` two-moment model — exact for
//! M/M/1 (Theorem 1's 1/3), closed-form ≈ 0.293 for deterministic service
//! — with the client overhead applied exactly as the paper's Fig 4 does
//! (a constant added to every replicated request).
//!
//! [`LivePlanner`] runs the same rule per request on measured inputs: it
//! is the one decision loop behind both the simulated service's frontend
//! and the wall-clock runtime.

use crate::estimator::{EstimatorBank, LoadSummary, MomentEstimator, MomentSnapshot, PeerLoads};
use queuesim::analytic::pk::{self, ServiceMoments};
use queuesim::analytic::two_moment;
use simcore::stats::Welford;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// First and second moments of the backend service time, plus what an
/// extra copy costs the client.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadProfile {
    /// Mean backend service time, seconds.
    pub mean_service: f64,
    /// Squared coefficient of variation of the service time
    /// (0 = deterministic, 1 = exponential, > 1 = heavy).
    pub scv: f64,
    /// Client-side latency cost added to a request by each extra copy,
    /// seconds (network + CPU + kernel; §2.3 measured ≥ 9 % of the mean
    /// for memcached, which is what killed replication there).
    pub client_overhead: f64,
}

impl WorkloadProfile {
    /// Builds a profile from observed latency samples at *low load* (so
    /// the samples approximate service time rather than queueing) plus a
    /// measured per-copy overhead.
    pub fn from_samples(samples: &Welford, client_overhead: f64) -> Self {
        assert!(samples.count() >= 2, "need at least two samples");
        let mean = samples.mean();
        WorkloadProfile {
            mean_service: mean,
            scv: samples.variance() / (mean * mean),
            client_overhead,
        }
    }

    fn moments(&self) -> ServiceMoments {
        ServiceMoments::new(self.mean_service, self.scv * self.mean_service * self.mean_service)
    }
}

/// The two-moment model behind every threshold has no answer for a
/// service law without a finite second moment.
fn assert_finite_scv(scv: f64) {
    assert!(
        scv.is_finite(),
        "the two-moment planner needs finite service variance (scv = {scv})"
    );
}

/// What the planner recommends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Advice {
    /// `true` when 2-way replication is predicted to lower mean latency.
    pub replicate: bool,
    /// The threshold load below which replication helps this workload.
    pub threshold_load: f64,
    /// Predicted mean response time without replication, seconds.
    pub mean_single: f64,
    /// Predicted mean response time with 2 copies, seconds.
    pub mean_replicated: f64,
}

impl Advice {
    /// Predicted speedup factor (`> 1` means replication wins).
    pub fn speedup(&self) -> f64 {
        self.mean_single / self.mean_replicated
    }
}

/// A per-request replication decision against the *load shape* — the
/// output of [`Planner::decide_for`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairDecision {
    /// `true` when every candidate server sits below the threshold.
    pub replicate: bool,
    /// The §2.1 threshold load the candidates were compared against
    /// (resolved through the [`ThresholdCache`] grid).
    pub threshold_load: f64,
    /// The binding utilization: the maximum over the candidate servers.
    pub max_load: f64,
}

/// The replication planner for 2-way replication in a fixed-size cluster.
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    profile: WorkloadProfile,
}

impl Planner {
    /// Creates a planner for a workload.
    ///
    /// # Panics
    /// Panics on a non-finite SCV (a service law with infinite variance,
    /// such as a Pareto with `α ≤ 2`), a non-positive mean, a negative
    /// SCV, or a negative overhead.
    pub fn new(profile: WorkloadProfile) -> Self {
        assert_finite_scv(profile.scv);
        assert!(profile.mean_service > 0.0 && profile.scv >= 0.0);
        assert!(profile.client_overhead >= 0.0);
        Planner { profile }
    }

    /// The workload profile this planner was built from.
    pub fn profile(&self) -> WorkloadProfile {
        self.profile
    }

    /// The threshold load for this workload: the largest utilization below
    /// which 2-way replication still lowers the mean (0 when the client
    /// overhead already exceeds any possible gain).
    pub fn threshold_load(&self) -> f64 {
        two_moment::threshold(self.profile.moments(), self.profile.client_overhead)
    }

    /// Per-request decision for one request's candidate servers: replicate
    /// exactly when the **maximum** estimated utilization among
    /// `pair_loads` (typically the two stored replicas of the requested
    /// shard, from an [`crate::estimator::EstimatorBank`]) sits below this
    /// workload's §2.1 threshold.
    ///
    /// This is the skew-aware refinement of [`advise`](Self::advise): a
    /// *global* load estimate flips every request at once, while comparing
    /// each request's own candidate pair lets requests whose servers are
    /// cold keep replicating after requests landing on hot servers have
    /// switched off. The max is the right aggregate because a duplicated
    /// request adds a copy to *both* candidates — the §2.1 trade is only
    /// safe if the busier of the two can still absorb it.
    ///
    /// The threshold is resolved through `cache` (the quantized
    /// dimensionless grid), so the per-request cost is a hash lookup, not
    /// a bisection.
    ///
    /// # Panics
    /// Panics on an empty candidate slice; debug-panics on non-finite or
    /// negative loads.
    pub fn decide_for(&self, cache: &mut ThresholdCache, pair_loads: &[f64]) -> PairDecision {
        assert!(
            !pair_loads.is_empty(),
            "decide_for needs at least one candidate load"
        );
        let max_load = pair_loads.iter().fold(f64::NEG_INFINITY, |a, &b| {
            debug_assert!(b.is_finite() && b >= 0.0, "bad candidate load {b}");
            a.max(b)
        });
        let threshold_load = cache.threshold(
            self.profile.mean_service,
            self.profile.scv,
            self.profile.client_overhead,
        );
        PairDecision {
            replicate: max_load < threshold_load,
            threshold_load,
            max_load,
        }
    }

    /// Advice at the given per-server utilization.
    pub fn advise(&self, load: f64) -> Advice {
        assert!((0.0..1.0).contains(&load), "load out of range: {load}");
        let s = self.profile.moments();
        let mean_single = pk::mean_response(s, load);
        let mean_replicated = if 2.0 * load < 1.0 {
            two_moment::mean_response_replicated(s, load, 2) + self.profile.client_overhead
        } else {
            f64::INFINITY
        };
        Advice {
            replicate: mean_replicated < mean_single,
            threshold_load: self.threshold_load(),
            mean_single,
            mean_replicated,
        }
    }
}

/// Memoized threshold lookup for **live recalibration**.
///
/// The threshold load is dimensionless: rescaling time scales every mean in
/// `gain(ρ)` by the same factor, so the root depends only on the service
/// SCV and the overhead-to-mean ratio. A self-calibrating front-end
/// re-deriving the threshold as its moment estimates drift would otherwise
/// pay the full bisection (3–10 ms of CCDF quadrature in a release build)
/// on every recalibration; this cache snaps the two dimensionless inputs onto
/// a ~2 %-relative grid and bisects once per grid point, so a converging
/// estimator quickly stops paying anything at all.
///
/// Quantization error is bounded by the grid, per axis: along the SCV
/// axis the threshold moves by less than ~0.002 load across one step
/// anywhere on the curve; along the overhead axis the curve has a cliff
/// (Fig 4 collapses the threshold as overhead approaches the mean —
/// slope ~30 load per unit ratio right before extinction), so that axis
/// uses a finer 5e-4 step, bounding the error there by ~0.01 load — well
/// inside the ±0.05–0.08 bands the experiments enforce. Both bounds are
/// pinned in the tests below.
///
/// Every handle also consults a **process-wide** store on a local miss:
/// a grid point's threshold is a pure function of its key, so replications
/// of the same workload (and parallel runner threads) share each other's
/// bisections instead of re-paying them. The store is an `RwLock`: the
/// steady state is all reads, so F sharded frontends (or N runner threads)
/// resolve warm grid points concurrently instead of serializing behind one
/// mutex — and each handle's private memo means a warm frontend stops
/// touching the shared store at all. The bisection itself runs outside
/// any lock — two threads racing on a fresh key may both compute it, but
/// they compute the identical value, so results stay bit-reproducible at
/// any thread count.
#[derive(Clone, Debug, Default)]
pub struct ThresholdCache {
    // Determinism audit (clippy's hash-traversal bans): HashMap is safe here
    // because every access is a keyed get/insert on the quantized grid
    // point — the map is never traversed, so iteration order can't leak
    // into results. Keep it that way; a traversal must move to BTreeMap.
    map: HashMap<(i64, i64), f64>,
}

/// Process-wide grid-point store backing every [`ThresholdCache`] handle.
/// Read-mostly: warm lookups take the shared read lock; only the first
/// resolution of a grid point takes the write lock.
static SHARED_THRESHOLDS: OnceLock<RwLock<HashMap<(i64, i64), f64>>> = OnceLock::new();

impl ThresholdCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct grid points resolved through this handle (diagnostic).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no grid point has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Absolute grid below 2 (step 0.02), log grid above (5 % relative,
    /// where the threshold curve is nearly flat) — continuous at the seam.
    fn quantize_scv(scv: f64) -> i64 {
        if scv <= 2.0 {
            (scv / 0.02).round() as i64
        } else {
            100 + ((scv / 2.0).ln() / 0.05).round() as i64
        }
    }

    fn dequantize_scv(key: i64) -> f64 {
        if key <= 100 {
            key as f64 * 0.02
        } else {
            2.0 * ((key - 100) as f64 * 0.05).exp()
        }
    }

    /// The §2.1 threshold load for live moments `(mean_service, scv)` and
    /// per-copy `client_overhead`, memoized on the quantized
    /// `(scv, overhead/mean)` grid.
    ///
    /// # Panics
    /// Panics on a non-finite SCV, a non-positive mean, a negative SCV, or
    /// a negative overhead.
    pub fn threshold(&mut self, mean_service: f64, scv: f64, client_overhead: f64) -> f64 {
        assert_finite_scv(scv);
        assert!(mean_service > 0.0, "mean must be positive: {mean_service}");
        assert!(scv >= 0.0 && client_overhead >= 0.0);
        let key = (
            Self::quantize_scv(scv),
            (client_overhead / mean_service / 5.0e-4).round() as i64,
        );
        if let Some(&t) = self.map.get(&key) {
            return t;
        }
        let shared = SHARED_THRESHOLDS.get_or_init(Default::default);
        if let Some(&t) = shared.read().expect("threshold store poisoned").get(&key) {
            self.map.insert(key, t);
            return t;
        }
        // Bisect at the grid representative in unit-mean time, so every
        // (mean, overhead) pair mapping to the same key agrees exactly.
        let t = Planner::new(WorkloadProfile {
            mean_service: 1.0,
            scv: Self::dequantize_scv(key.0),
            client_overhead: key.1 as f64 * 5.0e-4,
        })
        .threshold_load();
        self.map.insert(key, t);
        shared
            .write()
            .expect("threshold store poisoned")
            .insert(key, t);
        t
    }
}

/// The live decision loop — the one implementation of the per-request
/// §2.1 rule, run by the simulated frontend lanes and the wall-clock
/// runtime alike. It owns an [`EstimatorBank`] (width 1 for a global load
/// estimate, one index per server otherwise), the [`PeerLoads`] board,
/// an optional [`MomentEstimator`] and a [`ThresholdCache`].
///
/// A warm index's load is `(own + peer rates) · live mean / split`; a cold
/// one reads `cold_load`. The threshold starts at the configured-moment
/// value and, once the moment window is trusted, is re-derived through
/// the cache every `recalibrate` observed demands.
#[derive(Clone, Debug)]
pub struct LivePlanner {
    planner: Planner,
    bank: EstimatorBank,
    peers: PeerLoads,
    moments: Option<MomentEstimator>,
    min_samples: usize,
    recalibrate: u64,
    observed: u64,
    recalibrations: u64,
    cache: ThresholdCache,
    threshold: f64,
    cold_load: f64,
}

impl LivePlanner {
    /// A loop over `width` arrival estimators of `window` gaps each, with
    /// a board for `peers` frontends, starting from `threshold` (callers
    /// pass `planner.threshold_load()`, bisected once however many loops
    /// they build).
    ///
    /// # Panics
    /// Panics if `width == 0` or `window < 2`.
    pub fn new(
        planner: Planner,
        threshold: f64,
        width: usize,
        window: usize,
        peers: usize,
        cold_load: f64,
    ) -> Self {
        LivePlanner {
            planner,
            bank: EstimatorBank::new(width, window),
            peers: PeerLoads::new(peers, width),
            moments: None,
            min_samples: 0,
            recalibrate: 1,
            observed: 0,
            recalibrations: 0,
            cache: ThresholdCache::new(),
            threshold,
            cold_load,
        }
    }

    /// Self-calibration: a moment window of `window` demands, trusted from
    /// `min_samples` on, recalibrating every `recalibrate` observations.
    ///
    /// # Panics
    /// Panics if `min_samples` is outside `[2, window]` or `recalibrate`
    /// is 0.
    pub fn with_moments(mut self, window: usize, min_samples: usize, recalibrate: usize) -> Self {
        assert!(
            (2..=window).contains(&min_samples),
            "min_samples must be in [2, window]: {min_samples} vs {window}"
        );
        assert!(recalibrate >= 1, "recalibrate cadence must be >= 1");
        self.moments = Some(MomentEstimator::new(window));
        self.min_samples = min_samples;
        self.recalibrate = recalibrate as u64;
        self
    }

    /// Observes one arrival at `now` on each of `indices`; `true` (replicate)
    /// when the largest of their loads sits below the threshold.
    pub fn decide(&mut self, now: f64, indices: &[u16], split: f64) -> bool {
        let mean = self.live_mean();
        let mut max_load = 0.0f64;
        for &i in indices {
            let i = i as usize;
            self.bank.observe_arrival(i, now);
            let load = if self.bank.get(i).is_warm() {
                self.peers.total_rate(i, self.bank.rate(i)) * mean / split
            } else {
                self.cold_load
            };
            max_load = max_load.max(load);
        }
        max_load < self.threshold
    }

    /// Ingests one per-copy service demand, recalibrating on the cadence
    /// (a no-op without [`with_moments`](Self::with_moments)).
    pub fn observe_demand(&mut self, demand: f64) {
        if let Some(me) = self.moments.as_mut() {
            me.observe(demand);
            self.observed += 1;
            if me.len() >= self.min_samples && self.observed.is_multiple_of(self.recalibrate) {
                let overhead = self.planner.profile().client_overhead;
                self.threshold = self.cache.threshold(me.mean(), me.scv(), overhead);
                self.recalibrations += 1;
            }
        }
    }

    /// The trusted window's mean service time, else the configured one.
    pub fn live_mean(&self) -> f64 {
        match &self.moments {
            Some(me) if me.len() >= self.min_samples => me.mean(),
            _ => self.planner.profile().mean_service,
        }
    }

    /// The threshold in force.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Threshold recalibrations so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// The moment window's trust gate (0 without one).
    pub fn min_samples(&self) -> usize {
        self.min_samples
    }

    /// A mergeable snapshot of the moment window, if there is one.
    pub fn moment_snapshot(&self) -> Option<MomentSnapshot> {
        self.moments.as_ref().map(MomentEstimator::snapshot)
    }

    /// Own plus peer rates summed over the indices and divided by `split`
    /// (the indices each arrival was reported to); `None` while all cold.
    pub fn rate_sum(&self, split: f64) -> Option<f64> {
        let width = self.bank.len();
        (0..width).any(|i| self.bank.get(i).is_warm()).then(|| {
            (0..width)
                .map(|i| self.peers.total_rate(i, self.bank.rate(i)))
                .sum::<f64>()
                / split
        })
    }

    /// This loop's per-index rates, for broadcast to its peers.
    pub fn summary(&self) -> LoadSummary {
        self.bank.summary()
    }

    /// Files the latest summary heard from `peer`.
    pub fn apply_summary(&mut self, peer: usize, summary: LoadSummary) {
        self.peers.apply(peer, summary);
    }

    /// Widens estimators and peer board to `width` (new indices start cold).
    pub fn grow_to(&mut self, width: usize) {
        self.bank.grow_to(width);
        self.peers.grow_to(width);
    }

    /// Returns index `idx` to the cold state.
    pub fn reset(&mut self, idx: usize) {
        self.bank.reset(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp_profile(overhead: f64) -> WorkloadProfile {
        WorkloadProfile {
            mean_service: 1.0,
            scv: 1.0,
            client_overhead: overhead,
        }
    }

    #[test]
    fn exponential_threshold_is_theorem_1() {
        let p = Planner::new(exp_profile(0.0));
        let t = p.threshold_load();
        assert!((t - 1.0 / 3.0).abs() < 3e-3, "threshold {t}");
    }

    #[test]
    fn advice_flips_at_threshold() {
        let p = Planner::new(exp_profile(0.0));
        assert!(p.advise(0.25).replicate);
        assert!(!p.advise(0.45).replicate);
        // Speedup sensible below threshold.
        let a = p.advise(0.2);
        assert!(a.speedup() > 1.2, "speedup {}", a.speedup());
    }

    #[test]
    fn overhead_shrinks_threshold_like_fig4() {
        let thresholds: Vec<f64> = [0.0, 0.2, 0.5, 1.0]
            .iter()
            .map(|&o| Planner::new(exp_profile(o)).threshold_load())
            .collect();
        for w in thresholds.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "not decreasing: {thresholds:?}");
        }
        assert!(thresholds[3] < 0.02, "mean-sized overhead kills it");
    }

    #[test]
    fn deterministic_floor_matches_closed_form() {
        let p = Planner::new(WorkloadProfile {
            mean_service: 5.0e-3,
            scv: 0.0,
            client_overhead: 0.0,
        });
        let t = p.threshold_load();
        let expect = two_moment::deterministic_threshold_closed_form();
        assert!((t - expect).abs() < 2e-3, "{t} vs {expect}");
    }

    #[test]
    fn profile_from_samples() {
        let mut w = Welford::new();
        // Synthetic low-load latency samples, mean ~2ms, scv ~1.
        let mut rng = simcore::rng::Rng::seed_from(5);
        for _ in 0..50_000 {
            w.push(rng.exponential(500.0));
        }
        let prof = WorkloadProfile::from_samples(&w, 0.0);
        assert!((prof.mean_service - 2e-3).abs() < 1e-4);
        assert!((prof.scv - 1.0).abs() < 0.05);
        let planner = Planner::new(prof);
        assert!((planner.threshold_load() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn threshold_cache_matches_direct_bisection_and_memoizes() {
        let mut cache = ThresholdCache::new();
        // On-grid inputs reproduce the direct bisection exactly.
        let direct = Planner::new(exp_profile(0.0)).threshold_load();
        let cached = cache.threshold(1.0, 1.0, 0.0);
        assert_eq!(cached.to_bits(), direct.to_bits());
        assert_eq!(cache.len(), 1);
        // Nearby inputs snap to the same grid point: no new bisection and
        // the identical value back.
        let near = cache.threshold(2.5e-3, 1.004, 0.0);
        assert_eq!(near.to_bits(), cached.to_bits());
        assert_eq!(cache.len(), 1);
        // Off-grid inputs land within the documented quantization error.
        for scv in [0.27, 3.3, 12.47] {
            let exact = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead: 0.0,
            })
            .threshold_load();
            let approx = cache.threshold(1.0e-3, scv, 0.0);
            assert!(
                (approx - exact).abs() < 2.5e-3,
                "scv {scv}: cached {approx} vs exact {exact}"
            );
        }
        // The overhead ratio is part of the key.
        let with_over = cache.threshold(1.0, 1.0, 0.5);
        assert!(with_over < cached, "overhead must shrink the threshold");
    }

    #[test]
    fn threshold_cache_overhead_axis_stays_in_documented_bound() {
        // The overhead axis has a cliff (Fig 4): verify the quantized
        // lookup tracks the exact bisection to the documented ~0.02 bound
        // across it, including off-grid ratios right at the steep part.
        let mut cache = ThresholdCache::new();
        for &ratio in &[0.049, 0.2513, 0.499, 0.5021, 0.601, 0.75] {
            let exact = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv: 1.0,
                client_overhead: ratio,
            })
            .threshold_load();
            let approx = cache.threshold(2.0e-3, 1.0, ratio * 2.0e-3);
            assert!(
                (approx - exact).abs() < 0.02,
                "ratio {ratio}: cached {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn thresholds_are_pinned_bit_for_bit() {
        // Each threshold's exact bits, pinned so that a speed-up of the
        // bisection cannot move an output. The keys cover the closed
        // forms (scv <= 1), the quadrature branch at the floor load
        // (scv > 1), overhead, the deterministic law whose gain crosses
        // zero twice (threshold 0 at 5e-4 overhead while scv 0.02 gets
        // ~0.30), and two near-extinction grid points where the floor
        // check's bounds straddle zero and the exact check decides (see
        // queuesim's two_moment tests).
        let grid = |scv_key: i64, over_key: i64| {
            (
                ThresholdCache::dequantize_scv(scv_key),
                over_key as f64 * 5.0e-4,
            )
        };
        let pins = [
            ((0.0, 0.0), 0x3fd2_bf2b_4a55_8eaa_u64),
            ((0.26, 0.0), 0x3fd4_f20e_2d2f_e3f4),
            ((1.0, 0.0), 0x3fd5_5509_0e99_1ff8),
            ((1.02, 0.0), 0x3fd5_5509_0e99_1ff8),
            ((4.45, 0.0), 0x3fd4_8913_9b34_a44e),
            ((10.0, 0.0), 0x3fd3_e41c_2385_4048),
            ((24.4, 0.0), 0x3fd3_5723_6e1d_eace),
            ((1.0, 0.1), 0x3fd4_4317_39e2_79de),
            ((0.0, 5.0e-4), 0),
            ((0.02, 5.0e-4), 0x3fd3_7521_e0f7_fcfe),
            (grid(83, 1200), 0),
            (grid(122, 1648), 0),
        ];
        for ((scv, client_overhead), bits) in pins {
            let t = Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead,
            })
            .threshold_load();
            assert_eq!(
                t.to_bits(),
                bits,
                "scv {scv}, overhead {client_overhead}: {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "two-moment planner needs finite service variance")]
    fn infinite_variance_is_rejected_by_the_planner() {
        let _ = Planner::new(WorkloadProfile {
            scv: f64::INFINITY,
            ..exp_profile(0.0)
        });
    }

    #[test]
    #[should_panic(expected = "two-moment planner needs finite service variance")]
    fn infinite_variance_is_rejected_by_the_cache() {
        let _ = ThresholdCache::new().threshold(1.0, f64::INFINITY, 0.0);
    }

    #[test]
    fn recalibration_swaps_moments_and_keeps_overhead() {
        // The live loop re-derives its threshold from the *measured*
        // moments and the *configured* client overhead.
        let p = Planner::new(WorkloadProfile {
            mean_service: 1.0e-3,
            scv: 1.0,
            client_overhead: 0.02e-3,
        });
        let mut lp = LivePlanner::new(p, p.threshold_load(), 1, 2, 0, 0.0).with_moments(4, 2, 2);
        // Mean 2 ms, scv 1: the measured law halves the overhead ratio.
        lp.observe_demand(0.0);
        lp.observe_demand(4.0e-3);
        assert_eq!(lp.recalibrations(), 1);
        assert_eq!(lp.live_mean(), 2.0e-3);
        let mut cache = ThresholdCache::new();
        let want = cache.threshold(2.0e-3, 1.0, 0.02e-3);
        assert_eq!(lp.threshold().to_bits(), want.to_bits());
        assert!(want > 0.0 && want < cache.threshold(2.0e-3, 1.0, 0.0));
        assert_ne!(want.to_bits(), p.threshold_load().to_bits());
    }

    #[test]
    fn two_moment_threshold_peaks_at_exponential() {
        // The approximation the planner is built on (a Myers–Vernon
        // stand-in; see queuesim::analytic::two_moment) is exact at
        // scv = 1 and *degrades toward its deterministic floor* on either
        // side — the ordering the self-calibrating service experiments
        // (`fig-service-tail`) pin end-to-end.
        let at = |scv: f64| {
            Planner::new(WorkloadProfile {
                mean_service: 1.0,
                scv,
                client_overhead: 0.0,
            })
            .threshold_load()
        };
        let exp = at(1.0);
        assert!((exp - 1.0 / 3.0).abs() < 3e-3);
        assert!(at(0.27) < exp, "light tail must sit below exponential");
        assert!(at(12.0) < exp, "heavy tail must sit below exponential");
        assert!(at(12.0) > at(0.0), "heavy stays above the deterministic floor");
    }

    #[test]
    fn decide_for_binds_on_the_hottest_candidate() {
        let p = Planner::new(exp_profile(0.0));
        let mut cache = ThresholdCache::new();
        let threshold = cache.threshold(1.0, 1.0, 0.0);
        // Both candidates cold: replicate, and the reported threshold is
        // exactly the cached grid value.
        let d = p.decide_for(&mut cache, &[0.1, 0.2]);
        assert!(d.replicate);
        assert_eq!(d.threshold_load.to_bits(), threshold.to_bits());
        assert!((d.max_load - 0.2).abs() < 1e-12);
        // One hot candidate vetoes replication even when the other is
        // nearly idle — the skew-aware point of the entry point.
        let d = p.decide_for(&mut cache, &[0.02, 0.45]);
        assert!(!d.replicate, "hot partner must veto: {d:?}");
        assert!((d.max_load - 0.45).abs() < 1e-12);
        // Just below / just above the threshold flips the decision.
        assert!(p.decide_for(&mut cache, &[threshold - 1e-6]).replicate);
        assert!(!p.decide_for(&mut cache, &[threshold]).replicate);
        // A single-candidate slice is legal (degenerate "pair").
        assert!(p.decide_for(&mut cache, &[0.0]).replicate);
    }

    #[test]
    fn decide_for_tracks_recalibrated_moments() {
        // A deterministic workload's threshold (~0.293) is lower than the
        // exponential 1/3: a pair load between the two must replicate
        // under the exponential planner and not under the deterministic
        // one, through the same cache.
        let mut cache = ThresholdCache::new();
        let exp = Planner::new(exp_profile(0.0));
        let det = Planner::new(WorkloadProfile {
            scv: 0.0,
            ..exp_profile(0.0)
        });
        let loads = [0.30, 0.31];
        assert!(exp.decide_for(&mut cache, &loads).replicate);
        assert!(!det.decide_for(&mut cache, &loads).replicate);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn decide_for_rejects_empty_candidates() {
        let p = Planner::new(exp_profile(0.0));
        let mut cache = ThresholdCache::new();
        let _ = p.decide_for(&mut cache, &[]);
    }

    fn live(width: usize, peers: usize) -> LivePlanner {
        let p = Planner::new(exp_profile(0.0));
        LivePlanner::new(p, p.threshold_load(), width, 16, peers, 0.05)
    }

    #[test]
    fn live_planner_width_one_matches_rate_estimator_with_peers() {
        // The global-load rule spelled out by hand — one RateEstimator,
        // a peer board, `rho < threshold` — must make the same decision
        // bit for bit on a random stream with summaries arriving midway.
        use crate::estimator::RateEstimator;
        let mut lp = live(1, 3);
        let threshold = lp.threshold();
        let mut est = RateEstimator::new(16);
        let mut peers = PeerLoads::new(3, 1);
        let mut rng = simcore::rng::Rng::seed_from(0x11FE);
        let mut t = 0.0;
        let mut flips = [0usize; 2];
        for i in 0..4_000 {
            t += rng.exponential(1.0);
            if i % 97 == 0 {
                let s = LoadSummary::global(rng.f64_open() * 0.3);
                let peer = 1 + i % 2;
                peers.apply(peer, s.clone());
                lp.apply_summary(peer, s);
            }
            est.observe_arrival(t);
            let rho = if est.is_warm() {
                peers.total_rate(0, est.rate()) * 1.0 / 4.0
            } else {
                0.05
            };
            let want = rho < threshold;
            assert_eq!(lp.decide(t, &[0], 4.0), want, "request {i}");
            assert_eq!(lp.summary(), est.summary());
            flips[usize::from(want)] += 1;
        }
        assert!(flips[0] > 0 && flips[1] > 0, "both branches: {flips:?}");
        assert_eq!(
            lp.rate_sum(1.0).map(f64::to_bits),
            Some(peers.total_rate(0, est.rate()).to_bits())
        );
    }

    #[test]
    fn live_planner_recalibrates_on_cadence_through_the_cache() {
        let (window, min_samples, recalibrate) = (64usize, 20usize, 8usize);
        let mut lp = live(1, 0).with_moments(window, min_samples, recalibrate);
        let initial = lp.threshold();
        let mut me = MomentEstimator::new(window);
        let mut cache = ThresholdCache::new();
        let mut rng = simcore::rng::Rng::seed_from(7);
        for n in 1..=200usize {
            // A deterministic-ish law (scv well below 1): its cached
            // threshold differs from the exponential start.
            let d = 2.0 + 0.1 * rng.f64_open();
            lp.observe_demand(d);
            me.observe(d);
            let due = n >= min_samples && n % recalibrate == 0;
            let expect_recals = if n < min_samples {
                0
            } else {
                (n / recalibrate - (min_samples - 1) / recalibrate) as u64
            };
            assert_eq!(lp.recalibrations(), expect_recals, "after {n}");
            if n < min_samples {
                assert_eq!(lp.threshold().to_bits(), initial.to_bits());
                assert_eq!(lp.live_mean(), 1.0, "untrusted window");
            } else {
                assert_eq!(lp.live_mean().to_bits(), me.mean().to_bits());
            }
            if due {
                let want = cache.threshold(me.mean(), me.scv(), 0.0);
                assert_eq!(lp.threshold().to_bits(), want.to_bits(), "after {n}");
            }
        }
        assert!(lp.threshold() < initial, "light tail must lower the threshold");
        assert_eq!(lp.moment_snapshot(), Some(me.snapshot()));
    }

    #[test]
    fn live_planner_cold_index_reads_cold_load() {
        // Threshold ~1/3: a cold_load above it vetoes, below it replicates,
        // whatever the warm partner says.
        let p = Planner::new(exp_profile(0.0));
        let mut hot_cold = LivePlanner::new(p, p.threshold_load(), 4, 4, 0, 0.4);
        let mut cool_cold = LivePlanner::new(p, p.threshold_load(), 4, 4, 0, 0.1);
        for lp in [&mut hot_cold, &mut cool_cold] {
            for i in 0..8 {
                lp.decide(i as f64 * 100.0, &[0], 2.0);
            }
            assert!(lp.rate_sum(2.0).is_some(), "index 0 is warm");
        }
        assert!(!hot_cold.decide(1_000.0, &[0, 3], 2.0));
        assert!(cool_cold.decide(1_000.0, &[0, 3], 2.0));
        // A reset index is cold again.
        cool_cold.reset(0);
        assert!(cool_cold.rate_sum(2.0).is_none());
        cool_cold.grow_to(6);
        assert_eq!(cool_cold.summary().len(), 6);
    }

    #[test]
    #[should_panic(expected = "min_samples must be in [2, window]")]
    fn live_planner_rejects_min_samples_below_two() {
        let _ = live(1, 0).with_moments(64, 1, 8);
    }

    #[test]
    #[should_panic(expected = "min_samples must be in [2, window]")]
    fn live_planner_rejects_min_samples_above_window() {
        let _ = live(1, 0).with_moments(64, 65, 8);
    }

    #[test]
    fn never_replicate_above_half() {
        let p = Planner::new(exp_profile(0.0));
        let a = p.advise(0.6);
        assert!(!a.replicate);
        assert!(a.mean_replicated.is_infinite());
    }
}
