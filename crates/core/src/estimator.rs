//! Live workload estimation: the inputs the [`crate::planner::Planner`]
//! needs to drive per-request replication decisions on real traffic.
//!
//! The planner's advice is a function of the current per-server utilization
//! *and* the first two moments of the service time, but a front-end never
//! observes either directly — it observes an arrival stream and a stream of
//! per-copy service durations. Two estimators close that gap:
//!
//! * [`RateEstimator`] turns the arrival stream into a utilization estimate
//!   with a **windowed Welford accumulator** over inter-arrival gaps.
//! * [`MomentEstimator`] turns observed per-copy response/service times
//!   into the live mean and squared coefficient of variation the §2.1
//!   threshold depends on — the piece that makes the planner fully
//!   self-calibrating instead of trusting configured moments.
//!
//! Both share the same core: the window makes the estimates track *shifts*
//! (the whole point of switching replication off as load climbs, or
//! re-deriving the threshold when the backend's service law drifts), and
//! the Welford-style incremental update keeps mean and variance numerically
//! stable at O(1) per observation with no rescan of the window.
//!
//! The variance is exposed because it is the natural confidence signal: a
//! Poisson stream at rate λ has gap CV ≈ 1, so a window whose gap variance
//! is wildly larger than `mean²` indicates a mixed/bursty stream whose
//! rate estimate deserves less trust — and for service times the variance
//! *is* the signal (the SCV axis of the paper's Figure 2).

use std::collections::VecDeque;

/// Windowed mean/variance over the last `window` observations: classic
/// Welford while growing, single-update evict-and-admit once full. The
/// shared core of both public estimators.
#[derive(Clone, Debug)]
struct WindowedWelford {
    window: usize,
    xs: VecDeque<f64>,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's M2),
    /// maintained under both growth and sliding replacement.
    m2: f64,
}

impl WindowedWelford {
    fn new(window: usize) -> Self {
        assert!(window >= 2, "estimator window must be >= 2, got {window}");
        WindowedWelford {
            window,
            xs: VecDeque::with_capacity(window),
            mean: 0.0,
            m2: 0.0,
        }
    }

    fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        if self.xs.len() == self.window {
            // Sliding replacement: evict the oldest observation and admit
            // the new one in a single windowed-Welford update.
            let old = self.xs.pop_front().expect("window nonempty");
            self.xs.push_back(x);
            let n = self.xs.len() as f64;
            let old_mean = self.mean;
            let delta = x - old;
            self.mean += delta / n;
            self.m2 += delta * (x - self.mean + old - old_mean);
            // Replacement arithmetic can leave a tiny negative residue.
            if self.m2 < 0.0 {
                self.m2 = 0.0;
            }
        } else {
            // Growth phase: classic Welford.
            self.xs.push_back(x);
            let n = self.xs.len() as f64;
            let delta = x - self.mean;
            self.mean += delta / n;
            self.m2 += delta * (x - self.mean);
        }
    }

    fn len(&self) -> usize {
        self.xs.len()
    }

    fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the windowed observations (0 with < 2).
    fn variance(&self) -> f64 {
        if self.xs.len() < 2 {
            0.0
        } else {
            self.m2 / self.xs.len() as f64
        }
    }

    /// Discards every held observation, returning to the cold state. The
    /// configured window length is kept.
    fn reset(&mut self) {
        self.xs.clear();
        self.mean = 0.0;
        self.m2 = 0.0;
    }
}

/// Windowed mean/variance of inter-arrival gaps, with rate and utilization
/// views. All state is O(window) and every update is O(1).
#[derive(Clone, Debug)]
pub struct RateEstimator {
    gaps: WindowedWelford,
    last_arrival: Option<f64>,
}

impl RateEstimator {
    /// An estimator averaging over the last `window` inter-arrival gaps.
    ///
    /// # Panics
    /// Panics if `window < 2` — a rate cannot be estimated from fewer than
    /// two gaps without collapsing to a single-sample guess.
    pub fn new(window: usize) -> Self {
        RateEstimator {
            gaps: WindowedWelford::new(window),
            last_arrival: None,
        }
    }

    /// The configured window length (gaps).
    pub fn window(&self) -> usize {
        self.gaps.window
    }

    /// Number of gaps currently held (saturates at the window length).
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// `true` when no gap has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.gaps.len() == 0
    }

    /// `true` once at least two gaps are held — the earliest point at
    /// which [`rate`](Self::rate) returns a meaningful value.
    pub fn is_warm(&self) -> bool {
        self.gaps.len() >= 2
    }

    /// Records an arrival at absolute time `now` (same clock for every
    /// call; must be nondecreasing). The first call only anchors the
    /// clock; each subsequent call pushes one gap into the window.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous arrival.
    pub fn observe_arrival(&mut self, now: f64) {
        if let Some(last) = self.last_arrival {
            assert!(
                now >= last,
                "arrivals must be nondecreasing: {now} < {last}"
            );
            self.push_gap(now - last);
        }
        self.last_arrival = Some(now);
    }

    /// Records one inter-arrival gap directly (for callers that already
    /// difference their clock).
    pub fn push_gap(&mut self, gap: f64) {
        debug_assert!(gap >= 0.0);
        self.gaps.push(gap);
    }

    /// Forgets every held gap *and* the clock anchor, returning to the
    /// cold state (e.g. after a traffic discontinuity that would otherwise
    /// poison the window with one giant gap). The window length is kept.
    pub fn reset(&mut self) {
        self.gaps.reset();
        self.last_arrival = None;
    }

    /// Mean inter-arrival gap over the window (0 if empty).
    pub fn mean_gap(&self) -> f64 {
        self.gaps.mean()
    }

    /// Population variance of the windowed gaps (0 with < 2 gaps).
    pub fn gap_variance(&self) -> f64 {
        self.gaps.variance()
    }

    /// Estimated arrival rate, 1 / mean gap (0 until warm).
    pub fn rate(&self) -> f64 {
        if !self.is_warm() || self.gaps.mean() <= 0.0 {
            0.0
        } else {
            1.0 / self.gaps.mean()
        }
    }

    /// Estimated **baseline** per-server utilization for a cluster of
    /// `servers` identical servers with mean service time `mean_service`:
    /// `rate · E[S] / servers` — the ρ axis every threshold in the paper
    /// is defined against (what the load *would* be at k = 1, regardless
    /// of how many copies are actually being issued).
    ///
    /// A degenerate cluster (`servers == 0`) or a non-positive mean
    /// service time describes zero serviceable load, so both return 0.0
    /// — previously these were only `debug_assert`ed, which let release
    /// builds hand `inf`/NaN to the planner during topology churn.
    pub fn utilization(&self, mean_service: f64, servers: usize) -> f64 {
        if servers == 0 || mean_service.is_nan() || mean_service <= 0.0 {
            return 0.0;
        }
        self.rate() * mean_service / servers as f64
    }
}

/// An indexed array of resettable [`RateEstimator`]s — one per server —
/// turning a *routed* arrival stream into the **per-server load shape**
/// that per-request replication decisions need.
///
/// A single [`RateEstimator`] measures the front-end's aggregate rate,
/// which is the right input only when load is balanced; under a skewed
/// key mix the hottest server can run far above the cluster mean while
/// the global estimate never moves (the load-shape blindness Sparrow's
/// batch-sampling argument is about). The bank keeps one windowed gap
/// estimator per server: the caller reports each arrival *to the servers
/// it concerns* (e.g. every stored replica of the requested shard, at
/// dispatch time), and reads back per-server rates and utilizations that
/// a planner can compare against the §2.1 threshold *per request* — so
/// requests whose candidate servers are cold keep replicating after
/// requests landing on hot servers have switched off.
///
/// Every observation is O(1) (the shared `WindowedWelford` core), state
/// is O(servers × window), and each index can be [`reset`](Self::reset)
/// independently (a server that failed over should not poison its
/// successor's window with the discontinuity gap).
#[derive(Clone, Debug)]
pub struct EstimatorBank {
    estimators: Vec<RateEstimator>,
}

impl EstimatorBank {
    /// A bank of `n` independent estimators, each averaging over the last
    /// `window` inter-arrival gaps.
    ///
    /// # Panics
    /// Panics if `n == 0` or `window < 2`.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(n >= 1, "estimator bank needs at least one index");
        EstimatorBank {
            estimators: (0..n).map(|_| RateEstimator::new(window)).collect(),
        }
    }

    /// Number of indexed estimators (servers).
    pub fn len(&self) -> usize {
        self.estimators.len()
    }

    /// `true` when the bank holds no estimators (never, post-construction;
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.estimators.is_empty()
    }

    /// The configured per-index window length (gaps).
    pub fn window(&self) -> usize {
        self.estimators[0].window()
    }

    /// Read access to one index's estimator (warmth, gap variance, …).
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn get(&self, idx: usize) -> &RateEstimator {
        &self.estimators[idx]
    }

    /// Records an arrival concerning server `idx` at absolute time `now`.
    /// Clocks are per-index: only arrivals reported to the same index form
    /// gaps, so interleaving observations across servers in any order
    /// leaves each index's stream exactly as if it were fed alone.
    ///
    /// # Panics
    /// Panics on an out-of-range index or a time preceding that index's
    /// previous arrival.
    pub fn observe_arrival(&mut self, idx: usize, now: f64) {
        self.estimators[idx].observe_arrival(now);
    }

    /// Records one inter-arrival gap directly at index `idx`.
    pub fn push_gap(&mut self, idx: usize, gap: f64) {
        self.estimators[idx].push_gap(gap);
    }

    /// Resets one index to the cold state (window and clock anchor both
    /// forgotten); every other index is untouched.
    pub fn reset(&mut self, idx: usize) {
        self.estimators[idx].reset();
    }

    /// Estimated arrival rate of the stream reported to index `idx`
    /// (0 until that index is warm).
    pub fn rate(&self, idx: usize) -> f64 {
        self.estimators[idx].rate()
    }

    /// Estimated **baseline** utilization of server `idx` when each
    /// reported arrival would actually be dispatched to it with
    /// probability `1/split`: `rate(idx) · mean_service / split`.
    ///
    /// The intended feeding scheme reports every request to *all* `split`
    /// stored replicas of its shard (the candidates a k = 1 read
    /// load-balances across), so the measured per-index rate overcounts
    /// the true baseline arrival rate by exactly that factor — and, unlike
    /// counting actually-dispatched copies, is independent of the current
    /// replication decision (no feedback loop between the decision and the
    /// estimate it reads).
    ///
    /// Like [`RateEstimator::utilization`], a zero `split` or a
    /// non-positive `mean_service` describes zero serviceable load and
    /// returns 0.0 rather than `inf`/NaN.
    pub fn utilization(&self, idx: usize, mean_service: f64, split: usize) -> f64 {
        if split == 0 || mean_service.is_nan() || mean_service <= 0.0 {
            return 0.0;
        }
        self.rate(idx) * mean_service / split as f64
    }

    /// Grows the bank to `n` indices, appending cold estimators with the
    /// bank's configured window. Existing indices are untouched — a
    /// scale-out must not disturb the surviving servers' windows. No-op
    /// when the bank already holds `n` or more indices (banks never
    /// shrink: on scale-in the departed indices are [`reset`](Self::reset)
    /// and left dormant, so a later re-add starts cold).
    pub fn grow_to(&mut self, n: usize) {
        let window = self.window();
        while self.estimators.len() < n {
            self.estimators.push(RateEstimator::new(window));
        }
    }
}

/// One frontend's broadcastable contribution to the cluster-wide load
/// picture: the current rate estimate per tracked index (one entry for a
/// global estimator, one per server for an [`EstimatorBank`]).
///
/// A sharded frontend only observes the arrivals for *its own* slice of
/// the key space, so its local estimators systematically under-count
/// every server's true arrival rate. Summaries close the gap without
/// shared memory: each frontend periodically snapshots its rates, sends
/// the summary to its peers (over the engine's cross-shard wires, floored
/// at the lookahead), and combines whatever it last heard from each peer
/// with its own live estimate through [`PeerLoads`]. Rates are additive —
/// superposing the per-frontend arrival streams sums their rates — which
/// is what makes this exchange exact in steady state rather than a
/// heuristic.
///
/// A frontend sends the same summary to every peer, one clone each. A
/// single rate, the global-load case, is stored inline, so those clones
/// allocate nothing (nor does another worker's thread free anything when
/// a peer replaces one); wider summaries are boxed.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSummary {
    rates: Rates,
}

/// A summary's rates. Every width-1 summary is `One`, so the derived
/// equality compares rates however the summary was built.
#[derive(Clone, Debug, PartialEq)]
enum Rates {
    One([f64; 1]),
    Many(Box<[f64]>),
}

impl LoadSummary {
    /// A single-rate summary (the [`RateEstimator`] / global-load case).
    pub fn global(rate: f64) -> Self {
        LoadSummary {
            rates: Rates::One([rate]),
        }
    }

    /// A per-index summary (the [`EstimatorBank`] / per-server case).
    pub fn per_index(rates: Vec<f64>) -> Self {
        Self::from_rates(rates.into_iter())
    }

    /// What a peer not heard from contributes: no rates at all. Only
    /// [`PeerLoads`] holds one; every public constructor carries a rate.
    fn silent() -> Self {
        LoadSummary {
            rates: Rates::Many(Box::default()),
        }
    }

    fn from_rates(mut rates: impl ExactSizeIterator<Item = f64>) -> Self {
        let rates = match rates.len() {
            0 => panic!("summary needs at least one rate"),
            1 => Rates::One([rates.next().expect("the iterator reported one rate")]),
            _ => Rates::Many(rates.collect()),
        };
        LoadSummary { rates }
    }

    fn as_slice(&self) -> &[f64] {
        match &self.rates {
            Rates::One(rate) => rate,
            Rates::Many(rates) => rates,
        }
    }

    /// Number of indexed rates carried.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the summary carries no rates (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The rate reported for index `idx`.
    pub fn rate(&self, idx: usize) -> f64 {
        self.as_slice()[idx]
    }
}

/// The receive side of the load-summary exchange: the latest
/// [`LoadSummary`] heard from each peer frontend, combinable with the
/// local estimate by rate addition.
///
/// Missing peers (nothing heard yet) contribute zero — exactly how a cold
/// local [`RateEstimator`] reports itself — so the combined estimate warms
/// up the same way a single frontend's does.
#[derive(Clone, Debug)]
pub struct PeerLoads {
    summaries: Vec<LoadSummary>,
    indices: usize,
}

impl PeerLoads {
    /// A board for `peers` peer frontends, each summarizing `indices`
    /// rates (1 for global estimators, `servers` for a bank).
    ///
    /// # Panics
    /// Panics if `indices == 0`.
    pub fn new(peers: usize, indices: usize) -> Self {
        assert!(indices >= 1, "peer board needs at least one index");
        PeerLoads {
            summaries: vec![LoadSummary::silent(); peers],
            indices,
        }
    }

    /// Number of peer slots.
    pub fn peers(&self) -> usize {
        self.summaries.len()
    }

    /// Widens the board to `indices` rates per peer (no-op when already
    /// at least that wide). Summaries on file keep their original width
    /// — they are simply short for the new indices until the peer's
    /// next broadcast — so a scale-out never invalidates what was heard.
    pub fn grow_to(&mut self, indices: usize) {
        self.indices = self.indices.max(indices);
    }

    /// Stores the latest summary from `peer`, replacing any previous one.
    ///
    /// A summary *narrower* than the board is accepted: during elastic
    /// scale-out a peer's bank may lag a topology change by one exchange
    /// period, and its stale-width rates are still the best estimate for
    /// the indices it does carry (the missing tail reads as zero). A
    /// summary *wider* than the board still panics — that is a protocol
    /// error, not a lag.
    ///
    /// # Panics
    /// Panics on an out-of-range peer or a summary wider than the board.
    pub fn apply(&mut self, peer: usize, summary: LoadSummary) {
        assert!(
            summary.len() <= self.indices,
            "summary width mismatch: got {}, expected at most {}",
            summary.len(),
            self.indices
        );
        self.summaries[peer] = summary;
    }

    /// Sum of the peers' last-reported rates for index `idx` (peers not
    /// heard from — or whose last summary predates that index existing —
    /// contribute zero).
    pub fn peer_rate(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.indices);
        self.summaries
            .iter()
            .filter_map(|s| s.as_slice().get(idx).copied())
            .sum()
    }

    /// The cluster-wide rate for index `idx`: the caller's own live
    /// estimate plus every peer's last summary.
    pub fn total_rate(&self, idx: usize, own_rate: f64) -> f64 {
        own_rate + self.peer_rate(idx)
    }
}

impl RateEstimator {
    /// Snapshot of this estimator's current rate as a broadcastable
    /// [`LoadSummary`] (width 1).
    pub fn summary(&self) -> LoadSummary {
        LoadSummary::global(self.rate())
    }
}

impl EstimatorBank {
    /// Snapshot of every index's current rate as a broadcastable
    /// [`LoadSummary`] (width `len()`).
    pub fn summary(&self) -> LoadSummary {
        LoadSummary::from_rates(self.estimators.iter().map(|e| e.rate()))
    }
}

/// Windowed Welford estimator of the first two **service-time moments** —
/// the other half of the §2.1 threshold's inputs, measured online.
///
/// Feed it every per-copy service (or low-load response) duration the
/// front-end learns about; read back the live mean and SCV the threshold
/// is re-derived from (as [`LivePlanner`](crate::planner::LivePlanner)
/// does). Until
/// the window holds enough samples ([`len`](Self::len) against a caller-
/// chosen warm-up count, or the built-in two-sample
/// [`is_warm`](Self::is_warm) floor) a caller should fall back to its
/// configured moments — the estimator reports exactly what it holds and
/// never extrapolates.
#[derive(Clone, Debug)]
pub struct MomentEstimator {
    samples: WindowedWelford,
}

impl MomentEstimator {
    /// An estimator over the last `window` observed durations.
    ///
    /// # Panics
    /// Panics if `window < 2` — an SCV cannot be estimated from fewer than
    /// two samples.
    pub fn new(window: usize) -> Self {
        MomentEstimator {
            samples: WindowedWelford::new(window),
        }
    }

    /// The configured window length (samples).
    pub fn window(&self) -> usize {
        self.samples.window
    }

    /// Number of samples currently held (saturates at the window length).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no duration has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.len() == 0
    }

    /// `true` once at least two samples are held — the structural floor
    /// below which [`scv`](Self::scv) is meaningless. Callers calibrating a
    /// planner should usually demand far more (hundreds) before trusting
    /// the SCV of anything heavy-tailed.
    pub fn is_warm(&self) -> bool {
        self.samples.len() >= 2
    }

    /// Records one observed duration.
    ///
    /// # Panics
    /// Debug-panics on negative or non-finite durations.
    pub fn observe(&mut self, duration: f64) {
        debug_assert!(
            duration >= 0.0 && duration.is_finite(),
            "bad duration {duration}"
        );
        self.samples.push(duration);
    }

    /// Discards every held sample, returning to the cold state (e.g. after
    /// a backend failover invalidates the measured service law). The
    /// window length is kept.
    pub fn reset(&mut self) {
        self.samples.reset();
    }

    /// Mean duration over the window (0 if empty).
    pub fn mean(&self) -> f64 {
        self.samples.mean()
    }

    /// Population variance over the window (0 with < 2 samples).
    pub fn variance(&self) -> f64 {
        self.samples.variance()
    }

    /// Squared coefficient of variation over the window — the paper's
    /// service-variability axis (0 = deterministic, 1 = exponential,
    /// > 1 = heavy). 0 until warm.
    pub fn scv(&self) -> f64 {
        let m = self.samples.mean();
        if !self.is_warm() || m <= 0.0 {
            0.0
        } else {
            self.samples.variance() / (m * m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_naive_moments_while_growing_and_sliding() {
        let gaps: Vec<f64> = (0..200)
            .map(|i| 0.5 + ((i * 37) % 101) as f64 * 0.01)
            .collect();
        let w = 32;
        let mut est = RateEstimator::new(w);
        for (i, &g) in gaps.iter().enumerate() {
            est.push_gap(g);
            let lo = (i + 1).saturating_sub(w);
            let window = &gaps[lo..=i];
            let (mean, var) = naive_mean_var(window);
            assert!((est.mean_gap() - mean).abs() < 1e-12, "mean at {i}");
            assert!((est.gap_variance() - var).abs() < 1e-9, "var at {i}");
            assert_eq!(est.len(), window.len());
        }
    }

    #[test]
    fn rate_and_utilization_from_deterministic_gaps() {
        let mut est = RateEstimator::new(8);
        let mut t = 0.0;
        for _ in 0..20 {
            est.observe_arrival(t);
            t += 0.25; // 4 arrivals/sec
        }
        assert!((est.rate() - 4.0).abs() < 1e-12);
        // 4/sec * 0.5s mean service over 4 servers = 50% baseline load.
        assert!((est.utilization(0.5, 4) - 0.5).abs() < 1e-12);
        assert!(est.gap_variance() < 1e-12);
    }

    #[test]
    fn tracks_a_rate_shift_within_a_window() {
        let mut est = RateEstimator::new(16);
        let mut t = 0.0;
        for _ in 0..32 {
            est.observe_arrival(t);
            t += 1.0;
        }
        assert!((est.rate() - 1.0).abs() < 1e-12);
        // Rate doubles; once a full window of new gaps has been pushed the
        // estimate must have converged to the new rate. (The first phase
        // left the clock half a gap ahead, so the first new gap is a
        // transition artifact — push window + 1 gaps to flush it.)
        for _ in 0..17 {
            t += 0.5;
            est.observe_arrival(t);
        }
        assert!((est.rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cold_estimator_reports_zero() {
        let mut est = RateEstimator::new(4);
        assert!(est.is_empty());
        assert_eq!(est.rate(), 0.0);
        assert_eq!(est.utilization(1.0, 4), 0.0);
        est.observe_arrival(1.0);
        assert!(!est.is_warm(), "one arrival anchors the clock only");
        est.observe_arrival(2.0);
        assert!(!est.is_warm(), "one gap is not enough");
        est.observe_arrival(3.0);
        assert!(est.is_warm());
        assert!((est.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_returns_to_cold_and_forgets_the_clock() {
        let mut est = RateEstimator::new(4);
        for t in 0..6 {
            est.observe_arrival(t as f64);
        }
        assert!(est.is_warm());
        est.reset();
        assert!(est.is_empty());
        assert_eq!(est.rate(), 0.0);
        assert_eq!(est.window(), 4);
        // The clock anchor is gone too: the next arrival must not create a
        // gap spanning the discontinuity.
        est.observe_arrival(1_000.0);
        assert!(est.is_empty(), "first post-reset arrival only anchors");
        est.observe_arrival(1_000.5);
        est.observe_arrival(1_001.0);
        assert!((est.rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_rejected() {
        let _ = RateEstimator::new(1);
    }

    #[test]
    fn moment_estimator_matches_naive_windowed_moments() {
        let xs: Vec<f64> = (0..150)
            .map(|i| 0.1 + ((i * 53) % 89) as f64 * 0.02)
            .collect();
        let w = 24;
        let mut est = MomentEstimator::new(w);
        for (i, &x) in xs.iter().enumerate() {
            est.observe(x);
            let lo = (i + 1).saturating_sub(w);
            let window = &xs[lo..=i];
            let (mean, var) = naive_mean_var(window);
            assert!((est.mean() - mean).abs() < 1e-12, "mean at {i}");
            assert!((est.variance() - var).abs() < 1e-9, "var at {i}");
            if window.len() >= 2 {
                assert!((est.scv() - var / (mean * mean)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn moment_estimator_learns_known_scv() {
        // Exponential(mean 2) has scv 1; the windowed estimate over a full
        // window of draws should land near it.
        let mut rng = simcore::rng::Rng::seed_from(0x5C4);
        let mut est = MomentEstimator::new(4096);
        for _ in 0..4096 {
            est.observe(rng.exponential(0.5));
        }
        assert!((est.mean() - 2.0).abs() < 0.15, "mean {}", est.mean());
        assert!((est.scv() - 1.0).abs() < 0.15, "scv {}", est.scv());
        // Deterministic samples: scv collapses to ~0.
        est.reset();
        assert!(est.is_empty() && est.scv() == 0.0);
        for _ in 0..100 {
            est.observe(3.0);
        }
        assert!(est.scv() < 1e-12);
    }

    #[test]
    fn moment_estimator_cold_and_floor() {
        let mut est = MomentEstimator::new(8);
        assert_eq!(est.mean(), 0.0);
        assert_eq!(est.scv(), 0.0);
        est.observe(5.0);
        assert!(!est.is_warm(), "one sample is not enough for an SCV");
        assert_eq!(est.scv(), 0.0);
        est.observe(5.0);
        assert!(est.is_warm());
        assert_eq!(est.window(), 8);
        assert_eq!(est.len(), 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn moment_tiny_window_rejected() {
        let _ = MomentEstimator::new(1);
    }

    #[test]
    fn bank_indices_are_independent_streams() {
        // Feed two interleaved deterministic streams; each index must
        // report exactly what a standalone estimator fed the same stream
        // would, untouched by the other's observations.
        let mut bank = EstimatorBank::new(3, 8);
        let mut solo0 = RateEstimator::new(8);
        let mut solo2 = RateEstimator::new(8);
        let mut t = 0.0;
        for i in 0..40 {
            t += 0.1;
            if i % 2 == 0 {
                bank.observe_arrival(0, t);
                solo0.observe_arrival(t);
            } else {
                bank.observe_arrival(2, t);
                solo2.observe_arrival(t);
            }
        }
        assert_eq!(bank.rate(0).to_bits(), solo0.rate().to_bits());
        assert_eq!(bank.rate(2).to_bits(), solo2.rate().to_bits());
        // Index 1 never saw anything: the all-idle edge reports zero.
        assert!(bank.get(1).is_empty());
        assert_eq!(bank.rate(1), 0.0);
        assert_eq!(bank.utilization(1, 1.0e-3, 2), 0.0);
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.window(), 8);
    }

    #[test]
    fn bank_utilization_divides_by_the_split_factor() {
        // 4 arrivals/sec reported to the index, each of which a k = 1 read
        // would route here with probability 1/2: baseline utilization is
        // rate * mean / 2.
        let mut bank = EstimatorBank::new(2, 8);
        let mut t = 0.0;
        for _ in 0..20 {
            bank.observe_arrival(0, t);
            t += 0.25;
        }
        assert!((bank.rate(0) - 4.0).abs() < 1e-12);
        assert!((bank.utilization(0, 0.5, 2) - 1.0).abs() < 1e-12);
        assert!((bank.utilization(0, 0.5, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bank_reset_is_per_index() {
        let mut bank = EstimatorBank::new(2, 4);
        for i in 0..6 {
            bank.observe_arrival(0, i as f64);
            bank.observe_arrival(1, i as f64 * 0.5);
        }
        assert!(bank.get(0).is_warm() && bank.get(1).is_warm());
        bank.reset(0);
        assert!(bank.get(0).is_empty(), "reset index must go cold");
        assert!(bank.get(1).is_warm(), "other index must be untouched");
        assert!((bank.rate(1) - 2.0).abs() < 1e-12);
        // The reset index's clock anchor is gone: a late re-anchor must
        // not create a discontinuity gap.
        bank.observe_arrival(0, 1_000.0);
        assert!(bank.get(0).is_empty());
        bank.observe_arrival(0, 1_000.25);
        bank.observe_arrival(0, 1_000.5);
        assert!((bank.rate(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn load_summaries_add_rates_across_peers() {
        // Two "frontends" each seeing half of a 4/sec stream routed to the
        // same server: each local estimate is 2/sec, and the peer exchange
        // must reconstruct the superposed 4/sec.
        let mut bank_a = EstimatorBank::new(2, 8);
        let mut bank_b = EstimatorBank::new(2, 8);
        let mut t = 0.0;
        for _ in 0..20 {
            bank_a.observe_arrival(0, t);
            bank_b.observe_arrival(0, t + 0.25);
            t += 0.5;
        }
        assert!((bank_a.rate(0) - 2.0).abs() < 1e-12);
        let mut peers = PeerLoads::new(1, 2);
        // Nothing heard yet: peers contribute zero, like a cold estimator.
        assert_eq!(peers.peer_rate(0), 0.0);
        assert!((peers.total_rate(0, bank_a.rate(0)) - 2.0).abs() < 1e-12);
        peers.apply(0, bank_b.summary());
        assert!((peers.peer_rate(0) - 2.0).abs() < 1e-12);
        assert!((peers.total_rate(0, bank_a.rate(0)) - 4.0).abs() < 1e-12);
        // The never-fed index stays zero through the exchange.
        assert_eq!(peers.total_rate(1, bank_a.rate(1)), 0.0);
        // A newer summary replaces the old one instead of accumulating.
        peers.apply(0, LoadSummary::per_index(vec![1.0, 0.5]));
        assert!((peers.peer_rate(0) - 1.0).abs() < 1e-12);
        assert_eq!(peers.peers(), 1);
        // The single-rate view mirrors RateEstimator::rate.
        let mut solo = RateEstimator::new(8);
        for i in 0..10 {
            solo.observe_arrival(i as f64 * 0.25);
        }
        let s = solo.summary();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.rate(0).to_bits(), solo.rate().to_bits());
        // A width-1 summary is the same value however it was built.
        assert_eq!(s, LoadSummary::per_index(vec![solo.rate()]));
        let mut narrow = EstimatorBank::new(1, 8);
        narrow.observe_arrival(0, 0.0);
        assert_eq!(narrow.summary(), LoadSummary::global(narrow.rate(0)));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn peer_board_rejects_too_wide_summary() {
        // Narrower summaries are tolerated (a peer lagging a scale-out),
        // but wider-than-board is a protocol error and still panics.
        let mut peers = PeerLoads::new(2, 2);
        peers.apply(0, LoadSummary::per_index(vec![1.0, 2.0, 3.0]));
    }

    #[test]
    fn peer_board_tolerates_stale_width_during_churn() {
        // A 2-index board hears a width-2 summary, then the cluster
        // scales out to 4 indices: the stale summary keeps contributing
        // its known rates, and the indices it predates read as zero.
        let mut peers = PeerLoads::new(2, 2);
        peers.apply(0, LoadSummary::per_index(vec![3.0, 1.0]));
        peers.grow_to(4);
        assert!((peers.peer_rate(0) - 3.0).abs() < 1e-12);
        assert!((peers.peer_rate(1) - 1.0).abs() < 1e-12);
        assert_eq!(peers.peer_rate(2), 0.0);
        assert_eq!(peers.peer_rate(3), 0.0);
        // The peer's next broadcast carries the full width and lands.
        peers.apply(0, LoadSummary::per_index(vec![3.0, 1.0, 0.5, 0.25]));
        assert!((peers.peer_rate(2) - 0.5).abs() < 1e-12);
        // grow_to never narrows.
        peers.grow_to(1);
        assert!((peers.peer_rate(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_guards_degenerate_inputs() {
        // Promoted from debug_assert: a zero-server cluster or a
        // non-positive mean service time must read as zero load in every
        // build profile, never inf/NaN handed to the planner.
        let mut est = RateEstimator::new(4);
        for i in 0..8 {
            est.observe_arrival(i as f64 * 0.25);
        }
        assert!(est.rate() > 0.0);
        assert_eq!(est.utilization(1.0, 0), 0.0);
        assert_eq!(est.utilization(0.0, 4), 0.0);
        assert_eq!(est.utilization(-1.0, 4), 0.0);
        assert_eq!(est.utilization(f64::NAN, 4), 0.0);
        assert!(est.utilization(1.0, 4).is_finite());

        let mut bank = EstimatorBank::new(2, 4);
        for i in 0..8 {
            bank.observe_arrival(1, i as f64 * 0.5);
        }
        assert_eq!(bank.utilization(1, 1.0, 0), 0.0);
        assert_eq!(bank.utilization(1, 0.0, 2), 0.0);
        assert_eq!(bank.utilization(1, f64::NAN, 2), 0.0);
        assert!(bank.utilization(1, 1.0, 2) > 0.0);
    }

    #[test]
    fn bank_survives_topology_churn() {
        // The elastic contract: growth appends cold estimators, removal
        // resets exactly the departed index, and surviving indices carry
        // bitwise-identical state through both events.
        let window = 8;
        let mut bank = EstimatorBank::new(2, window);
        let mut control = EstimatorBank::new(2, window);
        for i in 0..12 {
            bank.observe_arrival(0, i as f64 * 0.125);
            control.observe_arrival(0, i as f64 * 0.125);
            bank.observe_arrival(1, i as f64 * 0.5);
            control.observe_arrival(1, i as f64 * 0.5);
        }
        // Scale out 2 -> 4: new indices cold, with the bank's window.
        bank.grow_to(4);
        assert_eq!(bank.len(), 4);
        assert_eq!(bank.window(), window);
        assert!(bank.get(2).is_empty() && bank.get(3).is_empty());
        assert_eq!(bank.rate(2), 0.0);
        assert_eq!(
            bank.rate(0).to_bits(),
            control.rate(0).to_bits(),
            "growth disturbed a surviving index"
        );
        // grow_to is monotone: shrinking requests are no-ops.
        bank.grow_to(1);
        assert_eq!(bank.len(), 4);
        // Feed the new indices, then "remove" one server (reset index 3).
        for i in 0..12 {
            bank.observe_arrival(2, i as f64 * 0.25);
            bank.observe_arrival(3, 100.0 + i as f64);
        }
        bank.reset(3);
        assert!(bank.get(3).is_empty(), "departed index must go cold");
        // No cross-contamination mid-migration: indices fed identically
        // to the control (which never churned) still agree bitwise.
        for i in 12..20 {
            bank.observe_arrival(0, i as f64 * 0.125);
            control.observe_arrival(0, i as f64 * 0.125);
        }
        assert_eq!(bank.rate(0).to_bits(), control.rate(0).to_bits());
        assert_eq!(bank.rate(1).to_bits(), control.rate(1).to_bits());
        assert!(
            (bank.rate(2) - 4.0).abs() < 1e-12,
            "survivor lost its window"
        );
        // A re-added server starts cold and warms like a fresh one.
        bank.observe_arrival(3, 200.0);
        assert!(bank.get(3).is_empty());
        // Summaries carry the grown width.
        assert_eq!(bank.summary().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one index")]
    fn empty_bank_rejected() {
        let _ = EstimatorBank::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn bank_tiny_window_rejected() {
        let _ = EstimatorBank::new(4, 1);
    }
}
