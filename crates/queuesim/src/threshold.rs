//! The threshold load: the paper's §2.1 metric of interest.
//!
//! > "The threshold load, defined formally as the largest utilization below
//! > which replication always helps mean response time."
//!
//! We locate it as the root of `g(ρ) = mean(k=2, ρ) − mean(k=1, ρ)`, which
//! is negative below the threshold (replication wins) and positive above.
//! Because `g` is a small difference of two noisy estimates, each evaluation
//! uses paired runs (common random numbers — see [`crate::model`]) averaged
//! over several independent seeds, and the bisection treats an evaluation as
//! decisive only relative to its standard error: when `|g| < 2·se` the
//! search widens the replication count (up to
//! [`ThresholdOptions::max_replications`]) before trusting the sign.
//!
//! ## Common random numbers across bisection midpoints
//!
//! Every midpoint evaluation re-uses the *same* per-replication random
//! draws (`CrnCache`): arrival increments are stored at unit rate and
//! rescaled by the load under test, and service times / server placements
//! do not depend on load at all. Two consequences:
//!
//! * **speed** — a midpoint evaluation is a pure arithmetic queue pass
//!   (no RNG, no transcendental sampling), so the bisection no longer
//!   re-simulates from scratch at every step;
//! * **stability** — `g(ρ)` becomes a deterministic function of ρ for a
//!   fixed draw set, so bisection steps cannot contradict each other due
//!   to fresh sampling noise.
//!
//! The client overhead enters only the response-time *accumulation*, never
//! the draws, so one cache also serves every point of a Fig 4 overhead
//! sweep ([`overhead_thresholds_on`]) — bit-identical to running a fresh
//! search per point, without regenerating the draw streams.
//!
//! ## One draw record
//!
//! A draw is one 16-byte `Draw` record: the arrival increment and both
//! service times rounded to `f32`, and the server picks as `u8` (the model
//! has [`SERVERS`] = 20 servers). A search reserves its records — run
//! length × replication ceiling × 16 B, 253 MB for the largest, a
//! full-effort heavy point of Fig 2 — from a process-wide budget of
//! 512 MB, which bounds resident memory however many searches run at
//! once. A search the budget cannot hold streams instead: it regenerates
//! the same records at every pass. The generator rounds as it generates
//! and the queue pass widens to `f64` in one place, so a cached and a
//! streamed search compute with the same numbers and agree bit for bit;
//! the budget changes speed, never results.
//!
//! ## Parallelism and determinism
//!
//! Replications are independent and run on a [`Runner`] (all public entry
//! points have `*_on` variants taking an explicit runner; the plain
//! versions use [`Runner::global`]). Per-replication seeds are derived
//! from explicit [`Rng::fork`] streams of the options' base seed — never
//! from loop order — so results are **bit-identical at any thread count**.
//! A replication's records are generated inside the task of the first
//! pass that reads them, so generation fans out with the passes, and
//! several searches can read one cache at once (Fig 4's overhead points).

use crate::model::SERVERS;
use simcore::dist::Distribution;
use simcore::rng::{Rng, SplitMix64};
use simcore::runner::Runner;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide ceiling on simultaneously materialized CRN draw
/// **bytes** (512 MB): the Fig 3 sweep runs up to thread-count searches
/// concurrently, so a per-search bound alone would scale resident memory
/// with cores. Searches that cannot reserve budget
/// stream their draws instead, with identical results.
const CRN_CACHE_GLOBAL_BUDGET_BYTES: usize = 512 << 20;
static CRN_CACHE_RESERVED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Reserves `n` bytes from the process-wide budget; `false` when the
/// budget is exhausted (caller streams instead).
fn try_reserve_bytes(n: usize) -> bool {
    CRN_CACHE_RESERVED_BYTES
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            cur.checked_add(n)
                .filter(|&total| total <= CRN_CACHE_GLOBAL_BUDGET_BYTES)
        })
        .is_ok()
}

/// Tuning for the threshold search. Defaults are figure-quality; tests use
/// [`ThresholdOptions::fast`].
#[derive(Clone, Debug)]
pub struct ThresholdOptions {
    /// Measured requests per run, before variance scaling: a search runs
    /// `1 + scv/2` times as many (clamped to `[1, 8]`, and 8 for an
    /// infinite scv). The mean of a heavy-tailed response converges
    /// slowly, and under-sampling the tail biases the k = 1 mean down more
    /// than the k = 2 mean (the min of two is lighter), dragging the
    /// estimated threshold below truth. With scaling, the Figure 2
    /// families keep climbing toward the 50 % ceiling as the paper's do.
    pub requests: usize,
    /// Warm-up requests per run, scaled like `requests`.
    pub warmup: usize,
    /// Independent seed pairs averaged per evaluation of `g`.
    pub replications: usize,
    /// Ceiling on replications when an evaluation is indecisive
    /// (`|g| < 2·se`): the search doubles the replication count up to this
    /// value before trusting the sign of `g`.
    pub max_replications: usize,
    /// Bisection terminates when the bracket is narrower than this.
    pub tolerance: f64,
    /// Base RNG seed; per-replication streams are forked from it
    /// deterministically (never from loop order).
    pub seed: u64,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        ThresholdOptions {
            requests: 150_000,
            warmup: 15_000,
            replications: 6,
            max_replications: 12,
            tolerance: 0.004,
            seed: 0x7357_0001,
        }
    }
}

impl ThresholdOptions {
    /// A much cheaper configuration for unit/integration tests: wider
    /// tolerance, fewer requests.
    pub fn fast() -> Self {
        ThresholdOptions {
            requests: 40_000,
            warmup: 4_000,
            replications: 4,
            max_replications: 8,
            tolerance: 0.01,
            ..Default::default()
        }
    }
}

/// One request's worth of random draws, shared by the paired k = 1 / k = 2
/// runs: a unit-rate arrival increment (rescaled by the load under test),
/// both copies' service times, and the server placements each replication
/// factor would choose. The floats are rounded to `f32` as they are drawn
/// and widened back in [`CrnCache::paired_pass`] alone.
#[derive(Clone, Copy, Debug)]
struct Draw {
    /// Unit-rate exponential arrival increment (`−ln u`); divided by the
    /// total arrival rate at evaluation time.
    arrival: f32,
    /// Service times for copy 0 and copy 1. Copy 0 is shared between the
    /// paired runs, exactly as in [`crate::model::run`].
    svc: [f32; 2],
    /// Server chosen by the k = 1 run.
    place_single: u8,
    /// Distinct servers chosen by the k = 2 run.
    place_pair: [u8; 2],
}

const _: () = assert!(size_of::<Draw>() == 16);
const _: () = assert!(SERVERS <= 1 << 8, "a server pick must fit a u8");

/// Generates the draw stream for one replication, without end. Mirrors the
/// draw order of [`crate::model::run`]: a sequential arrival stream plus
/// per-request substreams keyed on `(salt, request index)`, with the k = 1
/// placement taken from a clone of the substream so both replication
/// factors consume the same prefix (CRN pairing).
struct DrawGen<'a, D: ?Sized> {
    arrival_rng: Rng,
    salt: u64,
    dist: &'a D,
    next_index: usize,
}

impl<'a, D: Distribution + ?Sized> DrawGen<'a, D> {
    fn new(dist: &'a D, seed: u64) -> Self {
        DrawGen {
            arrival_rng: Rng::seed_from(seed).fork(0),
            salt: SplitMix64::new(seed ^ 0x5EED_CAFE).next_u64(),
            dist,
            next_index: 0,
        }
    }
}

impl<D: Distribution + ?Sized> Iterator for DrawGen<'_, D> {
    type Item = Draw;

    fn next(&mut self) -> Option<Draw> {
        let i = self.next_index;
        self.next_index += 1;
        let arrival = -self.arrival_rng.f64_open().ln();
        let mut req_rng =
            Rng::seed_from(self.salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let svc0 = self.dist.sample(&mut req_rng);
        // The k = 1 run continues the substream right after copy 0's
        // service draw; the k = 2 run draws its second service time first.
        let mut single_rng = req_rng.clone();
        let place_single = single_rng.index(SERVERS) as u8;
        let svc1 = self.dist.sample(&mut req_rng);
        let mut pair = [0usize; 2];
        req_rng.distinct_indices(SERVERS, &mut pair);
        Some(Draw {
            arrival: arrival as f32,
            svc: [svc0 as f32, svc1 as f32],
            place_single,
            place_pair: [pair[0] as u8, pair[1] as u8],
        })
    }

    /// Endless, so `take(n)` reports exactly `n` and a collect allocates
    /// exactly once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// Per-replication paired draw streams persisted across bisection
/// midpoints, so re-evaluating `g` at a new load reuses arrival patterns
/// and service draws instead of re-simulating from scratch.
struct CrnCache<'a, D: ?Sized> {
    dist: &'a D,
    /// Warm-up + measured requests (after variance scaling).
    total: usize,
    warmup: usize,
    mean_service: f64,
    max_replications: usize,
    /// Per-replication seeds, forked from the base seed upfront so a
    /// replication's stream is a pure function of its index.
    seeds: Vec<u64>,
    /// Materialized streams, one slot per replication up to the ceiling,
    /// each filled by the first pass that reads it; empty when the search
    /// streams.
    cached: Vec<OnceLock<Vec<Draw>>>,
    /// Bytes reserved from the process-wide budget (released on drop).
    reserved_bytes: usize,
}

impl<D: ?Sized> Drop for CrnCache<'_, D> {
    fn drop(&mut self) {
        if self.reserved_bytes > 0 {
            CRN_CACHE_RESERVED_BYTES.fetch_sub(self.reserved_bytes, Ordering::Relaxed);
        }
    }
}

impl<'a, D: Distribution + ?Sized> CrnCache<'a, D> {
    fn new(dist: &'a D, opts: &ThresholdOptions) -> Self {
        let scv = dist.scv();
        let factor = if scv.is_finite() {
            (1.0 + scv / 2.0).clamp(1.0, 8.0)
        } else {
            8.0
        };
        let requests = (opts.requests as f64 * factor) as usize;
        let warmup = (opts.warmup as f64 * factor) as usize;
        let total = requests + warmup;
        let max_replications = opts.max_replications.max(opts.replications);
        let mut root = Rng::seed_from(opts.seed);
        let seeds = (0..max_replications)
            .map(|r| root.fork(r as u64).next_u64())
            .collect();
        let bytes = total
            .saturating_mul(max_replications)
            .saturating_mul(size_of::<Draw>());
        let cacheable = try_reserve_bytes(bytes);
        CrnCache {
            dist,
            total,
            warmup,
            mean_service: dist.mean(),
            max_replications,
            seeds,
            cached: if cacheable {
                (0..max_replications).map(|_| OnceLock::new()).collect()
            } else {
                Vec::new()
            },
            reserved_bytes: if cacheable { bytes } else { 0 },
        }
    }

    /// Replication `r`'s draw stream, from its seed alone.
    fn draws(&self, r: usize) -> impl Iterator<Item = Draw> + '_ {
        DrawGen::new(self.dist, self.seeds[r]).take(self.total)
    }

    /// Replication `r`'s stored records, generated by the first pass that
    /// reads them.
    fn records(&self, r: usize) -> &[Draw] {
        self.cached[r].get_or_init(|| self.draws(r).collect())
    }

    /// Materializes every replication up to the ceiling in parallel (no-op
    /// when this search streams instead of caching).
    fn fill(&self, runner: &Runner) {
        runner.run(self.cached.len(), |r| {
            self.records(r);
        });
    }

    /// Runs the paired k = 1 / k = 2 queues over replication `r`'s draws at
    /// base load `rho` with a per-replicated-request client `overhead`,
    /// returning `mean(k=2) − mean(k=1)`. The overhead is an *evaluation*
    /// parameter (not baked into the cache) precisely so one cache can
    /// serve every point of an overhead sweep — the draws do not depend on
    /// it.
    fn paired_diff(&self, r: usize, rho: f64, overhead: f64) -> f64 {
        let lambda = SERVERS as f64 * rho / self.mean_service;
        if self.cached.is_empty() {
            self.paired_pass(lambda, overhead, self.draws(r))
        } else {
            self.paired_pass(lambda, overhead, self.records(r).iter().copied())
        }
    }

    /// The shared queue pass: both replication factors advance through the
    /// same arrival sequence, each with its own server state, exactly as
    /// two paired [`crate::model::run`] calls would — but in one sweep with
    /// no RNG on the hot path.
    fn paired_pass(&self, lambda: f64, overhead: f64, draws: impl Iterator<Item = Draw>) -> f64 {
        let mut free_single = [0.0f64; SERVERS];
        let mut free_double = [0.0f64; SERVERS];
        let mut now = 0.0f64;
        let mut sum_single = 0.0f64;
        let mut sum_double = 0.0f64;
        for (i, d) in draws.enumerate() {
            let svc = d.svc.map(f64::from);
            now += f64::from(d.arrival) / lambda;
            let s = usize::from(d.place_single);
            let done_single = now.max(free_single[s]) + svc[0];
            free_single[s] = done_single;
            let mut best = f64::INFINITY;
            for (s, svc) in d.place_pair.map(usize::from).into_iter().zip(svc) {
                let done = now.max(free_double[s]) + svc;
                free_double[s] = done;
                if done < best {
                    best = done;
                }
            }
            if i >= self.warmup {
                sum_single += done_single - now;
                sum_double += (best - now) + overhead;
            }
        }
        let measured = (self.total - self.warmup) as f64;
        (sum_double - sum_single) / measured
    }

    /// Adaptive evaluation: widens the replication count (doubling, up to
    /// the cap) while the estimate is indecisive relative to its standard
    /// error. Diffs are a pure function of `(replication, rho, overhead)`,
    /// so each widening step only evaluates the *new* replications.
    ///
    /// # Panics
    /// Panics when the replicated system has no steady state (`2·rho ≥ 1`)
    /// or the load is not positive — the same guards [`crate::model::run`]
    /// enforces.
    fn decisive_gain(
        &self,
        rho: f64,
        base_reps: usize,
        overhead: f64,
        runner: &Runner,
    ) -> (f64, f64) {
        assert!(
            rho > 0.0 && 2.0 * rho < 1.0,
            "k*rho = {} >= 1 has no steady state",
            2.0 * rho
        );
        let mut diffs: Vec<f64> = Vec::new();
        let mut reps = base_reps.min(self.max_replications);
        loop {
            let have = diffs.len();
            diffs.extend(runner.run(reps - have, |j| self.paired_diff(have + j, rho, overhead)));
            let (g, se) = mean_and_se(&diffs);
            if g.abs() >= 2.0 * se || reps >= self.max_replications {
                return (g, se);
            }
            reps = (reps * 2).min(self.max_replications);
        }
    }
}

/// The bisection over one `CrnCache` at a fixed client overhead. Shared by
/// [`threshold_load_on`] (one overhead) and [`overhead_thresholds_on`]
/// (many overheads, one cache).
fn bisect<D: Distribution + ?Sized>(
    cache: &CrnCache<'_, D>,
    overhead: f64,
    opts: &ThresholdOptions,
    runner: &Runner,
) -> f64 {
    let mut lo = 0.01f64;
    let mut hi = 0.495f64;

    // If replication already hurts at the lowest load we test, the
    // threshold is effectively zero.
    let (g_lo, se_lo) = cache.decisive_gain(lo, opts.replications, overhead, runner);
    if g_lo > 2.0 * se_lo {
        return 0.0;
    }
    // If replication still helps just under saturation, the threshold is at
    // its ceiling.
    let (g_hi, se_hi) = cache.decisive_gain(hi, opts.replications, overhead, runner);
    if g_hi < -2.0 * se_hi {
        return hi;
    }

    while hi - lo > opts.tolerance {
        let mid = 0.5 * (lo + hi);
        let (g, _se) = cache.decisive_gain(mid, opts.replications, overhead, runner);
        if g < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

fn mean_and_se(diffs: &[f64]) -> (f64, f64) {
    let n = diffs.len() as f64;
    let mean = diffs.iter().sum::<f64>() / n;
    let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, (var / n).sqrt())
}

/// Finds the threshold load for 2-way replication of `dist` with no
/// client-side overhead.
///
/// Returns a value in `[0, 0.5)`. By construction the threshold cannot reach
/// 0.5 (the replicated system would saturate); it returns 0 when
/// replication never helps at the lowest load searched.
pub fn threshold_load<D: Distribution + Clone>(dist: &D, opts: &ThresholdOptions) -> f64 {
    threshold_load_on(&Runner::global(), dist, opts)
}

/// [`threshold_load`] on an explicit [`Runner`]. Results are bit-identical
/// at any thread count (replication seeds are forked from the base seed by
/// index, and the CRN cache makes every midpoint a deterministic function
/// of the load).
pub fn threshold_load_on<D: Distribution + Clone>(
    runner: &Runner,
    dist: &D,
    opts: &ThresholdOptions,
) -> f64 {
    bisect(&CrnCache::new(dist, opts), 0.0, opts, runner)
}

/// Threshold loads for several client overheads of **one** service
/// distribution (the Fig 4 x-axis): each element of `overheads` is added
/// to every replicated request's response time, and the threshold falls
/// to 0 once it outweighs the min-of-two gain (Fig 4's right edge). All
/// points share a single CRN cache: the draws depend only on `(seed,
/// replication index)`, never on the overhead, so each value is
/// bit-identical to a search of that point alone. The cache fills every
/// replication up to the ceiling first, in parallel (a search widens to
/// the ceiling near its root, so some point needs them all), and the
/// points then search side by side on the runner, only reading it;
/// results are bit-identical at any thread count.
pub fn overhead_thresholds_on<D: Distribution + Clone>(
    runner: &Runner,
    dist: &D,
    overheads: &[f64],
    opts: &ThresholdOptions,
) -> Vec<f64> {
    let cache = CrnCache::new(dist, opts);
    cache.fill(runner);
    runner.map(overheads, |_i, &o| bisect(&cache, o, opts, runner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Deterministic, Exponential, Pareto};

    #[test]
    fn exponential_threshold_is_one_third() {
        // Theorem 1. Fast options give +-0.02 accuracy, plenty to separate
        // 1/3 from the deterministic ~0.26 and the Pareto ~0.4+.
        let thr = threshold_load(&Exponential::unit(), &ThresholdOptions::fast());
        assert!(
            (thr - 1.0 / 3.0).abs() < 0.035,
            "exponential threshold {thr} != 1/3"
        );
        // The exact bits, so any drift in the draws or the pass fails here.
        assert_eq!(thr.to_bits(), 0x3fd5_40a3_d70a_3d70, "{thr}");
    }

    #[test]
    fn deterministic_threshold_near_quarter() {
        // Paper: ~25.82%, the conjectured worst case.
        let thr = threshold_load(&Deterministic::unit(), &ThresholdOptions::fast());
        assert!(
            (0.22..0.31).contains(&thr),
            "deterministic threshold {thr} not near 0.26"
        );
        assert_eq!(thr.to_bits(), 0x3fd0_e333_3333_3334, "{thr}");
    }

    #[test]
    fn heavy_tail_threshold_exceeds_exponential() {
        let fast = ThresholdOptions::fast();
        let heavy = threshold_load(&Pareto::unit_mean(2.1), &fast);
        let exp = threshold_load(&Exponential::unit(), &fast);
        assert!(
            heavy > exp,
            "expected heavier tail to raise threshold: pareto={heavy} exp={exp}"
        );
        // Fig 2(b): visibly above the exponential 1/3 at this tail weight.
        // (Short fast-mode runs under-sample the heavy tail, so the sim
        // estimate sits below the asymptotic ~0.45; the full-length figure
        // harness recovers it.)
        assert!(heavy > 0.345, "pareto threshold {heavy}");
        assert_eq!(heavy.to_bits(), 0x3fd7_3147_ae14_7ae2, "{heavy}");
    }

    #[test]
    fn thresholds_live_in_the_conjectured_band() {
        // The paper's central claim: 25% <= threshold < 50% for any service
        // distribution when client cost is zero.
        let fast = ThresholdOptions::fast();
        for dist in [
            Box::new(Exponential::unit()) as Box<dyn Distribution>,
            Box::new(Deterministic::unit()),
            Box::new(Pareto::unit_mean(3.0)),
        ] {
            let thr = threshold_load(&dist.as_ref(), &fast);
            assert!(
                (0.22..0.5).contains(&thr),
                "{dist:?} threshold {thr} outside band"
            );
        }
    }

    #[test]
    fn large_overhead_kills_threshold() {
        // Fig 4: once the client-side penalty reaches the mean service time,
        // replication cannot help the mean at any load.
        let thr = overhead_thresholds_on(
            &Runner::global(),
            &Exponential::unit(),
            &[1.0],
            &ThresholdOptions::fast(),
        )[0];
        assert!(thr < 0.05, "threshold {thr} should collapse");
        assert_eq!(thr.to_bits(), 0.0f64.to_bits(), "{thr}");
    }

    #[test]
    fn gain_sign_flips_across_threshold() {
        let opts = ThresholdOptions::fast();
        let dist = Exponential::unit();
        let cache = CrnCache::new(&dist, &opts);
        let runner = Runner::global();
        let (g_low, _) = cache.decisive_gain(0.15, opts.replications, 0.0, &runner);
        let (g_high, _) = cache.decisive_gain(0.45, opts.replications, 0.0, &runner);
        assert!(g_low < 0.0, "replication should help at 0.15: {g_low}");
        assert!(g_high > 0.0, "replication should hurt at 0.45: {g_high}");
    }

    #[test]
    fn overhead_applies_only_when_replicated() {
        // The overhead is added to every measured k = 2 response and to no
        // k = 1 response, so it shifts `g` by exactly itself (up to the
        // rounding of the two sums), at every load.
        let mut opts = ThresholdOptions::fast();
        opts.requests = 6_000;
        opts.warmup = 600;
        let dist = Exponential::unit();
        let cache = CrnCache::new(&dist, &opts);
        for rho in [0.1, 0.3, 0.45] {
            let shift = cache.paired_diff(0, rho, 0.5) - cache.paired_diff(0, rho, 0.0);
            assert!((shift - 0.5).abs() < 1e-9, "rho={rho}: shift {shift}");
        }
    }

    #[test]
    fn threshold_bit_identical_across_thread_counts() {
        // The runner contract end-to-end: same bits at 1, 2, and 8 threads.
        let mut opts = ThresholdOptions::fast();
        opts.requests = 8_000;
        opts.warmup = 800;
        opts.replications = 3;
        opts.max_replications = 6;
        opts.tolerance = 0.05;
        let base = threshold_load_on(&Runner::serial(), &Exponential::unit(), &opts);
        for threads in [2, 8] {
            let thr = threshold_load_on(&Runner::new(threads), &Exponential::unit(), &opts);
            assert_eq!(base.to_bits(), thr.to_bits(), "threads={threads}");
        }
    }

    /// Short searches for the cached-vs-streamed checks: two replications
    /// materialized under a ceiling of four.
    fn cache_check_opts() -> ThresholdOptions {
        let mut opts = ThresholdOptions::fast();
        opts.requests = 12_000;
        opts.warmup = 1_200;
        opts.replications = 2;
        opts.max_replications = 4;
        opts.tolerance = 0.05;
        opts
    }

    /// A search over `dist` with replications 0 and 1 cached, and the same
    /// search forced through the streaming branch.
    fn cached_and_streamed<'a, D: Distribution + ?Sized>(
        dist: &'a D,
        opts: &ThresholdOptions,
    ) -> (CrnCache<'a, D>, CrnCache<'a, D>) {
        let cached = CrnCache::new(dist, opts);
        for r in 0..2 {
            assert_eq!(cached.records(r).len(), cached.total);
        }
        let mut streamed = CrnCache::new(dist, opts);
        streamed.cached.clear();
        (cached, streamed)
    }

    /// Asserts that the cached and the streamed search report the same
    /// paired differences, bit for bit, over both cached replications.
    fn assert_paired_diffs_agree<D: Distribution + ?Sized>(dist: &D) {
        let (cached, streamed) = cached_and_streamed(dist, &cache_check_opts());
        for r in 0..2 {
            for rho in [0.1, 0.3, 0.45] {
                assert_eq!(
                    cached.paired_diff(r, rho, 0.0).to_bits(),
                    streamed.paired_diff(r, rho, 0.0).to_bits(),
                    "{dist:?} r={r} rho={rho}"
                );
            }
        }
    }

    #[test]
    fn cached_and_streamed_draws_agree_bitwise() {
        // The memory-bounded fallback must be arithmetically identical to
        // the cached path: the same records, stored once or regenerated at
        // every pass.
        assert_paired_diffs_agree(&Exponential::unit());
    }

    #[test]
    fn packed_and_streamed_draws_agree_bitwise() {
        // The f32 rounding happens as a record is generated, so a stored
        // record and its regeneration carry the same bits. A heavy tail
        // gives the rounding its widest range of service times.
        let dist = Pareto::unit_mean(2.1);
        let (cached, streamed) = cached_and_streamed(&dist, &cache_check_opts());
        for r in 0..2 {
            for (i, (a, b)) in cached.records(r).iter().zip(streamed.draws(r)).enumerate() {
                assert_eq!(a.arrival.to_bits(), b.arrival.to_bits(), "r={r} i={i}");
                assert_eq!(
                    a.svc.map(f32::to_bits),
                    b.svc.map(f32::to_bits),
                    "r={r} i={i}"
                );
                assert_eq!(a.place_single, b.place_single, "r={r} i={i}");
                assert_eq!(a.place_pair, b.place_pair, "r={r} i={i}");
            }
        }
        assert_paired_diffs_agree(&dist);
    }

    #[test]
    fn packed_threshold_bit_identical_cached_vs_streamed() {
        // The whole bisection, cached vs forced-streaming: the threshold a
        // search reports cannot depend on whether its draws were
        // materialized.
        let opts = cache_check_opts();
        let runner = Runner::serial();
        for dist in [
            Box::new(Exponential::unit()) as Box<dyn Distribution>,
            Box::new(Pareto::unit_mean(2.1)),
        ] {
            let dist = dist.as_ref();
            let (cached, streamed) = cached_and_streamed(dist, &opts);
            let thr_cached = bisect(&cached, 0.0, &opts, &runner);
            let thr_streamed = bisect(&streamed, 0.0, &opts, &runner);
            assert_eq!(thr_cached.to_bits(), thr_streamed.to_bits(), "{dist:?}");
            assert!(
                (0.22..0.5).contains(&thr_cached),
                "{dist:?} threshold {thr_cached} outside the band"
            );
        }
    }

    #[test]
    fn full_effort_heavy_point_fits_the_cache_budget() {
        // At default (full-effort) options a heavy-tailed Fig 2(b) point
        // scales to 1.32 M requests × 12 replications = 15.84 M draws of
        // 16 B, 253 MB: the largest search the figures run must cache, not
        // regenerate every draw at every bisection midpoint. (No draws
        // are materialized here — construction only.)
        let opts = ThresholdOptions::default();
        let dist = Pareto::unit_mean_inverse_scale(0.98); // fig2b's heaviest axis point
        let cache = CrnCache::new(&dist, &opts);
        assert_eq!(
            cache.total * cache.max_replications,
            15_840_000,
            "full-effort heavy point draw count moved; re-check the budget"
        );
        assert!(
            !cache.cached.is_empty(),
            "full-effort heavy point must fit the budget"
        );
        assert_eq!(cache.reserved_bytes, 15_840_000 * 16);
    }

    #[test]
    fn crn_paired_diff_matches_model_run() {
        // The CRN cache re-implements model::run's draw scheme and queue
        // arithmetic for speed; this pins the two against each other so a
        // future edit to either cannot silently decorrelate them. The
        // permitted differences are the cache's f32 rounding of every
        // arrival increment and service time (model::run keeps f64) and
        // mean-accumulation rounding (Welford vs. plain sum). Here they
        // reach 2.9e-9 × (1 + |g|), at rho = 0.45; the model run at
        // another seed misses by 3e-3 to 8e-2.
        use crate::model::{run, Config};
        let mut opts = ThresholdOptions::fast();
        opts.requests = 12_000;
        opts.warmup = 1_200;
        let dist = Exponential::unit();
        let cache = CrnCache::new(&dist, &opts);
        for r in 0..2 {
            for rho in [0.15, 0.3, 0.45] {
                let g_cache = cache.paired_diff(r, rho, 0.0);
                let seed = cache.seeds[r];
                // The cache's run lengths, after variance scaling.
                let base =
                    Config::new(dist, rho).with_requests(cache.total - cache.warmup, cache.warmup);
                let single = run(&base.clone().with_copies(1), seed);
                let double = run(&base.with_copies(2), seed);
                let g_model = double.moments.mean() - single.moments.mean();
                assert!(
                    (g_cache - g_model).abs() <= 1e-7 * (1.0 + g_model.abs()),
                    "r={r} rho={rho}: cache {g_cache} vs model {g_model}"
                );
            }
        }
    }

    #[test]
    fn overhead_family_bit_identical_to_per_point_path() {
        // The shared-cache overhead sweep must reproduce, bit for bit, what
        // a fresh threshold search per overhead point produces — the draws
        // are a pure function of (seed, replication index), not of the
        // overhead, so sharing the cache cannot change any result.
        let mut opts = ThresholdOptions::fast();
        opts.requests = 6_000;
        opts.warmup = 600;
        opts.replications = 3;
        opts.max_replications = 6;
        opts.tolerance = 0.02;
        let dist = Exponential::unit();
        let overheads = [0.0, 0.3, 1.0];
        for threads in [1usize, 4] {
            let runner = Runner::new(threads);
            let shared = overhead_thresholds_on(&runner, &dist, &overheads, &opts);
            let plain = threshold_load_on(&runner, &dist, &opts);
            assert_eq!(shared[0].to_bits(), plain.to_bits(), "{threads} threads");
            for (i, &o) in overheads.iter().enumerate() {
                let per_point = overhead_thresholds_on(&runner, &dist, &[o], &opts)[0];
                assert_eq!(
                    shared[i].to_bits(),
                    per_point.to_bits(),
                    "overhead {o} diverged at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn indecisive_evaluations_widen_replications() {
        // Right at the threshold g ~ 0, so the adaptive pass must widen to
        // the cap rather than settle at the base count.
        let mut opts = ThresholdOptions::fast();
        opts.requests = 6_000;
        opts.warmup = 600;
        opts.replications = 2;
        opts.max_replications = 8;
        let dist = Exponential::unit();
        let cache = CrnCache::new(&dist, &opts);
        let runner = Runner::serial();
        let (_g, _se) = cache.decisive_gain(1.0 / 3.0, opts.replications, 0.0, &runner);
        let filled = cache
            .cached
            .iter()
            .filter(|slot| slot.get().is_some())
            .count();
        assert!(
            filled > opts.replications,
            "expected widening beyond {} replications, cached {filled}",
            opts.replications,
        );
    }
}
