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
//! draws ([`CrnCache`]): arrival increments are stored at unit rate and
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
//! sweep ([`overhead_thresholds`]) — bit-identical to running a fresh
//! search per point, without regenerating the draw streams.
//!
//! ## Draw precision tiers
//!
//! Short searches cache draws at full precision. Past
//! [`CRN_CACHE_MAX_DRAWS`] (the variance-scaled full-effort heavy-tail
//! points — millions of draws per replication) the search switches to a
//! **compressed encoding**: arrival increments and service times are
//! rounded through `f32` and stored structure-of-arrays at 18 B/draw
//! ([`PackedDraws`]), cutting the heaviest Fig 2(b)/2(c) points from
//! ~500 MB to well inside the process budget instead of silently
//! regenerating every draw at every bisection midpoint. Two invariants
//! keep this deterministic:
//!
//! * the precision tier is a **pure function of the search
//!   configuration** (run length × replication ceiling) — never of how
//!   much budget other concurrent searches hold;
//! * within a tier, caching is best-effort: the streaming fallback
//!   rounds its draws through the *same* `f32` squash, so cached and
//!   streamed evaluations stay bit-identical (the tests force both
//!   paths and compare thresholds bitwise).
//!
//! ## Parallelism and determinism
//!
//! Replications are independent and run on a [`Runner`] (all public entry
//! points have `*_on` variants taking an explicit runner; the plain
//! versions use [`Runner::global`]). Per-replication seeds are derived
//! from explicit [`Rng::fork`] streams of the options' base seed — never
//! from loop order — so results are **bit-identical at any thread count**.

use simcore::dist::Distribution;
use simcore::rng::{Rng, SplitMix64};
use simcore::runner::Runner;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Above this many draws per search (run length × the replication
/// ceiling, 32 bytes each at full precision — ~100 MB) the search
/// switches from full-precision [`Draw`] storage to the compressed
/// [`PackedDraws`] encoding. The boundary is a pure function of the
/// search configuration, so a given configuration always computes with
/// the same precision regardless of what else is running.
const CRN_CACHE_MAX_DRAWS: usize = 3_200_000;

/// Per-search ceiling in the compressed tier (18 B/draw — ~430 MB).
/// The variance-scaled full-effort Fig 2(b)/2(c) heavy points need
/// ~15.8 M draws (~285 MB packed), comfortably inside; past this the
/// cache streams (still squashed through `f32`, so bits don't change).
const CRN_CACHE_MAX_PACKED_DRAWS: usize = 24_000_000;

/// Process-wide ceiling on simultaneously materialized CRN draw
/// **bytes** (~512 MB): the Fig 2/3 family sweeps run up to
/// thread-count searches concurrently, so a per-search bound alone would
/// scale resident memory with cores. Searches that cannot reserve budget
/// stream their draws instead — results are identical either way,
/// because the budget never influences the precision tier.
const CRN_CACHE_GLOBAL_BUDGET_BYTES: usize = 512 << 20;
static CRN_CACHE_RESERVED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Reserves `n` bytes from the process-wide budget; `false` when the
/// budget is exhausted (caller streams instead).
fn try_reserve_bytes(n: usize) -> bool {
    CRN_CACHE_RESERVED_BYTES
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            (cur + n <= CRN_CACHE_GLOBAL_BUDGET_BYTES).then_some(cur + n)
        })
        .is_ok()
}

/// Tuning for the threshold search. Defaults are figure-quality; tests use
/// [`ThresholdOptions::fast`].
#[derive(Clone, Debug)]
pub struct ThresholdOptions {
    /// Servers in the simulated cluster.
    pub servers: usize,
    /// Measured requests per run.
    pub requests: usize,
    /// Warm-up requests per run.
    pub warmup: usize,
    /// Independent seed pairs averaged per evaluation of `g`.
    pub replications: usize,
    /// Ceiling on replications when an evaluation is indecisive
    /// (`|g| < 2·se`): the search doubles the replication count up to this
    /// value before trusting the sign of `g`.
    pub max_replications: usize,
    /// Bisection terminates when the bracket is narrower than this.
    pub tolerance: f64,
    /// Client-side overhead added per replicated request (Fig 4's x-axis).
    pub replication_overhead: f64,
    /// Scale run length with the service distribution's variance: the mean
    /// of a heavy-tailed response converges slowly, and under-sampling the
    /// tail biases the k = 1 mean down more than the k = 2 mean (the min of
    /// two is lighter), dragging the estimated threshold below truth. With
    /// scaling, the Figure 2 families keep climbing toward the 50 % ceiling
    /// as the paper's do.
    pub scale_with_variance: bool,
    /// Base RNG seed; per-replication streams are forked from it
    /// deterministically (never from loop order).
    pub seed: u64,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        ThresholdOptions {
            servers: 20,
            requests: 150_000,
            warmup: 15_000,
            replications: 6,
            max_replications: 12,
            tolerance: 0.004,
            replication_overhead: 0.0,
            scale_with_variance: true,
            seed: 0x7357_0001,
        }
    }
}

impl ThresholdOptions {
    /// A much cheaper configuration for unit/integration tests: wider
    /// tolerance, fewer requests.
    pub fn fast() -> Self {
        ThresholdOptions {
            servers: 20,
            requests: 40_000,
            warmup: 4_000,
            replications: 4,
            max_replications: 8,
            tolerance: 0.01,
            ..Default::default()
        }
    }

    /// Sets the client-side replication overhead.
    pub fn with_overhead(mut self, overhead: f64) -> Self {
        self.replication_overhead = overhead;
        self
    }
}

/// One request's worth of random draws, shared by the paired k = 1 / k = 2
/// runs: a unit-rate arrival increment (rescaled by the load under test),
/// both copies' service times, and the server placements each replication
/// factor would choose.
#[derive(Clone, Copy, Debug)]
struct Draw {
    /// Unit-rate exponential arrival increment (`−ln u`); divided by the
    /// total arrival rate at evaluation time.
    arrival: f64,
    /// Service times for copy 0 and copy 1. Copy 0 is shared between the
    /// paired runs, exactly as in [`crate::model::run`].
    svc: [f64; 2],
    /// Server chosen by the k = 1 run.
    place_single: u16,
    /// Distinct servers chosen by the k = 2 run.
    place_pair: [u16; 2],
}

/// The draw precision a search computes with — a pure function of the
/// search configuration (see [`CrnCache::new`]), so that concurrent
/// budget pressure can change *speed* but never *bits*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DrawPrecision {
    /// Full-precision draws, stored as [`Draw`] (32 B each).
    Full,
    /// Compressed: every float rounded through `f32`, stored
    /// structure-of-arrays in [`PackedDraws`] (18 B per draw).
    Packed,
}

/// Rounds a draw's floats through `f32` — the compressed tier's only
/// arithmetic change. Applied identically on the cached path (by
/// storage) and the streaming path (explicitly), so the two agree
/// bitwise within the tier.
fn squash(d: Draw) -> Draw {
    Draw {
        arrival: d.arrival as f32 as f64,
        svc: [d.svc[0] as f32 as f64, d.svc[1] as f32 as f64],
        ..d
    }
}

/// One replication's draw stream in the compressed encoding:
/// structure-of-arrays `f32`/`u16` columns, 18 bytes per draw vs the 32
/// of `Vec<Draw>` — the full-effort heavy-tail points fit the process
/// budget in this form.
struct PackedDraws {
    arrival: Vec<f32>,
    svc: Vec<[f32; 2]>,
    place_single: Vec<u16>,
    place_pair: Vec<[u16; 2]>,
}

impl PackedDraws {
    /// Bytes a draw occupies in this encoding (4 + 8 + 2 + 4).
    const BYTES_PER_DRAW: usize = 18;

    fn with_capacity(n: usize) -> Self {
        PackedDraws {
            arrival: Vec::with_capacity(n),
            svc: Vec::with_capacity(n),
            place_single: Vec::with_capacity(n),
            place_pair: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, d: Draw) {
        self.arrival.push(d.arrival as f32);
        self.svc.push([d.svc[0] as f32, d.svc[1] as f32]);
        self.place_single.push(d.place_single);
        self.place_pair.push(d.place_pair);
    }

    /// Widens draw `i` back to the working representation. `f32 → f64`
    /// is exact, so this equals [`squash`] of the original draw.
    fn get(&self, i: usize) -> Draw {
        Draw {
            arrival: f64::from(self.arrival[i]),
            svc: [f64::from(self.svc[i][0]), f64::from(self.svc[i][1])],
            place_single: self.place_single[i],
            place_pair: self.place_pair[i],
        }
    }
}

/// Generates the draw stream for one replication. Mirrors the draw order
/// of [`crate::model::run`]: a sequential arrival stream plus per-request
/// substreams keyed on `(salt, request index)`, with the k = 1 placement
/// taken from a clone of the substream so both replication factors consume
/// the same prefix (CRN pairing).
struct DrawGen<'a, D: ?Sized> {
    arrival_rng: Rng,
    salt: u64,
    dist: &'a D,
    servers: usize,
    next_index: usize,
}

impl<'a, D: Distribution + ?Sized> DrawGen<'a, D> {
    fn new(dist: &'a D, servers: usize, seed: u64) -> Self {
        assert!(servers <= u16::MAX as usize, "too many servers for the CRN cache");
        DrawGen {
            arrival_rng: Rng::seed_from(seed).fork(0),
            salt: SplitMix64::new(seed ^ 0x5EED_CAFE).next_u64(),
            dist,
            servers,
            next_index: 0,
        }
    }

    fn next(&mut self) -> Draw {
        let i = self.next_index;
        self.next_index += 1;
        let arrival = -self.arrival_rng.f64_open().ln();
        let mut req_rng =
            Rng::seed_from(self.salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let svc0 = self.dist.sample(&mut req_rng);
        // The k = 1 run continues the substream right after copy 0's
        // service draw; the k = 2 run draws its second service time first.
        let mut single_rng = req_rng.clone();
        let place_single = single_rng.index(self.servers) as u16;
        let svc1 = self.dist.sample(&mut req_rng);
        let mut pair = [0usize; 2];
        req_rng.distinct_indices(self.servers, &mut pair);
        Draw {
            arrival,
            svc: [svc0, svc1],
            place_single,
            place_pair: [pair[0] as u16, pair[1] as u16],
        }
    }
}

/// Per-replication paired draw streams persisted across bisection
/// midpoints, so re-evaluating `g` at a new load reuses arrival patterns
/// and service draws instead of re-simulating from scratch.
struct CrnCache<'a, D: ?Sized> {
    dist: &'a D,
    servers: usize,
    /// Warm-up + measured requests (after variance scaling).
    total: usize,
    warmup: usize,
    mean_service: f64,
    max_replications: usize,
    /// Per-replication seeds, forked from the base seed upfront so a
    /// replication's stream is a pure function of its index.
    seeds: Vec<u64>,
    /// The precision tier — fixed at construction from the configuration
    /// alone (never from budget state).
    precision: DrawPrecision,
    /// Materialized full-precision streams (grown lazily, in replication
    /// order). Used only in the [`DrawPrecision::Full`] tier.
    cached: Vec<Vec<Draw>>,
    /// Materialized compressed streams ([`DrawPrecision::Packed`] tier).
    packed: Vec<PackedDraws>,
    cacheable: bool,
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
        let factor = if opts.scale_with_variance {
            let scv = dist.scv();
            if scv.is_finite() { (1.0 + scv / 2.0).clamp(1.0, 8.0) } else { 8.0 }
        } else {
            1.0
        };
        let requests = (opts.requests as f64 * factor) as usize;
        let warmup = (opts.warmup as f64 * factor) as usize;
        let total = requests + warmup;
        let max_replications = opts.max_replications.max(opts.replications);
        let mut root = Rng::seed_from(opts.seed);
        let seeds = (0..max_replications)
            .map(|r| root.fork(r as u64).next_u64())
            .collect();
        let needed = total.saturating_mul(max_replications);
        // The tier is decided by `needed` alone: a configuration that
        // outgrows full-precision storage computes in the compressed
        // encoding whether or not its draws end up cached.
        let precision = if needed <= CRN_CACHE_MAX_DRAWS {
            DrawPrecision::Full
        } else {
            DrawPrecision::Packed
        };
        let (fits, bytes) = match precision {
            DrawPrecision::Full => (true, needed.saturating_mul(std::mem::size_of::<Draw>())),
            DrawPrecision::Packed => (
                needed <= CRN_CACHE_MAX_PACKED_DRAWS,
                needed.saturating_mul(PackedDraws::BYTES_PER_DRAW),
            ),
        };
        let cacheable = fits && try_reserve_bytes(bytes);
        CrnCache {
            dist,
            servers: opts.servers,
            total,
            warmup,
            mean_service: dist.mean(),
            max_replications,
            seeds,
            precision,
            cached: Vec::new(),
            packed: Vec::new(),
            cacheable,
            reserved_bytes: if cacheable { bytes } else { 0 },
        }
    }

    /// Materializes draw streams for replications `0..reps` (no-op when
    /// already present or when this search streams instead of caching).
    fn ensure(&mut self, reps: usize, runner: &Runner) {
        if !self.cacheable {
            return;
        }
        let dist = self.dist;
        let servers = self.servers;
        let total = self.total;
        let seeds = &self.seeds;
        match self.precision {
            DrawPrecision::Full => {
                let have = self.cached.len();
                if have >= reps {
                    return;
                }
                let new = runner.run(reps - have, |j| {
                    let mut gen = DrawGen::new(dist, servers, seeds[have + j]);
                    (0..total).map(|_| gen.next()).collect::<Vec<Draw>>()
                });
                self.cached.extend(new);
            }
            DrawPrecision::Packed => {
                let have = self.packed.len();
                if have >= reps {
                    return;
                }
                let new = runner.run(reps - have, |j| {
                    let mut gen = DrawGen::new(dist, servers, seeds[have + j]);
                    let mut p = PackedDraws::with_capacity(total);
                    for _ in 0..total {
                        p.push(gen.next());
                    }
                    p
                });
                self.packed.extend(new);
            }
        }
    }

    /// Runs the paired k = 1 / k = 2 queues over replication `r`'s draws at
    /// base load `rho` with a per-replicated-request client `overhead`,
    /// returning `mean(k=2) − mean(k=1)`. The overhead is an *evaluation*
    /// parameter (not baked into the cache) precisely so one cache can
    /// serve every point of an overhead sweep — the draws do not depend on
    /// it.
    fn paired_diff(&self, r: usize, rho: f64, overhead: f64) -> f64 {
        let lambda = self.servers as f64 * rho / self.mean_service;
        match (self.cacheable, self.precision) {
            (true, DrawPrecision::Full) => {
                let mut it = self.cached[r].iter();
                self.paired_pass(lambda, overhead, move || {
                    *it.next().expect("draw stream exhausted")
                })
            }
            (true, DrawPrecision::Packed) => {
                let p = &self.packed[r];
                let mut i = 0usize;
                self.paired_pass(lambda, overhead, move || {
                    let d = p.get(i);
                    i += 1;
                    d
                })
            }
            (false, DrawPrecision::Full) => {
                let mut gen = DrawGen::new(self.dist, self.servers, self.seeds[r]);
                self.paired_pass(lambda, overhead, move || gen.next())
            }
            // Streaming in the compressed tier rounds through the same
            // squash the cache stores, keeping both paths bit-identical.
            (false, DrawPrecision::Packed) => {
                let mut gen = DrawGen::new(self.dist, self.servers, self.seeds[r]);
                self.paired_pass(lambda, overhead, move || squash(gen.next()))
            }
        }
    }

    /// The shared queue pass: both replication factors advance through the
    /// same arrival sequence, each with its own server state, exactly as
    /// two paired [`crate::model::run`] calls would — but in one sweep with
    /// no RNG on the hot path.
    fn paired_pass(&self, lambda: f64, overhead: f64, mut next_draw: impl FnMut() -> Draw) -> f64 {
        let mut free_single = vec![0.0f64; self.servers];
        let mut free_double = vec![0.0f64; self.servers];
        let mut now = 0.0f64;
        let mut sum_single = 0.0f64;
        let mut sum_double = 0.0f64;
        for i in 0..self.total {
            let d = next_draw();
            now += d.arrival / lambda;
            let s = d.place_single as usize;
            let done_single = now.max(free_single[s]) + d.svc[0];
            free_single[s] = done_single;
            let mut best = f64::INFINITY;
            for j in 0..2 {
                let s = d.place_pair[j] as usize;
                let done = now.max(free_double[s]) + d.svc[j];
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

    /// Paired estimate of `g(rho)` over `reps` replications, with the
    /// standard error of the paired differences.
    ///
    /// # Panics
    /// Panics when the replicated system has no steady state (`2·rho ≥ 1`)
    /// or the load is not positive — the same guards [`crate::model::run`]
    /// enforces.
    fn gain_at(&mut self, rho: f64, reps: usize, overhead: f64, runner: &Runner) -> (f64, f64) {
        assert!(
            rho > 0.0 && 2.0 * rho < 1.0,
            "k*rho = {} >= 1 has no steady state",
            2.0 * rho
        );
        self.ensure(reps, runner);
        let diffs = runner.run(reps, |r| self.paired_diff(r, rho, overhead));
        mean_and_se(&diffs)
    }

    /// Adaptive evaluation: widens the replication count (doubling, up to
    /// the cap) while the estimate is indecisive relative to its standard
    /// error. Diffs are a pure function of `(replication, rho, overhead)`,
    /// so each widening step only evaluates the *new* replications.
    fn decisive_gain(
        &mut self,
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
            self.ensure(reps, runner);
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
    cache: &mut CrnCache<'_, D>,
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

/// Paired estimate of `mean(k=2) − mean(k=1)` at base load `rho`, together
/// with the standard error of the paired differences across replications.
pub fn replication_gain<D: Distribution + Clone>(
    dist: &D,
    rho: f64,
    opts: &ThresholdOptions,
) -> (f64, f64) {
    replication_gain_on(&Runner::global(), dist, rho, opts)
}

/// [`replication_gain`] on an explicit [`Runner`]. Results are
/// bit-identical at any thread count.
pub fn replication_gain_on<D: Distribution + Clone>(
    runner: &Runner,
    dist: &D,
    rho: f64,
    opts: &ThresholdOptions,
) -> (f64, f64) {
    let mut cache = CrnCache::new(dist, opts);
    cache.gain_at(rho, opts.replications, opts.replication_overhead, runner)
}

/// Finds the threshold load for 2-way replication of `dist`.
///
/// Returns a value in `[0, 0.5)`. By construction the threshold cannot reach
/// 0.5 (the replicated system would saturate); it returns ~0 when
/// replication never helps (e.g. overwhelming client-side overhead, Fig 4's
/// right edge).
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
    let mut cache = CrnCache::new(dist, opts);
    bisect(&mut cache, opts.replication_overhead, opts, runner)
}

/// Threshold loads for several client overheads of **one** service
/// distribution (the Fig 4 x-axis), sharing a single CRN cache across all
/// points: the draws depend only on `(seed, replication index)`, never on
/// the overhead, so rebuilding them per point — as calling
/// [`threshold_load`] in a loop would — is pure waste. Each returned value
/// is bit-identical to the per-point path (`threshold_load` with
/// [`ThresholdOptions::with_overhead`]).
///
/// `opts.replication_overhead` is ignored; each element of `overheads` is
/// used instead.
pub fn overhead_thresholds<D: Distribution + Clone>(
    dist: &D,
    overheads: &[f64],
    opts: &ThresholdOptions,
) -> Vec<f64> {
    overhead_thresholds_on(&Runner::global(), dist, overheads, opts)
}

/// [`overhead_thresholds`] on an explicit [`Runner`]. Points run in
/// sequence (they share the mutable cache); the replications inside each
/// bisection step still fan out on the runner, and results are
/// bit-identical at any thread count.
pub fn overhead_thresholds_on<D: Distribution + Clone>(
    runner: &Runner,
    dist: &D,
    overheads: &[f64],
    opts: &ThresholdOptions,
) -> Vec<f64> {
    let mut cache = CrnCache::new(dist, opts);
    overheads
        .iter()
        .map(|&o| bisect(&mut cache, o, opts, runner))
        .collect()
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
    }

    #[test]
    fn deterministic_threshold_near_quarter() {
        // Paper: ~25.82%, the conjectured worst case.
        let thr = threshold_load(&Deterministic::unit(), &ThresholdOptions::fast());
        assert!(
            (0.22..0.31).contains(&thr),
            "deterministic threshold {thr} not near 0.26"
        );
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
                "{} threshold {thr} outside band",
                dist.label()
            );
        }
    }

    #[test]
    fn large_overhead_kills_threshold() {
        // Fig 4: once the client-side penalty reaches the mean service time,
        // replication cannot help the mean at any load.
        let opts = ThresholdOptions::fast().with_overhead(1.0);
        let thr = threshold_load(&Exponential::unit(), &opts);
        assert!(thr < 0.05, "threshold {thr} should collapse");
    }

    #[test]
    fn gain_sign_flips_across_threshold() {
        let opts = ThresholdOptions::fast();
        let (g_low, _) = replication_gain(&Exponential::unit(), 0.15, &opts);
        let (g_high, _) = replication_gain(&Exponential::unit(), 0.45, &opts);
        assert!(g_low < 0.0, "replication should help at 0.15: {g_low}");
        assert!(g_high > 0.0, "replication should hurt at 0.45: {g_high}");
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

    #[test]
    fn cached_and_streamed_draws_agree_bitwise() {
        // The memory-bounded fallback must be arithmetically identical to
        // the cached path: compare a cacheable run against the same run
        // forced through the streaming branch.
        let opts = ThresholdOptions::fast();
        let dist = Exponential::unit();
        let mut cached = CrnCache::new(&dist, &opts);
        cached.ensure(2, &Runner::serial());
        assert!(cached.cacheable && cached.cached.len() == 2);
        let mut streamed = CrnCache::new(&dist, &opts);
        streamed.cacheable = false;
        for r in 0..2 {
            for rho in [0.1, 0.3, 0.45] {
                assert_eq!(
                    cached.paired_diff(r, rho, 0.0).to_bits(),
                    streamed.paired_diff(r, rho, 0.0).to_bits(),
                    "r={r} rho={rho}"
                );
            }
        }
    }

    /// A configuration that lands in the compressed tier while keeping
    /// test runtime small: the tier is decided by run length × the
    /// replication *ceiling*, so a tall ceiling forces `Packed` without
    /// ever materializing more than a couple of replications.
    fn packed_tier_opts() -> ThresholdOptions {
        let mut opts = ThresholdOptions::fast();
        opts.requests = 25_000;
        opts.warmup = 3_000;
        opts.scale_with_variance = false; // total = 28_000 exactly
        opts.replications = 2;
        opts.max_replications = 128; // 28_000 × 128 = 3.584 M > CRN_CACHE_MAX_DRAWS
        opts.tolerance = 0.05;
        opts
    }

    #[test]
    fn packed_and_streamed_draws_agree_bitwise() {
        // The compressed tier's memory-bounded fallback must match its
        // cached path bit for bit — both round draws through the same
        // f32 squash, one at storage time, one at generation time.
        let opts = packed_tier_opts();
        let dist = Exponential::unit();
        let mut cached = CrnCache::new(&dist, &opts);
        assert_eq!(cached.precision, DrawPrecision::Packed);
        assert!(cached.cacheable, "packed tier should fit the budget");
        cached.ensure(2, &Runner::serial());
        assert_eq!(cached.packed.len(), 2);
        assert!(cached.cached.is_empty(), "full-precision store unused");
        let mut streamed = CrnCache::new(&dist, &opts);
        streamed.cacheable = false;
        for r in 0..2 {
            for rho in [0.1, 0.3, 0.45] {
                assert_eq!(
                    cached.paired_diff(r, rho, 0.0).to_bits(),
                    streamed.paired_diff(r, rho, 0.0).to_bits(),
                    "r={r} rho={rho}"
                );
            }
        }
    }

    #[test]
    fn packed_threshold_bit_identical_cached_vs_streamed() {
        // The whole bisection, compressed-cached vs forced-streaming:
        // the threshold a full-effort heavy point reports cannot depend
        // on whether its draws were materialized.
        let opts = packed_tier_opts();
        let dist = Exponential::unit();
        let runner = Runner::serial();
        let mut cached = CrnCache::new(&dist, &opts);
        assert_eq!(cached.precision, DrawPrecision::Packed);
        let thr_cached = bisect(&mut cached, 0.0, &opts, &runner);
        assert!(!cached.packed.is_empty(), "bisection used the cache");
        let mut streamed = CrnCache::new(&dist, &opts);
        streamed.cacheable = false;
        let thr_streamed = bisect(&mut streamed, 0.0, &opts, &runner);
        assert_eq!(thr_cached.to_bits(), thr_streamed.to_bits());
        // And the compressed tier still lands on the right physics.
        assert!(
            (thr_cached - 1.0 / 3.0).abs() < 0.06,
            "packed-tier exponential threshold {thr_cached} strayed from 1/3"
        );
    }

    #[test]
    fn full_effort_heavy_point_fits_the_cache_budget() {
        // The carried-over defect: at default (full-effort) options a
        // heavy-tailed Fig 2(b) point scales to 1.32 M requests × 12
        // replications = 15.84 M draws, which overflowed the old 3.2 M
        // full-precision bound and silently streamed every bisection
        // midpoint. Compressed, it reserves ~285 MB and caches. (No
        // draws are materialized here — construction only.)
        let opts = ThresholdOptions::default();
        let dist = Pareto::unit_mean_inverse_scale(0.98); // fig2b's heaviest axis point
        let cache = CrnCache::new(&dist, &opts);
        assert_eq!(
            cache.total * cache.max_replications,
            15_840_000,
            "full-effort heavy point draw count moved; re-check the tier caps"
        );
        assert_eq!(cache.precision, DrawPrecision::Packed);
        assert!(
            cache.cacheable,
            "full-effort heavy point must fit the compressed budget"
        );
        assert_eq!(
            cache.reserved_bytes,
            15_840_000 * PackedDraws::BYTES_PER_DRAW
        );
    }

    #[test]
    fn crn_paired_diff_matches_model_run() {
        // The CRN cache re-implements model::run's draw scheme and queue
        // arithmetic for speed; this pins the two against each other so a
        // future edit to either cannot silently decorrelate them. The only
        // permitted difference is mean-accumulation rounding (Welford vs.
        // plain sum), hence the tight-but-not-bitwise tolerance.
        use crate::model::{run, Config};
        let mut opts = ThresholdOptions::fast();
        opts.requests = 12_000;
        opts.warmup = 1_200;
        opts.scale_with_variance = false; // keep run lengths comparable
        let dist = Exponential::unit();
        let mut cache = CrnCache::new(&dist, &opts);
        cache.ensure(2, &Runner::serial());
        for r in 0..2 {
            for rho in [0.15, 0.3, 0.45] {
                let g_cache = cache.paired_diff(r, rho, 0.0);
                let seed = cache.seeds[r];
                let base = Config::new(dist, rho)
                    .with_servers(opts.servers)
                    .with_requests(opts.requests, opts.warmup);
                let single = run(&base.clone().with_copies(1), seed);
                let double = run(&base.with_copies(2), seed);
                let g_model = double.moments.mean() - single.moments.mean();
                assert!(
                    (g_cache - g_model).abs() <= 1e-9 * (1.0 + g_model.abs()),
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
            for (i, &o) in overheads.iter().enumerate() {
                let per_point =
                    threshold_load_on(&runner, &dist, &opts.clone().with_overhead(o));
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
        let mut cache = CrnCache::new(&dist, &opts);
        let runner = Runner::serial();
        let (_g, _se) = cache.decisive_gain(1.0 / 3.0, opts.replications, 0.0, &runner);
        assert!(
            cache.cached.len() > opts.replications,
            "expected widening beyond {} replications, cached {}",
            opts.replications,
            cache.cached.len()
        );
    }
}
