//! # rt — the wall-clock counterpart of the simulated service.
//!
//! Everything else in this crate runs in *simulated* time on
//! `simcore::shard`. This module is the executable twin: `N` real worker
//! threads serve requests over `std::sync::mpsc` channels, the adaptive
//! frontend decides every request with [`LivePlanner`] — the same loop
//! the simulated service's frontend lanes run — and first-response
//! cancellation races actual in-flight execution through the shared
//! [`CancelToken`]. It exists to answer the question the simulators
//! cannot: is the per-request decision stack cheap enough — in real
//! nanoseconds, against real thread wakeups — to run on every request?
//! ("When Do Redundant Requests Reduce Latency?" maps where decision
//! overhead flips redundancy negative; this runtime is where we measure
//! our own overhead against that line.)
//!
//! ## The determinism split
//!
//! A wall-clock runtime cannot promise bit-identical *latencies* — but its
//! **decision trace** can be a pure function of the workload. The split:
//!
//! * the **request script** (arrival times, per-copy service demands,
//!   server placements) is drawn from the seed one request at a time, in
//!   request order, as the frontend dispatches. Arrival gaps and the
//!   per-request draws come from two separate streams, so no completion
//!   can reorder them: request `i`'s script is a pure function of the
//!   seed and `i`, like the CRN draw streams in `queuesim::threshold`;
//! * the planner is the simulator's [`LivePlanner`], one index per
//!   logical server, and it ingests **script time and scripted demands
//!   only**: each request's arrival reaches both stored replicas at its
//!   scripted timestamp, and issued copies report their scripted demand
//!   at *dispatch* (as the simulated frontend does under PS
//!   cancellation), never a measured duration. Loads, the trusted live
//!   mean, the cold-server load (`load_start`) and the recalibrated
//!   threshold follow the simulated per-server frontend's rule exactly;
//! * therefore each replicate-or-not decision is a pure function of the
//!   script prefix, and the recorded trace is byte-identical across runs
//!   and across **any worker count** — the property pinned by the tests
//!   below and smoked by `repro svc-rt`;
//! * wall-clock latencies are measured (dispatch → first completion) and
//!   reported, but live in a clearly separated, *non-deterministic*
//!   section of the output, excluded from CI's byte-diff trees.
//!
//! Workers execute a copy by spinning for its scripted demand while
//! polling the request's [`CancelToken`]; the frontend cancels the token
//! when the first copy completes, so losers are purged from the queue
//! (cancelled before starting) or aborted mid-execution — the same
//! tri-state accounting the simulated service keeps. The frontend records
//! a response exactly once per request: a late winner (a copy that
//! completed before observing the cancel) increments a counter instead of
//! double-completing. The frontend keeps per-request state only for the
//! window from the oldest request with an unaccounted copy to the newest
//! dispatched one, so its memory follows the in-flight load, not the
//! script length; the latency samples are the one per-request record kept
//! for the whole run.
//!
//! This file is the *only* storesim module exempt from the workspace's
//! `clippy::disallowed_types` wall-clock ban (the `expect` below):
//! `Instant` here is the data plane, not simulation state.

#![expect(
    clippy::disallowed_types,
    reason = "the wall-clock runtime module executes on real threads; Instant is its \
              data plane, and every estimator/planner input there is script time by \
              construction (see the module docs); no other storesim module is exempt"
)]

use crate::service::{ramp_load, switch_off_load};
use redundancy::cancel::CancelToken;
use redundancy::planner::{LivePlanner, Planner, WorkloadProfile};
use simcore::dist::{DynDist, Exponential};
use simcore::rng::Rng;
use simcore::stats::SampleSet;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one wall-clock run.
///
/// `servers` are *logical* queues (the planner's placement domain);
/// `workers` are OS threads. Copy placed on logical server `s` executes
/// on worker thread `s % workers`, so the worker count is a pure
/// execution knob — it moves wall-clock latency, never the decision
/// trace.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Logical servers (placement candidates; the estimator bank's width).
    pub servers: usize,
    /// OS worker threads executing copies. Must be ≥ 1.
    pub workers: usize,
    /// Per-copy service demand distribution, in seconds of real execution
    /// (spin time). Its exact moments seed the planner until the moment
    /// estimator warms up.
    pub service: DynDist,
    /// Arrival-rate estimator window, in inter-arrival gaps per server.
    pub window: usize,
    /// Moment-estimator window, in observed (scripted) demands.
    pub moment_window: usize,
    /// Scripted demands the moment window must hold before the live
    /// moments are trusted (in `[2, moment_window]`).
    pub min_samples: usize,
    /// Planner recalibration cadence, in observed demands.
    pub recalibrate: usize,
    /// Client-side overhead fed to the planner (§2.3), seconds.
    pub client_overhead: f64,
    /// Offered baseline per-server utilization at the ramp start (the
    /// warm-up runs entirely at this load). This shapes the *script
    /// clock* — the frontend dispatches as fast as the in-flight window
    /// allows, it does not pace wall time to the script.
    pub load_start: f64,
    /// Offered baseline utilization at the ramp end.
    pub load_end: f64,
    /// Measured requests.
    pub requests: usize,
    /// Warm-up requests (run at `load_start`, excluded from the bucketed
    /// decision curve but part of the trace).
    pub warmup: usize,
    /// Maximum requests simultaneously in flight (bounds queue memory and
    /// keeps the latency race honest — losers must still be racing when
    /// the winner lands).
    pub inflight: usize,
    /// Ramp buckets for the reported k = 2 fraction curve.
    pub buckets: usize,
    /// RNG seed for the request script.
    pub seed: u64,
}

impl RtConfig {
    /// The smoke configuration: 8 logical servers, 5 µs mean exponential
    /// demands, a 0.05 → 0.90 load ramp that crosses the §2.1 threshold
    /// (so the trace shows the planner actually switching off), and a
    /// self-calibrating moment loop with figure-shaped cadences.
    pub fn smoke(requests: usize, workers: usize) -> Self {
        RtConfig {
            servers: 8,
            workers,
            service: Arc::new(Exponential::with_mean(5.0e-6)),
            // Sized for the per-*server* stream: with 8 servers and two
            // observations per request, a request stream of R feeds each
            // estimator ~R/4 gaps, and the window must cover a small
            // fraction of the ramp for the switch-off to track it.
            window: 512,
            moment_window: 4096,
            min_samples: 256,
            recalibrate: 512,
            client_overhead: 0.0,
            load_start: 0.05,
            load_end: 0.90,
            requests,
            warmup: requests / 10,
            inflight: 512,
            buckets: 18,
            seed: 0x5C11_07E5,
        }
    }

    /// Total scripted requests (warm-up + measured).
    fn total(&self) -> usize {
        self.warmup + self.requests
    }

    /// The ramp bucket of request `i` (`None` during warm-up). With `M`
    /// measured requests (at least 1) and `B` buckets, bucket `b` holds
    /// measured requests `⌊b·M/B⌋..⌊(b+1)·M/B⌋`, so measured request `m`
    /// lies in bucket `⌈(m+1)·B/M⌉ − 1`.
    fn bucket_of(&self, i: usize) -> Option<usize> {
        let m = i.checked_sub(self.warmup)?;
        Some(((m + 1) * self.buckets).checked_sub(1)? / self.requests.max(1))
    }

    /// Offered baseline load of request `i`: the simulated service's
    /// ramp ([`ramp_load`]).
    fn offered(&self, i: usize) -> f64 {
        ramp_load(
            i,
            self.warmup,
            self.requests,
            self.load_start,
            self.load_end,
        )
    }
}

/// One copy handed to a worker thread.
struct Job {
    req: u32,
    demand_secs: f64,
    token: CancelToken,
    enqueued: Instant,
}

/// What happened to one copy.
enum CopyOutcome {
    /// Ran its full demand before any cancel was observed.
    Completed,
    /// Token already cancelled when the worker dequeued it.
    Purged,
    /// Cancel observed mid-execution.
    Aborted,
}

struct CopyDone {
    req: u32,
    outcome: CopyOutcome,
    latency: Duration,
}

/// The frontend's state for one dispatched request.
struct InFlight {
    token: CancelToken,
    /// Copies not yet accounted.
    pending: u8,
    /// Whether the first completion was recorded.
    recorded: bool,
}

/// Frontend-side completion bookkeeping (split out of [`run`] so the
/// drain sites share one handler without a self-borrowing closure).
struct FrontState {
    /// Requests `front..`, from the oldest with a copy still unaccounted
    /// to the newest dispatched; fully accounted requests retire from the
    /// front.
    window: VecDeque<InFlight>,
    /// Request index of `window[0]`.
    front: usize,
    latencies: SampleSet,
    responses: usize,
    late: usize,
    purged: usize,
    aborted: usize,
    accounted: usize,
    inflight: usize,
}

impl FrontState {
    fn new(total: usize) -> Self {
        FrontState {
            window: VecDeque::new(),
            front: 0,
            latencies: SampleSet::with_capacity(total),
            responses: 0,
            late: 0,
            purged: 0,
            aborted: 0,
            accounted: 0,
            inflight: 0,
        }
    }

    fn handle_done(&mut self, done: CopyDone) {
        // A copy is accounted only once, so its request is still pending
        // and inside the window.
        let req = &mut self.window[done.req as usize - self.front];
        match done.outcome {
            CopyOutcome::Completed => {
                if req.recorded {
                    // A late winner: its sibling already completed. It must
                    // never double-complete the request — counted, dropped.
                    self.late += 1;
                } else {
                    req.recorded = true;
                    self.responses += 1;
                    self.latencies.push(done.latency.as_secs_f64());
                    req.token.cancel();
                }
            }
            CopyOutcome::Purged => self.purged += 1,
            CopyOutcome::Aborted => self.aborted += 1,
        }
        req.pending -= 1;
        if req.pending == 0 {
            self.inflight -= 1;
        }
        self.accounted += 1;
        while self.window.front().is_some_and(|r| r.pending == 0) {
            self.window.pop_front();
            self.front += 1;
        }
    }
}

/// Result of one wall-clock run: the deterministic decision trace and its
/// derived statistics first, the non-deterministic wall-clock section
/// last. `trace_fingerprint` is the value the determinism tests and
/// `repro svc-rt` compare across runs and worker counts.
#[derive(Clone, Debug)]
pub struct RtResult {
    /// FNV-1a-64 over every `(k, pair, pick)` trace entry, in request
    /// order. Identical across runs and worker counts by construction.
    pub trace_fingerprint: u64,
    /// Requests the planner replicated (k = 2), over the whole script.
    pub decisions_k2: usize,
    /// Scripted requests served (warm-up + measured).
    pub requests: usize,
    /// Copies dispatched to workers (`requests + decisions_k2`).
    pub issued_copies: usize,
    /// Requests whose first completion was recorded (always `requests`).
    pub responses: usize,
    /// Copies that completed *after* their request already had a winner —
    /// the double-completion candidates the frontend must absorb.
    pub late: usize,
    /// Copies cancelled before starting execution.
    pub purged: usize,
    /// Copies whose execution was aborted by a cancel.
    pub aborted: usize,
    /// `(bucket midpoint offered load, k = 2 fraction)` over the measured
    /// ramp — deterministic.
    pub k2_fraction_by_bucket: Vec<(f64, f64)>,
    /// Offered load at which the k = 2 fraction last crosses ½, the
    /// simulator's [`switch_off_load`] (NaN if it never switches off).
    pub switch_off_load: f64,
    /// Planner's offline threshold from the config moments (reference).
    pub offline_threshold: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds, dispatch of the first request to the last
    /// accounted copy. **Non-deterministic.**
    pub wall_secs: f64,
    /// Mean dispatch → first-completion latency, seconds. **Non-deterministic.**
    pub mean_latency_s: f64,
    /// 99th-percentile latency, seconds (R-7 interpolation, as
    /// [`SampleSet::quantile`] computes it for every simulated report; 0
    /// when nothing completed). **Non-deterministic.**
    pub p99_latency_s: f64,
}

/// FNV-1a 64-bit, the fingerprint primitive the byte-pin tests use.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Spins for `demand` seconds, polling the token; `true` if the copy ran
/// to completion, `false` if a cancel aborted it.
fn execute(demand_secs: f64, token: &CancelToken) -> bool {
    let deadline = Duration::from_secs_f64(demand_secs);
    let t0 = Instant::now();
    loop {
        if t0.elapsed() >= deadline {
            return true;
        }
        if token.is_cancelled() {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Runs the wall-clock service over the scripted workload.
///
/// # Panics
/// Panics on a zero worker count, `servers < 2`, loads outside the
/// replicated system's stable region, or `min_samples` outside
/// `[2, moment_window]`.
pub fn run(cfg: &RtConfig) -> RtResult {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.servers >= 2, "need at least 2 servers to replicate");
    assert!(cfg.servers <= u16::MAX as usize, "too many servers");
    assert!(
        cfg.load_start > 0.0 && cfg.load_end > 0.0 && cfg.load_start < 1.0 && cfg.load_end < 1.0,
        "loads must sit in (0, 1)"
    );
    assert!(cfg.inflight >= 1, "need a positive in-flight window");
    let total = cfg.total();

    // Worker pool: one job channel per worker, one shared completion
    // channel back. Copy on logical server s runs on worker s % workers.
    let (done_tx, done_rx) = mpsc::channel::<CopyDone>();
    let mut job_txs = Vec::with_capacity(cfg.workers);
    let mut handles = Vec::with_capacity(cfg.workers);
    for _ in 0..cfg.workers {
        let (tx, rx) = mpsc::channel::<Job>();
        let done = done_tx.clone();
        job_txs.push(tx);
        handles.push(std::thread::spawn(move || {
            for job in rx {
                let done_msg = if job.token.is_cancelled() {
                    CopyDone {
                        req: job.req,
                        outcome: CopyOutcome::Purged,
                        latency: job.enqueued.elapsed(),
                    }
                } else {
                    let completed = execute(job.demand_secs, &job.token);
                    CopyDone {
                        req: job.req,
                        outcome: if completed {
                            CopyOutcome::Completed
                        } else {
                            CopyOutcome::Aborted
                        },
                        latency: job.enqueued.elapsed(),
                    }
                };
                if done.send(done_msg).is_err() {
                    return;
                }
            }
        }));
    }
    drop(done_tx);

    // The live decision loop — the simulated frontend's, crossing no
    // thread boundary (decisions are made inline here; only `Job`s,
    // which are `Send`, cross to workers).
    let base_planner = Planner::new(WorkloadProfile {
        mean_service: cfg.service.mean(),
        scv: cfg.service.scv(),
        client_overhead: cfg.client_overhead,
    });
    let offline_threshold = base_planner.threshold_load();
    let mut planner = LivePlanner::new(
        base_planner,
        offline_threshold,
        cfg.servers,
        cfg.window,
        0,
        cfg.load_start,
    )
    .with_moments(cfg.moment_window, cfg.min_samples, cfg.recalibrate);

    // The request script's two streams: arrival gaps, and each request's
    // demands and placement.
    let mut root = Rng::seed_from(cfg.seed);
    let mut arrival_rng = root.fork(0);
    let mut req_rng = root.fork(1);
    let mean = cfg.service.mean();
    let mut script_now = 0.0f64;

    let mut st = FrontState::new(total);
    let mut decisions_k2 = 0usize;
    let mut bucket_k2 = vec![0usize; cfg.buckets];
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    let mut issued = 0usize;

    let t_run = Instant::now();
    for i in 0..total {
        // Drain whatever has finished; block only when the window is full.
        while let Ok(done) = done_rx.try_recv() {
            st.handle_done(done);
        }
        while st.inflight >= cfg.inflight {
            let done = done_rx.recv().expect("workers alive while jobs pending");
            st.handle_done(done);
        }

        // --- request i's script: its arrival gap, then its two demands,
        // its stored pair and the k = 1 pick, in that draw order ---
        let lambda = cfg.servers as f64 * cfg.offered(i) / mean;
        script_now += -arrival_rng.f64_open().ln() / lambda;
        let demands = [
            cfg.service.sample(&mut req_rng),
            cfg.service.sample(&mut req_rng),
        ];
        let mut drawn = [0usize; 2];
        req_rng.distinct_indices(cfg.servers, &mut drawn);
        let pair = drawn.map(|s| s as u16);
        let pick = req_rng.index(2) as u8;

        // --- the deterministic decision hot path (script inputs only) ---
        let k = 1 + u8::from(planner.decide(script_now, &pair, 2.0));
        if k == 2 {
            decisions_k2 += 1;
            if let Some(b) = cfg.bucket_of(i) {
                bucket_k2[b] += 1;
            }
        }
        fingerprint_entry(&mut fingerprint, k, pair, pick);

        // Dispatch-time demand reporting, as the simulated frontend does
        // under PS cancellation: every *issued* copy's scripted demand,
        // observed exactly once.
        for c in 0..k as usize {
            planner.observe_demand(demands[copy_index(k, pick, c)]);
        }

        // --- real dispatch ---
        let token = CancelToken::new();
        st.window.push_back(InFlight {
            token: token.clone(),
            pending: k,
            recorded: false,
        });
        st.inflight += 1;
        let enqueued = Instant::now();
        for c in 0..k as usize {
            let idx = copy_index(k, pick, c);
            let server = pair[idx] as usize;
            let job = Job {
                req: i as u32,
                demand_secs: demands[idx],
                token: token.clone(),
                enqueued,
            };
            job_txs[server % cfg.workers]
                .send(job)
                .expect("worker alive");
            issued += 1;
        }
    }
    drop(job_txs);
    while st.accounted < issued {
        let done = done_rx.recv().expect("workers alive while jobs pending");
        st.handle_done(done);
    }
    let wall_secs = t_run.elapsed().as_secs_f64();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    // Deterministic derived stats.
    let mut k2_fraction_by_bucket = Vec::with_capacity(cfg.buckets);
    let measured = cfg.requests.max(1);
    for (b, &k2) in bucket_k2.iter().enumerate() {
        let lo = cfg.warmup + b * measured / cfg.buckets;
        let hi = cfg.warmup + (b + 1) * measured / cfg.buckets;
        let n = (hi - lo).max(1);
        let mid = 0.5 * (cfg.offered(lo) + cfg.offered(hi.saturating_sub(1)));
        k2_fraction_by_bucket.push((mid, k2 as f64 / n as f64));
    }
    let switch_off_load = switch_off_load(&k2_fraction_by_bucket);

    // Non-deterministic wall-clock stats, with the simulated reports'
    // R-7 quantile.
    let mean_latency_s = st.latencies.mean();
    let p99_latency_s = if st.latencies.is_empty() {
        0.0
    } else {
        st.latencies.quantile(0.99)
    };

    RtResult {
        trace_fingerprint: fingerprint,
        decisions_k2,
        requests: total,
        issued_copies: issued,
        responses: st.responses,
        late: st.late,
        purged: st.purged,
        aborted: st.aborted,
        k2_fraction_by_bucket,
        switch_off_load,
        offline_threshold,
        workers: cfg.workers,
        wall_secs,
        mean_latency_s,
        p99_latency_s,
    }
}

/// Which scripted demand/placement slot copy `c` of a `k`-copy dispatch
/// uses: k = 2 issues both slots in order; k = 1 issues the load-balanced
/// pick among the stored pair.
fn copy_index(k: u8, pick: u8, c: usize) -> usize {
    if k == 2 {
        c
    } else {
        pick as usize
    }
}

fn fingerprint_entry(hash: &mut u64, k: u8, pair: [u16; 2], pick: u8) {
    fnv1a(hash, &[k, pick]);
    fnv1a(hash, &pair[0].to_le_bytes());
    fnv1a(hash, &pair[1].to_le_bytes());
}

// The decision stack crosses into this module under `Send` bounds (jobs
// and tokens cross threads; the planner stays on the frontend but must
// be movable into service threads by callers). Pin it at compile
// time so a non-Send regression in `redundancy` fails here, not in a
// downstream embedding.
const _: () = {
    const fn is_send<T: Send>() {}
    is_send::<LivePlanner>();
    is_send::<CancelToken>();
    is_send::<Job>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(requests: usize, workers: usize) -> RtConfig {
        let mut cfg = RtConfig::smoke(requests, workers);
        // ~1 µs demands keep the scripted run fast even in debug builds.
        cfg.service = Arc::new(Exponential::with_mean(1.0e-6));
        cfg
    }

    #[test]
    fn small_script_trace_is_pinned() {
        // Values recorded when the script was still generated upfront:
        // drawing it request by request must keep every draw, decision and
        // bucket count (7 buckets over 3 001 measured requests, so the
        // bucket edges fall between requests).
        let mut cfg = tiny(3_001, 2);
        cfg.window = 128;
        cfg.buckets = 7;
        let out = run(&cfg);
        assert_eq!(out.trace_fingerprint, 0xf792_8ce8_2579_ea2a);
        assert_eq!(out.decisions_k2, 1_477);
        let mut curve = 0xCBF2_9CE4_8422_2325u64;
        for &(mid, frac) in &out.k2_fraction_by_bucket {
            fnv1a(&mut curve, &mid.to_bits().to_le_bytes());
            fnv1a(&mut curve, &frac.to_bits().to_le_bytes());
        }
        assert_eq!(curve, 0xd39a_8214_17ac_860f);
        assert_eq!(out.switch_off_load.to_bits(), 0x3fd9_2a72_032e_5d35);
        assert_eq!(out.issued_copies, 4_778);
        assert_eq!(
            out.issued_copies,
            out.responses + out.late + out.purged + out.aborted,
            "{out:?}"
        );
    }

    #[test]
    fn completes_and_accounts_every_copy() {
        let mut cfg = tiny(4_000, 2);
        // A 4k script feeds each per-server estimator only ~1k gaps; a
        // short window keeps the load estimate tracking the ramp.
        cfg.window = 128;
        let out = run(&cfg);
        assert_eq!(out.responses, out.requests);
        assert_eq!(
            out.issued_copies,
            out.responses + out.late + out.purged + out.aborted,
            "every dispatched copy must be accounted exactly once: {out:?}"
        );
        assert!(out.decisions_k2 > 0, "ramp must start below threshold");
        assert!(
            out.decisions_k2 < out.requests,
            "ramp end (0.9) must sit above the switch-off"
        );
        assert!(!out.switch_off_load.is_nan(), "{out:?}");
        assert!(out.mean_latency_s > 0.0 && out.wall_secs > 0.0);
    }

    #[test]
    fn decision_trace_is_deterministic_across_runs_and_workers() {
        // The acceptance bar: a 100k-request scripted run, identical
        // decision trace at 1, 4, and 8 worker threads — and across
        // repeat runs at the same worker count.
        let base = run(&tiny(100_000, 1));
        for workers in [4usize, 8] {
            let out = run(&tiny(100_000, workers));
            assert_eq!(
                out.trace_fingerprint, base.trace_fingerprint,
                "workers={workers}"
            );
            assert_eq!(out.decisions_k2, base.decisions_k2, "workers={workers}");
            assert_eq!(out.k2_fraction_by_bucket, base.k2_fraction_by_bucket);
        }
        let again = run(&tiny(100_000, 4));
        assert_eq!(again.trace_fingerprint, base.trace_fingerprint);
    }

    #[test]
    fn late_winner_never_double_completes() {
        // Load pinned far below threshold ⇒ every request replicates, and
        // near-deterministic sibling demands make the race tight, so late
        // second completions actually occur. The frontend must record one
        // response per request and absorb the rest.
        let mut cfg = tiny(6_000, 4);
        cfg.load_start = 0.05;
        cfg.load_end = 0.10;
        let out = run(&cfg);
        assert_eq!(out.decisions_k2, out.requests, "all requests replicate");
        assert_eq!(out.responses, out.requests, "exactly one response each");
        assert_eq!(
            out.issued_copies,
            out.responses + out.late + out.purged + out.aborted
        );
        assert!(
            out.late + out.purged + out.aborted > 0,
            "with 2 copies per request the losing copies must show up \
             somewhere: {out:?}"
        );
    }

    #[test]
    fn cancellation_reaches_in_flight_execution() {
        // Long demands + few workers: by the time a winner lands, the
        // sibling is usually queued (purged) or mid-spin (aborted) — the
        // cancel must reach both states.
        let mut cfg = tiny(1_500, 2);
        cfg.service = Arc::new(Exponential::with_mean(20.0e-6));
        cfg.load_start = 0.05;
        cfg.load_end = 0.10;
        let out = run(&cfg);
        assert!(
            out.purged + out.aborted > 0,
            "cancellation never reached a loser: {out:?}"
        );
    }
}
