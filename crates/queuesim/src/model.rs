//! The replicated-queue simulator.
//!
//! Implements §2.1's model exactly: `N` identical FIFO servers, Poisson
//! arrivals at rate `N·ρ/E[S]` (so the *base* per-server utilization is ρ),
//! and `k` copies of each request enqueued at `k` distinct servers chosen
//! uniformly at random. Each copy draws an independent service time; the
//! request's response time is the minimum over copies of
//! `(completion − arrival)`; siblings are **not** cancelled (the paper's
//! model has no cancellation — that is what doubles utilization at k = 2).
//!
//! ## Exactness without an event heap
//!
//! Because each server is work-conserving FIFO and we process arrivals in
//! nondecreasing time order, a server's state is fully captured by the time
//! it next becomes free: a copy arriving at `t` at server `s` starts at
//! `max(t, free_at[s])` and completes after its service time. This makes the
//! simulator a tight O(1)-per-copy loop — important because the
//! threshold-load bisection in [`crate::threshold`] runs it tens of millions
//! of request-copies per figure point.
//!
//! ## Common random numbers
//!
//! Arrival times and the *i*-th request's copy-0 service time are identical
//! for the k = 1 and k = 2 runs at the same seed (per-request substreams are
//! derived from `(seed, request index)`, not from a shared sequential
//! stream). The paired difference `mean(k=1) − mean(k=2)` therefore has far
//! lower variance than two independent runs, which is what makes the
//! threshold bisection stable.

use simcore::dist::Distribution;
use simcore::rng::{Rng, SplitMix64};
use simcore::stats::{SampleSet, Welford};

/// Configuration for one run of the replicated-queue model.
#[derive(Clone, Debug)]
pub struct Config<D> {
    /// Number of servers `N`. The paper notes the independence
    /// approximation behind Theorem 1 is already <0.1 % off at N = 20, so
    /// that is the default.
    pub servers: usize,
    /// Replication factor `k ≥ 1` (k = 1 means no redundancy).
    pub copies: usize,
    /// Base per-server utilization ρ ∈ [0, 1) **without** replication; with
    /// k copies each server's actual utilization is `k·ρ`.
    pub load: f64,
    /// Service-time distribution `S` (the paper normalizes `E[S] = 1`; any
    /// positive mean works here).
    pub service: D,
    /// Client-side latency penalty added to every request when `copies > 1`
    /// (the x-axis of Fig 4), in the same time unit as `service`.
    pub replication_overhead: f64,
    /// Tied-request cancellation (the Dean & Barroso capability the paper
    /// notes is "not necessarily available in general"): when the first
    /// copy completes, sibling copies that have **not yet started service**
    /// are withdrawn from their queues and their load refunded. In-service
    /// siblings still run to completion (you cannot un-seek a disk). The
    /// paper's own model is `false`.
    pub cancellation: bool,
    /// Requests to measure (after warm-up).
    pub requests: usize,
    /// Requests to simulate-and-discard first, so measurements are taken in
    /// (approximate) steady state.
    pub warmup: usize,
}

impl<D: Distribution> Config<D> {
    /// A single-copy baseline at the given service distribution and load,
    /// with defaults suitable for figure-quality runs (20 servers, 200 k
    /// measured requests after 20 k warm-up).
    pub fn new(service: D, load: f64) -> Self {
        assert!((0.0..1.0).contains(&load), "load must be in [0,1): {load}");
        Config {
            servers: 20,
            copies: 1,
            load,
            service,
            replication_overhead: 0.0,
            cancellation: false,
            requests: 200_000,
            warmup: 20_000,
        }
    }

    /// Enables tied-request cancellation (see the field docs).
    pub fn with_cancellation(mut self, on: bool) -> Self {
        self.cancellation = on;
        self
    }

    /// Sets the replication factor.
    pub fn with_copies(mut self, k: usize) -> Self {
        assert!(k >= 1, "copies must be >= 1");
        self.copies = k;
        self
    }

    /// Sets the measured/warm-up request counts.
    pub fn with_requests(mut self, requests: usize, warmup: usize) -> Self {
        self.requests = requests;
        self.warmup = warmup;
        self
    }

    /// Sets the number of servers.
    pub fn with_servers(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.servers = n;
        self
    }

    /// Sets the per-request client-side overhead applied when `copies > 1`.
    pub fn with_replication_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0);
        self.replication_overhead = overhead;
        self
    }
}

/// Everything a run measures.
#[derive(Debug)]
pub struct RunResult {
    /// Per-request response times (min over copies, plus overhead).
    pub response: SampleSet,
    /// Response-time moments as a stream (same data as `response`).
    pub moments: Welford,
    /// Fraction of server-seconds actually busy — should be ≈ `k·ρ`.
    pub achieved_utilization: f64,
    /// Wall-clock span of the measured portion, in model time units.
    pub measured_span: f64,
}

/// Runs the model once. `seed` fixes everything: arrival process, server
/// choices, and service draws.
///
/// # Panics
/// Panics if `copies > servers` or if the offered load with replication
/// (`k·ρ`) is ≥ 1, which has no steady state.
pub fn run<D: Distribution>(cfg: &Config<D>, seed: u64) -> RunResult {
    let n = cfg.servers;
    let k = cfg.copies;
    assert!(k <= n, "need at least k={k} servers, have {n}");
    let per_server_load = cfg.load * k as f64;
    assert!(
        per_server_load < 1.0,
        "k*rho = {per_server_load} >= 1 has no steady state"
    );

    let mean_service = cfg.service.mean();
    assert!(
        mean_service.is_finite() && mean_service > 0.0,
        "service distribution must have a positive finite mean"
    );
    // Total arrival rate keeping base per-server load at rho.
    let lambda_total = n as f64 * cfg.load / mean_service;

    let mut arrival_rng = Rng::seed_from(seed).fork(0);
    // Separate the per-request substream salt from the arrival stream.
    let salt = SplitMix64::new(seed ^ 0x5EED_CAFE).next_u64();

    let total_requests = cfg.warmup + cfg.requests;
    let mut free_at = vec![0.0f64; n];
    let mut response = SampleSet::with_capacity(cfg.requests);
    let mut moments = Welford::new();
    let mut measured_busy = 0.0f64;

    let overhead = if k > 1 { cfg.replication_overhead } else { 0.0 };

    let mut placements = vec![0usize; k];
    let mut now = 0.0f64;
    let mut warmup_end_time = 0.0f64;
    for i in 0..total_requests {
        now += arrival_rng.exponential(lambda_total);
        if i == cfg.warmup {
            warmup_end_time = now;
        }
        // Per-request substream: identical across runs with different k, so
        // copy 0's service time is shared between the paired runs.
        let mut req_rng = Rng::seed_from(salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut best_done = f64::INFINITY;
        let mut services = [0.0f64; 16];
        let kk = k.min(16);
        for s in services.iter_mut().take(kk) {
            *s = cfg.service.sample(&mut req_rng);
        }
        req_rng.distinct_indices(n, &mut placements);
        // (server, start, svc) per copy, so cancellation can refund copies
        // that had not started when the winner finished.
        let mut copies_state: [(usize, f64, f64); 16] = [(0, 0.0, 0.0); 16];
        for (j, &srv) in placements.iter().enumerate() {
            let svc = if j < 16 {
                services[j]
            } else {
                cfg.service.sample(&mut req_rng)
            };
            let start = now.max(free_at[srv]);
            let done = start + svc;
            free_at[srv] = done;
            if i >= cfg.warmup {
                measured_busy += svc;
            }
            if j < 16 {
                copies_state[j] = (srv, start, svc);
            }
            if done < best_done {
                best_done = done;
            }
        }
        if cfg.cancellation && k > 1 {
            // Withdraw siblings that had not started service by the time
            // the winner completed. Safe under arrival-order processing:
            // no later arrival has touched these servers yet.
            for &(srv, start, svc) in copies_state.iter().take(k.min(16)) {
                if start >= best_done && start + svc == free_at[srv] {
                    free_at[srv] -= svc;
                    if i >= cfg.warmup {
                        measured_busy -= svc;
                    }
                }
            }
        }
        if i >= cfg.warmup {
            let rt = (best_done - now) + overhead;
            response.push(rt);
            moments.push(rt);
        }
    }
    let measured_span = (now - warmup_end_time).max(f64::MIN_POSITIVE);
    RunResult {
        response,
        moments,
        achieved_utilization: measured_busy / (n as f64 * measured_span),
        measured_span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::{Deterministic, Exponential, Pareto};

    #[test]
    fn mm1_mean_matches_theory_single_copy() {
        // M/M/1 at rho: E[R] = 1/(1 - rho) for unit-mean service.
        for &rho in &[0.2, 0.5, 0.7] {
            let cfg = Config::new(Exponential::unit(), rho)
                .with_servers(20)
                .with_requests(300_000, 30_000);
            let out = run(&cfg, 42);
            let expect = 1.0 / (1.0 - rho);
            let got = out.moments.mean();
            assert!(
                (got - expect).abs() / expect < 0.06,
                "rho={rho}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn mm1_replicated_mean_matches_theory() {
        // Theorem 1's setting: with k=2 at base load rho, each server is
        // M/M/1 at 2*rho and E[R] = 1/(2(1-2*rho)).
        for &rho in &[0.1, 0.2, 0.3] {
            let cfg = Config::new(Exponential::unit(), rho)
                .with_copies(2)
                .with_servers(30)
                .with_requests(300_000, 30_000);
            let out = run(&cfg, 7);
            let expect = 1.0 / (2.0 * (1.0 - 2.0 * rho));
            let got = out.moments.mean();
            assert!(
                (got - expect).abs() / expect < 0.08,
                "rho={rho}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn achieved_utilization_tracks_k_rho() {
        let cfg = Config::new(Exponential::unit(), 0.15)
            .with_copies(2)
            .with_requests(150_000, 15_000);
        let out = run(&cfg, 3);
        assert!(
            (out.achieved_utilization - 0.30).abs() < 0.02,
            "util = {}",
            out.achieved_utilization
        );
    }

    #[test]
    fn deterministic_low_load_response_is_service() {
        // At very low load with deterministic service, response ~= 1 and
        // replication cannot help (no variability to exploit).
        let single = run(&Config::new(Deterministic::unit(), 0.01), 5);
        let double = run(&Config::new(Deterministic::unit(), 0.01).with_copies(2), 5);
        assert!((single.moments.mean() - 1.0).abs() < 0.01);
        assert!((double.moments.mean() - 1.0).abs() < 0.01);
    }

    #[test]
    fn replication_helps_tail_under_pareto() {
        // Fig 1(c): at load 0.2 with Pareto(2.1) service, k=2 shrinks the
        // 99.9th percentile by a large factor (paper reports ~5x).
        let base = Config::new(Pareto::unit_mean(2.1), 0.2).with_requests(200_000, 20_000);
        let mut single = run(&base.clone().with_copies(1), 11);
        let mut double = run(&base.with_copies(2), 11);
        let p999_1 = single.response.quantile(0.999);
        let p999_2 = double.response.quantile(0.999);
        assert!(
            p999_1 > 2.0 * p999_2,
            "tail gain too small: {p999_1} vs {p999_2}"
        );
    }

    #[test]
    fn overhead_applies_only_when_replicated() {
        let cfg1 = Config::new(Exponential::unit(), 0.1).with_replication_overhead(0.5);
        let cfg2 = cfg1.clone().with_copies(2);
        let r1 = run(&cfg1, 9);
        let r2 = run(&cfg2, 9);
        // Overhead 0.5 makes k=2 worse at this load even though min-of-two helps.
        assert!(r2.moments.mean() > r1.moments.mean());
        // And the k=1 run must be unaffected by the overhead setting.
        let r1_no = run(&Config::new(Exponential::unit(), 0.1), 9);
        assert!((r1.moments.mean() - r1_no.moments.mean()).abs() < 1e-12);
    }

    #[test]
    fn common_random_numbers_pair_runs() {
        // Same seed, same k: identical output.
        let cfg = Config::new(Exponential::unit(), 0.3).with_requests(10_000, 1_000);
        let a = run(&cfg, 123);
        let b = run(&cfg, 123);
        assert_eq!(a.moments.mean(), b.moments.mean());
        // Different seeds: different output.
        let c = run(&cfg, 124);
        assert_ne!(a.moments.mean(), c.moments.mean());
    }

    #[test]
    fn cancellation_reduces_utilization_and_latency() {
        // Tied requests: same offered load, but withdrawn siblings refund
        // their service, so realized utilization sits between rho and
        // 2*rho and response times improve.
        let base = Config::new(Exponential::unit(), 0.3)
            .with_copies(2)
            .with_requests(150_000, 15_000);
        let plain = run(&base.clone(), 21);
        let tied = run(&base.with_cancellation(true), 21);
        assert!(
            tied.achieved_utilization < plain.achieved_utilization - 0.05,
            "cancellation should shed load: {} vs {}",
            tied.achieved_utilization,
            plain.achieved_utilization
        );
        assert!(
            tied.moments.mean() < plain.moments.mean(),
            "cancellation should help latency: {} vs {}",
            tied.moments.mean(),
            plain.moments.mean()
        );
    }

    #[test]
    fn cancellation_extends_the_winning_region() {
        // At rho = 0.4 (> 1/3) plain replication loses for exponential
        // service, but tied requests shed enough load to keep winning.
        let base = Config::new(Exponential::unit(), 0.4).with_requests(150_000, 15_000);
        let single = run(&base.clone().with_copies(1), 31);
        let plain = run(&base.clone().with_copies(2), 31);
        let tied = run(&base.with_copies(2).with_cancellation(true), 31);
        assert!(plain.moments.mean() > single.moments.mean());
        assert!(
            tied.moments.mean() < single.moments.mean(),
            "tied {} vs single {}",
            tied.moments.mean(),
            single.moments.mean()
        );
    }

    #[test]
    #[should_panic(expected = "steady state")]
    fn overload_panics() {
        let cfg = Config::new(Exponential::unit(), 0.6).with_copies(2);
        let _ = run(&cfg, 1);
    }

    #[test]
    #[should_panic(expected = "servers")]
    fn too_many_copies_panics() {
        let cfg = Config::new(Exponential::unit(), 0.1)
            .with_servers(3)
            .with_copies(4);
        let _ = run(&cfg, 1);
    }
}
