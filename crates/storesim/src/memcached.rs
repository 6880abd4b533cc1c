//! The §2.3 memcached experiment: an in-memory store where replication
//! *loses*.
//!
//! The paper measures a 0.18 ms mean service time, a distribution with
//! "more than 99.9 % of the mass … within a factor of 4 of the mean", and a
//! client-side cost of at least 9 % of the mean service time per extra
//! copy (measured by swapping memcached calls for no-op stubs, Fig 13).
//! Under those constants the §2.1 model predicts a threshold below 10 %,
//! and Fig 12 indeed shows 2 copies worse at every load from 10–90 %.
//!
//! We model each memcached server as a single FIFO service resource (the
//! event-loop thread), log-normal service times with rare millisecond-scale
//! outliers, and the same client NIC/CPU cost structure as
//! [`crate::cluster`]. [`StubMode`] reproduces the paper's
//! client-side-isolation methodology.

use crate::hashring::HashRing;
use simcore::dist::{Distribution, LogNormal, Mixture};
use simcore::rng::Rng;
use simcore::shard::ShardQueue;
use simcore::stats::SampleSet;
use simcore::time::SimTime;

/// Whether requests actually visit the servers or are stubbed at the client
/// (the paper's Fig 13 methodology for measuring client-side cost).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StubMode {
    /// Real runs: requests traverse the network and the server.
    Real,
    /// Stub runs: the memcached call is a no-op returning immediately;
    /// only client-side work remains.
    Stub,
}

/// Configuration for one memcached run.
#[derive(Clone, Debug)]
pub struct MemcachedConfig {
    /// Number of cache servers.
    pub servers: usize,
    /// Number of client machines.
    pub clients: usize,
    /// Copies per GET.
    pub copies: usize,
    /// Distinct keys (placement via consistent hashing + n/n+1).
    pub keys: usize,
    /// Baseline (k = 1) per-server utilization.
    pub load: f64,
    /// Real or stub servers.
    pub mode: StubMode,
    /// Measured requests.
    pub requests: usize,
    /// Warm-up requests.
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MemcachedConfig {
    /// The paper's deployment shape at a given replication factor and load.
    pub fn paper_like(copies: usize, load: f64) -> Self {
        MemcachedConfig {
            servers: 4,
            clients: 10,
            copies,
            keys: 100_000,
            load,
            mode: StubMode::Real,
            requests: 200_000,
            warmup: 20_000,
            seed: 0x3E3C,
        }
    }

    /// Switches to stub mode.
    pub fn stubbed(mut self) -> Self {
        self.mode = StubMode::Stub;
        self
    }
}

/// Service-time and client-cost constants for the memcached model.
#[derive(Clone, Debug)]
pub struct MemcachedProfile {
    /// Server service time distribution (seconds).
    pub service: Mixture,
    /// Mean of `service` (cached).
    pub mean_service: f64,
    /// One-way propagation, seconds.
    pub propagation: f64,
    /// Client CPU per issued copy.
    pub client_send_cost: f64,
    /// Client CPU per received response.
    pub client_recv_cost: f64,
    /// Client-side base processing for a stubbed call (the no-op path:
    /// library + event-loop work with no network or server).
    pub stub_base: LogNormal,
}

impl Default for MemcachedProfile {
    fn default() -> Self {
        // 0.18 ms mean with a tight body (memcached under light load is
        // very consistent; the paper notes >99.9% of mass within 4x of the
        // mean) plus rare ms-scale outliers.
        let body = LogNormal::with_mean_sigma(0.176e-3, 0.10);
        let outlier = LogNormal::with_mean_sigma(2.0e-3, 0.5);
        let service = Mixture::of_two(0.9985, body, 0.0015, outlier);
        let mean_service = service.mean();
        MemcachedProfile {
            service,
            mean_service,
            propagation: 25.0e-6,
            // The paper's stub experiment measured replication adding 9% of
            // the 0.18 ms mean (16 us) at the client and calls that an
            // *underestimate* because the stub never touches the kernel or
            // the NIC; the real per-copy receive path (interrupt, copy,
            // event loop) is modeled at 30 us, sends at 12 us.
            client_send_cost: 12.0e-6,
            client_recv_cost: 30.0e-6,
            stub_base: LogNormal::with_mean_sigma(30.0e-6, 0.35),
        }
    }
}

/// Result of a memcached run.
#[derive(Debug)]
pub struct MemcachedResult {
    /// Per-request response times (first copy wins), seconds.
    pub response: SampleSet,
    /// Measured mean server utilization.
    pub server_utilization: f64,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrive { req: u32 },
    ServerRecv { req: u32, server: u16 },
    ClientRecv { req: u32 },
}

/// Runs the memcached model with the default profile.
pub fn run(cfg: &MemcachedConfig) -> MemcachedResult {
    run_with_profile(cfg, &MemcachedProfile::default())
}

/// Runs the memcached model with explicit constants.
pub fn run_with_profile(cfg: &MemcachedConfig, prof: &MemcachedProfile) -> MemcachedResult {
    assert!(cfg.copies >= 1 && cfg.copies <= cfg.servers);
    assert!(
        cfg.copies as f64 * cfg.load < 1.0 || cfg.mode == StubMode::Stub,
        "k*load saturates"
    );

    let mut root = Rng::seed_from(cfg.seed);
    let mut arrival_rng = root.fork(1);
    let mut place_rng = root.fork(2);
    let mut svc_rng = root.fork(3);

    let ring = HashRing::new(cfg.servers, 64);
    let lambda = cfg.load * cfg.servers as f64 / prof.mean_service;

    let total = cfg.warmup + cfg.requests;
    let mut server_free = vec![0.0f64; cfg.servers];
    let mut server_busy = vec![0.0f64; cfg.servers];
    let mut arrivals: Vec<(f64, u16)> = Vec::with_capacity(total);
    let mut recorded = vec![false; total];
    // The Real-mode copy targets, refilled per request.
    let mut targets = vec![0u16; cfg.copies];
    let mut response = SampleSet::with_capacity(cfg.requests);
    let mut end_time = 0.0f64;

    // Pre-size past the steady-state population (a few events per server)
    // so the heap never reallocates mid-run.
    let mut q: ShardQueue<Ev> = ShardQueue::with_capacity(0, (8 * cfg.servers).max(1024));
    q.push(
        SimTime::from_secs(arrival_rng.exponential(lambda)),
        Ev::Arrive { req: 0 },
    );

    while let Some((now, ev)) = q.pop() {
        let t = now.as_secs();
        match ev {
            Ev::Arrive { req } => {
                let key = place_rng.index(cfg.keys) as u64;
                let client = place_rng.index(cfg.clients) as u16;
                arrivals.push((t, client));
                end_time = t;
                match cfg.mode {
                    StubMode::Stub => {
                        // No server, no wire: client-side work only. Each
                        // copy costs send CPU; the response is synthesized
                        // after the base stub processing time.
                        let base = prof.stub_base.sample(&mut svc_rng);
                        let extra = (cfg.copies as f64 - 1.0)
                            * (prof.client_send_cost + prof.client_recv_cost);
                        if req as usize >= cfg.warmup {
                            response.push(base + extra);
                        }
                        recorded[req as usize] = true;
                    }
                    StubMode::Real => {
                        ring.replicas_into(key, &mut targets);
                        for (i, &server) in targets.iter().enumerate() {
                            let send_at = t
                                + prof.client_send_cost * (i as f64 + 1.0)
                                + prof.propagation;
                            q.push(SimTime::from_secs(send_at), Ev::ServerRecv { req, server });
                        }
                    }
                }
                if (req as usize) + 1 < total {
                    q.push_after(
                        SimTime::from_secs(arrival_rng.exponential(lambda)),
                        Ev::Arrive { req: req + 1 },
                    );
                }
            }
            Ev::ServerRecv { req, server } => {
                let s = server as usize;
                let svc = prof.service.sample(&mut svc_rng);
                let start = t.max(server_free[s]);
                server_free[s] = start + svc;
                server_busy[s] += svc;
                q.push(
                    SimTime::from_secs(start + svc + prof.propagation),
                    Ev::ClientRecv { req },
                );
            }
            Ev::ClientRecv { req } => {
                let i = req as usize;
                if !recorded[i] {
                    recorded[i] = true;
                    let completion = t + prof.client_recv_cost
                        + (cfg.copies as f64 - 1.0) * prof.client_recv_cost;
                    if i >= cfg.warmup {
                        response.push(completion - arrivals[i].0);
                    }
                }
            }
        }
    }

    MemcachedResult {
        response,
        server_utilization: server_busy.iter().sum::<f64>()
            / (cfg.servers as f64 * end_time.max(f64::MIN_POSITIVE)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(copies: usize, load: f64) -> MemcachedConfig {
        let mut c = MemcachedConfig::paper_like(copies, load);
        c.requests = 60_000;
        c.warmup = 6_000;
        c
    }

    #[test]
    fn utilization_tracks_load() {
        let out = run(&quick(1, 0.4));
        assert!(
            (out.server_utilization - 0.4).abs() < 0.04,
            "util {}",
            out.server_utilization
        );
    }

    #[test]
    fn replication_worsens_mean_at_moderate_load() {
        // Fig 12: the client-side cost exceeds the min-of-two gain at
        // essentially all tested loads (10-90%).
        for &load in &[0.2, 0.4] {
            let m1 = run(&quick(1, load)).response.mean();
            let m2 = run(&quick(2, load)).response.mean();
            assert!(
                m2 > m1 * 0.98,
                "load {load}: replication should not win (m1 {m1} m2 {m2})"
            );
        }
    }

    #[test]
    fn stub_isolates_client_cost() {
        // Fig 13: stub responses are far below real ones, and stub k=2
        // exceeds stub k=1 by roughly the per-copy client cost.
        let prof = MemcachedProfile::default();
        let real = run(&quick(1, 0.001)).response.mean();
        let stub1 = run(&quick(1, 0.001).stubbed()).response.mean();
        let stub2 = run(&quick(2, 0.001).stubbed()).response.mean();
        assert!(stub1 < 0.5 * real, "stub {stub1} vs real {real}");
        let added = stub2 - stub1;
        let expect = prof.client_send_cost + prof.client_recv_cost;
        assert!(
            (added - expect).abs() < 0.5 * expect,
            "stub overhead {added} vs expected {expect}"
        );
        // And that overhead is at least 9% of the mean service time, the
        // paper's headline measurement.
        assert!(added >= 0.09 * prof.mean_service);
    }

    #[test]
    fn replication_slightly_positive_at_tiny_load() {
        // Fig 13 note: at 0.1% load the real (non-stub) runs still show a
        // slightly positive effect overall -- the threshold is positive but
        // small. Allow either a small win or a near-tie.
        let m1 = run(&quick(1, 0.001)).response.mean();
        let m2 = run(&quick(2, 0.001)).response.mean();
        assert!(
            m2 < m1 * 1.15,
            "at 0.1% load replication should be near-neutral: {m1} vs {m2}"
        );
    }

    #[test]
    fn service_distribution_mass_within_4x() {
        // The paper: >99.9% of the service mass within 4x of the mean.
        let prof = MemcachedProfile::default();
        let mut rng = Rng::seed_from(5);
        let n = 200_000;
        let within = (0..n)
            .filter(|_| prof.service.sample(&mut rng) < 4.0 * prof.mean_service)
            .count();
        let frac = within as f64 / n as f64;
        assert!(frac > 0.996, "only {frac} within 4x of mean");
    }
}
