//! The disk-backed storage cluster: servers, clients, and the event loop.
//!
//! Reproduces the §2.2 testbed's moving parts:
//!
//! * **Servers** — the paper's 4, each a byte-capacity LRU page cache
//!   ([`crate::lru`]) in front of a single FIFO disk ([`crate::disk`])
//!   whose reads carry rare kernel/controller stalls, plus an outbound NIC
//!   that serializes responses. An optional *interference* distribution
//!   adds per-operation noise (the EC2 experiment of Fig 9 — multi-tenant
//!   hiccups the paper identifies as the reason redundancy wins big there).
//! * **Clients** — the paper's 10, each with its own NIC, sharing an
//!   open-loop Poisson stream of GETs for uniformly random files. A
//!   replicated GET goes to the file's primary *and* the next server (the
//!   paper's n/n+1 rule); the response time is the first response's
//!   completion, but **both** responses still traverse the client's
//!   downlink and cost fixed per-copy CPU — this is exactly the
//!   client-side overhead that §2.3 shows can erase the benefit.
//! * **Network** — one-way propagation plus store-and-forward
//!   serialization at the server NIC and the client NIC (each NIC is a
//!   FIFO resource; transfer time is paid once end-to-end when
//!   uncontended).
//!
//! Caches are pre-warmed to their steady state (a uniform-random resident
//! set, which is the LRU fixed point under uniform access) so measured
//! hit rates equal the configured cache:disk ratio from the first sample.

use crate::disk;
use crate::hashring::HashRing;
use crate::lru::LruCache;
use simcore::dist::{Deterministic, Distribution, DynDist, Exponential, Mixture};
use simcore::rng::Rng;
use simcore::shard::ShardQueue;
use simcore::stats::SampleSet;
use simcore::time::SimTime;
use std::collections::VecDeque;

/// Storage servers (the paper's 4 Apache servers).
const SERVERS: usize = 4;
/// Client machines (the paper's 10).
const CLIENTS: usize = 10;
/// Copies of every file stored on the ring, regardless of the query-time
/// replication factor: the primary and the next server.
const STORED_COPIES: usize = 2;

// Gigabit everywhere, LAN latencies, 2013-kernel syscall costs.
/// Server NIC line rate, bytes/second.
const SERVER_NIC_BYTES_PER_SEC: f64 = 125.0e6;
/// Client NIC line rate, bytes/second.
const CLIENT_NIC_BYTES_PER_SEC: f64 = 125.0e6;
/// One-way propagation + switching delay, seconds.
const PROPAGATION: f64 = 50.0e-6;
/// Client CPU cost to issue one request copy (syscall + marshalling).
const CLIENT_SEND_COST: f64 = 8.0e-6;
/// Client CPU cost to absorb one response copy.
const CLIENT_RECV_COST: f64 = 8.0e-6;

/// Extra stall added to *disk* reads: kernel and controller hiccups
/// present even on dedicated hardware, which only bite when the request
/// actually reaches the spindle (controller retries, kernel writeback
/// interference). A rare, exponentially-sized stall gives the disk-bound
/// figures their deep 99.9th-percentile tails — the paper's Emulab nodes
/// show ~150 ms tails at 20 % load that pure seek-time queueing cannot
/// produce — while leaving the in-memory Fig 11 path untouched.
fn disk_noise() -> Mixture {
    Mixture::of_two(
        0.988,
        Deterministic::new(0.0),
        0.012,
        Exponential::with_mean(40.0e-3),
    )
}

/// The population of files served by the cluster.
#[derive(Clone, Debug)]
pub struct FilePopulation {
    sizes: Vec<u64>,
    total_bytes: u64,
}

impl FilePopulation {
    /// Draws files from `size_dist` (values in bytes, rounded up to ≥ 1)
    /// until `total_bytes` is reached.
    pub fn generate(size_dist: &dyn Distribution, total_bytes: u64, rng: &mut Rng) -> Self {
        assert!(total_bytes > 0);
        let mut sizes = Vec::new();
        let mut acc = 0u64;
        while acc < total_bytes {
            let s = size_dist.sample(rng).ceil().max(1.0) as u64;
            sizes.push(s);
            acc += s;
        }
        FilePopulation {
            sizes,
            total_bytes: acc,
        }
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` when the population is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of file `id` in bytes.
    pub fn size(&self, id: usize) -> u64 {
        self.sizes[id]
    }

    /// Sum of all file sizes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Mean file size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        self.total_bytes as f64 / self.sizes.len() as f64
    }
}

/// Full configuration of one cluster run: what a figure varies. The
/// deployment itself (4 servers, 10 clients, the disk of [`crate::disk`],
/// gigabit NICs, the disk-read hiccups) is fixed.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Copies per GET (1 = no replication, 2 = the paper's scheme). At
    /// most the two stored replicas.
    pub copies: usize,
    /// The file population.
    pub files: FilePopulation,
    /// Page-cache capacity per server, bytes.
    pub cache_bytes: u64,
    /// Optional stall added to *every* operation — multi-tenant CPU/VM
    /// interference (the Fig 9 EC2 configuration).
    pub op_noise: Option<DynDist>,
    /// Target *baseline* per-server utilization of the bottleneck resource
    /// (the k = 1 load; with k copies the realized utilization is k× this).
    pub load: f64,
    /// Measured requests.
    pub requests: usize,
    /// Warm-up requests (caches are additionally pre-warmed structurally).
    pub warmup: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// Fraction of reads expected to hit a server's page cache.
    ///
    /// Two copies of every file are *stored* regardless of the query-time
    /// replication factor (1-copy GETs load-balance across the two stored
    /// replicas, as a fault-tolerant store would), so each server is
    /// accessed for `2·T/N` bytes of distinct data in every configuration.
    /// Under uniform access the LRU steady state is a random resident
    /// subset, hence hit rate = resident fraction = the configured
    /// cache:disk ratio, capped at 1 — identical for k = 1 and k = 2, which
    /// is what keeps the measured threshold comparable to the §2.1 model.
    pub fn expected_hit_rate(&self) -> f64 {
        let accessed_bytes = self.files.total_bytes() as f64 * 2.0 / SERVERS as f64;
        (self.cache_bytes as f64 / accessed_bytes).min(1.0)
    }

    /// Expected k = 1 service demand per request on the bottleneck resource
    /// (disk if any traffic misses, otherwise the CPU/NIC path). The load
    /// axis of every figure is defined against this baseline, for both
    /// replication factors — exactly as the paper plots both curves against
    /// one offered-load axis.
    pub fn bottleneck_demand(&self) -> f64 {
        let mean_bytes = self.files.mean_bytes();
        let hit = self.expected_hit_rate();
        let noise = disk_noise().mean();
        let disk_demand = (1.0 - hit) * (disk::mean_disk_read(mean_bytes as u64) + noise);
        let cpu_demand =
            disk::cache_read(mean_bytes as u64) + mean_bytes / SERVER_NIC_BYTES_PER_SEC;
        disk_demand.max(cpu_demand)
    }

    /// Total request arrival rate (requests/second across all clients)
    /// achieving the configured baseline load.
    pub fn arrival_rate(&self) -> f64 {
        self.load * SERVERS as f64 / self.bottleneck_demand()
    }
}

/// Everything one run measures.
#[derive(Debug)]
pub struct ClusterResult {
    /// Per-request response times, seconds (first copy to complete).
    pub response: SampleSet,
    /// Measured cache hit rate across all servers.
    pub hit_rate: f64,
    /// Measured mean disk utilization across servers.
    pub disk_utilization: f64,
    /// Requests measured.
    pub completed: usize,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A new request is generated.
    Arrive { req: u32 },
    /// A request copy for `file` reaches a server.
    ServerRecv {
        req: u32,
        server: u16,
        file: u32,
        client: u16,
    },
    /// A response is ready to claim the server's outbound NIC. Claiming at
    /// readiness (not at request arrival) is what keeps the NIC FIFO in
    /// *service order*: a response stalled by interference must not block
    /// responses that became ready before it.
    ServerSend {
        req: u32,
        server: u16,
        client: u16,
        bytes: u64,
    },
    /// A response has fully crossed the fabric to the client's downlink.
    ClientRecv { req: u32, client: u16, bytes: u64 },
}

/// Runs the cluster simulation.
///
/// # Panics
/// Panics if `copies` is zero or exceeds the stored replica count (2),
/// or if the realized bottleneck utilization `copies × load` is ≥ 1.
pub fn run(cfg: &ClusterConfig) -> ClusterResult {
    // Two copies of every file are stored; a GET can race at most those.
    assert!(
        cfg.copies >= 1 && cfg.copies <= STORED_COPIES,
        "copies = {} outside 1..={STORED_COPIES}, the stored replica count",
        cfg.copies
    );
    assert!(
        (cfg.copies as f64) * cfg.load < 1.0,
        "k*load = {} saturates the cluster",
        cfg.copies as f64 * cfg.load
    );
    assert!(!cfg.files.is_empty(), "empty file population");

    let mut root = Rng::seed_from(cfg.seed);
    let mut arrival_rng = root.fork(1);
    let mut placement_rng = root.fork(2);
    let mut service_rng = root.fork(3);

    let ring = HashRing::new(SERVERS, 64);
    let lambda = cfg.arrival_rate();
    let disk_noise = disk_noise();

    // --- server state ---
    let mut caches: Vec<LruCache> = (0..SERVERS)
        .map(|_| LruCache::new(cfg.cache_bytes))
        .collect();
    let mut disk_free = [0.0f64; SERVERS];
    let mut snic_free = [0.0f64; SERVERS];
    let mut disk_busy = [0.0f64; SERVERS];

    // Pre-warm: the steady state of LRU under uniform access is a uniform
    // random resident subset of the data this server will actually be asked
    // for (its primaries, plus secondaries when copies = 2). Insert every
    // such file in random order; LRU keeps a random full-cache subset.
    // Each file's owners are placed once, and every cache still receives
    // its files in the shuffled order.
    {
        let mut warm_rng = root.fork(4);
        let mut ids: Vec<u32> = (0..cfg.files.len() as u32).collect();
        warm_rng.shuffle(&mut ids);
        // Two copies are stored regardless of the query-time k.
        let mut owners = [0u16; STORED_COPIES];
        for &f in &ids {
            ring.replicas_into(f as u64, &mut owners);
            for &s in owners.iter() {
                caches[s as usize].insert(f as u64, cfg.files.size(f as usize));
            }
        }
    }

    // --- client state ---
    let mut cnic_free = [0.0f64; CLIENTS];

    // --- request bookkeeping ---
    // The events carry each copy's file and client, so a request keeps
    // only its arrival time and whether it has been answered, and only
    // while it is in flight: `window` runs from the oldest unanswered
    // request (`front`) to the newest arrival, and answered requests
    // retire from the front.
    let total = cfg.warmup + cfg.requests;
    let mut window: VecDeque<(f64, bool)> = VecDeque::new();
    let mut front = 0usize;
    let mut response = SampleSet::with_capacity(cfg.requests);
    let mut hits = 0u64;
    let mut accesses = 0u64;

    // Steady state holds roughly one in-flight request chain per server
    // plus one pending arrival; pre-size so the heap never reallocates.
    let mut q: ShardQueue<Ev> = ShardQueue::with_capacity(0, (8 * SERVERS).max(1024));
    q.push(
        SimTime::from_secs(arrival_rng.exponential(lambda)),
        Ev::Arrive { req: 0 },
    );

    let mut measure_end = 0.0f64;

    while let Some((now, ev)) = q.pop() {
        let t = now.as_secs();
        match ev {
            Ev::Arrive { req } => {
                let file = placement_rng.index(cfg.files.len()) as u32;
                let client = placement_rng.index(CLIENTS) as u16;
                window.push_back((t, false));
                debug_assert_eq!(front + window.len() - 1, req as usize);
                measure_end = t;

                // Two replicas are stored; a 1-copy GET load-balances
                // across them, a 2-copy GET races both.
                let mut stored = [0u16; STORED_COPIES];
                ring.replicas_into(file as u64, &mut stored);
                let targets: &[u16] = if cfg.copies >= stored.len() {
                    &stored
                } else {
                    let pick = placement_rng.index(stored.len());
                    &stored[pick..=pick]
                };
                for (copy, &server) in targets.iter().enumerate() {
                    // Each extra copy costs client CPU to send, serially.
                    let send_at = t + CLIENT_SEND_COST * (copy as f64 + 1.0) + PROPAGATION;
                    q.push(
                        SimTime::from_secs(send_at),
                        Ev::ServerRecv {
                            req,
                            server,
                            file,
                            client,
                        },
                    );
                }
                // Open loop: schedule the next arrival regardless.
                if (req as usize) + 1 < total {
                    q.push_after(
                        SimTime::from_secs(arrival_rng.exponential(lambda)),
                        Ev::Arrive { req: req + 1 },
                    );
                }
            }
            Ev::ServerRecv {
                req,
                server,
                file,
                client,
            } => {
                let s = server as usize;
                let bytes = cfg.files.size(file as usize);
                accesses += 1;
                let hit = caches[s].access(file as u64);
                let core_done = if hit {
                    hits += 1;
                    t + disk::cache_read(bytes)
                } else {
                    let mut svc = disk::disk_read(bytes, &mut service_rng);
                    svc += disk_noise.sample(&mut service_rng);
                    let start = t.max(disk_free[s]);
                    disk_free[s] = start + svc;
                    disk_busy[s] += svc;
                    caches[s].insert(file as u64, bytes);
                    start + svc
                };
                let core_done = match &cfg.op_noise {
                    Some(noise) => core_done + noise.sample(&mut service_rng),
                    None => core_done,
                };
                q.push(
                    SimTime::from_secs(core_done),
                    Ev::ServerSend {
                        req,
                        server,
                        client,
                        bytes,
                    },
                );
            }
            Ev::ServerSend {
                req,
                server,
                client,
                bytes,
            } => {
                // Claim the outbound NIC now that the response is ready;
                // pop order = readiness order, so the NIC is FIFO in
                // service order. The client pays the per-hop transfer once
                // (cut-through): ClientRecv is stamped with the NIC start
                // plus propagation and the client side adds its own rx
                // serialization.
                let s = server as usize;
                let tx = bytes as f64 / SERVER_NIC_BYTES_PER_SEC;
                let nic_start = t.max(snic_free[s]);
                snic_free[s] = nic_start + tx;
                q.push(
                    SimTime::from_secs(nic_start + tx + PROPAGATION),
                    Ev::ClientRecv { req, client, bytes },
                );
            }
            Ev::ClientRecv { req, client, bytes } => {
                let c = client as usize;
                let rx = bytes as f64 / CLIENT_NIC_BYTES_PER_SEC;
                // `t` is when the response has fully crossed the fabric; the
                // client downlink re-serializes it only if busy with the
                // sibling copy or other responses.
                let done_rx = t.max(cnic_free[c]) + rx;
                cnic_free[c] = done_rx;
                let completion = done_rx + CLIENT_RECV_COST;
                // A late duplicate (its request answered, retired or not)
                // has still taken its turn on the client NIC above.
                let i = req as usize;
                let Some(slot) = i.checked_sub(front).filter(|&s| !window[s].1) else {
                    continue;
                };
                window[slot].1 = true;
                if i >= cfg.warmup {
                    response.push(completion - window[slot].0);
                }
                while window.front().is_some_and(|&(_, recorded)| recorded) {
                    window.pop_front();
                    front += 1;
                }
            }
        }
    }
    debug_assert!(window.is_empty(), "a request was never answered");

    ClusterResult {
        completed: response.len(),
        response,
        hit_rate: hits as f64 / accesses.max(1) as f64,
        // Busy time includes warm-up; normalize against the whole run for a
        // close-enough utilization check (arrivals are stationary).
        disk_utilization: disk_busy.iter().sum::<f64>()
            / (SERVERS as f64 * measure_end.max(f64::MIN_POSITIVE)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::Deterministic;

    fn small_config(copies: usize, load: f64) -> ClusterConfig {
        let mut rng = Rng::seed_from(7);
        let files = FilePopulation::generate(
            &Deterministic::new(4096.0),
            256 * 1024 * 1024, // 256 MB total
            &mut rng,
        );
        ClusterConfig {
            copies,
            files,
            cache_bytes: 12 * 1024 * 1024, // ratio ~= 12/128 ~= 0.094
            op_noise: None,
            load,
            requests: 30_000,
            warmup: 3_000,
            seed: 42,
        }
    }

    #[test]
    fn hit_rate_matches_cache_ratio() {
        let cfg = small_config(1, 0.2);
        let expect = cfg.expected_hit_rate();
        let out = run(&cfg);
        assert!(
            (out.hit_rate - expect).abs() < 0.03,
            "hit rate {} vs expected {expect}",
            out.hit_rate
        );
    }

    #[test]
    fn disk_utilization_tracks_load() {
        let cfg = small_config(1, 0.3);
        let out = run(&cfg);
        assert!(
            (out.disk_utilization - 0.3).abs() < 0.05,
            "disk util {}",
            out.disk_utilization
        );
    }

    #[test]
    fn replication_helps_at_low_load() {
        let single = run(&small_config(1, 0.1));
        let double = run(&small_config(2, 0.1));
        let m1 = single.response.mean();
        let m2 = double.response.mean();
        assert!(m2 < m1, "replication should win at 10% load: {m1} vs {m2}");
    }

    #[test]
    fn replication_hurts_at_high_load() {
        let single = run(&small_config(1, 0.45));
        let double = run(&small_config(2, 0.45));
        assert!(
            double.response.mean() > single.response.mean(),
            "replication should lose at 45% load"
        );
    }

    #[test]
    fn response_floor_is_physical() {
        // No response can beat propagation + minimum service.
        let cfg = small_config(1, 0.05);
        let mut out = run(&cfg);
        let min = out.response.quantile(0.0);
        assert!(min > 2.0 * PROPAGATION, "response {min} beats the wire");
    }

    #[test]
    fn all_requests_complete() {
        let cfg = small_config(2, 0.2);
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
    }

    #[test]
    #[should_panic(expected = "stored replica count")]
    fn copies_beyond_stored_replicas_panics() {
        run(&small_config(3, 0.1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&small_config(2, 0.2));
        let b = run(&small_config(2, 0.2));
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.hit_rate, b.hit_rate);
    }
}
