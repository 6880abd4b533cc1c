//! The caching side-benefit of replicated DNS queries (§3.2's closing
//! remark, quantified).
//!
//! > "Querying multiple servers also increases caching, a side-benefit
//! > which would be interesting to quantify."
//!
//! This module quantifies it: a stream of queries with Zipf-distributed
//! name popularity races the k best resolvers; **every** queried resolver
//! caches the name afterward, so replication keeps k caches warm instead
//! of one — a feedback loop the static model of [`crate::dns`] cannot
//! show. Two findings fall out:
//!
//! * **The side-benefit is real**: under 2-way replication the
//!   second-ranked resolver's hit rate climbs from its cold baseline to
//!   essentially the popular-mass of the workload — replication is free
//!   failover warm-up.
//! * **But hits become correlated**: both caches hold the *same* popular
//!   names, so a miss at one server usually means a miss at the other —
//!   racing dodges fewer misses than the static independent-hit model
//!   predicts. The race still wins on RTT and loss diversity; it just
//!   stops being a cache lottery. This correlation is exactly why the
//!   paper's measured DNS gains (independent resolvers with *different*
//!   query populations) exceed what a shared-workload deployment would
//!   see.

use crate::dns::{DnsExperiment, CAP_SECONDS};
use simcore::dist::Distribution;
use simcore::rng::Rng;
use simcore::stats::SampleSet;
use std::collections::{HashMap, VecDeque};

/// A capacity-bounded FIFO name cache (a deliberately simple stand-in for
/// a resolver's cache; FIFO vs LRU changes nothing for Zipf popularity at
/// these sizes).
#[derive(Clone, Debug)]
pub struct NameCache {
    capacity: usize,
    order: VecDeque<u64>,
    // Determinism audit (clippy's hash-traversal bans): keyed-only refcounts
    // (entry/get_mut/remove); eviction order comes from `order`, never
    // from map traversal, so HashMap's random iteration order is unused.
    counts: HashMap<u64, u32>,
}

impl NameCache {
    /// A cache holding at most `capacity` names.
    pub fn new(capacity: usize) -> Self {
        NameCache {
            capacity,
            order: VecDeque::with_capacity(capacity + 1),
            counts: HashMap::new(),
        }
    }

    /// Is the name resident?
    pub fn contains(&self, name: u64) -> bool {
        self.counts.contains_key(&name)
    }

    /// Inserts a name (duplicates allowed; eviction is FIFO over insert
    /// events, with refcounts so a re-inserted name survives one eviction).
    ///
    /// A capacity of 0 means "cache disabled": the insert is a no-op, so
    /// nothing is ever resident and the eviction path (which would
    /// otherwise insert-then-immediately-evict every name, churning the
    /// queue and relying on `pop_front` succeeding) is never entered.
    pub fn insert(&mut self, name: u64) {
        if self.capacity == 0 {
            return;
        }
        *self.counts.entry(name).or_insert(0) += 1;
        self.order.push_back(name);
        while self.order.len() > self.capacity {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            match self.counts.get_mut(&victim) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.counts.remove(&victim);
                }
            }
        }
    }

    /// Number of distinct resident names.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Zipf(s) sampler over `{0, …, n−1}` by precomputed inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler (`n ≥ 1`, exponent `s ≥ 0`).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1 && s >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank (0 = most popular).
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Configuration for the cache-warming study.
#[derive(Clone, Debug)]
pub struct WarmingConfig {
    /// Name universe size.
    pub names: usize,
    /// Zipf popularity exponent (≈ 0.9–1.0 for web names).
    pub zipf_s: f64,
    /// Per-resolver cache capacity (names).
    pub cache_capacity: usize,
    /// Queries to run (after cold start).
    pub queries: usize,
    /// Parallel copies per query.
    pub copies: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WarmingConfig {
    fn default() -> Self {
        WarmingConfig {
            names: 50_000,
            zipf_s: 0.95,
            cache_capacity: 5_000,
            queries: 150_000,
            copies: 2,
            seed: 0xCACE,
        }
    }
}

/// Outcome of the warming study at one replication level.
#[derive(Debug)]
pub struct WarmingResult {
    /// Response times (first answer per query).
    pub response: SampleSet,
    /// Fraction of per-server lookups that hit a warm cache.
    pub hit_rate: f64,
    /// Hit rate per ranking slot (slot 0 = best server).
    pub per_slot_hit_rate: Vec<f64>,
}

/// Runs the warming simulation: resolvers share no state, but every copy of
/// every query warms its server's cache.
pub fn run_warming(exp: &DnsExperiment, cfg: &WarmingConfig) -> WarmingResult {
    assert!(cfg.copies >= 1 && cfg.copies <= exp.ranking.len());
    let mut rng = Rng::seed_from(cfg.seed);
    let zipf = Zipf::new(cfg.names, cfg.zipf_s);
    let mut caches: Vec<NameCache> = (0..exp.ranking.len())
        .map(|_| NameCache::new(cfg.cache_capacity))
        .collect();
    let mut response = SampleSet::with_capacity(cfg.queries);
    let mut hits = 0u64;
    let mut lookups = 0u64;
    let mut slot_hits = vec![0u64; cfg.copies];
    let mut slot_lookups = vec![0u64; cfg.copies];
    for q in 0..cfg.queries {
        let name = zipf.sample(&mut rng);
        let mut best = CAP_SECONDS;
        for slot in 0..cfg.copies {
            let srv_idx = exp.ranking[slot];
            let server = &exp.population.servers[srv_idx];
            let warm = caches[srv_idx].contains(name);
            lookups += 1;
            slot_lookups[slot] += 1;
            if warm {
                hits += 1;
                slot_hits[slot] += 1;
            }
            // Sample the response with the cache decision pinned by *our*
            // cache state rather than the static hit probability.
            let t = if rng.chance(server.loss_prob) {
                CAP_SECONDS
            } else if warm {
                server.base_rtt + server.hit_jitter.sample(&mut rng)
            } else {
                server.base_rtt + server.miss_extra.sample(&mut rng)
            };
            best = best.min(t.min(CAP_SECONDS));
            caches[srv_idx].insert(name);
        }
        // Skip the cold start in the measurements.
        if q >= cfg.queries / 10 {
            response.push(best);
        }
    }
    WarmingResult {
        response,
        hit_rate: hits as f64 / lookups.max(1) as f64,
        per_slot_hit_rate: slot_hits
            .iter()
            .zip(&slot_lookups)
            .map(|(&h, &l)| h as f64 / l.max(1) as f64)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::DnsPopulation;

    fn experiment() -> DnsExperiment {
        DnsExperiment::rank(DnsPopulation::paper_like(1), 2_000, 9)
    }

    #[test]
    fn name_cache_fifo_semantics() {
        let mut c = NameCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.contains(1) && c.contains(2));
        c.insert(3);
        assert!(!c.contains(1), "oldest evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_is_disabled() {
        // Regression: capacity 0 used to drive the insert-then-evict path
        // on every insert; it must instead behave as "no cache at all".
        let mut c = NameCache::new(0);
        for name in 0..1_000u64 {
            c.insert(name);
            assert!(!c.contains(name));
        }
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        // Capacity 1 still caches (exactly one name).
        let mut c = NameCache::new(1);
        c.insert(7);
        assert!(c.contains(7));
        c.insert(8);
        assert!(!c.contains(7) && c.contains(8));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::seed_from(3);
        let mut top10 = 0;
        let n = 50_000;
        for _ in 0..n {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        let frac = top10 as f64 / n as f64;
        assert!(frac > 0.3, "top-10 should dominate a Zipf(1): {frac}");
    }

    #[test]
    fn replication_warms_more_caches() {
        let exp = experiment();
        let mut cfg = WarmingConfig {
            queries: 60_000,
            ..Default::default()
        };
        cfg.copies = 1;
        let one = run_warming(&exp, &cfg);
        cfg.copies = 2;
        cfg.seed = 0xCACE; // same stream
        let two = run_warming(&exp, &cfg);
        // The second server's cache is now warm too, so per-lookup hit
        // rates hold up (and the race gains compound).
        assert!(
            two.hit_rate > one.hit_rate - 0.05,
            "hit rates: k=1 {} vs k=2 {}",
            one.hit_rate,
            two.hit_rate
        );
        assert!(
            two.response.mean() < one.response.mean() * 0.85,
            "warm replicated mean {} vs single {}",
            two.response.mean(),
            one.response.mean()
        );
    }

    #[test]
    fn warming_raises_the_secondary_hit_rate() {
        // The quantified side-benefit: under replication the second-ranked
        // resolver's cache reaches the same warmth as the primary's, far
        // above its static (cold-for-this-workload) hit probability.
        let exp = experiment();
        let cfg = WarmingConfig {
            queries: 120_000,
            copies: 2,
            ..Default::default()
        };
        let warm = run_warming(&exp, &cfg);
        assert_eq!(warm.per_slot_hit_rate.len(), 2);
        let (primary, secondary) = (warm.per_slot_hit_rate[0], warm.per_slot_hit_rate[1]);
        assert!(
            (primary - secondary).abs() < 0.05,
            "both caches equally warm: {primary} vs {secondary}"
        );
        assert!(
            secondary > 0.5,
            "secondary hit rate {secondary} should exceed any static resolver's"
        );
    }

    #[test]
    fn warmed_hits_are_correlated_across_servers() {
        // The second finding: with a shared query stream, the two caches
        // hold the same names, so the race dodges fewer misses than the
        // static independent-hit model would predict (its k=2 mean is an
        // optimistic bound here).
        let exp = experiment();
        let cfg = WarmingConfig {
            queries: 120_000,
            copies: 2,
            ..Default::default()
        };
        let warm = run_warming(&exp, &cfg);
        let static_mean = exp.run_trials(2, 60_000, 5).mean();
        assert!(
            warm.response.mean() > static_mean * 0.8,
            "correlated caches shouldn't massively beat the independent model: {} vs {}",
            warm.response.mean(),
            static_mean
        );
    }

    #[test]
    fn small_cache_limits_the_benefit() {
        let exp = experiment();
        let big = run_warming(
            &exp,
            &WarmingConfig {
                queries: 60_000,
                cache_capacity: 20_000,
                ..Default::default()
            },
        );
        let tiny = run_warming(
            &exp,
            &WarmingConfig {
                queries: 60_000,
                cache_capacity: 50,
                ..Default::default()
            },
        );
        assert!(big.hit_rate > tiny.hit_rate + 0.1);
    }
}
