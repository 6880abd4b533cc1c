//! Property-based tests over the substrate invariants.
//!
//! Each property here is one the simulators rely on for *correctness of
//! the reproduction*, not just code health: event ordering is what makes
//! the FIFO queues exact; LRU equivalence is what makes the cache:disk
//! ratio meaningful; ring monotonicity is what the paper's n/n+1 placement
//! assumes; distribution normalization is what puts every Figure 2 family
//! on the same unit-mean axis.
//!
//! Cases are generated from the workspace's own deterministic
//! [`Rng`](low_latency_redundancy::simcore::rng::Rng) at fixed seeds (no
//! external property-testing dependency), so failures replay exactly.

use low_latency_redundancy::netsim::tcp::{TcpReceiver, TcpSender};
use low_latency_redundancy::netsim::topology::FatTree;
use low_latency_redundancy::simcore::dist::{
    DiscreteEmpirical, Distribution, LogNormal, Pareto, TwoPoint, Weibull,
};
use low_latency_redundancy::simcore::rng::Rng;
use low_latency_redundancy::simcore::shard::ShardQueue;
use low_latency_redundancy::simcore::stats::SampleSet;
use low_latency_redundancy::simcore::time::SimTime;
use low_latency_redundancy::storesim::hashring::HashRing;
use low_latency_redundancy::storesim::lru::LruCache;

/// FNV-1a-64, the hash every byte pin below is recorded with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The event queue (one [`ShardQueue`], as every sequential simulator
/// drives it) pops sorted by time, and ties pop in insertion order. Half
/// the cases draw from a few distinct times, so most pops are exact ties.
#[test]
fn event_queue_total_order() {
    let mut rng = Rng::seed_from(0xE7E27);
    for case in 0..300 {
        let n = 1 + rng.index(300);
        let span = if case % 2 == 0 {
            1000
        } else {
            1 + rng.u64_below(8)
        };
        let times: Vec<u32> = (0..n).map(|_| rng.u64_below(span) as u32).collect();
        let mut q = ShardQueue::new(0);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t as f64), i);
        }
        let mut popped: Vec<(f64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_secs(), i));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO tie-break violated");
            }
        }
    }
}

/// LRU behaves exactly like a reference model (vector of (key,size),
/// most recent first, capacity-bounded).
#[test]
fn lru_matches_reference_model() {
    let mut rng = Rng::seed_from(0x14B);
    for _case in 0..60 {
        let cap = 50 + rng.u64_below(150);
        let ops = 1 + rng.index(300);
        let mut lru = LruCache::new(cap);
        let mut model: Vec<(u64, u64)> = Vec::new(); // MRU-first
        for _ in 0..ops {
            let key = rng.u64_below(20);
            let size = 1 + rng.u64_below(39);
            let is_insert = rng.chance(0.5);
            if is_insert && size <= cap {
                lru.insert(key, size);
                model.retain(|&(k, _)| k != key);
                model.insert(0, (key, size));
                let mut used: u64 = model.iter().map(|&(_, s)| s).sum();
                while used > cap {
                    let (_, s) = model.pop().unwrap();
                    used -= s;
                }
            } else if !is_insert {
                let hit = lru.access(key);
                let model_hit = model.iter().any(|&(k, _)| k == key);
                assert_eq!(hit, model_hit, "hit/miss diverged for {key}");
                if model_hit {
                    let pos = model.iter().position(|&(k, _)| k == key).unwrap();
                    let entry = model.remove(pos);
                    model.insert(0, entry);
                }
            }
            let used: u64 = model.iter().map(|&(_, s)| s).sum();
            assert_eq!(lru.used_bytes(), used);
            assert_eq!(lru.len(), model.len());
        }
    }
}

/// Consistent hashing: keys only move *to the new server* when the
/// cluster grows.
#[test]
fn ring_growth_is_monotone() {
    let mut rng = Rng::seed_from(0x21A6);
    for servers in 2usize..12 {
        let before = HashRing::new(servers, 64);
        let after = HashRing::new(servers + 1, 64);
        for _ in 0..50 {
            let k = rng.next_u64();
            let (b, a) = (before.primary(k), after.primary(k));
            if b != a {
                assert_eq!(a, servers, "key {k} moved to an old server");
            }
        }
    }
}

/// Unit-mean families really have unit mean, and samples are positive
/// and finite.
#[test]
fn unit_mean_families_normalized() {
    let mut rng = Rng::seed_from(0xD15F);
    for case in 0..120 {
        let seed = rng.next_u64();
        let dist: Box<dyn Distribution> = match case % 4 {
            0 => Box::new(Pareto::unit_mean(2.0 + (seed % 50) as f64 / 10.0)),
            1 => Box::new(Weibull::unit_mean(0.3 + (seed % 40) as f64 / 10.0)),
            2 => Box::new(TwoPoint::new((seed % 99) as f64 / 100.0)),
            _ => Box::new(LogNormal::unit_mean((seed % 20) as f64 / 10.0)),
        };
        assert!(
            (dist.mean() - 1.0).abs() < 1e-6,
            "{dist:?} mean {}",
            dist.mean()
        );
        let mut sample_rng = Rng::seed_from(seed);
        for _ in 0..200 {
            let x = dist.sample(&mut sample_rng);
            assert!(x > 0.0 && x.is_finite(), "{dist:?}: sample {x}");
        }
    }
}

/// Alias-method sampling only produces support values with positive weight.
#[test]
fn alias_samples_in_support() {
    let mut rng = Rng::seed_from(0xA11A5);
    for _case in 0..100 {
        let n = 1 + rng.index(19);
        let weights: Vec<f64> = (0..n).map(|_| rng.f64() * 10.0).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let pairs: Vec<(f64, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as f64, w))
            .collect();
        let d = DiscreteEmpirical::new(&pairs);
        let mut sample_rng = Rng::seed_from(rng.next_u64());
        for _ in 0..200 {
            let x = d.sample(&mut sample_rng);
            let idx = x as usize;
            assert!(idx < weights.len());
            assert!(weights[idx] > 0.0, "sampled zero-weight value {x}");
        }
    }
}

/// Quantiles are monotone and bounded by min/max.
#[test]
fn quantiles_monotone() {
    let mut rng = Rng::seed_from(0x0A77);
    for _case in 0..100 {
        let n = 2 + rng.index(398);
        let xs: Vec<f64> = (0..n).map(|_| rng.f64_range(-1.0e6, 1.0e6)).collect();
        let mut s: SampleSet = xs.iter().copied().collect();
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| s.quantile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((vals[0] - lo).abs() < 1e-9 && (vals[5] - hi).abs() < 1e-9);
    }
}

/// Fat-tree routing reaches every destination from every node along
/// every ECMP candidate, within the structural 6-hop bound.
#[test]
fn fat_tree_all_candidates_reach() {
    fn reaches(t: &FatTree, at: u32, dst: u32, depth: usize) -> bool {
        if at == dst {
            return true;
        }
        if depth == 0 {
            return false;
        }
        t.candidates(at, dst)
            .iter()
            .all(|&l| reaches(t, t.link(l).to, dst, depth - 1))
    }
    let mut rng = Rng::seed_from(0xFA7);
    for &k in &[2usize, 4, 6] {
        let t = FatTree::new(k);
        let hosts = t.hosts() as u32;
        for _ in 0..40 {
            let src = rng.u64_below(hosts as u64) as u32;
            let dst = rng.u64_below(hosts as u64) as u32;
            if src == dst {
                continue;
            }
            assert!(reaches(&t, src, dst, 6), "k={k} src={src} dst={dst}");
        }
    }
}

/// TCP delivers every packet exactly once to the application under an
/// arbitrary (finite) loss pattern with a lossless retransmission
/// fallback: the transfer always completes and the receiver's
/// cumulative counter equals the flow length.
#[test]
fn tcp_completes_under_random_loss() {
    let mut rng = Rng::seed_from(0x7C9);
    for _case in 0..80 {
        let total = 1 + rng.u64_below(59) as u32;
        let loss_len = rng.index(41);
        let loss_pattern: Vec<bool> = (0..loss_len).map(|_| rng.chance(0.5)).collect();

        let mut s = TcpSender::new(total);
        let mut r = TcpReceiver::new(total);
        let mut now = 0.0f64;
        let mut wire = s.on_start(now).send;
        let mut drops = loss_pattern.into_iter();
        let mut completed = false;
        let mut guard = 0;
        while !completed && guard < 10_000 {
            guard += 1;
            now += 1e-4;
            let mut acks = Vec::new();
            for seq in wire.drain(..) {
                if drops.next() == Some(true) {
                    continue; // lost
                }
                if let Some(c) = r.on_data(seq, false) {
                    acks.push(c);
                }
            }
            let mut next = Vec::new();
            for c in acks {
                let a = s.on_ack(now, c);
                completed |= a.completed;
                next.extend(a.send);
            }
            if next.is_empty() && !completed {
                now += s.rto();
                let a = s.on_timeout(now, s.timer_epoch);
                next.extend(a.send);
            }
            wire = next;
        }
        assert!(completed, "transfer stalled (total={total})");
        assert_eq!(r.cum(), total);
    }
}

/// Distribution sampling is bit-reproducible: the same seed produces a
/// byte-identical stream through the facade, twice.
#[test]
fn sampling_is_deterministic_across_runs() {
    let dists: Vec<Box<dyn Distribution>> = vec![
        Box::new(Pareto::unit_mean(2.1)),
        Box::new(Weibull::unit_mean(0.5)),
        Box::new(LogNormal::unit_mean(1.0)),
        Box::new(TwoPoint::new(0.5)),
    ];
    for d in &dists {
        let mut a = Rng::seed_from(0xB17);
        let mut b = Rng::seed_from(0xB17);
        for _ in 0..1_000 {
            assert_eq!(
                d.sample(&mut a).to_bits(),
                d.sample(&mut b).to_bits(),
                "{d:?} diverged"
            );
        }
    }
}

/// Parallel execution is invisible in the numbers: `threshold_load` and
/// `mean_vs_load` return bit-identical results at 1, 2, and 8 threads.
/// This is the runner layer's central contract — per-task randomness is
/// forked from task indices, never from execution order — checked across
/// several service distributions.
#[test]
fn parallel_sweeps_bit_identical_across_thread_counts() {
    use low_latency_redundancy::queuesim::sweeps::mean_vs_load_on;
    use low_latency_redundancy::queuesim::threshold::{threshold_load_on, ThresholdOptions};
    use low_latency_redundancy::simcore::runner::Runner;

    let mut opts = ThresholdOptions::fast();
    opts.requests = 6_000;
    opts.warmup = 600;
    opts.replications = 3;
    opts.max_replications = 6;
    opts.tolerance = 0.05;
    let loads = [0.12, 0.3, 0.44];

    let dists: Vec<Box<dyn Distribution>> = vec![
        Box::new(Pareto::unit_mean(2.2)),
        Box::new(Weibull::unit_mean(0.7)),
        Box::new(TwoPoint::new(0.4)),
    ];
    for dist in &dists {
        let thr_base = threshold_load_on(&Runner::new(1), &dist.as_ref(), &opts);
        let pts_base = mean_vs_load_on(&Runner::new(1), &dist.as_ref(), &loads, 5_000, 0xBEE);
        for threads in [2usize, 8] {
            let runner = Runner::new(threads);
            let thr = threshold_load_on(&runner, &dist.as_ref(), &opts);
            assert_eq!(
                thr_base.to_bits(),
                thr.to_bits(),
                "{dist:?}: threshold diverged at {threads} threads"
            );
            let pts = mean_vs_load_on(&runner, &dist.as_ref(), &loads, 5_000, 0xBEE);
            for (a, b) in pts_base.iter().zip(&pts) {
                for (x, y) in [
                    (a.mean_single, b.mean_single),
                    (a.mean_double, b.mean_double),
                    (a.p999_single, b.p999_single),
                    (a.p999_double, b.p999_double),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{dist:?}: sweep diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

/// The windowed Welford estimators (`RateEstimator`, `MomentEstimator`)
/// agree with a brute-force recompute over the retained window to 1e-9 at
/// every step of seeded random streams — growth, window eviction, and
/// post-reset refill alike. This is the foundation the self-calibrating
/// planner stands on: the O(1) sliding update must not drift from the
/// exact window moments no matter how the stream arrived.
#[test]
fn windowed_estimators_match_bruteforce_across_random_streams() {
    use low_latency_redundancy::redundancy::prelude::{MomentEstimator, RateEstimator};

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    let mut rng = Rng::seed_from(0xE571);
    for case in 0..30 {
        let window = 2 + rng.index(60);
        let n = window * 3 + rng.index(200);
        // Mix scales so the stream is not benignly homogeneous: rare
        // 100x spikes stress the sliding update's cancellation error.
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                let base = rng.exponential(4.0);
                if rng.chance(0.05) {
                    base * 100.0
                } else {
                    base
                }
            })
            .collect();
        let mut rate = RateEstimator::new(window);
        let mut moments = MomentEstimator::new(window);
        // Exercise the reset path mid-stream on half the cases.
        let reset_at = if case % 2 == 0 { Some(n / 2) } else { None };
        let mut held: Vec<f64> = Vec::new();
        for (i, &x) in xs.iter().enumerate() {
            if reset_at == Some(i) {
                rate.reset();
                moments.reset();
                held.clear();
            }
            rate.push_gap(x);
            moments.observe(x);
            held.push(x);
            let lo = held.len().saturating_sub(window);
            let (mean, var) = naive(&held[lo..]);
            for (label, got_mean, got_var) in [
                ("rate", rate.mean_gap(), rate.gap_variance()),
                ("moments", moments.mean(), moments.variance()),
            ] {
                assert!(
                    (got_mean - mean).abs() < 1e-9,
                    "case {case} step {i} {label}: mean {got_mean} vs {mean}"
                );
                let got_var_ok = if held.len() - lo < 2 {
                    got_var == 0.0
                } else {
                    (got_var - var).abs() < 1e-9 * var.max(1.0)
                };
                assert!(
                    got_var_ok,
                    "case {case} step {i} {label}: var {got_var} vs {var}"
                );
            }
            if held.len() - lo >= 2 && moments.mean() > 0.0 {
                let (mean, var) = naive(&held[lo..]);
                assert!(
                    (moments.scv() - var / (mean * mean)).abs()
                        < 1e-9 * (var / (mean * mean)).max(1.0),
                    "case {case} step {i}: scv"
                );
            }
        }
    }
}

/// `EstimatorBank` per-index streams agree with a brute-force recompute
/// over each index's retained window to 1e-9 at every step of seeded
/// random streams whose observations interleave across servers in random
/// order — growth, window eviction, per-index `reset`, and the
/// all-servers-idle edge alike. This is what lets the per-server planner
/// trust that feeding server A's arrivals can never perturb server B's
/// estimate, no matter how the two streams interleave.
#[test]
fn estimator_bank_matches_bruteforce_across_interleaved_streams() {
    use low_latency_redundancy::redundancy::prelude::EstimatorBank;

    fn naive(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    let mut rng = Rng::seed_from(0xBA9C);
    for case in 0..20 {
        let servers = 2 + rng.index(6);
        let window = 2 + rng.index(40);
        let n = window * servers * 3 + rng.index(300);
        let mut bank = EstimatorBank::new(servers, window);
        let mut held: Vec<Vec<f64>> = vec![Vec::new(); servers];
        // The all-servers-idle edge: a cold bank reports zero everywhere.
        for s in 0..servers {
            assert!(bank.get(s).is_empty());
            assert_eq!(bank.rate(s), 0.0);
            assert_eq!(bank.utilization(s, 1.0e-3, 2), 0.0);
        }
        // Exercise a per-index reset mid-stream on half the cases.
        let reset_at = if case % 2 == 0 {
            Some((n / 2, rng.index(servers)))
        } else {
            None
        };
        for i in 0..n {
            if let Some((at, idx)) = reset_at {
                if i == at {
                    bank.reset(idx);
                    held[idx].clear();
                }
            }
            let idx = rng.index(servers);
            // Mixed scales: rare 100x spikes stress the sliding update.
            let gap = {
                let base = rng.exponential(4.0);
                if rng.chance(0.05) {
                    base * 100.0
                } else {
                    base
                }
            };
            bank.push_gap(idx, gap);
            held[idx].push(gap);
            // Check the touched index plus one random bystander — the
            // bystander's estimate must be exactly its own stream's.
            for s in [idx, rng.index(servers)] {
                let h = &held[s];
                if h.is_empty() {
                    assert!(bank.get(s).is_empty(), "case {case} step {i} idle {s}");
                    assert_eq!(bank.rate(s), 0.0);
                    continue;
                }
                let lo = h.len().saturating_sub(window);
                let w = &h[lo..];
                let (mean, var) = naive(w);
                let est = bank.get(s);
                assert!(
                    (est.mean_gap() - mean).abs() < 1e-9,
                    "case {case} step {i} server {s}: mean {} vs {mean}",
                    est.mean_gap()
                );
                let var_ok = if w.len() < 2 {
                    est.gap_variance() == 0.0
                } else {
                    (est.gap_variance() - var).abs() < 1e-9 * var.max(1.0)
                };
                assert!(var_ok, "case {case} step {i} server {s}: variance");
                if w.len() >= 2 {
                    assert!(
                        (bank.rate(s) - 1.0 / mean).abs() < 1e-9 * (1.0 / mean).max(1.0),
                        "case {case} step {i} server {s}: rate"
                    );
                    // utilization = rate * mean_service / split, exactly.
                    assert_eq!(
                        bank.utilization(s, 2.0e-3, 2).to_bits(),
                        (bank.rate(s) * 2.0e-3 / 2.0).to_bits()
                    );
                } else {
                    assert_eq!(bank.rate(s), 0.0, "one gap is not a rate");
                }
            }
        }
    }
}

/// `LoadModel::Global` **is** the PR 4 code path, bit for bit: the two
/// quick-mode estimated-planner experiments that existed before the
/// per-server planner landed must reproduce their PR 4 reports exactly
/// (FNV-1a-64 over the report bytes, captured from the pre-refactor
/// binary). Any drift here means the refactor silently changed the
/// global-model semantics — RNG draw order, estimator feeding, decision
/// arithmetic — rather than purely adding the per-server path.
///
/// Platform note: like CI's serial-vs-parallel byte-diff, this pin
/// assumes the platform's libm (`ln`, `powf` feed the samplers and Zipf
/// weights). A failure on a *new* target or after a libm update — with
/// the headline numbers still inside their EXPERIMENTS.md bands — is
/// last-bit float drift, not semantic drift: re-pin the hashes from the
/// unmodified global path on that platform. A failure on a platform
/// where it previously passed is real drift.
///
/// Re-pinned in PR 10: the consistent-hash replica fix (ring-order
/// successor walk replacing the `(primary + i) % servers` index rule)
/// intentionally moved stored replica sets, so both reports changed;
/// the hashes below are the post-fix outputs, and the pin again guards
/// the global path against *unintended* drift from here on.
///
/// Re-pinned again when the sequential service runner was retired and
/// every service ramp moved onto the sharded engine (one server group,
/// one worker). That engine samples each copy's demand at **dispatch**
/// and cancels **per request**: one message purges one request's copies
/// at one losing server, where the old runner swept every copy a shared
/// cancel token marked. Its completion-reported demands also reach the
/// moment estimator with the response, one propagation delay after the
/// departure. (Dispatch-time sampling alone moves no bits: with one lane
/// and a fixed propagation delay, copies reach the servers in dispatch
/// order, so `fig-service` and the clairvoyant half of `fig-service-est`
/// are unchanged.) The estimated-moment recalibrations (both reports)
/// and the hedged, cancelling ramp (`fig-service-skew`) therefore land
/// on different bits, while every headline stays inside its
/// EXPERIMENTS.md band.
#[test]
fn load_model_global_reproduces_pr4_reports_byte_for_byte() {
    use repro_bench::{run_experiment, Effort};

    for (id, pinned) in [
        ("fig-service-est", 0xacbf96b4732a1a18u64),
        ("fig-service-skew", 0x7aa32cd075687f89u64),
    ] {
        let out = run_experiment(id, Effort::Quick);
        assert_eq!(
            fnv1a64(out.as_bytes()),
            pinned,
            "{id} drifted from its PR 4 pinned output:\n{out}"
        );
    }
}

/// Every new service-layer scenario — estimated-moment calibration,
/// heavy-tailed service, skewed keys, and a hedged ramp — produces
/// bit-identical aggregate outcomes at 1 and 8 runner threads, matching
/// the PR 2 engine contract (per-task randomness forked by index, never
/// execution order). The full `repro` reports are additionally byte-diffed
/// serial-vs-parallel in CI for all registered ids, the three new service
/// experiments included.
#[test]
fn service_scenarios_bit_identical_across_thread_counts() {
    use low_latency_redundancy::redundancy::policy::Policy;
    use low_latency_redundancy::simcore::dist::Exponential;
    use low_latency_redundancy::simcore::runner::Runner;
    use low_latency_redundancy::storesim::experiments::run_service_ramp_on;
    use low_latency_redundancy::storesim::service::{
        bounded_pareto_with_mean, zipf_popularity, Discipline, Frontend, LoadModel, MomentSource,
        ServiceConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let small = |mut cfg: ServiceConfig| {
        cfg.requests = 8_000;
        cfg.warmup = 800;
        cfg.buckets = 8;
        cfg
    };
    let estimated = Frontend::Adaptive {
        window: 512,
        moments: MomentSource::Estimated { window: 2048 },
        load_model: LoadModel::Global,
    };

    let mut scenarios: Vec<(&str, ServiceConfig)> = Vec::new();
    let mut est = small(ServiceConfig::ramp(
        Arc::new(Exponential::with_mean(1.0e-3)),
        0.05,
        0.55,
    ));
    est.frontend = estimated.clone();
    scenarios.push(("estimated", est));
    let mut tail = small(ServiceConfig::ramp(
        Arc::new(bounded_pareto_with_mean(1.4, 1000.0, 1.0e-3)),
        0.05,
        0.5,
    ));
    tail.frontend = estimated.clone();
    scenarios.push(("heavy-tail", tail));
    let mut skew = small(ServiceConfig::ramp(
        Arc::new(Exponential::with_mean(1.0e-3)),
        0.05,
        0.45,
    ));
    skew.frontend = estimated.clone();
    skew.popularity = Some(zipf_popularity(skew.shards, 0.6));
    scenarios.push(("skewed", skew));
    let mut hedged = small(ServiceConfig::ramp(
        Arc::new(Exponential::with_mean(1.0e-3)),
        0.05,
        0.45,
    ));
    hedged.frontend = Frontend::Fixed(Policy::Hedged {
        copies: 2,
        after: Duration::from_micros(8_000),
    });
    hedged.cancellation = true;
    scenarios.push(("hedged", hedged));
    // The per-server planner on a Zipf mix, and Estimated + PS +
    // cancellation, which reports demands at dispatch.
    let mut skew_aware = small(ServiceConfig::ramp(
        Arc::new(Exponential::with_mean(1.0e-3)),
        0.05,
        0.45,
    ));
    skew_aware.frontend = Frontend::Adaptive {
        window: 256,
        moments: MomentSource::Estimated { window: 2048 },
        load_model: LoadModel::PerServer,
    };
    skew_aware.popularity = Some(zipf_popularity(skew_aware.shards, 0.6));
    scenarios.push(("skew-aware", skew_aware));
    let mut ps_est = small(ServiceConfig::ramp(
        Arc::new(Exponential::with_mean(1.0e-3)),
        0.05,
        0.55,
    ));
    ps_est.frontend = estimated;
    ps_est.discipline = Discipline::Ps;
    ps_est.cancellation = true;
    scenarios.push(("ps-est", ps_est));

    for (name, cfg) in &scenarios {
        let serial = run_service_ramp_on(&Runner::new(1), cfg, 2);
        let parallel = run_service_ramp_on(&Runner::new(8), cfg, 2);
        assert_eq!(
            serial.switch_off.to_bits(),
            parallel.switch_off.to_bits(),
            "{name}: switch-off diverged"
        );
        for (field, a, b) in [
            (
                "live_threshold",
                serial.live_threshold,
                parallel.live_threshold,
            ),
            (
                "est_mean",
                serial.est_mean_service,
                parallel.est_mean_service,
            ),
            ("est_scv", serial.est_scv, parallel.est_scv),
            (
                "cancel",
                serial.cancel_fraction(),
                parallel.cancel_fraction(),
            ),
            (
                "peak_util",
                serial.peak_utilization(),
                parallel.peak_utilization(),
            ),
            (
                "switch_off_hot",
                serial.switch_off_hot(),
                parallel.switch_off_hot(),
            ),
            (
                "switch_off_cold",
                serial.switch_off_cold(),
                parallel.switch_off_cold(),
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {field} diverged");
        }
        for (i, (a, b)) in serial.buckets.iter().zip(&parallel.buckets).enumerate() {
            assert_eq!(
                (a.requests, a.k2_requests, a.hot_requests, a.hot_k2_requests),
                (b.requests, b.k2_requests, b.hot_requests, b.hot_k2_requests),
                "{name} row {i}"
            );
            assert_eq!(
                a.mean_response.to_bits(),
                b.mean_response.to_bits(),
                "{name} row {i}"
            );
            assert_eq!(a.p99.to_bits(), b.p99.to_bits(), "{name} row {i}");
            assert_eq!(
                a.peak_utilization.to_bits(),
                b.peak_utilization.to_bits(),
                "{name} row {i}"
            );
        }
    }
}

/// Deterministic cross-crate check: racing thread replicas through the
/// real library returns the known-fastest one.
#[test]
fn library_race_end_to_end() {
    use low_latency_redundancy::redundancy::prelude::*;
    use std::time::Duration;
    let out = race(vec![
        replica(|_t: &CancelToken| {
            std::thread::sleep(Duration::from_millis(30));
            "slow"
        }),
        replica(|_t: &CancelToken| {
            std::thread::sleep(Duration::from_millis(2));
            "fast"
        }),
    ])
    .unwrap();
    assert_eq!(out.value, "fast");
}

/// A single [`ShardQueue`] pops in exactly the order a sequential event
/// queue must produce on randomized schedules — including heavy
/// simultaneous-event ties, which must break FIFO by insertion order. The
/// reference is the pushed `(time, insertion index)` list, stably sorted by
/// time. This is the base case of the sharded engine's determinism
/// guarantee: with one shard there is no merge rule left, only the queue.
#[test]
fn shard_queue_pop_order_matches_event_queue() {
    let mut rng = Rng::seed_from(0x5AA2D);
    for case in 0..100 {
        let n = 1 + rng.index(300);
        // Few distinct times => many exact ties.
        let span = 1 + rng.index(8) as u64;
        let mut reference = Vec::with_capacity(n);
        let mut sq = ShardQueue::new(0);
        for i in 0..n {
            let t = SimTime::from_secs(rng.u64_below(span) as f64);
            reference.push((t, i));
            sq.push(t, i);
        }
        reference.sort_by_key(|&(t, _)| t);
        let mut expected = reference.into_iter();
        loop {
            match (expected.next(), sq.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b, "case {case}: pop order diverged"),
            }
        }
    }
}

/// The sharded engine delivers a bit-identical event trace at every
/// worker count, on randomized schedules that exercise the hard cases:
/// same-timestamp ties within a shard and cross-shard messages landing
/// *exactly* on the synchronization-horizon boundary (`delay ==
/// lookahead`, the smallest legal delay, which places the arrival at the
/// first instant of a later window).
#[test]
fn sharded_engine_trace_identical_across_worker_counts() {
    use low_latency_redundancy::simcore::shard::{ShardCtx, ShardEngine, ShardLogic};

    const LOOKAHEAD: f64 = 1.0e-3;

    struct Rec {
        shards: usize,
        budget: u32,
        log: Vec<(SimTime, u32)>,
    }

    impl ShardLogic for Rec {
        type Event = u32;
        fn handle(&mut self, now: SimTime, id: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.log.push((now, id));
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let h = id.wrapping_mul(2_654_435_761);
            match h % 4 {
                // A tie: same timestamp, must pop after everything already
                // queued at `now`.
                0 => ctx.schedule_after(SimTime::ZERO, id + 1),
                1 => ctx.schedule_after(SimTime::from_secs((h % 7 + 1) as f64 * 1e-4), id + 1),
                // Message arriving exactly on the horizon boundary.
                2 if self.shards > 1 => {
                    let to = (ctx.shard() + 1 + (h as usize % (self.shards - 1))) % self.shards;
                    ctx.send(to, SimTime::from_secs(LOOKAHEAD), id + 1);
                }
                _ => {}
            }
        }
    }

    let mut rng = Rng::seed_from(0xC0DE5);
    for &shards in &[1usize, 2, 5] {
        let run = |workers: usize, seeds: &[(usize, u64)]| {
            let states = (0..shards)
                .map(|_| Rec {
                    shards,
                    budget: 400,
                    log: Vec::new(),
                })
                .collect();
            let mut engine = ShardEngine::new(states, SimTime::from_secs(LOOKAHEAD));
            for &(s, t) in seeds {
                engine.schedule(s, SimTime::from_secs(t as f64 * 1e-4), t as u32);
            }
            let stats = engine.run_with(workers);
            (stats, engine.into_states())
        };
        let seeds: Vec<(usize, u64)> = (0..40)
            .map(|_| (rng.index(shards), rng.u64_below(20)))
            .collect();
        let (base_stats, base_states) = run(1, &seeds);
        for workers in [2usize, 3, 8] {
            let (stats, states) = run(workers, &seeds);
            assert_eq!(
                stats.events, base_stats.events,
                "{shards} shards @ {workers} workers"
            );
            assert_eq!(
                stats.rounds, base_stats.rounds,
                "{shards} shards @ {workers} workers"
            );
            assert_eq!(
                stats.wires, base_stats.wires,
                "{shards} shards @ {workers} workers"
            );
            assert_eq!(stats.end_time, base_stats.end_time);
            for (s, (a, b)) in base_states.iter().zip(&states).enumerate() {
                assert_eq!(
                    a.log, b.log,
                    "shard {s} trace diverged at {workers} workers ({shards} shards)"
                );
            }
        }
    }
}

/// The sharded *service* produces bit-identical measurements at every
/// thread count — the workspace's signature invariant carried onto the
/// parallel engine (CI additionally byte-diffs whole `repro` result trees
/// at `--threads 1/3/8`).
#[test]
fn sharded_service_bit_identical_across_thread_counts() {
    use low_latency_redundancy::simcore::dist::Exponential;
    use low_latency_redundancy::storesim::service::{Frontend, ServiceConfig};
    use low_latency_redundancy::storesim::sharded::run_sharded;
    use std::sync::Arc;

    let mut cfg = ServiceConfig::ramp(Arc::new(Exponential::with_mean(1.0e-3)), 0.1, 0.5);
    cfg.servers = 24;
    cfg.shards = 1536;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.requests = 12_000;
    cfg.warmup = 1_000;
    if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
        *window = 512;
    }

    let base = run_sharded(&cfg, 6, 1);
    for threads in [3usize, 8] {
        let out = run_sharded(&cfg, 6, threads);
        assert_eq!(out.engine.events, base.engine.events, "{threads} threads");
        assert_eq!(out.engine.rounds, base.engine.rounds, "{threads} threads");
        assert_eq!(out.result.completed, base.result.completed);
        assert_eq!(out.result.copies_issued, base.result.copies_issued);
        assert_eq!(out.result.copies_cancelled, base.result.copies_cancelled);
        assert_eq!(
            out.result.switch_off.to_bits(),
            base.result.switch_off.to_bits()
        );
        assert_eq!(
            out.result.mean_utilization.to_bits(),
            base.result.mean_utilization.to_bits()
        );
        for (i, (a, b)) in base
            .result
            .buckets
            .iter()
            .zip(&out.result.buckets)
            .enumerate()
        {
            assert_eq!(a.requests, b.requests, "bucket {i} @ {threads} threads");
            assert_eq!(
                a.k2_requests, b.k2_requests,
                "bucket {i} @ {threads} threads"
            );
            assert_eq!(
                a.mean_response.to_bits(),
                b.mean_response.to_bits(),
                "bucket {i} @ {threads} threads"
            );
            assert_eq!(
                a.p99.to_bits(),
                b.p99.to_bits(),
                "bucket {i} @ {threads} threads"
            );
        }
    }
}

/// The partitioned frontend is bit-identical at any worker count: with 4
/// frontend lanes (one engine shard each), workers in {1, 3, 8} produce the
/// same outcome on a deliberately hostile workload — a *discrete*
/// two-point service distribution (so departures collide in exact ties
/// constantly) with cancellation on, and lane summaries exchanged every
/// propagation delay, so every cross-lane load summary lands exactly on a
/// synchronization-horizon boundary (the smallest legal delay, the first
/// instant of a later window). Ties and boundary events are where a
/// schedule-dependent merge would first diverge. The outcome is also
/// pinned: FNV-1a-64 over the fingerprint's little-endian bytes, recorded
/// when lanes could still share an engine shard and unchanged since but
/// for one re-hash when the run-wide mean left the fingerprint.
#[test]
fn partitioned_frontend_trace_identical_across_workers() {
    use low_latency_redundancy::storesim::service::{
        Frontend, LoadModel, MomentSource, ServiceConfig,
    };
    use low_latency_redundancy::storesim::sharded::run_sharded;
    use std::sync::Arc;

    // Two service values at 10:1 odds, mean 1 ms: heavy exact ties.
    let service = Arc::new(DiscreteEmpirical::new(&[(0.5e-3, 0.9), (5.5e-3, 0.1)]));
    let mut cfg = ServiceConfig::ramp(service, 0.08, 0.5);
    cfg.servers = 24;
    cfg.shards = 1536;
    cfg.requests = 12_000;
    cfg.warmup = 1_000;
    cfg.cancellation = true;
    cfg.propagation = 200.0e-6;
    cfg.frontend_lanes = 4;
    cfg.frontend = Frontend::Adaptive {
        window: 512,
        moments: MomentSource::Estimated { window: 2048 },
        load_model: LoadModel::Global,
    };

    let reference = run_sharded(&cfg, 6, 1);
    assert!(
        reference.summaries > 0,
        "the hostile workload must actually exchange summaries"
    );
    let want = reference.fingerprint();
    let bytes: Vec<u8> = want.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(
        fnv1a64(&bytes),
        0xaffa61856f7879a2,
        "tie-heavy 4-lane pin drifted"
    );
    for workers in [3usize, 8] {
        let got = run_sharded(&cfg, 6, workers).fingerprint();
        assert_eq!(want, got, "trace diverged at workers={workers}");
    }
}

/// The partitioned-frontend refactor left the single-lane path untouched,
/// bit for bit: quick-mode `fig-service-scale` — the PR 6 sharded-engine
/// scale headline, which runs with one frontend lane — must reproduce its
/// pre-refactor report exactly (FNV-1a-64 over the report bytes, captured
/// from the PR 6 binary). Any drift means the lane decomposition leaked
/// into the one-lane code path — RNG forking, estimator feeding, or
/// event-key assignment.
///
/// Platform note: same libm caveat as
/// [`load_model_global_reproduces_pr4_reports_byte_for_byte`] — and same
/// PR 10 re-pin: the ring-order replica fix moved stored placement, so
/// the hash below is the post-fix one-lane output.
#[test]
fn partitioned_frontend_reproduces_pr6_scale_report_byte_for_byte() {
    use repro_bench::{run_experiment, Effort};

    let out = run_experiment("fig-service-scale", Effort::Quick);
    assert_eq!(
        fnv1a64(out.as_bytes()),
        0x64c485f0964afb4bu64,
        "fig-service-scale drifted from its PR 6 pinned output:\n{out}"
    );
}

/// One process-wide thread budget composes across nested spawners: a
/// saturated outer lease forces inner spawners serial instead of
/// multiplying `tasks × shards` threads, slots return on drop, and an
/// engine nested inside `Runner` tasks still produces the serial-identical
/// result (no deadlock, no divergence).
#[test]
fn nested_thread_budget_composes_without_oversubscription() {
    use low_latency_redundancy::simcore::dist::Exponential;
    use low_latency_redundancy::simcore::runner::{Runner, ThreadBudget};
    use low_latency_redundancy::storesim::service::ServiceConfig;
    use low_latency_redundancy::storesim::sharded::run_sharded;
    use std::sync::Arc;

    // Instance-level accounting (exact, free of cross-test races on the
    // process-wide budget): capacity 4 = caller + 3 extra.
    let budget = ThreadBudget::new(4);
    let outer = budget.lease(4);
    assert_eq!(outer.threads(), 4);
    assert_eq!(budget.in_use(), 3);
    let inner = budget.lease(8);
    assert_eq!(
        inner.threads(),
        1,
        "saturated budget must degrade to serial"
    );
    drop(inner);
    drop(outer);
    assert_eq!(budget.in_use(), 0, "slots must return on drop");
    let again = budget.lease(2);
    assert_eq!(again.threads(), 2);
    drop(again);

    // Integration: engines nested inside Runner tasks lease from the same
    // global budget, so however the grant lands, every nested run must
    // match the serial reference bit-for-bit and the budget must drain.
    let mut cfg = ServiceConfig::ramp(Arc::new(Exponential::with_mean(1.0e-3)), 0.1, 0.4);
    cfg.servers = 8;
    cfg.shards = 512;
    cfg.requests = 4_000;
    cfg.warmup = 400;
    let reference = run_sharded(&cfg, 4, 1);
    let nested = Runner::new(8).run(3, |_| run_sharded(&cfg, 4, 8));
    for out in &nested {
        assert_eq!(out.engine.events, reference.engine.events);
        assert_eq!(
            out.result.switch_off.to_bits(),
            reference.result.switch_off.to_bits()
        );
        assert_eq!(out.result.completed, reference.result.completed);
    }
}
