//! A sharded storage service whose replication factor is chosen **live**,
//! per request, by the planner — the paper's §2 decision rule running as
//! an online control loop instead of an offline sweep.
//!
//! The §2.2/§2.3 batch simulators ([`crate::cluster`], [`crate::memcached`])
//! fix the replication factor for a whole run; the paper's own analysis
//! (§2.1) and the follow-on literature (Joshi et al.'s redundancy-d
//! systems, Shah et al.'s "when do redundant requests reduce latency?")
//! ask the *online* question: given shifting load, when should the next
//! request be duplicated? This module defines the model — its
//! configuration, results, and the helpers the experiments share — and
//! [`crate::sharded::run_sharded`] runs it end-to-end:
//!
//! * **Shards** — `shards` keys placed on `servers` via the same
//!   consistent-hash ring as the batch store ([`crate::hashring`]), with
//!   `stored_replicas`-way placement (the paper's n, n+1, … rule).
//! * **Servers** — per-server queues on the [`simcore::shard`] engine,
//!   FIFO (one request in service, queue behind it) or PS (processor
//!   sharing, all resident requests served at rate 1/n — the egalitarian
//!   model of the redundancy literature).
//! * **Front-end** — consults [`redundancy`]'s stack per request: a
//!   [`Policy`] (fixed `Single`/`Always`/`Hedged`, all usable on the load
//!   ramp) or the **adaptive** mode, where a windowed arrival-rate
//!   estimate feeds the live utilization into the [`Planner`]'s §2.1
//!   threshold and the request is duplicated exactly when the estimated
//!   load is below it. The load estimate itself has two shapes
//!   ([`LoadModel`]): **global** — one [`RateEstimator`] over the whole
//!   request stream, the balanced-load §2.1 assumption — or
//!   **per-server** — an [`EstimatorBank`] entry per server, fed every
//!   request's stored replica set at dispatch, with each request decided
//!   against the *maximum* utilization of its own candidate pair, so
//!   cold keys keep replicating after hot keys
//!   have switched off (the per-server load signal Sparrow's batch
//!   sampling argues replicated dispatch needs). The threshold's moments
//!   come from a [`MomentSource`]: **clairvoyant** (config-supplied
//!   service moments, the partly-omniscient PR 3 mode) or **estimated**,
//!   where a [`MomentEstimator`] over per-copy service durations —
//!   reported at completion, or at dispatch under PS cancellation, where
//!   completion reports would be censored — re-derives mean, SCV, and
//!   threshold online: the fully self-calibrating loop (cf. Shah et al.,
//!   whose answer to "when do redundant requests reduce latency?" hinges
//!   on the service-time shape, and Joshi et al.'s insistence that
//!   adaptive replication react to *measured* state). Both shapes run the same decision loop,
//!   [`LivePlanner`], which the wall-clock runtime ([`crate::rt`]) runs
//!   too.
//! * **Workload mix** — keys are uniform by default, or skewed per-shard
//!   via any [`DiscreteEmpirical`] popularity ([`zipf_popularity`]),
//!   which concentrates traffic on the hash ring's hot servers and
//!   exercises the contention the balanced-load threshold model does not
//!   see.
//! * **Cancellation** — on the first response, per-request cancel
//!   messages race (one propagation delay) to the losing servers, which
//!   purge that request's copies: queued copies under FIFO (an in-service
//!   read cannot be un-seeked), queued *and* in-service copies under PS (a
//!   shared connection can be closed mid-transfer).
//!
//! A run drives an open-loop Poisson stream whose offered baseline load
//! ramps linearly from [`ServiceConfig::load_start`] to
//! [`ServiceConfig::load_end`] across the measured window, so one
//! simulation sweeps the whole load axis and the planner's switch-off
//! point is directly observable: the load at which the fraction of
//! requests issued with k = 2 crosses ½ ([`switch_off_load`]) should land
//! on the offline §2.1 threshold. Latency is reported along the same axis:
//! each [`RampBucket`] holds the mean and p99 response of the requests
//! offered at its load.
//!
//! Everything is bit-reproducible from the seed; replications fan out on
//! [`simcore::runner`] in [`crate::experiments::run_service_ramp`], which
//! pools them into one [`ServiceResult`], the type a single run returns.
//!
//! [`RateEstimator`]: redundancy::estimator::RateEstimator
//! [`EstimatorBank`]: redundancy::estimator::EstimatorBank
//! [`MomentEstimator`]: redundancy::estimator::MomentEstimator
//! [`LivePlanner`]: redundancy::planner::LivePlanner
//! [`Planner`]: redundancy::planner::Planner

use crate::hashring::HashRing;
use crate::sharded::MAX_STORED;
use redundancy::policy::Policy;
use simcore::dist::{BoundedPareto, DiscreteEmpirical, Distribution, DynDist, Weibull};
use std::sync::Arc;

/// Queueing discipline at each server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// First-in-first-out: one copy in service, the rest queued behind it.
    Fifo,
    /// Processor sharing: all resident copies progress at rate 1/n.
    Ps,
}

/// Where the adaptive front-end gets the service moments that
/// parameterize the planner's §2.1 threshold.
#[derive(Clone, Debug)]
pub enum MomentSource {
    /// Trust the config: threshold computed once from
    /// [`ServiceConfig::service`]'s exact moments (the partly-clairvoyant
    /// PR 3 behavior, kept as the reference mode).
    Clairvoyant,
    /// Measure: a
    /// [`MomentEstimator`](redundancy::estimator::MomentEstimator) over
    /// the per-copy service durations the servers report re-derives mean,
    /// SCV, and threshold online. A copy's demand is reported when its
    /// response reaches the client, or when it is dispatched if the
    /// servers run PS with cancellation (see
    /// [`run_sharded`](crate::sharded::run_sharded)).
    /// Until the window holds `window / 16` durations the front-end falls
    /// back to the clairvoyant threshold (the warm-up fallback: a fresh
    /// deployment starts from its capacity-planning assumptions and then
    /// calibrates them away); from then on it re-derives the threshold
    /// every `window / 8` durations
    /// ([`LivePlanner::with_moments`](redundancy::planner::LivePlanner::with_moments)
    /// owns both rules; a multi-lane frontend splits the window, and so
    /// both, across its lanes), read off a quantized-SCV grid
    /// ([`ThresholdCache`](redundancy::planner::ThresholdCache)) whose
    /// overhead-0 column is committed data, so the live path never bisects.
    Estimated {
        /// Moment-estimator window, in observed durations.
        window: usize,
    },
}

impl MomentSource {
    /// Estimated mode with the figures' 8192-duration window (large
    /// enough to see a heavy tail's rare giants): trusted after 512
    /// observations, recalibrated every 1024.
    pub fn estimated() -> Self {
        MomentSource::Estimated { window: 8192 }
    }
}

/// Which load estimate the adaptive front-end compares against the §2.1
/// threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadModel {
    /// One cluster-wide
    /// [`RateEstimator`](redundancy::estimator::RateEstimator) over the
    /// request stream: the balanced-load assumption of §2.1, blind to the
    /// load *shape* (the reference mode; its quick reports are pinned
    /// byte-for-byte by test).
    Global,
    /// One [`EstimatorBank`](redundancy::estimator::EstimatorBank) entry
    /// per server, fed every request's stored replica set at dispatch;
    /// each request's decision compares the **maximum** utilization of
    /// its own candidate pair against the threshold
    /// ([`LivePlanner::decide`](redundancy::planner::LivePlanner::decide)
    /// over the stored replicas), so requests whose servers are cold keep
    /// replicating after hot-server requests have switched off.
    PerServer,
}

/// How the front-end picks the replication factor of each request.
#[derive(Clone, Debug)]
pub enum Frontend {
    /// A fixed [`Policy`] for every request (the batch simulators' mode).
    Fixed(Policy),
    /// Planner-driven: duplicate to 2 copies exactly while the estimated
    /// baseline utilization sits below the workload's §2.1 threshold.
    Adaptive {
        /// Window of the arrival-rate estimator(s), in inter-arrival gaps
        /// (per server in [`LoadModel::PerServer`] mode).
        window: usize,
        /// Where the threshold's service moments come from.
        moments: MomentSource,
        /// Global vs per-server load estimation.
        load_model: LoadModel,
    },
}

/// Elastic autoscaling policy: a controller on frontend lane 0
/// periodically reads the cluster-wide utilization estimate (the same
/// estimator stack the adaptive planner consults) and grows or shrinks
/// the fleet by whole steps between `ServiceConfig::servers` (the floor)
/// and [`Autoscale::max_servers`]. Servers join and leave the hash ring
/// in LIFO index order ([`HashRing::add_server`] /
/// [`HashRing::remove_server`]), shards whose ownership moved are
/// dual-dispatched to old and new owners for [`Autoscale::migration`]
/// seconds, and the per-server planner's estimators grow/reset per index
/// on each change.
///
/// With autoscaling on, the arrival curve is no longer the linear
/// `load_start → load_end` ramp: request `i` offers a *diurnal* cluster
/// load `load_start + (peak_load − load_start)·sin(π·frac)` relative to
/// the configured baseline fleet, rising to `peak_load` (which may
/// exceed 1 — the whole point is that the fleet grows to absorb it) and
/// falling back. `load_start`/`load_end` then serve as the axis of the
/// reported buckets, which bin by *instantaneous per-live-server* load —
/// the ρ the planner's switch-off must track.
#[derive(Clone, Copy, Debug)]
pub struct Autoscale {
    /// Fleet ceiling (the floor is `ServiceConfig::servers`).
    pub max_servers: usize,
    /// Servers added or removed per scaling decision.
    pub step: usize,
    /// Scale out when estimated per-live-server utilization exceeds this.
    pub scale_out: f64,
    /// Scale in when it drops below this (hysteresis: `< scale_out`).
    pub scale_in: f64,
    /// Controller evaluation period, seconds (floored at the propagation
    /// delay — topology broadcasts travel on cross-shard wires).
    pub period: f64,
    /// Dual-dispatch window after each topology change, seconds:
    /// requests landing on a shard whose owners moved are sent to both
    /// old and new owners until the window closes.
    pub migration: f64,
    /// Peak of the diurnal cluster-load curve, relative to the baseline
    /// fleet of `ServiceConfig::servers` (may exceed 1).
    pub peak_load: f64,
}

/// Full configuration of one service run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Storage servers.
    pub servers: usize,
    /// Key shards placed on the ring.
    pub shards: usize,
    /// Stored copies per shard (placement; the query-time k can only pick
    /// among these).
    pub stored_replicas: usize,
    /// Virtual nodes per server on the hash ring.
    pub vnodes: usize,
    /// Per-server queueing discipline.
    pub discipline: Discipline,
    /// Service-time distribution of one copy at one server.
    pub service: DynDist,
    /// Per-shard popularity of the request mix (`None` = uniform keys).
    /// Samples are floored and clamped into `[0, shards)`; build with
    /// [`zipf_popularity`] for the classic skewed mix.
    pub popularity: Option<Arc<DiscreteEmpirical>>,
    /// Replication decision mode.
    pub frontend: Frontend,
    /// Frontend lanes: the adaptive frontend is decomposed into this many
    /// independent actors, each its own engine shard, owning a contiguous
    /// `1/lanes` slice of the key shards with its own forked RNG
    /// substreams and its own estimator state. Lanes exchange load
    /// summaries every propagation delay (the engine lookahead, the
    /// fastest a cross-shard message can travel). This is a *model*
    /// parameter — lanes > 1 is a different, decomposed arrival process
    /// that pays for its summaries in events — and the default 1 is
    /// byte-identical to the pre-lane frontend.
    pub frontend_lanes: usize,
    /// Cancel losing copies once the first response arrives.
    pub cancellation: bool,
    /// One-way propagation delay between clients and servers, seconds.
    pub propagation: f64,
    /// Offered baseline (k = 1) per-server utilization at the start of the
    /// measured window (warm-up runs entirely at this load).
    pub load_start: f64,
    /// Offered baseline utilization at the end of the measured window.
    pub load_end: f64,
    /// Ramp buckets for the reported decision/latency curves.
    pub buckets: usize,
    /// Measured requests.
    pub requests: usize,
    /// Warm-up requests (run at `load_start`).
    pub warmup: usize,
    /// Elastic autoscaling policy (`None` = the fixed fleet every other
    /// experiment runs; see [`Autoscale`] for what turning it on changes).
    pub autoscale: Option<Autoscale>,
    /// RNG seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// An adaptive load-ramp configuration with figure-sized defaults:
    /// 8 servers, 1024 shards stored 2-way, FIFO service, cancellation off
    /// (the §2.1 model the planner's threshold is derived from does not
    /// cancel).
    pub fn ramp(service: DynDist, load_start: f64, load_end: f64) -> Self {
        ServiceConfig {
            servers: 8,
            shards: 1024,
            stored_replicas: 2,
            vnodes: 64,
            discipline: Discipline::Fifo,
            service,
            popularity: None,
            frontend: Frontend::Adaptive {
                window: 2048,
                moments: MomentSource::Clairvoyant,
                load_model: LoadModel::Global,
            },
            frontend_lanes: 1,
            cancellation: false,
            propagation: 50.0e-6,
            load_start,
            load_end,
            buckets: 22,
            requests: 120_000,
            warmup: 12_000,
            autoscale: None,
            seed: 0x5E81CE,
        }
    }

    /// Offered baseline load of request `i` (see [`ramp_load`]).
    pub(crate) fn offered(&self, i: usize) -> f64 {
        ramp_load(
            i,
            self.warmup,
            self.requests,
            self.load_start,
            self.load_end,
        )
    }

    /// Offered *cluster* load of request `i` relative to the baseline
    /// fleet of `servers`: the linear ramp without autoscaling, the
    /// diurnal half-sine (rising to [`Autoscale::peak_load`] and back to
    /// `load_start`) with it. This drives arrival pacing; per-live-server
    /// load is this times `servers / live_servers`.
    pub(crate) fn offered_cluster(&self, i: usize) -> f64 {
        match &self.autoscale {
            None => self.offered(i),
            Some(a) => {
                if i < self.warmup || self.requests <= 1 {
                    self.load_start
                } else {
                    let frac = (i - self.warmup) as f64 / (self.requests - 1) as f64;
                    self.load_start
                        + (a.peak_load - self.load_start) * (std::f64::consts::PI * frac).sin()
                }
            }
        }
    }
}

/// The load ramp both runtimes pace arrivals by: request `i` of `warmup`
/// warm-up plus `requests` measured requests offers `load_start` through
/// the warm-up, then rises linearly to `load_end` on the last request.
pub(crate) fn ramp_load(
    i: usize,
    warmup: usize,
    requests: usize,
    load_start: f64,
    load_end: f64,
) -> f64 {
    if i < warmup || requests <= 1 {
        load_start
    } else {
        let frac = (i - warmup) as f64 / (requests - 1) as f64;
        load_start + (load_end - load_start) * frac
    }
}

/// How a popularity sample maps to a shard id — the single definition
/// shared by the simulation's dispatch path and [`stored_load_shares`]'s
/// accounting: floored, clamped into `[0, shards)`.
pub(crate) fn shard_of(sample: f64, shards: usize) -> usize {
    (sample.floor().max(0.0) as usize).min(shards - 1)
}

/// Zipf(`exponent`) popularity over `shards` shards: shard `i` carries
/// weight `(i+1)^-exponent`. `exponent = 0` is uniform; ~0.9–1.1 matches
/// measured key-value traffic skews.
///
/// # Panics
/// Panics on zero shards or a negative exponent.
pub fn zipf_popularity(shards: usize, exponent: f64) -> Arc<DiscreteEmpirical> {
    assert!(shards >= 1, "popularity over zero shards");
    assert!(exponent >= 0.0, "negative Zipf exponent {exponent}");
    let pairs: Vec<(f64, f64)> = (0..shards)
        .map(|i| (i as f64, ((i + 1) as f64).powf(-exponent)))
        .collect();
    Arc::new(DiscreteEmpirical::new(&pairs))
}

/// A Weibull service law with the given `shape` rescaled to `mean` —
/// shape < 1 is heavy-tailed (SCV > 1), shape > 1 light (SCV < 1).
pub fn weibull_with_mean(shape: f64, mean: f64) -> Weibull {
    assert!(mean > 0.0);
    // Weibull's mean is proportional to its scale.
    Weibull::new(shape, mean / Weibull::new(shape, 1.0).mean())
}

/// A BoundedPareto(α) service law spanning `spread` orders of support
/// (`hi = spread·lo`), rescaled to `mean`. α close to 1 with a wide spread
/// gives the large-SCV heavy tails of Figure 2(b).
pub fn bounded_pareto_with_mean(alpha: f64, spread: f64, mean: f64) -> BoundedPareto {
    assert!(mean > 0.0 && spread > 1.0);
    // Moments scale linearly with (lo, hi), so fit at lo = 1 and rescale.
    let unit = BoundedPareto::new(alpha, 1.0, spread);
    let s = mean / unit.mean();
    BoundedPareto::new(alpha, s, spread * s)
}

/// Expected fraction of dispatched copies each server receives under
/// k = 1 dispatch, given the config's popularity mix: every shard spreads
/// its weight uniformly over its `stored_replicas` ring servers (the
/// front-end load-balances single reads across stored copies). Sums to 1;
/// the max entry over `1/servers` is the hot-server multiplier that
/// drives the skewed-workload contention.
pub fn stored_load_shares(cfg: &ServiceConfig) -> Vec<f64> {
    assert!(
        cfg.servers >= 1 && cfg.shards >= 1,
        "load shares need at least one server and one shard"
    );
    assert!(
        cfg.stored_replicas >= 1 && cfg.stored_replicas <= cfg.servers,
        "cannot store {} replicas on {} servers",
        cfg.stored_replicas,
        cfg.servers
    );
    let ring = HashRing::new(cfg.servers, cfg.vnodes);
    load_shares_of(cfg, &stored_table(cfg, &ring))
}

/// The flat `[shard][replica]` stored-placement table of `ring` (stride
/// `stored_replicas`): shard `sh`'s replicas in ring-walk order.
pub(crate) fn stored_table(cfg: &ServiceConfig, ring: &HashRing) -> Vec<u16> {
    let k = cfg.stored_replicas;
    let mut tab = vec![0u16; cfg.shards * k];
    for (sh, stored) in tab.chunks_exact_mut(k).enumerate() {
        ring.replicas_into(sh as u64, stored);
    }
    tab
}

/// [`stored_load_shares`] over an already built [`stored_table`].
pub(crate) fn load_shares_of(cfg: &ServiceConfig, stored_tab: &[u16]) -> Vec<f64> {
    // Per-shard weights, attributed exactly as dispatch maps popularity
    // samples to shards: by *value* (floored and clamped), never by the
    // distribution's construction order.
    let mut weights = vec![1.0 / cfg.shards as f64; cfg.shards];
    if let Some(d) = &cfg.popularity {
        weights.fill(0.0);
        for (&v, &p) in d.values().iter().zip(d.probs()) {
            weights[shard_of(v, cfg.shards)] += p;
        }
    }
    let mut shares = vec![0.0f64; cfg.servers];
    let stored_sets = stored_tab.chunks_exact(cfg.stored_replicas);
    for (&w, stored) in weights.iter().zip(stored_sets) {
        for &s in stored {
            shares[s as usize] += w / stored.len() as f64;
        }
    }
    shares
}

/// One bucket of the load ramp. In a result pooled over replications
/// ([`crate::experiments::run_service_ramp`]) the counts are sums over the
/// replications and the latencies and utilization are means over them.
#[derive(Clone, Copy, Debug)]
pub struct RampBucket {
    /// Bucket-center offered baseline load.
    pub load: f64,
    /// Measured requests issued in this bucket.
    pub requests: usize,
    /// Of those, how many actually had a second copy dispatched (for
    /// hedged policies this counts fired hedges, not the arrival-time
    /// intent).
    pub k2_requests: usize,
    /// Mean response time, seconds (NaN when empty). Pooled: the
    /// request-weighted mean of the replications' means.
    pub mean_response: f64,
    /// 99th-percentile response time, seconds (NaN when empty). Pooled:
    /// the mean of the replications' p99s.
    pub p99: f64,
    /// Largest per-server busy fraction over this bucket's time slice
    /// (max over servers of busy/elapsed between the first copies of this
    /// and the next bucket reaching the servers, i.e. the bucket's first
    /// arrival shifted by one propagation delay; NaN for a zero-width
    /// slice). FIFO busy is accrued as a lump at service start, so a
    /// saturated stretch can legitimately read slightly above 1. Pooled:
    /// the mean over the replications that measured one.
    pub peak_utilization: f64,
    /// Of this bucket's measured requests, how many were **hot-pair**
    /// requests — their shard's stored replicas include the config's hot
    /// server: the first server with the largest [`stored_load_shares`]
    /// entry.
    pub hot_requests: usize,
    /// Of the hot-pair requests, how many actually dispatched 2 copies.
    pub hot_k2_requests: usize,
}

impl RampBucket {
    /// Fraction of the bucket's requests issued with 2 copies (NaN when
    /// empty).
    pub fn frac_k2(&self) -> f64 {
        if self.requests == 0 {
            f64::NAN
        } else {
            self.k2_requests as f64 / self.requests as f64
        }
    }

    /// k = 2 fraction of the bucket's hot-pair requests (NaN when none).
    pub fn frac_k2_hot(&self) -> f64 {
        if self.hot_requests == 0 {
            f64::NAN
        } else {
            self.hot_k2_requests as f64 / self.hot_requests as f64
        }
    }

    /// k = 2 fraction of the bucket's cold-pair requests — those whose
    /// stored replica set avoids the hot server (NaN when none).
    pub fn frac_k2_cold(&self) -> f64 {
        let cold = self.requests - self.hot_requests;
        if cold == 0 {
            f64::NAN
        } else {
            (self.k2_requests - self.hot_k2_requests) as f64 / cold as f64
        }
    }
}

/// Everything one service run measures, or a replicated ramp pools
/// ([`crate::experiments::run_service_ramp`]): there counts are summed
/// over the replications and the other measurements averaged over the
/// replications that report one. Latency is reported per ramp bucket
/// only: each measured request's response time (first copy wins) lands
/// in the bucket of its offered load.
#[derive(Debug)]
pub struct ServiceResult {
    /// Decision and latency curves over the offered-load ramp.
    pub buckets: Vec<RampBucket>,
    /// Load at which the k = 2 fraction crosses ½ (NaN if it never does).
    pub switch_off: f64,
    /// The offline §2.1 threshold the planner computed for this workload
    /// from the *config* moments (the clairvoyant reference).
    pub planner_threshold: f64,
    /// The threshold in force when the run ended: equals
    /// `planner_threshold` in clairvoyant mode, the last recalibrated
    /// value in estimated mode, NaN for fixed policies.
    pub live_threshold: f64,
    /// Final online estimate of the mean service time: lane 0's trusted
    /// moment window (NaN unless estimated mode ran warm).
    pub est_mean_service: f64,
    /// Final online estimate of the service SCV: lane 0's trusted moment
    /// window (NaN unless estimated mode ran warm).
    pub est_scv: f64,
    /// Threshold recalibrations performed (0 outside estimated mode).
    pub recalibrations: u64,
    /// Copies dispatched to servers (includes warm-up).
    pub copies_issued: u64,
    /// Copies purged by cancellation before completing service.
    pub copies_cancelled: u64,
    /// Mean per-server busy fraction over the whole run.
    pub mean_utilization: f64,
    /// Measured requests completed (must equal `requests`; pooled, the
    /// sum over replications).
    pub completed: usize,
}

impl ServiceResult {
    /// Load at which the **hot-pair** k = 2 fraction crosses ½ (NaN if it
    /// never does, e.g. under fixed policies).
    pub fn switch_off_hot(&self) -> f64 {
        bucket_switch_off(&self.buckets, RampBucket::frac_k2_hot)
    }

    /// Load at which the **cold-pair** k = 2 fraction crosses ½. Under a
    /// per-server planner on a skewed mix this sits strictly above
    /// [`switch_off_hot`](Self::switch_off_hot): cold keys keep
    /// replicating longer.
    pub fn switch_off_cold(&self) -> f64 {
        bucket_switch_off(&self.buckets, RampBucket::frac_k2_cold)
    }

    /// Copies cancelled per copy issued (0 with cancellation off).
    pub fn cancel_fraction(&self) -> f64 {
        self.copies_cancelled as f64 / self.copies_issued.max(1) as f64
    }

    /// Hottest-server peak busy fraction over the whole ramp: the max over
    /// buckets of [`RampBucket::peak_utilization`] (NaN when nothing was
    /// measured).
    pub fn peak_utilization(&self) -> f64 {
        self.buckets
            .iter()
            .map(|b| b.peak_utilization)
            .fold(f64::NAN, f64::max)
    }

    /// Fraction of all measured requests that had a second copy
    /// dispatched — for hedged ramps, the overall fired-hedge fraction.
    pub fn overall_frac_k2(&self) -> f64 {
        let total: usize = self.buckets.iter().map(|b| b.requests).sum();
        if total == 0 {
            return f64::NAN;
        }
        let k2: f64 = self
            .buckets
            .iter()
            .filter(|b| b.requests > 0)
            .map(|b| b.frac_k2() * b.requests as f64)
            .sum();
        k2 / total as f64
    }
}

/// [`switch_off_load`] of the `(load, frac(bucket))` curve over `buckets`.
pub(crate) fn bucket_switch_off(buckets: &[RampBucket], frac: fn(&RampBucket) -> f64) -> f64 {
    let curve: Vec<(f64, f64)> = buckets.iter().map(|b| (b.load, frac(b))).collect();
    switch_off_load(&curve)
}

/// Interpolated load at which a `(load, frac_k2)` curve (ascending loads)
/// last crosses from ≥ ½ to < ½ — the planner's observable switch-off
/// point.
///
/// Degenerate curves report **NaN** rather than an interpolated artifact:
///
/// * an empty curve, or one with fewer than two usable points (a single
///   bucket has no crossing to interpolate);
/// * a curve that never reaches ½ (e.g. a fixed `Single` policy) or never
///   drops below it (a ramp entirely inside the replicate region);
/// * points with a non-finite load or NaN fraction are skipped entirely
///   (empty buckets), so a crossing can legitimately interpolate across a
///   gap.
///
/// A **non-monotone** curve (estimator jitter oscillating around the
/// threshold) reports the *last* downward crossing — the load beyond which
/// the planner never re-enables replication. A plateau sitting exactly at
/// ½ that then drops reports the plateau's last point.
pub fn switch_off_load(points: &[(f64, f64)]) -> f64 {
    let mut crossing = f64::NAN;
    let mut prev: Option<(f64, f64)> = None;
    for &(load, frac) in points {
        if !load.is_finite() || frac.is_nan() {
            continue;
        }
        if let Some((l0, f0)) = prev {
            if f0 >= 0.5 && frac < 0.5 {
                // f0 > frac is guaranteed here, so the interpolation is a
                // true convex combination of [l0, load].
                crossing = l0 + (load - l0) * (f0 - 0.5) / (f0 - frac);
            }
        }
        prev = Some((load, frac));
    }
    crossing
}

/// Configuration validation for [`crate::sharded::run_sharded`]: every
/// inconsistent configuration is rejected here, before any state is built.
pub(crate) fn validate_config(cfg: &ServiceConfig) {
    assert!(cfg.servers > 0 && cfg.shards > 0 && cfg.requests > 0);
    assert!(
        cfg.stored_replicas >= 1 && cfg.stored_replicas <= cfg.servers,
        "cannot store {} replicas on {} servers",
        cfg.stored_replicas,
        cfg.servers
    );
    // Targets live in a fixed per-request array (no hot-path allocation).
    assert!(
        cfg.stored_replicas <= MAX_STORED,
        "sharded port stores at most {MAX_STORED} replicas"
    );
    assert!(
        (0.0..1.0).contains(&cfg.load_start) && (0.0..1.0).contains(&cfg.load_end),
        "loads must be in [0,1)"
    );
    assert!(
        cfg.load_start > 0.0 && cfg.load_end > 0.0,
        "zero load generates no arrivals"
    );
    assert!(
        cfg.propagation > 0.0,
        "sharded engine needs positive propagation (the lookahead window)"
    );
    // Server ids and ramp-bucket tags ride in u16 event fields (the
    // bucket tag reserves u16::MAX for warm-up copies).
    assert!(
        cfg.buckets >= 1 && cfg.buckets < u16::MAX as usize,
        "too many buckets"
    );
    assert!(cfg.servers <= u16::MAX as usize, "too many servers");
    let max_load = cfg.load_start.max(cfg.load_end);
    match &cfg.frontend {
        Frontend::Fixed(policy) => {
            policy.validate().expect("invalid fixed policy");
            assert!(
                policy.max_copies() <= cfg.stored_replicas,
                "policy wants {} copies but only {} are stored",
                policy.max_copies(),
                cfg.stored_replicas
            );
            match *policy {
                // A hedge only duplicates the slow tail, so `k·load` is a
                // wild overestimate of its offered work; the general
                // loads-in-[0, 1) assert above is the only static
                // stability requirement. (A hedge ramp whose fire-rate
                // feedback saturates a server is a legitimate experiment
                // outcome, not a config error.)
                Policy::Hedged { .. } => {}
                _ => assert!(
                    policy.max_copies() as f64 * max_load < 1.0,
                    "fixed policy saturates: k*load = {}",
                    policy.max_copies() as f64 * max_load
                ),
            }
        }
        Frontend::Adaptive { .. } => {
            assert!(
                cfg.stored_replicas >= 2,
                "adaptive mode needs at least 2 stored replicas"
            );
            assert!(
                2.0 * cfg.load_start < 1.0,
                "adaptive ramp starts saturated: 2*load_start = {}",
                2.0 * cfg.load_start
            );
        }
    }
    if let Some(pop) = &cfg.popularity {
        assert!(!pop.values().is_empty(), "popularity distribution is empty");
    }
    assert!(cfg.frontend_lanes >= 1, "need at least one frontend lane");
    if cfg.frontend_lanes > 1 {
        // Lane ids ride in u16 event fields alongside server ids.
        assert!(
            cfg.frontend_lanes <= u16::MAX as usize,
            "too many frontend lanes"
        );
        assert!(
            cfg.shards.is_multiple_of(cfg.frontend_lanes),
            "frontend lanes must divide the shard count evenly \
             ({} shards across {} lanes)",
            cfg.shards,
            cfg.frontend_lanes
        );
        // Each lane draws keys uniformly from its own slice; conditional
        // per-slice sampling of an arbitrary popularity mix is not
        // implemented.
        assert!(
            cfg.popularity.is_none(),
            "skewed popularity requires a single frontend lane"
        );
        assert!(
            cfg.frontend_lanes <= cfg.warmup + cfg.requests,
            "more frontend lanes than requests"
        );
    }
    if let Some(a) = &cfg.autoscale {
        assert!(
            matches!(cfg.frontend, Frontend::Adaptive { .. }),
            "autoscaling needs the adaptive frontend (the controller reads \
             the same utilization estimate the planner does)"
        );
        assert!(
            a.max_servers >= cfg.servers,
            "autoscale ceiling {} below the baseline fleet {}",
            a.max_servers,
            cfg.servers
        );
        assert!(a.max_servers <= u16::MAX as usize, "too many servers");
        assert!(a.step >= 1, "autoscale step must be >= 1");
        assert!(
            a.scale_in > 0.0 && a.scale_in < a.scale_out && a.scale_out < 1.0,
            "autoscale thresholds need 0 < scale_in < scale_out < 1 \
             (got {} / {})",
            a.scale_in,
            a.scale_out
        );
        assert!(
            a.period > 0.0 && a.period.is_finite(),
            "autoscale period must be positive and finite"
        );
        assert!(
            a.migration >= 0.0 && a.migration.is_finite(),
            "migration window must be finite and non-negative"
        );
        assert!(
            a.peak_load >= cfg.load_start && a.peak_load.is_finite(),
            "diurnal peak below the starting load"
        );
        // The peak must be absorbable: at the full fleet it has to sit at
        // or below the scale-out trigger, or the controller would pin the
        // ceiling while per-server load keeps climbing toward saturation.
        assert!(
            a.peak_load * cfg.servers as f64 / a.max_servers as f64 <= a.scale_out,
            "diurnal peak saturates even the full fleet: \
             peak {} x {} / {} servers > scale_out {}",
            a.peak_load,
            cfg.servers,
            a.max_servers,
            a.scale_out
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::Exponential;
    use std::sync::Arc;
    use std::time::Duration;

    /// The service simulation as the replicated ramps run it: one server
    /// group, one worker.
    fn run(config: &ServiceConfig) -> ServiceResult {
        crate::sharded::run_sharded(config, 1, 1).result
    }

    fn exp_service() -> DynDist {
        Arc::new(Exponential::with_mean(1.0e-3))
    }

    fn flat(policy: Policy, load: f64) -> ServiceConfig {
        let mut cfg = ServiceConfig::ramp(exp_service(), load, load);
        cfg.frontend = Frontend::Fixed(policy);
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        cfg.buckets = 1;
        cfg
    }

    #[test]
    fn all_requests_complete_and_copies_counted() {
        let cfg = flat(Policy::Single, 0.3);
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
        assert_eq!(out.copies_issued, (cfg.requests + cfg.warmup) as u64);
        assert!(out.switch_off.is_nan(), "fixed policy never switches");
        let two = run(&flat(Policy::Always { copies: 2 }, 0.2));
        assert_eq!(two.completed, 20_000);
        assert_eq!(two.copies_issued, 2 * 22_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ServiceConfig::ramp(exp_service(), 0.1, 0.5);
        let a = run(&cfg);
        let b = run(&cfg);
        for (x, y) in a.buckets.iter().zip(&b.buckets) {
            assert_eq!(x.mean_response.to_bits(), y.mean_response.to_bits());
            assert_eq!(x.p99.to_bits(), y.p99.to_bits());
        }
        assert_eq!(a.switch_off.to_bits(), b.switch_off.to_bits());
        assert_eq!(a.copies_issued, b.copies_issued);
    }

    #[test]
    fn utilization_tracks_flat_load() {
        let out = run(&flat(Policy::Single, 0.3));
        assert!(
            (out.mean_utilization - 0.3).abs() < 0.05,
            "util {}",
            out.mean_utilization
        );
        // Always-2 doubles the busy time.
        let two = run(&flat(Policy::Always { copies: 2 }, 0.3));
        assert!(
            (two.mean_utilization - 0.6).abs() < 0.07,
            "util {}",
            two.mean_utilization
        );
    }

    #[test]
    fn fifo_flat_mean_matches_mm1() {
        // Single copies over the ring at flat load: each server is M/M/1
        // at rho, so E[R] = E[S]/(1-rho) plus two propagation hops.
        let cfg = flat(Policy::Single, 0.4);
        let out = run(&cfg);
        let expect = 1.0e-3 / (1.0 - 0.4) + 2.0 * cfg.propagation;
        let got = out.buckets[0].mean_response;
        assert!(
            (got - expect).abs() / expect < 0.08,
            "mean {got} vs {expect}"
        );
    }

    #[test]
    fn ps_flat_mean_matches_mm1_ps() {
        // M/M/1-PS has the same mean response as FIFO at equal load.
        let mut cfg = flat(Policy::Single, 0.4);
        cfg.discipline = Discipline::Ps;
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
        let expect = 1.0e-3 / (1.0 - 0.4) + 2.0 * cfg.propagation;
        let got = out.buckets[0].mean_response;
        assert!(
            (got - expect).abs() / expect < 0.10,
            "PS mean {got} vs {expect}"
        );
    }

    #[test]
    fn replication_helps_at_low_load_and_hurts_at_high() {
        let mean = |policy, load| run(&flat(policy, load)).buckets[0].mean_response;
        let single_low = mean(Policy::Single, 0.15);
        let double_low = mean(Policy::Always { copies: 2 }, 0.15);
        assert!(double_low < single_low, "{double_low} vs {single_low}");
        let single_high = mean(Policy::Single, 0.45);
        let double_high = mean(Policy::Always { copies: 2 }, 0.45);
        assert!(double_high > single_high, "{double_high} vs {single_high}");
    }

    #[test]
    fn cancellation_sheds_load() {
        let mut plain = flat(Policy::Always { copies: 2 }, 0.35);
        let mut tied = plain.clone();
        tied.cancellation = true;
        plain.seed = 77;
        tied.seed = 77;
        let p = run(&plain);
        let t = run(&tied);
        assert_eq!(p.copies_cancelled, 0);
        assert!(t.copies_cancelled > 0, "no copies cancelled");
        assert!(
            t.mean_utilization < p.mean_utilization - 0.02,
            "cancellation should shed load: {} vs {}",
            t.mean_utilization,
            p.mean_utilization
        );
        assert!(
            t.buckets[0].mean_response < p.buckets[0].mean_response,
            "cancellation should help latency"
        );
    }

    #[test]
    fn hedged_policy_pays_only_in_the_tail() {
        let mut cfg = flat(
            Policy::Hedged {
                copies: 2,
                after: Duration::from_micros(5_000), // 5x the mean service
            },
            0.2,
        );
        cfg.cancellation = true;
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
        let total = (cfg.requests + cfg.warmup) as u64;
        assert!(out.copies_issued > total, "some hedges must fire");
        assert!(
            out.copies_issued < (total as f64 * 1.15) as u64,
            "hedge fired too often: {} of {total}",
            out.copies_issued
        );
        // k2 counts *fired* hedges, not arrival-time intent.
        let frac = out.buckets[0].frac_k2();
        assert!(
            frac > 0.0 && frac < 0.15,
            "hedged frac_k2 should be the fired fraction: {frac}"
        );
    }

    #[test]
    fn adaptive_switch_off_lands_on_the_offline_threshold() {
        // The acceptance shape: one ramp, exponential workload, the k=2
        // fraction must cross 1/2 within +-0.05 of the planner's offline
        // threshold (~1/3 for exponential service, zero overhead).
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.05, 0.6);
        cfg.requests = 60_000;
        cfg.warmup = 6_000;
        if let Frontend::Adaptive { window, .. } = &mut cfg.frontend {
            *window = 1024;
        }
        let out = run(&cfg);
        assert!(
            (out.planner_threshold - 1.0 / 3.0).abs() < 0.01,
            "offline threshold {}",
            out.planner_threshold
        );
        assert!(
            (out.switch_off - out.planner_threshold).abs() < 0.05,
            "switch-off {} vs threshold {}",
            out.switch_off,
            out.planner_threshold
        );
        // Low-load buckets duplicate, high-load buckets do not.
        let first = out.buckets.first().unwrap();
        let last = out.buckets.last().unwrap();
        assert!(first.frac_k2() > 0.9, "start of ramp: {:?}", first);
        assert!(last.frac_k2() < 0.1, "end of ramp: {:?}", last);
        assert_eq!(out.completed, cfg.requests);
    }

    #[test]
    fn switch_off_interpolation() {
        let curve = [(0.1, 1.0), (0.2, 1.0), (0.3, 0.75), (0.4, 0.25), (0.5, 0.0)];
        let x = switch_off_load(&curve);
        assert!((x - 0.35).abs() < 1e-12, "{x}");
        assert!(switch_off_load(&[(0.1, 1.0), (0.2, 0.9)]).is_nan());
        assert!(switch_off_load(&[]).is_nan());
        // NaN buckets are skipped, not treated as crossings.
        let gappy = [(0.1, 1.0), (0.2, f64::NAN), (0.3, 0.0)];
        let x = switch_off_load(&gappy);
        assert!((x - 0.2).abs() < 1e-9, "{x}");
    }

    #[test]
    fn switch_off_degenerate_curves_report_nan() {
        // Single bucket: nothing to interpolate, whichever side of ½.
        assert!(switch_off_load(&[(0.3, 1.0)]).is_nan());
        assert!(switch_off_load(&[(0.3, 0.0)]).is_nan());
        // Entirely above ½ (ramp inside the replicate region) or entirely
        // below it (fixed Single): no crossing.
        assert!(switch_off_load(&[(0.1, 0.9), (0.2, 0.8), (0.3, 0.6)]).is_nan());
        assert!(switch_off_load(&[(0.1, 0.4), (0.2, 0.3), (0.3, 0.1)]).is_nan());
        // All-NaN fractions (no measured bucket) and NaN loads.
        assert!(switch_off_load(&[(0.1, f64::NAN), (0.2, f64::NAN)]).is_nan());
        assert!(switch_off_load(&[(f64::NAN, 1.0), (f64::NAN, 0.0)]).is_nan());
        // A NaN load is skipped like an empty bucket: the crossing
        // interpolates between its finite neighbours.
        let x = switch_off_load(&[(0.1, 1.0), (f64::NAN, 0.7), (0.3, 0.0)]);
        assert!((x - 0.2).abs() < 1e-9, "{x}");
        // Upward-only crossing (starts low, ends high): never switches
        // *off*, so NaN — not a garbage backward interpolation.
        assert!(switch_off_load(&[(0.1, 0.2), (0.2, 0.6), (0.3, 0.9)]).is_nan());
    }

    #[test]
    fn switch_off_non_monotone_takes_last_crossing() {
        // Estimator jitter around the threshold: down, back up, down for
        // good. The reported point is the *last* downward crossing.
        let curve = [
            (0.1, 1.0),
            (0.2, 0.4), // first crossing at 0.1833...
            (0.3, 0.8), // jitters back above
            (0.4, 0.0), // final crossing: 0.3 + 0.1*(0.3/0.8) = 0.3375
        ];
        let x = switch_off_load(&curve);
        assert!((x - 0.3375).abs() < 1e-12, "{x}");
        // Plateau exactly at ½, then a drop: crossing pinned to the
        // plateau's last point, not interpolated into the drop.
        let plateau = [(0.1, 0.5), (0.2, 0.5), (0.3, 0.1)];
        let x = switch_off_load(&plateau);
        assert!((x - 0.2).abs() < 1e-12, "{x}");
    }

    #[test]
    #[should_panic(expected = "saturates")]
    fn saturating_fixed_policy_panics() {
        let _ = run(&flat(Policy::Always { copies: 2 }, 0.55));
    }

    fn estimated_ramp(lo: f64, hi: f64) -> ServiceConfig {
        let mut cfg = ServiceConfig::ramp(exp_service(), lo, hi);
        cfg.requests = 60_000;
        cfg.warmup = 6_000;
        cfg.frontend = Frontend::Adaptive {
            window: 1024,
            moments: MomentSource::estimated(),
            load_model: LoadModel::Global,
        };
        cfg
    }

    #[test]
    fn estimated_mode_learns_the_exponential_moments_and_threshold() {
        let out = run(&estimated_ramp(0.05, 0.6));
        assert_eq!(out.completed, 60_000);
        assert!(out.recalibrations > 0, "never recalibrated");
        // The live estimates converge on the config truth...
        assert!(
            (out.est_mean_service - 1.0e-3).abs() / 1.0e-3 < 0.1,
            "est mean {}",
            out.est_mean_service
        );
        assert!((out.est_scv - 1.0).abs() < 0.25, "est scv {}", out.est_scv);
        // ...so the recalibrated threshold lands on the offline one, and
        // the observable switch-off follows it.
        assert!(
            (out.live_threshold - out.planner_threshold).abs() < 0.01,
            "live {} vs offline {}",
            out.live_threshold,
            out.planner_threshold
        );
        assert!(
            (out.switch_off - out.planner_threshold).abs() < 0.08,
            "switch-off {} vs threshold {}",
            out.switch_off,
            out.planner_threshold
        );
    }

    #[test]
    fn estimated_mode_tracks_the_service_law_it_actually_sees() {
        // Swap the workload to deterministic service: the estimator must
        // measure scv ~ 0 and recalibrate onto the deterministic
        // threshold (~0.293), not stay anywhere near the exponential 1/3.
        let mut cfg = estimated_ramp(0.05, 0.55);
        cfg.service = Arc::new(simcore::dist::Deterministic::new(1.0e-3));
        let out = run(&cfg);
        assert!(out.est_scv < 0.05, "est scv {}", out.est_scv);
        assert!(
            (out.live_threshold - 0.2929).abs() < 0.01,
            "live threshold {}",
            out.live_threshold
        );
    }

    #[test]
    fn clairvoyant_mode_reports_nan_estimates() {
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.1, 0.5);
        cfg.requests = 10_000;
        cfg.warmup = 1_000;
        let out = run(&cfg);
        assert!(out.est_mean_service.is_nan() && out.est_scv.is_nan());
        assert_eq!(out.recalibrations, 0);
        assert_eq!(
            out.live_threshold.to_bits(),
            out.planner_threshold.to_bits()
        );
        let fixed = run(&flat(Policy::Single, 0.3));
        assert!(fixed.live_threshold.is_nan());
    }

    #[test]
    fn zipf_popularity_concentrates_load_on_hot_servers() {
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        cfg.frontend = Frontend::Fixed(Policy::Single);
        cfg.requests = 30_000;
        cfg.warmup = 3_000;
        cfg.buckets = 1;
        let uniform_shares = stored_load_shares(&cfg);
        assert!((uniform_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let fair = 1.0 / cfg.servers as f64;
        let u_max = uniform_shares.iter().cloned().fold(0.0, f64::max);
        cfg.popularity = Some(zipf_popularity(cfg.shards, 1.0));
        let skew_shares = stored_load_shares(&cfg);
        assert!((skew_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let s_max = skew_shares.iter().cloned().fold(0.0, f64::max);
        assert!(
            s_max > u_max + 0.02 && s_max > 1.3 * fair,
            "zipf hot share {s_max} vs uniform max {u_max}"
        );
        // The hot server's queueing shows up as a worse tail than the
        // uniform mix at the same offered load.
        let skew_out = run(&cfg);
        cfg.popularity = None;
        let unif_out = run(&cfg);
        assert_eq!(skew_out.completed, cfg.requests);
        let (s_p99, u_p99) = (skew_out.buckets[0].p99, unif_out.buckets[0].p99);
        assert!(s_p99 > u_p99, "skew p99 {s_p99} vs uniform p99 {u_p99}");
    }

    #[test]
    fn hedged_policy_rides_the_ramp() {
        // The hedged fixed policy is now legal on a ramp whose top the
        // Always-2 assertion would reject (2 × 0.6 > 1): hedges only
        // duplicate the tail.
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.1, 0.6);
        cfg.frontend = Frontend::Fixed(Policy::Hedged {
            copies: 2,
            after: Duration::from_micros(8_000),
        });
        cfg.cancellation = true;
        cfg.requests = 30_000;
        cfg.warmup = 3_000;
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
        let total = (cfg.requests + cfg.warmup) as u64;
        assert!(out.copies_issued > total, "no hedge ever fired");
        // Fired-hedge fraction climbs with load: the last bucket's tail is
        // deeper than the first's.
        let first = out.buckets.first().unwrap().frac_k2();
        let last = out.buckets.last().unwrap().frac_k2();
        assert!(last > first, "hedge firing should climb: {first} vs {last}");
        assert!(out.switch_off.is_nan(), "a hedge ramp never 'switches off'");
    }

    #[test]
    fn dispatch_reporting_unbiases_ps_cancellation_estimates() {
        // Under PS, cancellation purges the in-flight *loser* — the
        // larger-demand copy — so completion reports would sample
        // min(demands). PS with cancellation reports at dispatch instead:
        // every issued copy's demand is observed before cancellation can
        // censor it, so the estimator must land on the true moments
        // (mean 1 ms, scv 1).
        let mut cfg = estimated_ramp(0.05, 0.55);
        cfg.discipline = Discipline::Ps;
        cfg.cancellation = true;
        let out = run(&cfg);
        assert_eq!(out.completed, cfg.requests);
        assert!(out.copies_cancelled > 0, "cancellation never fired");
        assert!(
            (out.est_mean_service - 1.0e-3).abs() / 1.0e-3 < 0.1,
            "dispatch-reported mean is biased: {}",
            out.est_mean_service
        );
        assert!(
            (out.est_scv - 1.0).abs() < 0.25,
            "dispatch-reported scv is biased: {}",
            out.est_scv
        );
        assert!(
            (out.switch_off - out.planner_threshold).abs() < 0.08,
            "switch-off {} vs threshold {}",
            out.switch_off,
            out.planner_threshold
        );
        // A completion-reported FIFO control (no cancellation) measures
        // the same law — the dispatch channel is a superset observer, not
        // a different quantity.
        let fifo = run(&estimated_ramp(0.05, 0.55));
        assert!(
            (out.est_mean_service - fifo.est_mean_service).abs() / fifo.est_mean_service < 0.1,
            "dispatch {} vs completion {}",
            out.est_mean_service,
            fifo.est_mean_service
        );
    }

    fn per_server_ramp(lo: f64, hi: f64) -> ServiceConfig {
        let mut cfg = ServiceConfig::ramp(exp_service(), lo, hi);
        cfg.requests = 60_000;
        cfg.warmup = 6_000;
        cfg.frontend = Frontend::Adaptive {
            window: 512,
            moments: MomentSource::Clairvoyant,
            load_model: LoadModel::PerServer,
        };
        cfg
    }

    #[test]
    fn per_server_uniform_keys_flip_near_the_global_threshold() {
        // With uniform keys every server's estimated share sits near the
        // fair 1/8, so per-server planning must reproduce the global
        // behavior: a switch-off in the global band (the residual spread
        // is the ring's stored-pair imbalance).
        let out = run(&per_server_ramp(0.05, 0.6));
        assert_eq!(out.completed, 60_000);
        assert!(
            (out.switch_off - out.planner_threshold).abs() < 0.07,
            "per-server uniform switch-off {} vs threshold {}",
            out.switch_off,
            out.planner_threshold
        );
        let first = out.buckets.first().unwrap();
        let last = out.buckets.last().unwrap();
        assert!(first.frac_k2() > 0.9, "start of ramp: {first:?}");
        assert!(last.frac_k2() < 0.1, "end of ramp: {last:?}");
    }

    #[test]
    fn per_server_planner_staggers_switch_off_by_temperature() {
        // Zipf keys: pairs containing the hot server must switch off at a
        // strictly lower offered load than pairs avoiding it — the
        // skew-aware point of the whole mechanism. The global planner, by
        // construction, flips both temperatures together.
        let mut cfg = per_server_ramp(0.05, 0.45);
        cfg.popularity = Some(zipf_popularity(cfg.shards, 0.6));
        let out = run(&cfg);
        let hot_off = out.switch_off_hot();
        let cold_off = out.switch_off_cold();
        assert!(
            hot_off + 0.03 < cold_off,
            "cold pairs must replicate longer: hot {hot_off} vs cold {cold_off}"
        );
        // Against the global planner on the identical workload: the hot
        // server's peak busy fraction over the ramp must drop.
        let mut global = cfg.clone();
        global.frontend = Frontend::Adaptive {
            window: 512,
            moments: MomentSource::Clairvoyant,
            load_model: LoadModel::Global,
        };
        let gout = run(&global);
        assert!(
            out.peak_utilization() < gout.peak_utilization() - 0.05,
            "per-server peak {} vs global peak {}",
            out.peak_utilization(),
            gout.peak_utilization()
        );
    }

    #[test]
    fn per_bucket_peak_utilization_tracks_flat_load() {
        // Flat Single-copy load 0.3 on uniform keys: every bucket's peak
        // (hottest-server) busy fraction must sit above the cluster mean
        // and below saturation, and hot-pair accounting must cover a
        // plausible share of requests without inventing k = 2 traffic.
        let mut cfg = flat(Policy::Single, 0.3);
        cfg.buckets = 4;
        let out = run(&cfg);
        // A flat ramp maps every request into bucket 0; the rest are
        // empty and must report NaN peaks, not artifacts.
        let (head, rest) = out.buckets.split_first().unwrap();
        assert!(head.requests > 0);
        assert!(
            head.peak_utilization > 0.25 && head.peak_utilization < 0.75,
            "peak utilization {head:?}"
        );
        assert!(head.peak_utilization > out.mean_utilization - 0.05);
        assert!(head.hot_requests > 0 && head.hot_requests < head.requests);
        assert_eq!(head.hot_k2_requests, 0, "Single never duplicates");
        assert_eq!(head.frac_k2_hot(), 0.0);
        assert_eq!(head.frac_k2_cold(), 0.0);
        for b in rest {
            assert_eq!(b.requests, 0);
            assert!(b.peak_utilization.is_nan(), "{b:?}");
            assert!(b.frac_k2_hot().is_nan() && b.frac_k2_cold().is_nan());
        }
    }

    #[test]
    fn stored_load_shares_attributes_weight_by_value_not_order() {
        // A popularity whose values are NOT in construction order: the
        // helper must attribute each weight to the shard run() would
        // actually sample, matching an independent by-value computation.
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        cfg.shards = 4;
        cfg.popularity = Some(Arc::new(simcore::dist::DiscreteEmpirical::new(&[
            (3.0, 0.6),
            (0.0, 0.25),
            (2.0, 0.15),
        ])));
        let shares = stored_load_shares(&cfg);
        let ring = crate::hashring::HashRing::new(cfg.servers, cfg.vnodes);
        let mut expect = vec![0.0f64; cfg.servers];
        for (shard, w) in [(3u64, 0.6), (0, 0.25), (2, 0.15)] {
            for s in ring.replicas(shard, cfg.stored_replicas) {
                expect[s] += w / cfg.stored_replicas as f64;
            }
        }
        for (got, want) in shares.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{shares:?} vs {expect:?}");
        }
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stored_load_shares_degenerate_inputs() {
        // Uniform popularity supplied *explicitly* (Zipf exponent 0) must
        // match the implicit `None` default exactly.
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        let implicit = stored_load_shares(&cfg);
        cfg.popularity = Some(zipf_popularity(cfg.shards, 0.0));
        let explicit = stored_load_shares(&cfg);
        for (a, b) in implicit.iter().zip(&explicit) {
            assert!((a - b).abs() < 1e-12, "{implicit:?} vs {explicit:?}");
        }
        assert!((implicit.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        // Single shard: all weight lands on exactly its stored pair,
        // split evenly, and the hottest server is one of the pair.
        let mut one = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        one.shards = 1;
        let shares = stored_load_shares(&one);
        let ring = crate::hashring::HashRing::new(one.servers, one.vnodes);
        let pair = ring.replicas(0, one.stored_replicas);
        for (s, &w) in shares.iter().enumerate() {
            let expect = if pair.contains(&s) { 0.5 } else { 0.0 };
            assert!((w - expect).abs() < 1e-12, "server {s}: {shares:?}");
        }
        let hot = (0..shares.len()).fold(0, |h, s| if shares[s] > shares[h] { s } else { h });
        assert!(pair.contains(&hot));

        // A popularity vector shorter than the shard count: unnamed
        // shards carry zero weight, the named ones keep theirs, and the
        // whole thing still sums to 1.
        let mut short = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        short.shards = 512;
        short.popularity = Some(Arc::new(simcore::dist::DiscreteEmpirical::new(&[
            (0.0, 0.7),
            (1.0, 0.3),
        ])));
        let shares = stored_load_shares(&short);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut expect = vec![0.0f64; short.servers];
        let ring = crate::hashring::HashRing::new(short.servers, short.vnodes);
        for (shard, w) in [(0u64, 0.7), (1, 0.3)] {
            for s in ring.replicas(shard, short.stored_replicas) {
                expect[s] += w / short.stored_replicas as f64;
            }
        }
        for (got, want) in shares.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{shares:?} vs {expect:?}");
        }

        // Values beyond the shard range clamp onto the last shard, like
        // the dispatch path's `shard_of`.
        let mut clamp = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        clamp.shards = 4;
        clamp.popularity = Some(Arc::new(simcore::dist::DiscreteEmpirical::new(&[
            (99.0, 0.5),
            (-3.0, 0.5),
        ])));
        let shares = stored_load_shares(&clamp);
        let ring = crate::hashring::HashRing::new(clamp.servers, clamp.vnodes);
        let mut expect = vec![0.0f64; clamp.servers];
        for shard in [3u64, 0] {
            for s in ring.replicas(shard, clamp.stored_replicas) {
                expect[s] += 0.5 / clamp.stored_replicas as f64;
            }
        }
        for (got, want) in shares.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12, "{shares:?} vs {expect:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn stored_load_shares_rejects_zero_shards() {
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        cfg.shards = 0;
        let _ = stored_load_shares(&cfg);
    }

    #[test]
    #[should_panic(expected = "cannot store")]
    fn stored_load_shares_rejects_overwide_replication() {
        let mut cfg = ServiceConfig::ramp(exp_service(), 0.2, 0.2);
        cfg.servers = 2;
        cfg.stored_replicas = 3;
        let _ = stored_load_shares(&cfg);
    }

    #[test]
    fn moment_helper_distributions_hit_their_means() {
        let w = weibull_with_mean(2.0, 1.0e-3);
        assert!((w.mean() - 1.0e-3).abs() < 1e-12);
        assert!(w.scv() < 1.0, "shape-2 Weibull is light-tailed");
        let bp = bounded_pareto_with_mean(1.4, 1000.0, 1.0e-3);
        assert!((bp.mean() - 1.0e-3).abs() / 1.0e-3 < 1e-9);
        assert!(bp.scv() > 5.0, "wide Pareto should be heavy: {}", bp.scv());
    }
}
