//! The [`service`](crate::service) simulation on the sharded parallel
//! engine ([`simcore::shard`]) — one engine shard per frontend lane and
//! one per server group, so a single long ramp can use several cores on
//! both sides of the client↔server boundary. This is the only
//! implementation of the service model: the replicated ramps run it with
//! one lane, one server group and one worker, the scale experiments with
//! many.
//!
//! The partition follows the physical message flow: `Arrive` and
//! `HedgeFire` are frontend-local, `Depart` is server-local, and exactly
//! the events that cross the client↔server boundary in the model — copy
//! dispatches, responses, and cancellations — become cross-shard messages
//! carrying the existing one-way
//! [`propagation`](ServiceConfig::propagation) delay, which is therefore
//! the engine's lookahead window.
//!
//! ## Frontend lanes
//!
//! The frontend itself is decomposed into
//! [`frontend_lanes`](ServiceConfig::frontend_lanes) **lanes**:
//! lane ℓ owns the requests with `req % lanes == ℓ`, a contiguous
//! `1/lanes` slice of the key shards, its own forked RNG substreams
//! (streams `3ℓ+1..=3ℓ+3`, so one lane draws exactly the streams the
//! pre-lane frontend drew), and its own [`LivePlanner`] — the decision
//! loop the wall-clock runtime ([`crate::rt`]) runs too. Lanes see only
//! their own arrivals, so they periodically exchange [`LoadSummary`]
//! messages every propagation delay (the lookahead) and fold peer rates
//! into their planner's load estimate — rates are additive, so the
//! combined utilization estimate converges to the whole cluster's without
//! any shared mutable state.
//!
//! The lane count is a **model** parameter: `lanes > 1` runs a different
//! (decomposed) arrival process, and `lanes = 1` is byte-identical to the
//! pre-lane frontend. Each lane is one engine shard — lane ℓ is shard ℓ,
//! server group g is shard `lanes + g` — so the engine's own
//! `(time, shard, seq)` merge key is the lane's (or group's) logical key
//! and every pop order and RNG draw is a function of the simulation
//! alone. Output is **bit-identical at any worker count**; what the lane
//! count costs in summaries, events and wall-clock is what the
//! `fig-service-frontier` lane sweep and the engine bench measure.
//!
//! A lane holds a request's slot only while the request is in flight:
//! its slots form a window from its oldest unanswered request to its
//! newest arrival, and answered requests retire from the front, so lane
//! memory follows the load, not the run length
//! ([`ShardedOutcome::peak_window`] reports the largest window). A
//! response or hedge timer for a request below the front is a late
//! duplicate and is dropped, as one for an answered request in the window
//! is. The exact latency samples (8 B per measured request, in its ramp
//! bucket) are the only per-request record kept for the whole run; at the
//! end each bucket's samples from every lane merge into one set, which
//! yields the bucket's mean and p99.
//!
//! Every shard is deterministic in isolation because all randomness lives
//! on the frontend lanes and servers hold no shared state:
//!
//! * a copy's service demand is sampled from the lane's `svc_rng` at
//!   **dispatch** and carried in the `CopyArrive` message — the per-copy
//!   service law, drawn in lane dispatch order;
//! * cancellations are addressed **per request** (`Cancel { req, server }`
//!   purges that request's copies at that server), one propagation delay
//!   after the first response reaches the client.
//!
//! Per-bucket `peak_utilization` needs per-server busy time sliced at
//! bucket boundaries without coupling the shards: each `CopyArrive`
//! carries its lane's current ramp bucket, and a server group closes its
//! busy slice when a copy tagged with a different bucket arrives — the
//! bucket boundary as the servers observe it, one propagation delay after
//! the lane crossed it. After the engine drains, the open slices close at
//! the engine's end time and fold into the buckets. Run-level
//! `mean_utilization` is folded from per-server busy totals.
//!
//! ## Elastic scaling
//!
//! With [`ServiceConfig::autoscale`] set, the fleet resizes mid-run: an
//! autoscale controller on lane 0 wakes on a periodic `ScaleTick`,
//! compares the cluster-wide utilization estimate (read from the lane's
//! own planner, peer summaries included) against the
//! hysteresis band, and broadcasts `Topology` events that every lane —
//! itself included — applies **at the same simulated instant**, one
//! propagation delay after the decision. Each lane keeps its own
//! [`HashRing`] clone and applies identical deterministic `add_server` /
//! `remove_server` sequences, so the rings never diverge; requests
//! landing on a shard whose owners moved are dual-dispatched to the old
//! *and* new owners for the configured migration window; and the
//! per-server planner's estimators grow/reset per churned index. Every
//! one of these events lives on a lane's own shard, so elastic runs keep
//! the workspace invariant: bit-identical output at any thread count.
//! Server slots for the full [`crate::service::Autoscale::max_servers`]
//! fleet are allocated up front (dormant servers idle in their groups);
//! `mean_utilization` divides by the
//! *provisioned* server-time integral `∫ live(t) dt`, and the ramp
//! buckets bin by **instantaneous per-live-server load**, which is the ρ
//! axis the planner's switch-off must track through every resize.

use crate::hashring::HashRing;
use crate::service::{
    bucket_switch_off, load_shares_of, shard_of, stored_table, validate_config, Discipline,
    Frontend, LoadModel, MomentSource, RampBucket, ServiceConfig, ServiceResult,
};
use redundancy::estimator::LoadSummary;
use redundancy::planner::{LivePlanner, Planner};
use redundancy::policy::Policy;
use simcore::dist::Distribution;
use simcore::rng::Rng;
use simcore::shard::{EngineStats, ShardCtx, ShardEngine, ShardLogic};
use simcore::stats::SampleSet;
use simcore::time::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;

/// Stored-replica ceiling of the sharded port: targets live in a fixed
/// array on the per-request slot (no per-request allocation on the hot
/// path). The paper's placements use 2–3.
pub const MAX_STORED: usize = 4;

/// The ramp-bucket tag of copies dispatched before the measured window
/// (warm-up): they never open or close a busy slice.
const NO_BUCKET: u16 = u16::MAX;

#[derive(Clone, Debug)]
enum SEv {
    /// A request enters its owning frontend lane (lane shard).
    Arrive { req: u32 },
    /// A hedged request's delay elapsed (lane shard).
    HedgeFire { req: u32 },
    /// A dispatched copy reaches its server, demand pre-sampled on the
    /// lane (cross-shard, one propagation delay). `bucket` is the lane's
    /// current ramp bucket ([`NO_BUCKET`] during warm-up), which slices
    /// the group's per-bucket busy accounting.
    CopyArrive {
        req: u32,
        server: u16,
        demand: f64,
        bucket: u16,
    },
    /// `server`'s departure scheduled under `epoch` fires; a stale epoch
    /// (a PS job set reshaped since) is ignored (server shard).
    Depart { server: u16, epoch: u32 },
    /// A completion travels back to the client; `demand` is re-surfaced
    /// for completion-mode moment reporting (cross-shard).
    Response { req: u32, server: u16, demand: f64 },
    /// The front-end cancels `req`'s copy at `server` (cross-shard).
    Cancel { req: u32, server: u16 },
    /// A lane's periodic load-summary broadcast timer (lane-local).
    SummaryTick,
    /// Lane `from`'s load summary reaching a peer lane, one lookahead
    /// after it was snapshotted.
    Summary { from: u16, rates: LoadSummary },
    /// The autoscale controller's periodic evaluation timer (lane 0,
    /// elastic mode only).
    ScaleTick,
    /// The fleet resizes to `servers` live servers: broadcast by the
    /// lane-0 controller to every lane (itself included) with one
    /// propagation delay, so all rings mutate at the same simulated
    /// instant. `generation` counts decisions, for sanity checking.
    Topology { generation: u32, servers: u16 },
}

/// One autoscaler decision that changed the fleet size.
#[derive(Clone, Copy, Debug)]
pub struct ScaleEvent {
    /// Simulated time of the decision (the fleet changes one propagation
    /// delay later).
    pub at: f64,
    /// Live servers after the change.
    pub servers: usize,
    /// The estimated per-live-server utilization that triggered it.
    pub rho: f64,
}

/// Per-request bookkeeping on the owning lane, held from the request's
/// arrival until it and every older request of the lane are answered.
struct ReqSlot {
    arrival: f64,
    offered: f64,
    targets: [u16; MAX_STORED],
    tlen: u8,
    /// Copies the policy or planner chose; `tlen` exceeds it only by
    /// dual-dispatched migration copies.
    k: u8,
    sent: u8,
    hot: bool,
    done: bool,
}

/// One ramp bucket's measurements on one lane; the lanes' tallies merge
/// into the bucket's [`RampBucket`] after the run.
#[derive(Default)]
struct BucketTally {
    /// Exact latency samples of the measured requests answered.
    samples: SampleSet,
    /// Measured requests that arrived in the bucket.
    requests: usize,
    /// Of those, requests that dispatched a second chosen copy.
    k2: usize,
    /// Requests whose shard the hot server stores.
    hot: usize,
    /// Hot requests that dispatched a second chosen copy.
    hot_k2: usize,
}

impl BucketTally {
    /// An empty tally with room for `samples` latencies.
    fn with_room(samples: usize) -> Self {
        BucketTally {
            samples: SampleSet::with_capacity(samples),
            ..BucketTally::default()
        }
    }

    /// Folds `other` in after this tally's own record; merging into an
    /// empty tally moves `other`'s samples instead of copying them.
    fn merge(&mut self, other: BucketTally) {
        self.samples.merge(other.samples);
        self.requests += other.requests;
        self.k2 += other.k2;
        self.hot += other.hot;
        self.hot_k2 += other.hot_k2;
    }
}

/// The ramp bucket of offered load `offered`: `cfg.buckets` equal slices
/// of `[load_start, load_end]`, every load in bucket 0 on a flat ramp.
fn ramp_bucket(cfg: &ServiceConfig, offered: f64) -> usize {
    let span = cfg.load_end - cfg.load_start;
    if span.abs() < f64::EPSILON {
        0
    } else {
        (((offered - cfg.load_start) / span) * cfg.buckets as f64)
            .floor()
            .clamp(0.0, (cfg.buckets - 1) as f64) as usize
    }
}

/// Latency samples one of `lanes` lanes reserves for bucket `b`.
///
/// A static ramp's offered load is linear in the request index, so a
/// bucket holds a run of at most `ceil(requests / buckets)` consecutive
/// measured requests, give or take one at each edge where the floor
/// rounds (a flat ramp holds them all in bucket 0), and a lane owns every
/// `lanes`-th request of that run. With that room reserved, a bucket's
/// samples never grow on an engine worker, where the allocator's reuse of
/// freed blocks makes a run's peak memory depend on thread timing.
/// Elastic buckets bin by live load, which no index predicts, so they
/// reserve nothing and grow as samples come.
fn bucket_room(cfg: &ServiceConfig, lanes: usize, b: usize) -> usize {
    if cfg.autoscale.is_some() {
        0
    } else if (cfg.load_end - cfg.load_start).abs() < f64::EPSILON {
        if b == 0 {
            cfg.requests.div_ceil(lanes)
        } else {
            0
        }
    } else {
        (cfg.requests.div_ceil(cfg.buckets) + 2).div_ceil(lanes)
    }
}

/// Immutable tables shared by every lane.
struct Statics {
    cfg: ServiceConfig,
    mean_service: f64,
    total: usize,
    lanes: usize,
    /// Server id → engine shard id (`lanes + its group`).
    group_shard_of: Vec<u16>,
    /// Flat `[shard][replica]` stored-placement table (stride
    /// `stored_replicas`), precomputed from the ring.
    stored_tab: Vec<u16>,
    hot_shard: Vec<bool>,
    /// `cfg.autoscale.is_some()` — checked on every hot path, so cached.
    elastic: bool,
    /// [`LoadModel::PerServer`]: the planner keeps one index per server.
    per_server: bool,
    /// Copies report their demand at dispatch, not at completion: exactly
    /// under PS with cancellation, which kills the in-flight loser (the
    /// larger demand) and so would censor completion reports. FIFO
    /// cancellation purges only queued copies, a drop that does not
    /// depend on their demand.
    report_at_dispatch: bool,
    /// Resolved controller period: `max(autoscale.period, lookahead)`
    /// (topology broadcasts ride cross-shard wires). 0 when static.
    scale_period: f64,
}

/// One frontend lane, hosted alone on engine shard `id`: a slice of the
/// arrival process, the redundancy stack for its requests, and every
/// measurement keyed off its request identities.
struct Lane {
    id: u32,
    st: Arc<Statics>,
    /// First key shard of this lane's slice.
    slice_lo: usize,
    slice_len: usize,
    /// Requests this lane owns (`req % lanes == id`).
    owned: usize,
    arrival_rng: Rng,
    place_rng: Rng,
    svc_rng: Rng,
    /// The replication decision loop (never consulted by a fixed policy).
    planner: LivePlanner,
    /// The request window: slots of lane-local requests `front..`, from
    /// the oldest unanswered one to the newest arrival (lane-local index
    /// `req / lanes`). Answered requests retire from the front, so the
    /// window grows with the requests in flight, not with the run.
    reqs: VecDeque<ReqSlot>,
    /// Lane-local index of `reqs[0]`; every request below it is answered.
    front: usize,
    /// Most slots the window has held at once.
    peak_window: usize,
    /// What this lane measured in each ramp bucket.
    buckets: Vec<BucketTally>,
    /// Bucket of this lane's latest measured arrival ([`NO_BUCKET`]
    /// until the first); every dispatched copy carries it.
    cur_bucket: u16,
    copies_issued: u64,
    completed: usize,
    /// All responses marked done, warm-up included — drives the summary
    /// tick shutdown so the engine can drain.
    finished: usize,
    summaries_sent: u64,
    // --- elastic topology state (inert when `st.elastic` is false) ---
    /// This lane's live ring; every lane applies the same deterministic
    /// op sequence at the same simulated instants, so the clones never
    /// diverge. `None` in static mode (the precomputed `stored_tab` is
    /// the placement there).
    ring: Option<HashRing>,
    /// The ring as it was before the latest topology change — consulted
    /// for dual-dispatch while the migration window is open.
    ring_prev: Option<HashRing>,
    /// End of the current dual-dispatch window (simulated seconds).
    migration_until: f64,
    /// Live server count (== `cfg.servers` in static mode).
    live: usize,
    /// Last applied topology generation.
    topo_gen: u32,
    // Controller state (meaningful on lane 0 only):
    /// Fleet size of the latest announced (possibly not yet applied)
    /// decision — the size scaling decisions are evaluated against.
    target_live: usize,
    /// Topology generations announced by this lane's controller.
    topo_announced: u32,
    /// Decisions that changed the fleet, in order.
    scale_log: Vec<ScaleEvent>,
    /// `∫ live(t) dt` accumulated at each topology application.
    cap_integral: f64,
    /// Time of the last `cap_integral` accrual.
    cap_last: f64,
    /// Largest fleet the run reached.
    peak_live: usize,
}

impl Lane {
    /// Delivers `ev` to engine shard `dest` one propagation delay ahead —
    /// locally when `dest` is this lane's own shard (the controller's
    /// topology broadcast includes itself).
    fn send(&self, dest: usize, ev: SEv, ctx: &mut ShardCtx<'_, SEv>) {
        let delay = SimTime::from_secs(self.st.cfg.propagation);
        if dest == ctx.shard() {
            ctx.schedule_after(delay, ev);
        } else {
            ctx.send(dest, delay, ev);
        }
    }

    /// This lane's arrival rate at offered load `offered`: its `1/lanes`
    /// share of the cluster rate (slices are equal-mass by the
    /// lanes-divide-shards validation).
    fn lambda_of(&self, offered: f64) -> f64 {
        offered * self.st.cfg.servers as f64 / self.st.mean_service / self.st.lanes as f64
    }

    /// Window position of `req`'s slot, or `None` once it has retired.
    fn slot_of(&self, req: u32) -> Option<usize> {
        ((req as usize) / self.st.lanes).checked_sub(self.front)
    }

    /// Dispatches copies `from..to` of `req`'s target list: demand sampled
    /// here (lane RNG), `CopyArrive` sent to the owning server shard.
    fn dispatch(&mut self, req: u32, from: usize, to: usize, ctx: &mut ShardCtx<'_, SEv>) {
        let slot = self.slot_of(req).expect("dispatch of a retired request");
        for idx in from..to {
            let server = self.reqs[slot].targets[idx];
            let demand = self.st.cfg.service.sample(&mut self.svc_rng);
            if self.st.report_at_dispatch {
                self.planner.observe_demand(demand);
            }
            self.copies_issued += 1;
            let ev = SEv::CopyArrive {
                req,
                server,
                demand,
                bucket: self.cur_bucket,
            };
            self.send(self.st.group_shard_of[server as usize] as usize, ev, ctx);
        }
        // A request counts as duplicated when a second chosen copy is
        // *actually dispatched* — for hedged policies only when the hedge
        // fires. Dual-dispatched migration copies are capacity overhead,
        // not a planner choice, so a k = 1 request never counts.
        if from < 2 && to >= 2 && self.reqs[slot].k >= 2 && (req as usize) >= self.st.cfg.warmup {
            let b = ramp_bucket(&self.st.cfg, self.reqs[slot].offered);
            let tally = &mut self.buckets[b];
            tally.k2 += 1;
            if self.reqs[slot].hot {
                tally.hot_k2 += 1;
            }
        }
        self.reqs[slot].sent = to as u8;
    }

    fn arrive(&mut self, t: f64, req: u32, ctx: &mut ShardCtx<'_, SEv>) {
        let i = req as usize;
        // Static: the configured ramp. Elastic: the diurnal *cluster*
        // curve rescaled by `baseline / live` — the instantaneous
        // per-live-server load, which is both the bucket axis and the ρ
        // the planner's threshold is defined against.
        let offered = if self.st.elastic {
            self.st.cfg.offered_cluster(i) * self.st.cfg.servers as f64 / self.live as f64
        } else {
            self.st.cfg.offered(i)
        };
        let k_stored = self.st.cfg.stored_replicas;

        let shard = match &self.st.cfg.popularity {
            None => self.slice_lo + self.place_rng.index(self.slice_len),
            // Validation rejects popularity with lanes > 1, so this arm
            // only runs on the single full-range lane.
            Some(d) => shard_of(d.sample(&mut self.place_rng), self.st.cfg.shards),
        };
        let hot = self.st.hot_shard[shard];
        // Elastic placement comes from the live ring; static from the
        // precomputed table (identical to a ring lookup, but flat).
        // Copied into a stack buffer so no borrow of `self` outlives the
        // mutable planner access below.
        let mut stored_buf = [0u16; MAX_STORED];
        if let Some(ring) = &self.ring {
            ring.replicas_into(shard as u64, &mut stored_buf[..k_stored]);
        } else {
            stored_buf[..k_stored].copy_from_slice(
                &self.st.stored_tab[shard * k_stored..shard * k_stored + k_stored],
            );
        }

        // Replication decision: the planner's comparison of the live
        // utilization estimate (peer-reported rates folded in) against
        // the live threshold, with every input measured.
        let (copies, hedge_after) = match &self.st.cfg.frontend {
            Frontend::Fixed(policy) => match *policy {
                Policy::Single => (1usize, None),
                Policy::Always { copies } => (copies, None),
                Policy::Hedged { copies, after } => (copies, Some(after.as_secs_f64())),
            },
            Frontend::Adaptive { load_model, .. } => {
                let replicate = match load_model {
                    // Divide by the *live* fleet, not the configured one
                    // — the whole point of elastic mode is that the
                    // threshold tracks current capacity (static: live ==
                    // servers).
                    LoadModel::Global => self.planner.decide(t, &[0], self.live as f64),
                    // Every stored replica hears the request; each reads
                    // its share of the arrivals it was told about.
                    LoadModel::PerServer => {
                        self.planner
                            .decide(t, &stored_buf[..k_stored], k_stored as f64)
                    }
                };
                (if replicate { 2 } else { 1 }, None)
            }
        };

        let k = copies.min(k_stored);
        let stored = &stored_buf[..k_stored];
        let mut targets = [0u16; MAX_STORED];
        if k == k_stored && hedge_after.is_none() {
            targets[..k].copy_from_slice(stored);
        } else {
            // A k = 1 read load-balances across the stored set, and a
            // hedged request balances its *primary* the same way (the
            // hedge targets the leftovers) — otherwise hedging would
            // concentrate first copies on ring primaries.
            let mut order = [0usize; MAX_STORED];
            for (j, slot) in order.iter_mut().enumerate().take(k_stored) {
                *slot = j;
            }
            self.place_rng.shuffle(&mut order[..k_stored]);
            for j in 0..k {
                targets[j] = stored[order[j]];
            }
        }

        let mut tlen = k;
        if self.st.elastic {
            // Dual-dispatch while the shard may still be migrating: the
            // same number of copies under the *previous* placement, with
            // owners that moved added as extra targets (capped by the
            // slot array — with the paper's 2-copy placements the union
            // always fits).
            if t < self.migration_until {
                if let Some(prev) = &self.ring_prev {
                    let mut old = [0u16; MAX_STORED];
                    prev.replicas_into(shard as u64, &mut old[..k_stored]);
                    for &s in &old[..k] {
                        if !targets[..tlen].contains(&s) && tlen < MAX_STORED {
                            targets[tlen] = s;
                            tlen += 1;
                        }
                    }
                }
            }
        }

        self.reqs.push_back(ReqSlot {
            arrival: t,
            offered,
            targets,
            tlen: tlen as u8,
            k: k as u8,
            sent: 0,
            hot,
            done: false,
        });
        debug_assert_eq!(self.front + self.reqs.len() - 1, i / self.st.lanes);
        self.peak_window = self.peak_window.max(self.reqs.len());

        if i >= self.st.cfg.warmup {
            let b = ramp_bucket(&self.st.cfg, offered);
            self.buckets[b].requests += 1;
            if hot {
                self.buckets[b].hot += 1;
            }
            self.cur_bucket = b as u16;
        }

        match hedge_after {
            Some(after) => {
                self.dispatch(req, 0, 1, ctx);
                ctx.schedule_at(SimTime::from_secs(t + after), SEv::HedgeFire { req });
            }
            None => {
                self.dispatch(req, 0, tlen, ctx);
            }
        }

        if i + self.st.lanes < self.st.total {
            let lambda = self.lambda_of(self.st.cfg.offered_cluster(i + self.st.lanes));
            let at = ctx.now() + SimTime::from_secs(self.arrival_rng.exponential(lambda));
            let next = req + self.st.lanes as u32;
            ctx.schedule_at(at, SEv::Arrive { req: next });
        }
    }

    fn response(
        &mut self,
        t: f64,
        req: u32,
        server: u16,
        demand: f64,
        ctx: &mut ShardCtx<'_, SEv>,
    ) {
        // Completion-mode reporting happens when the response reaches the
        // client (the server's report rides the response), duplicates
        // included.
        if !self.st.report_at_dispatch {
            self.planner.observe_demand(demand);
        }
        let i = req as usize;
        // A late duplicate: its request is answered, retired or not.
        let Some(slot) = self.slot_of(req).filter(|&s| !self.reqs[s].done) else {
            return;
        };
        self.reqs[slot].done = true;
        self.finished += 1;
        let state = &self.reqs[slot];
        let rt = t - state.arrival;
        let offered = state.offered;
        if i >= self.st.cfg.warmup {
            let b = ramp_bucket(&self.st.cfg, offered);
            self.buckets[b].samples.push(rt);
            self.completed += 1;
        }
        if self.st.cfg.cancellation && self.reqs[slot].sent > 1 {
            for idx in 0..self.reqs[slot].sent as usize {
                let other = self.reqs[slot].targets[idx];
                if other != server {
                    let dest = self.st.group_shard_of[other as usize] as usize;
                    self.send(dest, SEv::Cancel { req, server: other }, ctx);
                }
            }
        }
        while self.reqs.front().is_some_and(|r| r.done) {
            self.reqs.pop_front();
            self.front += 1;
        }
    }

    /// A hedged request's delay elapsed: dispatch the rest of its targets
    /// unless it was answered first (retired or not).
    fn hedge_fire(&mut self, req: u32, ctx: &mut ShardCtx<'_, SEv>) {
        if let Some(r) = self.slot_of(req).map(|s| &self.reqs[s]).filter(|r| !r.done) {
            let (from, to) = (r.sent as usize, r.tlen as usize);
            self.dispatch(req, from, to, ctx);
        }
    }

    /// Broadcasts this lane's current rate summary to every peer lane
    /// (one lookahead of delay) and re-arms the timer, one lookahead on,
    /// while the lane still has requests in flight.
    fn summary_tick(&mut self, ctx: &mut ShardCtx<'_, SEv>) {
        let rates = self.planner.summary();
        for peer in 0..self.st.lanes {
            if peer == self.id as usize {
                continue;
            }
            let ev = SEv::Summary {
                from: self.id as u16,
                rates: rates.clone(),
            };
            self.send(peer, ev, ctx);
            self.summaries_sent += 1;
        }
        if self.finished < self.owned {
            ctx.schedule_after(
                SimTime::from_secs(self.st.cfg.propagation),
                SEv::SummaryTick,
            );
        }
    }

    /// The autoscale controller (lane 0): estimate cluster-wide
    /// per-live-server utilization from the same estimates the planner
    /// decides with, step the fleet if it left the hysteresis
    /// band, and broadcast the new topology to every lane with one
    /// propagation delay so all rings mutate at the same simulated
    /// instant. Pure function of lane state — deterministic at any
    /// thread count.
    fn scale_tick(&mut self, ctx: &mut ShardCtx<'_, SEv>) {
        let t = ctx.now().as_secs();
        let a = self.st.cfg.autoscale.expect("scale tick without autoscale");
        // Cluster arrival rate: own estimate plus last-heard peer
        // summaries. The per-server planner reports every request to all
        // `k_stored` candidates, so its index sum overcounts by exactly
        // that factor.
        let split = if self.st.per_server {
            self.st.cfg.stored_replicas as f64
        } else {
            1.0
        };
        if let Some(rate) = self.planner.rate_sum(split) {
            // Evaluated against the latest *announced* size: a decision
            // in flight (applied one lookahead later) must not be
            // re-taken against the stale fleet on the next tick.
            let rho = rate * self.planner.live_mean() / self.target_live as f64;
            let mut target = self.target_live;
            if rho > a.scale_out {
                target = (target + a.step).min(a.max_servers);
            } else if rho < a.scale_in {
                target = target.saturating_sub(a.step).max(self.st.cfg.servers);
            }
            if target != self.target_live {
                self.target_live = target;
                self.topo_announced += 1;
                self.scale_log.push(ScaleEvent {
                    at: t,
                    servers: target,
                    rho,
                });
                for lane in 0..self.st.lanes {
                    let ev = SEv::Topology {
                        generation: self.topo_announced,
                        servers: target as u16,
                    };
                    self.send(lane, ev, ctx);
                }
            }
        }
        if self.finished < self.owned {
            ctx.schedule_after(SimTime::from_secs(self.st.scale_period), SEv::ScaleTick);
        }
    }

    /// Applies a topology broadcast: mutate this lane's ring to the new
    /// size (LIFO add/remove — identical ops on every lane, so the
    /// clones stay equal), open the dual-dispatch window, and churn the
    /// per-server planner's indices (grow on scale-out, per-index reset
    /// of departed servers on scale-in; survivors untouched).
    fn apply_topology(&mut self, t: f64, generation: u32, servers: usize) {
        debug_assert_eq!(generation, self.topo_gen + 1, "topology gap");
        self.topo_gen = generation;
        let ring = self.ring.as_mut().expect("topology without autoscale");
        self.ring_prev = Some(ring.clone());
        while ring.servers() < servers {
            ring.add_server();
        }
        while ring.servers() > servers {
            ring.remove_server();
        }
        if self.st.per_server {
            self.planner.grow_to(servers);
            // Departed indices go cold; a re-added server must warm up
            // fresh, not inherit its pre-departure window.
            for idx in servers..self.live {
                self.planner.reset(idx);
            }
        }
        self.cap_integral += self.live as f64 * (t - self.cap_last);
        self.cap_last = t;
        self.live = servers;
        self.peak_live = self.peak_live.max(servers);
        self.migration_until = t + self.st.cfg.autoscale.expect("elastic").migration;
    }
}

struct PsJob {
    req: u32,
    /// Total service demand (reported to the moment estimator at
    /// completion).
    size: f64,
    remaining: f64,
}

/// Advances a PS job set's shared-progress clock from `last` to `now`.
fn advance(jobs: &mut [PsJob], last: &mut f64, busy: &mut f64, now: f64) {
    let elapsed = now - *last;
    if elapsed > 0.0 && !jobs.is_empty() {
        let share = elapsed / jobs.len() as f64;
        for j in jobs.iter_mut() {
            j.remaining -= share;
        }
        *busy += elapsed;
    }
    *last = now;
}

/// One server under the configured [`Discipline`]: it owns its queue, its
/// busy-time accrual, the scheduling of its next departure and what a
/// cancellation purges, so a [`Group`] only routes copies to it.
enum Server {
    /// One copy in service, the rest queued in arrival order.
    Fifo {
        /// `(request id, service demand)` of the queued copies.
        queue: VecDeque<(u32, f64)>,
        /// `(request id, service demand)` of the copy in service, if any —
        /// the demand is re-surfaced at departure as the server's measured
        /// duration report to the moment estimator.
        in_service: Option<(u32, f64)>,
        /// Cumulative busy time, accrued as a lump at each service start.
        busy: f64,
    },
    /// Processor sharing: every resident copy progresses at `1/n` speed.
    Ps {
        jobs: Vec<PsJob>,
        /// Time the shared-progress clock was last advanced to.
        last: f64,
        /// Departure-schedule generation; a `Depart` of an older one is
        /// stale and ignored.
        epoch: u32,
        /// Cumulative busy time, accrued continuously by `advance`.
        busy: f64,
    },
}

impl Server {
    fn new(discipline: Discipline) -> Self {
        match discipline {
            Discipline::Fifo => Server::Fifo {
                queue: VecDeque::new(),
                in_service: None,
                busy: 0.0,
            },
            Discipline::Ps => Server::Ps {
                jobs: Vec::new(),
                last: 0.0,
                epoch: 0,
                busy: 0.0,
            },
        }
    }

    /// Cumulative busy time as of `t`: FIFO accrues a copy's whole demand
    /// at service start (so a saturated stretch can read slightly above
    /// 1), PS continuously — a resident PS job set has been busy since
    /// `last`.
    fn busy_at(&self, t: f64) -> f64 {
        match self {
            Server::Ps {
                jobs, last, busy, ..
            } if !jobs.is_empty() => busy + (t - last),
            Server::Fifo { busy, .. } | Server::Ps { busy, .. } => *busy,
        }
    }

    /// No copy queued or in service.
    fn is_idle(&self) -> bool {
        match self {
            Server::Fifo {
                queue, in_service, ..
            } => in_service.is_none() && queue.is_empty(),
            Server::Ps { jobs, .. } => jobs.is_empty(),
        }
    }

    /// Schedules this server's next departure (it is server `id`): FIFO
    /// starts its next queued copy, if any; PS re-plans its earliest
    /// completion under a new epoch. A FIFO departure is never withdrawn,
    /// so its epoch is always 0.
    fn schedule(&mut self, t: f64, id: u16, ctx: &mut ShardCtx<'_, SEv>) {
        let next = match self {
            Server::Fifo {
                queue,
                in_service,
                busy,
            } => {
                *in_service = queue.pop_front();
                in_service.map(|(_, svc)| {
                    *busy += svc;
                    (t + svc, 0)
                })
            }
            Server::Ps { jobs, epoch, .. } => {
                *epoch = epoch.wrapping_add(1);
                let min = jobs
                    .iter()
                    .map(|j| j.remaining)
                    .fold(f64::INFINITY, f64::min);
                min.is_finite()
                    .then(|| (t + min.max(0.0) * jobs.len() as f64, *epoch))
            }
        };
        if let Some((at, epoch)) = next {
            ctx.schedule_at(SimTime::from_secs(at), SEv::Depart { server: id, epoch });
        }
    }

    /// A copy of `req` with service `demand` joins the server.
    fn arrive(&mut self, t: f64, req: u32, demand: f64, id: u16, ctx: &mut ShardCtx<'_, SEv>) {
        match self {
            Server::Fifo {
                queue, in_service, ..
            } => {
                queue.push_back((req, demand));
                if in_service.is_some() {
                    return;
                }
            }
            Server::Ps {
                jobs, last, busy, ..
            } => {
                advance(jobs, last, busy, t);
                jobs.push(PsJob {
                    req,
                    size: demand,
                    remaining: demand,
                });
            }
        }
        self.schedule(t, id, ctx);
    }

    /// The departure scheduled under `epoch` fires: removes and returns the
    /// finished copy's `(request id, demand)`, or `None` for a stale PS
    /// schedule. The caller answers it, then calls [`schedule`](Self::schedule).
    fn depart(&mut self, t: f64, epoch: u32) -> Option<(u32, f64)> {
        match self {
            Server::Fifo { in_service, .. } => {
                Some(in_service.take().expect("depart with idle server"))
            }
            Server::Ps {
                jobs,
                last,
                epoch: current,
                busy,
            } => {
                if *current != epoch {
                    return None;
                }
                advance(jobs, last, busy, t);
                let idx = jobs
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))?
                    .0;
                let job = jobs.remove(idx);
                Some((job.req, job.size))
            }
        }
    }

    /// Purges `req`'s copies and returns how many went. FIFO purges only
    /// queued copies — the one in service runs to completion (a disk read
    /// cannot be withdrawn mid-seek); PS drops in-progress work too
    /// (closing the shared connection frees the server's share).
    fn cancel(&mut self, t: f64, req: u32, id: u16, ctx: &mut ShardCtx<'_, SEv>) -> u64 {
        match self {
            Server::Fifo { queue, .. } => {
                let before = queue.len();
                queue.retain(|&(r, _)| r != req);
                (before - queue.len()) as u64
            }
            Server::Ps {
                jobs, last, busy, ..
            } => {
                advance(jobs, last, busy, t);
                let before = jobs.len();
                jobs.retain(|j| j.req != req);
                let purged = (before - jobs.len()) as u64;
                if purged > 0 {
                    self.schedule(t, id, ctx);
                }
                purged
            }
        }
    }
}

/// A server-group shard: a contiguous block of servers with their queues.
/// No RNG here — demands arrive pre-sampled — so the group's trajectory is
/// a pure function of its message stream.
struct Group {
    /// First global server id in this group.
    lo: usize,
    /// Lane count: request `req` belongs to lane (and shard) `req % lanes`.
    lanes: u32,
    propagation: f64,
    servers: Vec<Server>,
    /// Copies that completed service and were answered.
    served: u64,
    /// Copies purged by cancellations.
    cancelled: u64,
    // --- per-bucket busy slicing (see the module docs) ---
    /// Ramp bucket of the open busy slice ([`NO_BUCKET`] until the first
    /// measured copy arrives).
    bucket: u16,
    /// Per-server busy time when the open slice started.
    snap_busy: Vec<f64>,
    /// Simulated time the open slice started.
    snap_t: f64,
    /// Closed-slice busy time, flat `[bucket][server]` (stride: the
    /// group's server count).
    bucket_busy: Vec<f64>,
    /// Closed-slice duration per bucket.
    bucket_elapsed: Vec<f64>,
}

impl Group {
    /// Closes the open busy slice at `t` — each server's busy delta and
    /// the slice's duration accrue to its bucket — and opens one for
    /// `bucket`. The first measured copy only opens a slice: warm-up busy
    /// time belongs to no bucket.
    fn slice_at(&mut self, t: f64, bucket: u16) {
        let n = self.servers.len();
        let open = (self.bucket != NO_BUCKET).then_some(self.bucket as usize);
        for (s, srv) in self.servers.iter().enumerate() {
            let busy = srv.busy_at(t);
            if let Some(b) = open {
                self.bucket_busy[b * n + s] += busy - self.snap_busy[s];
            }
            self.snap_busy[s] = busy;
        }
        if let Some(b) = open {
            self.bucket_elapsed[b] += t - self.snap_t;
        }
        self.snap_t = t;
        self.bucket = bucket;
    }

    /// Raises `peak[b]` to this group's largest per-server busy fraction
    /// in bucket `b` (buckets without slice time are left alone).
    fn fold_peaks(&self, peak: &mut [f64]) {
        let n = self.servers.len();
        for (b, p) in peak.iter_mut().enumerate() {
            let elapsed = self.bucket_elapsed[b];
            if elapsed > 0.0 {
                for busy in &self.bucket_busy[b * n..(b + 1) * n] {
                    *p = p.max(busy / elapsed);
                }
            }
        }
    }

    fn copy_arrive(
        &mut self,
        t: f64,
        req: u32,
        server: u16,
        demand: f64,
        bucket: u16,
        ctx: &mut ShardCtx<'_, SEv>,
    ) {
        // Sliced before the copy joins its queue, so a service it starts
        // accrues to the new bucket.
        if bucket != NO_BUCKET && bucket != self.bucket {
            self.slice_at(t, bucket);
        }
        self.servers[server as usize - self.lo].arrive(t, req, demand, server, ctx);
    }

    /// A departure fires: the finished copy's response goes back to the
    /// lane owning its request, then the server schedules its next one.
    fn depart(&mut self, t: f64, server: u16, epoch: u32, ctx: &mut ShardCtx<'_, SEv>) {
        let srv = &mut self.servers[server as usize - self.lo];
        let Some((req, demand)) = srv.depart(t, epoch) else {
            return;
        };
        self.served += 1;
        let ev = SEv::Response {
            req,
            server,
            demand,
        };
        let delay = SimTime::from_secs(self.propagation);
        ctx.send((req % self.lanes) as usize, delay, ev);
        srv.schedule(t, server, ctx);
    }

    fn cancel(&mut self, t: f64, req: u32, server: u16, ctx: &mut ShardCtx<'_, SEv>) {
        let srv = &mut self.servers[server as usize - self.lo];
        self.cancelled += srv.cancel(t, req, server, ctx);
    }
}

enum Node {
    Lane(Box<Lane>),
    Group(Box<Group>),
}

impl ShardLogic for Node {
    type Event = SEv;

    fn handle(&mut self, now: SimTime, ev: SEv, ctx: &mut ShardCtx<'_, SEv>) {
        let t = now.as_secs();
        match (self, ev) {
            (Node::Lane(lane), SEv::Arrive { req }) => lane.arrive(t, req, ctx),
            (Node::Lane(lane), SEv::HedgeFire { req }) => lane.hedge_fire(req, ctx),
            (
                Node::Lane(lane),
                SEv::Response {
                    req,
                    server,
                    demand,
                },
            ) => lane.response(t, req, server, demand, ctx),
            (Node::Lane(lane), SEv::SummaryTick) => lane.summary_tick(ctx),
            (Node::Lane(lane), SEv::Summary { from, rates }) => {
                lane.planner.apply_summary(from as usize, rates)
            }
            (Node::Lane(lane), SEv::ScaleTick) => lane.scale_tick(ctx),
            (
                Node::Lane(lane),
                SEv::Topology {
                    generation,
                    servers,
                },
            ) => lane.apply_topology(t, generation, servers as usize),
            (
                Node::Group(g),
                SEv::CopyArrive {
                    req,
                    server,
                    demand,
                    bucket,
                },
            ) => g.copy_arrive(t, req, server, demand, bucket, ctx),
            (Node::Group(g), SEv::Depart { server, epoch }) => g.depart(t, server, epoch, ctx),
            (Node::Group(g), SEv::Cancel { req, server }) => g.cancel(t, req, server, ctx),
            _ => unreachable!("event routed to the wrong shard kind"),
        }
    }
}

/// A [`ServiceResult`] plus the engine's execution counters.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The measurements.
    pub result: ServiceResult,
    /// Events, rounds, worker threads, and drain time of the engine run.
    /// `events` and `rounds` are deterministic and invariant to the thread
    /// count.
    pub engine: EngineStats,
    /// Server groups used (engine shards minus the lanes).
    pub groups: usize,
    /// Cross-lane load summaries exchanged (0 when `frontend_lanes == 1`).
    pub summaries: u64,
    /// The autoscaler's fleet-size trajectory (empty without autoscale):
    /// every decision that changed the live server count, in order.
    pub scale_log: Vec<ScaleEvent>,
    /// Largest live fleet the run reached (`cfg.servers` when static).
    pub peak_live: usize,
    /// Live servers when the run ended (`cfg.servers` when static).
    pub final_live: usize,
    /// Most request slots any lane held at once: its window from the
    /// oldest unanswered request to the newest arrival. Deterministic, and
    /// left out of [`fingerprint`](Self::fingerprint) so the pinned
    /// fingerprint hashes keep their recorded values.
    pub peak_window: usize,
}

impl ShardedOutcome {
    /// Everything the reports print, as bits: two outcomes with equal
    /// fingerprints are the same simulation. Worker-count invariance is
    /// asserted on this. Latency enters through each bucket's mean and
    /// p99, which together cover every measured request.
    pub fn fingerprint(&self) -> Vec<u64> {
        let res = &self.result;
        let mut v = vec![
            res.switch_off.to_bits(),
            res.live_threshold.to_bits(),
            res.mean_utilization.to_bits(),
            res.copies_issued,
            res.copies_cancelled,
            res.completed as u64,
            self.summaries,
            self.engine.events,
            self.engine.rounds,
        ];
        for b in &res.buckets {
            v.extend([b.requests as u64, b.k2_requests as u64]);
            v.extend([b.mean_response, b.p99, b.peak_utilization].map(f64::to_bits));
        }
        v.extend([self.peak_live as u64, self.final_live as u64]);
        for e in &self.scale_log {
            v.extend([e.at.to_bits(), e.servers as u64, e.rho.to_bits()]);
        }
        v
    }
}

/// Runs the service simulation on the sharded engine — one shard per
/// [`frontend_lane`](ServiceConfig::frontend_lanes) plus `groups` server
/// groups — using up to `threads` worker threads (leased from the
/// process-wide budget; 1 runs on the calling thread). Output is
/// bit-identical for every `threads` value.
///
/// # Panics
/// Panics on an inconsistent configuration: no servers/shards/requests,
/// more stored replicas than servers or than [`MAX_STORED`], a fixed
/// policy issuing more copies than stored replicas, loads outside
/// `[0, 1)` (the only stability bound a tail-only `Hedged` ramp needs), an
/// offered load that saturates the cluster (`max_copies × load ≥ 1` for
/// `Always` policies, `2 × load_start ≥ 1` for the adaptive mode, which
/// replicates only below the sub-½ threshold), non-positive propagation
/// (it is the lookahead), an estimated-moments window below 32 per lane
/// once split across the lanes (see [`LivePlanner::with_moments`]), or an
/// inconsistent lane/autoscale setup. Also panics if `groups` is outside
/// `[1, servers]`.
///
/// In estimated-moments mode each copy reports its service demand when
/// its response reaches the client, except under PS with cancellation,
/// where it reports at dispatch: there the purged in-flight loser would
/// censor completion reports toward min(demands).
pub fn run_sharded(cfg: &ServiceConfig, groups: usize, threads: usize) -> ShardedOutcome {
    validate_config(cfg);
    let threshold = Planner::for_service(cfg.service.as_ref()).threshold_load();
    run_sharded_at(cfg, threshold, groups, threads)
}

/// [`run_sharded`] on a validated `cfg` whose offline §2.1 threshold
/// (`Planner::for_service(..).threshold_load()`) the caller already
/// bisected, so a ramp's replications share one bisection.
pub(crate) fn run_sharded_at(
    cfg: &ServiceConfig,
    threshold: f64,
    groups: usize,
    threads: usize,
) -> ShardedOutcome {
    // Elastic runs allocate server slots for the *ceiling* up front;
    // servers beyond the live count simply never receive copies.
    let capacity = cfg.autoscale.map_or(cfg.servers, |a| a.max_servers);
    assert!(
        groups >= 1 && groups <= capacity,
        "server groups must be in [1, servers]"
    );
    let lanes = cfg.frontend_lanes;

    let mean_service = cfg.service.mean();
    assert!(mean_service.is_finite() && mean_service > 0.0);
    let planner = Planner::for_service(cfg.service.as_ref());

    // Placement is precomputed into a flat table: the hot path then never
    // touches the ring.
    let k_stored = cfg.stored_replicas;
    let ring = HashRing::new(cfg.servers, cfg.vnodes);
    let stored_tab = stored_table(cfg, &ring);
    // The hot server every skew experiment's accounting pivots on: the
    // first one with the largest expected k = 1 share.
    let shares = load_shares_of(cfg, &stored_tab);
    let hot_server =
        (0..cfg.servers).fold(0, |h, s| if shares[s] > shares[h] { s } else { h }) as u16;
    let hot_shard: Vec<bool> = (0..cfg.shards)
        .map(|sh| stored_tab[sh * k_stored..(sh + 1) * k_stored].contains(&hot_server))
        .collect();

    // Group g owns the contiguous server block [bounds[g], bounds[g+1])
    // on engine shard `lanes + g` — sized over the full capacity so
    // scale-outs land on pre-built (dormant) servers.
    let bounds: Vec<usize> = (0..=groups).map(|g| g * capacity / groups).collect();
    let mut group_shard_of = vec![0u16; capacity];
    for g in 0..groups {
        for s in group_shard_of
            .iter_mut()
            .take(bounds[g + 1])
            .skip(bounds[g])
        {
            *s = (lanes + g) as u16;
        }
    }

    let total = cfg.warmup + cfg.requests;
    let statics = Arc::new(Statics {
        mean_service,
        total,
        lanes,
        group_shard_of,
        stored_tab,
        hot_shard,
        elastic: cfg.autoscale.is_some(),
        per_server: matches!(
            cfg.frontend,
            Frontend::Adaptive {
                load_model: LoadModel::PerServer,
                ..
            }
        ),
        report_at_dispatch: cfg.discipline == Discipline::Ps && cfg.cancellation,
        scale_period: cfg.autoscale.map_or(0.0, |a| a.period.max(cfg.propagation)),
        cfg: cfg.clone(),
    });

    // Lanes fork their RNG substreams in lane order from one root, so
    // lane 0 of a single-lane config draws exactly the streams the
    // pre-lane frontend drew (1, 2, 3).
    let mut root = Rng::seed_from(cfg.seed);
    let slice_len = cfg.shards / lanes;
    let adaptive = matches!(cfg.frontend, Frontend::Adaptive { .. });
    let mut nodes = Vec::with_capacity(lanes + groups);
    // (shard, at, event) seeds applied once the engine exists.
    let mut seeds: Vec<(usize, SimTime, SEv)> = Vec::new();
    for l in 0..lanes {
        let arrival_rng = root.fork((3 * l + 1) as u64);
        let place_rng = root.fork((3 * l + 2) as u64);
        let svc_rng = root.fork((3 * l + 3) as u64);

        // A lane sees a `1/lanes` thinning of the arrival and demand
        // streams, so a window of `window` of its own gaps or demands
        // would span `lanes`× more simulated time than the single-lane
        // estimator's — and lag a ramp `lanes`× harder. Scaling the
        // per-lane windows down keeps the aggregate time horizon (and so
        // the estimator's responsiveness) what the config asked for, and
        // with it the moment window's trust point and recalibration
        // cadence, which `with_moments` derives from the window; at one
        // lane the division is exact and nothing changes.
        let lane_window = |w: usize| (w / lanes).max(2);
        let width = if statics.per_server { cfg.servers } else { 1 };
        let window = match &cfg.frontend {
            Frontend::Adaptive { window, .. } => *window,
            // A fixed policy never decides; it gets the smallest planner.
            Frontend::Fixed(_) => 2,
        };
        let mut live = LivePlanner::new(
            planner,
            threshold,
            width,
            lane_window(window),
            lanes,
            cfg.load_start,
        );
        if let Frontend::Adaptive {
            moments: MomentSource::Estimated { window },
            ..
        } = &cfg.frontend
        {
            live = live.with_moments(lane_window(*window));
        }

        // Lane l owns requests {l, l+lanes, l+2·lanes, …} below `total`.
        let owned = (total - l).div_ceil(lanes);
        let mut lane = Lane {
            id: l as u32,
            st: Arc::clone(&statics),
            slice_lo: l * slice_len,
            slice_len,
            owned,
            arrival_rng,
            place_rng,
            svc_rng,
            planner: live,
            reqs: VecDeque::new(),
            front: 0,
            peak_window: 0,
            buckets: (0..cfg.buckets)
                .map(|b| BucketTally::with_room(bucket_room(cfg, lanes, b)))
                .collect(),
            cur_bucket: NO_BUCKET,
            copies_issued: 0,
            completed: 0,
            finished: 0,
            summaries_sent: 0,
            ring: cfg.autoscale.is_some().then(|| ring.clone()),
            ring_prev: None,
            migration_until: f64::NEG_INFINITY,
            live: cfg.servers,
            topo_gen: 0,
            target_live: cfg.servers,
            topo_announced: 0,
            scale_log: Vec::new(),
            cap_integral: 0.0,
            cap_last: 0.0,
            peak_live: cfg.servers,
        };
        if owned > 0 {
            let first_gap = lane.arrival_rng.exponential(lane.lambda_of(cfg.offered(l)));
            seeds.push((
                l,
                SimTime::from_secs(first_gap),
                SEv::Arrive { req: l as u32 },
            ));
            if lanes > 1 && adaptive {
                seeds.push((l, SimTime::from_secs(cfg.propagation), SEv::SummaryTick));
            }
            if l == 0 && statics.elastic {
                seeds.push((0, SimTime::from_secs(statics.scale_period), SEv::ScaleTick));
            }
        }
        nodes.push(Node::Lane(Box::new(lane)));
    }
    for g in 0..groups {
        let n = bounds[g + 1] - bounds[g];
        nodes.push(Node::Group(Box::new(Group {
            lo: bounds[g],
            lanes: lanes as u32,
            propagation: cfg.propagation,
            servers: (0..n).map(|_| Server::new(cfg.discipline)).collect(),
            served: 0,
            cancelled: 0,
            bucket: NO_BUCKET,
            snap_busy: vec![0.0; n],
            snap_t: 0.0,
            bucket_busy: vec![0.0; cfg.buckets * n],
            bucket_elapsed: vec![0.0; cfg.buckets],
        })));
    }

    let mut engine = ShardEngine::new(nodes, SimTime::from_secs(cfg.propagation));
    // Pre-size per-shard queues to their steady-state footprint.
    for l in 0..lanes {
        engine.reserve(l, 4 * 1024);
    }
    for g in 0..groups {
        engine.reserve(lanes + g, (8 * (bounds[g + 1] - bounds[g])).max(256));
    }
    for (shard, at, ev) in seeds {
        engine.schedule(shard, at, ev);
    }

    let stats = engine.run(threads);
    let end_time = stats.end_time.as_secs();

    let mut lanes_out: Vec<Lane> = Vec::with_capacity(lanes);
    let mut busy = 0.0f64;
    let mut copies_served = 0u64;
    let mut copies_cancelled = 0u64;
    // Per-bucket peak busy fraction over every server; the final slice
    // runs through the post-arrival drain.
    let mut peak = vec![f64::NAN; cfg.buckets];
    // Shards come back in shard order: the lanes in lane order, so every
    // fold below is a fixed-order f64 reduction.
    for node in engine.into_states() {
        match node {
            Node::Lane(lane) => lanes_out.push(*lane),
            Node::Group(mut g) => {
                debug_assert!(
                    g.servers.iter().all(Server::is_idle),
                    "a server still holds a copy after the drain"
                );
                busy += g
                    .servers
                    .iter()
                    .map(|srv| srv.busy_at(end_time))
                    .sum::<f64>();
                copies_served += g.served;
                copies_cancelled += g.cancelled;
                g.slice_at(end_time, NO_BUCKET);
                g.fold_peaks(&mut peak);
            }
        }
    }
    // Elastic accounting lives on lane 0 (the controller): the fleet
    // trajectory, and the provisioned server-time integral that replaces
    // `servers × end_time` as the utilization denominator.
    let (scale_log, peak_live, final_live, provisioned) = {
        let l0 = &mut lanes_out[0];
        let provisioned = if statics.elastic {
            l0.cap_integral + l0.live as f64 * (end_time - l0.cap_last)
        } else {
            cfg.servers as f64 * end_time
        };
        (
            std::mem::take(&mut l0.scale_log),
            l0.peak_live,
            l0.live,
            provisioned,
        )
    };

    let mut completed = 0usize;
    let mut copies_issued = 0u64;
    let mut recalibrations = 0u64;
    let mut summaries = 0u64;
    let mut peak_window = 0usize;
    for lane in &lanes_out {
        peak_window = peak_window.max(lane.peak_window);
        completed += lane.completed;
        copies_issued += lane.copies_issued;
        recalibrations += lane.planner.recalibrations();
        summaries += lane.summaries_sent;
    }
    // Conservation: every dispatched copy was either served and answered
    // or purged by a cancellation, exactly once.
    debug_assert_eq!(
        copies_issued,
        copies_served + copies_cancelled,
        "copies issued vs served + cancelled"
    );

    let span = cfg.load_end - cfg.load_start;
    let buckets: Vec<RampBucket> = (0..cfg.buckets)
        .map(|b| {
            let width = if span.abs() < f64::EPSILON {
                0.0
            } else {
                span / cfg.buckets as f64
            };
            let load = cfg.load_start + width * (b as f64 + 0.5);
            // The lanes' tallies merge one bucket at a time, so only one
            // merged sample set is alive at once (a single lane's samples
            // are taken whole, never copied).
            let mut tally = BucketTally::default();
            for lane in &mut lanes_out {
                tally.merge(std::mem::take(&mut lane.buckets[b]));
            }
            let samples = &mut tally.samples;
            let (mean_response, p99) = if samples.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                (samples.mean(), samples.quantile(0.99))
            };
            RampBucket {
                load,
                requests: tally.requests,
                k2_requests: tally.k2,
                mean_response,
                p99,
                peak_utilization: peak[b],
                hot_requests: tally.hot,
                hot_k2_requests: tally.hot_k2,
            }
        })
        .collect();

    // Lane 0's trusted moment window, read as `live_threshold` reads
    // lane 0's threshold.
    let (est_mean_service, est_scv) = lanes_out[0]
        .planner
        .calibrated()
        .map_or((f64::NAN, f64::NAN), |me| (me.mean(), me.scv()));

    let result = ServiceResult {
        switch_off: bucket_switch_off(&buckets, RampBucket::frac_k2),
        planner_threshold: threshold,
        live_threshold: match &cfg.frontend {
            Frontend::Fixed(_) => f64::NAN,
            // Lane 0's view. Summaries carry arrival rates only: each
            // lane recalibrates from its own moment window.
            Frontend::Adaptive { .. } => lanes_out[0].planner.threshold(),
        },
        est_mean_service,
        est_scv,
        recalibrations,
        buckets,
        copies_issued,
        copies_cancelled,
        mean_utilization: busy / provisioned.max(f64::MIN_POSITIVE),
        completed,
    };
    ShardedOutcome {
        result,
        engine: stats,
        groups,
        summaries,
        scale_log,
        peak_live,
        final_live,
        peak_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service;
    use simcore::dist::{DynDist, Exponential, Pareto};
    use simcore::runner::Runner;

    fn small_ramp() -> ServiceConfig {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.05, 0.55);
        cfg.servers = 16;
        cfg.shards = 2048;
        cfg.requests = 30_000;
        cfg.warmup = 3_000;
        cfg
    }

    #[test]
    fn a_static_ramp_fits_every_bucket_in_its_room() {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0));
        for (requests, warmup, buckets, lanes, lo, hi) in [
            (1_000_000, 50_000, 22, 1, 0.05, 0.6),
            (100_000, 5_000, 22, 8, 0.05, 0.6),
            (12_345, 1, 7, 3, 0.6, 0.05),
            (1_001, 0, 40, 4, 0.1, 0.45),
            (999, 7, 3, 2, 0.3, 0.3),
        ] {
            let mut cfg = ServiceConfig::ramp(Arc::clone(&service), lo, hi);
            cfg.requests = requests;
            cfg.warmup = warmup;
            cfg.buckets = buckets;
            let mut counts = vec![0; lanes * buckets];
            for i in warmup..warmup + requests {
                counts[i % lanes * buckets + ramp_bucket(&cfg, cfg.offered(i))] += 1;
            }
            for (j, &n) in counts.iter().enumerate() {
                let room = bucket_room(&cfg, lanes, j % buckets);
                assert!(
                    n <= room,
                    "lane {} bucket {}: {n} samples, room {room}",
                    j / buckets,
                    j % buckets
                );
            }
        }
    }

    #[test]
    fn bit_identical_at_every_thread_count() {
        let cfg = small_ramp();
        let reference = run_sharded(&cfg, 5, 1).fingerprint();
        for threads in [2, 3, 6, 8] {
            assert_eq!(
                reference,
                run_sharded(&cfg, 5, threads).fingerprint(),
                "threads={threads}"
            );
        }
    }

    /// FNV-1a-64 over the little-endian bytes of a fingerprint: a compact
    /// byte pin for a whole outcome.
    fn fnv1a64(words: &[u64]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    #[test]
    fn multi_lane_bit_identical_at_any_placement_and_thread_count() {
        // With 4 lanes (4 lane shards) every worker count produces the same
        // bits — including the summary-exchange traffic, which lands
        // exactly on horizon boundaries (period == lookahead).
        let mut cfg = small_ramp();
        cfg.frontend_lanes = 4;
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        let reference = run_sharded(&cfg, 3, 1).fingerprint();
        for threads in [3usize, 8] {
            assert_eq!(
                reference,
                run_sharded(&cfg, 3, threads).fingerprint(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn lanes_exchange_summaries_and_match_single_lane_statistically() {
        // Decomposing the frontend into lanes changes the RNG decomposition
        // but not the physics: the ramp's switch-off and throughput agree
        // with the single-lane run, and summaries actually flow.
        let cfg1 = small_ramp();
        let mut cfg4 = small_ramp();
        cfg4.frontend_lanes = 4;
        let a = run_sharded(&cfg1, 4, 1);
        let b = run_sharded(&cfg4, 4, 1);
        assert_eq!(a.summaries, 0, "a lone lane has no peers");
        assert!(b.summaries > 0, "lanes must exchange load summaries");
        assert_eq!(a.result.completed, b.result.completed);
        assert!(
            (a.result.switch_off - b.result.switch_off).abs() < 0.05,
            "switch-off {} vs {}",
            a.result.switch_off,
            b.result.switch_off
        );
        // The run's mean response, pooled from the bucket means.
        let mean = |r: &ServiceResult| {
            let measured = r.buckets.iter().filter(|b| b.requests > 0);
            let total: f64 = measured.map(|b| b.mean_response * b.requests as f64).sum();
            total / r.completed as f64
        };
        let (ma, mb) = (mean(&a.result), mean(&b.result));
        assert!((ma - mb).abs() / ma < 0.05, "mean {ma} vs {mb}");
    }

    /// A 2-lane ramp on 12 servers under `policy`, no cancellation.
    fn retire_ramp(policy: Policy, load_end: f64) -> ServiceConfig {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.05, load_end);
        cfg.servers = 12;
        cfg.frontend = Frontend::Fixed(policy);
        cfg.frontend_lanes = 2;
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        cfg
    }

    #[test]
    fn losing_copies_answer_after_their_request_retired() {
        // Without cancellation both copies of every request run, so every
        // loser answers after its request was answered, most of them after
        // it retired from its lane's window. Each one must be dropped: one
        // completion per request, two copies each, and the same bits at
        // every worker count and as recorded before the window existed
        // (re-hashed when the run-wide mean left the fingerprint).
        let cfg = retire_ramp(Policy::Always { copies: 2 }, 0.45);
        let out = run_sharded(&cfg, 3, 1);
        assert_eq!(out.result.completed, cfg.requests);
        let total = (cfg.requests + cfg.warmup) as u64;
        assert_eq!(out.result.copies_issued, 2 * total);
        assert_eq!(out.result.copies_cancelled, 0);
        let reference = out.fingerprint();
        assert_eq!(
            fnv1a64(&reference),
            0x527b_5292_c8e0_664d,
            "always-2 pin drifted"
        );
        assert_eq!(reference, run_sharded(&cfg, 3, 3).fingerprint());
    }

    #[test]
    fn hedges_landing_on_retired_requests_fire_nothing() {
        // A 2 ms hedge on a 1 ms-mean service: over half the primaries
        // answer first, so their hedge timers find the request answered,
        // most of them after it retired. Only the rest dispatch a copy.
        let after = std::time::Duration::from_millis(2);
        let cfg = retire_ramp(Policy::Hedged { copies: 2, after }, 0.6);
        let out = run_sharded(&cfg, 3, 1);
        assert_eq!(out.result.completed, cfg.requests);
        let total = (cfg.requests + cfg.warmup) as u64;
        let fired = out.result.copies_issued - total;
        assert!(
            fired > 0 && fired < total / 2,
            "{fired} of {total} hedges fired"
        );
        let measured_k2: usize = out.result.buckets.iter().map(|b| b.k2_requests).sum();
        assert!(measured_k2 as u64 <= fired);
        let reference = out.fingerprint();
        assert_eq!(
            fnv1a64(&reference),
            0xd943_5f89_1319_3131,
            "hedged pin drifted"
        );
        assert_eq!(reference, run_sharded(&cfg, 3, 3).fingerprint());
    }

    #[test]
    fn request_window_follows_the_load_not_the_run() {
        // Each lane holds slots only from its oldest unanswered request to
        // its newest arrival: a few per cent of the run at most, and the
        // same count at every worker count.
        let cfg = small_ramp();
        let peak = run_sharded(&cfg, 5, 1).peak_window;
        assert!(peak > 0 && peak * 20 < cfg.requests, "peak window {peak}");
        for threads in [2, 3] {
            assert_eq!(
                run_sharded(&cfg, 5, threads).peak_window,
                peak,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn group_count_is_part_of_the_config_not_the_schedule() {
        // Different groupings change message routing but not the physical
        // model: switch-off and copy counts stay close (not bitwise —
        // per-shard FIFO tie-breaks shift with the partition).
        let cfg = small_ramp();
        let a = run_sharded(&cfg, 1, 1);
        let b = run_sharded(&cfg, 8, 1);
        assert_eq!(a.result.completed, b.result.completed);
        assert_eq!(a.result.copies_issued, b.result.copies_issued);
        assert!((a.result.switch_off - b.result.switch_off).abs() < 0.05);
    }

    #[test]
    fn cancellation_works_across_shards() {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.2, 0.2);
        cfg.servers = 12;
        cfg.frontend = Frontend::Fixed(Policy::Always { copies: 2 });
        cfg.cancellation = true;
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        cfg.buckets = 1;
        let out = run_sharded(&cfg, 4, 1);
        assert_eq!(out.result.completed, cfg.requests);
        assert!(out.result.copies_cancelled > 0, "no copies cancelled");
        // Spreading the servers over four groups purges as many copies
        // as the single-group run, where every server shares one shard.
        let one = run_sharded(&cfg, 1, 1).result;
        let rel = (out.result.copies_cancelled as f64 - one.copies_cancelled as f64).abs()
            / one.copies_cancelled as f64;
        assert!(
            rel < 0.05,
            "cancelled {} vs {}",
            out.result.copies_cancelled,
            one.copies_cancelled
        );
    }

    #[test]
    fn ps_discipline_runs_sharded() {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.3, 0.3);
        cfg.discipline = Discipline::Ps;
        cfg.frontend = Frontend::Fixed(Policy::Single);
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        cfg.buckets = 1;
        let out = run_sharded(&cfg, 3, 1);
        assert_eq!(out.result.completed, cfg.requests);
        let expect = 1.0e-3 / (1.0 - 0.3) + 2.0 * cfg.propagation;
        let got = out.result.buckets[0].mean_response;
        assert!(
            (got - expect).abs() / expect < 0.10,
            "PS mean {got} vs {expect}"
        );
    }

    #[test]
    #[should_panic(expected = "saturates")]
    fn rejects_saturating_config() {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.6, 0.6);
        cfg.frontend = Frontend::Fixed(Policy::Always { copies: 2 });
        let _ = run_sharded(&cfg, 2, 1);
    }

    #[test]
    #[should_panic(expected = "two-moment planner needs finite service variance")]
    fn rejects_infinite_variance_service_for_the_adaptive_planner() {
        // Pareto with alpha = 1.5: finite mean, infinite variance.
        let service: DynDist = Arc::new(Pareto::unit_mean(1.5));
        let cfg = ServiceConfig::ramp(service, 0.05, 0.3);
        let _ = run_sharded(&cfg, 2, 1);
    }

    #[test]
    #[should_panic(expected = "single frontend lane")]
    fn rejects_popularity_with_multiple_lanes() {
        let mut cfg = small_ramp();
        cfg.frontend_lanes = 4;
        cfg.popularity = Some(service::zipf_popularity(cfg.shards, 0.9));
        let _ = run_sharded(&cfg, 2, 1);
    }

    /// A diurnal ramp on an 8-server baseline that must stretch to 16
    /// and come back: peak cluster load 0.9 relative to the baseline is
    /// 0.45 per server at the full fleet (inside the 0.30–0.50
    /// hysteresis band) but 0.60 at 12 servers (above it), so the
    /// controller cannot stop short of the ceiling.
    fn elastic_ramp() -> ServiceConfig {
        let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
        let mut cfg = ServiceConfig::ramp(service, 0.05, 0.6);
        cfg.servers = 8;
        cfg.shards = 2048;
        cfg.requests = 30_000;
        cfg.warmup = 3_000;
        cfg.autoscale = Some(service::Autoscale {
            max_servers: 16,
            step: 4,
            scale_out: 0.50,
            scale_in: 0.30,
            period: 0.05,
            migration: 0.01,
            peak_load: 0.9,
        });
        cfg
    }

    #[test]
    fn autoscaler_tracks_the_diurnal_curve() {
        let cfg = elastic_ramp();
        let out = run_sharded(&cfg, 4, 1);
        assert_eq!(out.result.completed, cfg.requests);
        assert_eq!(out.peak_live, 16, "fleet never reached the ceiling");
        assert_eq!(out.final_live, 8, "fleet did not return to the floor");
        assert!(
            out.scale_log.len() >= 4,
            "64→256→64-style trajectory needs at least 4 steps, got {:?}",
            out.scale_log
        );
        // The trajectory is up-then-down: monotone to the peak, monotone
        // back (hysteresis leaves no room for mid-course flapping on a
        // single-peak curve).
        let peak_at = out
            .scale_log
            .iter()
            .position(|e| e.servers == 16)
            .expect("ceiling decision logged");
        for w in out.scale_log[..=peak_at].windows(2) {
            assert!(
                w[0].servers < w[1].servers,
                "flap on the way up: {:?}",
                out.scale_log
            );
        }
        for w in out.scale_log[peak_at..].windows(2) {
            assert!(
                w[0].servers > w[1].servers,
                "flap on the way down: {:?}",
                out.scale_log
            );
        }
        // The switch-off (per-live-server axis) still tracks the offline
        // threshold through all the resizing.
        assert!(
            (out.result.switch_off - out.result.planner_threshold).abs() < 0.1,
            "switch-off {} vs threshold {}",
            out.result.switch_off,
            out.result.planner_threshold
        );
    }

    #[test]
    fn elastic_run_is_bit_identical_at_any_thread_count() {
        // The workspace invariant extends through topology churn: the
        // controller, the topology broadcasts, the ring mutations, and
        // the dual-dispatch window all live on the lane shards, so the
        // full elastic trajectory is reproduced bit-for-bit at every
        // worker count — and matches the value recorded before lanes
        // became one shard each (the pin below, re-hashed when the
        // run-wide mean left the fingerprint).
        let mut cfg = elastic_ramp();
        cfg.frontend_lanes = 4;
        cfg.requests = 20_000;
        cfg.warmup = 2_000;
        let reference = run_sharded(&cfg, 3, 1).fingerprint();
        assert!(reference.len() > 40, "scale log missing from fingerprint");
        assert_eq!(
            fnv1a64(&reference),
            0xff5c26e543ded7ef,
            "elastic 4-lane pin drifted"
        );
        for threads in [3usize, 8] {
            assert_eq!(
                reference,
                run_sharded(&cfg, 3, threads).fingerprint(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn elastic_per_server_bank_survives_churn() {
        // PerServer load model under topology churn: the bank grows on
        // scale-out, departed indices reset on scale-in, and the peer
        // boards tolerate stale-width summaries — the run completes with
        // the fleet trajectory intact.
        let mut cfg = elastic_ramp();
        cfg.frontend = Frontend::Adaptive {
            window: 2048,
            moments: MomentSource::Clairvoyant,
            load_model: LoadModel::PerServer,
        };
        cfg.frontend_lanes = 2;
        let out = run_sharded(&cfg, 4, 2);
        assert_eq!(out.result.completed, cfg.requests);
        assert_eq!(out.peak_live, 16);
        assert_eq!(out.final_live, 8);
        assert!(out.summaries > 0);
    }

    #[test]
    #[should_panic(expected = "saturates even the full fleet")]
    fn rejects_unservable_diurnal_peak() {
        let mut cfg = elastic_ramp();
        cfg.autoscale = Some(service::Autoscale {
            peak_load: 1.5,
            ..cfg.autoscale.unwrap()
        });
        let _ = run_sharded(&cfg, 4, 1);
    }

    #[test]
    fn bucket_record_covers_every_measured_request() {
        // The ramp buckets are the only latency record: every measured
        // request must land in exactly one bucket and complete, and a
        // bucket reports a latency exactly when it holds requests. Checked
        // for every frontend shape, at 1 and 3 workers, and for a pooled
        // 3-replication ramp.
        fn assert_complete(name: &str, res: &ServiceResult, requests: usize) {
            let bucketed: usize = res.buckets.iter().map(|b| b.requests).sum();
            assert_eq!(
                (bucketed, res.completed),
                (requests, requests),
                "{name}: bucketed and completed vs measured requests"
            );
            for b in &res.buckets {
                assert_eq!(b.requests > 0, b.mean_response.is_finite(), "{name}: {b:?}");
                assert_eq!(b.requests > 0, b.p99.is_finite(), "{name}: {b:?}");
            }
        }
        let short = |mut cfg: ServiceConfig| {
            cfg.requests = 6_000;
            cfg.warmup = 600;
            cfg
        };
        let fixed = |policy: Policy, load_end: f64| {
            let service: DynDist = Arc::new(Exponential::with_mean(1.0e-3));
            let mut cfg = short(ServiceConfig::ramp(service, 0.05, load_end));
            cfg.frontend = Frontend::Fixed(policy);
            cfg
        };
        let after = std::time::Duration::from_millis(2);
        let mut hedged = fixed(Policy::Hedged { copies: 2, after }, 0.6);
        hedged.cancellation = true;
        let mut per_server = short(small_ramp());
        per_server.frontend = Frontend::Adaptive {
            window: 512,
            moments: MomentSource::Clairvoyant,
            load_model: LoadModel::PerServer,
        };
        per_server.popularity = Some(service::zipf_popularity(per_server.shards, 0.6));
        let mut lanes = short(small_ramp());
        lanes.frontend_lanes = 4;
        let mut elastic = elastic_ramp();
        elastic.requests = 10_000;
        elastic.warmup = 1_000;
        let scenarios = [
            ("single", fixed(Policy::Single, 0.55)),
            ("always-2", fixed(Policy::Always { copies: 2 }, 0.45)),
            ("hedged", hedged),
            ("adaptive global", short(small_ramp())),
            ("adaptive per-server zipf", per_server),
            ("4 lanes", lanes),
            ("elastic", elastic),
        ];
        for (name, cfg) in &scenarios {
            for workers in [1, 3] {
                let out = run_sharded(cfg, 3, workers);
                assert_complete(&format!("{name} @ {workers}"), &out.result, cfg.requests);
            }
        }
        let cfg = short(small_ramp());
        let pooled = crate::experiments::run_service_ramp_on(&Runner::new(3), &cfg, 3);
        assert_complete("3 replications", &pooled, 3 * cfg.requests);
    }

    #[test]
    fn lanes_split_the_recalibration_cadence_with_the_window() {
        // Each of 4 lanes sees a quarter of the demands through a quarter
        // of the moment window, so it recalibrates every quarter as many
        // of its own demands: the single-lane cadence in simulated time,
        // and about 4x the single-lane run's recalibrations in total.
        let run = |lanes: usize| {
            let mut cfg = small_ramp();
            cfg.frontend_lanes = lanes;
            cfg.frontend = Frontend::Adaptive {
                window: 512,
                moments: MomentSource::Estimated { window: 2048 },
                load_model: LoadModel::Global,
            };
            run_sharded(&cfg, 4, 1).result.recalibrations
        };
        let (one, four) = (run(1), run(4));
        assert!(
            one > 0 && (3 * one..=5 * one).contains(&four),
            "recalibrations: 1 lane {one}, 4 lanes {four}"
        );
    }
}
