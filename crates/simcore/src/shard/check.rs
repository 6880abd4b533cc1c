//! Shardcheck: exhaustive schedule exploration for the sharded engine.
//!
//! The engine's determinism argument (see the [`shard`](super) module
//! docs) is that per-shard pop order is a total order on the
//! `(time, origin, seq)` merge key, so output is a pure function of the
//! simulation — never of which worker ran which shard, which worker woke
//! first in a round, the order routed wires were merged, or the round in
//! which a receiver picked a published batch up. CI checks that claim
//! *dynamically* by byte-diffing a handful of thread counts; this module
//! checks it the way loom checks a lock-free algorithm: by *enumerating*
//! the schedule space of small workloads and asserting every schedule
//! produces the identical event trace.
//!
//! A [`Schedule`] fixes every free choice the parallel runtime makes:
//!
//! * **worker-to-shard assignment** — any function `shard → worker`, a
//!   strict superset of the `id % workers` round-robin the real engine
//!   uses (so a future placement policy is already covered);
//! * **per-round wake order** — the order workers run their windows
//!   within a round, either a fixed permutation or rotating each round;
//! * **local order** — the order a worker visits its own shards, forward
//!   or reversed;
//! * **delivery order** — the order routed wires are merged into
//!   destination queues, forward or reversed;
//! * **early delivery** — whether a batch another worker published is
//!   merged by its receiver at the receiver's next round start, or right
//!   after the sender publishes it, possibly before the receiver runs its
//!   window in the same round. With one barrier per round both happen in
//!   the real engine: a slow receiver may still be starting its round when
//!   a fast sender publishes.
//!
//! [`explore_schedules`] runs a workload under every combination,
//! recording each shard's popped `(time, origin, seq)` keys, and asserts
//! the traces are identical to the 1-worker identity schedule — which is
//! verified on the spot against the production serial path
//! ([`ShardEngine::run_with`]`(1)`) via its event, round and wire
//! counters. Within a round, serializing concurrent workers in *any* order
//! is a valid linearization of the real execution: windows share no
//! state, a worker's wires to its own shards merge right after its
//! windows, and a wire merged into another worker's shard before that
//! worker's window carries a time at or past the round's bound, so it
//! cannot pop in it. A workload whose behaviour leaks execution order (say,
//! through a process-global counter) is caught: some wake order reorders
//! the leak, the traces diverge, and the panic names the offending
//! schedule.

use super::{
    queue_min, unpack_key, Cell, EngineStats, Entry, ShardCtx, ShardEngine, ShardLogic, Wire,
};
use crate::time::SimTime;

/// One popped event, keyed exactly as the engine merges it: the time's
/// IEEE bit pattern (so `-0.0` vs `+0.0` or a stray NaN cannot alias),
/// the origin shard, and the origin's sequence number.
pub type TraceKey = (u64, u32, u64);

/// The order workers run their windows within a round.
#[derive(Clone, Debug)]
pub enum Wake {
    /// The same permutation of worker ids every round.
    Static(Vec<usize>),
    /// Round `r` starts at worker `(offset + r) % workers` and wraps —
    /// models one worker persistently winning or losing the barrier race.
    Rotating(usize),
}

/// A fully determined execution schedule for one engine run.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Number of workers (some may own no shards).
    pub workers: usize,
    /// `assignment[shard] = worker` owning that shard.
    pub assignment: Vec<usize>,
    /// Within-round worker order.
    pub wake: Wake,
    /// Visit each worker's shards in reverse id order.
    pub reverse_local: bool,
    /// Merge routed wires in reverse emission order.
    pub reverse_delivery: bool,
    /// Merge another worker's batch right after it is published instead of
    /// at the receiver's next round start.
    pub early_delivery: bool,
}

impl Schedule {
    /// The 1-worker forward-order schedule: exactly the serial engine.
    pub fn identity(shards: usize) -> Self {
        Schedule {
            workers: 1,
            assignment: vec![0; shards],
            wake: Wake::Static(vec![0]),
            reverse_local: false,
            reverse_delivery: false,
            early_delivery: false,
        }
    }

    fn wake_order(&self, round: u64) -> Vec<usize> {
        match &self.wake {
            Wake::Static(perm) => perm.clone(),
            Wake::Rotating(offset) => (0..self.workers)
                .map(|i| (offset + round as usize + i) % self.workers)
                .collect(),
        }
    }
}

/// What one exploration proved, for logging and for pinning in docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Shard count of the workload.
    pub shards: usize,
    /// Largest worker count explored.
    pub max_workers: usize,
    /// Distinct schedules executed and compared (excludes the reference).
    pub schedules: usize,
    /// Events handled per run (identical across all schedules, by proof).
    pub events: u64,
    /// Synchronization rounds per run (identical across all schedules).
    pub rounds: u64,
    /// Cross-shard messages per run (identical across all schedules).
    pub wires: u64,
}

/// [`super::run_window`] with the popped merge keys appended to `trace`.
fn run_window_traced<S: ShardLogic>(
    cell: &mut Cell<S>,
    bound: SimTime,
    lookahead: SimTime,
    outbox: &mut Vec<Wire<S::Event>>,
    trace: &mut Vec<TraceKey>,
) -> u64 {
    let mut handled = 0;
    while cell.queue.peek_time().is_some_and(|t| t < bound) {
        let entry: Entry<S::Event> = cell.queue.pop_entry().expect("peeked entry vanished");
        let (origin, seq) = unpack_key(entry.key);
        trace.push((entry.time.as_secs().to_bits(), origin, seq));
        let now = entry.time;
        let mut ctx = ShardCtx {
            now,
            shard: cell.id,
            lookahead,
            queue: &mut cell.queue,
            outbox,
        };
        cell.state.handle(now, entry.event, &mut ctx);
        handled += 1;
    }
    handled
}

/// Drains `engine` under `sched`, returning per-shard traces plus the
/// event, round and wire counts (`threads` is the schedule's worker count).
/// The round protocol mirrors `ShardEngine::run_parallel`: the
/// round minimum covers the queues and the wires in flight, the window is
/// `[T, T + lookahead)`, a worker merges the batches published to it when
/// it starts a round (or, under early delivery, they were merged as soon as
/// they were published), and a worker's wires to its own shards merge
/// right after its windows.
pub fn run_traced<S: ShardLogic>(
    engine: &mut ShardEngine<S>,
    sched: &Schedule,
) -> (Vec<Vec<TraceKey>>, EngineStats) {
    let shards = engine.cells.len();
    assert_eq!(
        sched.assignment.len(),
        shards,
        "schedule assigns {} shards, engine has {shards}",
        sched.assignment.len()
    );
    assert!(
        sched.assignment.iter().all(|&w| w < sched.workers),
        "assignment names a worker >= workers: {sched:?}"
    );
    let lookahead = engine.lookahead;
    let mut traces: Vec<Vec<TraceKey>> = vec![Vec::new(); shards];
    let mut outbox: Vec<Wire<S::Event>> = Vec::new();
    // `inbound[w]`: batches published for worker `w` last round, merged
    // when `w` starts this round. `published[w]`: this round's, held back
    // for the next round unless delivery is early.
    let mut inbound: Vec<Vec<Wire<S::Event>>> = (0..sched.workers).map(|_| Vec::new()).collect();
    let mut published: Vec<Vec<_>> = (0..sched.workers).map(|_| Vec::new()).collect();
    let mut stats = EngineStats {
        threads: sched.workers,
        ..EngineStats::default()
    };
    let merge = |engine: &mut ShardEngine<S>, mut wires: Vec<Wire<S::Event>>| {
        if sched.reverse_delivery {
            wires.reverse();
        }
        for wire in wires {
            engine.cells[wire.to as usize].queue.insert_wire(wire);
        }
    };
    loop {
        let flying = inbound.iter().flatten().map(|w| w.time).min();
        let Some(t_min) = queue_min(&engine.cells).into_iter().chain(flying).min() else {
            break;
        };
        let bound = t_min + lookahead;
        let order = sched.wake_order(stats.rounds);
        stats.rounds += 1;
        for &worker in &order {
            merge(engine, std::mem::take(&mut inbound[worker]));
            let mut owned: Vec<usize> = (0..shards)
                .filter(|&s| sched.assignment[s] == worker)
                .collect();
            if sched.reverse_local {
                owned.reverse();
            }
            for s in owned {
                let cell = &mut engine.cells[s];
                let trace = &mut traces[s];
                stats.events += run_window_traced(cell, bound, lookahead, &mut outbox, trace);
            }
            stats.wires += outbox.len() as u64;
            let mut now = Vec::new();
            for wire in outbox.drain(..) {
                let dest = sched.assignment[wire.to as usize];
                if dest == worker || sched.early_delivery {
                    now.push(wire);
                } else {
                    published[dest].push(wire);
                }
            }
            merge(engine, now);
        }
        // Every worker took its inbound batches this round.
        std::mem::swap(&mut inbound, &mut published);
    }
    stats.end_time = engine
        .cells
        .iter()
        .map(|c| c.queue.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    (traces, stats)
}

/// All permutations of `0..n`, in a deterministic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn recurse(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            recurse(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    recurse(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

/// All `workers^shards` shard-to-worker assignments.
fn assignments(shards: usize, workers: usize) -> Vec<Vec<usize>> {
    let mut out = vec![vec![0; shards]];
    for s in 0..shards {
        out = out
            .into_iter()
            .flat_map(|base| {
                (0..workers).map(move |w| {
                    let mut a = base.clone();
                    a[s] = w;
                    a
                })
            })
            .collect();
    }
    out
}

/// Locates the first divergence between two trace sets and panics with a
/// message naming the shard, position, keys, and the offending schedule.
fn assert_traces_equal(reference: &[Vec<TraceKey>], got: &[Vec<TraceKey>], sched: &Schedule) {
    if reference == got {
        return;
    }
    for (shard, (r, g)) in reference.iter().zip(got).enumerate() {
        if r == g {
            continue;
        }
        let at = r.iter().zip(g).position(|(a, b)| a != b).unwrap_or(r.len().min(g.len()));
        panic!(
            "schedule diverged from the serial engine: shard {shard}, pop #{at}: \
             expected {:?}, got {:?} (lengths {} vs {}) under {sched:?}",
            r.get(at),
            g.get(at),
            r.len(),
            g.len(),
        );
    }
    panic!("schedule diverged from the serial engine (shard count) under {sched:?}");
}

/// Runs the workload produced by `build` under **every** schedule up to
/// `max_workers` workers — all shard-to-worker assignments × all wake
/// orders (every static permutation plus every rotation offset) × forward
/// and reversed local order × forward and reversed delivery order × late
/// and early delivery — and asserts every trace equals the identity
/// schedule's, which is itself anchored to the production serial path by
/// event, round and wire counts.
///
/// `build` must return a freshly seeded engine each call; all runs must
/// start from the same initial state or the comparison is meaningless.
///
/// # Panics
/// Panics if any schedule's trace diverges, if the identity schedule
/// disagrees with [`ShardEngine::run_with`]`(1)`, if the workload is
/// empty, or if the schedule space would be infeasibly large (shards or
/// `max_workers` above 4).
pub fn explore_schedules<S, F>(build: F, max_workers: usize) -> Report
where
    S: ShardLogic,
    F: Fn() -> ShardEngine<S>,
{
    let shards = build().cells.len();
    assert!(
        (1..=4).contains(&shards) && (1..=4).contains(&max_workers),
        "exhaustive exploration is exponential; keep shards and max_workers <= 4 \
         (got {shards} shards, {max_workers} workers)"
    );

    // Anchor: the traced identity schedule must agree with the production
    // serial engine on what it did, so "identical to the identity trace"
    // below means "identical to the serial engine".
    let mut anchor = build();
    let serial = anchor.run_with(1);
    assert!(serial.events > 0, "workload schedules no events");
    let mut reference_engine = build();
    let (reference, ref_stats) = run_traced(&mut reference_engine, &Schedule::identity(shards));
    let counters = |s: &EngineStats| (s.events, s.rounds, s.wires);
    assert_eq!(
        counters(&ref_stats),
        counters(&serial),
        "traced identity schedule disagrees with the production serial engine"
    );

    let mut schedules = 0usize;
    for workers in 1..=max_workers {
        let mut wakes: Vec<Wake> = permutations(workers).into_iter().map(Wake::Static).collect();
        wakes.extend((0..workers).map(Wake::Rotating));
        for assignment in assignments(shards, workers) {
            for wake in &wakes {
                for reverse_local in [false, true] {
                    for reverse_delivery in [false, true] {
                        for early_delivery in [false, true] {
                            let sched = Schedule {
                                workers,
                                assignment: assignment.clone(),
                                wake: wake.clone(),
                                reverse_local,
                                reverse_delivery,
                                early_delivery,
                            };
                            let mut engine = build();
                            let (traces, stats) = run_traced(&mut engine, &sched);
                            assert_traces_equal(&reference, &traces, &sched);
                            assert_eq!(
                                counters(&stats),
                                counters(&ref_stats),
                                "schedule diverged from the serial engine (counters) \
                                 under {sched:?}"
                            );
                            schedules += 1;
                        }
                    }
                }
            }
        }
    }
    Report {
        shards,
        max_workers,
        schedules,
        events: ref_stats.events,
        rounds: ref_stats.rounds,
        wires: ref_stats.wires,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Expected schedule count: Σ_{w=1..max} wᵈ · (w! + w) · 8, for d
    /// shards — assignments × (static perms + rotation offsets) × local
    /// reversal × delivery reversal × early delivery.
    fn expected_schedules(shards: usize, max_workers: usize) -> usize {
        let factorial = |n: usize| (1..=n).product::<usize>();
        (1..=max_workers)
            .map(|w| w.pow(shards as u32) * (factorial(w) + w) * 8)
            .sum()
    }

    /// Workload A — *horizon-boundary ties*. Every event at `t` broadcasts
    /// to both other shards with delay exactly `lookahead`, so arrivals
    /// land precisely on the horizon boundary `t + L`; each shard also
    /// self-schedules at that same instant, manufacturing three-way
    /// same-timestamp ties (two remote origins + one local) at every
    /// boundary. Seeds at `0` and `L` add first-round ties on top.
    struct Boundary {
        hops: u32,
    }

    impl ShardLogic for Boundary {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.hops = self.hops.max(hops);
            if hops == 0 {
                return;
            }
            let lookahead = ctx.lookahead();
            let me = ctx.shard();
            for other in 0..3 {
                if other != me {
                    // Exactly the lookahead: the arrival timestamp equals
                    // the bound of the round that opened at `now`.
                    ctx.send(other, lookahead, hops - 1);
                }
            }
            ctx.schedule_at(now + lookahead, hops - 1);
        }
    }

    fn boundary_engine() -> ShardEngine<Boundary> {
        let lookahead = SimTime::from_micros(50.0);
        let states = (0..3).map(|_| Boundary { hops: 0 }).collect();
        let mut engine = ShardEngine::new(states, lookahead);
        for shard in 0..3 {
            engine.schedule(shard, SimTime::ZERO, 3);
            engine.schedule(shard, lookahead, 2);
        }
        engine
    }

    #[test]
    fn shardcheck_boundary_ties() {
        let report = explore_schedules(boundary_engine, 3);
        assert_eq!(report.schedules, expected_schedules(3, 3));
        assert_eq!(report.schedules, 2216);
        assert!(report.events > 100, "workload too small: {report:?}");
        assert!(report.rounds >= 4, "{report:?}");
    }

    /// Workload B — *tie-heavy discrete grid*. Two shards, every
    /// timestamp an integer multiple of the lookahead. Events fork a
    /// same-instant local cascade (`schedule_at(now)`) and ping-pong
    /// cross-shard at 1× and 2× the lookahead depending on payload
    /// parity, so rounds are fat with intra-window same-time pops.
    struct Grid;

    impl ShardLogic for Grid {
        type Event = (u32, bool);
        fn handle(&mut self, now: SimTime, (hops, fork): (u32, bool), ctx: &mut ShardCtx<'_, (u32, bool)>) {
            if hops == 0 {
                return;
            }
            let lookahead = ctx.lookahead();
            if fork {
                // Same-instant cascade: pops later in the same window.
                ctx.schedule_at(now, (hops - 1, false));
            }
            let delay = if hops % 2 == 0 { lookahead } else { lookahead * 2.0 };
            ctx.send(1 - ctx.shard(), delay, (hops - 1, true));
        }
    }

    fn grid_engine() -> ShardEngine<Grid> {
        let lookahead = SimTime::from_micros(100.0);
        let mut engine = ShardEngine::new(vec![Grid, Grid], lookahead);
        for shard in 0..2 {
            for k in 0..3u32 {
                engine.schedule(shard, lookahead * k as f64, (4, true));
            }
        }
        engine
    }

    #[test]
    fn shardcheck_tie_heavy_grid() {
        let report = explore_schedules(grid_engine, 2);
        assert_eq!(report.schedules, expected_schedules(2, 2));
        assert_eq!(report.schedules, 144);
        assert!(report.events > 40, "workload too small: {report:?}");
    }

    /// Workload C — *hot-shard ping-pong*. Shard 0 is seeded an order of
    /// magnitude hotter than shards 1–2 and exchanges messages with both;
    /// follow-ups land off-grid inside the window (`now + L/2`), so
    /// windows interleave local and remote pops asymmetrically across
    /// shards — the shape the real service (frontend + server shards)
    /// produces.
    struct HotSpot {
        handled: u64,
    }

    impl ShardLogic for HotSpot {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
            self.handled += 1;
            if hops == 0 {
                return;
            }
            let lookahead = ctx.lookahead();
            let me = ctx.shard();
            if me == 0 {
                // Fan out to a server shard chosen by the hop counter.
                ctx.send(1 + (hops as usize % 2), lookahead, hops - 1);
                ctx.schedule_at(now + lookahead * 0.5, hops.saturating_sub(2));
            } else {
                // Reply to the frontend.
                ctx.send(0, lookahead, hops - 1);
            }
        }
    }

    fn hotspot_engine() -> ShardEngine<HotSpot> {
        let lookahead = SimTime::from_micros(50.0);
        let states = (0..3).map(|_| HotSpot { handled: 0 }).collect();
        let mut engine = ShardEngine::new(states, lookahead);
        for k in 0..10u32 {
            engine.schedule(0, SimTime::from_micros(k as f64 * 5.0), 4);
        }
        engine.schedule(1, SimTime::ZERO, 2);
        engine.schedule(2, lookahead, 2);
        engine
    }

    #[test]
    fn shardcheck_hot_shard_pingpong() {
        let report = explore_schedules(hotspot_engine, 3);
        assert_eq!(report.schedules, expected_schedules(3, 3));
        assert!(report.events > 60, "workload too small: {report:?}");
    }

    /// Workload D — *early wire in flight*. Each shard answers a message
    /// with a reply at exactly the lookahead, and also schedules a local
    /// event half a lookahead after the reply lands; shard 1 holds a far
    /// event from the start. So when the two shards sit on different
    /// workers, a round ends with the reply published but not yet merged,
    /// earlier than everything queued, while no queue is empty: the round
    /// minimum is right only if it counts wires in flight as well as
    /// queues.
    struct EarlyWire;

    impl ShardLogic for EarlyWire {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
            if hops == 0 {
                return;
            }
            let lookahead = ctx.lookahead();
            ctx.send(1 - ctx.shard(), lookahead, hops - 1);
            ctx.schedule_at(now + lookahead * 1.5, 0);
        }
    }

    fn early_wire_engine() -> ShardEngine<EarlyWire> {
        let lookahead = SimTime::from_micros(50.0);
        let mut engine = ShardEngine::new(vec![EarlyWire, EarlyWire], lookahead);
        engine.schedule(0, SimTime::ZERO, 8);
        engine.schedule(1, lookahead * 100.0, 0);
        engine
    }

    #[test]
    fn shardcheck_early_wire_in_flight() {
        let report = explore_schedules(early_wire_engine, 2);
        assert_eq!(report.schedules, expected_schedules(2, 2));
        assert!(report.rounds >= 8, "{report:?}");
    }

    /// Meta-test: the checker must *discriminate*, not just pass. This
    /// logic leaks execution order through a counter shared across shards
    /// (the exact bug class the engine's design forbids): the counter's
    /// interleaving depends on which shard's window runs first, and the
    /// leak feeds back into event *timing*. Some explored wake order must
    /// therefore produce a different trace and panic.
    struct OrderLeak {
        shared: Arc<AtomicU64>,
    }

    impl ShardLogic for OrderLeak {
        type Event = u32;
        fn handle(&mut self, now: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
            let stamp = self.shared.fetch_add(1, Ordering::SeqCst);
            if hops == 0 {
                return;
            }
            let lookahead = ctx.lookahead();
            // The follow-up's timestamp depends on the global interleaving.
            let jitter = lookahead * (0.1 * (stamp % 4) as f64);
            ctx.schedule_at(now + lookahead + jitter, hops - 1);
            ctx.send(1 - ctx.shard(), lookahead, hops - 1);
        }
    }

    #[test]
    #[should_panic(expected = "schedule diverged")]
    fn shardcheck_catches_execution_order_leak() {
        let build = || {
            let shared = Arc::new(AtomicU64::new(0));
            let states = (0..2)
                .map(|_| OrderLeak {
                    shared: Arc::clone(&shared),
                })
                .collect();
            let mut engine = ShardEngine::new(states, SimTime::from_micros(50.0));
            engine.schedule(0, SimTime::ZERO, 4);
            engine.schedule(1, SimTime::ZERO, 4);
            engine
        };
        explore_schedules(build, 2);
    }

    #[test]
    fn permutations_and_assignments_are_exhaustive() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(1), vec![vec![0]]);
        let a = assignments(2, 3);
        assert_eq!(a.len(), 9);
        assert!(a.contains(&vec![2, 0]));
        assert_eq!(expected_schedules(3, 3), 2216);
    }
}
