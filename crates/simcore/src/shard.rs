//! Sharded, conservatively-synchronized parallel event engine.
//!
//! [`EventQueue`](crate::event::EventQueue) executes one simulation on one
//! core; [`Runner`](crate::runner::Runner) only parallelizes *across*
//! independent runs. This module parallelizes *within* a single run: the
//! simulation is partitioned into shards (one per frontend lane and one per
//! server group, in the storage service), each owning a private event
//! queue, and shards interact only through timestamped cross-shard messages
//! carrying at least `lookahead` of delay — in the storage service the
//! cancellation/propagation delay plays that role.
//!
//! Synchronization is conservative and round-based (in the spirit of
//! YAWNS / bounded-lag windows): every round computes the global minimum
//! pending timestamp `T` and lets each shard process its events in
//! `[T, T + lookahead)` without further coordination. Any message emitted
//! by such an event arrives no earlier than `T + lookahead` — outside the
//! window — so no shard can receive a straggler into its past.
//!
//! **Determinism is the contract.** Every entry — locally scheduled or
//! received from another shard — carries the key
//! `(time, origin shard, origin sequence)`; per-shard pop order is the
//! total order on that key. Senders stamp messages from their own
//! monotonic counter, so the key multiset a shard drains is a pure
//! function of the simulation, never of thread interleaving. Output is
//! **bit-identical at any thread count**, the workspace's signature
//! invariant; `run(1)` uses a plain sequential loop and is the reference
//! path, and CI byte-diffs `--threads 1/3/8` result trees.
//!
//! A simulation that gives each logical actor its own shard, as the storage
//! service does, gets actor-level determinism with no extra bookkeeping:
//! the origin *is* the actor and the sequence is its own counter, so the
//! merge key is a pure function of the logical simulation.
//!
//! Worker threads are leased from the process-wide
//! [`thread budget`](crate::runner::lease_threads), so engine shards
//! compose with `Runner` task fan-out without oversubscribing.

use crate::heap::Heap4;
use crate::runner::lease_threads;
use crate::time::SimTime;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

pub mod check;

/// `f64` bit pattern of positive infinity: the "no pending events" sentinel
/// in the round-minimum slots. For non-negative floats the `u64` bit
/// patterns order identically to the values, so `fetch_min` on bits is a
/// min over times.
const INF_BITS: u64 = 0x7FF0_0000_0000_0000;

struct Entry<E> {
    time: SimTime,
    origin: u32,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.origin == other.origin && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed for the max-heap: earliest time first, then the stable
        // (origin shard, origin sequence) tie-break. The key is assigned at
        // *send/schedule* time by the originator, so the order is a pure
        // function of the simulation, independent of delivery interleaving.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.origin.cmp(&self.origin))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A cross-shard message in flight: an [`Entry`] plus its destination.
struct Wire<E> {
    to: u32,
    time: SimTime,
    origin: u32,
    seq: u64,
    event: E,
}

/// A per-shard future-event list ordered by `(time, origin, seq)`.
///
/// Like [`EventQueue`](crate::event::EventQueue) but with the origin shard
/// in the key, so entries merged in from other shards land in a
/// deterministic position among simultaneous local events. Local pushes
/// and outgoing sends draw from one per-shard sequence counter.
pub struct ShardQueue<E> {
    heap: Heap4<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    shard: u32,
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue for shard `shard` with the clock at zero.
    pub fn new(shard: u32) -> Self {
        Self::with_capacity(shard, 0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(shard: u32, cap: usize) -> Self {
        ShardQueue {
            heap: Heap4::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            shard,
        }
    }

    /// The shard id this queue belongs to.
    #[inline]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The time of the most recently popped event (the shard's clock).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules a local event at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the shard clock.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.take_seq();
        self.heap.push(Entry {
            time: at,
            origin: self.shard,
            seq,
            event,
        });
    }

    /// Schedules a local event at `now() + delay`.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        let at = self.now + delay;
        self.push(at, event);
    }

    /// Pushes an entry under an explicit `(origin, seq)` merge key instead
    /// of this shard's id and counter.
    ///
    /// A queue-level primitive for callers that drive a [`ShardQueue`]
    /// directly with keys they already hold — the benchmark package's
    /// queue replay (`crates/bench/examples/llr_bench`) feeds recorded
    /// entries through it. Engine simulations schedule through
    /// [`ShardCtx`], which stamps this shard's own key. Callers own key
    /// uniqueness.
    ///
    /// # Panics
    /// Panics if `at` precedes the shard clock.
    pub fn push_keyed(&mut self, at: SimTime, origin: u32, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.heap.push(Entry {
            time: at,
            origin,
            seq,
            event,
        });
    }

    /// Claims the next sequence number (shared between local pushes and
    /// outgoing cross-shard sends, so the merge key stays totally ordered
    /// per origin).
    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Merges an incoming cross-shard entry, keeping the sender's key.
    fn insert_wire(&mut self, w: Wire<E>) {
        debug_assert_eq!(w.to, self.shard);
        assert!(
            w.time >= self.now,
            "cross-shard message into the past: at={} now={}",
            w.time,
            self.now
        );
        self.heap.push(Entry {
            time: w.time,
            origin: w.origin,
            seq: w.seq,
            event: w.event,
        });
    }

    /// Removes and returns the earliest entry by `(time, origin, seq)`,
    /// advancing the shard clock. `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.pop_entry()?;
        Some((entry.time, entry.event))
    }

    /// [`ShardQueue::pop`] keeping the full `(time, origin, seq)` merge
    /// key — the schedule-exploration checker ([`check`]) traces these
    /// keys to prove pop order is schedule-independent.
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap returned a past event");
        self.now = entry.time;
        self.popped += 1;
        Some(entry)
    }

    /// Timestamp of the next entry without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

impl<E> std::fmt::Debug for ShardQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardQueue")
            .field("shard", &self.shard)
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.popped)
            .finish()
    }
}

/// Per-shard simulation logic: a state machine fed timestamped events.
pub trait ShardLogic: Send {
    /// The event type exchanged within and between shards.
    type Event: Send;

    /// Handles one event at simulated time `now`. Schedule follow-ups on
    /// this shard or send cross-shard messages through `ctx`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

/// The scheduling interface handed to [`ShardLogic::handle`].
pub struct ShardCtx<'a, E> {
    now: SimTime,
    shard: u32,
    lookahead: SimTime,
    queue: &'a mut ShardQueue<E>,
    outbox: &'a mut Vec<Wire<E>>,
}

impl<E> ShardCtx<'_, E> {
    /// The current simulated time (the handled event's timestamp).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This shard's id.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The engine's lookahead window.
    #[inline]
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Schedules a local event at absolute time `at` (≥ `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Schedules a local event `delay` after `now`.
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Sends `event` to shard `to`, arriving at `now + delay`.
    ///
    /// # Panics
    /// Panics if `delay` is below the engine lookahead (that would let a
    /// message land inside the current synchronization window and break
    /// the conservative-parallelism guarantee) or if `to` is this shard
    /// (use [`ShardCtx::schedule_after`], which has no lookahead floor).
    pub fn send(&mut self, to: usize, delay: SimTime, event: E) {
        assert!(
            delay >= self.lookahead,
            "cross-shard delay {delay} below lookahead {}",
            self.lookahead
        );
        assert!(
            to as u32 != self.shard,
            "shard {to} sending to itself; use schedule_after"
        );
        let seq = self.queue.take_seq();
        self.outbox.push(Wire {
            to: to as u32,
            time: self.now + delay,
            origin: self.shard,
            seq,
            event,
        });
    }
}

/// Counters describing one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Total events handled across all shards.
    pub events: u64,
    /// Synchronization rounds executed (identical at every thread count).
    pub rounds: u64,
    /// Worker threads actually used (after the process-wide budget lease).
    pub threads: usize,
    /// The latest shard clock when the engine drained.
    pub end_time: SimTime,
}

struct Cell<S: ShardLogic> {
    id: u32,
    state: S,
    queue: ShardQueue<S::Event>,
}

/// Runs `cell`'s events with timestamps strictly below `bound`, appending
/// cross-shard sends to `outbox`. Returns the number of events handled.
fn run_window<S: ShardLogic>(
    cell: &mut Cell<S>,
    bound: SimTime,
    lookahead: SimTime,
    outbox: &mut Vec<Wire<S::Event>>,
) -> u64 {
    let mut handled = 0;
    while cell.queue.peek_time().is_some_and(|t| t < bound) {
        let (now, event) = cell.queue.pop().expect("peeked entry vanished");
        let mut ctx = ShardCtx {
            now,
            shard: cell.id,
            lookahead,
            queue: &mut cell.queue,
            outbox,
        };
        cell.state.handle(now, event, &mut ctx);
        handled += 1;
    }
    handled
}

/// A sense-reversing barrier that spins briefly then yields — cheap at the
/// 2-barriers-per-round rate this engine runs at, and well-behaved when the
/// process-wide budget oversubscribes physical cores.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A sharded discrete-event engine with conservative round-based
/// synchronization. See the module docs for the protocol and the
/// determinism argument.
pub struct ShardEngine<S: ShardLogic> {
    cells: Vec<Cell<S>>,
    lookahead: SimTime,
}

impl<S: ShardLogic> ShardEngine<S> {
    /// Builds an engine with one shard per element of `states`.
    ///
    /// `lookahead` must be positive and finite: every cross-shard message
    /// must carry at least this much delay, and it is the width of the
    /// synchronization window (larger lookahead ⇒ fewer, fatter rounds).
    ///
    /// # Panics
    /// Panics if `states` is empty or `lookahead` is not positive/finite.
    pub fn new(states: Vec<S>, lookahead: SimTime) -> Self {
        assert!(!states.is_empty(), "engine needs at least one shard");
        assert!(
            lookahead > SimTime::ZERO && lookahead.is_finite(),
            "lookahead must be positive and finite, got {lookahead}"
        );
        assert!(states.len() <= u32::MAX as usize, "too many shards");
        let cells = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| Cell {
                id: i as u32,
                state,
                queue: ShardQueue::new(i as u32),
            })
            .collect();
        ShardEngine { cells, lookahead }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The lookahead window.
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Pre-allocates `cap` heap slots on shard `shard`'s queue.
    pub fn reserve(&mut self, shard: usize, cap: usize) {
        self.cells[shard].queue.heap.reserve(cap);
    }

    /// Seeds an initial event on `shard` at absolute time `at`. Only valid
    /// before [`ShardEngine::run`].
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: S::Event) {
        self.cells[shard].queue.push(at, event);
    }

    /// Shared access to a shard's state (e.g. for inspection in tests).
    pub fn state(&self, shard: usize) -> &S {
        &self.cells[shard].state
    }

    /// Consumes the engine, returning the shard states in shard order.
    pub fn into_states(self) -> Vec<S> {
        self.cells.into_iter().map(|c| c.state).collect()
    }

    /// Drains all events. `threads` is the *desired* worker count; the
    /// actual count is clamped by the shard count and leased from the
    /// process-wide budget (see [`crate::runner::lease_threads`]), and is
    /// reported in [`EngineStats::threads`]. Results are bit-identical
    /// regardless of the value used.
    pub fn run(&mut self, threads: usize) -> EngineStats {
        let want = threads.clamp(1, self.cells.len());
        let lease = lease_threads(want);
        let workers = lease.threads().min(self.cells.len());
        self.run_with(workers)
    }

    /// Like [`ShardEngine::run`] but with exactly `workers` engine workers
    /// (clamped to the shard count), bypassing the process-wide thread
    /// budget. For tests and benchmarks that must exercise a specific
    /// worker count regardless of the machine; simulations should call
    /// [`ShardEngine::run`].
    pub fn run_with(&mut self, workers: usize) -> EngineStats {
        let workers = workers.clamp(1, self.cells.len());
        let (events, rounds) = if workers <= 1 {
            self.run_serial()
        } else {
            self.run_parallel(workers)
        };
        let end_time = self
            .cells
            .iter()
            .map(|c| c.queue.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        EngineStats {
            events,
            rounds,
            threads: workers,
            end_time,
        }
    }

    /// The sequential reference path: same rounds, same windows, one thread.
    fn run_serial(&mut self) -> (u64, u64) {
        let lookahead = self.lookahead;
        let mut outbox: Vec<Wire<S::Event>> = Vec::new();
        let mut events = 0u64;
        let mut rounds = 0u64;
        while let Some(t_min) = self.cells.iter().filter_map(|c| c.queue.peek_time()).min() {
            let bound = t_min + lookahead;
            rounds += 1;
            for cell in &mut self.cells {
                events += run_window(cell, bound, lookahead, &mut outbox);
            }
            for wire in outbox.drain(..) {
                self.cells[wire.to as usize].queue.insert_wire(wire);
            }
        }
        (events, rounds)
    }

    fn run_parallel(&mut self, workers: usize) -> (u64, u64) {
        let lookahead = self.lookahead;
        let shard_count = self.cells.len();
        // Shards are dealt round-robin so a hot low-numbered shard (the
        // service frontend is shard 0) lands alone on a worker when
        // possible; local index of shard `s` on worker `s % workers` is
        // `s / workers`.
        let mut parts: Vec<Vec<Cell<S>>> = (0..workers).map(|_| Vec::new()).collect();
        for cell in std::mem::take(&mut self.cells) {
            parts[cell.id as usize % workers].push(cell);
        }
        let mut senders = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Wire<S::Event>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let barrier = SpinBarrier::new(workers);
        // Ping-pong round-minimum slots indexed by round parity: while one
        // parity is being min-reduced for the current round, the other is
        // reset for the next, so no worker can clobber a value a straggler
        // still needs.
        let round_min = [AtomicU64::new(INF_BITS), AtomicU64::new(INF_BITS)];
        let mut finished: Vec<(Vec<Cell<S>>, u64, u64)> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let barrier = &barrier;
            let round_min = &round_min;
            let handles: Vec<_> = parts
                .into_iter()
                .zip(receivers)
                .map(|(mut cells, rx)| {
                    let senders = senders.clone();
                    scope.spawn(move || {
                        let mut outbox: Vec<Wire<S::Event>> = Vec::new();
                        let mut events = 0u64;
                        let mut rounds = 0u64;
                        let mut parity = 0usize;
                        loop {
                            // Phase 1: drain the inbox (messages routed at
                            // the end of the previous round), then reduce
                            // this worker's minimum pending time.
                            for wire in rx.try_iter() {
                                let local = wire.to as usize / workers;
                                cells[local].queue.insert_wire(wire);
                            }
                            let local_min = cells
                                .iter()
                                .filter_map(|c| c.queue.peek_time())
                                .min()
                                .map_or(INF_BITS, |t| t.as_secs().to_bits());
                            round_min[parity].fetch_min(local_min, Ordering::SeqCst);
                            barrier.wait();
                            let global_min = round_min[parity].load(Ordering::SeqCst);
                            if global_min == INF_BITS {
                                // Every queue is empty and (because sends
                                // precede the previous barrier) no message
                                // is in flight: drained.
                                break;
                            }
                            // Phase 2: everyone agrees on the window; run
                            // it, route sends, and reset the other parity
                            // slot for the next round.
                            let bound =
                                SimTime::from_secs(f64::from_bits(global_min)) + lookahead;
                            rounds += 1;
                            for cell in &mut cells {
                                events += run_window(cell, bound, lookahead, &mut outbox);
                            }
                            for wire in outbox.drain(..) {
                                let dest = wire.to as usize % workers;
                                senders[dest].send(wire).expect("engine worker hung up");
                            }
                            round_min[1 - parity].store(INF_BITS, Ordering::SeqCst);
                            barrier.wait();
                            parity = 1 - parity;
                        }
                        (cells, events, rounds)
                    })
                })
                .collect();
            drop(senders);
            for h in handles {
                finished.push(h.join().expect("engine worker panicked"));
            }
        });
        let mut events = 0u64;
        let mut rounds = 0u64;
        let mut cells: Vec<Cell<S>> = Vec::with_capacity(shard_count);
        for (part, ev, rd) in finished {
            events += ev;
            rounds = rounds.max(rd);
            cells.extend(part);
        }
        cells.sort_unstable_by_key(|c| c.id);
        self.cells = cells;
        (events, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// A shard that logs everything it handles and forwards according to a
    /// tiny scripted rule, exercising local scheduling, ties, and sends.
    struct Echo {
        log: Vec<(u64, u32)>, // (time in microseconds, payload)
        peers: usize,
    }

    #[derive(Clone, Copy)]
    struct Msg {
        payload: u32,
        hops: u32,
    }

    impl ShardLogic for Echo {
        type Event = Msg;
        fn handle(&mut self, now: SimTime, m: Msg, ctx: &mut ShardCtx<'_, Msg>) {
            self.log
                .push(((now.as_secs() * 1e6).round() as u64, m.payload));
            if m.hops == 0 {
                return;
            }
            let next = Msg {
                payload: m.payload.wrapping_mul(31).wrapping_add(ctx.shard() as u32),
                hops: m.hops - 1,
            };
            let to = (ctx.shard() + 1 + m.payload as usize) % self.peers;
            if to == ctx.shard() {
                ctx.schedule_after(SimTime::from_micros(7.0), next);
            } else {
                // Exactly the lookahead: lands on the horizon boundary.
                ctx.send(to, ctx.lookahead(), next);
            }
        }
    }

    fn echo_run(shards: usize, threads: usize, seeds: u64) -> Vec<Vec<(u64, u32)>> {
        let states = (0..shards)
            .map(|_| Echo {
                log: Vec::new(),
                peers: shards,
            })
            .collect();
        let mut engine = ShardEngine::new(states, SimTime::from_micros(50.0));
        let mut rng = Rng::seed_from(seeds);
        for i in 0..64 {
            let shard = rng.index(shards);
            let at = SimTime::from_micros(rng.index(40) as f64);
            engine.schedule(
                shard,
                at,
                Msg {
                    payload: i,
                    hops: 5,
                },
            );
        }
        engine.run_with(threads);
        engine.into_states().into_iter().map(|s| s.log).collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        for shards in [1, 2, 3, 7] {
            let reference = echo_run(shards, 1, 42);
            for threads in [2, 3, 8] {
                assert_eq!(reference, echo_run(shards, threads, 42), "shards={shards}");
            }
        }
    }

    #[test]
    fn stats_identical_at_any_thread_count() {
        let build = || {
            let states = (0..5)
                .map(|_| Echo {
                    log: Vec::new(),
                    peers: 5,
                })
                .collect();
            let mut engine = ShardEngine::new(states, SimTime::from_micros(50.0));
            for i in 0..10u32 {
                engine.schedule(
                    (i % 5) as usize,
                    SimTime::from_micros(i as f64),
                    Msg {
                        payload: i,
                        hops: 8,
                    },
                );
            }
            engine
        };
        let a = build().run_with(1);
        let b = build().run_with(4);
        assert_eq!(a.events, b.events);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.end_time, b.end_time);
        assert!(a.events > 0 && a.rounds > 0);
    }

    #[test]
    fn single_shard_degenerates_to_event_queue_order() {
        // One shard, no sends: pop order must match EventQueue exactly,
        // including FIFO ties.
        struct Sink {
            log: Vec<u32>,
        }
        impl ShardLogic for Sink {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, _ctx: &mut ShardCtx<'_, u32>) {
                self.log.push(ev);
            }
        }
        let mut rng = Rng::seed_from(7);
        let schedule: Vec<(SimTime, u32)> = (0..500)
            .map(|i| (SimTime::from_micros(rng.index(50) as f64), i))
            .collect();
        let mut q = crate::event::EventQueue::new();
        let mut engine = ShardEngine::new(vec![Sink { log: Vec::new() }], SimTime::from_secs(1.0));
        for &(at, v) in &schedule {
            q.push(at, v);
            engine.schedule(0, at, v);
        }
        let expected: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        engine.run(1);
        assert_eq!(engine.state(0).log, expected);
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn short_cross_shard_delay_panics() {
        struct Bad;
        impl ShardLogic for Bad {
            type Event = ();
            fn handle(&mut self, _now: SimTime, _ev: (), ctx: &mut ShardCtx<'_, ()>) {
                ctx.send(1, SimTime::from_micros(1.0), ());
            }
        }
        let mut engine = ShardEngine::new(vec![Bad, Bad], SimTime::from_micros(50.0));
        engine.schedule(0, SimTime::ZERO, ());
        engine.run(1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_engine_panics() {
        struct Never;
        impl ShardLogic for Never {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut ShardCtx<'_, ()>) {}
        }
        let _ = ShardEngine::<Never>::new(Vec::new(), SimTime::from_secs(1.0));
    }
}
