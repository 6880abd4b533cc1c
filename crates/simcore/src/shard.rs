//! Sharded, conservatively-synchronized parallel event engine.
//!
//! [`ShardQueue`] is the workspace's one future-event list. On its own, as
//! shard 0, it is the sequential event loop of the packet simulator and of
//! the disk-cluster and memcached models; [`Runner`](crate::runner::Runner)
//! only parallelizes *across* independent runs. [`ShardEngine`]
//! parallelizes *within* a single run: the
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
//! With several workers, a round costs one barrier. After its windows a
//! worker routes its outbox once: wires to its own shards go straight into
//! their queues, and wires to each other worker are appended as one batch
//! to a per-(sender, receiver) slot that the receiver drains when it starts
//! its next round. The worker then bids for the next round's minimum with
//! the earlier of its queues' minimum and the earliest wire it published,
//! and waits at the barrier. A fast sender may publish while a slow
//! receiver is still starting the current round, so the receiver can merge
//! a wire one round early; that is harmless, because every wire carries a
//! time at or past the current round's bound and cannot pop in it.
//!
//! **Determinism is the contract.** Every entry — locally scheduled or
//! received from another shard — carries the key
//! `(time, origin shard, origin sequence)`; per-shard pop order is the
//! total order on that key. Senders stamp messages from their own
//! monotonic counter, so the key multiset a shard drains is a pure
//! function of the simulation, never of thread interleaving or of the
//! round in which a wire was merged. Output is **bit-identical at any
//! thread count**, the workspace's signature invariant; `run(1)` uses a
//! plain sequential loop and is the reference path, and CI byte-diffs
//! `--threads 1/3/all` result trees.
//!
//! The `(origin, sequence)` tie-break is packed into one `u64`, the origin
//! in the top 24 bits and the sequence in the low 40, so a one-shard entry
//! is no larger than `(time, sequence, event)`. Shard ids must therefore be
//! below 2^24 and a shard may stamp at most 2^40 keys; both limits are
//! checked, so a key can never spill into the next origin's range.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod check;

/// `f64` bit pattern of positive infinity: the "no pending events" sentinel
/// in the round-minimum slots. For non-negative floats the `u64` bit
/// patterns order identically to the values, so `fetch_min` on bits is a
/// min over times.
const INF_BITS: u64 = 0x7FF0_0000_0000_0000;

/// Low bits of the packed merge key that hold the origin's sequence
/// number; the origin shard id takes the 24 bits above them.
const SEQ_BITS: u32 = 40;
/// Exclusive bound on a shard's sequence numbers.
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;
/// Exclusive bound on shard ids (and so on an engine's shard count).
const MAX_SHARDS: usize = 1 << (u64::BITS - SEQ_BITS);

/// Packs `(origin, seq)` into one `u64` that orders as the pair. Callers
/// have checked `origin < MAX_SHARDS` and `seq < SEQ_LIMIT`.
#[inline]
fn pack_key(origin: u32, seq: u64) -> u64 {
    (u64::from(origin) << SEQ_BITS) | seq
}

/// The panic of `ShardQueue::take_key`, kept out of line: an inline
/// `assert!` with a formatted message slowed the packet simulator, which
/// takes a key on every push, by about 3 % (2-vCPU Xeon).
#[cold]
#[inline(never)]
fn sequence_exhausted(shard: u32) -> ! {
    panic!("shard {shard} used up its 2^40 merge-key sequence numbers")
}

/// The `(origin, seq)` pair a packed key was built from.
fn unpack_key(key: u64) -> (u32, u64) {
    ((key >> SEQ_BITS) as u32, key & (SEQ_LIMIT - 1))
}

struct Entry<E> {
    time: SimTime,
    /// [`pack_key`]`(origin shard, origin sequence)`.
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
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
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// A cross-shard message in flight: an [`Entry`] plus its destination.
struct Wire<E> {
    to: u32,
    time: SimTime,
    key: u64,
    event: E,
}

/// A future-event list with a monotonic clock, ordered by
/// `(time, origin, seq)`.
///
/// Entries this queue schedules itself carry its shard id and the next
/// number of its counter, so simultaneous local events pop in insertion
/// order (stable FIFO). The packet simulator depends on that: a packet
/// enqueued before another on the same link at the same instant must also
/// depart first, or per-flow ordering breaks. Entries merged in from other
/// shards keep their sender's key and so land in a deterministic position
/// among simultaneous local events. Local pushes and outgoing sends draw
/// from the one counter. Scheduling before the clock panics instead of
/// silently breaking causality.
///
/// A sequential simulation drives one `ShardQueue::new(0)` directly.
pub struct ShardQueue<E> {
    heap: Heap4<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    shard: u32,
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue for shard `shard` with the clock at zero.
    ///
    /// # Panics
    /// Panics if `shard` is not below 2^24.
    pub fn new(shard: u32) -> Self {
        Self::with_capacity(shard, 0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    ///
    /// # Panics
    /// Panics if `shard` is not below 2^24, the origin field of the key.
    pub fn with_capacity(shard: u32, cap: usize) -> Self {
        assert!(
            (shard as usize) < MAX_SHARDS,
            "shard id {shard} does not fit the 24-bit origin of the merge key"
        );
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
    /// Panics if `at` precedes the shard clock, or if this shard has used
    /// up its 2^40 sequence numbers.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let key = self.take_key();
        self.heap.push(Entry {
            time: at,
            key,
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
    /// Panics if `at` precedes the shard clock, `origin` is not below 2^24
    /// or `seq` is not below 2^40.
    pub fn push_keyed(&mut self, at: SimTime, origin: u32, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        assert!(
            (origin as usize) < MAX_SHARDS,
            "origin {origin} does not fit the 24-bit origin of the merge key"
        );
        assert!(
            seq < SEQ_LIMIT,
            "sequence number {seq} does not fit the 40-bit sequence of the merge key"
        );
        self.heap.push(Entry {
            time: at,
            key: pack_key(origin, seq),
            event,
        });
    }

    /// Claims this shard's next merge key (the counter is shared between
    /// local pushes and outgoing cross-shard sends, so the key stays
    /// totally ordered per origin).
    ///
    /// # Panics
    /// Panics when the counter reaches 2^40 instead of wrapping into the
    /// next origin's keys.
    #[inline]
    fn take_key(&mut self) -> u64 {
        let seq = self.next_seq;
        if seq >= SEQ_LIMIT {
            sequence_exhausted(self.shard);
        }
        self.next_seq += 1;
        pack_key(self.shard, seq)
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
            key: w.key,
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
        let key = self.queue.take_key();
        self.outbox.push(Wire {
            to: to as u32,
            time: self.now + delay,
            key,
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
    /// Cross-shard messages sent (identical at every thread count).
    pub wires: u64,
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

/// The earliest pending time over `cells`' queues, if any.
fn queue_min<S: ShardLogic>(cells: &[Cell<S>]) -> Option<SimTime> {
    cells.iter().filter_map(|c| c.queue.peek_time()).min()
}

/// `time` as round-minimum slot bits ([`INF_BITS`] for `None`).
fn min_bits(time: Option<SimTime>) -> u64 {
    time.map_or(INF_BITS, |t| t.as_secs().to_bits())
}

/// A sense-reversing barrier that spins briefly then yields — cheap at the
/// one-barrier-per-round rate this engine runs at, and well-behaved when the
/// process-wide budget oversubscribes physical cores. A worker that panics
/// poisons it (through [`PoisonOnUnwind`]), and its peers then leave
/// instead of waiting for an arrival that will never come.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    /// Stored with `Release` by an unwinding worker, loaded with `Acquire`
    /// by waiters; it publishes no other data.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Waits for every worker. `false` when the barrier is poisoned: a
    /// peer panicked, and the caller should stop.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                spins = spins.wrapping_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        true
    }
}

/// Poisons its barrier when dropped during a panic, so a worker that
/// unwinds out of a handler releases the peers waiting on it.
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
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
    /// Panics if `states` is empty or holds more than 2^24 shards, or if
    /// `lookahead` is not positive/finite.
    pub fn new(states: Vec<S>, lookahead: SimTime) -> Self {
        assert!(!states.is_empty(), "engine needs at least one shard");
        assert!(
            lookahead > SimTime::ZERO && lookahead.is_finite(),
            "lookahead must be positive and finite, got {lookahead}"
        );
        assert!(
            states.len() <= MAX_SHARDS,
            "too many shards: {} (shard ids must be below 2^24)",
            states.len()
        );
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
    ///
    /// # Panics
    /// Re-raises a shard handler's panic, with its original payload, at
    /// any worker count.
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
        let counts = if workers <= 1 {
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
            threads: workers,
            end_time,
            ..counts
        }
    }

    /// The sequential reference path: same rounds, same windows, one
    /// thread. Returns the event, round and wire counts.
    fn run_serial(&mut self) -> EngineStats {
        let lookahead = self.lookahead;
        let mut outbox: Vec<Wire<S::Event>> = Vec::new();
        let mut counts = EngineStats::default();
        while let Some(t_min) = queue_min(&self.cells) {
            let bound = t_min + lookahead;
            counts.rounds += 1;
            for cell in &mut self.cells {
                counts.events += run_window(cell, bound, lookahead, &mut outbox);
            }
            counts.wires += outbox.len() as u64;
            for wire in outbox.drain(..) {
                self.cells[wire.to as usize].queue.insert_wire(wire);
            }
        }
        counts
    }

    /// The multi-worker path: the round loop of the module docs, one
    /// barrier per round. Returns the event, round and wire counts.
    fn run_parallel(&mut self, workers: usize) -> EngineStats {
        let lookahead = self.lookahead;
        let shard_count = self.cells.len();
        // Shards are dealt round-robin: shard `s` runs on worker
        // `s % workers` at local index `s / workers`. The placement is
        // static and ignores load, so a hot shard shares its worker with
        // every shard congruent to it (in the storage service at 2
        // workers, lane 0 shares worker 0 with half the server groups).
        let mut parts: Vec<Vec<Cell<S>>> = (0..workers).map(|_| Vec::new()).collect();
        for cell in std::mem::take(&mut self.cells) {
            parts[cell.id as usize % workers].push(cell);
        }
        let exchange = Exchange::new(workers);
        let mut finished: Vec<(Vec<Cell<S>>, EngineStats)> = Vec::with_capacity(workers);
        let mut panic = None;
        std::thread::scope(|scope| {
            let exchange = &exchange;
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(me, cells)| scope.spawn(move || run_worker(exchange, me, cells, lookahead)))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(Some(part)) => finished.push(part),
                    // Left a poisoned barrier; the peer's panic is
                    // re-raised below.
                    Ok(None) => {}
                    Err(payload) => {
                        panic.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        let mut counts = EngineStats::default();
        let mut cells: Vec<Cell<S>> = Vec::with_capacity(shard_count);
        for (part, worker) in finished {
            counts.events += worker.events;
            counts.wires += worker.wires;
            counts.rounds = counts.rounds.max(worker.rounds);
            cells.extend(part);
        }
        cells.sort_unstable_by_key(|c| c.id);
        self.cells = cells;
        counts
    }
}

/// What the workers of one multi-worker run share.
struct Exchange<E> {
    workers: usize,
    barrier: SpinBarrier,
    /// Round-minimum bids in three rotating slots. Round `r` reads slot
    /// `r % 3`, bids for round `r + 1` into slot `(r + 1) % 3`, and resets
    /// slot `(r + 2) % 3`: every read of that slot happened before the
    /// barrier that opened round `r`, and no bid lands in it before the
    /// barrier that closes round `r`.
    round_min: [AtomicU64; 3],
    /// `slots[src * workers + dst]`: wires worker `src` published for
    /// worker `dst`'s shards, drained by `dst` when it starts a round.
    /// Senders append, because a slow receiver may not have drained the
    /// previous batch yet; receivers swap the contents out.
    slots: Vec<Mutex<Vec<Wire<E>>>>,
}

impl<E> Exchange<E> {
    fn new(workers: usize) -> Self {
        Exchange {
            workers,
            barrier: SpinBarrier::new(workers),
            round_min: [INF_BITS; 3].map(AtomicU64::new),
            slots: (0..workers * workers)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The wire slot from worker `src` to worker `dst`. No handler runs
    /// under the lock and each update (an append or a swap) leaves the
    /// `Vec` whole, so a poisoned lock is recovered: a second panic here
    /// would only mask the handler's own.
    fn slot(&self, src: usize, dst: usize) -> MutexGuard<'_, Vec<Wire<E>>> {
        self.slots[src * self.workers + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Worker `me`'s round loop over its `cells`: returns them with the
/// worker's event, round and wire counts, or `None` when a peer panicked.
fn run_worker<S: ShardLogic>(
    ex: &Exchange<S::Event>,
    me: usize,
    mut cells: Vec<Cell<S>>,
    lookahead: SimTime,
) -> Option<(Vec<Cell<S>>, EngineStats)> {
    let _poison = PoisonOnUnwind(&ex.barrier);
    let workers = ex.workers;
    let mut outbox: Vec<Wire<S::Event>> = Vec::new();
    let mut inbox: Vec<Wire<S::Event>> = Vec::new();
    let mut batches: Vec<Vec<Wire<S::Event>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut counts = EngineStats::default();
    ex.round_min[0].fetch_min(min_bits(queue_min(&cells)), Ordering::SeqCst);
    if !ex.barrier.wait() {
        return None;
    }
    loop {
        let slot = (counts.rounds % 3) as usize;
        let global_min = ex.round_min[slot].load(Ordering::SeqCst);
        if global_min == INF_BITS {
            // Every bid was empty: no queued event and no wire in flight
            // anywhere. Drained.
            return Some((cells, counts));
        }
        ex.round_min[(slot + 2) % 3].store(INF_BITS, Ordering::SeqCst);
        // Merge what the other workers published since this worker last
        // looked: all of last round's batches, perhaps some of this
        // round's (those are at or past this round's bound).
        for src in (0..workers).filter(|&src| src != me) {
            std::mem::swap(&mut inbox, &mut ex.slot(src, me));
            for wire in inbox.drain(..) {
                cells[wire.to as usize / workers].queue.insert_wire(wire);
            }
        }
        let bound = SimTime::from_secs(f64::from_bits(global_min)) + lookahead;
        counts.rounds += 1;
        for cell in &mut cells {
            counts.events += run_window(cell, bound, lookahead, &mut outbox);
        }
        // Route once: wires for this worker's shards go straight into their
        // queues, the rest out as one batch per destination worker.
        counts.wires += outbox.len() as u64;
        let mut published: Option<SimTime> = None;
        for wire in outbox.drain(..) {
            let dest = wire.to as usize % workers;
            if dest == me {
                cells[wire.to as usize / workers].queue.insert_wire(wire);
            } else {
                published = Some(published.map_or(wire.time, |t| t.min(wire.time)));
                batches[dest].push(wire);
            }
        }
        for (dest, batch) in batches.iter_mut().enumerate() {
            if !batch.is_empty() {
                ex.slot(me, dest).append(batch);
            }
        }
        let bid = queue_min(&cells).into_iter().chain(published).min();
        ex.round_min[(slot + 1) % 3].fetch_min(min_bits(bid), Ordering::SeqCst);
        if !ex.barrier.wait() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// A shard that logs everything it handles and forwards according to a
    /// tiny scripted rule, exercising local scheduling, ties, and sends.
    /// Each forwarding event also sends `fan` leaf messages at 1× and 2× the
    /// lookahead, so a wide fan fills every round's batches with wires.
    struct Echo {
        log: Vec<(u64, u32)>, // (time in microseconds, payload)
        peers: usize,
        fan: u32,
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
            for i in 0..self.fan {
                let leaf = (ctx.shard() + 1 + i as usize) % self.peers;
                if leaf != ctx.shard() {
                    let delay = ctx.lookahead() * f64::from(1 + i % 2);
                    let payload = next.payload ^ (i << 24);
                    ctx.send(leaf, delay, Msg { payload, hops: 0 });
                }
            }
        }
    }

    fn echo_run(shards: usize, fan: u32, threads: usize) -> Vec<Vec<(u64, u32)>> {
        let states = (0..shards)
            .map(|_| Echo {
                log: Vec::new(),
                peers: shards,
                fan,
            })
            .collect();
        let mut engine = ShardEngine::new(states, SimTime::from_micros(50.0));
        let mut rng = Rng::seed_from(42);
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
        // fan 0: one wire per event; fan 12: a dozen leaves per event.
        for fan in [0, 12] {
            for shards in [1, 2, 3, 7] {
                let reference = echo_run(shards, fan, 1);
                for threads in [2, 3, 8] {
                    assert_eq!(
                        reference,
                        echo_run(shards, fan, threads),
                        "shards={shards} fan={fan} threads={threads}"
                    );
                }
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
                    fan: 3,
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
        assert_eq!(a.wires, b.wires);
        assert_eq!(a.end_time, b.end_time);
        assert!(a.events > 0 && a.rounds > 0 && a.wires > 0);
    }

    #[test]
    fn single_shard_degenerates_to_event_queue_order() {
        // One shard, no sends: events pop sorted by time, and ties pop in
        // insertion order.
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
        let mut schedule: Vec<(SimTime, u32)> = (0..500)
            .map(|i| (SimTime::from_micros(rng.index(50) as f64), i))
            .collect();
        let mut engine = ShardEngine::new(vec![Sink { log: Vec::new() }], SimTime::from_secs(1.0));
        for &(at, v) in &schedule {
            engine.schedule(0, at, v);
        }
        engine.run(1);
        // `v` is the insertion index, so this sort is (time, insertion).
        schedule.sort_unstable();
        let expected: Vec<u32> = schedule.iter().map(|&(_, v)| v).collect();
        assert_eq!(engine.state(0).log, expected);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = ShardQueue::new(0);
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3.0));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn push_after_uses_clock() {
        let mut q = ShardQueue::new(0);
        q.push(SimTime::from_secs(5.0), 0);
        q.pop();
        q.push_after(SimTime::from_secs(2.0), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = ShardQueue::new(0);
        q.push(SimTime::from_secs(5.0), ());
        q.pop();
        q.push(SimTime::from_secs(1.0), ());
    }

    #[test]
    #[should_panic(expected = "24-bit origin")]
    fn shard_id_beyond_24_bits_panics() {
        let _ = ShardQueue::<()>::new(1 << 24);
    }

    #[test]
    #[should_panic(expected = "40-bit sequence")]
    fn keyed_seq_beyond_40_bits_panics() {
        let mut q = ShardQueue::new(0);
        q.push_keyed(SimTime::ZERO, 0, 1 << 40, ());
    }

    #[test]
    #[should_panic(expected = "used up its 2^40")]
    fn sequence_counter_panics_instead_of_wrapping() {
        let mut q = ShardQueue::new(3);
        q.next_seq = (1 << 40) - 1;
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
    }

    #[test]
    fn packed_keys_order_as_origin_then_seq() {
        let mut q = ShardQueue::new(0);
        let t = SimTime::from_secs(1.0);
        q.push_keyed(t, 1, 0, "origin 1, seq 0");
        q.push_keyed(t, 0, (1 << 40) - 1, "origin 0, last seq");
        q.push_keyed(t, 0, 0, "origin 0, seq 0");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["origin 0, seq 0", "origin 0, last seq", "origin 1, seq 0"]
        );
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

    #[test]
    #[should_panic(expected = "too many shards")]
    fn shard_count_beyond_24_bits_panics() {
        struct Never;
        impl ShardLogic for Never {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut ShardCtx<'_, ()>) {}
        }
        // A zero-sized state: 2^24 + 1 of them allocate nothing.
        let states = (0..(1 << 24) + 1).map(|_| Never).collect();
        let _ = ShardEngine::<Never>::new(states, SimTime::from_secs(1.0));
    }
}
