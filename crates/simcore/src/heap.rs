//! A 4-ary max-heap specialized for the future-event list.
//!
//! [`ShardQueue`](crate::shard::ShardQueue) spends its time in push+pop
//! pairs over entries with a *total* order (the merge key
//! `(time, origin, seq)` is unique per entry). A 4-ary
//! layout halves the tree depth of the binary heap, turning roughly half of
//! the cache-missing parent/child hops per sift into sibling comparisons
//! that hit the same cache line — the classic d-ary trade (more compares
//! per level, fewer levels) that favors pop-heavy event loops.
//!
//! Correctness note for the workspace's bit-identity contract: because the
//! entry keys are totally ordered (no two entries compare `Equal`), *any*
//! correct heap pops the unique maximum at every step, so the pop sequence
//! is independent of the internal layout. Swapping the binary heap for this
//! one cannot change simulation output, only speed. A randomized test in
//! this module checks exactly that against `std::collections::BinaryHeap`,
//! and the queue-level tests in `shard` check the pop order.

/// The arity. Children of slot `i` live at `4*i + 1 ..= 4*i + 4`; the
/// parent of slot `i > 0` is `(i - 1) / 4`.
const D: usize = 4;

/// A 4-ary max-heap: a drop-in for the subset of
/// `std::collections::BinaryHeap` the event queue uses.
pub struct Heap4<T> {
    data: Vec<T>,
}

impl<T: Ord> Heap4<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap4 { data: Vec::new() }
    }

    /// Creates an empty heap with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Heap4 {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the heap holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserves capacity for at least `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The greatest entry, if any, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// Inserts an entry.
    pub fn push(&mut self, value: T) {
        self.data.push(value);
        self.sift_up(self.data.len() - 1);
    }

    /// Removes and returns the greatest entry, or `None` when empty.
    ///
    /// Uses Floyd's two-pass sift: the vacated root is filled by promoting
    /// the max child unconditionally down to a leaf, then the displaced
    /// last element bubbles back up from there. The element that replaces
    /// the root came from the bottom of the heap, so its final position is
    /// almost always near a leaf — the bounce saves one comparison per
    /// level on the long downward walk and pays only a short upward one.
    ///
    /// Interior levels always have the full fanout, so the child scan
    /// converts the slice to a `&[T; 4]` (letting the compiler drop the
    /// bounds checks) and picks the maximum by pairwise tournament —
    /// `max(max(c0,c1), max(c2,c3))` — whose first two comparisons are
    /// independent, instead of a serial linear scan.
    pub fn pop(&mut self) -> Option<T> {
        let last = self.data.pop()?;
        if self.data.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.data[0], last);
        let len = self.data.len();
        let mut pos = 0usize;
        loop {
            let first_child = D * pos + 1;
            if first_child + D <= len {
                // Full fanout: fixed-size tournament over four children.
                let kids: &[T; D] = self.data[first_child..first_child + D]
                    .try_into()
                    .expect("slice of length D");
                let a = usize::from(kids[1] > kids[0]);
                let b = 2 + usize::from(kids[3] > kids[2]);
                let bi = if kids[b] > kids[a] { b } else { a };
                let best = first_child + bi;
                self.data.swap(pos, best);
                pos = best;
            } else {
                // Ragged last level: up to three children remain.
                if first_child >= len {
                    break;
                }
                let mut best = first_child;
                for c in (first_child + 1)..len {
                    if self.data[c] > self.data[best] {
                        best = c;
                    }
                }
                self.data.swap(pos, best);
                pos = best;
            }
        }
        self.sift_up(pos);
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.data[pos] <= self.data[parent] {
                break;
            }
            self.data.swap(pos, parent);
            pos = parent;
        }
    }
}

impl<T: Ord> Default for Heap4<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Heap4<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap4")
            .field("len", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::collections::BinaryHeap;

    #[test]
    fn matches_binary_heap_on_random_interleaving() {
        // Unique keys (the event queues' situation): pop order must match
        // std's BinaryHeap exactly under a random push/pop interleaving.
        let mut rng = Rng::seed_from(0xD4);
        let mut ours = Heap4::new();
        let mut std_heap = BinaryHeap::new();
        let mut next_key = 0u64;
        for _ in 0..10_000 {
            if std_heap.is_empty() || rng.index(3) > 0 {
                // Coarse time component + unique sequence tie-break.
                let key = (rng.index(64) as u64, u64::MAX - next_key);
                next_key += 1;
                ours.push(key);
                std_heap.push(key);
            } else {
                assert_eq!(ours.pop(), std_heap.pop());
            }
            assert_eq!(ours.peek(), std_heap.peek());
            assert_eq!(ours.len(), std_heap.len());
        }
        while let Some(expect) = std_heap.pop() {
            assert_eq!(ours.pop(), Some(expect));
        }
        assert!(ours.is_empty());
    }

    #[test]
    fn handles_tiny_sizes() {
        let mut h = Heap4::new();
        assert_eq!(h.pop(), None);
        h.push(1);
        assert_eq!(h.peek(), Some(&1));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), None);
        for v in [5, 3, 9, 1, 9 - 2] {
            h.push(v);
        }
        let mut drained = Vec::new();
        while let Some(v) = h.pop() {
            drained.push(v);
        }
        assert_eq!(drained, vec![9, 7, 5, 3, 1]);
    }

    #[test]
    fn clear_and_reserve_work() {
        let mut h = Heap4::with_capacity(8);
        h.reserve(100);
        h.push(2);
        h.push(7);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }
}
