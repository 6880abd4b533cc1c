//! Consistent hashing — the placement substrate of the §2.2 store.
//!
//! The paper: "The files are partitioned across servers via consistent
//! hashing, and two copies are stored of every file: if the primary is
//! stored on server n, the (replicated) secondary goes to server n + 1."
//!
//! [`HashRing`] implements classic Karger-style consistent hashing with
//! virtual nodes. [`HashRing::primary`] gives the owner of a key, and
//! [`HashRing::replicas`] places the copies on the next *distinct*
//! servers clockwise on the ring — the paper's "n, n + 1, …" reading in
//! ring-successor order. An earlier version applied the rule in server
//! *index* space (`(primary + i) % servers`), which broke the whole
//! point of consistent hashing: changing the server count reshuffled
//! nearly every replica set. With the successor walk, resizing the ring
//! only perturbs replica sets whose walk passes a vnode that appeared
//! or vanished.
//!
//! The ring is elastic: [`HashRing::add_server`] and
//! [`HashRing::remove_server`] grow and shrink it one server at a time
//! with minimal key movement. Construction is defined *as* repeated
//! `add_server`, so an incrementally grown ring is bitwise identical to
//! a batch-built one of the same size, and `remove_server` exactly
//! undoes the matching `add_server` (servers join and leave in LIFO
//! index order, the only order the storage layer needs).

/// 64-bit mix used for both vnode positions and key hashes (SplitMix64
/// finalizer — good avalanche, stable across platforms).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping `u64` keys to server indices.
#[derive(Clone, Debug)]
pub struct HashRing {
    servers: usize,
    vnodes: usize,
    /// Sorted `(position, server)` pairs; exactly `servers * vnodes`
    /// entries — position collisions are rehashed, never dropped.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Builds a ring over `servers` nodes with `vnodes` virtual points each.
    ///
    /// Equivalent to an empty ring grown by `servers` calls to
    /// [`HashRing::add_server`].
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(servers: usize, vnodes: usize) -> Self {
        assert!(servers > 0, "ring needs at least one server");
        assert!(vnodes > 0, "ring needs at least one vnode per server");
        let mut ring = HashRing {
            servers: 0,
            vnodes,
            points: Vec::with_capacity(servers * vnodes),
        };
        for _ in 0..servers {
            ring.add_server();
        }
        ring
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Virtual points per server.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Inserts a vnode at `pos` (owned by `server`), rehashing through
    /// [`mix64`] until the position is free. A collision used to be
    /// silently dropped by `dedup_by_key`, so a server could own fewer
    /// points than requested — pathologically zero. The probe chain
    /// only depends on positions inserted *before* it, and servers are
    /// generated in index order, so incremental growth resolves every
    /// collision exactly as a batch build would.
    fn insert_probed(&mut self, mut pos: u64, server: u32) {
        loop {
            match self.points.binary_search_by_key(&pos, |p| p.0) {
                Ok(_) => pos = mix64(pos),
                Err(i) => {
                    self.points.insert(i, (pos, server));
                    return;
                }
            }
        }
    }

    /// Grows the ring by one server (index `servers()`), returning the
    /// new server's index. Only keys whose successor walk meets one of
    /// the new server's vnodes change placement — the consistency
    /// property (`~1/(n+1)` of primaries for an `n`-server ring).
    ///
    /// # Panics
    /// Panics if the ring already holds `u16::MAX + 1` servers (server
    /// indices travel as `u16` through the service layers).
    pub fn add_server(&mut self) -> usize {
        let s = self.servers;
        assert!(s <= u16::MAX as usize, "ring is full ({s} servers)");
        for v in 0..self.vnodes {
            // Position derived from (server, vnode); stable as servers
            // are added, which is what makes the ring *consistent*.
            let pos = mix64((s as u64) << 32 | v as u64);
            self.insert_probed(pos, s as u32);
        }
        self.servers = s + 1;
        self.servers - 1
    }

    /// Shrinks the ring by one server — the highest-index one, exactly
    /// undoing the matching [`HashRing::add_server`] (LIFO). Keys owned
    /// by the departed server fall through to their next surviving
    /// successor; nothing else moves.
    ///
    /// # Panics
    /// Panics on a one-server ring.
    pub fn remove_server(&mut self) -> usize {
        assert!(self.servers > 1, "cannot remove the last server");
        self.servers -= 1;
        let gone = self.servers as u32;
        self.points.retain(|&(_, s)| s != gone);
        self.servers
    }

    /// The server owning `key` (first vnode clockwise of the key's hash).
    pub fn primary(&self, key: u64) -> usize {
        let h = mix64(key);
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        let idx = if idx == self.points.len() { 0 } else { idx };
        self.points[idx].1 as usize
    }

    /// The replica rule: walk clockwise from the key's hash and collect
    /// the first `k` *distinct* servers — primary first, then each next
    /// new server the walk encounters. Returns `k` servers.
    ///
    /// # Panics
    /// Panics if `k` exceeds the server count.
    pub fn replicas(&self, key: u64, k: usize) -> Vec<usize> {
        let mut buf = vec![0u16; k];
        self.replicas_into(key, &mut buf);
        buf.into_iter().map(|s| s as usize).collect()
    }

    /// Allocation-free [`HashRing::replicas`]: fills `out` with the
    /// first `out.len()` distinct servers clockwise of `key`'s hash.
    /// This is the dispatch hot path of the sharded service.
    ///
    /// # Panics
    /// Panics if `out.len()` exceeds the server count.
    pub fn replicas_into(&self, key: u64, out: &mut [u16]) {
        let k = out.len();
        assert!(
            k <= self.servers,
            "cannot place {k} copies on {} servers",
            self.servers
        );
        let h = mix64(key);
        let start = self.points.partition_point(|&(pos, _)| pos < h);
        let n = self.points.len();
        let mut found = 0;
        for step in 0..n {
            let mut i = start + step;
            if i >= n {
                i -= n;
            }
            let s = self.points[i].1 as u16;
            if !out[..found].contains(&s) {
                out[found] = s;
                found += 1;
                if found == k {
                    return;
                }
            }
        }
        unreachable!("ring holds vnodes for every server");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // BTreeMap, not HashMap: the assertion loops below traverse maps,
    // and the workspace's clippy config (`iter_over_hash_type`,
    // `disallowed_methods`) bans order-dependent HashMap traversal.
    use std::collections::BTreeMap;

    #[test]
    fn deterministic_lookup() {
        let ring = HashRing::new(4, 64);
        for key in 0..1000u64 {
            assert_eq!(ring.primary(key), ring.primary(key));
        }
    }

    #[test]
    fn balance_with_enough_vnodes() {
        let servers = 8;
        let ring = HashRing::new(servers, 128);
        let mut counts = BTreeMap::new();
        let n = 100_000u64;
        for key in 0..n {
            *counts.entry(ring.primary(key)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), servers);
        let expect = n as f64 / servers as f64;
        for (&s, &c) in &counts {
            let skew = c as f64 / expect;
            assert!(
                (0.75..1.25).contains(&skew),
                "server {s} owns {c} keys (skew {skew:.2})"
            );
        }
    }

    #[test]
    fn replicas_walk_the_ring_for_distinct_servers() {
        let ring = HashRing::new(5, 32);
        for key in 0..500u64 {
            let reps = ring.replicas(key, 3);
            assert_eq!(reps.len(), 3);
            // Primary first, then all distinct.
            assert_eq!(reps[0], ring.primary(key));
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "key {key}: duplicate replica in {reps:?}");
        }
        // k == servers enumerates every server.
        let mut all = ring.replicas(7, 5);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn replicas_into_matches_replicas() {
        let ring = HashRing::new(9, 64);
        let mut buf = [0u16; 4];
        for key in 0..300u64 {
            ring.replicas_into(key, &mut buf);
            let vec = ring.replicas(key, 4);
            for (a, &b) in vec.iter().zip(buf.iter()) {
                assert_eq!(*a, b as usize);
            }
        }
    }

    #[test]
    fn resize_moves_few_primaries_and_spares_replica_sets() {
        // The consistency property, now for *replica sets* too: growing
        // the ring from N to N+1 servers moves ~1/(N+1) of primaries,
        // every moved key lands on the new server, and any key whose
        // primary stayed put keeps a replica set that differs at most by
        // the new server displacing one old member — untouched walks
        // stay bitwise identical.
        let n_servers = 9;
        let before = HashRing::new(n_servers, 128);
        let mut after = before.clone();
        assert_eq!(after.add_server(), n_servers);
        let n = 50_000u64;
        let mut moved = 0usize;
        let mut touched_sets = 0usize;
        for k in 0..n {
            if before.primary(k) != after.primary(k) {
                moved += 1;
                assert_eq!(after.primary(k), n_servers, "key {k} moved to an old server");
            }
            let old = before.replicas(k, 2);
            let new = after.replicas(k, 2);
            if old != new {
                touched_sets += 1;
                // A changed set must involve the new server — existing
                // servers never trade keys among themselves on growth.
                assert!(
                    new.contains(&n_servers),
                    "key {k}: replica set changed {old:?} -> {new:?} without the new server"
                );
            }
        }
        let frac = moved as f64 / n as f64;
        assert!(
            frac < 0.2,
            "adding one server moved {frac:.2} of primaries (expected ~0.1)"
        );
        // Two-copy sets are touched at roughly twice the primary rate
        // (either walk slot can hit the new server); the vast majority
        // must survive untouched.
        let set_frac = touched_sets as f64 / n as f64;
        assert!(
            set_frac < 0.35,
            "adding one server touched {set_frac:.2} of replica sets (expected ~0.2)"
        );
    }

    #[test]
    fn incremental_growth_matches_batch_build() {
        let batch = HashRing::new(13, 64);
        let mut grown = HashRing::new(1, 64);
        for _ in 1..13 {
            grown.add_server();
        }
        assert_eq!(grown.servers(), batch.servers());
        assert_eq!(grown.points, batch.points);
    }

    #[test]
    fn remove_undoes_add() {
        let base = HashRing::new(10, 64);
        let mut ring = base.clone();
        ring.add_server();
        ring.add_server();
        assert_eq!(ring.remove_server(), 11);
        assert_eq!(ring.remove_server(), 10);
        assert_eq!(ring.servers(), base.servers());
        assert_eq!(ring.points, base.points);
        // Shrinking moves only the departed server's keys: survivors
        // keep their primaries.
        let mut big = base.clone();
        big.add_server();
        big.remove_server();
        for k in 0..20_000u64 {
            assert_eq!(big.primary(k), base.primary(k));
        }
    }

    #[test]
    fn position_collisions_are_rehashed_not_dropped() {
        // Force collisions directly: insert a server whose probe start
        // is a position the ring already owns. insert_probed must walk
        // the mix64 chain to a free slot instead of dropping the point.
        let mut ring = HashRing::new(2, 8);
        let taken = ring.points[3].0;
        let len = ring.points.len();
        ring.insert_probed(taken, 0);
        assert_eq!(ring.points.len(), len + 1, "colliding vnode was dropped");
        assert_eq!(
            ring.points.iter().filter(|&&(p, _)| p == taken).count(),
            1,
            "duplicate ring position"
        );
        // And the invariant the old dedup_by_key build could violate:
        // every server owns exactly `vnodes` points, at any size.
        for servers in [1usize, 2, 7, 64, 257] {
            let ring = HashRing::new(servers, 16);
            assert_eq!(ring.points.len(), servers * 16);
            let mut owned = BTreeMap::new();
            for &(_, s) in &ring.points {
                *owned.entry(s).or_insert(0usize) += 1;
            }
            for (&s, &c) in &owned {
                assert_eq!(c, 16, "server {s} owns {c} vnodes (wanted 16)");
            }
        }
    }

    #[test]
    #[should_panic(expected = "copies")]
    fn too_many_replicas_panics() {
        let ring = HashRing::new(3, 8);
        let _ = ring.replicas(1, 4);
    }

    #[test]
    #[should_panic(expected = "last server")]
    fn removing_the_last_server_panics() {
        let mut ring = HashRing::new(1, 8);
        ring.remove_server();
    }
}
