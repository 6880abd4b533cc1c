//! Deterministic random numbers.
//!
//! Every experiment in the workspace must be bit-reproducible from a seed —
//! the threshold-load bisection in `queuesim` relies on *paired* runs (same
//! arrival pattern, different replication factor) to cancel sampling noise,
//! and that only works when streams are exactly replayable. We therefore
//! implement the generator ourselves rather than depending on a `rand`
//! version whose stream might change:
//!
//! * [`SplitMix64`] — seed expander (Steele, Lea, Flood 2014);
//! * [`Rng`] — xoshiro256++ 1.0 (Blackman & Vigna 2019), 256-bit state,
//!   period 2²⁵⁶−1, passes BigCrush; plus the non-uniform transforms the
//!   paper's workloads need (exponential, normal, gamma, …).
//!
//! Independent logical streams are derived with [`Rng::fork`], which seeds a
//! child from the parent through SplitMix64 — forked streams are
//! statistically independent of the parent's subsequent output.

/// SplitMix64: a tiny, fast 64-bit generator used to expand seeds.
///
/// Not suitable as a primary generator for experiments (64-bit state), but
/// ideal for turning one `u64` seed into the 256-bit xoshiro state.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a seed expander from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's primary pseudo-random generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the polar normal transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed` via
    /// SplitMix64. Any seed (including 0) is valid.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent child stream. `stream` distinguishes siblings
    /// forked from the same parent state.
    pub fn fork(&mut self, stream: u64) -> Rng {
        // Mix a fresh draw with the stream id through SplitMix64 so that
        // fork(0), fork(1), ... are decorrelated even for adjacent ids.
        let mut sm = SplitMix64::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with full 53-bit mantissa resolution.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `(0, 1]` — safe to feed to `ln`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "u64_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.u64_below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given rate (mean `1/rate`).
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.f64_open().ln() / rate
    }

    /// Standard normal variate (Marsaglia polar method; the spare draw is
    /// cached so consecutive calls cost one transform on average).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// Gamma variate with the given `shape` (k) and `scale` (θ), via
    /// Marsaglia–Tsang (2000) squeeze, boosted for `shape < 1`.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape > 0.0 && scale > 0.0, "gamma(shape>0, scale>0)");
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let g = self.gamma(shape + 1.0, 1.0);
            let u = self.f64_open();
            return g * u.powf(1.0 / shape) * scale;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.f64_open();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                return d * v * scale;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v * scale;
            }
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Fills `out` with `out.len()` *distinct* indices from `[0, n)`.
    /// Every caller in this workspace draws a small `k` (the replication
    /// factor, ≤ 10), so this is Floyd's algorithm: O(k²) worst case and
    /// no allocation, the caller's slice being the only storage. A single
    /// index consumes exactly the draw of [`Rng::index`]`(n)`.
    ///
    /// # Panics
    /// Panics if `out.len() > n`.
    pub fn distinct_indices(&mut self, n: usize, out: &mut [usize]) {
        let k = out.len();
        assert!(k <= n, "cannot draw {k} distinct from {n}");
        for (filled, j) in ((n - k)..n).enumerate() {
            let t = self.index(j + 1);
            out[filled] = if out[..filled].contains(&t) { j } else { t };
        }
        // Floyd's algorithm yields a uniform *set*; shuffle for a uniform
        // sequence so callers may treat position 0 as "primary".
        self.shuffle(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector_xoshiro() {
        // xoshiro256++ with state seeded by SplitMix64(0) — self-consistency
        // vector pinned at first implementation; guards against accidental
        // stream changes, which would silently invalidate every recorded
        // experiment in EXPERIMENTS.md.
        let mut r = Rng::seed_from(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Rng::seed_from(42);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = Rng::seed_from(1);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn u64_below_unbiased_small() {
        let mut r = Rng::seed_from(9);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[r.u64_below(5) as usize] += 1;
        }
        for &c in &counts {
            let p = c as f64 / n as f64;
            assert!((p - 0.2).abs() < 0.01, "bucket p={p}");
        }
    }

    #[test]
    fn exponential_moments() {
        let mut r = Rng::seed_from(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seed_from(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn gamma_moments() {
        let mut r = Rng::seed_from(17);
        let n = 200_000;
        for &(shape, scale) in &[(0.1, 1.0), (0.5, 2.0), (3.0, 0.5), (9.0, 1.0)] {
            let mean: f64 = (0..n).map(|_| r.gamma(shape, scale)).sum::<f64>() / n as f64;
            let expect = shape * scale;
            assert!(
                (mean - expect).abs() < 0.05 * expect.max(0.2),
                "shape={shape} mean={mean} expect={expect}"
            );
        }
    }

    #[test]
    fn distinct_indices_are_distinct_and_in_range() {
        let mut r = Rng::seed_from(23);
        for _ in 0..1000 {
            let n = 2 + r.index(20);
            let k = 1 + r.index(n.min(5));
            let mut picks = [0usize; 5];
            let picks = &mut picks[..k];
            r.distinct_indices(n, picks);
            let mut sorted = picks.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {picks:?}");
            assert!(picks.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn one_distinct_index_is_one_index_draw() {
        // `queuesim::model` places a k = 1 request with this call; it must
        // stay the stream `index(n)` draws.
        let mut a = Rng::seed_from(37);
        let mut b = a.clone();
        for n in 1..50 {
            let mut one = [usize::MAX];
            a.distinct_indices(n, &mut one);
            assert_eq!(one[0], b.index(n));
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn distinct_indices_uniform_pairs() {
        // Drawing 2 of 4: each unordered pair should appear ~1/6 of the time.
        let mut r = Rng::seed_from(29);
        // BTreeMap: the loop below traverses the map, and the workspace's
        // clippy config bans order-dependent HashMap traversal.
        let mut counts = std::collections::BTreeMap::new();
        let n = 60_000;
        for _ in 0..n {
            let mut p = [0usize; 2];
            r.distinct_indices(4, &mut p);
            p.sort_unstable();
            *counts.entry((p[0], p[1])).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (&pair, &c) in &counts {
            let p = c as f64 / n as f64;
            assert!((p - 1.0 / 6.0).abs() < 0.02, "pair {pair:?} p={p}");
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
