//! Deterministic random-number generation and the distributions used by the
//! synthetic workload and failure-trace generators.
//!
//! Everything in the reproduction must be replayable: the paper's predictor
//! is "deterministic across runs" and its detectabilities are "assigned
//! randomly" but fixed. [`DetRng`] is a seeded PRNG that can be *forked* into
//! independent named substreams, so adding a consumer of randomness in one
//! subsystem never perturbs another subsystem's stream.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through splitmix64 — no external crates, so
//! the repository builds offline and the stream is stable across toolchains.

/// A deterministic, forkable random-number generator.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::rng::DetRng;
///
/// let mut a = DetRng::seed_from(42);
/// let mut b = DetRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Substreams with different labels are independent but reproducible.
/// let mut fail = DetRng::seed_from(42).fork("failures");
/// let mut work = DetRng::seed_from(42).fork("workload");
/// assert_ne!(fail.next_u64(), work.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand the seed through splitmix64, the recommended seeding
        // procedure for xoshiro: guarantees a non-zero state and decorrelates
        // nearby seeds.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix(sm)
        };
        DetRng {
            seed,
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent substream keyed by `label`.
    ///
    /// Forking is a pure function of `(parent seed, label)`, not of how much
    /// randomness the parent has already consumed.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::seed_from(splitmix(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits → uniform on [0, 1) at full f64 precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64 range is empty: [{lo}, {hi}]");
        let range = hi.wrapping_sub(lo).wrapping_add(1);
        if range == 0 {
            // Full u64 range.
            return self.next_u64();
        }
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - range + 1) % range;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return lo + x % range;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Exponential sample with the given `mean` (> 0).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        // Inverse CDF; 1 - unit() avoids ln(0).
        -mean * (1.0 - self.unit()).ln()
    }

    /// Weibull sample with scale `lambda` and shape `k`.
    ///
    /// `k < 1` yields the decreasing hazard rate typical of hardware
    /// infant-mortality behaviour; `k = 1` is exponential.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` or `k` is not positive.
    pub fn weibull(&mut self, lambda: f64, k: f64) -> f64 {
        assert!(
            lambda > 0.0 && k > 0.0,
            "weibull parameters must be positive"
        );
        lambda * (-(1.0 - self.unit()).ln()).powf(1.0 / k)
    }

    /// Bounded Pareto sample on `[lo, hi]` with tail index `alpha`.
    ///
    /// Used for heavy-tailed job runtimes: most mass near `lo`, rare samples
    /// out to `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `alpha` is not positive, or `hi <= lo`.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && hi > lo && alpha > 0.0, "invalid bounded pareto");
        let u = self.unit();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Picks an index according to a slice of non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weighted_index needs positive total weight"
        );
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_u64(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(7);
        let mut b = DetRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_is_independent_of_consumption() {
        let mut a = DetRng::seed_from(7);
        let _ = a.next_u64(); // consume some state
        let b = DetRng::seed_from(7);
        assert_eq!(
            a.fork("x").next_u64(),
            b.fork("x").next_u64(),
            "fork must depend only on (seed, label)"
        );
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let r = DetRng::seed_from(7);
        assert_ne!(r.fork("a").next_u64(), r.fork("b").next_u64());
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = DetRng::seed_from(3);
        for _ in 0..100_000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x), "unit sample {x} out of range");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::seed_from(11);
        let n = 200_000;
        let mean = 500.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() / mean < 0.02, "estimated {est}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut r = DetRng::seed_from(17);
        for _ in 0..10_000 {
            let x = r.bounded_pareto(10.0, 1000.0, 1.2);
            assert!(
                (10.0..=1000.0 + 1e-9).contains(&x),
                "sample {x} out of bounds"
            );
        }
    }

    #[test]
    fn weibull_with_k1_is_exponential_like() {
        let mut r = DetRng::seed_from(19);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.weibull(100.0, 1.0)).sum();
        let est = sum / n as f64;
        assert!((est - 100.0).abs() / 100.0 < 0.03, "estimated {est}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = DetRng::seed_from(23);
        let weights = [1.0, 3.0];
        let n = 100_000;
        let ones = (0..n).filter(|_| r.weighted_index(&weights) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from(29);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(5.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::seed_from(31);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut r = DetRng::seed_from(37);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.uniform_u64(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_u64_full_range_does_not_hang() {
        let mut r = DetRng::seed_from(41);
        // Degenerate and full ranges both terminate.
        assert_eq!(r.uniform_u64(9, 9), 9);
        let _ = r.uniform_u64(0, u64::MAX);
    }

    #[test]
    fn uniform_u64_is_unbiased_over_small_range() {
        // 3 buckets over 300k draws: each within 1% of a third.
        let mut r = DetRng::seed_from(43);
        let mut counts = [0u64; 3];
        let n = 300_000;
        for _ in 0..n {
            counts[r.uniform_u64(0, 2) as usize] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.01, "fraction {frac}");
        }
    }
}
