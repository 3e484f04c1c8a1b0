//! The workspace's one seeded generator, and the normal draws the
//! generators build on.
//!
//! [`Rng`] is xoshiro256** over a state expanded from one `u64` seed by
//! SplitMix64, as the xoshiro authors recommend. Every synthetic field,
//! and through them every accuracy and rate number in the repository, is
//! drawn from it, as are the workspace's seeded fuzz loops; its stream is
//! pinned by this crate's `tests/stream_pins.rs`. It is not a
//! cryptographic generator and reproduces no other library's stream: a
//! seed only has to make the same field twice.

/// xoshiro256**: four words of state, one 64-bit draw per step.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// A deterministic generator for `seed`.
pub fn seeded(seed: u64) -> Rng {
    let mut x = seed;
    let mut next = move || {
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    Rng { s: [next(), next(), next(), next()] }
}

impl Rng {
    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)`: the draw's top 53 bits as a mantissa.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..hi`, without modulo bias: a draw above the largest
    /// multiple of the span is rejected and drawn again.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range: empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let x = self.next_u64();
            if x <= zone {
                return lo + (x % span) as usize;
            }
        }
    }
}

/// One standard-normal sample via Box–Muller.
pub fn normal(rng: &mut Rng) -> f64 {
    loop {
        let u1 = rng.unit();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2 = rng.unit();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Fill a buffer with iid standard-normal samples.
pub fn fill_normal(rng: &mut Rng, out: &mut [f64]) {
    for v in out.iter_mut() {
        *v = normal(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_grid::stats::Moments;

    #[test]
    fn deterministic_per_seed() {
        let (mut a, mut b) = (seeded(7), seeded(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(seeded(7).next_u64(), seeded(8).next_u64());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..100 {
            assert_eq!(normal(&mut a), normal(&mut b));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let same = (0..32).filter(|_| normal(&mut a) == normal(&mut b)).count();
        assert!(same < 2);
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut r = seeded(42);
        let mut sum = 0.0;
        const N: usize = 100_000;
        for _ in 0..N {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut r = seeded(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.range(0, 10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let x = r.range(usize::MAX / 2, usize::MAX);
            assert!((usize::MAX / 2..usize::MAX).contains(&x));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = seeded(7);
        let mut buf = vec![0.0; 100_000];
        fill_normal(&mut rng, &mut buf);
        let m = Moments::from_slice(&buf);
        assert!(m.mean.abs() < 0.02, "mean {}", m.mean);
        assert!((m.variance() - 1.0).abs() < 0.03, "var {}", m.variance());
    }
}
