//! The harness's own seeded generator: every noise field and request
//! stream derives from `--seed` through it, so a seed fixes the inputs no
//! matter how the library's generators change.

/// SplitMix64.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, purpose)`: distinct purposes never share draws.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf-distributed ranks over `0..n`: rank `k` has weight `(k + 1)^-s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += ((k + 1) as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Add uniform noise of half-width `amplitude` to every element.
pub fn add_noise(data: &mut [f32], amplitude: f64, rng: &mut Rng) {
    for v in data {
        *v += ((rng.unit() - 0.5) * 2.0 * amplitude) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let draw = |seed, purpose| {
            let mut r = Rng::new(seed, purpose);
            let z = Zipf::new(48, 1.2);
            (0..200)
                .map(|_| (z.sample(&mut r), r.below(17)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "serve"), draw(7, "serve"));
        assert_ne!(draw(7, "serve"), draw(8, "serve"));
        assert_ne!(draw(7, "serve"), draw(7, "region"));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(48, 1.2);
        let mut r = Rng::new(1, "zipf");
        let mut counts = [0usize; 48];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[40]);
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
    }

    #[test]
    fn below_covers_the_range() {
        let mut r = Rng::new(3, "below");
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5)] = true;
        }
        assert_eq!(seen, [true; 5]);
    }
}
