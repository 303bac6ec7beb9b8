//! Deterministic, splittable pseudo-random numbers.
//!
//! The kernel ships its own tiny generator (xoshiro256++ seeded through
//! SplitMix64) instead of depending on `rand`, so that the simulation core
//! has zero dependencies and identical streams on every platform. Higher
//! layers that want `rand`'s distribution machinery can still use it; the
//! experiments only need uniform, Gaussian, exponential, and Poisson
//! variates, all provided here.
//!
//! Determinism contract: for a fixed seed and a fixed sequence of calls,
//! the outputs are identical across runs, platforms, and compiler
//! versions. [`SimRng::split`] derives an independent stream for a labelled
//! component so that adding RNG consumers to one part of an experiment
//! does not perturb the draws seen by another.

/// A deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second Gaussian variate from the Box–Muller pair.
    gauss_spare: Option<f64>,
}

/// SplitMix64 step, used for seeding and stream splitting.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent stream for a labelled sub-component.
    ///
    /// The label is hashed (FNV-1a) together with the parent state so two
    /// distinct labels yield uncorrelated streams.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::new(h ^ self.s[0].rotate_left(17) ^ self.s[2])
    }

    /// Next raw 64-bit output.
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method.
    ///
    /// Returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (n as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi;
            }
        }
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard Gaussian variate (Box–Muller, with caching of the pair).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Gaussian with the given mean and standard deviation.
    pub fn gaussian_ms(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential variate with the given rate (events per unit time).
    ///
    /// Returns `f64::INFINITY` for non-positive rates.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut a1 = root.split("radio");
        let mut a2 = root.split("radio");
        let mut b = root.split("workload");
        let first_a = a1.next_u64();
        assert_eq!(first_a, a2.next_u64());
        assert_ne!(first_a, b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::new(11);
        let n = 50_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.gaussian();
            s1 += z;
            s2 += z * z;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::new(13);
        let rate = 0.25;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
        assert!(r.exponential(0.0).is_infinite());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(19);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn choose_none_on_empty() {
        let mut r = SimRng::new(29);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert!(r.choose(&[5]).copied() == Some(5));
    }
}
