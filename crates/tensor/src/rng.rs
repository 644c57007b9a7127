//! Deterministic random number generation.
//!
//! Every stochastic component in the reproduction (weight init, data
//! generation, batch shuffling, simulated jitter) draws from a seeded
//! [`Rng`] so that experiments replay bit-identically. The generator is
//! `rand`'s `StdRng` behind a small façade that adds the distributions we
//! need (normal via Box–Muller, lognormal, exponential) without pulling in
//! `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore, SeedableRng};

/// Seeded random number generator used throughout the workspace.
pub struct Rng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { inner: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Derives an independent child generator. Used to hand each simulated
    /// worker / dataset split its own stream so that adding workers does not
    /// perturb the draws of existing ones.
    pub fn fork(&mut self, salt: u64) -> Rng {
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from_u64(s)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Standard normal via Box–Muller (cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal: `exp(N(mu, sigma))`. Used for compute-time jitter, which
    /// is right-skewed in real clusters.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with the given rate (`1/mean`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0);
        -self.uniform().max(f64::MIN_POSITIVE).ln() / rate
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Raw 64-bit output (for hashing/forking purposes).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_are_independent_of_sibling_consumption() {
        // Forking with the same salts after identical parent state yields
        // identical children, regardless of what the children then consume.
        let mut p1 = Rng::seed_from_u64(9);
        let mut p2 = Rng::seed_from_u64(9);
        let mut c1 = p1.fork(1);
        let mut d1 = p1.fork(2);
        let mut c2 = p2.fork(1);
        let mut d2 = p2.fork(2);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_eq!(d1.next_u64(), d2.next_u64());
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(42);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let r = rng.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&r));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely identity");
    }

    #[test]
    fn exponential_positive_mean() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(rng.lognormal(0.0, 0.5) > 0.0);
        }
    }
}
