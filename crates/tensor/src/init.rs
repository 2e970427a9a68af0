//! Deterministic weight initializers.
//!
//! All randomness in the repository flows through explicit `u64` seeds so
//! every experiment is reproducible bit-for-bit.

use crate::Matrix;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seeded RNG used across the workspace (ChaCha8: fast, portable,
/// reproducible across platforms).
pub(crate) type SeedRng = ChaCha8Rng;

/// Weight-initialization schemes.
///
/// # Examples
///
/// ```
/// use hoga_tensor::Init;
///
/// let w = Init::XavierUniform.matrix(4, 8, 42);
/// assert_eq!(w.shape(), (4, 8));
/// // Same seed, same weights.
/// assert_eq!(w, Init::XavierUniform.matrix(4, 8, 42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// All zeros (biases).
    Zeros,
    /// All ones (LayerNorm gains).
    Ones,
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Kaiming/He normal: `N(0, sqrt(2 / fan_in))`, suited to ReLU stacks.
    KaimingNormal,
    /// Uniform in `[-0.1, 0.1]`, used for attention vectors.
    SmallUniform,
}

impl Init {
    /// Materializes a `rows × cols` matrix using this scheme and `seed`.
    ///
    /// `rows` is treated as `fan_in` and `cols` as `fan_out`.
    pub fn matrix(self, rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SeedRng::seed_from_u64(seed);
        let data: Vec<f32> = match self {
            Init::Zeros => vec![0.0; rows * cols],
            Init::Ones => vec![1.0; rows * cols],
            Init::XavierUniform => {
                let a = (6.0 / (rows + cols) as f32).sqrt();
                (0..rows * cols).map(|_| rng.gen_range(-a..=a)).collect()
            }
            Init::KaimingNormal => {
                let std = (2.0 / rows as f32).sqrt();
                let normal = StandardNormal;
                (0..rows * cols).map(|_| normal.sample(&mut rng) * std).collect()
            }
            Init::SmallUniform => (0..rows * cols).map(|_| rng.gen_range(-0.1..=0.1)).collect(),
        };
        Matrix::from_vec(rows, cols, data)
    }
}

/// Box–Muller standard normal sampler (avoids pulling in `rand_distr`).
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            if z.is_finite() {
                return z;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = Init::KaimingNormal.matrix(8, 8, 7);
        let b = Init::KaimingNormal.matrix(8, 8, 7);
        let c = Init::KaimingNormal.matrix(8, 8, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_within_bound() {
        let w = Init::XavierUniform.matrix(16, 16, 1);
        let a = (6.0f32 / 32.0).sqrt();
        assert!(w.max_abs() <= a + 1e-6);
        assert!(w.max_abs() > 0.0);
    }

    #[test]
    fn kaiming_roughly_right_scale() {
        let w = Init::KaimingNormal.matrix(256, 64, 3);
        let var = w.as_slice().iter().map(|&x| x * x).sum::<f32>() / w.len() as f32;
        let expected = 2.0 / 256.0;
        assert!((var - expected).abs() < expected, "variance {var} far from {expected}");
    }

    #[test]
    fn zeros_ones_vectors() {
        assert!(Init::Zeros.matrix(1, 5, 0).as_slice().iter().all(|&x| x == 0.0));
        assert!(Init::Ones.matrix(1, 5, 0).as_slice().iter().all(|&x| x == 1.0));
    }
}
