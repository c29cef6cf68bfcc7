//! Inverted dropout.

use crate::layers::Layer;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1 / (1 - rate)` so the
/// expected activation is unchanged; at inference the layer is the identity.
///
/// # Example
///
/// ```
/// use nn::layers::{Dropout, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut d = Dropout::new(0.5, 1)?;
/// let x = Tensor::from_vec(vec![1.0; 8], &[8])?;
/// // Inference: identity.
/// assert_eq!(d.forward(&x, false)?.data(), x.data());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dropout {
    rate: f32,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `rate` and a
    /// deterministic mask RNG seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f32, seed: u64) -> Result<Self, NnError> {
        if !(0.0..1.0).contains(&rate) {
            return Err(NnError::InvalidParameter {
                name: "rate",
                reason: "must be in [0, 1)",
            });
        }
        Ok(Self {
            rate,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        })
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if !train || self.rate == 0.0 {
            self.mask = None;
            return Ok(input.clone());
        }
        let keep = 1.0 - self.rate;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| {
                if self.rng.random::<f32>() < self.rate {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let data: Vec<f32> = input
            .data()
            .iter()
            .zip(&mask)
            .map(|(&x, &m)| x * m)
            .collect();
        self.mask = Some(mask);
        Tensor::from_vec(data, input.shape())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        // Inference-only path: dropout is the identity.
        out.clear();
        out.extend_from_slice(input);
        Ok(shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        match &self.mask {
            None => Ok(grad_out.clone()),
            Some(mask) => {
                if grad_out.len() != mask.len() {
                    return Err(NnError::ShapeMismatch {
                        expected: format!("{} elements", mask.len()),
                        actual: grad_out.shape().to_vec(),
                    });
                }
                let data: Vec<f32> = grad_out
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, grad_out.shape())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_rate() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
    }

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.9, 0).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert_eq!(d.forward(&x, false).unwrap().data(), x.data());
    }

    #[test]
    fn training_zeroes_roughly_rate_fraction() {
        let mut d = Dropout::new(0.5, 42).unwrap();
        let x = Tensor::from_vec(vec![1.0; 10_000], &[10_000]).unwrap();
        let y = d.forward(&x, true).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
    }

    #[test]
    fn survivors_scaled_to_preserve_expectation() {
        let mut d = Dropout::new(0.25, 7).unwrap();
        let x = Tensor::from_vec(vec![1.0; 10_000], &[10_000]).unwrap();
        let y = d.forward(&x, true).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3).unwrap();
        let x = Tensor::from_vec(vec![1.0; 64], &[64]).unwrap();
        let y = d.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![1.0; 64], &[64]).unwrap();
        let dg = d.backward(&g).unwrap();
        // Gradient must be zero exactly where the output was zeroed.
        for (yo, go) in y.data().iter().zip(dg.data()) {
            assert_eq!(*yo == 0.0, *go == 0.0);
        }
    }

    #[test]
    fn zero_rate_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 3).unwrap();
        let x = Tensor::from_vec(vec![5.0; 4], &[4]).unwrap();
        assert_eq!(d.forward(&x, true).unwrap().data(), x.data());
    }
}
