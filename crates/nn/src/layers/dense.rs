//! Fully connected layer.

use crate::init::{he_uniform, seeded_rng};
use crate::kernels;
use crate::layers::{Layer, Param};
use crate::quant::{quantize_activations_into, Precision, QuantizedTensor};
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// A fully connected (dense) layer: `y = W·x + b`.
///
/// # Example
///
/// ```
/// use nn::layers::{Dense, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut layer = Dense::new(3, 2, 42)?;
/// let x = Tensor::from_vec(vec![1.0, 0.5, -0.5], &[3])?;
/// let y = layer.forward(&x, false)?;
/// assert_eq!(y.shape(), &[2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    /// Int8 weight snapshot; present iff the layer runs the quantized
    /// scratch path (see [`Layer::set_precision`]).
    qweight: Option<QuantizedTensor>,
    input_cache: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer mapping `in_dim` features to `out_dim`, with
    /// He-uniform weights drawn from a deterministic RNG seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Result<Self, NnError> {
        if in_dim == 0 || out_dim == 0 {
            return Err(NnError::InvalidParameter {
                name: "in_dim/out_dim",
                reason: "must be non-zero",
            });
        }
        let mut rng = seeded_rng(seed);
        let w = he_uniform(&mut rng, in_dim, in_dim * out_dim);
        Ok(Self {
            weight: Param::new(Tensor::from_vec(w, &[out_dim, in_dim])?),
            bias: Param::new(Tensor::zeros(&[out_dim])?),
            qweight: None,
            input_cache: None,
        })
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.shape()[0]
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        if input.shape() != [self.in_dim()] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}]", self.in_dim()),
                actual: input.shape().to_vec(),
            });
        }
        let mut y = self.weight.value.matvec(input.data())?;
        for (yi, bi) in y.iter_mut().zip(self.bias.value.data()) {
            *yi += bi;
        }
        self.input_cache = Some(input.clone());
        Tensor::from_vec(y, &[self.out_dim()])
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        if shape.as_slice() != [self.in_dim()] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}]", self.in_dim()),
                actual: shape.as_slice().to_vec(),
            });
        }
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        out.clear();
        out.resize(out_dim, 0.0);
        if let Some(qw) = &self.qweight {
            // Fully quantized path: i8 activations, i8×i8→i32 dots, one
            // rescale per output row. The i8 temporary comes from the
            // scratch pool, so the pass stays allocation-free once warm.
            let mut qx = scratch.acquire_i8(in_dim);
            let x_scale = quantize_activations_into(input, &mut qx);
            let combined = qw.scale() * x_scale;
            let values = qw.values();
            for (r, (yr, &br)) in out.iter_mut().zip(self.bias.value.data()).enumerate() {
                let row = &values[r * in_dim..(r + 1) * in_dim];
                *yr = kernels::dot_i8(row, &qx) as f32 * combined + br;
            }
            scratch.release_i8(qx);
        } else {
            kernels::gemv(self.weight.value.data(), out_dim, in_dim, input, out);
            for (yi, bi) in out.iter_mut().zip(self.bias.value.data()) {
                *yi += bi;
            }
        }
        Ok(Shape::d1(out_dim))
    }

    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        self.qweight = match precision {
            Precision::F32 => None,
            Precision::Int8 => Some(QuantizedTensor::quantize(&self.weight.value)),
        };
        Ok(())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .input_cache
            .as_ref()
            .ok_or(NnError::InvalidState("dense backward before forward"))?;
        if grad_out.shape() != [self.out_dim()] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}]", self.out_dim()),
                actual: grad_out.shape().to_vec(),
            });
        }
        let (out_dim, in_dim) = (self.out_dim(), self.in_dim());
        // dW[o][i] += g[o] * x[i]
        {
            let dw = self.weight.grad.data_mut();
            for o in 0..out_dim {
                let g = grad_out.data()[o];
                let base = o * in_dim;
                for i in 0..in_dim {
                    dw[base + i] += g * input.data()[i];
                }
            }
        }
        for (db, g) in self.bias.grad.data_mut().iter_mut().zip(grad_out.data()) {
            *db += g;
        }
        // dx = Wᵀ g
        let dx = self.weight.value.matvec_t(grad_out.data())?;
        Tensor::from_vec(dx, &[in_dim])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dims() {
        assert!(Dense::new(0, 3, 1).is_err());
        assert!(Dense::new(3, 0, 1).is_err());
    }

    #[test]
    fn forward_shape_and_determinism() {
        let mut a = Dense::new(4, 3, 9).unwrap();
        let mut b = Dense::new(4, 3, 9).unwrap();
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], &[4]).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    #[test]
    fn forward_scratch_matches_forward_bitwise() {
        let mut l = Dense::new(5, 3, 21).unwrap();
        let x = Tensor::from_vec(vec![0.2, -1.3, 0.8, 2.1, -0.4], &[5]).unwrap();
        let y = l.forward(&x, false).unwrap();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let shape = l
            .forward_scratch(x.data(), Shape::d1(5), &mut out, &mut scratch)
            .unwrap();
        assert_eq!(shape.as_slice(), y.shape());
        assert_eq!(out, y.data());
    }

    #[test]
    fn int8_scratch_path_tracks_f32_within_quant_error() {
        let mut l = Dense::new(16, 6, 33).unwrap();
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.61).sin() * 1.4).collect();
        let mut scratch = Scratch::new();
        let mut f32_out = Vec::new();
        l.forward_scratch(&x, Shape::d1(16), &mut f32_out, &mut scratch)
            .unwrap();
        l.set_precision(Precision::Int8).unwrap();
        let mut i8_out = Vec::new();
        l.forward_scratch(&x, Shape::d1(16), &mut i8_out, &mut scratch)
            .unwrap();
        for (a, b) in f32_out.iter().zip(&i8_out) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        // Back to f32 restores the exact float result.
        l.set_precision(Precision::F32).unwrap();
        let mut back = Vec::new();
        l.forward_scratch(&x, Shape::d1(16), &mut back, &mut scratch)
            .unwrap();
        assert_eq!(back, f32_out);
    }

    #[test]
    fn forward_scratch_rejects_wrong_shape() {
        let mut l = Dense::new(4, 3, 9).unwrap();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        assert!(l
            .forward_scratch(&[0.0; 5], Shape::d1(5), &mut out, &mut scratch)
            .is_err());
    }

    #[test]
    fn forward_rejects_wrong_input() {
        let mut l = Dense::new(4, 3, 9).unwrap();
        let x = Tensor::zeros(&[5]).unwrap();
        assert!(l.forward(&x, false).is_err());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut l = Dense::new(4, 3, 9).unwrap();
        let g = Tensor::zeros(&[3]).unwrap();
        assert!(l.backward(&g).is_err());
    }

    #[test]
    fn param_count() {
        let l = Dense::new(10, 5, 0).unwrap();
        assert_eq!(l.param_count(), 10 * 5 + 5);
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check on a random weight entry.
        let mut l = Dense::new(3, 2, 7).unwrap();
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], &[3]).unwrap();
        // Loss = sum(y); dL/dy = ones.
        let ones = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        l.forward(&x, true).unwrap();
        l.backward(&ones).unwrap();
        let analytic = l.weight.grad.data()[1]; // dW[0][1]

        let eps = 1e-3;
        let base = l.weight.value.data()[1];
        l.weight.value.data_mut()[1] = base + eps;
        let y_plus: f32 = l.forward(&x, true).unwrap().data().iter().sum();
        l.weight.value.data_mut()[1] = base - eps;
        let y_minus: f32 = l.forward(&x, true).unwrap().data().iter().sum();
        let numeric = (y_plus - y_minus) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn gradient_check_input() {
        let mut l = Dense::new(3, 2, 7).unwrap();
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], &[3]).unwrap();
        let ones = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        l.forward(&x, true).unwrap();
        let dx = l.backward(&ones).unwrap();

        let eps = 1e-3;
        let mut xp = x.clone();
        xp.data_mut()[2] += eps;
        let mut xm = x.clone();
        xm.data_mut()[2] -= eps;
        let y_plus: f32 = l.forward(&xp, true).unwrap().data().iter().sum();
        let y_minus: f32 = l.forward(&xm, true).unwrap().data().iter().sum();
        let numeric = (y_plus - y_minus) / (2.0 * eps);
        assert!((dx.data()[2] - numeric).abs() < 1e-2);
    }

    #[test]
    fn gradients_accumulate_across_samples() {
        let mut l = Dense::new(2, 1, 3).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        l.forward(&x, true).unwrap();
        l.backward(&g).unwrap();
        let first = l.bias.grad.data()[0];
        l.forward(&x, true).unwrap();
        l.backward(&g).unwrap();
        assert!((l.bias.grad.data()[0] - 2.0 * first).abs() < 1e-6);
    }
}
