//! 1-D convolution over `[channels, time]` inputs.

use crate::init::{he_uniform, seeded_rng};
use crate::kernels;
use crate::layers::{Layer, Param};
use crate::quant::{quantize_activations_into, Precision, QuantizedTensor};
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// A 1-D convolution layer with stride 1 and "valid" padding, matching the
/// Keras `Conv1D` defaults the paper's CNN classifier uses.
///
/// Input shape `[in_channels, time]`, output `[out_channels, time - k + 1]`.
///
/// # Example
///
/// ```
/// use nn::layers::{Conv1d, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut conv = Conv1d::new(2, 4, 3, 11)?;
/// let x = Tensor::zeros(&[2, 10])?;
/// let y = conv.forward(&x, false)?;
/// assert_eq!(y.shape(), &[4, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Conv1d {
    weight: Param, // [out_ch, in_ch * k]
    bias: Param,   // [out_ch]
    /// Int8 weight snapshot; present iff the layer runs the quantized
    /// scratch path (see [`Layer::set_precision`]).
    qweight: Option<QuantizedTensor>,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    input_cache: Option<Tensor>,
}

impl Conv1d {
    /// Creates a conv layer with `out_ch` filters of width `kernel` over
    /// `in_ch` channels, He-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when any size is zero.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, seed: u64) -> Result<Self, NnError> {
        if in_ch == 0 || out_ch == 0 || kernel == 0 {
            return Err(NnError::InvalidParameter {
                name: "in_ch/out_ch/kernel",
                reason: "must be non-zero",
            });
        }
        let fan_in = in_ch * kernel;
        let mut rng = seeded_rng(seed);
        let w = he_uniform(&mut rng, fan_in, out_ch * fan_in);
        Ok(Self {
            weight: Param::new(Tensor::from_vec(w, &[out_ch, fan_in])?),
            bias: Param::new(Tensor::zeros(&[out_ch])?),
            qweight: None,
            in_ch,
            out_ch,
            kernel,
            input_cache: None,
        })
    }

    #[inline]
    fn w(&self, o: usize, c: usize, k: usize) -> f32 {
        self.weight.value.data()[o * self.in_ch * self.kernel + c * self.kernel + k]
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.len() != 2 || shape[0] != self.in_ch || shape[1] < self.kernel {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}, t >= {}]", self.in_ch, self.kernel),
                actual: shape.to_vec(),
            });
        }
        let t_in = shape[1];
        let t_out = t_in - self.kernel + 1;
        let mut out = vec![0.0f32; self.out_ch * t_out];
        kernels::conv1d_forward(
            self.weight.value.data(),
            self.bias.value.data(),
            input.data(),
            self.in_ch,
            self.out_ch,
            self.kernel,
            t_in,
            &mut out,
        );
        self.input_cache = Some(input.clone());
        Tensor::from_vec(out, &[self.out_ch, t_out])
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let dims = shape.as_slice();
        if dims.len() != 2 || dims[0] != self.in_ch || dims[1] < self.kernel {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}, t >= {}]", self.in_ch, self.kernel),
                actual: dims.to_vec(),
            });
        }
        let t_in = dims[1];
        let t_out = t_in - self.kernel + 1;
        out.clear();
        out.resize(self.out_ch * t_out, 0.0);
        if let Some(qw) = &self.qweight {
            // Fully quantized path: the whole strip quantizes once (one
            // per-tensor activation scale), then the filters sweep it in
            // the f32 kernel's broadcast-axpy shape on exact i32 sums.
            let mut qx = scratch.acquire_i8(self.in_ch * t_in);
            let x_scale = quantize_activations_into(input, &mut qx);
            kernels::conv1d_i8(
                qw.values(),
                self.bias.value.data(),
                &qx,
                self.in_ch,
                self.out_ch,
                self.kernel,
                t_in,
                qw.scale() * x_scale,
                out,
            );
            scratch.release_i8(qx);
        } else {
            kernels::conv1d_forward(
                self.weight.value.data(),
                self.bias.value.data(),
                input,
                self.in_ch,
                self.out_ch,
                self.kernel,
                t_in,
                out,
            );
        }
        Ok(Shape::d2(self.out_ch, t_out))
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
            .ok_or(NnError::InvalidState("conv backward before forward"))?
            .clone();
        let t_in = input.shape()[1];
        let t_out = t_in - self.kernel + 1;
        if grad_out.shape() != [self.out_ch, t_out] {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}, {t_out}]", self.out_ch),
                actual: grad_out.shape().to_vec(),
            });
        }

        let mut dx = vec![0.0f32; self.in_ch * t_in];
        {
            let (in_ch, kernel) = (self.in_ch, self.kernel);
            let dw = self.weight.grad.data_mut();
            let db = self.bias.grad.data_mut();
            for (o, db_o) in db.iter_mut().enumerate().take(self.out_ch) {
                for t in 0..t_out {
                    let g = grad_out.data()[o * t_out + t];
                    *db_o += g;
                    for c in 0..in_ch {
                        let in_base = c * t_in + t;
                        let w_base = o * in_ch * kernel + c * kernel;
                        for k in 0..kernel {
                            dw[w_base + k] += g * input.data()[in_base + k];
                        }
                    }
                }
            }
        }
        for o in 0..self.out_ch {
            for t in 0..t_out {
                let g = grad_out.data()[o * t_out + t];
                for c in 0..self.in_ch {
                    for k in 0..self.kernel {
                        dx[c * t_in + t + k] += g * self.w(o, c, k);
                    }
                }
            }
        }
        Tensor::from_vec(dx, &[self.in_ch, t_in])
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
    fn rejects_zero_sizes() {
        assert!(Conv1d::new(0, 1, 3, 0).is_err());
        assert!(Conv1d::new(1, 0, 3, 0).is_err());
        assert!(Conv1d::new(1, 1, 0, 0).is_err());
    }

    #[test]
    fn output_time_shrinks_by_kernel_minus_one() {
        let mut c = Conv1d::new(1, 1, 4, 5).unwrap();
        let x = Tensor::zeros(&[1, 10]).unwrap();
        assert_eq!(c.forward(&x, false).unwrap().shape(), &[1, 7]);
    }

    #[test]
    fn rejects_too_short_input() {
        let mut c = Conv1d::new(1, 1, 4, 5).unwrap();
        let x = Tensor::zeros(&[1, 3]).unwrap();
        assert!(c.forward(&x, false).is_err());
    }

    #[test]
    fn identity_kernel_passes_signal_through() {
        let mut c = Conv1d::new(1, 1, 1, 5).unwrap();
        c.weight.value.data_mut()[0] = 1.0;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_convolution() {
        // kernel [1, -1] over [1, 2, 4] -> [1*1 + 2*(-1), 2*1 + 4*(-1)] = [-1, -2]
        let mut c = Conv1d::new(1, 1, 2, 5).unwrap();
        c.weight.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0], &[1, 3]).unwrap();
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[-1.0, -2.0]);
    }

    #[test]
    fn forward_scratch_matches_forward_bitwise() {
        let mut c = Conv1d::new(2, 3, 3, 17).unwrap();
        let x =
            Tensor::from_vec((0..22).map(|i| (i as f32 * 0.41).sin()).collect(), &[2, 11]).unwrap();
        let y = c.forward(&x, false).unwrap();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        let shape = c
            .forward_scratch(x.data(), Shape::d2(2, 11), &mut out, &mut scratch)
            .unwrap();
        assert_eq!(shape.as_slice(), y.shape());
        assert_eq!(out, y.data());
    }

    #[test]
    fn int8_scratch_path_tracks_f32_within_quant_error() {
        let mut c = Conv1d::new(2, 3, 3, 17).unwrap();
        let x: Vec<f32> = (0..22).map(|i| (i as f32 * 0.41).sin()).collect();
        let mut scratch = Scratch::new();
        let mut f32_out = Vec::new();
        c.forward_scratch(&x, Shape::d2(2, 11), &mut f32_out, &mut scratch)
            .unwrap();
        c.set_precision(Precision::Int8).unwrap();
        let mut i8_out = Vec::new();
        let shape = c
            .forward_scratch(&x, Shape::d2(2, 11), &mut i8_out, &mut scratch)
            .unwrap();
        assert_eq!(shape.as_slice(), &[3, 9]);
        for (a, b) in f32_out.iter().zip(&i8_out) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let c = Conv1d::new(3, 8, 5, 0).unwrap();
        assert_eq!(c.param_count(), 8 * 3 * 5 + 8);
    }

    #[test]
    fn gradient_check() {
        let mut c = Conv1d::new(2, 3, 3, 17).unwrap();
        let x =
            Tensor::from_vec((0..12).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 6]).unwrap();
        let y = c.forward(&x, true).unwrap();
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        let dx = c.backward(&ones).unwrap();
        let eps = 1e-3;

        // Check one weight and one input gradient by finite differences.
        let widx = 7;
        let analytic_w = c.weight.grad.data()[widx];
        let wv = c.weight.value.data()[widx];
        c.weight.value.data_mut()[widx] = wv + eps;
        let yp: f32 = c.forward(&x, true).unwrap().data().iter().sum();
        c.weight.value.data_mut()[widx] = wv - eps;
        let ym: f32 = c.forward(&x, true).unwrap().data().iter().sum();
        c.weight.value.data_mut()[widx] = wv;
        let numeric_w = (yp - ym) / (2.0 * eps);
        assert!(
            (analytic_w - numeric_w).abs() < 1e-2,
            "{analytic_w} vs {numeric_w}"
        );

        let xidx = 4;
        let mut xp = x.clone();
        xp.data_mut()[xidx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[xidx] -= eps;
        let yp: f32 = c.forward(&xp, true).unwrap().data().iter().sum();
        let ym: f32 = c.forward(&xm, true).unwrap().data().iter().sum();
        let numeric_x = (yp - ym) / (2.0 * eps);
        assert!((dx.data()[xidx] - numeric_x).abs() < 1e-2);
    }

    #[test]
    fn backward_shape_checked() {
        let mut c = Conv1d::new(1, 2, 2, 1).unwrap();
        c.forward(&Tensor::zeros(&[1, 5]).unwrap(), true).unwrap();
        assert!(c.backward(&Tensor::zeros(&[2, 5]).unwrap()).is_err());
    }
}
