//! Long short-term memory layer with full backpropagation through time.

use crate::init::{seeded_rng, xavier_uniform};
use crate::kernels;
use crate::layers::{Layer, Param};
use crate::quant::{quantize_activations_into, Precision, QuantizedTensor};
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// Gate pre-activations/activations per time step, cached for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// A single-direction LSTM over `[time, features]` inputs.
///
/// The weight matrices are stored input-major: `wx` is `[features, 4 ·
/// hidden]` and `wh` is `[hidden, 4 · hidden]`, so each row holds one input's
/// weights into every gate, laid out `[input, forget, candidate, output]`.
/// Both gate products are then the axpy [`kernels::gemv_t`] runs, one
/// accumulator lane per gate row. With `return_sequences` the layer outputs
/// `[time, hidden]` (for stacking, as in the paper's two-layer LSTM
/// classifier); otherwise it outputs the final hidden state `[hidden]`.
///
/// # Example
///
/// ```
/// use nn::layers::{Layer, Lstm};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut lstm = Lstm::new(4, 8, false, 3)?;
/// let x = Tensor::zeros(&[10, 4])?; // 10 time steps of 4 features
/// let h = lstm.forward(&x, false)?;
/// assert_eq!(h.shape(), &[8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lstm {
    wx: Param,   // [F, 4H], input-major
    wh: Param,   // [H, 4H], input-major
    bias: Param, // [4H]
    /// Int8 snapshots of `wx`/`wh`, input-major like them; present iff the
    /// layer runs the quantized scratch path (see
    /// [`Layer::set_precision`]). The gate nonlinearities and cell state
    /// stay f32.
    qwx: Option<QuantizedTensor>,
    qwh: Option<QuantizedTensor>,
    input_dim: usize,
    hidden: usize,
    return_sequences: bool,
    steps: Vec<StepCache>,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The `[cols, rows]` transpose of a row-major `[rows, cols]` matrix.
fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| a[r * cols + c]))
        .collect()
}

impl Lstm {
    /// Creates an LSTM with `input_dim` features and `hidden` units,
    /// Xavier-initialized from `seed`. The forget-gate bias starts at 1.0
    /// (the standard trick that stabilizes early training). The draw is
    /// gate-major, `[4H, F]` then `[4H, H]`, and is transposed once into
    /// the stored input-major layout, so a seed builds the same weights it
    /// always has.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when either size is zero.
    pub fn new(
        input_dim: usize,
        hidden: usize,
        return_sequences: bool,
        seed: u64,
    ) -> Result<Self, NnError> {
        if input_dim == 0 || hidden == 0 {
            return Err(NnError::InvalidParameter {
                name: "input_dim/hidden",
                reason: "must be non-zero",
            });
        }
        let mut rng = seeded_rng(seed);
        let wx = xavier_uniform(&mut rng, input_dim, hidden, 4 * hidden * input_dim);
        let wh = xavier_uniform(&mut rng, hidden, hidden, 4 * hidden * hidden);
        let mut bias = vec![0.0f32; 4 * hidden];
        for b in bias.iter_mut().skip(hidden).take(hidden) {
            *b = 1.0; // forget gate
        }
        Ok(Self {
            wx: Param::new(Tensor::from_vec(
                transpose(&wx, 4 * hidden, input_dim),
                &[input_dim, 4 * hidden],
            )?),
            wh: Param::new(Tensor::from_vec(
                transpose(&wh, 4 * hidden, hidden),
                &[hidden, 4 * hidden],
            )?),
            bias: Param::new(Tensor::from_vec(bias, &[4 * hidden])?),
            qwx: None,
            qwh: None,
            input_dim,
            hidden,
            return_sequences,
            steps: Vec::new(),
        })
    }
}

impl Layer for Lstm {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.len() != 2 || shape[1] != self.input_dim || shape[0] == 0 {
            return Err(NnError::ShapeMismatch {
                expected: format!("[t >= 1, {}]", self.input_dim),
                actual: shape.to_vec(),
            });
        }
        let (t_len, h) = (shape[0], self.hidden);
        self.steps.clear();
        self.steps.reserve(t_len);

        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        let mut seq_out = Vec::with_capacity(if self.return_sequences { t_len * h } else { 0 });

        for t in 0..t_len {
            let x = &input.data()[t * self.input_dim..(t + 1) * self.input_dim];
            // z = Wx·x + Wh·h_prev + b, laid out as [i | f | g | o].
            let mut z = self.wx.value.matvec_t(x)?;
            let zh = self.wh.value.matvec_t(&h_prev)?;
            for ((zi, &zhi), &bi) in z.iter_mut().zip(&zh).zip(self.bias.value.data()) {
                *zi += zhi + bi;
            }
            let mut i_gate = vec![0.0f32; h];
            let mut f_gate = vec![0.0f32; h];
            let mut g_gate = vec![0.0f32; h];
            let mut o_gate = vec![0.0f32; h];
            let mut c = vec![0.0f32; h];
            let mut tanh_c = vec![0.0f32; h];
            let mut h_new = vec![0.0f32; h];
            for j in 0..h {
                i_gate[j] = sigmoid(z[j]);
                f_gate[j] = sigmoid(z[h + j]);
                g_gate[j] = z[2 * h + j].tanh();
                o_gate[j] = sigmoid(z[3 * h + j]);
                c[j] = f_gate[j] * c_prev[j] + i_gate[j] * g_gate[j];
                tanh_c[j] = c[j].tanh();
                h_new[j] = o_gate[j] * tanh_c[j];
            }
            if self.return_sequences {
                seq_out.extend_from_slice(&h_new);
            }
            self.steps.push(StepCache {
                x: x.to_vec(),
                h_prev: h_prev.clone(),
                c_prev: c_prev.clone(),
                i: i_gate,
                f: f_gate,
                g: g_gate,
                o: o_gate,
                tanh_c,
            });
            h_prev = h_new;
            c_prev = c;
        }

        if self.return_sequences {
            Tensor::from_vec(seq_out, &[t_len, h])
        } else {
            Tensor::from_vec(h_prev, &[h])
        }
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let dims = shape.as_slice();
        if dims.len() != 2 || dims[1] != self.input_dim || dims[0] == 0 {
            return Err(NnError::ShapeMismatch {
                expected: format!("[t >= 1, {}]", self.input_dim),
                actual: dims.to_vec(),
            });
        }
        let (t_len, h, f_dim) = (dims[0], self.hidden, self.input_dim);
        let quantized = self.qwx.is_some();
        let mut z = scratch.acquire(4 * h);
        let mut zh = scratch.acquire(4 * h);
        let mut h_prev = scratch.acquire(h);
        let mut c_prev = scratch.acquire(h);
        // Int8 temporaries live in the separate i8 pool so they never
        // steal the f32 buffers above; the f32 path touches neither.
        let (mut qx, mut qh) = if quantized {
            (scratch.acquire_i8(f_dim), scratch.acquire_i8(h))
        } else {
            (Vec::new(), Vec::new())
        };
        out.clear();
        out.resize(if self.return_sequences { t_len * h } else { h }, 0.0);

        for t in 0..t_len {
            let x = &input[t * f_dim..(t + 1) * f_dim];
            if let (Some(qwx), Some(qwh)) = (&self.qwx, &self.qwh) {
                // Quantized gate pre-activations: x_t and h_{t-1} each
                // quantize per step (their own scale), gates accumulate
                // in i32 and rescale once per row:
                // z = dot_x as f32 * cx + dot_h as f32 * ch, then + b.
                let x_scale = quantize_activations_into(x, &mut qx);
                let h_scale = quantize_activations_into(&h_prev, &mut qh);
                let cx = qwx.scale() * x_scale;
                let ch = qwh.scale() * h_scale;
                kernels::gemv_t_i8(qwx.values(), f_dim, 4 * h, &qx, cx, &mut z);
                kernels::gemv_t_i8(qwh.values(), h, 4 * h, &qh, ch, &mut zh);
                for ((zi, &zhi), &bi) in z.iter_mut().zip(zh.iter()).zip(self.bias.value.data()) {
                    *zi += zhi;
                    *zi += bi;
                }
            } else {
                kernels::gemv_t(self.wx.value.data(), f_dim, 4 * h, x, &mut z);
                kernels::gemv_t(self.wh.value.data(), h, 4 * h, &h_prev, &mut zh);
                for ((zi, &zhi), &bi) in z.iter_mut().zip(zh.iter()).zip(self.bias.value.data()) {
                    *zi += zhi + bi;
                }
            }
            for j in 0..h {
                let i_gate = sigmoid(z[j]);
                let f_gate = sigmoid(z[h + j]);
                let g_gate = z[2 * h + j].tanh();
                let o_gate = sigmoid(z[3 * h + j]);
                let c = f_gate * c_prev[j] + i_gate * g_gate;
                c_prev[j] = c;
                h_prev[j] = o_gate * c.tanh();
            }
            if self.return_sequences {
                out[t * h..(t + 1) * h].copy_from_slice(&h_prev);
            }
        }
        if !self.return_sequences {
            out.copy_from_slice(&h_prev);
        }
        if quantized {
            scratch.release_i8(qx);
            scratch.release_i8(qh);
        }
        scratch.release(z);
        scratch.release(zh);
        scratch.release(h_prev);
        scratch.release(c_prev);
        Ok(if self.return_sequences {
            Shape::d2(t_len, h)
        } else {
            Shape::d1(h)
        })
    }

    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        match precision {
            Precision::F32 => {
                self.qwx = None;
                self.qwh = None;
            }
            Precision::Int8 => {
                self.qwx = Some(QuantizedTensor::quantize(&self.wx.value));
                self.qwh = Some(QuantizedTensor::quantize(&self.wh.value));
            }
        }
        Ok(())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.steps.is_empty() {
            return Err(NnError::InvalidState("lstm backward before forward"));
        }
        let t_len = self.steps.len();
        let h = self.hidden;
        let expected: &[usize] = if self.return_sequences {
            &[t_len, h]
        } else {
            &[h]
        };
        if grad_out.shape() != expected {
            return Err(NnError::ShapeMismatch {
                expected: format!("{expected:?}"),
                actual: grad_out.shape().to_vec(),
            });
        }

        let mut dx_all = vec![0.0f32; t_len * self.input_dim];
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];

        for t in (0..t_len).rev() {
            let step = &self.steps[t];
            // Gradient flowing into h_t: from the output plus from t+1.
            let mut dh = dh_next.clone();
            if self.return_sequences {
                for (j, dhj) in dh.iter_mut().enumerate() {
                    *dhj += grad_out.data()[t * h + j];
                }
            } else if t == t_len - 1 {
                for (dhj, &g) in dh.iter_mut().zip(grad_out.data()) {
                    *dhj += g;
                }
            }

            let mut dz = vec![0.0f32; 4 * h];
            let mut dc_prev = vec![0.0f32; h];
            for j in 0..h {
                let do_ = dh[j] * step.tanh_c[j];
                let mut dc = dc_next[j] + dh[j] * step.o[j] * (1.0 - step.tanh_c[j].powi(2));
                let di = dc * step.g[j];
                let df = dc * step.c_prev[j];
                let dg = dc * step.i[j];
                dc *= step.f[j];
                dc_prev[j] = dc;
                dz[j] = di * step.i[j] * (1.0 - step.i[j]);
                dz[h + j] = df * step.f[j] * (1.0 - step.f[j]);
                dz[2 * h + j] = dg * (1.0 - step.g[j].powi(2));
                dz[3 * h + j] = do_ * step.o[j] * (1.0 - step.o[j]);
            }

            // Accumulate parameter gradients: dWx += x ⊗ dz, dWh += h_prev ⊗ dz
            // (input-major, like the weights).
            for (dwx_c, &xv) in self.wx.grad.data_mut().chunks_exact_mut(4 * h).zip(&step.x) {
                for (dw, &dzr) in dwx_c.iter_mut().zip(&dz) {
                    *dw += dzr * xv;
                }
            }
            for (dwh_c, &hv) in self
                .wh
                .grad
                .data_mut()
                .chunks_exact_mut(4 * h)
                .zip(&step.h_prev)
            {
                for (dw, &dzr) in dwh_c.iter_mut().zip(&dz) {
                    *dw += dzr * hv;
                }
            }
            for (db, &dzr) in self.bias.grad.data_mut().iter_mut().zip(&dz) {
                *db += dzr;
            }

            // dx_t = Wxᵀ dz; dh_prev = Whᵀ dz: plain products over the
            // input-major matrices.
            let dx = self.wx.value.matvec(&dz)?;
            dx_all[t * self.input_dim..(t + 1) * self.input_dim].copy_from_slice(&dx);
            dh_next = self.wh.value.matvec(&dz)?;
            dc_next = dc_prev;
        }

        Tensor::from_vec(dx_all, &[t_len, self.input_dim])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_sizes() {
        assert!(Lstm::new(0, 4, false, 0).is_err());
        assert!(Lstm::new(4, 0, false, 0).is_err());
    }

    #[test]
    fn output_shapes() {
        let mut last = Lstm::new(3, 5, false, 1).unwrap();
        let mut seq = Lstm::new(3, 5, true, 1).unwrap();
        let x = Tensor::zeros(&[7, 3]).unwrap();
        assert_eq!(last.forward(&x, false).unwrap().shape(), &[5]);
        assert_eq!(seq.forward(&x, false).unwrap().shape(), &[7, 5]);
    }

    #[test]
    fn rejects_wrong_feature_dim() {
        let mut l = Lstm::new(3, 5, false, 1).unwrap();
        assert!(l.forward(&Tensor::zeros(&[7, 4]).unwrap(), false).is_err());
    }

    #[test]
    fn param_count_matches_keras_formula() {
        // Keras: 4 * (H * (F + H) + H)
        let l = Lstm::new(10, 16, false, 0).unwrap();
        assert_eq!(l.param_count(), 4 * (16 * (10 + 16) + 16));
    }

    #[test]
    fn hidden_states_bounded() {
        // h = o * tanh(c) with o in (0,1) so |h| < 1.
        let mut l = Lstm::new(2, 4, true, 5).unwrap();
        let x = Tensor::from_vec(vec![10.0; 12], &[6, 2]).unwrap();
        let y = l.forward(&x, false).unwrap();
        assert!(y.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn forward_scratch_matches_forward_bitwise() {
        for return_sequences in [false, true] {
            let mut l = Lstm::new(3, 4, return_sequences, 23).unwrap();
            let x = Tensor::from_vec((0..15).map(|i| (i as f32 * 0.29).sin()).collect(), &[5, 3])
                .unwrap();
            let y = l.forward(&x, false).unwrap();
            let mut scratch = Scratch::new();
            let mut out = Vec::new();
            let shape = l
                .forward_scratch(x.data(), Shape::d2(5, 3), &mut out, &mut scratch)
                .unwrap();
            assert_eq!(shape.as_slice(), y.shape());
            assert_eq!(out, y.data(), "seq={return_sequences}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Lstm::new(2, 3, false, 9).unwrap();
        let mut b = Lstm::new(2, 3, false, 9).unwrap();
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[2, 2]).unwrap();
        assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    fn sum_forward(l: &mut Lstm, x: &Tensor) -> f32 {
        l.forward(x, true).unwrap().data().iter().sum()
    }

    #[test]
    fn gradient_check_input_last_state() {
        let mut l = Lstm::new(2, 3, false, 11).unwrap();
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4], &[3, 2]).unwrap();
        let y = l.forward(&x, true).unwrap();
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        let dx = l.backward(&ones).unwrap();

        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (sum_forward(&mut l, &xp) - sum_forward(&mut l, &xm)) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - numeric).abs() < 2e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_check_weights_sequence_mode() {
        let mut l = Lstm::new(2, 2, true, 13).unwrap();
        let x = Tensor::from_vec(vec![0.3, 0.7, -0.4, 0.1], &[2, 2]).unwrap();
        let y = l.forward(&x, true).unwrap();
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        l.backward(&ones).unwrap();

        let eps = 1e-3;
        // Spot-check a few weights in each parameter tensor.
        for (pname, pidx) in [("wx", 3usize), ("wh", 5), ("bias", 1)] {
            let analytic = match pname {
                "wx" => l.wx.grad.data()[pidx],
                "wh" => l.wh.grad.data()[pidx],
                _ => l.bias.grad.data()[pidx],
            };
            let value = |l: &Lstm| match pname {
                "wx" => l.wx.value.data()[pidx],
                "wh" => l.wh.value.data()[pidx],
                _ => l.bias.value.data()[pidx],
            };
            let set = |l: &mut Lstm, v: f32| match pname {
                "wx" => l.wx.value.data_mut()[pidx] = v,
                "wh" => l.wh.value.data_mut()[pidx] = v,
                _ => l.bias.value.data_mut()[pidx] = v,
            };
            let base = value(&l);
            set(&mut l, base + eps);
            let yp = sum_forward(&mut l, &x);
            set(&mut l, base - eps);
            let ym = sum_forward(&mut l, &x);
            set(&mut l, base);
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "{pname}[{pidx}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut l = Lstm::new(2, 3, false, 1).unwrap();
        assert!(l.backward(&Tensor::zeros(&[3]).unwrap()).is_err());
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let mut l = Lstm::new(2, 3, false, 1).unwrap();
        l.forward(&Tensor::zeros(&[4, 2]).unwrap(), true).unwrap();
        assert!(l.backward(&Tensor::zeros(&[4]).unwrap()).is_err());
    }
}
