//! Gated recurrent unit with full backpropagation through time.
//!
//! An extension beyond the paper's MLP/CNN/LSTM study: the GRU reaches
//! LSTM-class accuracy with 25% fewer parameters per unit, which matters on
//! the wearable power budget the paper targets. Included so the
//! model-choice guidance of Sec. 2 can be extended.

use crate::init::{seeded_rng, xavier_uniform};
use crate::layers::{Layer, Param};
use crate::{NnError, Tensor};

/// Per-step cache for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    n: Vec<f32>,
    /// `U_n · h_prev` before the reset gate is applied.
    un_h: Vec<f32>,
}

/// A single-direction GRU over `[time, features]` inputs.
///
/// Gate layout in the stacked matrices is `[update (z), reset (r),
/// candidate (n)]`; the candidate uses the convention
/// `n = tanh(Wn·x + r ⊙ (Un·h) + bn)`. With `return_sequences` the layer
/// outputs `[time, hidden]`, otherwise the final hidden state `[hidden]`.
///
/// # Example
///
/// ```
/// use nn::layers::{Gru, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut gru = Gru::new(4, 8, false, 3)?;
/// let x = Tensor::zeros(&[10, 4])?;
/// assert_eq!(gru.forward(&x, false)?.shape(), &[8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gru {
    wx: Param,   // [3H, F]
    wh: Param,   // [3H, H]
    bias: Param, // [3H]
    input_dim: usize,
    hidden: usize,
    return_sequences: bool,
    steps: Vec<StepCache>,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Gru {
    /// Creates a GRU with `input_dim` features and `hidden` units,
    /// Xavier-initialized from `seed`.
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
        let wx = xavier_uniform(&mut rng, input_dim, hidden, 3 * hidden * input_dim);
        let wh = xavier_uniform(&mut rng, hidden, hidden, 3 * hidden * hidden);
        Ok(Self {
            wx: Param::new(Tensor::from_vec(wx, &[3 * hidden, input_dim])?),
            wh: Param::new(Tensor::from_vec(wh, &[3 * hidden, hidden])?),
            bias: Param::new(Tensor::zeros(&[3 * hidden])?),
            input_dim,
            hidden,
            return_sequences,
            steps: Vec::new(),
        })
    }
}

impl Layer for Gru {
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
        let mut seq_out = Vec::with_capacity(if self.return_sequences { t_len * h } else { 0 });
        for t in 0..t_len {
            let x = &input.data()[t * self.input_dim..(t + 1) * self.input_dim];
            let zx = self.wx.value.matvec(x)?;
            let zh = self.wh.value.matvec(&h_prev)?;
            let b = self.bias.value.data();

            let mut z = vec![0.0f32; h];
            let mut r = vec![0.0f32; h];
            let mut n = vec![0.0f32; h];
            let mut un_h = vec![0.0f32; h];
            let mut h_new = vec![0.0f32; h];
            for j in 0..h {
                z[j] = sigmoid(zx[j] + zh[j] + b[j]);
                r[j] = sigmoid(zx[h + j] + zh[h + j] + b[h + j]);
                un_h[j] = zh[2 * h + j];
                n[j] = (zx[2 * h + j] + r[j] * un_h[j] + b[2 * h + j]).tanh();
                h_new[j] = (1.0 - z[j]) * n[j] + z[j] * h_prev[j];
            }
            if self.return_sequences {
                seq_out.extend_from_slice(&h_new);
            }
            self.steps.push(StepCache {
                x: x.to_vec(),
                h_prev: h_prev.clone(),
                z,
                r,
                n,
                un_h,
            });
            h_prev = h_new;
        }
        if self.return_sequences {
            Tensor::from_vec(seq_out, &[t_len, h])
        } else {
            Tensor::from_vec(h_prev, &[h])
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.steps.is_empty() {
            return Err(NnError::InvalidState("gru backward before forward"));
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

        for t in (0..t_len).rev() {
            let step = &self.steps[t];
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

            // Pre-activation gradients laid out [z | r | n].
            let mut d_pre = vec![0.0f32; 3 * h];
            let mut dh_prev = vec![0.0f32; h];
            for j in 0..h {
                let (z, r, n) = (step.z[j], step.r[j], step.n[j]);
                // h = (1 - z) n + z h_prev
                dh_prev[j] += dh[j] * z;
                let dz = dh[j] * (step.h_prev[j] - n);
                let dn = dh[j] * (1.0 - z);
                let dn_pre = dn * (1.0 - n * n);
                let dr = dn_pre * step.un_h[j];
                d_pre[j] = dz * z * (1.0 - z);
                d_pre[h + j] = dr * r * (1.0 - r);
                d_pre[2 * h + j] = dn_pre;
            }

            // Parameter gradients. The recurrent matrix sees h_prev through
            // three different paths: plain for z/r, reset-gated for n.
            {
                let dwx = self.wx.grad.data_mut();
                for (row, &g) in d_pre.iter().enumerate() {
                    let base = row * self.input_dim;
                    for (c, &xv) in step.x.iter().enumerate() {
                        dwx[base + c] += g * xv;
                    }
                }
            }
            {
                let dwh = self.wh.grad.data_mut();
                for j in 0..h {
                    // z and r rows: gradient flows to Uz/Ur · h_prev.
                    for (c, &hv) in step.h_prev.iter().enumerate() {
                        dwh[j * h + c] += d_pre[j] * hv;
                        dwh[(h + j) * h + c] += d_pre[h + j] * hv;
                        // n row: gradient through r ⊙ (Un h_prev).
                        dwh[(2 * h + j) * h + c] += d_pre[2 * h + j] * step.r[j] * hv;
                    }
                }
            }
            for (db, &g) in self.bias.grad.data_mut().iter_mut().zip(&d_pre) {
                *db += g;
            }

            // dx and dh_prev contributions through the matrices.
            let dx = self.wx.value.matvec_t(&d_pre)?;
            dx_all[t * self.input_dim..(t + 1) * self.input_dim].copy_from_slice(&dx);
            // For dh_prev we must gate the candidate row by r before the
            // transpose-multiply.
            let mut d_pre_gated = d_pre.clone();
            for j in 0..h {
                d_pre_gated[2 * h + j] *= step.r[j];
            }
            let via_wh = self.wh.value.matvec_t(&d_pre_gated)?;
            for (d, &v) in dh_prev.iter_mut().zip(&via_wh) {
                *d += v;
            }
            dh_next = dh_prev;
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
        assert!(Gru::new(0, 4, false, 0).is_err());
        assert!(Gru::new(4, 0, false, 0).is_err());
    }

    #[test]
    fn output_shapes() {
        let mut last = Gru::new(3, 5, false, 1).unwrap();
        let mut seq = Gru::new(3, 5, true, 1).unwrap();
        let x = Tensor::zeros(&[7, 3]).unwrap();
        assert_eq!(last.forward(&x, false).unwrap().shape(), &[5]);
        assert_eq!(seq.forward(&x, false).unwrap().shape(), &[7, 5]);
    }

    #[test]
    fn param_count_is_three_quarters_of_lstm() {
        let gru = Gru::new(10, 16, false, 0).unwrap();
        let lstm = crate::layers::Lstm::new(10, 16, false, 0).unwrap();
        assert_eq!(gru.param_count() * 4, lstm.param_count() * 3);
    }

    #[test]
    fn hidden_states_bounded() {
        let mut g = Gru::new(2, 4, true, 5).unwrap();
        let x = Tensor::from_vec(vec![10.0; 12], &[6, 2]).unwrap();
        let y = g.forward(&x, false).unwrap();
        assert!(y.data().iter().all(|&v| v.abs() <= 1.0));
    }

    fn sum_forward(g: &mut Gru, x: &Tensor) -> f32 {
        g.forward(x, true).unwrap().data().iter().sum()
    }

    #[test]
    fn gradient_check_input() {
        let mut g = Gru::new(2, 3, false, 11).unwrap();
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4], &[3, 2]).unwrap();
        let y = g.forward(&x, true).unwrap();
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        let dx = g.backward(&ones).unwrap();
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let numeric = (sum_forward(&mut g, &xp) - sum_forward(&mut g, &xm)) / (2.0 * eps);
            assert!(
                (dx.data()[idx] - numeric).abs() < 2e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn gradient_check_weights_sequence_mode() {
        let mut g = Gru::new(2, 2, true, 13).unwrap();
        let x = Tensor::from_vec(vec![0.3, 0.7, -0.4, 0.1], &[2, 2]).unwrap();
        let y = g.forward(&x, true).unwrap();
        let ones = Tensor::from_vec(vec![1.0; y.len()], y.shape()).unwrap();
        g.backward(&ones).unwrap();
        let eps = 1e-3;
        // Spot-check entries in all three parameter tensors, including a
        // candidate-row recurrent weight (the reset-gated path).
        for (which, idx) in [(0usize, 3usize), (1, 2 * 2 * 2 + 1), (2, 4)] {
            let analytic = match which {
                0 => g.wx.grad.data()[idx],
                1 => g.wh.grad.data()[idx],
                _ => g.bias.grad.data()[idx],
            };
            let get = |g: &Gru| match which {
                0 => g.wx.value.data()[idx],
                1 => g.wh.value.data()[idx],
                _ => g.bias.value.data()[idx],
            };
            let set = |g: &mut Gru, v: f32| match which {
                0 => g.wx.value.data_mut()[idx] = v,
                1 => g.wh.value.data_mut()[idx] = v,
                _ => g.bias.value.data_mut()[idx] = v,
            };
            let base = get(&g);
            set(&mut g, base + eps);
            let yp = sum_forward(&mut g, &x);
            set(&mut g, base - eps);
            let ym = sum_forward(&mut g, &x);
            set(&mut g, base);
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "tensor {which}[{idx}]: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut g = Gru::new(2, 3, false, 1).unwrap();
        assert!(g.backward(&Tensor::zeros(&[3]).unwrap()).is_err());
    }

    #[test]
    fn trains_on_a_sequence_task() {
        // Classify whether the sequence trend is rising or falling.
        use crate::layers::Dense;
        use crate::optim::Adam;
        use crate::train::{fit, FitConfig};
        use crate::Sequential;

        let mut model = Sequential::new();
        model.push(Gru::new(1, 8, false, 3).unwrap());
        model.push(Dense::new(8, 2, 4).unwrap());

        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..40 {
            let rising = k % 2 == 0;
            let seq: Vec<f32> = (0..8)
                .map(|t| {
                    let base = t as f32 / 8.0;
                    let v = if rising { base } else { 1.0 - base };
                    v + 0.05 * ((k * 7 + t) as f32).sin()
                })
                .collect();
            xs.push(Tensor::from_vec(seq, &[8, 1]).unwrap());
            ys.push(usize::from(rising));
        }
        let mut opt = Adam::new(0.02);
        fit(
            &mut model,
            &xs,
            &ys,
            &mut opt,
            &FitConfig {
                epochs: 60,
                batch_size: 8,
                seed: 5,
            },
        )
        .unwrap();
        let acc = crate::metrics::accuracy(&mut model, &xs, &ys).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }
}
