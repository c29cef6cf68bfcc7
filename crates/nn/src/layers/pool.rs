//! Max pooling over the time axis.

use crate::layers::Layer;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// Non-overlapping 1-D max pooling over `[channels, time]` inputs.
///
/// Pool size equals the stride (Keras `MaxPooling1D` default). Trailing
/// samples that do not fill a whole pool window are dropped.
///
/// # Example
///
/// ```
/// use nn::layers::{Layer, MaxPool1d};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut pool = MaxPool1d::new(2)?;
/// let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 4])?;
/// assert_eq!(pool.forward(&x, false)?.data(), &[5.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MaxPool1d {
    pool: usize,
    /// Cached `(input_shape, argmax flat indices)` from the last forward.
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool1d {
    /// Creates a pooling layer with window/stride `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when `pool` is zero.
    pub fn new(pool: usize) -> Result<Self, NnError> {
        if pool == 0 {
            return Err(NnError::InvalidParameter {
                name: "pool",
                reason: "must be non-zero",
            });
        }
        Ok(Self { pool, cache: None })
    }

    /// The pool window size.
    pub fn pool(&self) -> usize {
        self.pool
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let shape = input.shape();
        if shape.len() != 2 || shape[1] < self.pool {
            return Err(NnError::ShapeMismatch {
                expected: format!("[c, t >= {}]", self.pool),
                actual: shape.to_vec(),
            });
        }
        let (ch, t_in) = (shape[0], shape[1]);
        let t_out = t_in / self.pool;
        let mut out = vec![0.0f32; ch * t_out];
        let mut argmax = vec![0usize; ch * t_out];
        for c in 0..ch {
            for t in 0..t_out {
                let start = c * t_in + t * self.pool;
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = start;
                for i in start..start + self.pool {
                    if input.data()[i] > best {
                        best = input.data()[i];
                        best_idx = i;
                    }
                }
                out[c * t_out + t] = best;
                argmax[c * t_out + t] = best_idx;
            }
        }
        self.cache = Some((shape.to_vec(), argmax));
        Tensor::from_vec(out, &[ch, t_out])
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let dims = shape.as_slice();
        if dims.len() != 2 || dims[1] < self.pool {
            return Err(NnError::ShapeMismatch {
                expected: format!("[c, t >= {}]", self.pool),
                actual: dims.to_vec(),
            });
        }
        let (ch, t_in) = (dims[0], dims[1]);
        let t_out = t_in / self.pool;
        out.clear();
        out.resize(ch * t_out, 0.0);
        for c in 0..ch {
            for t in 0..t_out {
                let start = c * t_in + t * self.pool;
                let mut best = f32::NEG_INFINITY;
                for &v in &input[start..start + self.pool] {
                    if v > best {
                        best = v;
                    }
                }
                out[c * t_out + t] = best;
            }
        }
        Ok(Shape::d2(ch, t_out))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let (in_shape, argmax) = self
            .cache
            .as_ref()
            .ok_or(NnError::InvalidState("pool backward before forward"))?;
        if grad_out.len() != argmax.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} elements", argmax.len()),
                actual: grad_out.shape().to_vec(),
            });
        }
        let mut dx = vec![0.0f32; in_shape.iter().product()];
        for (g, &idx) in grad_out.data().iter().zip(argmax) {
            dx[idx] += g;
        }
        Tensor::from_vec(dx, in_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_pool() {
        assert!(MaxPool1d::new(0).is_err());
    }

    #[test]
    fn drops_trailing_partial_window() {
        let mut p = MaxPool1d::new(3).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0, 9.0], &[1, 5]).unwrap();
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn multi_channel() {
        let mut p = MaxPool1d::new(2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[2, 4]).unwrap();
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[2.0, 4.0, 8.0, 6.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut p = MaxPool1d::new(2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 3.0], &[1, 4]).unwrap();
        p.forward(&x, true).unwrap();
        let g = Tensor::from_vec(vec![10.0, 20.0], &[1, 2]).unwrap();
        let dx = p.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 0.0, 20.0]);
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut p = MaxPool1d::new(2).unwrap();
        assert!(p.backward(&Tensor::zeros(&[1, 1]).unwrap()).is_err());
    }

    #[test]
    fn rejects_input_shorter_than_pool() {
        let mut p = MaxPool1d::new(4).unwrap();
        assert!(p.forward(&Tensor::zeros(&[1, 3]).unwrap(), false).is_err());
    }
}
