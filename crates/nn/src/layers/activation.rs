//! The elementwise activation layer: ReLU, the nonlinearity between the
//! layers of every classifier family (the recurrent cells apply their gate
//! sigmoids and tanh internally).

use crate::layers::Layer;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// A ReLU activation layer: `max(0, x)` elementwise.
///
/// # Example
///
/// ```
/// use nn::layers::{Activation, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut relu = Activation::relu();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// assert_eq!(relu.forward(&x, false)?.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Activation {
    /// Cached forward input: its sign mask is the derivative.
    input_cache: Option<Tensor>,
}

impl Activation {
    /// Creates a ReLU layer.
    pub fn relu() -> Self {
        Self { input_cache: None }
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        let data: Vec<f32> = input.data().iter().map(|&x| x.max(0.0)).collect();
        self.input_cache = Some(input.clone());
        Tensor::from_vec(data, input.shape())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        out.clear();
        out.resize(input.len(), 0.0);
        for (y, &x) in out.iter_mut().zip(input) {
            *y = x.max(0.0);
        }
        Ok(shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .input_cache
            .as_ref()
            .ok_or(NnError::InvalidState("activation backward before forward"))?;
        if grad_out.shape() != input.shape() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", input.shape()),
                actual: grad_out.shape().to_vec(),
            });
        }
        let data: Vec<f32> = grad_out
            .data()
            .iter()
            .zip(input.data())
            .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_check_all_kinds() {
        let mut layer = Activation::relu();
        let x = Tensor::from_vec(vec![0.4, -0.3, 1.2, -2.0], &[4]).unwrap();
        let ones = Tensor::from_vec(vec![1.0; 4], &[4]).unwrap();
        layer.forward(&x, true).unwrap();
        let dx = layer.backward(&ones).unwrap();
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let yp: f32 = layer.forward(&xp, true).unwrap().data().iter().sum();
            let ym: f32 = layer.forward(&xm, true).unwrap().data().iter().sum();
            let numeric = (yp - ym) / (2.0 * eps);
            assert!(
                (dx.data()[i] - numeric).abs() < 1e-2,
                "[{i}]: {} vs {numeric}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut l = Activation::relu();
        let y = l
            .forward(
                &Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[3]).unwrap(),
                false,
            )
            .unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut l = Activation::relu();
        assert!(l.backward(&Tensor::zeros(&[2]).unwrap()).is_err());
    }

    #[test]
    fn backward_shape_checked() {
        let mut l = Activation::relu();
        l.forward(&Tensor::zeros(&[3]).unwrap(), false).unwrap();
        assert!(l.backward(&Tensor::zeros(&[2]).unwrap()).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        let l = Activation::relu();
        assert_eq!(l.param_count(), 0);
    }
}
