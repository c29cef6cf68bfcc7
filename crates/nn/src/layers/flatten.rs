//! Flatten layer: reshapes any tensor to 1-D.

use crate::layers::Layer;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// Flattens its input to a 1-D tensor; the backward pass restores the
/// original shape.
///
/// # Example
///
/// ```
/// use nn::layers::{Flatten, Layer};
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(&[2, 3])?, false)?;
/// assert_eq!(y.shape(), &[6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor, NnError> {
        self.input_shape = Some(input.shape().to_vec());
        Ok(input.to_flat())
    }

    fn forward_scratch(
        &mut self,
        input: &[f32],
        _shape: Shape,
        out: &mut Vec<f32>,
        _scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        out.clear();
        out.extend_from_slice(input);
        Ok(Shape::d1(input.len()))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .input_shape
            .as_ref()
            .ok_or(NnError::InvalidState("flatten backward before forward"))?;
        let expected: usize = shape.iter().product();
        if grad_out.len() != expected {
            return Err(NnError::ShapeMismatch {
                expected: format!("{expected} elements"),
                actual: grad_out.shape().to_vec(),
            });
        }
        Tensor::from_vec(grad_out.data().to_vec(), shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let y = f.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[6]);
        let dx = f.backward(&y).unwrap();
        assert_eq!(dx.shape(), &[2, 3]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::zeros(&[4]).unwrap()).is_err());
    }

    #[test]
    fn backward_rejects_wrong_count() {
        let mut f = Flatten::new();
        f.forward(&Tensor::zeros(&[2, 2]).unwrap(), false).unwrap();
        assert!(f.backward(&Tensor::zeros(&[5]).unwrap()).is_err());
    }
}
