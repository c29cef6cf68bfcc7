//! Trainable parameter: a value tensor paired with its gradient accumulator.

use crate::Tensor;

/// A trainable parameter tensor with an accumulated gradient of the same
/// shape.
///
/// # Example
///
/// ```
/// use nn::layers::Param;
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut p = Param::new(Tensor::zeros(&[2, 2])?);
/// assert_eq!(p.grad.data(), &[0.0; 4]);
/// p.grad.data_mut()[0] = 1.0;
/// p.zero_grad();
/// assert_eq!(p.grad.data(), &[0.0; 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape()).expect("value tensor has a valid shape");
        Self { value, grad }
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
        assert_eq!(p.value.data(), &[1.0, 2.0]);
    }
}
