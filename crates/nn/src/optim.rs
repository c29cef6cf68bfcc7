//! The optimizer: Adam.

use crate::layers::Param;
use crate::NnError;

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// Call [`Adam::step`] once per minibatch (after the per-sample `backward`
/// calls have accumulated gradients), then zero the gradients.
///
/// # Example
///
/// ```
/// use nn::layers::Param;
/// use nn::optim::Adam;
/// use nn::Tensor;
///
/// # fn main() -> Result<(), nn::NnError> {
/// let mut w = Param::new(Tensor::from_vec(vec![1.0], &[1])?);
/// w.grad.data_mut()[0] = 0.5;
/// let mut opt = Adam::new(1e-3);
/// opt.step(&mut [&mut w], 1.0)?;
/// // Adam's first step moves each weight by the learning rate.
/// assert!((w.value.data()[0] - (1.0 - 1e-3)).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the canonical defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update to `params` using their accumulated gradients.
    ///
    /// `scale` is multiplied into every gradient before the update — pass
    /// `1.0 / batch_size` to average a minibatch.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidState`] when the parameter list changes
    /// shape between calls (slot mismatch).
    pub fn step(&mut self, params: &mut [&mut Param], scale: f32) -> Result<(), NnError> {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        if self.m.len() != params.len() {
            return Err(NnError::InvalidState("optimizer slot count changed"));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            if m.len() != p.value.len() {
                return Err(NnError::InvalidState("optimizer slot shape changed"));
            }
            for (i, (mi, vi)) in m.iter_mut().zip(v.iter_mut()).enumerate() {
                let g = p.grad.data()[i] * scale;
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                p.value.data_mut()[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Minimizes f(w) = (w - 3)^2 and checks convergence to w = 3.
    fn converge(opt: &mut Adam, iters: usize) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![0.0], &[1]).unwrap());
        for _ in 0..iters {
            let w = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p], 1.0).unwrap();
            p.zero_grad();
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let w = converge(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn scale_averages_minibatch() {
        // Two accumulated identical gradients with scale 0.5 must equal one
        // gradient with scale 1.0.
        let mut p1 = Param::new(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut p2 = Param::new(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        p1.grad.data_mut()[0] = 2.0; // two samples, each grad 1.0
        p2.grad.data_mut()[0] = 1.0;
        let mut o1 = Adam::new(0.1);
        let mut o2 = Adam::new(0.1);
        o1.step(&mut [&mut p1], 0.5).unwrap();
        o2.step(&mut [&mut p2], 1.0).unwrap();
        assert!((p1.value.data()[0] - p2.value.data()[0]).abs() < 1e-6);
    }

    #[test]
    fn slot_change_detected() {
        let mut p = Param::new(Tensor::zeros(&[2]).unwrap());
        let mut q = Param::new(Tensor::zeros(&[2]).unwrap());
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut p], 1.0).unwrap();
        assert!(opt.step(&mut [&mut p, &mut q], 1.0).is_err());
    }
}
