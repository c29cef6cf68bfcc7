//! Sequential model composition.

use crate::layers::{Layer, Param};
use crate::loss::{cross_entropy, softmax, softmax_in_place};
use crate::quant::Precision;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// A stack of layers applied in order.
///
/// # Example
///
/// ```
/// use nn::layers::{Activation, Dense};
/// use nn::{Sequential, Tensor};
/// # fn main() -> Result<(), nn::NnError> {
/// let mut model = Sequential::new();
/// model.push(Dense::new(4, 8, 1)?);
/// model.push(Activation::relu());
/// model.push(Dense::new(8, 3, 2)?);
/// let logits = model.forward(&Tensor::zeros(&[4])?, false)?;
/// assert_eq!(logits.shape(), &[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    precision: Precision,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer to the stack.
    ///
    /// The new layer joins at the model's current [`Sequential::precision`]
    /// so late pushes cannot silently mix numeric paths.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        let mut boxed: Box<dyn Layer> = Box::new(layer);
        if self.precision != Precision::F32 {
            // Freshly constructed layers are f32; mirror the model setting.
            // Snapshotting a just-built layer cannot fail.
            let _ = boxed.set_precision(self.precision);
        }
        self.layers.push(boxed);
    }

    /// Switches the inference precision of the scratch path
    /// ([`Sequential::forward_with`] / [`Sequential::predict_proba_with`]).
    ///
    /// [`Precision::Int8`] makes every weighted layer snapshot a per-tensor
    /// int8 copy of its weights and run `i8×i8→i32` dot products with one
    /// f32 rescale per output; [`Precision::F32`] drops the snapshots and
    /// restores the bit-exact float path. Training and the tensor-path
    /// `forward` always run in f32 — re-call this after `fit`/optimizer
    /// steps to refresh stale snapshots.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; on error the model is left in f32.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        for layer in &mut self.layers {
            if let Err(e) = layer.set_precision(precision) {
                for l in &mut self.layers {
                    let _ = l.set_precision(Precision::F32);
                }
                self.precision = Precision::F32;
                return Err(e);
            }
        }
        self.precision = precision;
        Ok(())
    }

    /// Current inference precision of the scratch path.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidState`] for an empty model and propagates
    /// layer shape errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidState("model has no layers"));
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Inference-only forward pass that reuses buffers from `scratch`
    /// instead of allocating per layer. Returns the output shape and a view
    /// of the output living inside the workspace; the data stays valid in
    /// [`Scratch::out`] until the next scratch-based call.
    ///
    /// Results are bit-for-bit identical to [`Sequential::forward`] in
    /// inference mode. After a few warm-up calls on a fixed architecture the
    /// pass performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidState`] for an empty model and propagates
    /// layer shape errors.
    pub fn forward_with<'s>(
        &mut self,
        input: &[f32],
        shape: &[usize],
        scratch: &'s mut Scratch,
    ) -> Result<(Shape, &'s [f32]), NnError> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidState("model has no layers"));
        }
        let mut s = Shape::from_slice(shape)?;
        if s.len() != input.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} elements for shape {shape:?}", s.len()),
                actual: vec![input.len()],
            });
        }
        let mut cur = scratch.acquire(input.len());
        cur.copy_from_slice(input);
        let mut next = scratch.acquire(0);
        let mut result = Ok(());
        for layer in &mut self.layers {
            match layer.forward_scratch(&cur, s, &mut next, scratch) {
                Ok(out_shape) => s = out_shape,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        scratch.release(next);
        match result {
            Ok(()) => Ok((s, scratch.install_out(cur))),
            Err(e) => {
                scratch.release(cur);
                Err(e)
            }
        }
    }

    /// Class probabilities via the scratch path: [`Sequential::forward_with`]
    /// followed by an in-place softmax. Bit-for-bit identical to
    /// [`Sequential::predict_proba`], without its per-call allocations.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict_proba_with<'s>(
        &mut self,
        input: &[f32],
        shape: &[usize],
        scratch: &'s mut Scratch,
    ) -> Result<&'s [f32], NnError> {
        self.forward_with(input, shape, &mut *scratch)?;
        softmax_in_place(scratch.out_mut());
        Ok(scratch.out())
    }

    /// Back-propagates a gradient of the loss w.r.t. the model output.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; in particular `backward` must follow a
    /// `forward` call.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidState("model has no layers"));
        }
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// One training step for one labelled sample: forward, softmax
    /// cross-entropy, backward. Gradients accumulate into the parameters
    /// (call an optimizer step + [`Sequential::zero_grad`] per minibatch).
    ///
    /// Returns the sample loss.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward and loss errors.
    pub fn train_step(&mut self, input: &Tensor, label: usize) -> Result<f32, NnError> {
        let logits = self.forward(input, true)?;
        let (loss, grad) = cross_entropy(&logits, label)?;
        self.backward(&grad)?;
        Ok(loss)
    }

    /// Class probabilities for an input (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict_proba(&mut self, input: &Tensor) -> Result<Vec<f32>, NnError> {
        let logits = self.forward(input, false)?;
        Ok(softmax(logits.data()))
    }

    /// Most likely class index for an input (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<usize, NnError> {
        let probs = self.predict_proba(input)?;
        Ok(probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }

    /// Mutable access to every parameter in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Read-only access to every parameter in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Zeroes every accumulated gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense, Lstm};

    fn tiny_model() -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(3, 4, 1).unwrap());
        m.push(Activation::relu());
        m.push(Dense::new(4, 2, 2).unwrap());
        m
    }

    #[test]
    fn empty_model_errors() {
        let mut m = Sequential::new();
        assert!(m.forward(&Tensor::zeros(&[1]).unwrap(), false).is_err());
        assert!(m.backward(&Tensor::zeros(&[1]).unwrap()).is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn forward_chains_layers() {
        let mut m = tiny_model();
        let y = m.forward(&Tensor::zeros(&[3]).unwrap(), false).unwrap();
        assert_eq!(y.shape(), &[2]);
    }

    #[test]
    fn predict_proba_is_distribution() {
        let mut m = tiny_model();
        let p = m.predict_proba(&Tensor::zeros(&[3]).unwrap()).unwrap();
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn train_step_reduces_loss() {
        let mut m = tiny_model();
        let x = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[3]).unwrap();
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let loss = m.train_step(&x, 1).unwrap();
            // Manual SGD step.
            for p in m.params_mut() {
                let grads: Vec<f32> = p.grad.data().to_vec();
                for (v, g) in p.value.data_mut().iter_mut().zip(grads) {
                    *v -= 0.5 * g;
                }
                p.zero_grad();
            }
            last = loss;
        }
        assert!(last < 0.1, "loss did not converge: {last}");
        assert_eq!(m.predict(&x).unwrap(), 1);
    }

    #[test]
    fn param_count_sums_layers() {
        let m = tiny_model();
        assert_eq!(m.param_count(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn mixed_sequence_model_shapes() {
        // LSTM(seq) -> LSTM(last) -> Dense, like the paper's classifier.
        let mut m = Sequential::new();
        m.push(Lstm::new(6, 8, true, 1).unwrap());
        m.push(Lstm::new(8, 8, false, 2).unwrap());
        m.push(Dense::new(8, 5, 3).unwrap());
        let y = m.forward(&Tensor::zeros(&[12, 6]).unwrap(), false).unwrap();
        assert_eq!(y.shape(), &[5]);
    }

    #[test]
    fn forward_with_matches_forward_bitwise() {
        let mut m = tiny_model();
        let x = Tensor::from_vec(vec![0.5, -0.5, 1.0], &[3]).unwrap();
        let expected = m.forward(&x, false).unwrap();
        let probs_expected = m.predict_proba(&x).unwrap();
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let (shape, out) = m.forward_with(x.data(), x.shape(), &mut scratch).unwrap();
            assert_eq!(shape.as_slice(), expected.shape());
            assert_eq!(out, expected.data());
        }
        let probs = m
            .predict_proba_with(x.data(), x.shape(), &mut scratch)
            .unwrap();
        assert_eq!(probs, probs_expected.as_slice());
    }

    #[test]
    fn forward_with_matches_on_sequence_model() {
        let mut m = Sequential::new();
        m.push(Lstm::new(6, 8, true, 1).unwrap());
        m.push(Lstm::new(8, 8, false, 2).unwrap());
        m.push(Dense::new(8, 5, 3).unwrap());
        let x =
            Tensor::from_vec((0..72).map(|i| (i as f32 * 0.13).sin()).collect(), &[12, 6]).unwrap();
        let expected = m.forward(&x, false).unwrap();
        let mut scratch = Scratch::new();
        let (shape, out) = m.forward_with(x.data(), x.shape(), &mut scratch).unwrap();
        assert_eq!(shape.as_slice(), expected.shape());
        assert_eq!(out, expected.data());
    }

    #[test]
    fn set_precision_switches_scratch_path_and_back() {
        use crate::quant::Precision;
        let mut m = tiny_model();
        let x = [0.5f32, -0.5, 1.0];
        let mut scratch = Scratch::new();
        let f32_out = {
            let (_, out) = m.forward_with(&x, &[3], &mut scratch).unwrap();
            out.to_vec()
        };
        m.set_precision(Precision::Int8).unwrap();
        assert_eq!(m.precision(), Precision::Int8);
        let i8_out = {
            let (_, out) = m.forward_with(&x, &[3], &mut scratch).unwrap();
            out.to_vec()
        };
        for (a, b) in f32_out.iter().zip(&i8_out) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
        m.set_precision(Precision::F32).unwrap();
        let (_, back) = m.forward_with(&x, &[3], &mut scratch).unwrap();
        assert_eq!(back, f32_out.as_slice());
    }

    #[test]
    fn push_after_set_precision_quantizes_new_layer() {
        use crate::quant::Precision;
        let mut m = Sequential::new();
        m.push(Dense::new(3, 4, 1).unwrap());
        m.set_precision(Precision::Int8).unwrap();
        m.push(Dense::new(4, 2, 2).unwrap());
        // A reference model quantized after both pushes must agree exactly:
        // both snapshots come from identical (untrained) weights.
        let mut r = Sequential::new();
        r.push(Dense::new(3, 4, 1).unwrap());
        r.push(Dense::new(4, 2, 2).unwrap());
        r.set_precision(Precision::Int8).unwrap();
        let x = [0.5f32, -0.5, 1.0];
        let mut scratch = Scratch::new();
        let a = m.forward_with(&x, &[3], &mut scratch).unwrap().1.to_vec();
        let b = r.forward_with(&x, &[3], &mut scratch).unwrap().1.to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn forward_with_rejects_bad_input() {
        let mut m = tiny_model();
        let mut scratch = Scratch::new();
        assert!(m.forward_with(&[0.0; 2], &[3], &mut scratch).is_err());
        assert!(m.forward_with(&[0.0; 4], &[4], &mut scratch).is_err());
        let mut empty = Sequential::new();
        assert!(empty.forward_with(&[0.0], &[1], &mut scratch).is_err());
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut m = tiny_model();
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]).unwrap();
        m.train_step(&x, 0).unwrap();
        let nonzero = |p: &&Param| p.grad.data().iter().any(|&g| g != 0.0);
        assert!(m.params().iter().any(nonzero));
        m.zero_grad();
        assert!(!m.params().iter().any(nonzero));
    }
}
