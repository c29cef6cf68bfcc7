//! Neural-network layers with hand-written backward passes.
//!
//! Every layer implements [`Layer`]: a stateful `forward` that caches what
//! the matching `backward` needs, and `params` exposing trainable parameters
//! to the optimizer. Gradients *accumulate* across `backward` calls so a
//! minibatch is processed sample-by-sample and stepped once.

mod activation;
mod conv;
mod dense;
mod dropout;
mod flatten;
mod gru;
mod lstm;
mod param;
mod pool;

pub use activation::Activation;
pub use conv::Conv1d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use gru::Gru;
pub use lstm::Lstm;
pub use param::Param;
pub use pool::MaxPool1d;

use crate::quant::Precision;
use crate::scratch::{Scratch, Shape};
use crate::{NnError, Tensor};

/// A differentiable layer.
///
/// Implementations cache forward activations internally; `backward` must be
/// called after `forward` with a gradient of the same shape as the forward
/// output, and returns the gradient with respect to the layer input.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output for `input`. `train` enables train-only
    /// behaviour (dropout masks).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input shape is
    /// incompatible with the layer configuration.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NnError>;

    /// Back-propagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output) and returns the gradient w.r.t. the input. Parameter
    /// gradients are *accumulated* into the layer's [`Param`]s.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidState`] when called before `forward`, and
    /// [`NnError::ShapeMismatch`] for a wrong gradient shape.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// Inference-only forward pass over raw slices, writing the output into
    /// `out` and drawing any temporaries from `scratch`. Returns the output
    /// shape. Unlike [`Layer::forward`] this path caches nothing, so a
    /// subsequent `backward` is not supported — it exists so the per-window
    /// classify path can run without steady-state allocations.
    ///
    /// The default implementation falls back to the tensor path (and thus
    /// allocates); hot layers override it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input shape is
    /// incompatible with the layer configuration.
    fn forward_scratch(
        &mut self,
        input: &[f32],
        shape: Shape,
        out: &mut Vec<f32>,
        scratch: &mut Scratch,
    ) -> Result<Shape, NnError> {
        let _ = scratch;
        let x = Tensor::from_vec(input.to_vec(), shape.as_slice())?;
        let y = self.forward(&x, false)?;
        let out_shape = Shape::from_slice(y.shape())?;
        out.clear();
        out.extend_from_slice(y.data());
        Ok(out_shape)
    }

    /// Switches the numeric precision of [`Layer::forward_scratch`].
    /// Weighted layers (`Dense`, `Conv1d`, `Lstm`) snapshot per-tensor
    /// int8 copies of their weights on [`Precision::Int8`] (and drop them
    /// on [`Precision::F32`]); the snapshot reflects the weights at call
    /// time, so re-call after mutating parameters. Parameter-free layers
    /// ignore the call — activations between quantized layers stay f32.
    /// The tensor-path `forward`/`backward` always run in f32.
    ///
    /// # Errors
    ///
    /// The default implementation is infallible; implementations may
    /// propagate shape errors from weight snapshotting.
    fn set_precision(&mut self, precision: Precision) -> Result<(), NnError> {
        let _ = precision;
        Ok(())
    }

    /// Mutable access to the trainable parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Read-only access to the trainable parameters.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Number of trainable scalars in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }
}
