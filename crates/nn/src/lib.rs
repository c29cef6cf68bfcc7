//! A small from-scratch neural-network library powering the affect
//! classifiers of the `affectsys` reproduction (DAC 2022).
//!
//! The paper compares three classifier families on emotional-speech corpora:
//! a multi-layer perceptron ("NN"), a 1-D convolutional network ("CNN"), and
//! a long short-term memory network ("LSTM"), each small enough to deploy on
//! a wearable, plus an 8-bit post-training quantization study. This crate
//! implements everything those experiments need:
//!
//! * [`tensor::Tensor`] — a dense row-major tensor with the handful of ops
//!   the layers require,
//! * [`kernels`] — register-blocked and axpy matrix–vector and convolution
//!   kernels (bit-for-bit equal to the naive loops) and exact i8×i8→i32
//!   twins, the convolutions with AVX2 and AVX-512F arms,
//! * [`scratch`] — a reusable inference workspace so the steady-state
//!   forward pass allocates nothing,
//! * [`layers`] — `Dense`, `Conv1d`, `MaxPool1d`, `Lstm`, `Gru`, ReLU,
//!   `Dropout`, `Flatten`, all with hand-written backward passes,
//! * [`model::Sequential`] — layer composition, forward/backward, prediction,
//! * [`loss`] — softmax cross-entropy,
//! * [`optim`] — the Adam optimizer,
//! * [`train`] — a minibatch training loop with shuffling,
//! * [`quant`] — per-tensor affine int8 weight quantization and a quantized
//!   inference path (for the Fig. 3(c)/(d) experiments), selectable at run
//!   time per model via [`Sequential::set_precision`],
//! * [`hdc`] — a hyperdimensional-computing affect classifier (binary
//!   hypervectors, XOR bind / majority bundle, Hamming lookup) that forms
//!   the integer-only bottom rung of the runtime degradation ladder,
//! * [`metrics`] — accuracy and confusion matrices (Fig. 3(a)).
//!
//! # Example
//!
//! Train a tiny MLP on a linearly separable toy problem:
//!
//! ```
//! use nn::layers::{Activation, Dense};
//! use nn::model::Sequential;
//! use nn::optim::Adam;
//! use nn::tensor::Tensor;
//! use nn::train::{fit, FitConfig};
//!
//! # fn main() -> Result<(), nn::NnError> {
//! let mut model = Sequential::new();
//! model.push(Dense::new(2, 8, 1)?);
//! model.push(Activation::relu());
//! model.push(Dense::new(8, 2, 2)?);
//!
//! // Class 0 below the diagonal, class 1 above it.
//! let xs: Vec<Tensor> = (0..40)
//!     .map(|i| {
//!         let a = (i % 10) as f32 / 10.0;
//!         let b = (i / 10) as f32 / 4.0;
//!         Tensor::from_vec(vec![a, b], &[2]).unwrap()
//!     })
//!     .collect();
//! let ys: Vec<usize> = xs
//!     .iter()
//!     .map(|x| usize::from(x.data()[1] > x.data()[0]))
//!     .collect();
//!
//! let mut opt = Adam::new(0.05);
//! let cfg = FitConfig { epochs: 60, batch_size: 8, seed: 7 };
//! fit(&mut model, &xs, &ys, &mut opt, &cfg)?;
//! let acc = nn::metrics::accuracy(&mut model, &xs, &ys)?;
//! assert!(acc >= 0.85, "accuracy {acc}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod hdc;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod quant;
pub mod scratch;
pub mod serialize;
pub mod tensor;
pub mod train;

pub use error::NnError;
pub use model::Sequential;
pub use quant::Precision;
pub use scratch::{Scratch, Shape};
pub use tensor::Tensor;
