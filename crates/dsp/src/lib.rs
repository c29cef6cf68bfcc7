//! Signal-processing kernels used throughout the `affectsys` reproduction of
//! *"Human Emotion Based Real-time Memory and Computation Management on
//! Resource-Limited Edge Devices"* (DAC 2022).
//!
//! The paper's affect classifiers consume audio features — Mel-frequency
//! cepstral coefficients (MFCC), zero-crossing rate, root-mean-square energy,
//! pitch, and spectral magnitude — extracted from short windows of the input
//! signal. This crate provides those kernels from scratch, with no external
//! numeric dependencies, so the whole feature path is auditable and
//! deterministic.
//!
//! # Example
//!
//! Extract a 13-coefficient MFCC vector from one frame of a synthetic tone:
//!
//! ```
//! use dsp::mel::MfccExtractor;
//!
//! # fn main() -> Result<(), dsp::DspError> {
//! let sample_rate = 16_000.0;
//! let frame: Vec<f32> = (0..512)
//!     .map(|i| (2.0 * std::f32::consts::PI * 440.0 * i as f32 / sample_rate).sin())
//!     .collect();
//! let extractor = MfccExtractor::new(sample_rate, 512, 26, 13)?;
//! let mfcc = extractor.extract(&frame)?;
//! assert_eq!(mfcc.len(), 13);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` guards are deliberate: unlike `x <= 0.0` they also reject
// NaN, which is exactly what the parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod error;
pub mod features;
pub mod fft;
pub mod frame;
pub mod mel;
pub mod stats;
pub mod window;

pub use error::DspError;
pub use features::{
    pitch_autocorrelation, rms, spectral_magnitude, zero_crossing_rate, PitchEstimator,
    SpectralAnalyzer,
};
pub use fft::{fft_inplace, ifft_inplace, rfft_magnitude, Complex, FftPlan};
pub use frame::Frames;
pub use mel::{hz_to_mel, mel_to_hz, MelFilterBank, MfccExtractor};
