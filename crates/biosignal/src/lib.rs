//! Synthetic physiological signal generators for the `affectsys`
//! reproduction (DAC 2022).
//!
//! The paper's system collects biosignals from a smartwatch and classifies
//! the wearer's affect on the phone. Its experiments read two of them:
//! skin conductance (SC/GSR) for the Fig. 6 video playback and voice for
//! the Sec. 2 classifiers. The datasets it evaluates on (RAVDESS, EMOVO,
//! CREMA-D, uulmMAC) are not redistributable, so this crate provides
//! parametric generators for those two signals whose statistics are
//! conditioned on the emotional state, exercising the identical
//! signal→feature→classifier path (see DESIGN.md §2 for the substitution
//! argument).
//!
//! All generators are deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use biosignal::sc::{ScConfig, ScGenerator};
//!
//! # fn main() -> Result<(), biosignal::BiosignalError> {
//! let generator = ScGenerator::new(ScConfig::default())?;
//! // 60 seconds of high-arousal skin conductance.
//! let signal = generator.generate(0.9, 60.0, 42)?;
//! assert_eq!(signal.samples.len(), (60.0 * signal.sample_rate) as usize);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` guards are deliberate: unlike `x <= 0.0` they also reject
// NaN, which is exactly what the parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod error;
pub mod noise;
pub mod sc;
pub mod stream;
pub mod types;
pub mod uulmmac;
pub mod voice;

pub use error::BiosignalError;
pub use stream::{validate_samples, LabeledWindow, VoiceWindowStream, MAX_ABS_SAMPLE};
pub use types::SampledSignal;
pub use uulmmac::UulmmacSession;
pub use voice::{synthesize_utterance, UtteranceParams};
