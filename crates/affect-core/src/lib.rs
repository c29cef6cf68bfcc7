//! Core of the `affectsys` reproduction of *"Human Emotion Based Real-time
//! Memory and Computation Management on Resource-Limited Edge Devices"*
//! (DAC 2022): the emotion model, the wearable-class affect classifiers, and
//! the policy/controller machinery that turns classified emotions into
//! hardware management decisions.
//!
//! # Architecture
//!
//! ```text
//! biosignal window ──► [pipeline] features ──► [classifier] emotion
//!                                                   │
//!                                     [smoothing] debounced emotion
//!                                                   │
//!                               [controller] ──► video-mode + app-rank events
//! ```
//!
//! * [`emotion`] — discrete emotion labels, the Russell circumplex
//!   (valence/arousal/dominance) embedding, and the uulmMAC-style cognitive
//!   states used by the video-playback case study.
//! * [`classifier`] — the paper's three model families (MLP / CNN / LSTM) as
//!   declarative [`classifier::ModelConfig`]s, at both paper scale
//!   (≈0.4–0.65 M parameters) and a scaled profile for fast tests.
//! * [`pipeline`] — feature extraction from raw signal windows (MFCC, ZCR,
//!   RMS, pitch, spectral magnitude) into model-ready tensors.
//! * [`smoothing`] — majority-vote debouncing with a minimum dwell time so
//!   control decisions do not thrash.
//! * [`policy`] — programmable mapping from affect to video decoder power
//!   modes and app-priority hints (the paper's Sec. 4/5 control knobs).
//! * [`controller`] — the system controller that consumes an emotion stream
//!   and emits control events.
//! * [`training`] — the one training recipe: feature standardization
//!   ([`training::Normalization`]) and Adam fitting of a built model.
//!
//! # Example
//!
//! ```
//! use affect_core::controller::{ControlEvent, SystemController};
//! use affect_core::emotion::CognitiveState;
//! use affect_core::policy::{PolicyTable, VideoPowerMode};
//!
//! # fn main() -> Result<(), affect_core::AffectError> {
//! let mut controller = SystemController::new(PolicyTable::paper_defaults(), 3);
//! // Three consistent observations flip the controller's state.
//! let mut events = Vec::new();
//! for _ in 0..3 {
//!     events.extend(controller.observe_state(CognitiveState::Distracted)?);
//! }
//! assert!(events
//!     .iter()
//!     .any(|e| matches!(e, ControlEvent::VideoMode(VideoPowerMode::Combined))));
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` guards are deliberate: unlike `x <= 0.0` they also reject
// NaN, which is exactly what the parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod classifier;
pub mod controller;
pub mod emotion;
pub mod error;
pub mod pipeline;
pub mod policy;
pub mod smoothing;
pub mod training;

pub use classifier::{AffectClassifier, ClassifierKind, ModelConfig};
pub use controller::{ControlEvent, SystemController};
pub use emotion::{CognitiveState, Emotion, EmotionVector};
pub use error::AffectError;
pub use policy::{PolicyTable, VideoPowerMode};
