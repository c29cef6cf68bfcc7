//! Synthetic emotional-speech corpora for the `affectsys` reproduction
//! (DAC 2022).
//!
//! The paper trains its classifiers on three corpora that cannot be
//! redistributed here: **RAVDESS** (24 actors, 8 emotions, speech and song),
//! **EMOVO** (6 Italian actors, 7 emotions, 14 sentences) and **CREMA-D**
//! (91 actors, 6 emotions, 12 sentences). This crate generates corpora with
//! the same *structure* — actor counts, label sets, per-actor voice
//! variation — using the [`biosignal::voice`] synthesizer, whose acoustic
//! parameters are emotion-conditioned. The experiments in Fig. 3 measure
//! relative classifier behaviour across corpora and families, which this
//! substitution preserves (DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use datasets::{Corpus, CorpusSpec};
//!
//! # fn main() -> Result<(), datasets::DatasetError> {
//! // A miniature RAVDESS-like corpus (scaled for test speed).
//! let spec = CorpusSpec::ravdess_like().with_actors(4).with_utterances(1);
//! let corpus = Corpus::generate(&spec, 42)?;
//! assert_eq!(corpus.len(), 4 * spec.emotions.len());
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)` guards are deliberate: unlike `x <= 0.0` they also reject
// NaN, which is exactly what the parameter validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod corpus;
pub mod error;
pub mod features;
pub mod spec;
pub mod split;

pub use corpus::{Corpus, Utterance};
pub use error::DatasetError;
pub use features::{extract_dataset, sc_training_windows, FeatureLayout, SC_WINDOW_SECS};
pub use spec::CorpusSpec;
pub use split::{ActorSplit, TrainTestSplit};
