//! Feature extraction into model-ready tensor datasets: speech corpora for
//! the voice classifiers, skin-conductance windows for the cognitive-state
//! classifier.

use crate::corpus::Corpus;
use crate::DatasetError;
use affect_core::classifier::ClassifierKind;
use affect_core::emotion::CognitiveState;
use affect_core::pipeline::{biosignal_window_features, FeaturePipeline};
use biosignal::sc::{ScConfig, ScGenerator};
use biosignal::uulmmac::state_arousal;
use nn::Tensor;

/// The tensor layout a classifier family consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureLayout {
    /// Flat statistics vector `[4 × features]` (mean/std/min/max per
    /// feature) — a compact summary for streaming classification.
    Flat,
    /// Flattened sequence `[frames × features]` — for the MLP, which (as
    /// in the paper, whose 508 k-parameter MLP takes a ~2760-dim input)
    /// sees the whole sequence but without any temporal weight sharing.
    Flattened,
    /// Strip `[1, frames × features]` — for the 1-D CNN.
    Strip,
    /// Sequence `[frames, features]` — for the LSTM.
    Sequence,
}

impl FeatureLayout {
    /// The layout each classifier family consumes. The HDC rung reads the
    /// compact flat statistics vector: its per-channel thermometer encoder
    /// wants a short, fixed list of scalar channels, not a sequence.
    pub fn for_kind(kind: ClassifierKind) -> Self {
        match kind {
            ClassifierKind::Mlp => FeatureLayout::Flattened,
            ClassifierKind::Cnn => FeatureLayout::Strip,
            ClassifierKind::Lstm => FeatureLayout::Sequence,
            ClassifierKind::Hdc => FeatureLayout::Flat,
        }
    }
}

/// Extracts `(inputs, labels)` from every utterance of a corpus in the given
/// layout.
///
/// # Errors
///
/// Propagates feature-extraction errors (e.g. an utterance shorter than one
/// analysis frame).
///
/// # Example
///
/// ```
/// use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
/// use datasets::{extract_dataset, Corpus, CorpusSpec, FeatureLayout};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = CorpusSpec::emovo_like().with_actors(1).with_utterances(1);
/// let corpus = Corpus::generate(&spec, 1)?;
/// let mut pipeline = FeaturePipeline::new(FeatureConfig {
///     sample_rate: spec.sample_rate,
///     frame_len: 256,
///     hop: 128,
///     ..FeatureConfig::default()
/// })?;
/// let (xs, ys) = extract_dataset(&corpus, &mut pipeline, FeatureLayout::Flat)?;
/// assert_eq!(xs.len(), ys.len());
/// assert_eq!(xs[0].shape(), &[pipeline.flat_dim()]);
/// # Ok(())
/// # }
/// ```
pub fn extract_dataset(
    corpus: &Corpus,
    pipeline: &mut FeaturePipeline,
    layout: FeatureLayout,
) -> Result<(Vec<Tensor>, Vec<usize>), DatasetError> {
    let mut xs = Vec::with_capacity(corpus.len());
    let mut ys = Vec::with_capacity(corpus.len());
    for utt in corpus.utterances() {
        let tensor = match layout {
            FeatureLayout::Flat => pipeline.extract_flat(&utt.waveform)?,
            FeatureLayout::Flattened => {
                let seq = pipeline.extract_sequence(&utt.waveform)?;
                seq.to_flat()
            }
            FeatureLayout::Strip => pipeline.extract_strip(&utt.waveform)?,
            FeatureLayout::Sequence => pipeline.extract_sequence(&utt.waveform)?,
        };
        xs.push(tensor);
        ys.push(utt.label);
    }
    Ok((xs, ys))
}

/// Length of one skin-conductance window, in seconds.
pub const SC_WINDOW_SECS: f32 = 60.0;

/// Training windows for the skin-conductance cognitive-state classifier:
/// 30 windows of [`SC_WINDOW_SECS`] per state, each rendered at the
/// state's arousal level and reduced to its
/// [`biosignal_window_features`]. Labels index [`CognitiveState::ALL`].
/// Window `k` of class `c` is rendered with seed
/// `seed ^ 0xDEAD ^ c << 8 ^ k`, so the windows stay disjoint from a
/// session generated with `seed` itself.
///
/// # Errors
///
/// Propagates signal-synthesis and feature errors.
pub fn sc_training_windows(seed: u64) -> Result<(Vec<Tensor>, Vec<usize>), DatasetError> {
    let generator = ScGenerator::new(ScConfig::default())?;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (class, &state) in CognitiveState::ALL.iter().enumerate() {
        for k in 0..30u64 {
            let window = generator.generate(
                state_arousal(state),
                SC_WINDOW_SECS,
                seed ^ 0xDEAD ^ (class as u64) << 8 ^ k,
            )?;
            xs.push(biosignal_window_features(&window.samples)?);
            ys.push(class);
        }
    }
    Ok((xs, ys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;
    use affect_core::pipeline::FeatureConfig;
    use affect_core::training::{NormScope, Normalization};

    fn pipeline_for(spec: &CorpusSpec) -> FeaturePipeline {
        FeaturePipeline::new(FeatureConfig {
            sample_rate: spec.sample_rate,
            frame_len: 256,
            hop: 128,
            ..FeatureConfig::default()
        })
        .unwrap()
    }

    fn tiny_corpus() -> Corpus {
        let spec = CorpusSpec::crema_d_like().with_actors(2).with_utterances(1);
        Corpus::generate(&spec, 5).unwrap()
    }

    #[test]
    fn layouts_match_kinds() {
        assert_eq!(
            FeatureLayout::for_kind(ClassifierKind::Mlp),
            FeatureLayout::Flattened
        );
        assert_eq!(
            FeatureLayout::for_kind(ClassifierKind::Cnn),
            FeatureLayout::Strip
        );
        assert_eq!(
            FeatureLayout::for_kind(ClassifierKind::Lstm),
            FeatureLayout::Sequence
        );
        assert_eq!(
            FeatureLayout::for_kind(ClassifierKind::Hdc),
            FeatureLayout::Flat
        );
    }

    #[test]
    fn all_layouts_extract() {
        let corpus = tiny_corpus();
        let mut p = pipeline_for(corpus.spec());
        for layout in [
            FeatureLayout::Flat,
            FeatureLayout::Flattened,
            FeatureLayout::Strip,
            FeatureLayout::Sequence,
        ] {
            let (xs, ys) = extract_dataset(&corpus, &mut p, layout).unwrap();
            assert_eq!(xs.len(), corpus.len());
            assert_eq!(ys, corpus.labels());
        }
    }

    #[test]
    fn sequence_shape_consistent_across_utterances() {
        let corpus = tiny_corpus();
        let mut p = pipeline_for(corpus.spec());
        let (xs, _) = extract_dataset(&corpus, &mut p, FeatureLayout::Sequence).unwrap();
        let shape = xs[0].shape().to_vec();
        assert!(xs.iter().all(|x| x.shape() == shape));
        assert_eq!(shape[1], p.features_per_frame());
    }

    #[test]
    fn normalization_centers_data() {
        let corpus = tiny_corpus();
        let mut p = pipeline_for(corpus.spec());
        let (mut xs, _) = extract_dataset(&corpus, &mut p, FeatureLayout::Flat).unwrap();
        let norm = Normalization::fit_in_place(&mut xs, NormScope::PerDimension).unwrap();
        // Post-normalization per-dim mean ~ 0.
        let dim = xs[0].len();
        assert_eq!(dim, p.flat_dim());
        for d in 0..dim {
            let m: f32 = xs.iter().map(|x| x.data()[d]).sum::<f32>() / xs.len() as f32;
            assert!(m.abs() < 1e-3, "dim {d}: mean {m}");
        }
        // Held-out data takes the training statistics unchanged.
        let (mut again, _) = extract_dataset(&corpus, &mut p, FeatureLayout::Flat).unwrap();
        norm.apply(&mut again).unwrap();
        assert_eq!(again, xs);
    }

    #[test]
    fn apply_normalization_validates_dims() {
        let ones = Tensor::from_vec(vec![1.0; 3], &[3]).unwrap();
        let scope = NormScope::PerDimension;
        let norm = Normalization::fit_in_place(&mut [ones.clone()], scope).unwrap();
        assert!(norm.apply(&mut [Tensor::zeros(&[6]).unwrap()]).is_err());
        assert!(norm.apply(&mut [Tensor::zeros(&[3]).unwrap()]).is_ok());
        // A bad tensor anywhere rejects the call before any tensor changes.
        let mut held_out = [ones.clone(), Tensor::zeros(&[2]).unwrap()];
        assert!(norm.apply(&mut held_out).is_err());
        assert_eq!(held_out[0], ones);
    }

    #[test]
    fn normalize_rejects_empty_or_ragged() {
        for scope in [NormScope::PerDimension, NormScope::PerFeature(2)] {
            assert!(Normalization::fit_in_place(&mut [], scope).is_err());
            let mut ragged = [Tensor::zeros(&[2]).unwrap(), Tensor::zeros(&[3]).unwrap()];
            assert!(Normalization::fit_in_place(&mut ragged, scope).is_err());
        }
        let mut rows = [Tensor::zeros(&[2]).unwrap(), Tensor::zeros(&[4]).unwrap()];
        assert!(Normalization::fit_in_place(&mut rows, NormScope::PerDimension).is_err());
        assert!(Normalization::fit_in_place(&mut rows, NormScope::PerFeature(0)).is_err());
        assert!(Normalization::fit_in_place(&mut rows, NormScope::PerFeature(2)).is_ok());
    }

    #[test]
    fn sc_windows_cover_every_state() {
        let (xs, ys) = sc_training_windows(3).unwrap();
        assert_eq!(xs.len(), 30 * CognitiveState::ALL.len());
        assert_eq!(ys.len(), xs.len());
        assert!(xs
            .iter()
            .all(|x| x.len() == affect_core::pipeline::BIOSIGNAL_FEATURES));
        for class in 0..CognitiveState::ALL.len() {
            assert_eq!(ys.iter().filter(|&&y| y == class).count(), 30);
        }
    }
}
