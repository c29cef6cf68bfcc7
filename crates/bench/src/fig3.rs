//! Fig. 3: the classifier study — per-model/per-corpus accuracy (3b), the
//! LSTM/RAVDESS confusion matrix (3a), and the int8 quantization footprint
//! and accuracy comparison (3c/3d).

use affect_core::classifier::{ClassifierKind, ModelConfig};
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::training::{train, NormScope};
use datasets::{ActorSplit, Corpus, CorpusSpec, FeatureLayout};
use nn::metrics::{accuracy, ConfusionMatrix};
use nn::quant::{quantize_weights_in_place, QuantReport};

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Config {
    /// Actors per corpus (caps the spec's actor count).
    pub max_actors: usize,
    /// Utterances per actor per emotion.
    pub utterances: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig3Config {
    /// Fast profile for tests (~seconds per model).
    pub fn quick() -> Self {
        Self {
            max_actors: 4,
            utterances: 2,
            epochs: 12,
            seed: 7,
        }
    }

    /// The profile the repro harness uses (~a minute per model in release).
    pub fn full() -> Self {
        Self {
            max_actors: 10,
            utterances: 3,
            epochs: 30,
            seed: 7,
        }
    }
}

/// Result of training one classifier family on one corpus.
#[derive(Debug, Clone)]
pub struct ClassifierResult {
    /// Model family.
    pub kind: ClassifierKind,
    /// Corpus display name.
    pub corpus: String,
    /// Float test accuracy.
    pub accuracy: f32,
    /// Test accuracy after int8 weight quantization.
    pub int8_accuracy: f32,
    /// Quantization storage report (Fig. 3(c) for this model).
    pub quant: QuantReport,
    /// Confusion matrix of the float model on the test split (Fig. 3(a)
    /// when kind = LSTM and corpus = RAVDESS-like).
    pub confusion: ConfusionMatrix,
}

/// Trains and evaluates one `(family, corpus)` cell of Fig. 3(b), also
/// producing the quantization numbers of Fig. 3(c)/(d) and the confusion
/// matrix of Fig. 3(a).
///
/// # Errors
///
/// Propagates dataset, feature and training errors.
pub fn evaluate_classifier(
    kind: ClassifierKind,
    spec: &CorpusSpec,
    config: &Fig3Config,
) -> Result<ClassifierResult, Box<dyn std::error::Error>> {
    let spec = spec
        .clone()
        .with_actors(spec.actors.min(config.max_actors))
        .with_utterances(config.utterances);
    let corpus = Corpus::generate(&spec, config.seed)?;
    let mut pipeline = FeaturePipeline::new(FeatureConfig {
        sample_rate: spec.sample_rate,
        frame_len: 256,
        hop: 128,
        n_mfcc: 13,
        n_mels: 24,
        pitch_range: (60.0, 500.0),
    })?;
    let ActorSplit {
        mut train_x,
        train_y,
        mut test_x,
        test_y,
    } = ActorSplit::extract(
        &corpus,
        &mut pipeline,
        FeatureLayout::for_kind(kind),
        config.seed,
    )?;
    let mut model = ModelConfig::scaled_for(kind, train_x[0].shape(), spec.emotions.len())?
        .build(config.seed)?;
    // Every neural layout is rows of frame features: per-feature stats
    // pooled over time are robust in the T×F >> samples regime.
    let normalization = train(
        &mut model,
        &mut train_x,
        &train_y,
        NormScope::PerFeature(pipeline.features_per_frame()),
        config.epochs,
        0.004,
        config.seed,
    )?;
    normalization.apply(&mut test_x)?;

    let float_accuracy = accuracy(&mut model, &test_x, &test_y)?;
    let mut confusion = ConfusionMatrix::new(spec.label_names())?;
    confusion.evaluate(&mut model, &test_x, &test_y)?;

    let quant = quantize_weights_in_place(&mut model)?;
    let int8_accuracy = accuracy(&mut model, &test_x, &test_y)?;

    Ok(ClassifierResult {
        kind,
        corpus: spec.name.clone(),
        accuracy: float_accuracy,
        int8_accuracy,
        quant,
        confusion,
    })
}

/// Runs the full Fig. 3(b) grid: every family on every corpus.
///
/// # Errors
///
/// Propagates cell errors.
pub fn full_grid(config: &Fig3Config) -> Result<Vec<ClassifierResult>, Box<dyn std::error::Error>> {
    let mut results = Vec::new();
    for spec in CorpusSpec::paper_corpora() {
        for kind in ClassifierKind::NEURAL {
            results.push(evaluate_classifier(kind, &spec, config)?);
        }
    }
    Ok(results)
}

/// Fig. 3(c): float vs int8 weight footprints of the *paper-scale*
/// configurations (sizes are architecture facts and need no training).
/// Returns `(kind, float_kb, int8_kb)` rows.
pub fn paper_weight_sizes() -> Vec<(ClassifierKind, f64, f64)> {
    [
        ModelConfig::paper_mlp(),
        ModelConfig::paper_cnn(),
        ModelConfig::paper_lstm(),
    ]
    .into_iter()
    .map(|cfg| {
        // Both counts come off the built model: its scalars, and its weight
        // tensors, each of which carries one int8 scale.
        let model = cfg.build(0).expect("paper configurations build");
        let (params, tensors) = (model.param_count(), model.params().len());
        let float_kb = nn::quant::float_weight_bytes(params) as f64 / 1024.0;
        let int8_kb = nn::quant::int8_weight_bytes(params, tensors) as f64 / 1024.0;
        (cfg.kind(), float_kb, int8_kb)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_beats_chance() {
        let spec = CorpusSpec::emovo_like();
        let r = evaluate_classifier(ClassifierKind::Mlp, &spec, &Fig3Config::quick()).unwrap();
        let chance = 1.0 / spec.emotions.len() as f32;
        assert!(r.accuracy > chance, "{} <= chance {}", r.accuracy, chance);
        assert_eq!(r.confusion.num_classes(), 7);
    }

    #[test]
    fn quantization_loss_is_small() {
        let spec = CorpusSpec::emovo_like();
        let r = evaluate_classifier(ClassifierKind::Mlp, &spec, &Fig3Config::quick()).unwrap();
        // The paper: under 3% loss. Allow a slightly wider band for the
        // quick profile's tiny test split.
        assert!(
            r.accuracy - r.int8_accuracy <= 0.1,
            "{} -> {}",
            r.accuracy,
            r.int8_accuracy
        );
        assert!(r.quant.float_bytes > 3 * r.quant.int8_bytes);
    }

    #[test]
    fn paper_sizes_show_4x_compression() {
        let rows = paper_weight_sizes();
        assert_eq!(rows.len(), 3);
        for (kind, float_kb, int8_kb) in rows {
            let ratio = float_kb / int8_kb;
            assert!((3.9..=4.1).contains(&ratio), "{kind}: {ratio}");
            assert!(float_kb > 1000.0, "{kind} paper model should be MB-scale");
        }
    }
}
