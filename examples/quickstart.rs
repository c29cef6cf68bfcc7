//! Quickstart: the full sensing → classification → control loop on one
//! synthetic biosignal window.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A synthetic emotional utterance (the wearable's voice channel) is pushed
//! through the feature pipeline, classified by a freshly trained LSTM, and
//! the resulting emotion stream drives the system controller, which prints
//! the decoder-mode decisions it would issue to the hardware.

use affectsys::core::classifier::{AffectClassifier, ClassifierKind, ModelConfig};
use affectsys::core::controller::{ControlEvent, SystemController};
use affectsys::core::emotion::Emotion;
use affectsys::core::pipeline::{FeatureConfig, FeaturePipeline};
use affectsys::core::policy::PolicyTable;
use affectsys::core::training::{train, NormScope};
use affectsys::datasets::{extract_dataset, Corpus, CorpusSpec, FeatureLayout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a small LSTM affect classifier on a synthetic corpus.
    println!("training a small LSTM affect classifier...");
    let spec = CorpusSpec::ravdess_like().with_actors(4).with_utterances(2);
    let corpus = Corpus::generate(&spec, 42)?;
    let mut pipeline = FeaturePipeline::new(FeatureConfig {
        sample_rate: spec.sample_rate,
        frame_len: 256,
        hop: 128,
        ..FeatureConfig::default()
    })?;
    let (mut xs, ys) = extract_dataset(&corpus, &mut pipeline, FeatureLayout::Sequence)?;
    let fpf = pipeline.features_per_frame();
    let config = ModelConfig::scaled_lstm(fpf, spec.emotions.len());
    let mut classifier = AffectClassifier::from_config(&config, spec.label_names(), 42)?;
    train(
        classifier.model_mut().expect("neural classifier"),
        &mut xs,
        &ys,
        NormScope::PerFeature(fpf),
        15,
        0.01,
        42,
    )?;
    println!(
        "trained {} ({} parameters)\n",
        ClassifierKind::Lstm,
        classifier.model().expect("neural classifier").param_count()
    );

    // 2. Classify a few windows and feed the controller.
    let mut controller = SystemController::new(PolicyTable::paper_defaults(), 2);
    for (window_index, sample_index) in [0usize, 20, 40].iter().enumerate() {
        let decision = classifier.classify(&xs[*sample_index])?;
        let truth = corpus.utterances()[*sample_index].emotion;
        println!(
            "window {window_index}: classified {} (truth {}, confidence {:.0}%)",
            classifier.label_of(&decision),
            truth,
            decision.confidence * 100.0
        );
        let emotion = Emotion::from_index(decision.class).unwrap_or(Emotion::Neutral);
        // Observe twice so the size-2 majority smoother can latch.
        for _ in 0..2 {
            for event in controller.observe_emotion(emotion)? {
                match event {
                    ControlEvent::VideoMode(mode) => {
                        println!("  -> decoder commanded to `{mode}` mode");
                    }
                    ControlEvent::EmotionChanged(e) => {
                        println!("  -> app manager re-ranks background apps for `{e}`");
                    }
                    _ => {}
                }
            }
        }
    }
    println!(
        "\ncontroller state: emotion={:?}, video mode={:?}",
        controller.emotion(),
        controller.video_mode()
    );
    Ok(())
}
