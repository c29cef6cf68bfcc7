//! Integration: the full sensing → features → classifier → controller loop
//! across `biosignal`, `dsp`/`affect-core`, `nn` and `datasets`.

use affectsys::core::classifier::{AffectClassifier, ClassifierKind, ModelConfig};
use affectsys::core::controller::{ControlEvent, SystemController};
use affectsys::core::emotion::Emotion;
use affectsys::core::pipeline::{FeatureConfig, FeaturePipeline};
use affectsys::core::policy::{PolicyTable, VideoPowerMode};
use affectsys::core::training::{train, NormScope};
use affectsys::datasets::{extract_dataset, Corpus, CorpusSpec, FeatureLayout};
use affectsys::nn::serialize::save_weights;

fn pipeline_for(spec: &CorpusSpec) -> FeaturePipeline {
    FeaturePipeline::new(FeatureConfig {
        sample_rate: spec.sample_rate,
        frame_len: 256,
        hop: 128,
        ..FeatureConfig::default()
    })
    .expect("valid pipeline config")
}

/// Train on a tiny corpus and verify the classifier beats chance on its
/// own training data (the integration sanity bar; generalization is
/// covered by the bench harness).
#[test]
fn synthetic_voice_trains_a_working_classifier() {
    let spec = CorpusSpec::emovo_like().with_actors(2).with_utterances(2);
    let corpus = Corpus::generate(&spec, 11).unwrap();
    let mut pipeline = pipeline_for(&spec);
    let (mut xs, ys) = extract_dataset(&corpus, &mut pipeline, FeatureLayout::Flattened).unwrap();

    let config = ModelConfig::scaled_mlp(xs[0].len(), spec.emotions.len());
    let mut clf = AffectClassifier::from_config(&config, spec.label_names(), 11).unwrap();
    train(
        clf.model_mut().expect("neural classifier"),
        &mut xs,
        &ys,
        NormScope::PerFeature(pipeline.features_per_frame()),
        10,
        0.01,
        11,
    )
    .unwrap();

    let correct = xs
        .iter()
        .zip(&ys)
        .filter(|(x, &y)| clf.classify(x).unwrap().class == y)
        .count();
    let accuracy = correct as f32 / xs.len() as f32;
    assert!(
        accuracy > 2.0 / spec.emotions.len() as f32,
        "training accuracy {accuracy} not above chance"
    );
}

/// Training is deterministic: for every neural family, the same corpus,
/// seeds and recipe give byte-identical weights and equal normalizations.
#[test]
fn training_is_deterministic() {
    let spec = CorpusSpec::emovo_like().with_actors(1).with_utterances(1);
    let corpus = Corpus::generate(&spec, 5).unwrap();
    let mut pipeline = pipeline_for(&spec);
    let scope = NormScope::PerFeature(pipeline.features_per_frame());
    for kind in ClassifierKind::NEURAL {
        let (xs, ys) =
            extract_dataset(&corpus, &mut pipeline, FeatureLayout::for_kind(kind)).unwrap();
        let config = ModelConfig::scaled_for(kind, xs[0].shape(), spec.emotions.len()).unwrap();
        let untrained = save_weights(&config.build(5).unwrap());
        let run = || {
            let mut xs = xs.clone();
            let mut model = config.build(5).unwrap();
            let normalization = train(&mut model, &mut xs, &ys, scope, 1, 0.004, 5).unwrap();
            (save_weights(&model), normalization)
        };
        let (first, second) = (run(), run());
        assert_ne!(first.0, untrained, "{kind}: training changed no weight");
        assert!(first.0 == second.0, "{kind}: weight blobs differ");
        assert_eq!(first.1, second.1, "{kind}: normalizations differ");
    }
}

/// Classifier decisions drive the controller, which issues modes from the
/// policy table.
#[test]
fn classified_emotions_translate_to_video_modes() {
    let mut controller = SystemController::new(PolicyTable::paper_defaults(), 1);
    // An angry stream must command standard quality.
    let events = controller.observe_emotion(Emotion::Angry).unwrap();
    assert!(events.contains(&ControlEvent::VideoMode(VideoPowerMode::Standard)));
    // Calm trades quality for power.
    let events = controller.observe_emotion(Emotion::Calm).unwrap();
    assert!(events.contains(&ControlEvent::VideoMode(VideoPowerMode::Combined)));
}

/// The biosignal arousal cue survives the DSP path: high-arousal skin
/// conductance windows measurably differ from calm ones in the extracted
/// statistics.
#[test]
fn sc_arousal_is_recoverable_from_features() {
    use affectsys::biosignal::sc::{ScConfig, ScGenerator};
    let generator = ScGenerator::new(ScConfig::default()).unwrap();
    let calm = generator.generate(0.05, 300.0, 5).unwrap();
    let excited = generator.generate(0.95, 300.0, 5).unwrap();
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
    let m_calm = mean(&calm.samples);
    let m_excited = mean(&excited.samples);
    assert!(
        m_excited > m_calm * 1.2,
        "excited {m_excited} vs calm {m_calm}"
    );
}

/// The uulmMAC-like session's labelled states reach the controller and the
/// mode sequence matches the paper's Fig. 6 narrative.
#[test]
fn session_replay_produces_paper_mode_sequence() {
    use affectsys::biosignal::UulmmacSession;
    let session = UulmmacSession::paper_fig6(3).unwrap();
    let mut controller = SystemController::new(PolicyTable::paper_defaults(), 1);
    let mut modes = Vec::new();
    for minute in 0..session.duration_min().ceil() as usize {
        let state = session.state_at_min(minute as f32);
        for event in controller.observe_state(state).unwrap() {
            if let ControlEvent::VideoMode(mode) = event {
                modes.push(mode);
            }
        }
    }
    assert_eq!(
        modes,
        vec![
            VideoPowerMode::Combined,    // distracted
            VideoPowerMode::NalDeletion, // concentrated
            VideoPowerMode::Standard,    // tense
            VideoPowerMode::DeblockOff,  // relaxed
        ]
    );
}
