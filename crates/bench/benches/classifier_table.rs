//! Feature-extraction throughput per classifier layout — the phone-side
//! per-utterance cost feeding the Fig. 3 study —, what one warm classify
//! costs per family and precision at the runtime's shapes, int8 against
//! its f32 twin in the same rounds, and the smoothing-window ablation of
//! DESIGN.md §7. Every cell is timed through `bench::results`.

use std::hint::black_box;
use std::time::Duration;

use affect_core::classifier::{AffectClassifier, Decision, ModelConfig};
use affect_core::emotion::Emotion;
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::smoothing::MajoritySmoother;
use affect_rt::RuntimeConfig;
use bench::results::{batch, interleave, print_group, print_spread, print_time, Mode};
use biosignal::{synthesize_utterance, UtteranceParams};
use nn::{Precision, Scratch, Tensor};

/// Target wall-clock of one cell's batch in one round.
const TARGET: Duration = Duration::from_millis(10);

fn bench_extraction(mode: Mode) {
    let config = FeatureConfig {
        sample_rate: 8_000.0,
        frame_len: 256,
        hop: 128,
        ..FeatureConfig::default()
    };
    let window = synthesize_utterance(
        &UtteranceParams::for_emotion(Emotion::Happy),
        1.2,
        8_000.0,
        1,
    )
    .unwrap();
    let mut sequence = FeaturePipeline::new(config.clone()).unwrap();
    let mut strip = FeaturePipeline::new(config.clone()).unwrap();
    let mut flat = FeaturePipeline::new(config).unwrap();
    print_group(vec![
        (
            "feature_extraction/sequence".into(),
            batch(mode, TARGET, || {
                sequence.extract_sequence(black_box(&window)).unwrap()
            }),
        ),
        (
            "feature_extraction/strip".into(),
            batch(mode, TARGET, || {
                strip.extract_strip(black_box(&window)).unwrap()
            }),
        ),
        (
            "feature_extraction/flat_stats".into(),
            batch(mode, TARGET, || {
                flat.extract_flat(black_box(&window)).unwrap()
            }),
        ),
    ]);
}

/// `AffectClassifier::classify_with`, warm, for every neural family, f32
/// against its int8 twin in the same rounds, with the runtime's default
/// seed, at two shapes: `RuntimeConfig::default()`'s features on its
/// windows (`voice_loop`'s `[61, 19]`, `[1, 1159]` and `[76]`) and
/// 256-sample windows in 128-sample frames (`fleet_small_windows`' `[3,
/// 10]`, `[1, 30]` and `[40]`). The fleet shape is a copy of perfbench's
/// `fleet_small_windows` config, which this crate cannot import. Each
/// family prints both sides' times and the median and quartiles of the
/// per-round int8/f32 ratio.
fn bench_classify(mode: Mode) {
    let labels: Vec<String> = Emotion::ALL.iter().map(|e| e.name().to_string()).collect();
    let RuntimeConfig {
        feature,
        window_samples,
        model_seed,
        ..
    } = RuntimeConfig::default();
    let fleet = FeatureConfig {
        frame_len: 128,
        hop: 64,
        n_mfcc: 4,
        n_mels: 12,
        ..FeatureConfig::default()
    };
    for (name, config, window_samples) in
        [("voice", feature, window_samples), ("fleet", fleet, 256)]
    {
        let rate = config.sample_rate;
        let mut pipeline = FeaturePipeline::new(config).unwrap();
        let params = UtteranceParams::for_emotion(Emotion::Happy);
        let wave = synthesize_utterance(&params, window_samples as f32 / rate, rate, 1).unwrap();
        let window = &wave[..window_samples];
        let (fpf, frames) = (
            pipeline.features_per_frame(),
            pipeline.frames_for(window_samples),
        );
        let models: [(ModelConfig, Tensor); 3] = [
            (
                ModelConfig::scaled_lstm(fpf, labels.len()),
                pipeline.extract_sequence(window).unwrap(),
            ),
            (
                ModelConfig::scaled_cnn(frames * fpf, labels.len()),
                pipeline.extract_strip(window).unwrap(),
            ),
            (
                ModelConfig::scaled_mlp(pipeline.flat_dim(), labels.len()),
                pipeline.extract_flat(window).unwrap(),
            ),
        ];
        for (model, features) in &models {
            let classify = |precision| {
                let mut clf =
                    AffectClassifier::from_config(model, labels.clone(), model_seed).unwrap();
                clf.set_precision(precision).unwrap();
                let (mut scratch, mut decision) = (Scratch::new(), Decision::default());
                batch(mode, TARGET, move || {
                    clf.classify_with(
                        black_box(features.data()),
                        features.shape(),
                        &mut scratch,
                        &mut decision,
                    )
                    .unwrap();
                    decision.class
                })
            };
            let m = interleave(classify(Precision::F32), classify(Precision::Int8));
            let cell = |label: &str| {
                format!(
                    "classify_with/{name}/{}/{label}/{:?}",
                    model.kind(),
                    features.shape()
                )
            };
            print_time(&cell(Precision::F32.label()), m.spreads[0]);
            print_time(&cell(Precision::Int8.label()), m.spreads[1]);
            print_spread(&cell("i8÷f32"), m.spreads[2], "×");
        }
    }
}

fn bench_smoothing_ablation(mode: Mode) {
    // DESIGN.md §7: smoothing window vs control thrash. Feed a noisy
    // stream (80% happy, 20% random) and count state changes per window.
    let noisy: Vec<Emotion> = (0..10_000)
        .map(|i| {
            if i % 5 == 4 {
                Emotion::ALL[i * 7 % 8]
            } else {
                Emotion::Happy
            }
        })
        .collect();
    eprintln!("\nsmoothing-window ablation (state changes over 10k noisy windows):");
    for window in [1usize, 3, 5, 9] {
        let mut smoother = MajoritySmoother::new(window, 0).unwrap();
        let changes = noisy
            .iter()
            .filter(|&&e| smoother.push(e).is_some())
            .count();
        eprintln!("  window {window}: {changes} changes");
    }

    let noisy = &noisy;
    print_group(
        [1usize, 5, 9]
            .map(|window| {
                let push = move || {
                    let mut smoother = MajoritySmoother::new(window, 0).unwrap();
                    let mut changes = 0usize;
                    for &e in noisy.iter().take(1_000) {
                        if smoother.push(black_box(e)).is_some() {
                            changes += 1;
                        }
                    }
                    changes
                };
                (format!("smoother_push/{window}"), batch(mode, TARGET, push))
            })
            .into(),
    );
}

fn main() {
    let mode = Mode::from_args();
    bench_extraction(mode);
    bench_classify(mode);
    bench_smoothing_ablation(mode);
}
