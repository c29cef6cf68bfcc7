//! Feature-extraction throughput per classifier layout — the phone-side
//! per-utterance cost feeding the Fig. 3 study —, what one warm classify
//! costs per family and precision at the runtime's shapes, and the
//! smoothing-window ablation of DESIGN.md §7.

use affect_core::classifier::{AffectClassifier, Decision, ModelConfig};
use affect_core::emotion::Emotion;
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::smoothing::MajoritySmoother;
use biosignal::{synthesize_utterance, UtteranceParams};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nn::{Precision, Scratch, Tensor};
use std::hint::black_box;

fn bench_extraction(c: &mut Criterion) {
    let mut pipeline = FeaturePipeline::new(FeatureConfig {
        sample_rate: 8_000.0,
        frame_len: 256,
        hop: 128,
        ..FeatureConfig::default()
    })
    .unwrap();
    let window = synthesize_utterance(
        &UtteranceParams::for_emotion(Emotion::Happy),
        1.2,
        8_000.0,
        1,
    )
    .unwrap();

    let mut group = c.benchmark_group("feature_extraction");
    group.bench_function("sequence", |b| {
        b.iter(|| pipeline.extract_sequence(black_box(&window)).unwrap());
    });
    group.bench_function("strip", |b| {
        b.iter(|| pipeline.extract_strip(black_box(&window)).unwrap());
    });
    group.bench_function("flat_stats", |b| {
        b.iter(|| pipeline.extract_flat(black_box(&window)).unwrap());
    });
    group.finish();
}

/// `AffectClassifier::classify_with`, warm, for every neural family and
/// precision, with the runtime's default seed, at two shapes: the default
/// 16 kHz config on 1 s windows (`voice_loop`'s `[61, 19]`, `[1, 1159]`
/// and `[76]`) and 256-sample windows in 128-sample frames
/// (`fleet_small_windows`' `[3, 10]`, `[1, 30]` and `[40]`). Int8 and f32
/// run in one process, so their ratio is a wall-time comparison.
fn bench_classify(c: &mut Criterion) {
    let labels: Vec<String> = Emotion::ALL.iter().map(|e| e.name().to_string()).collect();
    let fleet = FeatureConfig {
        frame_len: 128,
        hop: 64,
        n_mfcc: 4,
        n_mels: 12,
        ..FeatureConfig::default()
    };
    let mut group = c.benchmark_group("classify_with");
    for (runtime, config, window_samples) in [
        ("voice", FeatureConfig::default(), 16_000),
        ("fleet", fleet, 256),
    ] {
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
            for precision in [Precision::F32, Precision::Int8] {
                let mut clf = AffectClassifier::from_config(model, labels.clone(), 7).unwrap();
                clf.set_precision(precision).unwrap();
                let mut scratch = Scratch::new();
                let mut decision = Decision::default();
                let id = format!(
                    "{runtime}/{}/{}/{:?}",
                    model.kind(),
                    precision.label(),
                    features.shape()
                );
                group.bench_function(id, |b| {
                    b.iter(|| {
                        clf.classify_with(
                            black_box(features.data()),
                            features.shape(),
                            &mut scratch,
                            &mut decision,
                        )
                        .unwrap();
                        decision.class
                    });
                });
            }
        }
    }
    group.finish();
}

fn bench_smoothing_ablation(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("smoother_push");
    for window in [1usize, 5, 9] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &noisy, |b, stream| {
            b.iter(|| {
                let mut smoother = MajoritySmoother::new(window, 0).unwrap();
                let mut changes = 0usize;
                for &e in stream.iter().take(1_000) {
                    if smoother.push(black_box(e)).is_some() {
                        changes += 1;
                    }
                }
                changes
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_classify,
    bench_smoothing_ablation
);
criterion_main!(benches);
