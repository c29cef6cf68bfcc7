//! Proves the scratch-buffer inference path (`Sequential::forward_with`
//! and `AffectClassifier::classify_with`) performs zero steady-state
//! heap allocations once the `Scratch` arena is warm — in f32, in int8,
//! with f32 and int8 models interleaved on one shared arena (the runtime's
//! mixed-precision worker pattern), for the runtime's three models at the
//! default config's shapes, and through the HDC classifier.
//!
//! Runs without the libtest harness (`harness = false`): the allocator
//! counters are process-global, so the measurement must own the process.

use affect_core::classifier::{AffectClassifier, Decision, ModelConfig};
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use alloc_counter::{count_allocations, CountingAllocator};
use nn::hdc::HdcClassifier;
use nn::layers::{Activation, Dense};
use nn::{Precision, Scratch, Sequential, Tensor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    // Plain MLP through the raw nn API.
    let mut model = Sequential::new();
    model.push(Dense::new(16, 32, 7).unwrap());
    model.push(Activation::relu());
    model.push(Dense::new(32, 8, 8).unwrap());
    let input: Vec<f32> = (0..16).map(|i| (i as f32 - 8.0) * 0.1).collect();
    let mut scratch = Scratch::new();

    // Warm-up sizes the ping-pong buffers in the scratch pool. Two calls:
    // the best-fit acquire can hand buffers back in a different order than
    // the cold pass, growing one of them once more before settling.
    for _ in 0..2 {
        model.forward_with(&input, &[16], &mut scratch).unwrap();
    }

    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            model.forward_with(&input, &[16], &mut scratch).unwrap();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "forward_with allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);

    // Full classifier path: CNN forward + softmax + decision reuse, the
    // exact loop the affect-rt classify workers run per window.
    let cfg = ModelConfig::scaled_cnn(64, 5);
    let labels: Vec<String> = (0..5).map(|i| format!("c{i}")).collect();
    let mut clf = AffectClassifier::from_config(&cfg, labels, 11).unwrap();
    let features: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut clf_scratch = Scratch::new();
    let mut decision = Decision::default();

    for _ in 0..2 {
        clf.classify_with(&features, &[1, 64], &mut clf_scratch, &mut decision)
            .unwrap();
    }

    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            clf.classify_with(&features, &[1, 64], &mut clf_scratch, &mut decision)
                .unwrap();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "classify_with allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);

    // Int8 path interleaved with a f32 model on the SAME arena — the
    // mixed-precision worker pattern of affect-rt. The quantized pass pulls
    // its i8 temporaries from a pool disjoint from the f32 buffers, so
    // alternating precisions must not thrash the best-fit allocator.
    let mut q_model = Sequential::new();
    q_model.push(Dense::new(16, 32, 21).unwrap());
    q_model.push(Activation::relu());
    q_model.push(Dense::new(32, 8, 22).unwrap());
    q_model.set_precision(Precision::Int8).unwrap();
    let mut shared = Scratch::new();
    for _ in 0..2 {
        q_model.forward_with(&input, &[16], &mut shared).unwrap();
        model.forward_with(&input, &[16], &mut shared).unwrap();
    }
    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            q_model.forward_with(&input, &[16], &mut shared).unwrap();
            model.forward_with(&input, &[16], &mut shared).unwrap();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "mixed f32/int8 forwards allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);

    // The runtime's three models at the default config (16 kHz, 1 s
    // windows in 512-sample frames), with its default model seed: the LSTM
    // on `[61, 19]`, the CNN on `[1, 1159]` and the MLP on `[76]`, each in
    // f32 and int8, interleaved on one arena as a classify worker runs
    // them.
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default()).unwrap();
    let window: Vec<f32> = (0..16_000)
        .map(|n| (n as f32 * 0.057).sin() * 0.3 + (n as f32 * 0.0131).sin() * 0.1)
        .collect();
    let (fpf, frames) = (pipeline.features_per_frame(), pipeline.frames_for(16_000));
    let runtime_models = [
        (
            ModelConfig::scaled_lstm(fpf, 8),
            pipeline.extract_sequence(&window).unwrap(),
        ),
        (
            ModelConfig::scaled_cnn(frames * fpf, 8),
            pipeline.extract_strip(&window).unwrap(),
        ),
        (
            ModelConfig::scaled_mlp(pipeline.flat_dim(), 8),
            pipeline.extract_flat(&window).unwrap(),
        ),
    ];
    let labels: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
    let mut worker = Vec::new();
    for (config, features) in &runtime_models {
        for precision in [Precision::F32, Precision::Int8] {
            let mut clf = AffectClassifier::from_config(config, labels.clone(), 7).unwrap();
            clf.set_precision(precision).unwrap();
            worker.push((clf, features));
        }
    }
    let shapes: Vec<&[usize]> = runtime_models.iter().map(|(_, f)| f.shape()).collect();
    assert_eq!(shapes, [&[61, 19][..], &[1, 1159], &[76]]);
    let mut arena = Scratch::new();
    for _ in 0..3 {
        for (clf, features) in &mut worker {
            clf.classify_with(features.data(), features.shape(), &mut arena, &mut decision)
                .unwrap();
        }
    }
    let (delta, ()) = count_allocations(|| {
        for _ in 0..5 {
            for (clf, features) in &mut worker {
                clf.classify_with(features.data(), features.shape(), &mut arena, &mut decision)
                    .unwrap();
            }
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "the runtime's models, f32 and int8 on one arena, allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);

    // HDC rung: encode + Hamming lookup reuse internal buffers, and
    // classify_into reuses the caller's probability vector.
    let xs: Vec<Tensor> = (0..8)
        .map(|i| {
            Tensor::from_vec(
                (0..16)
                    .map(|c| ((i * 16 + c) as f32 * 0.11).sin())
                    .collect(),
                &[16],
            )
            .unwrap()
        })
        .collect();
    let ys: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let mut hdc = HdcClassifier::new(nn::hdc::HdcConfig::new(16, 4, 5).unwrap()).unwrap();
    hdc.fit(&xs, &ys).unwrap();
    let mut probs = Vec::with_capacity(4);
    for x in &xs {
        hdc.classify_into(x.data(), &mut probs).unwrap();
    }
    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            for x in &xs {
                hdc.classify_into(x.data(), &mut probs).unwrap();
            }
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "HDC classify_into allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);
    println!("forward_zero_alloc: ok");
}
