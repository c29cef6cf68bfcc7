//! Kernel benchmarks for the DSP front end (the per-window work the
//! wearable/phone does for every classification).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsp::window::hann;
use dsp::{
    pitch_autocorrelation, rfft_magnitude, FftPlan, MfccExtractor, PitchEstimator, SpectralAnalyzer,
};
use std::hint::black_box;

fn tone(hz: f32, n: usize, sample_rate: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / sample_rate).sin())
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_magnitude");
    for size in [256usize, 512, 1024] {
        let signal = tone(440.0, size, 16_000.0);
        group.bench_with_input(BenchmarkId::from_parameter(size), &signal, |b, s| {
            b.iter(|| rfft_magnitude(black_box(s)).unwrap());
        });
    }
    // The warm split-layout transforms at the fleet's and the runtime's frame
    // lengths: caller-owned buffers, nothing allocated per call. The
    // spectral summary runs the unwindowed recurrence plan and MFCC the
    // direct plan with its Hann window, so at 512 these are the two
    // transforms every runtime frame runs.
    let hann_512 = hann(512);
    for (name, plan, window) in [
        ("planned", FftPlan::recurrence(128), None),
        ("planned", FftPlan::recurrence(512), None),
        ("planned_hann", FftPlan::new(512), Some(&hann_512[..])),
    ] {
        let plan = plan.unwrap();
        let signal = tone(440.0, plan.len(), 16_000.0);
        let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
        group.bench_with_input(BenchmarkId::new(name, plan.len()), &signal, |b, s| {
            b.iter(|| {
                plan.rfft_magnitude_into(black_box(s), window, &mut re, &mut im, &mut mag)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_mfcc(c: &mut Criterion) {
    // The warm extractor the feature pipeline keeps: its scratch is sized
    // by the first call, so the loop allocates nothing.
    let mut extractor = MfccExtractor::new(16_000.0, 512, 26, 13).unwrap();
    let frame = tone(220.0, 512, 16_000.0);
    let mut out = Vec::new();
    c.bench_function("mfcc_extract_into_512", |b| {
        b.iter(|| extractor.extract_into(black_box(&frame), &mut out).unwrap());
    });
}

fn bench_pitch(c: &mut Criterion) {
    let frame = tone(180.0, 800, 8_000.0);
    c.bench_function("pitch_autocorrelation_800", |b| {
        b.iter(|| pitch_autocorrelation(black_box(&frame), 8_000.0, 60.0, 500.0).unwrap());
    });
    // The runtime's shape: 512-sample frames at 16 kHz over 60–500 Hz
    // (236 lags), searched by the warm estimator the feature pipeline keeps.
    let mut estimator = PitchEstimator::new(16_000.0, 512, 60.0, 500.0).unwrap();
    let frame = tone(180.0, 512, 16_000.0);
    c.bench_function("pitch_estimator_512_16k", |b| {
        b.iter(|| estimator.estimate(black_box(&frame)).unwrap());
    });
    // The spectral summary at the same shape, through the warm analyzer the
    // feature pipeline keeps.
    let mut analyzer = SpectralAnalyzer::new(16_000.0, 512).unwrap();
    c.bench_function("spectral_analyzer_512_16k", |b| {
        b.iter(|| analyzer.analyze(black_box(&frame)).unwrap());
    });
}

criterion_group!(benches, bench_fft, bench_mfcc, bench_pitch);
criterion_main!(benches);
