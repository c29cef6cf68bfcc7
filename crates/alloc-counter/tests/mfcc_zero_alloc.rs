//! Proves `MfccExtractor::extract_into`, `PitchEstimator::estimate` and
//! `SpectralAnalyzer::analyze` perform zero steady-state heap allocations:
//! after one warm-up call sizes every internal scratch buffer, repeated
//! extraction never touches the allocator again. A warm
//! `FeaturePipeline::extract_flat` allocates only its own tensor on top of
//! the sequence it summarizes.
//!
//! Runs without the libtest harness (`harness = false`): the allocator
//! counters are process-global, so the measurement must own the process.

use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use alloc_counter::{count_allocations, CountingAllocator};
use dsp::{MfccExtractor, PitchEstimator, SpectralAnalyzer};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    let mut mfcc = MfccExtractor::new(16_000.0, 512, 26, 13).unwrap();
    let frame: Vec<f32> = (0..512).map(|i| (i as f32 * 0.013).sin()).collect();
    let mut out = Vec::new();

    // Warm-up: the first call may size the internal split FFT, spectrum and
    // energy buffers and the caller's output vector.
    mfcc.extract_into(&frame, &mut out).unwrap();
    let warm = out.clone();

    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            mfcc.extract_into(&frame, &mut out).unwrap();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "extract_into allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);
    assert_eq!(out, warm, "steady-state output drifted");

    // The runtime's pitch search: 512-sample frames, 16 kHz, 60–500 Hz.
    let mut pitch = PitchEstimator::new(16_000.0, 512, 60.0, 500.0).unwrap();
    let voiced: Vec<f32> = (0..512).map(|i| (i as f32 * 0.08).sin()).collect();
    let warm_f0 = pitch.estimate(&voiced).unwrap();
    assert!(
        warm_f0.is_some(),
        "the probe frame must exercise the lag search"
    );
    let mut f0 = None;
    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            f0 = pitch.estimate(&voiced).unwrap();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "PitchEstimator::estimate allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);
    assert_eq!(
        f0.map(f32::to_bits),
        warm_f0.map(f32::to_bits),
        "steady-state pitch drifted"
    );

    // The runtime's spectral summary: 512-sample frames at 16 kHz.
    let mut spectral = SpectralAnalyzer::new(16_000.0, 512).unwrap();
    let bits =
        |s: dsp::features::SpectralSummary| [s.mean, s.peak, s.centroid_hz].map(f32::to_bits);
    let warm_summary = bits(spectral.analyze(&frame).unwrap());
    let mut summary = [0; 3];
    let (delta, ()) = count_allocations(|| {
        for _ in 0..100 {
            summary = bits(spectral.analyze(&frame).unwrap());
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "SpectralAnalyzer::analyze allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);
    assert_eq!(
        summary, warm_summary,
        "steady-state spectral summary drifted"
    );
    assert_eq!(
        warm_summary,
        bits(dsp::spectral_magnitude(&frame, 16_000.0).unwrap()),
        "the warm analyzer must match the one-shot summary"
    );

    // The runtime's feature pipeline on a 1 s window at 16 kHz: the flat
    // statistics vector costs its data and shape and nothing per feature.
    let mut pipeline = FeaturePipeline::new(FeatureConfig::default()).unwrap();
    let window: Vec<f32> = (0..16_000).map(|i| (i as f32 * 0.08).sin()).collect();
    let warm_flat = pipeline.extract_flat(&window).unwrap();
    let (sequence, _) = count_allocations(|| pipeline.extract_sequence(&window).unwrap());
    let (flat, again) = count_allocations(|| pipeline.extract_flat(&window).unwrap());
    assert_eq!(
        flat.allocations,
        sequence.allocations + 2,
        "extract_flat allocated beyond its own tensor: {flat:?} vs extract_sequence {sequence:?}"
    );
    assert_eq!(
        again.data(),
        warm_flat.data(),
        "steady-state flat features drifted"
    );
    println!("mfcc_zero_alloc: ok");
}
