//! Kernel benchmarks for the DSP front end (the per-window work the
//! wearable/phone does for every classification), timed as one
//! `bench::results` group.

use std::hint::black_box;
use std::time::Duration;

use bench::results::{batch, print_group, Mode};
use dsp::window::hann;
use dsp::{
    pitch_autocorrelation, rfft_magnitude, FftPlan, MfccExtractor, PitchEstimator, SpectralAnalyzer,
};

/// Target wall-clock of one cell's batch in one round.
const TARGET: Duration = Duration::from_millis(10);

fn tone(hz: f32, n: usize, sample_rate: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / sample_rate).sin())
        .collect()
}

fn main() {
    let mode = Mode::from_args();
    let mut cells = Vec::new();
    for size in [256usize, 512, 1024] {
        let signal = tone(440.0, size, 16_000.0);
        cells.push((
            format!("fft_magnitude/{size}"),
            batch(mode, TARGET, move || {
                rfft_magnitude(black_box(&signal)).unwrap()
            }),
        ));
    }
    // The warm split-layout transforms at the fleet's and the runtime's frame
    // lengths: caller-owned buffers, nothing allocated per call. The
    // spectral summary runs the unwindowed recurrence plan and MFCC the
    // direct plan with its Hann window, so at 128 and at 512 these are the
    // two transforms every fleet and every runtime frame runs.
    for (name, plan, window) in [
        ("planned", FftPlan::recurrence(128), None),
        ("planned_hann", FftPlan::new(128), Some(hann(128))),
        ("planned", FftPlan::recurrence(512), None),
        ("planned_hann", FftPlan::new(512), Some(hann(512))),
    ] {
        let plan = plan.unwrap();
        let signal = tone(440.0, plan.len(), 16_000.0);
        let (mut re, mut im, mut mag) = (Vec::new(), Vec::new(), Vec::new());
        cells.push((
            format!("fft_magnitude/{name}/{}", plan.len()),
            batch(mode, TARGET, move || {
                plan.rfft_magnitude_into(
                    black_box(&signal),
                    window.as_deref(),
                    &mut re,
                    &mut im,
                    &mut mag,
                )
                .unwrap()
            }),
        ));
    }

    // The warm extractor the feature pipeline keeps: its scratch is sized
    // by the first call, so the loop allocates nothing.
    let mut extractor = MfccExtractor::new(16_000.0, 512, 26, 13).unwrap();
    let frame = tone(220.0, 512, 16_000.0);
    let mut out = Vec::new();
    cells.push((
        "mfcc_extract_into_512".into(),
        batch(mode, TARGET, move || {
            extractor.extract_into(black_box(&frame), &mut out).unwrap()
        }),
    ));

    let frame_800 = tone(180.0, 800, 8_000.0);
    cells.push((
        "pitch_autocorrelation_800".into(),
        batch(mode, TARGET, move || {
            pitch_autocorrelation(black_box(&frame_800), 8_000.0, 60.0, 500.0).unwrap()
        }),
    ));
    // The runtime's shape: 512-sample frames at 16 kHz over 60–500 Hz
    // (236 lags), searched by the warm estimator the feature pipeline keeps.
    let mut estimator = PitchEstimator::new(16_000.0, 512, 60.0, 500.0).unwrap();
    let frame = tone(180.0, 512, 16_000.0);
    let pitch_frame = frame.clone();
    cells.push((
        "pitch_estimator_512_16k".into(),
        batch(mode, TARGET, move || {
            estimator.estimate(black_box(&pitch_frame)).unwrap()
        }),
    ));
    // The spectral summary at the same shape, through the warm analyzer the
    // feature pipeline keeps.
    let mut analyzer = SpectralAnalyzer::new(16_000.0, 512).unwrap();
    cells.push((
        "spectral_analyzer_512_16k".into(),
        batch(mode, TARGET, move || {
            analyzer.analyze(black_box(&frame)).unwrap()
        }),
    ));

    print_group(cells);
}
