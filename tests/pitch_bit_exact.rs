//! Bit-exactness oracle for the lag-blocked pitch search.
//!
//! `dsp::pitch_autocorrelation` and a reused `dsp::PitchEstimator` must
//! return exactly what the serial per-lag search below returns: the same
//! errors, the same voicing decisions and the same `f32` bits, on random
//! frames and parameters and on every analysis frame of the synthetic
//! voice corpus the runtime classifies.

// The reference keeps `dsp`'s `!(x > 0.0)` guards verbatim: unlike
// `x <= 0.0` they also reject NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use affectsys::biosignal::{synthesize_utterance, UtteranceParams};
use affectsys::core::emotion::Emotion;
use affectsys::dsp::{pitch_autocorrelation, DspError, Frames, PitchEstimator};
use proptest::prelude::*;

/// The serial per-lag search the blocked one replaces, kept verbatim: one
/// loop per lag accumulating `num`, `e0` and `e1` in sample order.
fn reference_pitch(
    frame: &[f32],
    sample_rate: f32,
    min_hz: f32,
    max_hz: f32,
) -> Result<Option<f32>, DspError> {
    if !(sample_rate > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "sample_rate",
            reason: "must be positive",
        });
    }
    if !(min_hz > 0.0) || max_hz <= min_hz {
        return Err(DspError::InvalidParameter {
            name: "min_hz/max_hz",
            reason: "need 0 < min_hz < max_hz",
        });
    }
    let min_lag = (sample_rate / max_hz).floor() as usize;
    let max_lag = (sample_rate / min_hz).ceil() as usize;
    if min_lag == 0 || max_lag >= frame.len() {
        return Err(DspError::InvalidParameter {
            name: "frame",
            reason: "frame too short for the requested pitch range",
        });
    }

    let energy: f32 = frame.iter().map(|x| x * x).sum();
    if energy < 1e-12 {
        return Ok(None); // silence
    }

    let mut corrs = Vec::with_capacity(max_lag - min_lag + 1);
    let mut best_corr = 0.0f32;
    for lag in min_lag..=max_lag {
        let n = frame.len() - lag;
        let mut num = 0.0f32;
        let mut e0 = 0.0f32;
        let mut e1 = 0.0f32;
        for i in 0..n {
            num += frame[i] * frame[i + lag];
            e0 += frame[i] * frame[i];
            e1 += frame[i + lag] * frame[i + lag];
        }
        let denom = (e0 * e1).sqrt();
        let corr = if denom > 1e-12 { num / denom } else { 0.0 };
        corrs.push(corr);
        best_corr = best_corr.max(corr);
    }

    const VOICING_THRESHOLD: f32 = 0.3;
    if best_corr < VOICING_THRESHOLD {
        return Ok(None);
    }
    // Sub-octave correction: a lag of 2×, 3×… the true period correlates
    // just as well, so take the *smallest* lag whose correlation is within a
    // small tolerance of the peak.
    const OCTAVE_TOLERANCE: f32 = 0.02;
    let lag = corrs
        .iter()
        .position(|&c| c >= best_corr - OCTAVE_TOLERANCE)
        .map(|i| i + min_lag)
        .unwrap_or(min_lag);
    Ok(Some(sample_rate / lag as f32))
}

/// A result with the estimate as raw bits, so `assert_eq!` compares bits.
fn bits(result: Result<Option<f32>, DspError>) -> Result<Option<u32>, DspError> {
    result.map(|f0| f0.map(f32::to_bits))
}

/// SplitMix64 step mapped to a sample in `[-1, 1)`.
fn next_sample(state: &mut u64) -> f32 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn tone(hz: f32, sample_rate: f32, len: usize, amplitude: f32) -> Vec<f32> {
    (0..len)
        .map(|i| amplitude * (2.0 * std::f32::consts::PI * hz * i as f32 / sample_rate).sin())
        .collect()
}

/// One test frame of `kind`: 0 noise, 1 a tone at the range's low edge,
/// 2 a tone at its high edge, 3 silence, 4 noise carrying NaN and ±inf
/// samples, 5 a voiced harmonic stack under noise.
fn make_frame(kind: u8, len: usize, sample_rate: f32, range: (f32, f32), seed: u64) -> Vec<f32> {
    let mut state = seed;
    // 1e-8..1e3: spans the silence and denominator cut-offs at 1e-12.
    let amplitude = 10f32.powf(next_sample(&mut state) * 5.5 - 2.5);
    match kind {
        0 => (0..len)
            .map(|_| amplitude * next_sample(&mut state))
            .collect(),
        1 => tone(range.0, sample_rate, len, amplitude),
        2 => tone(range.1, sample_rate, len, amplitude),
        3 => vec![0.0; len],
        4 => {
            let mut frame: Vec<f32> = (0..len).map(|_| next_sample(&mut state)).collect();
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                if next_sample(&mut state) > -0.5 {
                    let at = ((next_sample(&mut state) + 1.0) * 0.5 * len as f32) as usize;
                    frame[at.min(len - 1)] = special;
                }
            }
            frame
        }
        _ => {
            let f0 = range.0 + (range.1 - range.0) * 0.5 * (next_sample(&mut state) + 1.0);
            (0..len)
                .map(|i| {
                    let t = 2.0 * std::f32::consts::PI * f0 * i as f32 / sample_rate;
                    let voiced = t.sin() + 0.5 * (2.0 * t).sin() + 0.25 * (3.0 * t).sin();
                    amplitude * (voiced + 0.2 * next_sample(&mut state))
                })
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random sample rates, lag ranges and frame lengths. The range is
    /// built from its lags, so every lag count from 2 (fewer than the
    /// narrowest, 16-lag block) to 200 (three 64-lag blocks and 8 more)
    /// occurs — each remainder modulo every block width — and a frame
    /// length slack of 0 puts `max_lag` at `len - 1`; a slack of -1 makes
    /// the frame one sample too short.
    #[test]
    fn blocked_search_matches_reference_bitwise(
        (sample_rate, min_lag, n_lags, slack) in (
            prop_oneof![Just(8_000.0f32), Just(16_000.0f32), 1_000.0f32..48_000.0],
            1usize..300,
            2usize..=200,
            prop_oneof![Just(-1i64), Just(0i64), 1i64..=40],
        ),
        (kind, seed, next_kind) in (0u8..6, any::<u64>(), 0u8..6),
    ) {
        let max_lag = min_lag + n_lags - 1;
        let len = (max_lag as i64 + 1 + slack) as usize;
        // floor(sr / max_hz) = min_lag and ceil(sr / min_hz) = max_lag,
        // with a quarter lag of margin for the f32 rounding.
        let max_hz = sample_rate / (min_lag as f32 + 0.25);
        let min_hz = sample_rate / (max_lag as f32 - 0.25);
        prop_assert_eq!((sample_rate / max_hz).floor() as usize, min_lag);
        prop_assert_eq!((sample_rate / min_hz).ceil() as usize, max_lag);

        let frame = make_frame(kind, len, sample_rate, (min_hz, max_hz), seed);
        let expected = bits(reference_pitch(&frame, sample_rate, min_hz, max_hz));
        prop_assert_eq!(
            bits(pitch_autocorrelation(&frame, sample_rate, min_hz, max_hz)),
            expected.clone(),
            "kind {} len {} lags {}..={} sr {}", kind, len, min_lag, max_lag, sample_rate
        );
        prop_assert_eq!(
            PitchEstimator::new(sample_rate, len, min_hz, max_hz).err(),
            expected.clone().err()
        );

        // A warm estimator carries nothing over from its previous frame.
        if let Ok(mut estimator) = PitchEstimator::new(sample_rate, len, min_hz, max_hz) {
            let next = make_frame(next_kind, len, sample_rate, (min_hz, max_hz), !seed);
            prop_assert_eq!(bits(estimator.estimate(&frame)), expected);
            prop_assert_eq!(
                bits(estimator.estimate(&next)),
                bits(reference_pitch(&next, sample_rate, min_hz, max_hz))
            );
        }
    }
}

/// Parameters every search rejects, with the reference's error.
#[test]
fn invalid_parameters_fail_like_the_reference() {
    let frame = tone(200.0, 8_000.0, 400, 1.0);
    for (sample_rate, min_hz, max_hz) in [
        (0.0, 60.0, 500.0),
        (-8_000.0, 60.0, 500.0),
        (f32::NAN, 60.0, 500.0),
        (8_000.0, 0.0, 500.0),
        (8_000.0, 500.0, 500.0),
        (8_000.0, 500.0, 60.0),
        (8_000.0, f32::NAN, 500.0),
        (8_000.0, 60.0, 9_000.0), // min_lag 0
        (8_000.0, 10.0, 500.0),   // max_lag 800 >= 400
        (8_000.0, 20.0, 500.0),   // max_lag 400 == len
    ] {
        let expected = reference_pitch(&frame, sample_rate, min_hz, max_hz);
        assert!(expected.is_err(), "{sample_rate} {min_hz} {max_hz}");
        assert_eq!(
            pitch_autocorrelation(&frame, sample_rate, min_hz, max_hz),
            expected
        );
    }
    let mut estimator = PitchEstimator::new(8_000.0, 400, 60.0, 500.0).unwrap();
    assert_eq!(
        estimator.estimate(&frame[..399]),
        Err(DspError::LengthMismatch {
            expected: 400,
            actual: 399
        })
    );
}

/// Every 512/256 frame of 1 s utterances at 16 kHz over the runtime's
/// 60–500 Hz range, for every emotion at F0 scales 0.7–2.2, through one
/// reused estimator, as the feature pipeline runs it.
#[test]
fn voice_corpus_frames_match_reference_bitwise() {
    const SAMPLE_RATE: f32 = 16_000.0;
    let (min_hz, max_hz) = (60.0, 500.0);
    let mut estimator = PitchEstimator::new(SAMPLE_RATE, 512, min_hz, max_hz).unwrap();
    let (mut frames, mut voiced) = (0usize, 0usize);
    for (e, &emotion) in Emotion::ALL.iter().enumerate() {
        for s in 0..7u64 {
            let mut params = UtteranceParams::for_emotion(emotion);
            params.f0_hz *= 0.7 + 0.25 * s as f32;
            let wave = synthesize_utterance(&params, 1.0, SAMPLE_RATE, 10 * e as u64 + s).unwrap();
            for frame in Frames::new(&wave, 512, 256).unwrap() {
                let expected = bits(reference_pitch(frame, SAMPLE_RATE, min_hz, max_hz));
                assert_eq!(
                    bits(estimator.estimate(frame)),
                    expected,
                    "{emotion:?} x{s}"
                );
                frames += 1;
                voiced += usize::from(matches!(expected, Ok(Some(_))));
            }
        }
    }
    assert_eq!(frames, 8 * 7 * 61);
    assert!(
        voiced * 2 > frames,
        "only {voiced} of {frames} frames voiced"
    );
}
