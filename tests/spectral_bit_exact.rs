//! Bit-exactness oracle for the split-layout planned FFT.
//!
//! `dsp::MfccExtractor` and `dsp::spectral_magnitude` (and a reused
//! `dsp::SpectralAnalyzer`) must return exactly what the code they replace
//! returns: the same errors and the same `f32` bits, on random frames of
//! every power-of-two length up to 1024 and on every analysis frame of the
//! synthetic voice corpus the runtime classifies. The replaced code is kept
//! below verbatim: the interleaved planned transform, the MFCC frame path
//! over it, and the spectral summary over `rfft_magnitude`.

// The references keep `dsp`'s `!(x > 0.0)` guards verbatim: unlike
// `x <= 0.0` they also reject NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use affectsys::biosignal::{synthesize_utterance, UtteranceParams};
use affectsys::core::emotion::Emotion;
use affectsys::dsp::features::SpectralSummary;
use affectsys::dsp::{
    rfft_magnitude, spectral_magnitude, Complex, DspError, Frames, MelFilterBank, MfccExtractor,
    SpectralAnalyzer,
};
use proptest::prelude::*;

/// The interleaved planned FFT the split layout replaces, kept verbatim:
/// directly evaluated twiddles, an in-place swap permutation and `Complex`
/// butterflies.
struct ReferencePlan {
    n: usize,
    rev: Vec<usize>,
    twiddles: Vec<Complex>,
}

impl ReferencePlan {
    fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput);
        }
        if n & (n - 1) != 0 {
            return Err(DspError::NonPowerOfTwoFft { len: n });
        }
        let bits = n.trailing_zeros();
        let rev = if n == 1 {
            vec![0]
        } else {
            (0..n)
                .map(|i| i.reverse_bits() >> (usize::BITS - bits))
                .collect()
        };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for k in 0..half {
                let ang = -2.0 * std::f32::consts::PI * k as f32 / len as f32;
                twiddles.push(Complex::new(ang.cos(), ang.sin()));
            }
            len <<= 1;
        }
        Ok(Self { n, rev, twiddles })
    }

    fn process(&self, buf: &mut [Complex]) -> Result<(), DspError> {
        if buf.len() != self.n {
            return Err(DspError::LengthMismatch {
                expected: self.n,
                actual: buf.len(),
            });
        }
        if self.n == 1 {
            return Ok(());
        }
        for (i, &j) in self.rev.iter().enumerate() {
            if j > i {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        let mut offset = 0;
        while len <= self.n {
            let half = len / 2;
            let tw = &self.twiddles[offset..offset + half];
            for chunk in buf.chunks_mut(len) {
                for (k, &w) in tw.iter().enumerate() {
                    let u = chunk[k];
                    let v = chunk[k + half] * w;
                    chunk[k] = u + v;
                    chunk[k + half] = u - v;
                }
            }
            offset += half;
            len <<= 1;
        }
        Ok(())
    }
}

/// The MFCC extractor as it was: its validation, its tables and its frame
/// path over [`ReferencePlan`], kept verbatim.
struct ReferenceMfcc {
    bank: MelFilterBank,
    frame_len: usize,
    n_coeffs: usize,
    plan: ReferencePlan,
    window_coeffs: Vec<f32>,
    dct_basis: Vec<f32>,
}

impl ReferenceMfcc {
    fn new(
        sample_rate: f32,
        frame_len: usize,
        n_filters: usize,
        n_coeffs: usize,
    ) -> Result<Self, DspError> {
        if n_coeffs == 0 || n_coeffs > n_filters {
            return Err(DspError::InvalidParameter {
                name: "n_coeffs",
                reason: "must be in 1..=n_filters",
            });
        }
        let bank = MelFilterBank::new(sample_rate, frame_len, n_filters)?;
        let plan = ReferencePlan::new(frame_len)?;
        let window_coeffs = affectsys::dsp::window::hann(frame_len);
        let n = n_filters as f32;
        let mut dct_basis = Vec::with_capacity(n_coeffs * n_filters);
        for k in 0..n_coeffs {
            let scale = if k == 0 {
                (1.0 / n).sqrt()
            } else {
                (2.0 / n).sqrt()
            };
            for i in 0..n_filters {
                dct_basis
                    .push(scale * (std::f32::consts::PI * k as f32 * (i as f32 + 0.5) / n).cos());
            }
        }
        Ok(Self {
            bank,
            frame_len,
            n_coeffs,
            plan,
            window_coeffs,
            dct_basis,
        })
    }

    fn extract(&self, frame: &[f32]) -> Result<Vec<f32>, DspError> {
        if frame.len() != self.frame_len {
            return Err(DspError::LengthMismatch {
                expected: self.frame_len,
                actual: frame.len(),
            });
        }
        let mut fft_buf: Vec<Complex> = frame
            .iter()
            .zip(&self.window_coeffs)
            .map(|(&x, &w)| Complex::new(x * w, 0.0))
            .collect();
        self.plan.process(&mut fft_buf)?;
        let spectrum: Vec<f32> = fft_buf[..frame.len() / 2 + 1]
            .iter()
            .map(|c| c.abs())
            .collect();
        let mut energies = Vec::new();
        self.bank.apply_into(&spectrum, &mut energies)?;
        // Floor avoids log(0); 1e-10 is ~-200 dB, far below any real signal.
        for e in energies.iter_mut() {
            *e = (e.max(1e-10)).ln();
        }
        let n_filters = energies.len();
        Ok((0..self.n_coeffs)
            .map(|k| {
                let row = &self.dct_basis[k * n_filters..(k + 1) * n_filters];
                row.iter()
                    .zip(energies.iter())
                    .map(|(&b, &e)| b * e)
                    .sum::<f32>()
            })
            .collect())
    }
}

/// `spectral_magnitude` as it was: the summary of `rfft_magnitude`'s
/// spectrum, kept verbatim.
fn reference_spectral(frame: &[f32], sample_rate: f32) -> Result<SpectralSummary, DspError> {
    if !(sample_rate > 0.0) {
        return Err(DspError::InvalidParameter {
            name: "sample_rate",
            reason: "must be positive",
        });
    }
    let mag = rfft_magnitude(frame)?;
    let sum: f32 = mag.iter().sum();
    let mean = sum / mag.len() as f32;
    let peak = mag.iter().fold(0.0f32, |a, &b| a.max(b));
    let centroid_hz = if sum > 1e-12 {
        let bin_hz = sample_rate / frame.len() as f32;
        mag.iter()
            .enumerate()
            .map(|(i, &m)| i as f32 * bin_hz * m)
            .sum::<f32>()
            / sum
    } else {
        0.0
    };
    Ok(SpectralSummary {
        mean,
        peak,
        centroid_hz,
    })
}

/// A summary as raw bits, so `assert_eq!` compares bits.
fn summary_bits(result: Result<SpectralSummary, DspError>) -> Result<[u32; 3], DspError> {
    result.map(|s| [s.mean, s.peak, s.centroid_hz].map(f32::to_bits))
}

/// Coefficients as raw bits.
fn mfcc_bits(result: Result<Vec<f32>, DspError>) -> Result<Vec<u32>, DspError> {
    result.map(|c| c.into_iter().map(f32::to_bits).collect())
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

/// One test frame of `kind`: 0 noise, 1 a tone, 2 silence, 3 noise
/// carrying NaN and ±inf samples, 4 a harmonic stack under noise.
fn make_frame(kind: u8, len: usize, sample_rate: f32, seed: u64) -> Vec<f32> {
    let mut state = seed;
    // 1e-8..1e3: spans the summary's 1e-12 cut-off and the MFCC's log floor.
    let amplitude = 10f32.powf(next_sample(&mut state) * 5.5 - 2.5);
    let hz = sample_rate * 0.25 * (next_sample(&mut state) + 1.0);
    let tone = |i: usize| 2.0 * std::f32::consts::PI * hz * i as f32 / sample_rate;
    match kind {
        0 => (0..len)
            .map(|_| amplitude * next_sample(&mut state))
            .collect(),
        1 => (0..len).map(|i| amplitude * tone(i).sin()).collect(),
        2 => vec![0.0; len],
        3 => {
            let mut frame: Vec<f32> = (0..len)
                .map(|_| amplitude * next_sample(&mut state))
                .collect();
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                if next_sample(&mut state) > -0.5 {
                    let at = ((next_sample(&mut state) + 1.0) * 0.5 * len as f32) as usize;
                    frame[at.min(len - 1)] = special;
                }
            }
            frame
        }
        _ => (0..len)
            .map(|i| {
                let t = tone(i) / 8.0;
                let voiced = t.sin() + 0.5 * (2.0 * t).sin() + 0.25 * (3.0 * t).sin();
                amplitude * (voiced + 0.2 * next_sample(&mut state))
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random frames of every power-of-two length from 1 to 1024 at random
    /// sample rates, through the one-shot summary, a warm analyzer, and an
    /// MFCC extractor of random filter and coefficient counts — including
    /// counts the length cannot hold, whose errors must match too.
    #[test]
    fn split_layout_matches_reference_bitwise(
        (pow, sample_rate, n_filters, extra_coeffs) in (
            0u32..=10,
            prop_oneof![Just(8_000.0f32), Just(16_000.0f32), 1_000.0f32..48_000.0],
            1usize..=40,
            0usize..=41,
        ),
        (kind, seed, next_kind) in (0u8..5, any::<u64>(), 0u8..5),
    ) {
        let len = 1usize << pow;
        let n_coeffs = extra_coeffs.min(n_filters + 1);
        let frame = make_frame(kind, len, sample_rate, seed);
        let next = make_frame(next_kind, len, sample_rate, !seed);

        let expected = summary_bits(reference_spectral(&frame, sample_rate));
        prop_assert_eq!(summary_bits(spectral_magnitude(&frame, sample_rate)), expected.clone());
        let mut analyzer = SpectralAnalyzer::new(sample_rate, len).unwrap();
        // A warm analyzer carries nothing over from its previous frame.
        prop_assert_eq!(summary_bits(analyzer.analyze(&frame)), expected);
        prop_assert_eq!(
            summary_bits(analyzer.analyze(&next)),
            summary_bits(reference_spectral(&next, sample_rate))
        );

        let reference = ReferenceMfcc::new(sample_rate, len, n_filters, n_coeffs);
        let extractor = MfccExtractor::new(sample_rate, len, n_filters, n_coeffs);
        prop_assert_eq!(extractor.as_ref().err(), reference.as_ref().err());
        if let (Ok(mut extractor), Ok(reference)) = (extractor, reference) {
            let expected = mfcc_bits(reference.extract(&frame));
            prop_assert_eq!(mfcc_bits(extractor.extract(&frame)), expected.clone());
            let mut out = Vec::new();
            let warm = extractor.extract_into(&frame, &mut out).map(|()| out.clone());
            prop_assert_eq!(mfcc_bits(warm), expected);
            let warm = extractor.extract_into(&next, &mut out).map(|()| out.clone());
            prop_assert_eq!(mfcc_bits(warm), mfcc_bits(reference.extract(&next)));
        }
    }
}

/// Invalid sample rates, lengths and MFCC shapes fail with the reference's
/// errors, in the reference's order.
#[test]
fn invalid_inputs_fail_like_the_reference() {
    let frame = make_frame(0, 1024, 16_000.0, 7);
    for sample_rate in [0.0, -16_000.0, f32::NAN, 16_000.0] {
        for len in [0, 3, 12, 100, 256, 1000] {
            let frame = &frame[..len];
            let expected = reference_spectral(frame, sample_rate).err();
            assert_eq!(
                spectral_magnitude(frame, sample_rate).err(),
                expected,
                "{sample_rate} Hz, {len} samples"
            );
            assert_eq!(
                SpectralAnalyzer::new(sample_rate, len).err(),
                expected,
                "{sample_rate} Hz, {len} samples"
            );
        }
    }
    let mut analyzer = SpectralAnalyzer::new(16_000.0, 256).unwrap();
    assert_eq!(
        analyzer.analyze(&frame[..128]),
        Err(DspError::LengthMismatch {
            expected: 256,
            actual: 128
        })
    );

    for (sample_rate, len, n_filters, n_coeffs) in [
        (16_000.0, 512, 26, 0),
        (16_000.0, 512, 26, 27),
        (0.0, 512, 26, 13),
        (f32::NAN, 512, 26, 13),
        (16_000.0, 0, 26, 13),
        (16_000.0, 500, 26, 13),
        (16_000.0, 512, 0, 0),
        (16_000.0, 32, 26, 13),
    ] {
        let expected = ReferenceMfcc::new(sample_rate, len, n_filters, n_coeffs).err();
        assert!(
            expected.is_some(),
            "{sample_rate} {len} {n_filters} {n_coeffs}"
        );
        assert_eq!(
            MfccExtractor::new(sample_rate, len, n_filters, n_coeffs).err(),
            expected
        );
    }
    let mut extractor = MfccExtractor::new(16_000.0, 256, 20, 13).unwrap();
    let reference = ReferenceMfcc::new(16_000.0, 256, 20, 13).unwrap();
    assert_eq!(
        extractor.extract(&frame[..100]),
        reference.extract(&frame[..100])
    );
    assert_eq!(
        extractor.extract_into(&frame[..100], &mut Vec::new()),
        reference.extract(&frame[..100]).map(drop)
    );
}

/// Every 512/256 and 128/64 frame of 1 s utterances at 16 kHz, for every
/// emotion at F0 scales 0.7–2.2, through one reused extractor and analyzer
/// per shape, as the feature pipeline runs them.
#[test]
fn voice_corpus_frames_match_reference_bitwise() {
    const SAMPLE_RATE: f32 = 16_000.0;
    for (frame_len, hop, frames_per_window) in [(512, 256, 61), (128, 64, 249)] {
        let reference = ReferenceMfcc::new(SAMPLE_RATE, frame_len, 26, 13).unwrap();
        let mut extractor = MfccExtractor::new(SAMPLE_RATE, frame_len, 26, 13).unwrap();
        let mut analyzer = SpectralAnalyzer::new(SAMPLE_RATE, frame_len).unwrap();
        let mut out = Vec::new();
        let mut frames = 0usize;
        for (e, &emotion) in Emotion::ALL.iter().enumerate() {
            for s in 0..7u64 {
                let mut params = UtteranceParams::for_emotion(emotion);
                params.f0_hz *= 0.7 + 0.25 * s as f32;
                let wave =
                    synthesize_utterance(&params, 1.0, SAMPLE_RATE, 10 * e as u64 + s).unwrap();
                for frame in Frames::new(&wave, frame_len, hop).unwrap() {
                    let expected = summary_bits(reference_spectral(frame, SAMPLE_RATE));
                    assert_eq!(
                        summary_bits(analyzer.analyze(frame)),
                        expected,
                        "{emotion:?} x{s} {frame_len}"
                    );
                    assert_eq!(
                        summary_bits(spectral_magnitude(frame, SAMPLE_RATE)),
                        expected
                    );
                    let expected = mfcc_bits(reference.extract(frame));
                    extractor.extract_into(frame, &mut out).unwrap();
                    assert_eq!(
                        mfcc_bits(Ok(out.clone())),
                        expected,
                        "{emotion:?} x{s} {frame_len}"
                    );
                    frames += 1;
                }
            }
        }
        assert_eq!(frames, 8 * 7 * frames_per_window);
    }
}
