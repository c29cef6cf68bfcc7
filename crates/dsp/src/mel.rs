//! Mel filterbank and MFCC extraction.
//!
//! The paper's feature set is dominated by Mel-frequency cepstral
//! coefficients (MFCC): a magnitude spectrum is warped onto the mel scale by
//! a bank of triangular filters, log-compressed, and decorrelated with a
//! DCT-II. This module implements that path exactly.

use crate::fft::FftPlan;
use crate::window::hann;
use crate::DspError;

/// Converts a frequency in hertz to mels (O'Shaughnessy's formula).
///
/// # Example
///
/// ```
/// use dsp::hz_to_mel;
/// assert!((hz_to_mel(0.0)).abs() < 1e-6);
/// assert!(hz_to_mel(1000.0) > hz_to_mel(500.0));
/// ```
#[inline]
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Converts mels back to hertz; inverse of [`hz_to_mel`].
#[inline]
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10.0f32.powf(mel / 2595.0) - 1.0)
}

/// A bank of triangular filters equally spaced on the mel scale.
///
/// # Example
///
/// ```
/// use dsp::MelFilterBank;
/// # fn main() -> Result<(), dsp::DspError> {
/// let bank = MelFilterBank::new(16_000.0, 512, 26)?;
/// let spectrum = vec![1.0f32; 257];
/// let energies = bank.apply(&spectrum)?;
/// assert_eq!(energies.len(), 26);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MelFilterBank {
    /// `filters[m]` holds `(start_bin, weights)` for filter `m`.
    filters: Vec<(usize, Vec<f32>)>,
    spectrum_len: usize,
}

impl MelFilterBank {
    /// Builds a filterbank for `n_filters` triangles covering 0 Hz to the
    /// Nyquist frequency of `sample_rate`, for spectra produced by an FFT of
    /// `fft_len` points (so spectra have `fft_len / 2 + 1` bins).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] when `sample_rate` is not
    /// positive, `fft_len` is not a power of two, or `n_filters` is zero or
    /// too large for the spectral resolution.
    pub fn new(sample_rate: f32, fft_len: usize, n_filters: usize) -> Result<Self, DspError> {
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        if fft_len == 0 || fft_len & (fft_len - 1) != 0 {
            return Err(DspError::NonPowerOfTwoFft { len: fft_len });
        }
        if n_filters == 0 {
            return Err(DspError::InvalidParameter {
                name: "n_filters",
                reason: "must be non-zero",
            });
        }
        let spectrum_len = fft_len / 2 + 1;
        if n_filters + 2 > spectrum_len {
            return Err(DspError::InvalidParameter {
                name: "n_filters",
                reason: "too many filters for the fft resolution",
            });
        }

        let max_mel = hz_to_mel(sample_rate / 2.0);
        // n_filters + 2 boundary points on the mel axis.
        let mel_points: Vec<f32> = (0..n_filters + 2)
            .map(|i| max_mel * i as f32 / (n_filters + 1) as f32)
            .collect();
        // Map to FFT bin indices (fractional bins are kept to build smooth
        // triangles even at low resolution).
        let bin_of = |mel: f32| mel_to_hz(mel) * fft_len as f32 / sample_rate;
        let bins: Vec<f32> = mel_points.iter().map(|&m| bin_of(m)).collect();

        let mut filters = Vec::with_capacity(n_filters);
        for m in 0..n_filters {
            let (lo, mid, hi) = (bins[m], bins[m + 1], bins[m + 2]);
            let start = lo.floor().max(0.0) as usize;
            let end = (hi.ceil() as usize).min(spectrum_len - 1);
            let mut weights = Vec::with_capacity(end.saturating_sub(start) + 1);
            for bin in start..=end {
                let b = bin as f32;
                let w = if b < lo || b > hi {
                    0.0
                } else if b <= mid {
                    if mid > lo {
                        (b - lo) / (mid - lo)
                    } else {
                        1.0
                    }
                } else if hi > mid {
                    (hi - b) / (hi - mid)
                } else {
                    1.0
                };
                weights.push(w.max(0.0));
            }
            filters.push((start, weights));
        }
        Ok(Self {
            filters,
            spectrum_len,
        })
    }

    /// Number of filters in the bank.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Returns `true` when the bank has no filters (never, for a bank built
    /// by [`MelFilterBank::new`]).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Expected magnitude-spectrum length (`fft_len / 2 + 1`).
    pub fn spectrum_len(&self) -> usize {
        self.spectrum_len
    }

    /// Applies the bank to a magnitude spectrum, returning one energy per
    /// filter.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when `spectrum.len()` differs
    /// from [`MelFilterBank::spectrum_len`].
    pub fn apply(&self, spectrum: &[f32]) -> Result<Vec<f32>, DspError> {
        let mut out = Vec::with_capacity(self.filters.len());
        self.apply_into(spectrum, &mut out)?;
        Ok(out)
    }

    /// [`MelFilterBank::apply`] writing into a caller-provided buffer,
    /// allocation-free once the buffer has capacity. Results are bit-for-bit
    /// identical to `apply`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when `spectrum.len()` differs
    /// from [`MelFilterBank::spectrum_len`].
    pub fn apply_into(&self, spectrum: &[f32], out: &mut Vec<f32>) -> Result<(), DspError> {
        if spectrum.len() != self.spectrum_len {
            return Err(DspError::LengthMismatch {
                expected: self.spectrum_len,
                actual: spectrum.len(),
            });
        }
        out.clear();
        out.extend(self.filters.iter().map(|(start, weights)| {
            weights
                .iter()
                .enumerate()
                .map(|(i, &w)| w * spectrum[start + i])
                .sum::<f32>()
        }));
        Ok(())
    }
}

/// Type-II discrete cosine transform (orthonormal scaling), used to
/// decorrelate log mel energies into cepstral coefficients.
///
/// Direct O(N·K) evaluation: the paper uses at most 40 mel bands and 13
/// coefficients, where a fast algorithm would gain nothing.
pub fn dct_ii(input: &[f32], n_out: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(n_out);
    dct_ii_into(input, n_out, &mut out);
    out
}

/// [`dct_ii`] writing into a caller-provided buffer, allocation-free once
/// the buffer has capacity. Results are bit-for-bit identical to `dct_ii`.
pub fn dct_ii_into(input: &[f32], n_out: usize, out: &mut Vec<f32>) {
    let n = input.len() as f32;
    out.clear();
    out.extend((0..n_out).map(|k| {
        let sum: f32 = input
            .iter()
            .enumerate()
            .map(|(i, &x)| x * (std::f32::consts::PI * k as f32 * (i as f32 + 0.5) / n).cos())
            .sum();
        let scale = if k == 0 {
            (1.0 / n).sqrt()
        } else {
            (2.0 / n).sqrt()
        };
        scale * sum
    }));
}

/// End-to-end MFCC extractor: window → FFT magnitude → mel filterbank →
/// log → DCT-II.
///
/// The extractor precomputes everything the per-frame path needs — the
/// [`FftPlan`] (directly evaluated twiddles), the window coefficients, the
/// mel filterbank, and the DCT-II basis — and owns scratch buffers, so
/// [`MfccExtractor::extract_into`] performs **zero heap allocations** in
/// the steady state. The borrowing
/// [`MfccExtractor::extract`] produces identical coefficients through the
/// same precomputed tables but allocates its temporaries per call.
///
/// # Example
///
/// ```
/// use dsp::MfccExtractor;
/// # fn main() -> Result<(), dsp::DspError> {
/// let mut ex = MfccExtractor::new(16_000.0, 256, 20, 13)?;
/// let frame = vec![0.25f32; 256];
/// let mfcc = ex.extract(&frame)?;
/// assert_eq!(mfcc.len(), 13);
/// let mut out = Vec::new();
/// ex.extract_into(&frame, &mut out)?;
/// assert_eq!(out, mfcc);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    bank: MelFilterBank,
    frame_len: usize,
    n_coeffs: usize,
    plan: FftPlan,
    /// Window coefficients for `frame_len` samples.
    window_coeffs: Vec<f32>,
    /// Row-major `[n_coeffs, n_filters]` DCT-II basis with the orthonormal
    /// scale folded in.
    dct_basis: Vec<f32>,
    /// Reusable per-frame scratch (only touched by `extract_into`).
    scratch: MfccScratch,
}

/// Per-frame buffers of the MFCC path: the split complex spectrum, its
/// magnitudes and the mel energies.
#[derive(Debug, Clone, Default)]
struct MfccScratch {
    re: Vec<f32>,
    im: Vec<f32>,
    spectrum: Vec<f32>,
    energies: Vec<f32>,
}

/// Shared frame pipeline over caller-provided buffers: windowed FFT
/// magnitudes into `spectrum`, filterbank into `energies`, log in place,
/// DCT basis matmul into `out`.
#[allow(clippy::too_many_arguments)]
fn mfcc_with_buffers(
    plan: &FftPlan,
    bank: &MelFilterBank,
    window_coeffs: &[f32],
    dct_basis: &[f32],
    n_coeffs: usize,
    frame: &[f32],
    scratch: &mut MfccScratch,
    out: &mut Vec<f32>,
) -> Result<(), DspError> {
    let MfccScratch {
        re,
        im,
        spectrum,
        energies,
    } = scratch;
    plan.rfft_magnitude_into(frame, Some(window_coeffs), re, im, spectrum)?;
    bank.apply_into(spectrum, energies)?;
    // Floor avoids log(0); 1e-10 is ~-200 dB, far below any real signal.
    for e in energies.iter_mut() {
        *e = (e.max(1e-10)).ln();
    }
    let n_filters = energies.len();
    out.clear();
    out.extend((0..n_coeffs).map(|k| {
        let row = &dct_basis[k * n_filters..(k + 1) * n_filters];
        row.iter()
            .zip(energies.iter())
            .map(|(&b, &e)| b * e)
            .sum::<f32>()
    }));
    Ok(())
}

impl MfccExtractor {
    /// Creates an extractor for frames of `frame_len` samples at
    /// `sample_rate`, using `n_filters` mel bands and producing `n_coeffs`
    /// cepstral coefficients. Uses a Hann window.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`MelFilterBank::new`]; also
    /// rejects `n_coeffs` of zero or greater than `n_filters`.
    pub fn new(
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
        let plan = FftPlan::new(frame_len)?;
        let window_coeffs = hann(frame_len);
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
            scratch: MfccScratch::default(),
        })
    }

    /// Frame length in samples this extractor expects.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Extracts MFCCs from one frame.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when the frame length differs
    /// from [`MfccExtractor::frame_len`].
    pub fn extract(&self, frame: &[f32]) -> Result<Vec<f32>, DspError> {
        if frame.len() != self.frame_len {
            return Err(DspError::LengthMismatch {
                expected: self.frame_len,
                actual: frame.len(),
            });
        }
        let mut out = Vec::new();
        mfcc_with_buffers(
            &self.plan,
            &self.bank,
            &self.window_coeffs,
            &self.dct_basis,
            self.n_coeffs,
            frame,
            &mut MfccScratch::default(),
            &mut out,
        )?;
        Ok(out)
    }

    /// [`MfccExtractor::extract`] writing into a caller-provided buffer and
    /// drawing every temporary from the extractor's own scratch — zero heap
    /// allocations in the steady state, bit-for-bit identical coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when the frame length differs
    /// from [`MfccExtractor::frame_len`].
    pub fn extract_into(&mut self, frame: &[f32], out: &mut Vec<f32>) -> Result<(), DspError> {
        if frame.len() != self.frame_len {
            return Err(DspError::LengthMismatch {
                expected: self.frame_len,
                actual: frame.len(),
            });
        }
        let Self {
            bank,
            plan,
            window_coeffs,
            dct_basis,
            n_coeffs,
            scratch,
            ..
        } = self;
        mfcc_with_buffers(
            plan,
            bank,
            window_coeffs,
            dct_basis,
            *n_coeffs,
            frame,
            scratch,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mel_scale_round_trip() {
        for hz in [0.0f32, 100.0, 440.0, 1000.0, 4000.0, 8000.0] {
            let back = mel_to_hz(hz_to_mel(hz));
            assert!((back - hz).abs() < 0.5, "{hz} -> {back}");
        }
    }

    #[test]
    fn filterbank_rejects_bad_params() {
        assert!(MelFilterBank::new(0.0, 512, 26).is_err());
        assert!(MelFilterBank::new(16000.0, 300, 26).is_err());
        assert!(MelFilterBank::new(16000.0, 512, 0).is_err());
        assert!(MelFilterBank::new(16000.0, 16, 20).is_err());
    }

    #[test]
    fn filterbank_energies_nonnegative_for_nonnegative_spectrum() {
        let bank = MelFilterBank::new(16_000.0, 512, 26).unwrap();
        let spectrum: Vec<f32> = (0..257).map(|i| (i % 7) as f32).collect();
        let e = bank.apply(&spectrum).unwrap();
        assert!(e.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn filterbank_length_mismatch() {
        let bank = MelFilterBank::new(16_000.0, 512, 26).unwrap();
        assert_eq!(
            bank.apply(&[0.0; 100]),
            Err(DspError::LengthMismatch {
                expected: 257,
                actual: 100
            })
        );
    }

    #[test]
    fn filters_overlap_to_cover_midband() {
        // The summed response across filters should be positive through the
        // middle of the band (triangles tile the axis).
        let bank = MelFilterBank::new(16_000.0, 512, 26).unwrap();
        let mut coverage = vec![0.0f32; bank.spectrum_len()];
        for (start, weights) in &bank.filters {
            for (i, &w) in weights.iter().enumerate() {
                coverage[start + i] += w;
            }
        }
        for (bin, &c) in coverage.iter().enumerate().take(250).skip(10) {
            assert!(c > 0.0, "bin {bin} uncovered");
        }
    }

    #[test]
    fn dct_of_constant_is_dc_only() {
        let out = dct_ii(&[2.0; 16], 8);
        assert!(out[0] > 0.0);
        for &c in &out[1..] {
            assert!(c.abs() < 1e-4);
        }
    }

    #[test]
    fn dct_orthonormal_energy() {
        // Full-length orthonormal DCT preserves energy.
        let input: Vec<f32> = (0..16).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
        let out = dct_ii(&input, 16);
        let ein: f32 = input.iter().map(|x| x * x).sum();
        let eout: f32 = out.iter().map(|x| x * x).sum();
        assert!((ein - eout).abs() < 1e-2, "{ein} vs {eout}");
    }

    #[test]
    fn mfcc_rejects_wrong_frame_len() {
        let ex = MfccExtractor::new(16_000.0, 256, 20, 13).unwrap();
        assert!(ex.extract(&[0.0; 100]).is_err());
    }

    #[test]
    fn mfcc_distinguishes_tones() {
        // Low tone vs high tone must produce different cepstra.
        let ex = MfccExtractor::new(16_000.0, 512, 26, 13).unwrap();
        let lo: Vec<f32> = (0..512)
            .map(|i| (2.0 * std::f32::consts::PI * 200.0 * i as f32 / 16_000.0).sin())
            .collect();
        let hi: Vec<f32> = (0..512)
            .map(|i| (2.0 * std::f32::consts::PI * 3000.0 * i as f32 / 16_000.0).sin())
            .collect();
        let a = ex.extract(&lo).unwrap();
        let b = ex.extract(&hi).unwrap();
        let dist: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(dist > 1.0, "cepstra too similar: {dist}");
    }

    #[test]
    fn mfcc_rejects_zero_coeffs() {
        assert!(MfccExtractor::new(16_000.0, 256, 20, 0).is_err());
        assert!(MfccExtractor::new(16_000.0, 256, 20, 21).is_err());
    }

    #[test]
    fn extract_into_matches_extract_bitwise() {
        let mut ex = MfccExtractor::new(16_000.0, 512, 26, 13).unwrap();
        let frame: Vec<f32> = (0..512)
            .map(|i| (2.0 * std::f32::consts::PI * 440.0 * i as f32 / 16_000.0).sin())
            .collect();
        let reference = ex.extract(&frame).unwrap();
        let mut out = Vec::new();
        // Repeated calls reuse the same scratch; each must match exactly.
        for _ in 0..3 {
            ex.extract_into(&frame, &mut out).unwrap();
            assert_eq!(reference, out);
        }
    }

    #[test]
    fn extract_into_rejects_wrong_frame_len() {
        let mut ex = MfccExtractor::new(16_000.0, 256, 20, 13).unwrap();
        let mut out = Vec::new();
        assert_eq!(
            ex.extract_into(&[0.0; 100], &mut out),
            Err(DspError::LengthMismatch {
                expected: 256,
                actual: 100
            })
        );
    }

    #[test]
    fn apply_into_and_dct_into_match_allocating_variants() {
        let bank = MelFilterBank::new(16_000.0, 512, 26).unwrap();
        let spectrum: Vec<f32> = (0..257).map(|i| ((i * 3) % 11) as f32).collect();
        let reference = bank.apply(&spectrum).unwrap();
        let mut into = Vec::new();
        bank.apply_into(&spectrum, &mut into).unwrap();
        assert_eq!(reference, into);

        let input: Vec<f32> = (0..26).map(|i| ((i * 7) % 5) as f32 - 2.0).collect();
        let reference = dct_ii(&input, 13);
        let mut into = Vec::new();
        dct_ii_into(&input, 13, &mut into);
        assert_eq!(reference, into);
    }
}
