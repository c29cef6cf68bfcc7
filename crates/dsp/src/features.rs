//! Time-domain and spectral features used by the affect classifiers.
//!
//! Besides MFCCs the paper lists zero-crossing rate, root-mean-square energy
//! (`rmse`), pitch, and spectral magnitude as classifier inputs.

use crate::fft::FftPlan;
use crate::DspError;

/// Zero-crossing rate: fraction of adjacent sample pairs whose signs differ.
///
/// Returns a value in `[0, 1]`. Unvoiced/fricative (and noisy, agitated)
/// speech has a markedly higher ZCR than voiced speech, which is why it is a
/// cheap arousal cue.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for signals with fewer than two samples.
///
/// # Example
///
/// ```
/// use dsp::zero_crossing_rate;
/// # fn main() -> Result<(), dsp::DspError> {
/// let alternating = [1.0f32, -1.0, 1.0, -1.0, 1.0];
/// assert!((zero_crossing_rate(&alternating)? - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn zero_crossing_rate(signal: &[f32]) -> Result<f32, DspError> {
    if signal.len() < 2 {
        return Err(DspError::EmptyInput);
    }
    let crossings = signal
        .windows(2)
        .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
        .count();
    Ok(crossings as f32 / (signal.len() - 1) as f32)
}

/// Root-mean-square amplitude of a signal (the paper's `rmse` feature).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty signal.
///
/// # Example
///
/// ```
/// use dsp::rms;
/// # fn main() -> Result<(), dsp::DspError> {
/// assert!((rms(&[3.0, -4.0])? - (12.5f32).sqrt()).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn rms(signal: &[f32]) -> Result<f32, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput);
    }
    let energy: f32 = signal.iter().map(|x| x * x).sum();
    Ok((energy / signal.len() as f32).sqrt())
}

/// Fundamental-frequency estimate by normalized autocorrelation peak picking.
///
/// Searches lags corresponding to `min_hz..=max_hz` and returns the frequency
/// whose normalized autocorrelation is maximal, or `None` when the frame is
/// aperiodic (peak below an internal voicing threshold of 0.3) or silent.
///
/// Builds a one-shot [`PitchEstimator`] for `frame.len()`; a caller that
/// estimates many frames of one length should keep an estimator instead,
/// which returns bit-for-bit the same result without allocating.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] when the frequency range is empty
/// or not representable at this `sample_rate`/frame length.
///
/// # Example
///
/// ```
/// use dsp::pitch_autocorrelation;
/// # fn main() -> Result<(), dsp::DspError> {
/// let sr = 8000.0;
/// let frame: Vec<f32> = (0..800)
///     .map(|i| (2.0 * std::f32::consts::PI * 200.0 * i as f32 / sr).sin())
///     .collect();
/// let f0 = pitch_autocorrelation(&frame, sr, 80.0, 400.0)?.expect("voiced");
/// assert!((f0 - 200.0).abs() < 10.0);
/// # Ok(())
/// # }
/// ```
pub fn pitch_autocorrelation(
    frame: &[f32],
    sample_rate: f32,
    min_hz: f32,
    max_hz: f32,
) -> Result<Option<f32>, DspError> {
    PitchEstimator::new(sample_rate, frame.len(), min_hz, max_hz)?.estimate(frame)
}

/// Consecutive lags whose correlations the baseline search accumulates
/// together, one accumulator lane per lag. The 16 `num` and 16 `e1` lanes
/// fill eight 4-wide SSE2/NEON registers: enough independent add chains to
/// hide the add latency, and few enough to leave the 16 XMM registers room
/// for the loads without spilling. The AVX2 and AVX-512F arms keep the same
/// eight accumulators at their register width, so they run 32 and 64 lags
/// per block ([`LagLanes`]).
const LAG_BLOCK: usize = 16;

/// Normalized-autocorrelation pitch estimator for frames of one length: the
/// engine behind [`pitch_autocorrelation`].
///
/// The lag bounds are validated once, at construction, and the estimator
/// owns its scratch (a zero-padded copy of the frame, its squares, their
/// running sum, one correlation per lag), so [`PitchEstimator::estimate`]
/// performs **zero heap allocations**.
///
/// Every correlation is bit-for-bit the one a serial per-lag loop computes
/// (`num`, `e0` and `e1` each summed in f32 in sample order). `e0` is read
/// off the running sum of squares, which performs exactly those additions,
/// and `num`/`e1` are accumulated for a block of consecutive lags at once,
/// each lag in its own lane and in sample order — the vector units work
/// across lags, never inside one sum. A block is as wide as the CPU allows,
/// chosen once at construction: 64 lags with AVX-512F, 32 with AVX2, and
/// 16 everywhere else.
///
/// # Example
///
/// ```
/// use dsp::{pitch_autocorrelation, PitchEstimator};
/// # fn main() -> Result<(), dsp::DspError> {
/// let sr = 16_000.0;
/// let frame: Vec<f32> = (0..512)
///     .map(|i| (2.0 * std::f32::consts::PI * 220.0 * i as f32 / sr).sin())
///     .collect();
/// let mut pitch = PitchEstimator::new(sr, 512, 60.0, 500.0)?;
/// let f0 = pitch.estimate(&frame)?.expect("voiced");
/// assert!((f0 - 220.0).abs() < 10.0);
/// assert_eq!(Some(f0), pitch_autocorrelation(&frame, sr, 60.0, 500.0)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PitchEstimator {
    sample_rate: f32,
    min_lag: usize,
    /// The block width this CPU runs.
    lanes: LagLanes,
    /// The frame, then `lanes.width() - 1` zeros: the last steps of a block
    /// read them and never add them.
    samples: Vec<f32>,
    /// `squares[i] = samples[i] * samples[i]`, padded the same way.
    squares: Vec<f32>,
    /// `prefix[k]`: the f32 sum of `squares[..k]` in index order, which is
    /// `e0` of the lag `frame_len - k`.
    prefix: Vec<f32>,
    /// Normalized correlation of each searched lag, `min_lag` first.
    corrs: Vec<f32>,
}

impl PitchEstimator {
    /// Creates an estimator for frames of `frame_len` samples at
    /// `sample_rate`, searching fundamentals in `min_hz..=max_hz`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a non-positive
    /// `sample_rate` (`name: "sample_rate"`), an empty or non-positive
    /// frequency range (`"min_hz/max_hz"`), or a range whose lags a frame
    /// of `frame_len` samples cannot hold (`"frame"`) — the errors
    /// [`pitch_autocorrelation`] returns, in the same order.
    pub fn new(
        sample_rate: f32,
        frame_len: usize,
        min_hz: f32,
        max_hz: f32,
    ) -> Result<Self, DspError> {
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
        if min_lag == 0 || max_lag >= frame_len {
            return Err(DspError::InvalidParameter {
                name: "frame",
                reason: "frame too short for the requested pitch range",
            });
        }
        let lanes = LagLanes::detect();
        let padded = frame_len + lanes.width() - 1;
        Ok(Self {
            sample_rate,
            min_lag,
            lanes,
            samples: vec![0.0; padded],
            squares: vec![0.0; padded],
            prefix: vec![0.0; frame_len + 1],
            corrs: vec![0.0; max_lag - min_lag + 1],
        })
    }

    /// Estimates the fundamental of one frame: `Some(hz)`, or `None` when
    /// the frame is silent or aperiodic (see [`pitch_autocorrelation`]).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when the frame length differs
    /// from the one the estimator was built for.
    pub fn estimate(&mut self, frame: &[f32]) -> Result<Option<f32>, DspError> {
        let Self {
            sample_rate,
            min_lag,
            lanes,
            samples,
            squares,
            prefix,
            corrs,
        } = self;
        let len = prefix.len() - 1;
        if frame.len() != len {
            return Err(DspError::LengthMismatch {
                expected: len,
                actual: frame.len(),
            });
        }

        samples[..len].copy_from_slice(frame);
        let mut energy = 0.0f32;
        for ((&x, sq), sum) in frame.iter().zip(squares.iter_mut()).zip(&mut prefix[1..]) {
            *sq = x * x;
            energy += *sq;
            *sum = energy;
        }
        if energy < 1e-12 {
            return Ok(None); // silence
        }

        lanes.lag_corrs(samples, squares, prefix, *min_lag, corrs);
        let best_corr = corrs.iter().fold(0.0f32, |best, &c| best.max(c));

        const VOICING_THRESHOLD: f32 = 0.3;
        if best_corr < VOICING_THRESHOLD {
            return Ok(None);
        }
        // Sub-octave correction: a lag of 2×, 3×… the true period correlates
        // just as well, so take the *smallest* lag whose correlation is
        // within a small tolerance of the peak.
        const OCTAVE_TOLERANCE: f32 = 0.02;
        let lag = corrs
            .iter()
            .position(|&c| c >= best_corr - OCTAVE_TOLERANCE)
            .map(|i| i + *min_lag)
            .unwrap_or(*min_lag);
        Ok(Some(*sample_rate / lag as f32))
    }
}

/// Normalized correlation from the three sums of one lag.
fn normalized(num: f32, e0: f32, e1: f32) -> f32 {
    let denom = (e0 * e1).sqrt();
    if denom > 1e-12 {
        num / denom
    } else {
        0.0
    }
}

/// Correlation of a single `lag` (`lag < frame.len()`), summed serially.
fn lag_corr(frame: &[f32], squares: &[f32], prefix: &[f32], lag: usize) -> f32 {
    let n = frame.len() - lag;
    let mut num = 0.0f32;
    let mut e1 = 0.0f32;
    for ((&x, &y), &y2) in frame[..n].iter().zip(&frame[lag..]).zip(&squares[lag..]) {
        num += x * y;
        e1 += y2;
    }
    normalized(num, prefix[n], e1)
}

/// The lag-search arms, one per block width. [`PitchEstimator::new`] picks
/// the widest the CPU runs, so a `X32` or `X64` value exists only where
/// [`LagLanes::detect`] saw its target feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LagLanes {
    /// [`LAG_BLOCK`] lags: the only arm on aarch64 and on x86 CPUs without
    /// AVX2.
    X16,
    /// 32 lags, compiled with AVX2.
    #[cfg(target_arch = "x86_64")]
    X32,
    /// 64 lags, compiled with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    X64,
}

impl LagLanes {
    /// The widest arm this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Self::X64;
            }
            if is_x86_feature_detected!("avx2") {
                return Self::X32;
            }
        }
        Self::X16
    }

    /// Lags per block, and one more than the zero padding the arm reads.
    fn width(self) -> usize {
        match self {
            Self::X16 => LAG_BLOCK,
            #[cfg(target_arch = "x86_64")]
            Self::X32 => 32,
            #[cfg(target_arch = "x86_64")]
            Self::X64 => 64,
        }
    }

    /// Runs this arm: see [`lag_corrs`].
    fn lag_corrs(
        self,
        samples: &[f32],
        squares: &[f32],
        prefix: &[f32],
        min_lag: usize,
        corrs: &mut [f32],
    ) {
        match self {
            Self::X16 => lag_corrs::<LAG_BLOCK>(samples, squares, prefix, min_lag, corrs),
            // SAFETY: `detect` returns `X32` only after
            // `is_x86_feature_detected!("avx2")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Self::X32 => unsafe { lag_corrs_avx2(samples, squares, prefix, min_lag, corrs) },
            // SAFETY: `detect` returns `X64` only after
            // `is_x86_feature_detected!("avx512f")` held on this CPU.
            #[cfg(target_arch = "x86_64")]
            Self::X64 => unsafe { lag_corrs_avx512(samples, squares, prefix, min_lag, corrs) },
        }
    }
}

/// The 32-lane arm: [`lag_corrs`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lag_corrs_avx2(
    samples: &[f32],
    squares: &[f32],
    prefix: &[f32],
    min_lag: usize,
    corrs: &mut [f32],
) {
    lag_corrs::<32>(samples, squares, prefix, min_lag, corrs);
}

/// The 64-lane arm: [`lag_corrs`] compiled with AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lag_corrs_avx512(
    samples: &[f32],
    squares: &[f32],
    prefix: &[f32],
    min_lag: usize,
    corrs: &mut [f32],
) {
    lag_corrs::<64>(samples, squares, prefix, min_lag, corrs);
}

/// Sets `corrs[k]` to the correlation of the lag `min_lag + k` for every
/// `k`, `B` lags per block; the frame is `prefix.len() - 1` samples long,
/// and `samples` and `squares` hold it and its squares followed by at least
/// `B - 1` zeros.
///
/// When the lag count is not a multiple of `B`, the last block ends at the
/// last lag and overlaps its predecessor: a lane computes the same value in
/// whichever block holds it. Fewer than `B` lags run the next narrower
/// block, and fewer than [`LAG_BLOCK`] the per-lag loop.
#[inline(always)]
fn lag_corrs<const B: usize>(
    samples: &[f32],
    squares: &[f32],
    prefix: &[f32],
    min_lag: usize,
    corrs: &mut [f32],
) {
    let n_lags = corrs.len();
    if n_lags >= B {
        lag_blocks::<B>(samples, squares, prefix, min_lag, corrs);
    } else if B > 32 && n_lags >= 32 {
        lag_blocks::<32>(samples, squares, prefix, min_lag, corrs);
    } else if B > LAG_BLOCK && n_lags >= LAG_BLOCK {
        lag_blocks::<LAG_BLOCK>(samples, squares, prefix, min_lag, corrs);
    } else {
        let len = prefix.len() - 1;
        for (k, corr) in corrs.iter_mut().enumerate() {
            *corr = lag_corr(&samples[..len], &squares[..len], prefix, min_lag + k);
        }
    }
}

/// [`lag_corrs`] for at least `B` lags, all in blocks of `B`.
#[inline(always)]
fn lag_blocks<const B: usize>(
    samples: &[f32],
    squares: &[f32],
    prefix: &[f32],
    min_lag: usize,
    corrs: &mut [f32],
) {
    let last = corrs.len() - B;
    for start in (0..last).step_by(B).chain([last]) {
        let out: &mut [f32; B] = (&mut corrs[start..start + B])
            .try_into()
            .expect("a block of B lags");
        lag_block(samples, squares, prefix, min_lag + start, out);
    }
}

/// Correlations of the lags `lag0..lag0 + B` (the last one below the frame
/// length) into `out`, lane `j` holding lag `lag0 + j`; the buffers are
/// those of [`lag_corrs`].
///
/// Every lane adds its terms in sample order, as [`lag_corr`] does, with a
/// multiply and then an add: rustc never contracts the two into an FMA,
/// not even where `avx512f` (which implies FMA) is enabled. The samples
/// all lanes share run through the lane-parallel loop. In each of the
/// `B - 1` steps after it, every lane computes its next term too, but a
/// [`select`] keeps the sum of each lane whose terms have run out: the
/// padding zeros are read, never added (`inf * 0.0` is NaN).
#[inline(always)]
fn lag_block<const B: usize>(
    samples: &[f32],
    squares: &[f32],
    prefix: &[f32],
    lag0: usize,
    out: &mut [f32; B],
) {
    let len = prefix.len() - 1;
    // Sample count of the block's longest lag: every lane has these terms.
    let shared = len - (lag0 + B - 1);
    let mut num = [0.0f32; B];
    let mut e1 = [0.0f32; B];
    let ahead = samples[lag0..].windows(B);
    let ahead_sq = squares[lag0..].windows(B);
    for ((&x, y), y2) in samples[..shared].iter().zip(ahead).zip(ahead_sq) {
        for j in 0..B {
            num[j] += x * y[j];
            e1[j] += y2[j];
        }
    }
    // Tail step `t` adds sample `shared + t`, the last term of lane
    // `B - 2 - t`: lanes up to that one keep their new sums.
    let ahead = samples[lag0 + shared..].windows(B);
    let ahead_sq = squares[lag0 + shared..].windows(B);
    let live = TAIL_LIVE[TAIL_LIVE.len() / 2 + 1 - B..].windows(B);
    let tail = samples[shared..len - lag0].iter().zip(ahead).zip(ahead_sq);
    for (((&x, y), y2), live) in tail.zip(live) {
        for j in 0..B {
            num[j] = select(live[j], num[j] + x * y[j], num[j]);
            e1[j] = select(live[j], e1[j] + y2[j], e1[j]);
        }
    }
    for (j, corr) in out.iter_mut().enumerate() {
        *corr = normalized(num[j], prefix[len - (lag0 + j)], e1[j]);
    }
}

/// Lane masks of the tail steps: all ones in the first half, zero in the
/// second. Step `t` of a `B`-lane block reads its masks from index
/// `len / 2 + 1 - B + t`, so lane `j`'s is all ones exactly while
/// `j + t < B - 1`, while the lane still has terms to add.
const TAIL_LIVE: [u32; 128] = {
    let mut live = [0; 128];
    let mut k = 0;
    while k < live.len() / 2 {
        live[k] = u32::MAX;
        k += 1;
    }
    live
};

/// `new` where `mask` is all ones, `old` where it is zero: a bitwise
/// select, which vectorizes on every target.
#[inline(always)]
fn select(mask: u32, new: f32, old: f32) -> f32 {
    f32::from_bits(new.to_bits() & mask | old.to_bits() & !mask)
}

/// Summary statistics of the magnitude spectrum: `(mean, peak, centroid_hz)`.
///
/// The paper's feature list includes a raw "magnitude" feature; the spectral
/// centroid is included because it is the standard scalar summary of where
/// the magnitude mass sits, and brightness correlates with arousal.
///
/// Builds a one-shot [`SpectralAnalyzer`] for `frame.len()`; a caller that
/// summarizes many frames of one length should keep an analyzer instead,
/// which returns bit-for-bit the same summary without allocating.
///
/// # Errors
///
/// Rejects a non-positive `sample_rate` first, then empty
/// ([`DspError::EmptyInput`]) and non-power-of-two
/// ([`DspError::NonPowerOfTwoFft`]) frames.
///
/// # Example
///
/// ```
/// use dsp::spectral_magnitude;
/// # fn main() -> Result<(), dsp::DspError> {
/// let sr = 16_000.0;
/// let frame: Vec<f32> = (0..512)
///     .map(|i| (2.0 * std::f32::consts::PI * 1_000.0 * i as f32 / sr).sin())
///     .collect();
/// let summary = spectral_magnitude(&frame, sr)?;
/// assert!((summary.centroid_hz - 1_000.0).abs() < 400.0);
/// assert!(summary.peak > summary.mean);
/// # Ok(())
/// # }
/// ```
pub fn spectral_magnitude(frame: &[f32], sample_rate: f32) -> Result<SpectralSummary, DspError> {
    SpectralAnalyzer::new(sample_rate, frame.len())?.analyze(frame)
}

/// Spectral summary for frames of one length: the engine behind
/// [`spectral_magnitude`].
///
/// The analyzer owns an [`FftPlan::recurrence`] plan, whose twiddles are
/// exactly the ones [`fft_inplace`](crate::fft_inplace) accumulates, plus the
/// plan's split real/imaginary scratch and the magnitude buffer. So
/// [`SpectralAnalyzer::analyze`] performs **zero heap allocations**, and its
/// spectrum is bit-for-bit [`rfft_magnitude`](crate::rfft_magnitude)'s. Mean,
/// peak and centroid are reduced from it in bin order.
///
/// # Example
///
/// ```
/// use dsp::{spectral_magnitude, SpectralAnalyzer};
/// # fn main() -> Result<(), dsp::DspError> {
/// let frame: Vec<f32> = (0..256).map(|i| (i as f32 * 0.3).sin()).collect();
/// let mut analyzer = SpectralAnalyzer::new(16_000.0, 256)?;
/// assert_eq!(analyzer.analyze(&frame)?, spectral_magnitude(&frame, 16_000.0)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpectralAnalyzer {
    sample_rate: f32,
    plan: FftPlan,
    re: Vec<f32>,
    im: Vec<f32>,
    /// Magnitudes of the first `frame_len / 2 + 1` bins.
    mag: Vec<f32>,
}

impl SpectralAnalyzer {
    /// Creates an analyzer for frames of `frame_len` samples at
    /// `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] for a non-positive
    /// `sample_rate`, then [`DspError::EmptyInput`] for a zero and
    /// [`DspError::NonPowerOfTwoFft`] for a non-power-of-two `frame_len` —
    /// the errors [`spectral_magnitude`] returns, in the same order.
    pub fn new(sample_rate: f32, frame_len: usize) -> Result<Self, DspError> {
        if !(sample_rate > 0.0) {
            return Err(DspError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        let plan = FftPlan::recurrence(frame_len)?;
        Ok(Self {
            sample_rate,
            plan,
            re: vec![0.0; frame_len],
            im: vec![0.0; frame_len],
            mag: Vec::with_capacity(frame_len / 2 + 1),
        })
    }

    /// Summarizes the magnitude spectrum of one frame.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::LengthMismatch`] when the frame length differs
    /// from the one the analyzer was built for.
    pub fn analyze(&mut self, frame: &[f32]) -> Result<SpectralSummary, DspError> {
        let Self {
            sample_rate,
            plan,
            re,
            im,
            mag,
        } = self;
        plan.rfft_magnitude_into(frame, None, re, im, mag)?;
        let sum: f32 = mag.iter().sum();
        let mean = sum / mag.len() as f32;
        let peak = mag.iter().fold(0.0f32, |a, &b| a.max(b));
        let centroid_hz = if sum > 1e-12 {
            let bin_hz = *sample_rate / frame.len() as f32;
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
}

/// Scalar summary of a magnitude spectrum returned by [`spectral_magnitude`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpectralSummary {
    /// Mean bin magnitude.
    pub mean: f32,
    /// Largest bin magnitude.
    pub peak: f32,
    /// Magnitude-weighted mean frequency in hertz.
    pub centroid_hz: f32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcr_of_constant_is_zero() {
        assert_eq!(zero_crossing_rate(&[1.0; 16]).unwrap(), 0.0);
    }

    #[test]
    fn zcr_rejects_tiny_input() {
        assert!(zero_crossing_rate(&[1.0]).is_err());
        assert!(zero_crossing_rate(&[]).is_err());
    }

    #[test]
    fn zcr_scales_with_frequency() {
        let sr = 8000.0;
        let tone = |hz: f32| -> Vec<f32> {
            (0..800)
                .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / sr).sin())
                .collect()
        };
        let low = zero_crossing_rate(&tone(100.0)).unwrap();
        let high = zero_crossing_rate(&tone(1000.0)).unwrap();
        assert!(high > low * 5.0, "low={low} high={high}");
    }

    #[test]
    fn rms_of_unit_square_wave_is_one() {
        let sq: Vec<f32> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((rms(&sq).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rms_rejects_empty() {
        assert_eq!(rms(&[]), Err(DspError::EmptyInput));
    }

    #[test]
    fn pitch_detects_150hz() {
        let sr = 16_000.0;
        let frame: Vec<f32> = (0..1600)
            .map(|i| (2.0 * std::f32::consts::PI * 150.0 * i as f32 / sr).sin())
            .collect();
        let f0 = pitch_autocorrelation(&frame, sr, 60.0, 500.0)
            .unwrap()
            .expect("voiced frame");
        assert!((f0 - 150.0).abs() < 8.0, "f0={f0}");
    }

    #[test]
    fn pitch_returns_none_for_silence() {
        let frame = vec![0.0f32; 1600];
        assert_eq!(
            pitch_autocorrelation(&frame, 16_000.0, 60.0, 500.0).unwrap(),
            None
        );
    }

    #[test]
    fn pitch_returns_none_for_white_noise() {
        // Deterministic pseudo-noise via an LCG.
        let mut state = 0x2545F491u64;
        let frame: Vec<f32> = (0..1600)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f32 / (1u64 << 30) as f32) - 1.0
            })
            .collect();
        let result = pitch_autocorrelation(&frame, 16_000.0, 60.0, 500.0).unwrap();
        assert_eq!(result, None, "noise should be unvoiced, got {result:?}");
    }

    /// One arm of the lag search, called directly.
    type LagArm = fn(&[f32], &[f32], &[f32], usize, &mut [f32]);

    /// Every arm this CPU runs, against the serial [`lag_corr`] by bits, on
    /// random, tonal, silent and NaN/±inf frames. Every lag count from 1 to
    /// 200 occurs (each remainder and exact multiple of 16, 32 and 64 lags,
    /// past three 64-lag blocks), once with `max_lag = len - 1` and once
    /// with an offset range in a longer frame. Rust leaves the payload of a
    /// NaN result unspecified, so NaNs compare as NaN; every other value,
    /// the sign of zero included, compares by `to_bits`. The test prints
    /// the arms it checked and those this CPU lacks.
    #[test]
    fn every_lag_arm_matches_the_serial_search_bitwise() {
        let mut arms: Vec<(&str, LagArm)> = Vec::new();
        let mut skipped: Vec<&str> = Vec::new();
        arms.push(("16 lanes", lag_corrs::<LAG_BLOCK>));
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: pushed only after
                // `is_x86_feature_detected!("avx2")` held on this CPU.
                arms.push(("32 lanes", |s, q, p, m, c| unsafe {
                    lag_corrs_avx2(s, q, p, m, c)
                }));
            } else {
                skipped.push("32 lanes (no AVX2)");
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: pushed only after
                // `is_x86_feature_detected!("avx512f")` held on this CPU.
                arms.push(("64 lanes", |s, q, p, m, c| unsafe {
                    lag_corrs_avx512(s, q, p, m, c)
                }));
            } else {
                skipped.push("64 lanes (no AVX-512F)");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        skipped.extend(["32 lanes (not x86-64)", "64 lanes (not x86-64)"]);
        let checked: Vec<&str> = arms.iter().map(|&(arm, _)| arm).collect();
        println!("lag-search arms checked: {checked:?}; skipped on this CPU: {skipped:?}");

        const LONGEST: usize = 240;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let random: Vec<f32> = (0..LONGEST).map(|_| 3.0 * noise()).collect();
        let tonal: Vec<f32> = (0..LONGEST).map(|i| (0.21 * i as f32).sin()).collect();
        let silent = vec![0.0f32; LONGEST];
        // Specials near the start sit in the tails of the longest lags,
        // whose sums are complete and finite there.
        let mut special = random.clone();
        for (at, x) in [
            (1, f32::INFINITY),
            (2, f32::NAN),
            (3, f32::NEG_INFINITY),
            (70, f32::INFINITY),
            (150, f32::NAN),
            (229, f32::NEG_INFINITY),
        ] {
            special[at] = x;
        }
        let canonical = |c: f32| f32::to_bits(if c.is_nan() { f32::NAN } else { c });

        let kinds = [
            ("random", &random),
            ("tonal", &tonal),
            ("silent", &silent),
            ("NaN/inf", &special),
        ];
        for n_lags in 1..=200usize {
            let offset = 1 + n_lags % 13;
            for (min_lag, len) in [(1, n_lags + 1), (offset, offset + n_lags + n_lags % 17)] {
                for (kind, frame) in kinds {
                    let frame = &frame[..len];
                    let mut samples = frame.to_vec();
                    let mut squares: Vec<f32> = frame.iter().map(|x| x * x).collect();
                    let mut prefix = vec![0.0f32];
                    prefix.extend(squares.iter().scan(0.0f32, |sum, &sq| {
                        *sum += sq;
                        Some(*sum)
                    }));
                    let expected: Vec<u32> = (min_lag..min_lag + n_lags)
                        .map(|lag| canonical(lag_corr(frame, &squares, &prefix, lag)))
                        .collect();
                    samples.resize(len + 63, 0.0);
                    squares.resize(len + 63, 0.0);
                    for &(arm, run) in &arms {
                        let mut corrs = vec![f32::MAX; n_lags];
                        run(&samples, &squares, &prefix, min_lag, &mut corrs);
                        let got: Vec<u32> = corrs.iter().map(|&c| canonical(c)).collect();
                        assert_eq!(
                            got,
                            expected,
                            "{arm}, {kind} frame of {len}, lags {min_lag}..={}",
                            min_lag + n_lags - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pitch_rejects_invalid_range() {
        let frame = vec![0.0f32; 100];
        assert!(pitch_autocorrelation(&frame, 16_000.0, 500.0, 100.0).is_err());
        assert!(pitch_autocorrelation(&frame, 16_000.0, 0.0, 100.0).is_err());
        // Frame too short for 60 Hz at 16 kHz (needs lag 267).
        assert!(pitch_autocorrelation(&frame, 16_000.0, 60.0, 500.0).is_err());
    }

    #[test]
    fn centroid_tracks_tone_frequency() {
        let sr = 16_000.0;
        let tone = |hz: f32| -> Vec<f32> {
            (0..512)
                .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / sr).sin())
                .collect()
        };
        let lo = spectral_magnitude(&tone(500.0), sr).unwrap();
        let hi = spectral_magnitude(&tone(4000.0), sr).unwrap();
        assert!(hi.centroid_hz > lo.centroid_hz + 2000.0);
        assert!((lo.centroid_hz - 500.0).abs() < 400.0, "{}", lo.centroid_hz);
    }

    #[test]
    fn spectral_errors_keep_their_precedence() {
        let invalid_rate = Err(DspError::InvalidParameter {
            name: "sample_rate",
            reason: "must be positive",
        });
        assert_eq!(spectral_magnitude(&[], 0.0), invalid_rate);
        assert_eq!(spectral_magnitude(&[0.0; 12], f32::NAN), invalid_rate);
        assert_eq!(spectral_magnitude(&[], 16_000.0), Err(DspError::EmptyInput));
        assert_eq!(
            spectral_magnitude(&[0.0; 12], 16_000.0),
            Err(DspError::NonPowerOfTwoFft { len: 12 })
        );
        let mut analyzer = SpectralAnalyzer::new(16_000.0, 64).unwrap();
        assert_eq!(
            analyzer.analyze(&[0.0; 32]),
            Err(DspError::LengthMismatch {
                expected: 64,
                actual: 32
            })
        );
    }

    #[test]
    fn warm_analyzer_matches_one_shot_bitwise() {
        let sr = 16_000.0;
        let mut analyzer = SpectralAnalyzer::new(sr, 128).unwrap();
        for hz in [300.0f32, 2_500.0, 0.0] {
            let frame: Vec<f32> = (0..128)
                .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / sr).cos())
                .collect();
            let warm = analyzer.analyze(&frame).unwrap();
            let once = spectral_magnitude(&frame, sr).unwrap();
            let bits = |s: SpectralSummary| [s.mean, s.peak, s.centroid_hz].map(f32::to_bits);
            assert_eq!(bits(warm), bits(once), "{hz} Hz");
        }
    }

    #[test]
    fn spectral_summary_of_silence_is_zero() {
        let s = spectral_magnitude(&[0.0; 256], 16_000.0).unwrap();
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.peak, 0.0);
        assert_eq!(s.centroid_hz, 0.0);
    }
}
