//! Feature extraction from raw signal windows into model-ready tensors.
//!
//! The paper's front end computes "Mel-frequency cepstral coefficients
//! (MFCC), zero crossing, root-mean-square deviation (rmse), sound pitch,
//! and magnitude" per analysis frame. [`FeaturePipeline`] implements exactly
//! that set and packages it three ways, one per classifier family:
//!
//! * a `[frames, features]` sequence for the LSTM,
//! * a `[1, frames × features]` strip for the 1-D CNN,
//! * a flat statistics vector (mean/std/min/max per feature) for the MLP.

use crate::AffectError;
use dsp::{
    rms, zero_crossing_rate, DspError, Frames, MfccExtractor, PitchEstimator, SpectralAnalyzer,
};
use nn::Tensor;

/// Configuration of the feature front end.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Input sample rate in hertz.
    pub sample_rate: f32,
    /// Analysis frame length in samples (must be a power of two).
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop: usize,
    /// Number of MFCC coefficients per frame.
    pub n_mfcc: usize,
    /// Number of mel filterbank bands.
    pub n_mels: usize,
    /// Pitch search range in hertz.
    pub pitch_range: (f32, f32),
}

impl Default for FeatureConfig {
    fn default() -> Self {
        Self {
            sample_rate: 16_000.0,
            frame_len: 512,
            hop: 256,
            n_mfcc: 13,
            n_mels: 26,
            pitch_range: (60.0, 500.0),
        }
    }
}

/// Feature extractor built from a [`FeatureConfig`]. Extraction borrows
/// the pipeline mutably because the MFCC front end, the pitch search and
/// the spectral summary reuse internal scratch arenas (FFT buffers, mel
/// energies, cepstra; squared samples, lag correlations; magnitudes)
/// across frames — steady-state extraction does not touch the allocator
/// for MFCC, pitch or spectral work.
///
/// # Example
///
/// ```
/// use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
/// # fn main() -> Result<(), affect_core::AffectError> {
/// let mut pipeline = FeaturePipeline::new(FeatureConfig::default())?;
/// let window: Vec<f32> = (0..4096)
///     .map(|i| (2.0 * std::f32::consts::PI * 220.0 * i as f32 / 16_000.0).sin())
///     .collect();
/// let seq = pipeline.extract_sequence(&window)?;
/// assert_eq!(seq.shape()[1], pipeline.features_per_frame());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FeaturePipeline {
    config: FeatureConfig,
    mfcc: MfccExtractor,
    mfcc_out: Vec<f32>,
    /// `None` when a frame is too short to hold the pitch range's longest
    /// lag: every frame's pitch is then the unvoiced value 0.
    pitch: Option<PitchEstimator>,
    spectral: SpectralAnalyzer,
}

/// Number of non-MFCC scalar features per frame: ZCR, RMS, pitch, spectral
/// mean, spectral peak, spectral centroid.
const EXTRA_FEATURES: usize = 6;

impl FeaturePipeline {
    /// Builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] for a zero hop and
    /// propagates MFCC-extractor validation errors (non-power-of-two frame,
    /// bad filterbank sizing) and pitch-range validation errors (an empty
    /// or non-positive range). A range whose longest lag does not fit in a
    /// frame is not an error: pitch then reads 0 (unvoiced) on every frame.
    pub fn new(config: FeatureConfig) -> Result<Self, AffectError> {
        if config.hop == 0 {
            return Err(AffectError::InvalidParameter {
                name: "hop",
                reason: "must be non-zero",
            });
        }
        let mfcc = MfccExtractor::new(
            config.sample_rate,
            config.frame_len,
            config.n_mels,
            config.n_mfcc,
        )?;
        let (min_hz, max_hz) = config.pitch_range;
        let pitch = match PitchEstimator::new(config.sample_rate, config.frame_len, min_hz, max_hz)
        {
            Ok(estimator) => Some(estimator),
            // The frame cannot hold the range's longest lag.
            Err(DspError::InvalidParameter { name: "frame", .. }) => None,
            Err(e) => return Err(e.into()),
        };
        let spectral = SpectralAnalyzer::new(config.sample_rate, config.frame_len)?;
        Ok(Self {
            config,
            mfcc,
            mfcc_out: Vec::new(),
            pitch,
            spectral,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Feature dimensionality per analysis frame.
    pub fn features_per_frame(&self) -> usize {
        self.config.n_mfcc + EXTRA_FEATURES
    }

    /// Number of frames a window of `samples` samples produces.
    pub fn frames_for(&self, samples: usize) -> usize {
        if samples < self.config.frame_len {
            0
        } else {
            (samples - self.config.frame_len) / self.config.hop + 1
        }
    }

    /// Extracts the per-frame feature matrix `[frames, features]` — the
    /// LSTM's input layout.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::WindowTooShort`] when the window yields no
    /// full frame.
    pub fn extract_sequence(&mut self, window: &[f32]) -> Result<Tensor, AffectError> {
        let n_frames = self.frames_for(window.len());
        if n_frames == 0 {
            return Err(AffectError::WindowTooShort {
                required: self.config.frame_len,
                actual: window.len(),
            });
        }
        let fpf = self.features_per_frame();
        let mut data = Vec::with_capacity(n_frames * fpf);
        let (min_hz, max_hz) = self.config.pitch_range;
        for frame in Frames::new(window, self.config.frame_len, self.config.hop)? {
            self.mfcc.extract_into(frame, &mut self.mfcc_out)?;
            data.extend_from_slice(&self.mfcc_out);
            data.push(zero_crossing_rate(frame)?);
            data.push(rms(frame)?);
            // Pitch normalized to [0, 1] over the search range; 0 = unvoiced.
            let f0 = match &mut self.pitch {
                Some(estimator) => estimator.estimate(frame)?,
                None => None,
            };
            data.push(f0.map_or(0.0, |f0| (f0 - min_hz) / (max_hz - min_hz)));
            let spec = self.spectral.analyze(frame)?;
            data.push(spec.mean);
            data.push(spec.peak);
            // Centroid normalized by Nyquist.
            data.push(spec.centroid_hz / (self.config.sample_rate / 2.0));
        }
        Ok(Tensor::from_vec(data, &[n_frames, fpf])?)
    }

    /// Extracts the CNN input strip `[1, frames × features]`.
    ///
    /// # Errors
    ///
    /// Same as [`FeaturePipeline::extract_sequence`].
    pub fn extract_strip(&mut self, window: &[f32]) -> Result<Tensor, AffectError> {
        let seq = self.extract_sequence(window)?;
        let len = seq.len();
        Ok(Tensor::from_vec(seq.into_vec(), &[1, len])?)
    }

    /// Extracts the MLP's flat statistics vector: mean, standard deviation,
    /// minimum and maximum of each per-frame feature across frames
    /// (`4 × features_per_frame()` values).
    ///
    /// # Errors
    ///
    /// Same as [`FeaturePipeline::extract_sequence`].
    pub fn extract_flat(&mut self, window: &[f32]) -> Result<Tensor, AffectError> {
        let seq = self.extract_sequence(window)?;
        let (n_frames, fpf) = (seq.shape()[0], seq.shape()[1]);
        let mut data = Vec::with_capacity(4 * fpf);
        for f in 0..fpf {
            let column: Vec<f32> = (0..n_frames).map(|t| seq.data()[t * fpf + f]).collect();
            let mean = dsp::stats::mean(&column)?;
            let std = dsp::stats::std_dev(&column)?;
            let (lo, hi) = dsp::stats::min_max(&column)?;
            data.extend_from_slice(&[mean, std, lo, hi]);
        }
        Ok(Tensor::from_vec(data, &[4 * fpf])?)
    }

    /// Flat feature dimensionality produced by
    /// [`FeaturePipeline::extract_flat`].
    pub fn flat_dim(&self) -> usize {
        4 * self.features_per_frame()
    }
}

/// Feature dimensionality of [`biosignal_window_features`].
pub const BIOSIGNAL_FEATURES: usize = 8;

/// Extracts the paper's "time-based features such as mean, histogram, and
/// variance" from a slow biosignal window (skin conductance, heart rate…):
///
/// `[mean, std, min, max, slope, mean |Δ|, upper-half fraction, p90 − p10]`
///
/// The slope is the least-squares linear trend per sample; the upper-half
/// fraction and inter-decile range summarize the histogram. These are the
/// inputs of the cognitive-state classifier in the Fig. 6 closed-loop
/// experiment.
///
/// # Errors
///
/// Returns [`AffectError::WindowTooShort`] for windows under 4 samples.
///
/// # Example
///
/// ```
/// use affect_core::pipeline::{biosignal_window_features, BIOSIGNAL_FEATURES};
/// # fn main() -> Result<(), affect_core::AffectError> {
/// let window: Vec<f32> = (0..120).map(|i| 2.0 + 0.01 * i as f32).collect();
/// let features = biosignal_window_features(&window)?;
/// assert_eq!(features.len(), BIOSIGNAL_FEATURES);
/// assert!(features.data()[4] > 0.0); // rising trend
/// # Ok(())
/// # }
/// ```
pub fn biosignal_window_features(window: &[f32]) -> Result<Tensor, AffectError> {
    if window.len() < 4 {
        return Err(AffectError::WindowTooShort {
            required: 4,
            actual: window.len(),
        });
    }
    let mean = dsp::stats::mean(window)?;
    let std = dsp::stats::std_dev(window)?;
    let (min, max) = dsp::stats::min_max(window)?;

    // Least-squares slope against the sample index.
    let n = window.len() as f32;
    let t_mean = (n - 1.0) / 2.0;
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for (i, &x) in window.iter().enumerate() {
        let dt = i as f32 - t_mean;
        num += dt * (x - mean);
        den += dt * dt;
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };

    let mean_abs_delta = window.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f32>() / (n - 1.0);

    let mid = (min + max) / 2.0;
    let upper_fraction = window.iter().filter(|&&x| x > mid).count() as f32 / n;

    let mut sorted = window.to_vec();
    sorted.sort_by(f32::total_cmp);
    let p10 = sorted[(0.1 * (n - 1.0)) as usize];
    let p90 = sorted[(0.9 * (n - 1.0)) as usize];

    Ok(Tensor::from_vec(
        vec![
            mean,
            std,
            min,
            max,
            slope,
            mean_abs_delta,
            upper_fraction,
            p90 - p10,
        ],
        &[BIOSIGNAL_FEATURES],
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(hz: f32, samples: usize) -> Vec<f32> {
        (0..samples)
            .map(|i| (2.0 * std::f32::consts::PI * hz * i as f32 / 16_000.0).sin())
            .collect()
    }

    #[test]
    fn rejects_zero_hop() {
        let cfg = FeatureConfig {
            hop: 0,
            ..FeatureConfig::default()
        };
        assert!(FeaturePipeline::new(cfg).is_err());
    }

    #[test]
    fn rejects_short_window() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        assert!(matches!(
            p.extract_sequence(&[0.0; 100]),
            Err(AffectError::WindowTooShort { .. })
        ));
    }

    #[test]
    fn sequence_shape_matches_frame_math() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let window = tone(220.0, 4096);
        let seq = p.extract_sequence(&window).unwrap();
        assert_eq!(seq.shape(), &[p.frames_for(4096), p.features_per_frame()]);
        assert_eq!(p.frames_for(4096), (4096 - 512) / 256 + 1);
    }

    #[test]
    fn strip_is_flattened_sequence() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let window = tone(330.0, 2048);
        let seq = p.extract_sequence(&window).unwrap();
        let strip = p.extract_strip(&window).unwrap();
        assert_eq!(strip.shape(), &[1, seq.len()]);
        assert_eq!(strip.data(), seq.data());
    }

    #[test]
    fn flat_dim_is_four_per_feature() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let flat = p.extract_flat(&tone(220.0, 4096)).unwrap();
        assert_eq!(flat.shape(), &[p.flat_dim()]);
        assert_eq!(p.flat_dim(), 4 * (13 + 6));
    }

    #[test]
    fn features_separate_tones() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let a = p.extract_flat(&tone(150.0, 4096)).unwrap();
        let b = p.extract_flat(&tone(450.0, 4096)).unwrap();
        let dist: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).powi(2))
            .sum();
        assert!(dist > 0.1, "features too similar: {dist}");
    }

    #[test]
    fn pitch_feature_tracks_f0() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let seq = p.extract_sequence(&tone(250.0, 4096)).unwrap();
        let fpf = p.features_per_frame();
        // Pitch is feature index n_mfcc + 2.
        let pitch_idx = 13 + 2;
        let pitch = seq.data()[pitch_idx];
        let expected = (250.0 - 60.0) / (500.0 - 60.0);
        assert!((pitch - expected).abs() < 0.1, "{pitch} vs {expected}");
        // All frames agree for a stationary tone.
        for t in 1..seq.shape()[0] {
            assert!((seq.data()[t * fpf + pitch_idx] - pitch).abs() < 0.05);
        }
    }

    #[test]
    fn frames_too_short_for_the_pitch_range_read_unvoiced() {
        // 128 samples at 16 kHz cannot hold the 267-sample lag of 60 Hz.
        let mut p = FeaturePipeline::new(FeatureConfig {
            frame_len: 128,
            hop: 64,
            ..FeatureConfig::default()
        })
        .unwrap();
        let seq = p.extract_sequence(&tone(250.0, 1024)).unwrap();
        let fpf = p.features_per_frame();
        let pitch_idx = 13 + 2;
        assert_eq!(seq.shape()[0], p.frames_for(1024));
        for t in 0..seq.shape()[0] {
            assert_eq!(seq.data()[t * fpf + pitch_idx], 0.0, "frame {t}");
        }
    }

    #[test]
    fn rejects_invalid_pitch_range() {
        for pitch_range in [(500.0, 100.0), (0.0, 500.0), (60.0, 60.0)] {
            let cfg = FeatureConfig {
                pitch_range,
                ..FeatureConfig::default()
            };
            assert!(
                matches!(FeaturePipeline::new(cfg), Err(AffectError::Dsp(_))),
                "{pitch_range:?}"
            );
        }
    }

    #[test]
    fn biosignal_features_shape_and_trend() {
        let rising: Vec<f32> = (0..100).map(|i| i as f32 * 0.1).collect();
        let f = biosignal_window_features(&rising).unwrap();
        assert_eq!(f.len(), BIOSIGNAL_FEATURES);
        assert!((f.data()[4] - 0.1).abs() < 1e-4, "slope {}", f.data()[4]);
        let falling: Vec<f32> = rising.iter().rev().copied().collect();
        let g = biosignal_window_features(&falling).unwrap();
        assert!(g.data()[4] < 0.0);
    }

    #[test]
    fn biosignal_features_reject_tiny_windows() {
        assert!(biosignal_window_features(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn biosignal_features_separate_arousal_levels() {
        // Bursty high-arousal-like window vs a flat one.
        let flat = vec![2.0f32; 200];
        let bursty: Vec<f32> = (0..200)
            .map(|i| 2.0 + if i % 40 < 8 { 0.8 } else { 0.0 })
            .collect();
        let a = biosignal_window_features(&flat).unwrap();
        let b = biosignal_window_features(&bursty).unwrap();
        assert!(b.data()[1] > a.data()[1]); // std
        assert!(b.data()[5] > a.data()[5]); // mean |delta|
    }

    #[test]
    fn silence_produces_finite_features() {
        let mut p = FeaturePipeline::new(FeatureConfig::default()).unwrap();
        let flat = p.extract_flat(&vec![0.0; 2048]).unwrap();
        assert!(flat.data().iter().all(|v| v.is_finite()));
    }
}
