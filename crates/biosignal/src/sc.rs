//! Skin conductance (electrodermal activity) synthesis.
//!
//! Skin conductance is the paper's primary affect cue for the video-playback
//! case study (Fig. 6): "the magnitude of the varying SC signal could be used
//! to derive users' emotions". The standard decomposition is a slowly
//! drifting *tonic* level plus *phasic* skin conductance responses (SCRs) —
//! event-like bumps with a fast rise and slow exponential decay whose rate
//! and amplitude grow with sympathetic arousal. This generator reproduces
//! that structure.

use crate::noise::{gaussian_with, PinkNoise};
use crate::types::SampledSignal;
use crate::BiosignalError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the skin-conductance generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScConfig {
    /// Output sample rate in hertz (EDA hardware samples at 4–32 Hz).
    pub sample_rate: f32,
    /// Tonic baseline conductance in microsiemens.
    pub tonic_level_us: f32,
    /// Peak-to-peak tonic drift as a fraction of the baseline.
    pub tonic_drift: f32,
    /// SCR event rate (events/minute) at arousal 1.0.
    pub max_scr_per_min: f32,
    /// SCR amplitude in microsiemens at arousal 1.0.
    pub max_scr_amplitude_us: f32,
    /// SCR rise time constant in seconds.
    pub rise_secs: f32,
    /// SCR decay time constant in seconds.
    pub decay_secs: f32,
    /// Measurement noise standard deviation in microsiemens.
    pub noise_us: f32,
}

impl Default for ScConfig {
    fn default() -> Self {
        Self {
            sample_rate: 4.0,
            tonic_level_us: 2.0,
            tonic_drift: 0.1,
            max_scr_per_min: 18.0,
            max_scr_amplitude_us: 0.8,
            rise_secs: 1.5,
            decay_secs: 5.0,
            noise_us: 0.01,
        }
    }
}

/// Deterministic skin-conductance generator.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct ScGenerator {
    config: ScConfig,
}

impl ScGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for non-positive rates
    /// or time constants.
    pub fn new(config: ScConfig) -> Result<Self, BiosignalError> {
        if !(config.sample_rate > 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        if !(config.rise_secs > 0.0) || !(config.decay_secs > 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "rise_secs/decay_secs",
                reason: "must be positive",
            });
        }
        if !(config.tonic_level_us > 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "tonic_level_us",
                reason: "must be positive",
            });
        }
        Ok(Self { config })
    }

    /// The active configuration.
    pub fn config(&self) -> &ScConfig {
        &self.config
    }

    /// Generates `duration_secs` of skin conductance at a constant arousal
    /// level in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for a non-positive
    /// duration.
    pub fn generate(
        &self,
        arousal: f32,
        duration_secs: f32,
        seed: u64,
    ) -> Result<SampledSignal, BiosignalError> {
        self.generate_profile(&[(arousal, duration_secs)], seed)
    }

    /// Generates a trace whose arousal varies over time: `profile` is a list
    /// of `(arousal, duration_secs)` segments played back to back.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for an empty profile or
    /// any non-positive segment duration.
    pub fn generate_profile(
        &self,
        profile: &[(f32, f32)],
        seed: u64,
    ) -> Result<SampledSignal, BiosignalError> {
        if profile.is_empty() {
            return Err(BiosignalError::InvalidParameter {
                name: "profile",
                reason: "must have at least one segment",
            });
        }
        if profile.iter().any(|&(_, d)| !(d > 0.0)) {
            return Err(BiosignalError::InvalidParameter {
                name: "duration_secs",
                reason: "must be positive",
            });
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pink = PinkNoise::new();
        let total_samples: usize = profile
            .iter()
            .map(|&(_, d)| (d * cfg.sample_rate) as usize)
            .sum();
        let mut samples = Vec::with_capacity(total_samples);

        // Phasic state: superposition of active SCRs, each tracked as
        // (amplitude, age_secs).
        let mut scrs: Vec<(f32, f32)> = Vec::new();
        let dt = 1.0 / cfg.sample_rate;

        for &(arousal, duration) in profile {
            let arousal = arousal.clamp(0.0, 1.0);
            let n = (duration * cfg.sample_rate) as usize;
            // Poisson arrivals: per-sample probability = rate * dt.
            let rate_per_sec = cfg.max_scr_per_min * arousal / 60.0;
            let p_event = (rate_per_sec * dt).min(1.0);
            for _ in 0..n {
                if rng.random::<f32>() < p_event {
                    let amp = gaussian_with(
                        &mut rng,
                        cfg.max_scr_amplitude_us * (0.3 + 0.7 * arousal),
                        cfg.max_scr_amplitude_us * 0.15,
                    )
                    .max(0.05 * cfg.max_scr_amplitude_us);
                    scrs.push((amp, 0.0));
                }
                let mut phasic = 0.0f32;
                scrs.retain_mut(|(amp, age)| {
                    *age += dt;
                    let envelope =
                        (1.0 - (-*age / cfg.rise_secs).exp()) * (-*age / cfg.decay_secs).exp();
                    phasic += *amp * envelope;
                    // Drop SCRs that have decayed below 1% of their peak.
                    *age < cfg.decay_secs * 6.0
                });
                // Tonic: baseline raised with arousal, plus slow pink drift.
                let tonic = cfg.tonic_level_us * (1.0 + 0.4 * arousal)
                    + cfg.tonic_level_us * cfg.tonic_drift * 0.1 * pink.next_sample(&mut rng);
                let noise = gaussian_with(&mut rng, 0.0, cfg.noise_us);
                samples.push((tonic + phasic + noise).max(0.0));
            }
        }
        SampledSignal::new(samples, cfg.sample_rate)
    }
}

/// Counts SCR-like peaks in a skin-conductance trace (simple local-maximum
/// detector with a prominence threshold). Used by tests and the affect
/// derivation demo.
pub fn count_scr_peaks(signal: &SampledSignal, min_prominence_us: f32) -> usize {
    let xs = &signal.samples;
    if xs.len() < 3 {
        return 0;
    }
    // Smooth with a short moving average to ignore sample noise.
    let w = (signal.sample_rate as usize).max(1);
    let smoothed: Vec<f32> = xs
        .windows(w)
        .map(|win| win.iter().sum::<f32>() / w as f32)
        .collect();
    let mut count = 0;
    let mut last_valley = smoothed[0];
    let mut rising = false;
    for pair in smoothed.windows(2) {
        if pair[1] > pair[0] {
            if !rising {
                last_valley = pair[0];
                rising = true;
            }
        } else if pair[1] < pair[0] {
            if rising && pair[0] - last_valley >= min_prominence_us {
                count += 1;
            }
            rising = false;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_config() {
        let bad = ScConfig {
            sample_rate: 0.0,
            ..ScConfig::default()
        };
        assert!(ScGenerator::new(bad).is_err());
        let bad = ScConfig {
            decay_secs: 0.0,
            ..ScConfig::default()
        };
        assert!(ScGenerator::new(bad).is_err());
    }

    #[test]
    fn rejects_bad_durations() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        assert!(g.generate(0.5, 0.0, 1).is_err());
        assert!(g.generate_profile(&[], 1).is_err());
    }

    #[test]
    fn output_is_nonnegative_and_finite() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        let s = g.generate(0.7, 120.0, 3).unwrap();
        assert!(s.samples.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        assert_eq!(
            g.generate(0.5, 30.0, 9).unwrap(),
            g.generate(0.5, 30.0, 9).unwrap()
        );
        assert_ne!(
            g.generate(0.5, 30.0, 9).unwrap().samples,
            g.generate(0.5, 30.0, 10).unwrap().samples
        );
    }

    #[test]
    fn high_arousal_has_more_scrs_than_low() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        let calm = g.generate(0.05, 300.0, 5).unwrap();
        let stressed = g.generate(0.95, 300.0, 5).unwrap();
        let calm_peaks = count_scr_peaks(&calm, 0.05);
        let stressed_peaks = count_scr_peaks(&stressed, 0.05);
        assert!(
            stressed_peaks > calm_peaks * 2,
            "calm {calm_peaks} vs stressed {stressed_peaks}"
        );
    }

    #[test]
    fn high_arousal_raises_mean_level() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        let calm = g.generate(0.0, 120.0, 6).unwrap();
        let stressed = g.generate(1.0, 120.0, 6).unwrap();
        let mean = |s: &SampledSignal| s.samples.iter().sum::<f32>() / s.samples.len() as f32;
        assert!(mean(&stressed) > mean(&calm) + 0.3);
    }

    #[test]
    fn profile_concatenates_segments() {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        let s = g.generate_profile(&[(0.1, 30.0), (0.9, 30.0)], 7).unwrap();
        assert_eq!(s.len(), (60.0 * 4.0) as usize);
        // Second half should sit higher on average.
        let first = s.slice_secs(5.0, 30.0).unwrap();
        let second = s.slice_secs(35.0, 60.0).unwrap();
        let m1: f32 = first.iter().sum::<f32>() / first.len() as f32;
        let m2: f32 = second.iter().sum::<f32>() / second.len() as f32;
        assert!(m2 > m1, "{m1} vs {m2}");
    }

    #[test]
    fn peak_counter_handles_short_signals() {
        let s = SampledSignal::new(vec![1.0, 2.0], 4.0).unwrap();
        assert_eq!(count_scr_peaks(&s, 0.1), 0);
    }
}
