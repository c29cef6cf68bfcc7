//! Windowed streaming source adapter for the real-time runtime.
//!
//! The paper's closed loop consumes the wearable's signals as a *stream* of
//! fixed-length analysis windows (one classification per window, at the
//! paper's ~1 s decision cadence). [`VoiceWindowStream`] turns the
//! synthetic voice generator into exactly that: an iterator of labeled,
//! fixed-size sample windows following an emotion schedule, deterministic
//! per seed. The `affect-rt` crate ingests these windows per session.

use crate::voice::{synthesize_utterance, UtteranceParams};
use crate::BiosignalError;
use affect_core::emotion::Emotion;

/// Largest sample magnitude accepted by [`validate_samples`]. The synthetic
/// voice path emits normalized samples well inside `[-1, 1]`; the bound
/// leaves generous headroom for real sensor front ends while still catching
/// saturation faults (rails pinned at huge values) and unit mix-ups.
pub const MAX_ABS_SAMPLE: f32 = 16.0;

/// Validates one ingested sample window: every sample must be finite and
/// within `±`[`MAX_ABS_SAMPLE`].
///
/// This is the runtime's sensor-fault gate: a NaN burst or a saturated
/// window is rejected *here*, as a typed error that costs one window, rather
/// than propagating NaN through the feature extractor and poisoning the
/// classifier state for the rest of the session.
///
/// # Errors
///
/// Returns [`BiosignalError::InvalidSample`] naming the first offending
/// index with reason `"non-finite"` (NaN or ±∞) or `"out of range"`.
///
/// # Example
///
/// ```
/// use biosignal::stream::validate_samples;
///
/// assert!(validate_samples(&[0.0, 0.5, -0.5]).is_ok());
/// assert!(validate_samples(&[0.0, f32::NAN]).is_err());
/// ```
pub fn validate_samples(samples: &[f32]) -> Result<(), BiosignalError> {
    for (index, &s) in samples.iter().enumerate() {
        if !s.is_finite() {
            return Err(BiosignalError::InvalidSample {
                index,
                reason: "non-finite",
            });
        }
        if s.abs() > MAX_ABS_SAMPLE {
            return Err(BiosignalError::InvalidSample {
                index,
                reason: "out of range",
            });
        }
    }
    Ok(())
}

/// One window emitted by a [`VoiceWindowStream`].
#[derive(Debug, Clone)]
pub struct LabeledWindow {
    /// Ground-truth emotion the window was synthesized under.
    pub emotion: Emotion,
    /// Zero-based index of the window within the stream.
    pub index: u64,
    /// The raw samples (`window_samples` long).
    pub samples: Vec<f32>,
}

/// A deterministic stream of fixed-size voice windows following an emotion
/// schedule.
///
/// # Example
///
/// ```
/// use affect_core::emotion::Emotion;
/// use biosignal::stream::VoiceWindowStream;
///
/// # fn main() -> Result<(), biosignal::BiosignalError> {
/// let stream = VoiceWindowStream::new(
///     vec![(Emotion::Calm, 2), (Emotion::Angry, 2)],
///     2048,
///     16_000.0,
///     42,
/// )?;
/// let windows: Vec<_> = stream.collect();
/// assert_eq!(windows.len(), 4);
/// assert_eq!(windows[0].samples.len(), 2048);
/// assert_eq!(windows[0].emotion, Emotion::Calm);
/// assert_eq!(windows[3].emotion, Emotion::Angry);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VoiceWindowStream {
    schedule: Vec<(Emotion, u32)>,
    window_samples: usize,
    sample_rate: f32,
    seed: u64,
    segment: usize,
    within_segment: u32,
    index: u64,
}

impl VoiceWindowStream {
    /// Creates a stream emitting, for each `(emotion, count)` schedule
    /// entry in order, `count` windows of `window_samples` samples.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for an empty schedule,
    /// zero-length windows, zero counts, or a non-positive sample rate.
    pub fn new(
        schedule: Vec<(Emotion, u32)>,
        window_samples: usize,
        sample_rate: f32,
        seed: u64,
    ) -> Result<Self, BiosignalError> {
        if schedule.is_empty() {
            return Err(BiosignalError::InvalidParameter {
                name: "schedule",
                reason: "must have at least one segment",
            });
        }
        if schedule.iter().any(|&(_, count)| count == 0) {
            return Err(BiosignalError::InvalidParameter {
                name: "schedule",
                reason: "segment window counts must be non-zero",
            });
        }
        if window_samples == 0 {
            return Err(BiosignalError::InvalidParameter {
                name: "window_samples",
                reason: "must be non-zero",
            });
        }
        if !(sample_rate > 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        Ok(Self {
            schedule,
            window_samples,
            sample_rate,
            seed,
            segment: 0,
            within_segment: 0,
            index: 0,
        })
    }
}

impl Iterator for VoiceWindowStream {
    type Item = LabeledWindow;

    fn next(&mut self) -> Option<LabeledWindow> {
        let &(emotion, count) = self.schedule.get(self.segment)?;
        let duration = self.window_samples as f32 / self.sample_rate;
        let params = UtteranceParams::for_emotion(emotion);
        // One sub-seed per window keeps windows independent and the whole
        // stream reproducible regardless of how far it was consumed.
        let window_seed = self
            .seed
            .wrapping_add(self.index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let samples = synthesize_utterance(&params, duration, self.sample_rate, window_seed)
            .expect("validated parameters cannot fail synthesis");
        // Synthesis length rounds via `(duration * rate) as usize`; pin the
        // exact requested window length.
        let mut samples = samples;
        samples.resize(self.window_samples, 0.0);

        let item = LabeledWindow {
            emotion,
            index: self.index,
            samples,
        };
        self.index += 1;
        self.within_segment += 1;
        if self.within_segment >= count {
            self.within_segment = 0;
            self.segment += 1;
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let mut remaining = 0u64;
        for (i, &(_, count)) in self.schedule.iter().enumerate().skip(self.segment) {
            remaining += u64::from(count);
            if i == self.segment {
                remaining -= u64::from(self.within_segment);
            }
        }
        (remaining as usize, Some(remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(VoiceWindowStream::new(vec![], 1024, 16_000.0, 1).is_err());
        assert!(VoiceWindowStream::new(vec![(Emotion::Happy, 0)], 1024, 16_000.0, 1).is_err());
        assert!(VoiceWindowStream::new(vec![(Emotion::Happy, 1)], 0, 16_000.0, 1).is_err());
        assert!(VoiceWindowStream::new(vec![(Emotion::Happy, 1)], 1024, 0.0, 1).is_err());
    }

    #[test]
    fn emits_schedule_in_order_with_exact_lengths() {
        let stream = VoiceWindowStream::new(
            vec![(Emotion::Neutral, 3), (Emotion::Fearful, 2)],
            1024,
            16_000.0,
            7,
        )
        .unwrap();
        let windows: Vec<_> = stream.collect();
        assert_eq!(windows.len(), 5);
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert_eq!(w.samples.len(), 1024);
            let expected = if i < 3 {
                Emotion::Neutral
            } else {
                Emotion::Fearful
            };
            assert_eq!(w.emotion, expected);
        }
    }

    #[test]
    fn deterministic_per_seed_and_windows_differ() {
        let a: Vec<_> = VoiceWindowStream::new(vec![(Emotion::Happy, 2)], 512, 16_000.0, 3)
            .unwrap()
            .collect();
        let b: Vec<_> = VoiceWindowStream::new(vec![(Emotion::Happy, 2)], 512, 16_000.0, 3)
            .unwrap()
            .collect();
        assert_eq!(a[0].samples, b[0].samples);
        assert_eq!(a[1].samples, b[1].samples);
        assert_ne!(a[0].samples, a[1].samples, "windows must be independent");
        let c: Vec<_> = VoiceWindowStream::new(vec![(Emotion::Happy, 2)], 512, 16_000.0, 4)
            .unwrap()
            .collect();
        assert_ne!(a[0].samples, c[0].samples, "seed must matter");
    }

    #[test]
    fn size_hint_tracks_consumption() {
        let mut s =
            VoiceWindowStream::new(vec![(Emotion::Sad, 2), (Emotion::Calm, 1)], 256, 8_000.0, 1)
                .unwrap();
        assert_eq!(s.size_hint(), (3, Some(3)));
        s.next();
        assert_eq!(s.size_hint(), (2, Some(2)));
        s.next();
        s.next();
        assert_eq!(s.size_hint(), (0, Some(0)));
        assert!(s.next().is_none());
    }

    #[test]
    fn validate_samples_accepts_synthesized_windows() {
        for w in VoiceWindowStream::new(vec![(Emotion::Angry, 3)], 1024, 16_000.0, 9).unwrap() {
            validate_samples(&w.samples).unwrap();
        }
    }

    #[test]
    fn validate_samples_rejects_nan_inf_and_saturation() {
        let nan = validate_samples(&[0.0, 0.1, f32::NAN, 0.2]).unwrap_err();
        assert_eq!(
            nan,
            BiosignalError::InvalidSample {
                index: 2,
                reason: "non-finite"
            }
        );
        assert!(validate_samples(&[f32::INFINITY]).is_err());
        assert!(validate_samples(&[f32::NEG_INFINITY]).is_err());
        let sat = validate_samples(&[0.0, MAX_ABS_SAMPLE * 2.0]).unwrap_err();
        assert_eq!(
            sat,
            BiosignalError::InvalidSample {
                index: 1,
                reason: "out of range"
            }
        );
        // Boundary value itself is accepted.
        validate_samples(&[MAX_ABS_SAMPLE, -MAX_ABS_SAMPLE]).unwrap();
    }
}
