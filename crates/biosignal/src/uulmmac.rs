//! uulmMAC-style labelled affective session.
//!
//! The paper's Fig. 6 case study replays a 40-minute skin-conductance
//! recording from the uulmMAC corpus in which the subject's state is
//! labelled *distracted* (0–14 min), *concentrated* (14–20 min), *tense*
//! (20–29 min) and *relaxed* (29–40 min). This module synthesizes an
//! equivalent labelled session: the label schedule is the paper's, and the
//! SC trace is generated segment-by-segment with state-conditioned arousal.

use crate::sc::{ScConfig, ScGenerator};
use crate::types::SampledSignal;
use crate::BiosignalError;
use affect_core::emotion::CognitiveState;

/// One labelled segment of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSegment {
    /// The labelled state.
    pub state: CognitiveState,
    /// Segment start in minutes from session start.
    pub start_min: f32,
    /// Segment end in minutes.
    pub end_min: f32,
}

impl SessionSegment {
    /// Segment duration in minutes.
    pub fn duration_min(&self) -> f32 {
        self.end_min - self.start_min
    }
}

/// Sympathetic-arousal level associated with each labelled state, used to
/// condition the SC generator (tense > concentrated > distracted > relaxed).
pub fn state_arousal(state: CognitiveState) -> f32 {
    match state {
        CognitiveState::Relaxed => 0.1,
        CognitiveState::Distracted => 0.3,
        CognitiveState::Concentrated => 0.6,
        CognitiveState::Tense => 0.9,
    }
}

/// A labelled affective session: the state schedule plus the synthesized
/// skin-conductance trace.
///
/// # Example
///
/// ```
/// use affect_core::emotion::CognitiveState;
/// use biosignal::UulmmacSession;
/// # fn main() -> Result<(), biosignal::BiosignalError> {
/// let session = UulmmacSession::paper_fig6(42)?;
/// assert_eq!(session.duration_min(), 40.0);
/// assert_eq!(session.state_at_min(5.0), CognitiveState::Distracted);
/// assert_eq!(session.state_at_min(25.0), CognitiveState::Tense);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UulmmacSession {
    segments: Vec<SessionSegment>,
    sc_trace: SampledSignal,
}

impl UulmmacSession {
    /// Builds a session from a segment schedule, synthesizing the SC trace.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for an empty schedule or
    /// segments that are not contiguous, start at a nonzero offset, or have
    /// non-positive duration.
    pub fn from_segments(
        segments: Vec<SessionSegment>,
        sc_config: ScConfig,
        seed: u64,
    ) -> Result<Self, BiosignalError> {
        if segments.is_empty() {
            return Err(BiosignalError::InvalidParameter {
                name: "segments",
                reason: "must be non-empty",
            });
        }
        if segments[0].start_min != 0.0 {
            return Err(BiosignalError::InvalidParameter {
                name: "segments",
                reason: "first segment must start at minute 0",
            });
        }
        for pair in segments.windows(2) {
            if (pair[0].end_min - pair[1].start_min).abs() > 1e-6 {
                return Err(BiosignalError::InvalidParameter {
                    name: "segments",
                    reason: "segments must be contiguous",
                });
            }
        }
        if segments.iter().any(|s| s.duration_min() <= 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "segments",
                reason: "segment durations must be positive",
            });
        }

        let profile: Vec<(f32, f32)> = segments
            .iter()
            .map(|s| (state_arousal(s.state), s.duration_min() * 60.0))
            .collect();
        let sc_trace = ScGenerator::new(sc_config)?.generate_profile(&profile, seed)?;
        Ok(Self { segments, sc_trace })
    }

    /// The paper's Fig. 6 schedule: distracted 0–14, concentrated 14–20,
    /// tense 20–29, relaxed 29–40 minutes.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in schedule; the `Result` matches
    /// [`UulmmacSession::from_segments`].
    pub fn paper_fig6(seed: u64) -> Result<Self, BiosignalError> {
        Self::from_segments(
            vec![
                SessionSegment {
                    state: CognitiveState::Distracted,
                    start_min: 0.0,
                    end_min: 14.0,
                },
                SessionSegment {
                    state: CognitiveState::Concentrated,
                    start_min: 14.0,
                    end_min: 20.0,
                },
                SessionSegment {
                    state: CognitiveState::Tense,
                    start_min: 20.0,
                    end_min: 29.0,
                },
                SessionSegment {
                    state: CognitiveState::Relaxed,
                    start_min: 29.0,
                    end_min: 40.0,
                },
            ],
            ScConfig::default(),
            seed,
        )
    }

    /// The labelled segments.
    pub fn segments(&self) -> &[SessionSegment] {
        &self.segments
    }

    /// The synthesized skin-conductance trace.
    pub fn sc_trace(&self) -> &SampledSignal {
        &self.sc_trace
    }

    /// Total duration in minutes.
    pub fn duration_min(&self) -> f32 {
        self.segments.last().map(|s| s.end_min).unwrap_or(0.0)
    }

    /// The labelled state at a given minute (clamped to the session).
    pub fn state_at_min(&self, minute: f32) -> CognitiveState {
        for s in &self.segments {
            if minute < s.end_min {
                return s.state;
            }
        }
        self.segments.last().expect("segments non-empty").state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_schedule_matches_paper() {
        let s = UulmmacSession::paper_fig6(1).unwrap();
        assert_eq!(s.duration_min(), 40.0);
        assert_eq!(s.state_at_min(0.0), CognitiveState::Distracted);
        assert_eq!(s.state_at_min(13.9), CognitiveState::Distracted);
        assert_eq!(s.state_at_min(14.0), CognitiveState::Concentrated);
        assert_eq!(s.state_at_min(20.0), CognitiveState::Tense);
        assert_eq!(s.state_at_min(29.0), CognitiveState::Relaxed);
        assert_eq!(s.state_at_min(99.0), CognitiveState::Relaxed);
    }

    #[test]
    fn sc_trace_covers_session() {
        let s = UulmmacSession::paper_fig6(2).unwrap();
        let expected = 40.0 * 60.0 * s.sc_trace().sample_rate;
        assert_eq!(s.sc_trace().len(), expected as usize);
    }

    #[test]
    fn tense_segment_has_highest_sc() {
        let s = UulmmacSession::paper_fig6(3).unwrap();
        let seg_mean = |a: f32, b: f32| {
            let xs = s.sc_trace().slice_secs(a * 60.0, b * 60.0).unwrap();
            xs.iter().sum::<f32>() / xs.len() as f32
        };
        let tense = seg_mean(21.0, 28.0);
        let relaxed = seg_mean(30.0, 39.0);
        let distracted = seg_mean(1.0, 13.0);
        assert!(tense > distracted, "{tense} vs {distracted}");
        assert!(tense > relaxed, "{tense} vs {relaxed}");
        assert!(distracted > relaxed, "{distracted} vs {relaxed}");
    }

    #[test]
    fn rejects_non_contiguous_segments() {
        let bad = vec![
            SessionSegment {
                state: CognitiveState::Relaxed,
                start_min: 0.0,
                end_min: 5.0,
            },
            SessionSegment {
                state: CognitiveState::Tense,
                start_min: 6.0,
                end_min: 10.0,
            },
        ];
        assert!(UulmmacSession::from_segments(bad, ScConfig::default(), 0).is_err());
    }

    #[test]
    fn rejects_offset_start_and_empty() {
        assert!(UulmmacSession::from_segments(vec![], ScConfig::default(), 0).is_err());
        let bad = vec![SessionSegment {
            state: CognitiveState::Relaxed,
            start_min: 1.0,
            end_min: 5.0,
        }];
        assert!(UulmmacSession::from_segments(bad, ScConfig::default(), 0).is_err());
    }
}
