//! The system controller: consumes a (noisy) affect stream and emits
//! debounced control events for the decoder and the app manager.

use crate::emotion::{CognitiveState, Emotion};
use crate::policy::{PolicyTable, VideoPowerMode};
use crate::smoothing::MajoritySmoother;
use crate::AffectError;

/// A control decision emitted by the [`SystemController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlEvent {
    /// Switch the video decoder to a new power mode.
    VideoMode(VideoPowerMode),
    /// The smoothed discrete emotion changed — app managers should re-rank
    /// their background app table.
    EmotionChanged(Emotion),
    /// The smoothed cognitive state changed.
    StateChanged(CognitiveState),
}

/// Debounces raw classifier output and translates it into [`ControlEvent`]s
/// via a [`PolicyTable`].
///
/// The controller accepts either a discrete-emotion stream (smartphone app
/// management, paper Sec. 5) or a cognitive-state stream (video playback,
/// paper Sec. 4); both are smoothed independently.
///
/// # Example
///
/// ```
/// use affect_core::controller::{ControlEvent, SystemController};
/// use affect_core::emotion::Emotion;
/// use affect_core::policy::PolicyTable;
///
/// # fn main() -> Result<(), affect_core::AffectError> {
/// let mut ctl = SystemController::new(PolicyTable::paper_defaults(), 1);
/// let events = ctl.observe_emotion(Emotion::Happy)?;
/// assert!(events.iter().any(|e| matches!(e, ControlEvent::EmotionChanged(Emotion::Happy))));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SystemController {
    policy: PolicyTable,
    emotion_smoother: MajoritySmoother<Emotion>,
    state_smoother: MajoritySmoother<CognitiveState>,
    video_mode: Option<VideoPowerMode>,
}

impl SystemController {
    /// Creates a controller with the given policy and smoothing window
    /// (`1` disables smoothing; larger values vote over more observations).
    ///
    /// # Panics
    ///
    /// Never panics: a zero window is promoted to 1.
    pub fn new(policy: PolicyTable, smoothing_window: usize) -> Self {
        let window = smoothing_window.max(1);
        Self {
            policy,
            emotion_smoother: MajoritySmoother::new(window, 0).expect("window >= 1"),
            state_smoother: MajoritySmoother::new(window, 0).expect("window >= 1"),
            video_mode: None,
        }
    }

    /// The currently commanded video mode, if any observation arrived.
    pub fn video_mode(&self) -> Option<VideoPowerMode> {
        self.video_mode
    }

    /// The current smoothed emotion, if any.
    pub fn emotion(&self) -> Option<Emotion> {
        self.emotion_smoother.current()
    }

    /// The current smoothed cognitive state, if any.
    pub fn state(&self) -> Option<CognitiveState> {
        self.state_smoother.current()
    }

    /// Feeds one raw discrete-emotion classification.
    ///
    /// Returns the events triggered by this observation (possibly empty).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; the `Result` reserves room for
    /// policy-evaluation failures.
    pub fn observe_emotion(&mut self, emotion: Emotion) -> Result<Vec<ControlEvent>, AffectError> {
        let mut events = Vec::new();
        if let Some(new_emotion) = self.emotion_smoother.push(emotion) {
            events.push(ControlEvent::EmotionChanged(new_emotion));
            let mode = self.policy.video_mode_for_emotion(new_emotion);
            if self.video_mode != Some(mode) {
                self.video_mode = Some(mode);
                events.push(ControlEvent::VideoMode(mode));
            }
        }
        Ok(events)
    }

    /// Feeds one raw cognitive-state classification (video-playback path).
    ///
    /// # Errors
    ///
    /// Same as [`SystemController::observe_emotion`].
    pub fn observe_state(
        &mut self,
        state: CognitiveState,
    ) -> Result<Vec<ControlEvent>, AffectError> {
        let mut events = Vec::new();
        if let Some(new_state) = self.state_smoother.push(state) {
            events.push(ControlEvent::StateChanged(new_state));
            let mode = self.policy.video_mode_for_state(new_state);
            if self.video_mode != Some(mode) {
                self.video_mode = Some(mode);
                events.push(ControlEvent::VideoMode(mode));
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_emotion_emits_both_events() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 1);
        let ev = c.observe_emotion(Emotion::Angry).unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(c.emotion(), Some(Emotion::Angry));
        assert_eq!(c.video_mode(), Some(VideoPowerMode::Standard));
    }

    #[test]
    fn repeat_observations_emit_nothing() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 1);
        c.observe_emotion(Emotion::Happy).unwrap();
        assert!(c.observe_emotion(Emotion::Happy).unwrap().is_empty());
    }

    #[test]
    fn emotion_change_with_same_mode_skips_video_event() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 1);
        // Angry and Fearful both map to Standard in the defaults.
        c.observe_emotion(Emotion::Angry).unwrap();
        let ev = c.observe_emotion(Emotion::Fearful).unwrap();
        assert_eq!(ev, vec![ControlEvent::EmotionChanged(Emotion::Fearful)]);
    }

    #[test]
    fn smoothing_suppresses_flicker() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 5);
        for _ in 0..5 {
            c.observe_state(CognitiveState::Concentrated).unwrap();
        }
        // A single distracted outlier must not flip the mode.
        let ev = c.observe_state(CognitiveState::Distracted).unwrap();
        assert!(ev.is_empty());
        assert_eq!(c.state(), Some(CognitiveState::Concentrated));
    }

    #[test]
    fn sustained_state_change_flips_mode() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 3);
        for _ in 0..3 {
            c.observe_state(CognitiveState::Tense).unwrap();
        }
        assert_eq!(c.video_mode(), Some(VideoPowerMode::Standard));
        let mut flipped = false;
        for _ in 0..3 {
            for e in c.observe_state(CognitiveState::Relaxed).unwrap() {
                if e == ControlEvent::VideoMode(VideoPowerMode::DeblockOff) {
                    flipped = true;
                }
            }
        }
        assert!(flipped);
    }

    #[test]
    fn policy_reprogramming_takes_effect() {
        let mut table = PolicyTable::paper_defaults();
        table.set_emotion_mode(Emotion::Happy, VideoPowerMode::Combined);
        let mut c = SystemController::new(table, 1);
        c.observe_emotion(Emotion::Happy).unwrap();
        assert_eq!(c.video_mode(), Some(VideoPowerMode::Combined));
    }

    #[test]
    fn zero_window_promoted_to_one() {
        let mut c = SystemController::new(PolicyTable::paper_defaults(), 0);
        assert!(!c.observe_emotion(Emotion::Sad).unwrap().is_empty());
    }
}
