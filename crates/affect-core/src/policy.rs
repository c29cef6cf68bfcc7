//! Programmable mapping from affect to system-management actions.
//!
//! The paper emphasizes that "the power adjustment strategy is subjective to
//! the user and hence is expected to be personalized and reprogrammed".
//! [`PolicyTable`] is that programmable mapping: cognitive states and
//! discrete emotions map to abstract [`VideoPowerMode`]s (realized by the
//! `h264` crate's adaptive decoder) and to app-priority biases (consumed by
//! the `mobile-sim` crate's emotional app manager).

use crate::emotion::{CognitiveState, Emotion};
use std::collections::BTreeMap;

/// Abstract video decoder power mode, ordered from highest quality (most
/// power) to lowest.
///
/// The `h264` crate maps each mode onto concrete knobs: NAL-deletion
/// threshold `S_th`, deletion frequency `f`, and deblocking-filter
/// activation (paper Sec. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VideoPowerMode {
    /// All NAL units processed, deblocking filter on — best quality.
    Standard,
    /// Small P/B NAL units deleted (`S_th = 140`, `f = 1`), filter on.
    NalDeletion,
    /// Deblocking filter deactivated, no deletion (paper: −31.4% power).
    DeblockOff,
    /// Deletion and filter deactivation combined (paper: −36.9% power).
    Combined,
}

impl VideoPowerMode {
    /// All modes from highest to lowest quality.
    pub const ALL: [VideoPowerMode; 4] = [
        VideoPowerMode::Standard,
        VideoPowerMode::NalDeletion,
        VideoPowerMode::DeblockOff,
        VideoPowerMode::Combined,
    ];

    /// Display name matching the paper's Fig. 6 mode labels.
    pub fn name(self) -> &'static str {
        match self {
            VideoPowerMode::Standard => "standard",
            VideoPowerMode::NalDeletion => "deletion",
            VideoPowerMode::DeblockOff => "deactivated",
            VideoPowerMode::Combined => "combined",
        }
    }
}

impl std::fmt::Display for VideoPowerMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A programmable affect→action table.
///
/// # Example
///
/// ```
/// use affect_core::emotion::{CognitiveState, Emotion};
/// use affect_core::policy::{PolicyTable, VideoPowerMode};
///
/// let mut table = PolicyTable::paper_defaults();
/// assert_eq!(table.video_mode_for_state(CognitiveState::Tense), VideoPowerMode::Standard);
/// // Personalize: a user who never cares about quality while happy.
/// table.set_emotion_mode(Emotion::Happy, VideoPowerMode::Combined);
/// assert_eq!(table.video_mode_for_emotion(Emotion::Happy), VideoPowerMode::Combined);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    state_modes: BTreeMap<CognitiveState, VideoPowerMode>,
    emotion_modes: BTreeMap<Emotion, VideoPowerMode>,
}

impl PolicyTable {
    /// The mapping used in the paper's Fig. 6 case study:
    ///
    /// * distracted → combined (filter off **and** `S_th = 140`, `f = 1`),
    /// * concentrated → deletion only (filter on),
    /// * tense (highly concentrated) → standard,
    /// * relaxed → deblocking filter off.
    ///
    /// Discrete emotions default by arousal/valence: high-arousal negative
    /// states get the best quality (the user is sensitive), low-arousal
    /// states trade quality for power.
    pub fn paper_defaults() -> Self {
        let mut state_modes = BTreeMap::new();
        state_modes.insert(CognitiveState::Distracted, VideoPowerMode::Combined);
        state_modes.insert(CognitiveState::Concentrated, VideoPowerMode::NalDeletion);
        state_modes.insert(CognitiveState::Tense, VideoPowerMode::Standard);
        state_modes.insert(CognitiveState::Relaxed, VideoPowerMode::DeblockOff);

        let mut emotion_modes = BTreeMap::new();
        for e in Emotion::ALL {
            let v = e.to_vector();
            let mode = if v.arousal > 0.4 && v.valence < 0.0 {
                VideoPowerMode::Standard
            } else if v.arousal > 0.4 {
                VideoPowerMode::NalDeletion
            } else if v.arousal < -0.3 {
                VideoPowerMode::Combined
            } else {
                VideoPowerMode::DeblockOff
            };
            emotion_modes.insert(e, mode);
        }
        Self {
            state_modes,
            emotion_modes,
        }
    }

    /// Video mode for a cognitive state.
    pub fn video_mode_for_state(&self, state: CognitiveState) -> VideoPowerMode {
        self.state_modes
            .get(&state)
            .copied()
            .unwrap_or(VideoPowerMode::Standard)
    }

    /// Video mode for a discrete emotion.
    pub fn video_mode_for_emotion(&self, emotion: Emotion) -> VideoPowerMode {
        self.emotion_modes
            .get(&emotion)
            .copied()
            .unwrap_or(VideoPowerMode::Standard)
    }

    /// Reprograms the mode for a discrete emotion.
    pub fn set_emotion_mode(&mut self, emotion: Emotion, mode: VideoPowerMode) {
        self.emotion_modes.insert(emotion, mode);
    }
}

impl Default for PolicyTable {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_state_mapping_matches_fig6() {
        let t = PolicyTable::paper_defaults();
        assert_eq!(
            t.video_mode_for_state(CognitiveState::Distracted),
            VideoPowerMode::Combined
        );
        assert_eq!(
            t.video_mode_for_state(CognitiveState::Concentrated),
            VideoPowerMode::NalDeletion
        );
        assert_eq!(
            t.video_mode_for_state(CognitiveState::Tense),
            VideoPowerMode::Standard
        );
        assert_eq!(
            t.video_mode_for_state(CognitiveState::Relaxed),
            VideoPowerMode::DeblockOff
        );
    }

    #[test]
    fn quality_demand_monotone_in_mode_quality() {
        // Higher quality demand must never map to a lower-quality mode.
        let t = PolicyTable::paper_defaults();
        // Ascending quality demand: distracted < relaxed < concentrated < tense.
        let states = [
            CognitiveState::Distracted,
            CognitiveState::Relaxed,
            CognitiveState::Concentrated,
            CognitiveState::Tense,
        ];
        let ranks: Vec<usize> = states
            .iter()
            .map(|&s| {
                VideoPowerMode::ALL
                    .iter()
                    .position(|&m| m == t.video_mode_for_state(s))
                    .unwrap()
            })
            .collect();
        // VideoPowerMode::ALL is ordered best-quality-first, so ranks must be
        // non-increasing as quality demand rises... except the paper maps
        // Relaxed to DeblockOff (rank 2) and Concentrated to NalDeletion
        // (rank 1): still monotone.
        for w in ranks.windows(2) {
            assert!(w[0] >= w[1], "ranks {ranks:?} not monotone");
        }
    }

    #[test]
    fn angry_gets_best_quality() {
        let t = PolicyTable::paper_defaults();
        assert_eq!(
            t.video_mode_for_emotion(Emotion::Angry),
            VideoPowerMode::Standard
        );
        assert_eq!(
            t.video_mode_for_emotion(Emotion::Fearful),
            VideoPowerMode::Standard
        );
    }

    #[test]
    fn low_arousal_trades_quality_for_power() {
        let t = PolicyTable::paper_defaults();
        assert_eq!(
            t.video_mode_for_emotion(Emotion::Calm),
            VideoPowerMode::Combined
        );
        assert_eq!(
            t.video_mode_for_emotion(Emotion::Sad),
            VideoPowerMode::Combined
        );
    }

    #[test]
    fn table_is_reprogrammable() {
        let mut t = PolicyTable::paper_defaults();
        t.set_emotion_mode(Emotion::Happy, VideoPowerMode::Standard);
        assert_eq!(
            t.video_mode_for_emotion(Emotion::Happy),
            VideoPowerMode::Standard
        );
    }

    #[test]
    fn mode_names_match_paper_labels() {
        assert_eq!(VideoPowerMode::Standard.to_string(), "standard");
        assert_eq!(VideoPowerMode::DeblockOff.to_string(), "deactivated");
    }
}
