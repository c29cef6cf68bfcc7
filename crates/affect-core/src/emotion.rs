//! The emotion model: discrete labels, the Russell circumplex embedding, and
//! the cognitive states used by the uulmMAC video-playback case study.
//!
//! The paper quantifies affect with the two/three-dimensional Russell
//! circumplex model (Fig. 1): *valence* is the pleasure axis, *arousal* the
//! activation axis, and *dominance* the control axis. Discrete classifier
//! labels (happy, angry, …) are points in this space.

use std::fmt;

/// Discrete emotion labels, following the RAVDESS label set the paper's
/// classifiers are trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Emotion {
    /// Flat affect; the reference class.
    Neutral,
    /// Low-arousal positive.
    Calm,
    /// High-arousal positive.
    Happy,
    /// Low-arousal negative.
    Sad,
    /// High-arousal negative, high dominance.
    Angry,
    /// High-arousal negative, low dominance.
    Fearful,
    /// Negative valence, moderate arousal.
    Disgust,
    /// High arousal, mid valence.
    Surprised,
}

impl Emotion {
    /// All emotion labels in canonical (class-index) order.
    pub const ALL: [Emotion; 8] = [
        Emotion::Neutral,
        Emotion::Calm,
        Emotion::Happy,
        Emotion::Sad,
        Emotion::Angry,
        Emotion::Fearful,
        Emotion::Disgust,
        Emotion::Surprised,
    ];

    /// Stable class index of this label (the classifier's output index).
    pub fn index(self) -> usize {
        Emotion::ALL
            .iter()
            .position(|&e| e == self)
            .expect("every emotion is in ALL")
    }

    /// Label for a class index, or `None` when out of range.
    pub fn from_index(index: usize) -> Option<Emotion> {
        Emotion::ALL.get(index).copied()
    }

    /// Canonical lowercase name (used in dataset specs and reports).
    pub fn name(self) -> &'static str {
        match self {
            Emotion::Neutral => "neutral",
            Emotion::Calm => "calm",
            Emotion::Happy => "happy",
            Emotion::Sad => "sad",
            Emotion::Angry => "angry",
            Emotion::Fearful => "fearful",
            Emotion::Disgust => "disgust",
            Emotion::Surprised => "surprised",
        }
    }

    /// The Russell-circumplex embedding of this label.
    ///
    /// Coordinates are in `[-1, 1]` per axis, placed per the standard
    /// circumplex layout (Fig. 1(a) of the paper).
    pub fn to_vector(self) -> EmotionVector {
        match self {
            Emotion::Neutral => EmotionVector::new(0.0, 0.0, 0.0),
            Emotion::Calm => EmotionVector::new(0.6, -0.6, 0.2),
            Emotion::Happy => EmotionVector::new(0.8, 0.5, 0.4),
            Emotion::Sad => EmotionVector::new(-0.7, -0.5, -0.4),
            Emotion::Angry => EmotionVector::new(-0.6, 0.8, 0.5),
            Emotion::Fearful => EmotionVector::new(-0.7, 0.7, -0.6),
            Emotion::Disgust => EmotionVector::new(-0.6, 0.3, 0.1),
            Emotion::Surprised => EmotionVector::new(0.3, 0.8, -0.1),
        }
    }
}

impl fmt::Display for Emotion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A point in Russell's circumplex space.
///
/// # Example
///
/// ```
/// use affect_core::emotion::Emotion;
/// let v = Emotion::Happy.to_vector();
/// assert!(v.valence > 0.0 && v.arousal > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmotionVector {
    /// Pleasure axis, `[-1, 1]`.
    pub valence: f32,
    /// Activation axis, `[-1, 1]`.
    pub arousal: f32,
    /// Control axis, `[-1, 1]`.
    pub dominance: f32,
}

impl EmotionVector {
    /// Creates a vector, clamping each axis to `[-1, 1]`.
    pub fn new(valence: f32, arousal: f32, dominance: f32) -> Self {
        Self {
            valence: valence.clamp(-1.0, 1.0),
            arousal: arousal.clamp(-1.0, 1.0),
            dominance: dominance.clamp(-1.0, 1.0),
        }
    }
}

/// Cognitive/attentional states from the uulmMAC-style labelled session used
/// in the video-playback experiment (paper Fig. 6: distracted 0–14 min,
/// concentrated 14–20 min, tense 20–29 min, relaxed 29–40 min).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CognitiveState {
    /// Attention away from the screen — quality is not critical.
    Distracted,
    /// Engaged with the content — quality matters.
    Concentrated,
    /// High-stress engagement — maximum quality (paper: standard mode).
    Tense,
    /// At ease — quality can be traded for power.
    Relaxed,
}

impl CognitiveState {
    /// All cognitive states in canonical order.
    pub const ALL: [CognitiveState; 4] = [
        CognitiveState::Distracted,
        CognitiveState::Concentrated,
        CognitiveState::Tense,
        CognitiveState::Relaxed,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CognitiveState::Distracted => "distracted",
            CognitiveState::Concentrated => "concentrated",
            CognitiveState::Tense => "tense",
            CognitiveState::Relaxed => "relaxed",
        }
    }
}

impl fmt::Display for CognitiveState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for e in Emotion::ALL {
            assert_eq!(Emotion::from_index(e.index()), Some(e));
        }
        assert_eq!(Emotion::from_index(8), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Emotion::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn circumplex_quadrants_match_psychology() {
        // (emotion, positive valence, high arousal)
        for (e, positive, aroused) in [
            (Emotion::Happy, true, true),
            (Emotion::Sad, false, false),
            (Emotion::Angry, false, true),
            (Emotion::Calm, true, false),
        ] {
            let v = e.to_vector();
            assert_eq!(
                (v.valence > 0.0, v.arousal > 0.0),
                (positive, aroused),
                "{e}"
            );
        }
    }

    #[test]
    fn vectors_clamped() {
        let v = EmotionVector::new(2.0, -3.0, 0.5);
        assert_eq!(v.valence, 1.0);
        assert_eq!(v.arousal, -1.0);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Emotion::Fearful.to_string(), "fearful");
        assert_eq!(CognitiveState::Tense.to_string(), "tense");
    }
}
