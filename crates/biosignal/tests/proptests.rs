//! Property-based tests for the biosignal generators.

use affect_core::emotion::{CognitiveState, Emotion};
use biosignal::sc::{ScConfig, ScGenerator};
use biosignal::uulmmac::{state_arousal, SessionSegment, UulmmacSession};
use biosignal::voice::{synthesize_utterance, UtteranceParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Skin conductance is nonnegative, finite, and the requested length,
    /// for any arousal and seed.
    #[test]
    fn sc_always_well_formed(arousal in -0.5f32..1.5, secs in 1.0f32..120.0, seed in 0u64..1000) {
        let g = ScGenerator::new(ScConfig::default()).unwrap();
        let s = g.generate(arousal, secs, seed).unwrap();
        prop_assert_eq!(s.len(), (secs * s.sample_rate) as usize);
        prop_assert!(s.samples.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    /// Voice synthesis is finite and bounded for every emotion, duration
    /// and jitter draw.
    #[test]
    fn voice_bounded(
        emotion_idx in 0usize..8,
        secs in 0.2f32..2.0,
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = UtteranceParams::for_emotion(Emotion::ALL[emotion_idx])
            .with_speaker(1.0 + (seed % 10) as f32 * 0.08, &mut rng)
            .jittered(&mut rng);
        let wave = synthesize_utterance(&params, secs, 8_000.0, seed).unwrap();
        prop_assert_eq!(wave.len(), (secs * 8_000.0) as usize);
        prop_assert!(wave.iter().all(|x| x.is_finite() && x.abs() < 8.0));
    }

    /// Any contiguous segment schedule builds a session whose state lookup
    /// agrees with the segments.
    #[test]
    fn session_state_lookup_consistent(durations in prop::collection::vec(1.0f32..10.0, 1..6)) {
        let mut segments = Vec::new();
        let mut start = 0.0f32;
        for (i, &d) in durations.iter().enumerate() {
            segments.push(SessionSegment {
                state: CognitiveState::ALL[i % 4],
                start_min: start,
                end_min: start + d,
            });
            start += d;
        }
        let session =
            UulmmacSession::from_segments(segments.clone(), ScConfig::default(), 1).unwrap();
        for segment in &segments {
            let mid = (segment.start_min + segment.end_min) / 2.0;
            prop_assert_eq!(session.state_at_min(mid), segment.state);
        }
        prop_assert!((session.duration_min() - start).abs() < 1e-4);
    }

    /// State arousal is within [0, 1] and strictly orders the four states.
    #[test]
    fn state_arousal_ordering(_x in 0..1) {
        let mut levels: Vec<f32> = CognitiveState::ALL.iter().map(|&s| state_arousal(s)).collect();
        prop_assert!(levels.iter().all(|&a| (0.0..=1.0).contains(&a)));
        levels.sort_by(f32::total_cmp);
        levels.dedup();
        prop_assert_eq!(levels.len(), 4, "arousal levels must be distinct");
    }
}
