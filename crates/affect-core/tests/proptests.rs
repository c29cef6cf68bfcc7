//! Property-based tests for the affect-core invariants.

use affect_core::controller::{ControlEvent, SystemController};
use affect_core::emotion::{CognitiveState, Emotion};
use affect_core::pipeline::{biosignal_window_features, BIOSIGNAL_FEATURES};
use affect_core::policy::{PolicyTable, VideoPowerMode};
use affect_core::smoothing::MajoritySmoother;
use proptest::prelude::*;

fn emotion_strategy() -> impl Strategy<Value = Emotion> {
    (0usize..Emotion::ALL.len()).prop_map(|i| Emotion::ALL[i])
}

proptest! {
    /// Smoother: the reported state always equals the latched `current()`,
    /// and a change is only reported when a strict majority exists.
    #[test]
    fn smoother_consistency(
        stream in prop::collection::vec(0usize..8, 1..64),
        window in 1usize..8,
    ) {
        let mut smoother = MajoritySmoother::new(window, 0).unwrap();
        for &raw in &stream {
            let label = Emotion::ALL[raw];
            if let Some(changed) = smoother.push(label) {
                prop_assert_eq!(smoother.current(), Some(changed));
            }
        }
        // After any input, current is None only if no majority ever formed.
        if window == 1 {
            prop_assert!(smoother.current().is_some());
        }
    }

    /// A constant stream never produces more than one state change,
    /// whatever the window.
    #[test]
    fn smoother_stable_on_constant_stream(
        label in emotion_strategy(),
        window in 1usize..10,
        n in 1usize..50,
    ) {
        let mut smoother = MajoritySmoother::new(window, 0).unwrap();
        let changes = (0..n).filter(|_| smoother.push(label).is_some()).count();
        prop_assert!(changes <= 1, "{changes} changes on a constant stream");
    }

    /// The controller's video mode always matches the policy's mapping of
    /// its current emotion — no stale modes.
    #[test]
    fn controller_mode_matches_policy(stream in prop::collection::vec(0usize..8, 1..64)) {
        let policy = PolicyTable::paper_defaults();
        let mut controller = SystemController::new(PolicyTable::paper_defaults(), 1);
        for &raw in &stream {
            let emotion = Emotion::ALL[raw];
            let _ = controller.observe_emotion(emotion).unwrap();
            let current = controller.emotion().unwrap();
            prop_assert_eq!(
                controller.video_mode().unwrap(),
                policy.video_mode_for_emotion(current)
            );
        }
    }

    /// Every VideoMode event the controller emits is immediately reflected
    /// in `video_mode()`.
    #[test]
    fn controller_events_reflect_state(stream in prop::collection::vec(0usize..4, 1..64)) {
        let mut controller = SystemController::new(PolicyTable::paper_defaults(), 2);
        for &raw in &stream {
            let state = CognitiveState::ALL[raw];
            for event in controller.observe_state(state).unwrap() {
                if let ControlEvent::VideoMode(mode) = event {
                    prop_assert_eq!(controller.video_mode(), Some(mode));
                }
            }
        }
    }

    /// Biosignal features are finite for any finite window and scale
    /// equivariantly: mean/std/min/max/range scale linearly with the input.
    #[test]
    fn biosignal_features_scale(
        window in prop::collection::vec(0.0f32..10.0, 8..200),
        scale in 0.5f32..4.0,
    ) {
        let base = biosignal_window_features(&window).unwrap();
        prop_assert_eq!(base.len(), BIOSIGNAL_FEATURES);
        prop_assert!(base.data().iter().all(|x| x.is_finite()));
        let scaled_window: Vec<f32> = window.iter().map(|&x| x * scale).collect();
        let scaled = biosignal_window_features(&scaled_window).unwrap();
        // mean, std, min, max, slope, mean|Δ|, and inter-decile range are
        // homogeneous of degree 1; the upper-half fraction is invariant.
        for &i in &[0usize, 1, 2, 3, 4, 5, 7] {
            prop_assert!(
                (base.data()[i] * scale - scaled.data()[i]).abs()
                    < 1e-3 * (1.0 + scaled.data()[i].abs()),
                "feature {}: {} vs {}",
                i,
                base.data()[i] * scale,
                scaled.data()[i]
            );
        }
        prop_assert!((base.data()[6] - scaled.data()[6]).abs() < 1e-5);
    }

    /// Reprogramming the policy table round-trips for every pair.
    #[test]
    fn policy_reprogramming_round_trips(
        emotion in emotion_strategy(),
        mode_idx in 0usize..4,
    ) {
        let mode = VideoPowerMode::ALL[mode_idx];
        let mut table = PolicyTable::paper_defaults();
        table.set_emotion_mode(emotion, mode);
        prop_assert_eq!(table.video_mode_for_emotion(emotion), mode);
    }
}
