//! Fig. 6: decoder mode powers (middle panel) and the affect-driven
//! playback over the uulmMAC-like session (bottom panel).

use affect_core::policy::PolicyTable;
use biosignal::UulmmacSession;
use h264::adaptive::{adaptive_playback, paper_reference, ModeProfile, PlaybackReport};
use h264::CodecError;

/// The four-mode power/quality profile on the calibration clip, plus the
/// paper's targets for comparison. Rows:
/// `(mode name, normalized power, paper target, psnr_db, ssim, deleted units)`.
pub type ModeRow = (String, f64, f64, f64, f64, usize);

/// Measures the mode profile of Fig. 6 (middle).
///
/// # Errors
///
/// Propagates codec errors.
pub fn mode_table(seed: u64) -> Result<Vec<ModeRow>, CodecError> {
    let (frames, stream) = paper_reference(seed)?;
    let profile = ModeProfile::measure(&stream, &frames)?;
    let targets = [1.0, 0.894, 0.686, 0.631];
    Ok(profile
        .normalized_power()
        .into_iter()
        .zip(&profile.reports)
        .zip(targets)
        .map(|(((mode, power), report), target)| {
            (
                mode.to_string(),
                power,
                target,
                report.psnr_db,
                report.ssim,
                report.deleted_units,
            )
        })
        .collect())
}

/// Runs the Fig. 6 (bottom) playback experiment over the uulmMAC-like
/// session schedule using the paper's policy table.
///
/// # Errors
///
/// Propagates signal-generation and codec errors.
pub fn playback(seed: u64) -> Result<PlaybackReport, Box<dyn std::error::Error>> {
    let session = UulmmacSession::paper_fig6(seed)?;
    let schedule: Vec<(affect_core::emotion::CognitiveState, f32)> = session
        .segments()
        .iter()
        .map(|s| (s.state, s.duration_min()))
        .collect();
    let (frames, stream) = paper_reference(seed)?;
    Ok(adaptive_playback(
        &stream,
        &frames,
        &schedule,
        &PolicyTable::paper_defaults(),
    )?)
}

/// The closed-loop variant of the Fig. 6 experiment: instead of feeding the
/// decoder the session's *ground-truth* labels, a small MLP is trained on
/// skin-conductance window features and the playback is driven by its
/// (smoothed) classifications — the loop the paper's system actually runs
/// ("the results from the smartphone's AI classifier ... are used to
/// generate the accurate emotion labels used for the proposed real-time
/// affect-driven video decoder").
#[derive(Debug, Clone)]
pub struct ClassifiedPlayback {
    /// Fraction of session minutes whose classified state matched the
    /// ground-truth label.
    pub state_accuracy: f64,
    /// Energy saving with classified states.
    pub classified_saving: f64,
    /// Energy saving with oracle labels (the upper bound).
    pub oracle_saving: f64,
    /// Minutes spent in each mode under the classified run, in
    /// [`affect_core::policy::VideoPowerMode::ALL`] order.
    pub classified_mode_minutes: [f32; 4],
}

/// Runs the closed-loop experiment.
///
/// Training data comes from SC windows generated at each state's arousal
/// level (disjoint seeds from the evaluation session); evaluation slides a
/// 60-second window over the session's SC trace minute by minute,
/// classifies, smooths with a 3-vote majority, and integrates energy over
/// the induced mode schedule.
///
/// # Errors
///
/// Propagates signal, training and codec errors.
pub fn playback_classified(seed: u64) -> Result<ClassifiedPlayback, Box<dyn std::error::Error>> {
    use affect_core::classifier::ModelConfig;
    use affect_core::emotion::CognitiveState;
    use affect_core::pipeline::{biosignal_window_features, BIOSIGNAL_FEATURES};
    use affect_core::smoothing::MajoritySmoother;
    use affect_core::training::{train, NormScope};
    use datasets::{sc_training_windows, SC_WINDOW_SECS};

    // 1. A small MLP over the 8 SC features, trained on windows rendered
    // at each state's arousal level.
    let (mut train_x, train_y) = sc_training_windows(seed)?;
    let config = ModelConfig::Mlp {
        input_dim: BIOSIGNAL_FEATURES,
        hidden: vec![16, 12],
        classes: CognitiveState::ALL.len(),
        dropout: 0.0,
    };
    let mut model = config.build(seed)?;
    let normalization = train(
        &mut model,
        &mut train_x,
        &train_y,
        NormScope::PerDimension,
        60,
        0.01,
        seed,
    )?;

    // 2. Classify the evaluation session minute by minute.
    let session = UulmmacSession::paper_fig6(seed)?;
    let trace = session.sc_trace();
    let mut smoother = MajoritySmoother::new(3, 0)?;
    let mut classified: Vec<CognitiveState> = Vec::new();
    let mut correct = 0usize;
    let total_minutes = session.duration_min() as usize;
    for minute in 0..total_minutes {
        let start = (minute as f32 * 60.0 - SC_WINDOW_SECS).max(0.0);
        let end = (start + SC_WINDOW_SECS).max(60.0);
        let window = trace.slice_secs(start, end)?;
        let mut features = [biosignal_window_features(window)?];
        normalization.apply(&mut features)?;
        let probs = model.predict_proba(&features[0])?;
        let class = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let raw_state = CognitiveState::ALL[class];
        smoother.push(raw_state);
        let state = smoother.current().unwrap_or(raw_state);
        if state == session.state_at_min(minute as f32 + 0.5) {
            correct += 1;
        }
        classified.push(state);
    }
    let state_accuracy = correct as f64 / total_minutes as f64;

    // 3. Integrate energy over both schedules.
    let (frames, stream) = paper_reference(seed)?;
    let profile = ModeProfile::measure(&stream, &frames)?;
    let powers = profile.normalized_power();
    let policy = PolicyTable::paper_defaults();
    let power_of = |state: CognitiveState| {
        let mode = policy.video_mode_for_state(state);
        powers
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|&(_, p)| p)
            .unwrap_or(1.0)
    };
    let mut classified_energy = 0.0;
    let mut oracle_energy = 0.0;
    let mut mode_minutes = [0.0f32; 4];
    for (minute, &state) in classified.iter().enumerate() {
        classified_energy += power_of(state);
        oracle_energy += power_of(session.state_at_min(minute as f32 + 0.5));
        let mode = policy.video_mode_for_state(state);
        let idx = affect_core::policy::VideoPowerMode::ALL
            .iter()
            .position(|&m| m == mode)
            .unwrap_or(0);
        mode_minutes[idx] += 1.0;
    }
    classified_energy /= total_minutes as f64;
    oracle_energy /= total_minutes as f64;

    Ok(ClassifiedPlayback {
        state_accuracy,
        classified_saving: 1.0 - classified_energy,
        oracle_saving: 1.0 - oracle_energy,
        classified_mode_minutes: mode_minutes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_table_matches_paper_shape() {
        let rows = mode_table(5).unwrap();
        assert_eq!(rows.len(), 4);
        // Power ordering: standard > deletion > deblock-off > combined.
        assert!(rows[0].1 > rows[1].1);
        assert!(rows[1].1 > rows[2].1);
        assert!(rows[2].1 > rows[3].1);
        // Each mode within 5 points of the paper target.
        for (name, power, target, _, _, _) in &rows {
            assert!((power - target).abs() < 0.05, "{name}: {power} vs {target}");
        }
    }

    #[test]
    fn classified_playback_closes_the_loop() {
        let r = playback_classified(5).unwrap();
        // The SC-driven classifier must recover most of the session labels
        // and most of the oracle saving.
        assert!(
            r.state_accuracy > 0.6,
            "state accuracy {:.2}",
            r.state_accuracy
        );
        assert!(
            r.classified_saving > 0.10,
            "saving {:.3}",
            r.classified_saving
        );
        assert!(
            r.classified_saving <= r.oracle_saving + 0.08,
            "classified {:.3} vs oracle {:.3}",
            r.classified_saving,
            r.oracle_saving
        );
        let total: f32 = r.classified_mode_minutes.iter().sum();
        assert!((total - 40.0).abs() < 1.0);
    }

    #[test]
    fn playback_saving_matches_paper() {
        let report = playback(5).unwrap();
        assert!(
            (report.saving - 0.231).abs() < 0.05,
            "saving {:.3}",
            report.saving
        );
        assert_eq!(report.segments.len(), 4);
    }
}
