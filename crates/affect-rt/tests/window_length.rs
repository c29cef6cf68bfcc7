//! The feature stage's admission gate refuses windows whose length differs
//! from `RuntimeConfig::window_samples`: a wrong-length window costs exactly
//! itself, is counted as rejected, and never reaches a classifier, so it is
//! never classified as features of another shape.

use affect_core::classifier::ClassifierKind;
use affect_core::pipeline::FeatureConfig;
use affect_rt::{NullActuator, RuntimeBuilder, RuntimeConfig};
use nn::Precision;

const WINDOW: usize = 1024;

fn config() -> RuntimeConfig {
    RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        },
        window_samples: WINDOW,
        ..RuntimeConfig::default()
    }
}

#[test]
fn wrong_length_windows_are_rejected_before_classification() {
    let mut builder = RuntimeBuilder::new(config()).unwrap();
    let cnn = builder.add_session_with_precision(
        Box::new(NullActuator),
        ClassifierKind::Cnn,
        Precision::F32,
    );
    let lstm = builder.add_session_with_precision(
        Box::new(NullActuator),
        ClassifierKind::Lstm,
        Precision::F32,
    );
    let runtime = builder.start().unwrap();

    // Shorter and longer than the configured window, including lengths
    // that still hold whole analysis frames.
    let wrong = [512, 2048, WINDOW - 1, WINDOW + 1];
    for session in [cnn, lstm] {
        for len in wrong {
            runtime.submit(session, vec![0.2; len]);
        }
        runtime.submit(session, vec![0.2; WINDOW]);
    }
    runtime.wait_idle();
    assert_eq!(runtime.session_family(cnn), ClassifierKind::Cnn);
    assert_eq!(runtime.session_family(lstm), ClassifierKind::Lstm);

    let report = runtime.shutdown().report;
    assert!(report.all_accounted());
    assert_eq!(report.faults.rejected_windows, 2 * wrong.len() as u64);
    assert_eq!(
        report.classify.windows, 2,
        "one well-formed window per session"
    );
    for session in [cnn, lstm] {
        let s = &report.sessions[session.index()];
        assert_eq!(s.produced, wrong.len() as u64 + 1);
        assert_eq!(s.processed, 1, "only the well-formed window is classified");
        assert_eq!(s.dropped, wrong.len() as u64);
    }
}
