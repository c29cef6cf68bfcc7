//! The closed sensing loop, live: a skin-conductance stream is classified
//! into cognitive states minute by minute and the controller switches the
//! decoder mode in real time — no ground-truth labels involved.
//!
//! ```text
//! cargo run --release --example sc_monitor
//! ```
//!
//! This is the loop the paper's Fig. 4 describes: biosignals from the
//! wearable → feature extraction → AI classifier → emotion label →
//! video decoder / app manager control.

use affectsys::biosignal::UulmmacSession;
use affectsys::core::classifier::ModelConfig;
use affectsys::core::controller::{ControlEvent, SystemController};
use affectsys::core::emotion::CognitiveState;
use affectsys::core::pipeline::{biosignal_window_features, BIOSIGNAL_FEATURES};
use affectsys::core::policy::PolicyTable;
use affectsys::core::training::{train, NormScope};
use affectsys::datasets::{sc_training_windows, SC_WINDOW_SECS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SEED: u64 = 11;

    // 1. Train the cognitive-state classifier on synthetic SC windows.
    println!("training the skin-conductance state classifier...");
    let (mut train_x, train_y) = sc_training_windows(SEED)?;
    let config = ModelConfig::Mlp {
        input_dim: BIOSIGNAL_FEATURES,
        hidden: vec![16, 12],
        classes: CognitiveState::ALL.len(),
        dropout: 0.0,
    };
    let mut model = config.build(SEED)?;
    let normalization = train(
        &mut model,
        &mut train_x,
        &train_y,
        NormScope::PerDimension,
        60,
        0.01,
        SEED,
    )?;
    println!("trained ({} parameters)\n", model.param_count());

    // 2. Monitor the 40-minute session minute by minute.
    let session = UulmmacSession::paper_fig6(SEED + 1)?;
    let mut controller = SystemController::new(PolicyTable::paper_defaults(), 3);
    let mut correct = 0usize;
    println!("min  SC uS  classified    truth         decoder");
    println!("------------------------------------------------------------");
    for minute in 0..session.duration_min() as usize {
        let start = (minute as f32 * 60.0 - SC_WINDOW_SECS).max(0.0);
        let window = session
            .sc_trace()
            .slice_secs(start, start + SC_WINDOW_SECS)?;
        let level: f32 = window.iter().sum::<f32>() / window.len() as f32;
        let mut features = [biosignal_window_features(window)?];
        normalization.apply(&mut features)?;
        let class = model.predict(&features[0])?;
        let state = CognitiveState::ALL[class];
        let truth = session.state_at_min(minute as f32 + 0.5);
        if state == truth {
            correct += 1;
        }

        let mut switched = String::new();
        for event in controller.observe_state(state)? {
            if let ControlEvent::VideoMode(mode) = event {
                switched = format!("-> {mode}");
            }
        }
        println!(
            "{minute:>3}  {level:>5.2}  {:<12}  {:<12}  {switched}",
            state.to_string(),
            truth.to_string()
        );
    }
    println!(
        "\nper-minute accuracy: {:.0}% over {} minutes; final mode: {:?}",
        correct as f64 / session.duration_min() as f64 * 100.0,
        session.duration_min(),
        controller.video_mode()
    );
    Ok(())
}
