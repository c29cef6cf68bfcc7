//! `affectsys` — a Rust reproduction of *"Human Emotion Based Real-time
//! Memory and Computation Management on Resource-Limited Edge Devices"*
//! (Wei, Zhong, Gu — DAC 2022).
//!
//! The paper closes the loop between affective computing and low-level
//! system management on edge devices: a wearable streams biosignals, a
//! phone-side classifier derives the user's emotion in real time, and that
//! emotion drives (1) the power mode of an H.264/AVC video decoder and
//! (2) the background-kill policy of an Android-like app manager.
//!
//! This crate is a facade re-exporting the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`](mod@core) | `affect-core` | emotion model, classifiers, policies, controller |
//! | [`obs`] | `affect-obs` | metrics registry, span tracing, Prometheus exposition |
//! | [`rt`] | `affect-rt` | real-time multi-session streaming runtime |
//! | [`fault`] | `affect-fault` | deterministic fault injection / chaos suite |
//! | [`fleet`] | `affect-fleet` | sharded many-session fleet runtime with QoS admission |
//! | [`dsp`] | `dsp` | FFT / MFCC / pitch / spectral features |
//! | [`nn`] | `nn` | from-scratch NN library with int8 quantization |
//! | [`biosignal`] | `biosignal` | synthetic skin-conductance and voice generators |
//! | [`datasets`] | `datasets` | RAVDESS/EMOVO/CREMA-D-like corpora |
//! | [`h264`] | `h264` | the affect-adaptive video decoder |
//! | [`mobile`] | `mobile-sim` | the Android-like app/memory simulator |
//!
//! [`scenarios`] is the one module of its own: deterministic runs of the
//! whole loop (chaos, fleet, memory pressure, the ladder walk), each
//! rendered into the transcript `tests/golden/` pins.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every figure.
//!
//! # Quickstart
//!
//! Classify a synthetic voice window and let the controller pick a decoder
//! mode:
//!
//! ```
//! use affectsys::core::controller::SystemController;
//! use affectsys::core::emotion::Emotion;
//! use affectsys::core::policy::PolicyTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut controller = SystemController::new(PolicyTable::paper_defaults(), 1);
//! let events = controller.observe_emotion(Emotion::Happy)?;
//! assert!(!events.is_empty());
//! println!("video mode now: {:?}", controller.video_mode());
//! # Ok(())
//! # }
//! ```
//!
//! The runnable examples cover the paper's case studies end to end:
//! `cargo run --release --example quickstart`, `video_playback`,
//! `app_management`. The Fig. 3 classifier study is
//! `cargo run --release -p bench --bin repro -- --quick fig3b`, and the
//! Sec. 2 parameter budgets are `repro model-table`.

/// The paper's core contribution: emotion model, classifiers, policies and
/// the system controller (`affect-core`).
pub use affect_core as core;
/// Deterministic, seed-driven fault injection for chaos testing the loop
/// (`affect-fault`).
pub use affect_fault as fault;
/// The sharded many-session fleet runtime: consistent-hash routing, QoS
/// admission control, fleet-wide report aggregation (`affect-fleet`).
pub use affect_fleet as fleet;
/// The observability layer: metrics registry, span tracing, Prometheus
/// exposition (`affect-obs`).
pub use affect_obs as obs;
/// The real-time multi-session streaming runtime (`affect-rt`).
pub use affect_rt as rt;
pub use biosignal;
pub use datasets;
pub use dsp;
pub use h264;
/// The Android-like mobile OS simulator (`mobile-sim`).
pub use mobile_sim as mobile;
pub use nn;

pub mod scenarios;
