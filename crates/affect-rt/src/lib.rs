//! `affect-rt`: a real-time multi-session streaming runtime for the
//! closed affect loop of the `affectsys` reproduction (DAC 2022).
//!
//! The offline crates classify one window at a time; the paper's system
//! runs *continuously* on a phone: biosignal windows arrive every second
//! per wearer, the classifier must keep up, and when it cannot, the system
//! degrades gracefully instead of falling behind. This crate is that
//! missing runtime layer:
//!
//! - **Staged pipeline** — ingest → feature-extract → classify →
//!   smooth/control → actuate, each stage on its own worker thread(s)
//!   behind a bounded queue with an explicit overflow policy
//!   ([`OverflowPolicy::Block`] / [`OverflowPolicy::DropOldest`] /
//!   [`OverflowPolicy::DropNewest`]).
//! - **Session multiplexing** — N independent wearers share one classifier
//!   worker pool; per-session state (controller smoothing, degradation
//!   level, statistics) stays isolated.
//! - **Deadline tracking** — every window carries its arrival timestamp;
//!   end-to-end latency is recorded against a configurable budget (the
//!   paper's ~1 s decision cadence) and misses are counted per session.
//! - **Graceful degradation** — sustained misses drop the session one
//!   model family down the accuracy/latency ladder (LSTM → CNN → MLP →
//!   HDC, the last an integer-only hyperdimensional classifier) and widen
//!   its decision interval; sustained on-time windows climb back up. Each
//!   session can run its neural models in int8
//!   (`RuntimeBuilder::add_session_with_precision`). See
//!   `docs/DEGRADATION.md` for the full ladder semantics.
//! - **Honest accounting** — `produced == processed + dropped` per
//!   session, always: load shedding is explicit, never silent.
//! - **Supervision** — every stage worker (feature, classify, control,
//!   actuate) runs each window inside a per-message unwind boundary: a
//!   panic (injected via [`FaultHook`] or organic, including one in user
//!   [`Actuator`] code) costs one window, restarts the worker with
//!   exponential backoff, and retires it only after a restart budget. An
//!   optional watchdog force-drains stalled queues. See
//!   `docs/ROBUSTNESS.md`.
//!
//! Everything is built on `std::thread` + mutex/condvar rings; the crate
//! adds no dependencies beyond the workspace's own crates.
//!
//! # Example
//!
//! ```
//! use affect_rt::{
//!     CollectActuator, OverflowPolicy, RuntimeBuilder, RuntimeConfig, StageConfig,
//! };
//! use affect_core::pipeline::FeatureConfig;
//!
//! # fn main() -> Result<(), affect_core::AffectError> {
//! let config = RuntimeConfig {
//!     feature: FeatureConfig {
//!         frame_len: 256,
//!         hop: 128,
//!         n_mfcc: 8,
//!         n_mels: 20,
//!         ..FeatureConfig::default()
//!     },
//!     window_samples: 1024,
//!     ingest: StageConfig::new(4, OverflowPolicy::DropOldest),
//!     ..RuntimeConfig::default()
//! };
//! let mut builder = RuntimeBuilder::new(config)?;
//! let session = builder.add_session(Box::new(CollectActuator::default()));
//! let runtime = builder.start()?;
//! runtime.submit(session, vec![0.25; 1024]);
//! runtime.wait_idle();
//! let outcome = runtime.shutdown();
//! let report = &outcome.report.sessions[session.index()];
//! assert!(report.accounted());
//! assert_eq!(report.produced, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod actuator;
pub mod fault;
pub mod mem;
pub mod ring;
pub mod runtime;
pub mod stats;
pub mod wire;

pub use actuator::{Actuator, AppActuator, CollectActuator, NullActuator, VideoActuator};
pub use fault::{silence_injected_panics, FaultAction, FaultHook, InjectedPanic, Stage};
pub use mem::{MemConsumer, MemReport, MemoryBudget, PressureBand};
pub use ring::{OverflowPolicy, PushOutcome, Ring, RingMetrics, RingStats};
pub use runtime::{
    Runtime, RuntimeBuilder, RuntimeConfig, SessionId, ShutdownOutcome, StageConfig,
    SupervisionConfig, WatchdogConfig,
};
pub use stats::{ClassifyReport, FaultReport, RuntimeReport, SessionReport, StageReport};
pub use wire::{WireConfig, WireReport, WireSession};
