//! `affect-fleet`: a sharded many-session fleet runtime with QoS
//! admission control over `affect-rt`.
//!
//! One `affect-rt` runtime serves N wearers on one device. The paper's
//! end state, though, is *population* scale: an edge gateway (or a test
//! rig) running tens of thousands of concurrent affect sessions. This
//! crate is that layer:
//!
//! - **Shards** — N independent [`affect_rt::Runtime`]s (one per core is
//!   the intended shape), each owning its sessions end-to-end. The fleet
//!   touches a window once, to route it; there are no cross-shard locks
//!   on the hot path.
//! - **Router** — consistent hashing with virtual nodes
//!   ([`HashRing`]): placement is a pure function of the shard set, so
//!   rebalancing on shard add/remove is deterministic and minimal.
//! - **QoS admission** — three tiers ([`QosTier`]) mapped onto the
//!   paper's LSTM → CNN → MLP degradation ladder: a tier fixes a
//!   session's initial classifier family *and* its recovery ceiling.
//!   Registration-time reserves keep best-effort bursts from crowding
//!   out critical wearers; submit-time pressure shedding drops the low
//!   tiers first when a shard's ingest queue fills.
//! - **Aggregation** — shutdown merges every shard's report into one
//!   fleet-wide [`FleetReport`]: histograms bucket-wise, counters
//!   summed, session ids remapped to a global space, and *two*
//!   accounting invariants checked — the runtime's
//!   `produced == processed + dropped` per session, and the fleet's
//!   `offered == submitted + shed` per tier.
//! - **Observability** — the `affect_fleet_*` series (routing,
//!   admission, shedding) through `affect-obs`; shards sharing one
//!   registry aggregate the existing `affect_rt_*` series fleet-wide for
//!   free.
//! - **Chaos** — per-shard fault hooks slot into the same
//!   [`affect_rt::FaultHook`] seam; `affect-fault`'s
//!   `FaultPlan::for_shard` derives decorrelated per-shard streams from
//!   one fleet seed, so a 10k-session chaos run replays exactly.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use affect_fleet::{FleetBuilder, FleetConfig, QosTier};
//! use affect_obs::VirtualClock;
//! use affect_rt::CollectActuator;
//!
//! # fn main() -> Result<(), affect_core::AffectError> {
//! let mut config = FleetConfig {
//!     shards: 2,
//!     ..FleetConfig::default()
//! };
//! config.runtime.window_samples = 256;
//! config.runtime.feature.frame_len = 128;
//! config.runtime.feature.hop = 64;
//! config.runtime.workers = 1;
//! let clock = Arc::new(VirtualClock::new());
//! let mut builder = FleetBuilder::new(config)?;
//! let session = builder
//!     .add_session(7, QosTier::Critical, Box::new(CollectActuator::default()))
//!     .expect("admission");
//! let fleet = builder.clock(clock).start()?;
//! fleet.submit(session, vec![0.25; 256]);
//! fleet.wait_idle();
//! let report = fleet.shutdown();
//! assert!(report.accounted());
//! assert_eq!(report.merged.total_produced(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod driver;
pub mod fleet;
pub mod metrics;
pub mod qos;
pub mod report;
pub mod router;
pub mod wire;

pub use driver::{drive_lockstep, synth_window, LoadOutcome, LoadPlan};
pub use fleet::{Fleet, FleetBuilder, FleetConfig, FleetSessionId, SubmitOutcome};
pub use metrics::{FleetMetrics, TierMetrics};
pub use qos::{AdmissionConfig, PerTier, QosTier, ShardOccupancy};
pub use report::{AdmissionReport, FleetReport};
pub use router::{HashRing, ShardId};
pub use wire::{drive_wire, FleetWireReport, TierWirePolicy, WirePlan};
