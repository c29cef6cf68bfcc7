//! Fleet-level reports: per-shard runtime reports remapped onto global
//! session ids, merged into one fleet-wide view, plus the admission
//! controller's own ledger.
//!
//! Two invariants are checked here, and both must hold for
//! [`FleetReport::accounted`] to be `true`:
//!
//! 1. **Runtime accounting** — for every session on every shard,
//!    `produced == processed + dropped` (the `affect-rt` no-silent-loss
//!    invariant, preserved by [`affect_rt::RuntimeReport::merge`]).
//! 2. **Fleet accounting** — for every QoS tier,
//!    `offered == submitted + shed + evicted`: every window the load
//!    source offered the fleet either entered a shard's pipeline, was
//!    explicitly shed by QoS pressure control, or bounced off an evicted
//!    session (memory-pressure eviction refuses its windows before they
//!    are produced). Nothing disappears between the router and the
//!    runtime.

use affect_rt::RuntimeReport;

use crate::qos::{PerTier, QosTier};
use crate::router::ShardId;

/// The admission controller's ledger: sessions at registration time,
/// windows at submit time, both broken down by tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Sessions admitted per tier (across all shards).
    pub admitted: PerTier,
    /// Registrations refused per tier (shard at capacity for that tier).
    pub rejected: PerTier,
    /// Windows the load source offered per tier.
    pub offered: PerTier,
    /// Windows that entered a shard's ingest queue per tier.
    pub submitted: PerTier,
    /// Windows shed pre-submit by QoS pressure control per tier.
    pub shed: PerTier,
    /// Windows refused because their session was evicted by the
    /// memory-pressure governor (and not yet readmitted) per tier.
    pub evicted: PerTier,
    /// Sessions evicted by the memory-pressure governor per tier
    /// (cumulative; a session evicted twice counts twice).
    pub sessions_evicted: PerTier,
    /// Sessions readmitted after pressure receded per tier.
    pub sessions_readmitted: PerTier,
}

impl AdmissionReport {
    /// `true` when every offered window is accounted for per tier:
    /// `offered == submitted + shed + evicted`.
    pub fn accounted(&self) -> bool {
        QosTier::ALL.iter().all(|&t| {
            self.offered.get(t) == self.submitted.get(t) + self.shed.get(t) + self.evicted.get(t)
        })
    }
}

/// Everything the fleet knows about a run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-shard runtime reports with session ids remapped to the fleet's
    /// global id space, in shard order.
    pub shards: Vec<(ShardId, RuntimeReport)>,
    /// All shard reports merged into one fleet-wide runtime report.
    pub merged: RuntimeReport,
    /// The admission controller's session and window ledger.
    pub admission: AdmissionReport,
}

impl FleetReport {
    /// Builds the fleet report from already-remapped shard reports.
    /// `shards` must use globally unique session ids (the fleet remaps
    /// shard-local indices before calling this), otherwise unrelated
    /// sessions merge into one.
    pub fn new(shards: Vec<(ShardId, RuntimeReport)>, admission: AdmissionReport) -> Self {
        let mut merged: Option<RuntimeReport> = None;
        for (_, report) in &shards {
            match merged.as_mut() {
                Some(m) => m.merge(report),
                None => merged = Some(report.clone()),
            }
        }
        let merged = merged.unwrap_or(RuntimeReport {
            sessions: Vec::new(),
            stages: Vec::new(),
            classify: Default::default(),
            faults: Default::default(),
            mem: Default::default(),
        });
        Self {
            shards,
            merged,
            admission,
        }
    }

    /// `true` when both the runtime invariant (per session,
    /// `produced == processed + dropped`) and the fleet invariant (per
    /// tier, `offered == submitted + shed`) hold.
    pub fn accounted(&self) -> bool {
        self.merged.all_accounted() && self.admission.accounted()
    }

    /// Total sessions across all shards.
    pub fn sessions(&self) -> usize {
        self.merged.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_accounting_checks_per_tier() {
        let mut report = AdmissionReport::default();
        *report.offered.get_mut(QosTier::BestEffort) = 10;
        *report.submitted.get_mut(QosTier::BestEffort) = 7;
        *report.shed.get_mut(QosTier::BestEffort) = 3;
        *report.offered.get_mut(QosTier::Critical) = 5;
        *report.submitted.get_mut(QosTier::Critical) = 5;
        assert!(report.accounted());

        // A lost window breaks the invariant in exactly one tier.
        *report.submitted.get_mut(QosTier::BestEffort) = 6;
        assert!(!report.accounted());
        // …and an eviction bounce explains it again.
        *report.evicted.get_mut(QosTier::BestEffort) = 1;
        assert!(report.accounted());
    }

    #[test]
    fn empty_fleet_report_is_accounted() {
        let report = FleetReport::new(Vec::new(), AdmissionReport::default());
        assert!(report.accounted());
        assert_eq!(report.sessions(), 0);
    }
}
