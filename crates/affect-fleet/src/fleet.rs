//! The fleet: N runtime shards behind one router and one admission
//! controller.
//!
//! Each shard is a complete [`affect_rt::Runtime`] — its own worker
//! threads, queues, supervision, and statistics — owning its sessions
//! end-to-end. The fleet layer never touches a window after routing it:
//! there are no cross-shard locks on the hot path, so shards scale the
//! way independent runtimes do (one per core is the intended shape).
//!
//! What the fleet adds on top:
//!
//! - **Routing** — a session key is consistently hashed to its owning
//!   shard at registration; every later submit for that session goes
//!   straight to the same runtime.
//! - **Admission** — per-shard capacity with reserves for the higher QoS
//!   tiers ([`AdmissionConfig`]); a refused registration is counted, not
//!   silently dropped.
//! - **Pressure shedding** — each submit consults the owning shard's
//!   ingest fill and sheds `BestEffort` (then `Standard`) windows before
//!   the queue's overflow policy would evict blindly. Shed windows are
//!   tallied per tier so `offered == submitted + shed + evicted` always
//!   holds.
//! - **Memory-pressure eviction** — [`Fleet::enforce_pressure`] reads each
//!   shard's [`affect_rt::MemoryBudget`] band: at `Red` it evicts
//!   `BestEffort` sessions (ascending global id), at `Critical` it evicts
//!   `Standard` sessions too; `Critical`-tier sessions are never evicted.
//!   When a shard returns to `Green` its evicted sessions are readmitted
//!   in the same deterministic order. A submit against an evicted session
//!   bounces cleanly (tallied per tier as `evicted`) without ever being
//!   produced, so both accounting invariants hold mid-eviction.
//! - **Aggregation** — shutdown merges every shard's [`RuntimeReport`]
//!   (histograms bucket-wise, counters summed) after remapping
//!   shard-local session ids onto the fleet's global id space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use affect_core::AffectError;
use affect_obs::{Clock, MetricsRegistry};
use affect_rt::{
    Actuator, FaultHook, MemoryBudget, PressureBand, Runtime, RuntimeBuilder, RuntimeConfig,
    RuntimeReport, SessionId,
};
use nn::Precision;

use crate::metrics::FleetMetrics;
use crate::qos::{AdmissionConfig, PerTier, QosTier, ShardOccupancy};
use crate::report::{AdmissionReport, FleetReport};
use crate::router::{HashRing, ShardId};

/// Configuration of a fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of runtime shards (one per core is the intended shape).
    pub shards: usize,
    /// Virtual nodes per shard on the router's hash ring.
    pub replicas: usize,
    /// Per-shard runtime configuration template. Each session starts at
    /// its QoS tier's family and runs at f32.
    pub runtime: RuntimeConfig,
    /// Admission capacity and shedding thresholds.
    pub admission: AdmissionConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            replicas: 64,
            runtime: RuntimeConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Handle to one admitted fleet session: where it lives and what was
/// promised to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSessionId {
    /// Globally unique id (dense, in admission order) — the id the merged
    /// fleet report uses.
    pub global: usize,
    /// The shard that owns the session.
    pub shard: ShardId,
    /// The session's id inside its shard's runtime.
    pub local: SessionId,
    /// The session's QoS tier.
    pub tier: QosTier,
}

/// Per-tier atomic window tallies (submit is called from many producer
/// threads; the ledger must not serialize them).
#[derive(Debug, Default)]
struct AtomicPerTier {
    by_tier: [AtomicU64; 3],
}

impl AtomicPerTier {
    fn inc(&self, tier: QosTier) {
        self.by_tier[tier.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PerTier {
        PerTier {
            by_tier: std::array::from_fn(|i| self.by_tier[i].load(Ordering::Relaxed)),
        }
    }
}

/// Builds a [`Fleet`]: registers sessions through admission control, then
/// starts every non-empty shard.
pub struct FleetBuilder {
    config: FleetConfig,
    ring: HashRing,
    builders: Vec<RuntimeBuilder>,
    occupancy: Vec<ShardOccupancy>,
    /// Per shard: local session index → global id.
    local_to_global: Vec<Vec<usize>>,
    sessions: Vec<FleetSessionId>,
    rejected: PerTier,
    clock: Option<Arc<dyn Clock>>,
    registry: Option<Arc<MetricsRegistry>>,
    fault_hooks: Vec<Option<Arc<dyn FaultHook>>>,
}

impl FleetBuilder {
    /// Creates a builder with `config.shards` empty shards.
    pub fn new(config: FleetConfig) -> Result<Self, AffectError> {
        if config.shards == 0 {
            return Err(AffectError::InvalidParameter {
                name: "shards",
                reason: "a fleet needs at least one shard",
            });
        }
        if config.admission.max_sessions_per_shard == 0 {
            return Err(AffectError::InvalidParameter {
                name: "max_sessions_per_shard",
                reason: "must be at least 1",
            });
        }
        let builders = (0..config.shards)
            .map(|_| RuntimeBuilder::new(config.runtime.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            ring: HashRing::with_shards(config.shards, config.replicas),
            occupancy: vec![ShardOccupancy::default(); config.shards],
            local_to_global: vec![Vec::new(); config.shards],
            fault_hooks: vec![None; config.shards],
            sessions: Vec::new(),
            rejected: PerTier::default(),
            clock: None,
            registry: None,
            builders,
            config,
        })
    }

    /// Shares one clock across every shard (lockstep virtual-time runs).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Shares one metrics registry across every shard. The registry is
    /// idempotent per `(name, labels)`, so the per-runtime `affect_rt_*`
    /// series aggregate fleet-wide automatically, and the fleet's own
    /// `affect_fleet_*` series are registered alongside them.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Installs a fault hook per shard via `factory`. For replayable
    /// chaos, derive each shard's hook from one fleet seed (e.g.
    /// `FaultPlan::chaos(seed).for_shard(shard.index())`) so the whole
    /// fleet replays from a single seed with decorrelated per-shard
    /// streams.
    pub fn fault_hooks(mut self, factory: impl Fn(ShardId) -> Arc<dyn FaultHook>) -> Self {
        for (i, slot) in self.fault_hooks.iter_mut().enumerate() {
            *slot = Some(factory(ShardId(i)));
        }
        self
    }

    /// Routes `key` to its shard and asks admission control for a slot.
    /// On admission the session starts in (and is ceilinged at) its
    /// tier's classifier family. Returns `None` when the owning shard is
    /// at capacity for that tier — the refusal is tallied in the fleet
    /// report.
    pub fn add_session(
        &mut self,
        key: u64,
        tier: QosTier,
        actuator: Box<dyn Actuator>,
    ) -> Option<FleetSessionId> {
        let shard = self.ring.route(key);
        if !self.occupancy[shard.index()].try_admit(tier, &self.config.admission) {
            *self.rejected.get_mut(tier) += 1;
            return None;
        }
        let local = self.builders[shard.index()].add_session_with_precision(
            actuator,
            tier.initial_family(),
            Precision::F32,
        );
        let id = FleetSessionId {
            global: self.sessions.len(),
            shard,
            local,
            tier,
        };
        self.local_to_global[shard.index()].push(id.global);
        self.sessions.push(id);
        Some(id)
    }

    /// Sessions admitted so far, per tier.
    pub fn admitted(&self) -> PerTier {
        let mut total = PerTier::default();
        for occ in &self.occupancy {
            total.add(&occ.admitted);
        }
        total
    }

    /// Starts every shard that owns at least one session. Shards the
    /// router left empty (possible with few sessions and many shards) are
    /// skipped — they own nothing, so no submit can ever target them.
    pub fn start(self) -> Result<Fleet, AffectError> {
        let admitted = self.admitted();
        let metrics = self.registry.as_deref().map(FleetMetrics::register);
        if let (Some(m), Some(registry)) = (&metrics, self.registry.as_deref()) {
            m.shards.set(self.config.shards as i64);
            for tier in QosTier::ALL {
                m.tier(tier).sessions.set(admitted.get(tier) as i64);
                m.tier(tier).rejected.add(self.rejected.get(tier));
            }
            for (i, occ) in self.occupancy.iter().enumerate() {
                FleetMetrics::set_shard_sessions(registry, ShardId(i), occ.total());
            }
        }
        let mut shards = Vec::with_capacity(self.config.shards);
        for (i, mut builder) in self.builders.into_iter().enumerate() {
            if self.local_to_global[i].is_empty() {
                shards.push(None);
                continue;
            }
            if let Some(clock) = &self.clock {
                builder = builder.clock(Arc::clone(clock));
            }
            if let Some(registry) = &self.registry {
                builder = builder.metrics(Arc::clone(registry));
            }
            if let Some(hook) = &self.fault_hooks[i] {
                builder = builder.fault_hook(Arc::clone(hook));
            }
            shards.push(Some(builder.start()?));
        }
        Ok(Fleet {
            admission: self.config.admission,
            window_samples: self.config.runtime.window_samples,
            shards,
            sessions: self.sessions,
            local_to_global: self.local_to_global,
            admitted,
            rejected: self.rejected,
            offered: AtomicPerTier::default(),
            submitted: AtomicPerTier::default(),
            shed: AtomicPerTier::default(),
            evicted: AtomicPerTier::default(),
            sessions_evicted: AtomicPerTier::default(),
            sessions_readmitted: AtomicPerTier::default(),
            metrics,
        })
    }
}

/// A running fleet of runtime shards. See the module docs for the
/// architecture.
pub struct Fleet {
    admission: AdmissionConfig,
    /// Samples per window, from the one `RuntimeConfig` every shard runs.
    window_samples: usize,
    /// One runtime per shard; `None` for shards the router left empty.
    shards: Vec<Option<Runtime>>,
    sessions: Vec<FleetSessionId>,
    local_to_global: Vec<Vec<usize>>,
    admitted: PerTier,
    rejected: PerTier,
    offered: AtomicPerTier,
    submitted: AtomicPerTier,
    shed: AtomicPerTier,
    evicted: AtomicPerTier,
    sessions_evicted: AtomicPerTier,
    sessions_readmitted: AtomicPerTier,
    metrics: Option<FleetMetrics>,
}

/// What happened to one offered window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The window entered its shard's ingest queue (it may still be
    /// decimated or shed *inside* the runtime — that shows up in the
    /// shard's own accounting, never as silent loss).
    Submitted,
    /// QoS pressure control shed the window before it reached the shard.
    Shed,
    /// The session is currently evicted by the memory-pressure governor;
    /// the window bounced before it was produced, so the session's
    /// accounting stayed frozen exactly where eviction left it.
    Evicted,
}

impl Fleet {
    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of admitted sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Samples per window the shards' runtimes were configured with; a
    /// window of any other length is refused at their feature stage.
    pub(crate) fn window_samples(&self) -> usize {
        self.window_samples
    }

    /// The handle of an admitted session by global id.
    pub fn session(&self, global: usize) -> FleetSessionId {
        self.sessions[global]
    }

    /// Offers one window for `session`. Under ingest pressure on the
    /// owning shard, `BestEffort` windows are shed first and `Standard`
    /// next; `Critical` windows always go through to the runtime. Windows
    /// for a session the memory-pressure governor has evicted bounce
    /// before they are produced. Either way the window is tallied:
    /// `offered == submitted + shed + evicted` per tier, always.
    pub fn submit(&self, session: FleetSessionId, samples: Vec<f32>) -> SubmitOutcome {
        let tier = session.tier;
        self.offered.inc(tier);
        let runtime = self.shards[session.shard.index()]
            .as_ref()
            .expect("session routed to an empty shard");
        if runtime.session_evicted(session.local) {
            self.evicted.inc(tier);
            if let Some(m) = &self.metrics {
                m.tier(tier).offered.inc();
                m.tier(tier).windows_evicted.inc();
            }
            return SubmitOutcome::Evicted;
        }
        if self
            .admission
            .should_shed(tier, runtime.ingest_depth(), runtime.ingest_capacity())
        {
            self.shed.inc(tier);
            if let Some(m) = &self.metrics {
                m.tier(tier).offered.inc();
                m.tier(tier).shed.inc();
            }
            return SubmitOutcome::Shed;
        }
        if !runtime.submit(session.local, samples) && runtime.session_evicted(session.local) {
            // The governor evicted the session between the pre-check and
            // the submit: the runtime refused the window before producing
            // it, so it belongs in the evicted ledger, not submitted.
            self.evicted.inc(tier);
            if let Some(m) = &self.metrics {
                m.tier(tier).offered.inc();
                m.tier(tier).windows_evicted.inc();
            }
            return SubmitOutcome::Evicted;
        }
        self.submitted.inc(tier);
        if let Some(m) = &self.metrics {
            m.tier(tier).offered.inc();
            m.tier(tier).submitted.inc();
        }
        SubmitOutcome::Submitted
    }

    /// Runs one pass of the memory-pressure eviction governor and returns
    /// the worst pressure band seen across shards.
    ///
    /// Per shard, the shard's [`affect_rt::MemoryBudget`] band (recomputed
    /// from live usage) dictates the response:
    ///
    /// - `Red` — every `BestEffort` session on the shard is evicted, in
    ///   ascending global-id order.
    /// - `Critical` — `Standard` sessions are evicted too (`BestEffort`
    ///   first, then `Standard`, each in ascending global-id order).
    ///   `Critical`-tier sessions are *never* evicted.
    /// - `Green` — previously evicted sessions are readmitted in ascending
    ///   global-id order.
    ///
    /// Each eviction blocks until the session's in-flight windows drain
    /// ([`affect_rt::Runtime::remove_session`]), so the session's
    /// accounting is frozen exactly (`produced == processed + dropped`)
    /// the moment this returns. The pass is deterministic: the same band
    /// sequence against the same session set always evicts and readmits
    /// in the same order. Call it from the fleet's control plane at
    /// whatever cadence suits the deployment (the chaos driver ticks it
    /// once per submitted window).
    pub fn enforce_pressure(&self) -> PressureBand {
        let mut worst = PressureBand::Green;
        for (i, runtime) in self.shards.iter().enumerate() {
            let Some(runtime) = runtime else { continue };
            let band = runtime.memory_budget().refresh();
            worst = worst.max(band);
            if band >= PressureBand::Red {
                // BestEffort goes first; Standard only at Critical. The
                // outer tier loop keeps the order deterministic even when
                // both tiers go in one pass.
                for tier in [QosTier::BestEffort, QosTier::Standard] {
                    if tier == QosTier::Standard && band < PressureBand::Critical {
                        continue;
                    }
                    for session in self.sessions.iter() {
                        if session.shard.index() != i || session.tier != tier {
                            continue;
                        }
                        if runtime.remove_session(session.local) {
                            self.sessions_evicted.inc(tier);
                            if let Some(m) = &self.metrics {
                                m.tier(tier).sessions_evicted.inc();
                                m.tier(tier).sessions.add(-1);
                            }
                        }
                    }
                }
            } else if band == PressureBand::Green {
                for session in self.sessions.iter() {
                    if session.shard.index() != i {
                        continue;
                    }
                    if runtime.readmit_session(session.local) {
                        self.sessions_readmitted.inc(session.tier);
                        if let Some(m) = &self.metrics {
                            m.tier(session.tier).sessions_readmitted.inc();
                            m.tier(session.tier).sessions.add(1);
                        }
                    }
                }
            }
        }
        worst
    }

    /// The memory budget of one shard's runtime, or `None` for a shard
    /// the router left empty. Each shard's budget starts disabled (0 bytes,
    /// always Green); a control plane sizes it here
    /// ([`MemoryBudget::set_budget_bytes`]) and reads usage before calling
    /// [`Fleet::enforce_pressure`]; a chaos harness injects phantom charges
    /// through the same handle.
    pub fn shard_budget(&self, shard: usize) -> Option<&Arc<MemoryBudget>> {
        self.shards.get(shard)?.as_ref().map(Runtime::memory_budget)
    }

    /// Deepest ingest backlog across shards (pressure diagnostics).
    pub fn max_ingest_depth(&self) -> usize {
        self.shards
            .iter()
            .flatten()
            .map(Runtime::ingest_depth)
            .max()
            .unwrap_or(0)
    }

    /// Blocks until every shard has drained its pipeline.
    pub fn wait_idle(&self) {
        for runtime in self.shards.iter().flatten() {
            runtime.wait_idle();
        }
    }

    /// Shuts every shard down and assembles the fleet report: per-shard
    /// runtime reports with session ids remapped onto the global id
    /// space, their merge, and the admission ledger.
    pub fn shutdown(self) -> FleetReport {
        let mut shard_reports: Vec<(ShardId, RuntimeReport)> = Vec::new();
        for (i, runtime) in self.shards.into_iter().enumerate() {
            let Some(runtime) = runtime else { continue };
            let mut report = runtime.shutdown().report;
            for session in &mut report.sessions {
                session.session = self.local_to_global[i][session.session];
            }
            shard_reports.push((ShardId(i), report));
        }
        let admission = AdmissionReport {
            admitted: self.admitted,
            rejected: self.rejected,
            offered: self.offered.snapshot(),
            submitted: self.submitted.snapshot(),
            shed: self.shed.snapshot(),
            evicted: self.evicted.snapshot(),
            sessions_evicted: self.sessions_evicted.snapshot(),
            sessions_readmitted: self.sessions_readmitted.snapshot(),
        };
        FleetReport::new(shard_reports, admission)
    }
}

#[cfg(test)]
mod tests {
    use affect_obs::VirtualClock;
    use affect_rt::{CollectActuator, OverflowPolicy, StageConfig};

    use super::*;

    fn small_runtime_config() -> RuntimeConfig {
        RuntimeConfig {
            window_samples: 256,
            feature: affect_core::pipeline::FeatureConfig {
                frame_len: 128,
                hop: 64,
                n_mfcc: 4,
                n_mels: 12,
                ..Default::default()
            },
            workers: 1,
            ingest: StageConfig::new(64, OverflowPolicy::Block),
            classify: StageConfig::new(64, OverflowPolicy::Block),
            control: StageConfig::new(64, OverflowPolicy::Block),
            actuate_capacity: 64,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn sessions_land_on_their_routed_shard_and_reports_remap() {
        let config = FleetConfig {
            shards: 3,
            runtime: small_runtime_config(),
            ..FleetConfig::default()
        };
        let ring = HashRing::with_shards(config.shards, config.replicas);
        let mut builder = FleetBuilder::new(config).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let mut ids = Vec::new();
        for key in 0..12u64 {
            let id = builder
                .add_session(key, QosTier::Standard, Box::new(CollectActuator::default()))
                .expect("capacity is ample");
            assert_eq!(id.shard, ring.route(key));
            ids.push(id);
        }
        let fleet = builder.clock(clock).start().unwrap();
        assert_eq!(fleet.session_count(), 12);
        for id in &ids {
            fleet.submit(*id, vec![0.2; 256]);
        }
        fleet.wait_idle();
        let report = fleet.shutdown();
        assert!(report.accounted());
        // Every global id appears exactly once in the merged report.
        let mut seen: Vec<usize> = report.merged.sessions.iter().map(|s| s.session).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..12).collect::<Vec<_>>());
        assert_eq!(report.merged.total_produced(), 12);
        assert_eq!(report.admission.submitted.total(), 12);
        assert_eq!(report.admission.shed.total(), 0);
    }

    #[test]
    fn rejected_sessions_are_tallied_not_lost() {
        let config = FleetConfig {
            shards: 1,
            runtime: small_runtime_config(),
            admission: AdmissionConfig {
                max_sessions_per_shard: 3,
                critical_reserve: 1,
                standard_reserve: 0,
                ..AdmissionConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut builder = FleetBuilder::new(config).unwrap();
        let mut admitted = 0;
        for key in 0..5u64 {
            if builder
                .add_session(
                    key,
                    QosTier::BestEffort,
                    Box::new(CollectActuator::default()),
                )
                .is_some()
            {
                admitted += 1;
            }
        }
        // Cap 3 minus the critical reserve of 1 leaves 2 best-effort slots.
        assert_eq!(admitted, 2);
        let fleet = builder.start().unwrap();
        let report = fleet.shutdown();
        assert_eq!(report.admission.admitted.get(QosTier::BestEffort), 2);
        assert_eq!(report.admission.rejected.get(QosTier::BestEffort), 3);
        assert!(report.accounted());
    }

    #[test]
    fn tier_sets_the_initial_family() {
        let config = FleetConfig {
            shards: 1,
            runtime: small_runtime_config(),
            ..FleetConfig::default()
        };
        let mut builder = FleetBuilder::new(config).unwrap();
        let best = builder
            .add_session(0, QosTier::BestEffort, Box::new(CollectActuator::default()))
            .unwrap();
        let crit = builder
            .add_session(1, QosTier::Critical, Box::new(CollectActuator::default()))
            .unwrap();
        let fleet = builder.start().unwrap();
        let report = fleet.shutdown();
        use affect_core::classifier::ClassifierKind;
        let family_of = |global: usize| {
            report
                .merged
                .sessions
                .iter()
                .find(|s| s.session == global)
                .unwrap()
                .family
        };
        assert_eq!(family_of(best.global), ClassifierKind::Mlp);
        assert_eq!(family_of(crit.global), ClassifierKind::Lstm);
    }

    #[test]
    fn pressure_evicts_low_tiers_first_and_readmits_on_green() {
        let config = FleetConfig {
            shards: 1,
            runtime: small_runtime_config(),
            ..FleetConfig::default()
        };
        let mut builder = FleetBuilder::new(config).unwrap();
        let best = builder
            .add_session(0, QosTier::BestEffort, Box::new(CollectActuator::default()))
            .unwrap();
        let std_tier = builder
            .add_session(1, QosTier::Standard, Box::new(CollectActuator::default()))
            .unwrap();
        let crit = builder
            .add_session(2, QosTier::Critical, Box::new(CollectActuator::default()))
            .unwrap();
        let fleet = builder.start().unwrap();

        // Warm every session up first so the scratch arenas reach their
        // fixed point, then scale the budget off the shard's real
        // footprint: base usage sits at 100‰ and the phantom charge alone
        // decides the band.
        assert_eq!(fleet.submit(best, vec![0.1; 256]), SubmitOutcome::Submitted);
        assert_eq!(
            fleet.submit(std_tier, vec![0.1; 256]),
            SubmitOutcome::Submitted
        );
        assert_eq!(fleet.submit(crit, vec![0.1; 256]), SubmitOutcome::Submitted);
        fleet.wait_idle();
        let base = fleet.shards[0].as_ref().unwrap().memory_budget().clone();
        let real = base.used_bytes();
        assert!(real > 0, "rings and model tables must be charged");
        base.set_budget_bytes(real * 10);
        assert_eq!(fleet.enforce_pressure(), affect_rt::PressureBand::Green);

        // Red: BestEffort is evicted; Standard and Critical ride on.
        base.set_phantom(real * 9 - real); // 900‰ total
        assert_eq!(fleet.enforce_pressure(), affect_rt::PressureBand::Red);
        assert_eq!(fleet.submit(best, vec![0.1; 256]), SubmitOutcome::Evicted);
        assert_eq!(
            fleet.submit(std_tier, vec![0.1; 256]),
            SubmitOutcome::Submitted
        );

        // Critical: Standard goes too; the Critical tier never does.
        base.set_phantom(real * 10 - real); // 1000‰ total
        assert_eq!(fleet.enforce_pressure(), affect_rt::PressureBand::Critical);
        assert_eq!(
            fleet.submit(std_tier, vec![0.1; 256]),
            SubmitOutcome::Evicted
        );
        assert_eq!(fleet.submit(crit, vec![0.1; 256]), SubmitOutcome::Submitted);

        // Pressure recedes: everyone is readmitted, in order.
        base.set_phantom(0);
        assert_eq!(fleet.enforce_pressure(), affect_rt::PressureBand::Green);
        assert_eq!(fleet.submit(best, vec![0.1; 256]), SubmitOutcome::Submitted);
        assert_eq!(
            fleet.submit(std_tier, vec![0.1; 256]),
            SubmitOutcome::Submitted
        );

        fleet.wait_idle();
        let report = fleet.shutdown();
        assert!(report.accounted());
        let admission = &report.admission;
        assert_eq!(admission.sessions_evicted.by_tier, [1, 1, 0]);
        assert_eq!(admission.sessions_readmitted.by_tier, [1, 1, 0]);
        assert_eq!(admission.evicted.by_tier, [1, 1, 0]);
        assert_eq!(admission.offered.by_tier, [3, 4, 2]);
        assert_eq!(admission.submitted.by_tier, [2, 3, 2]);
    }
}
