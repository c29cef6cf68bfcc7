//! Fleet integration tests: end-to-end accounting across shards (also at
//! 512 free-running sessions), QoS shedding order under pressure, chaos
//! replay determinism from one fleet seed, and fleet-wide metrics.

use std::sync::Arc;

use affect_core::pipeline::FeatureConfig;
use affect_fault::{FaultPlan, RtFaultHook};
use affect_fleet::{
    drive_lockstep, AdmissionConfig, Fleet, FleetBuilder, FleetConfig, FleetReport, LoadPlan,
    QosTier,
};
use affect_obs::{MetricsRegistry, VirtualClock};
use affect_rt::{
    silence_injected_panics, CollectActuator, FaultHook, NullActuator, OverflowPolicy,
    RuntimeConfig, RuntimeReport, StageConfig,
};

fn small_runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        window_samples: 256,
        feature: FeatureConfig {
            frame_len: 128,
            hop: 64,
            n_mfcc: 4,
            n_mels: 12,
            ..FeatureConfig::default()
        },
        workers: 1,
        ingest: StageConfig::new(64, OverflowPolicy::Block),
        classify: StageConfig::new(64, OverflowPolicy::Block),
        control: StageConfig::new(64, OverflowPolicy::Block),
        actuate_capacity: 64,
        ..RuntimeConfig::default()
    }
}

/// Builds and drives a fleet: `sessions` wearers cycled over the QoS
/// tiers, `rounds` lockstep rounds, an optional chaos seed. Returns the
/// shutdown report.
fn run_fleet(shards: usize, sessions: usize, rounds: u64, chaos_seed: Option<u64>) -> FleetReport {
    let config = FleetConfig {
        shards,
        runtime: small_runtime_config(),
        ..FleetConfig::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config).unwrap();
    for key in 0..sessions as u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::new(CollectActuator::default()))
            .expect("capacity is ample");
    }
    builder = builder.clock(clock.clone());
    if let Some(seed) = chaos_seed {
        let plan = FaultPlan::chaos(seed);
        builder = builder.fault_hooks(|shard| {
            Arc::new(RtFaultHook::new(plan.for_shard(shard.index()))) as Arc<dyn FaultHook>
        });
    }
    let fleet = builder.start().unwrap();
    let plan = LoadPlan {
        rounds,
        drain_every: Some(1),
        ..LoadPlan::default()
    };
    drive_lockstep(&fleet, &clock, &plan);
    fleet.wait_idle();
    fleet.shutdown()
}

#[test]
fn accounting_holds_across_shards() {
    let report = run_fleet(4, 64, 8, None);
    assert!(report.accounted(), "fleet accounting broke: {report:?}");
    assert_eq!(report.sessions(), 64);
    assert_eq!(report.merged.total_produced(), 64 * 8);
    // Each shard's report individually accounts too.
    for (shard, shard_report) in &report.shards {
        assert!(
            shard_report.all_accounted(),
            "shard {shard:?} broke accounting"
        );
    }
    // Global ids partition across shards without overlap.
    let mut ids: Vec<usize> = report
        .shards
        .iter()
        .flat_map(|(_, r)| r.sessions.iter().map(|s| s.session))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..64).collect::<Vec<_>>());
}

/// Accounting at session-count scale: 512 wearers over 4 shards, driven
/// for 4 free-running rounds with no mid-run drain, so backlog builds and
/// the QoS gate sheds. The per-shard runtime is sized for session count:
/// deep rings, one worker, and a deadline generous enough to keep
/// degradation churn out of the load.
#[test]
fn accounting_holds_for_512_free_running_sessions() {
    const SESSIONS: usize = 512;
    let runtime = RuntimeConfig {
        ingest: StageConfig::new(256, OverflowPolicy::Block),
        classify: StageConfig::new(256, OverflowPolicy::Block),
        control: StageConfig::new(256, OverflowPolicy::Block),
        actuate_capacity: 256,
        deadline_ns: 3_600 * 1_000_000_000,
        ..small_runtime_config()
    };
    let mut config = FleetConfig {
        shards: 4,
        runtime,
        ..FleetConfig::default()
    };
    // Admission is not under test: lift the cap and the reserves so every
    // wearer is admitted regardless of routing skew.
    config.admission.max_sessions_per_shard = SESSIONS;
    config.admission.critical_reserve = 0;
    config.admission.standard_reserve = 0;
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config).unwrap();
    for key in 0..SESSIONS as u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::new(NullActuator))
            .expect("admission cap was lifted");
    }
    let fleet = builder
        .clock(clock.clone())
        .metrics(Arc::new(MetricsRegistry::new()))
        .start()
        .unwrap();
    let plan = LoadPlan {
        rounds: 4,
        drain_every: None,
        ..LoadPlan::default()
    };
    drive_lockstep(&fleet, &clock, &plan);
    fleet.wait_idle();
    let report = fleet.shutdown();
    assert!(report.accounted(), "fleet accounting broke: {report:?}");
    assert_eq!(report.sessions(), SESSIONS);
    assert_eq!(report.admission.offered.total(), SESSIONS as u64 * 4);
}

/// Every shard of a fleet registers its sessions on the one shared
/// registry, so `affect_rt_sessions` counts the whole fleet, not the last
/// shard to start.
#[test]
fn session_gauge_counts_every_shard() {
    let registry = Arc::new(MetricsRegistry::new());
    let config = FleetConfig {
        shards: 3,
        runtime: small_runtime_config(),
        ..FleetConfig::default()
    };
    let mut builder = FleetBuilder::new(config).unwrap();
    for key in 0..12u64 {
        builder
            .add_session(key, QosTier::Standard, Box::new(NullActuator))
            .expect("capacity is ample");
    }
    let fleet = builder.metrics(Arc::clone(&registry)).start().unwrap();
    let report = fleet.shutdown();
    assert!(
        report.shards.len() == 3 && report.shards.iter().all(|(_, r)| !r.sessions.is_empty()),
        "every shard must hold sessions for the gauge to sum over"
    );
    let gauge = registry.gauge("affect_rt_sessions", "registered sessions", &[]);
    assert_eq!(gauge.get(), report.sessions() as i64);
}

#[test]
fn accounting_holds_under_chaos() {
    silence_injected_panics();
    let report = run_fleet(3, 48, 10, Some(42));
    assert!(
        report.accounted(),
        "chaos must never cause silent loss: {report:?}"
    );
    assert!(
        report.merged.total_dropped() > 0,
        "the chaos preset drops ~3% at ingest; 480 windows should lose some"
    );
    assert_eq!(report.merged.total_produced(), 48 * 10);
}

#[test]
fn chaos_replays_identically_from_one_fleet_seed() {
    silence_injected_panics();
    let a = run_fleet(3, 30, 6, Some(7));
    let b = run_fleet(3, 30, 6, Some(7));
    // Window-fate accounting is deterministic: same seed, same per-session
    // produced/processed/dropped everywhere. (Latency and degradation
    // counters depend on wall-clock worker timing, so the comparison is
    // the fate ledger, not the whole report.)
    let fates = |r: &FleetReport| {
        let mut v: Vec<(usize, u64, u64, u64)> = r
            .merged
            .sessions
            .iter()
            .map(|s| (s.session, s.produced, s.processed, s.dropped))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(fates(&a), fates(&b));
    // And a different seed produces a different fate ledger.
    let c = run_fleet(3, 30, 6, Some(8));
    assert_ne!(fates(&a), fates(&c), "seed must steer the fault stream");
}

#[test]
fn best_effort_sheds_first_under_pressure() {
    // A tiny ingest queue plus free-running (no drain) load forces
    // pressure shedding. DropOldest keeps the producer from blocking, so
    // fill stays high and the QoS gate engages.
    let mut runtime = small_runtime_config();
    runtime.ingest = StageConfig::new(8, OverflowPolicy::DropOldest);
    let config = FleetConfig {
        shards: 1,
        runtime,
        admission: AdmissionConfig {
            shed_best_effort_permille: 500,
            shed_standard_permille: 900,
            ..AdmissionConfig::default()
        },
        ..FleetConfig::default()
    };
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config).unwrap();
    for key in 0..12u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::new(CollectActuator::default()))
            .unwrap();
    }
    let fleet = builder.clock(clock.clone()).start().unwrap();
    let plan = LoadPlan {
        rounds: 64,
        drain_every: None, // free-running: let the backlog build
        ..LoadPlan::default()
    };
    drive_lockstep(&fleet, &clock, &plan);
    fleet.wait_idle();
    let report = fleet.shutdown();
    assert!(report.accounted());
    let shed = &report.admission.shed;
    assert_eq!(
        shed.get(QosTier::Critical),
        0,
        "critical windows are never QoS-shed"
    );
    assert!(
        shed.get(QosTier::BestEffort) >= shed.get(QosTier::Standard),
        "best effort must shed at least as much as standard: {shed:?}"
    );
}

/// Admission reserves at fleet scope: a flood of best-effort sessions
/// cannot take the slots reserved for critical wearers.
#[test]
fn reserves_survive_a_best_effort_flood() {
    let config = FleetConfig {
        shards: 2,
        runtime: small_runtime_config(),
        admission: AdmissionConfig {
            max_sessions_per_shard: 8,
            critical_reserve: 2,
            standard_reserve: 2,
            ..AdmissionConfig::default()
        },
        ..FleetConfig::default()
    };
    let mut builder = FleetBuilder::new(config).unwrap();
    // Flood: far more best-effort registrations than the fleet can hold.
    for key in 0..64u64 {
        let _ = builder.add_session(
            key,
            QosTier::BestEffort,
            Box::new(CollectActuator::default()),
        );
    }
    // Every critical wearer still gets a slot out of the reserve.
    let mut critical_admitted = 0;
    for key in 64..68u64 {
        if builder
            .add_session(key, QosTier::Critical, Box::new(CollectActuator::default()))
            .is_some()
        {
            critical_admitted += 1;
        }
    }
    assert_eq!(
        critical_admitted, 4,
        "2 reserved slots per shard x 2 shards"
    );
    let fleet = builder.start().unwrap();
    let report = fleet.shutdown();
    // 2 shards x (8 - 2 - 2) = 8 best-effort slots fleet-wide.
    assert_eq!(report.admission.admitted.get(QosTier::BestEffort), 8);
    assert_eq!(report.admission.rejected.get(QosTier::BestEffort), 56);
    assert_eq!(report.admission.admitted.get(QosTier::Critical), 4);
}

/// The merged report's totals equal the sum of the shard totals — no
/// double counting, no loss in the merge — and merging is order-
/// independent (the underlying histogram merge is commutative).
#[test]
fn merged_report_equals_sum_of_shards() {
    let report = run_fleet(4, 40, 5, None);
    let by_shards: u64 = report.shards.iter().map(|(_, r)| r.total_produced()).sum();
    assert_eq!(report.merged.total_produced(), by_shards);
    let latency_count = |r: &RuntimeReport| r.sessions.iter().map(|s| s.latency.count).sum::<u64>();
    let shard_hist_count: u64 = report.shards.iter().map(|(_, r)| latency_count(r)).sum();
    assert_eq!(latency_count(&report.merged), shard_hist_count);
}

/// Sanity for the shared driver: a fleet of one shard behaves like a
/// plain runtime (same totals, same invariant).
#[test]
fn single_shard_fleet_degenerates_to_one_runtime() {
    let report = run_fleet(1, 10, 4, None);
    assert!(report.accounted());
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.merged.total_produced(), 40);
}

/// Type-level sanity that `Fleet` is `Send + Sync` (producers submit from
/// many threads).
#[test]
fn fleet_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Fleet>();
}
