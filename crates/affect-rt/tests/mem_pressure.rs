//! Memory-pressure integration tests: the runtime keeps the byte ledger
//! and acts on no band, so a deterministic walk through all four pressure
//! bands on a virtual clock moves no session off its family, widens no
//! interval, sheds no window and leaves a faithful `MemReport` behind.
//! Eviction, which a fleet drives, freezes a session's ledger exactly;
//! readmission resumes it.

use std::sync::Arc;

use affect_core::classifier::ClassifierKind;
use affect_core::pipeline::FeatureConfig;
use affect_obs::VirtualClock;
use affect_rt::{CollectActuator, MemConsumer, PressureBand, RuntimeBuilder, RuntimeConfig};

fn fast_config() -> RuntimeConfig {
    RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        },
        window_samples: 1024,
        ..RuntimeConfig::default()
    }
}

const BUDGET: u64 = 1 << 30; // 1 GiB: real charges stay far below 700‰

/// Phantom bytes that land the budget in `permille` of `BUDGET`.
fn phantom_permille(permille: u64) -> u64 {
    BUDGET / 1000 * permille
}

/// The band walk: Green → Yellow → Red → Critical → Green on a virtual
/// clock. Every band is entered, and the session stays on the LSTM at
/// interval 1 and processes every window: the deadline is the ladder's
/// only trigger, and the frozen clock never misses it.
#[test]
fn band_walk_leaves_the_ladder_and_the_interval_alone() {
    let config = RuntimeConfig {
        workers: 1,
        miss_streak: 1, // one pressured window would step, were pressure a trigger
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .clock(Arc::new(VirtualClock::new()))
        .start()
        .unwrap();
    let mem = Arc::clone(runtime.memory_budget());
    assert_eq!(mem.budget_bytes(), 0, "a runtime's budget starts disabled");
    mem.set_budget_bytes(BUDGET);
    assert_eq!(mem.refresh(), PressureBand::Green);

    // Three windows per band, each fully drained, so every window is
    // actuated under exactly the band set for its phase.
    let walk = [
        (0, PressureBand::Green),
        (720, PressureBand::Yellow),
        (870, PressureBand::Red),
        (960, PressureBand::Critical),
        (0, PressureBand::Green),
    ];
    for (permille, band) in walk {
        mem.set_phantom(phantom_permille(permille));
        assert_eq!(mem.refresh(), band);
        for _ in 0..3 {
            assert!(runtime.submit(session, vec![0.2; 1024]), "under {band:?}");
            runtime.wait_idle();
        }
        let s = &runtime.report().sessions[0];
        assert_eq!(s.family, ClassifierKind::Lstm, "under {band:?}");
        assert_eq!(s.decision_interval, 1, "under {band:?}");
    }
    // By now the real consumers are all charged: rings, the worker's
    // scratch arena and the classifier pool's tables count against the
    // budget — and still leave this roomy budget deep in Green.
    assert!(mem.used_by(MemConsumer::ModelTables) > 0, "tables charged");
    assert!(mem.used_by(MemConsumer::ScratchPools) > 0, "arena charged");
    assert!(mem.used_by(MemConsumer::RingQueues) > 0, "rings charged");
    assert!(mem.used_bytes() < BUDGET / 2, "test budget is roomy");

    let report = runtime.shutdown().report;
    let s = &report.sessions[0];
    assert_eq!(s.produced, 15);
    assert_eq!(s.processed, 15, "no band sheds a window");
    assert_eq!(s.dropped, 0);
    assert_eq!((s.degradations, s.recoveries), (0, 0));
    assert!(report.all_accounted());

    // The report's memory section records the walk: every band was
    // entered, the phantom release ended the run Green, and a clean
    // shutdown released every byte the runtime charged.
    assert_eq!(report.mem.budget_bytes, BUDGET);
    assert_eq!(report.mem.band, PressureBand::Green as u8);
    assert_eq!(report.mem.used_bytes, 0, "{report:?}");
    for (band, count) in PressureBand::ALL.iter().zip(report.mem.band_transitions) {
        assert!(count >= 1, "band {band:?} never entered: {report:?}");
    }
}

/// Eviction freezes a session's ledger exactly — `produced` stops moving,
/// `produced == processed + dropped` holds the moment `remove_session`
/// returns — and readmission resumes the same session in place.
#[test]
fn eviction_freezes_accounting_and_readmission_resumes() {
    let mut builder = RuntimeBuilder::new(fast_config()).unwrap();
    let victim = builder.add_session(Box::<CollectActuator>::default());
    let survivor = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder.start().unwrap();

    for _ in 0..3 {
        assert!(runtime.submit(victim, vec![0.2; 1024]));
        assert!(runtime.submit(survivor, vec![0.2; 1024]));
    }
    runtime.wait_idle();

    assert!(!runtime.session_evicted(victim));
    assert!(runtime.remove_session(victim), "first eviction wins");
    assert!(!runtime.remove_session(victim), "second is a no-op");
    assert!(runtime.session_evicted(victim));

    // remove_session blocked until in-flight windows were accounted, so
    // the frozen ledger is exact right now, not just at shutdown.
    let frozen = runtime.report();
    let v = &frozen.sessions[victim.index()];
    assert_eq!(v.produced, 3);
    assert_eq!(v.produced, v.processed + v.dropped);
    assert!(v.evicted);

    // Submits bounce off the evicted session before being produced; the
    // survivor is untouched.
    assert!(!runtime.submit(victim, vec![0.2; 1024]));
    assert!(runtime.submit(survivor, vec![0.2; 1024]));
    runtime.wait_idle();
    assert_eq!(runtime.report().sessions[victim.index()].produced, 3);

    assert!(runtime.readmit_session(victim), "was evicted");
    assert!(!runtime.readmit_session(victim), "already back");
    assert!(runtime.submit(victim, vec![0.2; 1024]));
    runtime.wait_idle();

    let report = runtime.shutdown().report;
    assert!(report.all_accounted());
    let v = &report.sessions[victim.index()];
    assert_eq!(v.produced, 4, "readmitted session kept producing");
    assert!(!v.evicted, "readmission cleared the flag");
    assert_eq!(report.sessions[survivor.index()].produced, 4);
}
