//! Memory-pressure governor integration tests: a deterministic walk
//! through all four pressure bands on a virtual clock must collapse the
//! classify batch, step sessions down the degradation ladder (and back up
//! on Green), keep the accounting invariant at every band, and leave a
//! faithful [`MemReport`] behind. Eviction freezes a session's ledger
//! exactly; readmission resumes it.

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

/// The acceptance walk: Green → Yellow → Red → Critical → Green on a
/// virtual clock. Every band transition is recorded, sustained pressure
/// (latency never misses — the clock is frozen) walks the session
/// LSTM → CNN → MLP → HDC, and a Green band climbs it all the way back.
#[test]
fn pressure_walk_hits_all_bands_and_walks_the_ladder_both_ways() {
    let config = RuntimeConfig {
        workers: 1,
        miss_streak: 1, // every pressured window is a ladder step
        ok_streak: 1,   // every calm window is a recovery step
        memory_budget_bytes: BUDGET,
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .clock(Arc::new(VirtualClock::new()))
        .start()
        .unwrap();
    let mem = Arc::clone(runtime.memory_budget());

    assert_eq!(mem.refresh(), PressureBand::Green);

    // One window at a time, fully drained, so every window is actuated
    // under exactly the band set for its phase. The return value is not
    // asserted: once the ladder widens the decision interval, every other
    // submit is decimated (accounted as dropped) by design.
    let submit_one = || {
        runtime.submit(session, vec![0.2; 1024]);
        runtime.wait_idle();
    };

    // Green: no pressure, no movement.
    for _ in 0..3 {
        submit_one();
    }
    assert_eq!(runtime.report().sessions[0].family, ClassifierKind::Lstm);
    // By now the real consumers are all charged: rings, the worker's
    // scratch arena and the classifier pool's tables count against the
    // budget — and still leave this roomy budget deep in Green.
    assert!(mem.used_by(MemConsumer::ModelTables) > 0, "tables charged");
    assert!(mem.used_by(MemConsumer::ScratchPools) > 0, "arena charged");
    assert!(mem.used_by(MemConsumer::RingQueues) > 0, "rings charged");
    assert!(mem.used_bytes() < BUDGET / 2, "test budget is roomy");

    // Yellow: the first pressured window steps LSTM → CNN and widens the
    // decision interval to 2, so from here every other submit is
    // decimated; the windows that do run keep walking CNN → MLP → HDC.
    mem.set_phantom(phantom_permille(720));
    assert_eq!(mem.refresh(), PressureBand::Yellow);
    submit_one(); // seq 3: runs, LSTM → CNN, interval 1 → 2
    assert_eq!(runtime.report().sessions[0].family, ClassifierKind::Cnn);
    submit_one(); // seq 4: runs, CNN → MLP
    submit_one(); // seq 5: decimated
    submit_one(); // seq 6: runs, MLP → HDC
    assert_eq!(runtime.report().sessions[0].family, ClassifierKind::Hdc);

    // Red and Critical: already at the floor — the band still registers
    // and the accounting invariant holds window by window.
    mem.set_phantom(phantom_permille(870));
    assert_eq!(mem.refresh(), PressureBand::Red);
    submit_one(); // seq 7: decimated
    submit_one(); // seq 8: runs under Red
    mem.set_phantom(phantom_permille(960));
    assert_eq!(mem.refresh(), PressureBand::Critical);
    submit_one(); // seq 9: decimated
    submit_one(); // seq 10: runs under Critical
    assert!(runtime.report().all_accounted());
    assert_eq!(runtime.report().sessions[0].family, ClassifierKind::Hdc);

    // Green again: the first processed window restores the interval, the
    // next three climb HDC → MLP → CNN → LSTM.
    mem.set_phantom(0);
    assert_eq!(mem.refresh(), PressureBand::Green);
    submit_one(); // seq 11: decimated (interval still 2)
    submit_one(); // seq 12: runs, interval 2 → 1
    for _ in 0..3 {
        submit_one(); // seqs 13-15 run, HDC → MLP → CNN → LSTM
    }
    let report = runtime.shutdown().report;
    let s = &report.sessions[0];
    assert_eq!(s.family, ClassifierKind::Lstm, "fully recovered");
    assert_eq!(s.decision_interval, 1);
    assert_eq!(s.produced, 16);
    assert_eq!(s.processed, 12, "the decimated windows never ran");
    assert_eq!(s.dropped, 4, "seqs 5, 7, 9 and 11");
    assert_eq!(s.degradations, 3);
    assert_eq!(s.recoveries, 4, "interval + three family climbs");
    assert!(report.all_accounted());

    // The report's memory section tells the same story: every band was
    // entered at least once, every degradation was pressure-triggered
    // (the frozen clock cannot miss a deadline), the phantom release
    // ended the run Green, and a clean shutdown released every byte the
    // runtime charged.
    assert_eq!(report.mem.budget_bytes, BUDGET);
    assert_eq!(report.mem.pressure_degradations, 3);
    assert_eq!(report.mem.band, PressureBand::Green as u8);
    assert_eq!(report.mem.used_bytes, 0, "{report:?}");
    for (band, count) in PressureBand::ALL.iter().zip(report.mem.band_transitions) {
        assert!(count >= 1, "band {band:?} never entered: {report:?}");
    }
}

/// Under a Yellow-or-worse band the classify batching window collapses to
/// one window per wakeup, so a burst never piles feature tensors up in one
/// worker's batch buffer.
#[test]
fn classify_batch_collapses_to_one_under_pressure() {
    let config = RuntimeConfig {
        workers: 1,
        memory_budget_bytes: BUDGET,
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .clock(Arc::new(VirtualClock::new()))
        .start()
        .unwrap();

    let mem = Arc::clone(runtime.memory_budget());
    mem.set_phantom(phantom_permille(720));
    assert_eq!(mem.refresh(), PressureBand::Yellow);

    for _ in 0..10 {
        assert!(runtime.submit(session, vec![0.2; 1024]));
    }
    runtime.wait_idle();
    let report = runtime.shutdown().report;
    assert!(report.all_accounted());
    assert_eq!(
        report.classify.max_batch, 1,
        "pressured batches must not exceed one window"
    );
    assert_eq!(report.classify.batches, report.classify.windows);
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
