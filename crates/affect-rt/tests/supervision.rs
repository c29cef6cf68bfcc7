//! Supervision integration tests: injected worker panics must cost only
//! the windows they land on, never the session, the accounting invariant,
//! or the other sessions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use affect_core::controller::ControlEvent;
use affect_core::pipeline::FeatureConfig;
use affect_rt::{
    silence_injected_panics, Actuator, CollectActuator, FaultAction, FaultHook, RuntimeBuilder,
    RuntimeConfig, Stage, SupervisionConfig, WatchdogConfig,
};

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

/// Panics the feature stage for one session's every window.
struct PanicSessionFeatures(usize);

impl FaultHook for PanicSessionFeatures {
    fn inject(&self, stage: Stage, session: usize, _seq: u64) -> FaultAction {
        if stage == Stage::Feature && session == self.0 {
            FaultAction::Panic
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn panicking_session_is_isolated_and_accounted() {
    silence_injected_panics();
    let config = RuntimeConfig {
        supervision: SupervisionConfig {
            restart_budget: 1_000, // workers must survive the whole run
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let victim = builder.add_session(Box::<CollectActuator>::default());
    let healthy = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .fault_hook(Arc::new(PanicSessionFeatures(victim.index())))
        .start()
        .unwrap();

    for _ in 0..12 {
        runtime.submit(victim, vec![0.2; 1024]);
        runtime.submit(healthy, vec![0.2; 1024]);
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();
    let report = outcome.report;

    assert!(report.all_accounted(), "invariant survives injected panics");
    let v = &report.sessions[victim.index()];
    assert_eq!(v.produced, 12);
    assert_eq!(v.processed, 0, "every victim window died in the panic");
    assert_eq!(v.dropped, 12);
    let h = &report.sessions[healthy.index()];
    assert_eq!(h.produced, 12);
    assert_eq!(
        h.processed, 12,
        "the healthy session is untouched by its neighbour's chaos"
    );
    assert_eq!(report.faults.worker_panics, 12);
    assert_eq!(report.faults.worker_restarts, 12);
    assert_eq!(report.faults.workers_lost, 0);
}

/// Panics every feature window, with a budget small enough to retire the
/// whole pool mid-run.
struct PanicEverything;

impl FaultHook for PanicEverything {
    fn inject(&self, stage: Stage, _session: usize, _seq: u64) -> FaultAction {
        if stage == Stage::Feature {
            FaultAction::Panic
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn exhausted_restart_budget_retires_workers_without_losing_windows() {
    silence_injected_panics();
    let config = RuntimeConfig {
        workers: 2,
        supervision: SupervisionConfig {
            restart_budget: 2,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .fault_hook(Arc::new(PanicEverything))
        .start()
        .unwrap();

    // 2 workers × (2 survivable + 1 fatal) = 6 panics retire the pool;
    // everything after that must still be accounted (closed-ring drops).
    for _ in 0..30 {
        runtime.submit(session, vec![0.2; 1024]);
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();
    let report = outcome.report;

    assert!(report.all_accounted(), "no window lost to retirement");
    let s = &report.sessions[session.index()];
    assert_eq!(s.produced, 30);
    assert_eq!(s.processed, 0);
    assert_eq!(s.dropped, 30);
    assert_eq!(report.faults.workers_lost, 2, "whole pool retired");
    assert_eq!(report.faults.worker_panics, 6);
    assert_eq!(report.faults.worker_restarts, 4);
}

#[test]
fn backoff_schedule_is_exponential_and_capped() {
    let sup = SupervisionConfig {
        backoff_base_ms: 3,
        backoff_max_ms: 50,
        ..SupervisionConfig::default()
    };
    // No panic yet → no pause.
    assert_eq!(sup.backoff_for(0), 0);
    // Exponential from the base: 3, 6, 12, 24, 48 …
    assert_eq!(sup.backoff_for(1), 3);
    assert_eq!(sup.backoff_for(2), 6);
    assert_eq!(sup.backoff_for(3), 12);
    assert_eq!(sup.backoff_for(4), 24);
    assert_eq!(sup.backoff_for(5), 48);
    // … clamped at the ceiling from then on.
    assert_eq!(sup.backoff_for(6), 50);
    assert_eq!(sup.backoff_for(1_000), 50);
    // The shift itself saturates long before u32::MAX consecutive panics,
    // so huge streaks cannot overflow into a zero-length pause.
    let uncapped = SupervisionConfig {
        backoff_base_ms: 1,
        backoff_max_ms: u64::MAX,
        ..sup
    };
    assert_eq!(uncapped.backoff_for(17), 1 << 16);
    assert_eq!(uncapped.backoff_for(u32::MAX), 1 << 16);
    // A zero base disables backoff entirely regardless of streak length.
    let disabled = SupervisionConfig {
        backoff_base_ms: 0,
        ..sup
    };
    assert_eq!(disabled.backoff_for(7), 0);
}

#[test]
fn windows_submitted_after_retirement_drain_from_the_closed_ring() {
    silence_injected_panics();
    let config = RuntimeConfig {
        workers: 1,
        supervision: SupervisionConfig {
            restart_budget: 0, // first panic retires the only worker
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder
        .fault_hook(Arc::new(PanicEverything))
        .start()
        .unwrap();

    // One window retires the pool …
    runtime.submit(session, vec![0.2; 1024]);
    runtime.wait_idle();
    // … and everything offered afterwards must still drain out of the
    // closed ring as drops, not wedge the accounting invariant.
    for _ in 0..16 {
        runtime.submit(session, vec![0.2; 1024]);
    }
    runtime.wait_idle();
    let report = runtime.shutdown().report;

    assert!(report.all_accounted(), "closed ring drains to drops");
    let s = &report.sessions[session.index()];
    assert_eq!(s.produced, 17);
    assert_eq!(s.processed, 0);
    assert_eq!(s.dropped, 17);
    assert_eq!(report.faults.workers_lost, 1, "the lone worker retired");
    assert_eq!(report.faults.worker_panics, 1);
    assert_eq!(report.faults.worker_restarts, 0, "budget 0 allows none");
}

/// Injects one action into every window at a chosen stage.
struct FaultAt(Stage, FaultAction);

impl FaultHook for FaultAt {
    fn inject(&self, stage: Stage, _session: usize, _seq: u64) -> FaultAction {
        if stage == self.0 {
            self.1
        } else {
            FaultAction::None
        }
    }
}

#[test]
fn drops_at_every_stage_keep_the_invariant() {
    silence_injected_panics();
    let config = RuntimeConfig {
        supervision: SupervisionConfig {
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            ..SupervisionConfig::default()
        },
        ..fast_config()
    };
    // One panic rule at every worker stage: a panic costs its window.
    // Ingest runs on the caller's thread, so there a panic is a drop.
    for action in [FaultAction::DropWindow, FaultAction::Panic] {
        for stage in Stage::ALL {
            let mut builder = RuntimeBuilder::new(config.clone()).unwrap();
            let session = builder.add_session(Box::<CollectActuator>::default());
            let runtime = builder
                .fault_hook(Arc::new(FaultAt(stage, action)))
                .start()
                .unwrap();
            for _ in 0..8 {
                runtime.submit(session, vec![0.2; 1024]);
            }
            runtime.wait_idle();
            let report = runtime.shutdown().report;
            let s = &report.sessions[session.index()];
            assert!(s.accounted(), "{action:?} at {stage:?}");
            assert_eq!(s.produced, 8, "{action:?} at {stage:?}");
            assert_eq!(s.processed, 0, "{action:?} at {stage:?}: all dropped");
            let panics = if action == FaultAction::Panic && stage != Stage::Ingest {
                8
            } else {
                0
            };
            assert_eq!(
                report.faults.worker_panics, panics,
                "{action:?} at {stage:?}"
            );
            assert_eq!(report.faults.workers_lost, 0, "{action:?} at {stage:?}");
        }
    }
}

/// User actuation code that panics on one window and records the others.
struct PanicsOnWindow {
    panic_at: u64,
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Actuator for PanicsOnWindow {
    fn actuate(&mut self, _event: ControlEvent, _now_nanos: u64) {}

    fn on_window(&mut self, seq: u64) {
        if seq == self.panic_at {
            panic!("actuator fault on window {seq}");
        }
        self.seen.lock().unwrap().push(seq);
    }
}

#[test]
fn panicking_actuator_costs_one_window_not_the_runtime() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut builder = RuntimeBuilder::new(fast_config()).unwrap();
    let session = builder.add_session(Box::new(PanicsOnWindow {
        panic_at: 2,
        seen: Arc::clone(&seen),
    }));
    let runtime = Arc::new(builder.start().unwrap());
    for _ in 0..6 {
        runtime.submit(session, vec![0.2; 1024]);
    }
    // Wait on a helper thread, so a wedged runtime fails the test instead
    // of hanging it.
    let (done, converged) = channel();
    let waiter = {
        let runtime = Arc::clone(&runtime);
        std::thread::spawn(move || {
            runtime.wait_idle();
            let _ = done.send(());
        })
    };
    converged
        .recv_timeout(Duration::from_secs(10))
        .expect("wait_idle must converge after an actuator panic");
    waiter.join().unwrap();
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("waiter joined"));
    let outcome = runtime.shutdown();

    let report = outcome.report;
    assert!(report.all_accounted());
    let s = &report.sessions[session.index()];
    assert_eq!(s.produced, 6);
    assert_eq!(s.processed, 5, "only the panicking window is lost");
    assert_eq!(s.dropped, 1);
    assert_eq!(report.faults.worker_panics, 1);
    assert_eq!(report.faults.workers_lost, 0);
    assert_eq!(outcome.actuators.len(), 1, "shutdown returns the actuator");
    // Two feature and classify workers may reorder windows.
    let mut seen = seen.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(seen, [0, 1, 3, 4, 5]);
}

#[test]
fn non_finite_windows_cost_one_window_not_the_session() {
    let mut builder = RuntimeBuilder::new(fast_config()).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder.start().unwrap();

    runtime.submit(session, vec![0.2; 1024]);
    let mut burst = vec![0.2; 1024];
    burst[500] = f32::NAN;
    runtime.submit(session, burst);
    let mut inf = vec![0.2; 1024];
    inf[0] = f32::INFINITY;
    runtime.submit(session, inf);
    runtime.submit(session, vec![0.2; 1024]);

    runtime.wait_idle();
    let report = runtime.shutdown().report;
    let s = &report.sessions[session.index()];
    assert!(s.accounted());
    assert_eq!(s.produced, 4);
    assert_eq!(s.processed, 2, "the two clean windows survive");
    assert_eq!(s.dropped, 2, "each faulty window costs exactly itself");
    assert_eq!(report.faults.rejected_windows, 2);
}

/// An actuator stand-in: the hook delays nothing, but we use a counter to
/// prove the watchdog run below made progress before shedding.
struct CountingHook(AtomicU64);

impl FaultHook for CountingHook {
    fn inject(&self, _stage: Stage, _session: usize, _seq: u64) -> FaultAction {
        self.0.fetch_add(1, Ordering::SeqCst);
        FaultAction::None
    }
}

/// A healthy run under the watchdog a deployment gets (4 polls × 50 ms).
/// A tighter horizon is not a healthy-run property: at 5 ms × 2 polls a
/// single-threaded stage that the host leaves unscheduled for 10 ms
/// reads as stalled and is drained.
#[test]
fn watchdog_on_a_healthy_run_sheds_nothing() {
    let config = RuntimeConfig {
        watchdog: Some(WatchdogConfig::default()),
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let hook = Arc::new(CountingHook(AtomicU64::new(0)));
    let runtime = builder.fault_hook(Arc::clone(&hook) as _).start().unwrap();
    for _ in 0..10 {
        runtime.submit(session, vec![0.2; 1024]);
    }
    runtime.wait_idle();
    let report = runtime.shutdown().report;
    assert!(report.all_accounted());
    assert_eq!(report.sessions[0].processed, 10);
    assert_eq!(report.faults.watchdog_sheds, 0);
    assert!(hook.0.load(Ordering::SeqCst) >= 50, "hook saw every stage");
}
