//! Memory-pressure chaos: the seeded phantom-charge staircase driven
//! through the real runtime together with the stage fault plan. The
//! guarantees: accounting never breaks under combined chaos, the band walk
//! moves no session down the ladder, and the same seed replays to a
//! byte-identical report — bands, transitions, ladder positions and all.

use std::sync::Arc;

use affect_core::pipeline::FeatureConfig;
use affect_fault::{FaultPlan, MemPressurePlan, RtFaultHook};
use affect_obs::VirtualClock;
use affect_rt::{
    silence_injected_panics, CollectActuator, FaultHook, MemReport, RuntimeBuilder, RuntimeConfig,
    RuntimeReport, SessionId, SupervisionConfig,
};

const BUDGET: u64 = 1 << 30; // roomy: real charges stay inside Green's slack

/// One combined chaos run: `ticks` governor ticks, each applying the
/// phantom staircase and then submitting one window per session through a
/// seeded stage-fault plan, fully drained per tick so every window runs
/// under its tick's band.
fn pressured_chaos_run(seed: u64, sessions: usize, ticks: u64) -> RuntimeReport {
    silence_injected_panics();
    let config = RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        },
        window_samples: 1024,
        workers: 1,
        supervision: SupervisionConfig {
            restart_budget: 1_000_000, // chaos must never retire the pool
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..RuntimeConfig::default()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let ids: Vec<SessionId> = (0..sessions)
        .map(|_| builder.add_session(Box::<CollectActuator>::default()))
        .collect();
    let hook = Arc::new(RtFaultHook::new(FaultPlan::chaos(seed)));
    let runtime = builder
        .fault_hook(hook as Arc<dyn FaultHook>)
        .clock(Arc::new(VirtualClock::new()))
        .start()
        .unwrap();

    let plan = MemPressurePlan::with_period(seed, BUDGET, 8);
    let mem = Arc::clone(runtime.memory_budget());
    mem.set_budget_bytes(BUDGET);
    for tick in 0..ticks {
        plan.apply(&mem, tick);
        for &id in &ids {
            runtime.submit(id, vec![0.25; 1024]);
        }
        runtime.wait_idle();
    }
    // Release the phantom so the final report's band reflects real usage.
    mem.set_phantom(0);
    mem.refresh();
    runtime.shutdown().report
}

/// Strips the counters that a replay must reproduce exactly.
type SessionFate = (u64, u64, u64, String, u32);

fn fingerprint(report: &RuntimeReport) -> (Vec<SessionFate>, MemReport, String) {
    (
        report
            .sessions
            .iter()
            .map(|s| {
                (
                    s.produced,
                    s.processed,
                    s.dropped,
                    format!("{:?}", s.family),
                    s.decision_interval,
                )
            })
            .collect(),
        report.mem,
        format!("{:?}", report.faults),
    )
}

/// ISSUE acceptance: combined stage + memory chaos replays bit-identically
/// from its seed — the phantom charge is an absolute, seed-pure write, so
/// no interleaving can smuggle pressure history between runs.
#[test]
fn pressured_chaos_replays_bit_identically_from_its_seed() {
    for seed in [3u64, 99, 4242] {
        let a = pressured_chaos_run(seed, 3, 24);
        let b = pressured_chaos_run(seed, 3, 24);
        assert!(a.all_accounted(), "seed {seed}: {a:?}");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "seed {seed}: replay diverged"
        );
        // Three staircase cycles must have entered every band at least
        // once — otherwise the chaos was a placebo.
        for (band, count) in a.mem.band_transitions.iter().enumerate() {
            assert!(*count >= 1, "seed {seed}: band {band} never entered");
        }
        // The deadline is the ladder's only trigger, and the frozen clock
        // never misses it: the staircase degraded no one.
        assert!(
            a.sessions.iter().all(|s| s.degradations == 0),
            "seed {seed}: a band walked a session down the ladder: {a:?}"
        );
    }
}

/// Different seeds must schedule different pressure (and different stage
/// chaos), otherwise the seed knob is a placebo.
#[test]
fn different_seeds_pressure_differently() {
    let a = pressured_chaos_run(5, 2, 16);
    let b = pressured_chaos_run(6, 2, 16);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "seeds 5 and 6 produced identical pressured runs"
    );
}
