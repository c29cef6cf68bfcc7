//! The chaos suite: seeded fault plans driven through the real runtime and
//! codec, checking the ISSUE-level guarantees — accounting never breaks,
//! runs replay bit-identically from their seed, one session's faults never
//! poison its neighbours, and a damaged bitstream cannot kill a resilient
//! decode.

use std::sync::Arc;

use affect_core::pipeline::FeatureConfig;
use affect_fault::{
    apply_sensor_faults, corrupt_annex_b, FaultPlan, NalFaultConfig, RtFaultHook, SensorFault,
    SensorFaultConfig,
};
use affect_obs::VirtualClock;
use affect_rt::{
    silence_injected_panics, CollectActuator, FaultHook, RuntimeBuilder, RuntimeConfig, SessionId,
    SupervisionConfig,
};
use proptest::prelude::*;

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
        supervision: SupervisionConfig {
            restart_budget: 1_000_000, // chaos runs must never retire the pool
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        ..RuntimeConfig::default()
    }
}

/// One full chaos run: `sessions` × `windows` clean windows through a
/// seeded chaos plan. Returns the runtime report plus the hook's own tally.
fn chaos_run(
    seed: u64,
    sessions: usize,
    windows: usize,
    workers: usize,
    virtual_clock: bool,
) -> (affect_rt::RuntimeReport, affect_fault::InjectionReport) {
    silence_injected_panics();
    let config = RuntimeConfig {
        workers,
        ..fast_config()
    };
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let ids: Vec<SessionId> = (0..sessions)
        .map(|_| builder.add_session(Box::<CollectActuator>::default()))
        .collect();
    let hook = Arc::new(RtFaultHook::new(FaultPlan::chaos(seed)));
    builder = builder.fault_hook(Arc::clone(&hook) as Arc<dyn FaultHook>);
    if virtual_clock {
        builder = builder.clock(Arc::new(VirtualClock::new()));
    }
    let runtime = builder.start().unwrap();
    for _ in 0..windows {
        for &id in &ids {
            runtime.submit(id, vec![0.25; 1024]);
        }
    }
    runtime.wait_idle();
    let report = runtime.shutdown().report;
    (report, hook.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ISSUE acceptance: `produced == processed + dropped` for every
    /// session of every seeded chaos run — drops, delays and repeated
    /// worker panics included.
    #[test]
    fn accounting_invariant_holds_under_seeded_chaos(seed in 0u64..10_000) {
        let (report, injected) = chaos_run(seed, 4, 25, 2, false);
        prop_assert!(report.all_accounted(), "seed {seed}: {report:?}");
        for s in &report.sessions {
            prop_assert_eq!(s.produced, 25, "seed {}", seed);
        }
        // Panics the hook injected at the supervised stages are exactly the
        // panics the supervisor caught (the pool never retires here).
        let hooked_panics: u64 = injected.panics.iter().sum();
        prop_assert_eq!(report.faults.worker_panics, hooked_panics);
        prop_assert_eq!(report.faults.workers_lost, 0);
    }
}

/// ISSUE acceptance: the same seed on a virtual clock replays to an
/// identical report — decisions are pure hashes, so thread interleaving
/// cannot change what gets injected or what it costs.
#[test]
fn chaos_runs_replay_bit_identically_from_their_seed() {
    for seed in [7u64, 42, 1337] {
        let (a, ia) = chaos_run(seed, 3, 30, 1, true);
        let (b, ib) = chaos_run(seed, 3, 30, 1, true);
        assert_eq!(ia, ib, "seed {seed}: injection tallies diverged");
        assert_eq!(a.faults, b.faults, "seed {seed}: fault reports diverged");
        for (sa, sb) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(sa.produced, sb.produced, "seed {seed}");
            assert_eq!(sa.processed, sb.processed, "seed {seed}");
            assert_eq!(sa.dropped, sb.dropped, "seed {seed}");
            assert_eq!(sa.family, sb.family, "seed {seed}");
            assert_eq!(sa.decision_interval, sb.decision_interval, "seed {seed}");
        }
    }
}

/// Different seeds must produce different chaos (otherwise the seed knob
/// is a placebo).
#[test]
fn different_seeds_inject_different_chaos() {
    let (_, a) = chaos_run(1, 3, 30, 1, true);
    let (_, b) = chaos_run(2, 3, 30, 1, true);
    assert_ne!(a, b, "seeds 1 and 2 injected identical fault streams");
}

/// ISSUE acceptance: while one session's feature stage panics on every
/// window, the surviving sessions' p99 stays within 2× the no-fault
/// baseline (plus a small scheduling floor).
#[test]
fn healthy_sessions_keep_their_latency_while_a_neighbour_panics() {
    use affect_rt::{FaultAction, Stage};

    struct PanicSession(usize);
    impl FaultHook for PanicSession {
        fn inject(&self, stage: Stage, session: usize, _seq: u64) -> FaultAction {
            if stage == Stage::Feature && session == self.0 {
                FaultAction::Panic
            } else {
                FaultAction::None
            }
        }
    }

    silence_injected_panics();
    let run = |hook: Option<Arc<dyn FaultHook>>| {
        let mut builder = RuntimeBuilder::new(fast_config()).unwrap();
        let ids: Vec<SessionId> = (0..3)
            .map(|_| builder.add_session(Box::<CollectActuator>::default()))
            .collect();
        if let Some(h) = hook {
            builder = builder.fault_hook(h);
        }
        let runtime = builder.start().unwrap();
        for _ in 0..40 {
            for &id in &ids {
                runtime.submit(id, vec![0.25; 1024]);
            }
        }
        runtime.wait_idle();
        runtime.shutdown().report
    };

    let baseline = run(None);
    let chaotic = run(Some(Arc::new(PanicSession(0))));

    assert!(chaotic.all_accounted());
    assert_eq!(chaotic.sessions[0].processed, 0, "victim loses everything");
    let budget_ns = |p99: u64| p99.saturating_mul(2) + 20_000_000; // +20 ms floor
    for i in 1..3 {
        assert_eq!(chaotic.sessions[i].processed, 40, "session {i} survives");
        let base = baseline.sessions[i].latency.quantile(0.99);
        let got = chaotic.sessions[i].latency.quantile(0.99);
        assert!(
            got <= budget_ns(base),
            "session {i}: p99 {got}ns vs baseline {base}ns"
        );
    }
}

/// Sensor chaos end-to-end: NaN bursts cost exactly the windows they land
/// on; saturation is caught by `biosignal::validate_samples` before the
/// pipeline ever sees it.
#[test]
fn sensor_chaos_costs_windows_not_sessions() {
    let cfg = SensorFaultConfig {
        dropout_per_million: 0,
        saturate_per_million: 150_000,
        nan_per_million: 150_000,
        burst_len: 16,
    };
    let mut builder = RuntimeBuilder::new(fast_config()).unwrap();
    let session = builder.add_session(Box::<CollectActuator>::default());
    let runtime = builder.start().unwrap();

    let (mut clean, mut nan_hits, mut saturated) = (0u64, 0u64, 0u64);
    for idx in 0..60 {
        let mut window: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.013).sin() * 0.5).collect();
        match apply_sensor_faults(&mut window, 99, idx, &cfg) {
            Some(SensorFault::Saturation { .. }) => {
                // The ingest validation path: out-of-range samples are
                // rejected before submission, costing one window.
                assert!(biosignal::validate_samples(&window).is_err());
                saturated += 1;
                continue;
            }
            Some(SensorFault::NanBurst { .. }) => {
                assert!(biosignal::validate_samples(&window).is_err());
                nan_hits += 1;
            }
            Some(SensorFault::Dropout { .. }) => unreachable!("rate is zero"),
            None => clean += 1,
        }
        runtime.submit(session, window);
    }
    runtime.wait_idle();
    let report = runtime.shutdown().report;
    let s = &report.sessions[session.index()];

    assert!(nan_hits > 0 && saturated > 0, "chaos config too quiet");
    assert!(s.accounted());
    assert_eq!(s.produced, clean + nan_hits);
    assert_eq!(s.processed, clean, "every clean window survives");
    assert_eq!(s.dropped, nan_hits, "each NaN burst costs exactly itself");
    assert_eq!(report.faults.rejected_windows, nan_hits);
}

/// Bitstream chaos end-to-end: seeded NAL corruption over many streams
/// never panics the decoder; the resilient decoder always returns the full
/// frame count and reports what it concealed.
#[test]
fn nal_chaos_never_kills_the_resilient_decoder() {
    use h264::decoder::{Decoder, DecoderOptions};
    use h264::encoder::{Encoder, EncoderConfig, GopPattern};
    use h264::video::synthetic_clip;

    let clip = synthetic_clip(48, 48, 12, 5).unwrap();
    let encoder = Encoder::new(EncoderConfig {
        qp: 26,
        gop: GopPattern {
            intra_period: 4,
            b_between: 0,
        },
        ..EncoderConfig::default()
    })
    .unwrap();
    let pristine = encoder.encode(&clip).unwrap();

    let cfg = NalFaultConfig {
        flip_per_million: 250_000,
        truncate_per_million: 150_000,
        max_flips: 4,
        protect_sps: true,
    };
    let mut damaged_streams = 0u64;
    let mut concealed_total = 0u64;
    for seed in 0..40u64 {
        let mut stream = pristine.clone();
        let corruption = corrupt_annex_b(&mut stream, seed, &cfg);
        if corruption.units_flipped + corruption.units_truncated > 0 {
            damaged_streams += 1;
        }

        // Strict decode may fail (typed error) but must never panic.
        let _ = Decoder::new(DecoderOptions::default()).decode(&stream);

        let out = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
        .decode(&stream)
        .unwrap_or_else(|e| panic!("seed {seed}: resilient decode failed: {e}"));
        assert_eq!(out.frames.len(), clip.len(), "seed {seed}: frame count");
        concealed_total += out.resilience.concealed_frames;
    }
    assert!(damaged_streams >= 30, "only {damaged_streams}/40 damaged");
    assert!(concealed_total > 0, "corruption never forced concealment");
}
