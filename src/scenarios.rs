//! Deterministic runs of the closed loop, each rendered into a byte-stable
//! transcript.
//!
//! A scenario drives the whole loop — sessions, stage faults, sensor
//! faults, the resilient decoder, the chunked wire, the memory governor or
//! the sharded fleet — on a [`VirtualClock`], one window in flight at a
//! time, with every fault decision a pure hash of the seed. Its transcript
//! is therefore a function of its name alone: `tests/golden/<name>.txt`
//! holds the committed transcript of every scenario in [`NAMES`], the
//! `golden_transcripts` test compares fresh renders with them, and
//!
//! ```text
//! cargo run --release --example realtime_loop -- --scenario chaos-42
//! ```
//!
//! prints one. The assertions inside a scenario (per-session accounting,
//! chunked == whole-buffer decode, paced == unpaced decode, the ladder
//! walk's full recovery) panic the render when they break.
//!
//! | scenario | what it runs |
//! |---|---|
//! | `chaos-<seed>` | four sessions under the `FaultPlan::chaos` stage and sensor faults, then seeded NAL corruption through the resilient decoder |
//! | `chaos-42-wire` | `chaos-42`, plus the corrupted stream decoded in 512-byte chunks and per-chunk damage on the wire |
//! | `chaos-42-pressure` | `chaos-42` under a 16 MB memory budget that a phantom staircase walks through every band (the runtime records the bands and acts on none), plus 1500-byte wire chunks paced 33 ms apart |
//! | `fleet-42` | 24 sessions over two shards across the QoS tiers, each shard with its own fault stream derived from seed 42 |
//! | `fleet-42-wire` | 9 fleet sessions, plus each session's video fanned out per tier over a damaged 512-byte-chunk wire |
//! | `fleet-42-pressure` | 9 fleet sessions under a 16 MB budget per shard, then one memory-governor pass with shard 0's budget shrunk to 96% usage (Critical) and shard 1's to 90% (Red), which evicts, and one under the restored budget, which readmits |
//! | `ladder-walk` | one int8 session walked LSTM → CNN → MLP → HDC by deadline misses and back up once they stop |

use std::error::Error;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use affect_core::classifier::ClassifierKind;
use affect_core::controller::ControlEvent;
use affect_core::pipeline::FeatureConfig;
use affect_core::policy::VideoPowerMode;
use affect_fault::{
    apply_sensor_faults, corrupt_annex_b, FaultPlan, MemPressurePlan, NalFaultConfig, RtFaultHook,
    SensorFault, SensorFaultConfig, WireCorruptor,
};
use affect_fleet::{
    drive_lockstep, drive_wire, FleetBuilder, FleetConfig, LoadPlan, QosTier, WirePlan,
};
use affect_obs::{render_prometheus, Clock as _, MetricsRegistry, VirtualClock};
use affect_rt::{
    silence_injected_panics, Actuator, CollectActuator, FaultHook, MemConsumer, OverflowPolicy,
    PressureBand, RuntimeBuilder, RuntimeConfig, Stage, StageConfig, SupervisionConfig, WireConfig,
    WireSession,
};
use biosignal::validate_samples;
use h264::adaptive::{paper_reference, ModeSwitchDriver};
use h264::decoder::{Decoder, DecoderOptions};
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::video::synthetic_clip;
use h264::ScannerConfig;
use nn::Precision;

/// Every scenario, in the order of the table in the module docs.
pub const NAMES: [&str; 9] = [
    "chaos-1",
    "chaos-31337",
    "chaos-42",
    "chaos-42-wire",
    "chaos-42-pressure",
    "fleet-42",
    "fleet-42-wire",
    "fleet-42-pressure",
    "ladder-walk",
];

/// Renders a scenario's transcript.
///
/// # Errors
///
/// Returns an error for a name not in [`NAMES`], and propagates runtime,
/// fleet and decoder errors.
///
/// # Panics
///
/// Panics when one of the scenario's invariants breaks.
pub fn render(name: &str) -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    match name {
        "chaos-1" => chaos(&mut out, Chaos::seed(1))?,
        "chaos-31337" => chaos(&mut out, Chaos::seed(31337))?,
        "chaos-42" => chaos(&mut out, Chaos::seed(42))?,
        "chaos-42-wire" => chaos(
            &mut out,
            Chaos {
                stream_chunk: Some(512),
                ..Chaos::seed(42)
            },
        )?,
        "chaos-42-pressure" => chaos(
            &mut out,
            Chaos {
                stream_chunk: Some(1500),
                mem_budget: Some(16_000_000),
                pace_ms: Some(33),
                ..Chaos::seed(42)
            },
        )?,
        "fleet-42" => fleet(&mut out, FLEET_42)?,
        "fleet-42-wire" => fleet(
            &mut out,
            Fleet {
                sessions: 9,
                stream_chunk: Some(512),
                ..FLEET_42
            },
        )?,
        "fleet-42-pressure" => fleet(
            &mut out,
            Fleet {
                sessions: 9,
                mem_budget: Some(16_000_000),
                ..FLEET_42
            },
        )?,
        "ladder-walk" => ladder_walk(&mut out)?,
        _ => return Err(format!("unknown scenario {name:?}; known: {}", NAMES.join(", ")).into()),
    }
    Ok(out)
}

/// A chaos run: four sessions on one runtime.
struct Chaos {
    seed: u64,
    /// Wire chunk size for the chunked-decode and wire-damage phases.
    stream_chunk: Option<usize>,
    /// Budget for the memory governor, walked by a phantom staircase.
    mem_budget: Option<u64>,
    /// Milliseconds between released chunks in the paced wire phase.
    pace_ms: Option<u64>,
}

impl Chaos {
    fn seed(seed: u64) -> Self {
        Self {
            seed,
            stream_chunk: None,
            mem_budget: None,
            pace_ms: None,
        }
    }
}

/// A sharded fleet run under one chaos seed.
struct Fleet {
    shards: usize,
    sessions: usize,
    seed: u64,
    /// Wire chunk size for the per-tier video fan-out.
    stream_chunk: Option<usize>,
    /// Per-shard budget; after the load, an eviction pass under budgets
    /// shrunk from the usage and a readmission pass under this one.
    mem_budget: Option<u64>,
}

const FLEET_42: Fleet = Fleet {
    shards: 2,
    sessions: 24,
    seed: 42,
    stream_chunk: None,
    mem_budget: None,
};

/// Samples per window in every scenario.
const WINDOW_SAMPLES: usize = 1024;
/// Virtual time per lockstep round.
const TICK_NS: u64 = 50_000_000;

/// The small feature front end every scenario runs (256/128 frames, 8
/// MFCCs over 20 mel bands).
fn features() -> FeatureConfig {
    FeatureConfig {
        frame_len: 256,
        hop: 128,
        n_mfcc: 8,
        n_mels: 20,
        ..FeatureConfig::default()
    }
}

/// Supervision that restarts a panicking worker at once, every time, so
/// injected panics cost windows but never a worker.
fn tireless() -> SupervisionConfig {
    SupervisionConfig {
        restart_budget: u32::MAX,
        backoff_base_ms: 0,
        backoff_max_ms: 0,
    }
}

/// Writes the sample lines of the registry's Prometheus rendering that
/// `keep` selects, each after `indent`.
fn write_series(
    out: &mut String,
    registry: &MetricsRegistry,
    indent: &str,
    keep: impl Fn(&str) -> bool,
) -> std::fmt::Result {
    let rendered = render_prometheus(registry);
    for line in rendered.lines() {
        if !line.starts_with('#') && keep(line) {
            writeln!(out, "{indent}{line}")?;
        }
    }
    Ok(())
}

/// A fully deterministic fault-injection run. Determinism comes from three
/// choices working together: a [`VirtualClock`] (no wall-clock latencies
/// or deadline misses), a single worker per pool with one window in flight
/// at a time (no batching races), and `affect-fault`'s pure-hash decisions
/// (no RNG state).
fn chaos(out: &mut String, run: Chaos) -> Result<(), Box<dyn Error>> {
    const SESSIONS: usize = 4;
    const WINDOWS: u64 = 48;
    let Chaos {
        seed,
        stream_chunk,
        mem_budget,
        pace_ms,
    } = run;

    silence_injected_panics();
    match mem_budget {
        Some(bytes) => writeln!(
            out,
            "chaos run: seed {seed}, {SESSIONS} sessions × {WINDOWS} windows, lockstep, \
             {bytes}-byte memory budget"
        )?,
        None => writeln!(
            out,
            "chaos run: seed {seed}, {SESSIONS} sessions × {WINDOWS} windows, lockstep"
        )?,
    }

    let config = RuntimeConfig {
        feature: features(),
        window_samples: WINDOW_SAMPLES,
        workers: 1,
        supervision: tireless(),
        ..RuntimeConfig::default()
    };
    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let mut builder = RuntimeBuilder::new(config)?
        .metrics(Arc::clone(&registry))
        .clock(Arc::clone(&clock) as _);
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| builder.add_session(Box::<CollectActuator>::default()))
        .collect();
    let hook = Arc::new(RtFaultHook::with_metrics(FaultPlan::chaos(seed), &registry));
    let runtime = builder
        .fault_hook(Arc::clone(&hook) as Arc<dyn FaultHook>)
        .start()?;

    // With a budget set, a seed-pure phantom staircase walks the ledger
    // through all four pressure bands while the stage chaos runs — the
    // same `(seed, tick)` hash stream as every other decision, so the
    // printed pressure walk replays byte-identically too.
    let pressure_plan = mem_budget.map(|bytes| MemPressurePlan::with_period(seed, bytes, 16));
    let mem = Arc::clone(runtime.memory_budget());
    if let Some(bytes) = mem_budget {
        mem.set_budget_bytes(bytes);
    }

    // Phase 1: sensor + stage chaos through the live loop, one window in
    // flight at a time so scheduling cannot perturb the outcome.
    let sensor_cfg = SensorFaultConfig::CHAOS;
    let (mut dropouts, mut saturated, mut nan_bursts) = (0u64, 0u64, 0u64);
    for w in 0..WINDOWS {
        if let Some(plan) = &pressure_plan {
            plan.apply(&mem, w);
        }
        clock.advance(TICK_NS);
        for (i, &session) in sessions.iter().enumerate() {
            let mut window: Vec<f32> = (0..WINDOW_SAMPLES)
                .map(|n| ((n as f32) * 0.013 + i as f32).sin() * 0.4)
                .collect();
            let window_index = w * SESSIONS as u64 + i as u64;
            match apply_sensor_faults(&mut window, seed, window_index, &sensor_cfg) {
                Some(SensorFault::Saturation { .. }) => {
                    // The ingest validation path drops rail-pinned windows
                    // before they reach the pipeline.
                    assert!(validate_samples(&window).is_err());
                    saturated += 1;
                    continue;
                }
                Some(SensorFault::NanBurst { .. }) => nan_bursts += 1,
                Some(SensorFault::Dropout { .. }) => dropouts += 1,
                None => {}
            }
            runtime.submit(session, window);
            runtime.wait_idle();
        }
    }
    if pressure_plan.is_some() {
        // Drop the phantom so the final snapshot reflects real usage.
        mem.set_phantom(0);
        mem.refresh();
    }
    let report = runtime.shutdown().report;

    writeln!(out, "\nsensor faults: {dropouts} dropouts, {saturated} saturated (refused at ingest), {nan_bursts} NaN bursts")?;
    writeln!(
        out,
        "\nper-session accounting (produced = processed + dropped):"
    )?;
    for s in &report.sessions {
        writeln!(
            out,
            "  session {}: {:3} produced, {:3} processed, {:2} dropped, family {}, interval {}",
            s.session, s.produced, s.processed, s.dropped, s.family, s.decision_interval
        )?;
        assert!(s.accounted(), "window lost silently");
    }

    let f = &report.faults;
    writeln!(
        out,
        "\nfault report: {} panics, {} restarts, {} workers lost, {} rejected, \
         {} watchdog sheds",
        f.worker_panics, f.worker_restarts, f.workers_lost, f.rejected_windows, f.watchdog_sheds
    )?;
    let injected = hook.report();
    writeln!(out, "injected by plan (panic/drop/delay per stage):")?;
    for (i, stage) in Stage::ALL.iter().enumerate() {
        writeln!(
            out,
            "  {:8} {:3} / {:3} / {:3}",
            stage.as_str(),
            injected.panics[i],
            injected.drops[i],
            injected.delays[i]
        )?;
    }

    if let Some(plan) = &pressure_plan {
        writeln!(
            out,
            "\npressure walk ({}-byte budget, {}-tick staircase):",
            plan.budget_bytes(),
            16
        )?;
        let [green, yellow, red, critical] = report.mem.band_transitions;
        writeln!(
            out,
            "  band transitions (green/yellow/red/critical): {green} / {yellow} / {red} / {critical}"
        )?;
        writeln!(
            out,
            "  final band {:?}",
            PressureBand::from_code(report.mem.band)
        )?;
        for consumer in MemConsumer::ALL {
            writeln!(
                out,
                "  {:>14}: {} bytes",
                consumer.label(),
                report.mem.used_by[consumer as usize]
            )?;
        }
        writeln!(out, "  memory metric series:")?;
        write_series(out, &registry, "    ", |line| {
            line.starts_with("affect_mem_")
        })?;
    }

    // Phase 2: seeded bitstream chaos through the resilient decoder.
    let clip = synthetic_clip(48, 48, 12, 5)?;
    let encoder = Encoder::new(EncoderConfig {
        qp: 26,
        gop: GopPattern {
            intra_period: 4,
            b_between: 0,
        },
        ..EncoderConfig::default()
    })?;
    let damage = NalFaultConfig {
        flip_per_million: 250_000,
        truncate_per_million: 150_000,
        max_flips: 4,
        protect_sps: true,
    };
    let resilient = || {
        Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
    };
    let mut stream = encoder.encode(&clip)?;
    let corruption = corrupt_annex_b(&mut stream, seed, &damage);
    let whole = resilient().decode(&stream)?;
    writeln!(
        out,
        "\nbitstream chaos: {}/{} units hit ({} bits flipped, {} truncated, {} bytes cut) → \
         {} frames decoded, {} concealed, {} resyncs",
        corruption.units_flipped + corruption.units_truncated,
        corruption.units_seen,
        corruption.bits_flipped,
        corruption.units_truncated,
        corruption.bytes_removed,
        whole.frames.len(),
        whole.resilience.concealed_frames,
        whole.resilience.resyncs
    )?;

    if let Some(chunk) = stream_chunk {
        // Phase 2b: stream the *same corrupted bytes* through the
        // incremental front end in wire-sized chunks; the output must be
        // byte-identical to the whole-buffer decode above.
        let mut incremental = resilient().begin_stream();
        for piece in stream.chunks(chunk) {
            incremental.decode_chunk(piece)?;
        }
        let chunked = incremental.finish()?;
        assert_eq!(
            chunked.frames, whole.frames,
            "chunked frames diverged from whole-buffer"
        );
        assert_eq!(
            chunked.activity, whole.activity,
            "chunked activity diverged"
        );
        assert_eq!(
            chunked.selection, whole.selection,
            "chunked selection diverged"
        );
        writeln!(
            out,
            "stream ingest: {} chunks of {chunk} bytes → {} frames, byte-identical to whole-buffer decode",
            stream.len().div_ceil(chunk),
            chunked.frames.len()
        )?;

        // Phase 2c: damage applied *on the wire*, per chunk, with unit
        // numbering carried across chunk boundaries so the decision
        // stream replays exactly; lenient resilient decode plays through.
        let clean = encoder.encode(&clip)?;
        let mut corruptor = WireCorruptor::new(seed, damage);
        let mut wire_stream = resilient().begin_stream_with(ScannerConfig {
            strict: false,
            ..ScannerConfig::default()
        });
        let mut sent = 0u64;
        for piece in clean.chunks(chunk) {
            let mut buf = piece.to_vec();
            corruptor.corrupt_chunk(&mut buf);
            sent += buf.len() as u64;
            wire_stream.decode_chunk(&buf)?;
        }
        let ingest = *wire_stream.ingest_stats();
        let wire_out = wire_stream.finish()?;
        let tally = corruptor.tally();
        writeln!(
            out,
            "wire chaos: {} bytes in {} chunks, {}/{} units hit in flight ({} bits flipped) → \
             {} frames, {} concealed, {} scanner resyncs",
            sent,
            ingest.chunks,
            tally.units_flipped + tally.units_truncated,
            tally.units_seen,
            tally.bits_flipped,
            wire_out.frames.len(),
            wire_out.resilience.concealed_frames,
            ingest.resyncs
        )?;
    }

    if let Some(ms) = pace_ms {
        // Phase 2d: rate-paced wire playback. The sender releases chunk k
        // at `origin + k * pace` on the runtime clock; on a virtual clock
        // the sleeps are deterministic jumps, so the printed timeline is
        // part of the transcript. The frames must match an unpaced decode
        // exactly — pacing changes *when* chunks arrive, never what they
        // decode to.
        let chunk = stream_chunk.expect("a paced scenario sets its chunk size");
        let clean = encoder.encode(&clip)?;
        let wire_driver = ModeSwitchDriver::new(VideoPowerMode::Combined);
        let unpaced = wire_driver.decode_segment(&clean)?;
        let wire_clock = VirtualClock::new();
        let mut wire = WireSession::new(WireConfig {
            chunk_bytes: chunk,
            pace_ns: ms * 1_000_000,
            ..WireConfig::default()
        });
        if mem_budget.is_some() {
            wire = wire.with_memory_budget(Arc::clone(&mem));
        }
        let (paced_out, wire_report) =
            wire.ingest_segment_paced(&wire_driver, &clean, &wire_clock, |_, _| {})?;
        assert_eq!(
            paced_out.frames, unpaced.frames,
            "paced decode diverged from whole-buffer"
        );
        writeln!(
            out,
            "\npaced wire playback: {} chunks of {chunk} bytes at {ms} ms/chunk → \
             {} frames over {} virtual ms, byte-identical to whole-buffer decode",
            wire_report.chunks,
            paced_out.frames.len(),
            wire_clock.now_nanos() / 1_000_000,
        )?;
        if mem_budget.is_some() {
            writeln!(
                out,
                "  wire/decoder buffer charges released: {} / {} bytes held",
                mem.used_by(MemConsumer::WireBuffers),
                mem.used_by(MemConsumer::DecoderBuffers),
            )?;
        }
    }

    writeln!(out, "\nfault metric series:")?;
    write_series(out, &registry, "  ", |line| {
        [
            "affect_fault_",
            "affect_rt_worker",
            "affect_rt_rejected",
            "affect_rt_watchdog",
        ]
        .iter()
        .any(|prefix| line.starts_with(prefix))
    })?;
    writeln!(
        out,
        "\nchaos run complete: seed {seed}, all windows accounted."
    )?;
    Ok(())
}

/// A deterministic walk down the whole degradation ladder (LSTM → CNN →
/// MLP → HDC) and back up. A gate actuator advances the virtual clock past
/// the deadline *while each window is in flight*, so every processed
/// window misses; with `miss_streak: 1` each miss takes one rung.
/// Releasing the gate makes every window on time and the session climbs
/// back. The session runs int8, so the walk also drives the quantized path
/// (`docs/DEGRADATION.md`, `docs/QUANTIZATION.md`).
fn ladder_walk(out: &mut String) -> Result<(), Box<dyn Error>> {
    struct GateActuator {
        clock: Arc<VirtualClock>,
        stall: Arc<AtomicBool>,
        stall_ns: u64,
    }
    impl Actuator for GateActuator {
        fn actuate(&mut self, _event: ControlEvent, _now_nanos: u64) {}
        fn on_window(&mut self, _seq: u64) {
            if self.stall.load(Ordering::SeqCst) {
                self.clock.advance(self.stall_ns);
            }
        }
    }

    let config = RuntimeConfig {
        feature: features(),
        window_samples: WINDOW_SAMPLES,
        workers: 1,
        miss_streak: 1,
        ok_streak: 1,
        ..RuntimeConfig::default()
    };
    let deadline = config.deadline_ns;
    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let stall = Arc::new(AtomicBool::new(true));
    let mut builder = RuntimeBuilder::new(config)?
        .metrics(Arc::clone(&registry))
        .clock(Arc::clone(&clock) as _);
    let session = builder.add_session_with_precision(
        Box::new(GateActuator {
            clock: Arc::clone(&clock),
            stall: Arc::clone(&stall),
            stall_ns: 2 * deadline,
        }),
        ClassifierKind::Lstm,
        Precision::Int8,
    );
    let runtime = builder.start()?;

    writeln!(
        out,
        "ladder walk (int8 session, gate holds every window past the deadline):"
    )?;
    for w in 0..13u64 {
        if w == 8 {
            stall.store(false, Ordering::SeqCst);
            writeln!(out, "  -- gate released, windows run on time again --")?;
        }
        let window: Vec<f32> = (0..WINDOW_SAMPLES)
            .map(|n| ((n as f32) * 0.017).sin() * 0.3)
            .collect();
        runtime.submit(session, window);
        runtime.wait_idle();
        writeln!(
            out,
            "  window {:2}: family {:4}, interval {}",
            w,
            runtime.session_family(session).to_string(),
            runtime.session_interval(session)
        )?;
    }
    assert_eq!(
        runtime.session_family(session),
        ClassifierKind::Lstm,
        "full recovery"
    );
    assert_eq!(runtime.session_interval(session), 1);
    let report = runtime.shutdown().report;
    let s = &report.sessions[0];
    assert!(s.accounted(), "ladder window lost silently");
    writeln!(
        out,
        "  ledger: {} produced, {} processed, {} decimated, {} misses, \
         {} degradations, {} recoveries",
        s.produced, s.processed, s.dropped, s.deadline_misses, s.degradations, s.recoveries
    )?;
    writeln!(out, "  per-family classify counters:")?;
    write_series(out, &registry, "    ", |line| {
        line.starts_with("affect_rt_classify_family_total")
            || line.starts_with("affect_rt_classify_int8_windows_total")
    })?;
    Ok(())
}

/// The sharded runtime, driven by the same lockstep load driver as the
/// fleet integration tests. Sessions cycle over the QoS tiers, and each
/// shard injects a decorrelated fault stream derived from the one fleet
/// seed (`FaultPlan::for_shard`).
fn fleet(out: &mut String, run: Fleet) -> Result<(), Box<dyn Error>> {
    const ROUNDS: u64 = 12;
    let Fleet {
        shards,
        sessions,
        seed,
        stream_chunk,
        mem_budget,
    } = run;

    silence_injected_panics();
    writeln!(
        out,
        "fleet chaos run: {shards} shards, {sessions} sessions, seed {seed}, lockstep"
    )?;

    let mut config = FleetConfig {
        shards,
        runtime: RuntimeConfig {
            feature: features(),
            window_samples: WINDOW_SAMPLES,
            workers: 1,
            // Queues sized so lockstep rounds never cross the QoS shed
            // thresholds and the fate ledger stays a pure function of the
            // seed (drain-per-round keeps depth ≤ sessions-per-shard).
            ingest: StageConfig::new(256, OverflowPolicy::Block),
            classify: StageConfig::new(256, OverflowPolicy::Block),
            control: StageConfig::new(256, OverflowPolicy::Block),
            actuate_capacity: 256,
            // Latency races the lockstep clock advance; a deadline far
            // past one tick keeps misses (and thus degradation churn)
            // deterministically at zero.
            deadline_ns: 100 * TICK_NS,
            supervision: tireless(),
            ..RuntimeConfig::default()
        },
        ..FleetConfig::default()
    };
    config.admission.max_sessions_per_shard = sessions;
    config.admission.critical_reserve = 0;
    config.admission.standard_reserve = 0;

    let tier_of = |key: u64| QosTier::ALL[key as usize % QosTier::ALL.len()];
    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config)?;
    for key in 0..sessions as u64 {
        builder
            .add_session(key, tier_of(key), Box::<CollectActuator>::default())
            .ok_or("admission refused a scenario session")?;
    }
    let plan = FaultPlan::chaos(seed);
    let fleet = builder
        .clock(clock.clone())
        .metrics(Arc::clone(&registry))
        .fault_hooks(|shard| {
            Arc::new(RtFaultHook::new(plan.for_shard(shard.index()))) as Arc<dyn FaultHook>
        })
        .start()?;
    // Each shard's budget starts disabled; the scenario sizes it.
    let size_budgets = |bytes: u64| {
        for budget in (0..shards).filter_map(|shard| fleet.shard_budget(shard)) {
            budget.set_budget_bytes(bytes);
        }
    };
    if let Some(bytes) = mem_budget {
        size_budgets(bytes);
    }

    let load = LoadPlan {
        rounds: ROUNDS,
        tick_ns: TICK_NS,
        drain_every: Some(1),
    };
    drive_lockstep(&fleet, &clock, &load);
    fleet.wait_idle();
    if let Some(bytes) = mem_budget {
        // Shrink each shard's budget until its usage reads a fixed share of
        // it: shard 0 Critical (BestEffort and Standard sessions go), shard
        // 1 Red (BestEffort only). Both budgets derive from the usage, so
        // no printed figure depends on how far scratch arenas grew. A pass
        // under the restored budget then readmits every evicted session;
        // the ledger below must balance either way.
        for (shard, percent) in [(0, 96), (1, 90)] {
            let budget = fleet
                .shard_budget(shard)
                .ok_or("a shard without sessions")?;
            budget.set_budget_bytes(budget.used_bytes() * 100 / percent);
            writeln!(
                out,
                "memory governor: shard {shard} budget shrunk to put its usage at {percent}%, band {:?}",
                budget.band()
            )?;
        }
        let band = fleet.enforce_pressure();
        writeln!(
            out,
            "memory governor: eviction pass, worst shard band {band:?}"
        )?;
        size_budgets(bytes);
        let band = fleet.enforce_pressure();
        writeln!(
            out,
            "memory governor: readmission pass, worst shard band {band:?} under the {bytes}-byte budget"
        )?;
    }
    let report = fleet.shutdown();

    writeln!(out, "\nper-shard placement:")?;
    for (shard, shard_report) in &report.shards {
        writeln!(
            out,
            "  shard {}: {} sessions, {} produced, {} processed, {} dropped",
            shard.index(),
            shard_report.sessions.len(),
            shard_report.total_produced(),
            shard_report.total_processed(),
            shard_report.total_dropped()
        )?;
        assert!(shard_report.all_accounted(), "shard lost windows silently");
    }

    writeln!(
        out,
        "\nper-session fate ledger (produced = processed + dropped):"
    )?;
    for s in &report.merged.sessions {
        writeln!(
            out,
            "  session {:3}: {:3} produced, {:3} processed, {:2} dropped",
            s.session, s.produced, s.processed, s.dropped
        )?;
        assert!(s.accounted(), "window lost silently");
    }

    writeln!(
        out,
        "\nadmission ledger (offered = submitted + shed + evicted per tier):"
    )?;
    let a = &report.admission;
    for tier in QosTier::ALL {
        writeln!(
            out,
            "  {:11}: {:3} sessions admitted, {:2} rejected, {:4} offered, {:4} submitted, \
             {:3} shed, {:3} evicted windows, {:2} sessions evicted, {:2} readmitted",
            tier.label(),
            a.admitted.get(tier),
            a.rejected.get(tier),
            a.offered.get(tier),
            a.submitted.get(tier),
            a.shed.get(tier),
            a.evicted.get(tier),
            a.sessions_evicted.get(tier),
            a.sessions_readmitted.get(tier)
        )?;
    }
    assert!(report.accounted(), "fleet accounting broke");

    // Post-run: the video leg of every session's traffic, fanned out per
    // QoS tier over the chunked wire and damaged in flight. One corruptor
    // per session keeps each wire's unit numbering (and thus its damage)
    // independent and replayable from the fleet seed.
    if let Some(chunk) = stream_chunk {
        let (_, stream) = paper_reference(5)?;
        let mut wire_plan = WirePlan::default();
        for policy in &mut wire_plan.by_tier {
            policy.wire.chunk_bytes = chunk;
        }
        let wire_sessions: Vec<(u64, QosTier)> = (0..sessions as u64)
            .map(|key| (key, tier_of(key)))
            .collect();
        let mut corruptors = std::collections::HashMap::new();
        let wire_report = drive_wire(&wire_sessions, &stream, &wire_plan, |session, _, buf| {
            corruptors
                .entry(session)
                .or_insert_with(|| WireCorruptor::new(seed ^ session, NalFaultConfig::CHAOS))
                .corrupt_chunk(buf);
        });
        writeln!(out, "\nper-tier wire ledger ({chunk}-byte chunks):")?;
        for tier in QosTier::ALL {
            let t = wire_report.tier(tier);
            writeln!(
                out,
                "  {:11}: {:4} chunks, {:6} bytes, {:3} units, {:3} frames, {:2} concealed, {:2} resyncs",
                tier.label(),
                t.chunks,
                t.wire_bytes,
                t.units,
                t.frames,
                t.concealed_frames,
                t.resyncs
            )?;
        }
        writeln!(out, "  wire failures: {}", wire_report.failures.len())?;
    }

    writeln!(out, "\nfleet metric series:")?;
    write_series(out, &registry, "  ", |line| {
        line.starts_with("affect_fleet_")
    })?;
    writeln!(
        out,
        "\nfleet run complete: {} windows across {} sessions on {} shards, all accounted.",
        report.merged.total_produced(),
        report.sessions(),
        shards
    )?;
    Ok(())
}
