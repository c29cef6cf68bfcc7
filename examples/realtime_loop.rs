//! Real-time closed loop: eight concurrent wearers stream voice windows
//! through the `affect-rt` runtime, and the classified emotions actuate
//! both managed subsystems live — the H.264 decoder's power mode and the
//! app manager's background ranking.
//!
//! ```text
//! cargo run --release --example realtime_loop
//! ```
//!
//! Each session gets its own emotion schedule (calm → excited → calm …),
//! its own actuator pair, and its own producer thread; the shared
//! classifier worker pool multiplexes all of them. At the end the runtime
//! report shows per-session accounting, end-to-end latency percentiles,
//! and the timestamped decoder switches / app re-ranks each session's
//! actuators performed.
//!
//! The whole run is observable: every subsystem registers its metrics in
//! one shared `affect-obs` registry, and the demo finishes by decoding a
//! segment in each video power mode and replaying a short app-manager
//! workload so the `h264_*` and `mobile_sim_*` series are live too. With
//!
//! ```text
//! cargo run --release --features obs-server --example realtime_loop
//! ```
//!
//! the registry is additionally served at `http://127.0.0.1:9464/metrics`
//! (Prometheus text format; set `OBS_ADDR` to rebind, `OBS_HOLD_SECS` to
//! keep the server up for manual `curl`ing after the run).
//!
//! # Chaos mode
//!
//! ```text
//! cargo run --release --example realtime_loop -- --chaos 42
//! ```
//!
//! runs the deterministic chaos suite instead: four sessions on a virtual
//! clock, one window in flight at a time, with an `affect-fault` plan
//! injecting sensor faults, worker panics, drops and delays, plus a seeded
//! NAL-corruption pass through the resilient decoder. Every decision is a
//! pure hash of the seed, so two invocations with the same seed print
//! byte-identical reports — `diff <(… --chaos 42) <(… --chaos 42)` is
//! empty. See `docs/ROBUSTNESS.md` for the fault taxonomy.
//!
//! # Fleet mode
//!
//! ```text
//! cargo run --release --example realtime_loop -- --fleet 4 --sessions 64
//! cargo run --release --example realtime_loop -- --fleet 2 --chaos 42
//! ```
//!
//! runs the sharded `affect-fleet` runtime instead of one `affect-rt`
//! instance: sessions are consistent-hash routed across shards, cycled
//! over the three QoS tiers (critical → LSTM, standard → CNN, best effort
//! → MLP), and driven in lockstep by the same load driver the fleet
//! integration tests use. With `--chaos <seed>` each shard gets a
//! decorrelated fault stream derived from the one fleet seed
//! (`FaultPlan::for_shard`), and the printed fate ledger is byte-stable —
//! the CI chaos job diffs two invocations.
//!
//! `--sessions N` also parameterizes the plain demo (default 8 wearers).
//!
//! # Memory pressure and pacing
//!
//! ```text
//! cargo run --release --example realtime_loop -- --chaos 42 --mem-budget 16000000
//! cargo run --release --example realtime_loop -- --chaos 42 --stream-chunk 1500 --pace 33
//! ```
//!
//! `--mem-budget <bytes>` attaches the memory-pressure governor: in chaos
//! mode a seed-pure phantom staircase (`MemPressurePlan`) walks the budget
//! through all four bands while the stage chaos runs, and the printed
//! pressure walk + `affect_mem_*` series are part of the byte-stable
//! transcript; in fleet mode the governor runs one eviction pass after the
//! load and the admission ledger gains its eviction columns. `--pace <ms>`
//! replays the wire segment rate-paced on the virtual clock — chunk k is
//! released at `k × pace`, and the decode must stay byte-identical to the
//! unpaced path.

use std::sync::{Arc, Mutex};

use affectsys::biosignal::VoiceWindowStream;
use affectsys::core::controller::ControlEvent;
use affectsys::core::emotion::Emotion;
use affectsys::core::pipeline::FeatureConfig;
use affectsys::core::policy::VideoPowerMode;
use affectsys::h264::adaptive::{paper_reference, ModeSwitchDriver};
use affectsys::mobile::affect_table::{AppAffectTable, EmotionReranker};
use affectsys::mobile::device::DeviceConfig;
use affectsys::mobile::manager::PolicyKind;
use affectsys::mobile::monkey::MonkeyScript;
use affectsys::mobile::sim::Simulator;
use affectsys::mobile::subjects::SubjectProfile;
use affectsys::obs::MetricsRegistry;
use affectsys::rt::{Actuator, AppActuator, RuntimeBuilder, RuntimeConfig, VideoActuator};

/// What one wearer's actuators did, mirrored out for the final printout
/// (the runtime returns actuators as `Box<dyn Actuator>`, so the demo
/// keeps its own handle on the logs).
#[derive(Default)]
struct SessionLog {
    switches: Vec<(u64, VideoPowerMode)>,
    reranks: Vec<(u64, Emotion)>,
}

/// One wearer's full actuation endpoint: decoder power mode + app ranking.
struct DeviceActuator {
    video: VideoActuator,
    apps: AppActuator,
    log: Arc<Mutex<SessionLog>>,
}

impl Actuator for DeviceActuator {
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64) {
        self.video.actuate(event, now_nanos);
        self.apps.actuate(event, now_nanos);
        let mut log = self.log.lock().expect("log lock");
        log.switches = self.video.switch_log().to_vec();
        log.reranks = self.apps.rerank_log().to_vec();
    }
}

/// The `--chaos <seed>` entry point: a fully deterministic fault-injection
/// run. Determinism comes from three choices working together: a
/// [`VirtualClock`] (no wall-clock latencies or deadline misses), a single
/// worker per pool with one window in flight at a time (no batching races),
/// and `affect-fault`'s pure-hash decisions (no RNG state).
fn run_chaos(
    seed: u64,
    stream_chunk: Option<usize>,
    mem_budget: Option<u64>,
    pace_ms: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    use affectsys::biosignal::validate_samples;
    use affectsys::fault::{
        apply_sensor_faults, corrupt_annex_b, FaultPlan, MemPressurePlan, NalFaultConfig,
        RtFaultHook, SensorFault, SensorFaultConfig, WireCorruptor,
    };
    use affectsys::h264::decoder::{Decoder, DecoderOptions};
    use affectsys::h264::encoder::{Encoder, EncoderConfig, GopPattern};
    use affectsys::h264::video::synthetic_clip;
    use affectsys::obs::VirtualClock;
    use affectsys::rt::{silence_injected_panics, CollectActuator, FaultHook, SupervisionConfig};

    const SESSIONS: usize = 4;
    const WINDOWS: u64 = 48;
    const WINDOW_SAMPLES: usize = 1024;
    const TICK_NS: u64 = 50_000_000; // virtual time per window round

    silence_injected_panics();
    match mem_budget {
        Some(bytes) => println!(
            "chaos run: seed {seed}, {SESSIONS} sessions × {WINDOWS} windows, lockstep, \
             {bytes}-byte memory budget"
        ),
        None => {
            println!("chaos run: seed {seed}, {SESSIONS} sessions × {WINDOWS} windows, lockstep")
        }
    }

    let config = RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        },
        window_samples: WINDOW_SAMPLES,
        workers: 1,
        memory_budget_bytes: mem_budget.unwrap_or(0),
        supervision: SupervisionConfig {
            restart_budget: u32::MAX,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            ..SupervisionConfig::default()
        },
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

    // With a budget attached, a seed-pure phantom staircase walks the
    // governor through all four pressure bands while the stage chaos
    // runs — the same `(seed, tick)` hash stream as every other decision,
    // so the printed pressure walk replays byte-identically too.
    let pressure_plan = mem_budget.map(|bytes| MemPressurePlan::with_period(seed, bytes, 16));
    let mem = Arc::clone(runtime.memory_budget());

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

    println!("\nsensor faults: {dropouts} dropouts, {saturated} saturated (refused at ingest), {nan_bursts} NaN bursts");
    println!("\nper-session accounting (produced = processed + dropped):");
    for s in &report.sessions {
        println!(
            "  session {}: {:3} produced, {:3} processed, {:2} dropped, family {}, interval {}",
            s.session, s.produced, s.processed, s.dropped, s.family, s.decision_interval
        );
        assert!(s.accounted(), "window lost silently");
    }

    let f = &report.faults;
    println!(
        "\nfault report: {} panics, {} restarts, {} workers lost, {} rejected, \
         {} watchdog sheds, {} breaker trips, {} breaker closes",
        f.worker_panics,
        f.worker_restarts,
        f.workers_lost,
        f.rejected_windows,
        f.watchdog_sheds,
        f.breaker_trips,
        f.breaker_closes
    );
    let injected = hook.report();
    println!("injected by plan (panic/drop/delay per stage):");
    for (i, stage) in affectsys::rt::Stage::ALL.iter().enumerate() {
        println!(
            "  {:8} {:3} / {:3} / {:3}",
            stage.as_str(),
            injected.panics[i],
            injected.drops[i],
            injected.delays[i]
        );
    }

    if let Some(plan) = &pressure_plan {
        use affectsys::rt::{MemConsumer, PressureBand};
        println!(
            "\npressure walk ({}-byte budget, {}-tick staircase):",
            plan.budget_bytes(),
            16
        );
        println!(
            "  band transitions (green/yellow/red/critical): {} / {} / {} / {}",
            report.mem.band_transitions[0],
            report.mem.band_transitions[1],
            report.mem.band_transitions[2],
            report.mem.band_transitions[3],
        );
        println!(
            "  {} pressure-triggered ladder steps, final band {:?}",
            report.mem.pressure_degradations,
            PressureBand::from_code(report.mem.band),
        );
        for consumer in MemConsumer::ALL {
            println!(
                "  {:>14}: {} bytes",
                consumer.label(),
                report.mem.used_by[consumer as usize]
            );
        }
        println!("  memory metric series:");
        let rendered = affectsys::obs::render_prometheus(&registry);
        for line in rendered.lines() {
            if !line.starts_with('#') && line.starts_with("affect_mem_") {
                println!("    {line}");
            }
        }
    }

    // Phase 1b: a deterministic walk down the whole degradation ladder
    // (LSTM → CNN → MLP → HDC) and back up. A gate actuator advances the
    // virtual clock past the deadline *while each window is in flight*, so
    // every processed window misses; with `miss_streak: 1` each miss takes
    // one rung. Releasing the gate makes every window on-time and the
    // session climbs back. The session runs int8, so the walk also proves
    // the quantized path live (`docs/DEGRADATION.md`, `docs/QUANTIZATION.md`).
    {
        use affectsys::core::classifier::ClassifierKind;
        use affectsys::nn::Precision;
        use std::sync::atomic::{AtomicBool, Ordering};

        struct GateActuator {
            clock: Arc<VirtualClock>,
            stall: Arc<AtomicBool>,
            stall_ns: u64,
        }
        impl affectsys::rt::Actuator for GateActuator {
            fn actuate(&mut self, _event: ControlEvent, _now_nanos: u64) {}
            fn on_window(&mut self, _seq: u64) {
                if self.stall.load(Ordering::SeqCst) {
                    self.clock.advance(self.stall_ns);
                }
            }
        }

        let ladder_config = RuntimeConfig {
            feature: FeatureConfig {
                frame_len: 256,
                hop: 128,
                n_mfcc: 8,
                n_mels: 20,
                ..FeatureConfig::default()
            },
            window_samples: WINDOW_SAMPLES,
            workers: 1,
            miss_streak: 1,
            ok_streak: 1,
            ..RuntimeConfig::default()
        };
        let deadline = ladder_config.deadline_ns;
        let ladder_registry = Arc::new(MetricsRegistry::new());
        let ladder_clock = Arc::new(VirtualClock::new());
        let stall = Arc::new(AtomicBool::new(true));
        let mut builder = RuntimeBuilder::new(ladder_config)?
            .metrics(Arc::clone(&ladder_registry))
            .clock(Arc::clone(&ladder_clock) as _);
        let session = builder.add_session_with_precision(
            Box::new(GateActuator {
                clock: Arc::clone(&ladder_clock),
                stall: Arc::clone(&stall),
                stall_ns: 2 * deadline,
            }),
            ClassifierKind::Lstm,
            Precision::Int8,
        );
        let ladder = builder.start()?;

        println!("\nladder walk (int8 session, gate holds every window past the deadline):");
        for w in 0..13u64 {
            if w == 8 {
                stall.store(false, Ordering::SeqCst);
                println!("  -- gate released, windows run on time again --");
            }
            let window: Vec<f32> = (0..WINDOW_SAMPLES)
                .map(|n| ((n as f32) * 0.017).sin() * 0.3)
                .collect();
            ladder.submit(session, window);
            ladder.wait_idle();
            println!(
                "  window {:2}: family {:4}, interval {}",
                w,
                ladder.session_family(session).to_string(),
                ladder.session_interval(session)
            );
        }
        assert_eq!(
            ladder.session_family(session),
            ClassifierKind::Lstm,
            "full recovery"
        );
        assert_eq!(ladder.session_interval(session), 1);
        let ladder_report = ladder.shutdown().report;
        let s = &ladder_report.sessions[0];
        assert!(s.accounted(), "ladder window lost silently");
        println!(
            "  ledger: {} produced, {} processed, {} decimated, {} misses, \
             {} degradations, {} recoveries",
            s.produced, s.processed, s.dropped, s.deadline_misses, s.degradations, s.recoveries
        );
        println!("  per-family classify counters:");
        let rendered = affectsys::obs::render_prometheus(&ladder_registry);
        for line in rendered.lines() {
            if !line.starts_with('#')
                && (line.starts_with("affect_rt_classify_family_total")
                    || line.starts_with("affect_rt_classify_int8_windows_total"))
            {
                println!("    {line}");
            }
        }
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
    let mut stream = encoder.encode(&clip)?;
    let corruption = corrupt_annex_b(
        &mut stream,
        seed,
        &NalFaultConfig {
            flip_per_million: 250_000,
            truncate_per_million: 150_000,
            max_flips: 4,
            protect_sps: true,
        },
    );
    let out = Decoder::new(DecoderOptions {
        resilient: true,
        ..DecoderOptions::default()
    })
    .decode(&stream)?;
    println!(
        "\nbitstream chaos: {}/{} units hit ({} bits flipped, {} truncated, {} bytes cut) → \
         {} frames decoded, {} concealed, {} resyncs",
        corruption.units_flipped + corruption.units_truncated,
        corruption.units_seen,
        corruption.bits_flipped,
        corruption.units_truncated,
        corruption.bytes_removed,
        out.frames.len(),
        out.resilience.concealed_frames,
        out.resilience.resyncs
    );

    if let Some(chunk) = stream_chunk {
        // Phase 2b: the chunking byte-diff — stream the *same corrupted
        // bytes* through the incremental front-end in wire-sized chunks
        // and demand byte-identical output to the whole-buffer decode
        // above. This is the invariant the CI ingest-smoke job diffs.
        let decoder = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        });
        let mut incremental = decoder.begin_stream();
        for piece in stream.chunks(chunk) {
            incremental.decode_chunk(piece)?;
        }
        let chunked = incremental.finish()?;
        assert_eq!(
            chunked.frames, out.frames,
            "chunked frames diverged from whole-buffer"
        );
        assert_eq!(chunked.activity, out.activity, "chunked activity diverged");
        assert_eq!(
            chunked.selection, out.selection,
            "chunked selection diverged"
        );
        println!(
            "stream ingest: {} chunks of {chunk} bytes → {} frames, byte-identical to whole-buffer decode",
            stream.len().div_ceil(chunk),
            chunked.frames.len()
        );

        // Phase 2c: damage applied *on the wire*, per chunk, with unit
        // numbering carried across chunk boundaries so the decision
        // stream replays exactly; lenient resilient decode plays through.
        let clean = encoder.encode(&clip)?;
        let mut corruptor = WireCorruptor::new(
            seed,
            NalFaultConfig {
                flip_per_million: 250_000,
                truncate_per_million: 150_000,
                max_flips: 4,
                protect_sps: true,
            },
        );
        let wire_decoder = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        });
        let mut wire_stream = wire_decoder.begin_stream_with(affectsys::h264::ScannerConfig {
            strict: false,
            ..affectsys::h264::ScannerConfig::default()
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
        println!(
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
        );
    }

    if let Some(ms) = pace_ms {
        // Phase 2d: rate-paced wire playback. The sender releases chunk k
        // at `origin + k * pace` on the runtime clock; on a virtual clock
        // the sleeps are deterministic jumps, so the printed timeline is
        // part of the byte-stable transcript. The frames must match an
        // unpaced decode exactly — pacing changes *when* chunks arrive,
        // never what they decode to.
        use affectsys::obs::Clock as _;
        use affectsys::rt::{MemConsumer, WireConfig, WireSession};
        let chunk = stream_chunk.unwrap_or(1500);
        let pace_ns = ms * 1_000_000;
        let clean = encoder.encode(&clip)?;
        let wire_driver = ModeSwitchDriver::new(VideoPowerMode::Combined);
        let whole = wire_driver.decode_segment(&clean)?;
        let wire_clock = VirtualClock::new();
        let mut wire = WireSession::new(WireConfig {
            chunk_bytes: chunk,
            pace_ns,
            ..WireConfig::default()
        });
        if mem_budget.is_some() {
            wire = wire.with_memory_budget(Arc::clone(&mem));
        }
        let (paced_out, wire_report) =
            wire.ingest_segment_paced(&wire_driver, &clean, &wire_clock, |_, _| {})?;
        assert_eq!(
            paced_out.frames, whole.frames,
            "paced decode diverged from whole-buffer"
        );
        println!(
            "\npaced wire playback: {} chunks of {chunk} bytes at {ms} ms/chunk → \
             {} frames over {} virtual ms, byte-identical to whole-buffer decode",
            wire_report.chunks,
            paced_out.frames.len(),
            wire_clock.now_nanos() / 1_000_000,
        );
        if mem_budget.is_some() {
            println!(
                "  wire/decoder buffer charges released: {} / {} bytes held",
                mem.used_by(MemConsumer::WireBuffers),
                mem.used_by(MemConsumer::DecoderBuffers),
            );
        }
    }

    // The fault-related metric series, so a diff of two runs covers the
    // observability path too.
    println!("\nfault metric series:");
    let rendered = affectsys::obs::render_prometheus(&registry);
    for line in rendered.lines() {
        if !line.starts_with('#')
            && (line.starts_with("affect_fault_")
                || line.starts_with("affect_rt_worker")
                || line.starts_with("affect_rt_breaker")
                || line.starts_with("affect_rt_rejected")
                || line.starts_with("affect_rt_watchdog"))
        {
            println!("  {line}");
        }
    }
    println!("\nchaos run complete: seed {seed}, all windows accounted.");
    Ok(())
}

/// The `--fleet <shards>` entry point: the sharded runtime, driven by the
/// same lockstep load driver as the fleet integration tests. Sessions
/// cycle over the QoS tiers; with a chaos seed, each shard injects a
/// decorrelated fault stream derived from the one fleet seed, and the
/// printed fate ledger is byte-stable across invocations (the CI chaos
/// job diffs two runs).
fn run_fleet(
    shards: usize,
    sessions: usize,
    chaos_seed: Option<u64>,
    stream_chunk: Option<usize>,
    mem_budget: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    use affectsys::fault::{FaultPlan, NalFaultConfig, RtFaultHook, WireCorruptor};
    use affectsys::fleet::{
        drive_lockstep, drive_wire, FleetBuilder, FleetConfig, LoadPlan, QosTier, WirePlan,
    };
    use affectsys::obs::VirtualClock;
    use affectsys::rt::{
        silence_injected_panics, CollectActuator, FaultHook, OverflowPolicy, StageConfig,
        SupervisionConfig,
    };

    const WINDOW_SAMPLES: usize = 1024;
    const ROUNDS: u64 = 12;
    const TICK_NS: u64 = 50_000_000;

    silence_injected_panics();
    match chaos_seed {
        Some(seed) => {
            println!("fleet chaos run: {shards} shards, {sessions} sessions, seed {seed}, lockstep")
        }
        None => println!("fleet run: {shards} shards, {sessions} sessions, lockstep"),
    }

    let mut config = FleetConfig {
        shards,
        runtime: RuntimeConfig {
            feature: FeatureConfig {
                frame_len: 256,
                hop: 128,
                n_mfcc: 8,
                n_mels: 20,
                ..FeatureConfig::default()
            },
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
            memory_budget_bytes: mem_budget.unwrap_or(0),
            supervision: SupervisionConfig {
                restart_budget: u32::MAX,
                backoff_base_ms: 0,
                backoff_max_ms: 0,
                ..SupervisionConfig::default()
            },
            ..RuntimeConfig::default()
        },
        ..FleetConfig::default()
    };
    config.admission.max_sessions_per_shard = sessions.max(1);
    config.admission.critical_reserve = 0;
    config.admission.standard_reserve = 0;

    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config)?;
    for key in 0..sessions as u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::<CollectActuator>::default())
            .ok_or("admission refused a demo session")?;
    }
    builder = builder.clock(clock.clone()).metrics(Arc::clone(&registry));
    if let Some(seed) = chaos_seed {
        let plan = FaultPlan::chaos(seed);
        builder = builder.fault_hooks(|shard| {
            Arc::new(RtFaultHook::new(plan.for_shard(shard.index()))) as Arc<dyn FaultHook>
        });
    }
    let fleet = builder.start()?;

    let plan = LoadPlan {
        rounds: ROUNDS,
        window_samples: WINDOW_SAMPLES,
        tick_ns: TICK_NS,
        drain_every: Some(1),
    };
    drive_lockstep(&fleet, &clock, &plan);
    fleet.wait_idle();
    if mem_budget.is_some() {
        // One governor pass after the load: with a tight budget this
        // evicts BestEffort (then Standard) sessions deterministically;
        // a roomy one readmits. Either way the ledger below must balance.
        let band = fleet.enforce_pressure();
        println!(
            "memory governor: worst shard band {band:?} under the {}-byte budget",
            mem_budget.unwrap_or(0)
        );
    }
    let report = fleet.shutdown();

    println!("\nper-shard placement:");
    for (shard, shard_report) in &report.shards {
        println!(
            "  shard {}: {} sessions, {} produced, {} processed, {} dropped",
            shard.index(),
            shard_report.sessions.len(),
            shard_report.total_produced(),
            shard_report.total_processed(),
            shard_report.total_dropped()
        );
        assert!(shard_report.all_accounted(), "shard lost windows silently");
    }

    println!("\nper-session fate ledger (produced = processed + dropped):");
    for s in &report.merged.sessions {
        println!(
            "  session {:3}: {:3} produced, {:3} processed, {:2} dropped",
            s.session, s.produced, s.processed, s.dropped
        );
        assert!(s.accounted(), "window lost silently");
    }

    println!("\nadmission ledger (offered = submitted + shed + evicted per tier):");
    let a = &report.admission;
    for tier in QosTier::ALL {
        println!(
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
        );
    }
    assert!(report.accounted(), "fleet accounting broke");

    // Post-run: the video leg of every session's traffic, fanned out per
    // QoS tier over the chunked wire (optionally damaged in flight).
    if let Some(chunk) = stream_chunk {
        use std::collections::HashMap;
        let (_, stream) = paper_reference(5)?;
        let mut wire_plan = WirePlan::default();
        for policy in &mut wire_plan.by_tier {
            policy.wire.chunk_bytes = chunk;
        }
        let wire_sessions: Vec<(u64, QosTier)> = (0..sessions as u64)
            .map(|key| (key, QosTier::ALL[key as usize % QosTier::ALL.len()]))
            .collect();
        let wire_report = match chaos_seed {
            Some(seed) => {
                // One corruptor per session keeps each wire's unit
                // numbering (and thus its damage) independent and
                // replayable from the fleet seed.
                let mut corruptors: HashMap<u64, WireCorruptor> = HashMap::new();
                drive_wire(&wire_sessions, &stream, &wire_plan, |session, _, buf| {
                    corruptors
                        .entry(session)
                        .or_insert_with(|| {
                            WireCorruptor::new(seed ^ session, NalFaultConfig::CHAOS)
                        })
                        .corrupt_chunk(buf);
                })
            }
            None => drive_wire(&wire_sessions, &stream, &wire_plan, |_, _, _| {}),
        };
        println!("\nper-tier wire ledger ({chunk}-byte chunks):");
        for tier in QosTier::ALL {
            let t = wire_report.tier(tier);
            println!(
                "  {:11}: {:4} chunks, {:6} bytes, {:3} units, {:3} frames, {:2} concealed, {:2} resyncs",
                tier.label(),
                t.chunks,
                t.wire_bytes,
                t.units,
                t.frames,
                t.concealed_frames,
                t.resyncs
            );
        }
        println!("  wire failures: {}", wire_report.failures.len());
    }

    println!("\nfleet metric series:");
    let rendered = affectsys::obs::render_prometheus(&registry);
    for line in rendered.lines() {
        if !line.starts_with('#') && line.starts_with("affect_fleet_") {
            println!("  {line}");
        }
    }
    println!(
        "\nfleet run complete: {} windows across {} sessions on {} shards, all accounted.",
        report.merged.total_produced(),
        report.sessions(),
        shards
    );
    Ok(())
}

/// Pulls `--flag <value>` out of the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let chaos_seed: Option<u64> = match flag_value(&args, "--chaos") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| "usage: realtime_loop --chaos <seed>")?,
        ),
        None => None,
    };
    let sessions_flag: Option<usize> = match flag_value(&args, "--sessions") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| "usage: realtime_loop --sessions <count>")?,
        ),
        None => None,
    };
    let stream_chunk: Option<usize> = match flag_value(&args, "--stream-chunk") {
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|&b| b > 0)
                .ok_or("usage: realtime_loop --stream-chunk <bytes>")?,
        ),
        None => None,
    };
    let mem_budget: Option<u64> = match flag_value(&args, "--mem-budget") {
        Some(v) => Some(
            v.parse::<u64>()
                .ok()
                .filter(|&b| b > 0)
                .ok_or("usage: realtime_loop --mem-budget <bytes>")?,
        ),
        None => None,
    };
    let pace_ms: Option<u64> = match flag_value(&args, "--pace") {
        Some(v) => Some(
            v.parse::<u64>()
                .ok()
                .filter(|&ms| ms > 0)
                .ok_or("usage: realtime_loop --pace <ms>")?,
        ),
        None => None,
    };
    if let Some(v) = flag_value(&args, "--fleet") {
        let shards: usize = v
            .parse()
            .map_err(|_| "usage: realtime_loop --fleet <shards>")?;
        return run_fleet(
            shards,
            sessions_flag.unwrap_or(24),
            chaos_seed,
            stream_chunk,
            mem_budget,
        );
    }
    if let Some(seed) = chaos_seed {
        return run_chaos(seed, stream_chunk, mem_budget, pace_ms);
    }

    let sessions_n: usize = sessions_flag.unwrap_or(8);
    const WINDOWS_PER_SEGMENT: u32 = 6;

    // 1-second windows at 16 kHz would be the paper's cadence; the demo
    // uses 4096-sample windows so it runs in seconds.
    let config = RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 256,
            hop: 128,
            n_mfcc: 8,
            n_mels: 20,
            ..FeatureConfig::default()
        },
        window_samples: 4096,
        workers: 4,
        smoothing_window: 2,
        ..RuntimeConfig::default()
    };
    println!(
        "starting runtime: {} feature + {} classify workers, deadline {} ms",
        config.workers,
        config.workers,
        config.deadline_ns / 1_000_000
    );

    // One registry observes everything: the runtime's stage queues and
    // latency spans, every session's decoder driver and app reranker, and
    // the post-run decode/simulation phases below.
    let registry = Arc::new(MetricsRegistry::new());
    #[cfg(feature = "obs-server")]
    let server = {
        let addr = std::env::var("OBS_ADDR").unwrap_or_else(|_| "127.0.0.1:9464".into());
        let server = affectsys::obs::MetricsServer::serve(Arc::clone(&registry), addr.as_str())?;
        println!("metrics live at http://{}/metrics", server.local_addr());
        server
    };

    let mut builder = RuntimeBuilder::new(config)?.metrics(Arc::clone(&registry));
    let subject = SubjectProfile::subject3();
    let logs: Vec<Arc<Mutex<SessionLog>>> = (0..sessions_n)
        .map(|_| Arc::new(Mutex::new(SessionLog::default())))
        .collect();
    let sessions: Vec<_> = logs
        .iter()
        .map(|log| {
            let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
            driver.attach_metrics(&registry);
            let mut reranker = EmotionReranker::new(
                AppAffectTable::from_subject(&subject, 0.05),
                Emotion::Neutral,
            );
            reranker.attach_metrics(&registry);
            let actuator = DeviceActuator {
                video: VideoActuator::new(driver),
                apps: AppActuator::new(reranker),
                log: Arc::clone(log),
            };
            builder.add_session(Box::new(actuator))
        })
        .collect();
    let runtime = Arc::new(builder.start()?);

    // Each wearer cycles through a different slice of the emotion wheel.
    let producers: Vec<_> = sessions
        .iter()
        .map(|&session| {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                let i = session.index();
                let schedule = vec![
                    (Emotion::ALL[i % 8], WINDOWS_PER_SEGMENT),
                    (Emotion::ALL[(i + 3) % 8], WINDOWS_PER_SEGMENT),
                    (Emotion::ALL[(i + 5) % 8], WINDOWS_PER_SEGMENT),
                ];
                let stream = VoiceWindowStream::new(schedule, 4096, 16_000.0, 1000 + i as u64)
                    .expect("valid schedule");
                for window in stream {
                    runtime.submit(session, window.samples);
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().expect("producer panicked");
    }
    runtime.wait_idle();

    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("all producers joined"));
    let outcome = runtime.shutdown();

    println!("\nper-session accounting (produced = processed + dropped):");
    for s in &outcome.report.sessions {
        println!(
            "  session {}: {:3} produced, {:3} processed, {:2} dropped, {:2} misses, \
             family {}, p50 {:.2} ms, p99 {:.2} ms",
            s.session,
            s.produced,
            s.processed,
            s.dropped,
            s.deadline_misses,
            s.family,
            s.latency.quantile(0.50) as f64 / 1e6,
            s.latency.quantile(0.99) as f64 / 1e6,
        );
        assert!(s.accounted(), "window lost silently");
    }

    println!("\nstage queues:");
    for st in &outcome.report.stages {
        println!(
            "  {:8} pushed {:4}, popped {:4}, shed {:2}, high-water {}/{}",
            st.stage, st.pushed, st.popped, st.shed, st.depth_high_water, st.capacity
        );
    }

    println!("\ntimestamped actuations:");
    for (i, log) in logs.iter().enumerate() {
        let log = log.lock().expect("log lock");
        let switches: Vec<String> = log
            .switches
            .iter()
            .map(|(t, m)| format!("{:.1}ms→{m}", *t as f64 / 1e6))
            .collect();
        let reranks: Vec<String> = log
            .reranks
            .iter()
            .map(|(t, e)| format!("{:.1}ms→{e}", *t as f64 / 1e6))
            .collect();
        println!(
            "  session {i}: decoder switches [{}], app re-ranks [{}]",
            switches.join(", "),
            reranks.join(", ")
        );
    }

    println!(
        "\ndone: {} windows across {} sessions, all accounted.",
        outcome.report.total_produced(),
        outcome.report.sessions.len()
    );

    // Post-run phase 1: decode a calibration segment under each video
    // power mode so the h264_* deletion/deblock/IQIT series are exercised
    // beyond what the live loop's mode switches touched.
    match stream_chunk {
        Some(chunk) => {
            println!("\ndecoding one segment per video power mode ({chunk}-byte wire chunks):")
        }
        None => println!("\ndecoding one segment per video power mode:"),
    }
    let (_, stream) = paper_reference(5)?;
    let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
    driver.attach_metrics(&registry);
    for mode in VideoPowerMode::ALL {
        driver.set_mode(mode);
        let out = match stream_chunk {
            // Wire-path variant: stream the segment in transport-sized
            // chunks and hold the chunking-invariance contract live.
            Some(chunk) => {
                let whole = driver.decode_segment(&stream)?;
                let out = driver.decode_segment_chunked(
                    stream.chunks(chunk),
                    affectsys::h264::ScannerConfig::default(),
                )?;
                assert_eq!(
                    out.frames, whole.frames,
                    "chunked decode diverged from whole-buffer"
                );
                assert_eq!(out.activity, whole.activity, "chunked activity diverged");
                out
            }
            None => driver.decode_segment(&stream)?,
        };
        println!(
            "  {mode}: {} frames, {} NALs deleted, {} IQIT blocks",
            out.frames.len(),
            out.selection.deleted_units,
            out.activity.iqit_blocks
        );
    }
    if stream_chunk.is_some() {
        println!("  chunked decode verified byte-identical to whole-buffer in every mode");
    }

    // Post-run phase 2: a short emotion-policy app-manager run so the
    // mobile_sim_* kill/reload/latency series are live as well.
    let device = DeviceConfig::paper_emulator();
    let workload = MonkeyScript::new(&subject, 42)
        .paper_fig9()
        .build(&device)?;
    let mut sim = Simulator::new(device, PolicyKind::Emotion)?;
    sim.attach_metrics(&registry);
    let sim_metrics = sim.run(&workload)?;
    println!(
        "app manager: {} launches, {} kills, {:.1} MB reloaded, {:.1} s loading",
        sim_metrics.launches,
        sim_metrics.kills,
        sim_metrics.loaded_bytes as f64 / 1e6,
        sim_metrics.load_time_s
    );

    let names = registry.names();
    println!(
        "\nregistry: {} metric series under {} names:",
        registry.len(),
        names.len()
    );
    for name in &names {
        println!("  {name}");
    }

    #[cfg(feature = "obs-server")]
    {
        // Prove the endpoint end to end: fetch our own /metrics page.
        use std::io::{Read as _, Write as _};
        let mut conn = std::net::TcpStream::connect(server.local_addr())?;
        write!(conn, "GET /metrics HTTP/1.0\r\nHost: demo\r\n\r\n")?;
        let mut response = String::new();
        conn.read_to_string(&mut response)?;
        let metric_lines = response.lines().filter(|l| l.starts_with("# TYPE")).count();
        println!("\nGET /metrics → {metric_lines} exposed metrics");
        let hold: u64 = std::env::var("OBS_HOLD_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if hold > 0 {
            println!(
                "holding the /metrics endpoint for {hold}s — try: curl http://{}/metrics",
                server.local_addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(hold));
        }
        drop(server);
    }
    Ok(())
}
