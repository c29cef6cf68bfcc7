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
//! # Scenarios
//!
//! ```text
//! cargo run --release --example realtime_loop -- --scenario chaos-42
//! ```
//!
//! prints the transcript of one deterministic scenario from
//! `affectsys::scenarios` instead — seeded chaos, the sharded fleet, the
//! chunked wire, memory pressure or the degradation-ladder walk, all on a
//! virtual clock. The same transcript is committed under
//! `tests/golden/<name>.txt`, and the `golden_transcripts` test fails when
//! a render differs from it. See `docs/ROBUSTNESS.md` for the fault
//! taxonomy.

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
use affectsys::scenarios;

/// Wearers in the live demo.
const SESSIONS: usize = 8;
/// Windows per emotion segment of each wearer's schedule.
const WINDOWS_PER_SEGMENT: u32 = 6;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => demo(),
        [flag, name] if flag == "--scenario" => {
            print!("{}", scenarios::render(name)?);
            Ok(())
        }
        _ => Err(format!(
            "usage: realtime_loop [--scenario <{}>]",
            scenarios::NAMES.join("|")
        )
        .into()),
    }
}

/// The live demo on the system clock.
fn demo() -> Result<(), Box<dyn std::error::Error>> {
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
    let logs: Vec<Arc<Mutex<SessionLog>>> = (0..SESSIONS)
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
    println!("\ndecoding one segment per video power mode:");
    let (_, stream) = paper_reference(5)?;
    let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
    driver.attach_metrics(&registry);
    for mode in VideoPowerMode::ALL {
        driver.set_mode(mode);
        let out = driver.decode_segment(&stream)?;
        println!(
            "  {mode}: {} frames, {} NALs deleted, {} IQIT blocks",
            out.frames.len(),
            out.selection.deleted_units,
            out.activity.iqit_blocks
        );
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
