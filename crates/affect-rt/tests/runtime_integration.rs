//! Integration tests for the streaming runtime: multi-session accounting,
//! overload shedding, and deterministic deadline-driven degradation.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use affect_core::classifier::ClassifierKind;
use affect_core::emotion::Emotion;
use affect_core::pipeline::FeatureConfig;
use affect_obs::{Clock, VirtualClock};
use affect_rt::{
    Actuator, CollectActuator, OverflowPolicy, RuntimeBuilder, RuntimeConfig, StageConfig,
    WatchdogConfig,
};
use biosignal::VoiceWindowStream;

/// Fast feature configuration: 1024-sample windows, 7 frames, 14 features
/// per frame — small enough that untrained models classify in microseconds.
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

/// An actuator that parks each window in `on_window` until the test sends
/// a permit. Latency is measured *after* `on_window` returns, so a test
/// that advances the virtual clock before sending the permit dictates the
/// window's observed latency exactly.
struct GatedActuator {
    permits: Receiver<()>,
    seqs: Arc<Mutex<Vec<u64>>>,
}

impl GatedActuator {
    fn new() -> (Self, Sender<()>, Arc<Mutex<Vec<u64>>>) {
        let (tx, rx) = channel();
        let seqs = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                permits: rx,
                seqs: Arc::clone(&seqs),
            },
            tx,
            seqs,
        )
    }
}

impl Actuator for GatedActuator {
    fn actuate(&mut self, _event: affect_core::controller::ControlEvent, _now_nanos: u64) {}

    fn on_window(&mut self, seq: u64) {
        // `Err` only when the test dropped the sender (shutdown path).
        let _ = self.permits.recv();
        self.seqs.lock().unwrap().push(seq);
    }
}

#[test]
fn eight_concurrent_sessions_account_every_window() {
    const SESSIONS: usize = 8;
    const WINDOWS: u32 = 24;

    let mut config = fast_config();
    config.workers = 4;
    // Lossless queues and a generous budget: nothing should be shed.
    config.deadline_ns = 60_000_000_000;
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| builder.add_session(Box::new(CollectActuator::default())))
        .collect();
    let runtime = Arc::new(builder.start().unwrap());

    // One producer thread per session, all submitting concurrently.
    let producers: Vec<_> = handles
        .iter()
        .map(|&session| {
            let runtime = Arc::clone(&runtime);
            std::thread::spawn(move || {
                let emotion = Emotion::ALL[session.index() % Emotion::ALL.len()];
                let stream = VoiceWindowStream::new(
                    vec![(emotion, WINDOWS)],
                    1024,
                    16_000.0,
                    100 + session.index() as u64,
                )
                .unwrap();
                for window in stream {
                    runtime.submit(session, window.samples);
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().unwrap();
    }

    runtime.wait_idle();
    let runtime = Arc::try_unwrap(runtime).unwrap_or_else(|_| panic!("producers joined"));
    let outcome = runtime.shutdown();

    assert_eq!(outcome.report.sessions.len(), SESSIONS);
    assert!(outcome.report.all_accounted(), "silent window loss");
    for session in &outcome.report.sessions {
        assert_eq!(session.produced, u64::from(WINDOWS));
        assert_eq!(
            session.processed,
            u64::from(WINDOWS),
            "lossless run sheds nothing"
        );
        assert_eq!(session.dropped, 0);
        let latency = session.latency.summary();
        assert!(latency.count > 0, "report must be non-empty");
        assert!(latency.p95_ns >= latency.p50_ns);
        assert!(latency.max_ns > 0);
    }
    // Queue accounting is consistent stage by stage.
    for stage in &outcome.report.stages {
        assert_eq!(stage.pushed, stage.popped, "{} not drained", stage.stage);
        assert_eq!(stage.shed, 0, "{} shed under lossless policy", stage.stage);
        assert!(stage.depth_high_water <= stage.capacity);
    }
    assert_eq!(
        outcome.report.total_processed(),
        u64::from(WINDOWS) * SESSIONS as u64
    );
    // Classify-stage hot-path accounting: every processed window was
    // classified, in at least one batch, and the scratch arenas settled
    // into reuse after their cold-start allocations.
    let classify = &outcome.report.classify;
    assert_eq!(classify.windows, u64::from(WINDOWS) * SESSIONS as u64);
    assert!(classify.batches > 0 && classify.batches <= classify.windows);
    assert!(classify.max_batch >= 1);
    assert!(classify.mean_batch() >= 1.0);
    assert!(
        classify.scratch_reuses > classify.scratch_allocs,
        "scratch arenas should mostly reuse: {} allocs vs {} reuses",
        classify.scratch_allocs,
        classify.scratch_reuses
    );
}

#[test]
fn drop_oldest_sheds_stale_windows_but_keeps_latest() {
    const SUBMITTED: u64 = 24;

    let mut config = fast_config();
    config.workers = 1;
    config.ingest = StageConfig::new(2, OverflowPolicy::DropOldest);
    config.classify = StageConfig::new(2, OverflowPolicy::Block);
    config.control = StageConfig::new(2, OverflowPolicy::Block);
    config.actuate_capacity = 2;
    config.deadline_ns = 60_000_000_000;
    let clock = Arc::new(VirtualClock::new());
    let (actuator, permits, seqs) = GatedActuator::new();
    let mut builder = RuntimeBuilder::new(config)
        .unwrap()
        .clock(clock.clone() as Arc<dyn Clock>);
    let session = builder.add_session(Box::new(actuator));
    let runtime = builder.start().unwrap();

    // With the actuate stage gated shut, the pipeline backs up into the
    // ingest ring; drop-oldest evicts stale windows as fresh ones arrive.
    let window = vec![0.1f32; 1024];
    for _ in 0..SUBMITTED {
        runtime.submit(session, window.clone());
    }
    // Open the gate wide and let the survivors drain.
    for _ in 0..SUBMITTED {
        let _ = permits.send(());
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();

    let report = &outcome.report.sessions[session.index()];
    assert!(report.accounted(), "silent window loss under overload");
    assert_eq!(report.produced, SUBMITTED);
    assert!(report.dropped > 0, "overload must shed");
    assert_eq!(report.processed + report.dropped, SUBMITTED);

    let ingest = &outcome.report.stages[0];
    assert_eq!(ingest.stage, "ingest");
    assert!(ingest.shed > 0, "ingest ring must have evicted");
    assert_eq!(ingest.depth_high_water, 2, "bounded queue respected");

    // Drop-oldest keeps the freshest data: the last submitted window
    // always survives, and the processed sequence is strictly increasing.
    let seqs = seqs.lock().unwrap();
    assert_eq!(*seqs.last().unwrap(), SUBMITTED - 1, "latest window lost");
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "order not preserved");
}

#[test]
fn sustained_misses_degrade_then_recovery_climbs_back() {
    let mut config = fast_config();
    config.workers = 1;
    config.deadline_ns = 1_000; // 1 µs virtual budget
    config.miss_streak = 3;
    config.ok_streak = 2;
    config.degraded_interval = 4;
    let clock = Arc::new(VirtualClock::new());
    let (actuator, permits, _seqs) = GatedActuator::new();
    let mut builder = RuntimeBuilder::new(config)
        .unwrap()
        .clock(clock.clone() as Arc<dyn Clock>);
    let session = builder.add_session(Box::new(actuator));
    let runtime = builder.start().unwrap();

    let window = vec![0.1f32; 1024];

    // Phase A — overload: each window is held at the actuator while the
    // virtual clock advances past the deadline, so every one is a miss.
    for _ in 0..3 {
        assert!(runtime.submit(session, window.clone()));
        clock.advance(10_000);
        permits.send(()).unwrap();
        runtime.wait_idle();
    }
    // Three consecutive misses: one degradation step = family falls back
    // one rung and the decision interval widens.
    assert_eq!(runtime.session_family(session), ClassifierKind::Cnn);
    assert_eq!(runtime.session_interval(session), 4);
    let mid = runtime.report();
    assert_eq!(mid.sessions[0].deadline_misses, 3);
    assert_eq!(mid.sessions[0].degradations, 1);
    // Every window that reached actuation missed its deadline.
    assert_eq!(mid.sessions[0].deadline_misses, mid.sessions[0].processed);

    // Phase B — load lifts: the clock stops advancing, so every window
    // that still enters the pipeline lands at zero latency. The widened
    // interval decimates three of every four submissions (counted as
    // dropped, not lost), and two on-time windows per recovery step first
    // restore the interval, then climb the family ladder back to LSTM.
    let mut processed_on_time = 0;
    let mut decimated = 0u64;
    while processed_on_time < 4 {
        if runtime.submit(session, window.clone()) {
            permits.send(()).unwrap();
            runtime.wait_idle();
            processed_on_time += 1;
        } else {
            decimated += 1;
        }
    }
    assert!(decimated > 0, "widened interval must decimate");
    assert_eq!(runtime.session_interval(session), 1, "interval restored");
    assert_eq!(
        runtime.session_family(session),
        ClassifierKind::Lstm,
        "family climbs back to the configured initial"
    );

    let outcome = runtime.shutdown();
    let report = &outcome.report.sessions[0];
    assert!(report.accounted());
    // No further misses after the switch: the miss rate dropped from 100%
    // in the overload phase to 3/7 overall.
    assert_eq!(report.deadline_misses, 3);
    assert_eq!(report.processed, 7);
    assert!(2 * report.deadline_misses < report.processed);
    assert_eq!(report.recoveries, 2);
    assert_eq!(report.dropped, decimated);
}

#[test]
fn drop_newest_rejects_under_pressure_and_accounts() {
    let mut config = fast_config();
    config.workers = 1;
    config.ingest = StageConfig::new(1, OverflowPolicy::DropNewest);
    config.deadline_ns = 60_000_000_000;
    let (actuator, permits, seqs) = GatedActuator::new();
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::new(actuator));
    let runtime = builder.start().unwrap();

    let window = vec![0.1f32; 1024];
    let mut admitted = 0u64;
    for _ in 0..16 {
        if runtime.submit(session, window.clone()) {
            admitted += 1;
        }
    }
    for _ in 0..16 {
        let _ = permits.send(());
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();

    let report = &outcome.report.sessions[0];
    assert!(report.accounted());
    assert_eq!(report.produced, 16);
    assert_eq!(report.processed, admitted);
    // Drop-newest preserves in-flight work: the first window always wins.
    assert_eq!(*seqs.lock().unwrap().first().unwrap(), 0);
}

#[test]
fn watchdog_drains_a_wedged_stage() {
    const SUBMITTED: u64 = 20;

    let mut config = fast_config();
    config.workers = 1;
    config.ingest = StageConfig::new(4, OverflowPolicy::DropOldest);
    config.classify = StageConfig::new(2, OverflowPolicy::Block);
    config.control = StageConfig::new(2, OverflowPolicy::Block);
    config.actuate_capacity = 2;
    config.deadline_ns = 60_000_000_000;
    config.watchdog = Some(WatchdogConfig {
        poll_ms: 5,
        stall_polls: 2,
    });
    let (actuator, permits, _seqs) = GatedActuator::new();
    let mut builder = RuntimeBuilder::new(config).unwrap();
    let session = builder.add_session(Box::new(actuator));
    let runtime = builder.start().unwrap();

    // The gated actuator wedges the actuate stage, so every ring behind it
    // fills and stops moving: the watchdog must shed the stalled rings.
    let window = vec![0.1f32; 1024];
    for _ in 0..SUBMITTED {
        runtime.submit(session, window.clone());
    }
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..SUBMITTED {
        let _ = permits.send(());
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();

    let report = &outcome.report;
    assert!(report.all_accounted(), "watchdog sheds are accounted");
    assert_eq!(report.sessions[session.index()].produced, SUBMITTED);
    assert!(
        report.faults.watchdog_sheds > 0,
        "the stalled rings were shed"
    );
}
