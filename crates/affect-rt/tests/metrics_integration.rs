//! Integration test for the runtime's observability: a deterministic
//! `VirtualClock` run must leave the attached registry consistent with
//! the runtime's own report, and the Prometheus rendering must parse.

use std::sync::Arc;

use affect_core::emotion::Emotion;
use affect_core::pipeline::FeatureConfig;
use affect_obs::{render_prometheus, MetricsRegistry, VirtualClock};
use affect_rt::{CollectActuator, RuntimeBuilder, RuntimeConfig};
use biosignal::VoiceWindowStream;

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

/// Minimal Prometheus text-format check: every non-comment line must be
/// `name{labels} value` with a parseable numeric value, every referenced
/// name must have been announced by a `# TYPE` line, and `# HELP` must
/// precede `# TYPE` for each name.
fn assert_parses(text: &str) {
    let mut announced: Vec<&str> = Vec::new();
    let mut helped: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP has a name");
            helped.push(name);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE has a name");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown kind {kind:?} in {line:?}"
            );
            assert!(helped.contains(&name), "TYPE before HELP for {name}");
            announced.push(name);
            continue;
        }
        assert!(!line.is_empty(), "blank line in exposition");
        let (series, value) = line.rsplit_once(' ').expect("line has a value");
        let name = series.split('{').next().unwrap();
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| announced.contains(b))
            .unwrap_or(name);
        assert!(announced.contains(&base), "sample before TYPE: {line:?}");
        if let Some(labels) = series.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed labels in {line:?}"
                );
            }
        }
    }
    assert!(!announced.is_empty(), "no metrics rendered");
}

#[test]
fn virtual_clock_run_renders_consistent_prometheus_page() {
    const SESSIONS: usize = 3;
    const WINDOWS: u32 = 12;

    let registry = Arc::new(MetricsRegistry::new());
    let clock = Arc::new(VirtualClock::new());
    let mut config = fast_config();
    config.workers = 2;
    config.deadline_ns = 60_000_000_000; // nothing misses under virtual time
    let mut builder = RuntimeBuilder::new(config)
        .unwrap()
        .clock(Arc::clone(&clock) as _)
        .metrics(Arc::clone(&registry));
    let handles: Vec<_> = (0..SESSIONS)
        .map(|_| builder.add_session(Box::new(CollectActuator::default())))
        .collect();
    let runtime = builder.start().unwrap();

    for (i, &session) in handles.iter().enumerate() {
        let stream = VoiceWindowStream::new(
            vec![(Emotion::Happy, WINDOWS)],
            1024,
            16_000.0,
            100 + i as u64,
        )
        .unwrap();
        for window in stream {
            runtime.submit(session, window.samples);
            clock.advance(1_000_000); // 1 ms of virtual time per window
        }
    }
    runtime.wait_idle();
    let outcome = runtime.shutdown();

    // The registry agrees with the runtime's own accounting.
    let get = |name: &str| registry.counter(name, "", &[]).get();
    let produced: u64 = outcome.report.sessions.iter().map(|s| s.produced).sum();
    let processed: u64 = outcome.report.sessions.iter().map(|s| s.processed).sum();
    let dropped: u64 = outcome.report.sessions.iter().map(|s| s.dropped).sum();
    assert_eq!(produced, u64::from(WINDOWS) * SESSIONS as u64);
    assert_eq!(get("affect_rt_windows_submitted_total"), produced);
    assert_eq!(get("affect_rt_windows_processed_total"), processed);
    assert_eq!(get("affect_rt_windows_dropped_total"), dropped);
    assert_eq!(get("affect_rt_deadline_misses_total"), 0);
    let e2e = registry.histogram("affect_rt_e2e_latency_ns", "", &[]);
    assert_eq!(
        e2e.count(),
        processed,
        "one e2e sample per processed window"
    );
    let ingest_pushed = registry
        .counter("affect_rt_queue_pushed_total", "", &[("stage", "ingest")])
        .get();
    assert!(ingest_pushed > 0 && ingest_pushed <= produced);

    // The exposed page is well-formed Prometheus text.
    let text = render_prometheus(&registry);
    assert_parses(&text);
    assert!(text.contains("# TYPE affect_rt_stage_latency_ns histogram"));
    assert!(text.contains("affect_rt_queue_depth{stage=\"ingest\"} 0"));
    assert!(text.contains(&format!("affect_rt_windows_submitted_total {produced}")));
}
