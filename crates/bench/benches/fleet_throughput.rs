//! Fleet load generator: how many concurrent affect sessions the sharded
//! runtime sustains, and what the tail latency does on the way to
//! saturation.
//!
//! Each load point builds a fresh fleet (shards ≈ cores, sessions cycled
//! over the three QoS tiers), drives it in free-running lockstep under a
//! shared `VirtualClock` — every round offers one window per session and
//! advances virtual time one tick, with no mid-run drain — then drains
//! and shuts down. Because arrival stamps come from the virtual clock,
//! the recorded latency measures *backlog in ticks*: a window that sat
//! queued while the driver pushed three more rounds shows three virtual
//! seconds of latency. That turns the merged latency histogram into a
//! p99-vs-load curve; wall-clock `Instant` independently measures
//! windows/s.
//!
//! Outputs:
//!   - `benches/results/fleet_throughput.csv` — the full sweep
//!   - `../../BENCH_fleet_throughput.json` — the repo-root trajectory
//!     (sessions/core and p99-vs-load points)
//!
//! Flags:
//!   - `--test` (passed by `cargo test`) shrinks the run to a smoke
//!     signal and skips file output.
//!   - `--sessions N` caps the sweep's largest load point (the CI
//!     fleet-smoke job uses `--sessions 512`; the default tops out at
//!     12288, past the 10k-session target).
//!
//! Every run, at every load point, asserts both accounting invariants:
//! per session `produced == processed + dropped`, per tier
//! `offered == submitted + shed`.

use std::sync::Arc;
use std::time::Instant;

use affect_core::pipeline::FeatureConfig;
use affect_fleet::{drive_lockstep, FleetBuilder, FleetConfig, FleetReport, LoadPlan, QosTier};
use affect_obs::{MetricsRegistry, VirtualClock};
use affect_rt::{NullActuator, OverflowPolicy, RuntimeConfig, StageConfig};
use bench::table::Table;

const WINDOW_SAMPLES: usize = 256;
const TICK_NS: u64 = 1_000_000_000;
const ROUNDS: u64 = 4;

/// Per-shard runtime sized for session *count*, not per-window depth:
/// small windows, small feature frames, one worker per shard (the shard
/// itself is the unit of parallelism).
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 128,
            hop: 64,
            n_mfcc: 4,
            n_mels: 12,
            ..FeatureConfig::default()
        },
        window_samples: WINDOW_SAMPLES,
        workers: 1,
        ingest: StageConfig::new(256, OverflowPolicy::Block),
        classify: StageConfig::new(256, OverflowPolicy::Block),
        control: StageConfig::new(256, OverflowPolicy::Block),
        actuate_capacity: 256,
        // The bench measures capacity, not deadline policy: a generous
        // budget keeps degradation churn out of the throughput numbers.
        deadline_ns: 3_600 * TICK_NS,
        ..RuntimeConfig::default()
    }
}

struct PointResult {
    shards: usize,
    elapsed_s: f64,
    report: FleetReport,
}

/// One load point: build a fleet of `sessions` wearers over `shards`
/// shards, drive `ROUNDS` free-running lockstep rounds, drain, shut
/// down. The timed region covers submit through drain — the full cost of
/// clearing the offered load.
fn run_point(sessions: usize, shards: usize) -> PointResult {
    let mut config = FleetConfig {
        shards,
        runtime: runtime_config(),
        ..FleetConfig::default()
    };
    // Admission is not under test here: lift the cap and the reserves so
    // every synthetic wearer is admitted regardless of routing skew.
    config.admission.max_sessions_per_shard = sessions;
    config.admission.critical_reserve = 0;
    config.admission.standard_reserve = 0;
    let clock = Arc::new(VirtualClock::new());
    let registry = Arc::new(MetricsRegistry::new());
    let mut builder = FleetBuilder::new(config).expect("fleet config");
    for key in 0..sessions as u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::new(NullActuator))
            .expect("admission cap was lifted");
    }
    let fleet = builder
        .clock(clock.clone())
        .metrics(registry)
        .start()
        .expect("fleet start");
    let plan = LoadPlan {
        rounds: ROUNDS,
        window_samples: WINDOW_SAMPLES,
        tick_ns: TICK_NS,
        drain_every: None,
    };
    let start = Instant::now();
    drive_lockstep(&fleet, &clock, &plan);
    fleet.wait_idle();
    let elapsed_s = start.elapsed().as_secs_f64();
    let report = fleet.shutdown();
    assert!(
        report.accounted(),
        "accounting violation at {sessions} sessions"
    );
    PointResult {
        shards,
        elapsed_s,
        report,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let max_sessions: usize = args
        .iter()
        .position(|a| a == "--sessions")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--sessions takes a number"))
        .unwrap_or(if test_mode { 128 } else { 12_288 });

    // One shard per core is the intended shape; floor at 4 so the sweep
    // exercises routing, QoS shedding, and report merging even on small
    // CI boxes (shards are threads — they timeshare fine).
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16);

    // Sweep to saturation: geometric load points up to the target.
    let mut points = Vec::new();
    let mut n = 512usize;
    while n < max_sessions {
        points.push(n);
        n *= 4;
    }
    points.push(max_sessions);

    let mut table = Table::new(vec![
        "sessions".into(),
        "shards".into(),
        "sessions_per_shard".into(),
        "offered".into(),
        "submitted".into(),
        "shed".into(),
        "processed".into(),
        "seconds".into(),
        "windows_per_sec".into(),
        "p50_virtual_ticks".into(),
        "p99_virtual_ticks".into(),
    ]);
    let mut json_points = Vec::new();
    eprintln!("\nfleet load sweep ({shards} shards, {ROUNDS} rounds per point):");
    for &sessions in &points {
        let result = run_point(sessions, shards);
        let report = &result.report;
        let admission = &report.admission;
        let latency = report.merged.merged_latency();
        let p50_ticks = latency.quantile(0.50) as f64 / TICK_NS as f64;
        let p99_ticks = latency.quantile(0.99) as f64 / TICK_NS as f64;
        let processed = report.merged.total_processed();
        let per_sec = processed as f64 / result.elapsed_s;
        eprintln!(
            "  {sessions:>6} sessions ({:>5.0}/shard): {processed:>6} windows in {:>6.3}s \
             ({per_sec:>8.0} windows/s), shed {:>5}, p99 {p99_ticks:.2} ticks",
            sessions as f64 / result.shards as f64,
            result.elapsed_s,
            admission.shed.total(),
        );
        table.row(vec![
            sessions.to_string(),
            result.shards.to_string(),
            format!("{:.1}", sessions as f64 / result.shards as f64),
            admission.offered.total().to_string(),
            admission.submitted.total().to_string(),
            admission.shed.total().to_string(),
            processed.to_string(),
            format!("{:.4}", result.elapsed_s),
            format!("{per_sec:.1}"),
            format!("{p50_ticks:.3}"),
            format!("{p99_ticks:.3}"),
        ]);
        json_points.push(format!(
            "    {{\n      \"sessions\": {sessions},\n      \"shards\": {},\n      \
             \"sessions_per_shard\": {:.1},\n      \"windows_per_sec\": {per_sec:.1},\n      \
             \"shed\": {},\n      \"p50_virtual_ticks\": {p50_ticks:.3},\n      \
             \"p99_virtual_ticks\": {p99_ticks:.3},\n      \"accounted\": true\n    }}",
            result.shards,
            sessions as f64 / result.shards as f64,
            admission.shed.total(),
        ));
    }

    if !test_mode && max_sessions >= 10_000 {
        eprintln!("  sustained {max_sessions} concurrent sessions (target: 10000+)");
    }

    // `--test` keeps the committed results untouched: a 128-session run
    // is a smoke signal, not a measurement.
    if test_mode {
        println!("test mode: skipping csv/json output");
        return;
    }

    let csv_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/benches/results/fleet_throughput.csv"
    );
    table.write_csv(csv_path).expect("write fleet sweep csv");
    println!("wrote {csv_path}");

    let json_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fleet_throughput.json"
    );
    let json = format!(
        "{{\n  \"bench\": \"fleet_throughput\",\n  \"unit\": \"windows_per_sec\",\n  \
         \"shards\": {shards},\n  \"rounds_per_point\": {ROUNDS},\n  \"points\": [\n{}\n  ]\n}}\n",
        json_points.join(",\n")
    );
    std::fs::write(json_path, json).expect("write fleet_throughput json");
    println!("wrote {json_path}");
}
