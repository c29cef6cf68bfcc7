//! Memory-pressure sweep: what each pressure band costs — and saves — on
//! a loaded fleet. One fresh fleet per point; after a warm-up round the
//! shard budgets are re-targeted (`set_budget_bytes`) so the *real* usage
//! lands at a chosen permille, then `enforce_pressure` runs once per
//! lockstep round exactly like a deployment's control plane.
//!
//! The sweep walks the same staircase the governor defends: a disabled
//! budget, a roomy Green one, then budgets tight enough to force Yellow
//! (a warning level: nothing acts on it), Red (BestEffort eviction) and
//! Critical (Standard eviction too). Reported per point: the worst band
//! seen, evicted and readmitted sessions, evicted windows, the bytes
//! charged across shards at the first and last pressured round (so what
//! the point's responses freed), and throughput over the pressured rounds.
//!
//! A full run writes the sweep to `results/BENCH_mem_pressure.json`
//! through `bench::results`.
//!
//! `--test` (passed by `cargo test`) shrinks the run to a smoke signal
//! and skips file output.
//!
//! Every point asserts the fleet accounting invariant
//! `offered == submitted + shed + evicted` per tier, and that Critical
//! sessions survive every band.

use std::sync::Arc;
use std::time::Instant;

use affect_core::pipeline::FeatureConfig;
use affect_fleet::{FleetBuilder, FleetConfig, FleetReport, QosTier, SubmitOutcome};
use affect_obs::VirtualClock;
use affect_rt::{NullActuator, OverflowPolicy, PressureBand, RuntimeConfig, StageConfig};
use bench::results::{write_bench, Mode};
use bench::table::Table;

const WINDOW_SAMPLES: usize = 256;
const TICK_NS: u64 = 1_000_000_000;
const SHARDS: usize = 4;

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
        // Pressure, not deadlines, is under test: a generous deadline keeps
        // deadline-triggered ladder steps out of the sweep.
        deadline_ns: 3_600 * TICK_NS,
        ..RuntimeConfig::default()
    }
}

struct Point {
    /// Usage target in permille of the budget; 0 disables the budget.
    target_permille: u64,
    label: &'static str,
}

const POINTS: [Point; 5] = [
    Point {
        target_permille: 0,
        label: "disabled",
    },
    Point {
        target_permille: 300,
        label: "green",
    },
    Point {
        target_permille: 750,
        label: "yellow",
    },
    Point {
        target_permille: 880,
        label: "red",
    },
    Point {
        target_permille: 980,
        label: "critical",
    },
];

struct PointResult {
    band: PressureBand,
    evicted_windows: u64,
    /// Bytes charged across shards before the first pressured round and
    /// after the last.
    charged_bytes: (u64, u64),
    elapsed_s: f64,
    processed: u64,
    report: FleetReport,
}

/// One sweep point: warm the fleet up, re-target the shard budgets so
/// real usage sits at `target_permille`, then drive `rounds` pressured
/// lockstep rounds with `enforce_pressure` once per round.
fn run_point(sessions: usize, rounds: u64, target_permille: u64) -> PointResult {
    let mut config = FleetConfig {
        shards: SHARDS,
        runtime: runtime_config(),
        ..FleetConfig::default()
    };
    config.admission.max_sessions_per_shard = sessions;
    config.admission.critical_reserve = 0;
    config.admission.standard_reserve = 0;
    let clock = Arc::new(VirtualClock::new());
    let mut builder = FleetBuilder::new(config).expect("fleet config");
    for key in 0..sessions as u64 {
        let tier = QosTier::ALL[key as usize % QosTier::ALL.len()];
        builder
            .add_session(key, tier, Box::new(NullActuator))
            .expect("admission cap was lifted");
    }
    let fleet = builder.clock(clock.clone()).start().expect("fleet start");

    // Warm-up round with budgets disabled: scratch arenas and model
    // tables reach steady state, so the usage we scale against is real.
    for global in 0..fleet.session_count() {
        fleet.submit(fleet.session(global), vec![0.2; WINDOW_SAMPLES]);
    }
    fleet.wait_idle();

    // Re-target every shard's budget so its own usage sits at the chosen
    // permille; a target of 0 leaves the budgets disabled.
    for shard in 0..fleet.shard_count() {
        let Some(budget) = fleet.shard_budget(shard) else {
            continue;
        };
        if let Some(bytes) = (budget.used_bytes() * 1000).checked_div(target_permille) {
            budget.set_budget_bytes(bytes.max(1));
        }
    }

    let charged = || {
        (0..fleet.shard_count())
            .filter_map(|shard| fleet.shard_budget(shard))
            .map(|budget| budget.used_bytes())
            .sum::<u64>()
    };
    let charged_start = charged();
    let mut evicted_windows = 0u64;
    let mut band = PressureBand::Green;
    let start = Instant::now();
    for _ in 0..rounds {
        band = band.max(fleet.enforce_pressure());
        for global in 0..fleet.session_count() {
            if fleet.submit(fleet.session(global), vec![0.2; WINDOW_SAMPLES])
                == SubmitOutcome::Evicted
            {
                evicted_windows += 1;
            }
        }
        clock.advance(TICK_NS);
        fleet.wait_idle();
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let charged_bytes = (charged_start, charged());
    let report = fleet.shutdown();
    assert!(
        report.accounted(),
        "accounting violation at {target_permille}permille"
    );
    let critical = QosTier::Critical.index();
    assert_eq!(
        report.admission.sessions_evicted.by_tier[critical], 0,
        "a Critical session was evicted"
    );
    let processed = report.merged.total_processed();
    PointResult {
        band,
        evicted_windows,
        charged_bytes,
        elapsed_s,
        processed,
        report,
    }
}

fn main() {
    let test_mode = Mode::from_args() == Mode::Test;
    let (sessions, rounds) = if test_mode { (24, 3) } else { (96, 8) };

    let mut table = Table::new(vec![
        "point".into(),
        "target_permille".into(),
        "band".into(),
        "evicted_sessions".into(),
        "readmitted_sessions".into(),
        "evicted_windows".into(),
        "charged_bytes_start".into(),
        "charged_bytes_end".into(),
        "processed".into(),
        "windows_per_sec".into(),
        "accounted".into(),
    ]);
    eprintln!("\nmemory-pressure sweep ({SHARDS} shards, {sessions} sessions, {rounds} rounds):");
    for point in &POINTS {
        let result = run_point(sessions, rounds, point.target_permille);
        let adm = &result.report.admission;
        let per_sec = result.processed as f64 / result.elapsed_s;
        let evicted_sessions = adm.sessions_evicted.total();
        let readmitted = adm.sessions_readmitted.total();
        let (charged_start, charged_end) = result.charged_bytes;
        eprintln!(
            "  {:>9} ({:>4}permille): band {:?}, {} sessions evicted, {} windows bounced, \
             {charged_start} → {charged_end} bytes charged, {:>7.0} windows/s",
            point.label,
            point.target_permille,
            result.band,
            evicted_sessions,
            result.evicted_windows,
            per_sec,
        );
        table.row(vec![
            point.label.to_string(),
            point.target_permille.to_string(),
            format!("{:?}", result.band),
            evicted_sessions.to_string(),
            readmitted.to_string(),
            result.evicted_windows.to_string(),
            charged_start.to_string(),
            charged_end.to_string(),
            result.processed.to_string(),
            format!("{per_sec:.1}"),
            // `run_point` has asserted the per-tier accounting.
            "true".into(),
        ]);
    }

    if test_mode {
        println!("test mode: skipping the BENCH output");
        return;
    }

    let path = write_bench(
        "mem_pressure",
        "windows_per_sec",
        &[
            ("shards", SHARDS.to_string()),
            ("sessions", sessions.to_string()),
            ("rounds_per_point", rounds.to_string()),
        ],
        &table,
    )
    .expect("write BENCH_mem_pressure.json");
    println!("wrote {}", path.display());
}
