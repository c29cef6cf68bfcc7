//! Wall-clock benchmark of the closed affect loop.
//!
//! ```text
//! perfbench --workload <voice_loop|fleet_small_windows|video_fig6>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from the seed before timing, then
//! runs a fixed-rate (open-loop) phase for 75% of `--seconds` and a
//! closed-loop saturation phase for the rest, against the public APIs of
//! `affect-rt`, `affect-fleet` and `h264` on the system clock. Outputs are
//! checked; a failed check fails the run.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! pass untraced, then traced (a `MetricsRegistry` attached and the
//! benchmark's spans kept), then replays the workload's inputs through
//! each layer, and prints the per-layer metrics; it also writes the spans
//! and the attribution table under `perfbench/out/`.
//!
//! The last line of standard output is the JSON result; a human-readable
//! table goes to standard error.

mod actuate;
mod common;
mod fleet;
mod layers;
mod metrics;
mod rtstats;
mod video;
mod voice;

use std::collections::BTreeMap;
use std::process::ExitCode;

use common::Plan;
use metrics::{Pass, END_TO_END, OVERHEAD_OF, PER_LAYER, UNBOUNDED};

const WORKLOADS: [&str; 3] = ["voice_loop", "fleet_small_windows", "video_fig6"];

struct Args {
    workload: String,
    plan: Plan,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    // Below 10 s the compressed Fig. 6 schedule of `video_fig6` has too
    // few positions to hold every cognitive state.
    if !(10..=600).contains(&seconds) {
        return Err("--seconds must lie in 10..=600".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        plan: Plan {
            seed: seed.ok_or("--seed is required")?,
            seconds,
        },
        trace,
    })
}

/// Runs one pass of the workload, untraced or traced.
fn run_pass(workload: &Workload, plan: &Plan, traced: bool) -> Pass {
    match workload {
        Workload::Voice(w) => w.run(plan, traced),
        Workload::Fleet(w) => w.run(plan, traced),
        Workload::Video(w) => w.run(plan, traced),
    }
}

enum Workload {
    Voice(voice::VoiceLoop),
    Fleet(fleet::FleetSmallWindows),
    Video(video::VideoFig6),
}

/// Writes the traced pass's spans and attribution table under `out/` of
/// the benchmark's own directory.
fn write_trace(name: &str, pass: &Pass) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut spans = String::from("kind,session,id,due_ns,start_ns,end_ns,served_ns\n");
    for line in &pass.spans {
        spans.push_str(line);
        spans.push('\n');
    }
    std::fs::write(dir.join(format!("{name}.spans.csv")), spans)?;
    std::fs::write(
        dir.join(format!("{name}.attribution.txt")),
        pass.attribution.join("\n") + "\n",
    )
}

fn main() -> ExitCode {
    common::single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    common::reserve_probe_buffer();
    let plan = args.plan;
    let workload = match args.workload.as_str() {
        "voice_loop" => Workload::Voice(voice::VoiceLoop::new(&plan)),
        "fleet_small_windows" => Workload::Fleet(fleet::FleetSmallWindows::new(&plan)),
        _ => Workload::Video(video::VideoFig6::new(&plan)),
    };

    let untraced = run_pass(&workload, &plan, false);
    let mut checks = untraced.checks.clone();
    let (catalogue, values, attempted, failed): (&[(&str, &str)], _, _, _) = if args.trace {
        let mut traced = run_pass(&workload, &plan, true);
        checks.extend(traced.checks.iter().cloned());
        for name in OVERHEAD_OF {
            let (base, with) = (untraced.e2e[name], traced.e2e[name]);
            let metric = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_prefix("trace.overhead_pct.") == Some(name))
                .expect("an overhead metric per end-to-end metric")
                .0;
            traced.layers.insert(metric, 100.0 * (with - base) / base);
        }
        for name in UNBOUNDED {
            traced.layers.insert(name, traced.e2e[name]);
        }
        for line in &traced.attribution {
            eprintln!("{line}");
        }
        if let Err(e) = write_trace(&args.workload, &traced) {
            eprintln!("perfbench: could not write the trace: {e}");
        }
        (&PER_LAYER, traced.layers, traced.attempted, traced.failed)
    } else {
        (
            &END_TO_END,
            untraced.e2e.clone(),
            untraced.attempted,
            untraced.failed,
        )
    };

    let values: BTreeMap<&'static str, f64> = values;
    for (name, unit) in catalogue {
        if let Some(v) = values.get(name) {
            eprintln!("{name:<40} {v:>16.6} {unit}");
            if !v.is_finite() {
                checks.push((format!("{name} is a finite number"), false));
            }
        }
    }
    eprintln!("attempted {attempted}, failed (never served) {failed}");
    for (what, ok) in &checks {
        eprintln!("[{}] {what}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = checks.iter().all(|(_, ok)| *ok) && attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, catalogue, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
