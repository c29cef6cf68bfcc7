//! The metric catalogue, one run's results, and the JSON result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the two must stay in step (the result line carries exactly the metrics
//! of the catalogue for the requested trace level).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_cores_busy", "cores"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures every pass measures that vary too much from run to
/// run on a 2-vCPU shared host to carry a bound: the saturation rate (the
/// host switches between a fast and a slow regime whenever both vCPUs are
/// busy) and the decision latency. On `fleet_small_windows` a decision
/// takes about 0.4 ms, mostly thread wake-ups between the stages, and the
/// median of one run moved between 0.36 and 2 ms with the host's load;
/// on the other workloads the middle half of ten runs spread 10-50% of
/// the median. The traced run reports them among the per-layer metrics.
pub const UNBOUNDED: [&str; 4] = [
    "capacity_per_s",
    "decision_p50_ms",
    "decision_p90_ms",
    "decision_p99_ms",
];

/// End-to-end metrics whose tracing overhead the traced run reports. The
/// process high-water RSS only grows within one process, so the untraced
/// and traced passes of one run cannot be told apart on it.
pub const OVERHEAD_OF: [&str; 3] = ["setup_s", "decision_p50_ms", "cpu_cores_busy"];

/// Per-layer metrics, printed by every `--trace 1` run: `(name, unit)`.
/// Every metric with a time unit is measured on every workload; counts
/// and ratios of a layer a workload does not use read 0.
pub const PER_LAYER: [(&str, &str); 80] = [
    // end-to-end figures without a bound (see `UNBOUNDED`)
    ("capacity_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p90_ms", "ms"),
    ("decision_p99_ms", "ms"),
    // `cpu_cores_busy` before scaling, and the host speed it is scaled by
    ("cpu.cores_busy_unscaled", "cores"),
    ("host.speed", "ratio"),
    // dsp / affect-core::pipeline (replayed on the workload's own windows)
    ("dsp.pitch_us_per_frame", "us"),
    ("dsp.mfcc_us_per_frame", "us"),
    ("dsp.spectral_us_per_frame", "us"),
    ("features.extract_ms.sequence", "ms"),
    ("features.extract_ms.strip", "ms"),
    ("features.extract_ms.flat", "ms"),
    ("rt.stage_us.feature.p50", "us"),
    ("rt.stage_us.feature.p99", "us"),
    ("rt.stage_us.feature.mean", "us"),
    // nn / affect-core::classifier
    ("nn.classify_us.lstm.f32", "us"),
    ("nn.classify_us.lstm.int8", "us"),
    ("nn.classify_us.cnn.f32", "us"),
    ("nn.classify_us.cnn.int8", "us"),
    ("nn.classify_us.mlp.f32", "us"),
    ("nn.classify_us.mlp.int8", "us"),
    ("nn.classify_us.hdc", "us"),
    ("rt.stage_us.classify.p50", "us"),
    ("rt.stage_us.classify.p99", "us"),
    ("rt.stage_us.classify.mean", "us"),
    ("rt.classify.mean_batch", "count"),
    ("rt.classify.scratch_reuse_rate", "ratio"),
    ("rt.family_windows.lstm", "count"),
    ("rt.family_windows.cnn", "count"),
    ("rt.family_windows.mlp", "count"),
    ("rt.family_windows.hdc", "count"),
    ("rt.int8_windows", "count"),
    // affect-rt runtime
    ("rt.submit_us.p50", "us"),
    ("rt.submit_us.p99", "us"),
    ("rt.submit_wait_us.p50", "us"),
    ("rt.submit_wait_us.p99", "us"),
    ("rt.stage_us.control.p50", "us"),
    ("rt.stage_us.control.mean", "us"),
    ("rt.stage_us.actuate.p50", "us"),
    ("rt.stage_us.actuate.mean", "us"),
    ("rt.e2e_us.p50", "us"),
    ("rt.e2e_us.p99", "us"),
    ("rt.e2e_us.mean", "us"),
    ("rt.queue_residual_us.mean", "us"),
    ("rt.depth_hw.ingest", "count"),
    ("rt.depth_hw.classify", "count"),
    ("rt.depth_hw.control", "count"),
    ("rt.depth_hw.actuate", "count"),
    ("rt.windows.dropped", "count"),
    ("rt.windows.deadline_misses", "count"),
    ("rt.windows.degradations", "count"),
    ("rt.window_fail_ratio", "ratio"),
    // affect-fleet
    ("fleet.route_ns", "ns"),
    ("fleet.shed_ratio.best_effort", "ratio"),
    ("fleet.shed_ratio.standard", "ratio"),
    ("fleet.shard_windows_skew", "ratio"),
    // affect-core::controller and the actuators
    ("control.observe_us", "us"),
    ("actuate.events_per_window", "count"),
    ("actuate.mode_switches", "count"),
    ("actuate.reranks", "count"),
    // h264 (self-times replayed; live counts from the video thread)
    ("h264.decode_ms.standard", "ms"),
    ("h264.decode_ms.nal_deletion", "ms"),
    ("h264.decode_ms.deblock_off", "ms"),
    ("h264.decode_ms.combined", "ms"),
    ("h264.wire_overhead_ms", "ms"),
    ("h264.mb_per_segment", "count"),
    ("h264.nal_deleted_per_segment", "count"),
    ("h264.segments_by_mode.standard", "count"),
    ("h264.segments_by_mode.nal_deletion", "count"),
    ("h264.segments_by_mode.deblock_off", "count"),
    ("h264.segments_by_mode.combined", "count"),
    ("video.segment_residual_pct", "%"),
    // affect-rt::mem
    ("mem.used_bytes_peak", "bytes"),
    ("mem.band_transitions", "count"),
    // the benchmark itself
    ("gen.lag_ms.p99", "ms"),
    ("gen.behind", "count"),
    ("attr.decision_residual_ms", "ms"),
    ("trace.overhead_pct.setup_s", "%"),
    ("trace.overhead_pct.decision_p50_ms", "%"),
    ("trace.overhead_pct.cpu_cores_busy", "%"),
];

/// Whether a unit measures time; such metrics must be measured, never
/// defaulted to 0.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// Everything one pass of a workload leaves behind.
#[derive(Default)]
pub struct Pass {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Work items offered in the fixed-rate phase (windows, plus segments).
    pub attempted: u64,
    /// Offered items never served (refused, dropped, failed to decode).
    pub failed: u64,
    /// Correctness checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
    /// The attribution table (traced passes only), one line per row.
    pub attribution: Vec<String>,
    /// Span records kept in memory, written out after the traced pass.
    pub spans: Vec<String>,
}

impl Pass {
    /// Records one correctness check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `catalogue`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = match values.get(name) {
                Some(v) => *v,
                None if is_time(unit) => panic!("time metric {name} was not measured"),
                None => 0.0,
            };
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
