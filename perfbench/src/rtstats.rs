//! Per-layer numbers read from inside the program: the runtime's
//! `MetricsRegistry` series (attached only in the traced pass), diffed
//! across the measured fixed-rate phase, the runtime reports, and the
//! benchmark's own submit spans.

use std::collections::BTreeMap;

use affect_core::classifier::ClassifierKind;
use affect_obs::{HistogramSnapshot, MetricsRegistry};
use affect_rt::RuntimeReport;

use crate::actuate::Actuations;
use crate::common::{
    counter, cpu_seconds, hist, median, now_ns, quantile, HistDelta, Offer, Served, SpeedProbe,
    BEHIND_MS,
};
use crate::metrics::Pass;

const STAGES: [&str; 4] = ["feature", "classify", "control", "actuate"];

/// The registry series one phase is diffed on.
struct RtSnapshot {
    stages: [HistogramSnapshot; 4],
    e2e: HistogramSnapshot,
    batch: HistogramSnapshot,
    family: [u64; 4],
    int8: u64,
    dropped: u64,
    misses: u64,
    degradations: u64,
    allocs: u64,
    reuses: u64,
}

impl RtSnapshot {
    fn take(registry: &MetricsRegistry) -> Self {
        let family = |kind: ClassifierKind| {
            counter(
                registry,
                "affect_rt_classify_family_total",
                &[("family", kind.name())],
            )
        };
        Self {
            stages: STAGES
                .map(|stage| hist(registry, "affect_rt_stage_latency_ns", &[("stage", stage)])),
            e2e: hist(registry, "affect_rt_e2e_latency_ns", &[]),
            batch: hist(registry, "affect_rt_classify_batch_size", &[]),
            family: [
                family(ClassifierKind::Lstm),
                family(ClassifierKind::Cnn),
                family(ClassifierKind::Mlp),
                family(ClassifierKind::Hdc),
            ],
            int8: counter(registry, "affect_rt_classify_int8_windows_total", &[]),
            dropped: counter(registry, "affect_rt_windows_dropped_total", &[]),
            misses: counter(registry, "affect_rt_deadline_misses_total", &[]),
            degradations: counter(registry, "affect_rt_degradations_total", &[]),
            allocs: counter(registry, "affect_rt_scratch_allocs_total", &[]),
            reuses: counter(registry, "affect_rt_scratch_reuses_total", &[]),
        }
    }
}

/// The start of a measured fixed-rate phase, which its end is diffed
/// against.
pub struct Phase {
    rt: Option<RtSnapshot>,
    /// `(events, mode switches, re-ranks)` and windows actuated so far.
    counts: (u64, u64, u64),
    windows: u64,
    at: u64,
    cpu: f64,
    probe: SpeedProbe,
}

impl Phase {
    pub fn start(registry: Option<&MetricsRegistry>, log: &Actuations) -> Self {
        Self {
            rt: registry.map(RtSnapshot::take),
            counts: log.counts(),
            windows: log.windows(),
            at: now_ns(),
            cpu: cpu_seconds(),
            probe: SpeedProbe::start(),
        }
    }

    /// Ends the phase once its pipeline drained: records `cpu_cores_busy`
    /// (the process's CPU time less the probe's, per wall second, in
    /// reference cores at the host speed the probe measured) and, in a
    /// traced pass, the phase's `rt.*` registry series and
    /// `actuate.*` counts; returns the stage self-time means then.
    pub fn end(
        self,
        registry: Option<&MetricsRegistry>,
        log: &Actuations,
        pass: &mut Pass,
    ) -> Option<StageMeans> {
        let wall = (now_ns() - self.at) as f64 / 1e9;
        let cpu = cpu_seconds() - self.cpu;
        let (probe_cpu, speed) = self.probe.stop();
        let cores = (cpu - probe_cpu) / wall;
        pass.e2e.insert("cpu_cores_busy", cores * speed);
        pass.layers.insert("cpu.cores_busy_unscaled", cores);
        pass.layers.insert("host.speed", speed);
        let (before, registry) = (self.rt?, registry?);
        let layers = &mut pass.layers;
        let stages = phase_layers(&before, &RtSnapshot::take(registry), layers);
        let counts = log.counts();
        let windows = (log.windows() - self.windows).max(1) as f64;
        layers.insert(
            "actuate.events_per_window",
            (counts.0 - self.counts.0) as f64 / windows,
        );
        layers.insert("actuate.mode_switches", (counts.1 - self.counts.1) as f64);
        layers.insert("actuate.reranks", (counts.2 - self.counts.2) as f64);
        Some(stages)
    }
}

/// Mean self-time of each runtime stage over a phase, microseconds.
pub struct StageMeans {
    pub feature_us: f64,
    pub classify_us: f64,
    pub control_us: f64,
    pub actuate_us: f64,
}

/// Fills the `rt.*` metrics the registry gives for the phase between
/// `before` and `after`, and returns the stage means for attribution.
fn phase_layers(
    before: &RtSnapshot,
    after: &RtSnapshot,
    layers: &mut BTreeMap<&'static str, f64>,
) -> StageMeans {
    let d = |i: usize| HistDelta::between(&before.stages[i], &after.stages[i]);
    let (feature, classify, control, actuate) = (d(0), d(1), d(2), d(3));
    let e2e = HistDelta::between(&before.e2e, &after.e2e);
    let us = |ns: f64| ns / 1e3;
    layers.insert("rt.stage_us.feature.p50", us(feature.quantile(0.5)));
    layers.insert("rt.stage_us.feature.p99", us(feature.quantile(0.99)));
    layers.insert("rt.stage_us.feature.mean", us(feature.mean()));
    layers.insert("rt.stage_us.classify.p50", us(classify.quantile(0.5)));
    layers.insert("rt.stage_us.classify.p99", us(classify.quantile(0.99)));
    layers.insert("rt.stage_us.classify.mean", us(classify.mean()));
    layers.insert("rt.stage_us.control.p50", us(control.quantile(0.5)));
    layers.insert("rt.stage_us.control.mean", us(control.mean()));
    layers.insert("rt.stage_us.actuate.p50", us(actuate.quantile(0.5)));
    layers.insert("rt.stage_us.actuate.mean", us(actuate.mean()));
    layers.insert("rt.e2e_us.p50", us(e2e.quantile(0.5)));
    layers.insert("rt.e2e_us.p99", us(e2e.quantile(0.99)));
    layers.insert("rt.e2e_us.mean", us(e2e.mean()));
    let self_times = feature.mean() + classify.mean() + control.mean() + actuate.mean();
    layers.insert("rt.queue_residual_us.mean", us(e2e.mean() - self_times));
    layers.insert(
        "rt.classify.mean_batch",
        HistDelta::between(&before.batch, &after.batch).mean(),
    );
    let allocs = after.allocs - before.allocs;
    let reuses = after.reuses - before.reuses;
    layers.insert(
        "rt.classify.scratch_reuse_rate",
        if allocs + reuses == 0 {
            0.0
        } else {
            reuses as f64 / (allocs + reuses) as f64
        },
    );
    for (i, name) in [
        "rt.family_windows.lstm",
        "rt.family_windows.cnn",
        "rt.family_windows.mlp",
        "rt.family_windows.hdc",
    ]
    .into_iter()
    .enumerate()
    {
        layers.insert(name, (after.family[i] - before.family[i]) as f64);
    }
    layers.insert("rt.int8_windows", (after.int8 - before.int8) as f64);
    layers.insert(
        "rt.windows.dropped",
        (after.dropped - before.dropped) as f64,
    );
    layers.insert(
        "rt.windows.deadline_misses",
        (after.misses - before.misses) as f64,
    );
    layers.insert(
        "rt.windows.degradations",
        (after.degradations - before.degradations) as f64,
    );
    StageMeans {
        feature_us: us(feature.mean()),
        classify_us: us(classify.mean()),
        control_us: us(control.mean()),
        actuate_us: us(actuate.mean()),
    }
}

/// What the final runtime reports give, over the whole run (saturation
/// included): the worst queue high-water marks, the skew of windows
/// processed across runtimes (1 for a single runtime) and the memory-band
/// transitions.
fn report_layers(reports: &[&RuntimeReport], layers: &mut BTreeMap<&'static str, f64>) {
    for (queue, name) in [
        ("ingest", "rt.depth_hw.ingest"),
        ("classify", "rt.depth_hw.classify"),
        ("control", "rt.depth_hw.control"),
        ("actuate", "rt.depth_hw.actuate"),
    ] {
        let worst = reports
            .iter()
            .flat_map(|r| r.stages.iter())
            .filter(|s| s.stage == queue)
            .map(|s| s.depth_high_water)
            .max()
            .unwrap_or(0);
        layers.insert(name, worst as f64);
    }
    let processed: Vec<f64> = reports.iter().map(|r| r.total_processed() as f64).collect();
    let mean = processed.iter().sum::<f64>() / processed.len() as f64;
    let worst = processed.iter().copied().fold(0.0, f64::max);
    layers.insert("fleet.shard_windows_skew", worst / mean.max(1.0));
    let transitions: u64 = reports.iter().flat_map(|r| r.mem.band_transitions).sum();
    layers.insert("mem.band_transitions", transitions as f64);
}

/// Submit-call, failure and generator-lag metrics of the measured windows.
fn submit_layers(offers: &[Offer], served: &Served, layers: &mut BTreeMap<&'static str, f64>) {
    let call_us: Vec<f64> = offers
        .iter()
        .map(|o| (o.end - o.start) as f64 / 1e3)
        .collect();
    let wait_us: Vec<f64> = offers
        .iter()
        .map(|o| o.end.saturating_sub(o.due) as f64 / 1e3)
        .collect();
    layers.insert("rt.submit_us.p50", median(&call_us));
    layers.insert("rt.submit_us.p99", quantile(&call_us, 0.99));
    layers.insert("rt.submit_wait_us.p50", median(&wait_us));
    layers.insert("rt.submit_wait_us.p99", quantile(&wait_us, 0.99));
    layers.insert(
        "rt.window_fail_ratio",
        (served.failed + served.late) as f64 / offers.len().max(1) as f64,
    );
    let lag_p99 = quantile(&served.lag_ms, 0.99);
    layers.insert("gen.lag_ms.p99", lag_p99);
    layers.insert("gen.behind", f64::from(u8::from(lag_p99 > BEHIND_MS)));
}

/// The per-layer metrics and trace records of a traced pass's measured
/// windows: [`report_layers`], [`submit_layers`], the decision attribution
/// and the span records.
pub fn window_layers(
    pass: &mut Pass,
    offers: &[Offer],
    served: &Served,
    log: &Actuations,
    stages: &StageMeans,
    reports: &[&RuntimeReport],
) {
    report_layers(reports, &mut pass.layers);
    submit_layers(offers, served, &mut pass.layers);
    let p50 = pass.e2e["decision_p50_ms"];
    decision_attribution(p50, &mut pass.layers, stages, &mut pass.attribution);
    for o in offers {
        let actuated = o
            .seq
            .and_then(|seq| log.at(o.session as usize, seq))
            .map_or(String::new(), |t| t.to_string());
        let seq = o.seq.map_or(String::new(), |s| s.to_string());
        pass.spans.push(format!(
            "window,{},{seq},{},{},{},{actuated}",
            o.session, o.due, o.start, o.end
        ));
    }
}

/// The decision-latency attribution: `decision_p50_ms` against submit wait
/// plus each stage's self-time, with the residual (queueing between
/// stages and thread wake-ups) stated.
fn decision_attribution(
    decision_p50_ms: f64,
    layers: &mut BTreeMap<&'static str, f64>,
    stages: &StageMeans,
    lines: &mut Vec<String>,
) {
    let wait_ms = layers["rt.submit_wait_us.p50"] / 1e3;
    let parts = [
        ("submit wait p50 (due -> submit returned)", wait_ms),
        ("feature self-time mean", stages.feature_us / 1e3),
        ("classify self-time mean", stages.classify_us / 1e3),
        ("control self-time mean", stages.control_us / 1e3),
        ("actuate self-time mean", stages.actuate_us / 1e3),
    ];
    let residual = decision_p50_ms - parts.iter().map(|(_, v)| v).sum::<f64>();
    layers.insert("attr.decision_residual_ms", residual);
    lines.push(format!("decision_p50_ms = {decision_p50_ms:.3} ms"));
    for (what, ms) in parts {
        lines.push(format!("  {what:<44} {ms:>9.3} ms"));
    }
    lines.push(format!(
        "  {:<44} {residual:>9.3} ms ({:.1}% of decision_p50_ms)",
        "residual (queue waits between stages, wakeups)",
        100.0 * residual / decision_p50_ms
    ));
}
