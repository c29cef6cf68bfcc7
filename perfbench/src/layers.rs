//! Layer self-time from outside: the traced pass replays the workload's
//! own inputs through each layer's public call, one layer at a time, on
//! an otherwise idle process (the runtime is shut down first).

use std::collections::BTreeMap;
use std::sync::Arc;

use affect_core::classifier::{AffectClassifier, ClassifierKind, Decision, ModelConfig};
use affect_core::controller::SystemController;
use affect_core::emotion::Emotion;
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::policy::{PolicyTable, VideoPowerMode};
use affect_fleet::router::HashRing;
use affect_fleet::FleetConfig;
use affect_obs::MetricsRegistry;
use affect_rt::{WireConfig, WireSession};
use dsp::{pitch_autocorrelation, spectral_magnitude, Frames, MfccExtractor};
use h264::adaptive::ModeSwitchDriver;
use nn::{Precision, Scratch, Tensor};

use crate::common::{hist, now_ns, HistDelta};

/// Least time spent timing one layer call.
const MIN_NS: u64 = 150_000_000;

/// At most this many distinct windows are replayed per call.
const MAX_WINDOWS: usize = 8;

/// What a workload hands to the replays.
pub struct ReplayInputs<'a> {
    /// The workload's feature configuration.
    pub feature: FeatureConfig,
    /// The workload's window length.
    pub window_samples: usize,
    /// Seed the runtime's models are initialised from.
    pub model_seed: u64,
    /// Distinct windows of the workload.
    pub windows: Vec<&'a [f32]>,
    /// Session keys the workload's wearers route by.
    pub keys: Vec<u64>,
    /// The workload's encoded video segment, if it plays video.
    pub segment: Option<&'a [u8]>,
}

/// Mean self-time per call, ms, of each decoder mode (in
/// `VideoPowerMode::ALL` order): decode alone, and ingest over the wire.
pub struct H264Times {
    pub decode_ms: [f64; 4],
    pub ingest_ms: [f64; 4],
}

/// Calls `f` over and over for at least [`MIN_NS`]; returns nanoseconds per
/// call, where one call of `f` stands for `per_call` layer calls.
fn time_calls(per_call: usize, mut f: impl FnMut()) -> f64 {
    let start = now_ns();
    let mut calls = 0u64;
    while calls == 0 || now_ns() - start < MIN_NS {
        f();
        calls += 1;
    }
    (now_ns() - start) as f64 / (calls * per_call as u64) as f64
}

/// Replays every layer; fills the replayed per-layer metrics and returns
/// the decoder times for the segment attribution.
pub fn replay(
    inputs: &ReplayInputs<'_>,
    seed: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) -> H264Times {
    let windows = &inputs.windows[..inputs.windows.len().min(MAX_WINDOWS)];
    let cfg = &inputs.feature;
    let frames: Vec<&[f32]> = windows
        .iter()
        .flat_map(|w| Frames::new(w, cfg.frame_len, cfg.hop).expect("valid framing"))
        .collect();
    let (min_hz, max_hz) = cfg.pitch_range;
    let pitch = time_calls(frames.len(), || {
        for frame in &frames {
            // Frames shorter than the pitch range are an error the pipeline
            // maps to "unvoiced"; the replay pays the same cost.
            let _ = std::hint::black_box(pitch_autocorrelation(
                frame,
                cfg.sample_rate,
                min_hz,
                max_hz,
            ));
        }
    });
    layers.insert("dsp.pitch_us_per_frame", pitch / 1e3);
    let mut mfcc = MfccExtractor::new(cfg.sample_rate, cfg.frame_len, cfg.n_mels, cfg.n_mfcc)
        .expect("valid mfcc config");
    let mut out = Vec::new();
    let mfcc_ns = time_calls(frames.len(), || {
        for frame in &frames {
            mfcc.extract_into(frame, &mut out)
                .expect("mfcc of a full frame");
            std::hint::black_box(&out);
        }
    });
    layers.insert("dsp.mfcc_us_per_frame", mfcc_ns / 1e3);
    let spectral = time_calls(frames.len(), || {
        for frame in &frames {
            std::hint::black_box(spectral_magnitude(frame, cfg.sample_rate).expect("spectrum"));
        }
    });
    layers.insert("dsp.spectral_us_per_frame", spectral / 1e3);

    let mut pipeline = FeaturePipeline::new(cfg.clone()).expect("valid feature config");
    type Extract = fn(&mut FeaturePipeline, &[f32]) -> Result<Tensor, affect_core::AffectError>;
    let extracts: [(&'static str, Extract); 3] = [
        (
            "features.extract_ms.sequence",
            FeaturePipeline::extract_sequence,
        ),
        ("features.extract_ms.strip", FeaturePipeline::extract_strip),
        ("features.extract_ms.flat", FeaturePipeline::extract_flat),
    ];
    for (name, extract) in extracts {
        let ns = time_calls(windows.len(), || {
            for w in windows {
                std::hint::black_box(extract(&mut pipeline, w).expect("features"));
            }
        });
        layers.insert(name, ns / 1e6);
    }

    let emotions = replay_classify(inputs, &mut pipeline, windows, layers);
    let mut controller = SystemController::new(PolicyTable::paper_defaults(), 1);
    let observe = time_calls(emotions.len(), || {
        for e in &emotions {
            std::hint::black_box(controller.observe_emotion(*e).expect("observe"));
        }
    });
    layers.insert("control.observe_us", observe / 1e3);

    let ring = HashRing::with_shards(2, FleetConfig::default().replicas);
    let route = time_calls(inputs.keys.len(), || {
        for key in &inputs.keys {
            std::hint::black_box(ring.route(*key));
        }
    });
    layers.insert("fleet.route_ns", route);

    replay_h264(inputs.segment, seed, layers)
}

/// `AffectClassifier::classify_with` per family x precision on the
/// windows' own features. Returns the emotions the MLP picked, for the
/// controller replay.
fn replay_classify(
    inputs: &ReplayInputs<'_>,
    pipeline: &mut FeaturePipeline,
    windows: &[&[f32]],
    layers: &mut BTreeMap<&'static str, f64>,
) -> Vec<Emotion> {
    let labels: Vec<String> = Emotion::ALL.iter().map(|e| e.name().to_string()).collect();
    let classes = labels.len();
    let fpf = pipeline.features_per_frame();
    let frames = pipeline.frames_for(inputs.window_samples);
    let extract = |pipeline: &mut FeaturePipeline, kind: ClassifierKind| -> Vec<Tensor> {
        windows
            .iter()
            .map(|w| {
                match kind {
                    ClassifierKind::Lstm => pipeline.extract_sequence(w),
                    ClassifierKind::Cnn => pipeline.extract_strip(w),
                    ClassifierKind::Mlp | ClassifierKind::Hdc => pipeline.extract_flat(w),
                }
                .expect("features")
            })
            .collect()
    };
    let mut scratch = Scratch::new();
    let mut decision = Decision::default();
    let mut run = |clf: &mut AffectClassifier, features: &[Tensor]| {
        time_calls(features.len(), || {
            for f in features {
                clf.classify_with(f.data(), f.shape(), &mut scratch, &mut decision)
                    .expect("classify");
            }
        }) / 1e3
    };
    let models = [
        (
            ModelConfig::scaled_lstm(fpf, classes),
            ["nn.classify_us.lstm.f32", "nn.classify_us.lstm.int8"],
        ),
        (
            ModelConfig::scaled_cnn(frames * fpf, classes),
            ["nn.classify_us.cnn.f32", "nn.classify_us.cnn.int8"],
        ),
        (
            ModelConfig::scaled_mlp(pipeline.flat_dim(), classes),
            ["nn.classify_us.mlp.f32", "nn.classify_us.mlp.int8"],
        ),
    ];
    for (model, names) in models {
        let features = extract(pipeline, model.kind());
        for (precision, name) in [Precision::F32, Precision::Int8].into_iter().zip(names) {
            let mut clf = AffectClassifier::from_config(&model, labels.clone(), inputs.model_seed)
                .expect("model builds");
            clf.set_precision(precision).expect("fresh models quantize");
            layers.insert(name, run(&mut clf, &features));
        }
    }
    let flat = extract(pipeline, ClassifierKind::Hdc);
    let mut hdc = AffectClassifier::hdc(pipeline.flat_dim(), labels.clone(), inputs.model_seed)
        .expect("hdc builds");
    layers.insert("nn.classify_us.hdc", run(&mut hdc, &flat));

    let mut mlp = AffectClassifier::from_config(
        &ModelConfig::scaled_mlp(pipeline.flat_dim(), classes),
        labels,
        inputs.model_seed,
    )
    .expect("model builds");
    flat.iter()
        .map(|f| {
            mlp.classify_with(f.data(), f.shape(), &mut scratch, &mut decision)
                .expect("classify");
            decision.emotion().unwrap_or(Emotion::Neutral)
        })
        .collect()
}

/// Metric names of the four decoder modes, in `VideoPowerMode::ALL` order.
pub const MODE_METRICS: [(&str, &str); 4] = [
    ("h264.decode_ms.standard", "h264.segments_by_mode.standard"),
    (
        "h264.decode_ms.nal_deletion",
        "h264.segments_by_mode.nal_deletion",
    ),
    (
        "h264.decode_ms.deblock_off",
        "h264.segments_by_mode.deblock_off",
    ),
    ("h264.decode_ms.combined", "h264.segments_by_mode.combined"),
];

/// `ModeSwitchDriver::decode_segment` (timed by the driver's own
/// `affect_h264_decode_ns` histogram) and `WireSession::ingest_segment`
/// per mode. Workloads without video replay the 64x64 calibration clip, so
/// the decoder's self-time is measured on every workload.
fn replay_h264(
    segment: Option<&[u8]>,
    seed: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) -> H264Times {
    let calibration;
    let stream = match segment {
        Some(s) => s,
        None => {
            calibration = h264::adaptive::paper_reference(seed)
                .expect("calibration clip")
                .1;
            &calibration
        }
    };
    let mut times = H264Times {
        decode_ms: [0.0; 4],
        ingest_ms: [0.0; 4],
    };
    for (i, mode) in VideoPowerMode::ALL.into_iter().enumerate() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut driver = ModeSwitchDriver::new(mode);
        driver.attach_metrics(&registry);
        let labels = [("backend", driver.backend_name())];
        let before = hist(&registry, "affect_h264_decode_ns", &labels);
        time_calls(1, || {
            std::hint::black_box(driver.decode_segment(stream).expect("decode"));
        });
        let after = hist(&registry, "affect_h264_decode_ns", &labels);
        times.decode_ms[i] = HistDelta::between(&before, &after).mean() / 1e6;
        layers.insert(MODE_METRICS[i].0, times.decode_ms[i]);
        let mut wire = WireSession::new(WireConfig::default());
        times.ingest_ms[i] = time_calls(1, || {
            std::hint::black_box(
                wire.ingest_segment(&driver, stream, |_, _| {})
                    .expect("ingest"),
            );
        }) / 1e6;
    }
    let overhead: f64 = (0..4)
        .map(|i| times.ingest_ms[i] - times.decode_ms[i])
        .sum::<f64>()
        / 4.0;
    layers.insert("h264.wire_overhead_ms", overhead);
    times
}
