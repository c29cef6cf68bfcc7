//! Accuracy/energy frontier of the degradation ladder: every classifier
//! family the runtime can stand a session on —
//! {MLP, CNN, LSTM} × {f32, int8} plus the integer-only HDC rung — trained
//! on one synthetic corpus and measured on accuracy, inference latency,
//! estimated per-window arithmetic, and model storage.
//!
//! The "energy" axis is the *estimated operation count*, not wall time:
//! for the neural families it is first-order MACs (2 ops per weight, times
//! the weight-reuse factor of the architecture), for HDC it is
//! `HdcClassifier::estimated_word_ops` (XOR + popcount words per encode +
//! lookup). Both are deterministic in the model shape, so CI can gate on
//! the ratio without timing noise; ns/window is reported alongside as the
//! measured sanity check. One 64-bit word op bundles up to 64 bit ops, so
//! counting it as a single op *understates* HDC's advantage — the gate is
//! conservative.
//!
//! A full run writes the family × precision grid to
//! `results/BENCH_accuracy_energy.json` through `bench::results`.
//!
//! Gates:
//!   - always (deterministic): HDC must be ≥ 5× cheaper than MLP-f32 in
//!     estimated ops — the claim that lets `affect-rt` keep classifying
//!     at the bottom of its deadline ladder and under load shedding;
//!   - always: every int8 family must stay within 10 accuracy points of
//!     its f32 twin (the paper's < 3% quantization-loss claim, with slack
//!     for the small synthetic test split);
//!   - full mode only (bigger split): HDC accuracy must clear a floor
//!     well below its measured accuracy.

use std::hint::black_box;
use std::time::Duration;

use affect_core::classifier::{ClassifierKind, ModelConfig};
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::training::{train, NormScope, Normalization};
use bench::results::{batch, group, write_bench, Mode};
use bench::table::Table;
use datasets::{ActorSplit, Corpus, CorpusSpec, FeatureLayout};
use nn::hdc::HdcClassifier;
use nn::{Precision, Scratch, Sequential, Tensor};

/// Estimated-ops gate: HDC must be at least this many times cheaper than
/// the MLP-f32 rung above it.
const HDC_OPS_GATE: f64 = 5.0;
/// Max accuracy an int8 family may lose vs. its f32 twin.
const INT8_ACCURACY_SLACK: f32 = 0.10;
/// Accuracy floor for the HDC rung in full mode: well below the 0.69 it
/// measures, so the gate catches a broken rung, not noise.
const HDC_ACCURACY_FLOOR: f32 = 0.30;
/// Target wall-clock of one latency batch in one round.
const TARGET: Duration = Duration::from_millis(250);

struct Row {
    family: &'static str,
    precision: &'static str,
    accuracy: f32,
    ns_per_window: f64,
    est_ops: u64,
    storage_bytes: usize,
}

/// Accuracy through the scratch inference path — the path the runtime
/// actually runs, and the only one the int8 switch affects.
fn scratch_accuracy(
    model: &mut Sequential,
    xs: &[Tensor],
    ys: &[usize],
    scratch: &mut Scratch,
) -> f32 {
    let mut hits = 0usize;
    for (x, &y) in xs.iter().zip(ys) {
        let (_, out) = model
            .forward_with(x.data(), x.shape(), scratch)
            .expect("forward");
        let pred = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty output");
        hits += usize::from(pred == y);
    }
    hits as f32 / xs.len().max(1) as f32
}

/// Median ns/window of `predict` over the test set, one batch of passes
/// over it per round.
fn ns_per_window<R>(run: Mode, xs: &[Tensor], mut predict: impl FnMut(&Tensor) -> R) -> f64 {
    let mut pass = batch(run, TARGET, || {
        for x in xs {
            black_box(predict(black_box(x)));
        }
    });
    group(&mut [&mut pass])[0].median * 1e9 / xs.len().max(1) as f64
}

/// First-order per-window MAC estimate: 2 ops per weight, times how many
/// output positions / time steps reuse each weight.
fn neural_est_ops(kind: ClassifierKind, params: usize, time_steps: usize) -> u64 {
    let reuse = match kind {
        ClassifierKind::Mlp => 1,
        // Conv kernels slide over ~T positions; recurrent weights fire
        // once per step. Dense heads are a small fraction of both.
        ClassifierKind::Cnn | ClassifierKind::Lstm => time_steps,
        ClassifierKind::Hdc => unreachable!("HDC counts word ops"),
    };
    2 * params as u64 * reuse as u64
}

fn main() {
    let run = Mode::from_args();
    let test_mode = run == Mode::Test;

    let spec = CorpusSpec::emovo_like();
    let (actors, utterances, epochs) = if test_mode { (3, 2, 6) } else { (8, 3, 24) };
    let spec = spec.with_actors(actors).with_utterances(utterances);
    let seed = 7u64;
    let classes = spec.emotions.len();
    let corpus = Corpus::generate(&spec, seed).expect("corpus");
    eprintln!(
        "accuracy_energy: {} corpus, {} actors x {} utterances, {} classes",
        spec.name, actors, utterances, classes
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut pipeline = FeaturePipeline::new(FeatureConfig {
        sample_rate: spec.sample_rate,
        frame_len: 256,
        hop: 128,
        ..FeatureConfig::default()
    })
    .expect("pipeline");

    for kind in ClassifierKind::NEURAL {
        let layout = FeatureLayout::for_kind(kind);
        let ActorSplit {
            mut train_x,
            train_y,
            mut test_x,
            test_y,
        } = ActorSplit::extract(&corpus, &mut pipeline, layout, seed).expect("features");
        let shape = train_x[0].shape().to_vec();
        let mut model = ModelConfig::scaled_for(kind, &shape, classes)
            .and_then(|config| config.build(seed))
            .expect("model");
        let scope = NormScope::PerFeature(pipeline.features_per_frame());
        train(
            &mut model,
            &mut train_x,
            &train_y,
            scope,
            epochs,
            0.004,
            seed,
        )
        .expect("training")
        .apply(&mut test_x)
        .expect("norm");

        let params = model.param_count();
        let time_steps = if shape.len() > 1 { shape[0] } else { 1 };
        let mut scratch = Scratch::new();
        for precision in [Precision::F32, Precision::Int8] {
            model.set_precision(precision).expect("precision switch");
            let accuracy = scratch_accuracy(&mut model, &test_x, &test_y, &mut scratch);
            let ns = ns_per_window(run, &test_x, |x| {
                let (_, logits) = model
                    .forward_with(x.data(), x.shape(), &mut scratch)
                    .unwrap();
                logits[0]
            });
            let storage_bytes = match precision {
                Precision::F32 => nn::quant::float_weight_bytes(params),
                Precision::Int8 => nn::quant::int8_weight_bytes(params, model.len() * 2),
            };
            let label = match precision {
                Precision::F32 => "f32",
                Precision::Int8 => "i8",
            };
            eprintln!(
                "  {:4} {label:>3}: accuracy {:.3}, {:>9.0} ns/window, {:>10} est ops, {:>7} B",
                kind.name(),
                accuracy,
                ns,
                neural_est_ops(kind, params, time_steps),
                storage_bytes
            );
            rows.push(Row {
                family: kind.name(),
                precision: label,
                accuracy,
                ns_per_window: ns,
                est_ops: neural_est_ops(kind, params, time_steps),
                storage_bytes,
            });
        }
        model.set_precision(Precision::F32).expect("restore f32");
    }

    // The HDC rung: integer-only, trained in one pass, measured on the
    // same flat features as the MLP.
    {
        let ActorSplit {
            mut train_x,
            train_y,
            mut test_x,
            test_y,
        } = ActorSplit::extract(&corpus, &mut pipeline, FeatureLayout::Flat, seed).expect("flat");
        Normalization::fit_in_place(&mut train_x, NormScope::PerDimension)
            .and_then(|norm| norm.apply(&mut test_x))
            .expect("norm");

        let mut clf = HdcClassifier::new(
            nn::hdc::HdcConfig::new(train_x[0].len(), classes, seed).expect("hdc config"),
        )
        .expect("hdc");
        clf.fit(&train_x, &train_y).expect("hdc fit");
        let accuracy = clf.accuracy(&test_x, &test_y).expect("hdc accuracy");

        let ns = ns_per_window(run, &test_x, |x| clf.predict(x.data()).unwrap());
        eprintln!(
            "  HDC   i8: accuracy {:.3}, {:>9.0} ns/window, {:>10} est ops, {:>7} B",
            accuracy,
            ns,
            clf.estimated_word_ops(),
            clf.storage_bytes()
        );
        rows.push(Row {
            family: "HDC",
            precision: "i8",
            accuracy,
            ns_per_window: ns,
            est_ops: clf.estimated_word_ops(),
            storage_bytes: clf.storage_bytes(),
        });
    }

    // --- Gates ---------------------------------------------------------
    let find = |family: &str, precision: &str| -> &Row {
        rows.iter()
            .find(|r| r.family == family && r.precision == precision)
            .expect("row present")
    };
    let mlp_f32 = find("NN", "f32");
    let hdc = find("HDC", "i8");
    let ops_ratio = mlp_f32.est_ops as f64 / hdc.est_ops.max(1) as f64;
    eprintln!(
        "accuracy_energy: HDC is x{ops_ratio:.1} cheaper than MLP-f32 in estimated ops \
         (gate x{HDC_OPS_GATE})"
    );
    for kind in ClassifierKind::NEURAL {
        let f32_row = find(kind.name(), "f32");
        let i8_row = find(kind.name(), "i8");
        assert!(
            f32_row.accuracy - i8_row.accuracy <= INT8_ACCURACY_SLACK,
            "{}: int8 lost too much accuracy ({:.3} -> {:.3})",
            kind.name(),
            f32_row.accuracy,
            i8_row.accuracy
        );
    }
    if !test_mode {
        assert!(
            hdc.accuracy >= HDC_ACCURACY_FLOOR,
            "HDC accuracy {:.3} under the {} floor",
            hdc.accuracy,
            HDC_ACCURACY_FLOOR
        );
    }

    // --- Artifacts -----------------------------------------------------
    let mut table = Table::new(vec![
        "family".into(),
        "precision".into(),
        "accuracy".into(),
        "ns_per_window".into(),
        "est_ops".into(),
        "storage_bytes".into(),
    ]);
    for r in &rows {
        table.row(vec![
            r.family.into(),
            r.precision.into(),
            format!("{:.4}", r.accuracy),
            format!("{:.0}", r.ns_per_window),
            r.est_ops.to_string(),
            r.storage_bytes.to_string(),
        ]);
    }

    // `--test` keeps the committed results untouched: a tiny debug run
    // would overwrite the tracked numbers with noise.
    if !test_mode {
        let path = write_bench(
            "accuracy_energy",
            "accuracy_and_est_ops",
            &[
                ("classes", classes.to_string()),
                ("hdc_vs_mlp_f32_ops_ratio", format!("{ops_ratio:.1}")),
            ],
            &table,
        )
        .expect("write BENCH_accuracy_energy.json");
        eprintln!("wrote {}", path.display());
    }

    assert!(
        ops_ratio >= HDC_OPS_GATE,
        "HDC is only x{ops_ratio:.1} cheaper than MLP-f32 in estimated ops (gate x{HDC_OPS_GATE})"
    );
}
