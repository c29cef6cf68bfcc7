//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- fig3a
//! ```
//!
//! Subcommands: `fig3a`, `fig3b`, `fig3c`, `fig3d`, `fig6-modes`,
//! `fig6-playback`, `fig7`, `fig9`, `fig10`, `model-table`, `area-table`,
//! `all`. Add `--quick` to use the fast training profile.
//!
//! Tables are printed to stdout and CSV copies land in `<repo>/results`,
//! or in `<repo>/results/quick` with `--quick`, whatever the working
//! directory.

use affect_core::classifier::ClassifierKind;
use bench::fig3::{evaluate_classifier, full_grid, ClassifierResult, Fig3Config};
use bench::results::repo_root;
use bench::table::{pct, Table};
use bench::{ext, fig10, fig6, fig7, fig9, tables};
use datasets::CorpusSpec;
use std::process::ExitCode;
use std::sync::OnceLock;

/// The CSV directory of this run's profile, relative to the repo root. A
/// quick run writes beside the full profile's CSVs, not over them.
static RESULTS: OnceLock<&'static str> = OnceLock::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    RESULTS.get_or_init(|| if quick { "results/quick" } else { "results" });
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());

    let result = match command.as_str() {
        "fig3a" => fig3a(quick),
        "fig3b" => fig3b(quick),
        "fig3c" => fig3c(),
        "fig3d" => fig3d(quick),
        "fig6-modes" => fig6_modes(),
        "fig6-playback" => fig6_playback(),
        "fig6-classified" => fig6_classified(),
        "fig7" => fig7_cmd(),
        "fig9" => fig9_cmd(),
        "fig10" => fig10_cmd(),
        "ext-gru" => ext_gru(quick),
        "ext-limits" => ext_limits(),
        "ext-stream" => ext_stream(),
        "ext-subjects" => ext_subjects(),
        "model-table" => model_table(),
        "area-table" => area_table(),
        "all" => all(quick),
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!(
                "usage: repro [--quick] <fig3a|fig3b|fig3c|fig3d|fig6-modes|fig6-playback|fig6-classified|fig7|fig9|fig10|ext-gru|ext-limits|ext-stream|ext-subjects|model-table|area-table|all>"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyResult = Result<(), Box<dyn std::error::Error>>;

fn fig3_config(quick: bool) -> Fig3Config {
    if quick {
        Fig3Config::quick()
    } else {
        Fig3Config::full()
    }
}

/// Writes `table` as `<repo>/<RESULTS>/<file>`.
fn save(table: &Table, file: &str) -> std::io::Result<()> {
    table.write_csv(repo_root().join(results()).join(file))
}

fn results() -> &'static str {
    RESULTS.get().expect("set at the start of main")
}

fn fig3a(quick: bool) -> AnyResult {
    let r = evaluate_classifier(
        ClassifierKind::Lstm,
        &CorpusSpec::ravdess_like(),
        &fig3_config(quick),
    )?;
    render_fig3a(&r)
}

fn render_fig3a(r: &ClassifierResult) -> AnyResult {
    println!("== Fig. 3(a): confusion matrix, LSTM on RAVDESS-like ==");
    println!("{}", r.confusion);
    println!("overall accuracy: {}", pct(f64::from(r.accuracy)));

    let mut csv = Table::new(
        std::iter::once("actual\\predicted".to_string())
            .chain(r.confusion.labels().iter().cloned())
            .collect(),
    );
    for (i, row) in r.confusion.normalized().iter().enumerate() {
        csv.row(
            std::iter::once(r.confusion.labels()[i].clone())
                .chain(row.iter().map(|v| format!("{v:.3}")))
                .collect(),
        );
    }
    save(&csv, "fig3a_confusion.csv")?;
    Ok(())
}

fn fig3b(quick: bool) -> AnyResult {
    render_fig3b(&full_grid(&fig3_config(quick))?)
}

fn render_fig3b(results: &[ClassifierResult]) -> AnyResult {
    println!("== Fig. 3(b): accuracy by model and corpus ==");
    let mut t = Table::new(vec![
        "corpus".into(),
        "model".into(),
        "accuracy".into(),
        "int8 accuracy".into(),
    ]);
    for r in results {
        t.row(vec![
            r.corpus.clone(),
            r.kind.to_string(),
            pct(f64::from(r.accuracy)),
            pct(f64::from(r.int8_accuracy)),
        ]);
    }
    println!("{}", t.render());
    println!("paper: accuracies 50-85%; CNN and LSTM outperform the MLP.");
    save(&t, "fig3b_accuracy.csv")?;
    Ok(())
}

fn fig3c() -> AnyResult {
    println!("== Fig. 3(c): weight size, float vs 8-bit (paper-scale models) ==");
    let mut t = Table::new(vec![
        "model".into(),
        "float KB".into(),
        "int8 KB".into(),
        "ratio".into(),
    ]);
    for (kind, float_kb, int8_kb) in bench::fig3::paper_weight_sizes() {
        t.row(vec![
            kind.to_string(),
            format!("{float_kb:.0}"),
            format!("{int8_kb:.0}"),
            format!("{:.2}x", float_kb / int8_kb),
        ]);
    }
    println!("{}", t.render());
    save(&t, "fig3c_weight_size.csv")?;
    Ok(())
}

fn fig3d(quick: bool) -> AnyResult {
    let cfg = fig3_config(quick);
    let results = ClassifierKind::NEURAL
        .into_iter()
        .map(|kind| evaluate_classifier(kind, &CorpusSpec::emovo_like(), &cfg))
        .collect::<Result<Vec<_>, _>>()?;
    render_fig3d(&results)
}

fn render_fig3d(results: &[ClassifierResult]) -> AnyResult {
    println!("== Fig. 3(d): accuracy float vs 8-bit (EMOVO-like) ==");
    let mut t = Table::new(vec![
        "model".into(),
        "float".into(),
        "int8".into(),
        "loss".into(),
    ]);
    for r in results {
        t.row(vec![
            r.kind.to_string(),
            pct(f64::from(r.accuracy)),
            pct(f64::from(r.int8_accuracy)),
            pct(f64::from(r.accuracy - r.int8_accuracy)),
        ]);
    }
    println!("{}", t.render());
    println!("paper: less than 3% accuracy loss at 8 bits.");
    save(&t, "fig3d_quant_accuracy.csv")?;
    Ok(())
}

fn fig6_modes() -> AnyResult {
    println!("== Fig. 6 (middle): decoder power modes ==");
    let rows = fig6::mode_table(5)?;
    let mut t = Table::new(vec![
        "mode".into(),
        "norm. power".into(),
        "paper".into(),
        "psnr dB".into(),
        "ssim".into(),
        "deleted NALs".into(),
    ]);
    for (mode, power, target, psnr, ssim, deleted) in &rows {
        t.row(vec![
            mode.clone(),
            format!("{power:.3}"),
            format!("{target:.3}"),
            format!("{psnr:.2}"),
            format!("{ssim:.4}"),
            deleted.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Standard-mode module breakdown (the calibrated model attributes the
    // paper's 31.4% to the deblocking filter).
    let (frames, stream) = h264::adaptive::paper_reference(5)?;
    let profile = h264::adaptive::ModeProfile::measure(&stream, &frames)?;
    let b = profile.model.breakdown(&profile.reports[0].activity);
    let mut bt = Table::new(vec!["module".into(), "share".into()]);
    for (name, share) in [
        ("static/clock", b.static_share),
        ("bitstream parser", b.parser),
        ("cavlc", b.cavlc),
        ("iqit", b.iqit),
        ("intra prediction", b.intra),
        ("inter prediction", b.inter),
        ("buffers", b.buffer),
        ("deblocking filter", b.deblock),
    ] {
        bt.row(vec![name.into(), pct(share)]);
    }
    println!("standard-mode module breakdown:");
    println!("{}", bt.render());
    save(&bt, "fig6_breakdown.csv")?;
    save(&t, "fig6_modes.csv")?;
    Ok(())
}

fn fig6_playback() -> AnyResult {
    println!("== Fig. 6 (bottom): affect-driven playback over the 40-min session ==");
    let report = fig6::playback(5)?;
    let mut t = Table::new(vec![
        "state".into(),
        "minutes".into(),
        "mode".into(),
        "norm. power".into(),
        "psnr dB".into(),
    ]);
    for s in &report.segments {
        t.row(vec![
            s.state.to_string(),
            format!("{:.0}", s.minutes),
            s.mode.to_string(),
            format!("{:.3}", s.normalized_power),
            format!("{:.2}", s.psnr_db),
        ]);
    }
    println!("{}", t.render());
    println!(
        "energy saving vs always-standard: {} (paper: 23.1%)",
        pct(report.saving)
    );
    save(&t, "fig6_playback.csv")?;
    Ok(())
}

fn fig6_classified() -> AnyResult {
    println!("== Fig. 6 (closed loop): playback driven by the SC classifier ==");
    let r = fig6::playback_classified(5)?;
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    t.row(vec![
        "per-minute state accuracy".into(),
        pct(r.state_accuracy),
    ]);
    t.row(vec![
        "energy saving (classified states)".into(),
        pct(r.classified_saving),
    ]);
    t.row(vec![
        "energy saving (oracle labels)".into(),
        pct(r.oracle_saving),
    ]);
    for (mode, minutes) in affect_core::policy::VideoPowerMode::ALL
        .iter()
        .zip(r.classified_mode_minutes)
    {
        t.row(vec![
            format!("minutes in `{mode}`"),
            format!("{minutes:.0}"),
        ]);
    }
    println!("{}", t.render());
    println!("the paper reports the oracle-label run (23.1%); the closed loop shows");
    println!("how much of that survives a real SC-driven classifier.");
    save(&t, "fig6_classified.csv")?;
    Ok(())
}

fn fig7_cmd() -> AnyResult {
    println!("== Fig. 7 (left): app usage share by category and subject ==");
    let mut t = Table::new(vec![
        "category".into(),
        "subject1".into(),
        "subject2".into(),
        "subject3".into(),
        "subject4".into(),
    ]);
    for (category, shares) in fig7::usage_rows() {
        t.row(
            std::iter::once(category.to_string())
                .chain(shares.iter().map(|&s| pct(f64::from(s))))
                .collect(),
        );
    }
    println!("{}", t.render());
    save(&t, "fig7_usage.csv")?;

    println!("== Fig. 7 (right): emulator specification ==");
    let mut spec = Table::new(vec!["key".into(), "value".into()]);
    for (k, v) in fig7::spec_rows() {
        spec.row(vec![k, v]);
    }
    println!("{}", spec.render());
    save(&spec, "fig7_spec.csv")?;
    Ok(())
}

fn fig9_cmd() -> AnyResult {
    println!("== Fig. 9: process lifespans, excited (12 min) then calm (8 min) ==");
    let runs = fig9::run(3)?;
    println!("{}", fig9::render(&runs, 100));
    println!(
        "baseline: {} kills, {} cold starts; emotion: {} kills, {} cold starts",
        runs.baseline.kills,
        runs.baseline.cold_starts,
        runs.emotion.kills,
        runs.emotion.cold_starts
    );
    let mut t = Table::new(vec![
        "policy".into(),
        "kills".into(),
        "cold starts".into(),
        "warm starts".into(),
    ]);
    for m in [&runs.baseline, &runs.emotion] {
        t.row(vec![
            m.policy.to_string(),
            m.kills.to_string(),
            m.cold_starts.to_string(),
            m.warm_starts.to_string(),
        ]);
    }
    save(&t, "fig9_summary.csv")?;

    // Per-app lifespan spans for external plotting.
    let mut spans = Table::new(vec![
        "policy".into(),
        "app".into(),
        "start_s".into(),
        "end_s".into(),
    ]);
    for m in [&runs.baseline, &runs.emotion] {
        let timeline = m.timeline();
        for (app_id, intervals) in &timeline.rows {
            let name = runs
                .device
                .app(*app_id)
                .map(|a| a.name.clone())
                .unwrap_or_default();
            for (start, end) in intervals {
                spans.row(vec![
                    m.policy.to_string(),
                    name.clone(),
                    format!("{start:.1}"),
                    format!("{end:.1}"),
                ]);
            }
        }
    }
    save(&spans, "fig9_timeline.csv")?;
    Ok(())
}

fn fig10_cmd() -> AnyResult {
    println!("== Fig. 10: memory loaded at app start and loading time ==");
    let r = fig10::run(100, 10)?;
    let mut t = Table::new(vec![
        "metric".into(),
        "emotion driven".into(),
        "baseline".into(),
        "saving".into(),
        "paper".into(),
    ]);
    t.row(vec![
        "total loaded memory (bytes)".into(),
        format!("{:.3e}", r.emotion_bytes),
        format!("{:.3e}", r.baseline_bytes),
        pct(r.memory_saving),
        "17%".into(),
    ]);
    t.row(vec![
        "total app loading time (s)".into(),
        format!("{:.1}", r.emotion_secs),
        format!("{:.1}", r.baseline_secs),
        pct(r.time_saving),
        "12%".into(),
    ]);
    println!("{}", t.render());
    println!(
        "saving split: flash file loading {} / allocated memory {} (paper: roughly equal)",
        pct(r.flash_saving),
        pct(r.allocated_saving)
    );
    println!("(averaged over {} workload seeds)", r.runs);
    save(&t, "fig10_savings.csv")?;
    Ok(())
}

fn ext_gru(quick: bool) -> AnyResult {
    println!("== Extension: GRU vs LSTM on the wearable budget ==");
    let rows = ext::gru_vs_lstm(&fig3_config(quick))?;
    let mut t = Table::new(vec!["cell".into(), "params".into(), "accuracy".into()]);
    for r in &rows {
        t.row(vec![
            r.cell.into(),
            r.params.to_string(),
            pct(f64::from(r.accuracy)),
        ]);
    }
    println!("{}", t.render());
    save(&t, "ext_gru_vs_lstm.csv")?;
    Ok(())
}

fn ext_limits() -> AnyResult {
    println!("== Extension: background process limit sweep ==");
    let rows = ext::process_limit_sweep(100, 4)?;
    let mut t = Table::new(vec![
        "process limit".into(),
        "memory saving".into(),
        "time saving".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.limit.to_string(),
            pct(r.memory_saving),
            pct(r.time_saving),
        ]);
    }
    println!("{}", t.render());
    println!("the emotion manager's advantage is a memory-pressure effect:");
    println!("it grows as the limit tightens and vanishes without pressure.");
    save(&t, "ext_process_limit.csv")?;
    Ok(())
}

fn ext_stream() -> AnyResult {
    println!("== Extension: reference-stream NAL composition ==");
    let (rows, fractions) = ext::stream_composition(5)?;
    let mut t = Table::new(vec![
        "type".into(),
        "count".into(),
        "mean bytes".into(),
        "size range".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.nal_type.clone(),
            r.count.to_string(),
            format!("{:.0}", r.mean_size),
            format!("{}..{}", r.size_range.0, r.size_range.1),
        ]);
    }
    println!("{}", t.render());
    let mut f = Table::new(vec!["S_th".into(), "droppable bytes".into()]);
    for (s_th, fraction) in &fractions {
        f.row(vec![s_th.to_string(), pct(*fraction)]);
    }
    println!("{}", f.render());
    save(&t, "ext_nal_composition.csv")?;
    save(&f, "ext_droppable_fraction.csv")?;
    Ok(())
}

fn ext_subjects() -> AnyResult {
    println!("== Extension: Fig. 10 savings per subject profile ==");
    let rows = ext::subject_sweep(200, 4)?;
    let mut t = Table::new(vec![
        "subject".into(),
        "trait".into(),
        "memory saving".into(),
        "time saving".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.subject.to_string(),
            r.trait_label.clone(),
            pct(r.memory_saving),
            pct(r.time_saving),
        ]);
    }
    println!("{}", t.render());
    save(&t, "ext_subjects.csv")?;
    Ok(())
}

fn model_table() -> AnyResult {
    println!("== Sec. 2: classifier parameter budgets ==");
    let mut t = Table::new(vec![
        "model".into(),
        "paper params".into(),
        "our params".into(),
        "error".into(),
    ]);
    for (name, paper, ours) in tables::model_rows() {
        let err = (ours as f64 - paper as f64).abs() / paper as f64;
        t.row(vec![name, paper.to_string(), ours.to_string(), pct(err)]);
    }
    println!("{}", t.render());
    save(&t, "model_table.csv")?;
    Ok(())
}

fn area_table() -> AnyResult {
    println!("== Sec. 4: decoder silicon figures ==");
    let mut t = Table::new(vec!["key".into(), "value".into()]);
    for (k, v) in tables::silicon_rows() {
        t.row(vec![k, v]);
    }
    println!("{}", t.render());
    save(&t, "area_table.csv")?;
    Ok(())
}

/// Every figure in order. Fig. 3(a), (b) and (d) render from one run of
/// the Fig. 3(b) grid, which already trains each of their cells.
fn all(quick: bool) -> AnyResult {
    let grid = full_grid(&fig3_config(quick))?;
    let on = |spec: CorpusSpec| grid.iter().filter(move |r| r.corpus == spec.name);
    let lstm_ravdess = on(CorpusSpec::ravdess_like())
        .find(|r| r.kind == ClassifierKind::Lstm)
        .ok_or("the Fig. 3(b) grid has no LSTM/RAVDESS-like cell")?;
    render_fig3a(lstm_ravdess)?;
    render_fig3b(&grid)?;
    fig3c()?;
    let emovo: Vec<ClassifierResult> = on(CorpusSpec::emovo_like()).cloned().collect();
    render_fig3d(&emovo)?;
    fig6_modes()?;
    fig6_playback()?;
    fig6_classified()?;
    fig7_cmd()?;
    fig9_cmd()?;
    fig10_cmd()?;
    model_table()?;
    area_table()?;
    ext_gru(quick)?;
    ext_limits()?;
    ext_stream()?;
    ext_subjects()?;
    println!("\nall experiments regenerated; CSVs in {}", results());
    Ok(())
}
