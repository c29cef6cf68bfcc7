//! Decode-throughput sweep over QP × resolution × affect mode, one run
//! per decoder kernel backend.
//!
//! Each cell encodes a synthetic clip once, then decodes it repeatedly
//! with `Decoder::with_kernels` pinned to the `reference` and `simd`
//! backends, reporting macroblocks per second (the decoder's natural
//! work unit — `Activity::macroblocks` counts every decoded MB, so the
//! metric is identical across modes even when the Input Selector drops
//! NAL units). The two backends are timed in interleaved rounds of
//! batches (`bench::results::interleave`), so a drift in host speed lands
//! on both sides of every round's speedup; the figures are medians over
//! the rounds.
//! A full run adds the paper's calibration clip (`paper_reference(5)`) in
//! all four modes, the Fig. 6 (middle) comparison in wall-clock time, and
//! writes `results/BENCH_decode_sweep.json` through `bench::results`.
//!
//! Every run first prints the Input Selector ablation on the calibration
//! clip: deleted units and PSNR for `S_th` ∈ {0, 70, 140, 280, 560} ×
//! `f` ∈ {1, 2, 4}, the design-choice study DESIGN.md §7 calls out.
//!
//! The acceptance gate: with real vector lanes (backend name other than
//! `simd-scalar`), at least one synthetic cell must reach a ≥ 1.5×
//! speedup. The calibration-clip rows stay out of the gate's cell set.
//! The gate is skipped in `--test` mode (CI smoke / `cargo test`) and
//! when the simd backend resolves to the portable scalar lanes, where
//! parity — not speedup — is the contract.

use std::hint::black_box;
use std::time::Duration;

use affect_core::policy::VideoPowerMode;
use bench::results::{batch, interleave, write_bench, Mode};
use bench::table::Table;
use h264::adaptive::{options_for_mode, paper_reference};
use h264::backend::BackendKind;
use h264::buffers::SelectorParams;
use h264::decoder::{Decoder, DecoderOptions};
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::quality::mean_psnr;
use h264::video::synthetic_clip;
use h264::{Frame, SpsParams};

/// Minimum simd/reference speedup at least one synthetic cell must reach.
const SPEEDUP_GATE: f64 = 1.5;
/// Target wall-clock of one backend's batch in one round of a cell.
const TARGET: Duration = Duration::from_millis(100);

struct Cell {
    qp: u8,
    width: usize,
    height: usize,
    mode: VideoPowerMode,
}

fn grid(test_mode: bool) -> Vec<Cell> {
    let qps: &[u8] = if test_mode { &[28] } else { &[12, 28, 40] };
    let sizes: &[(usize, usize)] = if test_mode {
        &[(48, 48)]
    } else {
        &[(48, 48), (96, 96), (176, 144)]
    };
    let modes: &[VideoPowerMode] = if test_mode {
        &[VideoPowerMode::Standard]
    } else {
        &[VideoPowerMode::Standard, VideoPowerMode::Combined]
    };
    let mut cells = Vec::new();
    for &qp in qps {
        for &(width, height) in sizes {
            for &mode in modes {
                cells.push(Cell {
                    qp,
                    width,
                    height,
                    mode,
                });
            }
        }
    }
    cells
}

/// Decodes `stream` once with the given backend and returns the number of
/// macroblocks decoded.
fn decode(kind: BackendKind, mode: VideoPowerMode, stream: &[u8]) -> u64 {
    Decoder::with_kernels(options_for_mode(mode), kind.kernels())
        .decode(black_box(stream))
        .expect("intact stream decodes")
        .activity
        .macroblocks
}

/// The QP and frame size the stream's own sequence header declares.
fn stream_header(stream: &[u8]) -> SpsParams {
    let mut s = Decoder::new(DecoderOptions::default()).begin_stream();
    s.decode_chunk(stream).expect("intact stream decodes");
    *s.sps().expect("the stream opens with a sequence header")
}

fn mode_label(mode: VideoPowerMode) -> &'static str {
    match mode {
        VideoPowerMode::Standard => "standard",
        VideoPowerMode::NalDeletion => "nal_deletion",
        VideoPowerMode::DeblockOff => "deblock_off",
        VideoPowerMode::Combined => "combined",
    }
}

/// Measures `stream` in `mode` on both backends, appends the table row and
/// returns the simd/reference speedup.
fn sweep_row(table: &mut Table, clip: &str, mode: VideoPowerMode, stream: &[u8], run: Mode) -> f64 {
    let mb = decode(BackendKind::Reference, mode, stream);
    let m = interleave(
        batch(run, TARGET, || decode(BackendKind::Reference, mode, stream)),
        batch(run, TARGET, || decode(BackendKind::Simd, mode, stream)),
    );
    // The figures are seconds per decode. With an odd round count the
    // median of the per-round speedups is the inverse of the median
    // simd/reference time ratio.
    let (ref_mb_s, simd_mb_s, speedup) =
        (mb as f64 / m.baseline, mb as f64 / m.cell, 1.0 / m.ratio);

    let sps = stream_header(stream);
    let size = format!("{}x{}", sps.width(), sps.height());
    let mode = mode_label(mode);
    eprintln!(
        "  {clip:<15} qp {:>2} {size:>8} {mode:<12} ref {ref_mb_s:>9.0} MB/s  \
         simd {simd_mb_s:>9.0} MB/s  x{speedup:.2}",
        sps.qp
    );
    table.row(vec![
        clip.to_string(),
        sps.qp.to_string(),
        size,
        mode.to_string(),
        mb.to_string(),
        format!("{ref_mb_s:.1}"),
        format!("{simd_mb_s:.1}"),
        format!("{speedup:.3}"),
    ]);
    speedup
}

/// The Input Selector's power/quality frontier on the calibration clip.
fn print_selector_ablation(frames: &[Frame], stream: &[u8]) {
    eprintln!("\nS_th / f ablation (deleted units, psnr):");
    for s_th in [0usize, 70, 140, 280, 560] {
        for f in [1u32, 2, 4] {
            let mut decoder = Decoder::new(DecoderOptions {
                deblock: true,
                selector: Some(SelectorParams::new(s_th, f).unwrap()),
                resilient: false,
            });
            let out = decoder.decode(stream).unwrap();
            let psnr = mean_psnr(frames, &out.frames).unwrap();
            eprintln!(
                "  s_th {s_th:>4}  f {f}: deleted {:>2}  psnr {psnr:.2} dB",
                out.selection.deleted_units
            );
        }
    }
}

fn main() {
    let run = Mode::from_args();
    let test_mode = run == Mode::Test;

    let simd_name = BackendKind::Simd.kernels().name();
    let vector_lanes = simd_name != "simd-scalar";
    eprintln!("decode_sweep: simd backend is `{simd_name}`");

    let (paper_frames, paper_stream) = paper_reference(5).expect("calibration clip encodes");
    print_selector_ablation(&paper_frames, &paper_stream);

    let mut table = Table::new(vec![
        "clip".into(),
        "qp".into(),
        "size".into(),
        "mode".into(),
        "mb_per_decode".into(),
        "reference_mb_per_s".into(),
        "simd_mb_per_s".into(),
        "speedup".into(),
    ]);
    let mut best_speedup = 0.0f64;

    for cell in grid(test_mode) {
        let frames =
            synthetic_clip(cell.width, cell.height, if test_mode { 4 } else { 6 }, 17).unwrap();
        let stream = Encoder::new(EncoderConfig {
            qp: cell.qp,
            gop: GopPattern {
                intra_period: 4,
                b_between: 1,
            },
            ..EncoderConfig::default()
        })
        .unwrap()
        .encode(&frames)
        .unwrap();
        let speedup = sweep_row(&mut table, "synthetic", cell.mode, &stream, run);
        best_speedup = best_speedup.max(speedup);
    }

    eprintln!("decode_sweep: best synthetic-cell simd/reference speedup x{best_speedup:.2}");

    // `--test` keeps the committed results untouched: a one-decode run
    // would overwrite the tracked numbers with noise.
    if test_mode {
        return;
    }

    for mode in VideoPowerMode::ALL {
        sweep_row(&mut table, "paper_reference", mode, &paper_stream, run);
    }

    let path = write_bench(
        "decode_sweep",
        "macroblocks_per_sec",
        &[("best_speedup", format!("{best_speedup:.3}"))],
        &table,
    )
    .expect("write BENCH_decode_sweep.json");
    eprintln!("wrote {}", path.display());

    // The acceptance gate. With portable scalar lanes the simd backend is
    // a parity build, not a fast one — conformance covers it.
    if vector_lanes {
        assert!(
            best_speedup >= SPEEDUP_GATE,
            "simd backend best speedup x{best_speedup:.2} below the x{SPEEDUP_GATE} gate"
        );
    }
}
