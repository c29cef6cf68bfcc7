//! Streaming-ingest throughput sweep over wire chunk size.
//!
//! Encodes a clip once, then decodes it repeatedly through the chunked
//! streaming front-end (`Decoder::begin_stream` → `decode_chunk` →
//! `finish`) at transport chunk sizes from one byte to the whole buffer,
//! reporting wire MB/s (stream bytes through the scanner per second).
//! Whole-buffer `Decoder::decode` is measured as the baseline — since the
//! batch path is itself a thin wrapper over the streaming path, the sweep
//! isolates pure chunking overhead (scanner carry state, per-chunk
//! buffer management).
//!
//! Each chunk size is timed in interleaved rounds of batches with the
//! whole-buffer baseline (`bench::results::interleave`), so a drift in host
//! speed lands on both sides of every round's ratio; the figures are
//! medians over the rounds. A full run writes the chunk-size grid, with
//! MB/s and the overhead ratio vs. whole-buffer decode, to
//! `results/BENCH_ingest_sweep.json` through `bench::results`.
//!
//! Two gates, both exercised in every mode (including `--test`):
//!   - correctness: every chunking's output must equal whole-buffer
//!     decode (frames, activity, selection, buffer stats);
//!   - performance (skipped in `--test`): at MTU-sized chunks (1500 B)
//!     streaming ingest must stay within 2× of whole-buffer decode time.

use std::hint::black_box;
use std::time::Duration;

use affect_core::policy::VideoPowerMode;
use bench::results::{batch, interleave, write_bench, Mode, Spread};
use bench::table::Table;
use h264::adaptive::options_for_mode;
use h264::decoder::{DecodeOutput, Decoder};
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::video::synthetic_clip;

/// Max allowed slowdown vs. whole-buffer decode at MTU-sized chunks.
const MTU_OVERHEAD_GATE: f64 = 2.0;
/// Target wall-clock of one side's batch in one round.
const TARGET: Duration = Duration::from_millis(50);

fn chunk_sizes(len: usize, test_mode: bool) -> Vec<usize> {
    if test_mode {
        vec![1, 64, 1500, len]
    } else {
        vec![1, 4, 16, 64, 256, 1500, 8192, len]
    }
}

fn decode_chunked(
    options: h264::decoder::DecoderOptions,
    stream: &[u8],
    chunk: usize,
) -> DecodeOutput {
    let mut s = Decoder::new(options).begin_stream();
    for piece in stream.chunks(chunk) {
        s.decode_chunk(black_box(piece)).expect("chunk decodes");
    }
    s.finish().expect("stream finishes")
}

fn assert_equivalent(chunk: usize, got: &DecodeOutput, want: &DecodeOutput) {
    assert_eq!(
        got.frames, want.frames,
        "frames diverged at chunk size {chunk}"
    );
    assert_eq!(
        got.activity, want.activity,
        "activity diverged at chunk size {chunk}"
    );
    assert_eq!(
        got.selection, want.selection,
        "selection diverged at chunk size {chunk}"
    );
    assert_eq!(
        got.buffer, want.buffer,
        "buffer stats diverged at chunk size {chunk}"
    );
}

fn main() {
    let run = Mode::from_args();
    let test_mode = run == Mode::Test;

    let mode = VideoPowerMode::Combined;
    let options = options_for_mode(mode);
    let frames = synthetic_clip(96, 96, if test_mode { 4 } else { 8 }, 17).unwrap();
    let stream = Encoder::new(EncoderConfig {
        qp: 28,
        gop: GopPattern {
            intra_period: 4,
            b_between: 1,
        },
        ..EncoderConfig::default()
    })
    .unwrap()
    .encode(&frames)
    .unwrap();
    let stream_mb = stream.len() as f64 / 1e6;

    // Baseline: whole-buffer decode, also the correctness reference.
    let reference = Decoder::new(options)
        .decode(&stream)
        .expect("intact stream");
    let mut whole = batch(run, TARGET, || {
        Decoder::new(options).decode(black_box(&stream)).unwrap()
    });
    eprintln!("ingest_sweep: {} byte stream", stream.len());

    let mut table = Table::new(vec![
        "chunk_bytes".into(),
        "chunks".into(),
        "wire_mb_per_s".into(),
        "overhead_vs_whole".into(),
    ]);
    let mut mtu_overhead = 1.0f64;
    let mut whole_rates = Vec::new();

    for chunk in chunk_sizes(stream.len(), test_mode) {
        // Correctness gate: every chunking equals whole-buffer decode.
        let out = decode_chunked(options, &stream, chunk);
        assert_equivalent(chunk, &out, &reference);

        let m = interleave(
            &mut whole,
            batch(run, TARGET, || decode_chunked(options, &stream, chunk)),
        );
        // The figures are seconds per decode, so the ratio is chunked /
        // whole time, and a rate is the stream's size over a time.
        let overhead = m.ratio;
        let (chunked_mb_s, whole_mb_s) = (stream_mb / m.cell, stream_mb / m.baseline);
        whole_rates.push(whole_mb_s);
        if chunk == 1500 {
            mtu_overhead = overhead;
        }
        let n_chunks = stream.len().div_ceil(chunk);
        eprintln!(
            "  chunk {chunk:>7} B  {n_chunks:>6} chunks  {chunked_mb_s:>8.1} MB/s  \
             x{overhead:.2} vs whole ({whole_mb_s:.1} MB/s)"
        );
        table.row(vec![
            chunk.to_string(),
            n_chunks.to_string(),
            format!("{chunked_mb_s:.1}"),
            format!("{overhead:.3}"),
        ]);
    }
    let whole_mb_s = Spread::of(&whole_rates).median;

    eprintln!("ingest_sweep: every chunking byte-identical to whole-buffer decode");

    // `--test` keeps the committed results untouched: a one-decode run
    // would overwrite the tracked numbers with noise.
    if test_mode {
        return;
    }

    let path = write_bench(
        "ingest_sweep",
        "wire_mb_per_sec",
        &[
            ("stream_bytes", stream.len().to_string()),
            ("whole_buffer_mb_per_s", format!("{whole_mb_s:.1}")),
            ("mtu_overhead", format!("{mtu_overhead:.3}")),
        ],
        &table,
    )
    .expect("write BENCH_ingest_sweep.json");
    eprintln!("wrote {}", path.display());

    assert!(
        mtu_overhead <= MTU_OVERHEAD_GATE,
        "MTU-chunked ingest is x{mtu_overhead:.2} slower than whole-buffer decode \
         (gate x{MTU_OVERHEAD_GATE})"
    );
}
