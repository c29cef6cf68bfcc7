//! Property-based tests for the codec's core invariants.

use h264::buffers::{select_units, BufferChain, BufferStats, SelectorParams};
use h264::cavlc::{decode_block, encode_block};
use h264::expgolomb::{BitReader, BitWriter};
use h264::nal::{split_annex_b, write_annex_b, NalType, NalUnit};
use h264::transform::{decode_residual, encode_residual, qp_step};
use h264::{AnnexBScanner, CodecError, ScannerConfig};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The byte-moving FIFO the counting [`BufferChain`] replaced, kept
/// verbatim as its oracle.
struct ByteFifo {
    queue: VecDeque<u8>,
    capacity: usize,
}

impl ByteFifo {
    fn new(capacity: usize) -> Self {
        Self {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    fn free(&self) -> usize {
        self.capacity - self.queue.len()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn push(&mut self, bytes: &[u8]) -> usize {
        let n = bytes.len().min(self.free());
        self.queue.extend(&bytes[..n]);
        n
    }

    fn pop(&mut self, n: usize) -> Vec<u8> {
        let n = n.min(self.queue.len());
        self.queue.drain(..n).collect()
    }
}

/// The byte-moving chain's tick loop, kept verbatim with the paper's
/// sizes as locals: the producer writes 16 bytes a tick into the 256-byte
/// Pre-store Buffer, the 16-byte Circular Buffer refills from it and the
/// parser drains 4.
fn reference_pump(bytes: &[u8]) -> BufferStats {
    let mut prestore = ByteFifo::new(256);
    let mut circular = ByteFifo::new(16);
    let (write_width, read_width) = (16, 4);
    let mut stats = BufferStats::default();
    let mut offset = 0usize;
    while offset < bytes.len() || !prestore.is_empty() || !circular.is_empty() {
        stats.ticks += 1;
        if offset < bytes.len() {
            let want = write_width.min(bytes.len() - offset);
            let accepted = prestore.push(&bytes[offset..offset + want]);
            stats.prestore_writes += accepted;
            offset += accepted;
            if accepted < want {
                stats.producer_stalls += 1;
            }
        }
        let moved = prestore.pop(circular.free());
        stats.circular_writes += circular.push(&moved);
        stats.delivered += circular.pop(read_width).len();
    }
    stats
}

/// The bit-at-a-time reader the word-at-a-time `read_ue` replaced, kept
/// verbatim as the oracle for values, errors and `bits_read`.
struct ReferenceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ReferenceReader<'_> {
    fn read_bit(&mut self) -> Result<bool, CodecError> {
        if self.pos >= self.bytes.len() * 8 {
            return Err(CodecError::BitstreamExhausted { bit_pos: self.pos });
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    fn read_bits(&mut self, n: u8) -> Result<u32, CodecError> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.read_bit()?);
        }
        Ok(v)
    }

    fn read_ue(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0u8;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 31 {
                return Err(CodecError::InvalidSyntax("exp-golomb prefix too long"));
            }
        }
        let suffix = self.read_bits(zeros)?;
        Ok((1u32 << zeros) - 1 + suffix)
    }

    fn read_se(&mut self) -> Result<i32, CodecError> {
        let v = self.read_ue()?;
        if v % 2 == 1 {
            Ok(v.div_ceil(2) as i32)
        } else {
            Ok(-((v / 2) as i32))
        }
    }
}

/// Bit strings biased toward zero runs: each segment is 0–40 zero bits
/// followed by up to 32 arbitrary bits, so Exp-Golomb prefixes of every
/// length — past the 28-zero word window and the 31-zero syntax limit
/// too — start at every bit alignment, and the string ends anywhere.
fn zero_run_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..=40, any::<u32>(), 0u8..=32), 0..24).prop_map(|segments| {
        let mut w = BitWriter::new();
        for (zeros, bits, n) in segments {
            w.write_bits(0, zeros.min(32));
            w.write_bits(0, zeros.saturating_sub(32));
            w.write_bits(bits, n);
        }
        w.into_bytes()
    })
}

/// Units whose payloads are biased toward the framing edge cases: zero
/// tails, `00 03`-style escape tails, and all-zero bodies.
fn zero_tailed_units_strategy() -> impl Strategy<Value = Vec<NalUnit>> {
    prop::collection::vec(
        (
            prop_oneof![
                Just(NalType::IdrSlice),
                Just(NalType::PSlice),
                Just(NalType::BSlice),
            ],
            prop::collection::vec(any::<u8>(), 0..40),
            prop_oneof![
                Just(vec![]),
                Just(vec![0u8]),
                Just(vec![0, 0]),
                Just(vec![0, 0, 0]),
                Just(vec![0, 3]),
                Just(vec![0, 0, 3]),
                Just(vec![0, 3, 3]),
                Just(vec![0, 0, 0, 0]),
            ],
        )
            .prop_map(|(t, mut p, tail)| {
                p.extend(tail);
                if p.is_empty() {
                    p.push(0);
                }
                NalUnit::new(t, p)
            }),
        1..8,
    )
}

fn nal_units_strategy() -> impl Strategy<Value = Vec<NalUnit>> {
    prop::collection::vec(
        (
            prop_oneof![
                Just(NalType::IdrSlice),
                Just(NalType::PSlice),
                Just(NalType::BSlice),
            ],
            prop::collection::vec(any::<u8>(), 1..300),
        )
            .prop_map(|(t, p)| NalUnit::new(t, p)),
        1..12,
    )
}

proptest! {
    /// ue/se Exp-Golomb codes round-trip for any value sequence.
    #[test]
    fn expgolomb_round_trip(
        ues in prop::collection::vec(0u32..1_000_000, 1..32),
        ses in prop::collection::vec(-100_000i32..100_000, 1..32),
    ) {
        let mut w = BitWriter::new();
        for &v in &ues {
            w.write_ue(v);
        }
        for &v in &ses {
            w.write_se(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &ues {
            prop_assert_eq!(r.read_ue().unwrap(), v);
        }
        for &v in &ses {
            prop_assert_eq!(r.read_se().unwrap(), v);
        }
    }

    /// CAVLC blocks round-trip in every context for arbitrary levels.
    #[test]
    fn cavlc_round_trip(
        levels in prop::collection::vec(-64i32..64, 16..=16),
        ctx in 0usize..3,
    ) {
        let mut block = [0i32; 16];
        block.copy_from_slice(&levels);
        let mut w = BitWriter::new();
        encode_block(&mut w, &block, ctx);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let (decoded, _) = decode_block(&mut r, ctx).unwrap();
        prop_assert_eq!(decoded, block);
    }

    /// Residual coding error is bounded by the quantization step scale at
    /// every QP.
    #[test]
    fn residual_error_bounded(
        values in prop::collection::vec(-255i32..=255, 16..=16),
        qp in 0u8..=40,
    ) {
        let mut block = [0i32; 16];
        block.copy_from_slice(&values);
        let zz = encode_residual(&block, qp).unwrap();
        let back = decode_residual(&zz, qp).unwrap();
        let bound = (qp_step(qp) * 2.0 + 3.0) as i32;
        for (a, b) in block.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "qp {}: {} vs {}", qp, a, b);
        }
    }

    /// Annex-B framing round-trips arbitrary payloads (emulation
    /// prevention must protect every byte pattern).
    #[test]
    fn annex_b_round_trip(units in nal_units_strategy()) {
        let stream = write_annex_b(&units);
        let back = split_annex_b(&stream).unwrap();
        prop_assert_eq!(back, units);
    }

    /// The Input Selector never drops I/SPS units, and its byte accounting
    /// balances.
    #[test]
    fn selector_conserves_bytes(
        units in nal_units_strategy(),
        s_th in 0usize..400,
        f in 1u32..4,
    ) {
        let total: usize = units.iter().map(NalUnit::wire_size).sum();
        let report = select_units(&units, SelectorParams::new(s_th, f).unwrap());
        prop_assert_eq!(report.kept_bytes + report.deleted_bytes, total);
        prop_assert_eq!(report.kept.len() + report.deleted_units, units.len());
        // Non-droppable units always survive.
        let idr_in = units.iter().filter(|u| u.nal_type == NalType::IdrSlice).count();
        let idr_out = report.kept.iter().filter(|u| u.nal_type == NalType::IdrSlice).count();
        prop_assert_eq!(idr_in, idr_out);
        // Deleted count never exceeds candidates / f (rounded up).
        prop_assert!(report.deleted_units <= report.candidates.div_ceil(f as usize));
    }

    /// Larger S_th never deletes fewer units (monotonicity of the knob).
    #[test]
    fn selector_monotone_in_s_th(units in nal_units_strategy(), a in 0usize..200, b in 200usize..500) {
        let small = select_units(&units, SelectorParams::new(a, 1).unwrap());
        let large = select_units(&units, SelectorParams::new(b, 1).unwrap());
        prop_assert!(large.deleted_units >= small.deleted_units);
    }

    /// Zero-tailed payloads round-trip through the writer's own framing.
    #[test]
    fn zero_tailed_round_trip(units in zero_tailed_units_strategy()) {
        let stream = write_annex_b(&units);
        let back = split_annex_b(&stream).unwrap();
        prop_assert_eq!(back, units);
    }

    /// Zero-tailed payloads survive *3-byte* start-code framing — the wire
    /// a streaming peer is allowed to emit. Before the trailing-zero
    /// escape fix, a body ending in `00` lost that byte to the following
    /// short start code.
    #[test]
    fn zero_tailed_round_trip_three_byte_codes(units in zero_tailed_units_strategy()) {
        let mut wire = Vec::new();
        for u in &units {
            let one = write_annex_b(std::slice::from_ref(u));
            // Drop the leading zero: `00 00 00 01` becomes `00 00 01`.
            wire.extend_from_slice(&one[1..]);
        }
        let back = split_annex_b(&wire).unwrap();
        prop_assert_eq!(back, units);
    }

    /// The streaming scanner is invariant under chunking: arbitrary cut
    /// points — including cuts inside start codes and escape sequences —
    /// yield exactly the units whole-buffer parsing yields.
    #[test]
    fn scanner_invariant_under_chunking(
        units in zero_tailed_units_strategy(),
        cuts in prop::collection::vec(0usize..4096, 0..6),
    ) {
        let stream = write_annex_b(&units);
        let whole = split_annex_b(&stream).unwrap();
        let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        points.sort_unstable();
        let mut scanner = AnnexBScanner::new(ScannerConfig::default());
        let mut got = Vec::new();
        let mut prev = 0;
        for p in points {
            got.extend(scanner.push_chunk(&stream[prev..p]).unwrap());
            prev = p;
        }
        got.extend(scanner.push_chunk(&stream[prev..]).unwrap());
        got.extend(scanner.flush().unwrap());
        prop_assert_eq!(&got, &whole);

        // Degenerate transport: one byte per chunk.
        let mut scanner = AnnexBScanner::new(ScannerConfig::default());
        let mut got = Vec::new();
        for &b in &stream {
            got.extend(scanner.push_chunk(&[b]).unwrap());
        }
        got.extend(scanner.flush().unwrap());
        prop_assert_eq!(&got, &whole);
    }
}

/// The counting buffer chain delivers every byte exactly once and reports
/// exactly the byte-moving chain's five counters, for every length up to
/// 4 KiB and for long ones: the `video_fig6` segment is 159,092 wire bytes.
#[test]
fn buffer_chain_lossless() {
    let chain = BufferChain::paper_sized();
    for len in (0..4096).chain([10_000, 65_537, 159_092, 1_000_000]) {
        let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        let stats = chain.pump(len);
        assert_eq!(stats, reference_pump(&data), "len {len}");
        assert_eq!(stats.delivered, len);
        assert_eq!(stats.prestore_writes, len);
        assert_eq!(stats.circular_writes, len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// From any start byte, any script of `read_ue`/`read_se`/`read_bits`
    /// calls returns what the bit-at-a-time reader returns — the value or
    /// the error with its bit position — and leaves `bits_read` equal.
    #[test]
    fn bit_reader_matches_bit_at_a_time(
        bytes in zero_run_bytes(),
        start in 0usize..16,
        script in prop::collection::vec((0u8..4, 0u8..=32), 1..48),
    ) {
        let bytes = &bytes[start.min(bytes.len())..];
        let mut fast = BitReader::new(bytes);
        let mut reference = ReferenceReader { bytes, pos: 0 };
        for (op, n) in script {
            match op {
                0 => prop_assert_eq!(fast.read_bits(n), reference.read_bits(n)),
                1 => prop_assert_eq!(fast.read_se(), reference.read_se()),
                _ => prop_assert_eq!(fast.read_ue(), reference.read_ue()),
            }
            prop_assert_eq!(fast.bits_read(), reference.pos);
        }
    }
}
