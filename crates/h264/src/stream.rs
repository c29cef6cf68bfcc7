//! Streaming Annex-B ingest: incremental start-code scanning, access-unit
//! assembly, and the parameter-set cache (DESIGN.md §16).
//!
//! Where [`crate::nal::split_annex_b`] needs the whole bitstream in
//! memory, [`AnnexBScanner`] accepts the stream as arbitrarily-chunked
//! byte slices — network reads, file pages, 1-byte drip feeds — and emits
//! complete [`NalUnit`]s as soon as they can be framed. The invariant the
//! conformance suite enforces: **every chunking of a stream yields exactly
//! the units (and decode output) of the whole-buffer path.**
//!
//! The subtlety is the undecidable tail. A chunk ending in `… 00 00` may
//! or may not be the front of a start code, and a body can never be closed
//! until the *next* start code arrives, so the scanner holds the current
//! unit's bytes (bounded by [`ScannerConfig::max_pending`]) and resumes
//! the scan exactly where certainty ended.

use crate::nal::{unescape, NalType, NalUnit};
use crate::CodecError;

/// Configuration for [`AnnexBScanner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannerConfig {
    /// Strict framing (`true`, the default) mirrors
    /// [`crate::nal::split_annex_b`]: bytes before the first start code
    /// and empty unit bodies are errors. Lenient mode resynchronizes
    /// instead — garbage and unframeable units are skipped and counted in
    /// [`IngestStats::resyncs`] — which is what a long-lived session wants
    /// on a lossy wire.
    pub strict: bool,
    /// Upper bound on bytes buffered for one in-flight unit. A stream
    /// that never produces a start code cannot grow the buffer past this;
    /// exceeding it is an error even in lenient mode (the alternative is
    /// unbounded memory).
    pub max_pending: usize,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        Self {
            strict: true,
            // Generous for this codec: the largest corpus unit is a few
            // tens of kilobytes, and the decoder's own SPS budget caps
            // plausible slice sizes far below this.
            max_pending: 8 << 20,
        }
    }
}

/// Ingest counters — the source of the `affect_h264_ingest_*` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Chunks pushed.
    pub chunks: u64,
    /// Bytes pushed.
    pub bytes: u64,
    /// Complete NAL units emitted.
    pub units: u64,
    /// Lenient-mode resynchronizations (skipped garbage or unframeable
    /// units). Always zero in strict mode.
    pub resyncs: u64,
    /// High-water mark of the partial-unit buffer in bytes — how deep a
    /// unit straddled chunk boundaries.
    pub max_pending: usize,
}

/// Incremental Annex-B start-code scanner: push chunks, get NAL units.
///
/// # Example
///
/// ```
/// use h264::nal::{write_annex_b, NalType, NalUnit};
/// use h264::stream::AnnexBScanner;
/// let units = vec![
///     NalUnit::new(NalType::Sps, vec![1, 2]),
///     NalUnit::new(NalType::PSlice, vec![0xAA, 0x00]),
/// ];
/// let wire = write_annex_b(&units);
/// let mut scanner = AnnexBScanner::default();
/// let mut got = Vec::new();
/// for chunk in wire.chunks(3) {
///     got.extend(scanner.push_chunk(chunk).unwrap());
/// }
/// got.extend(scanner.flush().unwrap());
/// assert_eq!(got, units);
/// ```
#[derive(Debug, Clone)]
pub struct AnnexBScanner {
    cfg: ScannerConfig,
    /// Bytes not yet consumed: everything from the current unit's body
    /// (exclusive of its start code, inclusive of its header byte) to the
    /// newest pushed byte. Before the first start code it holds the
    /// undecided prefix instead.
    buf: Vec<u8>,
    /// Next `buf` offset the start-code scan will examine.
    search: usize,
    /// Whether a start code has been seen (i.e. `buf` starts with a unit
    /// body, not a stream prefix).
    in_unit: bool,
    stats: IngestStats,
}

impl Default for AnnexBScanner {
    fn default() -> Self {
        Self::new(ScannerConfig::default())
    }
}

impl AnnexBScanner {
    /// Creates a scanner.
    pub fn new(cfg: ScannerConfig) -> Self {
        Self {
            cfg,
            buf: Vec::new(),
            search: 0,
            in_unit: false,
            stats: IngestStats::default(),
        }
    }

    /// Ingest counters so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Bytes currently held for the in-flight unit (or undecided prefix).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Feeds one chunk and returns every unit completed by it.
    ///
    /// # Errors
    ///
    /// In strict mode, [`CodecError::InvalidSyntax`] for bytes before the
    /// first start code or an unknown unit type and
    /// [`CodecError::UnexpectedEndOfStream`] for an empty unit body —
    /// exactly [`crate::nal::split_annex_b`]'s behaviour. In either mode,
    /// [`CodecError::InvalidSyntax`] when the partial-unit buffer exceeds
    /// [`ScannerConfig::max_pending`].
    pub fn push_chunk(&mut self, chunk: &[u8]) -> Result<Vec<NalUnit>, CodecError> {
        self.stats.chunks += 1;
        self.stats.bytes += chunk.len() as u64;
        self.buf.extend_from_slice(chunk);
        if self.buf.len() > self.cfg.max_pending {
            return Err(CodecError::InvalidSyntax(
                "streaming ingest buffer limit exceeded",
            ));
        }
        self.stats.max_pending = self.stats.max_pending.max(self.buf.len());

        let mut units = Vec::new();
        // Scan for start codes exactly as `split_annex_b` does, but stop
        // at any position whose 3-vs-4-byte decision needs unseen bytes.
        while self.search + 3 <= self.buf.len() {
            let i = self.search;
            if self.buf[i] == 0 && self.buf[i + 1] == 0 {
                if self.buf[i + 2] == 1 {
                    self.take_unit(i, 3, &mut units)?;
                    continue;
                }
                if self.buf[i + 2] == 0 {
                    if i + 4 > self.buf.len() {
                        // `00 00 00` tail: could become a 4-byte code.
                        break;
                    }
                    if self.buf[i + 3] == 1 {
                        self.take_unit(i, 4, &mut units)?;
                        continue;
                    }
                }
            }
            self.search += 1;
        }
        // Before the first start code nothing behind `search` can matter:
        // drop it so garbage can't grow the buffer unboundedly (strict
        // mode already errored above via `take_unit` if a start code ever
        // lands past offset 0 — but pure garbage with *no* start code only
        // surfaces at flush, and lenient wires may churn for hours).
        if !self.in_unit && !self.cfg.strict && self.search > 2 {
            let keep_from = self.search - 2;
            self.buf.drain(..keep_from);
            self.search -= keep_from;
        }
        Ok(units)
    }

    /// Handles the start code found at `offset` (`code_len` bytes): closes
    /// the unit before it (if any), then repositions the buffer at the new
    /// unit's body.
    fn take_unit(
        &mut self,
        offset: usize,
        code_len: usize,
        units: &mut Vec<NalUnit>,
    ) -> Result<(), CodecError> {
        if self.in_unit {
            if let Some(unit) = self.close_body(offset)? {
                units.push(unit);
            }
        } else if offset != 0 {
            if self.cfg.strict {
                return Err(CodecError::InvalidSyntax("missing leading start code"));
            }
            self.stats.resyncs += 1;
        }
        self.in_unit = true;
        self.buf.drain(..offset + code_len);
        self.search = 0;
        Ok(())
    }

    /// Frames `buf[..end]` as a unit body. `Ok(None)` means the body was
    /// skipped (lenient mode).
    fn close_body(&mut self, end: usize) -> Result<Option<NalUnit>, CodecError> {
        let body = &self.buf[..end];
        let framed = match body.split_first() {
            None => Err(CodecError::UnexpectedEndOfStream),
            Some((&header, payload)) => {
                NalType::from_code(header).map(|t| NalUnit::new(t, unescape(payload)))
            }
        };
        match framed {
            Ok(unit) => {
                self.stats.units += 1;
                Ok(Some(unit))
            }
            Err(_) if !self.cfg.strict => {
                self.stats.resyncs += 1;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Ends the stream: frames the final unit (everything after the last
    /// start code) and resets the scanner for reuse.
    ///
    /// # Errors
    ///
    /// Strict mode: [`CodecError::InvalidSyntax`] when bytes arrived but
    /// no start code ever did, [`CodecError::UnexpectedEndOfStream`] for a
    /// trailing start code with no body — again mirroring
    /// [`crate::nal::split_annex_b`] on the concatenated stream.
    pub fn flush(&mut self) -> Result<Option<NalUnit>, CodecError> {
        let result = if self.in_unit {
            self.close_body(self.buf.len())
        } else if self.buf.is_empty() {
            Ok(None)
        } else if self.cfg.strict {
            Err(CodecError::InvalidSyntax("missing leading start code"))
        } else {
            self.stats.resyncs += 1;
            Ok(None)
        };
        self.buf.clear();
        self.search = 0;
        self.in_unit = false;
        result
    }
}

/// One access unit: the parameter sets (if any) that arrived since the
/// previous slice, plus exactly one slice — one decodable picture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessUnit {
    /// The units, stream order: zero or more parameter sets (SPS/PPS)
    /// then one slice.
    pub units: Vec<NalUnit>,
    /// Whether the slice is an IDR (a random-access/resync point).
    pub keyframe: bool,
}

/// Groups scanned NAL units into [`AccessUnit`]s: parameter sets attach
/// to the next slice, every slice closes a unit.
#[derive(Debug, Clone, Default)]
pub struct AccessUnitAssembler {
    pending: Vec<NalUnit>,
}

impl AccessUnitAssembler {
    /// Creates an assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one unit; returns the completed access unit when `unit` was
    /// a slice.
    pub fn push(&mut self, unit: NalUnit) -> Option<AccessUnit> {
        let keyframe = unit.nal_type == NalType::IdrSlice;
        if matches!(unit.nal_type, NalType::Sps | NalType::Pps) {
            self.pending.push(unit);
            return None;
        }
        let mut units = std::mem::take(&mut self.pending);
        units.push(unit);
        Some(AccessUnit { units, keyframe })
    }

    /// Ends the stream: dangling parameter sets (no slice followed) come
    /// back as a final slice-less access unit.
    pub fn flush(&mut self) -> Option<AccessUnit> {
        if self.pending.is_empty() {
            return None;
        }
        Some(AccessUnit {
            units: std::mem::take(&mut self.pending),
            keyframe: false,
        })
    }
}

/// Caches the stream's active parameter sets so re-sent (in-band
/// repeated) SPS/PPS units are recognized rather than re-activated: a
/// byte-identical re-send is a cache hit, a *changed* parameter set
/// mid-stream is an error — this codec's streams are single-sequence.
#[derive(Debug, Clone, Default)]
pub struct ParameterSetCache {
    sps: Option<Vec<u8>>,
    pps: Option<Vec<u8>>,
}

impl ParameterSetCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers an SPS payload. Returns `true` when this activates a new
    /// parameter set (first sight), `false` for a cache hit.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidSyntax`] when the payload differs from the
    /// cached one.
    pub fn offer_sps(&mut self, payload: &[u8]) -> Result<bool, CodecError> {
        Self::offer(&mut self.sps, payload, "sps")
    }

    /// Offers a PPS payload — same contract as
    /// [`ParameterSetCache::offer_sps`]: first sight activates,
    /// byte-identical re-sends hit, a changed payload is an error.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidSyntax`] when the payload differs from the
    /// cached one.
    pub fn offer_pps(&mut self, payload: &[u8]) -> Result<bool, CodecError> {
        Self::offer(&mut self.pps, payload, "pps")
    }

    fn offer(
        slot: &mut Option<Vec<u8>>,
        payload: &[u8],
        what: &'static str,
    ) -> Result<bool, CodecError> {
        match slot {
            None => {
                *slot = Some(payload.to_vec());
                Ok(true)
            }
            Some(active) if active.as_slice() == payload => Ok(false),
            Some(_) => Err(CodecError::InvalidSyntax(match what {
                "sps" => "sps changed mid-stream",
                _ => "pps changed mid-stream",
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nal::{split_annex_b, write_annex_b};

    fn corpus_units() -> Vec<NalUnit> {
        vec![
            NalUnit::new(NalType::Sps, vec![1, 2, 3]),
            NalUnit::new(NalType::IdrSlice, vec![0xAA; 50]),
            NalUnit::new(NalType::PSlice, vec![0xBB, 0x00]),
            NalUnit::new(NalType::BSlice, vec![0, 0, 0, 0, 0]),
            NalUnit::new(NalType::PSlice, vec![0, 0, 1, 0, 0, 0, 1]),
        ]
    }

    fn scan_chunked(wire: &[u8], chunk: usize) -> Vec<NalUnit> {
        let mut scanner = AnnexBScanner::default();
        let mut got = Vec::new();
        for c in wire.chunks(chunk.max(1)) {
            got.extend(scanner.push_chunk(c).unwrap());
        }
        got.extend(scanner.flush().unwrap());
        got
    }

    #[test]
    fn every_chunking_matches_split() {
        let wire = write_annex_b(&corpus_units());
        let whole = split_annex_b(&wire).unwrap();
        for chunk in 1..=wire.len() {
            assert_eq!(scan_chunked(&wire, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn three_byte_start_codes_accepted_across_boundaries() {
        let mut wire = vec![0, 0, 1, NalType::Sps.code(), 42];
        wire.extend_from_slice(&[0, 0, 1, NalType::PSlice.code(), 7, 8]);
        let whole = split_annex_b(&wire).unwrap();
        for chunk in 1..=wire.len() {
            assert_eq!(scan_chunked(&wire, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn strict_garbage_prefix_rejected() {
        let mut scanner = AnnexBScanner::default();
        let r = scanner.push_chunk(&[9, 9, 0, 0, 0, 1, 7, 1]);
        assert_eq!(
            r.unwrap_err(),
            CodecError::InvalidSyntax("missing leading start code")
        );
    }

    #[test]
    fn strict_garbage_without_start_code_fails_at_flush() {
        let mut scanner = AnnexBScanner::default();
        assert!(scanner.push_chunk(&[9, 9, 9]).unwrap().is_empty());
        assert!(scanner.flush().is_err());
    }

    #[test]
    fn strict_empty_body_rejected() {
        let mut scanner = AnnexBScanner::default();
        let r = scanner.push_chunk(&[0, 0, 0, 1, 0, 0, 0, 1, 7, 1]);
        assert_eq!(r.unwrap_err(), CodecError::UnexpectedEndOfStream);
    }

    #[test]
    fn lenient_resyncs_over_garbage_and_bad_units() {
        let mut wire = vec![9u8, 9, 9]; // garbage prefix
        wire.extend_from_slice(&[0, 0, 1, 31, 5, 5]); // unknown type 31
        wire.extend_from_slice(&[0, 0, 0, 1]); // empty body
        wire.extend_from_slice(&[0, 0, 1, NalType::PSlice.code(), 7]);
        let mut scanner = AnnexBScanner::new(ScannerConfig {
            strict: false,
            ..ScannerConfig::default()
        });
        let mut got = Vec::new();
        for c in wire.chunks(2) {
            got.extend(scanner.push_chunk(c).unwrap());
        }
        got.extend(scanner.flush().unwrap());
        assert_eq!(got, vec![NalUnit::new(NalType::PSlice, vec![7])]);
        assert_eq!(scanner.stats().resyncs, 3);
    }

    #[test]
    fn lenient_bounds_garbage_buffering() {
        let mut scanner = AnnexBScanner::new(ScannerConfig {
            strict: false,
            max_pending: 64,
        });
        // 10 KiB of never-starting garbage must not exceed the bound.
        for _ in 0..1000 {
            scanner.push_chunk(&[9u8; 10]).unwrap();
            assert!(scanner.pending_bytes() <= 64);
        }
        assert!(scanner.flush().unwrap().is_none());
    }

    #[test]
    fn pending_limit_enforced() {
        let mut scanner = AnnexBScanner::new(ScannerConfig {
            strict: true,
            max_pending: 16,
        });
        scanner.push_chunk(&[0, 0, 0, 1, 5]).unwrap();
        let r = scanner.push_chunk(&[0xAA; 32]);
        assert!(matches!(r, Err(CodecError::InvalidSyntax(_))));
    }

    #[test]
    fn stats_track_ingest() {
        let wire = write_annex_b(&corpus_units());
        let mut scanner = AnnexBScanner::default();
        for c in wire.chunks(7) {
            scanner.push_chunk(c).unwrap();
        }
        scanner.flush().unwrap();
        let s = *scanner.stats();
        assert_eq!(s.bytes, wire.len() as u64);
        assert_eq!(s.chunks, wire.len().div_ceil(7) as u64);
        assert_eq!(s.units, corpus_units().len() as u64);
        assert_eq!(s.resyncs, 0);
        assert!(s.max_pending > 0);
    }

    #[test]
    fn scanner_reusable_after_flush() {
        let wire = write_annex_b(&corpus_units());
        let mut scanner = AnnexBScanner::default();
        for _ in 0..2 {
            let mut got = Vec::new();
            got.extend(scanner.push_chunk(&wire).unwrap());
            got.extend(scanner.flush().unwrap());
            assert_eq!(got, split_annex_b(&wire).unwrap());
        }
    }

    #[test]
    fn assembler_groups_parameter_sets_with_slices() {
        let mut asm = AccessUnitAssembler::new();
        let units = corpus_units();
        let mut aus = Vec::new();
        for u in units.clone() {
            aus.extend(asm.push(u));
        }
        aus.extend(asm.flush());
        assert_eq!(aus.len(), 4);
        assert_eq!(aus[0].units.len(), 2, "sps rides with the idr");
        assert!(aus[0].keyframe);
        assert!(!aus[1].keyframe);
        assert_eq!(aus[1].units, vec![units[2].clone()]);
    }

    #[test]
    fn assembler_flushes_dangling_parameter_sets() {
        let mut asm = AccessUnitAssembler::new();
        assert!(asm.push(NalUnit::new(NalType::Sps, vec![1])).is_none());
        let tail = asm.flush().unwrap();
        assert_eq!(tail.units.len(), 1);
        assert!(!tail.keyframe);
        assert!(asm.flush().is_none());
    }

    #[test]
    fn parameter_set_cache_hits_and_rejects() {
        let mut cache = ParameterSetCache::new();
        assert!(cache.offer_sps(&[1, 2]).unwrap());
        assert!(!cache.offer_sps(&[1, 2]).unwrap());
        assert!(cache.offer_sps(&[9]).is_err());
    }

    #[test]
    fn parameter_set_cache_treats_pps_like_sps() {
        let mut cache = ParameterSetCache::new();
        // First sight activates; the SPS slot stays empty, so the first
        // SPS activates too.
        assert!(cache.offer_pps(&[5, 6]).unwrap());
        // Byte-identical re-sends hit.
        assert!(!cache.offer_pps(&[5, 6]).unwrap());
        assert!(cache.offer_sps(&[1]).unwrap());
        assert!(!cache.offer_sps(&[1]).unwrap());
        // The slots are independent: a changed PPS errors even when the
        // payload equals the active SPS.
        assert_eq!(
            cache.offer_pps(&[1]).unwrap_err(),
            CodecError::InvalidSyntax("pps changed mid-stream")
        );
    }

    #[test]
    fn assembler_attaches_pps_to_the_next_slice() {
        let mut asm = AccessUnitAssembler::new();
        assert!(asm.push(NalUnit::new(NalType::Sps, vec![1])).is_none());
        assert!(asm.push(NalUnit::new(NalType::Pps, vec![2])).is_none());
        let au = asm
            .push(NalUnit::new(NalType::IdrSlice, vec![3]))
            .expect("slice closes the access unit");
        assert!(au.keyframe);
        assert_eq!(
            au.units.iter().map(|u| u.nal_type).collect::<Vec<_>>(),
            vec![NalType::Sps, NalType::Pps, NalType::IdrSlice]
        );
    }
}
