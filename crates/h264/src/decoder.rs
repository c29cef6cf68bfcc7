//! The decoder: the paper's Fig. 5 pipeline with per-module activity
//! accounting and the two affect-driven power knobs.

use crate::backend::{self, DecodeKernels};
use crate::buffers::{BufferChain, BufferStats, SelectionReport, SelectorParams};
use crate::cavlc::{coeff_count, context_for, decode_block};
use crate::deblock::BlockInfo;
use crate::expgolomb::BitReader;
use crate::frame::{Frame, BLOCKS_PER_MB, BLOCK_SIZE, MB_SIZE};
use crate::inter::MotionVector;
use crate::intra::{predict, IntraMode};
use crate::nal::{NalType, NalUnit};
use crate::stream::{AnnexBScanner, IngestStats, ParameterSetCache, ScannerConfig};
use crate::CodecError;
use std::rc::Rc;
use std::sync::Arc;

/// Per-module activity counters — the power model's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Activity {
    /// Bits consumed by the bitstream parser (Exp-Golomb + CAVLC reads).
    pub parser_bits: u64,
    /// VLC symbols decoded by the CAVLC module.
    pub cavlc_symbols: u64,
    /// 4×4 inverse transforms performed (IQIT).
    pub iqit_blocks: u64,
    /// 4×4 intra predictions.
    pub intra_blocks: u64,
    /// Motion-compensated macroblocks (bi-prediction counts twice).
    pub inter_mb_refs: u64,
    /// Deblocking edges examined.
    pub deblock_edges: u64,
    /// Deblocking edges actually filtered (the full [`crate::deblock::DeblockReport`]
    /// surfaces here so cross-backend conformance covers both counters).
    pub deblock_filtered: u64,
    /// Bytes moved through the buffer front end.
    pub buffer_bytes: u64,
    /// Frames emitted.
    pub frames: u64,
    /// Macroblocks decoded (intra + inter + skip) — the unit of the
    /// decode-sweep MB/s metric.
    pub macroblocks: u64,
}

impl Activity {
    /// Adds another activity record into this one.
    pub fn merge(&mut self, other: &Activity) {
        self.parser_bits += other.parser_bits;
        self.cavlc_symbols += other.cavlc_symbols;
        self.iqit_blocks += other.iqit_blocks;
        self.intra_blocks += other.intra_blocks;
        self.inter_mb_refs += other.inter_mb_refs;
        self.deblock_edges += other.deblock_edges;
        self.deblock_filtered += other.deblock_filtered;
        self.buffer_bytes += other.buffer_bytes;
        self.frames += other.frames;
        self.macroblocks += other.macroblocks;
    }
}

/// Decoder configuration: the two power knobs of the paper plus the
/// error-resilience switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderOptions {
    /// Run the in-loop deblocking filter (knob 1; `false` = the paper's
    /// "deactivated" mode, −31.4% power).
    pub deblock: bool,
    /// Input Selector parameters (knob 2; `Some(S_th, f)` deletes small
    /// P/B NAL units).
    pub selector: Option<SelectorParams>,
    /// Conceal damaged slice NAL units instead of failing the whole
    /// decode: a slice that parses to a typed error is replaced by a
    /// repeat of the last good frame, and prediction resumes only at the
    /// next intact IDR (the resynchronization point). A damaged or
    /// missing SPS still fails — without dimensions there is nothing to
    /// conceal with.
    pub resilient: bool,
}

impl Default for DecoderOptions {
    fn default() -> Self {
        Self {
            deblock: true,
            selector: None,
            resilient: false,
        }
    }
}

/// What error resilience did during one decode (all zero when the stream
/// was intact or [`DecoderOptions::resilient`] was off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Slice NAL units that failed to parse/decode and were concealed.
    pub damaged_units: u64,
    /// Frames emitted as repeats of the last good frame because their
    /// slice was damaged or arrived while awaiting an IDR resync.
    pub concealed_frames: u64,
    /// Times decoding resynchronized at an intact IDR after damage.
    pub resyncs: u64,
}

impl ResilienceReport {
    /// Adds another report into this one (segment aggregation).
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.damaged_units += other.damaged_units;
        self.concealed_frames += other.concealed_frames;
        self.resyncs += other.resyncs;
    }
}

/// Everything a decode run produces.
#[derive(Debug, Clone)]
pub struct DecodeOutput {
    /// Decoded frames in display order. Frames whose NAL units were deleted
    /// are concealed by repeating the previous frame, so the count always
    /// matches the encoded clip.
    pub frames: Vec<Frame>,
    /// Per-module activity.
    pub activity: Activity,
    /// Input Selector report (empty selection when no selector configured).
    pub selection: SelectionReport,
    /// Buffer front-end statistics.
    pub buffer: BufferStats,
    /// Error-concealment counters (all zero for intact streams).
    pub resilience: ResilienceReport,
}

/// The decoder. See the crate-level example.
///
/// Block-level kernels (IQIT, reconstruction, deblocking) run through a
/// [`DecodeKernels`] backend; [`Decoder::new`] picks the fastest backend
/// for the build ([`backend::best_available`]) and
/// [`Decoder::with_kernels`] pins a specific one. All backends are
/// bit-exact, so the choice affects speed only.
#[derive(Debug, Clone)]
pub struct Decoder {
    options: DecoderOptions,
    kernels: Arc<dyn DecodeKernels>,
}

struct SliceContext {
    blocks_x: usize,
    coeff_grid: Vec<u32>,
    block_info: Vec<BlockInfo>,
}

impl SliceContext {
    fn new(width: usize, height: usize) -> Self {
        let blocks_x = width / BLOCK_SIZE;
        let blocks_y = height / BLOCK_SIZE;
        Self {
            blocks_x,
            coeff_grid: vec![0; blocks_x * blocks_y],
            block_info: vec![BlockInfo::default(); blocks_x * blocks_y],
        }
    }

    fn context_at(&self, bx: usize, by: usize) -> usize {
        let mut sum = 0u32;
        let mut n = 0u32;
        if bx > 0 {
            sum += self.coeff_grid[by * self.blocks_x + bx - 1];
            n += 1;
        }
        if by > 0 {
            sum += self.coeff_grid[(by - 1) * self.blocks_x + bx];
            n += 1;
        }
        context_for(sum.checked_div(n).unwrap_or(0))
    }

    fn record(&mut self, bx: usize, by: usize, coeffs: u32, info: BlockInfo) {
        self.coeff_grid[by * self.blocks_x + bx] = coeffs;
        self.block_info[by * self.blocks_x + bx] = info;
    }
}

impl Decoder {
    /// Creates a decoder with the given power-knob settings and the fastest
    /// available kernel backend.
    pub fn new(options: DecoderOptions) -> Self {
        Self::with_kernels(options, backend::best_available())
    }

    /// Creates a decoder pinned to a specific kernel backend (conformance
    /// testing, benchmarking, or forcing the portable path).
    pub fn with_kernels(options: DecoderOptions, kernels: Arc<dyn DecodeKernels>) -> Self {
        Self { options, kernels }
    }

    /// The active options.
    pub fn options(&self) -> &DecoderOptions {
        &self.options
    }

    /// The name of the active kernel backend (e.g. `"reference"`,
    /// `"simd-sse2"`).
    pub fn backend_name(&self) -> &'static str {
        self.kernels.name()
    }

    /// Decodes an Annex-B bitstream.
    ///
    /// A thin wrapper over the incremental path: one
    /// [`Decoder::begin_stream`], one [`DecodeStream::decode_chunk`] with
    /// the whole buffer, one [`DecodeStream::finish`] — so whole-buffer
    /// and chunked decoding are the same code and produce identical
    /// output by construction.
    ///
    /// # Errors
    ///
    /// Returns syntax errors for malformed streams,
    /// [`CodecError::InvalidSyntax`] when the stream lacks a leading SPS,
    /// and [`CodecError::MissingReference`] when the first slice is not an
    /// I slice.
    pub fn decode(&mut self, stream: &[u8]) -> Result<DecodeOutput, CodecError> {
        let mut s = self.begin_stream();
        s.decode_chunk(stream)?;
        s.finish()
    }

    /// Starts an incremental decode with strict framing (the streaming
    /// equivalent of [`Decoder::decode`]).
    pub fn begin_stream(&self) -> DecodeStream {
        self.begin_stream_with(ScannerConfig::default())
    }

    /// Starts an incremental decode with an explicit scanner
    /// configuration — lenient framing lets a long-lived session
    /// resynchronize over wire garbage instead of failing.
    pub fn begin_stream_with(&self, scanner: ScannerConfig) -> DecodeStream {
        DecodeStream::new(self.clone(), scanner)
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_slice(
        &self,
        nal_type: NalType,
        reader: &mut BitReader<'_>,
        width: usize,
        height: usize,
        qp: u8,
        refs: &[Rc<Frame>],
        activity: &mut Activity,
    ) -> Result<Frame, CodecError> {
        let mut frame = Frame::new(width, height)?;
        let mut ctx = SliceContext::new(width, height);

        for mb_y in 0..height / MB_SIZE {
            for mb_x in 0..width / MB_SIZE {
                activity.macroblocks += 1;
                match nal_type {
                    NalType::IdrSlice => {
                        self.decode_intra_mb(
                            reader, &mut frame, &mut ctx, mb_x, mb_y, qp, activity,
                        )?;
                    }
                    NalType::PSlice => {
                        let reference = refs.last().ok_or(CodecError::MissingReference)?;
                        self.decode_p_mb(
                            reader,
                            &mut frame,
                            &mut ctx,
                            reference.as_ref(),
                            mb_x,
                            mb_y,
                            qp,
                            activity,
                        )?;
                    }
                    NalType::BSlice => {
                        let ref1 = refs.last().ok_or(CodecError::MissingReference)?;
                        let ref0 = if refs.len() >= 2 { &refs[0] } else { ref1 };
                        self.decode_b_mb(
                            reader,
                            &mut frame,
                            &mut ctx,
                            ref0.as_ref(),
                            ref1.as_ref(),
                            mb_x,
                            mb_y,
                            qp,
                            activity,
                        )?;
                    }
                    NalType::Sps => return Err(CodecError::InvalidSyntax("nested sps")),
                    NalType::Pps => return Err(CodecError::InvalidSyntax("nested pps")),
                }
            }
        }

        // Knob 1: the deblocking filter.
        if self.options.deblock {
            let report = self.kernels.deblock_frame(&mut frame, &ctx.block_info, qp);
            activity.deblock_edges += report.edges_checked;
            activity.deblock_filtered += report.edges_filtered;
        }
        Ok(frame)
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_intra_mb(
        &self,
        reader: &mut BitReader<'_>,
        frame: &mut Frame,
        ctx: &mut SliceContext,
        mb_x: usize,
        mb_y: usize,
        qp: u8,
        activity: &mut Activity,
    ) -> Result<(), CodecError> {
        for sub_y in 0..BLOCKS_PER_MB {
            for sub_x in 0..BLOCKS_PER_MB {
                let x = mb_x * MB_SIZE + sub_x * BLOCK_SIZE;
                let y = mb_y * MB_SIZE + sub_y * BLOCK_SIZE;
                let (bx, by) = (x / BLOCK_SIZE, y / BLOCK_SIZE);
                let mode = IntraMode::from_code(reader.read_ue()?)?;
                let context = ctx.context_at(bx, by);
                let (zz, symbols) = decode_block(reader, context)?;
                activity.cavlc_symbols += u64::from(symbols);
                let pred = predict(frame, x, y, mode);
                activity.intra_blocks += 1;
                let residual = self.kernels.decode_residual(&zz, qp)?;
                activity.iqit_blocks += 1;
                self.kernels
                    .reconstruct_block(frame, x, y, &pred, &residual);
                ctx.record(
                    bx,
                    by,
                    coeff_count(&zz),
                    BlockInfo {
                        intra: true,
                        coded: coeff_count(&zz) > 0,
                        mv_x: 0,
                        mv_y: 0,
                    },
                );
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_p_mb(
        &self,
        reader: &mut BitReader<'_>,
        frame: &mut Frame,
        ctx: &mut SliceContext,
        reference: &Frame,
        mb_x: usize,
        mb_y: usize,
        qp: u8,
        activity: &mut Activity,
    ) -> Result<(), CodecError> {
        let mb_type = reader.read_ue()?;
        match mb_type {
            0 => {
                let mut pred = [0i32; MB_SIZE * MB_SIZE];
                self.kernels.motion_compensate(
                    reference,
                    mb_x,
                    mb_y,
                    MotionVector::default(),
                    &mut pred,
                );
                activity.inter_mb_refs += 1;
                write_mb(frame, mb_x, mb_y, &pred);
                record_skip(ctx, mb_x, mb_y);
                Ok(())
            }
            1 => {
                // Motion vectors are coded in half-pel units.
                let mv = MotionVector::new(reader.read_se()?, reader.read_se()?);
                let mut pred = [0i32; MB_SIZE * MB_SIZE];
                self.kernels
                    .motion_compensate(reference, mb_x, mb_y, mv, &mut pred);
                activity.inter_mb_refs += 1;
                self.decode_mb_residual(reader, frame, ctx, &pred, mb_x, mb_y, qp, mv, activity)
            }
            _ => Err(CodecError::InvalidSyntax("p macroblock type")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_b_mb(
        &self,
        reader: &mut BitReader<'_>,
        frame: &mut Frame,
        ctx: &mut SliceContext,
        ref0: &Frame,
        ref1: &Frame,
        mb_x: usize,
        mb_y: usize,
        qp: u8,
        activity: &mut Activity,
    ) -> Result<(), CodecError> {
        let mb_type = reader.read_ue()?;
        match mb_type {
            0 => {
                let mut pred = [0i32; MB_SIZE * MB_SIZE];
                self.kernels.motion_compensate_bi(
                    ref0,
                    ref1,
                    mb_x,
                    mb_y,
                    MotionVector::default(),
                    MotionVector::default(),
                    &mut pred,
                );
                activity.inter_mb_refs += 2;
                write_mb(frame, mb_x, mb_y, &pred);
                record_skip(ctx, mb_x, mb_y);
                Ok(())
            }
            1 => {
                let mv0 = MotionVector::new(reader.read_se()?, reader.read_se()?);
                let mv1 = MotionVector::new(reader.read_se()?, reader.read_se()?);
                let mut pred = [0i32; MB_SIZE * MB_SIZE];
                self.kernels
                    .motion_compensate_bi(ref0, ref1, mb_x, mb_y, mv0, mv1, &mut pred);
                activity.inter_mb_refs += 2;
                self.decode_mb_residual(reader, frame, ctx, &pred, mb_x, mb_y, qp, mv0, activity)
            }
            _ => Err(CodecError::InvalidSyntax("b macroblock type")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_mb_residual(
        &self,
        reader: &mut BitReader<'_>,
        frame: &mut Frame,
        ctx: &mut SliceContext,
        pred: &[i32; MB_SIZE * MB_SIZE],
        mb_x: usize,
        mb_y: usize,
        qp: u8,
        mv: MotionVector,
        activity: &mut Activity,
    ) -> Result<(), CodecError> {
        for sub_y in 0..BLOCKS_PER_MB {
            for sub_x in 0..BLOCKS_PER_MB {
                let x = mb_x * MB_SIZE + sub_x * BLOCK_SIZE;
                let y = mb_y * MB_SIZE + sub_y * BLOCK_SIZE;
                let (bx, by) = (x / BLOCK_SIZE, y / BLOCK_SIZE);
                let context = ctx.context_at(bx, by);
                let (zz, symbols) = decode_block(reader, context)?;
                activity.cavlc_symbols += u64::from(symbols);
                let residual = self.kernels.decode_residual(&zz, qp)?;
                activity.iqit_blocks += 1;
                let mut sub_pred = [0i32; 16];
                for dy in 0..BLOCK_SIZE {
                    for dx in 0..BLOCK_SIZE {
                        sub_pred[dy * BLOCK_SIZE + dx] =
                            pred[(sub_y * BLOCK_SIZE + dy) * MB_SIZE + sub_x * BLOCK_SIZE + dx];
                    }
                }
                self.kernels
                    .reconstruct_block(frame, x, y, &sub_pred, &residual);
                ctx.record(
                    bx,
                    by,
                    coeff_count(&zz),
                    BlockInfo {
                        intra: false,
                        coded: coeff_count(&zz) > 0,
                        mv_x: mv.x,
                        mv_y: mv.y,
                    },
                );
            }
        }
        Ok(())
    }
}

/// Parsed and validated sequence parameters (the stream header's four
/// `ue` fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpsParams {
    /// Macroblock columns.
    pub mb_cols: usize,
    /// Macroblock rows.
    pub mb_rows: usize,
    /// Quantization parameter (0–51).
    pub qp: u8,
    /// Declared frame count of the clip.
    pub total_frames: usize,
}

impl SpsParams {
    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.mb_cols * MB_SIZE
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.mb_rows * MB_SIZE
    }

    /// Parses an SPS payload, returning the parameters and the number of
    /// header bits consumed (parser-activity accounting).
    ///
    /// # Errors
    ///
    /// Truncation errors from the bit reader, and
    /// [`CodecError::InvalidSyntax`] when the parameters fall outside the
    /// decode budget. Sanity bounds defend against corrupted streams
    /// requesting pathological allocations (a fuzzer's favourite trick):
    /// dimensions are capped per side, and total emitted luma samples
    /// (frames × pixels) stay under a hard memory/time budget so a
    /// corrupt SPS can't combine a plausible frame size with a huge frame
    /// count into an unbounded decode.
    pub fn parse(payload: &[u8]) -> Result<(Self, u64), CodecError> {
        let mut r = BitReader::new(payload);
        let mb_cols = r.read_ue()? as usize;
        let mb_rows = r.read_ue()? as usize;
        let qp = r.read_ue()?;
        let total_frames = r.read_ue()? as usize;
        let bits = r.bits_read() as u64;
        const MAX_MBS: usize = 256; // 4096 pixels per side
        const MAX_FRAMES: usize = 100_000;
        const MAX_TOTAL_SAMPLES: u64 = 1 << 27; // 128 M samples
        if qp > 51 || mb_cols == 0 || mb_rows == 0 || mb_cols > MAX_MBS || mb_rows > MAX_MBS {
            return Err(CodecError::InvalidSyntax("sps parameters out of range"));
        }
        if total_frames > MAX_FRAMES {
            return Err(CodecError::InvalidSyntax("implausible frame count"));
        }
        let samples =
            (mb_cols * MB_SIZE) as u64 * (mb_rows * MB_SIZE) as u64 * total_frames.max(1) as u64;
        if samples > MAX_TOTAL_SAMPLES {
            return Err(CodecError::InvalidSyntax("stream exceeds decode budget"));
        }
        Ok((
            Self {
                mb_cols,
                mb_rows,
                qp: qp as u8,
                total_frames,
            },
            bits,
        ))
    }
}

/// An in-flight incremental decode: chunks (or units) go in, state
/// accumulates, [`DecodeStream::finish`] yields the same [`DecodeOutput`]
/// a whole-buffer [`Decoder::decode`] of the concatenated bytes would —
/// the Input Selector, BufferChain and backend kernels all run per unit.
///
/// # Example
///
/// ```
/// use h264::decoder::{Decoder, DecoderOptions};
/// use h264::encoder::{Encoder, EncoderConfig};
/// use h264::video::synthetic_clip;
///
/// # fn main() -> Result<(), h264::CodecError> {
/// let frames = synthetic_clip(48, 48, 3, 7)?;
/// let wire = Encoder::new(EncoderConfig::default())?.encode(&frames)?;
/// let mut whole = Decoder::new(DecoderOptions::default());
/// let want = whole.decode(&wire)?;
/// let mut stream = whole.begin_stream();
/// for chunk in wire.chunks(5) {
///     stream.decode_chunk(chunk)?;
/// }
/// let got = stream.finish()?;
/// assert_eq!(got.frames, want.frames);
/// assert_eq!(got.activity, want.activity);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecodeStream {
    dec: Decoder,
    scanner: AnnexBScanner,
    buffer: BufferStats,
    activity: Activity,
    selection: SelectionReport,
    /// Incremental Input-Selector state: index of the next deletion
    /// candidate, persisted across chunks so any chunking makes the same
    /// keep/delete decisions as the batch selector.
    candidate_index: u32,
    params: ParameterSetCache,
    sps: Option<SpsParams>,
    frames: Vec<Rc<Frame>>,
    refs: Vec<Rc<Frame>>,
    awaiting_idr: bool,
    resilience: ResilienceReport,
}

impl DecodeStream {
    fn new(dec: Decoder, scanner: ScannerConfig) -> Self {
        Self {
            dec,
            scanner: AnnexBScanner::new(scanner),
            buffer: BufferStats::default(),
            activity: Activity::default(),
            selection: SelectionReport::default(),
            candidate_index: 0,
            params: ParameterSetCache::new(),
            sps: None,
            frames: Vec::new(),
            refs: Vec::new(),
            awaiting_idr: false,
            resilience: ResilienceReport::default(),
        }
    }

    /// Feeds one wire chunk (any size, including one byte): units the
    /// chunk completes are framed and decoded immediately. Returns how
    /// many units this chunk completed (kept *or* deleted).
    ///
    /// # Errors
    ///
    /// Scanner framing errors (see [`AnnexBScanner::push_chunk`]) and
    /// decode errors (see [`DecodeStream::decode_unit`]).
    pub fn decode_chunk(&mut self, chunk: &[u8]) -> Result<usize, CodecError> {
        let units = self.scanner.push_chunk(chunk)?;
        let n = units.len();
        for unit in units {
            self.decode_unit(unit)?;
        }
        Ok(n)
    }

    /// Feeds one already-framed NAL unit through the Input Selector, the
    /// buffer chain, and the decode kernels.
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidSyntax`] when a slice arrives before any SPS
    /// or an SPS changes mid-stream; slice decode errors propagate in
    /// strict mode and are concealed under
    /// [`DecoderOptions::resilient`].
    pub fn decode_unit(&mut self, unit: NalUnit) -> Result<(), CodecError> {
        // Input Selector (knob 2), incrementally: same decisions as the
        // batch `select_units` because `candidate_index` persists.
        let size = unit.wire_size();
        if let Some(p) = self.dec.options.selector {
            if unit.nal_type.is_droppable() && size <= p.s_th {
                self.selection.candidates += 1;
                let hit = self.candidate_index.is_multiple_of(p.f);
                self.candidate_index += 1;
                if hit {
                    self.selection.deleted_units += 1;
                    self.selection.deleted_bytes += size;
                    return Ok(());
                }
            }
        }
        self.selection.kept_bytes += size;

        // Pump the unit's wire bytes through the Pre-store/Circular chain.
        let stats = BufferChain::paper_sized().pump(size);
        self.activity.buffer_bytes += (stats.prestore_writes + stats.circular_writes) as u64;
        self.buffer.merge(&stats);

        let result = self.process_unit(&unit);
        // Kept units land in the report whatever their decode outcome, so
        // resilient concealment still accounts for the damaged unit.
        self.selection.kept.push(unit);
        result
    }

    fn process_unit(&mut self, unit: &NalUnit) -> Result<(), CodecError> {
        if unit.nal_type == NalType::Sps {
            // Parameter-set cache: a byte-identical re-sent SPS is a hit
            // (no re-activation, no parser work); a changed one is an
            // error. SPS damage is never concealed — without trustworthy
            // dimensions there is nothing to conceal with.
            if self.params.offer_sps(&unit.payload)? {
                let (sps, bits) = SpsParams::parse(&unit.payload)?;
                self.activity.parser_bits += bits;
                self.sps = Some(sps);
            }
            return Ok(());
        }
        if unit.nal_type == NalType::Pps {
            // Same cache contract as the SPS: a byte-identical re-send is
            // a hit, a changed PPS mid-stream is an error. This codec
            // derives per-picture parameters from the SPS, so activation
            // parses nothing — the unit is carried and validated only.
            self.params.offer_pps(&unit.payload)?;
            return Ok(());
        }
        let Some(sps) = self.sps else {
            return Err(CodecError::InvalidSyntax("stream must start with sps"));
        };
        let (width, height) = (sps.width(), sps.height());
        let resilient = self.dec.options.resilient;

        let mut reader = BitReader::new(&unit.payload);
        let header = reader.read_ue().map(|v| v as usize).and_then(|n| {
            if n >= sps.total_frames.max(1) + 16 {
                Err(CodecError::InvalidSyntax("frame number out of range"))
            } else {
                Ok(n)
            }
        });
        let frame_num = match header {
            Ok(n) => n,
            Err(_) if resilient => {
                // Unplaceable damage: no trustworthy frame_num, so
                // nothing to conceal into — count it and wait for the
                // resync point (tail concealment keeps the count).
                self.resilience.damaged_units += 1;
                self.awaiting_idr = true;
                return Ok(());
            }
            Err(e) => return Err(e),
        };

        // Conceal frames whose NAL units were deleted: repeat the last
        // emitted frame (or black if nothing decoded yet).
        while self.frames.len() < frame_num {
            let concealed = conceal(&self.frames, width, height)?;
            self.frames.push(concealed);
            self.activity.frames += 1;
        }

        if self.awaiting_idr && unit.nal_type != NalType::IdrSlice {
            // Still between the damage and its resync point: hold the
            // last good frame rather than predict from corrupt state.
            let held = conceal(&self.frames, width, height)?;
            place(&mut self.frames, frame_num, held);
            self.resilience.concealed_frames += 1;
            self.activity.frames += 1;
            return Ok(());
        }
        let resyncing = self.awaiting_idr && unit.nal_type == NalType::IdrSlice;
        if resyncing {
            // IDR semantics: the reference list restarts from scratch.
            self.refs.clear();
        }

        match self.dec.decode_slice(
            unit.nal_type,
            &mut reader,
            width,
            height,
            sps.qp,
            &self.refs,
            &mut self.activity,
        ) {
            Ok(frame) => {
                let decoded = Rc::new(frame);
                self.activity.parser_bits += reader.bits_read() as u64;
                if resyncing {
                    self.resilience.resyncs += 1;
                    self.awaiting_idr = false;
                }
                if unit.nal_type != NalType::BSlice {
                    self.refs.push(Rc::clone(&decoded));
                    if self.refs.len() > 2 {
                        self.refs.remove(0);
                    }
                }
                place(&mut self.frames, frame_num, decoded);
                self.activity.frames += 1;
                Ok(())
            }
            Err(_) if resilient => {
                // Damaged slice: conceal its slot and wait for an IDR (a
                // damaged IDR cannot resync either — its pixels are not
                // trustworthy).
                self.resilience.damaged_units += 1;
                self.awaiting_idr = true;
                let held = conceal(&self.frames, width, height)?;
                place(&mut self.frames, frame_num, held);
                self.resilience.concealed_frames += 1;
                self.activity.frames += 1;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Frames emitted so far (concealment of a deleted tail happens at
    /// [`DecodeStream::finish`]).
    pub fn frames_decoded(&self) -> usize {
        self.frames.len()
    }

    /// The active sequence parameters, once an SPS has been decoded.
    pub fn sps(&self) -> Option<&SpsParams> {
        self.sps.as_ref()
    }

    /// Scanner-side ingest counters (chunks, bytes, units, resyncs,
    /// partial-unit depth).
    pub fn ingest_stats(&self) -> &IngestStats {
        self.scanner.stats()
    }

    /// Bytes currently buffered for the in-flight partial unit.
    pub fn pending_bytes(&self) -> usize {
        self.scanner.pending_bytes()
    }

    /// Parameter-set cache hits (re-sent identical SPS units).
    pub fn parameter_set_hits(&self) -> u64 {
        self.params.hits()
    }

    /// Ends the stream: frames and decodes the final unit, conceals a
    /// deleted tail up to the SPS frame count, and returns the decode
    /// output.
    ///
    /// # Errors
    ///
    /// Scanner flush errors, final-unit decode errors, and
    /// [`CodecError::InvalidSyntax`] ("empty stream") when no unit
    /// survived to establish an SPS.
    pub fn finish(self) -> Result<DecodeOutput, CodecError> {
        self.finish_with_stats().map(|(out, _)| out)
    }

    /// [`DecodeStream::finish`], also returning the final ingest counters.
    ///
    /// The stream's last unit is only framed by the scanner flush that
    /// happens *here*, so stats read via [`DecodeStream::ingest_stats`]
    /// before finishing undercount `units` by one (and miss any
    /// flush-time resync). Accounting that must cover the whole segment
    /// takes the stats from this return value instead.
    ///
    /// # Errors
    ///
    /// Same as [`DecodeStream::finish`].
    pub fn finish_with_stats(mut self) -> Result<(DecodeOutput, IngestStats), CodecError> {
        if let Some(unit) = self.scanner.flush()? {
            self.decode_unit(unit)?;
        }
        let ingest = *self.scanner.stats();
        let Some(sps) = self.sps else {
            return Err(CodecError::InvalidSyntax("empty stream"));
        };
        // Conceal a deleted tail.
        while self.frames.len() < sps.total_frames {
            let concealed = conceal(&self.frames, sps.width(), sps.height())?;
            self.frames.push(concealed);
            self.activity.frames += 1;
        }

        // Release the reference list so uniquely-owned frames move out of
        // their Rc for free; only concealment-shared frames still copy.
        drop(self.refs);
        let frames = self
            .frames
            .into_iter()
            .map(|f| Rc::try_unwrap(f).unwrap_or_else(|shared| (*shared).clone()))
            .collect();

        Ok((
            DecodeOutput {
                frames,
                activity: self.activity,
                selection: self.selection,
                buffer: self.buffer,
                resilience: self.resilience,
            },
            ingest,
        ))
    }
}

/// Last emitted frame again (or black if nothing decoded yet) — the
/// concealment primitive.
fn conceal(frames: &[Rc<Frame>], width: usize, height: usize) -> Result<Rc<Frame>, CodecError> {
    Ok(match frames.last() {
        Some(last) => Rc::clone(last),
        None => Rc::new(Frame::new(width, height)?),
    })
}

/// Places a decoded frame at its `frame_num` slot (out-of-order or
/// duplicate `frame_num` overwrites).
fn place(frames: &mut Vec<Rc<Frame>>, frame_num: usize, frame: Rc<Frame>) {
    if frames.len() == frame_num {
        frames.push(frame);
    } else {
        frames[frame_num] = frame;
    }
}

fn write_mb(frame: &mut Frame, mb_x: usize, mb_y: usize, pred: &[i32; MB_SIZE * MB_SIZE]) {
    let width = frame.width();
    let data = frame.data_mut();
    for dy in 0..MB_SIZE {
        let row = &mut data[(mb_y * MB_SIZE + dy) * width + mb_x * MB_SIZE..][..MB_SIZE];
        for (out, &p) in row.iter_mut().zip(&pred[dy * MB_SIZE..][..MB_SIZE]) {
            *out = p.clamp(0, 255) as u8;
        }
    }
}

fn record_skip(ctx: &mut SliceContext, mb_x: usize, mb_y: usize) {
    for sub_y in 0..BLOCKS_PER_MB {
        for sub_x in 0..BLOCKS_PER_MB {
            ctx.record(
                mb_x * BLOCKS_PER_MB + sub_x,
                mb_y * BLOCKS_PER_MB + sub_y,
                0,
                BlockInfo::default(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig, GopPattern};
    use crate::nal::{split_annex_b, write_annex_b};
    use crate::quality::mean_psnr;
    use crate::video::synthetic_clip;

    fn encode_clip(qp: u8, n: usize) -> (Vec<Frame>, Vec<u8>) {
        let frames = synthetic_clip(48, 48, n, 3).unwrap();
        let enc = Encoder::new(EncoderConfig {
            qp,
            gop: GopPattern {
                intra_period: 6,
                b_between: 1,
            },
            ..EncoderConfig::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        (frames, stream)
    }

    #[test]
    fn decode_reproduces_frame_count() {
        let (frames, stream) = encode_clip(28, 7);
        let mut dec = Decoder::new(DecoderOptions::default());
        let out = dec.decode(&stream).unwrap();
        assert_eq!(out.frames.len(), frames.len());
    }

    #[test]
    fn decode_quality_reasonable_at_moderate_qp() {
        let (frames, stream) = encode_clip(20, 6);
        let mut dec = Decoder::new(DecoderOptions::default());
        let out = dec.decode(&stream).unwrap();
        let psnr = mean_psnr(&frames, &out.frames).unwrap();
        assert!(psnr > 28.0, "psnr {psnr}");
    }

    #[test]
    fn lower_qp_gives_higher_quality() {
        let (frames, hi_q) = encode_clip(12, 5);
        let (_, lo_q) = encode_clip(40, 5);
        let psnr_hi = mean_psnr(
            &frames,
            &Decoder::new(DecoderOptions::default())
                .decode(&hi_q)
                .unwrap()
                .frames,
        )
        .unwrap();
        let psnr_lo = mean_psnr(
            &frames,
            &Decoder::new(DecoderOptions::default())
                .decode(&lo_q)
                .unwrap()
                .frames,
        )
        .unwrap();
        assert!(psnr_hi > psnr_lo + 3.0, "{psnr_hi} vs {psnr_lo}");
    }

    #[test]
    fn deblock_off_reduces_activity_and_quality() {
        let (frames, stream) = encode_clip(32, 6);
        let on = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .unwrap();
        let off = Decoder::new(DecoderOptions {
            deblock: false,
            selector: None,
            resilient: false,
        })
        .decode(&stream)
        .unwrap();
        assert!(on.activity.deblock_edges > 0);
        assert_eq!(off.activity.deblock_edges, 0);
        let psnr_on = mean_psnr(&frames, &on.frames).unwrap();
        let psnr_off = mean_psnr(&frames, &off.frames).unwrap();
        assert!(psnr_on >= psnr_off, "{psnr_on} vs {psnr_off}");
    }

    #[test]
    fn selector_deletes_and_conceals() {
        let (frames, stream) = crate::adaptive::paper_reference(5).unwrap();
        let mut dec = Decoder::new(DecoderOptions {
            deblock: true,
            selector: Some(SelectorParams::PAPER),
            resilient: false,
        });
        let out = dec.decode(&stream).unwrap();
        assert_eq!(out.frames.len(), frames.len());
        // On this content some B/P units are small enough to be candidates.
        assert!(out.selection.candidates > 0, "no deletion candidates");
    }

    #[test]
    fn deletion_reduces_parser_work() {
        let (_, stream) = encode_clip(36, 12); // high qp -> small P/B units
        let full = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .unwrap();
        let pruned = Decoder::new(DecoderOptions {
            deblock: true,
            selector: Some(SelectorParams { s_th: 4000, f: 1 }),
            resilient: false,
        })
        .decode(&stream)
        .unwrap();
        assert!(pruned.selection.deleted_units > 0);
        assert!(pruned.activity.parser_bits < full.activity.parser_bits);
        assert!(pruned.activity.iqit_blocks < full.activity.iqit_blocks);
    }

    #[test]
    fn rejects_stream_without_sps() {
        let unit = NalUnit::new(NalType::IdrSlice, vec![0x80]);
        let stream = write_annex_b(&[unit]);
        assert!(Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .is_err());
    }

    #[test]
    fn activity_merge_adds_fields() {
        let (_, stream) = encode_clip(28, 4);
        let out = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .unwrap();
        let mut doubled = out.activity;
        doubled.merge(&out.activity);
        assert_eq!(doubled.frames, 2 * out.activity.frames);
        assert_eq!(doubled.parser_bits, 2 * out.activity.parser_bits);
        assert_eq!(doubled.deblock_edges, 2 * out.activity.deblock_edges);
        assert_eq!(doubled.deblock_filtered, 2 * out.activity.deblock_filtered);
        assert_eq!(doubled.macroblocks, 2 * out.activity.macroblocks);
    }

    #[test]
    fn backend_pinning_is_observable() {
        let dec = Decoder::with_kernels(DecoderOptions::default(), crate::backend::reference());
        assert_eq!(dec.backend_name(), "reference");
        let best = Decoder::new(DecoderOptions::default());
        assert!(!best.backend_name().is_empty());
    }

    #[test]
    fn decoder_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Decoder>();
        assert_send::<DecodeOutput>();
    }

    /// Encodes a P-only clip (no B frames) so post-IDR decode depends only
    /// on post-IDR state, making resync output bit-comparable.
    fn encode_p_only(n: usize, intra_period: usize) -> (Vec<Frame>, Vec<u8>) {
        let frames = synthetic_clip(48, 48, n, 9).unwrap();
        let enc = Encoder::new(EncoderConfig {
            qp: 26,
            gop: GopPattern {
                intra_period,
                b_between: 0,
            },
            ..EncoderConfig::default()
        })
        .unwrap();
        let stream = enc.encode(&frames).unwrap();
        (frames, stream)
    }

    #[test]
    fn damaged_p_slice_fails_strict_but_conceals_resilient() {
        let (_, stream) = encode_p_only(12, 4);
        let mut units = split_annex_b(&stream).unwrap();
        // Corrupt the first P slice after the first IDR by truncating its
        // payload mid-macroblock.
        let victim = units
            .iter()
            .position(|u| u.nal_type == NalType::PSlice)
            .expect("clip has P slices");
        units[victim].payload.truncate(2);
        let damaged = write_annex_b(&units);

        let strict = Decoder::new(DecoderOptions::default()).decode(&damaged);
        assert!(strict.is_err(), "strict decode must surface the damage");

        let out = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
        .decode(&damaged)
        .unwrap();
        assert_eq!(out.frames.len(), 12, "frame count preserved");
        assert!(out.resilience.damaged_units >= 1);
        assert!(out.resilience.concealed_frames >= 1);
        assert_eq!(out.resilience.resyncs, 1, "one resync at the next IDR");
    }

    #[test]
    fn resilient_decode_resumes_bit_exact_after_idr() {
        let (_, stream) = encode_p_only(12, 4);
        let clean = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .unwrap();
        let mut units = split_annex_b(&stream).unwrap();
        let victim = units
            .iter()
            .position(|u| u.nal_type == NalType::PSlice)
            .unwrap();
        // Bit-flip damage (not truncation): the slice decodes to garbage
        // or errors; either way output must resync at the next IDR.
        for b in units[victim].payload.iter_mut() {
            *b ^= 0xA5;
        }
        let damaged = write_annex_b(&units);
        let out = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
        .decode(&damaged);
        // A bit-flipped slice may still parse by luck; only a decode error
        // triggers concealment. Both outcomes must keep all frames.
        let out = out.unwrap();
        assert_eq!(out.frames.len(), clean.frames.len());
        // Frames from the second IDR (frame 4, intra_period 4) onward must
        // be bit-identical to the clean decode: the resync point.
        for (i, (got, want)) in out.frames.iter().zip(&clean.frames).enumerate().skip(4) {
            assert_eq!(got, want, "frame {i} differs after resync");
        }
    }

    #[test]
    fn resilient_decode_of_intact_stream_reports_nothing() {
        let (_, stream) = encode_clip(28, 6);
        let out = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
        .decode(&stream)
        .unwrap();
        assert_eq!(out.resilience, ResilienceReport::default());
    }

    #[test]
    fn resilient_mode_still_rejects_damaged_sps() {
        let (_, stream) = encode_clip(28, 4);
        let mut units = split_annex_b(&stream).unwrap();
        assert_eq!(units[0].nal_type, NalType::Sps);
        units[0].payload.clear();
        units[0].payload.push(0x00); // all prefix zeros: truncated ue
        let damaged = write_annex_b(&units);
        let err = Decoder::new(DecoderOptions {
            resilient: true,
            ..DecoderOptions::default()
        })
        .decode(&damaged)
        .expect_err("no dimensions to conceal with");
        assert!(err.is_truncation() || matches!(err, CodecError::InvalidSyntax(_)));
    }

    #[test]
    fn decode_budget_rejects_pathological_sps() {
        use crate::expgolomb::BitWriter;
        // 256×256 MBs (4096² pixels) × 100 frames = 1.6 G samples > budget.
        let mut w = BitWriter::new();
        w.write_ue(256);
        w.write_ue(256);
        w.write_ue(30);
        w.write_ue(100);
        let sps = NalUnit::new(NalType::Sps, w.into_bytes());
        let stream = write_annex_b(&[sps]);
        let err = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .expect_err("budget must reject");
        assert_eq!(
            err,
            CodecError::InvalidSyntax("stream exceeds decode budget")
        );
    }

    #[test]
    fn activity_counters_populated() {
        let (_, stream) = encode_clip(28, 6);
        let out = Decoder::new(DecoderOptions::default())
            .decode(&stream)
            .unwrap();
        let a = out.activity;
        assert!(a.parser_bits > 0);
        assert!(a.cavlc_symbols > 0);
        assert!(a.iqit_blocks > 0);
        assert!(a.intra_blocks > 0);
        assert!(a.inter_mb_refs > 0);
        assert!(a.buffer_bytes > 0);
        assert!(a.macroblocks > 0);
        assert_eq!(a.frames, 6);
    }
}
