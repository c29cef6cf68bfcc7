//! The affect-adaptive decoder: emotion-driven mode switching and the
//! Fig. 6 playback experiment.

use crate::backend::{self, DecodeKernels};
use crate::buffers::SelectorParams;
use crate::decoder::{Activity, DecodeOutput, DecodeStream, Decoder, DecoderOptions};
use crate::power::{paper_targets, PowerModel};
use crate::quality::{mean_psnr, mean_ssim};
use crate::stream::{IngestStats, ScannerConfig};
use crate::CodecError;
use crate::Frame;
use affect_core::emotion::CognitiveState;
use affect_core::policy::{PolicyTable, VideoPowerMode};
use affect_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// The canonical calibration content: the [`crate::video::reference_clip`]
/// encoded at QP 30 with an 8-frame GOP and one B frame between references.
/// At this operating point a realistic minority (~17%) of P/B NAL units
/// falls under the paper's `S_th = 140` threshold, matching the deletion
/// ratio the paper's mode powers imply.
///
/// Returns `(source_frames, bitstream)`.
///
/// # Errors
///
/// Never fails for the built-in parameters; the `Result` matches the
/// encoder API.
pub fn paper_reference(seed: u64) -> Result<(Vec<Frame>, Vec<u8>), CodecError> {
    use crate::encoder::{Encoder, EncoderConfig, GopPattern};
    let frames = crate::video::reference_clip(seed)?;
    let encoder = Encoder::new(EncoderConfig {
        qp: 30,
        gop: GopPattern {
            intra_period: 8,
            b_between: 1,
        },
        ..EncoderConfig::default()
    })?;
    let stream = encoder.encode(&frames)?;
    Ok((frames, stream))
}

/// Maps an abstract [`VideoPowerMode`] onto concrete decoder knobs, using
/// the paper's `S_th = 140`, `f = 1` operating point for deletion modes.
pub fn options_for_mode(mode: VideoPowerMode) -> DecoderOptions {
    match mode {
        VideoPowerMode::Standard => DecoderOptions {
            deblock: true,
            selector: None,
            resilient: false,
        },
        VideoPowerMode::NalDeletion => DecoderOptions {
            deblock: true,
            selector: Some(SelectorParams::PAPER),
            resilient: false,
        },
        VideoPowerMode::DeblockOff => DecoderOptions {
            deblock: false,
            selector: None,
            resilient: false,
        },
        VideoPowerMode::Combined => DecoderOptions {
            deblock: false,
            selector: Some(SelectorParams::PAPER),
            resilient: false,
        },
    }
}

/// Power/quality of one decoder mode on a given clip.
#[derive(Debug, Clone)]
pub struct ModeReport {
    /// The mode.
    pub mode: VideoPowerMode,
    /// Raw decode output activity.
    pub activity: Activity,
    /// Luma PSNR against the source clip (dB).
    pub psnr_db: f64,
    /// Mean structural similarity against the source clip.
    pub ssim: f64,
    /// NAL units deleted by the Input Selector.
    pub deleted_units: usize,
}

/// Profile of all four modes on one clip plus the power model fitted so the
/// mode powers match the paper's silicon measurements.
#[derive(Debug, Clone)]
pub struct ModeProfile {
    /// Reports in [`VideoPowerMode::ALL`] order.
    pub reports: Vec<ModeReport>,
    /// The calibrated power model.
    pub model: PowerModel,
}

impl ModeProfile {
    /// Decodes `stream` in all four modes, compares against `source`, and
    /// fits the power model to the paper's mode targets.
    ///
    /// # Errors
    ///
    /// Propagates decode/metric errors and calibration failures.
    pub fn measure(stream: &[u8], source: &[Frame]) -> Result<ModeProfile, CodecError> {
        let mut reports = Vec::with_capacity(VideoPowerMode::ALL.len());
        for mode in VideoPowerMode::ALL {
            let mut decoder = Decoder::new(options_for_mode(mode));
            let out: DecodeOutput = decoder.decode(stream)?;
            let psnr_db = mean_psnr(source, &out.frames)?;
            let ssim = mean_ssim(source, &out.frames)?;
            reports.push(ModeReport {
                mode,
                activity: out.activity,
                psnr_db,
                ssim,
                deleted_units: out.selection.deleted_units,
            });
        }
        let observations: Vec<(Activity, f64)> = reports
            .iter()
            .map(|r| {
                let target = match r.mode {
                    VideoPowerMode::Standard => paper_targets::STANDARD,
                    VideoPowerMode::NalDeletion => paper_targets::DELETION,
                    VideoPowerMode::DeblockOff => paper_targets::DEBLOCK_OFF,
                    VideoPowerMode::Combined => paper_targets::COMBINED,
                };
                (r.activity, target)
            })
            .collect();
        let model = PowerModel::fit(&observations)?;
        Ok(ModeProfile { reports, model })
    }

    /// Normalized power of each mode (standard = 1.0), in
    /// [`VideoPowerMode::ALL`] order.
    pub fn normalized_power(&self) -> Vec<(VideoPowerMode, f64)> {
        let standard = self.model.energy(&self.reports[0].activity);
        self.reports
            .iter()
            .map(|r| (r.mode, self.model.energy(&r.activity) / standard))
            .collect()
    }
}

/// One segment of an adaptive playback run.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// The labelled cognitive state.
    pub state: CognitiveState,
    /// Segment duration in minutes.
    pub minutes: f32,
    /// The mode the policy selected.
    pub mode: VideoPowerMode,
    /// Normalized segment power (standard = 1.0).
    pub normalized_power: f64,
    /// Segment PSNR against the source (dB).
    pub psnr_db: f64,
}

/// Result of the Fig. 6 playback experiment.
#[derive(Debug, Clone)]
pub struct PlaybackReport {
    /// Per-segment detail.
    pub segments: Vec<SegmentReport>,
    /// Energy of affect-driven playback, normalized so always-standard
    /// playback is 1.0.
    pub adaptive_energy: f64,
    /// Fractional energy saving versus always-standard (the paper: 23.1%).
    pub saving: f64,
}

/// Replays a labelled session: each `(state, minutes)` segment is decoded
/// in the mode the policy table selects, and the energy is integrated over
/// time against an always-standard baseline.
///
/// The same encoded clip stands in for each segment's content (the paper
/// replays one 40-minute video; what varies over time is only the mode).
///
/// # Errors
///
/// Propagates decode/calibration errors; returns
/// [`CodecError::InvalidParameter`] for an empty schedule.
pub fn adaptive_playback(
    stream: &[u8],
    source: &[Frame],
    schedule: &[(CognitiveState, f32)],
    policy: &PolicyTable,
) -> Result<PlaybackReport, CodecError> {
    if schedule.is_empty() {
        return Err(CodecError::InvalidParameter {
            name: "schedule",
            reason: "must have at least one segment",
        });
    }
    let profile = ModeProfile::measure(stream, source)?;
    let power_of = |mode: VideoPowerMode| -> (f64, f64) {
        let (i, report) = profile
            .reports
            .iter()
            .enumerate()
            .find(|(_, r)| r.mode == mode)
            .expect("all modes profiled");
        (profile.normalized_power()[i].1, report.psnr_db)
    };

    let mut segments = Vec::with_capacity(schedule.len());
    let mut adaptive = 0.0f64;
    let mut total_minutes = 0.0f64;
    for &(state, minutes) in schedule {
        let mode = policy.video_mode_for_state(state);
        let (normalized_power, psnr_db) = power_of(mode);
        adaptive += normalized_power * f64::from(minutes);
        total_minutes += f64::from(minutes);
        segments.push(SegmentReport {
            state,
            minutes,
            mode,
            normalized_power,
            psnr_db,
        });
    }
    let adaptive_energy = adaptive / total_minutes; // baseline == 1.0
    Ok(PlaybackReport {
        segments,
        adaptive_energy,
        saving: 1.0 - adaptive_energy,
    })
}

/// Live mode-switching front end for the decoder, driven by the affect
/// loop at runtime.
///
/// Where [`adaptive_playback`] replays a *labelled* schedule offline, the
/// driver holds the decoder's current [`VideoPowerMode`] between segments
/// and lets a controller retarget it as emotions arrive. It is the video
/// side's actuation endpoint for the `affect-rt` runtime.
#[derive(Debug, Clone)]
pub struct ModeSwitchDriver {
    options: DecoderOptions,
    mode: VideoPowerMode,
    resilient: bool,
    switches: usize,
    kernels: Arc<dyn DecodeKernels>,
    metrics: Option<DriverMetrics>,
}

/// Registered `h264_*` observability handles (see `docs/OBSERVABILITY.md`).
/// Counter bumps are plain atomics, so the decode path stays
/// allocation-free after [`ModeSwitchDriver::attach_metrics`].
#[derive(Debug, Clone)]
struct DriverMetrics {
    mode_switches: Arc<Counter>,
    deblock_toggles: Arc<Counter>,
    segments: Arc<Counter>,
    frames: Arc<Counter>,
    nal_deleted: Arc<Counter>,
    iqit_blocks: Arc<Counter>,
    deblock_edges: Arc<Counter>,
    damaged_units: Arc<Counter>,
    concealed_frames: Arc<Counter>,
    resyncs: Arc<Counter>,
    decode_mb: Arc<Counter>,
    ingest_chunks: Arc<Counter>,
    ingest_bytes: Arc<Counter>,
    ingest_units: Arc<Counter>,
    ingest_resyncs: Arc<Counter>,
    ingest_pending: Arc<Histogram>,
    /// Decode-latency histogram of the driver's kernel backend, which is
    /// fixed when the driver is built.
    decode_ns: Arc<Histogram>,
}

impl ModeSwitchDriver {
    /// Creates a driver starting in `initial` mode, decoding through the
    /// fastest available kernel backend.
    pub fn new(initial: VideoPowerMode) -> Self {
        Self {
            options: options_for_mode(initial),
            mode: initial,
            resilient: false,
            switches: 0,
            kernels: backend::best_available(),
            metrics: None,
        }
    }

    /// The name of the kernel backend the driver decodes through.
    pub fn backend_name(&self) -> &'static str {
        self.kernels.name()
    }

    /// Turns error resilience on or off for subsequent segments: damaged
    /// slice units are concealed (last good frame held) and decoding
    /// resynchronizes at the next intact IDR instead of failing the
    /// segment. The setting survives mode switches.
    pub fn set_resilient(&mut self, resilient: bool) {
        self.resilient = resilient;
        self.options.resilient = resilient;
    }

    /// Whether error resilience is currently on.
    pub fn resilient(&self) -> bool {
        self.resilient
    }

    /// Registers the driver's `h264_*` series with `registry` and keeps
    /// them updated from [`ModeSwitchDriver::set_mode`] and
    /// [`ModeSwitchDriver::decode_segment`]. Multiple drivers attached to
    /// one registry aggregate into the same series.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(DriverMetrics {
            mode_switches: registry.counter(
                "h264_mode_switches_total",
                "effective decoder power-mode changes",
                &[],
            ),
            deblock_toggles: registry.counter(
                "h264_deblock_toggles_total",
                "mode changes that flipped the deblocking filter on or off",
                &[],
            ),
            segments: registry.counter(
                "h264_segments_decoded_total",
                "bitstream segments decoded by the adaptive driver",
                &[],
            ),
            frames: registry.counter(
                "h264_frames_decoded_total",
                "frames emitted by the adaptive driver",
                &[],
            ),
            nal_deleted: registry.counter(
                "h264_nal_deleted_total",
                "NAL units deleted by the input selector",
                &[],
            ),
            iqit_blocks: registry.counter(
                "h264_iqit_blocks_total",
                "4x4 inverse-transform (IQIT) blocks decoded",
                &[],
            ),
            deblock_edges: registry.counter(
                "h264_deblock_edges_total",
                "deblocking edges examined",
                &[],
            ),
            damaged_units: registry.counter(
                "h264_damaged_units_total",
                "slice NAL units that failed to decode and were concealed",
                &[],
            ),
            concealed_frames: registry.counter(
                "h264_concealed_frames_total",
                "frames emitted as last-good-frame repeats after damage",
                &[],
            ),
            resyncs: registry.counter(
                "h264_resyncs_total",
                "times decoding resynchronized at an intact IDR after damage",
                &[],
            ),
            decode_mb: registry.counter(
                "affect_h264_decode_mb_total",
                "macroblocks decoded by the adaptive driver",
                &[],
            ),
            ingest_chunks: registry.counter(
                "affect_h264_ingest_chunks_total",
                "wire chunks pushed through streaming ingest",
                &[],
            ),
            ingest_bytes: registry.counter(
                "affect_h264_ingest_bytes_total",
                "wire bytes pushed through streaming ingest",
                &[],
            ),
            ingest_units: registry.counter(
                "affect_h264_ingest_units_total",
                "NAL units framed by the streaming scanner",
                &[],
            ),
            ingest_resyncs: registry.counter(
                "affect_h264_ingest_resyncs_total",
                "lenient-mode scanner resynchronizations over wire damage",
                &[],
            ),
            ingest_pending: registry.histogram(
                "affect_h264_ingest_pending_bytes",
                "per-segment high-water mark of the partial-unit buffer",
                &[],
            ),
            decode_ns: registry.histogram(
                "affect_h264_decode_ns",
                "wall-clock nanoseconds per decoded segment, by kernel backend",
                &[("backend", self.kernels.name())],
            ),
        });
    }

    /// The mode the next segment will decode under.
    pub fn mode(&self) -> VideoPowerMode {
        self.mode
    }

    /// Number of effective mode changes applied so far.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Retargets the decoder. Returns `true` when the mode actually
    /// changed; setting the current mode again is a no-op.
    pub fn set_mode(&mut self, mode: VideoPowerMode) -> bool {
        if mode == self.mode {
            return false;
        }
        let deblock_before = self.options.deblock;
        self.mode = mode;
        self.options = options_for_mode(mode);
        self.options.resilient = self.resilient;
        self.switches += 1;
        if let Some(m) = &self.metrics {
            m.mode_switches.inc();
            if self.options.deblock != deblock_before {
                m.deblock_toggles.inc();
            }
        }
        true
    }

    /// Decodes one segment of bitstream under the current mode.
    ///
    /// Mode changes apply at segment boundaries (the paper switches
    /// between GOPs), so each segment gets a fresh decoder configured
    /// with the mode in force when the segment starts.
    ///
    /// # Errors
    ///
    /// Propagates decoder errors for malformed bitstreams.
    pub fn decode_segment(&self, stream: &[u8]) -> Result<DecodeOutput, CodecError> {
        let start = Instant::now();
        let out = Decoder::with_kernels(self.options, Arc::clone(&self.kernels)).decode(stream)?;
        self.record_segment(&out, start.elapsed().as_nanos() as u64);
        Ok(out)
    }

    /// Starts an incremental decode of one segment under the current mode
    /// (the streaming counterpart of [`ModeSwitchDriver::decode_segment`];
    /// a chunked wire feeds [`DecodeStream::decode_chunk`] directly). Pass
    /// the finished stream to [`ModeSwitchDriver::finish_segment`] so the
    /// driver's metrics see it.
    pub fn begin_segment(&self, scanner: ScannerConfig) -> DecodeStream {
        Decoder::with_kernels(self.options, Arc::clone(&self.kernels)).begin_stream_with(scanner)
    }

    /// Decodes one segment arriving as wire chunks. Produces byte-identical
    /// output to [`ModeSwitchDriver::decode_segment`] of the concatenated
    /// bytes, and additionally feeds the `affect_h264_ingest_*` series.
    ///
    /// # Errors
    ///
    /// Propagates scanner framing and decoder errors.
    pub fn decode_segment_chunked<'a>(
        &self,
        chunks: impl IntoIterator<Item = &'a [u8]>,
        scanner: ScannerConfig,
    ) -> Result<DecodeOutput, CodecError> {
        let start = Instant::now();
        let mut stream = self.begin_segment(scanner);
        for chunk in chunks {
            stream.decode_chunk(chunk)?;
        }
        let out = self.finish_segment(stream)?;
        if let Some(m) = &self.metrics {
            m.decode_ns.record(start.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// Finishes an incremental segment started with
    /// [`ModeSwitchDriver::begin_segment`], recording segment and ingest
    /// metrics. (No decode-latency sample: the driver cannot know how long
    /// the caller held the stream open.)
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeStream::finish`] errors.
    pub fn finish_segment(&self, stream: DecodeStream) -> Result<DecodeOutput, CodecError> {
        self.finish_segment_with_stats(stream).map(|(out, _)| out)
    }

    /// [`ModeSwitchDriver::finish_segment`], also returning the segment's
    /// final ingest counters (post-flush, so the last unit is counted —
    /// see [`DecodeStream::finish_with_stats`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeStream::finish`] errors.
    pub fn finish_segment_with_stats(
        &self,
        stream: DecodeStream,
    ) -> Result<(DecodeOutput, IngestStats), CodecError> {
        let (out, ingest) = stream.finish_with_stats()?;
        self.record_segment(&out, 0);
        if let Some(m) = &self.metrics {
            m.ingest_chunks.add(ingest.chunks);
            m.ingest_bytes.add(ingest.bytes);
            m.ingest_units.add(ingest.units);
            m.ingest_resyncs.add(ingest.resyncs);
            m.ingest_pending.record(ingest.max_pending as u64);
        }
        Ok((out, ingest))
    }

    fn record_segment(&self, out: &DecodeOutput, elapsed_ns: u64) {
        if let Some(m) = &self.metrics {
            m.segments.inc();
            m.frames.add(out.activity.frames);
            m.nal_deleted.add(out.selection.deleted_units as u64);
            m.iqit_blocks.add(out.activity.iqit_blocks);
            m.deblock_edges.add(out.activity.deblock_edges);
            m.damaged_units.add(out.resilience.damaged_units);
            m.concealed_frames.add(out.resilience.concealed_frames);
            m.resyncs.add(out.resilience.resyncs);
            m.decode_mb.add(out.activity.macroblocks);
            if elapsed_ns > 0 {
                m.decode_ns.record(elapsed_ns);
            }
        }
    }
}

impl Default for ModeSwitchDriver {
    fn default() -> Self {
        Self::new(VideoPowerMode::Standard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip_and_stream() -> (Vec<Frame>, Vec<u8>) {
        paper_reference(5).unwrap()
    }

    #[test]
    fn mode_options_match_paper_knobs() {
        assert_eq!(
            options_for_mode(VideoPowerMode::Combined),
            DecoderOptions {
                deblock: false,
                selector: Some(SelectorParams::PAPER),
                resilient: false,
            }
        );
        assert_eq!(
            options_for_mode(VideoPowerMode::Standard),
            DecoderOptions::default()
        );
    }

    #[test]
    fn profile_reproduces_paper_mode_powers() {
        let (frames, stream) = clip_and_stream();
        let profile = ModeProfile::measure(&stream, &frames).unwrap();
        let powers = profile.normalized_power();
        let expected = [1.0, 0.894, 0.686, 0.631];
        for ((mode, p), e) in powers.iter().zip(expected) {
            assert!(
                (p - e).abs() < 0.05,
                "{mode}: {p:.3} vs paper {e:.3} (calibration residual too large)"
            );
        }
    }

    #[test]
    fn ssim_tracks_deblocking_quality() {
        let (frames, stream) = clip_and_stream();
        let profile = ModeProfile::measure(&stream, &frames).unwrap();
        for r in &profile.reports {
            assert!((0.0..=1.0).contains(&r.ssim), "{}: ssim {}", r.mode, r.ssim);
            assert!(r.ssim > 0.7, "{}: ssim {}", r.mode, r.ssim);
        }
        // On this heavily textured content the deblocking filter smooths
        // real texture, so DF-off can score slightly *higher* SSIM even as
        // PSNR prefers standard — the two metrics disagree by design.
        // Assert only that the spread stays small.
        let max = profile
            .reports
            .iter()
            .map(|r| r.ssim)
            .fold(0.0f64, f64::max);
        let min = profile
            .reports
            .iter()
            .map(|r| r.ssim)
            .fold(1.0f64, f64::min);
        assert!(max - min < 0.05, "ssim spread {min}..{max}");
    }

    #[test]
    fn deblock_share_matches_paper_saving() {
        // The paper attributes 31.4% of standard-mode power to the
        // deblocking filter; the calibrated model must recover that share
        // on the calibration content.
        let (frames, stream) = clip_and_stream();
        let profile = ModeProfile::measure(&stream, &frames).unwrap();
        let standard = &profile.reports[0];
        let breakdown = profile.model.breakdown(&standard.activity);
        assert!(
            (breakdown.deblock - 0.314).abs() < 0.03,
            "deblock share {:.3}",
            breakdown.deblock
        );
    }

    #[test]
    fn standard_mode_has_best_quality() {
        let (frames, stream) = clip_and_stream();
        let profile = ModeProfile::measure(&stream, &frames).unwrap();
        let standard_psnr = profile.reports[0].psnr_db;
        for r in &profile.reports[1..] {
            assert!(
                standard_psnr >= r.psnr_db - 0.2,
                "{}: {} vs standard {}",
                r.mode,
                r.psnr_db,
                standard_psnr
            );
        }
    }

    #[test]
    fn playback_saving_near_paper() {
        let (frames, stream) = clip_and_stream();
        let schedule = [
            (CognitiveState::Distracted, 14.0),
            (CognitiveState::Concentrated, 6.0),
            (CognitiveState::Tense, 9.0),
            (CognitiveState::Relaxed, 11.0),
        ];
        let report =
            adaptive_playback(&stream, &frames, &schedule, &PolicyTable::paper_defaults()).unwrap();
        // Paper: 23.1% saving. Allow calibration residual.
        assert!(
            (report.saving - 0.231).abs() < 0.05,
            "saving {:.3}",
            report.saving
        );
        assert_eq!(report.segments.len(), 4);
        assert_eq!(report.segments[2].mode, VideoPowerMode::Standard);
    }

    #[test]
    fn empty_schedule_rejected() {
        let (frames, stream) = clip_and_stream();
        assert!(adaptive_playback(&stream, &frames, &[], &PolicyTable::paper_defaults()).is_err());
    }

    #[test]
    fn driver_counts_only_effective_switches() {
        let mut driver = ModeSwitchDriver::default();
        assert_eq!(driver.mode(), VideoPowerMode::Standard);
        assert!(!driver.set_mode(VideoPowerMode::Standard));
        assert_eq!(driver.switches(), 0);
        assert!(driver.set_mode(VideoPowerMode::Combined));
        assert!(!driver.set_mode(VideoPowerMode::Combined));
        assert!(driver.set_mode(VideoPowerMode::DeblockOff));
        assert_eq!(driver.switches(), 2);
        assert_eq!(driver.mode(), VideoPowerMode::DeblockOff);
    }

    #[test]
    fn driver_metrics_track_activity() {
        let (_, stream) = clip_and_stream();
        let registry = MetricsRegistry::new();
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        driver.attach_metrics(&registry);
        driver.decode_segment(&stream).unwrap();
        driver.set_mode(VideoPowerMode::Combined); // flips deblock off
        driver.decode_segment(&stream).unwrap();
        let get = |name: &str| registry.counter(name, "", &[]).get();
        assert_eq!(get("h264_segments_decoded_total"), 2);
        assert_eq!(get("h264_mode_switches_total"), 1);
        assert_eq!(get("h264_deblock_toggles_total"), 1);
        assert!(get("h264_frames_decoded_total") > 0);
        assert!(get("h264_iqit_blocks_total") > 0);
        assert!(
            get("h264_nal_deleted_total") > 0,
            "combined mode deletes NALs at the paper operating point"
        );
        // Standard mode examined deblock edges before the toggle.
        assert!(get("h264_deblock_edges_total") > 0);
        assert!(get("affect_h264_decode_mb_total") > 0);
        // Both segments decoded through the driver's current backend, so
        // its per-backend latency histogram holds both samples.
        let h = registry.histogram(
            "affect_h264_decode_ns",
            "",
            &[("backend", driver.backend_name())],
        );
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn chunked_segment_matches_whole_buffer() {
        let (_, stream) = clip_and_stream();
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Combined);
        driver.set_resilient(true);
        let whole = driver.decode_segment(&stream).unwrap();
        for chunk in [1usize, 7, 1500] {
            let chunked = driver
                .decode_segment_chunked(stream.chunks(chunk), ScannerConfig::default())
                .unwrap();
            assert_eq!(whole.frames, chunked.frames, "chunk {chunk}");
            assert_eq!(whole.activity, chunked.activity, "chunk {chunk}");
            assert_eq!(whole.selection, chunked.selection, "chunk {chunk}");
            assert_eq!(whole.buffer, chunked.buffer, "chunk {chunk}");
        }
    }

    #[test]
    fn ingest_metrics_flow_through_chunked_segments() {
        let (_, stream) = clip_and_stream();
        let registry = MetricsRegistry::new();
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        driver.attach_metrics(&registry);
        driver
            .decode_segment_chunked(stream.chunks(64), ScannerConfig::default())
            .unwrap();
        let get = |name: &str| registry.counter(name, "", &[]).get();
        assert_eq!(
            get("affect_h264_ingest_chunks_total"),
            stream.len().div_ceil(64) as u64
        );
        assert_eq!(get("affect_h264_ingest_bytes_total"), stream.len() as u64);
        assert!(get("affect_h264_ingest_units_total") > 0);
        assert_eq!(get("affect_h264_ingest_resyncs_total"), 0);
        assert_eq!(get("h264_segments_decoded_total"), 1);
        let pending = registry.histogram("affect_h264_ingest_pending_bytes", "", &[]);
        assert_eq!(pending.count(), 1);
        let latency = registry.histogram(
            "affect_h264_decode_ns",
            "",
            &[("backend", driver.backend_name())],
        );
        assert_eq!(latency.count(), 1);
    }

    #[test]
    fn driver_decodes_under_current_mode() {
        let (_, stream) = clip_and_stream();
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let standard = driver.decode_segment(&stream).unwrap();
        assert_eq!(standard.selection.deleted_units, 0);
        driver.set_mode(VideoPowerMode::NalDeletion);
        let deletion = driver.decode_segment(&stream).unwrap();
        assert!(
            deletion.selection.deleted_units > 0,
            "paper operating point deletes NALs"
        );
        assert_eq!(standard.frames.len(), deletion.frames.len());
    }
}
