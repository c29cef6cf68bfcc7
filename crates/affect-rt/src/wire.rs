//! The byte-stream side of the traffic loop: chunked Annex-B wire ingest
//! feeding a session's affect-adaptive decoder.
//!
//! The offline path hands the decoder a whole segment buffer at once. A
//! real session receives its video as a *wire*: encoded bytes arriving in
//! transport-sized chunks, possibly corrupted in flight, with NAL units
//! and even start codes split across chunk boundaries. [`WireSession`]
//! models that leg of the loop — it chops a segment into
//! [`WireConfig::chunk_bytes`]-sized chunks, offers each chunk to a caller
//! tap (the seam where `affect-fault`'s `WireCorruptor` or a metering
//! probe slots in), and streams the bytes through the session's
//! [`ModeSwitchDriver`] incrementally, so decode runs under whatever power
//! mode the affect controller has the driver in *right now*.
//!
//! Invariant inherited from `h264::DecodeStream`: for an intact wire, any
//! chunking (including one byte at a time) yields byte-identical frames
//! and identical Activity/selection counters to whole-buffer decode.
//!
//! Real transports also *pace*: chunks arrive on a cadence, not as fast
//! as the CPU can copy them. [`WireSession::ingest_segment_paced`] models
//! that by scheduling chunk `k` at `start + k ×`
//! [`WireConfig::pace_ns`] on a [`Clock`] — under the runtime's
//! `VirtualClock` the sleeps become deterministic jumps, so a paced
//! playback test is exactly reproducible.

use std::sync::Arc;

use affect_obs::Clock;
use h264::adaptive::ModeSwitchDriver;
use h264::decoder::DecodeOutput;
use h264::{CodecError, ScannerConfig};

use crate::mem::{MemConsumer, MemoryBudget};

/// How a session's video wire is framed.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// Bytes per wire chunk — the simulated transport MTU. Values below 1
    /// are treated as 1.
    pub chunk_bytes: usize,
    /// Inter-chunk interval for paced playback, nanoseconds. Chunk `k` of
    /// a segment is released at `segment start + k * pace_ns` on the
    /// session clock; 0 (the default) streams as fast as possible. Only
    /// [`WireSession::ingest_segment_paced`] paces — the unpaced entry
    /// point ignores this.
    pub pace_ns: u64,
    /// Stream-framer behaviour (strict vs. resync, pending-byte bound).
    pub scanner: ScannerConfig,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            // Ethernet-ish MTU: the default transport picture.
            chunk_bytes: 1500,
            pace_ns: 0,
            scanner: ScannerConfig::default(),
        }
    }
}

/// Per-segment (and, summed, per-session) wire accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Chunks pushed down the wire.
    pub chunks: u64,
    /// Bytes pushed down the wire (after the tap, i.e. as decoded).
    pub wire_bytes: u64,
    /// NAL units framed out of the byte stream.
    pub units: u64,
    /// Scanner resyncs (lenient mode only; garbage skipped on the wire).
    pub resyncs: u64,
    /// High-water mark of bytes buffered awaiting a start code.
    pub max_pending: usize,
    /// Frames delivered to the session's display path.
    pub frames: u64,
    /// Frames concealed by the decoder's resilience path.
    pub concealed_frames: u64,
    /// Slice units damaged in flight and concealed.
    pub damaged_units: u64,
}

impl WireReport {
    /// Adds another report into this one (session aggregation).
    pub fn merge(&mut self, other: &WireReport) {
        self.chunks += other.chunks;
        self.wire_bytes += other.wire_bytes;
        self.units += other.units;
        self.resyncs += other.resyncs;
        self.max_pending = self.max_pending.max(other.max_pending);
        self.frames += other.frames;
        self.concealed_frames += other.concealed_frames;
        self.damaged_units += other.damaged_units;
    }
}

/// One session's wire endpoint: chunks segments, applies the caller's
/// wire tap, and streams the bytes into a [`ModeSwitchDriver`].
#[derive(Debug, Clone)]
pub struct WireSession {
    cfg: WireConfig,
    segments: u64,
    totals: WireReport,
    mem: Option<Arc<MemoryBudget>>,
}

impl WireSession {
    /// A new wire endpoint with the given framing.
    pub fn new(cfg: WireConfig) -> Self {
        Self {
            cfg,
            segments: 0,
            totals: WireReport::default(),
            mem: None,
        }
    }

    /// Accounts this wire's buffers against a [`MemoryBudget`]: the
    /// segment buffer rides [`MemConsumer::WireBuffers`] for the duration
    /// of the ingest, and the stream framer's pending bytes track
    /// [`MemConsumer::DecoderBuffers`] chunk by chunk. Everything is
    /// released when the segment completes (or fails).
    pub fn with_memory_budget(mut self, mem: Arc<MemoryBudget>) -> Self {
        self.mem = Some(mem);
        self
    }

    /// The wire framing in effect.
    pub fn config(&self) -> &WireConfig {
        &self.cfg
    }

    /// Segments ingested so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// Wire accounting summed over every segment ingested so far.
    pub fn totals(&self) -> &WireReport {
        &self.totals
    }

    /// Streams one encoded segment through `driver` in wire-sized chunks.
    ///
    /// `tap` sees every chunk (`(chunk_index, bytes)`) before it reaches
    /// the decoder and may mutate it in place — this is where in-flight
    /// corruption or rate metering plugs in. Decode runs under the
    /// driver's *current* mode; flip the mode between segments (or let a
    /// [`VideoActuator`](crate::VideoActuator) do it) and the next
    /// segment decodes differently.
    pub fn ingest_segment(
        &mut self,
        driver: &ModeSwitchDriver,
        stream: &[u8],
        tap: impl FnMut(u64, &mut Vec<u8>),
    ) -> Result<(DecodeOutput, WireReport), CodecError> {
        self.ingest_inner(driver, stream, None, tap)
    }

    /// Like [`WireSession::ingest_segment`], but rate-paced: chunk `k` is
    /// released at `segment start + k *` [`WireConfig::pace_ns`] on
    /// `clock`, via [`Clock::sleep_until`]. Under a
    /// [`VirtualClock`](affect_obs::VirtualClock) the sleeps jump virtual time
    /// instead of blocking, so a paced playback is deterministic and runs
    /// at test speed; under the system clock it plays back in real time.
    /// With `pace_ns == 0` this is identical to the unpaced entry point.
    pub fn ingest_segment_paced(
        &mut self,
        driver: &ModeSwitchDriver,
        stream: &[u8],
        clock: &dyn Clock,
        tap: impl FnMut(u64, &mut Vec<u8>),
    ) -> Result<(DecodeOutput, WireReport), CodecError> {
        self.ingest_inner(driver, stream, Some(clock), tap)
    }

    fn ingest_inner(
        &mut self,
        driver: &ModeSwitchDriver,
        stream: &[u8],
        clock: Option<&dyn Clock>,
        mut tap: impl FnMut(u64, &mut Vec<u8>),
    ) -> Result<(DecodeOutput, WireReport), CodecError> {
        let chunk_bytes = self.cfg.chunk_bytes.max(1);
        let pace_ns = self.cfg.pace_ns;
        let origin = clock.map(|c| c.now_nanos()).unwrap_or(0);
        if let Some(mem) = &self.mem {
            mem.charge(MemConsumer::WireBuffers, stream.len() as u64);
        }
        let mut decode = driver.begin_segment(self.cfg.scanner);
        let mut report = WireReport::default();
        let mut pending_charged = 0u64;
        let mut failure = None;
        for chunk in stream.chunks(chunk_bytes) {
            if let Some(clock) = clock {
                if pace_ns > 0 {
                    clock.sleep_until(origin + report.chunks * pace_ns);
                }
            }
            let mut buf = chunk.to_vec();
            tap(report.chunks, &mut buf);
            report.chunks += 1;
            report.wire_bytes += buf.len() as u64;
            if let Err(e) = decode.decode_chunk(&buf) {
                failure = Some(e);
                break;
            }
            if let Some(mem) = &self.mem {
                // Track the framer's pending high-water live: a unit
                // straddling many chunks holds real memory *now*, which
                // is exactly when the pressure governor should see it.
                let pending = decode.pending_bytes() as u64;
                if pending >= pending_charged {
                    mem.charge(MemConsumer::DecoderBuffers, pending - pending_charged);
                } else {
                    mem.release(MemConsumer::DecoderBuffers, pending_charged - pending);
                }
                pending_charged = pending;
            }
        }
        let outcome = match failure {
            Some(e) => Err(e),
            None => driver.finish_segment_with_stats(decode),
        };
        if let Some(mem) = &self.mem {
            mem.release(MemConsumer::DecoderBuffers, pending_charged);
            mem.release(MemConsumer::WireBuffers, stream.len() as u64);
        }
        let (out, ingest) = outcome?;
        report.units = ingest.units;
        report.resyncs = ingest.resyncs;
        report.max_pending = ingest.max_pending;
        report.frames = out.frames.len() as u64;
        report.concealed_frames = out.resilience.concealed_frames;
        report.damaged_units = out.resilience.damaged_units;
        self.segments += 1;
        self.totals.merge(&report);
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affect_core::policy::VideoPowerMode;

    fn segment() -> Vec<u8> {
        let (_, stream) = h264::adaptive::paper_reference(11).expect("reference clip");
        stream
    }

    #[test]
    fn wire_ingest_matches_whole_buffer_decode() {
        let stream = segment();
        let driver = ModeSwitchDriver::new(VideoPowerMode::Combined);
        let whole = driver.decode_segment(&stream).expect("whole decode");
        for chunk_bytes in [1usize, 7, 1500] {
            let mut wire = WireSession::new(WireConfig {
                chunk_bytes,
                ..WireConfig::default()
            });
            let (out, report) = wire
                .ingest_segment(&driver, &stream, |_, _| {})
                .expect("wire decode");
            assert_eq!(out.frames, whole.frames, "chunk_bytes={chunk_bytes}");
            assert_eq!(out.activity, whole.activity);
            assert_eq!(report.wire_bytes, stream.len() as u64);
            assert_eq!(report.chunks, stream.len().div_ceil(chunk_bytes) as u64);
            assert_eq!(report.frames, whole.frames.len() as u64);
        }
    }

    #[test]
    fn tap_sees_every_chunk_in_order_and_mutations_reach_the_decoder() {
        let stream = segment();
        let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        driver.set_resilient(true);
        let mut wire = WireSession::new(WireConfig {
            chunk_bytes: 64,
            scanner: ScannerConfig {
                strict: false,
                ..ScannerConfig::default()
            },
            ..WireConfig::default()
        });
        let mut seen = Vec::new();
        let (out, report) = wire
            .ingest_segment(&driver, &stream, |i, buf| {
                seen.push(i);
                if i == 3 {
                    // Stomp a chunk mid-stream: resilient decode conceals.
                    buf.iter_mut().for_each(|b| *b = 0xAA);
                }
            })
            .expect("wire decode survives a stomped chunk");
        let expect: Vec<u64> = (0..stream.len().div_ceil(64) as u64).collect();
        assert_eq!(seen, expect, "tap runs once per chunk, in order");
        assert!(
            out.resilience.damaged_units > 0 || report.resyncs > 0,
            "the stomped chunk must register as damage or a wire resync"
        );
    }

    #[test]
    fn report_counts_the_flush_framed_final_unit() {
        let stream = segment();
        // Ground truth: scan the whole stream, counting the tail unit
        // that only the flush frames.
        let mut scanner = h264::AnnexBScanner::new(ScannerConfig::default());
        let mut expected = scanner.push_chunk(&stream).expect("scan").len() as u64;
        if scanner.flush().expect("flush").is_some() {
            expected += 1;
        }
        assert!(expected > 0);
        let driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let mut wire = WireSession::new(WireConfig::default());
        let (_, report) = wire
            .ingest_segment(&driver, &stream, |_, _| {})
            .expect("wire decode");
        assert_eq!(
            report.units, expected,
            "segment accounting must include the unit framed at flush"
        );
    }

    #[test]
    fn paced_playback_is_deterministic_on_the_virtual_clock() {
        use affect_obs::VirtualClock;
        let stream = segment();
        let driver = ModeSwitchDriver::new(VideoPowerMode::Combined);
        let whole = driver.decode_segment(&stream).expect("whole decode");
        let pace_ns = 33_000_000; // ~30 chunks/second
        let cfg = WireConfig {
            chunk_bytes: 1500,
            pace_ns,
            ..WireConfig::default()
        };
        let run = || {
            let clock = VirtualClock::new();
            clock.set(5_000); // a non-zero origin must not matter
            let mut wire = WireSession::new(cfg);
            let mut stamps = Vec::new();
            let (out, report) = wire
                .ingest_segment_paced(&driver, &stream, &clock, |_, _| {
                    stamps.push(clock.now_nanos());
                })
                .expect("paced decode");
            (out, report, stamps, clock.now_nanos())
        };
        let (out, report, stamps, end) = run();
        // Pacing changes when chunks arrive, never what they decode to.
        assert_eq!(out.frames, whole.frames);
        // Chunk k is released exactly at origin + k * pace.
        let expect: Vec<u64> = (0..report.chunks).map(|k| 5_000 + k * pace_ns).collect();
        assert_eq!(stamps, expect);
        assert_eq!(end, 5_000 + (report.chunks - 1) * pace_ns);
        // Byte-stable replay: a second run reproduces every timestamp.
        let (_, _, stamps2, end2) = run();
        assert_eq!(stamps, stamps2);
        assert_eq!(end, end2);
    }

    #[test]
    fn zero_pace_matches_the_unpaced_path() {
        use affect_obs::VirtualClock;
        let stream = segment();
        let driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let clock = VirtualClock::new();
        let mut wire = WireSession::new(WireConfig::default());
        let (paced, _) = wire
            .ingest_segment_paced(&driver, &stream, &clock, |_, _| {})
            .expect("paced");
        assert_eq!(clock.now_nanos(), 0, "no pacing, no sleeps");
        let mut unpaced = WireSession::new(WireConfig::default());
        let (plain, _) = unpaced
            .ingest_segment(&driver, &stream, |_, _| {})
            .expect("unpaced");
        assert_eq!(paced.frames, plain.frames);
    }

    #[test]
    fn wire_buffers_are_charged_during_ingest_and_released_after() {
        use crate::mem::{MemConsumer, MemoryBudget};
        use std::sync::Arc;
        let stream = segment();
        let driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let mem = Arc::new(MemoryBudget::new(0));
        let mut wire = WireSession::new(WireConfig {
            chunk_bytes: 64,
            ..WireConfig::default()
        })
        .with_memory_budget(Arc::clone(&mem));
        let seen = std::cell::Cell::new(0u64);
        let pending_seen = std::cell::Cell::new(0u64);
        wire.ingest_segment(&driver, &stream, |_, _| {
            seen.set(seen.get().max(mem.used_by(MemConsumer::WireBuffers)));
            pending_seen.set(
                pending_seen
                    .get()
                    .max(mem.used_by(MemConsumer::DecoderBuffers)),
            );
        })
        .expect("wire decode");
        // Mid-ingest the whole segment buffer is charged …
        assert_eq!(seen.get(), stream.len() as u64);
        // … and the framer's pending bytes were visible to the governor.
        assert!(pending_seen.get() > 0, "units straddle 64-byte chunks");
        // Everything is released once the segment completes.
        assert_eq!(mem.used_by(MemConsumer::WireBuffers), 0);
        assert_eq!(mem.used_by(MemConsumer::DecoderBuffers), 0);
        assert_eq!(mem.used_bytes(), 0);
    }

    #[test]
    fn session_totals_accumulate_across_segments() {
        let stream = segment();
        let driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
        let mut wire = WireSession::new(WireConfig::default());
        for _ in 0..3 {
            wire.ingest_segment(&driver, &stream, |_, _| {})
                .expect("segment");
        }
        assert_eq!(wire.segments(), 3);
        assert_eq!(wire.totals().wire_bytes, 3 * stream.len() as u64);
        assert_eq!(wire.totals().chunks, 3 * stream.len().div_ceil(1500) as u64);
        assert!(wire.totals().frames > 0);
    }
}
