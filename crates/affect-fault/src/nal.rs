//! Deterministic corruption of Annex-B H.264 byte streams.
//!
//! Models link-layer damage to the video path: random **bit-flips** inside
//! a NAL unit's payload and **truncation** of a unit mid-slice. Units are
//! located by scanning for Annex-B start codes (3- or 4-byte), so this
//! module needs no decoder — it works on raw bytes and never depends on
//! the `h264` crate. Which units are hit, and how, is a pure function of
//! `(seed, unit_index)` via [`decision_hash`].
//!
//! By default the SPS (header byte 7) is protected: damaging the stream
//! header kills the whole session rather than exercising per-frame
//! recovery, which is a different (and less interesting) failure mode —
//! the strict-decode tests in `h264` already cover it.

use crate::decision_hash;

/// Namespace tags for the NAL decision streams.
const SITE_UNIT: u64 = 0x4E41_4C00; // "NAL."
const SITE_FLIP_COUNT: u64 = 0x4E41_4C01;
const SITE_FLIP_BIT: u64 = 0x4E41_4C02;
const SITE_TRUNC: u64 = 0x4E41_4C03;

/// Rates (per million NAL units) and shape of injected bitstream damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NalFaultConfig {
    /// Units hit by bit-flips, per million.
    pub flip_per_million: u32,
    /// Units truncated mid-payload, per million.
    pub truncate_per_million: u32,
    /// Maximum bit-flips per hit unit (at least 1 is always applied).
    pub max_flips: u32,
    /// Leave SPS units (header byte 7) untouched.
    pub protect_sps: bool,
}

impl NalFaultConfig {
    /// The chaos-suite preset: 5% of slices take up to 4 bit-flips, 2%
    /// are truncated; the SPS is protected.
    pub const CHAOS: NalFaultConfig = NalFaultConfig {
        flip_per_million: 50_000,
        truncate_per_million: 20_000,
        max_flips: 4,
        protect_sps: true,
    };
}

/// What one pass of [`corrupt_annex_b`] did to a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NalCorruption {
    /// NAL units found in the stream.
    pub units_seen: u64,
    /// Units that took at least one bit-flip.
    pub units_flipped: u64,
    /// Total bits flipped.
    pub bits_flipped: u64,
    /// Units truncated.
    pub units_truncated: u64,
    /// Payload bytes removed by truncation.
    pub bytes_removed: u64,
}

/// One located unit: start-code begin, header byte offset, exclusive end.
struct UnitSpan {
    sc_start: usize,
    hdr: usize,
    end: usize,
}

/// Finds Annex-B units (3- and 4-byte start codes) in `stream`.
fn scan_units(stream: &[u8]) -> Vec<UnitSpan> {
    let mut starts = Vec::new();
    let mut i = 0;
    while i + 3 <= stream.len() {
        if stream[i] == 0 && stream[i + 1] == 0 {
            if stream[i + 2] == 1 {
                starts.push((i, i + 3));
                i += 3;
                continue;
            }
            if i + 4 <= stream.len() && stream[i + 2] == 0 && stream[i + 3] == 1 {
                starts.push((i, i + 4));
                i += 4;
                continue;
            }
        }
        i += 1;
    }
    let mut units = Vec::with_capacity(starts.len());
    for (u, &(sc_start, hdr)) in starts.iter().enumerate() {
        let end = starts.get(u + 1).map_or(stream.len(), |&(next, _)| next);
        if hdr < end {
            units.push(UnitSpan { sc_start, hdr, end });
        }
    }
    units
}

/// Deterministically damages an Annex-B stream in place according to
/// `cfg`, seeded by `seed`. Returns a tally of the damage. Streams with
/// no recognizable start codes pass through untouched.
pub fn corrupt_annex_b(stream: &mut Vec<u8>, seed: u64, cfg: &NalFaultConfig) -> NalCorruption {
    corrupt_annex_b_from(stream, seed, cfg, 0)
}

/// [`corrupt_annex_b`] with an explicit starting unit index: unit `u` in
/// `stream` draws the decision stream of global unit `unit_offset + u`.
/// This is what makes *per-chunk* wire corruption replayable — feeding a
/// stream through in pieces (each offset by the units already seen)
/// damages unit-aligned chunks exactly as one whole-stream pass would.
pub fn corrupt_annex_b_from(
    stream: &mut Vec<u8>,
    seed: u64,
    cfg: &NalFaultConfig,
    unit_offset: u64,
) -> NalCorruption {
    let total = u64::from(cfg.flip_per_million) + u64::from(cfg.truncate_per_million);
    assert!(total <= 1_000_000, "nal fault rates sum to {total}");

    let units = scan_units(stream);
    let mut report = NalCorruption {
        units_seen: units.len() as u64,
        ..NalCorruption::default()
    };
    if units.is_empty() || total == 0 {
        return report;
    }

    let mut out = Vec::with_capacity(stream.len());
    for (i, span) in units.iter().enumerate() {
        let u = unit_offset + i as u64;
        // Start code + header byte always survive so unit framing and type
        // classification keep working — the damage lands in the payload.
        out.extend_from_slice(&stream[span.sc_start..=span.hdr]);
        let body = &stream[span.hdr + 1..span.end];
        let protected = cfg.protect_sps && stream[span.hdr] == 7;

        let draw = (decision_hash(seed, SITE_UNIT, u, 0) % 1_000_000) as u32;
        if protected || body.is_empty() || draw >= cfg.flip_per_million + cfg.truncate_per_million {
            out.extend_from_slice(body);
            continue;
        }

        if draw < cfg.flip_per_million {
            let mut damaged = body.to_vec();
            let flips = 1
                + (decision_hash(seed, SITE_FLIP_COUNT, u, 0) % u64::from(cfg.max_flips.max(1)))
                    as u32;
            for k in 0..flips {
                let bit = decision_hash(seed, SITE_FLIP_BIT, u, u64::from(k))
                    % (damaged.len() as u64 * 8);
                damaged[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            report.units_flipped += 1;
            report.bits_flipped += u64::from(flips);
            out.extend_from_slice(&damaged);
        } else {
            let keep = (decision_hash(seed, SITE_TRUNC, u, 0) % body.len() as u64) as usize;
            report.units_truncated += 1;
            report.bytes_removed += (body.len() - keep) as u64;
            out.extend_from_slice(&body[..keep]);
        }
    }
    *stream = out;
    report
}

/// Stateful per-chunk wire damage: each chunk of a session's byte stream
/// is corrupted as it crosses the wire, with the global unit index carried
/// across chunks so the damage pattern is a pure function of
/// `(seed, stream)` — independent of how the wire was chunked, as long as
/// chunks split at unit boundaries. (A unit whose start code and tail land
/// in different chunks only exposes its in-chunk head to damage; bytes
/// with no visible start code pass through untouched. That asymmetry is
/// itself realistic — mid-unit fragments aren't reframed by a router.)
#[derive(Debug, Clone)]
pub struct WireCorruptor {
    seed: u64,
    cfg: NalFaultConfig,
    units_seen: u64,
    tally: NalCorruption,
}

impl WireCorruptor {
    /// Creates a corruptor for one wire (one session's stream).
    pub fn new(seed: u64, cfg: NalFaultConfig) -> Self {
        Self {
            seed,
            cfg,
            units_seen: 0,
            tally: NalCorruption::default(),
        }
    }

    /// Damages one chunk in place, continuing the unit numbering from
    /// previous chunks. Returns this chunk's tally.
    pub fn corrupt_chunk(&mut self, chunk: &mut Vec<u8>) -> NalCorruption {
        let report = corrupt_annex_b_from(chunk, self.seed, &self.cfg, self.units_seen);
        self.units_seen += report.units_seen;
        self.tally.units_seen += report.units_seen;
        self.tally.units_flipped += report.units_flipped;
        self.tally.bits_flipped += report.bits_flipped;
        self.tally.units_truncated += report.units_truncated;
        self.tally.bytes_removed += report.bytes_removed;
        report
    }

    /// Cumulative damage across every chunk so far.
    pub fn tally(&self) -> &NalCorruption {
        &self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-rolled Annex-B stream: SPS + three slices.
    fn stream() -> Vec<u8> {
        let mut s = Vec::new();
        for (code, len) in [(7u8, 8usize), (5, 64), (1, 48), (1, 48)] {
            s.extend_from_slice(&[0, 0, 0, 1, code]);
            s.extend((0..len).map(|i| (i as u8).wrapping_mul(37) | 0x10));
        }
        s
    }

    #[test]
    fn quiet_config_is_identity() {
        let mut s = stream();
        let clean = s.clone();
        let quiet = NalFaultConfig {
            flip_per_million: 0,
            truncate_per_million: 0,
            max_flips: 0,
            protect_sps: true,
        };
        let report = corrupt_annex_b(&mut s, 42, &quiet);
        assert_eq!(s, clean);
        assert_eq!((report.units_flipped, report.units_truncated), (0, 0));
        assert_eq!(report.units_seen, 4);
    }

    #[test]
    fn corruption_is_deterministic_in_the_seed() {
        let cfg = NalFaultConfig {
            flip_per_million: 400_000,
            truncate_per_million: 300_000,
            max_flips: 4,
            protect_sps: true,
        };
        let mut diverged = false;
        for seed in 0..50 {
            let mut a = stream();
            let mut b = stream();
            let ra = corrupt_annex_b(&mut a, seed, &cfg);
            let rb = corrupt_annex_b(&mut b, seed, &cfg);
            assert_eq!(ra, rb);
            assert_eq!(a, b);
            let mut c = stream();
            diverged |= corrupt_annex_b(&mut c, seed + 1000, &cfg) != ra || c != a;
        }
        assert!(diverged, "different seeds must damage differently");
    }

    #[test]
    fn sps_is_protected_and_counts_are_consistent() {
        let cfg = NalFaultConfig {
            flip_per_million: 500_000,
            truncate_per_million: 500_000,
            max_flips: 8,
            protect_sps: true,
        };
        let clean = stream();
        let sps_end = 4 + 1 + 8; // start code + header + payload
        let mut hits = 0;
        for seed in 0..100 {
            let mut s = stream();
            let report = corrupt_annex_b(&mut s, seed, &cfg);
            assert_eq!(&s[..sps_end], &clean[..sps_end], "SPS must survive");
            if report.units_flipped + report.units_truncated > 0 {
                hits += 1;
            }
            if report.units_truncated > 0 {
                assert!(s.len() < clean.len());
                assert_eq!(
                    clean.len() - s.len(),
                    report.bytes_removed as usize,
                    "removed bytes must be accounted"
                );
            }
        }
        assert!(hits > 80, "only {hits}/100 streams damaged");
    }

    #[test]
    fn unprotected_sps_can_be_hit() {
        let cfg = NalFaultConfig {
            flip_per_million: 1_000_000,
            truncate_per_million: 0,
            max_flips: 1,
            protect_sps: false,
        };
        let clean = stream();
        let mut s = stream();
        let report = corrupt_annex_b(&mut s, 3, &cfg);
        assert_eq!(report.units_flipped, 4, "every unit takes a flip");
        assert_ne!(&s[..13], &clean[..13], "SPS payload flipped");
    }

    #[test]
    fn unit_aligned_chunked_corruption_matches_whole_stream() {
        let cfg = NalFaultConfig {
            flip_per_million: 400_000,
            truncate_per_million: 300_000,
            max_flips: 4,
            protect_sps: true,
        };
        // Unit boundaries of `stream()`: 4+1+len per unit.
        let bounds = [0usize, 13, 82, 135, 188];
        for seed in 0..20 {
            let mut whole = stream();
            let whole_report = corrupt_annex_b(&mut whole, seed, &cfg);
            let clean = stream();
            let mut corruptor = WireCorruptor::new(seed, cfg);
            let mut rejoined = Vec::new();
            for w in bounds.windows(2) {
                let mut chunk = clean[w[0]..w[1]].to_vec();
                corruptor.corrupt_chunk(&mut chunk);
                rejoined.extend_from_slice(&chunk);
            }
            assert_eq!(rejoined, whole, "seed {seed}");
            assert_eq!(*corruptor.tally(), whole_report, "seed {seed}");
        }
    }

    #[test]
    fn garbage_without_start_codes_passes_through() {
        let mut s = vec![0xFFu8; 64];
        let clean = s.clone();
        let report = corrupt_annex_b(&mut s, 9, &NalFaultConfig::CHAOS);
        assert_eq!(s, clean);
        assert_eq!(report.units_seen, 0);
    }
}
