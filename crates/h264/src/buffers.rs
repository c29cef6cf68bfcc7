//! The affect-adaptive front end: Input Selector, Pre-store Buffer and
//! Circular Buffer (paper Fig. 5).
//!
//! The Input Selector scans incoming NAL units and deletes droppable (P/B)
//! units whose wire size is at most `S_th` bytes, at a deletion frequency
//! `f` ("if the input bitstream has n NAL units, \[and\] the sizes of m NAL
//! units are smaller than or equal to S_th bytes, the number of deleted NAL
//! units will be m/f"). Surviving bytes flow through the 128×16-bit
//! Pre-store Buffer into the 128-bit Circular Buffer under a hand-shake
//! that avoids read/write conflicts; [`BufferChain::pump`] simulates that
//! flow tick by tick, counting each buffer's occupancy rather than moving
//! bytes, and reports the transfer/stall counts the power model consumes.

use crate::nal::NalUnit;
use crate::CodecError;

/// Input Selector parameters (the paper's `S_th` and `f`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectorParams {
    /// Threshold size in bytes: droppable units no larger than this are
    /// candidates for deletion.
    pub s_th: usize,
    /// Deletion frequency: every `f`-th candidate is deleted (`1` deletes
    /// all candidates).
    pub f: u32,
}

impl SelectorParams {
    /// The paper's operating point: `S_th = 140`, `f = 1`.
    pub const PAPER: SelectorParams = SelectorParams { s_th: 140, f: 1 };

    /// Creates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] when `f` is zero.
    pub fn new(s_th: usize, f: u32) -> Result<Self, CodecError> {
        if f == 0 {
            return Err(CodecError::InvalidParameter {
                name: "f",
                reason: "deletion frequency must be non-zero",
            });
        }
        Ok(Self { s_th, f })
    }
}

/// Outcome of running the Input Selector over a unit sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelectionReport {
    /// Units that survived, in order.
    pub kept: Vec<NalUnit>,
    /// Number of deleted units.
    pub deleted_units: usize,
    /// Wire bytes deleted.
    pub deleted_bytes: usize,
    /// Wire bytes kept.
    pub kept_bytes: usize,
    /// Candidates (droppable and small enough) that were seen.
    pub candidates: usize,
}

/// Runs the Input Selector: deletes every `f`-th droppable unit whose wire
/// size is `<= s_th`.
pub fn select_units(units: &[NalUnit], params: SelectorParams) -> SelectionReport {
    let mut report = SelectionReport::default();
    let mut candidate_index = 0u32;
    for unit in units {
        let size = unit.wire_size();
        let is_candidate = unit.nal_type.is_droppable() && size <= params.s_th;
        let delete = if is_candidate {
            report.candidates += 1;
            let hit = candidate_index.is_multiple_of(params.f);
            candidate_index += 1;
            hit
        } else {
            false
        };
        if delete {
            report.deleted_units += 1;
            report.deleted_bytes += size;
        } else {
            report.kept_bytes += size;
            report.kept.push(unit.clone());
        }
    }
    report
}

/// Statistics from pumping a bitstream through the buffer chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Bytes written into the Pre-store Buffer.
    pub prestore_writes: usize,
    /// Bytes moved Pre-store → Circular.
    pub circular_writes: usize,
    /// Bytes delivered to the parser.
    pub delivered: usize,
    /// Ticks on which the producer stalled (Pre-store full).
    pub producer_stalls: usize,
    /// Total simulation ticks.
    pub ticks: usize,
}

impl BufferStats {
    /// Adds another record into this one (per-unit pump aggregation).
    pub fn merge(&mut self, other: &BufferStats) {
        self.prestore_writes += other.prestore_writes;
        self.circular_writes += other.circular_writes;
        self.delivered += other.delivered;
        self.producer_stalls += other.producer_stalls;
        self.ticks += other.ticks;
    }
}

/// The Pre-store Buffer (128 × 16 bits = 256 bytes) feeding the 128-bit
/// (16-byte) Circular Buffer, with the hand-shake of the paper.
///
/// # Example
///
/// ```
/// use h264::buffers::BufferChain;
/// let stats = BufferChain::paper_sized().pump(1000);
/// assert_eq!(stats.delivered, 1000);
/// ```
#[derive(Debug, Clone)]
pub struct BufferChain {
    /// Pre-store Buffer capacity (bytes).
    prestore_capacity: usize,
    /// Circular Buffer capacity (bytes).
    circular_capacity: usize,
    /// Producer write width per tick (bytes).
    write_width: usize,
    /// Parser read width per tick (bytes).
    read_width: usize,
}

impl BufferChain {
    /// The paper's sizing: 128×16-bit Pre-store Buffer (256 bytes) and a
    /// 128-bit (16-byte) Circular Buffer, 16-byte producer writes, 4-byte
    /// parser reads.
    pub fn paper_sized() -> Self {
        Self {
            prestore_capacity: 256,
            circular_capacity: 16,
            write_width: 16,
            read_width: 4,
        }
    }

    /// Pumps `len` bytes through the chain until fully delivered, returning
    /// the transfer statistics. Each tick the producer writes up to its
    /// width into the Pre-store Buffer (stalling when full), the Circular
    /// Buffer refills from the Pre-store Buffer, and the parser drains its
    /// width — the hand-shake guarantees no byte is lost. Only occupancies
    /// are tracked: the parser reads the unit's payload, not these bytes.
    pub fn pump(&self, len: usize) -> BufferStats {
        let mut stats = BufferStats::default();
        let (mut remaining, mut prestore, mut circular) = (len, 0usize, 0usize);
        while remaining > 0 || prestore > 0 || circular > 0 {
            stats.ticks += 1;
            // Producer → Pre-store.
            if remaining > 0 {
                let want = self.write_width.min(remaining);
                let accepted = want.min(self.prestore_capacity - prestore);
                prestore += accepted;
                remaining -= accepted;
                stats.prestore_writes += accepted;
                if accepted < want {
                    stats.producer_stalls += 1;
                }
            }
            // Pre-store → Circular (hand-shake: only move what fits).
            let moved = prestore.min(self.circular_capacity - circular);
            prestore -= moved;
            circular += moved;
            stats.circular_writes += moved;
            // Circular → parser.
            let read = circular.min(self.read_width);
            circular -= read;
            stats.delivered += read;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nal::NalType;

    fn unit(nal_type: NalType, body: usize) -> NalUnit {
        NalUnit::new(nal_type, vec![0xAAu8; body])
    }

    #[test]
    fn selector_params_validate() {
        assert!(SelectorParams::new(140, 0).is_err());
        assert_eq!(SelectorParams::new(140, 1).unwrap(), SelectorParams::PAPER);
    }

    #[test]
    fn selector_deletes_small_droppables_only() {
        let units = vec![
            unit(NalType::Sps, 10),
            unit(NalType::IdrSlice, 50), // small but not droppable
            unit(NalType::PSlice, 50),   // candidate
            unit(NalType::BSlice, 500),  // droppable but too big
            unit(NalType::BSlice, 20),   // candidate
        ];
        let report = select_units(&units, SelectorParams::PAPER);
        assert_eq!(report.deleted_units, 2);
        assert_eq!(report.candidates, 2);
        assert_eq!(report.kept.len(), 3);
        assert!(report
            .kept
            .iter()
            .all(|u| !u.nal_type.is_droppable() || u.wire_size() > 140));
    }

    #[test]
    fn frequency_two_deletes_every_other_candidate() {
        let units: Vec<NalUnit> = (0..6).map(|_| unit(NalType::PSlice, 30)).collect();
        let report = select_units(&units, SelectorParams::new(140, 2).unwrap());
        assert_eq!(report.deleted_units, 3);
        assert_eq!(report.kept.len(), 3);
    }

    #[test]
    fn byte_accounting_balances() {
        let units = vec![
            unit(NalType::IdrSlice, 100),
            unit(NalType::PSlice, 30),
            unit(NalType::PSlice, 300),
        ];
        let total: usize = units.iter().map(|u| u.wire_size()).sum();
        let report = select_units(&units, SelectorParams::PAPER);
        assert_eq!(report.kept_bytes + report.deleted_bytes, total);
    }

    #[test]
    fn chain_delivers_every_byte() {
        let stats = BufferChain::paper_sized().pump(2048);
        assert_eq!(stats.delivered, 2048);
        assert_eq!(stats.prestore_writes, 2048);
        assert_eq!(stats.circular_writes, 2048);
    }

    #[test]
    fn producer_faster_than_consumer_stalls() {
        // Producer writes 16/tick, consumer reads 4/tick: the pre-store
        // fills and the producer must stall on a long stream.
        let stats = BufferChain::paper_sized().pump(10_000);
        assert!(stats.producer_stalls > 0);
        assert_eq!(stats.delivered, 10_000);
    }

    #[test]
    fn empty_input_is_free() {
        let stats = BufferChain::paper_sized().pump(0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.ticks, 0);
    }
}
