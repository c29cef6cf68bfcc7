//! `affect-fault`: deterministic, seed-driven fault injection for the
//! closed affect loop.
//!
//! Chaos testing is only useful when a failing run can be replayed. Every
//! decision this crate makes — drop this window, panic that worker, flip
//! those bits — is a pure function of `(seed, site, index)` via a
//! SplitMix64-style hash: no RNG state to share between threads, no
//! dependence on scheduling order. Two runs with the same seed inject
//! exactly the same faults, regardless of how the runtime's worker threads
//! interleave; combined with `affect-obs`'s `VirtualClock`, a whole chaos
//! run is bit-reproducible.
//!
//! The pieces:
//!
//! * [`FaultPlan`] — per-stage fault rates (drop / delay / panic, in
//!   events per million windows) plus the seed; its
//!   [`decide`](FaultPlan::decide) is the pure decision function.
//! * [`RtFaultHook`] — adapts a plan to `affect_rt`'s
//!   [`FaultHook`](affect_rt::FaultHook) seam and counts what it injected
//!   (optionally into `affect_fault_injected_total` metrics).
//! * [`sensor`] — deterministic sensor faults on raw sample windows:
//!   dropouts, rail saturation, NaN bursts.
//! * [`nal`] — deterministic bitstream corruption for Annex-B H.264
//!   streams: bit-flips and truncation.
//! * [`mem`] — seed-pure phantom memory charges that walk a runtime's
//!   [`MemoryBudget`](affect_rt::MemoryBudget) through all four pressure
//!   bands on a deterministic staircase.

#![warn(missing_docs)]

pub mod hook;
pub mod mem;
pub mod nal;
pub mod plan;
pub mod sensor;

pub use hook::{InjectionReport, RtFaultHook};
pub use mem::{MemPressurePlan, SITE_MEM};
pub use nal::{
    corrupt_annex_b, corrupt_annex_b_from, NalCorruption, NalFaultConfig, WireCorruptor,
};
pub use plan::{FaultPlan, StageFaults};
pub use sensor::{apply_sensor_faults, SensorFault, SensorFaultConfig};

/// One step of the SplitMix64 output function — the crate's only source
/// of "randomness". Mixing is bijective, so distinct inputs never collide
/// more than any hash would.
#[inline]
#[must_use]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a decision site to a uniform `u64`. `site` namespaces the stream
/// (stage, subsystem) so e.g. sensor faults and panic decisions drawn from
/// the same seed stay independent.
#[must_use]
pub fn decision_hash(seed: u64, site: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ site).wrapping_add(a)).wrapping_add(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_hash_is_pure_and_site_separated() {
        let h = decision_hash(42, 1, 7, 9);
        assert_eq!(h, decision_hash(42, 1, 7, 9), "pure function");
        assert_ne!(h, decision_hash(42, 2, 7, 9), "site matters");
        assert_ne!(h, decision_hash(43, 1, 7, 9), "seed matters");
        assert_ne!(h, decision_hash(42, 1, 8, 9), "index matters");
    }

    #[test]
    fn hash_is_roughly_uniform() {
        // Coarse sanity: over 10k draws, each of 10 buckets gets 5–15%.
        let mut buckets = [0u32; 10];
        for i in 0..10_000u64 {
            buckets[(decision_hash(7, 3, i, 0) % 10) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((500..1500).contains(&b), "bucket {i}: {b}");
        }
    }
}
