//! Deterministic memory-pressure injection: seed-pure phantom charges
//! that walk a [`MemoryBudget`] through all four
//! pressure bands.
//!
//! Real memory pressure is hard to stage in a test (it depends on
//! allocator behaviour, session mix, and platform), so chaos runs inject
//! *phantom* bytes instead: a pure function of `(seed, tick)` decides how
//! many fake bytes sit on top of the real charges at every governor tick.
//! Because the phantom charge is written absolutely
//! ([`MemoryBudget::set_phantom`]
//! overwrites rather than accumulates), two runs with the same seed see
//! byte-identical pressure at every tick regardless of thread
//! interleaving — the same property the stage fault plan has.
//!
//! The schedule is a staircase: each cycle of `period_ticks` spends a
//! quarter in each band's byte range (Green → Yellow → Red → Critical),
//! with seed-dependent jitter *inside* the range so different seeds stress
//! different usage points without ever leaving the intended band. Real
//! charges add on top of the phantom load, so the observed band can only
//! ever round *up* from the scheduled one — pressure chaos never
//! under-delivers.

use affect_rt::{MemoryBudget, PressureBand};

use crate::decision_hash;

/// Namespace tag for phantom-charge draws in the hash stream.
pub const SITE_MEM: u64 = 0x4D45_4D50; // "MEMP"

/// Permille range of the budget each band's quarter draws from:
/// `(low, width)` such that a draw lands in `[low, low + width)`.
const BAND_RANGES: [(u64, u64); 4] = [
    (0, 500),   // Green: well under the 700‰ threshold
    (700, 140), // Yellow: [700, 840) — clear of the 850‰ Red line
    (850, 90),  // Red: [850, 940) — clear of the 950‰ Critical line
    (950, 100), // Critical: [950, 1050) — may overshoot the budget
];

/// A deterministic phantom-charge schedule against one memory budget.
///
/// [`phantom_bytes`](MemPressurePlan::phantom_bytes) is a pure function of
/// `(seed, tick)`; [`apply`](MemPressurePlan::apply) writes it into a live
/// [`MemoryBudget`] and returns the band now in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPressurePlan {
    seed: u64,
    budget_bytes: u64,
    period_ticks: u64,
}

impl MemPressurePlan {
    /// A staircase with an explicit cycle length.
    ///
    /// # Panics
    ///
    /// Panics when `period_ticks < 4` — the cycle could not visit every
    /// band.
    pub fn with_period(seed: u64, budget_bytes: u64, period_ticks: u64) -> Self {
        assert!(
            period_ticks >= 4,
            "a pressure cycle needs at least one tick per band"
        );
        Self {
            seed,
            budget_bytes,
            period_ticks,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The budget the schedule is scaled against.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The band the staircase schedules for `tick` (before real charges
    /// are added on top).
    pub fn scheduled_band(&self, tick: u64) -> PressureBand {
        let quarter = (tick % self.period_ticks) * 4 / self.period_ticks;
        PressureBand::ALL[quarter as usize]
    }

    /// The phantom bytes to charge at `tick` — pure in `(seed, tick)`, so
    /// replay is byte-stable in any interleaving.
    pub fn phantom_bytes(&self, tick: u64) -> u64 {
        let (low, width) = BAND_RANGES[self.scheduled_band(tick) as usize];
        let jitter = decision_hash(self.seed, SITE_MEM, tick, 0) % width;
        // permille → bytes against the configured budget (u128 keeps even
        // absurd budgets exact).
        ((u128::from(self.budget_bytes) * u128::from(low + jitter)) / 1000) as u64
    }

    /// Writes tick `tick`'s phantom charge into `budget` and returns the
    /// band now in force (scheduled band, possibly rounded up by real
    /// charges sharing the budget).
    pub fn apply(&self, budget: &MemoryBudget, tick: u64) -> PressureBand {
        budget.set_phantom(self.phantom_bytes(tick));
        budget.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affect_rt::MemConsumer;

    #[test]
    fn schedule_is_pure_and_seed_sensitive() {
        let a = MemPressurePlan::with_period(7, 1 << 20, 64);
        let b = MemPressurePlan::with_period(7, 1 << 20, 64);
        let c = MemPressurePlan::with_period(8, 1 << 20, 64);
        let mut diverged = false;
        for tick in 0..512 {
            assert_eq!(a.phantom_bytes(tick), b.phantom_bytes(tick));
            diverged |= a.phantom_bytes(tick) != c.phantom_bytes(tick);
        }
        assert!(diverged, "different seeds must differ somewhere");
    }

    #[test]
    fn staircase_walks_all_four_bands_every_cycle() {
        let plan = MemPressurePlan::with_period(42, 1_000_000, 64);
        let budget = MemoryBudget::new(plan.budget_bytes());
        let mut seen = [false; 4];
        for tick in 0..64 {
            let band = plan.apply(&budget, tick);
            assert_eq!(band, plan.scheduled_band(tick), "no real charges");
            seen[band as usize] = true;
        }
        assert_eq!(seen, [true; 4], "one cycle visits every band");
    }

    #[test]
    fn phantom_lands_inside_the_scheduled_band() {
        let plan = MemPressurePlan::with_period(3, 10_000, 16);
        for tick in 0..160 {
            let (low, width) = BAND_RANGES[plan.scheduled_band(tick) as usize];
            let permille = plan.phantom_bytes(tick) * 1000 / plan.budget_bytes();
            assert!(
                (low.saturating_sub(1)..low + width).contains(&permille),
                "tick {tick}: {permille}‰ outside [{low}, {})",
                low + width
            );
        }
    }

    #[test]
    fn real_charges_only_round_the_band_up() {
        let plan = MemPressurePlan::with_period(11, 1_000_000, 64);
        let budget = MemoryBudget::new(plan.budget_bytes());
        budget.charge(MemConsumer::RingQueues, 50_000); // 50‰ of real load
        for tick in 0..64 {
            let observed = plan.apply(&budget, tick);
            assert!(
                observed >= plan.scheduled_band(tick),
                "tick {tick}: {observed:?} under {:?}",
                plan.scheduled_band(tick)
            );
        }
    }

    #[test]
    fn apply_is_absolute_so_replay_is_byte_stable() {
        let plan = MemPressurePlan::with_period(99, 1 << 16, 64);
        let once = MemoryBudget::new(plan.budget_bytes());
        let twice = MemoryBudget::new(plan.budget_bytes());
        for tick in 0..128 {
            plan.apply(&once, tick);
            // Replaying every tick twice must not accumulate anything.
            plan.apply(&twice, tick);
            plan.apply(&twice, tick);
            assert_eq!(once.used_bytes(), twice.used_bytes(), "tick {tick}");
        }
    }
}
