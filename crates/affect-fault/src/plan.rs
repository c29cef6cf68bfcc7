//! The fault plan: per-stage rates and the pure decision function.

use affect_rt::{FaultAction, Stage};

use crate::decision_hash;

/// Fault rates for one pipeline stage, in events per million windows.
/// Rates are evaluated in priority order panic → drop → delay, carving
/// disjoint bands out of a uniform draw, so their sum must stay ≤ 1 000
/// 000.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageFaults {
    /// Windows that panic the worker mid-flight, per million.
    pub panic_per_million: u32,
    /// Windows dropped before the stage does any work, per million.
    pub drop_per_million: u32,
    /// Windows delayed by [`StageFaults::delay_ns`], per million.
    pub delay_per_million: u32,
    /// Injected latency for delayed windows, nanoseconds.
    pub delay_ns: u64,
}

impl StageFaults {
    /// No faults at this stage.
    pub const QUIET: StageFaults = StageFaults {
        panic_per_million: 0,
        drop_per_million: 0,
        delay_per_million: 0,
        delay_ns: 0,
    };
}

/// A deterministic fault schedule over the whole pipeline.
///
/// `decide` is a pure function of `(seed, stage, session, seq)` — two
/// plans with the same seed and rates make identical decisions in any
/// thread interleaving, which is what makes a chaos run replayable from
/// its seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    stages: [StageFaults; 5],
}

/// Namespace tag for stage decisions in the hash stream.
const SITE_STAGE_BASE: u64 = 0x5354_4147; // "STAG"

/// Namespace tag for per-shard seed derivation.
const SITE_SHARD: u64 = 0x5348_5244; // "SHRD"

impl FaultPlan {
    /// A plan with the given seed and no faults anywhere.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            stages: [StageFaults::QUIET; 5],
        }
    }

    /// The chaos-suite preset the `chaos-<seed>` and `fleet-42` scenarios
    /// (`affectsys::scenarios`) run: sensor-style drops at ingest, panics
    /// and delays in the two supervised compute stages, and occasional
    /// jitter downstream.
    pub fn chaos(seed: u64) -> Self {
        Self::quiet(seed)
            .with_stage(
                Stage::Ingest,
                StageFaults {
                    drop_per_million: 30_000, // 3% sensor dropouts
                    ..StageFaults::QUIET
                },
            )
            .with_stage(
                Stage::Feature,
                StageFaults {
                    panic_per_million: 20_000, // 2% worker panics
                    drop_per_million: 10_000,
                    delay_per_million: 50_000,
                    delay_ns: 2_000_000, // 2 ms jitter
                },
            )
            .with_stage(
                Stage::Classify,
                StageFaults {
                    panic_per_million: 20_000,
                    drop_per_million: 10_000,
                    delay_per_million: 50_000,
                    delay_ns: 2_000_000,
                },
            )
            .with_stage(
                Stage::Control,
                StageFaults {
                    delay_per_million: 20_000,
                    delay_ns: 1_000_000,
                    ..StageFaults::QUIET
                },
            )
    }

    /// Replaces one stage's rates.
    ///
    /// # Panics
    ///
    /// Panics when the stage's rates sum past one million — the bands
    /// would overlap and the plan would silently misreport itself.
    pub fn with_stage(mut self, stage: Stage, faults: StageFaults) -> Self {
        let total = u64::from(faults.panic_per_million)
            + u64::from(faults.drop_per_million)
            + u64::from(faults.delay_per_million);
        assert!(
            total <= 1_000_000,
            "stage {stage:?} rates sum to {total} per million"
        );
        self.stages[Self::index(stage)] = faults;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the plan for one shard of a fleet: same rates, sub-seed
    /// hashed from `(seed, shard)`.
    ///
    /// A sharded runtime re-uses session indices *within* each shard
    /// (shard 0's session 3 and shard 1's session 3 are different
    /// wearers), so handing every shard the same plan would inject
    /// identical fault streams into unrelated sessions — correlated chaos
    /// that a real fleet never sees. Deriving a per-shard sub-seed keeps
    /// every decision a pure function of `(fleet seed, shard, stage,
    /// session, seq)`: independent streams per shard, and the whole fleet
    /// run still replays from the one fleet seed.
    pub fn for_shard(&self, shard: usize) -> FaultPlan {
        FaultPlan {
            seed: crate::decision_hash(self.seed, SITE_SHARD, shard as u64, 0),
            stages: self.stages,
        }
    }

    /// The rates in force for one stage.
    pub fn stage(&self, stage: Stage) -> StageFaults {
        self.stages[Self::index(stage)]
    }

    fn index(stage: Stage) -> usize {
        match stage {
            Stage::Ingest => 0,
            Stage::Feature => 1,
            Stage::Classify => 2,
            Stage::Control => 3,
            Stage::Actuate => 4,
        }
    }

    /// The pure decision function: what happens to window `seq` of
    /// `session` at `stage`.
    pub fn decide(&self, stage: Stage, session: usize, seq: u64) -> FaultAction {
        let faults = self.stages[Self::index(stage)];
        if faults == StageFaults::QUIET {
            return FaultAction::None;
        }
        let site = SITE_STAGE_BASE + Self::index(stage) as u64;
        let draw = (decision_hash(self.seed, site, session as u64, seq) % 1_000_000) as u32;
        if draw < faults.panic_per_million {
            return FaultAction::Panic;
        }
        if draw < faults.panic_per_million + faults.drop_per_million {
            return FaultAction::DropWindow;
        }
        if draw < faults.panic_per_million + faults.drop_per_million + faults.delay_per_million {
            return FaultAction::DelayNs(faults.delay_ns);
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_injects() {
        let plan = FaultPlan::quiet(1);
        for stage in Stage::ALL {
            for seq in 0..100 {
                assert_eq!(plan.decide(stage, 0, seq), FaultAction::None);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        let c = FaultPlan::chaos(43);
        let mut diverged = false;
        for seq in 0..2_000 {
            for stage in Stage::ALL {
                assert_eq!(a.decide(stage, 1, seq), b.decide(stage, 1, seq));
                diverged |= a.decide(stage, 1, seq) != c.decide(stage, 1, seq);
            }
        }
        assert!(diverged, "different seeds must differ somewhere");
    }

    #[test]
    fn observed_rates_track_configured_rates() {
        let plan = FaultPlan::quiet(9).with_stage(
            Stage::Feature,
            StageFaults {
                panic_per_million: 100_000, // 10%
                drop_per_million: 200_000,  // 20%
                delay_per_million: 0,
                delay_ns: 0,
            },
        );
        let (mut panics, mut drops) = (0u32, 0u32);
        let n = 20_000;
        for seq in 0..n {
            match plan.decide(Stage::Feature, 0, seq) {
                FaultAction::Panic => panics += 1,
                FaultAction::DropWindow => drops += 1,
                _ => {}
            }
        }
        let p = f64::from(panics) / n as f64;
        let d = f64::from(drops) / n as f64;
        assert!((0.08..0.12).contains(&p), "panic rate {p}");
        assert!((0.17..0.23).contains(&d), "drop rate {d}");
    }

    #[test]
    fn shard_derivation_is_pure_and_decorrelated() {
        let fleet = FaultPlan::chaos(42);
        // Pure: the same (seed, shard) derives the same plan.
        assert_eq!(fleet.for_shard(0), FaultPlan::chaos(42).for_shard(0));
        // Rates survive derivation; only the seed moves.
        assert_eq!(
            fleet.for_shard(3).stage(Stage::Feature),
            fleet.stage(Stage::Feature)
        );
        // Decorrelated: two shards must not inject the same stream into
        // their (locally re-indexed) sessions.
        let (a, b) = (fleet.for_shard(0), fleet.for_shard(1));
        assert_ne!(a.seed(), b.seed());
        let mut diverged = false;
        for seq in 0..2_000 {
            for stage in Stage::ALL {
                diverged |= a.decide(stage, 0, seq) != b.decide(stage, 0, seq);
            }
        }
        assert!(diverged, "shard streams must differ somewhere");
    }

    #[test]
    #[should_panic(expected = "rates sum")]
    fn overlapping_bands_are_rejected() {
        let _ = FaultPlan::quiet(0).with_stage(
            Stage::Ingest,
            StageFaults {
                panic_per_million: 600_000,
                drop_per_million: 600_000,
                delay_per_million: 0,
                delay_ns: 0,
            },
        );
    }
}
