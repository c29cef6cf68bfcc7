//! A deterministic lockstep load driver.
//!
//! The fleet scenarios (`affectsys::scenarios`, e.g. `fleet-42`) and the
//! fleet integration tests all need the same thing: offer every session
//! one window per round, advance virtual time one tick, repeat. Keeping
//! that loop here means they exercise the same code path instead of
//! hand-rolled drivers drifting apart.
//!
//! Two pacing modes:
//!
//! - `drain_every: Some(k)` — wait for the fleet to go idle every `k`
//!   rounds. Backlog stays bounded; latency reflects pipeline service
//!   time. This is the scenario shape.
//! - `drain_every: None` — never wait mid-run. The offered rate is
//!   whatever the producer loop can push, backlog grows at saturation,
//!   and the recorded latency (in *virtual* nanoseconds, since arrival
//!   stamps come from the shared [`VirtualClock`]) measures queueing
//!   delay in ticks. This is how the fleet tests build a backlog and
//!   drive QoS shedding.

use affect_obs::VirtualClock;

use crate::fleet::{Fleet, SubmitOutcome};
use crate::qos::PerTier;

/// One lockstep load run.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Rounds to drive; each round offers every session one window of the
    /// length the fleet's runtimes were configured with.
    pub rounds: u64,
    /// Virtual nanoseconds the clock advances per round.
    pub tick_ns: u64,
    /// Wait for the fleet to drain every this-many rounds (`None` =
    /// free-running; drain only when the caller decides to).
    pub drain_every: Option<u64>,
}

impl Default for LoadPlan {
    fn default() -> Self {
        Self {
            rounds: 16,
            tick_ns: 1_000_000_000, // the paper's 1 s decision cadence
            drain_every: Some(1),
        }
    }
}

/// Tallies from one [`drive_lockstep`] run (the authoritative per-tier
/// ledger lives in the fleet's own report; these are the driver's view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Windows offered per tier.
    pub offered: PerTier,
    /// Windows shed by QoS pressure control per tier.
    pub shed: PerTier,
    /// Rounds actually driven.
    pub rounds: u64,
}

/// A deterministic, cheap-to-generate biosignal stand-in: a per-session
/// phase-shifted ramp in `[0, 0.5)`. Finite everywhere (the feature
/// stage rejects NaN/∞), varied enough that windows are not identical.
pub fn synth_window(session: usize, round: u64, window_samples: usize) -> Vec<f32> {
    let phase = (session as u64).wrapping_mul(31).wrapping_add(round) % 64;
    let base = phase as f32 / 128.0;
    let mut samples = vec![base; window_samples];
    // A little in-window structure so feature extraction has work to do.
    for (i, s) in samples.iter_mut().enumerate() {
        *s += ((i % 17) as f32) * 0.01;
    }
    samples
}

/// Drives the fleet in lockstep: every round offers one window per
/// session, then advances `clock` by one tick. See the module docs for
/// the two pacing modes.
pub fn drive_lockstep(fleet: &Fleet, clock: &VirtualClock, plan: &LoadPlan) -> LoadOutcome {
    let mut outcome = LoadOutcome::default();
    for round in 0..plan.rounds {
        for global in 0..fleet.session_count() {
            let session = fleet.session(global);
            let window = synth_window(global, round, fleet.window_samples());
            *outcome.offered.get_mut(session.tier) += 1;
            if fleet.submit(session, window) == SubmitOutcome::Shed {
                *outcome.shed.get_mut(session.tier) += 1;
            }
        }
        clock.advance(plan.tick_ns);
        if let Some(k) = plan.drain_every {
            if k > 0 && (round + 1).is_multiple_of(k) {
                fleet.wait_idle();
            }
        }
        outcome.rounds = round + 1;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_windows_are_finite_and_deterministic() {
        let a = synth_window(3, 7, 256);
        let b = synth_window(3, 7, 256);
        assert_eq!(a, b);
        assert!(a.iter().all(|s| s.is_finite()));
        assert_ne!(a, synth_window(4, 7, 256), "sessions differ");
        assert_ne!(a, synth_window(3, 8, 256), "rounds differ");
    }
}
