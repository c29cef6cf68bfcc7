//! The end-of-run report: per-session accounting, per-stage queue
//! counters and the classify, fault and memory counter blocks.
//!
//! Each session's end-to-end latency is an [`affect_obs::HistogramSnapshot`]
//! of the runtime's log2-bucketed histogram, so percentiles are
//! bucket-resolution approximations — each reported value is the upper
//! bound of the bucket containing the requested quantile, i.e. within 2x of
//! the true latency — which is plenty for deadline triage.

use affect_core::classifier::ClassifierKind;
use affect_obs::HistogramSnapshot;

use crate::mem::MemReport;

/// One session's accounting in a [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Session index (order of `add_session` calls).
    pub session: usize,
    /// Windows submitted (including ones later shed or decimated).
    pub produced: u64,
    /// Windows that completed the full pipeline.
    pub processed: u64,
    /// Windows shed by overflow policy or decimated by a widened decision
    /// interval.
    pub dropped: u64,
    /// Windows whose end-to-end latency exceeded the deadline budget.
    pub deadline_misses: u64,
    /// Times sustained misses forced a model fallback / interval widening.
    pub degradations: u64,
    /// Times sustained on-time windows restored a richer model.
    pub recoveries: u64,
    /// Classifier family in force at report time.
    pub family: ClassifierKind,
    /// Decision interval in force at report time (1 = classify every
    /// window; k = classify every k-th).
    pub decision_interval: u32,
    /// End-to-end (arrival → actuated) latency distribution, at full log2
    /// bucket resolution so fleet-level merges combine distributions
    /// exactly.
    pub latency: HistogramSnapshot,
    /// Whether the session was evicted (memory pressure or an explicit
    /// [`crate::Runtime::remove_session`]) and not readmitted by report
    /// time. An evicted session's counters stay in the report — eviction
    /// hands accounting off exactly, it never erases it.
    pub evicted: bool,
}

impl SessionReport {
    /// `true` when every submitted window is accounted for: it either
    /// completed the pipeline or was counted as dropped. The runtime's
    /// no-silent-loss invariant.
    pub fn accounted(&self) -> bool {
        self.produced == self.processed + self.dropped
    }
}

impl SessionReport {
    /// Folds `other` (the same logical session observed by another shard
    /// or runtime) into `self`: counters sum, the latency histograms merge
    /// bucket-wise, the classifier family resolves to the more degraded of
    /// the two (the lower rung of [`ClassifierKind::LADDER`]) and the
    /// decision interval to the wider — both symmetric, so
    /// `merge(a, b) == merge(b, a)`.
    pub fn merge(&mut self, other: &SessionReport) {
        self.produced += other.produced;
        self.processed += other.processed;
        self.dropped += other.dropped;
        self.deadline_misses += other.deadline_misses;
        self.degradations += other.degradations;
        self.recoveries += other.recoveries;
        self.latency.merge(&other.latency);
        if other.family.rung() < self.family.rung() {
            self.family = other.family;
        }
        self.decision_interval = self.decision_interval.max(other.decision_interval);
        // Either observer having seen the session evicted means it is out.
        self.evicted |= other.evicted;
    }
}

/// One pipeline stage's queue counters in a [`RuntimeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`"ingest"`, `"classify"`, `"control"`, `"actuate"`).
    pub stage: &'static str,
    /// Messages accepted into the stage's queue.
    pub pushed: u64,
    /// Messages consumed by the stage's workers.
    pub popped: u64,
    /// Messages shed by the stage's overflow policy.
    pub shed: u64,
    /// Deepest the stage's queue has been.
    pub depth_high_water: usize,
    /// The queue's capacity.
    pub capacity: usize,
}

/// Classify-stage hot-path counters aggregated across workers: how much
/// work arrived in batches and how well the per-worker scratch arenas
/// amortised their allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyReport {
    /// Windows classified.
    pub windows: u64,
    /// Queue drains (each drain classifies 1..=batch windows).
    pub batches: u64,
    /// Largest number of windows classified in one drain.
    pub max_batch: u64,
    /// Scratch-arena buffer allocations (cold starts and growth).
    pub scratch_allocs: u64,
    /// Scratch-arena buffer reuses (allocation-free acquisitions).
    pub scratch_reuses: u64,
    /// Windows classified per family, indexed by
    /// [`ClassifierKind::rung`] (cheapest first) — the degradation mix of
    /// the run.
    pub family_windows: [u64; 4],
}

impl ClassifyReport {
    /// Mean windows per queue drain (0 when nothing ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.windows as f64 / self.batches as f64
        }
    }
}

/// Fault and recovery counters aggregated across the whole runtime: what
/// went wrong (or was injected) and what the supervision layer did about
/// it. All zeros on a healthy run with no fault hook attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Worker panics caught by per-window supervision (injected + organic).
    pub worker_panics: u64,
    /// Panics the worker survived: it backed off and resumed its loop.
    pub worker_restarts: u64,
    /// Workers retired after exhausting their restart budget.
    pub workers_lost: u64,
    /// Windows refused at the feature stage for a length other than
    /// `RuntimeConfig::window_samples` or for non-finite samples (NaN/∞
    /// sensor faults) — each costs exactly one window.
    pub rejected_windows: u64,
    /// Windows force-drained from stalled queues by the watchdog.
    pub watchdog_sheds: u64,
}

/// Everything the runtime knows about a run: per-session accounting and
/// per-stage queue behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// One entry per session, in `add_session` order.
    pub sessions: Vec<SessionReport>,
    /// One entry per pipeline stage, in pipeline order.
    pub stages: Vec<StageReport>,
    /// Classify-stage batching and scratch-arena counters.
    pub classify: ClassifyReport,
    /// Fault and supervision counters (all zero on a healthy run).
    pub faults: FaultReport,
    /// Memory-budget accounting at report time (all zero when no governor
    /// is configured).
    pub mem: MemReport,
}

impl RuntimeReport {
    /// `true` when every session satisfies the no-silent-loss invariant.
    pub fn all_accounted(&self) -> bool {
        self.sessions.iter().all(SessionReport::accounted)
    }

    /// Total windows submitted across sessions.
    pub fn total_produced(&self) -> u64 {
        self.sessions.iter().map(|s| s.produced).sum()
    }

    /// Total windows that completed the pipeline across sessions.
    pub fn total_processed(&self) -> u64 {
        self.sessions.iter().map(|s| s.processed).sum()
    }

    /// Total windows shed or decimated across sessions.
    pub fn total_dropped(&self) -> u64 {
        self.sessions.iter().map(|s| s.dropped).sum()
    }

    /// Folds another runtime's report into this one — the fleet-level
    /// aggregation primitive.
    ///
    /// Sessions are matched by their `session` id: a shared id means "the
    /// same logical session seen by two observers" and the entries merge
    /// via [`SessionReport::merge`]; an id only `other` has is appended.
    /// (A fleet remaps each shard's local indices to globally unique ids
    /// before merging, so cross-shard sessions never collide.) The merged
    /// session list is re-sorted by id, stages merge by name (counter
    /// sums, capacity sums, high-water max), and the classify/fault
    /// counter blocks sum field-wise — every rule is symmetric, so
    /// `merge(a, b) == merge(b, a)` (proven by a unit test).
    ///
    /// # Panics
    ///
    /// Panics when both inputs satisfied the accounting invariant but the
    /// merged report does not — arithmetic that can only mean the merge
    /// itself lost a window, never a runtime condition.
    pub fn merge(&mut self, other: &RuntimeReport) {
        let inputs_accounted = self.all_accounted() && other.all_accounted();
        for theirs in &other.sessions {
            match self
                .sessions
                .iter_mut()
                .find(|mine| mine.session == theirs.session)
            {
                Some(mine) => mine.merge(theirs),
                None => self.sessions.push(theirs.clone()),
            }
        }
        self.sessions.sort_by_key(|s| s.session);
        for theirs in &other.stages {
            match self
                .stages
                .iter_mut()
                .find(|mine| mine.stage == theirs.stage)
            {
                Some(mine) => {
                    mine.pushed += theirs.pushed;
                    mine.popped += theirs.popped;
                    mine.shed += theirs.shed;
                    mine.depth_high_water = mine.depth_high_water.max(theirs.depth_high_water);
                    mine.capacity += theirs.capacity;
                }
                None => self.stages.push(theirs.clone()),
            }
        }
        self.classify.windows += other.classify.windows;
        self.classify.batches += other.classify.batches;
        self.classify.max_batch = self.classify.max_batch.max(other.classify.max_batch);
        self.classify.scratch_allocs += other.classify.scratch_allocs;
        self.classify.scratch_reuses += other.classify.scratch_reuses;
        for (mine, theirs) in self
            .classify
            .family_windows
            .iter_mut()
            .zip(other.classify.family_windows.iter())
        {
            *mine += theirs;
        }
        self.mem.merge(&other.mem);
        self.faults.worker_panics += other.faults.worker_panics;
        self.faults.worker_restarts += other.faults.worker_restarts;
        self.faults.workers_lost += other.faults.workers_lost;
        self.faults.rejected_windows += other.faults.rejected_windows;
        self.faults.watchdog_sheds += other.faults.watchdog_sheds;
        assert!(
            !inputs_accounted || self.all_accounted(),
            "merge broke produced == processed + dropped"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_report_rates() {
        let r = ClassifyReport {
            windows: 12,
            batches: 4,
            max_batch: 5,
            scratch_allocs: 6,
            scratch_reuses: 18,
            family_windows: [3, 3, 3, 3],
        };
        assert!((r.mean_batch() - 3.0).abs() < 1e-12);
        assert_eq!(ClassifyReport::default().mean_batch(), 0.0);
    }

    #[test]
    fn accounted_invariant() {
        let mut r = session_report(0, 10, 7, 3, ClassifierKind::Lstm);
        assert!(r.accounted());
        r.dropped = 2;
        assert!(!r.accounted());
    }

    fn session_report(
        session: usize,
        produced: u64,
        processed: u64,
        dropped: u64,
        family: ClassifierKind,
    ) -> SessionReport {
        let hist = affect_obs::Histogram::new();
        for i in 0..processed {
            hist.record(1_000 * (session as u64 * 7 + i + 1));
        }
        SessionReport {
            session,
            produced,
            processed,
            dropped,
            deadline_misses: 0,
            degradations: 0,
            recoveries: 0,
            family,
            decision_interval: 1,
            latency: hist.snapshot(),
            evicted: false,
        }
    }

    fn stage_report(stage: &'static str, pushed: u64, popped: u64, shed: u64) -> StageReport {
        StageReport {
            stage,
            pushed,
            popped,
            shed,
            depth_high_water: (pushed % 5) as usize,
            capacity: 8,
        }
    }

    fn runtime_report(sessions: Vec<SessionReport>, seed: u64) -> RuntimeReport {
        RuntimeReport {
            sessions,
            stages: vec![
                stage_report("ingest", 10 + seed, 9 + seed, 1),
                stage_report("classify", 9 + seed, 9 + seed, 0),
            ],
            classify: ClassifyReport {
                windows: 9 + seed,
                batches: 3 + seed,
                max_batch: 4,
                scratch_allocs: 2,
                scratch_reuses: 7 + seed,
                family_windows: [seed, 2, 3, 4 + seed],
            },
            faults: FaultReport {
                worker_panics: seed,
                ..FaultReport::default()
            },
            mem: MemReport::default(),
        }
    }

    #[test]
    fn merge_is_commutative() {
        // Disjoint session ids (the fleet case) plus one shared id (the
        // same logical session observed twice).
        let a = runtime_report(
            vec![
                session_report(0, 12, 10, 2, ClassifierKind::Lstm),
                session_report(2, 8, 8, 0, ClassifierKind::Cnn),
            ],
            1,
        );
        let b = runtime_report(
            vec![
                session_report(1, 20, 15, 5, ClassifierKind::Mlp),
                session_report(2, 6, 4, 2, ClassifierKind::Mlp),
            ],
            5,
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be order-independent");
        assert!(ab.all_accounted());
        assert_eq!(ab.total_produced(), 46);
        assert_eq!(ab.total_processed(), 37);
        assert_eq!(ab.total_dropped(), 9);
        // The shared session combined: counters summed, more degraded
        // family won, histogram count is the union.
        let shared = ab.sessions.iter().find(|s| s.session == 2).unwrap();
        assert_eq!(shared.produced, 14);
        assert_eq!(shared.family, ClassifierKind::Mlp);
        assert_eq!(shared.latency.count, 12);
        // Stage counters summed by name.
        let ingest = ab.stages.iter().find(|s| s.stage == "ingest").unwrap();
        assert_eq!(ingest.pushed, 11 + 15);
        assert_eq!(ingest.capacity, 16);
        assert_eq!(ab.faults.worker_panics, 6);
    }

    #[test]
    fn merge_preserves_and_checks_the_accounting_invariant() {
        // Accounted inputs merge into an accounted output (the assert
        // inside `merge` fires otherwise, so reaching this line IS the
        // proof the guard passed).
        let a = runtime_report(vec![session_report(0, 10, 7, 3, ClassifierKind::Mlp)], 0);
        let b = runtime_report(vec![session_report(0, 4, 4, 0, ClassifierKind::Cnn)], 1);
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(merged.all_accounted());
        assert_eq!(merged.sessions[0].produced, 14);
        // An input that was already unaccounted (a mid-flight snapshot)
        // merges without panicking — the guard only arms when both inputs
        // satisfied the invariant.
        let mut midflight = b.clone();
        midflight.sessions[0].produced += 5; // 5 windows still in the pipe
        assert!(!midflight.all_accounted());
        let mut merged2 = a.clone();
        merged2.merge(&midflight);
        assert!(!merged2.all_accounted());
        assert_eq!(merged2.sessions[0].produced, 19);
    }

    #[test]
    fn merging_an_empty_shard_is_total_and_commutative() {
        // A shard that admitted zero sessions produces a report with an
        // empty session list (and possibly empty stage list). Folding it
        // in either direction must be a no-op on the populated side.
        let populated = runtime_report(
            vec![
                session_report(0, 12, 10, 2, ClassifierKind::Lstm),
                session_report(3, 5, 5, 0, ClassifierKind::Hdc),
            ],
            2,
        );
        let empty = RuntimeReport {
            sessions: Vec::new(),
            stages: Vec::new(),
            classify: ClassifyReport::default(),
            faults: FaultReport::default(),
            mem: MemReport::default(),
        };
        assert!(empty.all_accounted(), "vacuously accounted");
        let mut ab = populated.clone();
        ab.merge(&empty);
        let mut ba = empty.clone();
        ba.merge(&populated);
        assert_eq!(ab, ba, "empty-shard merge must be order-independent");
        assert_eq!(ab.sessions.len(), 2);
        assert_eq!(ab.total_produced(), populated.total_produced());
        assert!(ab.all_accounted());
        // Both directions reproduce the populated report exactly.
        assert_eq!(ab, populated);
        // And two empty shards merge into an empty report.
        let mut both_empty = empty.clone();
        both_empty.merge(&empty);
        assert_eq!(both_empty, empty);
    }

    #[test]
    fn disjoint_family_counters_merge_totally_and_commutatively() {
        // One shard classified only on the rich end of the ladder, the
        // other only on the cheap end: no overlapping family counter is
        // non-zero, and the merge must still sum element-wise without
        // losing either side.
        let mut a = runtime_report(vec![session_report(0, 4, 4, 0, ClassifierKind::Lstm)], 0);
        a.classify.family_windows = [0, 0, 3, 9]; // CNN + LSTM only
        let mut b = runtime_report(vec![session_report(1, 6, 6, 0, ClassifierKind::Hdc)], 0);
        b.classify.family_windows = [5, 7, 0, 0]; // HDC + MLP only
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "disjoint-counter merge must be order-independent");
        assert_eq!(ab.classify.family_windows, [5, 7, 3, 9]);
        assert!(ab.all_accounted());
    }

    #[test]
    fn eviction_flag_survives_merge_and_preserves_accounting() {
        let mut a = session_report(2, 9, 6, 3, ClassifierKind::Mlp);
        a.evicted = true;
        let b = session_report(2, 4, 4, 0, ClassifierKind::Mlp);
        let mut ab = a.clone();
        ab.merge(&b);
        assert!(ab.evicted, "either observer seeing the eviction wins");
        assert!(ab.accounted(), "evicted counters still add up");
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn mem_report_merge_is_symmetric_and_takes_worst_band() {
        let a = MemReport {
            budget_bytes: 1000,
            used_bytes: 900,
            used_by: [100, 200, 300, 150, 150, 0],
            band: 2, // Red
            band_transitions: [0, 1, 1, 0],
        };
        let b = MemReport {
            budget_bytes: 500,
            used_bytes: 100,
            used_by: [50, 50, 0, 0, 0, 0],
            band: 0, // Green
            band_transitions: [1, 1, 0, 0],
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.budget_bytes, 1500);
        assert_eq!(ab.used_bytes, 1000);
        assert_eq!(ab.band, 2, "worst band wins");
        assert_eq!(ab.band_transitions, [1, 2, 1, 0]);
    }
}
