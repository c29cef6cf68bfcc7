//! The staged streaming runtime: ingest → feature → classify → control →
//! actuate, each stage on its own worker thread(s) behind a bounded queue.
//!
//! ## Topology
//!
//! ```text
//!  submit() ──▶ [ingest ring] ──▶ feature workers (xW)
//!                                     │ extract per session's family
//!                                     ▼
//!                              [classify ring] ──▶ classify workers (xW)
//!                                     │ shared pool; each worker owns all
//!                                     │ four model families (per precision)
//!                                     ▼
//!                               [control ring] ──▶ control worker (x1)
//!                                     │ per-session SystemController
//!                                     ▼
//!                               [actuate ring] ──▶ actuate worker (x1)
//!                                       per-session Actuator; latency,
//!                                       deadline + degradation accounting
//! ```
//!
//! Classifier models are not `Send` (layers are plain `Box<dyn Layer>`),
//! so each classify worker *builds its own* pool at startup — the three
//! scaled neural families (per configured precision) plus the integer-only
//! HDC rung — and dispatches on the (family, precision) pair stamped into
//! the message; a session's family switch is picked up by whichever worker
//! handles its next window.
//!
//! ## Accounting invariant
//!
//! Every submitted window ends in exactly one of two counters: `processed`
//! (survived the full pipeline) or `dropped` (shed by an overflow policy,
//! decimated by a widened decision interval, or refused by a malformed
//! extraction). `produced == processed + dropped` holds for every session
//! once the pipeline drains — [`Runtime::wait_idle`] waits on exactly that
//! condition, so nothing is ever lost silently.
//!
//! ## Graceful degradation
//!
//! Windows carry their arrival timestamp; the actuate stage measures
//! end-to-end latency against the deadline budget. A configured streak of
//! consecutive misses degrades the session — classifier falls back one
//! family (LSTM → CNN → MLP → HDC) *and* the decision interval widens so
//! only every k-th window enters the pipeline. A streak of on-time windows
//! recovers one step at a time (first the interval, then the family). The
//! fallback stops at the session's floor: [`RuntimeConfig::floor_family`]
//! (default the HDC rung), optionally raised by
//! [`RuntimeConfig::min_accuracy`] to the cheapest rung meeting that
//! accuracy. See `docs/DEGRADATION.md` for the full ladder semantics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use affect_core::classifier::{AffectClassifier, ClassifierKind, Decision, ModelConfig};
use affect_core::controller::{ControlEvent, SystemController};
use affect_core::emotion::Emotion;
use affect_core::pipeline::{FeatureConfig, FeaturePipeline};
use affect_core::policy::PolicyTable;
use affect_core::AffectError;
use affect_obs::{Clock, Counter as ObsCounter, Histogram, MetricsRegistry, Span, SystemClock};
use nn::{Precision, Scratch, Tensor};

use crate::actuator::Actuator;
use crate::fault::{FaultAction, FaultHook, InjectedPanic, Stage};
use crate::mem::{MemConsumer, MemReport, MemoryBudget, PressureBand};
use crate::ring::{OverflowPolicy, PushOutcome, Ring, RingMetrics};
use crate::stats::{ClassifyReport, FaultReport, RuntimeReport, SessionReport, StageReport};

/// Handle to one session registered with the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// Index of the session (order of `add_session` calls).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Capacity and overflow policy of one pipeline queue.
#[derive(Debug, Clone, Copy)]
pub struct StageConfig {
    /// Maximum queued messages.
    pub capacity: usize,
    /// What to do when full.
    pub policy: OverflowPolicy,
}

impl StageConfig {
    /// Convenience constructor.
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        Self { capacity, policy }
    }
}

/// Supervision parameters for the feature and classify worker pools and
/// the per-session classify circuit breaker.
#[derive(Debug, Clone, Copy)]
pub struct SupervisionConfig {
    /// Panics one worker may survive before it is retired. Each caught
    /// panic costs the in-flight window (accounted as dropped) and a
    /// backoff pause; exceeding the budget retires the worker, and the
    /// last worker of a pool to retire closes and drains its input queue
    /// so the accounting invariant still converges.
    pub restart_budget: u32,
    /// Backoff after the first caught panic, milliseconds. Doubles per
    /// consecutive panic.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
    /// Consecutive classify failures of one session that trip its circuit
    /// breaker: the session is pinned to its floor family (the HDC rung by
    /// default, see [`RuntimeConfig::floor_family`]) until a half-open
    /// recovery probe (driven by the ordinary `ok_streak` recovery
    /// machinery) succeeds with a richer family.
    pub breaker_threshold: u32,
}

impl SupervisionConfig {
    /// The restart backoff (milliseconds) after the `consecutive`-th panic
    /// in a row: exponential from [`SupervisionConfig::backoff_base_ms`],
    /// capped at [`SupervisionConfig::backoff_max_ms`].
    pub fn backoff_for(&self, consecutive: u32) -> u64 {
        if consecutive == 0 {
            return 0;
        }
        self.backoff_base_ms
            .saturating_mul(1u64 << consecutive.saturating_sub(1).min(16))
            .min(self.backoff_max_ms)
    }
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            restart_budget: 8,
            backoff_base_ms: 1,
            backoff_max_ms: 100,
            breaker_threshold: 3,
        }
    }
}

/// Stalled-queue watchdog parameters. The watchdog is a low-frequency
/// safety net behind the per-window supervision: when a stage queue holds
/// messages but its consumers pop nothing for `stall_polls` consecutive
/// polls, the watchdog force-drains the queue, accounting every drained
/// window as dropped, so a wedged stage degrades to load-shedding instead
/// of deadlocking the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Poll period, milliseconds.
    pub poll_ms: u64,
    /// Consecutive no-progress polls (with a non-empty queue) that declare
    /// a stage stalled.
    pub stall_polls: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            poll_ms: 50,
            stall_polls: 4,
        }
    }
}

/// Configuration of the streaming runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Feature extraction parameters (shared by all sessions).
    pub feature: FeatureConfig,
    /// Samples per analysis window; fixes the CNN input width, so every
    /// submitted window must have exactly this length.
    pub window_samples: usize,
    /// Classifier family each session starts in.
    pub initial_family: ClassifierKind,
    /// Cheapest family the degradation machinery (miss-streak fallback and
    /// the classify circuit breaker) may drop a session to. Defaults to
    /// [`ClassifierKind::Hdc`], the bottom of the ladder; setting e.g.
    /// [`ClassifierKind::Mlp`] restores the pre-HDC floor. A session whose
    /// QoS ceiling sits below this floor is pinned at its ceiling.
    pub floor_family: ClassifierKind,
    /// Optional accuracy floor. When set, the effective degradation floor
    /// is raised to the cheapest rung whose indicative accuracy (see the
    /// `accuracy_energy` bench / `results/BENCH_accuracy_energy.json`) meets this
    /// value — the controller then always picks the cheapest rung that
    /// still meets the configured accuracy.
    pub min_accuracy: Option<f32>,
    /// Numeric precision of the classify stage's inference path for
    /// sessions without a per-session override
    /// ([`RuntimeBuilder::add_session_with_precision`]).
    /// [`Precision::Int8`] runs the neural families through the quantized
    /// int8 kernels; the HDC rung is integer-only regardless.
    pub precision: Precision,
    /// Worker threads for the feature and classify stages (each).
    pub workers: usize,
    /// Ingest queue (submit → feature).
    pub ingest: StageConfig,
    /// Classify queue (feature → classify).
    pub classify: StageConfig,
    /// Largest number of queued windows one classify worker drains per
    /// wakeup (its batching window). 1 restores strict one-at-a-time
    /// behaviour; larger values amortise queue synchronisation and keep a
    /// worker's scratch arena hot across consecutive windows.
    pub classify_batch: usize,
    /// Control queue (classify → control).
    pub control: StageConfig,
    /// Actuate queue capacity (control → actuate; always lossless/Block —
    /// decisions that got this far are never shed).
    pub actuate_capacity: usize,
    /// End-to-end latency budget per window, nanoseconds (the paper's
    /// decision cadence is ~1 s).
    pub deadline_ns: u64,
    /// Consecutive deadline misses that trigger degradation.
    pub miss_streak: u32,
    /// Consecutive on-time windows that trigger one recovery step.
    pub ok_streak: u32,
    /// Decision interval while degraded: only every k-th window enters the
    /// pipeline (others are decimated and counted as dropped).
    pub degraded_interval: u32,
    /// Policy table driving each session's controller.
    pub policy: PolicyTable,
    /// Controller smoothing window (decisions debounced over this many
    /// observations).
    pub smoothing_window: usize,
    /// Seed for the untrained models' deterministic initialization.
    pub model_seed: u64,
    /// Worker supervision and circuit-breaker parameters.
    pub supervision: SupervisionConfig,
    /// Stalled-queue watchdog; `None` (the default) disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// Memory budget in bytes for the pressure governor; 0 (the default)
    /// disables it. When set, the runtime charges its real consumers (ring
    /// queues, scratch arenas, classifier tables) against a
    /// [`MemoryBudget`] and derives a [`PressureBand`]: under Yellow or
    /// worse, classify batching collapses to 1 and sustained pressure
    /// walks sessions down the degradation ladder exactly like a
    /// deadline-miss streak; a fleet evicts BestEffort (Red) and Standard
    /// (Critical) sessions. See `docs/ROBUSTNESS.md` §memory-pressure.
    pub memory_budget_bytes: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            feature: FeatureConfig::default(),
            window_samples: 16_000, // 1 s at the default 16 kHz
            initial_family: ClassifierKind::Lstm,
            floor_family: ClassifierKind::Hdc,
            min_accuracy: None,
            precision: Precision::F32,
            workers: 2,
            ingest: StageConfig::new(8, OverflowPolicy::Block),
            classify: StageConfig::new(8, OverflowPolicy::Block),
            classify_batch: 4,
            control: StageConfig::new(8, OverflowPolicy::Block),
            actuate_capacity: 8,
            deadline_ns: 1_000_000_000, // the paper's 1 s cadence
            miss_streak: 3,
            ok_streak: 8,
            degraded_interval: 2,
            policy: PolicyTable::paper_defaults(),
            smoothing_window: 1,
            model_seed: 7,
            supervision: SupervisionConfig::default(),
            watchdog: None,
            memory_budget_bytes: 0,
        }
    }
}

impl RuntimeConfig {
    fn validate(&self) -> Result<(), AffectError> {
        if self.workers == 0 {
            return Err(AffectError::InvalidParameter {
                name: "workers",
                reason: "must be at least 1",
            });
        }
        if self.window_samples < self.feature.frame_len {
            return Err(AffectError::InvalidParameter {
                name: "window_samples",
                reason: "must hold at least one analysis frame",
            });
        }
        if self.deadline_ns == 0 {
            return Err(AffectError::InvalidParameter {
                name: "deadline_ns",
                reason: "must be non-zero",
            });
        }
        if self.miss_streak == 0 || self.ok_streak == 0 {
            return Err(AffectError::InvalidParameter {
                name: "miss_streak",
                reason: "streak thresholds must be at least 1",
            });
        }
        if self.degraded_interval == 0 {
            return Err(AffectError::InvalidParameter {
                name: "degraded_interval",
                reason: "must be at least 1",
            });
        }
        if self.smoothing_window == 0 {
            return Err(AffectError::InvalidParameter {
                name: "smoothing_window",
                reason: "must be at least 1",
            });
        }
        if self.classify_batch == 0 {
            return Err(AffectError::InvalidParameter {
                name: "classify_batch",
                reason: "must be at least 1",
            });
        }
        if self.supervision.breaker_threshold == 0 {
            return Err(AffectError::InvalidParameter {
                name: "breaker_threshold",
                reason: "must be at least 1",
            });
        }
        if let Some(acc) = self.min_accuracy {
            if !(0.0..=1.0).contains(&acc) {
                return Err(AffectError::InvalidParameter {
                    name: "min_accuracy",
                    reason: "must lie in [0, 1]",
                });
            }
        }
        if let Some(w) = &self.watchdog {
            if w.poll_ms == 0 || w.stall_polls == 0 {
                return Err(AffectError::InvalidParameter {
                    name: "watchdog",
                    reason: "poll_ms and stall_polls must be at least 1",
                });
            }
        }
        Ok(())
    }

    /// The three scaled neural model configurations this runtime classifies
    /// with, dimensioned from the feature config and window length (the HDC
    /// rung is not a [`ModelConfig`]; it is built directly over the flat
    /// feature vector).
    fn model_configs(&self, pipeline: &FeaturePipeline) -> [ModelConfig; 3] {
        let fpf = pipeline.features_per_frame();
        let frames = pipeline.frames_for(self.window_samples);
        let classes = Emotion::ALL.len();
        [
            ModelConfig::scaled_mlp(pipeline.flat_dim(), classes),
            ModelConfig::scaled_cnn(frames * fpf, classes),
            ModelConfig::scaled_lstm(fpf, classes),
        ]
    }

    /// The degradation floor actually enforced: [`RuntimeConfig::floor_family`],
    /// raised to the cheapest rung whose indicative accuracy meets
    /// [`RuntimeConfig::min_accuracy`] when that is set. An unmeetable
    /// accuracy floor resolves to the richest family — the controller can
    /// then never trade accuracy away below the user's bar.
    pub fn effective_floor(&self) -> ClassifierKind {
        let mut floor = self.floor_family;
        if let Some(min) = self.min_accuracy {
            let by_accuracy = NOMINAL_ACCURACY
                .iter()
                .find(|(_, acc)| *acc >= min)
                .map(|(kind, _)| *kind)
                .unwrap_or(ClassifierKind::Lstm);
            if by_accuracy.rung() > floor.rung() {
                floor = by_accuracy;
            }
        }
        floor
    }
}

/// Classifier-pool key for a window: family plus precision, with the HDC
/// rung normalized to a single (integer-only) instance so f32 and int8
/// sessions share it.
fn pool_key(family: ClassifierKind, precision: Precision) -> (ClassifierKind, Precision) {
    match family {
        ClassifierKind::Hdc => (family, Precision::Int8),
        _ => (family, precision),
    }
}

/// Indicative per-family accuracies on the synthetic EMOVO-like corpus,
/// cheapest family first, as measured by the `accuracy_energy` bench (the
/// committed numbers live in `results/BENCH_accuracy_energy.json` — keep the two
/// in sync). [`RuntimeConfig`] uses this table to translate a
/// `min_accuracy` floor into the cheapest ladder rung that still meets it;
/// the scan walks cheapest-first, so a non-monotonic entry (the LSTM
/// trails the CNN on this corpus) simply never wins a floor. The table is
/// intentionally coarse: it orders the rungs, it does not promise absolute
/// accuracy on live signals.
const NOMINAL_ACCURACY: [(ClassifierKind, f32); 4] = [
    (ClassifierKind::Hdc, 0.69),
    (ClassifierKind::Mlp, 0.81),
    (ClassifierKind::Cnn, 0.83),
    (ClassifierKind::Lstm, 0.74),
];

/// Circuit-breaker states, stored in `SessionState::breaker`.
const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// Shared per-session state: counters plus the degradation knobs the
/// feature workers and submit path read.
struct SessionState {
    next_seq: AtomicU64,
    produced: AtomicU64,
    processed: AtomicU64,
    dropped: AtomicU64,
    misses: AtomicU64,
    degradations: AtomicU64,
    recoveries: AtomicU64,
    /// Rung of the family in force, on [`ClassifierKind::LADDER`].
    family: AtomicU8,
    /// Richest family this session may recover to (its QoS ceiling): the
    /// per-session initial family, frozen at registration.
    ceiling: ClassifierKind,
    /// Cheapest family degradation or the circuit breaker may drop this
    /// session to, frozen at registration: the runtime's effective floor,
    /// clamped to the session's ceiling.
    floor: ClassifierKind,
    /// Inference precision for this session's neural windows, frozen at
    /// registration.
    precision: Precision,
    interval: AtomicU32,
    latency: Histogram,
    /// Classify circuit breaker: `BREAKER_CLOSED`, `BREAKER_OPEN` (family
    /// pinned to the session's floor) or `BREAKER_HALF_OPEN` (recovery
    /// probe in flight).
    breaker: AtomicU8,
    /// Consecutive classify failures while the breaker is closed.
    breaker_failures: AtomicU32,
    /// Set by [`Runtime::remove_session`]: an evicted session's submits
    /// become clean no-ops (not produced, not dropped — never offered), so
    /// its final accounting stays exact. Cleared by
    /// [`Runtime::readmit_session`].
    evicted: AtomicBool,
}

impl SessionState {
    fn new(initial_family: ClassifierKind, floor: ClassifierKind, precision: Precision) -> Self {
        Self {
            next_seq: AtomicU64::new(0),
            produced: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            degradations: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            family: AtomicU8::new(initial_family.rung() as u8),
            ceiling: initial_family,
            floor: std::cmp::min_by_key(floor, initial_family, |kind| kind.rung()),
            precision,
            interval: AtomicU32::new(1),
            latency: Histogram::new(),
            breaker: AtomicU8::new(BREAKER_CLOSED),
            breaker_failures: AtomicU32::new(0),
            evicted: AtomicBool::new(false),
        }
    }

    fn family(&self) -> ClassifierKind {
        ClassifierKind::LADDER[usize::from(self.family.load(Ordering::SeqCst))]
    }

    fn set_family(&self, family: ClassifierKind) {
        self.family.store(family.rung() as u8, Ordering::SeqCst);
    }

    fn accounted(&self) -> bool {
        let produced = self.produced.load(Ordering::SeqCst);
        let processed = self.processed.load(Ordering::SeqCst);
        let dropped = self.dropped.load(Ordering::SeqCst);
        produced == processed + dropped
    }
}

/// Runtime-wide fault and supervision counters, snapshot into
/// [`FaultReport`].
#[derive(Default)]
struct FaultCounters {
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    workers_lost: AtomicU64,
    rejected_windows: AtomicU64,
    watchdog_sheds: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_closes: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultReport {
        FaultReport {
            worker_panics: self.worker_panics.load(Ordering::SeqCst),
            worker_restarts: self.worker_restarts.load(Ordering::SeqCst),
            workers_lost: self.workers_lost.load(Ordering::SeqCst),
            rejected_windows: self.rejected_windows.load(Ordering::SeqCst),
            watchdog_sheds: self.watchdog_sheds.load(Ordering::SeqCst),
            breaker_trips: self.breaker_trips.load(Ordering::SeqCst),
            breaker_closes: self.breaker_closes.load(Ordering::SeqCst),
        }
    }
}

/// Classify-stage hot-path counters, shared by all classify workers and
/// snapshot into [`ClassifyReport`].
#[derive(Default)]
struct ClassifyCounters {
    windows: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    scratch_allocs: AtomicU64,
    scratch_reuses: AtomicU64,
    /// Completed classify windows per family, indexed by
    /// [`ClassifierKind::rung`].
    family_windows: [AtomicU64; 4],
}

impl ClassifyCounters {
    fn snapshot(&self) -> ClassifyReport {
        ClassifyReport {
            windows: self.windows.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            max_batch: self.max_batch.load(Ordering::SeqCst),
            scratch_allocs: self.scratch_allocs.load(Ordering::SeqCst),
            scratch_reuses: self.scratch_reuses.load(Ordering::SeqCst),
            family_windows: std::array::from_fn(|i| self.family_windows[i].load(Ordering::SeqCst)),
        }
    }
}

/// Registered observability handles for the whole runtime (shared across
/// sessions — series aggregate rather than explode per session). Present
/// only when [`RuntimeBuilder::metrics`] supplied a registry; every update
/// is a relaxed atomic op, so the warm path stays allocation-free.
struct RtMetrics {
    /// Clock the stage spans time against (same source as latency
    /// accounting, so virtual-clock tests see deterministic spans).
    clock: Arc<dyn Clock>,
    feature_latency: Arc<Histogram>,
    classify_latency: Arc<Histogram>,
    control_latency: Arc<Histogram>,
    actuate_latency: Arc<Histogram>,
    e2e_latency: Arc<Histogram>,
    submitted: Arc<ObsCounter>,
    processed: Arc<ObsCounter>,
    dropped: Arc<ObsCounter>,
    misses: Arc<ObsCounter>,
    degradations: Arc<ObsCounter>,
    recoveries: Arc<ObsCounter>,
    batch_size: Arc<Histogram>,
    /// Per-family classify completions, indexed by
    /// [`ClassifierKind::rung`] (one labelled series per rung of the
    /// degradation ladder).
    classify_family: [Arc<ObsCounter>; 4],
    /// Classify windows that ran the quantized int8 path (neural families
    /// at [`Precision::Int8`] plus every integer-only HDC window).
    int8_windows: Arc<ObsCounter>,
    scratch_allocs: Arc<ObsCounter>,
    scratch_reuses: Arc<ObsCounter>,
    worker_panics: Arc<ObsCounter>,
    worker_restarts: Arc<ObsCounter>,
    workers_lost: Arc<ObsCounter>,
    rejected_windows: Arc<ObsCounter>,
    watchdog_sheds: Arc<ObsCounter>,
    breaker_trips: Arc<ObsCounter>,
    breaker_closes: Arc<ObsCounter>,
    breakers_open: Arc<affect_obs::Gauge>,
}

impl RtMetrics {
    fn register(registry: &MetricsRegistry, clock: Arc<dyn Clock>) -> Self {
        let stage_latency = |stage: &str| {
            registry.histogram(
                "affect_rt_stage_latency_ns",
                "per-window time spent inside one pipeline stage",
                &[("stage", stage)],
            )
        };
        Self {
            clock,
            feature_latency: stage_latency("feature"),
            classify_latency: stage_latency("classify"),
            control_latency: stage_latency("control"),
            actuate_latency: stage_latency("actuate"),
            e2e_latency: registry.histogram(
                "affect_rt_e2e_latency_ns",
                "submit-to-actuate latency per processed window",
                &[],
            ),
            submitted: registry.counter(
                "affect_rt_windows_submitted_total",
                "windows offered to the runtime across all sessions",
                &[],
            ),
            processed: registry.counter(
                "affect_rt_windows_processed_total",
                "windows that survived the full pipeline",
                &[],
            ),
            dropped: registry.counter(
                "affect_rt_windows_dropped_total",
                "windows shed by overflow policy, decimation or errors",
                &[],
            ),
            misses: registry.counter(
                "affect_rt_deadline_misses_total",
                "processed windows that exceeded the deadline budget",
                &[],
            ),
            degradations: registry.counter(
                "affect_rt_degradations_total",
                "degradation steps taken (family fallback / interval widen)",
                &[],
            ),
            recoveries: registry.counter(
                "affect_rt_recoveries_total",
                "recovery steps taken after sustained on-time windows",
                &[],
            ),
            batch_size: registry.histogram(
                "affect_rt_classify_batch_size",
                "windows drained per classify-worker wakeup",
                &[],
            ),
            classify_family: ClassifierKind::LADDER.map(|kind| {
                registry.counter(
                    "affect_rt_classify_family_total",
                    "classify windows completed, per classifier family",
                    &[("family", kind.name())],
                )
            }),
            int8_windows: registry.counter(
                "affect_rt_classify_int8_windows_total",
                "classify windows that ran the quantized int8 inference path",
                &[],
            ),
            scratch_allocs: registry.counter(
                "affect_rt_scratch_allocs_total",
                "scratch-arena buffer allocations during inference",
                &[],
            ),
            scratch_reuses: registry.counter(
                "affect_rt_scratch_reuses_total",
                "scratch-arena buffer reuses during inference",
                &[],
            ),
            worker_panics: registry.counter(
                "affect_rt_worker_panics_total",
                "worker panics caught by per-window supervision",
                &[],
            ),
            worker_restarts: registry.counter(
                "affect_rt_worker_restarts_total",
                "panics a worker survived and resumed after (with backoff)",
                &[],
            ),
            workers_lost: registry.counter(
                "affect_rt_workers_lost_total",
                "workers retired after exhausting their restart budget",
                &[],
            ),
            rejected_windows: registry.counter(
                "affect_rt_rejected_windows_total",
                "windows refused for non-finite samples at the feature stage",
                &[],
            ),
            watchdog_sheds: registry.counter(
                "affect_rt_watchdog_sheds_total",
                "windows force-drained from stalled queues by the watchdog",
                &[],
            ),
            breaker_trips: registry.counter(
                "affect_rt_breaker_trips_total",
                "classify circuit-breaker trips (session pinned to its floor family)",
                &[],
            ),
            breaker_closes: registry.counter(
                "affect_rt_breaker_closes_total",
                "circuit breakers closed again after a successful probe",
                &[],
            ),
            breakers_open: registry.gauge(
                "affect_rt_breakers_open",
                "sessions whose classify circuit breaker is currently open",
                &[],
            ),
        }
    }
}

/// Builds one stage queue, wiring in the `affect_rt_queue_*` series when a
/// registry is attached.
fn make_ring<T>(
    registry: Option<&MetricsRegistry>,
    capacity: usize,
    policy: OverflowPolicy,
    stage: &str,
) -> Ring<T> {
    match registry {
        Some(r) => Ring::with_metrics(capacity, policy, ring_metrics(r, stage)),
        None => Ring::new(capacity, policy),
    }
}

/// Registers the `affect_rt_queue_*` series for one stage's ring.
fn ring_metrics(registry: &MetricsRegistry, stage: &str) -> RingMetrics {
    RingMetrics {
        pushed: registry.counter(
            "affect_rt_queue_pushed_total",
            "messages accepted into a stage queue",
            &[("stage", stage)],
        ),
        popped: registry.counter(
            "affect_rt_queue_popped_total",
            "messages handed to a stage's consumers",
            &[("stage", stage)],
        ),
        shed: registry.counter(
            "affect_rt_queue_shed_total",
            "messages shed by the stage queue's overflow policy",
            &[("stage", stage)],
        ),
        depth: registry.gauge(
            "affect_rt_queue_depth",
            "current queue depth of a stage",
            &[("stage", stage)],
        ),
    }
}

/// Type-erased view of one stage queue, so a single watchdog thread can
/// monitor queues of four different message types.
trait WatchedQueue: Send + Sync {
    fn popped(&self) -> u64;
    fn depth(&self) -> usize;
    /// Drains everything currently queued, returning the owning session of
    /// each drained message.
    fn drain_sessions(&self) -> Vec<usize>;
}

struct WatchedRing<T> {
    ring: Arc<Ring<T>>,
    session_of: fn(&T) -> usize,
}

impl<T: Send> WatchedQueue for WatchedRing<T> {
    fn popped(&self) -> u64 {
        self.ring.snapshot().popped
    }

    fn depth(&self) -> usize {
        self.ring.depth()
    }

    fn drain_sessions(&self) -> Vec<usize> {
        let mut sessions = Vec::new();
        while let Some(msg) = self.ring.try_pop() {
            sessions.push((self.session_of)(&msg));
        }
        sessions
    }
}

/// Wakes `wait_idle` whenever any accounting counter moves.
struct Progress {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn new() -> Self {
        Self {
            generation: Mutex::new(0),
            changed: Condvar::new(),
        }
    }

    fn bump(&self) {
        *self.generation.lock().expect("progress lock poisoned") += 1;
        self.changed.notify_all();
    }
}

struct IngestMsg {
    session: usize,
    seq: u64,
    arrival_ns: u64,
    samples: Vec<f32>,
}

struct ClassifyMsg {
    session: usize,
    seq: u64,
    arrival_ns: u64,
    family: ClassifierKind,
    /// The session's inference precision, stamped alongside the family so
    /// the classify worker picks the matching pool entry.
    precision: Precision,
    features: Tensor,
}

struct ControlMsg {
    session: usize,
    seq: u64,
    arrival_ns: u64,
    emotion: Option<Emotion>,
}

struct ActuateMsg {
    session: usize,
    seq: u64,
    arrival_ns: u64,
    events: Vec<ControlEvent>,
}

/// Everything a run leaves behind after [`Runtime::shutdown`].
pub struct ShutdownOutcome {
    /// The final statistics snapshot.
    pub report: RuntimeReport,
    /// Each session's actuator, in session order, for inspection.
    pub actuators: Vec<Box<dyn Actuator>>,
}

/// Registers sessions and starts the [`Runtime`].
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    clock: Arc<dyn Clock>,
    /// One entry per session, in registration order: its actuator, family
    /// ceiling and inference precision.
    sessions: Vec<(Box<dyn Actuator>, ClassifierKind, Precision)>,
    registry: Option<Arc<MetricsRegistry>>,
    fault_hook: Option<Arc<dyn FaultHook>>,
    memory_budget: Option<Arc<MemoryBudget>>,
}

impl RuntimeBuilder {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] for zero worker counts,
    /// windows shorter than an analysis frame, or zero budgets/streaks.
    pub fn new(config: RuntimeConfig) -> Result<Self, AffectError> {
        config.validate()?;
        Ok(Self {
            config,
            clock: Arc::new(SystemClock::new()),
            sessions: Vec::new(),
            registry: None,
            fault_hook: None,
            memory_budget: None,
        })
    }

    /// Supplies a pre-built (usually shared) [`MemoryBudget`] instead of
    /// the one the runtime would build from
    /// [`RuntimeConfig::memory_budget_bytes`]. A fleet passes one budget to
    /// every shard runtime it owns; a chaos harness keeps a handle so its
    /// fault plan can inject phantom charges.
    pub fn memory_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.memory_budget = Some(budget);
        self
    }

    /// Attaches a fault-injection hook, consulted once per window per
    /// stage. Without one the runtime takes the fault-free fast path (a
    /// `None` check per window). The `affect-fault` crate provides a
    /// deterministic, seeded implementation.
    pub fn fault_hook(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Substitutes the time source (tests use a
    /// [`affect_obs::VirtualClock`]).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Attaches a metrics registry. The runtime registers its
    /// `affect_rt_*` series there at [`RuntimeBuilder::start`] and keeps
    /// them updated from the worker threads; without a registry the
    /// runtime runs exactly as before (the built-in [`RuntimeReport`]
    /// accounting is always on). See `docs/OBSERVABILITY.md` for the
    /// catalogue.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Registers a session with its actuation endpoint; returns the handle
    /// used to submit windows. The session starts at (and recovers up to)
    /// the configured [`RuntimeConfig::initial_family`] and runs at
    /// [`RuntimeConfig::precision`].
    pub fn add_session(&mut self, actuator: Box<dyn Actuator>) -> SessionId {
        self.add_session_with_precision(actuator, self.config.initial_family, self.config.precision)
    }

    /// Registers a session whose classifier family starts at — and never
    /// recovers past — `family`, running its neural windows at
    /// `precision`; both override the runtime-wide defaults. The family is
    /// the per-session QoS knob: a best-effort session pinned at MLP stays
    /// near the bottom of the degradation ladder for its whole life, while
    /// a critical one keeps the full LSTM → CNN → MLP → HDC range. An
    /// [`Precision::Int8`] session runs its neural windows through the
    /// quantized int8 kernels while f32 sessions sharing the same workers
    /// stay bit-exact — the per-session memory/accuracy knob of the paper's
    /// quantization study, applied live.
    pub fn add_session_with_precision(
        &mut self,
        actuator: Box<dyn Actuator>,
        family: ClassifierKind,
        precision: Precision,
    ) -> SessionId {
        self.sessions.push((actuator, family, precision));
        SessionId(self.sessions.len() - 1)
    }

    /// Spawns the worker threads and returns the live runtime.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] when no session was
    /// added, and propagates feature-pipeline or model build errors (the
    /// models are trial-built here so failures surface on the caller's
    /// thread, not inside a worker).
    pub fn start(self) -> Result<Runtime, AffectError> {
        if self.sessions.is_empty() {
            return Err(AffectError::InvalidParameter {
                name: "sessions",
                reason: "add_session must be called at least once",
            });
        }
        let config = self.config;
        let pipeline = FeaturePipeline::new(config.feature.clone())?;
        let models = config.model_configs(&pipeline);
        let flat_dim = pipeline.flat_dim();
        let labels: Vec<String> = Emotion::ALL.iter().map(|e| e.name().to_string()).collect();
        for model in &models {
            AffectClassifier::from_config(model, labels.clone(), config.model_seed)?;
        }
        AffectClassifier::hdc(flat_dim, labels.clone(), config.model_seed)?;

        let floor = config.effective_floor();
        let (actuators, sessions): (Vec<Box<dyn Actuator>>, Vec<SessionState>) = self
            .sessions
            .into_iter()
            .map(|(actuator, family, precision)| {
                (actuator, SessionState::new(family, floor, precision))
            })
            .unzip();
        let sessions = Arc::new(sessions);
        // Int8 pool entries are only built when some session can use them.
        let need_int8 = sessions.iter().any(|s| s.precision == Precision::Int8);
        let progress = Arc::new(Progress::new());
        let fault_counters = Arc::new(FaultCounters::default());
        let fault_hook = self.fault_hook.clone();
        let metrics: Option<Arc<RtMetrics>> = self
            .registry
            .as_ref()
            .map(|r| Arc::new(RtMetrics::register(r, Arc::clone(&self.clock))));
        // `add`, not `set`: the shards of a fleet share one registry, and
        // so one instrument per name.
        if let Some(r) = &self.registry {
            r.gauge("affect_rt_sessions", "registered sessions", &[])
                .add(sessions.len() as i64);
        }
        let mem: Arc<MemoryBudget> = match self.memory_budget {
            Some(budget) => budget,
            None => {
                let budget = MemoryBudget::new(config.memory_budget_bytes);
                Arc::new(match &self.registry {
                    Some(r) => budget.with_metrics(r),
                    None => budget,
                })
            }
        };
        let registry = self.registry.as_deref();
        let ingest: Arc<Ring<IngestMsg>> = Arc::new(make_ring(
            registry,
            config.ingest.capacity,
            config.ingest.policy,
            "ingest",
        ));
        let classify: Arc<Ring<ClassifyMsg>> = Arc::new(make_ring(
            registry,
            config.classify.capacity,
            config.classify.policy,
            "classify",
        ));
        let control: Arc<Ring<ControlMsg>> = Arc::new(make_ring(
            registry,
            config.control.capacity,
            config.control.policy,
            "control",
        ));
        let actuate: Arc<Ring<ActuateMsg>> = Arc::new(make_ring(
            registry,
            config.actuate_capacity,
            OverflowPolicy::Block,
            "actuate",
        ));
        // Ring bytes are fixed at construction: capacity × slot size, the
        // ingest slots widened by the window payload (each queued IngestMsg
        // owns a `window_samples` f32 buffer) and the classify slots by the
        // flat feature vector. Released at shutdown.
        let ring_bytes = (config.ingest.capacity
            * (std::mem::size_of::<IngestMsg>()
                + config.window_samples * std::mem::size_of::<f32>())
            + config.classify.capacity
                * (std::mem::size_of::<ClassifyMsg>() + flat_dim * std::mem::size_of::<f32>())
            + config.control.capacity * std::mem::size_of::<ControlMsg>()
            + config.actuate_capacity * std::mem::size_of::<ActuateMsg>())
            as u64;
        mem.charge(MemConsumer::RingQueues, ring_bytes);

        let mut feature_workers = Vec::with_capacity(config.workers);
        let feature_live = Arc::new(AtomicUsize::new(config.workers));
        for _ in 0..config.workers {
            let ingest = Arc::clone(&ingest);
            let classify = Arc::clone(&classify);
            let sessions = Arc::clone(&sessions);
            let progress = Arc::clone(&progress);
            let metrics = metrics.clone();
            let feature = config.feature.clone();
            let hook = fault_hook.clone();
            let faults = Arc::clone(&fault_counters);
            let live = Arc::clone(&feature_live);
            let supervision = config.supervision;
            feature_workers.push(std::thread::spawn(move || {
                let mut pipeline =
                    FeaturePipeline::new(feature).expect("config validated before spawn");
                let mut consecutive_panics = 0u32;
                let mut panics_survived = 0u32;
                while let Some(msg) = ingest.pop() {
                    let session = msg.session;
                    let action = match &hook {
                        Some(h) => h.inject(Stage::Feature, session, msg.seq),
                        None => FaultAction::None,
                    };
                    if action == FaultAction::DropWindow {
                        drop_window(&sessions, session, &progress, metrics.as_deref());
                        continue;
                    }
                    if let FaultAction::DelayNs(ns) = action {
                        std::thread::sleep(Duration::from_nanos(ns));
                    }
                    // The NaN gate: a sensor fault costs exactly this
                    // window, never the session — rejected before the
                    // feature pipeline can smear non-finite values into
                    // state shared across windows.
                    if msg.samples.iter().any(|s| !s.is_finite()) {
                        faults.rejected_windows.fetch_add(1, Ordering::SeqCst);
                        if let Some(m) = &metrics {
                            m.rejected_windows.inc();
                        }
                        drop_window(&sessions, session, &progress, metrics.as_deref());
                        continue;
                    }
                    // Per-window unwind boundary: a panic (injected or
                    // organic) loses only this window.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if action == FaultAction::Panic {
                            std::panic::panic_any(InjectedPanic);
                        }
                        let span = metrics
                            .as_ref()
                            .map(|m| Span::enter(&m.feature_latency, &*m.clock));
                        let family = sessions[session].family();
                        let features = match family {
                            ClassifierKind::Mlp | ClassifierKind::Hdc => {
                                pipeline.extract_flat(&msg.samples)
                            }
                            ClassifierKind::Cnn => pipeline.extract_strip(&msg.samples),
                            ClassifierKind::Lstm => pipeline.extract_sequence(&msg.samples),
                        };
                        drop(span);
                        features.map(|features| ClassifyMsg {
                            session: msg.session,
                            seq: msg.seq,
                            arrival_ns: msg.arrival_ns,
                            family,
                            precision: sessions[session].precision,
                            features,
                        })
                    }));
                    match outcome {
                        Ok(Ok(out)) => {
                            consecutive_panics = 0;
                            offer(
                                &classify,
                                out,
                                |m| m.session,
                                &sessions,
                                &progress,
                                metrics.as_deref(),
                            );
                        }
                        Ok(Err(_)) => {
                            consecutive_panics = 0;
                            drop_window(&sessions, session, &progress, metrics.as_deref());
                        }
                        Err(_panic) => {
                            drop_window(&sessions, session, &progress, metrics.as_deref());
                            consecutive_panics += 1;
                            panics_survived += 1;
                            if !survive_panic(
                                &faults,
                                metrics.as_deref(),
                                &supervision,
                                consecutive_panics,
                                panics_survived,
                            ) {
                                break;
                            }
                        }
                    }
                }
                // Last worker out (retired or shutdown) closes and drains
                // the queue so blocked producers wake and nothing queued
                // is silently lost.
                if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                    ingest.close();
                    while let Some(m) = ingest.try_pop() {
                        drop_window(&sessions, m.session, &progress, metrics.as_deref());
                    }
                }
            }));
        }

        let classify_counters = Arc::new(ClassifyCounters::default());
        let mut classify_workers = Vec::with_capacity(config.workers);
        let classify_live = Arc::new(AtomicUsize::new(config.workers));
        for _ in 0..config.workers {
            let classify = Arc::clone(&classify);
            let control = Arc::clone(&control);
            let sessions = Arc::clone(&sessions);
            let progress = Arc::clone(&progress);
            let counters = Arc::clone(&classify_counters);
            let metrics = metrics.clone();
            let models = models.clone();
            let batch_limit = config.classify_batch;
            let seed = config.model_seed;
            let labels = labels.clone();
            let hook = fault_hook.clone();
            let faults = Arc::clone(&fault_counters);
            let live = Arc::clone(&classify_live);
            let supervision = config.supervision;
            let mem = Arc::clone(&mem);
            classify_workers.push(std::thread::spawn(move || {
                // Models are not Send; build this worker's own pool of all
                // four families (identical across workers by seed), keyed
                // by (family, precision). Int8 variants are built only when
                // some session runs quantized; the single HDC instance is
                // integer-only and serves every precision. The pool's
                // tables are resident for the worker's whole life: the
                // neural families' parameters (4 bytes each at f32, 1 at
                // int8) plus the HDC bound/prototype tables.
                let mut pool: HashMap<(ClassifierKind, Precision), AffectClassifier> =
                    HashMap::new();
                let mut table_bytes = 0u64;
                for model in &models {
                    let clf = AffectClassifier::from_config(model, labels.clone(), seed)
                        .expect("trial-built before spawn");
                    pool.insert((clf.family(), Precision::F32), clf);
                    table_bytes += (model.param_count() * std::mem::size_of::<f32>()) as u64;
                    if need_int8 {
                        let mut clf = AffectClassifier::from_config(model, labels.clone(), seed)
                            .expect("trial-built before spawn");
                        clf.set_precision(Precision::Int8)
                            .expect("fresh models always quantize");
                        pool.insert((clf.family(), Precision::Int8), clf);
                        table_bytes += model.param_count() as u64;
                    }
                }
                let mut hdc = AffectClassifier::hdc(flat_dim, labels.clone(), seed)
                    .expect("trial-built before spawn");
                if let Some(h) = hdc.hdc_mut() {
                    table_bytes += h.storage_bytes() as u64;
                }
                mem.charge(MemConsumer::ModelTables, table_bytes);
                pool.insert(pool_key(ClassifierKind::Hdc, Precision::Int8), hdc);
                // The worker's persistent inference arena: every forward
                // pass across every family draws its intermediates from
                // here, so steady state runs allocation-free.
                let mut scratch = Scratch::new();
                let mut decision = Decision::default();
                let mut batch: std::collections::VecDeque<ClassifyMsg> =
                    std::collections::VecDeque::with_capacity(batch_limit);
                let mut consecutive_panics = 0u32;
                let mut panics_survived = 0u32;
                let mut last_allocs = 0u64;
                let mut last_reuses = 0u64;
                let mut last_scratch_bytes = 0u64;
                'pool: while let Some(msg) = classify.pop() {
                    // Under memory pressure the batching window collapses
                    // to 1: the worker stops hoarding queued windows, so
                    // peak in-flight feature tensors shrink while the
                    // ladder machinery catches up. One atomic load per
                    // wakeup.
                    let batch_limit = if mem.band() >= PressureBand::Yellow {
                        1
                    } else {
                        batch_limit
                    };
                    // Batching window: after the blocking pop, drain
                    // whatever else is already queued (up to the limit) so
                    // one wakeup amortises over several windows. The batch
                    // buffer lives *outside* the unwind boundary below, so
                    // a panic mid-batch never loses the rest of the drain.
                    batch.push_back(msg);
                    while batch.len() < batch_limit {
                        match classify.try_pop() {
                            Some(next) => batch.push_back(next),
                            None => break,
                        }
                    }
                    counters.batches.fetch_add(1, Ordering::SeqCst);
                    counters
                        .max_batch
                        .fetch_max(batch.len() as u64, Ordering::SeqCst);
                    if let Some(m) = &metrics {
                        m.batch_size.record(batch.len() as u64);
                    }
                    while let Some(msg) = batch.pop_front() {
                        let session = msg.session;
                        let family = msg.family;
                        let precision = pool_key(msg.family, msg.precision).1;
                        let action = match &hook {
                            Some(h) => h.inject(Stage::Classify, session, msg.seq),
                            None => FaultAction::None,
                        };
                        if action == FaultAction::DropWindow {
                            drop_window(&sessions, session, &progress, metrics.as_deref());
                            continue;
                        }
                        if let FaultAction::DelayNs(ns) = action {
                            std::thread::sleep(Duration::from_nanos(ns));
                        }
                        // Per-window unwind boundary. The scratch arena and
                        // decision buffer are plain reusable buffers — safe
                        // to keep using after an unwind.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            if action == FaultAction::Panic {
                                std::panic::panic_any(InjectedPanic);
                            }
                            let span = metrics
                                .as_ref()
                                .map(|m| Span::enter(&m.classify_latency, &*m.clock));
                            let clf = pool
                                .get_mut(&pool_key(msg.family, msg.precision))
                                .expect("all families pooled");
                            let result = clf.classify_with(
                                msg.features.data(),
                                msg.features.shape(),
                                &mut scratch,
                                &mut decision,
                            );
                            drop(span);
                            result.map(|()| ControlMsg {
                                session: msg.session,
                                seq: msg.seq,
                                arrival_ns: msg.arrival_ns,
                                emotion: decision.emotion(),
                            })
                        }));
                        match outcome {
                            Ok(Ok(out)) => {
                                consecutive_panics = 0;
                                counters.windows.fetch_add(1, Ordering::SeqCst);
                                counters.family_windows[family.rung()]
                                    .fetch_add(1, Ordering::SeqCst);
                                if let Some(m) = &metrics {
                                    m.classify_family[family.rung()].inc();
                                    if precision == Precision::Int8 {
                                        m.int8_windows.inc();
                                    }
                                }
                                breaker_on_success(
                                    &sessions[session],
                                    family,
                                    &faults,
                                    metrics.as_deref(),
                                );
                                offer(
                                    &control,
                                    out,
                                    |m| m.session,
                                    &sessions,
                                    &progress,
                                    metrics.as_deref(),
                                );
                            }
                            Ok(Err(_)) => {
                                consecutive_panics = 0;
                                counters.windows.fetch_add(1, Ordering::SeqCst);
                                breaker_on_failure(
                                    &sessions[session],
                                    supervision.breaker_threshold,
                                    &faults,
                                    metrics.as_deref(),
                                );
                                drop_window(&sessions, session, &progress, metrics.as_deref());
                            }
                            Err(_panic) => {
                                drop_window(&sessions, session, &progress, metrics.as_deref());
                                consecutive_panics += 1;
                                panics_survived += 1;
                                if !survive_panic(
                                    &faults,
                                    metrics.as_deref(),
                                    &supervision,
                                    consecutive_panics,
                                    panics_survived,
                                ) {
                                    // Retiring mid-batch: account the rest
                                    // of the drained batch before leaving.
                                    for rest in batch.drain(..) {
                                        drop_window(
                                            &sessions,
                                            rest.session,
                                            &progress,
                                            metrics.as_deref(),
                                        );
                                    }
                                    break 'pool;
                                }
                            }
                        }
                    }
                    let allocs = scratch.alloc_events();
                    let reuses = scratch.reuse_events();
                    counters
                        .scratch_allocs
                        .fetch_add(allocs - last_allocs, Ordering::SeqCst);
                    counters
                        .scratch_reuses
                        .fetch_add(reuses - last_reuses, Ordering::SeqCst);
                    if let Some(m) = &metrics {
                        m.scratch_allocs.add(allocs - last_allocs);
                        m.scratch_reuses.add(reuses - last_reuses);
                    }
                    // Re-measure the arena only when it actually grew (an
                    // acquire allocated a fresh buffer), i.e. during
                    // warm-up — a steady-state batch pays nothing here.
                    if allocs != last_allocs {
                        let bytes = scratch.pooled_bytes() as u64;
                        if bytes > last_scratch_bytes {
                            mem.charge(MemConsumer::ScratchPools, bytes - last_scratch_bytes);
                        }
                        last_scratch_bytes = bytes;
                    }
                    last_allocs = allocs;
                    last_reuses = reuses;
                }
                mem.release(MemConsumer::ScratchPools, last_scratch_bytes);
                mem.release(MemConsumer::ModelTables, table_bytes);
                if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                    classify.close();
                    while let Some(m) = classify.try_pop() {
                        drop_window(&sessions, m.session, &progress, metrics.as_deref());
                    }
                }
            }));
        }

        let control_worker = {
            let control = Arc::clone(&control);
            let actuate = Arc::clone(&actuate);
            let sessions = Arc::clone(&sessions);
            let progress = Arc::clone(&progress);
            let policy = config.policy.clone();
            let smoothing = config.smoothing_window;
            let metrics = metrics.clone();
            let n_sessions = sessions.len();
            let hook = fault_hook.clone();
            std::thread::spawn(move || {
                let mut controllers: Vec<SystemController> = (0..n_sessions)
                    .map(|_| SystemController::new(policy.clone(), smoothing))
                    .collect();
                while let Some(msg) = control.pop() {
                    // Single-threaded stage: `Panic` degrades to a drop —
                    // losing the only control worker would wedge the
                    // pipeline rather than exercise recovery.
                    if let Some(h) = &hook {
                        match h.inject(Stage::Control, msg.session, msg.seq) {
                            FaultAction::None => {}
                            FaultAction::DelayNs(ns) => {
                                std::thread::sleep(Duration::from_nanos(ns));
                            }
                            FaultAction::DropWindow | FaultAction::Panic => {
                                drop_window(&sessions, msg.session, &progress, metrics.as_deref());
                                continue;
                            }
                        }
                    }
                    let span = metrics
                        .as_ref()
                        .map(|m| Span::enter(&m.control_latency, &*m.clock));
                    let events = match msg.emotion {
                        Some(emotion) => controllers[msg.session]
                            .observe_emotion(emotion)
                            .unwrap_or_default(),
                        None => Vec::new(),
                    };
                    drop(span);
                    let out = ActuateMsg {
                        session: msg.session,
                        seq: msg.seq,
                        arrival_ns: msg.arrival_ns,
                        events,
                    };
                    offer(
                        &actuate,
                        out,
                        |m| m.session,
                        &sessions,
                        &progress,
                        metrics.as_deref(),
                    );
                }
            })
        };

        let pressure_degradations = Arc::new(AtomicU64::new(0));
        let actuate_worker = {
            let actuate = Arc::clone(&actuate);
            let sessions = Arc::clone(&sessions);
            let progress = Arc::clone(&progress);
            let clock = Arc::clone(&self.clock);
            let metrics = metrics.clone();
            let mut actuators = actuators;
            let deadline = config.deadline_ns;
            let miss_streak_limit = config.miss_streak;
            let ok_streak_limit = config.ok_streak;
            let degraded_interval = config.degraded_interval;
            let hook = fault_hook.clone();
            let mem = Arc::clone(&mem);
            let pressure_degradations = Arc::clone(&pressure_degradations);
            std::thread::spawn(move || {
                let mut miss_streaks = vec![0u32; actuators.len()];
                let mut ok_streaks = vec![0u32; actuators.len()];
                while let Some(msg) = actuate.pop() {
                    if let Some(h) = &hook {
                        match h.inject(Stage::Actuate, msg.session, msg.seq) {
                            FaultAction::None => {}
                            FaultAction::DelayNs(ns) => {
                                std::thread::sleep(Duration::from_nanos(ns));
                            }
                            FaultAction::DropWindow | FaultAction::Panic => {
                                drop_window(&sessions, msg.session, &progress, metrics.as_deref());
                                continue;
                            }
                        }
                    }
                    let span = metrics
                        .as_ref()
                        .map(|m| Span::enter(&m.actuate_latency, &*m.clock));
                    let actuator = &mut actuators[msg.session];
                    // The hook runs before latency is read so a gated test
                    // actuator can hold the window while a virtual clock
                    // advances — the measured latency is then exact.
                    actuator.on_window(msg.seq);
                    let now = clock.now_nanos();
                    for event in msg.events {
                        actuator.actuate(event, now);
                    }
                    let state = &sessions[msg.session];
                    let latency = now.saturating_sub(msg.arrival_ns);
                    state.latency.record(latency);
                    if let Some(m) = &metrics {
                        m.e2e_latency.record(latency);
                    }
                    let missed = latency > deadline;
                    if missed {
                        state.misses.fetch_add(1, Ordering::SeqCst);
                        if let Some(m) = &metrics {
                            m.misses.inc();
                        }
                    }
                    // Memory pressure is a second degradation trigger
                    // beside the deadline: a Yellow-or-worse band feeds the
                    // same miss/ok-streak machinery, so sustained pressure
                    // walks the session down the ladder and a Green band
                    // lets it climb back. One atomic load per window.
                    let pressured = mem.band() >= PressureBand::Yellow;
                    if missed || pressured {
                        ok_streaks[msg.session] = 0;
                        miss_streaks[msg.session] += 1;
                        if miss_streaks[msg.session] >= miss_streak_limit {
                            miss_streaks[msg.session] = 0;
                            if degrade(state, degraded_interval) {
                                if !missed {
                                    pressure_degradations.fetch_add(1, Ordering::SeqCst);
                                }
                                if let Some(m) = &metrics {
                                    m.degradations.inc();
                                }
                            }
                        }
                    } else {
                        miss_streaks[msg.session] = 0;
                        ok_streaks[msg.session] += 1;
                        if ok_streaks[msg.session] >= ok_streak_limit {
                            ok_streaks[msg.session] = 0;
                            if recover(state) {
                                if let Some(m) = &metrics {
                                    m.recoveries.inc();
                                }
                            }
                        }
                    }
                    state.processed.fetch_add(1, Ordering::SeqCst);
                    if let Some(m) = &metrics {
                        m.processed.inc();
                    }
                    drop(span);
                    progress.bump();
                }
                actuators
            })
        };

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog_worker = config.watchdog.map(|wcfg| {
            let views: Vec<Box<dyn WatchedQueue>> = vec![
                Box::new(WatchedRing {
                    ring: Arc::clone(&ingest),
                    session_of: |m: &IngestMsg| m.session,
                }),
                Box::new(WatchedRing {
                    ring: Arc::clone(&classify),
                    session_of: |m: &ClassifyMsg| m.session,
                }),
                Box::new(WatchedRing {
                    ring: Arc::clone(&control),
                    session_of: |m: &ControlMsg| m.session,
                }),
                Box::new(WatchedRing {
                    ring: Arc::clone(&actuate),
                    session_of: |m: &ActuateMsg| m.session,
                }),
            ];
            let sessions = Arc::clone(&sessions);
            let progress = Arc::clone(&progress);
            let metrics = metrics.clone();
            let faults = Arc::clone(&fault_counters);
            let stop = Arc::clone(&watchdog_stop);
            std::thread::spawn(move || {
                // Per queue: pop count at the last poll, and how many
                // consecutive polls it sat non-empty without popping.
                let mut last: Vec<(u64, u32)> = vec![(0, 0); views.len()];
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(wcfg.poll_ms));
                    for (view, (last_popped, stalled)) in views.iter().zip(last.iter_mut()) {
                        let popped = view.popped();
                        if view.depth() > 0 && popped == *last_popped {
                            *stalled += 1;
                            if *stalled >= wcfg.stall_polls {
                                *stalled = 0;
                                for session in view.drain_sessions() {
                                    faults.watchdog_sheds.fetch_add(1, Ordering::SeqCst);
                                    if let Some(m) = &metrics {
                                        m.watchdog_sheds.inc();
                                    }
                                    drop_window(&sessions, session, &progress, metrics.as_deref());
                                }
                            }
                        } else {
                            *stalled = 0;
                        }
                        *last_popped = popped;
                    }
                }
            })
        });

        Ok(Runtime {
            config,
            clock: self.clock,
            sessions,
            progress,
            metrics,
            fault_hook,
            fault_counters,
            ingest,
            classify,
            control,
            actuate,
            classify_counters,
            feature_workers,
            classify_workers,
            control_worker,
            actuate_worker,
            watchdog_worker,
            watchdog_stop,
            mem,
            ring_bytes,
            pressure_degradations,
        })
    }
}

/// One degradation step: fall back one model family *and* widen the
/// decision interval (the paper's two load-shedding axes at once). The
/// family never falls below the session's floor (by default the HDC rung;
/// raised by [`RuntimeConfig::floor_family`] / [`RuntimeConfig::min_accuracy`]).
/// Returns whether anything actually changed.
fn degrade(state: &SessionState, degraded_interval: u32) -> bool {
    let mut changed = false;
    if let Some(simpler) = state.family().fallback() {
        if simpler.rung() >= state.floor.rung() {
            state.set_family(simpler);
            changed = true;
        }
    }
    if state.interval.load(Ordering::SeqCst) < degraded_interval {
        state.interval.store(degraded_interval, Ordering::SeqCst);
        changed = true;
    }
    if changed {
        state.degradations.fetch_add(1, Ordering::SeqCst);
    }
    changed
}

/// One recovery step: first restore the decision interval, then climb the
/// model ladder one family at a time (never past the configured initial).
/// Returns whether anything actually changed.
///
/// The classify circuit breaker rides on this machinery: while a session's
/// breaker is open, a family upgrade is allowed but marks the breaker
/// half-open — the upgraded window becomes the recovery *probe*. A probe
/// that classifies cleanly closes the breaker; one that fails reopens it
/// and re-pins the session's floor family. While a probe is in flight, no
/// further upgrades happen.
fn recover(state: &SessionState) -> bool {
    if state.interval.load(Ordering::SeqCst) > 1 {
        state.interval.store(1, Ordering::SeqCst);
        state.recoveries.fetch_add(1, Ordering::SeqCst);
        return true;
    }
    if state.breaker.load(Ordering::SeqCst) == BREAKER_HALF_OPEN {
        return false;
    }
    if let Some(richer) = state.family().upgrade() {
        if richer.rung() <= state.ceiling.rung() {
            if state.breaker.load(Ordering::SeqCst) == BREAKER_OPEN {
                state.breaker.store(BREAKER_HALF_OPEN, Ordering::SeqCst);
            }
            state.set_family(richer);
            state.recoveries.fetch_add(1, Ordering::SeqCst);
            return true;
        }
    }
    false
}

/// Accounts one window as dropped and wakes `wait_idle`.
fn drop_window(
    sessions: &[SessionState],
    session: usize,
    progress: &Progress,
    metrics: Option<&RtMetrics>,
) {
    sessions[session].dropped.fetch_add(1, Ordering::SeqCst);
    if let Some(m) = metrics {
        m.dropped.inc();
    }
    progress.bump();
}

/// Books one caught worker panic: decides restart (with exponential
/// backoff) versus retirement. Returns `true` when the worker should keep
/// running, `false` when it exhausted its restart budget.
fn survive_panic(
    faults: &FaultCounters,
    metrics: Option<&RtMetrics>,
    supervision: &SupervisionConfig,
    consecutive_panics: u32,
    panics_survived: u32,
) -> bool {
    faults.worker_panics.fetch_add(1, Ordering::SeqCst);
    if let Some(m) = metrics {
        m.worker_panics.inc();
    }
    if panics_survived > supervision.restart_budget {
        faults.workers_lost.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = metrics {
            m.workers_lost.inc();
        }
        return false;
    }
    faults.worker_restarts.fetch_add(1, Ordering::SeqCst);
    if let Some(m) = metrics {
        m.worker_restarts.inc();
    }
    let backoff = supervision.backoff_for(consecutive_panics);
    if backoff > 0 {
        std::thread::sleep(Duration::from_millis(backoff));
    }
    true
}

/// Books one classify failure against a session's circuit breaker,
/// tripping it (family forced to the session's floor) after the configured
/// streak.
fn breaker_on_failure(
    state: &SessionState,
    threshold: u32,
    faults: &FaultCounters,
    metrics: Option<&RtMetrics>,
) {
    match state.breaker.load(Ordering::SeqCst) {
        BREAKER_HALF_OPEN => {
            // The recovery probe failed: reopen and re-pin the floor.
            state.breaker.store(BREAKER_OPEN, Ordering::SeqCst);
            state.set_family(state.floor);
            faults.breaker_trips.fetch_add(1, Ordering::SeqCst);
            if let Some(m) = metrics {
                // The gauge still counts this breaker from the original
                // trip (half-open is "open, probing"), so no `add` here.
                m.breaker_trips.inc();
            }
        }
        BREAKER_CLOSED => {
            let failures = state.breaker_failures.fetch_add(1, Ordering::SeqCst) + 1;
            if failures >= threshold {
                state.breaker_failures.store(0, Ordering::SeqCst);
                state.breaker.store(BREAKER_OPEN, Ordering::SeqCst);
                // Trip straight to the floor of the fallback chain — no
                // stepwise descent while the classifier is demonstrably
                // broken.
                state.set_family(state.floor);
                faults.breaker_trips.fetch_add(1, Ordering::SeqCst);
                if let Some(m) = metrics {
                    m.breaker_trips.inc();
                    m.breakers_open.add(1);
                }
            }
        }
        _ => {} // already open: nothing below the floor to fall to
    }
}

/// Books one classify success: closes a half-open breaker when the probe
/// window (a richer-than-floor family) came through.
fn breaker_on_success(
    state: &SessionState,
    family: ClassifierKind,
    faults: &FaultCounters,
    metrics: Option<&RtMetrics>,
) {
    state.breaker_failures.store(0, Ordering::SeqCst);
    if state.breaker.load(Ordering::SeqCst) == BREAKER_HALF_OPEN
        && family.rung() > state.floor.rung()
    {
        state.breaker.store(BREAKER_CLOSED, Ordering::SeqCst);
        faults.breaker_closes.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = metrics {
            m.breaker_closes.inc();
            m.breakers_open.sub(1);
        }
    }
}

/// Pushes a message downstream, translating every shed outcome into the
/// owning session's `dropped` counter so the accounting invariant holds.
fn offer<T>(
    ring: &Ring<T>,
    msg: T,
    session_of: impl Fn(&T) -> usize,
    sessions: &[SessionState],
    progress: &Progress,
    metrics: Option<&RtMetrics>,
) {
    match ring.push(msg) {
        PushOutcome::Stored => {}
        PushOutcome::Evicted(old) | PushOutcome::Rejected(old) | PushOutcome::Closed(old) => {
            drop_window(sessions, session_of(&old), progress, metrics);
        }
    }
}

/// The live multi-session streaming runtime. Build via [`RuntimeBuilder`].
pub struct Runtime {
    config: RuntimeConfig,
    clock: Arc<dyn Clock>,
    sessions: Arc<Vec<SessionState>>,
    progress: Arc<Progress>,
    metrics: Option<Arc<RtMetrics>>,
    fault_hook: Option<Arc<dyn FaultHook>>,
    fault_counters: Arc<FaultCounters>,
    ingest: Arc<Ring<IngestMsg>>,
    classify: Arc<Ring<ClassifyMsg>>,
    control: Arc<Ring<ControlMsg>>,
    actuate: Arc<Ring<ActuateMsg>>,
    classify_counters: Arc<ClassifyCounters>,
    feature_workers: Vec<JoinHandle<()>>,
    classify_workers: Vec<JoinHandle<()>>,
    control_worker: JoinHandle<()>,
    actuate_worker: JoinHandle<Vec<Box<dyn Actuator>>>,
    watchdog_worker: Option<JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    mem: Arc<MemoryBudget>,
    /// Ring bytes charged at start, released at shutdown.
    ring_bytes: u64,
    /// Degradation steps triggered by memory pressure alone (deadline met).
    pressure_degradations: Arc<AtomicU64>,
}

impl Runtime {
    /// Number of registered sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The configuration the runtime was started with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The classifier family currently in force for a session.
    pub fn session_family(&self, session: SessionId) -> ClassifierKind {
        self.sessions[session.0].family()
    }

    /// The decision interval currently in force for a session.
    pub fn session_interval(&self, session: SessionId) -> u32 {
        self.sessions[session.0].interval.load(Ordering::SeqCst)
    }

    /// Current depth of the ingest queue — the runtime's cheapest
    /// backpressure signal. A fleet's admission layer polls this to shed
    /// best-effort windows *before* they cost a queue slot.
    pub fn ingest_depth(&self) -> usize {
        self.ingest.depth()
    }

    /// Capacity of the ingest queue (denominator for pressure ratios).
    pub fn ingest_capacity(&self) -> usize {
        self.ingest.capacity()
    }

    /// The runtime's memory-budget accountant. A fleet governor polls its
    /// [`PressureBand`] to drive eviction; a chaos harness injects phantom
    /// charges through it.
    pub fn memory_budget(&self) -> &Arc<MemoryBudget> {
        &self.mem
    }

    /// Evicts a session: future [`Runtime::submit`] calls for it become
    /// clean no-ops (returning `false` without producing a window), then
    /// this call blocks until every window it already produced is
    /// accounted (processed or dropped), so the accounting handoff is
    /// exact — the session's final report satisfies
    /// `produced == processed + dropped` with nothing in flight.
    ///
    /// The session's slot (state, controller, actuator) stays registered,
    /// so the final [`RuntimeReport`] includes it and
    /// [`Runtime::readmit_session`] can cheaply bring it back.
    ///
    /// Returns `false` when the session was already evicted.
    pub fn remove_session(&self, session: SessionId) -> bool {
        let state = &self.sessions[session.0];
        if state.evicted.swap(true, Ordering::SeqCst) {
            return false;
        }
        let mut generation = self
            .progress
            .generation
            .lock()
            .expect("progress lock poisoned");
        while !state.accounted() {
            let (next, _timeout) = self
                .progress
                .changed
                .wait_timeout(generation, Duration::from_millis(20))
                .expect("progress lock poisoned");
            generation = next;
        }
        true
    }

    /// Readmits a previously evicted session: its submits flow again, all
    /// counters continuing from where eviction left them. Returns `false`
    /// when the session was not evicted.
    pub fn readmit_session(&self, session: SessionId) -> bool {
        self.sessions[session.0]
            .evicted
            .swap(false, Ordering::SeqCst)
    }

    /// Whether a session is currently evicted.
    pub fn session_evicted(&self, session: SessionId) -> bool {
        self.sessions[session.0].evicted.load(Ordering::SeqCst)
    }

    /// Submits one analysis window for a session. The window is stamped
    /// with the clock's current time as its arrival.
    ///
    /// Returns `true` when the window entered the pipeline; `false` when
    /// it was decimated by a widened decision interval or shed at the
    /// ingest queue (either way it is counted, never lost), or when the
    /// session is currently evicted by the memory-pressure governor (the
    /// window is refused *before* it is produced, so the session's frozen
    /// accounting stays exact — check [`Runtime::session_evicted`] to
    /// distinguish). Under
    /// [`OverflowPolicy::Block`] ingest this call blocks while the queue
    /// is full — that is the backpressure propagating to the producer.
    ///
    /// # Panics
    ///
    /// Panics when `session` did not come from this runtime's builder.
    pub fn submit(&self, session: SessionId, samples: Vec<f32>) -> bool {
        let state = &self.sessions[session.0];
        // An evicted session's windows are refused before they are
        // produced: nothing enters any counter, so the accounting frozen
        // at eviction time stays exact.
        if state.evicted.load(Ordering::SeqCst) {
            return false;
        }
        let seq = state.next_seq.fetch_add(1, Ordering::SeqCst);
        state.produced.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = &self.metrics {
            m.submitted.inc();
        }
        let interval = u64::from(state.interval.load(Ordering::SeqCst).max(1));
        if !seq.is_multiple_of(interval) {
            // Decimated: the widened decision interval sheds this window
            // before it costs any pipeline work.
            drop_window(
                &self.sessions,
                session.0,
                &self.progress,
                self.metrics.as_deref(),
            );
            return false;
        }
        if let Some(h) = &self.fault_hook {
            match h.inject(Stage::Ingest, session.0, seq) {
                FaultAction::None => {}
                FaultAction::DelayNs(ns) => std::thread::sleep(Duration::from_nanos(ns)),
                // Panicking the *producer's* thread is never interesting;
                // at ingest both destructive actions mean "the sensor
                // dropped this window".
                FaultAction::DropWindow | FaultAction::Panic => {
                    drop_window(
                        &self.sessions,
                        session.0,
                        &self.progress,
                        self.metrics.as_deref(),
                    );
                    return false;
                }
            }
        }
        let msg = IngestMsg {
            session: session.0,
            seq,
            arrival_ns: self.clock.now_nanos(),
            samples,
        };
        match self.ingest.push(msg) {
            PushOutcome::Stored => true,
            PushOutcome::Evicted(old) => {
                drop_window(
                    &self.sessions,
                    old.session,
                    &self.progress,
                    self.metrics.as_deref(),
                );
                true
            }
            PushOutcome::Rejected(old) | PushOutcome::Closed(old) => {
                drop_window(
                    &self.sessions,
                    old.session,
                    &self.progress,
                    self.metrics.as_deref(),
                );
                false
            }
        }
    }

    fn all_accounted(&self) -> bool {
        self.sessions.iter().all(SessionState::accounted)
    }

    /// Blocks until every submitted window is accounted for (processed or
    /// dropped), i.e. the pipeline has fully drained.
    pub fn wait_idle(&self) {
        let mut generation = self
            .progress
            .generation
            .lock()
            .expect("progress lock poisoned");
        while !self.all_accounted() {
            // Timed wait: a counter can move between our check and the
            // wait, so never rely on the notification alone.
            let (next, _timeout) = self
                .progress
                .changed
                .wait_timeout(generation, Duration::from_millis(20))
                .expect("progress lock poisoned");
            generation = next;
        }
    }

    /// Snapshots per-session accounting and per-stage queue statistics.
    /// Callable at any time; a post-[`Runtime::wait_idle`] snapshot
    /// satisfies [`RuntimeReport::all_accounted`].
    pub fn report(&self) -> RuntimeReport {
        snapshot_report(
            &self.sessions,
            &self.ingest,
            &self.classify,
            &self.control,
            &self.actuate,
            &self.classify_counters,
            &self.fault_counters,
            &self.mem,
            &self.pressure_degradations,
        )
    }

    /// Stops accepting work, drains the pipeline stage by stage, joins all
    /// workers and returns the final report plus each session's actuator.
    pub fn shutdown(self) -> ShutdownOutcome {
        // Stop the watchdog first so it cannot mistake the staged drain
        // below for a stall and shed in-flight windows.
        self.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog_worker {
            watchdog.join().expect("watchdog panicked");
        }
        // Close upstream first and join before closing the next stage, so
        // in-flight windows drain instead of being cut off mid-pipeline.
        self.ingest.close();
        for worker in self.feature_workers {
            worker.join().expect("feature worker panicked");
        }
        self.classify.close();
        for worker in self.classify_workers {
            worker.join().expect("classify worker panicked");
        }
        self.control.close();
        self.control_worker.join().expect("control worker panicked");
        self.actuate.close();
        let actuators = self.actuate_worker.join().expect("actuate worker panicked");

        let report = snapshot_report(
            &self.sessions,
            &self.ingest,
            &self.classify,
            &self.control,
            &self.actuate,
            &self.classify_counters,
            &self.fault_counters,
            &self.mem,
            &self.pressure_degradations,
        );
        // The report above snapshots usage *with* the rings still charged
        // (that is what the run held); the release happens after.
        self.mem.release(MemConsumer::RingQueues, self.ring_bytes);
        ShutdownOutcome { report, actuators }
    }
}

#[allow(clippy::too_many_arguments)]
fn snapshot_report(
    sessions: &[SessionState],
    ingest: &Ring<IngestMsg>,
    classify: &Ring<ClassifyMsg>,
    control: &Ring<ControlMsg>,
    actuate: &Ring<ActuateMsg>,
    classify_counters: &ClassifyCounters,
    fault_counters: &FaultCounters,
    mem: &MemoryBudget,
    pressure_degradations: &AtomicU64,
) -> RuntimeReport {
    let sessions = sessions
        .iter()
        .enumerate()
        .map(|(index, s)| SessionReport {
            session: index,
            produced: s.produced.load(Ordering::SeqCst),
            processed: s.processed.load(Ordering::SeqCst),
            dropped: s.dropped.load(Ordering::SeqCst),
            deadline_misses: s.misses.load(Ordering::SeqCst),
            degradations: s.degradations.load(Ordering::SeqCst),
            recoveries: s.recoveries.load(Ordering::SeqCst),
            family: s.family(),
            decision_interval: s.interval.load(Ordering::SeqCst),
            latency: s.latency.snapshot(),
            evicted: s.evicted.load(Ordering::SeqCst),
        })
        .collect();
    let stage = |name: &'static str, stats: crate::ring::RingStats, capacity: usize| StageReport {
        stage: name,
        pushed: stats.pushed,
        popped: stats.popped,
        shed: stats.shed,
        depth_high_water: stats.depth_high_water,
        capacity,
    };
    RuntimeReport {
        sessions,
        stages: vec![
            stage("ingest", ingest.snapshot(), ingest.capacity()),
            stage("classify", classify.snapshot(), classify.capacity()),
            stage("control", control.snapshot(), control.capacity()),
            stage("actuate", actuate.snapshot(), actuate.capacity()),
        ],
        classify: classify_counters.snapshot(),
        faults: fault_counters.snapshot(),
        mem: {
            let mut snapshot = MemReport::snapshot(mem);
            snapshot.pressure_degradations = pressure_degradations.load(Ordering::SeqCst);
            snapshot
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SessionState {
        SessionState::new(ClassifierKind::Lstm, ClassifierKind::Hdc, Precision::F32)
    }

    #[test]
    fn breaker_trips_to_floor_after_threshold_failures() {
        let s = state();
        let faults = FaultCounters::default();
        breaker_on_failure(&s, 3, &faults, None);
        breaker_on_failure(&s, 3, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_CLOSED);
        assert_eq!(s.family(), ClassifierKind::Lstm);
        breaker_on_failure(&s, 3, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_OPEN);
        assert_eq!(s.family(), ClassifierKind::Hdc, "tripped straight to HDC");
        assert_eq!(faults.breaker_trips.load(Ordering::SeqCst), 1);
        // With the floor raised to MLP, the trip pins MLP instead.
        let s = SessionState::new(ClassifierKind::Lstm, ClassifierKind::Mlp, Precision::F32);
        for _ in 0..3 {
            breaker_on_failure(&s, 3, &faults, None);
        }
        assert_eq!(s.family(), ClassifierKind::Mlp);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let s = state();
        let faults = FaultCounters::default();
        breaker_on_failure(&s, 3, &faults, None);
        breaker_on_failure(&s, 3, &faults, None);
        breaker_on_success(&s, ClassifierKind::Lstm, &faults, None);
        breaker_on_failure(&s, 3, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_CLOSED);
    }

    #[test]
    fn recovery_probe_closes_breaker_on_success() {
        let s = state();
        let faults = FaultCounters::default();
        for _ in 0..3 {
            breaker_on_failure(&s, 3, &faults, None);
        }
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_OPEN);
        // The ordinary recovery machinery launches the probe: the family
        // upgrade marks the breaker half-open.
        assert!(recover(&s));
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_HALF_OPEN);
        assert_eq!(s.family(), ClassifierKind::Mlp);
        // No further upgrades while the probe is in flight.
        assert!(!recover(&s));
        // Floor-family (HDC) stragglers still in the pipe must not close
        // the breaker…
        breaker_on_success(&s, ClassifierKind::Hdc, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_HALF_OPEN);
        // …but the probe family succeeding does.
        breaker_on_success(&s, ClassifierKind::Mlp, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_CLOSED);
        assert_eq!(faults.breaker_closes.load(Ordering::SeqCst), 1);
        // With the breaker closed, recovery continues up the ladder.
        assert!(recover(&s));
        assert_eq!(s.family(), ClassifierKind::Cnn);
        assert!(recover(&s));
        assert_eq!(s.family(), ClassifierKind::Lstm);
    }

    #[test]
    fn failed_probe_reopens_and_repins_floor() {
        let s = state();
        let faults = FaultCounters::default();
        for _ in 0..3 {
            breaker_on_failure(&s, 3, &faults, None);
        }
        assert_eq!(s.family(), ClassifierKind::Hdc);
        assert!(recover(&s));
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_HALF_OPEN);
        breaker_on_failure(&s, 3, &faults, None);
        assert_eq!(s.breaker.load(Ordering::SeqCst), BREAKER_OPEN);
        assert_eq!(s.family(), ClassifierKind::Hdc);
        assert_eq!(faults.breaker_trips.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn per_session_ceiling_caps_recovery() {
        // An MLP-ceiling session (a best-effort QoS tier) can still shed
        // load by degrading to the HDC rung below it, then recovers back
        // to — and never past — its ceiling.
        let s = SessionState::new(ClassifierKind::Mlp, ClassifierKind::Hdc, Precision::F32);
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Hdc);
        assert!(recover(&s), "interval restores first");
        assert!(recover(&s), "then the family climbs");
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(!recover(&s), "ceiling reached");
        // A CNN-ceiling session with an MLP floor walks CNN → MLP and
        // stops: the floor blocks the HDC rung.
        let s = SessionState::new(ClassifierKind::Cnn, ClassifierKind::Mlp, Precision::F32);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(
            !degrade(&s, 2),
            "floor blocks the family, interval already wide"
        );
        assert_eq!(s.family(), ClassifierKind::Mlp, "family floor holds");
        assert!(recover(&s), "interval restores first");
        assert!(recover(&s), "then the family climbs");
        assert_eq!(s.family(), ClassifierKind::Cnn);
        assert!(!recover(&s), "ceiling reached");
    }

    #[test]
    fn floor_never_sits_above_the_ceiling() {
        // A session whose ceiling is below the configured floor is pinned
        // at its ceiling rather than hoisted above it.
        let s = SessionState::new(ClassifierKind::Mlp, ClassifierKind::Cnn, Precision::F32);
        assert_eq!(s.floor, ClassifierKind::Mlp);
        assert!(
            !degrade(&s, 1),
            "nothing below the pinned rung at interval 1"
        );
        assert_eq!(s.family(), ClassifierKind::Mlp);
    }

    #[test]
    fn min_accuracy_raises_the_effective_floor() {
        let mut config = RuntimeConfig::default();
        assert_eq!(config.effective_floor(), ClassifierKind::Hdc);
        config.min_accuracy = Some(0.50);
        assert_eq!(config.effective_floor(), ClassifierKind::Hdc);
        config.min_accuracy = Some(0.75);
        assert_eq!(config.effective_floor(), ClassifierKind::Mlp);
        config.min_accuracy = Some(0.82);
        assert_eq!(config.effective_floor(), ClassifierKind::Cnn);
        // An unmeetable bar resolves to the richest family.
        config.min_accuracy = Some(0.99);
        assert_eq!(config.effective_floor(), ClassifierKind::Lstm);
        // An explicit floor_family is never lowered by the accuracy rule.
        config.min_accuracy = Some(0.10);
        config.floor_family = ClassifierKind::Cnn;
        assert_eq!(config.effective_floor(), ClassifierKind::Cnn);
        config.min_accuracy = Some(1.5);
        assert!(config.validate().is_err());
    }

    #[test]
    fn degradation_walks_the_full_ladder_to_hdc() {
        let s = state();
        assert_eq!(s.family(), ClassifierKind::Lstm);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Cnn);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Hdc);
        assert!(!degrade(&s, 2), "HDC is the bottom rung");
        // And all the way back up.
        assert!(recover(&s), "interval");
        for expected in [
            ClassifierKind::Mlp,
            ClassifierKind::Cnn,
            ClassifierKind::Lstm,
        ] {
            assert!(recover(&s));
            assert_eq!(s.family(), expected);
        }
        assert!(!recover(&s), "ceiling reached");
    }

    #[test]
    fn survive_panic_respects_budget_and_counts() {
        let faults = FaultCounters::default();
        let sup = SupervisionConfig {
            restart_budget: 2,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
            breaker_threshold: 3,
        };
        assert!(survive_panic(&faults, None, &sup, 1, 1));
        assert!(survive_panic(&faults, None, &sup, 2, 2));
        assert!(!survive_panic(&faults, None, &sup, 3, 3));
        assert_eq!(faults.worker_panics.load(Ordering::SeqCst), 3);
        assert_eq!(faults.worker_restarts.load(Ordering::SeqCst), 2);
        assert_eq!(faults.workers_lost.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn config_rejects_degenerate_supervision() {
        let mut config = RuntimeConfig {
            supervision: SupervisionConfig {
                breaker_threshold: 0,
                ..SupervisionConfig::default()
            },
            ..RuntimeConfig::default()
        };
        assert!(config.validate().is_err());
        config.supervision = SupervisionConfig::default();
        config.watchdog = Some(WatchdogConfig {
            poll_ms: 0,
            stall_polls: 4,
        });
        assert!(config.validate().is_err());
        config.watchdog = Some(WatchdogConfig::default());
        assert!(config.validate().is_ok());
    }
}
