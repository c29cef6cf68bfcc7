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
//! Inference takes `&mut self` (layers cache activations and draw on a
//! scratch arena), so each classify worker *builds its own* pool at
//! startup — the three
//! scaled neural families (per configured precision) plus the integer-only
//! HDC rung — and dispatches on the family stamped into the window at
//! extraction plus the session's precision; a session's family switch is
//! picked up by whichever worker handles its next window.
//!
//! Each stage is a step function: it takes one window's envelope (session,
//! sequence number, arrival time, payload) and returns the next stage's
//! envelope, or drops the window. One supervised loop drives all four
//! stages: it pops, resolves the fault hook's verdict, runs the step inside
//! the per-window unwind boundary, forwards or accounts the result, and
//! applies the restart budget.
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
//! fallback stops at the HDC rung, the bottom of the ladder. See
//! `docs/DEGRADATION.md` for the full ladder semantics.

use std::collections::{HashMap, VecDeque};
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
use crate::mem::{MemConsumer, MemReport, MemoryBudget};
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

/// Supervision parameters for every stage worker (feature, classify,
/// control and actuate).
#[derive(Debug, Clone, Copy)]
pub struct SupervisionConfig {
    /// Panics one worker may survive before it is retired. Each caught
    /// panic costs the in-flight window (accounted as dropped) and a
    /// backoff pause; exceeding the budget retires the worker, and the
    /// last worker of a stage to retire closes and drains its input queue
    /// so the accounting invariant still converges.
    pub restart_budget: u32,
    /// Backoff after the first caught panic, milliseconds. Doubles per
    /// consecutive panic.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_max_ms: u64,
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
    /// Samples per analysis window; fixes the CNN input width. The feature
    /// stage refuses a window of any other length and counts it in
    /// [`FaultReport::rejected_windows`].
    pub window_samples: usize,
    /// Worker threads for the feature and classify stages (each).
    pub workers: usize,
    /// Ingest queue (submit → feature).
    pub ingest: StageConfig,
    /// Classify queue (feature → classify).
    pub classify: StageConfig,
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
    /// Seed for the untrained models' deterministic initialization.
    pub model_seed: u64,
    /// Worker supervision parameters.
    pub supervision: SupervisionConfig,
    /// Stalled-queue watchdog; `None` (the default) disables it.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            feature: FeatureConfig::default(),
            window_samples: 16_000, // 1 s at the default 16 kHz
            workers: 2,
            ingest: StageConfig::new(8, OverflowPolicy::Block),
            classify: StageConfig::new(8, OverflowPolicy::Block),
            control: StageConfig::new(8, OverflowPolicy::Block),
            actuate_capacity: 8,
            deadline_ns: 1_000_000_000, // the paper's 1 s cadence
            miss_streak: 3,
            ok_streak: 8,
            degraded_interval: 2,
            model_seed: 7,
            supervision: SupervisionConfig::default(),
            watchdog: None,
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
        if self.miss_streak == 0 {
            return Err(AffectError::InvalidParameter {
                name: "miss_streak",
                reason: "must be at least 1",
            });
        }
        if self.ok_streak == 0 {
            return Err(AffectError::InvalidParameter {
                name: "ok_streak",
                reason: "must be at least 1",
            });
        }
        if self.degraded_interval == 0 {
            return Err(AffectError::InvalidParameter {
                name: "degraded_interval",
                reason: "must be at least 1",
            });
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

/// Largest number of queued windows one classify worker drains per
/// wakeup (its batching window): batching amortises queue synchronisation
/// and keeps a worker's scratch arena hot across consecutive windows.
const CLASSIFY_BATCH: usize = 4;

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
    /// Inference precision for this session's neural windows, frozen at
    /// registration.
    precision: Precision,
    interval: AtomicU32,
    latency: Histogram,
    /// Set by [`Runtime::remove_session`]: an evicted session's submits
    /// become clean no-ops (not produced, not dropped — never offered), so
    /// its final accounting stays exact. Cleared by
    /// [`Runtime::readmit_session`].
    evicted: AtomicBool,
}

impl SessionState {
    fn new(initial_family: ClassifierKind, precision: Precision) -> Self {
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
            precision,
            interval: AtomicU32::new(1),
            latency: Histogram::new(),
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
}

impl FaultCounters {
    fn snapshot(&self) -> FaultReport {
        FaultReport {
            worker_panics: self.worker_panics.load(Ordering::SeqCst),
            worker_restarts: self.worker_restarts.load(Ordering::SeqCst),
            workers_lost: self.workers_lost.load(Ordering::SeqCst),
            rejected_windows: self.rejected_windows.load(Ordering::SeqCst),
            watchdog_sheds: self.watchdog_sheds.load(Ordering::SeqCst),
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
}

impl RtMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let stage_latency = |stage: &str| {
            registry.histogram(
                "affect_rt_stage_latency_ns",
                "per-window time spent inside one pipeline stage",
                &[("stage", stage)],
            )
        };
        Self {
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
                "windows refused at the feature stage for a wrong length or non-finite samples",
                &[],
            ),
            watchdog_sheds: registry.counter(
                "affect_rt_watchdog_sheds_total",
                "windows force-drained from stalled queues by the watchdog",
                &[],
            ),
        }
    }
}

/// Wakes waiters whenever any accounting counter moves.
#[derive(Default)]
struct Progress {
    /// Threads parked in [`Progress::wait_until`].
    waiters: Mutex<usize>,
    changed: Condvar,
}

impl Progress {
    /// Wakes every parked waiter, and makes no call at all when none is
    /// parked: most windows are accounted with nobody waiting.
    fn bump(&self) {
        let waiters = *self.waiters.lock().expect("progress lock poisoned");
        if waiters > 0 {
            self.changed.notify_all();
        }
    }

    /// Blocks until `done` holds. The wait is timed: a counter can move
    /// between the check and the wait, so the notification alone is never
    /// relied on.
    fn wait_until(&self, done: impl Fn() -> bool) {
        let mut waiters = self.waiters.lock().expect("progress lock poisoned");
        while !done() {
            *waiters += 1;
            waiters = self
                .changed
                .wait_timeout(waiters, Duration::from_millis(20))
                .expect("progress lock poisoned")
                .0;
            *waiters -= 1;
        }
    }
}

/// One window in flight between two stages: its session, its sequence
/// number in that session's stream, its arrival time, and the payload the
/// next stage consumes.
struct Envelope<T> {
    session: usize,
    seq: u64,
    arrival_ns: u64,
    body: T,
}

impl<T> Envelope<T> {
    /// The same window carrying the next stage's payload.
    fn with<U>(&self, body: U) -> Envelope<U> {
        Envelope {
            session: self.session,
            seq: self.seq,
            arrival_ns: self.arrival_ns,
            body,
        }
    }
}

/// A stage's input: its ring, and how many of the stage's workers still
/// run. The last worker out closes and drains the ring.
struct Inbox<T> {
    ring: Ring<Envelope<T>>,
    workers: AtomicUsize,
}

impl<T> Inbox<T> {
    /// Builds the ring, registering its `affect_rt_queue_*` series when a
    /// registry is attached.
    fn new(
        registry: Option<&MetricsRegistry>,
        stage: &str,
        queue: StageConfig,
        workers: usize,
    ) -> Self {
        let ring = match registry {
            Some(r) => Ring::with_metrics(
                queue.capacity,
                queue.policy,
                RingMetrics {
                    pushed: r.counter(
                        "affect_rt_queue_pushed_total",
                        "messages accepted into a stage queue",
                        &[("stage", stage)],
                    ),
                    popped: r.counter(
                        "affect_rt_queue_popped_total",
                        "messages handed to a stage's consumers",
                        &[("stage", stage)],
                    ),
                    shed: r.counter(
                        "affect_rt_queue_shed_total",
                        "messages shed by the stage queue's overflow policy",
                        &[("stage", stage)],
                    ),
                    depth: r.gauge(
                        "affect_rt_queue_depth",
                        "current queue depth of a stage",
                        &[("stage", stage)],
                    ),
                },
            ),
            None => Ring::new(queue.capacity, queue.policy),
        };
        Self {
            ring,
            workers: AtomicUsize::new(workers),
        }
    }

    fn report(&self, stage: &'static str) -> StageReport {
        let stats = self.ring.snapshot();
        StageReport {
            stage,
            pushed: stats.pushed,
            popped: stats.popped,
            shed: stats.shed,
            depth_high_water: stats.depth_high_water,
            capacity: self.ring.capacity(),
        }
    }
}

/// What a stage does with one window once the fault hook has spoken.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Proceed,
    Drop,
    Panic,
}

/// Everything the stage workers, the watchdog and the [`Runtime`] handle
/// share. Each thread holds one `Arc` of it.
struct Shared {
    config: RuntimeConfig,
    clock: Arc<dyn Clock>,
    sessions: Vec<SessionState>,
    progress: Progress,
    metrics: Option<RtMetrics>,
    faults: FaultCounters,
    classify_counters: ClassifyCounters,
    hook: Option<Arc<dyn FaultHook>>,
    mem: Arc<MemoryBudget>,
    ingest: Inbox<Vec<f32>>,
    /// Feature → classify: the session's family when extracted, and the
    /// features in that family's layout.
    classify: Inbox<(ClassifierKind, Tensor)>,
    control: Inbox<Option<Emotion>>,
    actuate: Inbox<Vec<ControlEvent>>,
    watchdog_stop: AtomicBool,
}

impl Shared {
    fn new(
        config: RuntimeConfig,
        clock: Arc<dyn Clock>,
        sessions: Vec<SessionState>,
        registry: Option<&MetricsRegistry>,
        hook: Option<Arc<dyn FaultHook>>,
        memory_budget: Option<Arc<MemoryBudget>>,
    ) -> Self {
        // Registration order is the registry's render order: the runtime's
        // series, the session gauge, the memory series, then the queues.
        let metrics = registry.map(RtMetrics::register);
        // `add`, not `set`: the shards of a fleet share one registry, and
        // so one instrument per name.
        if let Some(r) = registry {
            r.gauge("affect_rt_sessions", "registered sessions", &[])
                .add(sessions.len() as i64);
        }
        let mem = memory_budget.unwrap_or_else(|| {
            let budget = MemoryBudget::new(0);
            Arc::new(match registry {
                Some(r) => budget.with_metrics(r),
                None => budget,
            })
        });
        let workers = config.workers;
        let actuate = StageConfig::new(config.actuate_capacity, OverflowPolicy::Block);
        Self {
            ingest: Inbox::new(registry, "ingest", config.ingest, workers),
            classify: Inbox::new(registry, "classify", config.classify, workers),
            control: Inbox::new(registry, "control", config.control, 1),
            actuate: Inbox::new(registry, "actuate", actuate, 1),
            config,
            clock,
            sessions,
            progress: Progress::default(),
            metrics,
            faults: FaultCounters::default(),
            classify_counters: ClassifyCounters::default(),
            hook,
            mem,
            watchdog_stop: AtomicBool::new(false),
        }
    }

    /// Adds `n` to a report counter and, with a registry attached, to its
    /// series.
    fn add(&self, report: &AtomicU64, series: impl Fn(&RtMetrics) -> &Arc<ObsCounter>, n: u64) {
        report.fetch_add(n, Ordering::SeqCst);
        if let Some(m) = &self.metrics {
            series(m).add(n);
        }
    }

    /// Counts one event in a report counter and its series.
    fn count(&self, report: &AtomicU64, series: impl Fn(&RtMetrics) -> &Arc<ObsCounter>) {
        self.add(report, series, 1);
    }

    /// Times a stage body into its latency series (none without a
    /// registry), against the runtime clock.
    fn span(&self, series: impl Fn(&RtMetrics) -> &Arc<Histogram>) -> Option<Span<'_>> {
        self.metrics
            .as_ref()
            .map(|m| Span::enter(series(m), &*self.clock))
    }

    /// Accounts one window as dropped and wakes waiters.
    fn drop_window(&self, session: usize) {
        self.count(&self.sessions[session].dropped, |m| &m.dropped);
        self.progress.bump();
    }

    /// Asks the fault hook what to do with one window at one stage,
    /// sleeping out an injected delay. Without a hook every window
    /// proceeds.
    fn verdict(&self, stage: Stage, session: usize, seq: u64) -> Verdict {
        match self
            .hook
            .as_ref()
            .map(|hook| hook.inject(stage, session, seq))
        {
            None | Some(FaultAction::None) => Verdict::Proceed,
            Some(FaultAction::DelayNs(ns)) => {
                std::thread::sleep(Duration::from_nanos(ns));
                Verdict::Proceed
            }
            Some(FaultAction::DropWindow) => Verdict::Drop,
            Some(FaultAction::Panic) => Verdict::Panic,
        }
    }

    /// Pushes an envelope into a ring, accounting every shed outcome as its
    /// session's drop so the accounting invariant holds. Returns whether
    /// `env` itself was queued.
    fn offer<T>(&self, ring: &Ring<Envelope<T>>, env: Envelope<T>) -> bool {
        match ring.push(env) {
            PushOutcome::Stored => true,
            PushOutcome::Evicted(old) => {
                self.drop_window(old.session);
                true
            }
            PushOutcome::Rejected(old) | PushOutcome::Closed(old) => {
                self.drop_window(old.session);
                false
            }
        }
    }

    /// Books one caught worker panic: decides restart (with exponential
    /// backoff) versus retirement. Returns `true` when the worker should
    /// keep running, `false` when it exhausted its restart budget.
    fn survive_panic(&self, consecutive_panics: u32, panics_survived: u32) -> bool {
        let supervision = &self.config.supervision;
        self.count(&self.faults.worker_panics, |m| &m.worker_panics);
        if panics_survived > supervision.restart_budget {
            self.count(&self.faults.workers_lost, |m| &m.workers_lost);
            return false;
        }
        self.count(&self.faults.worker_restarts, |m| &m.worker_restarts);
        let backoff = supervision.backoff_for(consecutive_panics);
        if backoff > 0 {
            std::thread::sleep(Duration::from_millis(backoff));
        }
        true
    }

    /// Snapshots per-session accounting and per-stage queue statistics.
    fn report(&self) -> RuntimeReport {
        let sessions = self
            .sessions
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
        RuntimeReport {
            sessions,
            stages: vec![
                self.ingest.report("ingest"),
                self.classify.report("classify"),
                self.control.report("control"),
                self.actuate.report("actuate"),
            ],
            classify: self.classify_counters.snapshot(),
            faults: self.faults.snapshot(),
            mem: MemReport::snapshot(&self.mem),
        }
    }

    /// The watchdog thread: every `poll_ms` it checks each stage ring, in
    /// pipeline order, until shutdown.
    fn watchdog(&self, config: WatchdogConfig) {
        // Per ring: pop count at the last poll, and how many consecutive
        // polls it sat non-empty without popping.
        let mut last = [(0, 0); 4];
        while !self.watchdog_stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(config.poll_ms));
            self.shed_if_stalled(&self.ingest, &mut last[0], config.stall_polls);
            self.shed_if_stalled(&self.classify, &mut last[1], config.stall_polls);
            self.shed_if_stalled(&self.control, &mut last[2], config.stall_polls);
            self.shed_if_stalled(&self.actuate, &mut last[3], config.stall_polls);
        }
    }

    /// Drains a ring that held messages but popped none for `stall_polls`
    /// consecutive polls, accounting every drained window as dropped.
    fn shed_if_stalled<T>(
        &self,
        inbox: &Inbox<T>,
        (last_popped, stalled): &mut (u64, u32),
        stall_polls: u32,
    ) {
        let popped = inbox.ring.snapshot().popped;
        if inbox.ring.depth() > 0 && popped == *last_popped {
            *stalled += 1;
            if *stalled >= stall_polls {
                *stalled = 0;
                while let Some(env) = inbox.ring.try_pop() {
                    self.count(&self.faults.watchdog_sheds, |m| &m.watchdog_sheds);
                    self.drop_window(env.session);
                }
            }
        } else {
            *stalled = 0;
        }
        *last_popped = popped;
    }
}

/// One stage's per-window work, driven by [`run_stage`]. A step owns its
/// worker's private state; it takes one window's envelope and returns the
/// envelope for the next stage, or `None` when the window is dropped. A
/// step never touches a ring: popping, batching, the fault verdict, the
/// unwind boundary, forwarding and drop accounting belong to the loop.
trait Step {
    /// Payload this stage consumes.
    type In;
    /// Payload this stage hands to the next one.
    type Out;
    /// The stage, as the fault hook sees it.
    const STAGE: Stage;

    /// Windows the loop drains per wakeup.
    const BATCH: usize = 1;

    /// Called once per drained batch, before its first window.
    fn start_batch(&mut self, _shared: &Shared, _len: usize) {}

    /// A gate run before the unwind boundary (and so before an injected
    /// panic); `false` drops the window.
    fn admit(&mut self, _shared: &Shared, _body: &Self::In) -> bool {
        true
    }

    /// Processes one window.
    fn step(&mut self, shared: &Shared, env: Envelope<Self::In>) -> Option<Envelope<Self::Out>>;

    /// Called after every window of a batch has been handled (not when
    /// the worker retires mid-batch).
    fn end_batch(&mut self, _shared: &Shared) {}

    /// Called once when the worker leaves its loop.
    fn finish(&mut self, _shared: &Shared) {}
}

/// The supervised loop every stage worker runs. It pops a window (and,
/// when the step allows, drains a batch), resolves each window's fault
/// verdict, runs the step inside the per-window unwind boundary and
/// forwards the result to `output` or accounts the drop. A caught panic
/// costs the in-flight window and a backoff pause; past the restart budget
/// the worker retires, and the stage's last worker out closes and drains
/// `input`, so the accounting invariant still converges. Returns the step,
/// so shutdown can take its state back.
fn run_stage<S: Step>(
    shared: &Shared,
    mut step: S,
    input: &Inbox<S::In>,
    output: Option<&Inbox<S::Out>>,
) -> S {
    // The batch lives outside the unwind boundary, so a panic mid-batch
    // never loses the rest of the drain.
    let mut batch = VecDeque::new();
    let mut consecutive_panics = 0u32;
    let mut panics_survived = 0u32;
    'run: while let Some(first) = input.ring.pop() {
        batch.push_back(first);
        while batch.len() < S::BATCH {
            match input.ring.try_pop() {
                Some(env) => batch.push_back(env),
                None => break,
            }
        }
        step.start_batch(shared, batch.len());
        while let Some(env) = batch.pop_front() {
            let session = env.session;
            let verdict = shared.verdict(S::STAGE, session, env.seq);
            if verdict == Verdict::Drop || !step.admit(shared, &env.body) {
                shared.drop_window(session);
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if verdict == Verdict::Panic {
                    std::panic::panic_any(InjectedPanic);
                }
                step.step(shared, env)
            }));
            match outcome {
                Ok(Some(next)) => {
                    consecutive_panics = 0;
                    if let Some(output) = output {
                        shared.offer(&output.ring, next);
                    }
                }
                Ok(None) => {
                    consecutive_panics = 0;
                    shared.drop_window(session);
                }
                Err(_panic) => {
                    shared.drop_window(session);
                    consecutive_panics += 1;
                    panics_survived += 1;
                    if !shared.survive_panic(consecutive_panics, panics_survived) {
                        for rest in batch.drain(..) {
                            shared.drop_window(rest.session);
                        }
                        break 'run;
                    }
                }
            }
        }
        step.end_batch(shared);
    }
    step.finish(shared);
    // Last worker out (retired or shut down) closes and drains the ring so
    // blocked producers wake and nothing queued is silently lost.
    if input.workers.fetch_sub(1, Ordering::SeqCst) == 1 {
        input.ring.close();
        while let Some(env) = input.ring.try_pop() {
            shared.drop_window(env.session);
        }
    }
    step
}

/// Feature extraction in the layout of the session's current family.
struct FeatureStep(FeaturePipeline);

impl Step for FeatureStep {
    type In = Vec<f32>;
    type Out = (ClassifierKind, Tensor);
    const STAGE: Stage = Stage::Feature;

    /// The admission gate: a window of the wrong length or with
    /// non-finite samples (a sensor fault) costs exactly this window, never
    /// the session. A wrong length would classify features of another
    /// shape; NaN or ∞ would smear into state shared across windows.
    fn admit(&mut self, shared: &Shared, samples: &Vec<f32>) -> bool {
        if samples.len() == shared.config.window_samples && samples.iter().all(|s| s.is_finite()) {
            return true;
        }
        shared.count(&shared.faults.rejected_windows, |m| &m.rejected_windows);
        false
    }

    fn step(&mut self, shared: &Shared, env: Envelope<Self::In>) -> Option<Envelope<Self::Out>> {
        let span = shared.span(|m| &m.feature_latency);
        let family = shared.sessions[env.session].family();
        let features = match family {
            ClassifierKind::Mlp | ClassifierKind::Hdc => self.0.extract_flat(&env.body),
            ClassifierKind::Cnn => self.0.extract_strip(&env.body),
            ClassifierKind::Lstm => self.0.extract_sequence(&env.body),
        };
        drop(span);
        Some(env.with((family, features.ok()?)))
    }
}

/// Classification through this worker's own model pool.
struct ClassifyStep {
    /// Keyed by [`pool_key`]: the three neural families per precision in
    /// use, plus the one integer-only HDC rung.
    pool: HashMap<(ClassifierKind, Precision), AffectClassifier>,
    /// The worker's persistent inference arena: every forward pass across
    /// every family draws its intermediates from here, so steady state runs
    /// allocation-free. It and the decision buffer are plain reusable
    /// buffers — safe to keep using after an unwind.
    scratch: Scratch,
    decision: Decision,
    /// `ModelTables` bytes charged for the pool.
    table_bytes: u64,
    /// Arena counters at the end of the last batch.
    last_allocs: u64,
    last_reuses: u64,
    /// Arena bytes charged so far: its size after the last window.
    last_scratch_bytes: u64,
}

impl ClassifyStep {
    /// Builds the worker's own pool, identical across workers by seed:
    /// inference takes `&mut self`, so workers cannot share one model.
    /// Int8 variants are built only when some session runs quantized. The
    /// pool's tables are resident for the worker's whole life: the neural
    /// families' parameters (4 bytes each at f32, 1 at int8, counted on the
    /// built models) plus the HDC bound/prototype tables.
    fn new(shared: &Shared, models: &[ModelConfig; 3], flat_dim: usize) -> Self {
        let seed = shared.config.model_seed;
        let need_int8 = shared
            .sessions
            .iter()
            .any(|s| s.precision == Precision::Int8);
        let mut pool = HashMap::new();
        let mut table_bytes = 0u64;
        for model in models {
            let clf = AffectClassifier::from_config(model, emotion_labels(), seed)
                .expect("trial-built before spawn");
            let params = clf
                .model()
                .expect("the neural families have a Sequential model")
                .param_count() as u64;
            pool.insert((clf.family(), Precision::F32), clf);
            table_bytes += params * std::mem::size_of::<f32>() as u64;
            if need_int8 {
                let mut clf = AffectClassifier::from_config(model, emotion_labels(), seed)
                    .expect("trial-built before spawn");
                clf.set_precision(Precision::Int8)
                    .expect("fresh models always quantize");
                pool.insert((clf.family(), Precision::Int8), clf);
                table_bytes += params;
            }
        }
        let mut hdc = AffectClassifier::hdc(flat_dim, emotion_labels(), seed)
            .expect("trial-built before spawn");
        if let Some(h) = hdc.hdc_mut() {
            table_bytes += h.storage_bytes() as u64;
        }
        shared.mem.charge(MemConsumer::ModelTables, table_bytes);
        pool.insert(pool_key(ClassifierKind::Hdc, Precision::Int8), hdc);
        Self {
            pool,
            scratch: Scratch::new(),
            decision: Decision::default(),
            table_bytes,
            last_allocs: 0,
            last_reuses: 0,
            last_scratch_bytes: 0,
        }
    }
}

impl Step for ClassifyStep {
    type In = (ClassifierKind, Tensor);
    type Out = Option<Emotion>;
    const STAGE: Stage = Stage::Classify;
    const BATCH: usize = CLASSIFY_BATCH;

    fn start_batch(&mut self, shared: &Shared, len: usize) {
        let counters = &shared.classify_counters;
        counters.batches.fetch_add(1, Ordering::SeqCst);
        counters.max_batch.fetch_max(len as u64, Ordering::SeqCst);
        if let Some(m) = &shared.metrics {
            m.batch_size.record(len as u64);
        }
    }

    fn step(&mut self, shared: &Shared, env: Envelope<Self::In>) -> Option<Envelope<Self::Out>> {
        let (family, ref features) = env.body;
        let key = pool_key(family, shared.sessions[env.session].precision);
        let span = shared.span(|m| &m.classify_latency);
        let clf = self.pool.get_mut(&key).expect("all families pooled");
        let result = clf.classify_with(
            features.data(),
            features.shape(),
            &mut self.scratch,
            &mut self.decision,
        );
        drop(span);
        // Charge the arena's growth before the window moves on, so a
        // drained runtime's ledger already holds it. Alloc events alone
        // would miss growth: a layer also grows a pooled buffer in place
        // (`resize` past its capacity). Pooled buffers never shrink, so a
        // warm window sums a few capacities and charges nothing.
        let bytes = self.scratch.pooled_bytes() as u64;
        if bytes > self.last_scratch_bytes {
            shared
                .mem
                .charge(MemConsumer::ScratchPools, bytes - self.last_scratch_bytes);
            self.last_scratch_bytes = bytes;
        }
        let counters = &shared.classify_counters;
        counters.windows.fetch_add(1, Ordering::SeqCst);
        // Only a tensor-shape mismatch fails here, and the feature stage's
        // gate admits no window that could cause one; `None` drops and
        // accounts the window.
        if result.is_err() {
            return None;
        }
        shared.count(&counters.family_windows[family.rung()], |m| {
            &m.classify_family[family.rung()]
        });
        if let (Some(m), Precision::Int8) = (&shared.metrics, key.1) {
            m.int8_windows.inc();
        }
        Some(env.with(self.decision.emotion()))
    }

    fn end_batch(&mut self, shared: &Shared) {
        let (allocs, reuses) = (self.scratch.alloc_events(), self.scratch.reuse_events());
        let (new_allocs, new_reuses) = (allocs - self.last_allocs, reuses - self.last_reuses);
        let counters = &shared.classify_counters;
        shared.add(&counters.scratch_allocs, |m| &m.scratch_allocs, new_allocs);
        shared.add(&counters.scratch_reuses, |m| &m.scratch_reuses, new_reuses);
        self.last_allocs = allocs;
        self.last_reuses = reuses;
    }

    fn finish(&mut self, shared: &Shared) {
        let mem = &shared.mem;
        mem.release(MemConsumer::ScratchPools, self.last_scratch_bytes);
        mem.release(MemConsumer::ModelTables, self.table_bytes);
    }
}

/// Policy: each session's controller turns its emotion into control
/// events.
struct ControlStep(Vec<SystemController>);

impl Step for ControlStep {
    type In = Option<Emotion>;
    type Out = Vec<ControlEvent>;
    const STAGE: Stage = Stage::Control;

    fn step(&mut self, shared: &Shared, env: Envelope<Self::In>) -> Option<Envelope<Self::Out>> {
        let span = shared.span(|m| &m.control_latency);
        let events = match env.body {
            Some(emotion) => self.0[env.session]
                .observe_emotion(emotion)
                .unwrap_or_default(),
            None => Vec::new(),
        };
        drop(span);
        Some(env.with(events))
    }
}

/// The end of a window's trip: the session's actuator applies the events,
/// then the end-to-end latency feeds the deadline streaks that walk the
/// degradation ladder. The step counts the window processed itself; there
/// is no next stage.
struct ActuateStep {
    actuators: Vec<Box<dyn Actuator>>,
    /// Per session: consecutive missed and on-time windows.
    streaks: Vec<(u32, u32)>,
}

impl Step for ActuateStep {
    type In = Vec<ControlEvent>;
    type Out = ();
    const STAGE: Stage = Stage::Actuate;

    fn step(&mut self, shared: &Shared, env: Envelope<Self::In>) -> Option<Envelope<Self::Out>> {
        let done = env.with(());
        let session = env.session;
        let config = &shared.config;
        let span = shared.span(|m| &m.actuate_latency);
        let actuator = &mut self.actuators[session];
        // The hook runs before latency is read so a gated test actuator can
        // hold the window while a virtual clock advances — the measured
        // latency is then exact.
        actuator.on_window(env.seq);
        let now = shared.clock.now_nanos();
        for event in env.body {
            actuator.actuate(event, now);
        }
        let state = &shared.sessions[session];
        let latency = now.saturating_sub(env.arrival_ns);
        state.latency.record(latency);
        if let Some(m) = &shared.metrics {
            m.e2e_latency.record(latency);
        }
        let missed = latency > config.deadline_ns;
        if missed {
            shared.count(&state.misses, |m| &m.misses);
        }
        let (misses, oks) = &mut self.streaks[session];
        if missed {
            *oks = 0;
            *misses += 1;
            if *misses >= config.miss_streak {
                *misses = 0;
                if degrade(state, config.degraded_interval) {
                    shared.count(&state.degradations, |m| &m.degradations);
                }
            }
        } else {
            *misses = 0;
            *oks += 1;
            if *oks >= config.ok_streak {
                *oks = 0;
                if recover(state) {
                    shared.count(&state.recoveries, |m| &m.recoveries);
                }
            }
        }
        shared.count(&state.processed, |m| &m.processed);
        drop(span);
        shared.progress.bump();
        Some(done)
    }
}

/// The class labels every classifier is built with.
fn emotion_labels() -> Vec<String> {
    Emotion::ALL.iter().map(|e| e.name().to_string()).collect()
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

    /// Supplies a pre-built (usually shared) [`MemoryBudget`] to charge
    /// instead of the runtime's own, which starts disabled (a zero budget).
    /// A caller that shares one budget between a runtime and its wire
    /// sessions passes it here.
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
    /// the LSTM, the top of the ladder, and runs at f32.
    pub fn add_session(&mut self, actuator: Box<dyn Actuator>) -> SessionId {
        self.add_session_with_precision(actuator, ClassifierKind::Lstm, Precision::F32)
    }

    /// Registers a session whose classifier family starts at — and never
    /// recovers past — `family`, running its neural windows at
    /// `precision` ([`RuntimeBuilder::add_session`] uses LSTM and f32). The
    /// family is
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
        // The largest feature tensor a classify-ring slot carries: the flat
        // statistics (MLP, HDC) or the frame sequence (LSTM, and the CNN's
        // strip of the same floats).
        let payload = flat_dim
            .max(pipeline.frames_for(config.window_samples) * pipeline.features_per_frame());
        for model in &models {
            AffectClassifier::from_config(model, emotion_labels(), config.model_seed)?;
        }
        AffectClassifier::hdc(flat_dim, emotion_labels(), config.model_seed)?;

        let (actuators, sessions): (Vec<Box<dyn Actuator>>, Vec<SessionState>) = self
            .sessions
            .into_iter()
            .map(|(actuator, family, precision)| (actuator, SessionState::new(family, precision)))
            .unzip();
        let shared = Arc::new(Shared::new(
            config,
            self.clock,
            sessions,
            self.registry.as_deref(),
            self.fault_hook,
            self.memory_budget,
        ));
        // Ring bytes are fixed at construction: each built ring's capacity
        // × slot size, the ingest slots widened by the window payload and
        // the classify slots by the largest feature tensor. Released at
        // shutdown.
        let ring_bytes = {
            use std::mem::size_of;
            let window = shared.config.window_samples * size_of::<f32>();
            (shared.ingest.ring.capacity() * (size_of::<Envelope<Vec<f32>>>() + window)
                + shared.classify.ring.capacity()
                    * (size_of::<Envelope<(ClassifierKind, Tensor)>>()
                        + payload * size_of::<f32>())
                + shared.control.ring.capacity() * size_of::<Envelope<Option<Emotion>>>()
                + shared.actuate.ring.capacity() * size_of::<Envelope<Vec<ControlEvent>>>())
                as u64
        };
        shared.mem.charge(MemConsumer::RingQueues, ring_bytes);

        let workers = shared.config.workers;
        let feature_workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let pipeline = FeaturePipeline::new(shared.config.feature.clone());
                    let step = FeatureStep(pipeline.expect("config validated before spawn"));
                    run_stage(&shared, step, &shared.ingest, Some(&shared.classify));
                })
            })
            .collect();
        let classify_workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let models = models.clone();
                std::thread::spawn(move || {
                    let step = ClassifyStep::new(&shared, &models, flat_dim);
                    run_stage(&shared, step, &shared.classify, Some(&shared.control));
                })
            })
            .collect();
        let control_worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // A smoothing window of 1: every decision acts at once.
                let controller = || SystemController::new(PolicyTable::paper_defaults(), 1);
                let step = ControlStep(shared.sessions.iter().map(|_| controller()).collect());
                run_stage(&shared, step, &shared.control, Some(&shared.actuate));
            })
        };
        let actuate_worker = {
            let shared = Arc::clone(&shared);
            let step = ActuateStep {
                streaks: vec![(0, 0); actuators.len()],
                actuators,
            };
            std::thread::spawn(move || run_stage(&shared, step, &shared.actuate, None).actuators)
        };
        let watchdog_worker = shared.config.watchdog.map(|watchdog| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.watchdog(watchdog))
        });

        Ok(Runtime {
            shared,
            feature_workers,
            classify_workers,
            control_worker,
            actuate_worker,
            watchdog_worker,
            ring_bytes,
        })
    }
}

/// One degradation step: fall back one model family *and* widen the
/// decision interval (the paper's two load-shedding axes at once). The
/// family never falls below the HDC rung. Returns whether anything
/// actually changed.
fn degrade(state: &SessionState, degraded_interval: u32) -> bool {
    let mut changed = false;
    if let Some(simpler) = state.family().fallback() {
        state.set_family(simpler);
        changed = true;
    }
    if state.interval.load(Ordering::SeqCst) < degraded_interval {
        state.interval.store(degraded_interval, Ordering::SeqCst);
        changed = true;
    }
    changed
}

/// One recovery step: first restore the decision interval, then climb the
/// model ladder one family at a time (never past the configured initial).
/// Returns whether anything actually changed.
fn recover(state: &SessionState) -> bool {
    if state.interval.load(Ordering::SeqCst) > 1 {
        state.interval.store(1, Ordering::SeqCst);
        return true;
    }
    if let Some(richer) = state.family().upgrade() {
        if richer.rung() <= state.ceiling.rung() {
            state.set_family(richer);
            return true;
        }
    }
    false
}

/// The live multi-session streaming runtime. Build via [`RuntimeBuilder`].
pub struct Runtime {
    shared: Arc<Shared>,
    feature_workers: Vec<JoinHandle<()>>,
    classify_workers: Vec<JoinHandle<()>>,
    control_worker: JoinHandle<()>,
    actuate_worker: JoinHandle<Vec<Box<dyn Actuator>>>,
    watchdog_worker: Option<JoinHandle<()>>,
    /// Ring bytes charged at start, released at shutdown.
    ring_bytes: u64,
}

impl Runtime {
    fn session(&self, session: SessionId) -> &SessionState {
        &self.shared.sessions[session.0]
    }

    /// Number of registered sessions.
    pub fn sessions(&self) -> usize {
        self.shared.sessions.len()
    }

    /// The configuration the runtime was started with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The classifier family currently in force for a session.
    pub fn session_family(&self, session: SessionId) -> ClassifierKind {
        self.session(session).family()
    }

    /// The decision interval currently in force for a session.
    pub fn session_interval(&self, session: SessionId) -> u32 {
        self.session(session).interval.load(Ordering::SeqCst)
    }

    /// Current depth of the ingest queue — the runtime's cheapest
    /// backpressure signal. A fleet's admission layer polls this to shed
    /// best-effort windows *before* they cost a queue slot.
    pub fn ingest_depth(&self) -> usize {
        self.shared.ingest.ring.depth()
    }

    /// Capacity of the ingest queue (denominator for pressure ratios).
    pub fn ingest_capacity(&self) -> usize {
        self.shared.ingest.ring.capacity()
    }

    /// The runtime's memory-budget accountant. The runtime charges and
    /// releases its bytes here but never reads the band; unless the builder
    /// supplied a budget it starts disabled, and whoever governs the
    /// runtime sizes it ([`MemoryBudget::set_budget_bytes`]). A fleet reads
    /// its [`PressureBand`](crate::PressureBand) to drive eviction; a chaos
    /// harness injects phantom charges through it.
    pub fn memory_budget(&self) -> &Arc<MemoryBudget> {
        &self.shared.mem
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
        let state = self.session(session);
        if state.evicted.swap(true, Ordering::SeqCst) {
            return false;
        }
        self.shared.progress.wait_until(|| state.accounted());
        true
    }

    /// Readmits a previously evicted session: its submits flow again, all
    /// counters continuing from where eviction left them. Returns `false`
    /// when the session was not evicted.
    pub fn readmit_session(&self, session: SessionId) -> bool {
        self.session(session).evicted.swap(false, Ordering::SeqCst)
    }

    /// Whether a session is currently evicted.
    pub fn session_evicted(&self, session: SessionId) -> bool {
        self.session(session).evicted.load(Ordering::SeqCst)
    }

    /// Submits one analysis window for a session. The window is stamped
    /// with the clock's current time as its arrival. It must hold exactly
    /// [`RuntimeConfig::window_samples`] finite samples: the feature stage
    /// refuses any other window, dropping it and counting it in
    /// [`FaultReport::rejected_windows`], so it never reaches a
    /// classifier.
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
        let shared = &*self.shared;
        let state = self.session(session);
        // An evicted session's windows are refused before they are
        // produced: nothing enters any counter, so the accounting frozen
        // at eviction time stays exact.
        if state.evicted.load(Ordering::SeqCst) {
            return false;
        }
        let seq = state.next_seq.fetch_add(1, Ordering::SeqCst);
        shared.count(&state.produced, |m| &m.submitted);
        let interval = u64::from(state.interval.load(Ordering::SeqCst).max(1));
        // Decimation sheds the window before it costs any pipeline work.
        // Panicking the *producer's* thread is never interesting, so at
        // ingest a `Panic` verdict is a drop too: "the sensor dropped this
        // window".
        if !seq.is_multiple_of(interval)
            || shared.verdict(Stage::Ingest, session.0, seq) != Verdict::Proceed
        {
            shared.drop_window(session.0);
            return false;
        }
        let env = Envelope {
            session: session.0,
            seq,
            arrival_ns: shared.clock.now_nanos(),
            body: samples,
        };
        shared.offer(&shared.ingest.ring, env)
    }

    /// Blocks until every submitted window is accounted for (processed or
    /// dropped), i.e. the pipeline has fully drained.
    pub fn wait_idle(&self) {
        let sessions = &self.shared.sessions;
        self.shared
            .progress
            .wait_until(|| sessions.iter().all(SessionState::accounted));
    }

    /// Snapshots per-session accounting and per-stage queue statistics.
    /// Callable at any time; a post-[`Runtime::wait_idle`] snapshot
    /// satisfies [`RuntimeReport::all_accounted`].
    pub fn report(&self) -> RuntimeReport {
        self.shared.report()
    }

    /// Stops accepting work, drains the pipeline stage by stage, joins all
    /// workers and returns the final report plus each session's actuator.
    /// The report is taken after the runtime released every byte it
    /// charged, so its memory section shows only what others still hold.
    pub fn shutdown(self) -> ShutdownOutcome {
        let shared = &self.shared;
        // Stop the watchdog first so it cannot mistake the staged drain
        // below for a stall and shed in-flight windows.
        shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog_worker {
            watchdog.join().expect("watchdog panicked");
        }
        // Close upstream first and join before closing the next stage, so
        // in-flight windows drain instead of being cut off mid-pipeline.
        shared.ingest.ring.close();
        for worker in self.feature_workers {
            worker.join().expect("feature worker panicked");
        }
        shared.classify.ring.close();
        for worker in self.classify_workers {
            worker.join().expect("classify worker panicked");
        }
        shared.control.ring.close();
        self.control_worker.join().expect("control worker panicked");
        shared.actuate.ring.close();
        let actuators = self.actuate_worker.join().expect("actuate worker panicked");

        shared.mem.release(MemConsumer::RingQueues, self.ring_bytes);
        let report = shared.report();
        ShutdownOutcome { report, actuators }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> SessionState {
        SessionState::new(ClassifierKind::Lstm, Precision::F32)
    }

    /// A runtime's shared context over `sessions`, with no workers.
    fn shared(config: RuntimeConfig, sessions: Vec<SessionState>) -> Shared {
        Shared::new(
            config,
            Arc::new(SystemClock::new()),
            sessions,
            None,
            None,
            None,
        )
    }

    /// A classify error costs its window: dropped and accounted, with the
    /// session left on its family. Only a tensor-shape mismatch raises
    /// one, and the feature stage's gate admits no window that could, so
    /// the test hands the classify stage a short tensor directly.
    #[test]
    fn classify_error_drops_and_accounts_its_window() {
        let config = RuntimeConfig::default();
        let pipeline = FeaturePipeline::new(config.feature.clone()).unwrap();
        let models = config.model_configs(&pipeline);
        let shared = shared(config, vec![state()]);
        let step = ClassifyStep::new(&shared, &models, pipeline.flat_dim());
        let s = &shared.sessions[0];
        s.produced.store(1, Ordering::SeqCst);
        let short = Tensor::from_vec(vec![0.5; 3], &[3]).unwrap();
        let env = Envelope {
            session: 0,
            seq: 0,
            arrival_ns: 0,
            body: (ClassifierKind::Mlp, short),
        };
        assert!(shared.offer(&shared.classify.ring, env));
        shared.classify.ring.close();
        run_stage(&shared, step, &shared.classify, None);
        assert_eq!(shared.classify_counters.windows.load(Ordering::SeqCst), 1);
        assert_eq!(shared.faults.worker_panics.load(Ordering::SeqCst), 0);
        assert_eq!(s.dropped.load(Ordering::SeqCst), 1);
        assert!(s.accounted());
        assert_eq!(s.family(), ClassifierKind::Lstm);
    }

    #[test]
    fn per_session_ceiling_caps_recovery() {
        // An MLP-ceiling session (a best-effort QoS tier) can still shed
        // load by degrading to the HDC rung below it, then recovers back
        // to — and never past — its ceiling.
        let s = SessionState::new(ClassifierKind::Mlp, Precision::F32);
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(degrade(&s, 2));
        assert_eq!(s.family(), ClassifierKind::Hdc);
        assert!(recover(&s), "interval restores first");
        assert!(recover(&s), "then the family climbs");
        assert_eq!(s.family(), ClassifierKind::Mlp);
        assert!(!recover(&s), "ceiling reached");
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
        let config = RuntimeConfig {
            supervision: SupervisionConfig {
                restart_budget: 2,
                backoff_base_ms: 0,
                backoff_max_ms: 0,
            },
            ..RuntimeConfig::default()
        };
        let shared = shared(config, vec![state()]);
        assert!(shared.survive_panic(1, 1));
        assert!(shared.survive_panic(2, 2));
        assert!(!shared.survive_panic(3, 3));
        let faults = &shared.faults;
        assert_eq!(faults.worker_panics.load(Ordering::SeqCst), 3);
        assert_eq!(faults.worker_restarts.load(Ordering::SeqCst), 2);
        assert_eq!(faults.workers_lost.load(Ordering::SeqCst), 1);
    }

    /// The classify ring is charged for the largest feature tensor a slot
    /// carries, whichever layout that is: the frame sequence at the default
    /// shape (61 frames × 19 features against 76 flat statistics), the flat
    /// statistics at a small one (40 against 3 frames × 10). A ring
    /// configured with capacity 0 is built with one slot, and that slot is
    /// charged too.
    #[test]
    fn ring_charge_covers_the_largest_feature_tensor() {
        use std::mem::size_of;
        let small = RuntimeConfig {
            feature: FeatureConfig {
                frame_len: 128,
                hop: 64,
                n_mfcc: 4,
                n_mels: 12,
                ..FeatureConfig::default()
            },
            window_samples: 256,
            workers: 1,
            ..RuntimeConfig::default()
        };
        let zero = RuntimeConfig {
            ingest: StageConfig::new(0, OverflowPolicy::Block),
            classify: StageConfig::new(0, OverflowPolicy::Block),
            control: StageConfig::new(0, OverflowPolicy::Block),
            actuate_capacity: 0,
            ..RuntimeConfig::default()
        };
        for config in [RuntimeConfig::default(), small, zero] {
            let mut pipeline = FeaturePipeline::new(config.feature.clone()).unwrap();
            let window: Vec<f32> = (0..config.window_samples)
                .map(|n| (n as f32 * 0.013).sin() * 0.4)
                .collect();
            let largest = [
                pipeline.extract_flat(&window),
                pipeline.extract_strip(&window),
                pipeline.extract_sequence(&window),
            ]
            .into_iter()
            .map(|tensor| tensor.unwrap().len())
            .max()
            .unwrap();
            let slots = |capacity: usize| capacity.max(1);
            let floor = slots(config.ingest.capacity)
                * (size_of::<Envelope<Vec<f32>>>() + config.window_samples * size_of::<f32>())
                + slots(config.classify.capacity)
                    * (size_of::<Envelope<(ClassifierKind, Tensor)>>()
                        + largest * size_of::<f32>())
                + slots(config.control.capacity) * size_of::<Envelope<Option<Emotion>>>()
                + slots(config.actuate_capacity) * size_of::<Envelope<Vec<ControlEvent>>>();
            let mut builder = RuntimeBuilder::new(config).unwrap();
            builder.add_session(Box::<crate::CollectActuator>::default());
            let runtime = builder.start().unwrap();
            let charged = runtime.memory_budget().used_by(MemConsumer::RingQueues);
            runtime.shutdown();
            assert!(
                charged >= floor as u64,
                "rings charged {charged} bytes, slots hold at least {floor} ({largest} floats per classify slot)"
            );
        }
    }

    #[test]
    fn config_rejects_degenerate_supervision() {
        let rejected = |config: &RuntimeConfig| match config.validate() {
            Err(AffectError::InvalidParameter { name, .. }) => name,
            other => panic!("expected an invalid parameter, got {other:?}"),
        };
        let streaks = |miss_streak, ok_streak| RuntimeConfig {
            miss_streak,
            ok_streak,
            ..RuntimeConfig::default()
        };
        assert_eq!(rejected(&streaks(0, 8)), "miss_streak");
        assert_eq!(rejected(&streaks(3, 0)), "ok_streak");
        let mut config = RuntimeConfig {
            watchdog: Some(WatchdogConfig {
                poll_ms: 0,
                stall_polls: 4,
            }),
            ..RuntimeConfig::default()
        };
        assert_eq!(rejected(&config), "watchdog");
        config.watchdog = Some(WatchdogConfig::default());
        assert!(config.validate().is_ok());
    }
}
