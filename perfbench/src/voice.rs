//! `voice_loop`: the paper's own shape. One `Runtime` at the default
//! configuration serves 64 wearers, each offering one 1 s, 16 kHz voice
//! window per second at seeded offsets; then a closed-loop saturation
//! phase. Also the voice side of `video_fig6`.

use std::sync::Arc;

use affect_core::classifier::ClassifierKind;
use affect_core::emotion::Emotion;
use affect_obs::MetricsRegistry;
use affect_rt::{MemoryBudget, Runtime, RuntimeBuilder, RuntimeConfig, SessionId};
use biosignal::{synthesize_utterance, UtteranceParams};
use nn::Precision;

use crate::actuate::{Actuations, LoopActuator};
use crate::common::{
    now_ns, peak_rss_mb, sleep_until, slot_offset_ns, Offer, Plan, RateMeter, Rng, Setups,
    WARM_SECS,
};
use crate::layers::{self, ReplayInputs};
use crate::metrics::Pass;
use crate::rtstats::{self, Phase};

/// Wearers of `voice_loop` (about a quarter to a half of the default
/// runtime's capacity at one window per second each).
pub const WEARERS: usize = 64;

/// Distinct synthetic speakers (F0 scale factors) in the utterance pool.
const SPEAKER_F0: [f32; 4] = [0.9, 1.1, 1.6, 1.85];

/// Wearers cycle over these families...
const FAMILIES: [ClassifierKind; 3] = [
    ClassifierKind::Lstm,
    ClassifierKind::Cnn,
    ClassifierKind::Mlp,
];
/// ...and alternate these precisions, so all six combinations run.
const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Int8];

struct Wearer {
    speaker: usize,
    /// Emotion (index into `Emotion::ALL`) of window `k`, cycled.
    emotions: Vec<usize>,
}

/// Voice windows for a set of wearers, rendered from the seed before any
/// timing: a pool of one utterance per (speaker, emotion), and per wearer
/// a speaker and an emotion schedule. The cost of a window does not depend
/// on its emotion, so neither does the amount of work.
pub struct VoiceInputs {
    seed: u64,
    pool: Vec<Vec<f32>>,
    wearers: Vec<Wearer>,
}

impl VoiceInputs {
    pub fn generate(seed: u64, wearers: usize, windows: usize) -> Self {
        let mut rng = Rng::new(seed);
        let config = RuntimeConfig::default();
        let mut pool = Vec::with_capacity(SPEAKER_F0.len() * Emotion::ALL.len());
        for factor in SPEAKER_F0 {
            for emotion in Emotion::ALL {
                let mut params = UtteranceParams::for_emotion(emotion);
                params.f0_hz *= factor;
                let wave = synthesize_utterance(
                    &params,
                    config.window_samples as f32 / config.feature.sample_rate,
                    config.feature.sample_rate,
                    rng.next_u64(),
                )
                .expect("valid utterance parameters");
                assert_eq!(wave.len(), config.window_samples);
                pool.push(wave);
            }
        }
        let wearers = (0..wearers)
            .map(|_| {
                let mut emotions = Vec::with_capacity(windows);
                while emotions.len() < windows {
                    let emotion = rng.below(Emotion::ALL.len());
                    let dwell = 2 + rng.below(4);
                    emotions.extend(std::iter::repeat_n(emotion, dwell));
                }
                emotions.truncate(windows.max(1));
                Wearer {
                    speaker: rng.below(SPEAKER_F0.len()),
                    emotions,
                }
            })
            .collect();
        Self {
            seed,
            pool,
            wearers,
        }
    }

    pub fn wearers(&self) -> usize {
        self.wearers.len()
    }

    /// When wearer `w`'s window `k` is due, relative to the start of
    /// second `k`.
    pub fn offset_ns(&self, w: usize, k: usize) -> u64 {
        slot_offset_ns(self.seed, w, self.wearers.len(), k)
    }

    /// A fresh copy of wearer `w`'s window `k` (the runtime takes
    /// ownership of every submitted buffer).
    pub fn window(&self, w: usize, k: usize) -> Vec<f32> {
        let wearer = &self.wearers[w];
        let emotion = wearer.emotions[k % wearer.emotions.len()];
        self.pool[wearer.speaker * Emotion::ALL.len() + emotion].clone()
    }

    /// Every distinct window of the pool, for the layer replays.
    pub fn distinct_windows(&self) -> Vec<&[f32]> {
        self.pool.iter().map(Vec::as_slice).collect()
    }
}

/// Builds and starts a runtime for `inputs`' wearers. Returns it, its
/// sessions and the seconds from builder to started runtime.
pub fn start_runtime(
    inputs: &VoiceInputs,
    config: &RuntimeConfig,
    log: &Arc<Actuations>,
    with_video: bool,
    registry: Option<Arc<MetricsRegistry>>,
    budget: Option<Arc<MemoryBudget>>,
) -> (Runtime, Vec<SessionId>, f64) {
    let start = now_ns();
    let mut builder = RuntimeBuilder::new(config.clone()).expect("valid runtime config");
    if let Some(r) = registry {
        builder = builder.metrics(r);
    }
    if let Some(b) = budget {
        builder = builder.memory_budget(b);
    }
    let sessions: Vec<SessionId> = (0..inputs.wearers())
        .map(|w| {
            builder.add_session_with_precision(
                Box::new(LoopActuator::new(w, Arc::clone(log), with_video)),
                FAMILIES[w % FAMILIES.len()],
                PRECISIONS[w % PRECISIONS.len()],
            )
        })
        .collect();
    let runtime = builder.start().expect("runtime starts");
    (runtime, sessions, (now_ns() - start) as f64 / 1e9)
}

/// One throw-away setup for [`Setups`]: the same build, on a registry and
/// budget of its own when the pass is traced, so nothing it registers or
/// charges reaches the pass's own.
pub fn throwaway_setup(
    inputs: &VoiceInputs,
    config: &RuntimeConfig,
    with_video: bool,
    traced: bool,
    budget_bytes: Option<u64>,
) -> f64 {
    let log = Actuations::new(inputs.wearers(), 0);
    let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
    let budget = budget_bytes.map(|bytes| {
        Arc::new(match &registry {
            Some(r) => MemoryBudget::new(bytes).with_metrics(r),
            None => MemoryBudget::new(bytes),
        })
    });
    let (runtime, _, secs) = start_runtime(inputs, config, &log, with_video, registry, budget);
    runtime.shutdown();
    secs
}

/// Offers every wearer's window 0 closed-loop and drains, so workers have
/// built their models and warmed their arenas before timing. Afterwards
/// window `k` of the fixed-rate schedule carries sequence number `k + 1`.
pub fn warm_up(runtime: &Runtime, sessions: &[SessionId], inputs: &VoiceInputs) {
    for (w, session) in sessions.iter().enumerate() {
        runtime.submit(*session, inputs.window(w, 0));
    }
    runtime.wait_idle();
}

/// The open-loop schedule: wearer `w`'s window `k` is due at
/// `t0 + k s + offset(w, k)`. Offers windows `ks` of it: each buffer is copied
/// before its due time, the submit starts at it. Returns one offer per
/// window, in due order.
pub fn drive_fixed(
    runtime: &Runtime,
    sessions: &[SessionId],
    inputs: &VoiceInputs,
    t0: u64,
    ks: std::ops::Range<usize>,
) -> Vec<Offer> {
    let mut due: Vec<(u64, usize, usize)> = ks
        .flat_map(|k| {
            (0..inputs.wearers())
                .map(move |w| (t0 + k as u64 * 1_000_000_000 + inputs.offset_ns(w, k), w, k))
        })
        .collect();
    due.sort_unstable();
    let mut offers = Vec::with_capacity(due.len());
    for (at, w, k) in due {
        let window = inputs.window(w, k + 1);
        sleep_until(at);
        let start = now_ns();
        runtime.submit(sessions[w], window);
        offers.push(Offer {
            session: w as u32,
            seq: Some(k as u64 + 1),
            due: at,
            start,
            end: now_ns(),
        });
    }
    offers
}

/// The closed-loop phase: round-robin over wearers, the next window
/// offered as soon as `submit` returns (the Block queues hold the
/// generator back). Returns windows actuated per second (see
/// [`RateMeter`]) and the number of windows submitted.
pub fn saturate(
    runtime: &Runtime,
    sessions: &[SessionId],
    inputs: &VoiceInputs,
    log: &Actuations,
    duration_ns: u64,
) -> (f64, u64) {
    let mut meter = RateMeter::start(duration_ns, 250_000_000);
    let mut submitted = 0;
    for k in 0.. {
        for (w, session) in sessions.iter().enumerate() {
            runtime.submit(*session, inputs.window(w, k));
            submitted += 1;
            if !meter.running(log.windows()) {
                runtime.wait_idle();
                return (meter.rate(), submitted);
            }
        }
    }
    unreachable!("the saturation loop only ends by returning")
}

pub struct VoiceLoop {
    inputs: VoiceInputs,
}

impl VoiceLoop {
    pub fn new(plan: &Plan) -> Self {
        Self {
            inputs: VoiceInputs::generate(plan.seed, WEARERS, WARM_SECS + plan.fixed_secs() + 1),
        }
    }

    pub fn run(&self, plan: &Plan, traced: bool) -> Pass {
        let inputs = &self.inputs;
        let windows = plan.fixed_secs();
        let config = RuntimeConfig::default();
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let log = Actuations::new(inputs.wearers(), WARM_SECS + windows + 1);
        let mut pass = Pass::default();
        let mut setups = Setups::default();
        let throwaway = || throwaway_setup(inputs, &config, true, traced, None);
        setups.batch(throwaway);
        let (runtime, sessions, setup_s) =
            start_runtime(inputs, &config, &log, true, registry.clone(), None);
        setups.push(setup_s);
        warm_up(&runtime, &sessions, inputs);

        let t0 = now_ns() + 20_000_000;
        drive_fixed(&runtime, &sessions, inputs, t0, 0..WARM_SECS);
        let phase = Phase::start(registry.as_deref(), &log);
        let measured = WARM_SECS..WARM_SECS + windows;
        let offers = drive_fixed(&runtime, &sessions, inputs, t0, measured);
        runtime.wait_idle();
        let stages = phase.end(registry.as_deref(), &log, &mut pass);
        let mem_used = runtime.memory_budget().used_bytes();
        setups.batch(throwaway);

        let (capacity, saturation_submits) =
            saturate(&runtime, &sessions, inputs, &log, plan.saturation_ns());
        pass.e2e.insert("capacity_per_s", capacity);
        let report = runtime.shutdown().report;
        setups.batch(throwaway);
        pass.e2e.insert("setup_s", setups.median());
        pass.e2e.insert("peak_rss_mb", peak_rss_mb());

        let served = log.serve(&offers);
        served.decision_e2e(&mut pass.e2e);
        pass.attempted = offers.len() as u64;
        pass.failed = served.failed;
        pass.check(
            "voice_loop: produced == processed + dropped for every session",
            report.all_accounted(),
        );
        pass.check(
            "voice_loop: every offered window was produced",
            report.total_produced()
                == ((1 + WARM_SECS) * sessions.len() + offers.len()) as u64 + saturation_submits,
        );

        if let Some(stages) = stages {
            rtstats::window_layers(&mut pass, &offers, &served, &log, &stages, &[&report]);
            // The budget's charges are fixed once the workers are warm.
            pass.layers.insert("mem.used_bytes_peak", mem_used as f64);
            let inputs = ReplayInputs {
                feature: config.feature.clone(),
                window_samples: config.window_samples,
                model_seed: config.model_seed,
                windows: self.inputs.distinct_windows(),
                keys: (0..WEARERS as u64).collect(),
                segment: None,
            };
            layers::replay(&inputs, plan.seed, &mut pass.layers);
        }
        pass
    }
}
