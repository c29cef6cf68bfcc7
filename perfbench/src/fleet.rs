//! `fleet_small_windows`: a 2-shard `Fleet` of 2048 wearers cycled over
//! the QoS tiers, 256-sample windows and the small feature configuration
//! of the `fleet_throughput` bench. Per-window overhead (submit, rings,
//! routing, admission, control, actuate) dominates; `dsp`/`nn` are cheap.

use std::sync::Arc;

use affect_core::pipeline::FeatureConfig;
use affect_fleet::{synth_window, Fleet, FleetBuilder, FleetConfig, QosTier, SubmitOutcome};
use affect_obs::MetricsRegistry;
use affect_rt::{OverflowPolicy, RuntimeConfig, StageConfig};

use crate::actuate::{Actuations, LoopActuator};
use crate::common::{
    now_ns, peak_rss_mb, sleep_until, Offer, Plan, RateMeter, Rng, Setups, WARM_SECS,
};
use crate::layers::{self, ReplayInputs};
use crate::metrics::Pass;
use crate::rtstats::{self, Phase};

const WEARERS: usize = 2048;
/// One shard per core of the 2-core reference machine.
const SHARDS: usize = 2;
const WINDOW_SAMPLES: usize = 256;
/// Fixed offered rate, windows per second in aggregate: 15–25% of the
/// closed-loop peak on the reference machine, leaving headroom for the
/// shared host's slow spells (at 16k/s a 2x slowdown saturated the fleet
/// and queued windows for over a second).
const RATE_PER_S: u64 = 8_000;
/// The generator issues one batch per millisecond.
const BATCH_NS: u64 = 1_000_000;
const PER_BATCH: usize = (RATE_PER_S * BATCH_NS / 1_000_000_000) as usize;
/// Ingest depth below which the saturation generator keeps offering: half
/// the queue, so the workers never idle and the generator rarely blocks.
const SATURATION_DEPTH: usize = 128;
/// Distinct windows replayed through the layers.
const REPLAY_WINDOWS: usize = 64;

/// The per-shard runtime of `fleet_throughput`: small windows and feature
/// frames, one worker per shard (the shard is the unit of parallelism),
/// deep Block queues. The deadline stays the paper's 1 s; a session that
/// misses it still falls back a model family, but its decision interval
/// stays 1, so a host stall never decimates windows the generator offered.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        feature: FeatureConfig {
            frame_len: 128,
            hop: 64,
            n_mfcc: 4,
            n_mels: 12,
            ..FeatureConfig::default()
        },
        window_samples: WINDOW_SAMPLES,
        workers: 1,
        ingest: StageConfig::new(256, OverflowPolicy::Block),
        classify: StageConfig::new(256, OverflowPolicy::Block),
        control: StageConfig::new(256, OverflowPolicy::Block),
        actuate_capacity: 256,
        degraded_interval: 1,
        ..RuntimeConfig::default()
    }
}

pub struct FleetSmallWindows {
    /// Routing key of each wearer.
    keys: Vec<u64>,
    /// Order in which the fixed-rate generator walks the wearers.
    order: Vec<usize>,
    /// Offset of every wearer's window sequence into `synth_window`.
    round_offset: u64,
    /// Distinct windows for the layer replays.
    replay_windows: Vec<Vec<f32>>,
}

impl FleetSmallWindows {
    pub fn new(plan: &Plan) -> Self {
        let mut rng = Rng::new(plan.seed);
        let keys = (0..WEARERS).map(|_| rng.next_u64()).collect();
        let order = rng.permutation(WEARERS);
        let round_offset = rng.next_u64() % 1024;
        let replay_windows = (0..REPLAY_WINDOWS)
            .map(|w| synth_window(w, round_offset, WINDOW_SAMPLES))
            .collect();
        Self {
            keys,
            order,
            round_offset,
            replay_windows,
        }
    }

    fn tier(&self, wearer: usize) -> QosTier {
        QosTier::ALL[wearer % QosTier::ALL.len()]
    }

    fn window(&self, wearer: usize, round: u64) -> Vec<f32> {
        synth_window(wearer, self.round_offset + round, WINDOW_SAMPLES)
    }

    /// Builds and starts the fleet; returns it with the seconds from
    /// builder to started fleet.
    fn start(&self, log: &Arc<Actuations>, registry: Option<Arc<MetricsRegistry>>) -> (Fleet, f64) {
        let mut config = FleetConfig {
            shards: SHARDS,
            runtime: runtime_config(),
            ..FleetConfig::default()
        };
        // Admission capacity is not under test: every wearer is admitted
        // whatever the routing skew.
        config.admission.max_sessions_per_shard = WEARERS;
        config.admission.critical_reserve = 0;
        config.admission.standard_reserve = 0;
        // No tier is shed (a fill ratio never exceeds 1000 permille): the
        // admission check still runs on every submit, but a host stall
        // makes the Block queues hold the generator back instead of
        // refusing windows, so every run serves every window it offers.
        config.admission.shed_best_effort_permille = 1001;
        config.admission.shed_standard_permille = 1001;
        let start = now_ns();
        let mut builder = FleetBuilder::new(config).expect("valid fleet config");
        for (w, key) in self.keys.iter().enumerate() {
            let id = builder
                .add_session(
                    *key,
                    self.tier(w),
                    Box::new(LoopActuator::new(w, Arc::clone(log), true)),
                )
                .expect("admission cap was lifted");
            assert_eq!(id.global, w, "sessions are admitted in order");
        }
        if let Some(r) = registry {
            builder = builder.metrics(r);
        }
        let fleet = builder.start().expect("fleet starts");
        (fleet, (now_ns() - start) as f64 / 1e9)
    }

    /// One throw-away setup for [`Setups`], on a registry of its own when
    /// the pass is traced.
    fn throwaway_setup(&self, traced: bool) -> f64 {
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let (fleet, secs) = self.start(&Actuations::new(WEARERS, 0), registry);
        fleet.shutdown();
        secs
    }

    pub fn run(&self, plan: &Plan, traced: bool) -> Pass {
        let warm_batches = WARM_SECS as u64 * 1_000_000_000 / BATCH_NS;
        let batches = warm_batches + plan.fixed_ns() / BATCH_NS;
        let per_wearer = (batches as usize * PER_BATCH).div_ceil(WEARERS) + 1;
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let log = Actuations::new(WEARERS, per_wearer);
        let mut pass = Pass::default();
        let mut setups = Setups::default();
        setups.batch(|| self.throwaway_setup(traced));
        let (fleet, setup_s) = self.start(&log, registry.clone());
        setups.push(setup_s);

        // Warm-up: one window per wearer, closed loop, then drain. The
        // runtime numbers each produced window per session from 0.
        let mut next_seq = vec![0u64; WEARERS];
        let mut offered = 0u64;
        for (w, seq) in next_seq.iter_mut().enumerate() {
            offered += 1;
            if fleet.submit(fleet.session(w), self.window(w, 0)) == SubmitOutcome::Submitted {
                *seq += 1;
            }
        }
        fleet.wait_idle();

        // The fixed rate: batch `b` is due at `t0 + b ms`; its buffers are
        // built before that. The first `WARM_SECS` are not measured.
        let t0 = now_ns() + 20_000_000;
        let mut phase = None;
        let mut offers = Vec::with_capacity((batches - warm_batches) as usize * PER_BATCH);
        for b in 0..batches {
            let due = t0 + b * BATCH_NS;
            let batch: Vec<(usize, Vec<f32>)> = (0..PER_BATCH)
                .map(|i| {
                    let n = b as usize * PER_BATCH + i;
                    let w = self.order[n % WEARERS];
                    (w, self.window(w, 1 + (n / WEARERS) as u64))
                })
                .collect();
            if b == warm_batches {
                phase = Some(Phase::start(registry.as_deref(), &log));
            }
            sleep_until(due);
            for (w, window) in batch {
                let start = now_ns();
                let outcome = fleet.submit(fleet.session(w), window);
                let end = now_ns();
                offered += 1;
                let seq = (outcome == SubmitOutcome::Submitted).then(|| {
                    next_seq[w] += 1;
                    next_seq[w] - 1
                });
                if b >= warm_batches {
                    offers.push(Offer {
                        session: w as u32,
                        seq,
                        due,
                        start,
                        end,
                    });
                }
            }
        }
        fleet.wait_idle();
        let stages =
            phase
                .expect("the measured part started")
                .end(registry.as_deref(), &log, &mut pass);
        let mem_used: u64 = (0..SHARDS)
            .filter_map(|s| fleet.shard_budget(s))
            .map(|b| b.used_bytes())
            .sum();
        setups.batch(|| self.throwaway_setup(traced));

        // Saturation: closed loop over all wearers on the system clock. The
        // generator respects backpressure: it offers only while every
        // shard's ingest queue is below `SATURATION_DEPTH`, so queues stay
        // full enough that workers never idle, nothing is shed, and the
        // generator does not compete with the workers for CPU.
        let mut meter = RateMeter::start(plan.saturation_ns(), 250_000_000);
        let mut round = per_wearer as u64;
        'closed: loop {
            for w in 0..WEARERS {
                if w % 16 == 0 {
                    while fleet.max_ingest_depth() >= SATURATION_DEPTH {
                        std::thread::sleep(std::time::Duration::from_micros(20));
                    }
                    if !meter.running(log.windows()) {
                        break 'closed;
                    }
                }
                offered += 1;
                fleet.submit(fleet.session(w), self.window(w, round));
            }
            round += 1;
        }
        let capacity = meter.rate();
        fleet.wait_idle();
        pass.e2e.insert("capacity_per_s", capacity);
        let report = fleet.shutdown();
        setups.batch(|| self.throwaway_setup(traced));
        pass.e2e.insert("setup_s", setups.median());
        pass.e2e.insert("peak_rss_mb", peak_rss_mb());

        let served = log.serve(&offers);
        served.decision_e2e(&mut pass.e2e);
        pass.attempted = offers.len() as u64;
        pass.failed = served.failed;
        pass.check(
            "fleet: produced == processed + dropped for every session",
            report.merged.all_accounted(),
        );
        pass.check(
            "fleet: offered == submitted + shed + evicted for every tier",
            report.admission.accounted(),
        );
        pass.check(
            "fleet: the admission ledger saw every window the generator offered",
            report.admission.offered.total() == offered,
        );

        if let Some(stages) = stages {
            let shard_reports: Vec<_> = report.shards.iter().map(|(_, r)| r).collect();
            rtstats::window_layers(&mut pass, &offers, &served, &log, &stages, &shard_reports);
            let layers = &mut pass.layers;
            for (tier, name) in [
                (QosTier::BestEffort, "fleet.shed_ratio.best_effort"),
                (QosTier::Standard, "fleet.shed_ratio.standard"),
            ] {
                let of_tier = |o: &&Offer| self.tier(o.session as usize) == tier;
                let tier_offers = offers.iter().filter(of_tier).count();
                let shed = offers
                    .iter()
                    .filter(of_tier)
                    .filter(|o| o.seq.is_none())
                    .count();
                layers.insert(name, shed as f64 / tier_offers.max(1) as f64);
            }
            // The budgets' charges are fixed once the workers are warm.
            layers.insert("mem.used_bytes_peak", mem_used as f64);
            let config = runtime_config();
            let inputs = ReplayInputs {
                feature: config.feature.clone(),
                window_samples: config.window_samples,
                model_seed: config.model_seed,
                windows: self.replay_windows.iter().map(Vec::as_slice).collect(),
                keys: self.keys.clone(),
                segment: None,
            };
            layers::replay(&inputs, plan.seed, layers);
        }
        pass
    }
}
