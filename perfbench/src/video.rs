//! `video_fig6`: 8 wearers run `voice_loop`-shaped windows at 1 window/s
//! with `AppActuator`, and beside them each plays one 1 s CIF segment per
//! second through `WireSession::ingest_segment` (1500 B chunks) into its
//! own `ModeSwitchDriver`. Each driver's mode follows the paper's Fig. 6
//! cognitive-state schedule, time-compressed into the run, so all four
//! modes run in a fixed proportion whatever the classifier outputs.

use std::sync::Arc;

use affect_core::controller::{ControlEvent, SystemController};
use affect_core::emotion::CognitiveState;
use affect_core::policy::{PolicyTable, VideoPowerMode};
use affect_obs::MetricsRegistry;
use affect_rt::{MemoryBudget, RuntimeConfig, WireConfig, WireSession};
use biosignal::UulmmacSession;
use h264::adaptive::ModeSwitchDriver;
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::Frame;

use crate::actuate::Actuations;
use crate::common::{
    median, now_ns, peak_rss_mb, quantile, sleep_until, slot_offset_ns, Offer, Plan, RateMeter,
    Rng, Served, Setups, WARM_SECS,
};
use crate::layers::{self, ReplayInputs, MODE_METRICS};
use crate::metrics::Pass;
use crate::rtstats::{self, Phase};
use crate::voice::{self, VoiceInputs};

const WEARERS: usize = 8;
/// 528x400 (larger than CIF) at 30 frames per 1 s segment: decoding the
/// wearers' segments costs about three times the voice loop's CPU.
const WIDTH: usize = 528;
const HEIGHT: usize = 400;
const FRAMES: usize = 30;
/// Motion pauses over these frames and the encoder skips macroblocks that
/// barely change, so about a fifth of the P/B units fall under the input
/// selector's deletion threshold (as in the calibration clip).
const PAUSE: std::ops::Range<usize> = 11..19;
const QP: u8 = 28;
const SKIP_THRESHOLD: u32 = 1500;
/// Memory budget with ample headroom: the governor is on but stays Green.
const BUDGET_BYTES: u64 = 256 << 20;

/// A cheap fingerprint of decoded frames (word-wise multiply-xor).
fn frames_hash(frames: &[Frame]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for frame in frames {
        let data = frame.data();
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
                .wrapping_mul(0x100_0000_01b3);
        }
        for b in words.remainder() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn mode_index(mode: VideoPowerMode) -> usize {
    VideoPowerMode::ALL
        .iter()
        .position(|m| *m == mode)
        .expect("mode in ALL")
}

pub struct VideoFig6 {
    voice: VoiceInputs,
    /// The encoded 1 s segment every wearer plays.
    stream: Vec<u8>,
    /// Setup-time reference decode per mode: frame hash and frame count.
    reference: [(u64, usize); 4],
    /// Seed of the segments' due-time offsets.
    seed: u64,
    /// Offset of each wearer into the state schedule.
    schedule_offset: Vec<usize>,
    /// The Fig. 6 state at each of the run's schedule positions.
    states: Vec<CognitiveState>,
}

impl VideoFig6 {
    pub fn new(plan: &Plan) -> Self {
        let mut rng = Rng::new(plan.seed ^ 0x5eed_f166);
        let clip = h264::video::synthetic_clip_with_pause(WIDTH, HEIGHT, FRAMES, plan.seed, PAUSE)
            .expect("valid clip dimensions");
        let encoder = Encoder::new(EncoderConfig {
            qp: QP,
            gop: GopPattern {
                intra_period: 8,
                b_between: 1,
            },
            skip_threshold: SKIP_THRESHOLD,
            ..EncoderConfig::default()
        })
        .expect("valid encoder config");
        let stream = encoder.encode(&clip).expect("clip encodes");
        let reference = VideoPowerMode::ALL.map(|mode| {
            let out = ModeSwitchDriver::new(mode)
                .decode_segment(&stream)
                .expect("reference decode");
            (frames_hash(&out.frames), out.frames.len())
        });
        // The 40-minute Fig. 6 schedule compressed onto one position per
        // second of the fixed-rate phase; wearers start at seeded offsets,
        // so every mode is always in play in the same proportion.
        let positions = plan.fixed_secs();
        let fig6 = UulmmacSession::paper_fig6(plan.seed).expect("fig6 schedule");
        let states = (0..positions)
            .map(|p| fig6.state_at_min((p as f32 + 0.5) * fig6.duration_min() / positions as f32))
            .collect();
        let schedule_offset = (0..WEARERS).map(|_| rng.below(positions)).collect();
        Self {
            voice: VoiceInputs::generate(plan.seed, WEARERS, WARM_SECS + positions + 1),
            stream,
            reference,
            seed: rng.next_u64(),
            schedule_offset,
            states,
        }
    }

    pub fn run(&self, plan: &Plan, traced: bool) -> Pass {
        let windows = plan.fixed_secs();
        let config = RuntimeConfig::default();
        let registry = traced.then(|| Arc::new(MetricsRegistry::new()));
        let budget = Arc::new(match &registry {
            Some(r) => MemoryBudget::new(BUDGET_BYTES).with_metrics(r),
            None => MemoryBudget::new(BUDGET_BYTES),
        });
        let log = Actuations::new(WEARERS, WARM_SECS + windows + 1);
        let mut pass = Pass::default();
        let mut setups = Setups::default();
        let throwaway =
            || voice::throwaway_setup(&self.voice, &config, false, traced, Some(BUDGET_BYTES));
        setups.batch(throwaway);
        let (runtime, sessions, setup_s) = voice::start_runtime(
            &self.voice,
            &config,
            &log,
            false,
            registry.clone(),
            Some(Arc::clone(&budget)),
        );
        setups.push(setup_s);
        voice::warm_up(&runtime, &sessions, &self.voice);

        let mut player = Player::new(&budget, registry.as_deref());
        // Windows and segments share one schedule: item `k` of a wearer is
        // due at `t0 + k s` plus an offset in the wearer's slot; the first `WARM_SECS`
        // are not measured.
        let t0 = now_ns() + 20_000_000;
        let (offers, phase) = std::thread::scope(|scope| {
            let video = scope.spawn(|| player.play_fixed(self, t0, windows));
            let voice = &self.voice;
            voice::drive_fixed(&runtime, &sessions, voice, t0, 0..WARM_SECS);
            let phase = Phase::start(registry.as_deref(), &log);
            let measured = WARM_SECS..WARM_SECS + windows;
            let offers = voice::drive_fixed(&runtime, &sessions, voice, t0, measured);
            video.join().expect("video thread");
            (offers, phase)
        });
        runtime.wait_idle();
        let stages = phase.end(registry.as_deref(), &log, &mut pass);
        let fixed = std::mem::take(&mut player.stats);
        setups.batch(throwaway);

        pass.e2e.insert(
            "capacity_per_s",
            player.play_saturated(self, WARM_SECS + windows, plan.saturation_ns()),
        );
        let report = runtime.shutdown().report;
        setups.batch(throwaway);
        pass.e2e.insert("setup_s", setups.median());
        pass.e2e.insert("peak_rss_mb", peak_rss_mb());

        let served = log.serve(&offers);
        served.decision_e2e(&mut pass.e2e);
        pass.attempted = (offers.len() + fixed.offers.len()) as u64;
        pass.failed = served.failed + fixed.served.failed;
        pass.check(
            "video_fig6: produced == processed + dropped for every session",
            report.all_accounted(),
        );
        let mismatches = fixed.mismatches + player.stats.mismatches;
        pass.check(
            format!("video_fig6: every decoded segment matches the reference decode of its mode ({mismatches} mismatched)"),
            mismatches == 0,
        );
        let errors = fixed.errors + player.stats.errors;
        pass.check(
            format!("video_fig6: zero decode errors ({errors} seen)"),
            errors == 0,
        );
        let transitions: u64 = budget.transitions().iter().sum();
        pass.check(
            format!(
                "video_fig6: the memory governor stayed Green ({transitions} band transitions)"
            ),
            transitions == 0,
        );
        pass.check(
            "video_fig6: all four decoder modes ran in the fixed-rate phase",
            fixed.by_mode.iter().all(|n| *n > 0),
        );

        if let Some(stages) = stages {
            rtstats::window_layers(&mut pass, &offers, &served, &log, &stages, &[&report]);
            let layers = &mut pass.layers;
            // The wearers' actuators only re-rank apps; the decoder modes
            // are switched by the video thread.
            layers.insert("actuate.mode_switches", fixed.switches as f64);
            let segments = fixed.offers.len().max(1) as f64;
            layers.insert("h264.mb_per_segment", fixed.macroblocks as f64 / segments);
            layers.insert(
                "h264.nal_deleted_per_segment",
                fixed.deleted as f64 / segments,
            );
            for (i, (_, name)) in MODE_METRICS.iter().enumerate() {
                layers.insert(name, fixed.by_mode[i] as f64);
            }
            layers.insert("mem.used_bytes_peak", player.mem_peak as f64);
            for (o, mode) in fixed.offers.iter().zip(&fixed.modes) {
                let seq = o.seq.expect("segments are numbered");
                pass.spans.push(format!(
                    "segment.{},{},{seq},{},{},{},{}",
                    VideoPowerMode::ALL[*mode].name(),
                    o.session,
                    o.due,
                    o.start,
                    o.end,
                    o.end
                ));
            }

            let inputs = ReplayInputs {
                feature: config.feature.clone(),
                window_samples: config.window_samples,
                model_seed: config.model_seed,
                windows: self.voice.distinct_windows(),
                keys: (0..WEARERS as u64).collect(),
                segment: Some(&self.stream),
            };
            let times = layers::replay(&inputs, plan.seed, layers);
            // Segment latency = wait for the video thread + decode + wire
            // overhead, attributed on means (the modes make the latency
            // bimodal, so medians do not add up): each segment is charged
            // the replayed self-times of the mode it ran in.
            let n = fixed.offers.len().max(1) as f64;
            let mean_of = |f: &dyn Fn(&Offer, usize) -> f64| {
                fixed
                    .offers
                    .iter()
                    .zip(&fixed.modes)
                    .map(|(o, m)| f(o, *m))
                    .sum::<f64>()
                    / n
            };
            let latency = mean_of(&|o, _| (o.end - o.due) as f64 / 1e6);
            let wait = mean_of(&|o, _| o.start.saturating_sub(o.due) as f64 / 1e6);
            let decode = mean_of(&|_, m| times.decode_ms[m]);
            let wire = mean_of(&|_, m| times.ingest_ms[m] - times.decode_ms[m]);
            let residual = latency - wait - decode - wire;
            layers.insert("video.segment_residual_pct", 100.0 * residual / latency);
            let lines = &mut pass.attribution;
            lines.push(format!(
                "segment latency mean = {latency:.3} ms (segment_p50_ms = {:.3} ms, segment_p99_ms = {:.3} ms)",
                median(&fixed.served.latency_ms),
                quantile(&fixed.served.latency_ms, 0.99)
            ));
            lines.push(format!(
                "  {:<44} {wait:>9.3} ms",
                "wait for the video thread"
            ));
            lines.push(format!(
                "  {:<44} {decode:>9.3} ms",
                "decode self-time (replayed, per mode)"
            ));
            lines.push(format!(
                "  {:<44} {wire:>9.3} ms",
                "wire overhead (ingest - decode, per mode)"
            ));
            lines.push(format!(
                "  {:<44} {residual:>9.3} ms ({:.1}% of the mean)",
                "residual (contention with the voice loop)",
                100.0 * residual / latency
            ));
        }
        pass
    }
}

/// What the video thread saw over one phase.
#[derive(Default)]
struct PlayStats {
    offers: Vec<Offer>,
    /// Mode (index into `VideoPowerMode::ALL`) each offered segment ran in.
    modes: Vec<usize>,
    served: Served,
    by_mode: [u64; 4],
    macroblocks: u64,
    deleted: u64,
    switches: u64,
    mismatches: u64,
    errors: u64,
}

/// The video side of every wearer: decoder driver, its controller, its
/// wire, and where it stands in the schedule.
struct Player {
    drivers: Vec<ModeSwitchDriver>,
    controllers: Vec<SystemController>,
    wires: Vec<WireSession>,
    budget: Arc<MemoryBudget>,
    traced: bool,
    mem_peak: u64,
    stats: PlayStats,
}

impl Player {
    /// With a registry (a traced pass) the drivers report into it and the
    /// memory budget is sampled at every wire chunk.
    fn new(budget: &Arc<MemoryBudget>, registry: Option<&MetricsRegistry>) -> Self {
        Self {
            drivers: (0..WEARERS)
                .map(|_| {
                    let mut driver = ModeSwitchDriver::new(VideoPowerMode::Standard);
                    if let Some(r) = registry {
                        driver.attach_metrics(r);
                    }
                    driver
                })
                .collect(),
            controllers: (0..WEARERS)
                .map(|_| SystemController::new(PolicyTable::paper_defaults(), 1))
                .collect(),
            wires: (0..WEARERS)
                .map(|_| {
                    WireSession::new(WireConfig::default()).with_memory_budget(Arc::clone(budget))
                })
                .collect(),
            budget: Arc::clone(budget),
            traced: registry.is_some(),
            mem_peak: 0,
            stats: PlayStats::default(),
        }
    }

    /// Applies wearer `w`'s schedule state for segment `k`
    /// (`SystemController::observe_state` -> `ModeSwitchDriver::set_mode`).
    /// Returns the mode the segment will decode in and whether it changed.
    fn steer(&mut self, workload: &VideoFig6, w: usize, k: usize) -> (usize, bool) {
        let state = workload.states[(k + workload.schedule_offset[w]) % workload.states.len()];
        let mut switched = false;
        for event in self.controllers[w]
            .observe_state(state)
            .expect("observe state")
        {
            if let ControlEvent::VideoMode(mode) = event {
                switched |= self.drivers[w].set_mode(mode);
            }
        }
        (mode_index(self.drivers[w].mode()), switched)
    }

    /// Streams one segment for wearer `w` in mode `mode` and checks it
    /// against the reference decode. Returns `(frames, macroblocks, NAL
    /// units deleted)`, or `None` when the segment failed to decode.
    fn ingest(&mut self, workload: &VideoFig6, w: usize, mode: usize) -> Option<(u64, u64, u64)> {
        let budget = &self.budget;
        let traced = self.traced;
        let mut peak = self.mem_peak;
        let result = self.wires[w].ingest_segment(&self.drivers[w], &workload.stream, |_, _| {
            if traced {
                peak = peak.max(budget.used_bytes());
            }
        });
        self.mem_peak = peak;
        match result {
            Ok((out, report)) => {
                if (frames_hash(&out.frames), out.frames.len()) != workload.reference[mode] {
                    self.stats.mismatches += 1;
                }
                Some((
                    report.frames,
                    out.activity.macroblocks,
                    out.selection.deleted_units as u64,
                ))
            }
            Err(_) => {
                self.stats.errors += 1;
                None
            }
        }
    }

    /// The fixed-rate phase: wearer `w`'s segment `k` is due at
    /// `t0 + k s + offset(w, k)`; the segment's latency ends when
    /// `ingest_segment` returns. Segments from `WARM_SECS` on are booked.
    fn play_fixed(&mut self, workload: &VideoFig6, t0: u64, segments: usize) {
        let mut due: Vec<(u64, usize, usize)> = (0..WARM_SECS + segments)
            .flat_map(|k| {
                (0..WEARERS).map(move |w| {
                    let offset = slot_offset_ns(workload.seed, w, WEARERS, k);
                    (t0 + k as u64 * 1_000_000_000 + offset, w, k)
                })
            })
            .collect();
        due.sort_unstable();
        for (at, w, k) in due {
            let (mode, switched) = self.steer(workload, w, k);
            sleep_until(at);
            let start = now_ns();
            let out = self.ingest(workload, w, mode);
            let end = now_ns();
            if k < WARM_SECS {
                continue;
            }
            let offer = Offer {
                session: w as u32,
                seq: Some(k as u64),
                due: at,
                start,
                end,
            };
            self.stats.served.book(&offer, out.is_some().then_some(end));
            self.stats.offers.push(offer);
            self.stats.modes.push(mode);
            self.stats.by_mode[mode] += 1;
            self.stats.switches += u64::from(switched);
            if let Some((_, macroblocks, deleted)) = out {
                self.stats.macroblocks += macroblocks;
                self.stats.deleted += deleted;
            }
        }
    }

    /// The saturation phase: segments back to back, wearers in turn, the
    /// schedule continuing. Returns frames decoded per second (see
    /// [`RateMeter`]; one-second slices hold about 20 segments).
    fn play_saturated(&mut self, workload: &VideoFig6, first: usize, duration_ns: u64) -> f64 {
        let mut meter = RateMeter::start(duration_ns, 1_000_000_000);
        let mut frames = 0;
        for k in first.. {
            for w in 0..WEARERS {
                let (mode, _) = self.steer(workload, w, k);
                frames += self.ingest(workload, w, mode).map_or(0, |(f, _, _)| f);
                if !meter.running(frames) {
                    return meter.rate();
                }
            }
        }
        unreachable!("the saturation loop only ends by returning")
    }
}
