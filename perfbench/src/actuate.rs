//! The benchmark's actuator wrapper: it forwards control events to the
//! paper's two actuation endpoints and timestamps every window's
//! `on_window`, which is where a decision's latency ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use affect_core::controller::ControlEvent;
use affect_core::emotion::Emotion;
use affect_core::policy::VideoPowerMode;
use affect_rt::{Actuator, AppActuator, VideoActuator};
use h264::adaptive::ModeSwitchDriver;
use mobile_sim::affect_table::{AppAffectTable, EmotionReranker};
use mobile_sim::subjects::SubjectProfile;

use crate::common::{now_ns, Offer, Served};

/// When each window `(session, seq)` reached `on_window`, plus actuation
/// counters. Written by the runtimes' actuate threads, read after the
/// pipeline drained (`wait_idle` orders the two), so relaxed atomics do.
pub struct Actuations {
    per_session: u64,
    /// `[session * per_session + seq]`: benchmark-clock time + 1; 0 = not
    /// (yet) actuated. Sequence numbers past `per_session` only count.
    at: Vec<AtomicU64>,
    windows: AtomicU64,
    events: AtomicU64,
    mode_switches: AtomicU64,
    reranks: AtomicU64,
}

impl Actuations {
    pub fn new(sessions: usize, per_session: usize) -> Arc<Self> {
        Arc::new(Self {
            per_session: per_session as u64,
            at: (0..sessions * per_session)
                .map(|_| AtomicU64::new(0))
                .collect(),
            windows: AtomicU64::new(0),
            events: AtomicU64::new(0),
            mode_switches: AtomicU64::new(0),
            reranks: AtomicU64::new(0),
        })
    }

    fn mark(&self, session: usize, seq: u64) {
        if seq < self.per_session {
            let slot = session as u64 * self.per_session + seq;
            self.at[slot as usize].store(now_ns() + 1, Ordering::Relaxed);
        }
        self.windows.fetch_add(1, Ordering::Relaxed);
    }

    /// When window `(session, seq)` was actuated, if it was.
    pub fn at(&self, session: usize, seq: u64) -> Option<u64> {
        if seq >= self.per_session {
            return None;
        }
        match self.at[(session as u64 * self.per_session + seq) as usize].load(Ordering::Relaxed) {
            0 => None,
            t => Some(t - 1),
        }
    }

    /// Books offered windows against their actuations.
    pub fn serve(&self, offers: &[Offer]) -> Served {
        let mut served = Served::default();
        for offer in offers {
            let at = offer
                .seq
                .and_then(|seq| self.at(offer.session as usize, seq));
            served.book(offer, at);
        }
        served
    }

    /// Windows actuated so far, across sessions.
    pub fn windows(&self) -> u64 {
        self.windows.load(Ordering::Relaxed)
    }

    /// `(events, effective mode switches, effective re-ranks)` so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.events.load(Ordering::Relaxed),
            self.mode_switches.load(Ordering::Relaxed),
            self.reranks.load(Ordering::Relaxed),
        )
    }
}

/// One session's actuation endpoint: the app re-ranker, optionally the
/// decoder mode switch, and the timestamp log.
pub struct LoopActuator {
    session: usize,
    log: Arc<Actuations>,
    video: Option<VideoActuator>,
    app: AppActuator,
}

impl LoopActuator {
    pub fn new(session: usize, log: Arc<Actuations>, with_video: bool) -> Self {
        let table = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.0);
        Self {
            session,
            log,
            video: with_video
                .then(|| VideoActuator::new(ModeSwitchDriver::new(VideoPowerMode::Standard))),
            app: AppActuator::new(EmotionReranker::new(table, Emotion::Neutral)),
        }
    }
}

impl Actuator for LoopActuator {
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64) {
        self.log.events.fetch_add(1, Ordering::Relaxed);
        if let Some(video) = &mut self.video {
            let before = video.switch_log().len();
            video.actuate(event, now_nanos);
            if video.switch_log().len() > before {
                self.log.mode_switches.fetch_add(1, Ordering::Relaxed);
            }
        }
        let before = self.app.rerank_log().len();
        self.app.actuate(event, now_nanos);
        if self.app.rerank_log().len() > before {
            self.log.reranks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_window(&mut self, seq: u64) {
        self.log.mark(self.session, seq);
    }
}
