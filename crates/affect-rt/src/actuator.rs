//! Actuation endpoints: where control decisions leave the runtime.
//!
//! Each session owns one [`Actuator`]; the actuate stage calls it from a
//! dedicated thread, so implementations need `Send` but no internal
//! locking. Adapters for the two managed subsystems of the paper are
//! provided: [`VideoActuator`] retargets the H.264 decoder's power mode
//! and [`AppActuator`] re-ranks the app manager's background list.

use affect_core::controller::ControlEvent;
use affect_core::emotion::Emotion;
use affect_core::policy::VideoPowerMode;
use h264::adaptive::ModeSwitchDriver;
use h264::decoder::DecodeOutput;
use h264::CodecError;
use mobile_sim::affect_table::EmotionReranker;

use crate::wire::{WireReport, WireSession};

/// A session's sink for control decisions.
pub trait Actuator: Send {
    /// Applies one control event. `now_nanos` is the runtime clock at
    /// actuation time, for timestamped audit logs.
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64);

    /// Called once per window that reaches the actuate stage, *before* its
    /// events (if any) are applied and before the window's end-to-end
    /// latency is measured. The default does nothing; tests use this hook
    /// to gate the pipeline and make latency deterministic.
    fn on_window(&mut self, seq: u64) {
        let _ = seq;
    }
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullActuator;

impl Actuator for NullActuator {
    fn actuate(&mut self, _event: ControlEvent, _now_nanos: u64) {}
}

/// Records every event with its actuation timestamp; for tests and demos.
#[derive(Debug, Default)]
pub struct CollectActuator {
    /// `(now_nanos, event)` in actuation order.
    pub events: Vec<(u64, ControlEvent)>,
    /// Number of windows that reached the actuate stage.
    pub windows: u64,
}

impl Actuator for CollectActuator {
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64) {
        self.events.push((now_nanos, event));
    }

    fn on_window(&mut self, _seq: u64) {
        self.windows += 1;
    }
}

/// Drives the affect-adaptive H.264 decoder: [`ControlEvent::VideoMode`]
/// retargets the [`ModeSwitchDriver`]; other events are ignored.
#[derive(Debug)]
pub struct VideoActuator {
    driver: ModeSwitchDriver,
    /// `(now_nanos, mode)` for every *effective* switch, in order.
    switch_log: Vec<(u64, VideoPowerMode)>,
}

impl VideoActuator {
    /// Wraps a mode-switch driver.
    pub fn new(driver: ModeSwitchDriver) -> Self {
        Self {
            driver,
            switch_log: Vec::new(),
        }
    }

    /// The wrapped driver (current mode, switch count, segment decoding).
    pub fn driver(&self) -> &ModeSwitchDriver {
        &self.driver
    }

    /// Timestamped effective mode switches.
    pub fn switch_log(&self) -> &[(u64, VideoPowerMode)] {
        &self.switch_log
    }

    /// Streams one encoded segment through this actuator's driver over
    /// `wire`, under whatever power mode the affect loop has selected.
    /// See [`WireSession::ingest_segment`].
    pub fn ingest_segment(
        &self,
        wire: &mut WireSession,
        stream: &[u8],
        tap: impl FnMut(u64, &mut Vec<u8>),
    ) -> Result<(DecodeOutput, WireReport), CodecError> {
        wire.ingest_segment(&self.driver, stream, tap)
    }
}

impl Actuator for VideoActuator {
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64) {
        if let ControlEvent::VideoMode(mode) = event {
            if self.driver.set_mode(mode) {
                self.switch_log.push((now_nanos, mode));
            }
        }
    }
}

/// Drives the emotion-aware app manager: [`ControlEvent::EmotionChanged`]
/// re-conditions the [`EmotionReranker`]; other events are ignored.
#[derive(Debug)]
pub struct AppActuator {
    reranker: EmotionReranker,
    /// `(now_nanos, emotion)` for every *effective* re-rank, in order.
    rerank_log: Vec<(u64, Emotion)>,
}

impl AppActuator {
    /// Wraps an emotion reranker.
    pub fn new(reranker: EmotionReranker) -> Self {
        Self {
            reranker,
            rerank_log: Vec::new(),
        }
    }

    /// Timestamped effective re-ranks.
    pub fn rerank_log(&self) -> &[(u64, Emotion)] {
        &self.rerank_log
    }
}

impl Actuator for AppActuator {
    fn actuate(&mut self, event: ControlEvent, now_nanos: u64) {
        if let ControlEvent::EmotionChanged(emotion) = event {
            if self.reranker.observe(emotion) {
                self.rerank_log.push((now_nanos, emotion));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_sim::affect_table::AppAffectTable;
    use mobile_sim::subjects::SubjectProfile;

    #[test]
    fn collect_actuator_records_in_order() {
        let mut a = CollectActuator::default();
        a.on_window(0);
        a.actuate(ControlEvent::EmotionChanged(Emotion::Happy), 10);
        a.on_window(1);
        a.actuate(ControlEvent::VideoMode(VideoPowerMode::Combined), 20);
        assert_eq!(a.windows, 2);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[0].0, 10);
    }

    #[test]
    fn video_actuator_logs_only_effective_switches() {
        let mut a = VideoActuator::new(ModeSwitchDriver::new(VideoPowerMode::Standard));
        a.actuate(ControlEvent::VideoMode(VideoPowerMode::Standard), 1);
        a.actuate(ControlEvent::VideoMode(VideoPowerMode::Combined), 2);
        a.actuate(ControlEvent::EmotionChanged(Emotion::Sad), 3);
        a.actuate(ControlEvent::VideoMode(VideoPowerMode::Combined), 4);
        assert_eq!(a.switch_log(), &[(2, VideoPowerMode::Combined)]);
        assert_eq!(a.driver().mode(), VideoPowerMode::Combined);
    }

    #[test]
    fn app_actuator_logs_only_effective_reranks() {
        let table = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.0);
        let mut a = AppActuator::new(EmotionReranker::new(table, Emotion::Neutral));
        a.actuate(ControlEvent::EmotionChanged(Emotion::Neutral), 1);
        a.actuate(ControlEvent::EmotionChanged(Emotion::Happy), 2);
        a.actuate(ControlEvent::VideoMode(VideoPowerMode::Standard), 3);
        assert_eq!(a.rerank_log(), &[(2, Emotion::Happy)]);
    }
}
