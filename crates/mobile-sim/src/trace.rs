//! Perfetto-like event tracing and process-lifespan timelines (Fig. 9).

use crate::device::DeviceConfig;
use affect_core::emotion::Emotion;

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An app came to the foreground.
    Launch {
        /// Simulation time in seconds.
        time_s: f64,
        /// App id.
        app_id: usize,
        /// `true` when the process had to be cold-started from flash.
        cold: bool,
    },
    /// A background process was killed.
    Kill {
        /// Simulation time in seconds.
        time_s: f64,
        /// App id.
        app_id: usize,
    },
    /// The detected emotion changed.
    EmotionChange {
        /// Simulation time in seconds.
        time_s: f64,
        /// New emotion.
        emotion: Emotion,
    },
}

impl TraceEvent {
    /// Event timestamp.
    pub fn time_s(&self) -> f64 {
        match self {
            TraceEvent::Launch { time_s, .. }
            | TraceEvent::Kill { time_s, .. }
            | TraceEvent::EmotionChange { time_s, .. } => *time_s,
        }
    }
}

/// Per-app alive intervals recovered from a trace — the paper's Fig. 9
/// "process running diagram".
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessTimeline {
    /// `(app_id, alive intervals)` for every app that ever ran, in app-id
    /// order.
    pub rows: Vec<(usize, Vec<(f64, f64)>)>,
    /// Trace duration in seconds.
    pub duration_s: f64,
}

impl ProcessTimeline {
    /// Builds the timeline from a trace.
    pub fn from_trace(events: &[TraceEvent], duration_s: f64) -> Self {
        use std::collections::BTreeMap;
        let mut open: BTreeMap<usize, f64> = BTreeMap::new();
        let mut rows: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for event in events {
            match *event {
                TraceEvent::Launch { time_s, app_id, .. } => {
                    // Either way the process is alive from here; a warm
                    // launch finds the interval already open.
                    open.entry(app_id).or_insert(time_s);
                    rows.entry(app_id).or_default();
                }
                TraceEvent::Kill { time_s, app_id } => {
                    if let Some(start) = open.remove(&app_id) {
                        rows.entry(app_id).or_default().push((start, time_s));
                    }
                }
                TraceEvent::EmotionChange { .. } => {}
            }
        }
        for (app_id, start) in open {
            rows.entry(app_id).or_default().push((start, duration_s));
        }
        Self {
            rows: rows.into_iter().collect(),
            duration_s,
        }
    }

    /// Number of times the app's process died.
    pub fn death_count(&self, app_id: usize) -> usize {
        self.rows
            .iter()
            .find(|(id, _)| *id == app_id)
            .map(|(_, spans)| {
                spans
                    .iter()
                    .filter(|&&(_, end)| end < self.duration_s)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Renders the Fig. 9-style ASCII diagram: one row per app, `━` while
    /// the process is alive, `·` while dead.
    pub fn render_ascii(&self, device: &DeviceConfig, columns: usize) -> String {
        let columns = columns.max(10);
        let mut out = String::new();
        let name_width = 16usize;
        for (app_id, spans) in &self.rows {
            let name = device
                .app(*app_id)
                .map(|a| a.name.clone())
                .unwrap_or_else(|_| format!("app{app_id}"));
            let mut row = vec!['·'; columns];
            for &(start, end) in spans {
                let a = ((start / self.duration_s) * columns as f64) as usize;
                let b = (((end / self.duration_s) * columns as f64).ceil() as usize).min(columns);
                for c in row.iter_mut().take(b).skip(a.min(columns)) {
                    *c = '━';
                }
            }
            let bar: String = row.into_iter().collect();
            out.push_str(&format!("{name:<name_width$} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Launch {
                time_s: 0.0,
                app_id: 1,
                cold: true,
            },
            TraceEvent::Launch {
                time_s: 10.0,
                app_id: 2,
                cold: true,
            },
            TraceEvent::Kill {
                time_s: 40.0,
                app_id: 1,
            },
            TraceEvent::Launch {
                time_s: 60.0,
                app_id: 1,
                cold: true,
            },
            TraceEvent::EmotionChange {
                time_s: 50.0,
                emotion: Emotion::Calm,
            },
        ]
    }

    #[test]
    fn timeline_reconstructs_intervals() {
        let tl = ProcessTimeline::from_trace(&sample_trace(), 100.0);
        assert_eq!(tl.rows.len(), 2);
        let app1 = tl.rows.iter().find(|(id, _)| *id == 1).unwrap();
        assert_eq!(app1.1, vec![(0.0, 40.0), (60.0, 100.0)]);
    }

    #[test]
    fn death_count_excludes_survivors() {
        let tl = ProcessTimeline::from_trace(&sample_trace(), 100.0);
        assert_eq!(tl.death_count(1), 1); // killed once, then survived
        assert_eq!(tl.death_count(2), 0);
        assert_eq!(tl.death_count(99), 0);
    }

    #[test]
    fn ascii_render_shows_alive_and_dead() {
        let device = DeviceConfig::paper_emulator();
        let tl = ProcessTimeline::from_trace(&sample_trace(), 100.0);
        let art = tl.render_ascii(&device, 50);
        assert!(art.contains('━'));
        assert!(art.contains('·'));
        assert_eq!(art.lines().count(), 2);
    }

    #[test]
    fn event_time_accessor() {
        assert_eq!(
            TraceEvent::Kill {
                time_s: 7.5,
                app_id: 0
            }
            .time_s(),
            7.5
        );
    }
}
