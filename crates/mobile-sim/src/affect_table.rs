//! The App Affect Table: per-emotion app-launch propensities with online
//! learning.
//!
//! The paper's "emotional background manager has an App rank generator and
//! a background App Affect Table \[which\] stores the user specific app usage
//! pattern with certain emotional states". Here the table is seeded from a
//! subject profile (baseline category shares × emotion affinity) and
//! refined online with an exponential moving average over observed
//! launches, so the manager personalizes as the user behaves.

use crate::app::{App, AppCategory};
use crate::subjects::SubjectProfile;
use affect_core::emotion::Emotion;
use std::collections::BTreeMap;

/// Per-emotion, per-category launch propensities.
///
/// # Example
///
/// ```
/// use affect_core::emotion::Emotion;
/// use mobile_sim::affect_table::AppAffectTable;
/// use mobile_sim::app::AppCategory;
/// use mobile_sim::subjects::SubjectProfile;
///
/// let table = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.05);
/// // Subject 3 calls a lot when excited.
/// let call = table.propensity(Emotion::Happy, AppCategory::Calling);
/// let tv = table.propensity(Emotion::Happy, AppCategory::Tv);
/// assert!(call > tv);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppAffectTable {
    /// `table[emotion][category] -> propensity` (each emotion row sums to 1).
    table: BTreeMap<Emotion, BTreeMap<AppCategory, f32>>,
    /// EMA learning rate for online updates.
    alpha: f32,
}

impl AppAffectTable {
    /// Seeds the table from a subject profile: the subject's baseline usage
    /// shares modulated by each emotion's category affinity, re-normalized
    /// per emotion. `alpha` is the online-update rate (0 disables learning).
    pub fn from_subject(subject: &SubjectProfile, alpha: f32) -> Self {
        let mut table = BTreeMap::new();
        for emotion in Emotion::ALL {
            let mut row: BTreeMap<AppCategory, f32> = BTreeMap::new();
            let mut total = 0.0f32;
            for category in AppCategory::ALL {
                let w = subject.usage_share(category) * category.emotion_affinity(emotion);
                if w > 0.0 {
                    row.insert(category, w);
                    total += w;
                }
            }
            if total > 0.0 {
                for v in row.values_mut() {
                    *v /= total;
                }
            }
            table.insert(emotion, row);
        }
        Self {
            table,
            alpha: alpha.clamp(0.0, 1.0),
        }
    }

    /// The learning rate.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Launch propensity of a category under an emotion (0 when unknown).
    pub fn propensity(&self, emotion: Emotion, category: AppCategory) -> f32 {
        self.table
            .get(&emotion)
            .and_then(|row| row.get(&category))
            .copied()
            .unwrap_or(0.0)
    }

    /// Records an observed launch, nudging the emotion's row toward the
    /// launched category by the EMA rate (the "App Running Record with
    /// Emotion Conditions" feedback loop of Fig. 8).
    pub fn record_launch(&mut self, emotion: Emotion, category: AppCategory) {
        if self.alpha == 0.0 {
            return;
        }
        let row = self.table.entry(emotion).or_default();
        for c in AppCategory::ALL {
            let target = if c == category { 1.0 } else { 0.0 };
            let v = row.entry(c).or_insert(0.0);
            *v += self.alpha * (target - *v);
        }
    }

    /// Retention rank of an app under the current emotion: higher = keep
    /// longer. Used by the rank generator to order the background list.
    pub fn rank(&self, emotion: Emotion, app: &App) -> f32 {
        self.propensity(emotion, app.category)
    }
}

/// Live re-ranking front end for the app manager, driven by the affect
/// loop at runtime.
///
/// The simulator consumes emotions from a pre-labelled workload; the
/// reranker instead holds the *current* emotion between updates so a
/// streaming controller can retarget it as classifications arrive. It is
/// the memory side's actuation endpoint for the `affect-rt` runtime.
#[derive(Debug, Clone)]
pub struct EmotionReranker {
    table: AppAffectTable,
    emotion: Emotion,
    reranks: usize,
    rerank_metric: Option<std::sync::Arc<affect_obs::Counter>>,
}

impl EmotionReranker {
    /// Creates a reranker over `table`, starting in `initial` emotion.
    pub fn new(table: AppAffectTable, initial: Emotion) -> Self {
        Self {
            table,
            emotion: initial,
            reranks: 0,
            rerank_metric: None,
        }
    }

    /// Registers `mobile_sim_reranks_total` with `registry` and bumps it
    /// on every effective re-rank observed by this instance.
    pub fn attach_metrics(&mut self, registry: &affect_obs::MetricsRegistry) {
        self.rerank_metric = Some(registry.counter(
            "mobile_sim_reranks_total",
            "background-list re-ranks triggered by emotion changes",
            &[],
        ));
    }

    /// The emotion the current ranking is conditioned on.
    pub fn emotion(&self) -> Emotion {
        self.emotion
    }

    /// Number of effective emotion changes (re-ranks) applied so far.
    pub fn reranks(&self) -> usize {
        self.reranks
    }

    /// The underlying affect table.
    pub fn table(&self) -> &AppAffectTable {
        &self.table
    }

    /// Observes a classified emotion. Returns `true` when it differs from
    /// the current one (the background list must be re-ranked); repeating
    /// the current emotion is a no-op.
    pub fn observe(&mut self, emotion: Emotion) -> bool {
        if emotion == self.emotion {
            return false;
        }
        self.emotion = emotion;
        self.reranks += 1;
        if let Some(m) = &self.rerank_metric {
            m.inc();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    #[test]
    fn rows_are_normalized() {
        let t = AppAffectTable::from_subject(&SubjectProfile::subject1(), 0.1);
        for e in Emotion::ALL {
            let total: f32 = AppCategory::ALL.iter().map(|&c| t.propensity(e, c)).sum();
            assert!((total - 1.0).abs() < 1e-4, "{e}: {total}");
        }
    }

    #[test]
    fn emotion_modulates_rows() {
        let t = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.0);
        // Relative weight of calling rises from calm to happy.
        let happy = t.propensity(Emotion::Happy, AppCategory::Calling)
            / t.propensity(Emotion::Happy, AppCategory::MusicAudioRadio);
        let calm = t.propensity(Emotion::Calm, AppCategory::Calling)
            / t.propensity(Emotion::Calm, AppCategory::MusicAudioRadio);
        assert!(happy > calm, "{happy} vs {calm}");
    }

    #[test]
    fn learning_shifts_propensity() {
        let mut t = AppAffectTable::from_subject(&SubjectProfile::subject2(), 0.2);
        let before = t.propensity(Emotion::Sad, AppCategory::Shopping);
        for _ in 0..10 {
            t.record_launch(Emotion::Sad, AppCategory::Shopping);
        }
        let after = t.propensity(Emotion::Sad, AppCategory::Shopping);
        assert!(after > before + 0.3, "{before} -> {after}");
    }

    #[test]
    fn zero_alpha_disables_learning() {
        let mut t = AppAffectTable::from_subject(&SubjectProfile::subject2(), 0.0);
        let before = t.clone();
        t.record_launch(Emotion::Happy, AppCategory::Camera);
        assert_eq!(t, before);
    }

    #[test]
    fn rank_follows_category_propensity() {
        let t = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.0);
        let device = DeviceConfig::paper_emulator();
        let dialer = device.apps_in(AppCategory::Calling)[0];
        let tv = device.apps_in(AppCategory::Tv)[0];
        assert!(t.rank(Emotion::Happy, dialer) > t.rank(Emotion::Happy, tv));
    }

    #[test]
    fn alpha_clamped() {
        let t = AppAffectTable::from_subject(&SubjectProfile::subject1(), 5.0);
        assert_eq!(t.alpha(), 1.0);
    }

    #[test]
    fn reranker_counts_only_effective_changes() {
        let t = AppAffectTable::from_subject(&SubjectProfile::subject3(), 0.0);
        let mut r = EmotionReranker::new(t, Emotion::Neutral);
        assert!(!r.observe(Emotion::Neutral));
        assert_eq!(r.reranks(), 0);
        assert!(r.observe(Emotion::Happy));
        assert!(!r.observe(Emotion::Happy));
        assert!(r.observe(Emotion::Calm));
        assert_eq!(r.reranks(), 2);
        assert_eq!(r.emotion(), Emotion::Calm);
    }
}
