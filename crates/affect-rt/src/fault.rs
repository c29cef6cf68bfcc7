//! Fault-injection seam and supervision vocabulary.
//!
//! The runtime itself contains *no* fault logic — it only exposes a hook
//! consulted once per window per stage. A [`FaultHook`] implementation
//! (the `affect-fault` crate ships a deterministic, seeded one) decides
//! whether that window proceeds untouched, is delayed, is dropped, or
//! panics the worker mid-flight. The supervision machinery in
//! [`crate::runtime`] then has to earn its keep: caught panics restart the
//! worker with backoff, and the accounting invariant
//! `produced == processed + dropped` must survive all of it.

/// Pipeline stage identifiers, as seen by a [`FaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The submit path (producer thread) before the ingest queue.
    Ingest,
    /// Feature-extraction workers.
    Feature,
    /// Classifier workers.
    Classify,
    /// The control (policy) worker.
    Control,
    /// The actuate worker.
    Actuate,
}

impl Stage {
    /// Stable lowercase name, used as a metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Feature => "feature",
            Stage::Classify => "classify",
            Stage::Control => "control",
            Stage::Actuate => "actuate",
        }
    }

    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Ingest,
        Stage::Feature,
        Stage::Classify,
        Stage::Control,
        Stage::Actuate,
    ];
}

/// What a [`FaultHook`] tells a stage to do with one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Process normally.
    None,
    /// Account the window as dropped without processing it.
    DropWindow,
    /// Sleep this many wall-clock nanoseconds, then process normally
    /// (latency/jitter injection).
    DelayNs(u64),
    /// Panic the worker while holding the window. Every worker stage
    /// (feature, classify, control, actuate) is supervised, so the panic
    /// costs that window and a worker restart. Only ingest treats it as
    /// [`FaultAction::DropWindow`]: it runs on the producer's thread, and
    /// panicking the caller is not an interesting experiment.
    Panic,
}

/// Decides the fate of each window at each stage.
///
/// Called from every worker thread, so implementations must be cheap and
/// must not block. Determinism is the implementor's job: the `affect-fault`
/// crate derives each decision from a pure hash of `(seed, stage, session,
/// seq)`, which makes a chaos run reproducible regardless of thread
/// interleaving.
pub trait FaultHook: Send + Sync {
    /// Consulted once per window per stage, before the stage does any work.
    fn inject(&self, stage: Stage, session: usize, seq: u64) -> FaultAction;
}

/// Panic payload used for injected worker panics, so supervision (and the
/// optional quiet hook) can tell injected chaos from organic bugs.
#[derive(Debug)]
pub struct InjectedPanic;

/// Installs a global panic hook that stays silent for [`InjectedPanic`]
/// payloads and forwards everything else to the previous hook. Idempotent;
/// chaos tests call it so ten thousand injected panics don't bury real
/// diagnostics in backtrace spam.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            ["ingest", "feature", "classify", "control", "actuate"]
        );
    }

    #[test]
    fn injected_panic_payload_is_recognizable() {
        silence_injected_panics();
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(InjectedPanic))
            .expect_err("panicked");
        assert!(caught.is::<InjectedPanic>());
        let organic = std::panic::catch_unwind(|| panic!("organic failure")).expect_err("panicked");
        assert!(!organic.is::<InjectedPanic>());
    }

    #[test]
    fn hook_objects_are_usable_through_dyn() {
        struct AlwaysDrop;
        impl FaultHook for AlwaysDrop {
            fn inject(&self, _: Stage, _: usize, _: u64) -> FaultAction {
                FaultAction::DropWindow
            }
        }
        let hook: std::sync::Arc<dyn FaultHook> = std::sync::Arc::new(AlwaysDrop);
        assert_eq!(hook.inject(Stage::Feature, 0, 0), FaultAction::DropWindow);
    }
}
