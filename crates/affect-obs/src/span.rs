//! RAII span timing: enter a span, do the work, let the drop record it.
//!
//! A [`Span`] reads the clock once on entry and once on drop, recording
//! the elapsed nanoseconds into a [`Histogram`]. That is the whole design:
//! no thread-local stack, no span ids, no allocation — which is what lets
//! the affect-rt workers time every stage of every window without
//! disturbing the zero-allocation warm path.
//!
//! Scoping is by *which histogram you enter*: the workspace registers one
//! `*_latency_ns` histogram per pipeline stage (labelled `stage="..."`),
//! so the span hierarchy is encoded in the metric catalogue rather than in
//! runtime state. Nested spans are just nested guards on different
//! histograms:
//!
//! ```
//! use affect_obs::{Histogram, Span, VirtualClock};
//!
//! let clock = VirtualClock::new();
//! let whole = Histogram::new();
//! let inner = Histogram::new();
//! {
//!     let _e2e = Span::enter(&whole, &clock);
//!     clock.advance(10);
//!     {
//!         let _stage = Span::enter(&inner, &clock);
//!         clock.advance(32);
//!     } // records 32 ns into `inner`
//!     clock.advance(8);
//! } // records 50 ns into `whole`
//! assert_eq!(inner.summary().max_ns, 32);
//! assert_eq!(whole.summary().max_ns, 50);
//! ```

use crate::clock::Clock;
use crate::metrics::Histogram;

/// An in-flight timed region. Created by [`Span::enter`]; the drop records
/// the elapsed time. Hold it in a `let` binding (`let _span = ...`) — a
/// bare `let _ =` would drop immediately and record zero.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    histogram: &'a Histogram,
    clock: &'a dyn Clock,
    start_ns: u64,
}

impl<'a> Span<'a> {
    /// Starts timing against `clock`, recording into `histogram` on drop.
    #[inline]
    pub fn enter(histogram: &'a Histogram, clock: &'a dyn Clock) -> Self {
        Self {
            histogram,
            clock,
            start_ns: clock.now_nanos(),
        }
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        self.histogram
            .record(self.clock.now_nanos().saturating_sub(self.start_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn span_records_exact_virtual_duration() {
        let clock = VirtualClock::new();
        let h = Histogram::new();
        {
            let _span = Span::enter(&h, &clock);
            clock.advance(1_234);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.summary().max_ns, 1_234);
    }

    #[test]
    fn backwards_clock_records_zero() {
        let clock = VirtualClock::new();
        clock.set(100);
        let h = Histogram::new();
        {
            let _span = Span::enter(&h, &clock);
            clock.set(40); // pathological, but must not underflow
        }
        assert_eq!(h.summary().max_ns, 0);
    }
}
