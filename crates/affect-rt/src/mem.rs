//! Byte-budget accounting and the four-band memory-pressure signal.
//!
//! The source paper manages *memory and computation* under emotion on
//! resource-limited edge devices; this module gives the runtime a ledger of
//! its own footprint. A [`MemoryBudget`] is a set of per-consumer atomic
//! byte counters charged and released at (de)allocation seams — ring
//! construction, scratch-arena growth, classifier-table builds, wire and
//! decoder buffers — so a warm window charges nothing, and the
//! zero-allocation hot-path proof keeps holding with a governor attached.
//! The runtime only keeps the ledger; the fleet's `enforce_pressure` is the
//! one governor that acts on the band.
//!
//! Usage against the configured budget yields a [`PressureBand`]:
//!
//! | band     | usage (permille of budget) | governor response                      |
//! |----------|----------------------------|----------------------------------------|
//! | Green    | < 700‰                     | fleet readmits evicted sessions        |
//! | Yellow   | ≥ 700‰                     | none (a warning level)                 |
//! | Red      | ≥ 850‰                     | fleet evicts BestEffort sessions       |
//! | Critical | ≥ 950‰                     | fleet evicts Standard sessions too     |
//!
//! A zero budget disables the governor (the band is always Green). Chaos
//! runs inject *phantom* bytes ([`MemoryBudget::set_phantom`]) on top of the
//! real charges, so a seed-pure fault plan can walk all four bands
//! byte-stably without perturbing real allocations. See
//! `docs/ROBUSTNESS.md` §memory-pressure.

use std::sync::atomic::{AtomicU64, Ordering};

use affect_obs::{Counter as ObsCounter, Gauge as ObsGauge, MetricsRegistry};

/// Yellow band threshold, permille of the budget.
pub const YELLOW_PERMILLE: u64 = 700;
/// Red band threshold, permille of the budget.
pub const RED_PERMILLE: u64 = 850;
/// Critical band threshold, permille of the budget.
pub const CRITICAL_PERMILLE: u64 = 950;

/// The tracked memory consumers, each with its own usage counter (and
/// `affect_mem_used_bytes{consumer=…}` gauge when metrics are attached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum MemConsumer {
    /// Stage ring queues: capacity × slot size, charged at construction.
    RingQueues = 0,
    /// Classify workers' scratch arenas (f32 + i8 pools), charged as the
    /// pools grow toward their fixed point.
    ScratchPools = 1,
    /// Classifier tables: HDC prototype/bound tables plus the neural
    /// families' parameter storage, charged at worker-pool build.
    ModelTables = 2,
    /// h264 reference-frame and stream-ingest (scanner pending) buffers.
    DecoderBuffers = 3,
    /// Wire segment chunk buffers in flight.
    WireBuffers = 4,
    /// Deterministic phantom bytes injected by a chaos plan.
    Phantom = 5,
}

impl MemConsumer {
    /// Every consumer, in counter order.
    pub const ALL: [MemConsumer; 6] = [
        MemConsumer::RingQueues,
        MemConsumer::ScratchPools,
        MemConsumer::ModelTables,
        MemConsumer::DecoderBuffers,
        MemConsumer::WireBuffers,
        MemConsumer::Phantom,
    ];

    /// Stable label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            MemConsumer::RingQueues => "rings",
            MemConsumer::ScratchPools => "scratch",
            MemConsumer::ModelTables => "models",
            MemConsumer::DecoderBuffers => "decoder",
            MemConsumer::WireBuffers => "wire",
            MemConsumer::Phantom => "phantom",
        }
    }
}

/// The four-band pressure signal derived from usage vs budget. Ordered so
/// `>=` comparisons read naturally (`band >= PressureBand::Yellow`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum PressureBand {
    /// Usage below the Yellow threshold (or no budget configured).
    Green = 0,
    /// A warning level: nothing acts on it.
    Yellow = 1,
    /// Severe pressure: evict BestEffort sessions.
    Red = 2,
    /// Budget nearly exhausted: evict Standard sessions too.
    Critical = 3,
}

impl PressureBand {
    /// Every band, mildest first.
    pub const ALL: [PressureBand; 4] = [
        PressureBand::Green,
        PressureBand::Yellow,
        PressureBand::Red,
        PressureBand::Critical,
    ];

    /// Stable label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            PressureBand::Green => "green",
            PressureBand::Yellow => "yellow",
            PressureBand::Red => "red",
            PressureBand::Critical => "critical",
        }
    }

    /// Decodes a [`MemReport::band`] code back into a band (anything past
    /// the known codes clamps to `Critical`).
    pub fn from_code(code: u8) -> PressureBand {
        match code {
            0 => PressureBand::Green,
            1 => PressureBand::Yellow,
            2 => PressureBand::Red,
            _ => PressureBand::Critical,
        }
    }
}

/// Registered `affect_mem_*` observability handles.
struct MemMetrics {
    used: [std::sync::Arc<ObsGauge>; 6],
    total: std::sync::Arc<ObsGauge>,
    budget: std::sync::Arc<ObsGauge>,
    transitions: [std::sync::Arc<ObsCounter>; 4],
}

/// The byte-budget accountant: per-consumer usage counters, the configured
/// budget, and the derived [`PressureBand`].
///
/// Every operation is a handful of atomic ops — no locks, no allocation —
/// so charge/release seams may sit anywhere, including next to hot paths.
/// Shared via `Arc` between the runtime, its workers, and (in a fleet) the
/// shard's eviction governor.
pub struct MemoryBudget {
    budget: AtomicU64,
    used: [AtomicU64; 6],
    band: AtomicU64,
    transitions: [AtomicU64; 4],
    metrics: Option<MemMetrics>,
}

impl std::fmt::Debug for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBudget")
            .field("budget", &self.budget_bytes())
            .field("used", &self.used_bytes())
            .field("band", &self.band())
            .finish()
    }
}

impl MemoryBudget {
    /// A budget of `budget_bytes` (0 disables the governor: the band is
    /// always Green, charges are still accounted).
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget: AtomicU64::new(budget_bytes),
            used: std::array::from_fn(|_| AtomicU64::new(0)),
            band: AtomicU64::new(PressureBand::Green as u64),
            transitions: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: None,
        }
    }

    /// Registers the `affect_mem_*` series (usage gauge per consumer, total
    /// and budget gauges, band-transition counters) and keeps them updated
    /// from every charge/release.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        let used = std::array::from_fn(|i| {
            registry.gauge(
                "affect_mem_used_bytes",
                "bytes currently charged against the memory budget, per consumer",
                &[("consumer", MemConsumer::ALL[i].label())],
            )
        });
        let total = registry.gauge(
            "affect_mem_total_bytes",
            "bytes currently charged against the memory budget, all consumers",
            &[],
        );
        let budget = registry.gauge(
            "affect_mem_budget_bytes",
            "configured memory budget (0 = governor disabled)",
            &[],
        );
        budget.set(self.budget_bytes() as i64);
        let transitions = std::array::from_fn(|i| {
            registry.counter(
                "affect_mem_band_transitions_total",
                "pressure-band entries, per band",
                &[("band", PressureBand::ALL[i].label())],
            )
        });
        self.metrics = Some(MemMetrics {
            used,
            total,
            budget,
            transitions,
        });
        self
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Re-targets the budget. A runtime's own budget starts at 0
    /// (disabled); whoever governs the runtime sizes it here, as the
    /// `mem_pressure` bench and the fleet scenarios do per shard.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.budget.set(bytes as i64);
        }
        self.refresh();
    }

    /// Total bytes charged across all consumers (phantom included).
    pub fn used_bytes(&self) -> u64 {
        self.used
            .iter()
            .map(|u| u.load(Ordering::Relaxed))
            .sum::<u64>()
    }

    /// Bytes charged by one consumer.
    pub fn used_by(&self, consumer: MemConsumer) -> u64 {
        self.used[consumer as usize].load(Ordering::Relaxed)
    }

    /// Charges `bytes` against `consumer`. Atomics only — safe at any seam.
    pub fn charge(&self, consumer: MemConsumer, bytes: u64) {
        let now = self.used[consumer as usize].fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(m) = &self.metrics {
            m.used[consumer as usize].set(now as i64);
            m.total.set(self.used_bytes() as i64);
        }
        self.refresh();
    }

    /// Releases `bytes` previously charged against `consumer` (saturating:
    /// a release can never drive usage negative).
    pub fn release(&self, consumer: MemConsumer, bytes: u64) {
        let counter = &self.used[consumer as usize];
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(bytes);
            match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        if let Some(m) = &self.metrics {
            m.used[consumer as usize].set(counter.load(Ordering::Relaxed) as i64);
            m.total.set(self.used_bytes() as i64);
        }
        self.refresh();
    }

    /// Overwrites the phantom-byte charge (chaos injection: the fault plan
    /// computes an absolute phantom load per tick, so replay is byte-stable
    /// regardless of how many ticks already ran).
    pub fn set_phantom(&self, bytes: u64) {
        self.used[MemConsumer::Phantom as usize].store(bytes, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.used[MemConsumer::Phantom as usize].set(bytes as i64);
            m.total.set(self.used_bytes() as i64);
        }
        self.refresh();
    }

    /// The band implied by current usage vs budget (pure read, no state
    /// update).
    pub fn band_for_usage(&self) -> PressureBand {
        let budget = self.budget_bytes();
        if budget == 0 {
            return PressureBand::Green;
        }
        let used = self.used_bytes();
        // permille = used * 1000 / budget without overflow for realistic
        // byte counts (u128 keeps even absurd budgets exact).
        let permille = ((used as u128) * 1000 / (budget as u128)) as u64;
        if permille >= CRITICAL_PERMILLE {
            PressureBand::Critical
        } else if permille >= RED_PERMILLE {
            PressureBand::Red
        } else if permille >= YELLOW_PERMILLE {
            PressureBand::Yellow
        } else {
            PressureBand::Green
        }
    }

    /// Recomputes the band from current usage, recording a transition
    /// counter tick when it changed. Called from every charge/release (and
    /// callable standalone); returns the band now in force.
    pub fn refresh(&self) -> PressureBand {
        let next = self.band_for_usage();
        let prev = self.band.swap(next as u64, Ordering::Relaxed);
        if prev != next as u64 {
            self.transitions[next as usize].fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.transitions[next as usize].inc();
            }
        }
        next
    }

    /// The band as of the last [`MemoryBudget::refresh`] (one atomic
    /// load).
    pub fn band(&self) -> PressureBand {
        PressureBand::from_code(self.band.load(Ordering::Relaxed) as u8)
    }

    /// Times each band has been *entered* (Green counts re-entries after
    /// pressure receded, not the initial state).
    pub fn transitions(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.transitions[i].load(Ordering::Relaxed))
    }
}

/// Snapshot of the budget state, carried in reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Configured budget (0 = governor disabled).
    pub budget_bytes: u64,
    /// Bytes charged at snapshot time, all consumers.
    pub used_bytes: u64,
    /// Per-consumer usage, indexed like [`MemConsumer::ALL`].
    pub used_by: [u64; 6],
    /// Band in force at snapshot time.
    pub band: u8,
    /// Band entries per band, indexed like [`PressureBand::ALL`].
    pub band_transitions: [u64; 4],
}

impl MemReport {
    /// Snapshots a live budget.
    pub fn snapshot(budget: &MemoryBudget) -> Self {
        Self {
            budget_bytes: budget.budget_bytes(),
            used_bytes: budget.used_bytes(),
            used_by: std::array::from_fn(|i| budget.used_by(MemConsumer::ALL[i])),
            band: budget.band() as u8,
            band_transitions: budget.transitions(),
        }
    }

    /// Folds another runtime's memory snapshot into this one (fleet
    /// aggregation): budgets and usage sum, transitions sum, the band
    /// resolves to the worst — all symmetric, so merge order never matters.
    pub fn merge(&mut self, other: &MemReport) {
        self.budget_bytes += other.budget_bytes;
        self.used_bytes += other.used_bytes;
        for (mine, theirs) in self.used_by.iter_mut().zip(other.used_by.iter()) {
            *mine += theirs;
        }
        self.band = self.band.max(other.band);
        for (mine, theirs) in self
            .band_transitions
            .iter_mut()
            .zip(other.band_transitions.iter())
        {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_is_always_green() {
        let mem = MemoryBudget::new(0);
        mem.charge(MemConsumer::RingQueues, u64::MAX / 2);
        assert_eq!(mem.refresh(), PressureBand::Green);
        assert_eq!(mem.band(), PressureBand::Green);
    }

    #[test]
    fn bands_follow_the_permille_thresholds() {
        let mem = MemoryBudget::new(1000);
        assert_eq!(mem.band(), PressureBand::Green);
        mem.charge(MemConsumer::ScratchPools, 699);
        assert_eq!(mem.band(), PressureBand::Green);
        mem.charge(MemConsumer::ScratchPools, 1); // 700
        assert_eq!(mem.band(), PressureBand::Yellow);
        mem.charge(MemConsumer::ModelTables, 150); // 850
        assert_eq!(mem.band(), PressureBand::Red);
        mem.charge(MemConsumer::Phantom, 100); // 950
        assert_eq!(mem.band(), PressureBand::Critical);
        mem.release(MemConsumer::Phantom, 100);
        assert_eq!(mem.band(), PressureBand::Red);
        mem.release(MemConsumer::ModelTables, 150);
        assert_eq!(mem.band(), PressureBand::Yellow);
        mem.release(MemConsumer::ScratchPools, 700);
        assert_eq!(mem.band(), PressureBand::Green);
        // Each band was entered once on the way up, Yellow/Red/Green once
        // more on the way down.
        assert_eq!(mem.transitions(), [1, 2, 2, 1]);
    }

    #[test]
    fn release_saturates_at_zero() {
        let mem = MemoryBudget::new(100);
        mem.charge(MemConsumer::WireBuffers, 10);
        mem.release(MemConsumer::WireBuffers, 50);
        assert_eq!(mem.used_by(MemConsumer::WireBuffers), 0);
        assert_eq!(mem.used_bytes(), 0);
    }

    #[test]
    fn phantom_is_absolute_not_cumulative() {
        let mem = MemoryBudget::new(1000);
        mem.set_phantom(800);
        assert_eq!(mem.band(), PressureBand::Yellow);
        mem.set_phantom(800);
        assert_eq!(mem.used_bytes(), 800, "set, not add");
        mem.set_phantom(0);
        assert_eq!(mem.band(), PressureBand::Green);
    }

    #[test]
    fn shrinking_budget_walks_the_bands() {
        let mem = MemoryBudget::new(10_000);
        mem.charge(MemConsumer::RingQueues, 960);
        let mut walked = vec![mem.band()];
        for budget in [1300, 1100, 1000] {
            mem.set_budget_bytes(budget);
            walked.push(mem.band());
        }
        assert_eq!(
            walked,
            vec![
                PressureBand::Green,
                PressureBand::Yellow,
                PressureBand::Red,
                PressureBand::Critical,
            ]
        );
    }

    #[test]
    fn metrics_mirror_charges() {
        let registry = MetricsRegistry::new();
        let mem = MemoryBudget::new(1000).with_metrics(&registry);
        mem.charge(MemConsumer::DecoderBuffers, 750);
        let gauge = registry.gauge("affect_mem_used_bytes", "", &[("consumer", "decoder")]);
        assert_eq!(gauge.get(), 750);
        let total = registry.gauge("affect_mem_total_bytes", "", &[]);
        assert_eq!(total.get(), 750);
        let yellow = registry.counter(
            "affect_mem_band_transitions_total",
            "",
            &[("band", "yellow")],
        );
        assert_eq!(yellow.get(), 1);
    }
}
