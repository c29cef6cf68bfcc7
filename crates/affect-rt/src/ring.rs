//! A bounded MPMC ring with explicit overflow policy.
//!
//! `std::sync::mpsc::sync_channel` only offers block-on-full semantics;
//! a streaming pipeline also needs load-shedding queues (drop the oldest
//! window and keep the freshest, or refuse the newcomer). This ring is a
//! `Mutex<VecDeque>` + two `Condvar`s — deliberately simple, std-only, and
//! honest about what it drops: every shed message is *returned to the
//! producer* so its session's accounting can record the loss. Nothing
//! vanishes silently.
//!
//! A hand-off wakes a thread only when one is parked. Behind the mutex the
//! ring counts the consumers parked in [`Ring::pop`] and the
//! [`OverflowPolicy::Block`] producers parked in [`Ring::push`]; a thread
//! adds itself before it waits and removes itself after. A push signals a
//! consumer, and a pop a producer, only when that count, read under the
//! same lock, is non-zero. On Linux every `Condvar` notify is a
//! `FUTEX_WAKE` system call, waiter or not, and most hand-offs find the
//! other side busy rather than parked. [`Ring::close`] still wakes every
//! parked thread.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use affect_obs::{Counter, Gauge};

/// What a full ring does with an incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until a consumer makes room (lossless
    /// backpressure; propagates stall upstream).
    Block,
    /// Evict the oldest queued message to admit the new one (bounded
    /// staleness; the freshest data always gets through).
    DropOldest,
    /// Refuse the new message and keep the queue as-is (bounded effort;
    /// in-flight work is never wasted).
    DropNewest,
}

/// Outcome of a [`Ring::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The message was queued (after blocking, under [`OverflowPolicy::Block`]).
    Stored,
    /// The message was queued; the returned oldest message was evicted to
    /// make room ([`OverflowPolicy::DropOldest`]).
    Evicted(T),
    /// The ring was full and the message was refused
    /// ([`OverflowPolicy::DropNewest`]).
    Rejected(T),
    /// The ring is closed; the message was refused.
    Closed(T),
}

/// Counters a ring keeps about itself, snapshot via [`Ring::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Messages accepted into the queue.
    pub pushed: u64,
    /// Messages handed to consumers.
    pub popped: u64,
    /// Messages shed (evicted or rejected) by overflow policy.
    pub shed: u64,
    /// Deepest the queue has ever been.
    pub depth_high_water: usize,
}

/// Live observability handles for one ring, typically registered as
/// `affect_rt_queue_*` series labelled by stage (see
/// `docs/OBSERVABILITY.md`). All fields are plain atomics, so updating
/// them from the push/pop paths allocates nothing.
#[derive(Clone)]
pub struct RingMetrics {
    /// Incremented once per message accepted into the queue.
    pub pushed: Arc<Counter>,
    /// Incremented once per message handed to a consumer.
    pub popped: Arc<Counter>,
    /// Incremented once per message shed (evicted or rejected) by policy.
    pub shed: Arc<Counter>,
    /// Set to the queue depth after every push/pop.
    pub depth: Arc<Gauge>,
}

struct State<T> {
    queue: VecDeque<T>,
    stats: RingStats,
    closed: bool,
    /// Consumers parked in [`Ring::pop`] on `readable`.
    parked_readers: usize,
    /// [`OverflowPolicy::Block`] producers parked in [`Ring::push`] on
    /// `writable`.
    parked_writers: usize,
}

/// Bounded multi-producer multi-consumer queue with a per-ring
/// [`OverflowPolicy`].
pub struct Ring<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains a message while a consumer is
    /// parked, or closes.
    readable: Condvar,
    /// Signalled when the queue loses a message while a Block producer is
    /// parked, or closes.
    writable: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    metrics: Option<RingMetrics>,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` messages (min 1).
    pub fn new(capacity: usize, policy: OverflowPolicy) -> Self {
        Self {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.max(1)),
                stats: RingStats::default(),
                closed: false,
                parked_readers: 0,
                parked_writers: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            capacity: capacity.max(1),
            policy,
            metrics: None,
        }
    }

    /// Creates a ring that mirrors its counters into `metrics` (in
    /// addition to the built-in [`RingStats`]). The mirroring is plain
    /// atomic stores — no allocation, no extra locking.
    pub fn with_metrics(capacity: usize, policy: OverflowPolicy, metrics: RingMetrics) -> Self {
        let mut ring = Self::new(capacity, policy);
        ring.metrics = Some(metrics);
        ring
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Offers a message, applying the overflow policy when full.
    ///
    /// Under [`OverflowPolicy::Block`] this parks the caller until space
    /// frees up (or the ring closes); the other policies never block.
    pub fn push(&self, msg: T) -> PushOutcome<T> {
        let mut state = self.state.lock().expect("ring lock poisoned");
        if state.closed {
            return PushOutcome::Closed(msg);
        }
        let mut outcome = PushOutcome::Stored;
        if state.queue.len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => {
                    while state.queue.len() >= self.capacity && !state.closed {
                        state.parked_writers += 1;
                        state = self.writable.wait(state).expect("ring lock poisoned");
                        state.parked_writers -= 1;
                    }
                    if state.closed {
                        return PushOutcome::Closed(msg);
                    }
                }
                OverflowPolicy::DropOldest => {
                    let evicted = state.queue.pop_front().expect("full queue has a front");
                    state.stats.shed += 1;
                    if let Some(m) = &self.metrics {
                        m.shed.inc();
                    }
                    outcome = PushOutcome::Evicted(evicted);
                }
                OverflowPolicy::DropNewest => {
                    state.stats.shed += 1;
                    if let Some(m) = &self.metrics {
                        m.shed.inc();
                    }
                    return PushOutcome::Rejected(msg);
                }
            }
        }
        state.queue.push_back(msg);
        state.stats.pushed += 1;
        state.stats.depth_high_water = state.stats.depth_high_water.max(state.queue.len());
        if let Some(m) = &self.metrics {
            m.pushed.inc();
            m.depth.set(state.queue.len() as i64);
        }
        let wake = state.parked_readers > 0;
        drop(state);
        if wake {
            self.readable.notify_one();
        }
        outcome
    }

    /// Takes the oldest message, blocking while the ring is empty and open.
    /// Returns `None` once the ring is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ring lock poisoned");
        loop {
            if !state.queue.is_empty() {
                return self.take_front(state);
            }
            if state.closed {
                return None;
            }
            state.parked_readers += 1;
            state = self.readable.wait(state).expect("ring lock poisoned");
            state.parked_readers -= 1;
        }
    }

    /// Takes the oldest message without blocking. Returns `None` when the
    /// queue is currently empty (whether or not the ring is closed) — the
    /// consumer's opportunistic drain for batching windows.
    pub fn try_pop(&self) -> Option<T> {
        self.take_front(self.state.lock().expect("ring lock poisoned"))
    }

    /// Pops the front message under the held lock, counts it, releases the
    /// lock and wakes one parked Block producer, if any.
    fn take_front(&self, mut state: MutexGuard<'_, State<T>>) -> Option<T> {
        let msg = state.queue.pop_front()?;
        state.stats.popped += 1;
        if let Some(m) = &self.metrics {
            m.popped.inc();
            m.depth.set(state.queue.len() as i64);
        }
        let wake = state.parked_writers > 0;
        drop(state);
        if wake {
            self.writable.notify_one();
        }
        Some(msg)
    }

    /// Closes the ring: producers are refused from now on, consumers drain
    /// what is queued and then see `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("ring lock poisoned");
        state.closed = true;
        drop(state);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("ring lock poisoned").queue.len()
    }

    /// Copies out the ring's counters.
    pub fn snapshot(&self) -> RingStats {
        self.state.lock().expect("ring lock poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_preserved() {
        let ring = Ring::new(4, OverflowPolicy::Block);
        for i in 0..4 {
            assert_eq!(ring.push(i), PushOutcome::Stored);
        }
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
    }

    #[test]
    fn drop_oldest_returns_evicted_and_keeps_latest() {
        let ring = Ring::new(2, OverflowPolicy::DropOldest);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.push(3), PushOutcome::Evicted(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert_eq!(ring.snapshot().shed, 1);
    }

    #[test]
    fn drop_newest_rejects_and_keeps_queue() {
        let ring = Ring::new(2, OverflowPolicy::DropNewest);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.push(3), PushOutcome::Rejected(3));
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.snapshot().shed, 1);
    }

    #[test]
    fn try_pop_never_blocks() {
        let ring = Ring::new(4, OverflowPolicy::Block);
        assert_eq!(ring.try_pop(), None);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), None);
        assert_eq!(ring.snapshot().popped, 2);
    }

    #[test]
    fn close_drains_then_none() {
        let ring = Ring::new(4, OverflowPolicy::Block);
        ring.push(7);
        ring.close();
        assert!(matches!(ring.push(8), PushOutcome::Closed(8)));
        assert_eq!(ring.pop(), Some(7));
        assert_eq!(ring.pop(), None);
    }

    /// Spins until `parked` counts `count` threads, read under the ring's
    /// lock: a thread counts itself there just before it waits.
    fn await_parked<T>(ring: &Ring<T>, parked: fn(&State<T>) -> usize, count: usize) {
        while parked(&ring.state.lock().unwrap()) < count {
            std::thread::yield_now();
        }
    }

    #[test]
    fn block_policy_parks_producer_until_space() {
        let ring = Arc::new(Ring::new(1, OverflowPolicy::Block));
        ring.push(1);
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2))
        };
        // Free a slot only once the producer is parked.
        await_parked(&ring, |s| s.parked_writers, 1);
        assert_eq!(ring.pop(), Some(1));
        assert!(matches!(producer.join().unwrap(), PushOutcome::Stored));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.state.lock().unwrap().parked_writers, 0);
    }

    #[test]
    fn try_pop_wakes_a_parked_producer() {
        let ring = Arc::new(Ring::new(1, OverflowPolicy::Block));
        ring.push(1);
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2))
        };
        await_parked(&ring, |s| s.parked_writers, 1);
        assert_eq!(ring.try_pop(), Some(1));
        assert!(matches!(producer.join().unwrap(), PushOutcome::Stored));
        assert_eq!(ring.try_pop(), Some(2));
    }

    #[test]
    fn push_wakes_a_parked_consumer() {
        let ring = Arc::new(Ring::new(4, OverflowPolicy::DropNewest));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.pop())
        };
        await_parked(&ring, |s| s.parked_readers, 1);
        assert_eq!(ring.push(7), PushOutcome::Stored);
        assert_eq!(consumer.join().unwrap(), Some(7));
        assert_eq!(ring.state.lock().unwrap().parked_readers, 0);
    }

    #[test]
    fn each_push_wakes_its_own_parked_consumer() {
        let ring = Arc::new(Ring::new(4, OverflowPolicy::Block));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || ring.pop())
            })
            .collect();
        await_parked(&ring, |s| s.parked_readers, 2);
        ring.push(1);
        ring.push(2);
        let mut got: Vec<_> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, [Some(1), Some(2)]);
    }

    #[test]
    fn close_unblocks_parked_producer() {
        let ring = Arc::new(Ring::new(1, OverflowPolicy::Block));
        ring.push(1);
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2))
        };
        await_parked(&ring, |s| s.parked_writers, 1);
        ring.close();
        assert!(matches!(producer.join().unwrap(), PushOutcome::Closed(2)));
    }

    #[test]
    fn close_unblocks_parked_consumers() {
        let ring: Arc<Ring<u32>> = Arc::new(Ring::new(1, OverflowPolicy::Block));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || ring.pop())
            })
            .collect();
        await_parked(&ring, |s| s.parked_readers, 2);
        ring.close();
        for consumer in consumers {
            assert_eq!(consumer.join().unwrap(), None);
        }
    }

    /// Two Block producers and two consumers through one slot, so nearly
    /// every hand-off parks someone: a lost wake-up would hang here.
    #[test]
    fn contended_hand_offs_deliver_every_message() {
        const PER_PRODUCER: u64 = 2_000;
        let ring = Arc::new(Ring::new(1, OverflowPolicy::Block));
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert_eq!(ring.push(p * PER_PRODUCER + i), PushOutcome::Stored);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let (mut count, mut sum) = (0u64, 0u64);
                    while let Some(msg) = ring.pop() {
                        count += 1;
                        sum += msg;
                    }
                    (count, sum)
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        ring.close();
        let (count, sum) = consumers
            .into_iter()
            .map(|c| c.join().unwrap())
            .fold((0, 0), |(n, s), (cn, cs)| (n + cn, s + cs));
        let total = 2 * PER_PRODUCER;
        assert_eq!((count, sum), (total, total * (total - 1) / 2));
        let state = ring.state.lock().unwrap();
        assert_eq!((state.parked_readers, state.parked_writers), (0, 0));
    }

    #[test]
    fn attached_metrics_mirror_ring_stats() {
        let metrics = RingMetrics {
            pushed: Arc::new(Counter::new()),
            popped: Arc::new(Counter::new()),
            shed: Arc::new(Counter::new()),
            depth: Arc::new(Gauge::new()),
        };
        let ring = Ring::with_metrics(2, OverflowPolicy::DropOldest, metrics.clone());
        ring.push(1);
        ring.push(2);
        ring.push(3); // evicts 1
        assert_eq!(metrics.pushed.get(), 3);
        assert_eq!(metrics.shed.get(), 1);
        assert_eq!(metrics.depth.get(), 2);
        ring.pop();
        assert_eq!(metrics.popped.get(), 1);
        assert_eq!(metrics.depth.get(), 1);
        let stats = ring.snapshot();
        assert_eq!(stats.pushed, metrics.pushed.get());
        assert_eq!(stats.shed, metrics.shed.get());
    }

    #[test]
    fn high_water_tracks_deepest_point() {
        let ring = Ring::new(8, OverflowPolicy::Block);
        ring.push(1);
        ring.push(2);
        ring.push(3);
        ring.pop();
        ring.push(4);
        assert_eq!(ring.snapshot().depth_high_water, 3);
    }
}
