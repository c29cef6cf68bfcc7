//! Shared plumbing: the benchmark clock, a seeded generator, sample
//! statistics, process counters from `/proc`, registry histogram deltas
//! and the ledger of offered work items.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use affect_obs::{Histogram, HistogramSnapshot, MetricsRegistry, BUCKETS};

/// The paper's decision deadline: a window (or a 1 s video segment) served
/// later than this after its due time counts as failed.
pub const DEADLINE_NS: u64 = 1_000_000_000;

/// Seconds the fixed rate runs before its measurement starts, so caches,
/// allocator pools and queue depths have settled.
pub const WARM_SECS: usize = 2;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds: 75% fixed-rate phase, 25% saturation phase.
    pub seconds: u64,
}

impl Plan {
    /// Length of the fixed-rate (open-loop) phase.
    pub fn fixed_ns(&self) -> u64 {
        self.seconds * 750_000_000
    }

    /// Whole seconds of the fixed-rate phase (windows per 1 Hz wearer).
    pub fn fixed_secs(&self) -> usize {
        (self.fixed_ns() / 1_000_000_000).max(1) as usize
    }

    /// Length of the saturation (closed-loop) phase.
    pub fn saturation_ns(&self) -> u64 {
        self.seconds * 250_000_000
    }
}

/// Nanoseconds since the benchmark's clock origin (first use).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Sleeps until the benchmark clock reads `due` (returns at once if late).
/// Plain sleeping, never spinning, so the generator's own CPU stays out of
/// `cpu_cores_busy`.
pub fn sleep_until(due: u64) {
    let now = now_ns();
    if due > now {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// Setup times of one pass. A shared host's speed changes every few
/// seconds, so the samples are taken in batches spread over the pass
/// (before, between and after the phases) and `setup_s` is their median.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Setups timed per batch.
    const BATCH: usize = 15;

    /// Times one batch of throw-away setups; `once` builds, starts and
    /// tears down one system, returning the build-to-started seconds.
    pub fn batch(&mut self, mut once: impl FnMut() -> f64) {
        for _ in 0..Self::BATCH {
            self.0.push(once());
        }
    }

    /// Records the setup of the system the pass runs on.
    pub fn push(&mut self, secs: f64) {
        self.0.push(secs);
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Measures a closed-loop phase's throughput. After a fill period (the
/// first fifth of the phase, while queues fill) it samples the completed
/// count once per slice and reports the median slice rate, which a short
/// slowdown of a shared host does not move.
pub struct RateMeter {
    slice_ns: u64,
    fill_end: u64,
    end: u64,
    slice_start: Option<(u64, u64)>,
    rates: Vec<f64>,
}

impl RateMeter {
    pub fn start(duration_ns: u64, slice_ns: u64) -> Self {
        let now = now_ns();
        Self {
            slice_ns,
            fill_end: now + duration_ns / 5,
            end: now + duration_ns,
            slice_start: None,
            rates: Vec::new(),
        }
    }

    /// Feeds the count of items completed so far; `false` once the phase
    /// is over.
    pub fn running(&mut self, completed: u64) -> bool {
        let now = now_ns();
        match self.slice_start {
            None if now >= self.fill_end => self.slice_start = Some((now, completed)),
            Some((t, n)) if now - t >= self.slice_ns => {
                self.rates
                    .push((completed - n) as f64 / ((now - t) as f64 / 1e9));
                self.slice_start = Some((now, completed));
            }
            _ => {}
        }
        now < self.end
    }

    /// Median completed items per second over the slices.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }
}

/// SplitMix64: every input of a run derives from the `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// When, within second `k` of a 1 Hz schedule, wearer `w` of `n` is due:
/// each wearer owns a slot of `1/n` s and its position inside the slot is
/// drawn afresh every second from `seed`. Arrivals are spread evenly, and
/// which of them overlap changes from second to second instead of
/// repeating one seed-chosen pattern for the whole run.
pub fn slot_offset_ns(seed: u64, w: usize, n: usize, k: usize) -> u64 {
    let mut rng = Rng::new(seed ^ ((w as u64) << 32) ^ k as u64);
    ((w as f64 + rng.unit()) / n as f64 * 1e9) as u64
}

/// Linearly interpolated quantile of `samples` (numpy's default rule);
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Process CPU seconds (user + system, every thread, exited ones
/// included) at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds one probe call takes on a reference core: the unit of
/// [`SpeedProbe`]'s host speed (a host that needs 2 ms runs at 0.5).
const PROBE_REFERENCE_S: f64 = 1.0e-3;
/// Probe kernel iterations per call.
const PROBE_ITERS: usize = 40_000;
/// Words of the probe's buffer: 16 MiB, more than the share of the last-
/// level cache one core gets, so the probe feels the memory contention of
/// the host's other tenants as the decoder and the dsp kernels do.
const PROBE_WORDS: usize = 1 << 22;
/// Pause between probe calls.
const PROBE_PERIOD_NS: u64 = 50_000_000;

/// The probe's buffer, resident from [`reserve_probe_buffer`] to exit.
fn probe_buffer() -> &'static std::sync::Mutex<Vec<u32>> {
    static BUFFER: OnceLock<std::sync::Mutex<Vec<u32>>> = OnceLock::new();
    // Non-zero, so every page is written now (zeroed memory would be
    // mapped lazily and join the RSS while a phase runs).
    BUFFER.get_or_init(|| std::sync::Mutex::new(vec![1; PROBE_WORDS]))
}

/// Makes the speed probe's buffer resident for the whole run, so that
/// [`peak_rss_mb`] can take it off exactly. Call it first thing.
pub fn reserve_probe_buffer() {
    probe_buffer();
}

/// The probe kernel: dependent integer hashing, scattered loads and stores
/// over the buffer and floating-point multiply-adds. It is the benchmark's
/// own code, so no change to the program changes its cost.
fn probe_kernel(buf: &mut [u32]) -> f32 {
    let mask = buf.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f32;
    for _ in 0..PROBE_ITERS {
        x = x
            .wrapping_mul(0x5851_f42d_4c95_7f2d)
            .wrapping_add(0x1405_7b7e_f767_814f);
        let j = (x >> 40) as usize & mask;
        buf[j] = buf[j].wrapping_add(x as u32);
        acc = acc.mul_add(0.999, buf[j] as f32 * 1e-9);
    }
    acc
}

/// Tracks the shared host's speed while a phase runs. The 2-vCPU cloud VM
/// this benchmark was sized on runs the same code up to 2x slower for
/// seconds to minutes at a time, and the program's CPU time follows. A
/// thread of its own calls a fixed kernel every [`PROBE_PERIOD_NS`] and
/// times each call in thread CPU time; the median call over the phase
/// gives the host's speed then.
pub struct SpeedProbe {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// Returns each call's CPU seconds.
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl SpeedProbe {
    pub fn start() -> Self {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut buf = probe_buffer().lock().expect("one probe at a time");
            let mut calls = Vec::new();
            let mut due = now_ns();
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                let start = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
                std::hint::black_box(probe_kernel(&mut buf));
                calls.push(clock_seconds(CLOCK_THREAD_CPUTIME_ID) - start);
                due += PROBE_PERIOD_NS;
                sleep_until(due);
            }
            calls
        });
        Self { stop, thread }
    }

    /// Stops the probe and waits for its thread. Returns the CPU seconds
    /// its calls took in all (not the program's, so the caller takes them
    /// off the process's) and the host's speed: reference cores per core.
    pub fn stop(self) -> (f64, f64) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let calls = self.thread.join().expect("speed probe thread");
        (calls.iter().sum(), PROBE_REFERENCE_S / median(&calls))
    }
}

/// Makes glibc serve every thread from one malloc arena. By default each
/// thread that contends for the heap gets an arena of its own, which of
/// them end up sharing depends on thread timing, and the peak RSS with
/// it (20-26 MiB over runs of one seed of `video_fig6`). One arena makes
/// `peak_rss_mb` a property of the program's allocations. Must run before
/// any thread is spawned.
pub fn single_malloc_arena() {
    // SAFETY: mallopt only sets an allocator parameter; no thread exists
    // yet that could be allocating concurrently.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, 1)");
}

/// The process's peak resident set (`VmHWM`) in MiB, less the speed
/// probe's buffer, which is resident from the start of the run to its end.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    (kib * 1024.0 - (PROBE_WORDS * std::mem::size_of::<u32>()) as f64) / (1 << 20) as f64
}

/// A registry histogram between two points of a run: bucket counts and sum
/// of the samples recorded in between.
pub struct HistDelta {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl HistDelta {
    pub fn between(before: &HistogramSnapshot, after: &HistogramSnapshot) -> Self {
        Self {
            buckets: std::array::from_fn(|i| after.buckets[i] - before.buckets[i]),
            count: after.count - before.count,
            sum: after.sum - before.sum,
        }
    }

    /// Exact mean of the samples, in the histogram's unit.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile as the containing log2 bucket's upper bound (the runtime's
    /// own resolution: within 2x of the true value).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i) as f64;
            }
        }
        0.0
    }
}

/// Snapshot of a registry histogram (registering it if the program has
/// not, in which case it stays empty).
pub fn hist(registry: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    registry.histogram(name, "", labels).snapshot()
}

/// Current value of a registry counter.
pub fn counter(registry: &MetricsRegistry, name: &str, labels: &[(&str, &str)]) -> u64 {
    registry.counter(name, "", labels).get()
}

/// One window (or segment) offered in the fixed-rate phase.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// Session (wearer) index.
    pub session: u32,
    /// The runtime sequence number the item was produced under; `None`
    /// when the item never reached a runtime (shed or evicted).
    pub seq: Option<u64>,
    /// Scheduled due time.
    pub due: u64,
    /// When the call into the system started.
    pub start: u64,
    /// When the call returned.
    pub end: u64,
}

/// Latency and lag statistics of a fixed-rate phase.
#[derive(Default)]
pub struct Served {
    /// Due-to-served latency of every served item, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Due time of each entry of `latency_ms`.
    due_ns: Vec<u64>,
    /// Generator lag (call start minus due time), milliseconds.
    pub lag_ms: Vec<f64>,
    /// Items never served: refused, dropped or failed to decode.
    pub failed: u64,
    /// Items served, but later than [`DEADLINE_NS`] after their due time.
    /// A host stall makes these, so they are a latency figure
    /// (`rt.window_fail_ratio`), not failed operations.
    pub late: u64,
}

impl Served {
    /// Books one offered item served at `served` (or never).
    pub fn book(&mut self, offer: &Offer, served: Option<u64>) {
        self.lag_ms
            .push(offer.start.saturating_sub(offer.due) as f64 / 1e6);
        match served {
            Some(at) => {
                let latency = at.saturating_sub(offer.due);
                self.latency_ms.push(latency as f64 / 1e6);
                self.due_ns.push(offer.due);
                if latency > DEADLINE_NS {
                    self.late += 1;
                }
            }
            None => self.failed += 1,
        }
    }

    /// The decision-latency figures of the served windows. The median is
    /// taken per second of due time and `decision_p50_ms` is the median of
    /// those, so host stalls that slow a few seconds of a run do not move
    /// it; the tail percentiles pool every window.
    pub fn decision_e2e(&self, e2e: &mut BTreeMap<&'static str, f64>) {
        let start = self.due_ns.iter().copied().min().unwrap_or(0);
        let mut seconds: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (due, ms) in self.due_ns.iter().zip(&self.latency_ms) {
            seconds
                .entry((due - start) / 1_000_000_000)
                .or_default()
                .push(*ms);
        }
        let medians: Vec<f64> = seconds.values().map(|v| median(v)).collect();
        e2e.insert("decision_p50_ms", median(&medians));
        e2e.insert("decision_p90_ms", quantile(&self.latency_ms, 0.90));
        e2e.insert("decision_p99_ms", quantile(&self.latency_ms, 0.99));
    }
}

/// Generator lag above which a run is flagged as behind schedule.
pub const BEHIND_MS: f64 = 10.0;
