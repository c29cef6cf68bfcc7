//! Proves the memory-pressure governor adds zero allocations to the warm
//! path: what a worker does per window with a budget attached — a classify
//! pass, scratch-delta charge/release — and what a chaos tick does
//! (absolute phantom write + refresh) are all pure atomics.
//! Construction and metric registration are the cold path.
//!
//! Runs without the libtest harness (`harness = false`): the allocator
//! counters are process-global, so the measurement must own the process.

use affect_core::classifier::{AffectClassifier, Decision, ModelConfig};
use affect_rt::{MemConsumer, MemoryBudget, PressureBand};
use alloc_counter::{count_allocations, CountingAllocator};
use nn::Scratch;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    // Cold path: the accountant itself is a fistful of atomics.
    let mem = MemoryBudget::new(1 << 20);
    mem.charge(MemConsumer::RingQueues, 4096);
    mem.charge(MemConsumer::ModelTables, 64 << 10);

    // The classify workload the governor rides along with.
    let cfg = ModelConfig::scaled_cnn(64, 5);
    let labels: Vec<String> = (0..5).map(|i| format!("c{i}")).collect();
    let mut clf = AffectClassifier::from_config(&cfg, labels, 11).unwrap();
    let features: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut scratch = Scratch::new();
    let mut decision = Decision::default();
    for _ in 0..2 {
        clf.classify_with(&features, &[1, 64], &mut scratch, &mut decision)
            .unwrap();
    }

    // Warm path: exactly what an instrumented worker does per window once
    // the budget is attached — plus the band walk a chaos staircase
    // drives, so every transition-counter bump is covered too.
    let (delta, ()) = count_allocations(|| {
        for i in 0..1_000u64 {
            clf.classify_with(&features, &[1, 64], &mut scratch, &mut decision)
                .unwrap();
            // Scratch growth/shrink accounting at the (de)allocation seam.
            mem.charge(MemConsumer::ScratchPools, 512);
            mem.release(MemConsumer::ScratchPools, 512);
            // A chaos tick: absolute phantom write, then a band refresh
            // that crosses thresholds (and ticks transition counters) as
            // the staircase walks up and down.
            mem.set_phantom((i % 4) * (1 << 18));
            mem.refresh();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "governed classify path allocated in steady state: {delta:?}"
    );
    assert_eq!(delta.bytes_allocated, 0);

    // The governor really did move through bands while staying silent.
    let transitions: u64 = mem.transitions().iter().sum();
    assert!(transitions > 0, "the staircase never changed band");
    mem.set_phantom(0);
    assert_eq!(mem.refresh(), PressureBand::Green);

    // Bare accountant ops without the model, for a tight upper bound.
    let (delta, ()) = count_allocations(|| {
        for i in 0..10_000u64 {
            mem.charge(MemConsumer::DecoderBuffers, i % 257);
            mem.release(MemConsumer::DecoderBuffers, i % 257);
            mem.refresh();
        }
    });
    assert_eq!(
        delta.allocations, 0,
        "bare budget updates allocated: {delta:?}"
    );
    println!("mem_governor_zero_alloc: ok");
}
