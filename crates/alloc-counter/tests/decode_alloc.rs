//! Proves the decoder's byte front end works per NAL unit, not per byte:
//! `BufferChain::pump` allocates nothing at any length, and a warm
//! `ModeSwitchDriver::decode_segment` allocates a few times per unit and
//! per frame (frames, slice state, the kept-unit list), never per wire
//! byte.
//!
//! Runs without the libtest harness (`harness = false`): the allocator
//! counters are process-global, so the measurement must own the process.

use affect_core::policy::VideoPowerMode;
use alloc_counter::{count_allocations, CountingAllocator};
use h264::adaptive::ModeSwitchDriver;
use h264::buffers::BufferChain;
use h264::encoder::{Encoder, EncoderConfig, GopPattern};
use h264::nal::split_annex_b;
use h264::video::synthetic_clip_with_pause;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allowed allocations per NAL unit and per decoded frame.
const PER_UNIT_OR_FRAME: u64 = 8;

fn main() {
    let chain = BufferChain::paper_sized();
    for len in [0usize, 1, 4096, 1_000_000] {
        let (delta, stats) = count_allocations(|| chain.pump(black_box(len)));
        assert_eq!(delta.allocations, 0, "pump({len}) allocated: {delta:?}");
        assert_eq!(stats.delivered, len);
    }

    // The `video_fig6` segment's shape at QCIF: 30 frames, I8/B1 and a
    // motion pause whose tiny P/B units the deletion modes drop.
    let frames = synthetic_clip_with_pause(176, 144, 30, 1, 11..19).unwrap();
    let stream = Encoder::new(EncoderConfig {
        gop: GopPattern {
            intra_period: 8,
            b_between: 1,
        },
        skip_threshold: 1500,
        ..EncoderConfig::default()
    })
    .unwrap()
    .encode(&frames)
    .unwrap();
    let units = split_annex_b(&stream).unwrap().len() as u64;

    for mode in VideoPowerMode::ALL {
        let driver = ModeSwitchDriver::new(mode);
        // Warm-up: the backend selection and any lazily built tables.
        let warm = driver.decode_segment(&stream).unwrap();
        let (delta, out) = count_allocations(|| driver.decode_segment(&stream).unwrap());
        let bound = PER_UNIT_OR_FRAME * (units + out.frames.len() as u64);
        assert!(
            delta.allocations <= bound,
            "{mode:?}: {} allocations for {units} units and {} frames \
             ({} wire bytes), bound {bound}",
            delta.allocations,
            out.frames.len(),
            stream.len(),
        );
        assert_eq!(out.frames, warm.frames, "{mode:?}: warm decode drifted");
        assert_eq!(out.activity, warm.activity);
        println!(
            "decode_alloc: {mode:?}: {} allocations, {units} units ({} deleted), {} frames",
            delta.allocations,
            out.selection.deleted_units,
            out.frames.len()
        );
    }
    println!("decode_alloc: ok");
}
