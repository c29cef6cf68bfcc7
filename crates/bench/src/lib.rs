//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `figN` module reproduces one evaluation artifact of *"Human Emotion
//! Based Real-time Memory and Computation Management on Resource-Limited
//! Edge Devices"* (DAC 2022); the `repro` binary drives them and prints
//! aligned text tables. The Criterion benches in `benches/` measure the
//! performance-sensitive kernels and end-to-end paths on the same harness.
//! Both write what they measure through [`results`]: `repro` its CSVs, the
//! benches their `BENCH_<name>.json`, all under `<repo>/results`.

pub mod ext;
pub mod fig10;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod results;
pub mod table;
pub mod tables;
