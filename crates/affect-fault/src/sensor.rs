//! Deterministic sensor faults on raw biosignal windows.
//!
//! Models the three failure modes a wearable PPG/GSR front-end actually
//! exhibits: electrode **dropout** (the signal goes flat-zero for a
//! stretch), rail **saturation** (the ADC pins to a value far outside the
//! normalized range), and **NaN bursts** (a DMA glitch poisons a run of
//! samples). Which window is hit, where in the window, and with which
//! fault are all pure functions of `(seed, window_index)` via
//! [`decision_hash`] — the same seed always poisons
//! the same windows, regardless of threading.

use crate::decision_hash;

/// Namespace tags so sensor draws never collide with stage draws.
const SITE_KIND: u64 = 0x5345_4E53; // "SENS"
const SITE_POS: u64 = 0x5345_4E53 + 1;

/// A value comfortably past `biosignal`'s `MAX_ABS_SAMPLE` bound,
/// mimicking an ADC stuck at the rail.
pub const SATURATION_VALUE: f32 = 1.0e6;

/// Rates (per million windows) and shape of injected sensor faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorFaultConfig {
    /// Windows hit by a flat-zero dropout, per million.
    pub dropout_per_million: u32,
    /// Windows hit by rail saturation, per million.
    pub saturate_per_million: u32,
    /// Windows hit by a NaN burst, per million.
    pub nan_per_million: u32,
    /// Length of the corrupted run, in samples (clamped to the window).
    pub burst_len: usize,
}

impl SensorFaultConfig {
    /// The chaos-suite preset: 2% dropouts, 1% saturation, 1% NaN bursts,
    /// 32-sample runs.
    pub const CHAOS: SensorFaultConfig = SensorFaultConfig {
        dropout_per_million: 20_000,
        saturate_per_million: 10_000,
        nan_per_million: 10_000,
        burst_len: 32,
    };
}

/// What was injected into one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFault {
    /// A run of samples forced to exactly zero.
    Dropout {
        /// First corrupted sample.
        start: usize,
        /// Number of corrupted samples.
        len: usize,
    },
    /// A run of samples pinned to [`SATURATION_VALUE`].
    Saturation {
        /// First corrupted sample.
        start: usize,
        /// Number of corrupted samples.
        len: usize,
    },
    /// A run of samples replaced with NaN.
    NanBurst {
        /// First corrupted sample.
        start: usize,
        /// Number of corrupted samples.
        len: usize,
    },
}

/// Deterministically corrupts `samples` (window number `window_index` of
/// the stream seeded by `seed`) according to `cfg`. Returns what was
/// injected, or `None` when this window drew clean.
pub fn apply_sensor_faults(
    samples: &mut [f32],
    seed: u64,
    window_index: u64,
    cfg: &SensorFaultConfig,
) -> Option<SensorFault> {
    if samples.is_empty() {
        return None;
    }
    let total = u64::from(cfg.dropout_per_million)
        + u64::from(cfg.saturate_per_million)
        + u64::from(cfg.nan_per_million);
    assert!(total <= 1_000_000, "sensor fault rates sum to {total}");

    let draw = (decision_hash(seed, SITE_KIND, window_index, 0) % 1_000_000) as u32;
    let kind = if draw < cfg.dropout_per_million {
        0
    } else if draw < cfg.dropout_per_million + cfg.saturate_per_million {
        1
    } else if draw < cfg.dropout_per_million + cfg.saturate_per_million + cfg.nan_per_million {
        2
    } else {
        return None;
    };

    let len = cfg.burst_len.clamp(1, samples.len());
    let start = (decision_hash(seed, SITE_POS, window_index, 0) % (samples.len() - len + 1) as u64)
        as usize;
    let value = match kind {
        0 => 0.0,
        1 => SATURATION_VALUE,
        _ => f32::NAN,
    };
    for s in &mut samples[start..start + len] {
        *s = value;
    }
    Some(match kind {
        0 => SensorFault::Dropout { start, len },
        1 => SensorFault::Saturation { start, len },
        _ => SensorFault::NanBurst { start, len },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Vec<f32> {
        (0..256).map(|i| (i as f32 * 0.01).sin()).collect()
    }

    #[test]
    fn quiet_config_never_touches_samples() {
        let quiet = SensorFaultConfig {
            dropout_per_million: 0,
            saturate_per_million: 0,
            nan_per_million: 0,
            burst_len: 0,
        };
        for idx in 0..200 {
            let mut w = window();
            let clean = w.clone();
            assert_eq!(apply_sensor_faults(&mut w, 1, idx, &quiet), None);
            assert_eq!(w, clean);
        }
    }

    #[test]
    fn faults_are_deterministic_in_seed_and_index() {
        let cfg = SensorFaultConfig {
            dropout_per_million: 300_000,
            saturate_per_million: 300_000,
            nan_per_million: 300_000,
            burst_len: 16,
        };
        for idx in 0..200 {
            let mut a = window();
            let mut b = window();
            let fa = apply_sensor_faults(&mut a, 7, idx, &cfg);
            let fb = apply_sensor_faults(&mut b, 7, idx, &cfg);
            assert_eq!(fa, fb);
            // NaN != NaN, so compare bit patterns.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn every_fault_kind_fires_and_matches_its_payload() {
        let cfg = SensorFaultConfig {
            dropout_per_million: 300_000,
            saturate_per_million: 300_000,
            nan_per_million: 300_000,
            burst_len: 16,
        };
        let (mut drops, mut sats, mut nans) = (0, 0, 0);
        for idx in 0..500 {
            let mut w = window();
            match apply_sensor_faults(&mut w, 3, idx, &cfg) {
                Some(SensorFault::Dropout { start, len }) => {
                    drops += 1;
                    assert!(w[start..start + len].iter().all(|&s| s == 0.0));
                }
                Some(SensorFault::Saturation { start, len }) => {
                    sats += 1;
                    assert!(w[start..start + len].iter().all(|&s| s == SATURATION_VALUE));
                }
                Some(SensorFault::NanBurst { start, len }) => {
                    nans += 1;
                    assert!(w[start..start + len].iter().all(|s| s.is_nan()));
                }
                None => {}
            }
        }
        assert!(
            drops > 50 && sats > 50 && nans > 50,
            "{drops}/{sats}/{nans}"
        );
    }

    #[test]
    fn corrupted_windows_fail_biosignal_validation() {
        let cfg = SensorFaultConfig {
            dropout_per_million: 0,
            saturate_per_million: 500_000,
            nan_per_million: 500_000,
            burst_len: 8,
        };
        let mut seen = 0;
        for idx in 0..200 {
            let mut w = window();
            if apply_sensor_faults(&mut w, 11, idx, &cfg).is_some() {
                seen += 1;
                assert!(biosignal::validate_samples(&w).is_err());
            }
        }
        assert!(seen > 100, "only {seen} faults fired");
    }

    #[test]
    fn burst_stays_inside_short_windows() {
        let cfg = SensorFaultConfig {
            dropout_per_million: 1_000_000,
            saturate_per_million: 0,
            nan_per_million: 0,
            burst_len: 32,
        };
        let mut w = vec![0.5f32; 5]; // shorter than burst_len = 32
        let fault = apply_sensor_faults(&mut w, 1, 0, &cfg);
        assert!(matches!(
            fault,
            Some(SensorFault::Dropout { start: 0, len: 5 })
        ));
        assert!(w.iter().all(|&s| s == 0.0));
    }
}
