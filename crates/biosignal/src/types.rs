//! Common signal container.

use crate::BiosignalError;

/// A uniformly sampled real-valued signal.
///
/// # Example
///
/// ```
/// use biosignal::SampledSignal;
/// # fn main() -> Result<(), biosignal::BiosignalError> {
/// let s = SampledSignal::new(vec![0.0; 400], 4.0)?;
/// assert_eq!(s.slice_secs(10.0, 20.0)?.len(), 40);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSignal {
    /// Sample values.
    pub samples: Vec<f32>,
    /// Sample rate in hertz.
    pub sample_rate: f32,
}

impl SampledSignal {
    /// Wraps samples with their rate.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidParameter`] for a non-positive rate.
    pub fn new(samples: Vec<f32>, sample_rate: f32) -> Result<Self, BiosignalError> {
        if !(sample_rate > 0.0) {
            return Err(BiosignalError::InvalidParameter {
                name: "sample_rate",
                reason: "must be positive",
            });
        }
        Ok(Self {
            samples,
            sample_rate,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the signal has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// A slice covering `[start_secs, end_secs)`, clamped to the signal.
    ///
    /// # Errors
    ///
    /// Returns [`BiosignalError::InvalidTimeRange`] when `end <= start`.
    pub fn slice_secs(&self, start_secs: f32, end_secs: f32) -> Result<&[f32], BiosignalError> {
        if end_secs <= start_secs {
            return Err(BiosignalError::InvalidTimeRange);
        }
        let a = ((start_secs * self.sample_rate) as usize).min(self.samples.len());
        let b = ((end_secs * self.sample_rate) as usize).min(self.samples.len());
        Ok(&self.samples[a..b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rate() {
        assert!(SampledSignal::new(vec![], 0.0).is_err());
        assert!(SampledSignal::new(vec![], -1.0).is_err());
    }

    #[test]
    fn slice_by_seconds() {
        let s = SampledSignal::new((0..100).map(|i| i as f32).collect(), 10.0).unwrap();
        let mid = s.slice_secs(2.0, 4.0).unwrap();
        assert_eq!(mid.len(), 20);
        assert_eq!(mid[0], 20.0);
        assert!(s.slice_secs(4.0, 2.0).is_err());
    }

    #[test]
    fn slice_clamps_to_signal() {
        let s = SampledSignal::new(vec![1.0; 10], 1.0).unwrap();
        assert_eq!(s.slice_secs(5.0, 100.0).unwrap().len(), 5);
    }
}
