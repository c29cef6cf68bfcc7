//! Scalar statistics over signal windows.
//!
//! The paper's smartphone-side feature extraction includes "time-based
//! features such as mean, histogram, and variance" computed over biosignal
//! windows; these helpers provide the moments and range the classification
//! pipeline computes.

use crate::DspError;

/// Arithmetic mean of a slice.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn mean(xs: &[f32]) -> Result<f32, DspError> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(xs.iter().sum::<f32>() / xs.len() as f32)
}

/// Population variance of a slice.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn variance(xs: &[f32]) -> Result<f32, DspError> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m).powi(2)).sum::<f32>() / xs.len() as f32)
}

/// Population standard deviation.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn std_dev(xs: &[f32]) -> Result<f32, DspError> {
    Ok(variance(xs)?.sqrt())
}

/// Minimum and maximum of a slice as `(min, max)`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] for an empty slice.
pub fn min_max(xs: &[f32]) -> Result<(f32, f32), DspError> {
    if xs.is_empty() {
        return Err(DspError::EmptyInput);
    }
    Ok(xs
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-6);
        assert!((variance(&xs).unwrap() - 4.0).abs() < 1e-6);
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(min_max(&[]).is_err());
    }

    #[test]
    fn constant_data_has_zero_moments() {
        let xs = [3.0f32; 10];
        assert_eq!(variance(&xs).unwrap(), 0.0);
    }

    #[test]
    fn min_max_correct() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]).unwrap(), (-1.0, 3.0));
    }
}
