//! The analysis window.
//!
//! Emotional-speech features in the paper are computed over short overlapping
//! frames; a Hann window tapers frame edges to limit spectral leakage before
//! the FFT.

/// Hann (raised cosine) coefficients for a frame of `len` samples.
///
/// For `len == 1` the single coefficient is `1.0`, so a degenerate frame is
/// passed through unchanged.
///
/// # Example
///
/// ```
/// let coeffs = dsp::window::hann(8);
/// assert_eq!(coeffs.len(), 8);
/// assert!(coeffs[0].abs() < 1e-6); // Hann starts at zero
/// ```
pub fn hann(len: usize) -> Vec<f32> {
    if len <= 1 {
        return vec![1.0; len];
    }
    let denom = (len - 1) as f32;
    (0..len)
        .map(|i| {
            let x = i as f32 / denom;
            0.5 - 0.5 * (2.0 * std::f32::consts::PI * x).cos()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_is_symmetric_and_peaks_in_middle() {
        let c = hann(33);
        for i in 0..c.len() {
            assert!((c[i] - c[c.len() - 1 - i]).abs() < 1e-6);
        }
        assert!((c[16] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn all_windows_bounded_zero_to_one() {
        for c in hann(64) {
            assert!((-1e-6..=1.0 + 1e-6).contains(&c), "{c}");
        }
    }

    #[test]
    fn single_sample_passthrough() {
        assert_eq!(hann(1), vec![1.0]);
        assert!(hann(0).is_empty());
    }
}
