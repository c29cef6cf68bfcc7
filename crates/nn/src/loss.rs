//! Loss functions.

use crate::{NnError, Tensor};

/// Numerically stable softmax of a logit vector.
///
/// # Example
///
/// ```
/// use nn::loss::softmax;
/// let p = softmax(&[1.0, 1.0]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] applied in place, allocation-free; bit-for-bit identical to
/// the allocating variant.
pub fn softmax_in_place(logits: &mut [f32]) {
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    for x in logits.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = logits.iter().sum();
    for x in logits.iter_mut() {
        *x /= sum;
    }
}

/// Softmax cross-entropy loss against an integer class label.
///
/// Returns `(loss, grad_logits)` — the gradient is with respect to the raw
/// logits (the standard fused form `softmax(z) - onehot(y)`), ready to feed
/// into the last layer's `backward`.
///
/// # Errors
///
/// Returns [`NnError::LabelOutOfRange`] when `label >= logits.len()` and
/// [`NnError::ShapeMismatch`] when `logits` is not 1-D.
///
/// # Example
///
/// ```
/// use nn::loss::cross_entropy;
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0], &[3])?;
/// let (loss, grad) = cross_entropy(&logits, 0)?;
/// assert!(loss < 0.5); // correct class already dominant
/// assert!(grad.data()[0] < 0.0); // push class 0 up
/// # Ok(())
/// # }
/// ```
pub fn cross_entropy(logits: &Tensor, label: usize) -> Result<(f32, Tensor), NnError> {
    if logits.shape().len() != 1 {
        return Err(NnError::ShapeMismatch {
            expected: "1-d logits".into(),
            actual: logits.shape().to_vec(),
        });
    }
    let n = logits.len();
    if label >= n {
        return Err(NnError::LabelOutOfRange { label, classes: n });
    }
    let probs = softmax(logits.data());
    let loss = -(probs[label].max(1e-12)).ln();
    let mut grad = probs;
    grad[label] -= 1.0;
    Ok((loss, Tensor::from_vec(grad, &[n])?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[0.1, -2.0, 3.5, 1.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn softmax_variants_agree_bitwise() {
        let logits = [0.1f32, -2.0, 3.5, 1.0];
        let reference = softmax(&logits);
        let mut in_place = logits;
        softmax_in_place(&mut in_place);
        assert_eq!(reference, in_place);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-5);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_n() {
        let logits = Tensor::from_vec(vec![0.0; 4], &[4]).unwrap();
        let (loss, _) = cross_entropy(&logits, 2).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap();
        let (_, grad) = cross_entropy(&logits, 1).unwrap();
        assert!(grad.data().iter().sum::<f32>().abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::from_vec(vec![0.0; 3], &[3]).unwrap();
        assert_eq!(
            cross_entropy(&logits, 3),
            Err(NnError::LabelOutOfRange {
                label: 3,
                classes: 3
            })
        );
    }

    #[test]
    fn cross_entropy_gradient_check() {
        let logits = Tensor::from_vec(vec![0.4, -0.9, 1.2], &[3]).unwrap();
        let (_, grad) = cross_entropy(&logits, 0).unwrap();
        let eps = 1e-3;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (loss_p, _) = cross_entropy(&lp, 0).unwrap();
            let (loss_m, _) = cross_entropy(&lm, 0).unwrap();
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!((grad.data()[i] - numeric).abs() < 1e-3);
        }
    }
}
