//! Evaluation metrics: accuracy and confusion matrices.

use crate::model::Sequential;
use crate::{NnError, Tensor};
use std::fmt;

/// Fraction of samples `model` classifies correctly.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] on length mismatch or an empty set;
/// propagates model errors.
pub fn accuracy(
    model: &mut Sequential,
    inputs: &[Tensor],
    labels: &[usize],
) -> Result<f32, NnError> {
    if inputs.len() != labels.len() || inputs.is_empty() {
        return Err(NnError::InvalidParameter {
            name: "inputs/labels",
            reason: "must be non-empty and equal length",
        });
    }
    let mut correct = 0usize;
    for (x, &y) in inputs.iter().zip(labels) {
        if model.predict(x)? == y {
            correct += 1;
        }
    }
    Ok(correct as f32 / inputs.len() as f32)
}

/// A square confusion matrix: `counts[actual][predicted]`.
///
/// Reproduces the paper's Fig. 3(a) (LSTM on the RAVDESS-like corpus).
///
/// # Example
///
/// ```
/// use nn::metrics::ConfusionMatrix;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut cm = ConfusionMatrix::new(vec!["neutral".into(), "happy".into()])?;
/// cm.record(0, 0)?;
/// cm.record(0, 1)?;
/// cm.record(1, 1)?;
/// assert_eq!(cm.normalized()[0], vec![0.5, 0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    labels: Vec<String>,
    counts: Vec<Vec<u32>>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix over the given class labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an empty label list.
    pub fn new(labels: Vec<String>) -> Result<Self, NnError> {
        if labels.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "labels",
                reason: "must be non-empty",
            });
        }
        let n = labels.len();
        Ok(Self {
            labels,
            counts: vec![vec![0; n]; n],
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.labels.len()
    }

    /// Class label names.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Records one `(actual, predicted)` observation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelOutOfRange`] when either index is out of
    /// range.
    pub fn record(&mut self, actual: usize, predicted: usize) -> Result<(), NnError> {
        let n = self.num_classes();
        for label in [actual, predicted] {
            if label >= n {
                return Err(NnError::LabelOutOfRange { label, classes: n });
            }
        }
        self.counts[actual][predicted] += 1;
        Ok(())
    }

    /// Raw count for `(actual, predicted)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelOutOfRange`] for out-of-range indices.
    pub fn count(&self, actual: usize, predicted: usize) -> Result<u32, NnError> {
        let n = self.num_classes();
        for label in [actual, predicted] {
            if label >= n {
                return Err(NnError::LabelOutOfRange { label, classes: n });
            }
        }
        Ok(self.counts[actual][predicted])
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u32 {
        self.counts.iter().flatten().sum()
    }

    /// Row-normalized matrix (each row sums to 1, or stays zero when the
    /// class never occurred) — the form the paper plots.
    pub fn normalized(&self) -> Vec<Vec<f32>> {
        self.counts
            .iter()
            .map(|row| {
                let total: u32 = row.iter().sum();
                row.iter()
                    .map(|&c| {
                        if total == 0 {
                            0.0
                        } else {
                            c as f32 / total as f32
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Fills the matrix from model predictions over a labelled set.
    ///
    /// # Errors
    ///
    /// Propagates model errors and label-range errors.
    pub fn evaluate(
        &mut self,
        model: &mut Sequential,
        inputs: &[Tensor],
        labels: &[usize],
    ) -> Result<(), NnError> {
        if inputs.len() != labels.len() {
            return Err(NnError::InvalidParameter {
                name: "inputs/labels",
                reason: "must have the same length",
            });
        }
        for (x, &y) in inputs.iter().zip(labels) {
            let pred = model.predict(x)?;
            self.record(y, pred)?;
        }
        Ok(())
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .labels
            .iter()
            .map(|l| l.len())
            .max()
            .unwrap_or(4)
            .max(5);
        write!(f, "{:>width$} ", "")?;
        for l in &self.labels {
            write!(f, "{l:>width$} ")?;
        }
        writeln!(f)?;
        for (i, row) in self.normalized().iter().enumerate() {
            write!(f, "{:>width$} ", self.labels[i])?;
            for v in row {
                write!(f, "{:>width$.2} ", v)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;

    #[test]
    fn rejects_empty_labels() {
        assert!(ConfusionMatrix::new(vec![]).is_err());
    }

    #[test]
    fn record_and_count() {
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into()]).unwrap();
        cm.record(0, 1).unwrap();
        cm.record(0, 1).unwrap();
        assert_eq!(cm.count(0, 1).unwrap(), 2);
        assert_eq!(cm.count(1, 0).unwrap(), 0);
        assert_eq!(cm.total(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut cm = ConfusionMatrix::new(vec!["a".into()]).unwrap();
        assert!(cm.record(1, 0).is_err());
        assert!(cm.count(0, 1).is_err());
    }

    #[test]
    fn perfect_predictions_give_unit_accuracy() {
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into()]).unwrap();
        cm.record(0, 0).unwrap();
        cm.record(1, 1).unwrap();
        assert_eq!(cm.normalized(), vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn normalized_rows_sum_to_one() {
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into(), "c".into()]).unwrap();
        for (a, p) in [(0, 0), (0, 1), (0, 2), (1, 1), (2, 0)] {
            cm.record(a, p).unwrap();
        }
        for row in cm.normalized() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_matrix_has_zero_accuracy() {
        let cm = ConfusionMatrix::new(vec!["a".into()]).unwrap();
        assert_eq!(cm.normalized(), vec![vec![0.0]]);
    }

    #[test]
    fn display_includes_labels() {
        let mut cm = ConfusionMatrix::new(vec!["happy".into(), "sad".into()]).unwrap();
        cm.record(0, 0).unwrap();
        let s = cm.to_string();
        assert!(s.contains("happy") && s.contains("sad"));
    }

    #[test]
    fn accuracy_validates_inputs() {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 2, 0).unwrap());
        assert!(accuracy(&mut m, &[], &[]).is_err());
    }

    #[test]
    fn evaluate_fills_matrix() {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 2, 1).unwrap());
        let xs = vec![
            Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap(),
            Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap(),
        ];
        let ys = vec![0, 1];
        let mut cm = ConfusionMatrix::new(vec!["a".into(), "b".into()]).unwrap();
        cm.evaluate(&mut m, &xs, &ys).unwrap();
        assert_eq!(cm.total(), 2);
    }
}
