//! The one training recipe behind every trained classifier: standardize the
//! training features, then fit a built model with Adam.
//!
//! [`Normalization`] is fitted on the training side and applied unchanged to
//! held-out data. [`train`] runs the whole recipe on a built model and
//! returns the normalization. Training is deterministic: the same data,
//! model seed and training seed give byte-identical weights.
//!
//! # Example
//!
//! ```
//! use affect_core::classifier::ModelConfig;
//! use affect_core::training::{train, NormScope};
//! use nn::Tensor;
//!
//! # fn main() -> Result<(), affect_core::AffectError> {
//! // Class 1 has the larger first feature.
//! let mut xs: Vec<Tensor> = (0..16)
//!     .map(|i| Tensor::from_vec(vec![(i % 2) as f32 * 3.0, i as f32], &[2]))
//!     .collect::<Result<_, _>>()?;
//! let ys: Vec<usize> = (0..16).map(|i| i % 2).collect();
//! let mut model = ModelConfig::scaled_mlp(2, 2).build(1)?;
//! let normalization = train(&mut model, &mut xs, &ys, NormScope::PerDimension, 30, 0.01, 1)?;
//!
//! let mut held_out = [Tensor::from_vec(vec![3.0, 5.0], &[2])?];
//! normalization.apply(&mut held_out)?;
//! assert_eq!(model.predict(&held_out[0])?, 1);
//! # Ok(())
//! # }
//! ```

use crate::AffectError;
use nn::optim::Adam;
use nn::train::{fit, FitConfig};
use nn::{Sequential, Tensor};

/// Samples per optimizer step.
const BATCH_SIZE: usize = 8;

/// Which values share one mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormScope {
    /// Each position of a flat vector has statistics of its own, and every
    /// tensor has the same length.
    PerDimension,
    /// Tensors are rows of this many features (`[T, F]` sequences or
    /// `[1, T × F]` strips), and each feature's statistics pool over
    /// samples and time. Far more robust than per-position statistics when
    /// `T × F` exceeds the sample count, the regime of the sequence
    /// classifiers.
    PerFeature(usize),
}

/// Feature standardization, `(x − mean) / std`, fitted on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalization {
    scope: NormScope,
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Normalization {
    /// Fits the statistics on `xs` and standardizes `xs` in place. A
    /// standard deviation is floored at `1e-6`, so a constant feature maps
    /// to 0.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] for an empty set, a zero
    /// feature count, per-dimension tensors of different lengths, or
    /// per-feature tensors whose length is not a multiple of the feature
    /// count.
    pub fn fit_in_place(xs: &mut [Tensor], scope: NormScope) -> Result<Self, AffectError> {
        let Some(first) = xs.first() else {
            return Err(invalid("xs", "empty dataset"));
        };
        // Per-dimension statistics are per-feature ones over one row.
        let dim = match scope {
            NormScope::PerDimension => first.len(),
            NormScope::PerFeature(dim) => dim,
        };
        if dim == 0 {
            return Err(invalid("feature_dim", "must be non-zero"));
        }
        let mut norm = Self {
            scope,
            mean: vec![0.0; dim],
            std: vec![0.0; dim],
        };
        norm.check(xs)?;
        let mut rows = 0u64;
        for x in xs.iter() {
            for (i, &v) in x.data().iter().enumerate() {
                norm.mean[i % dim] += v;
            }
            rows += (x.len() / dim) as u64;
        }
        for m in &mut norm.mean {
            *m /= rows as f32;
        }
        for x in xs.iter() {
            for (i, &v) in x.data().iter().enumerate() {
                norm.std[i % dim] += (v - norm.mean[i % dim]).powi(2);
            }
        }
        for s in &mut norm.std {
            *s = (*s / rows as f32).sqrt().max(1e-6);
        }
        norm.apply(xs)?;
        Ok(norm)
    }

    /// Standardizes held-out tensors with the fitted statistics.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] when a tensor does not fit
    /// the statistics' shape; no tensor is changed then.
    pub fn apply(&self, xs: &mut [Tensor]) -> Result<(), AffectError> {
        self.check(xs)?;
        let dim = self.mean.len();
        for x in xs.iter_mut() {
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                *v = (*v - self.mean[i % dim]) / self.std[i % dim];
            }
        }
        Ok(())
    }

    fn check(&self, xs: &[Tensor]) -> Result<(), AffectError> {
        let dim = self.mean.len();
        match self.scope {
            NormScope::PerDimension if xs.iter().any(|x| x.len() != dim) => {
                Err(invalid("xs", "tensor/stats length mismatch"))
            }
            NormScope::PerFeature(_) if xs.iter().any(|x| x.len() % dim != 0) => {
                Err(invalid("xs", "tensor length not a multiple of feature_dim"))
            }
            _ => Ok(()),
        }
    }
}

fn invalid(name: &'static str, reason: &'static str) -> AffectError {
    AffectError::InvalidParameter { name, reason }
}

/// Trains a built `model` on `(xs, ys)`: standardizes `xs` in place with
/// statistics fitted on them, then minimizes softmax cross-entropy with
/// Adam at `learning_rate` over `epochs` passes of 8-sample batches,
/// shuffled by `seed`. Returns the normalization, for held-out data.
///
/// # Errors
///
/// Propagates [`Normalization::fit_in_place`] and [`nn::train::fit`]
/// errors.
pub fn train(
    model: &mut Sequential,
    xs: &mut [Tensor],
    ys: &[usize],
    scope: NormScope,
    epochs: usize,
    learning_rate: f32,
    seed: u64,
) -> Result<Normalization, AffectError> {
    let normalization = Normalization::fit_in_place(xs, scope)?;
    let config = FitConfig {
        epochs,
        batch_size: BATCH_SIZE,
        seed,
    };
    fit(model, xs, ys, &mut Adam::new(learning_rate), &config)?;
    Ok(normalization)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensors(rows: &[&[f32]]) -> Vec<Tensor> {
        rows.iter()
            .map(|r| Tensor::from_vec(r.to_vec(), &[r.len()]).unwrap())
            .collect()
    }

    #[test]
    fn per_dimension_matches_the_direct_formula_bitwise() {
        let rows: &[&[f32]] = &[&[1.0, -2.0, 0.3], &[4.5, 0.25, 7.0], &[-3.0, 9.0, 0.1]];
        let mut xs = tensors(rows);
        Normalization::fit_in_place(&mut xs, NormScope::PerDimension).unwrap();
        // Oracle: per-position mean and population std, summed in sample
        // order.
        let n = rows.len() as f32;
        for d in 0..3 {
            let mean = rows.iter().fold(0.0f32, |acc, r| acc + r[d]) / n;
            let var = rows
                .iter()
                .fold(0.0f32, |acc, r| acc + (r[d] - mean).powi(2));
            let std = (var / n).sqrt().max(1e-6);
            for (x, r) in xs.iter().zip(rows) {
                assert_eq!(x.data()[d].to_bits(), ((r[d] - mean) / std).to_bits());
            }
        }
    }

    #[test]
    fn per_feature_pools_over_rows() {
        // Two [2, 2] sequences: feature 0 takes 0, 2, 4, 6; feature 1 is
        // constant.
        let mut xs = vec![
            Tensor::from_vec(vec![0.0, 5.0, 2.0, 5.0], &[2, 2]).unwrap(),
            Tensor::from_vec(vec![4.0, 5.0, 6.0, 5.0], &[2, 2]).unwrap(),
        ];
        let norm = Normalization::fit_in_place(&mut xs, NormScope::PerFeature(2)).unwrap();
        assert_eq!(norm.mean, vec![3.0, 5.0]);
        assert_eq!(norm.std[1], 1e-6);
        assert_eq!(xs[0].data()[1], 0.0);
        let feature0: f32 = xs.iter().map(|x| x.data()[0] + x.data()[2]).sum();
        assert!(feature0.abs() < 1e-6);
    }
}
