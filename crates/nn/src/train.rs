//! Minibatch training loop.

use crate::model::Sequential;
use crate::optim::Adam;
use crate::{NnError, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for [`fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitConfig {
    /// Number of full passes over the training set.
    pub epochs: usize,
    /// Samples per optimizer step.
    pub batch_size: usize,
    /// Shuffle seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 16,
            seed: 0,
        }
    }
}

/// Per-epoch training history returned by [`fit`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FitHistory {
    /// Mean training loss per epoch.
    pub epoch_loss: Vec<f32>,
}

/// Trains `model` on `(inputs, labels)` with softmax cross-entropy.
///
/// Shuffles each epoch with a deterministic RNG, accumulates gradients over
/// `batch_size` samples, and applies one averaged optimizer step per batch.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] when `inputs` and `labels` differ in
/// length, the dataset is empty, or `batch_size`/`epochs` is zero; propagates
/// model and optimizer errors.
///
/// # Example
///
/// See the crate-level example in [`crate`].
pub fn fit(
    model: &mut Sequential,
    inputs: &[Tensor],
    labels: &[usize],
    optimizer: &mut Adam,
    config: &FitConfig,
) -> Result<FitHistory, NnError> {
    if inputs.len() != labels.len() {
        return Err(NnError::InvalidParameter {
            name: "inputs/labels",
            reason: "must have the same length",
        });
    }
    if inputs.is_empty() {
        return Err(NnError::InvalidParameter {
            name: "inputs",
            reason: "training set is empty",
        });
    }
    if config.batch_size == 0 || config.epochs == 0 {
        return Err(NnError::InvalidParameter {
            name: "batch_size/epochs",
            reason: "must be non-zero",
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut history = FitHistory::default();

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for batch in order.chunks(config.batch_size) {
            model.zero_grad();
            for &idx in batch {
                epoch_loss += f64::from(model.train_step(&inputs[idx], labels[idx])?);
            }
            let scale = 1.0 / batch.len() as f32;
            optimizer.step(&mut model.params_mut(), scale)?;
        }
        let mean = (epoch_loss / inputs.len() as f64) as f32;
        history.epoch_loss.push(mean);
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense};

    fn xor_data() -> (Vec<Tensor>, Vec<usize>) {
        let pts = [
            ([0.0f32, 0.0], 0usize),
            ([0.0, 1.0], 1),
            ([1.0, 0.0], 1),
            ([1.0, 1.0], 0),
        ];
        let xs = pts
            .iter()
            .map(|(p, _)| Tensor::from_vec(p.to_vec(), &[2]).unwrap())
            .collect();
        let ys = pts.iter().map(|&(_, y)| y).collect();
        (xs, ys)
    }

    fn xor_model(seed: u64) -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 8, seed).unwrap());
        m.push(Activation::relu());
        m.push(Dense::new(8, 2, seed + 1).unwrap());
        m
    }

    #[test]
    fn validates_arguments() {
        let (xs, mut ys) = xor_data();
        let mut m = xor_model(0);
        let mut opt = Adam::new(0.1);
        ys.pop();
        assert!(fit(&mut m, &xs, &ys, &mut opt, &FitConfig::default()).is_err());
        let cfg = FitConfig {
            batch_size: 0,
            ..FitConfig::default()
        };
        let (xs, ys) = xor_data();
        assert!(fit(&mut m, &xs, &ys, &mut opt, &cfg).is_err());
        assert!(fit(&mut m, &[], &[], &mut opt, &FitConfig::default()).is_err());
    }

    #[test]
    fn learns_xor_with_adam() {
        let (xs, ys) = xor_data();
        let mut m = xor_model(5);
        let mut opt = Adam::new(0.05);
        let cfg = FitConfig {
            epochs: 300,
            batch_size: 4,
            seed: 1,
        };
        let hist = fit(&mut m, &xs, &ys, &mut opt, &cfg).unwrap();
        assert!(hist.epoch_loss.last().unwrap() < &0.1);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(m.predict(x).unwrap(), y);
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let (xs, ys) = xor_data();
        let mut m = xor_model(3);
        let mut opt = Adam::new(0.02);
        let cfg = FitConfig {
            epochs: 100,
            batch_size: 2,
            seed: 2,
        };
        let hist = fit(&mut m, &xs, &ys, &mut opt, &cfg).unwrap();
        let first = hist.epoch_loss[0];
        let last = hist.epoch_loss[hist.epoch_loss.len() - 1];
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let (xs, ys) = xor_data();
        let run = || {
            let mut m = xor_model(7);
            let mut opt = Adam::new(0.1);
            let cfg = FitConfig {
                epochs: 10,
                batch_size: 2,
                seed: 3,
            };
            fit(&mut m, &xs, &ys, &mut opt, &cfg).unwrap().epoch_loss
        };
        assert_eq!(run(), run());
    }
}
