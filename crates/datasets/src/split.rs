//! Train/test splitting by actor.

use crate::corpus::Corpus;
use crate::features::{extract_dataset, FeatureLayout};
use crate::DatasetError;
use affect_core::pipeline::FeaturePipeline;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Index-based train/test split of a corpus.
///
/// # Example
///
/// ```
/// use datasets::{Corpus, CorpusSpec, TrainTestSplit};
/// # fn main() -> Result<(), datasets::DatasetError> {
/// let spec = CorpusSpec::emovo_like().with_actors(4).with_utterances(1);
/// let corpus = Corpus::generate(&spec, 1)?;
/// let split = TrainTestSplit::by_actor(&corpus, 0.25, 7)?;
/// assert_eq!(split.train.len() + split.test.len(), corpus.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainTestSplit {
    /// Utterance indices assigned to training.
    pub train: Vec<usize>,
    /// Utterance indices assigned to testing.
    pub test: Vec<usize>,
}

impl TrainTestSplit {
    /// Speaker-independent split: whole actors are held out (the standard
    /// protocol for speech-emotion recognition).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidSplit`] when the fraction is outside
    /// `(0, 1)` or either side would hold no actors.
    pub fn by_actor(corpus: &Corpus, test_fraction: f32, seed: u64) -> Result<Self, DatasetError> {
        if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
            return Err(DatasetError::InvalidSplit("fraction must be in (0, 1)"));
        }
        let actors = corpus.spec().actors;
        let mut actor_ids: Vec<usize> = (0..actors).collect();
        actor_ids.shuffle(&mut StdRng::seed_from_u64(seed));
        let n_test = ((actors as f32) * test_fraction).round().max(1.0) as usize;
        if n_test >= actors {
            return Err(DatasetError::InvalidSplit("a side would hold no actors"));
        }
        let test_actors: Vec<usize> = actor_ids[..n_test].to_vec();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, utt) in corpus.utterances().iter().enumerate() {
            if test_actors.contains(&utt.actor) {
                test.push(i);
            } else {
                train.push(i);
            }
        }
        Ok(Self { train, test })
    }

    /// Gathers the elements of `items` selected by an index list.
    pub fn gather<T: Clone>(indices: &[usize], items: &[T]) -> Vec<T> {
        indices.iter().map(|&i| items[i].clone()).collect()
    }
}

/// A corpus's features on both sides of a [`TrainTestSplit::by_actor`]
/// split.
#[derive(Debug, Clone)]
pub struct ActorSplit {
    /// Training inputs.
    pub train_x: Vec<Tensor>,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Held-out inputs.
    pub test_x: Vec<Tensor>,
    /// Held-out labels.
    pub test_y: Vec<usize>,
}

impl ActorSplit {
    /// Extracts every utterance of `corpus` in `layout` and holds out a
    /// quarter of its actors, chosen by `seed`.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and split errors.
    pub fn extract(
        corpus: &Corpus,
        pipeline: &mut FeaturePipeline,
        layout: FeatureLayout,
        seed: u64,
    ) -> Result<Self, DatasetError> {
        let (xs, ys) = extract_dataset(corpus, pipeline, layout)?;
        let split = TrainTestSplit::by_actor(corpus, 0.25, seed)?;
        Ok(Self {
            train_x: TrainTestSplit::gather(&split.train, &xs),
            train_y: TrainTestSplit::gather(&split.train, &ys),
            test_x: TrainTestSplit::gather(&split.test, &xs),
            test_y: TrainTestSplit::gather(&split.test, &ys),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CorpusSpec;

    fn corpus() -> Corpus {
        let spec = CorpusSpec::emovo_like().with_actors(4).with_utterances(1);
        Corpus::generate(&spec, 3).unwrap()
    }

    #[test]
    fn by_actor_keeps_speakers_disjoint() {
        let c = corpus();
        let s = TrainTestSplit::by_actor(&c, 0.25, 2).unwrap();
        let train_actors: std::collections::BTreeSet<usize> =
            s.train.iter().map(|&i| c.utterances()[i].actor).collect();
        let test_actors: std::collections::BTreeSet<usize> =
            s.test.iter().map(|&i| c.utterances()[i].actor).collect();
        assert!(train_actors.is_disjoint(&test_actors));
        assert!(!test_actors.is_empty());
    }

    #[test]
    fn invalid_fractions_rejected() {
        let c = corpus();
        assert!(TrainTestSplit::by_actor(&c, 0.0, 1).is_err());
        assert!(TrainTestSplit::by_actor(&c, 1.0, 1).is_err());
        assert!(TrainTestSplit::by_actor(&c, 0.99, 1).is_err());
    }

    #[test]
    fn splits_deterministic_per_seed() {
        let c = corpus();
        assert_eq!(
            TrainTestSplit::by_actor(&c, 0.25, 5).unwrap(),
            TrainTestSplit::by_actor(&c, 0.25, 5).unwrap()
        );
    }

    #[test]
    fn gather_selects_in_order() {
        let items = vec!["a", "b", "c", "d"];
        assert_eq!(TrainTestSplit::gather(&[2, 0], &items), vec!["c", "a"]);
    }
}
