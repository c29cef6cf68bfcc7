//! The paper's three classifier families as declarative configurations.
//!
//! Section 2 of the paper sizes the models for wearable deployment:
//!
//! * **MLP** ("NN"): three hidden layers, 260 neurons total, ≈508 k
//!   trainable parameters;
//! * **CNN**: three convolution layers of 32/64/128 filters, ≈649 k
//!   parameters;
//! * **LSTM**: two layers, 320 units total, ≈429 k parameters.
//!
//! [`ModelConfig::paper_mlp`], [`ModelConfig::paper_cnn`] and
//! [`ModelConfig::paper_lstm`] reproduce those budgets (within 1%; the exact
//! input dimensions are not given in the paper, so they are inferred to land
//! on the reported counts — see each constructor). The `scaled_*`
//! constructors build the same architectures at ~1–10% of the size so the
//! test suite and benches train in seconds.
//!
//! Beyond the paper's three families, [`AffectClassifier::hdc`] wraps the
//! integer-only hyperdimensional classifier from [`nn::hdc`] as a fourth
//! [`ClassifierKind`] — the bottom rung of the runtime's degradation
//! ladder, not part of the Fig. 3 model study.

use crate::emotion::Emotion;
use crate::AffectError;
use nn::hdc::{HdcClassifier, HdcConfig};
use nn::layers::{Activation, Conv1d, Dense, Dropout, Flatten, Lstm, MaxPool1d};
use nn::{Precision, Scratch, Sequential, Tensor};

/// The classifier family: the paper's model axis in Fig. 3 (MLP/CNN/LSTM)
/// plus the hyperdimensional-computing rung the runtime degrades to below
/// the MLP (after Menon et al., arXiv:2104.02804).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Fully connected network (the paper's "NN").
    Mlp,
    /// 1-D convolutional network.
    Cnn,
    /// Long short-term memory network.
    Lstm,
    /// Hyperdimensional-computing classifier: binary hypervectors with
    /// XOR bind / majority bundle and Hamming-distance lookup. Integer-only
    /// inference; the cheapest rung of the degradation ladder.
    Hdc,
}

impl ClassifierKind {
    /// All kinds: the paper's presentation order, then the HDC rung.
    pub const ALL: [ClassifierKind; 4] = [
        ClassifierKind::Mlp,
        ClassifierKind::Cnn,
        ClassifierKind::Lstm,
        ClassifierKind::Hdc,
    ];

    /// The three neural families of the paper's Fig. 3 study, in its
    /// presentation order. The figure-reproduction code iterates this set:
    /// HDC is a runtime degradation rung, not part of the paper's model
    /// comparison.
    pub const NEURAL: [ClassifierKind; 3] = [
        ClassifierKind::Mlp,
        ClassifierKind::Cnn,
        ClassifierKind::Lstm,
    ];

    /// The display name (the paper's, for its three families).
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::Mlp => "NN",
            ClassifierKind::Cnn => "CNN",
            ClassifierKind::Lstm => "LSTM",
            ClassifierKind::Hdc => "HDC",
        }
    }

    /// The runtime's degradation ladder, cheapest rung first
    /// (HDC < MLP < CNN < LSTM). Every ordering of the families — fallback
    /// and upgrade, per-family counters, floor and ceiling checks — derives
    /// from this one array.
    pub const LADDER: [ClassifierKind; 4] = [
        ClassifierKind::Hdc,
        ClassifierKind::Mlp,
        ClassifierKind::Cnn,
        ClassifierKind::Lstm,
    ];

    /// This family's position on [`ClassifierKind::LADDER`] (0 = cheapest).
    pub fn rung(self) -> usize {
        Self::LADDER
            .iter()
            .position(|&kind| kind == self)
            .expect("every family is on the ladder")
    }

    /// The next-cheaper family on the accuracy/latency frontier
    /// (LSTM → CNN → MLP → HDC), or `None` when already at the cheapest.
    /// The real-time runtime walks this ladder under sustained deadline
    /// misses.
    pub fn fallback(self) -> Option<ClassifierKind> {
        self.rung().checked_sub(1).map(|rung| Self::LADDER[rung])
    }

    /// The next-richer family (HDC → MLP → CNN → LSTM), or `None` at the
    /// top. Inverse of [`ClassifierKind::fallback`].
    pub fn upgrade(self) -> Option<ClassifierKind> {
        Self::LADDER.get(self.rung() + 1).copied()
    }
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative model description that can be instantiated into a trainable
/// [`Sequential`].
///
/// # Example
///
/// ```
/// use affect_core::classifier::ModelConfig;
/// # fn main() -> Result<(), affect_core::AffectError> {
/// let model = ModelConfig::paper_lstm().build(0)?;
/// // Within 1% of the paper's reported 429 k parameters.
/// let count = model.param_count() as f64;
/// assert!((count - 429_000.0).abs() / 429_000.0 < 0.01, "{count}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelConfig {
    /// Multi-layer perceptron over a flat feature vector.
    Mlp {
        /// Flat input dimensionality.
        input_dim: usize,
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Output classes.
        classes: usize,
        /// Dropout rate between hidden layers (0 disables).
        dropout: f32,
    },
    /// 1-D CNN over a `[1, input_len]` signal/feature strip.
    Cnn {
        /// Input strip length.
        input_len: usize,
        /// Filter counts per conv layer.
        channels: Vec<usize>,
        /// Kernel width (shared by all conv layers).
        kernel: usize,
        /// Max-pool window after each conv layer.
        pool: usize,
        /// Width of the dense layer after flattening.
        dense: usize,
        /// Output classes.
        classes: usize,
    },
    /// Stacked LSTM over a `[seq_len, input_dim]` feature sequence.
    Lstm {
        /// Per-frame feature dimensionality.
        input_dim: usize,
        /// Hidden sizes per layer (all but the last return sequences).
        hidden: Vec<usize>,
        /// Output classes.
        classes: usize,
    },
}

impl ModelConfig {
    /// The paper-scale MLP: hidden layers 180/60/20 (260 neurons) over a
    /// 2760-dim flat feature vector → ≈508 k parameters.
    pub fn paper_mlp() -> Self {
        ModelConfig::Mlp {
            input_dim: 2760,
            hidden: vec![180, 60, 20],
            classes: 8,
            dropout: 0.2,
        }
    }

    /// The paper-scale CNN: 32/64/128 filters (kernel 5, pool 2) over a
    /// 612-sample strip with a 64-wide dense head → ≈649 k parameters.
    pub fn paper_cnn() -> Self {
        ModelConfig::Cnn {
            input_len: 612,
            channels: vec![32, 64, 128],
            kernel: 5,
            pool: 2,
            dense: 64,
            classes: 8,
        }
    }

    /// The paper-scale LSTM: two 160-unit layers (320 units total) over
    /// 187-dim frame features → ≈429 k parameters.
    pub fn paper_lstm() -> Self {
        ModelConfig::Lstm {
            input_dim: 187,
            hidden: vec![160, 160],
            classes: 8,
        }
    }

    /// Scaled-down MLP with the same three-hidden-layer shape.
    pub fn scaled_mlp(input_dim: usize, classes: usize) -> Self {
        ModelConfig::Mlp {
            input_dim,
            hidden: vec![48, 24, 12],
            classes,
            dropout: 0.1,
        }
    }

    /// Scaled-down CNN with the same 3-conv + dense-head shape.
    pub fn scaled_cnn(input_len: usize, classes: usize) -> Self {
        ModelConfig::Cnn {
            input_len,
            channels: vec![8, 16, 32],
            kernel: 3,
            pool: 2,
            dense: 32,
            classes,
        }
    }

    /// Scaled-down two-layer LSTM.
    pub fn scaled_lstm(input_dim: usize, classes: usize) -> Self {
        ModelConfig::Lstm {
            input_dim,
            hidden: vec![32, 32],
            classes,
        }
    }

    /// The scaled configuration of a neural family for inputs of `shape`:
    /// a flat `[n]` vector for the MLP, a `[1, n]` strip for the CNN and a
    /// `[T, F]` sequence for the LSTM.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] for the HDC family, which
    /// has no [`Sequential`] model, or a shape the family does not read.
    pub fn scaled_for(
        kind: ClassifierKind,
        shape: &[usize],
        classes: usize,
    ) -> Result<Self, AffectError> {
        match (kind, shape) {
            (ClassifierKind::Mlp, &[input_dim]) => Ok(Self::scaled_mlp(input_dim, classes)),
            (ClassifierKind::Cnn, &[1, input_len]) => Ok(Self::scaled_cnn(input_len, classes)),
            (ClassifierKind::Lstm, &[_, input_dim]) => Ok(Self::scaled_lstm(input_dim, classes)),
            (ClassifierKind::Hdc, _) => Err(AffectError::InvalidParameter {
                name: "kind",
                reason: "HDC has no Sequential model",
            }),
            _ => Err(AffectError::InvalidParameter {
                name: "shape",
                reason: "not the input shape of this family",
            }),
        }
    }

    /// Which family this configuration belongs to.
    pub fn kind(&self) -> ClassifierKind {
        match self {
            ModelConfig::Mlp { .. } => ClassifierKind::Mlp,
            ModelConfig::Cnn { .. } => ClassifierKind::Cnn,
            ModelConfig::Lstm { .. } => ClassifierKind::Lstm,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match self {
            ModelConfig::Mlp { classes, .. }
            | ModelConfig::Cnn { classes, .. }
            | ModelConfig::Lstm { classes, .. } => *classes,
        }
    }

    /// Instantiates the configuration into a trainable model, with all layer
    /// initializations derived deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] for degenerate
    /// configurations (no hidden layers, zero classes, or a CNN whose input
    /// is too short for its conv/pool stack).
    pub fn build(&self, seed: u64) -> Result<Sequential, AffectError> {
        if self.classes() == 0 {
            return Err(AffectError::InvalidParameter {
                name: "classes",
                reason: "must be non-zero",
            });
        }
        let mut model = Sequential::new();
        match self {
            ModelConfig::Mlp {
                input_dim,
                hidden,
                classes,
                dropout,
            } => {
                if hidden.is_empty() {
                    return Err(AffectError::InvalidParameter {
                        name: "hidden",
                        reason: "mlp needs at least one hidden layer",
                    });
                }
                let mut prev = *input_dim;
                for (i, &h) in hidden.iter().enumerate() {
                    model.push(Dense::new(prev, h, seed.wrapping_add(i as u64 * 7 + 1))?);
                    model.push(Activation::relu());
                    if *dropout > 0.0 {
                        model.push(Dropout::new(*dropout, seed.wrapping_add(i as u64 * 7 + 2))?);
                    }
                    prev = h;
                }
                model.push(Dense::new(prev, *classes, seed.wrapping_add(99))?);
            }
            ModelConfig::Cnn {
                input_len,
                channels,
                kernel,
                pool,
                dense,
                classes,
            } => {
                if channels.is_empty() {
                    return Err(AffectError::InvalidParameter {
                        name: "channels",
                        reason: "cnn needs at least one conv layer",
                    });
                }
                let mut in_ch = 1;
                let mut t = *input_len;
                for (i, &out_ch) in channels.iter().enumerate() {
                    if t < *kernel || (t - (kernel - 1)) < *pool {
                        return Err(AffectError::InvalidParameter {
                            name: "input_len",
                            reason: "too short for the conv/pool stack",
                        });
                    }
                    model.push(Conv1d::new(
                        in_ch,
                        out_ch,
                        *kernel,
                        seed.wrapping_add(i as u64 * 11 + 3),
                    )?);
                    model.push(Activation::relu());
                    model.push(MaxPool1d::new(*pool)?);
                    t -= kernel - 1;
                    t /= pool;
                    in_ch = out_ch;
                }
                model.push(Flatten::new());
                model.push(Dense::new(in_ch * t, *dense, seed.wrapping_add(77))?);
                model.push(Activation::relu());
                model.push(Dense::new(*dense, *classes, seed.wrapping_add(88))?);
            }
            ModelConfig::Lstm {
                input_dim,
                hidden,
                classes,
            } => {
                if hidden.is_empty() {
                    return Err(AffectError::InvalidParameter {
                        name: "hidden",
                        reason: "lstm needs at least one layer",
                    });
                }
                let mut prev = *input_dim;
                for (i, &h) in hidden.iter().enumerate() {
                    let return_sequences = i + 1 < hidden.len();
                    model.push(Lstm::new(
                        prev,
                        h,
                        return_sequences,
                        seed.wrapping_add(i as u64 * 13 + 5),
                    )?);
                    prev = h;
                }
                model.push(Dense::new(prev, *classes, seed.wrapping_add(66))?);
            }
        }
        Ok(model)
    }
}

/// A trained affect classifier: a model plus its label set and family tag.
///
/// # Example
///
/// ```
/// use affect_core::classifier::{AffectClassifier, ModelConfig};
/// # fn main() -> Result<(), affect_core::AffectError> {
/// let cfg = ModelConfig::scaled_mlp(10, 4);
/// let mut clf = AffectClassifier::from_config(
///     &cfg,
///     vec!["neutral".into(), "happy".into(), "sad".into(), "angry".into()],
///     42,
/// )?;
/// let features = nn::Tensor::zeros(&[10])?;
/// let decision = clf.classify(&features)?;
/// assert!(decision.class < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AffectClassifier {
    backend: Backend,
    kind: ClassifierKind,
    labels: Vec<String>,
}

/// What actually answers a classify call: a neural [`Sequential`] for the
/// MLP/CNN/LSTM families, or the integer-only [`HdcClassifier`] for the
/// HDC rung.
#[derive(Debug)]
enum Backend {
    Net(Sequential),
    Hdc(HdcClassifier),
}

/// A classification decision: the winning class and its confidence (softmax
/// probability for the neural families, normalized Hamming similarity for
/// HDC).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decision {
    /// Winning class index.
    pub class: usize,
    /// Probability of the winning class.
    pub confidence: f32,
    /// Full probability vector.
    pub probabilities: Vec<f32>,
}

impl Decision {
    /// Interprets the class index as a canonical [`Emotion`] when the label
    /// set is the 8-class RAVDESS-style set; `None` otherwise.
    pub fn emotion(&self) -> Option<Emotion> {
        Emotion::from_index(self.class)
    }
}

impl AffectClassifier {
    /// Builds an untrained classifier from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] when `labels` does not have
    /// exactly `config.classes()` entries, and propagates build errors.
    pub fn from_config(
        config: &ModelConfig,
        labels: Vec<String>,
        seed: u64,
    ) -> Result<Self, AffectError> {
        if labels.len() != config.classes() {
            return Err(AffectError::InvalidParameter {
                name: "labels",
                reason: "must have exactly `classes` entries",
            });
        }
        Ok(Self {
            backend: Backend::Net(config.build(seed)?),
            kind: config.kind(),
            labels,
        })
    }

    /// Builds an untrained HDC classifier over a flat `input_dim`-feature
    /// vector, with its channel/level codebooks (and placeholder class
    /// prototypes) derived deterministically from `seed`. Train it via
    /// [`AffectClassifier::hdc_mut`] and [`HdcClassifier::fit`].
    ///
    /// # Errors
    ///
    /// Returns [`AffectError::InvalidParameter`] when `labels` is empty and
    /// propagates [`HdcConfig`] validation errors.
    pub fn hdc(input_dim: usize, labels: Vec<String>, seed: u64) -> Result<Self, AffectError> {
        let config = HdcConfig::new(input_dim, labels.len(), seed)?;
        Ok(Self {
            backend: Backend::Hdc(HdcClassifier::new(config)?),
            kind: ClassifierKind::Hdc,
            labels,
        })
    }

    /// The classifier family.
    pub fn kind(&self) -> ClassifierKind {
        self.kind
    }

    /// The classifier family (alias of [`AffectClassifier::kind`]): the
    /// cheap accessor the real-time runtime consults when deciding
    /// degradation fallbacks, named to match the paper's "model family"
    /// terminology.
    pub fn family(&self) -> ClassifierKind {
        self.kind
    }

    /// The class label names, indexed by class id.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The underlying neural model (e.g. to train it with
    /// [`crate::training::train`]); `None` for the HDC family.
    pub fn model_mut(&mut self) -> Option<&mut Sequential> {
        match &mut self.backend {
            Backend::Net(model) => Some(model),
            Backend::Hdc(_) => None,
        }
    }

    /// The underlying neural model, read-only; `None` for the HDC family.
    pub fn model(&self) -> Option<&Sequential> {
        match &self.backend {
            Backend::Net(model) => Some(model),
            Backend::Hdc(_) => None,
        }
    }

    /// The underlying HDC classifier (e.g. to train it with
    /// [`HdcClassifier::fit`]); `None` for the neural families.
    pub fn hdc_mut(&mut self) -> Option<&mut HdcClassifier> {
        match &mut self.backend {
            Backend::Net(_) => None,
            Backend::Hdc(clf) => Some(clf),
        }
    }

    /// Switches the inference precision of the allocation-free classify
    /// path (see [`Sequential::set_precision`]). The HDC family is
    /// integer-only by construction, so the call is a no-op there.
    ///
    /// # Errors
    ///
    /// Propagates layer quantization errors.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), AffectError> {
        match &mut self.backend {
            Backend::Net(model) => model.set_precision(precision)?,
            Backend::Hdc(_) => {}
        }
        Ok(())
    }

    /// Current inference precision: the neural model's setting, or
    /// [`Precision::Int8`] for the always-integer HDC family.
    pub fn precision(&self) -> Precision {
        match &self.backend {
            Backend::Net(model) => model.precision(),
            Backend::Hdc(_) => Precision::Int8,
        }
    }

    /// Classifies one feature tensor.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model's forward pass.
    pub fn classify(&mut self, features: &Tensor) -> Result<Decision, AffectError> {
        let mut decision = Decision::default();
        match &mut self.backend {
            Backend::Net(model) => {
                let probabilities = model.predict_proba(features)?;
                let (class, &confidence) = probabilities
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("probability vector is non-empty");
                decision.class = class;
                decision.confidence = confidence;
                decision.probabilities = probabilities;
            }
            Backend::Hdc(clf) => {
                decision.class = clf.classify_into(features.data(), &mut decision.probabilities)?;
                decision.confidence = decision.probabilities[decision.class];
            }
        }
        Ok(decision)
    }

    /// The label name for a decision.
    pub fn label_of(&self, decision: &Decision) -> &str {
        &self.labels[decision.class]
    }

    /// [`AffectClassifier::classify`] without steady-state allocations: the
    /// forward pass draws every intermediate from `scratch` and the result is
    /// written into an existing `decision` (whose probability buffer is
    /// reused). Produces bit-for-bit the same decision as `classify`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model's forward pass.
    pub fn classify_with(
        &mut self,
        features: &[f32],
        shape: &[usize],
        scratch: &mut Scratch,
        decision: &mut Decision,
    ) -> Result<(), AffectError> {
        match &mut self.backend {
            Backend::Net(model) => {
                let probabilities = model.predict_proba_with(features, shape, scratch)?;
                let (class, &confidence) = probabilities
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("probability vector is non-empty");
                decision.class = class;
                decision.confidence = confidence;
                decision.probabilities.clear();
                decision.probabilities.extend_from_slice(probabilities);
            }
            Backend::Hdc(clf) => {
                // The HDC encoder keeps its own fixed hypervector buffers
                // and the decision's probability vector is reused, so this
                // arm is allocation-free without touching `scratch`.
                let _ = shape;
                decision.class = clf.classify_into(features, &mut decision.probabilities)?;
                decision.confidence = decision.probabilities[decision.class];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_param_counts_match_reported() {
        let checks = [
            (ModelConfig::paper_mlp(), 508_000.0, 0.01),
            (ModelConfig::paper_cnn(), 649_000.0, 0.01),
            (ModelConfig::paper_lstm(), 429_000.0, 0.01),
        ];
        for (cfg, target, tol) in checks {
            let count = cfg.build(0).unwrap().param_count() as f64;
            assert!(
                (count - target).abs() / target < tol,
                "{:?}: {count} vs {target}",
                cfg.kind()
            );
        }
    }

    #[test]
    fn scaled_for_reads_each_family_shape() {
        let scaled = |kind, shape: &[usize]| ModelConfig::scaled_for(kind, shape, 4);
        let mlp = ModelConfig::scaled_mlp(57, 4);
        assert_eq!(scaled(ClassifierKind::Mlp, &[57]), Ok(mlp));
        let cnn = ModelConfig::scaled_cnn(96, 4);
        assert_eq!(scaled(ClassifierKind::Cnn, &[1, 96]), Ok(cnn));
        let lstm = ModelConfig::scaled_lstm(19, 4);
        assert_eq!(scaled(ClassifierKind::Lstm, &[9, 19]), Ok(lstm));
        assert!(scaled(ClassifierKind::Hdc, &[57]).is_err());
        assert!(scaled(ClassifierKind::Mlp, &[9, 19]).is_err());
        assert!(scaled(ClassifierKind::Cnn, &[2, 96]).is_err());
    }

    #[test]
    fn paper_models_build() {
        // Weight tensors: W + b per dense or conv layer, Wx + Wh + b per
        // LSTM layer. Fig. 3(c) charges one int8 scale per tensor.
        for (cfg, tensors) in [
            (ModelConfig::paper_mlp(), 8),
            (ModelConfig::paper_cnn(), 10),
            (ModelConfig::paper_lstm(), 8),
        ] {
            let model = cfg.build(0).unwrap();
            assert_eq!(model.params().len(), tensors, "{:?}", cfg.kind());
        }
    }

    #[test]
    fn classifier_and_pipeline_are_send() {
        // Every `Layer` is `Send`, so a built model can move to another
        // thread; each classify worker still needs its own copy because
        // inference takes `&mut self`.
        fn assert_send<T: Send>() {}
        assert_send::<AffectClassifier>();
        assert_send::<crate::pipeline::FeaturePipeline>();
    }

    #[test]
    fn built_models_produce_class_logits() {
        let mut mlp = ModelConfig::scaled_mlp(10, 4).build(3).unwrap();
        assert_eq!(
            mlp.forward(&Tensor::zeros(&[10]).unwrap(), false)
                .unwrap()
                .shape(),
            &[4]
        );
        let mut cnn = ModelConfig::scaled_cnn(64, 5).build(3).unwrap();
        assert_eq!(
            cnn.forward(&Tensor::zeros(&[1, 64]).unwrap(), false)
                .unwrap()
                .shape(),
            &[5]
        );
        let mut lstm = ModelConfig::scaled_lstm(6, 3).build(3).unwrap();
        assert_eq!(
            lstm.forward(&Tensor::zeros(&[9, 6]).unwrap(), false)
                .unwrap()
                .shape(),
            &[3]
        );
    }

    #[test]
    fn degenerate_configs_rejected() {
        let bad = ModelConfig::Mlp {
            input_dim: 4,
            hidden: vec![],
            classes: 2,
            dropout: 0.0,
        };
        assert!(bad.build(0).is_err());
        let bad = ModelConfig::Cnn {
            input_len: 4,
            channels: vec![8, 8, 8],
            kernel: 3,
            pool: 2,
            dense: 8,
            classes: 2,
        };
        assert!(bad.build(0).is_err());
    }

    #[test]
    fn classifier_validates_label_count() {
        let cfg = ModelConfig::scaled_mlp(4, 3);
        assert!(AffectClassifier::from_config(&cfg, vec!["a".into()], 0).is_err());
    }

    #[test]
    fn decision_confidence_is_max_probability() {
        let cfg = ModelConfig::scaled_mlp(4, 3);
        let mut clf =
            AffectClassifier::from_config(&cfg, vec!["a".into(), "b".into(), "c".into()], 7)
                .unwrap();
        let d = clf.classify(&Tensor::zeros(&[4]).unwrap()).unwrap();
        let max = d.probabilities.iter().cloned().fold(0.0f32, f32::max);
        assert_eq!(d.confidence, max);
        assert_eq!(d.probabilities.len(), 3);
        assert!(!clf.label_of(&d).is_empty());
    }

    #[test]
    fn decision_maps_to_emotion_for_8_class() {
        let d = Decision {
            class: 2,
            confidence: 1.0,
            probabilities: vec![0.0; 8],
        };
        assert_eq!(d.emotion(), Some(Emotion::Happy));
        let d9 = Decision {
            class: 9,
            confidence: 1.0,
            probabilities: vec![],
        };
        assert_eq!(d9.emotion(), None);
    }

    #[test]
    fn kinds_have_paper_names() {
        assert_eq!(ClassifierKind::Mlp.to_string(), "NN");
        assert_eq!(ClassifierKind::Cnn.to_string(), "CNN");
        assert_eq!(ClassifierKind::Lstm.to_string(), "LSTM");
        assert_eq!(ClassifierKind::Hdc.to_string(), "HDC");
    }

    #[test]
    fn fallback_ladder_descends_to_hdc() {
        assert_eq!(ClassifierKind::Lstm.fallback(), Some(ClassifierKind::Cnn));
        assert_eq!(ClassifierKind::Cnn.fallback(), Some(ClassifierKind::Mlp));
        assert_eq!(ClassifierKind::Mlp.fallback(), Some(ClassifierKind::Hdc));
        assert_eq!(ClassifierKind::Hdc.fallback(), None);
    }

    #[test]
    fn neural_kinds_exclude_hdc() {
        assert!(!ClassifierKind::NEURAL.contains(&ClassifierKind::Hdc));
        for kind in ClassifierKind::NEURAL {
            assert!(ClassifierKind::ALL.contains(&kind));
        }
    }

    #[test]
    fn upgrade_is_inverse_of_fallback() {
        for kind in ClassifierKind::ALL {
            assert_eq!(ClassifierKind::LADDER[kind.rung()], kind);
            if let Some(down) = kind.fallback() {
                assert_eq!(down.upgrade(), Some(kind));
            }
            if let Some(up) = kind.upgrade() {
                assert_eq!(up.fallback(), Some(kind));
            }
        }
        for pair in ClassifierKind::LADDER.windows(2) {
            assert!(pair[0].rung() < pair[1].rung(), "{pair:?}");
        }
    }

    #[test]
    fn classify_with_matches_classify_bitwise() {
        let cfg = ModelConfig::scaled_cnn(64, 5);
        let labels: Vec<String> = (0..5).map(|i| format!("c{i}")).collect();
        let mut clf = AffectClassifier::from_config(&cfg, labels, 11).unwrap();
        let features: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let tensor = Tensor::from_vec(features.clone(), &[1, 64]).unwrap();
        let reference = clf.classify(&tensor).unwrap();
        let mut scratch = Scratch::new();
        let mut decision = Decision::default();
        for _ in 0..3 {
            clf.classify_with(&features, &[1, 64], &mut scratch, &mut decision)
                .unwrap();
            assert_eq!(reference, decision);
        }
    }

    #[test]
    fn family_matches_kind() {
        let cfg = ModelConfig::scaled_mlp(4, 2);
        let clf = AffectClassifier::from_config(&cfg, vec!["a".into(), "b".into()], 0).unwrap();
        assert_eq!(clf.family(), clf.kind());
        assert_eq!(clf.family(), ClassifierKind::Mlp);
    }

    #[test]
    fn hdc_classifier_classifies_flat_features() {
        let labels: Vec<String> = (0..4).map(|i| format!("c{i}")).collect();
        let mut clf = AffectClassifier::hdc(10, labels, 5).unwrap();
        assert_eq!(clf.kind(), ClassifierKind::Hdc);
        assert!(clf.model().is_none());
        assert!(clf.model_mut().is_none());
        assert!(clf.hdc_mut().is_some());
        let features: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).cos()).collect();
        let tensor = Tensor::from_vec(features.clone(), &[10]).unwrap();
        let reference = clf.classify(&tensor).unwrap();
        assert!(reference.class < 4);
        assert_eq!(reference.probabilities.len(), 4);
        assert!((reference.probabilities.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // The scratch path agrees bitwise and reuses the decision buffer.
        let mut scratch = Scratch::new();
        let mut decision = Decision::default();
        for _ in 0..3 {
            clf.classify_with(&features, &[10], &mut scratch, &mut decision)
                .unwrap();
            assert_eq!(reference, decision);
        }
    }

    #[test]
    fn hdc_precision_is_always_int8() {
        let labels = vec!["a".into(), "b".into()];
        let mut clf = AffectClassifier::hdc(6, labels, 1).unwrap();
        assert_eq!(clf.precision(), Precision::Int8);
        clf.set_precision(Precision::F32).unwrap();
        assert_eq!(clf.precision(), Precision::Int8);
    }

    #[test]
    fn net_precision_switches_classify_with_path() {
        let cfg = ModelConfig::scaled_mlp(8, 3);
        let labels: Vec<String> = (0..3).map(|i| format!("c{i}")).collect();
        let mut clf = AffectClassifier::from_config(&cfg, labels, 3).unwrap();
        assert_eq!(clf.precision(), Precision::F32);
        let features: Vec<f32> = (0..8).map(|i| (i as f32 * 0.41).sin()).collect();
        let mut scratch = Scratch::new();
        let mut f32_d = Decision::default();
        clf.classify_with(&features, &[8], &mut scratch, &mut f32_d)
            .unwrap();
        clf.set_precision(Precision::Int8).unwrap();
        assert_eq!(clf.precision(), Precision::Int8);
        let mut i8_d = Decision::default();
        clf.classify_with(&features, &[8], &mut scratch, &mut i8_d)
            .unwrap();
        for (a, b) in f32_d.probabilities.iter().zip(&i8_d.probabilities) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }
        clf.set_precision(Precision::F32).unwrap();
        let mut back = Decision::default();
        clf.classify_with(&features, &[8], &mut scratch, &mut back)
            .unwrap();
        assert_eq!(back, f32_d);
    }
}
