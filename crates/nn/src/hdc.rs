//! Hyperdimensional-computing (HDC) affect classifier — the integer-only
//! bottom rung of the degradation ladder.
//!
//! Follows Menon et al., "Efficient emotion recognition using
//! hyperdimensional computing with combinatorial channel encoding"
//! (arXiv 2104.02804): every feature channel gets a random binary *ID*
//! hypervector, every quantization level a *level* hypervector, and a
//! feature vector encodes as the majority bundle of the per-channel
//! bind (XOR) of its ID with the level its value falls in. Classification
//! is a Hamming-distance lookup against one prototype hypervector per
//! class. The whole inference path is XOR, bit-counting and compares over
//! `u64` words — no multiplies, no floats except the final confidence
//! normalization — which is what makes it the cheapest rung the runtime
//! can degrade to (see `docs/DEGRADATION.md`).
//!
//! Determinism: every hypervector derives from the config seed through
//! SplitMix64, bundling is a commutative bit-count, and ties break to 0,
//! so two classifiers built from the same config are bit-identical and
//! training is invariant to sample order (property-tested in
//! `tests/proptests.rs`).
//!
//! # Example
//!
//! ```
//! use nn::hdc::{HdcClassifier, HdcConfig};
//! use nn::Tensor;
//! # fn main() -> Result<(), nn::NnError> {
//! let config = HdcConfig::new(4, 3, 11)?;
//! let xs = vec![
//!     Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.1], &[4])?,
//!     Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.2], &[4])?,
//!     Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.9], &[4])?,
//! ];
//! let ys = vec![0, 1, 2];
//! let mut clf = HdcClassifier::new(config)?;
//! clf.fit(&xs, &ys)?;
//! assert_eq!(clf.predict(xs[0].data())?, 0);
//! # Ok(())
//! # }
//! ```

use crate::{NnError, Tensor};

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Shape of an HDC classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdcConfig {
    /// Hypervector dimensionality in bits; must be a positive multiple
    /// of 64.
    pub dim_bits: usize,
    /// Number of quantization levels per channel (thermometer-coded so
    /// nearby values map to nearby hypervectors); at least 2.
    pub levels: usize,
    /// Feature channels per input vector.
    pub input_dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Seed every hypervector (IDs, levels, untrained prototypes) derives
    /// from.
    pub seed: u64,
}

impl HdcConfig {
    /// The profile the affect runtime uses: 1024-bit hypervectors with 16
    /// levels — small enough that the whole codebook fits in L2, accurate
    /// enough to beat chance by a wide margin on the synthetic corpora
    /// (see `results/BENCH_accuracy_energy.json`).
    pub fn new(input_dim: usize, classes: usize, seed: u64) -> Result<Self, NnError> {
        let config = Self {
            dim_bits: 1024,
            levels: 16,
            input_dim,
            classes,
            seed,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the dimensional constraints.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] when `dim_bits` is not a
    /// positive multiple of 64, `levels < 2`, `input_dim == 0`,
    /// `input_dim >= 2^16` (the majority counters are 16 planes deep), or
    /// `classes == 0`.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.dim_bits == 0 || !self.dim_bits.is_multiple_of(WORD_BITS) {
            return Err(NnError::InvalidParameter {
                name: "dim_bits",
                reason: "hypervector width must be a positive multiple of 64",
            });
        }
        if self.levels < 2 {
            return Err(NnError::InvalidParameter {
                name: "levels",
                reason: "thermometer encoding needs at least 2 levels",
            });
        }
        if self.input_dim == 0 {
            return Err(NnError::InvalidParameter {
                name: "input_dim",
                reason: "need at least one feature channel",
            });
        }
        if self.input_dim >= (1 << 16) {
            return Err(NnError::InvalidParameter {
                name: "input_dim",
                reason: "majority counters support at most 2^16 - 1 channels",
            });
        }
        if self.classes == 0 {
            return Err(NnError::InvalidParameter {
                name: "classes",
                reason: "need at least one class",
            });
        }
        Ok(())
    }

    /// Hypervector width in `u64` words.
    pub fn words(&self) -> usize {
        self.dim_bits / WORD_BITS
    }
}

/// SplitMix64 step: the deterministic stream every hypervector comes from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` pseudo-random words from a SplitMix64 stream.
fn random_words(state: &mut u64, n: usize) -> Vec<u64> {
    (0..n).map(|_| splitmix64(state)).collect()
}

/// Flips `bit` in a word-packed hypervector.
fn flip_bit(words: &mut [u64], bit: usize) {
    words[bit / WORD_BITS] ^= 1u64 << (bit % WORD_BITS);
}

/// Combinatorial per-channel encoder plus per-class prototypes.
///
/// All inference state (codebook, prototypes, majority planes, query
/// buffer) is allocated at construction, so [`HdcClassifier::classify_into`]
/// and [`HdcClassifier::predict`] perform zero heap allocations from the
/// first call on.
#[derive(Debug, Clone)]
pub struct HdcClassifier {
    config: HdcConfig,
    words: usize,
    planes_n: usize,
    /// Precomputed bind of channel ID and level vectors,
    /// `[input_dim × levels × words]`: row `(c, l)` is `id[c] XOR level[l]`.
    bound: Vec<u64>,
    /// Per-class prototype hypervectors, `[classes × words]`.
    prototypes: Vec<u64>,
    /// Per-channel quantization range (set by [`HdcClassifier::fit`]).
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// Bit-sliced majority counters, `[planes_n × words]`.
    planes: Vec<u64>,
    /// Encoded query hypervector.
    query: Vec<u64>,
}

impl HdcClassifier {
    /// Builds the codebook and seeds every class prototype pseudo-randomly
    /// (an untrained classifier makes deterministic arbitrary decisions,
    /// like an untrained net with seeded random weights). Call
    /// [`HdcClassifier::fit`] to learn real prototypes.
    ///
    /// # Errors
    ///
    /// Propagates [`HdcConfig::validate`].
    pub fn new(config: HdcConfig) -> Result<Self, NnError> {
        config.validate()?;
        let words = config.words();
        let mut state = config.seed ^ 0x8DC0_DEB0_0C5E_ED01;

        // Channel ID vectors: independent random hypervectors.
        let ids: Vec<Vec<u64>> = (0..config.input_dim)
            .map(|_| random_words(&mut state, words))
            .collect();

        // Level vectors: level 0 random, each next level flips a fresh
        // slice of a seeded bit permutation, so level 0 and level L-1
        // differ in ~half the bits and Hamming distance grows
        // monotonically with level distance (thermometer code).
        let mut perm: Vec<usize> = (0..config.dim_bits).collect();
        for i in (1..perm.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let flips_per_step = (config.dim_bits / 2) / (config.levels - 1);
        let mut levels: Vec<Vec<u64>> = Vec::with_capacity(config.levels);
        levels.push(random_words(&mut state, words));
        for l in 1..config.levels {
            let mut next = levels[l - 1].clone();
            for &bit in &perm[(l - 1) * flips_per_step..l * flips_per_step] {
                flip_bit(&mut next, bit);
            }
            levels.push(next);
        }

        // Precompute every (channel, level) bind so encoding is one row
        // lookup per channel.
        let mut bound = Vec::with_capacity(config.input_dim * config.levels * words);
        for id in &ids {
            for level in &levels {
                bound.extend(id.iter().zip(level).map(|(&a, &b)| a ^ b));
            }
        }

        let mut proto_state = config.seed ^ 0x9D1C_1A55_0F10_0D5E;
        let prototypes = random_words(&mut proto_state, config.classes * words);

        // Planes needed to count up to input_dim channels.
        let planes_n = (usize::BITS - config.input_dim.leading_zeros()) as usize;

        Ok(Self {
            config,
            words,
            planes_n,
            bound,
            prototypes,
            lo: vec![-4.0; config.input_dim],
            hi: vec![4.0; config.input_dim],
            planes: vec![0; planes_n * words],
            query: vec![0; words],
        })
    }

    /// The configuration this classifier was built from.
    pub fn config(&self) -> &HdcConfig {
        &self.config
    }

    /// The level index channel `c` maps value `v` to (clamped to the
    /// channel's learned range).
    fn level_of(&self, c: usize, v: f32) -> usize {
        let (lo, hi) = (self.lo[c], self.hi[c]);
        let t = if hi > lo {
            ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            0.5
        };
        // t ∈ [0, 1] → nearest of `levels` evenly spaced indices.
        (t * (self.config.levels - 1) as f32).round() as usize
    }

    /// Encodes `x` into `out` (exactly `words` words): for each channel,
    /// bind its ID with the level vector of its value (precomputed), then
    /// majority-bundle across channels with bit-sliced carry-save
    /// counters — integer ops only. Ties (even channel counts) resolve
    /// to 0.
    fn encode_words(&mut self, x: &[f32]) -> Result<(), NnError> {
        if x.len() != self.config.input_dim {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}] feature vector", self.config.input_dim),
                actual: vec![x.len()],
            });
        }
        let w = self.words;
        self.planes.fill(0);
        for (c, &v) in x.iter().enumerate() {
            let l = self.level_of(c, v);
            let row = (c * self.config.levels + l) * w;
            for iw in 0..w {
                // Carry-save add of one bit vector into the sliced counters.
                let mut carry = self.bound[row + iw];
                let mut p = 0;
                while carry != 0 && p < self.planes_n {
                    let idx = p * w + iw;
                    let t = self.planes[idx] & carry;
                    self.planes[idx] ^= carry;
                    carry = t;
                    p += 1;
                }
            }
        }
        // Per-bit threshold: majority ⇔ count > input_dim / 2, evaluated
        // MSB-first as a bitwise comparator over the planes.
        let thr = (self.config.input_dim / 2) as u64;
        for iw in 0..w {
            let mut gt = 0u64;
            let mut eq = !0u64;
            for p in (0..self.planes_n).rev() {
                let t = if (thr >> p) & 1 == 1 { !0u64 } else { 0u64 };
                let plane = self.planes[p * w + iw];
                gt |= eq & plane & !t;
                eq &= !(plane ^ t);
            }
            self.query[iw] = gt;
        }
        Ok(())
    }

    /// Encodes `x` into a fresh word-packed hypervector (test/introspection
    /// helper; the hot path keeps the encoding in internal buffers).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x` is not `input_dim` long.
    pub fn encode(&mut self, x: &[f32]) -> Result<Vec<u64>, NnError> {
        self.encode_words(x)?;
        Ok(self.query.clone())
    }

    /// Learns per-channel quantization ranges and per-class prototypes in
    /// one pass: each class prototype is the majority bundle of its
    /// training encodings (ties to 0). Classes absent from `ys` keep their
    /// seeded pseudo-random prototype. Bundling is commutative, so the
    /// result is independent of sample order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for empty or mismatched
    /// inputs, a label out of range, or a sample of the wrong length.
    pub fn fit(&mut self, xs: &[Tensor], ys: &[usize]) -> Result<(), NnError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(NnError::InvalidParameter {
                name: "xs",
                reason: "need equally many non-empty samples and labels",
            });
        }
        if ys.iter().any(|&y| y >= self.config.classes) {
            return Err(NnError::InvalidParameter {
                name: "ys",
                reason: "label out of range",
            });
        }
        // Pass 1: per-channel ranges.
        for c in 0..self.config.input_dim {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for x in xs {
                let v = *x.data().get(c).ok_or(NnError::InvalidParameter {
                    name: "xs",
                    reason: "sample shorter than input_dim",
                })?;
                lo = lo.min(v);
                hi = hi.max(v);
            }
            self.lo[c] = lo;
            self.hi[c] = hi;
        }
        // Pass 2: bundle encodings per class with plain integer counters.
        let w = self.words;
        let mut counts = vec![0u32; self.config.classes * self.config.dim_bits];
        let mut members = vec![0u32; self.config.classes];
        for (x, &y) in xs.iter().zip(ys) {
            self.encode_words(x.data())?;
            members[y] += 1;
            let base = y * self.config.dim_bits;
            for iw in 0..w {
                let mut word = self.query[iw];
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    counts[base + iw * WORD_BITS + bit] += 1;
                    word &= word - 1;
                }
            }
        }
        for (class, &n) in members.iter().enumerate() {
            if n == 0 {
                continue;
            }
            // Majority with ties to 0: a bit sets when strictly more than
            // half the class members set it.
            let thr = n / 2;
            let base = class * self.config.dim_bits;
            for iw in 0..w {
                let mut word = 0u64;
                for bit in 0..WORD_BITS {
                    if counts[base + iw * WORD_BITS + bit] > thr {
                        word |= 1u64 << bit;
                    }
                }
                self.prototypes[class * w + iw] = word;
            }
        }
        Ok(())
    }

    /// Classifies `x`, writing per-class pseudo-probabilities into `probs`
    /// (resized to `classes`) and returning the winning class. The winner
    /// is the prototype at minimum Hamming distance (first minimum wins);
    /// `probs[i]` is the normalized similarity `(dim_bits − dᵢ) / Σⱼ
    /// (dim_bits − dⱼ)` — a proper distribution, deterministic, and
    /// allocation-free once `probs` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x` is not `input_dim` long.
    pub fn classify_into(&mut self, x: &[f32], probs: &mut Vec<f32>) -> Result<usize, NnError> {
        self.encode_words(x)?;
        let w = self.words;
        probs.clear();
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        let mut sum = 0.0f32;
        for class in 0..self.config.classes {
            let proto = &self.prototypes[class * w..(class + 1) * w];
            let d: u32 = proto
                .iter()
                .zip(&self.query)
                .map(|(&p, &q)| (p ^ q).count_ones())
                .sum();
            if d < best_d {
                best_d = d;
                best = class;
            }
            let sim = (self.config.dim_bits as u32 - d) as f32;
            sum += sim;
            probs.push(sim);
        }
        if sum > 0.0 {
            for p in probs.iter_mut() {
                *p /= sum;
            }
        } else {
            let uniform = 1.0 / self.config.classes as f32;
            probs.iter_mut().for_each(|p| *p = uniform);
        }
        Ok(best)
    }

    /// The winning class alone (allocation-free; reuses an internal
    /// distance scan without touching a probability buffer).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x` is not `input_dim` long.
    pub fn predict(&mut self, x: &[f32]) -> Result<usize, NnError> {
        self.encode_words(x)?;
        let w = self.words;
        let mut best = 0usize;
        let mut best_d = u32::MAX;
        for class in 0..self.config.classes {
            let proto = &self.prototypes[class * w..(class + 1) * w];
            let d: u32 = proto
                .iter()
                .zip(&self.query)
                .map(|(&p, &q)| (p ^ q).count_ones())
                .sum();
            if d < best_d {
                best_d = d;
                best = class;
            }
        }
        Ok(best)
    }

    /// Fraction of held-out samples classified correctly.
    ///
    /// # Errors
    ///
    /// Propagates per-sample shape errors.
    pub fn accuracy(&mut self, xs: &[Tensor], ys: &[usize]) -> Result<f32, NnError> {
        if xs.is_empty() {
            return Ok(0.0);
        }
        let mut hits = 0usize;
        for (x, &y) in xs.iter().zip(ys) {
            if self.predict(x.data())? == y {
                hits += 1;
            }
        }
        Ok(hits as f32 / xs.len() as f32)
    }

    /// Word-packed prototype of `class` (test/introspection helper).
    ///
    /// # Panics
    ///
    /// Panics when `class >= classes`.
    pub fn prototype(&self, class: usize) -> &[u64] {
        assert!(class < self.config.classes, "class out of range");
        &self.prototypes[class * self.words..(class + 1) * self.words]
    }

    /// Total model storage in bytes: the bound codebook plus prototypes
    /// (the analogue of a net's weight footprint).
    pub fn storage_bytes(&self) -> usize {
        (self.bound.len() + self.prototypes.len()) * std::mem::size_of::<u64>()
    }

    /// Estimated integer word operations per classification, the cost
    /// model `results/BENCH_accuracy_energy.json` reports: ~4 ops per
    /// channel-word for the bind lookup + carry-save bundle, 2 per
    /// class-word for the XOR + popcount lookup, plus the per-word
    /// threshold compare. Deterministic in the config, so CI can gate on
    /// it without timing noise.
    pub fn estimated_word_ops(&self) -> u64 {
        let c = self.config.input_dim as u64;
        let w = self.words as u64;
        let k = self.config.classes as u64;
        c * w * 4 + k * w * 2 + w * self.planes_n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize, class: usize, dim: usize) -> Tensor {
        let data: Vec<f32> = (0..dim)
            .map(|c| {
                let base = if c % 3 == class % 3 { 1.0 } else { -1.0 };
                base + ((i * 31 + c * 7) % 13) as f32 * 0.01
            })
            .collect();
        Tensor::from_vec(data, &[dim]).unwrap()
    }

    fn toy_dataset(dim: usize, classes: usize, per_class: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for class in 0..classes {
            for i in 0..per_class {
                xs.push(sample(i, class, dim));
                ys.push(class);
            }
        }
        (xs, ys)
    }

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(HdcConfig::new(0, 3, 1).is_err());
        assert!(HdcConfig::new(4, 0, 1).is_err());
        let mut c = HdcConfig::new(4, 3, 1).unwrap();
        c.dim_bits = 100;
        assert!(c.validate().is_err());
        c.dim_bits = 1024;
        c.levels = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn same_seed_same_model_bitwise() {
        let config = HdcConfig::new(8, 3, 42).unwrap();
        let mut a = HdcClassifier::new(config).unwrap();
        let mut b = HdcClassifier::new(config).unwrap();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
        assert_eq!(a.encode(&x).unwrap(), b.encode(&x).unwrap());
        for class in 0..3 {
            assert_eq!(a.prototype(class), b.prototype(class));
        }
    }

    #[test]
    fn learns_a_separable_toy_problem() {
        let (xs, ys) = toy_dataset(12, 3, 8);
        let mut clf = HdcClassifier::new(HdcConfig::new(12, 3, 7).unwrap()).unwrap();
        clf.fit(&xs, &ys).unwrap();
        let acc = clf.accuracy(&xs, &ys).unwrap();
        assert!(acc > 0.9, "training accuracy {acc}");
    }

    #[test]
    fn nearby_values_encode_to_nearby_hypervectors() {
        let mut clf = HdcClassifier::new(HdcConfig::new(1, 2, 3).unwrap()).unwrap();
        clf.lo[0] = 0.0;
        clf.hi[0] = 1.0;
        let a = clf.encode(&[0.0]).unwrap();
        let b = clf.encode(&[0.1]).unwrap();
        let c = clf.encode(&[0.9]).unwrap();
        let d = |x: &[u64], y: &[u64]| -> u32 {
            x.iter().zip(y).map(|(&p, &q)| (p ^ q).count_ones()).sum()
        };
        assert!(
            d(&a, &b) < d(&a, &c),
            "thermometer code must be locality-preserving: {} vs {}",
            d(&a, &b),
            d(&a, &c)
        );
    }

    #[test]
    fn fit_is_invariant_to_sample_order() {
        let (xs, ys) = toy_dataset(10, 3, 6);
        let config = HdcConfig::new(10, 3, 5).unwrap();
        let mut forward = HdcClassifier::new(config).unwrap();
        forward.fit(&xs, &ys).unwrap();
        let rev_x: Vec<Tensor> = xs.iter().rev().cloned().collect();
        let rev_y: Vec<usize> = ys.iter().rev().copied().collect();
        let mut reversed = HdcClassifier::new(config).unwrap();
        reversed.fit(&rev_x, &rev_y).unwrap();
        for class in 0..3 {
            assert_eq!(forward.prototype(class), reversed.prototype(class));
        }
    }

    #[test]
    fn classify_into_is_a_distribution() {
        // `sample` separates classes mod 3, so stick to 3 distinct classes —
        // a 4th would alias class 0 and tie the distance scan exactly.
        let (xs, ys) = toy_dataset(6, 3, 4);
        let mut clf = HdcClassifier::new(HdcConfig::new(6, 3, 9).unwrap()).unwrap();
        clf.fit(&xs, &ys).unwrap();
        let mut probs = Vec::new();
        let class = clf.classify_into(xs[0].data(), &mut probs).unwrap();
        assert!(class < 3);
        assert_eq!(probs.len(), 3);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let argmax = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(argmax, class, "min distance must be max probability");
    }

    #[test]
    fn rejects_wrong_input_length() {
        let mut clf = HdcClassifier::new(HdcConfig::new(5, 2, 1).unwrap()).unwrap();
        assert!(clf.predict(&[0.0; 4]).is_err());
        let mut probs = Vec::new();
        assert!(clf.classify_into(&[0.0; 6], &mut probs).is_err());
    }

    #[test]
    fn fit_rejects_bad_labels_and_shapes() {
        let mut clf = HdcClassifier::new(HdcConfig::new(3, 2, 1).unwrap()).unwrap();
        let x = Tensor::zeros(&[3]).unwrap();
        assert!(clf.fit(&[], &[]).is_err());
        assert!(clf.fit(std::slice::from_ref(&x), &[2]).is_err());
        let short = Tensor::zeros(&[2]).unwrap();
        assert!(clf.fit(&[short], &[0]).is_err());
    }

    #[test]
    fn cost_model_is_deterministic_and_small() {
        let clf = HdcClassifier::new(HdcConfig::new(56, 8, 1).unwrap()).unwrap();
        let ops = clf.estimated_word_ops();
        assert_eq!(ops, clf.estimated_word_ops());
        // 56 channels × 16 words × 4 + 8 × 16 × 2 + 16 × 6.
        assert_eq!(ops, 56 * 16 * 4 + 8 * 16 * 2 + 16 * 6);
    }
}
