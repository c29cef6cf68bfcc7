//! Property-based tests for the NN crate's core invariants.

use nn::hdc::{HdcClassifier, HdcConfig};
use nn::kernels;
use nn::layers::{Activation, Conv1d, Dense, Flatten, Layer, Lstm, MaxPool1d};
use nn::loss::{cross_entropy, softmax};
use nn::quant::QuantizedTensor;
use nn::serialize::{load_weights, save_weights};
use nn::{Precision, Scratch, Sequential, Tensor};
use proptest::prelude::*;

/// Reference row-major matrix-vector product, the pre-kernel arithmetic
/// (per-row accumulator, ascending column order).
fn naive_gemv(a: &[f32], m: usize, n: usize, x: &[f32]) -> Vec<f32> {
    (0..m)
        .map(|r| {
            let mut acc = 0.0f32;
            for (j, &xj) in x.iter().enumerate().take(n) {
                acc += a[r * n + j] * xj;
            }
            acc
        })
        .collect()
}

proptest! {
    /// The register-blocked gemv kernel is bit-for-bit identical to the
    /// naive triple-loop for every shape, including ragged remainders.
    #[test]
    fn blocked_gemv_matches_naive_bitwise(
        m in 1usize..17,
        n in 1usize..17,
        seed in 0u64..1000,
    ) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 1000) as f32 / 250.0
        };
        let a: Vec<f32> = (0..m * n).map(|_| next()).collect();
        let x: Vec<f32> = (0..n).map(|_| next()).collect();
        let mut y = vec![0.0f32; m];
        kernels::gemv(&a, m, n, &x, &mut y);
        let reference = naive_gemv(&a, m, n, &x);
        for (got, want) in y.iter().zip(&reference) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// The whole scratch-buffer forward path agrees bit-for-bit with the
    /// allocating tensor path for arbitrary MLP widths, and repeated calls
    /// through one warmed-up scratch stay byte-identical.
    #[test]
    fn forward_with_scratch_matches_forward_bitwise(
        hidden in 1usize..12,
        seed in 0u64..200,
    ) {
        let mut model = Sequential::new();
        model.push(Dense::new(6, hidden, seed).unwrap());
        model.push(Activation::relu());
        model.push(Dense::new(hidden, 4, seed + 1).unwrap());
        let input: Vec<f32> = (0..6).map(|i| ((i as f32) - 2.5) * 0.4).collect();
        let x = Tensor::from_vec(input.clone(), &[6]).unwrap();
        let reference = model.forward(&x, false).unwrap();
        let mut scratch = Scratch::new();
        for _ in 0..3 {
            let (shape, out) = model.forward_with(&input, &[6], &mut scratch).unwrap();
            prop_assert_eq!(shape.as_slice(), reference.shape());
            prop_assert_eq!(out, reference.data());
        }
    }

    /// Softmax always produces a probability distribution.
    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..16)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    /// Cross-entropy loss is nonnegative and its gradient sums to zero.
    #[test]
    fn cross_entropy_invariants(
        logits in prop::collection::vec(-10.0f32..10.0, 2..10),
        label_seed in 0usize..100,
    ) {
        let label = label_seed % logits.len();
        let t = Tensor::from_vec(logits.clone(), &[logits.len()]).unwrap();
        let (loss, grad) = cross_entropy(&t, label).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.data().iter().sum::<f32>().abs() < 1e-4);
        // Gradient of the true class is always negative (push it up).
        prop_assert!(grad.data()[label] <= 0.0);
    }

    /// int8 quantization error is bounded by half the scale, elementwise.
    #[test]
    fn quantization_error_bounded(values in prop::collection::vec(-100.0f32..100.0, 1..256)) {
        let t = Tensor::from_vec(values, &[1]).unwrap_or_else(|_| Tensor::zeros(&[1]).unwrap());
        // Build with the real length.
        let t = Tensor::from_vec(t.data().to_vec(), &[t.len()]).unwrap();
        let q = QuantizedTensor::quantize(&t);
        let back = q.dequantize().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() <= q.scale() / 2.0 + 1e-5);
        }
    }

    /// Dense forward is linear: f(ax) - f(0) == a (f(x) - f(0)).
    #[test]
    fn dense_is_affine(scale in -3.0f32..3.0, seed in 0u64..50) {
        let mut l = Dense::new(4, 3, seed).unwrap();
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.5], &[4]).unwrap();
        let zero = Tensor::zeros(&[4]).unwrap();
        let fx = l.forward(&x, false).unwrap();
        let f0 = l.forward(&zero, false).unwrap();
        let sx = Tensor::from_vec(x.data().iter().map(|v| v * scale).collect(), &[4]).unwrap();
        let fsx = l.forward(&sx, false).unwrap();
        for i in 0..3 {
            let lhs = fsx.data()[i] - f0.data()[i];
            let rhs = scale * (fx.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()));
        }
    }

    /// Serialization round-trips bit-for-bit for arbitrary architectures.
    #[test]
    fn serialize_round_trip(seed in 0u64..64, hidden in 1usize..8) {
        let build = |s: u64| {
            let mut m = Sequential::new();
            m.push(Lstm::new(3, hidden, false, s).unwrap());
            m.push(Dense::new(hidden, 2, s + 1).unwrap());
            m
        };
        let mut a = build(seed);
        let mut b = build(seed + 1000);
        let x = Tensor::from_vec(vec![0.1, 0.2, 0.3, -0.1, -0.2, -0.3], &[2, 3]).unwrap();
        let blob = save_weights(&a);
        load_weights(&mut b, &blob).unwrap();
        prop_assert_eq!(a.forward(&x, false).unwrap(), b.forward(&x, false).unwrap());
    }

    /// Corrupting any byte of the header is detected.
    #[test]
    fn serialize_detects_header_corruption(byte in 0usize..12) {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 2, 1).unwrap());
        let mut blob = save_weights(&m);
        blob[byte] ^= 0xA5;
        let mut target = Sequential::new();
        target.push(Dense::new(2, 2, 2).unwrap());
        // Either a malformed-blob error or (for the count field colliding)
        // a shape mismatch — never a silent success.
        prop_assert!(load_weights(&mut target, &blob).is_err());
    }

    /// A CNN stack maps shapes consistently for any valid input length.
    #[test]
    fn cnn_shape_algebra(t_in in 8usize..64) {
        let mut conv = Conv1d::new(2, 3, 3, 1).unwrap();
        let mut pool = MaxPool1d::new(2).unwrap();
        let mut flat = Flatten::new();
        let x = Tensor::zeros(&[2, t_in]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        prop_assert_eq!(y.shape(), &[3, t_in - 2]);
        let p = pool.forward(&y, false).unwrap();
        prop_assert_eq!(p.shape(), &[3, (t_in - 2) / 2]);
        let f = flat.forward(&p, false).unwrap();
        prop_assert_eq!(f.len(), 3 * ((t_in - 2) / 2));
    }

    /// ReLU output is nonnegative and idempotent.
    #[test]
    fn relu_idempotent(values in prop::collection::vec(-5.0f32..5.0, 1..64)) {
        let n = values.len();
        let mut relu = Activation::relu();
        let x = Tensor::from_vec(values, &[n]).unwrap();
        let once = relu.forward(&x, false).unwrap();
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
        let twice = relu.forward(&once, false).unwrap();
        prop_assert_eq!(once, twice);
    }

    /// The unrolled i8×i8→i32 dot kernel agrees exactly with the scalar
    /// accumulation for every length, including ragged tails.
    #[test]
    fn dot_i8_matches_scalar_exactly(
        a in prop::collection::vec(-128i8..=127, 0..64),
        seed in 0u64..1000,
    ) {
        let mut s = seed;
        let b: Vec<i8> = (0..a.len())
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 56) as i8
            })
            .collect();
        let reference: i32 = a.iter().zip(&b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
        prop_assert_eq!(kernels::dot_i8(&a, &b), reference);
    }

    /// Two HDC classifiers built from the same config are identical
    /// functions: same encodings, same predictions, same probabilities —
    /// the item memory is a pure function of the seed.
    #[test]
    fn hdc_seed_determinism(
        seed in 0u64..500,
        values in prop::collection::vec(-2.0f32..2.0, 6),
    ) {
        let config = HdcConfig::new(6, 3, seed).unwrap();
        let mut a = HdcClassifier::new(config).unwrap();
        let mut b = HdcClassifier::new(config).unwrap();
        prop_assert_eq!(a.encode(&values).unwrap(), b.encode(&values).unwrap());
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        let ca = a.classify_into(&values, &mut pa).unwrap();
        let cb = b.classify_into(&values, &mut pb).unwrap();
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(pa, pb);
    }

    /// Bundling is commutative: fitting on a rotated sample order yields
    /// bit-identical prototypes, so training is order-invariant.
    #[test]
    fn hdc_fit_is_permutation_stable(seed in 0u64..200, rotate in 1usize..11) {
        let xs: Vec<Tensor> = (0..12)
            .map(|i| {
                let v: Vec<f32> = (0..5)
                    .map(|c| (((i * 5 + c) as f32) * 0.37 + seed as f32).sin())
                    .collect();
                Tensor::from_vec(v, &[5]).unwrap()
            })
            .collect();
        let ys: Vec<usize> = (0..12).map(|i| i % 3).collect();
        let mut rotated_x = xs.clone();
        let mut rotated_y = ys.clone();
        rotated_x.rotate_left(rotate);
        rotated_y.rotate_left(rotate);
        let mut a = HdcClassifier::new(HdcConfig::new(5, 3, seed).unwrap()).unwrap();
        let mut b = HdcClassifier::new(HdcConfig::new(5, 3, seed).unwrap()).unwrap();
        a.fit(&xs, &ys).unwrap();
        b.fit(&rotated_x, &rotated_y).unwrap();
        for class in 0..3 {
            prop_assert_eq!(a.prototype(class), b.prototype(class));
        }
        for x in &xs {
            prop_assert_eq!(a.predict(x.data()).unwrap(), b.predict(x.data()).unwrap());
        }
    }

    /// Switching a model to int8 perturbs the scratch-path output only
    /// within the quantization error budget, and switching back restores
    /// the f32 result bit-for-bit.
    #[test]
    fn int8_forward_stays_near_f32(hidden in 1usize..12, seed in 0u64..200) {
        let mut model = Sequential::new();
        model.push(Dense::new(6, hidden, seed).unwrap());
        model.push(Activation::relu());
        model.push(Dense::new(hidden, 4, seed + 1).unwrap());
        let input: Vec<f32> = (0..6).map(|i| ((i as f32) - 2.5) * 0.4).collect();
        let mut scratch = Scratch::new();
        let f32_out: Vec<f32> = {
            let (_, out) = model.forward_with(&input, &[6], &mut scratch).unwrap();
            out.to_vec()
        };
        model.set_precision(Precision::Int8).unwrap();
        {
            let (shape, out) = model.forward_with(&input, &[6], &mut scratch).unwrap();
            prop_assert_eq!(shape.as_slice(), &[4usize][..]);
            for (q, f) in out.iter().zip(&f32_out) {
                prop_assert!(
                    (q - f).abs() <= 0.1 * (1.0 + f.abs()),
                    "int8 {} strayed from f32 {}", q, f
                );
            }
        }
        model.set_precision(Precision::F32).unwrap();
        let (_, out) = model.forward_with(&input, &[6], &mut scratch).unwrap();
        prop_assert_eq!(out, &f32_out[..]);
    }
}
