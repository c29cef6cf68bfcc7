//! Post-training 8-bit weight quantization.
//!
//! The paper's Fig. 3(c)/(d) compare the weight footprint and accuracy of the
//! three classifiers in float32 versus 8-bit quantization, reporting under 3%
//! accuracy loss. This module implements per-tensor *symmetric affine* int8
//! quantization (`w ≈ scale · q`, `q ∈ [-127, 127]`): weights are snapshotted
//! to int8 and inference runs on the dequantized values, so the accuracy
//! impact of the rounding is exactly what an int8 deployment would see.

use crate::kernels::{Kernel, Lanes};
use crate::model::Sequential;
use crate::{NnError, Tensor};

/// Numeric precision of the scratch-path forward pass.
///
/// [`crate::Sequential::set_precision`] switches every weighted layer
/// (`Dense`, `Conv1d`, `Lstm`) between the float path and the fully
/// quantized int8 path; parameter-free layers (activations, pooling,
/// flatten) always operate on the f32 activations between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full float32 inference (the default).
    #[default]
    F32,
    /// Fully quantized int8 inference: weights snapshotted per-tensor
    /// symmetric (`scale = max|w| / 127`), activations quantized per
    /// vector on the fly, every multiply-accumulate in i8×i8→i32
    /// ([`crate::kernels::dot_i8`] per row in `Dense`,
    /// [`crate::kernels::gemv_t_i8`] in `Lstm`,
    /// [`crate::kernels::conv1d_i8`] in `Conv1d`).
    Int8,
}

impl Precision {
    /// Short lowercase label (`"f32"` / `"i8"`), used in bench tables and
    /// metric labels.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "i8",
        }
    }
}

/// An int8-quantized tensor with its per-tensor scale.
///
/// # Example
///
/// ```
/// use nn::quant::QuantizedTensor;
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let t = Tensor::from_vec(vec![-1.0, 0.5, 1.0], &[3])?;
/// let q = QuantizedTensor::quantize(&t);
/// let back = q.dequantize()?;
/// for (a, b) in t.data().iter().zip(back.data()) {
///     assert!((a - b).abs() <= q.scale());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    values: Vec<i8>,
    scale: f32,
    shape: Vec<usize>,
}

impl QuantizedTensor {
    /// Quantizes a float tensor with per-tensor symmetric scaling
    /// (`scale = max|w| / 127`). An all-zero tensor quantizes to scale 1.0
    /// with all-zero values.
    pub fn quantize(tensor: &Tensor) -> Self {
        let max_abs = tensor.data().iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let values = tensor
            .data()
            .iter()
            .map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Self {
            values,
            scale,
            shape: tensor.shape().to_vec(),
        }
    }

    /// Reconstructs the float tensor (`scale · q`).
    ///
    /// # Errors
    ///
    /// Returns a shape error only if the internal state was corrupted
    /// (cannot happen through the public API).
    pub fn dequantize(&self) -> Result<Tensor, NnError> {
        Tensor::from_vec(
            self.values
                .iter()
                .map(|&q| f32::from(q) * self.scale)
                .collect(),
            &self.shape,
        )
    }

    /// The per-tensor scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw int8 values.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Storage footprint in bytes: one byte per value plus the 4-byte scale.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() + std::mem::size_of::<f32>()
    }
}

/// Report produced by [`quantize_weights_in_place`]: the Fig. 3(c) numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantReport {
    /// Number of quantized parameter tensors.
    pub tensors: usize,
    /// Total trainable scalars.
    pub params: usize,
    /// float32 weight footprint in bytes.
    pub float_bytes: usize,
    /// int8 weight footprint in bytes (values + per-tensor scales).
    pub int8_bytes: usize,
}

/// Quantizes every parameter of `model` to int8 and writes the *dequantized*
/// values back in place, so subsequent inference reflects int8 rounding.
/// Returns the storage accounting.
///
/// # Errors
///
/// Propagates tensor shape errors (cannot occur for well-formed models).
///
/// # Example
///
/// ```
/// use nn::layers::Dense;
/// use nn::quant::quantize_weights_in_place;
/// use nn::Sequential;
/// # fn main() -> Result<(), nn::NnError> {
/// let mut model = Sequential::new();
/// model.push(Dense::new(10, 4, 1)?);
/// let report = quantize_weights_in_place(&mut model)?;
/// assert_eq!(report.params, 44);
/// assert!(report.float_bytes > 3 * report.int8_bytes);
/// # Ok(())
/// # }
/// ```
pub fn quantize_weights_in_place(model: &mut Sequential) -> Result<QuantReport, NnError> {
    let mut report = QuantReport::default();
    for param in model.params_mut() {
        let q = QuantizedTensor::quantize(&param.value);
        report.tensors += 1;
        report.params += param.value.len();
        report.float_bytes += param.value.len() * std::mem::size_of::<f32>();
        report.int8_bytes += q.storage_bytes();
        param.value = q.dequantize()?;
    }
    Ok(report)
}

/// Quantizes an activation vector symmetrically into a caller-provided int8
/// buffer (resized to `x.len()`), returning the per-vector scale.
/// Allocation-free once the buffer has capacity — the runtime counterpart of
/// [`QuantizedTensor::quantize`] for the fully quantized inference path.
///
/// Runs in the widest vector arm this CPU has: there `round` vectorizes
/// instead of calling libm once per element. `round` is defined exactly
/// (ties away from zero) and the cast to `i8` saturates, so every arm gives
/// the same bytes and the same scale.
pub fn quantize_activations_into(x: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(x.len(), 0);
    Lanes::detect().run(QuantizeActivations { x, out })
}

/// The arguments of [`quantize_activations_into`].
pub(crate) struct QuantizeActivations<'a> {
    pub(crate) x: &'a [f32],
    pub(crate) out: &'a mut [i8],
}

/// Lanes of the max-abs reduction in [`QuantizeActivations`].
const MAX_LANES: usize = 16;

impl Kernel for QuantizeActivations<'_> {
    type Output = f32;

    /// The max-abs scan keeps [`MAX_LANES`] running maxima. `f32::max`
    /// ignores a NaN operand, and every lane starts at 0.0, so the result
    /// is the largest non-NaN `|v|` (or 0.0) in any order: exactly what one
    /// running maximum in element order gives.
    #[inline(always)]
    fn run(self) -> f32 {
        let Self { x, out } = self;
        let mut lanes = [0.0f32; MAX_LANES];
        let mut chunks = x.chunks_exact(MAX_LANES);
        for chunk in chunks.by_ref() {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane = lane.max(v.abs());
            }
        }
        let max_abs = chunks
            .remainder()
            .iter()
            .chain(&lanes)
            .fold(0.0f32, |a, &b| a.max(b.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        for (q, &v) in out.iter_mut().zip(x) {
            *q = whole_to_i8((v / scale).round().clamp(-127.0, 127.0));
        }
        scale
    }
}

/// `r as i8` for an `r` that is NaN or a whole number in `[-127, 127]`, in
/// a form that vectorizes (the saturating `as` measured scalar in every
/// arm): adding 1.5 · 2^23 is exact and leaves `r` in the low mantissa
/// bits, and NaN gives 0, as `as` does.
#[inline(always)]
fn whole_to_i8(r: f32) -> i8 {
    if r.is_nan() {
        0
    } else {
        ((r + 12_582_912.0).to_bits() as i32 - 0x4B40_0000) as i8
    }
}

/// float32 weight footprint in bytes for a given parameter count.
pub fn float_weight_bytes(params: usize) -> usize {
    params * std::mem::size_of::<f32>()
}

/// int8 weight footprint in bytes for `params` scalars split across
/// `tensors` parameter tensors (each tensor stores one 4-byte scale).
pub fn int8_weight_bytes(params: usize, tensors: usize) -> usize {
    params + tensors * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Dense};

    #[test]
    fn quantize_bounds_error_by_scale() {
        let t = Tensor::from_vec(vec![0.013, -0.97, 0.5, 0.0001, -0.2], &[5]).unwrap();
        let q = QuantizedTensor::quantize(&t);
        let back = q.dequantize().unwrap();
        for (a, b) in t.data().iter().zip(back.data()) {
            assert!((a - b).abs() <= q.scale() / 2.0 + 1e-7);
        }
    }

    #[test]
    fn zero_tensor_round_trips_exactly() {
        let t = Tensor::zeros(&[7]).unwrap();
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.dequantize().unwrap().data(), t.data());
    }

    #[test]
    fn extreme_values_clamped() {
        let t = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.values(), &[127, -127]);
    }

    #[test]
    fn storage_is_quarter_plus_scale() {
        let t = Tensor::zeros(&[100]).unwrap();
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.storage_bytes(), 104);
    }

    #[test]
    fn in_place_quantization_reports_sizes() {
        let mut m = Sequential::new();
        m.push(Dense::new(8, 4, 1).unwrap());
        m.push(Activation::relu());
        m.push(Dense::new(4, 2, 2).unwrap());
        let report = quantize_weights_in_place(&mut m).unwrap();
        assert_eq!(report.tensors, 4); // two weight + two bias tensors
        assert_eq!(report.params, (8 * 4 + 4) + (4 * 2 + 2));
        assert_eq!(report.float_bytes, report.params * 4);
        assert_eq!(report.int8_bytes, report.params + 4 * 4);
        // Tiny model: per-tensor scale overhead keeps the ratio below the
        // asymptotic 4×.
        assert!(2 * report.float_bytes > 5 * report.int8_bytes);
    }

    #[test]
    fn quantized_model_stays_close_in_output() {
        let mut m = Sequential::new();
        m.push(Dense::new(6, 12, 3).unwrap());
        m.push(Activation::relu());
        m.push(Dense::new(12, 4, 4).unwrap());
        let x = Tensor::from_vec((0..6).map(|i| (i as f32 * 0.7).sin()).collect(), &[6]).unwrap();
        let before = m.forward(&x, false).unwrap();
        quantize_weights_in_place(&mut m).unwrap();
        let after = m.forward(&x, false).unwrap();
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn activation_quantization_round_trips_within_scale() {
        let x = vec![0.4f32, -1.2, 0.0, 0.77];
        let mut q = Vec::new();
        let scale = quantize_activations_into(&x, &mut q);
        for (orig, &qi) in x.iter().zip(&q) {
            assert!((orig - f32::from(qi) * scale).abs() <= scale / 2.0 + 1e-7);
        }
        let mut qz = Vec::new();
        assert_eq!(quantize_activations_into(&[0.0; 3], &mut qz), 1.0);
        assert_eq!(qz, vec![0, 0, 0]);
    }

    #[test]
    fn size_helpers_consistent() {
        assert_eq!(float_weight_bytes(1000), 4000);
        assert_eq!(int8_weight_bytes(1000, 6), 1024);
    }
}
