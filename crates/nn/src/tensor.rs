//! A minimal dense tensor.
//!
//! Row-major, `f32`, one to three dimensions — exactly what the classifier
//! layers need. Operations validate shapes and return [`NnError`] instead of
//! panicking so a malformed pipeline fails loudly but recoverably.

use crate::kernels;
use crate::NnError;

/// A dense row-major tensor of `f32` values.
///
/// # Example
///
/// ```
/// use nn::Tensor;
/// # fn main() -> Result<(), nn::NnError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.data()[5], 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for an empty shape or any
    /// zero-length dimension.
    pub fn zeros(shape: &[usize]) -> Result<Self, NnError> {
        Self::validate_shape(shape)?;
        Ok(Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        })
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the buffer length does not
    /// equal the product of dimensions, or [`NnError::InvalidParameter`] for
    /// an invalid shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, NnError> {
        Self::validate_shape(shape)?;
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(NnError::ShapeMismatch {
                expected: format!("{expected} elements for shape {shape:?}"),
                actual: vec![data.len()],
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    fn validate_shape(shape: &[usize]) -> Result<(), NnError> {
        if shape.is_empty() {
            return Err(NnError::InvalidParameter {
                name: "shape",
                reason: "must have at least one dimension",
            });
        }
        if shape.contains(&0) {
            return Err(NnError::InvalidParameter {
                name: "shape",
                reason: "dimensions must be non-zero",
            });
        }
        Ok(())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements (never, for tensors
    /// built via the validated constructors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a flattened (1-D) copy of this tensor.
    pub fn to_flat(&self) -> Tensor {
        Tensor {
            shape: vec![self.data.len()],
            data: self.data.clone(),
        }
    }

    /// Matrix–vector product `self @ v` for a 2-D tensor `[m, n]` and a
    /// vector of length `n`; returns a vector of length `m`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on rank or size mismatch.
    pub fn matvec(&self, v: &[f32]) -> Result<Vec<f32>, NnError> {
        let mut out = Vec::new();
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matvec`] writing into a caller-provided buffer (resized to
    /// `m`), allocation-free once the buffer has capacity. Results are
    /// bit-for-bit identical to `matvec`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on rank or size mismatch.
    pub fn matvec_into(&self, v: &[f32], out: &mut Vec<f32>) -> Result<(), NnError> {
        if self.shape.len() != 2 || self.shape[1] != v.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("[m, {}] matrix", v.len()),
                actual: self.shape.clone(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        out.clear();
        out.resize(m, 0.0);
        kernels::gemv(&self.data, m, n, v, out);
        Ok(())
    }

    /// Transposed matrix–vector product `selfᵀ @ v` for a 2-D tensor
    /// `[m, n]` and a vector of length `m`; returns a vector of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on rank or size mismatch.
    pub fn matvec_t(&self, v: &[f32]) -> Result<Vec<f32>, NnError> {
        let mut out = Vec::new();
        self.matvec_t_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Tensor::matvec_t`] writing into a caller-provided buffer (resized
    /// to `n`), allocation-free once the buffer has capacity. Results are
    /// bit-for-bit identical to `matvec_t`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on rank or size mismatch.
    pub fn matvec_t_into(&self, v: &[f32], out: &mut Vec<f32>) -> Result<(), NnError> {
        if self.shape.len() != 2 || self.shape[0] != v.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("[{}, n] matrix", v.len()),
                actual: self.shape.clone(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        out.clear();
        out.resize(n, 0.0);
        kernels::gemv_t(&self.data, m, n, v, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_len() {
        let t = Tensor::zeros(&[3, 4]).unwrap();
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Tensor::zeros(&[]).is_err());
        assert!(Tensor::zeros(&[3, 0]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn matvec_identity() {
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(eye.matvec(&[3.0, 7.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_known_product() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
    }

    #[test]
    fn matvec_t_matches_transpose() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        // mᵀ is [[1,4],[2,5],[3,6]]; mᵀ @ [1, 2] = [9, 12, 15].
        assert_eq!(m.matvec_t(&[1.0, 2.0]).unwrap(), vec![9.0, 12.0, 15.0]);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let m =
            Tensor::from_vec((0..35).map(|i| (i as f32 * 0.31).sin()).collect(), &[5, 7]).unwrap();
        let v: Vec<f32> = (0..7).map(|i| (i as f32 * 0.77).cos()).collect();
        let mut out = Vec::new();
        m.matvec_into(&v, &mut out).unwrap();
        assert_eq!(out, m.matvec(&v).unwrap());
        let vt: Vec<f32> = (0..5).map(|i| (i as f32 * 0.53).cos()).collect();
        m.matvec_t_into(&vt, &mut out).unwrap();
        assert_eq!(out, m.matvec_t(&vt).unwrap());
    }

    #[test]
    fn matvec_shape_errors() {
        let m = Tensor::zeros(&[2, 3]).unwrap();
        assert!(m.matvec(&[1.0, 2.0]).is_err());
        assert!(m.matvec_t(&[1.0, 2.0, 3.0]).is_err());
        let flat = Tensor::zeros(&[6]).unwrap();
        assert!(flat.matvec(&[1.0; 6]).is_err());
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
