//! Dense row-major `f64` tensors.
//!
//! A deliberately small tensor type: the QuantumNAT training pipeline only
//! needs rank-1 parameter vectors and rank-2 `[batch, features]` activations.

use std::fmt;

/// A dense tensor of `f64` values in row-major order.
///
/// # Examples
///
/// ```
/// use qnat_autodiff::tensor::Tensor;
/// let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.get2(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f64>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw data and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(data: Vec<f64>, shape: Vec<usize>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// A scalar tensor (shape `[1]`).
    pub fn scalar(v: f64) -> Self {
        Tensor {
            data: vec![v],
            shape: vec![1],
        }
    }

    /// A rank-1 tensor from a vector.
    pub fn vector(v: Vec<f64>) -> Self {
        let n = v.len();
        Tensor {
            data: v,
            shape: vec![n],
        }
    }

    /// A rank-2 tensor from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or there are no rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            data,
            shape: vec![rows.len(), cols],
        }
    }

    /// Zero-filled tensor of a given shape.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            data: vec![0.0; n],
            shape,
        }
    }

    /// Zero tensor with the same shape as `other`.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor::zeros(other.shape.clone())
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Rank-2 element access.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or indices are out of range.
    pub fn get2(&self, row: usize, col: usize) -> f64 {
        assert_eq!(self.shape.len(), 2, "get2 on non-matrix tensor");
        self.data[row * self.shape[1] + col]
    }

    /// The scalar value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(self.len(), 1, "item() on multi-element tensor");
        self.data[0]
    }

    /// Element-wise in-place accumulate: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in accumulate");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{:?} {:.4?}",
            self.shape,
            &self.data[..self.len().min(8)]
        )?;
        if self.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape_checks() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        assert_eq!(t.get2(1, 2), 6.0);
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
        assert_eq!(Tensor::vector(vec![1.0, 2.0]).shape(), &[2]);
        assert!(Tensor::zeros(vec![3, 4]).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        Tensor::new(vec![1.0], vec![2, 2]);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = Tensor::vector(vec![1.0, 2.0]);
        a.accumulate(&Tensor::vector(vec![0.5, -1.0]));
        assert_eq!(a.data(), &[1.5, 1.0]);
    }
}
