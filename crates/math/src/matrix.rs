//! Dense complex matrices for MIMO signal processing.
//!
//! [`CMatrix`] is a small row-major dense matrix over [`Complex`], sized for
//! the 1×1 … 4×4 systems that 802.11n uses. It provides exactly the
//! operations MIMO detection and beamforming need: products, Hermitian
//! transpose, Gram matrices and Gauss–Jordan inversion.

use crate::Complex;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use wlan_math::{CMatrix, Complex};
///
/// let h = CMatrix::from_rows(&[
///     &[Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)],
///     &[Complex::new(0.0, -1.0), Complex::new(2.0, 0.0)],
/// ]);
/// let hinv = h.inverse().expect("nonsingular");
/// let eye = &h * &hinv;
/// assert!((eye.get(0, 0) - Complex::ONE).norm() < 1e-10);
/// assert!(eye.get(0, 1).norm() < 1e-10);
/// ```
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

/// Error returned when inverting or solving with a singular matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular or numerically rank-deficient")
    }
}

impl std::error::Error for SingularMatrixError {}

impl CMatrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        CMatrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, Complex::ONE);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have differing lengths.
    pub fn from_rows(rows: &[&[Complex]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        CMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        CMatrix { rows, cols, data }
    }

    /// Builds a column vector from a slice.
    pub fn column(v: &[Complex]) -> Self {
        CMatrix::from_vec(v.len(), 1, v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Complex {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: Complex) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major view of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Hermitian (conjugate) transpose `Aᴴ`.
    pub fn hermitian(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c).conj());
            }
        }
        out
    }

    /// Gram matrix `AᴴA` (used by MMSE/ZF detectors).
    pub fn gram(&self) -> CMatrix {
        &self.hermitian() * self
    }

    /// Scales every element by a real factor.
    pub fn scale(&self, k: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.scale(k)).collect(),
        }
    }

    /// Adds `diag·I` to a square matrix (MMSE regularization).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diagonal(&self, diag: f64) -> CMatrix {
        assert_eq!(self.rows, self.cols, "add_diagonal needs a square matrix");
        let mut out = self.clone();
        for i in 0..self.rows {
            let v = out.get(i, i) + Complex::from_re(diag);
            out.set(i, i, v);
        }
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * x[c]).sum())
            .collect()
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot underflows (the matrix is
    /// singular to working precision).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Result<CMatrix, SingularMatrixError> {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = CMatrix::identity(n);

        for col in 0..n {
            // Partial pivot on the largest magnitude.
            let pivot_row = (col..n)
                .max_by(|&i, &j| a.get(i, col).norm().total_cmp(&a.get(j, col).norm()))
                .expect("nonempty range");
            if a.get(pivot_row, col).norm() < 1e-300 {
                return Err(SingularMatrixError);
            }
            if pivot_row != col {
                for c in 0..n {
                    let (x, y) = (a.get(col, c), a.get(pivot_row, c));
                    a.set(col, c, y);
                    a.set(pivot_row, c, x);
                    let (x, y) = (inv.get(col, c), inv.get(pivot_row, c));
                    inv.set(col, c, y);
                    inv.set(pivot_row, c, x);
                }
            }
            let pivot = a.get(col, col);
            let inv_pivot = pivot.recip();
            for c in 0..n {
                a.set(col, c, a.get(col, c) * inv_pivot);
                inv.set(col, c, inv.get(col, c) * inv_pivot);
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor.norm_sqr() == 0.0 {
                    continue;
                }
                for c in 0..n {
                    let v = a.get(r, c) - factor * a.get(col, c);
                    a.set(r, c, v);
                    let v = inv.get(r, c) - factor * inv.get(col, c);
                    inv.set(r, c, v);
                }
            }
        }
        Ok(inv)
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?} ", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a + *b).collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| *a - *b).collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a.norm_sqr() == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let v = out.get(r, c) + a * rhs.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix() -> CMatrix {
        CMatrix::from_rows(&[
            &[Complex::new(2.0, 1.0), Complex::new(0.5, -0.5), Complex::new(0.0, 1.0)],
            &[Complex::new(-1.0, 0.0), Complex::new(3.0, 0.0), Complex::new(1.0, 1.0)],
            &[Complex::new(0.0, -2.0), Complex::new(1.0, 0.0), Complex::new(4.0, 0.5)],
        ])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = test_matrix();
        let eye = CMatrix::identity(3);
        assert!((&(&a * &eye) - &a).frobenius_norm() < 1e-12);
        assert!((&(&eye * &a) - &a).frobenius_norm() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = test_matrix();
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        assert!((&prod - &CMatrix::identity(3)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = CMatrix::from_rows(&[
            &[Complex::ONE, Complex::ONE],
            &[Complex::ONE, Complex::ONE],
        ]);
        assert_eq!(a.inverse(), Err(SingularMatrixError));
    }

    #[test]
    fn hermitian_of_hermitian_is_original() {
        let a = test_matrix();
        assert!((&a.hermitian().hermitian() - &a).frobenius_norm() < 1e-15);
    }

    #[test]
    fn gram_is_hermitian_positive() {
        let a = test_matrix();
        let g = a.gram();
        for r in 0..3 {
            assert!(g.get(r, r).im.abs() < 1e-12);
            assert!(g.get(r, r).re > 0.0);
            for c in 0..3 {
                assert!((g.get(r, c) - g.get(c, r).conj()).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn mmse_regularization_shifts_diagonal() {
        let a = CMatrix::identity(2);
        let r = a.add_diagonal(0.5);
        assert!((r.get(0, 0) - Complex::from_re(1.5)).norm() < 1e-15);
        assert!((r.get(0, 1)).norm() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn product_shape_checked() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn column_vector_shape() {
        let v = CMatrix::column(&[Complex::ONE, Complex::I]);
        assert_eq!((v.rows(), v.cols()), (2, 1));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let a = CMatrix::from_rows(&[&[Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
