//! Dense matrices over GF(2^8) and the constructions Reed-Solomon needs:
//! identity, Vandermonde, Gauss-Jordan inversion and row selection.
//!
//! # Examples
//!
//! ```
//! use agar_ec::matrix::Matrix;
//!
//! let m = Matrix::vandermonde(4, 2)?;
//! assert_eq!(m.rows(), 4);
//! assert_eq!(m.cols(), 2);
//! // Any square submatrix made of distinct Vandermonde rows is invertible.
//! let square = m.select_rows(&[1, 3])?;
//! let inv = square.inverted()?;
//! assert!(square.multiply(&inv)?.is_identity());
//! # Ok::<(), agar_ec::EcError>(())
//! ```

use crate::error::EcError;
use crate::gf256::{inverse, mul, mul_add_slice, pow};
use std::fmt;

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix with the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Result<Self, EcError> {
        if rows == 0 || cols == 0 {
            return Err(EcError::InvalidDimensions { rows, cols });
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        })
    }

    /// Creates a matrix from a row-major byte vector.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] if the data length does not
    /// equal `rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<u8>) -> Result<Self, EcError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(EcError::InvalidDimensions { rows, cols });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (mostly for tests).
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] on ragged or empty input.
    pub fn from_rows(rows: &[&[u8]]) -> Result<Self, EcError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(EcError::InvalidDimensions {
                rows: rows.len(),
                cols: 0,
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(EcError::InvalidDimensions {
                rows: rows.len(),
                cols,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Matrix::from_vec(rows.len(), cols, data)
    }

    /// The identity matrix of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] if `size` is zero.
    pub fn identity(size: usize) -> Result<Self, EcError> {
        let mut m = Matrix::zero(size, size)?;
        for i in 0..size {
            m.set(i, i, 1);
        }
        Ok(m)
    }

    /// A `rows x cols` Vandermonde matrix with entry `(r, c) = r^c`
    /// evaluated in GF(2^8).
    ///
    /// Every square submatrix built from distinct rows of a Vandermonde
    /// matrix with distinct evaluation points is invertible, which is the
    /// property Reed-Solomon relies on.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] if either dimension is zero
    /// or `rows > 256` (evaluation points must be distinct field elements).
    pub fn vandermonde(rows: usize, cols: usize) -> Result<Self, EcError> {
        if rows > 256 {
            return Err(EcError::InvalidDimensions { rows, cols });
        }
        let mut m = Matrix::zero(rows, cols)?;
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, pow(r as u8, c));
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u8) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows a row as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        assert!(row < self.rows, "matrix row out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Iterates over the rows as byte slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn multiply(&self, rhs: &Matrix) -> Result<Matrix, EcError> {
        if self.cols != rhs.rows {
            return Err(EcError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols)?;
        for r in 0..self.rows {
            // Accumulate whole rows through the nibble-table kernel:
            // out[r] ^= self[r][k] * rhs[k] for every k.
            let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
            for k in 0..self.cols {
                mul_add_slice(out_row, rhs.row(k), self.data[r * self.cols + k]);
            }
        }
        Ok(out)
    }

    /// Builds a new matrix from the selected rows, in order. Rows may
    /// repeat.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::RowOutOfBounds`] if any index is out of range,
    /// or [`EcError::InvalidDimensions`] if `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix, EcError> {
        if indices.is_empty() {
            return Err(EcError::InvalidDimensions {
                rows: 0,
                cols: self.cols,
            });
        }
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(EcError::RowOutOfBounds {
                    row: i,
                    rows: self.rows,
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }

    /// Horizontally concatenates `self | rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::DimensionMismatch`] if the row counts differ.
    pub fn augment(&self, rhs: &Matrix) -> Result<Matrix, EcError> {
        if self.rows != rhs.rows {
            return Err(EcError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut data = Vec::with_capacity(self.rows * (self.cols + rhs.cols));
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(rhs.row(r));
        }
        Matrix::from_vec(self.rows, self.cols + rhs.cols, data)
    }

    /// Returns the column range `[start, end)` of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::InvalidDimensions`] if the range is empty or out
    /// of bounds.
    pub fn sub_columns(&self, start: usize, end: usize) -> Result<Matrix, EcError> {
        if start >= end || end > self.cols {
            return Err(EcError::InvalidDimensions {
                rows: self.rows,
                cols: end.saturating_sub(start),
            });
        }
        let mut data = Vec::with_capacity(self.rows * (end - start));
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Matrix::from_vec(self.rows, end - start, data)
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "matrix row out of bounds");
        if a == b {
            return;
        }
        let (a, b) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(b * self.cols);
        head[a * self.cols..(a + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    /// Whether this is a square identity matrix.
    pub fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expected = u8::from(r == c);
                if self.get(r, c) != expected {
                    return false;
                }
            }
        }
        true
    }

    /// Returns the inverse of a square matrix via Gauss-Jordan
    /// elimination.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::NotSquare`] for non-square input and
    /// [`EcError::SingularMatrix`] if no inverse exists.
    pub fn inverted(&self) -> Result<Matrix, EcError> {
        if self.rows != self.cols {
            return Err(EcError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let n = self.rows;
        let mut work = self.augment(&Matrix::identity(n)?)?;

        for col in 0..n {
            // Find a pivot at or below the diagonal.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0);
            let pivot = pivot.ok_or(EcError::SingularMatrix)?;
            work.swap_rows(col, pivot);

            // Scale the pivot row so the diagonal becomes 1.
            let scale = inverse(work.get(col, col));
            for c in 0..2 * n {
                work.set(col, c, mul(work.get(col, c), scale));
            }

            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor == 0 {
                    continue;
                }
                for c in 0..2 * n {
                    work.set(r, c, work.get(r, c) ^ mul(factor, work.get(col, c)));
                }
            }
        }
        work.sub_columns(n, 2 * n)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            write!(f, "  [")?;
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{v:02x}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_identity_construction() {
        let z = Matrix::zero(2, 3).unwrap();
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.iter_rows().all(|r| r.iter().all(|&v| v == 0)));

        let id = Matrix::identity(3).unwrap();
        assert!(id.is_identity());
        assert!(!z.is_identity());
    }

    #[test]
    fn invalid_dimensions_rejected() {
        assert!(matches!(
            Matrix::zero(0, 3),
            Err(EcError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Matrix::zero(3, 0),
            Err(EcError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1, 2, 3]),
            Err(EcError::InvalidDimensions { .. })
        ));
        assert!(matches!(
            Matrix::from_rows(&[&[1, 2], &[3]]),
            Err(EcError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn multiply_by_identity_is_noop() {
        let m = Matrix::from_rows(&[&[1, 2, 3], &[4, 5, 6]]).unwrap();
        let id3 = Matrix::identity(3).unwrap();
        let id2 = Matrix::identity(2).unwrap();
        assert_eq!(m.multiply(&id3).unwrap(), m);
        assert_eq!(id2.multiply(&m).unwrap(), m);
    }

    #[test]
    fn multiply_dimension_mismatch() {
        let a = Matrix::zero(2, 3).unwrap();
        let b = Matrix::zero(2, 3).unwrap();
        assert!(matches!(
            a.multiply(&b),
            Err(EcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn known_product() {
        // Over GF(2^8): [[1,2],[3,4]] * [[5,6],[7,8]]
        let a = Matrix::from_rows(&[&[1, 2], &[3, 4]]).unwrap();
        let b = Matrix::from_rows(&[&[5, 6], &[7, 8]]).unwrap();
        let c = a.multiply(&b).unwrap();
        assert_eq!(c.get(0, 0), mul(1, 5) ^ mul(2, 7));
        assert_eq!(c.get(0, 1), mul(1, 6) ^ mul(2, 8));
        assert_eq!(c.get(1, 0), mul(3, 5) ^ mul(4, 7));
        assert_eq!(c.get(1, 1), mul(3, 6) ^ mul(4, 8));
    }

    #[test]
    fn inversion_roundtrip() {
        let m = Matrix::from_rows(&[&[56, 23, 98], &[3, 100, 200], &[45, 201, 123]]).unwrap();
        let inv = m.inverted().unwrap();
        assert!(m.multiply(&inv).unwrap().is_identity());
        assert!(inv.multiply(&m).unwrap().is_identity());
        // Inverting twice returns the original.
        assert_eq!(inv.inverted().unwrap(), m);
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical rows.
        let m = Matrix::from_rows(&[&[1, 2], &[1, 2]]).unwrap();
        assert!(matches!(m.inverted(), Err(EcError::SingularMatrix)));
        // Zero row.
        let z = Matrix::from_rows(&[&[0, 0], &[1, 2]]).unwrap();
        assert!(matches!(z.inverted(), Err(EcError::SingularMatrix)));
    }

    #[test]
    fn non_square_inversion_rejected() {
        let m = Matrix::zero(2, 3).unwrap();
        assert!(matches!(m.inverted(), Err(EcError::NotSquare { .. })));
    }

    #[test]
    fn inversion_requires_row_swap() {
        // Leading zero forces pivoting.
        let m = Matrix::from_rows(&[&[0, 1], &[1, 0]]).unwrap();
        let inv = m.inverted().unwrap();
        assert!(m.multiply(&inv).unwrap().is_identity());
    }

    #[test]
    fn vandermonde_shape_and_values() {
        let m = Matrix::vandermonde(4, 3).unwrap();
        // Row r is [1, r, r^2].
        for r in 0..4 {
            assert_eq!(m.get(r, 0), 1);
            assert_eq!(m.get(r, 1), r as u8);
            assert_eq!(m.get(r, 2), mul(r as u8, r as u8));
        }
    }

    #[test]
    fn vandermonde_any_square_submatrix_invertible() {
        let m = Matrix::vandermonde(8, 4).unwrap();
        // Try several 4-row selections.
        for sel in [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [0, 2, 4, 6],
            [1, 3, 5, 7],
            [0, 3, 5, 6],
        ] {
            let square = m.select_rows(&sel).unwrap();
            let inv = square.inverted().unwrap();
            assert!(
                square.multiply(&inv).unwrap().is_identity(),
                "selection {sel:?}"
            );
        }
    }

    #[test]
    fn select_rows_and_bounds() {
        let m = Matrix::from_rows(&[&[1, 2], &[3, 4], &[5, 6]]).unwrap();
        let s = m.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.row(0), &[5, 6]);
        assert_eq!(s.row(1), &[1, 2]);
        assert!(matches!(
            m.select_rows(&[3]),
            Err(EcError::RowOutOfBounds { row: 3, rows: 3 })
        ));
        assert!(m.select_rows(&[]).is_err());
    }

    #[test]
    fn augment_and_sub_columns() {
        let a = Matrix::from_rows(&[&[1], &[2]]).unwrap();
        let b = Matrix::from_rows(&[&[3, 4], &[5, 6]]).unwrap();
        let aug = a.augment(&b).unwrap();
        assert_eq!(aug.row(0), &[1, 3, 4]);
        assert_eq!(aug.row(1), &[2, 5, 6]);
        let right = aug.sub_columns(1, 3).unwrap();
        assert_eq!(right, b);
        assert!(aug.sub_columns(2, 2).is_err());
        assert!(aug.sub_columns(1, 9).is_err());
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(&[&[1, 2], &[3, 4], &[5, 6]]).unwrap();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[5, 6]);
        assert_eq!(m.row(2), &[1, 2]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[3, 4]);
    }

    #[test]
    fn debug_output_nonempty() {
        let m = Matrix::identity(2).unwrap();
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
        assert!(s.contains("01"));
    }
}
