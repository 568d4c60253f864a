//! Dense row-major matrix used by the simplex tableau.

/// A dense `rows × cols` matrix.
#[derive(Clone, Debug)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone> Matrix<T> {
    /// A matrix filled with `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Matrix<T> {
        Matrix {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable cell access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }

    /// Writes a cell.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Two distinct rows, one mutable view each (used for pivoting).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn two_rows_mut(&mut self, a: usize, b: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(a, b, "two_rows_mut requires distinct rows");
        let cols = self.cols;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * cols);
            (&mut lo[a * cols..(a + 1) * cols], &mut hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * cols);
            let (bl, al) = (&mut lo[b * cols..(b + 1) * cols], &mut hi[..cols]);
            (al, bl)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_access() {
        let mut m = Matrix::filled(2, 3, 0i32);
        m.set(1, 2, 7);
        assert_eq!(*m.get(1, 2), 7);
        assert_eq!(m.row(1), &[0, 0, 7]);
        m.row_mut(0)[1] = 5;
        assert_eq!(*m.get(0, 1), 5);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn two_rows_mut_either_order() {
        let mut m = Matrix::filled(3, 2, 0i32);
        m.set(0, 0, 1);
        m.set(2, 1, 9);
        {
            let (a, b) = m.two_rows_mut(0, 2);
            assert_eq!(a, &[1, 0]);
            assert_eq!(b, &[0, 9]);
            a[1] = 4;
            b[0] = 8;
        }
        {
            let (a, b) = m.two_rows_mut(2, 0);
            assert_eq!(b, &[1, 4]);
            assert_eq!(a, &[8, 9]);
        }
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn two_rows_mut_same_row_panics() {
        let mut m = Matrix::filled(2, 2, 0i32);
        let _ = m.two_rows_mut(1, 1);
    }
}
