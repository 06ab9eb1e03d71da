//! Dense row-major 2-D tensors of `f32`.
//!
//! All template data structures are rectangles of floats (the paper's
//! operator library and Table 1 both count "floats"). [`Tensor`] is the
//! in-memory representation used for functional execution on both the
//! simulated host and the simulated device.

use gpuflow_graph::Shape;

/// A dense, row-major matrix of `f32`.
///
/// ```
/// use gpuflow_ops::Tensor;
///
/// let t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
/// // Views extract sub-rectangles (how split pieces are materialized)…
/// let band = t.view(1, 0, 2, 4);
/// assert_eq!(band.row(0), &[4.0, 5.0, 6.0, 7.0]);
/// // …and paste re-assembles them.
/// let mut whole = Tensor::zeros(4, 4);
/// whole.paste(&t.view(0, 0, 2, 4), 0, 0);
/// whole.paste(&t.view(2, 0, 2, 4), 2, 0);
/// assert_eq!(whole, t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Tensor filled by `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Wrap an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Tensor { rows, cols, data }
    }

    /// A 1×1 tensor holding `v` (biases, reduction results).
    pub fn scalar(v: f32) -> Tensor {
        Tensor::from_vec(1, 1, vec![v])
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

    /// `(rows, cols)` as a graph [`Shape`].
    pub fn shape(&self) -> Shape {
        Shape::new(self.rows, self.cols)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)` (debug-checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat read-only view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Copy out the sub-rectangle starting at `(row_off, col_off)` with
    /// shape `rows × cols`. This is how split views (convolution halos
    /// included) are materialized for transfer to the device.
    pub fn view(&self, row_off: usize, col_off: usize, rows: usize, cols: usize) -> Tensor {
        assert!(
            row_off + rows <= self.rows && col_off + cols <= self.cols,
            "view {row_off}+{rows} x {col_off}+{cols} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let start = (row_off + r) * self.cols + col_off;
            out.extend_from_slice(&self.data[start..start + cols]);
        }
        Tensor::from_vec(rows, cols, out)
    }

    /// Paste `src` into this tensor with its top-left corner at
    /// `(row_off, col_off)`. Inverse of [`Tensor::view`]; used when a split
    /// piece of an output returns from the device.
    pub fn paste(&mut self, src: &Tensor, row_off: usize, col_off: usize) {
        assert!(
            row_off + src.rows <= self.rows && col_off + src.cols <= self.cols,
            "paste out of bounds"
        );
        for r in 0..src.rows {
            let dst_start = (row_off + r) * self.cols + col_off;
            self.data[dst_start..dst_start + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Maximum absolute element-wise difference to `other`. Panics on shape
    /// mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.len(), 12);
        assert_eq!(t.get(2, 3), 23.0);
        assert_eq!(t.row(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(t.shape(), Shape::new(3, 4));
    }

    #[test]
    fn set_and_scalar() {
        let mut t = Tensor::zeros(2, 2);
        t.set(1, 1, 5.0);
        assert_eq!(t.get(1, 1), 5.0);
        assert_eq!(Tensor::scalar(3.5).get(0, 0), 3.5);
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_checks_len() {
        Tensor::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn view_extracts_subrect() {
        let t = Tensor::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let v = t.view(1, 2, 2, 2);
        assert_eq!(v.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn view_full_is_identity() {
        let t = Tensor::from_fn(3, 5, |r, c| (r + c) as f32);
        assert_eq!(t.view(0, 0, 3, 5), t);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_bounds_checked() {
        Tensor::zeros(3, 3).view(2, 0, 2, 3);
    }

    #[test]
    fn paste_roundtrips_view() {
        let t = Tensor::from_fn(6, 6, |r, c| (r * 6 + c) as f32);
        let v = t.view(2, 1, 3, 4);
        let mut u = Tensor::zeros(6, 6);
        u.paste(&v, 2, 1);
        assert_eq!(u.view(2, 1, 3, 4), v);
        assert_eq!(u.get(0, 0), 0.0); // untouched region
    }

    #[test]
    fn max_abs_diff_measures() {
        let a = Tensor::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(1, 0, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn empty_tensor() {
        let t = Tensor::zeros(0, 5);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
