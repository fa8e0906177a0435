//! Dense row-major matrix type and basic BLAS-like operations.
//!
//! This stands in for the Intel MKL dense routines the paper links against.
//! Sizes in this code base are modest (at most a few thousand on a side, most
//! commonly a few hundred), so a straightforward cache-blocked
//! implementation is adequate and keeps the crate dependency-free.

use std::ops::{Index, IndexMut};

/// Dense row-major `f64` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates an `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Mat {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: size mismatch");
        Mat { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
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

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product writing into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi = acc;
        }
    }

    /// Accumulating matrix–vector product `y += alpha * A x`.
    pub fn matvec_acc(&self, x: &[f64], alpha: f64, y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            *yi += alpha * acc;
        }
    }

    /// Transposed matrix–vector product `y = Aᵀ x`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (yj, aij) in y.iter_mut().zip(self.row(i)) {
                *yj += aij * xi;
            }
        }
        y
    }

    /// Matrix–matrix product `C = A B`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "matmul: inner dimension mismatch");
        let mut c = Mat::zeros(self.rows, b.cols);
        gemm_acc(
            self.rows,
            b.cols,
            self.cols,
            1.0,
            &self.data,
            &b.data,
            &mut c.data,
        );
        c
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales the matrix in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns `A + alpha * B`.
    pub fn add_scaled(&self, b: &Mat, alpha: f64) -> Mat {
        assert_eq!((self.rows, self.cols), (b.rows, b.cols));
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| x + alpha * y)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Row-major GEMM on raw buffers: `C[m×n] += alpha · A[m×k] · B[k×n]`.
///
/// Register-tiled microkernel: `MR × NR` accumulator blocks (4 rows × 24
/// columns = 12 SIMD vectors at AVX-512 width) held across the full `k`
/// loop, with edge cleanup in plain axpy form. This is the workhorse
/// behind [`Mat::matmul`] and the FMM's batched M2L
/// dispatch, where `A` is a block of gathered equivalent densities and `B`
/// a translation operator.
///
/// # Panics
/// Panics if a buffer is smaller than its `m`/`n`/`k` shape implies.
pub fn gemm_acc(m: usize, n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert!(a.len() >= m * k, "gemm_acc: A too small");
    assert!(b.len() >= k * n, "gemm_acc: B too small");
    assert!(c.len() >= m * n, "gemm_acc: C too small");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    const MR: usize = 4;
    let m_main = m - m % MR;
    // j-outer ordering: one k×NR strip of B stays cache-resident while
    // every row block of A streams against it. 24-wide tiles first, then
    // 8-wide tiles for the remainder, then a scalar-ish edge.
    let mut j0 = 0;
    while j0 + 24 <= n {
        gemm_tile::<MR, 24>(m_main, j0, n, k, alpha, a, b, c);
        j0 += 24;
    }
    while j0 + 8 <= n {
        gemm_tile::<MR, 8>(m_main, j0, n, k, alpha, a, b, c);
        j0 += 8;
    }
    // right edge (n % 8 columns) for the main row band
    if j0 < n {
        gemm_edge(0..m_main, j0, n, k, alpha, a, b, c);
    }
    // bottom edge (m % MR rows), full width
    if m_main < m {
        gemm_edge(m_main..m, 0, n, k, alpha, a, b, c);
    }
}

/// One `MR × W` register-tiled column strip of [`gemm_acc`].
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
#[inline]
fn gemm_tile<const MR: usize, const W: usize>(
    m_main: usize,
    j0: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i0 in (0..m_main).step_by(MR) {
        // register-resident accumulator block, held across the k loop
        let mut acc = [[0.0f64; W]; MR];
        for kk in 0..k {
            let brow = &b[kk * n + j0..kk * n + j0 + W];
            for (i, acci) in acc.iter_mut().enumerate() {
                let aik = a[(i0 + i) * k + kk];
                for (j, accij) in acci.iter_mut().enumerate() {
                    *accij += aik * brow[j];
                }
            }
        }
        for (i, acci) in acc.iter().enumerate() {
            let crow = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + W];
            for (cij, accij) in crow.iter_mut().zip(acci) {
                *cij += alpha * accij;
            }
        }
    }
}

/// Cleanup path of [`gemm_acc`]: axpy form over an arbitrary row range and
/// column window.
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
fn gemm_edge(
    rows: std::ops::Range<usize>,
    j0: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    for i in rows {
        for kk in 0..k {
            let aik = alpha * a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n + j0..kk * n + n];
            let crow = &mut c[i * n + j0..i * n + n];
            for (cij, bkj) in crow.iter_mut().zip(brow) {
                *cij += aik * bkj;
            }
        }
    }
}

/// y ← y + alpha x (BLAS axpy).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean dot product of two slices.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        let i = Mat::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_fn(4, 3, |i, j| (i as f64) - 2.0 * (j as f64));
        let x = vec![1.0, -1.0, 2.0];
        let xm = Mat::from_vec(3, 1, x.clone());
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for i in 0..4 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_involution_and_matvec_t() {
        let a = Mat::from_fn(3, 5, |i, j| ((i + 1) * (j + 2)) as f64);
        assert_eq!(a.transpose().transpose(), a);
        let x = vec![1.0, 2.0, 3.0];
        let y1 = a.matvec_t(&x);
        let y2 = a.transpose().matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-13);
        }
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Mat::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Mat::from_fn(3, 4, |i, j| (i as f64) * 0.5 - j as f64);
        let c = Mat::from_fn(4, 2, |i, j| 1.0 / ((i + j + 1) as f64));
        let l = a.matmul(&b).matmul(&c);
        let r = a.matmul(&b.matmul(&c));
        assert!((l.add_scaled(&r, -1.0)).frobenius_norm() < 1e-12);
    }

    #[test]
    fn blas_helpers() {
        let x = vec![1.0, 2.0, 2.0];
        assert!((norm2(&x) - 3.0).abs() < 1e-15);
        let mut y = vec![1.0, 1.0, 1.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 5.0]);
        assert!((dot(&x, &y) - (3.0 + 10.0 + 10.0)).abs() < 1e-15);
    }

    #[test]
    fn gemm_acc_matches_matmul() {
        let a = Mat::from_fn(7, 5, |i, j| (i as f64 + 1.0) * 0.3 - j as f64 * 0.7);
        let b = Mat::from_fn(5, 9, |i, j| (i * 9 + j) as f64 * 0.01 - 0.2);
        let reference = a.matmul(&b);
        // accumulate twice with alpha = 0.5 into a pre-filled C
        let mut c = Mat::from_fn(7, 9, |i, j| (i + j) as f64);
        let base = c.clone();
        for _ in 0..2 {
            gemm_acc(7, 9, 5, 0.5, &a.data, &b.data, &mut c.data);
        }
        let expect = base.add_scaled(&reference, 1.0);
        assert!(c.add_scaled(&expect, -1.0).frobenius_norm() < 1e-12);
    }

    #[test]
    fn gemm_acc_handles_tall_blocks() {
        // m not a multiple of the row-block size
        let m = 21;
        let k = 13;
        let n = 17;
        let a = Mat::from_fn(m, k, |i, j| ((i * k + j) % 7) as f64 - 3.0);
        let b = Mat::from_fn(k, n, |i, j| ((i * n + j) % 5) as f64 * 0.25);
        let mut c = vec![0.0; m * n];
        gemm_acc(m, n, k, 1.0, a.data(), b.data(), &mut c);
        // independent naive triple loop as the reference
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    acc += a[(i, l)] * b[(l, j)];
                }
                assert!((c[i * n + j] - acc).abs() < 1e-12);
            }
        }
    }

    /// Short-and-wide products (the cell self-operator's batched applies:
    /// a few force columns as rows of `A` against a long `B`) land on the
    /// register tiles for whole four-row bands and on the axpy edge for the
    /// rest. With `alpha = 1` into a zero `C` both must give, bit for bit,
    /// the sequential dot — signed zeros in `A` (which the edge skips)
    /// included.
    #[test]
    fn short_wide_matmul_is_the_sequential_dot_bitwise() {
        let k = 301;
        for m in [1, 2, 3, 5] {
            for n in [432, 544] {
                let a = Mat::from_fn(m, k, |i, l| match (i + l) % 7 {
                    0 => 0.0,
                    3 => -0.0,
                    _ => ((i * k + l) as f64 * 0.37).sin(),
                });
                let b = Mat::from_fn(k, n, |l, j| ((l * n + j) as f64 * 0.11).cos() * 1e-3);
                let c = a.matmul(&b);
                let bt = b.transpose();
                for i in 0..m {
                    let want = bt.matvec(a.row(i));
                    for j in 0..n {
                        assert_eq!(
                            c[(i, j)].to_bits(),
                            want[j].to_bits(),
                            "m = {m}, n = {n}, entry ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matvec_acc_accumulates() {
        let a = Mat::identity(3);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![1.0; 3];
        a.matvec_acc(&x, 2.0, &mut y);
        assert_eq!(y, vec![3.0, 5.0, 7.0]);
    }
}
