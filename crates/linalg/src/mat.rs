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
/// Register-tiled: the main band — the first `m − m % 4` rows and the
/// first `n − n % 8` columns — runs in tiles whose accumulators are held
/// across the full `k` loop, in 24-wide column strips and then 8-wide
/// ones. The rest (the right `n % 8` columns of the band, the bottom
/// `m % 4` rows at full width) runs in plain axpy form. This is the
/// workhorse behind [`Mat::matmul`] and every FMM translation, where `A`
/// is a block of gathered densities or check values and `B` a transposed
/// operator.
///
/// **Bit contract.** Every output element takes one of two rounding
/// sequences, chosen by its position alone, never by the tile shape, the
/// loop order or the build:
/// - a *tile* element: `acc = 0; acc += A[i,l]·B[l,j]` for `l = 0..k` in
///   order, then `C[i,j] += alpha·acc`;
/// - an *edge* element: `C[i,j] += (alpha·A[i,l])·B[l,j]` for `l = 0..k`
///   in order, skipping the `l` whose `alpha·A[i,l]` is zero.
///
/// Each product and each sum is rounded on its own (no FMA). So with
/// `alpha = 1` into a zeroed `C` and a finite `B`, both sequences give
/// every element the sequential dot `Σ_l A[i,l]·B[l,j]` bit for bit, and
/// splitting the rows of such a product into bands of any sizes changes
/// no bit. On AVX-512 builds the band runs an explicit microkernel (8×24
/// and 4×24 tiles, then 8×8 and 4×8), elsewhere 4×24 and 4×8 tiles as
/// portable loops; the two give the same bits.
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
    let m_main = m - m % 4;
    let n_main = n - n % 8;
    // j-outer ordering: one k×W strip of B stays cache-resident while
    // every row block of A streams against it.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    // SAFETY: the asserts above bound every tile inside A, B and C.
    unsafe {
        avx512::band(m_main, n, k, alpha, a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        let mut j0 = 0;
        while j0 + 24 <= n {
            gemm_tile::<4, 24>(m_main, j0, n, k, alpha, a, b, c);
            j0 += 24;
        }
        while j0 + 8 <= n {
            gemm_tile::<4, 8>(m_main, j0, n, k, alpha, a, b, c);
            j0 += 8;
        }
    }
    // right edge (n % 8 columns) for the main row band
    if n_main < n {
        gemm_edge(0..m_main, n_main, n, k, alpha, a, b, c);
    }
    // bottom edge (m % 4 rows), full width
    if m_main < m {
        gemm_edge(m_main..m, 0, n, k, alpha, a, b, c);
    }
}

/// The explicit AVX-512 microkernel of [`gemm_acc`]'s main band: each
/// accumulator a 512-bit register, `_mm512_mul_pd` then `_mm512_add_pd`
/// (never FMA), so every tile element rounds exactly as the portable
/// loops' `acc += a·b` and `c += alpha·acc`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod avx512 {
    use std::arch::x86_64::*;

    /// Every tile of the `m_main × (n − n % 8)` band: 24-wide column
    /// strips then 8-wide ones, each as 8-row tiles plus one 4-row tile
    /// when `m_main % 8 = 4`.
    ///
    /// # Safety
    /// `a`, `b`, `c` must hold `m_main·k`, `k·n` and `m_main·n` elements,
    /// and `m_main` must be a multiple of 4.
    #[inline]
    pub(super) unsafe fn band(
        m_main: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let m8 = m_main - m_main % 8;
        let mut j0 = 0;
        while j0 + 24 <= n {
            for i0 in (0..m8).step_by(8) {
                tile::<8, 3>(i0, j0, n, k, alpha, a, b, c);
            }
            if m8 < m_main {
                tile::<4, 3>(m8, j0, n, k, alpha, a, b, c);
            }
            j0 += 24;
        }
        while j0 + 8 <= n {
            for i0 in (0..m8).step_by(8) {
                tile::<8, 1>(i0, j0, n, k, alpha, a, b, c);
            }
            if m8 < m_main {
                tile::<4, 1>(m8, j0, n, k, alpha, a, b, c);
            }
            j0 += 8;
        }
    }

    /// One `MR × 8·NV` tile at rows `i0..`, columns `j0..`: `MR · NV`
    /// accumulator registers held across the `k` loop (24 for 8×24).
    ///
    /// # Safety
    /// The tile must lie inside `A` (`·×k`), `B` (`k×n`) and `C` (`·×n`).
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    #[inline(always)]
    unsafe fn tile<const MR: usize, const NV: usize>(
        i0: usize,
        j0: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: *const f64,
        b: *const f64,
        c: *mut f64,
    ) {
        let mut acc = [[_mm512_setzero_pd(); NV]; MR];
        let a0 = a.add(i0 * k);
        for kk in 0..k {
            let bp = b.add(kk * n + j0);
            let bv: [__m512d; NV] = std::array::from_fn(|v| _mm512_loadu_pd(bp.add(8 * v)));
            for (i, acci) in acc.iter_mut().enumerate() {
                let ai = _mm512_set1_pd(*a0.add(i * k + kk));
                for (accv, &bv) in acci.iter_mut().zip(&bv) {
                    *accv = _mm512_add_pd(*accv, _mm512_mul_pd(ai, bv));
                }
            }
        }
        let al = _mm512_set1_pd(alpha);
        for (i, acci) in acc.iter().enumerate() {
            let cp = c.add((i0 + i) * n + j0);
            for (v, &accv) in acci.iter().enumerate() {
                let cv = _mm512_loadu_pd(cp.add(8 * v));
                _mm512_storeu_pd(cp.add(8 * v), _mm512_add_pd(cv, _mm512_mul_pd(al, accv)));
            }
        }
    }
}

/// One `MR × W` register-tiled column strip of [`gemm_acc`]'s portable
/// main band.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
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

    /// [`gemm_acc`]'s bit contract stated as plain scalar loops: a tile
    /// element of the main band sums `A·B` into its own accumulator and
    /// adds `alpha` times that; an edge element adds `(alpha·A)·B` term by
    /// term, zero terms skipped.
    fn gemm_tile_edge_reference(
        (m, n, k): (usize, usize, usize),
        alpha: f64,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
    ) {
        let (m_main, n_main) = (m - m % 4, n - n % 8);
        for i in 0..m {
            for j in 0..n {
                let cij = &mut c[i * n + j];
                if i < m_main && j < n_main {
                    let mut acc = 0.0;
                    for l in 0..k {
                        acc += a[i * k + l] * b[l * n + j];
                    }
                    *cij += alpha * acc;
                } else {
                    for l in 0..k {
                        let ail = alpha * a[i * k + l];
                        if ail != 0.0 {
                            *cij += ail * b[l * n + j];
                        }
                    }
                }
            }
        }
    }

    /// An `m × k` block with `0.0` and `−0.0` entries among its values.
    fn signed_zero_block(m: usize, k: usize) -> Vec<f64> {
        (0..m * k)
            .map(|e| match e % 11 {
                0 => 0.0,
                5 => -0.0,
                _ => (e as f64 * 0.37).sin(),
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every shape of the grid — row counts on and off the 4- and 8-row
    /// tiles, column counts on and off the 8- and 24-wide strips, the FMM
    /// translation depths — into a pre-filled `C` with `alpha` 1 and 0.37
    /// gives the bits of the scalar tile/edge reference, on this build's
    /// microkernel.
    #[test]
    fn gemm_acc_is_the_tile_edge_split_bitwise() {
        let ms = (1..=13).chain([64]);
        for m in ms {
            for n in [1, 7, 8, 9, 23, 24, 25, 56, 168, 224] {
                for k in [1, 5, 168, 224] {
                    let a = signed_zero_block(m, k);
                    let b: Vec<f64> = (0..k * n).map(|e| (e as f64 * 0.11).cos()).collect();
                    let c0: Vec<f64> = (0..m * n).map(|e| (e as f64 * 0.7).sin() * 3.0).collect();
                    for alpha in [1.0, 0.37] {
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        gemm_acc(m, n, k, alpha, &a, &b, &mut got);
                        gemm_tile_edge_reference((m, n, k), alpha, &a, &b, &mut want);
                        assert_eq!(bits(&got), bits(&want), "m {m} n {n} k {k} alpha {alpha}");
                    }
                }
            }
        }
    }

    /// With `alpha = 1` into a zeroed `C`, any split of the rows into
    /// bands — so any mix of tile rows and edge rows — gives the same bits
    /// as the whole product and as the sequential dot of each row: the
    /// property the FMM's batched translations rely on.
    #[test]
    fn unit_alpha_products_are_row_band_invariant_bitwise() {
        let (m, k) = (29, 224);
        for n in [7, 56, 168, 224] {
            let a = signed_zero_block(m, k);
            let b: Vec<f64> = (0..k * n)
                .map(|e| (e as f64 * 0.013).cos() * 1e-2)
                .collect();
            let mut whole = vec![0.0; m * n];
            gemm_acc(m, n, k, 1.0, &a, &b, &mut whole);
            let bt = Mat::from_vec(k, n, b.clone()).transpose();
            for i in 0..m {
                let dot = bt.matvec(&a[i * k..(i + 1) * k]);
                assert_eq!(
                    bits(&whole[i * n..(i + 1) * n]),
                    bits(&dot),
                    "n {n} row {i}"
                );
            }
            for bands in [&[1, 3, 4, 5, 8, 8][..], &[2, 9, 13, 5], &[12, 17], &[29]] {
                assert_eq!(bands.iter().sum::<usize>(), m);
                let mut split = vec![0.0; m * n];
                let mut i0 = 0;
                for &rows in bands {
                    let (ab, cb) = (&a[i0 * k..], &mut split[i0 * n..]);
                    gemm_acc(rows, n, k, 1.0, ab, &b, cb);
                    i0 += rows;
                }
                assert_eq!(bits(&split), bits(&whole), "n {n} bands {bands:?}");
            }
        }
    }
}
