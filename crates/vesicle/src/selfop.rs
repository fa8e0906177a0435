//! Singular self-interaction quadrature for the single-layer potential on a
//! cell surface.
//!
//! The paper evaluates `S_i f_i` on `γ_i` with the spectral rotation
//! quadrature of \[14, 48\] and the precomputed-operator variant of \[28\]. We
//! substitute the unified check-point scheme already used for the vessel
//! boundary (§3.1) — the QBX-style evaluation both build on: upsample the
//! density to the 2×-refined grid, evaluate the (now smooth) potential at
//! check points along the outward normal, and extrapolate back to the
//! surface. Like \[28\], the composed linear operator is precomputed per cell
//! per time step, so the many applications inside the implicit solve and
//! the LCP assembly are dense matvecs (MKL-style BLAS work in the paper).

use crate::geometry::{surface_geometry, SurfaceGeometry};
use linalg::{checkpoint_extrapolation_weights, Mat, Vec3};
use parking_lot::Mutex;
use sphharm::{SphBasis, SphCoeffs};
use std::collections::HashMap;
use std::sync::Arc;

/// Parameters of the self-interaction quadrature.
#[derive(Clone, Copy, Debug)]
pub struct SelfOpOptions {
    /// Upsampling factor for the fine grid (2 reproduces the paper's 544 →
    /// 2,112 points at p = 16).
    pub upsample: usize,
    /// Number of check points − 1.
    pub p_extrap: usize,
    /// First check distance as a multiple of the mean grid spacing.
    pub big_r: f64,
    /// Check spacing as a multiple of the mean grid spacing.
    pub small_r: f64,
}

impl Default for SelfOpOptions {
    fn default() -> Self {
        SelfOpOptions {
            upsample: 2,
            p_extrap: 8,
            big_r: 2.0,
            small_r: 1.0,
        }
    }
}

/// Process-wide cache of the (geometry-independent) transposed spectral
/// upsampling matrices `p → p_up`, see [`upsample_matrix_t`].
static UPSAMPLE_CACHE: Mutex<Option<UpsampleCache>> = Mutex::new(None);
/// `(p, p_up)` → `Uᵀ`.
type UpsampleCache = HashMap<(usize, usize), Arc<Mat>>;

/// Returns the *transpose* `Uᵀ` (`N × N_up`, coarse index major) of the
/// dense grid-to-grid spectral upsampling matrix from order `p` to order
/// `pu` (zero-padding in coefficient space, one scalar component).
///
/// Stored transposed so that every consumer runs along the contiguous fine
/// dimension: `U x` is `Uᵀ.matvec_t(x)`, a batch `U X` is `Xᵀ · Uᵀ` with
/// the columns of `X` as GEMM rows.
pub fn upsample_matrix_t(p: usize, pu: usize) -> Arc<Mat> {
    let key = (p, pu);
    let mut guard = UPSAMPLE_CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(m) = map.get(&key) {
        return m.clone();
    }
    let bp = SphBasis::new(p);
    let bu = SphBasis::new(pu);
    let n = bp.grid_size();
    let mut m = Mat::zeros(n, bu.grid_size());
    // rows of Uᵀ: the upsampled unit impulses at the coarse grid nodes
    let mut e = vec![0.0; n];
    for j in 0..n {
        e[j] = 1.0;
        let c = bp.analyze(&e).resampled(pu);
        m.row_mut(j)
            .copy_from_slice(&bu.synthesize(&c, sphharm::Deriv::None));
        e[j] = 0.0;
    }
    let arc = Arc::new(m);
    map.insert(key, arc.clone());
    arc
}

/// Everything the kernel assembly reads: both geometries, the check
/// distances `t_k = R + k·r` along the outward normal and their
/// extrapolation weights `e_k`.
struct CheckScheme {
    geo_c: SurfaceGeometry,
    geo_u: SurfaceGeometry,
    t: Vec<f64>,
    e: Vec<f64>,
}

impl CheckScheme {
    fn new(basis: &SphBasis, bu: &SphBasis, coeffs: &[SphCoeffs; 3], opts: SelfOpOptions) -> Self {
        // fine geometry (positions + quadrature weights)
        let cu: [SphCoeffs; 3] = [
            coeffs[0].resampled(bu.p),
            coeffs[1].resampled(bu.p),
            coeffs[2].resampled(bu.p),
        ];
        let geo_u = surface_geometry(bu, &cu);
        let geo_c = surface_geometry(basis, coeffs);
        // mean grid spacing of the fine grid: sqrt(area / N_up)
        let h = (geo_u.area() / bu.grid_size() as f64).sqrt();
        let big_r = opts.big_r * h;
        let small_r = opts.small_r * h;
        CheckScheme {
            geo_c,
            geo_u,
            t: (0..=opts.p_extrap)
                .map(|k| big_r + k as f64 * small_r)
                .collect(),
            e: checkpoint_extrapolation_weights(big_r, small_r, opts.p_extrap, 0.0),
        }
    }
}

/// Targets per SIMD block of the assembly (one AVX-512 vector of `f64`).
const LANES: usize = 8;

/// Adds to `acc` the six distinct entries (`xx xy xz yy yz zz`) of
/// `S(c_l, y)·w` for the `LANES` check points `c_l`, operation for
/// operation what `kernels::stokeslet_matrix` followed by `· w` computes
/// (`c` is its `1/(8πμ)`): the entries of the operator are pinned to the
/// bit, see "Summation-order contract" in `crates/vesicle/README.md`.
#[inline(always)]
fn stokeslet_lanes(
    acc: &mut [[f64; LANES]; 6],
    [cx, cy, cz]: &[[f64; LANES]; 3],
    y: Vec3,
    c: f64,
    w: f64,
) {
    for l in 0..LANES {
        let rx = cx[l] - y.x;
        let ry = cy[l] - y.y;
        let rz = cz[l] - y.z;
        let r2 = rx * rx + ry * ry + rz * rz;
        let rinv = 1.0 / r2.sqrt();
        let rinv3 = rinv / r2;
        // coincident points contribute a zero block (a select, so the lane
        // loop vectorizes)
        let (rinv, rinv3) = if r2 == 0.0 { (0.0, 0.0) } else { (rinv, rinv3) };
        acc[0][l] += c * (rinv + rx * rx * rinv3) * w;
        acc[1][l] += c * (0.0 + rx * ry * rinv3) * w;
        acc[2][l] += c * (0.0 + rx * rz * rinv3) * w;
        acc[3][l] += c * (rinv + ry * ry * rinv3) * w;
        acc[4][l] += c * (0.0 + ry * rz * rinv3) * w;
        acc[5][l] += c * (rinv + rz * rz * rinv3) * w;
    }
}

/// The precomputed self-interaction operator of one cell: applies
/// `f ↦ S_i f` (single-layer Stokes) from the coarse grid to the coarse
/// grid. Rebuilt whenever the cell geometry changes (once per time step),
/// in place by [`SelfInteraction::rebuild`] where the caller keeps the
/// previous operator.
pub struct SelfInteraction {
    /// The six distinct entries of every symmetric 3×3 block of the
    /// kernel-and-extrapolation matrix
    /// `K[(3i+a), (3j+b)] = Σ_k e_k S_ab(c_ik, y_j) w_j`, source point
    /// major: row `6j + e` (`e` = `xx xy xz yy yz zz`) holds entry `e` of
    /// the blocks of source `j` for all `N` targets `i`.
    blocks: Vec<f64>,
    /// Shared transposed spectral upsampling matrix (`N × N_up`, per
    /// component).
    upsample_t: Arc<Mat>,
    n: usize,
    nu: usize,
}

impl SelfInteraction {
    /// Builds the operator for a cell with the given position coefficients.
    pub fn build(
        basis: &SphBasis,
        coeffs: &[SphCoeffs; 3],
        mu: f64,
        opts: SelfOpOptions,
    ) -> SelfInteraction {
        let mut op = SelfInteraction {
            blocks: Vec::new(),
            upsample_t: upsample_matrix_t(basis.p, basis.p * opts.upsample),
            n: 0,
            nu: 0,
        };
        op.rebuild(basis, coeffs, mu, opts);
        op
    }

    /// Re-assembles the operator for new position coefficients into this
    /// operator's own buffer — bitwise what [`SelfInteraction::build`]
    /// returns. The assembly writes every entry, so the buffer is reused
    /// without zeroing; it is reallocated only when the shape (`p` or the
    /// upsampling factor) changed, after the old one is freed.
    pub fn rebuild(
        &mut self,
        basis: &SphBasis,
        coeffs: &[SphCoeffs; 3],
        mu: f64,
        opts: SelfOpOptions,
    ) {
        let pu = basis.p * opts.upsample;
        let bu = SphBasis::new(pu);
        let CheckScheme { geo_c, geo_u, t, e } = CheckScheme::new(basis, &bu, coeffs, opts);
        let n = basis.grid_size();
        let nu = bu.grid_size();
        let p1 = t.len();
        if (self.n, self.nu) != (n, nu) {
            // free the old buffer first: never two operators for one cell
            self.blocks = Vec::new();
            self.blocks = vec![0.0; 6 * n * nu];
            self.upsample_t = upsample_matrix_t(basis.p, pu);
            (self.n, self.nu) = (n, nu);
        }

        // exterior check points c_ik = x_i + n_i t_k, per k in blocks of
        // LANES targets, `[x, y, z]` lane arrays each (the tail block is
        // padded; its extra lanes are computed and never stored)
        let nb = n.div_ceil(LANES);
        let mut chk = vec![[[0.0; LANES]; 3]; p1 * nb];
        for (k, &tk) in t.iter().enumerate() {
            for i in 0..n {
                let c = geo_c.x[i] + geo_c.normal[i] * tk;
                let block = &mut chk[k * nb + i / LANES];
                block[0][i % LANES] = c.x;
                block[1][i % LANES] = c.y;
                block[2][i % LANES] = c.z;
            }
        }

        // one source point (six rows) at a time: per block of targets the
        // six entries are summed over the check points k = 0..p in
        // registers and stored once, one lane array per row
        let c = 1.0 / (8.0 * std::f64::consts::PI * mu);
        let mut w = vec![0.0; p1];
        for (j, rows) in self.blocks.chunks_exact_mut(6 * n).enumerate() {
            let y = geo_u.x[j];
            for (wk, ek) in w.iter_mut().zip(&e) {
                *wk = geo_u.w_quad[j] * ek;
            }
            for blk in 0..nb {
                let mut acc = [[0.0; LANES]; 6];
                for (k, &wk) in w.iter().enumerate() {
                    stokeslet_lanes(&mut acc, &chk[k * nb + blk], y, c, wk);
                }
                let i0 = blk * LANES;
                let len = LANES.min(n - i0);
                for (row, lanes) in rows.chunks_exact_mut(n).zip(&acc) {
                    row[i0..i0 + len].copy_from_slice(&lanes[..len]);
                }
            }
        }
    }

    /// Adds the kernel stage `K u` to `out` for `k` upsampled columns: `up`
    /// is `3k × N_up` (row `c·k + col` holds component `c` of column `col`
    /// on the fine grid), `out` holds per column its three component planes
    /// of `N` targets. One pass over the operator for any `K`: per source point,
    /// its six rows serve every column. Each output entry adds the terms of
    /// source entry `3j+b` in ascending order, skipping a zero multiplier —
    /// see "Summation-order contract" in `crates/vesicle/README.md`.
    fn apply_blocks(&self, up: &[f64], k: usize, out: &mut [f64]) {
        let (n, nu) = (self.n, self.nu);
        assert_eq!(up.len(), 3 * k * nu);
        assert_eq!(out.len(), 3 * k * n);
        for (j, rows) in self.blocks.chunks_exact(6 * n).enumerate() {
            let (xx, rows) = rows.split_at(n);
            let (xy, rows) = rows.split_at(n);
            let (xz, rows) = rows.split_at(n);
            let (yy, rows) = rows.split_at(n);
            let (yz, zz) = rows.split_at(n);
            for (col, planes) in out.chunks_exact_mut(3 * n).enumerate() {
                let f = [0, 1, 2].map(|b| up[(b * k + col) * nu + j]);
                let (ox, planes) = planes.split_at_mut(n);
                let (oy, oz) = planes.split_at_mut(n);
                if f.iter().all(|&fb| fb != 0.0) {
                    // all three terms, in b order, in one pass
                    let [fx, fy, fz] = f;
                    for i in 0..n {
                        ox[i] = ox[i] + xx[i] * fx + xy[i] * fy + xz[i] * fz;
                        oy[i] = oy[i] + xy[i] * fx + yy[i] * fy + yz[i] * fz;
                        oz[i] = oz[i] + xz[i] * fx + yz[i] * fy + zz[i] * fz;
                    }
                } else {
                    // the block's column b, for each nonzero component
                    let cols = [[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]];
                    for (fb, [sx, sy, sz]) in f.into_iter().zip(cols) {
                        if fb == 0.0 {
                            continue;
                        }
                        for i in 0..n {
                            ox[i] += sx[i] * fb;
                            oy[i] += sy[i] * fb;
                            oz[i] += sz[i] * fb;
                        }
                    }
                }
            }
        }
    }

    /// Applies `S_i` to a force density on the coarse grid (xyz-interleaved,
    /// `3N` entries), returning the velocity on the coarse grid.
    pub fn apply(&self, f: &[f64]) -> Vec<f64> {
        let (n, nu) = (self.n, self.nu);
        assert_eq!(f.len(), 3 * n);
        // upsample per component
        let mut up = vec![0.0; 3 * nu];
        let mut comp = vec![0.0; n];
        for (c, row) in up.chunks_exact_mut(nu).enumerate() {
            for i in 0..n {
                comp[i] = f[3 * i + c];
            }
            row.copy_from_slice(&self.upsample_t.matvec_t(&comp));
        }
        let mut planes = vec![0.0; 3 * n];
        self.apply_blocks(&up, 1, &mut planes);
        (0..3 * n).map(|r| planes[(r % 3) * n + r / 3]).collect()
    }

    /// Applies `S_i` to a batch of `K` force-density columns at once
    /// (`3N × K`, each column xyz-interleaved on the coarse grid),
    /// returning the `3N × K` velocity columns. Same operator as
    /// [`SelfInteraction::apply`], bit for bit: the spectral upsampling
    /// runs as one GEMM with the columns as rows of the left factor, and
    /// the kernel stage reads the operator once for all columns — this is
    /// what makes the collision pipeline's batched per-mesh mobility
    /// applies cheap.
    pub fn apply_many(&self, f_cols: &Mat) -> Mat {
        let n = self.n;
        assert_eq!(f_cols.rows(), 3 * n, "apply_many: column height");
        let k = f_cols.cols();
        // upsample: row c·K + col holds component c of column col
        let mut comp = Mat::zeros(3 * k, n);
        for i in 0..n {
            for c in 0..3 {
                for (col, &v) in f_cols.row(3 * i + c).iter().enumerate() {
                    comp[(c * k + col, i)] = v;
                }
            }
        }
        let up = comp.matmul(&self.upsample_t);
        let mut planes = vec![0.0; 3 * n * k];
        self.apply_blocks(up.data(), k, &mut planes);
        Mat::from_fn(3 * n, k, |r, col| planes[(3 * col + r % 3) * n + r / 3])
    }

    /// Coarse grid size N.
    pub fn grid_size(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{biconcave_coeffs, sphere_coeffs};
    use kernels::stokeslet_matrix;

    /// The row-major scalar assembly this module used before the operator
    /// was stored by symmetric blocks, kept as the bit-for-bit oracle: `K`
    /// built entry by entry from `stokeslet_matrix`, both stages applied as
    /// sequential dots (`Mat::matvec`).
    struct RowMajorReference {
        k_mat: Mat,
        upsample: Mat,
    }

    impl RowMajorReference {
        fn build(basis: &SphBasis, coeffs: &[SphCoeffs; 3], mu: f64, opts: SelfOpOptions) -> Self {
            let pu = basis.p * opts.upsample;
            let bu = SphBasis::new(pu);
            let CheckScheme { geo_c, geo_u, t, e } = CheckScheme::new(basis, &bu, coeffs, opts);
            let (n, nu) = (basis.grid_size(), bu.grid_size());
            let mut k_mat = Mat::zeros(3 * n, 3 * nu);
            for i in 0..n {
                for (&tk, &ek) in t.iter().zip(&e) {
                    let c = geo_c.x[i] + geo_c.normal[i] * tk;
                    for j in 0..nu {
                        let s = stokeslet_matrix(c, geo_u.x[j], mu);
                        let w = geo_u.w_quad[j] * ek;
                        for a in 0..3 {
                            for b in 0..3 {
                                k_mat[(3 * i + a, 3 * j + b)] += s[a][b] * w;
                            }
                        }
                    }
                }
            }
            RowMajorReference {
                k_mat,
                upsample: upsample_matrix_t(basis.p, pu).transpose(),
            }
        }

        fn apply(&self, f: &[f64]) -> Vec<f64> {
            let (nu, n) = (self.upsample.rows(), self.upsample.cols());
            let mut fu = vec![0.0; 3 * nu];
            for c in 0..3 {
                let comp: Vec<f64> = (0..n).map(|i| f[3 * i + c]).collect();
                for (j, v) in self.upsample.matvec(&comp).into_iter().enumerate() {
                    fu[3 * j + c] = v;
                }
            }
            self.k_mat.matvec(&fu)
        }
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}, entry {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// `K` (`3N × 3N_up`) expanded from the six stored entries per block.
    fn expanded(op: &SelfInteraction) -> Mat {
        const ENTRY: [[usize; 3]; 3] = [[0, 1, 2], [1, 3, 4], [2, 4, 5]];
        let n = op.n;
        Mat::from_fn(3 * n, 3 * op.nu, |r, s| {
            op.blocks[(6 * (s / 3) + ENTRY[r % 3][s % 3]) * n + r / 3]
        })
    }

    /// `K` force-density columns cycling through four kinds: generic, all
    /// zero, generic with `−0.0` entries, and purely along x (whose
    /// upsampled y and z components are exactly 0, so the kernel skips
    /// them per component).
    fn test_columns(n: usize, k: usize) -> Mat {
        Mat::from_fn(3 * n, k, |i, c| match c % 4 {
            1 => 0.0,
            2 if i % 5 == 0 => -0.0,
            3 if i % 3 != 0 => 0.0,
            _ => ((i * 7 + c * 13) as f64 * 0.11).sin(),
        })
    }

    #[test]
    fn symmetric_blocks_match_row_major_reference_bitwise() {
        for (p, mu) in [(8, 1.0), (6, 0.8)] {
            let basis = SphBasis::new(p);
            let coeffs = if p == 8 {
                biconcave_coeffs(&basis, 1.0, Vec3::new(0.3, -0.2, 0.1))
            } else {
                // N = 84 is not a multiple of LANES: the padded tail block
                sphere_coeffs(&basis, 1.3, Vec3::ZERO)
            };
            let opts = SelfOpOptions::default();
            let op = SelfInteraction::build(&basis, &coeffs, mu, opts);
            let reference = RowMajorReference::build(&basis, &coeffs, mu, opts);
            assert_bits_eq(
                expanded(&op).data(),
                reference.k_mat.data(),
                &format!("p = {p}: kernel matrix"),
            );
            let n = basis.grid_size();
            // the upsampling GEMM's 3K rows: edge rows only, edge rows
            // beside a four-row tile band, whole bands
            for k in [1, 2, 3, 4, 5, 7, 8, 9, 25] {
                let cols = test_columns(n, k);
                let batched = op.apply_many(&cols);
                assert_eq!((batched.rows(), batched.cols()), (3 * n, k));
                for c in 0..k {
                    let f: Vec<f64> = (0..3 * n).map(|i| cols[(i, c)]).collect();
                    let want = reference.apply(&f);
                    let what = format!("p = {p}, K = {k}, column {c}");
                    assert_bits_eq(&op.apply(&f), &want, &format!("{what}: apply"));
                    let got: Vec<f64> = (0..3 * n).map(|i| batched[(i, c)]).collect();
                    assert_bits_eq(&got, &want, &format!("{what}: apply_many"));
                }
            }
        }
    }

    /// `rebuild` over a buffer last used for another cell (same `p`: the
    /// buffer is reused, not zeroed) or for another `p` (reallocated) is, bit
    /// for bit, a fresh `build`: in the stored blocks, `apply` and
    /// `apply_many`.
    #[test]
    fn operator_rebuilt_in_place_matches_a_fresh_build_bitwise() {
        let opts = SelfOpOptions::default();
        let basis = SphBasis::new(6);
        let coeffs = biconcave_coeffs(&basis, 1.0, Vec3::new(0.2, -0.1, 0.3));
        let fresh = SelfInteraction::build(&basis, &coeffs, 0.9, opts);

        let mut same_p = SelfInteraction::build(
            &basis,
            &sphere_coeffs(&basis, 1.4, Vec3::new(1.0, 0.0, 0.0)),
            1.0,
            opts,
        );
        let buffer = same_p.blocks.as_ptr();
        same_p.rebuild(&basis, &coeffs, 0.9, opts);
        assert_eq!(same_p.blocks.as_ptr(), buffer, "same shape reuses");

        let coarse = SphBasis::new(4);
        let mut other_p =
            SelfInteraction::build(&coarse, &sphere_coeffs(&coarse, 1.0, Vec3::ZERO), 1.0, opts);
        let coarse_len = other_p.blocks.len();
        other_p.rebuild(&basis, &coeffs, 0.9, opts);
        assert_ne!(other_p.blocks.len(), coarse_len, "other shape reallocates");

        let n = basis.grid_size();
        for (op, what) in [(&same_p, "same p"), (&other_p, "other p")] {
            assert_eq!(op.grid_size(), n);
            assert_bits_eq(&op.blocks, &fresh.blocks, &format!("{what}: blocks"));
            for k in [1, 3, 9] {
                let cols = Mat::from_fn(3 * n, k, |i, c| ((i * 3 + c * 17) as f64 * 0.13).cos());
                assert_bits_eq(
                    op.apply_many(&cols).data(),
                    fresh.apply_many(&cols).data(),
                    &format!("{what}, K = {k}: apply_many"),
                );
                for c in 0..k {
                    let f: Vec<f64> = (0..3 * n).map(|i| cols[(i, c)]).collect();
                    assert_bits_eq(
                        &op.apply(&f),
                        &fresh.apply(&f),
                        &format!("{what}, K = {k}, column {c}: apply"),
                    );
                }
            }
        }
    }

    #[test]
    fn upsample_matrix_reproduces_bandlimited() {
        let (p, pu) = (6, 12);
        let m = upsample_matrix_t(p, pu);
        let bp = SphBasis::new(p);
        let bu = SphBasis::new(pu);
        let mut c = SphCoeffs::zeros(p);
        c.set_a(2, 1, 0.7);
        c.set_b(3, 2, -0.4);
        let coarse = bp.synthesize(&c, sphharm::Deriv::None);
        let fine = m.matvec_t(&coarse);
        let exact = bu.synthesize(&c.resampled(pu), sphharm::Deriv::None);
        for (u, v) in fine.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn translating_sphere_identity() {
        // single layer of the uniform Stokes-drag traction on a sphere of
        // radius a gives the rigid translation velocity U on the surface:
        // t = 3μU/(2a)  ⇒  S[t] = U.
        let p = 12;
        let a = 1.3;
        let mu = 0.8;
        let basis = SphBasis::new(p);
        let coeffs = sphere_coeffs(&basis, a, Vec3::ZERO);
        let op = SelfInteraction::build(&basis, &coeffs, mu, SelfOpOptions::default());
        let n = basis.grid_size();
        let u_ref = Vec3::new(0.3, -1.0, 0.5);
        let t = u_ref * (3.0 * mu / (2.0 * a));
        let mut f = vec![0.0; 3 * n];
        for i in 0..n {
            f[3 * i] = t.x;
            f[3 * i + 1] = t.y;
            f[3 * i + 2] = t.z;
        }
        let u = op.apply(&f);
        let mut max_err = 0.0_f64;
        for i in 0..n {
            let got = Vec3::new(u[3 * i], u[3 * i + 1], u[3 * i + 2]);
            max_err = max_err.max((got - u_ref).norm());
        }
        // accuracy is limited by the extrapolation span relative to the
        // surface curvature scale; it tightens with the grid (≈1e-5 at the
        // production p = 16)
        assert!(
            max_err < 2.5e-3 * u_ref.norm(),
            "translating-sphere error {max_err}"
        );
    }

    #[test]
    fn operator_is_linear_and_symmetricish() {
        let p = 8;
        let basis = SphBasis::new(p);
        let coeffs = sphere_coeffs(&basis, 1.0, Vec3::ZERO);
        let op = SelfInteraction::build(&basis, &coeffs, 1.0, SelfOpOptions::default());
        let n = basis.grid_size();
        let f1: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.17).sin()).collect();
        let f2: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.05).cos()).collect();
        let u1 = op.apply(&f1);
        let u2 = op.apply(&f2);
        let fsum: Vec<f64> = f1.iter().zip(&f2).map(|(a, b)| a + 2.0 * b).collect();
        let usum = op.apply(&fsum);
        for i in 0..3 * n {
            assert!((usum[i] - u1[i] - 2.0 * u2[i]).abs() < 1e-10);
        }
    }
}
