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
//! The upsampling factors as `U = B·A` (order-`p` analysis `A`, synthesis
//! `B` of those coefficients on the fine grid), and the operator is stored
//! as `K·B`: against the `(p+1)²` coefficients, not the `N_up` fine points
//! (`crates/vesicle/README.md`). The quadrature has one configuration, the
//! module's constants: 2× upsampling and `P_EXTRAP + 1 = 9` check points
//! from `R = 2h` in steps of `r = h`, `h` the fine grid's mean spacing.

use crate::geometry::{surface_geometry, SurfaceGeometry};
use linalg::{checkpoint_extrapolation_weights, Mat, Vec3};
use parking_lot::Mutex;
use sphharm::{RingProjection, SphBasis, SphCoeffs};
use std::collections::HashMap;
use std::sync::Arc;

/// Upsampling factor of the fine grid (the paper's 544 → 2,112 points at
/// p = 16).
const UPSAMPLE: usize = 2;
/// Extrapolation order: `P_EXTRAP + 1` check points per target.
const P_EXTRAP: usize = 8;
/// First check distance `R`, as a multiple of the fine grid's mean spacing.
const BIG_R: f64 = 2.0;
/// Check spacing `r`, as a multiple of the fine grid's mean spacing.
const SMALL_R: f64 = 1.0;

/// Process-wide cache of a geometry-independent spectral matrix.
type MatCache = Mutex<Option<HashMap<(usize, usize), Arc<Mat>>>>;
/// `(p, p_up)` → `Uᵀ`, see [`upsample_matrix_t`].
static UPSAMPLE_CACHE: MatCache = Mutex::new(None);
/// `(p, p)` → `Aᵀ`, see [`analysis_matrix_t`].
static ANALYSIS_CACHE: MatCache = Mutex::new(None);

fn cached(cache: &MatCache, key: (usize, usize), build: impl FnOnce() -> Mat) -> Arc<Mat> {
    let mut guard = cache.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry(key).or_insert_with(|| Arc::new(build())).clone()
}

/// Returns the *transpose* `Uᵀ` (`N × N_up`, coarse index major) of the
/// dense grid-to-grid spectral upsampling matrix from order `p` to order
/// `pu` (zero-padding in coefficient space, one scalar component).
///
/// Stored transposed so that every consumer runs along the contiguous fine
/// dimension: `U x` is `Uᵀ.matvec_t(x)`, a batch `U X` is `Xᵀ · Uᵀ` with
/// the columns of `X` as GEMM rows.
pub fn upsample_matrix_t(p: usize, pu: usize) -> Arc<Mat> {
    cached(&UPSAMPLE_CACHE, (p, pu), || {
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
        m
    })
}

/// Returns the *transpose* `Aᵀ` (`N × (p+1)²`, grid index major) of the
/// order-`p` analysis matrix (grid samples → packed coefficients, one
/// scalar component): the first factor of `U = B·A`, with `B` the
/// synthesis of order-`p` coefficients on the fine grid. Consumed like
/// [`upsample_matrix_t`].
fn analysis_matrix_t(p: usize) -> Arc<Mat> {
    cached(&ANALYSIS_CACHE, (p, p), || {
        let bp = SphBasis::new(p);
        let n = bp.grid_size();
        let mut m = Mat::zeros(n, (p + 1) * (p + 1));
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            m.row_mut(j).copy_from_slice(&bp.analyze(&e).data);
            e[j] = 0.0;
        }
        m
    })
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
    fn new(basis: &SphBasis, bu: &SphBasis, coeffs: &[SphCoeffs; 3]) -> Self {
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
        let big_r = BIG_R * h;
        let small_r = SMALL_R * h;
        CheckScheme {
            geo_c,
            geo_u,
            t: (0..=P_EXTRAP).map(|k| big_r + k as f64 * small_r).collect(),
            e: checkpoint_extrapolation_weights(big_r, small_r, P_EXTRAP, 0.0),
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
    /// The six distinct entries of every symmetric 3×3 block of `K·B`: the
    /// kernel-and-extrapolation matrix
    /// `K[(3i+a), (3j+b)] = Σ_k e_k S_ab(c_ik, y_j) w_j` over the fine
    /// points `j`, composed with the synthesis `B` of order-`p`
    /// coefficients on the fine grid. Coefficient major: row `6c + e`
    /// (`e` = `xx xy xz yy yz zz`) holds entry `e` of the blocks of
    /// coefficient `c` for all `N` targets `i`.
    blocks: Vec<f64>,
    /// Shared transposed analysis matrix `Aᵀ` (`N × (p+1)²`, per
    /// component).
    analysis_t: Arc<Mat>,
    n: usize,
    /// Coefficients per component, `(p+1)²`.
    nc: usize,
}

impl SelfInteraction {
    /// Builds the operator for a cell with the given position coefficients.
    pub fn build(basis: &SphBasis, coeffs: &[SphCoeffs; 3], mu: f64) -> SelfInteraction {
        let mut op = SelfInteraction {
            blocks: Vec::new(),
            analysis_t: analysis_matrix_t(basis.p),
            n: 0,
            nc: 0,
        };
        op.rebuild(basis, coeffs, mu);
        op
    }

    /// Re-assembles the operator for new position coefficients into this
    /// operator's own buffer — bitwise what [`SelfInteraction::build`]
    /// returns. Every entry is written once, so the buffer is reused
    /// without zeroing; it is reallocated only when `p` changed, after the
    /// old one is freed.
    ///
    /// `K` is assembled one block of targets and one fine latitude ring of
    /// sources at a time, and each such piece is projected onto the
    /// coefficients (the adjoint of the synthesis, [`RingProjection`]) as
    /// soon as it is assembled, so `K` itself never exists.
    pub fn rebuild(&mut self, basis: &SphBasis, coeffs: &[SphCoeffs; 3], mu: f64) {
        let bu = SphBasis::new(basis.p * UPSAMPLE);
        let CheckScheme { geo_c, geo_u, t, e } = CheckScheme::new(basis, &bu, coeffs);
        let n = basis.grid_size();
        let nc = (basis.p + 1) * (basis.p + 1);
        let p1 = t.len();
        if (self.n, self.nc) != (n, nc) {
            // free the old buffer first: never two operators for one cell
            self.blocks = Vec::new();
            self.blocks = vec![0.0; 6 * n * nc];
            self.analysis_t = analysis_matrix_t(basis.p);
            (self.n, self.nc) = (n, nc);
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
        // per source point y_j, the weights w_quad[j]·e_k
        let w: Vec<f64> = geo_u
            .w_quad
            .iter()
            .flat_map(|&wj| e.iter().map(move |ek| wj * ek))
            .collect();

        // one block of LANES targets at a time, one fine ring of sources
        // at a time: per source point the six entries are summed over the
        // check points k = 0..p in registers, one lane array per entry of
        // `ring`; the ring is then projected onto the coefficients, into
        // the block's rows of `K·B` (`(p+1)²` rows of six lane arrays),
        // and those are stored once
        let c = 1.0 / (8.0 * std::f64::consts::PI * mu);
        let mut proj = RingProjection::new(&bu, basis.p, 6 * LANES);
        let mut ring = vec![0.0; bu.nlon * 6 * LANES];
        let mut kb = vec![0.0; nc * 6 * LANES];
        for blk in 0..nb {
            for r in 0..bu.nlat {
                for (l, entries) in ring.chunks_exact_mut(6 * LANES).enumerate() {
                    let j = bu.grid_index(r, l);
                    let mut acc = [[0.0; LANES]; 6];
                    for (k, &wk) in w[j * p1..][..p1].iter().enumerate() {
                        stokeslet_lanes(&mut acc, &chk[k * nb + blk], geo_u.x[j], c, wk);
                    }
                    entries.copy_from_slice(acc.as_flattened());
                }
                proj.set_ring(r, &ring);
            }
            proj.project(&mut kb);
            let i0 = blk * LANES;
            let len = LANES.min(n - i0);
            for (row, lanes) in self.blocks.chunks_exact_mut(n).zip(kb.chunks_exact(LANES)) {
                row[i0..i0 + len].copy_from_slice(&lanes[..len]);
            }
        }
    }

    /// Adds the kernel stage `(K·B) a` to `out` for `k` coefficient
    /// columns: `coef` is `3k × (p+1)²` (row `c·k + col` holds component `c`
    /// of column `col`'s coefficients), `out` holds per column its three
    /// component planes of `N` targets. One pass over the operator for any
    /// `K`: per coefficient, its six rows serve every column. Each output
    /// entry adds the terms of coefficient entry `3c+b` in ascending order,
    /// skipping a zero multiplier — see "Summation-order contract" in
    /// `crates/vesicle/README.md`.
    fn apply_blocks(&self, coef: &[f64], k: usize, out: &mut [f64]) {
        let (n, nc) = (self.n, self.nc);
        assert_eq!(coef.len(), 3 * k * nc);
        assert_eq!(out.len(), 3 * k * n);
        for (c, rows) in self.blocks.chunks_exact(6 * n).enumerate() {
            let (xx, rows) = rows.split_at(n);
            let (xy, rows) = rows.split_at(n);
            let (xz, rows) = rows.split_at(n);
            let (yy, rows) = rows.split_at(n);
            let (yz, zz) = rows.split_at(n);
            for (col, planes) in out.chunks_exact_mut(3 * n).enumerate() {
                let f = [0, 1, 2].map(|b| coef[(b * k + col) * nc + c]);
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
        let (n, nc) = (self.n, self.nc);
        assert_eq!(f.len(), 3 * n);
        // analyze per component
        let mut coef = vec![0.0; 3 * nc];
        let mut comp = vec![0.0; n];
        for (c, row) in coef.chunks_exact_mut(nc).enumerate() {
            for i in 0..n {
                comp[i] = f[3 * i + c];
            }
            row.copy_from_slice(&self.analysis_t.matvec_t(&comp));
        }
        let mut planes = vec![0.0; 3 * n];
        self.apply_blocks(&coef, 1, &mut planes);
        (0..3 * n).map(|r| planes[(r % 3) * n + r / 3]).collect()
    }

    /// Applies `S_i` to a batch of `K` force-density columns at once
    /// (`3N × K`, each column xyz-interleaved on the coarse grid),
    /// returning the `3N × K` velocity columns. Same operator as
    /// [`SelfInteraction::apply`], bit for bit: the spectral analysis
    /// runs as one GEMM with the columns as rows of the left factor, and
    /// the kernel stage reads the operator once for all columns — this is
    /// what makes the collision pipeline's batched per-mesh mobility
    /// applies cheap.
    pub fn apply_many(&self, f_cols: &Mat) -> Mat {
        let n = self.n;
        assert_eq!(f_cols.rows(), 3 * n, "apply_many: column height");
        let k = f_cols.cols();
        // analyze: row c·K + col holds component c of column col
        let mut comp = Mat::zeros(3 * k, n);
        for i in 0..n {
            for c in 0..3 {
                for (col, &v) in f_cols.row(3 * i + c).iter().enumerate() {
                    comp[(c * k + col, i)] = v;
                }
            }
        }
        let coef = comp.matmul(&self.analysis_t);
        let mut planes = vec![0.0; 3 * n * k];
        self.apply_blocks(coef.data(), k, &mut planes);
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
    use std::f64::consts::PI;

    /// The row-major scalar assembly this module used before the operator
    /// was stored by symmetric blocks in coefficient space, kept as the
    /// oracle: `K` (`3N × 3N_up`) built entry by entry from
    /// `stokeslet_matrix`, composed with the upsampling `U`.
    struct RowMajorReference {
        k_mat: Mat,
        upsample: Mat,
    }

    impl RowMajorReference {
        fn build(basis: &SphBasis, coeffs: &[SphCoeffs; 3], mu: f64) -> Self {
            let pu = basis.p * UPSAMPLE;
            let bu = SphBasis::new(pu);
            let CheckScheme { geo_c, geo_u, t, e } = CheckScheme::new(basis, &bu, coeffs);
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

        /// The applied operator `K·U` (`3N × 3N`), `U` acting per component.
        fn applied(&self) -> Mat {
            let (nu, n) = (self.upsample.rows(), self.upsample.cols());
            let mut u3 = Mat::zeros(3 * nu, 3 * n);
            for j in 0..nu {
                for i in 0..n {
                    for c in 0..3 {
                        u3[(3 * j + c, 3 * i + c)] = self.upsample[(j, i)];
                    }
                }
            }
            self.k_mat.matmul(&u3)
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

    /// `max |got − want| / max |want|`.
    fn rel_err(got: &[f64], want: &[f64]) -> f64 {
        assert_eq!(got.len(), want.len());
        let diff = got.iter().zip(want).map(|(g, w)| (g - w).abs());
        let scale = want.iter().fold(0.0_f64, |m, w| m.max(w.abs()));
        diff.fold(0.0_f64, f64::max) / scale
    }

    /// `Bᵀ` (`(p+1)² × N_up`): row `c` is the unit order-`p` coefficient
    /// vector `c` synthesized on the order-`pu` grid.
    fn synthesis_matrix_t(p: usize, pu: usize) -> Mat {
        let bu = SphBasis::new(pu);
        let mut m = Mat::zeros((p + 1) * (p + 1), bu.grid_size());
        let mut c = SphCoeffs::zeros(p);
        for r in 0..m.rows() {
            c.data[r] = 1.0;
            m.row_mut(r)
                .copy_from_slice(&bu.synthesize(&c.resampled(pu), sphharm::Deriv::None));
            c.data[r] = 0.0;
        }
        m
    }

    /// The test cells: a biconcave cell at p = 8, a sphere at p = 6 (N = 84
    /// is not a multiple of LANES: the padded tail block) and a biconcave
    /// cell at p = 12.
    fn test_cells() -> Vec<(SphBasis, [SphCoeffs; 3], f64)> {
        [(8, 1.0), (6, 0.8), (12, 1.1)]
            .into_iter()
            .map(|(p, mu)| {
                let basis = SphBasis::new(p);
                let coeffs = if p == 6 {
                    sphere_coeffs(&basis, 1.3, Vec3::ZERO)
                } else {
                    biconcave_coeffs(&basis, 1.0, Vec3::new(0.3, -0.2, 0.1))
                };
                (basis, coeffs, mu)
            })
            .collect()
    }

    /// `K` force-density columns cycling through four kinds: generic, all
    /// zero, generic with `−0.0` entries, and purely along x (whose
    /// y and z coefficients are exactly 0, so the kernel skips
    /// them per component).
    fn test_columns(n: usize, k: usize) -> Mat {
        Mat::from_fn(3 * n, k, |i, c| match c % 4 {
            1 => 0.0,
            2 if i % 5 == 0 => -0.0,
            3 if i % 3 != 0 => 0.0,
            _ => ((i * 7 + c * 13) as f64 * 0.11).sin(),
        })
    }

    /// The spectral upsampling factors exactly as `U = B·A` (analysis at
    /// order p, synthesis of order-p coefficients on the fine grid): the
    /// identity the coefficient-space operator `K·B` rests on.
    #[test]
    fn upsampling_factors_into_analysis_then_synthesis() {
        for p in [6, 8, 12] {
            let u_t = upsample_matrix_t(p, 2 * p);
            let ab = analysis_matrix_t(p).matmul(&synthesis_matrix_t(p, 2 * p));
            let err = rel_err(ab.data(), u_t.data());
            assert!(err <= 1e-14, "p = {p}: Aᵀ·Bᵀ vs Uᵀ, relative {err:e}");
        }
    }

    /// Ring by ring, [`RingProjection`] sums to the dense product
    /// `Bᵀ X`, for field counts with and without a short SIMD tail and
    /// orders whose mode counts are and are not multiples of the DFT's
    /// register block. The reference builds `B` from its definition,
    /// `Q_n^m(θ_i)·norm_m` (read off `synthesize_at` at `φ = 0`) times
    /// `cos` / `sin` of `2π·((m·j) mod L)/L`: the grid's Fourier tables
    /// round `m·φ_j` itself, up to `m·2π`, an absolute error near 1e-14 at
    /// p = 12 that the projection's folds (which read the tables at
    /// `φ ≤ π/2` only) mostly avoid.
    #[test]
    fn ring_projection_matches_dense_synthesis_transpose() {
        // fine orders: 2p as the operator runs, an odd one (its ring has no
        // middle longitude) and the smallest grid (whose even sines fold to
        // nothing)
        for (p, pu, width) in [
            (6, 12, 13),
            (8, 16, 48),
            (10, 20, 21),
            (4, 9, 16),
            (2, 2, 5),
        ] {
            let bu = SphBasis::new(pu);
            let (nu, nlon) = (bu.grid_size(), bu.nlon);
            let nc = (p + 1) * (p + 1);
            let mut b_t = Mat::zeros(nc, nu);
            let mut unit = SphCoeffs::zeros(p);
            let mut c = 0;
            for m in 0..=p {
                for sine in [false, true].into_iter().take(if m == 0 { 1 } else { 2 }) {
                    for n in m..=p {
                        unit.set_a(n, m, 1.0);
                        let padded = unit.resampled(pu);
                        unit.set_a(n, m, 0.0);
                        for i in 0..bu.nlat {
                            let legendre = bu.synthesize_at(&padded, bu.theta[i], 0.0);
                            for j in 0..nlon {
                                let angle = 2.0 * PI * ((m * j) % nlon) as f64 / nlon as f64;
                                let trig = if sine { angle.sin() } else { angle.cos() };
                                b_t[(c, bu.grid_index(i, j))] = legendre * trig;
                            }
                        }
                        c += 1;
                    }
                }
            }
            let x = Mat::from_fn(nu, width, |j, f| ((j * 7 + f * 29) as f64 * 0.37).sin());
            let want = b_t.matmul(&x);
            let mut got = vec![0.0; nc * width];
            let mut proj = RingProjection::new(&bu, p, width);
            for (r, ring) in x.data().chunks_exact(bu.nlon * width).enumerate() {
                proj.set_ring(r, ring);
            }
            proj.project(&mut got);
            let err = rel_err(&got, want.data());
            assert!(
                err <= 1e-14,
                "p = {p}, p_up = {pu}, width {width}: relative {err:e}"
            );
        }
    }

    /// The operator holds six entries per (target, coefficient) pair,
    /// `6·N·(p+1)²` doubles, not per fine point.
    #[test]
    fn operator_stores_six_entries_per_target_and_coefficient() {
        for (basis, coeffs, mu) in test_cells() {
            let (n, p) = (basis.grid_size(), basis.p);
            let op = SelfInteraction::build(&basis, &coeffs, mu);
            assert_eq!(op.blocks.len(), 6 * n * (p + 1) * (p + 1), "p = {p}");
        }
    }

    /// `K·B` applied after the analysis is the linear map `K·U` of the
    /// row-major assembly, summed in another order: within 1e-13 relative
    /// over the whole `3N × 3N` operator.
    #[test]
    fn applied_operator_matches_row_major_reference() {
        for (basis, coeffs, mu) in test_cells() {
            let op = SelfInteraction::build(&basis, &coeffs, mu);
            let want = RowMajorReference::build(&basis, &coeffs, mu).applied();
            let got = op.apply_many(&Mat::identity(3 * basis.grid_size()));
            let err = rel_err(got.data(), want.data());
            assert!(err <= 1e-13, "p = {}: relative {err:e}", basis.p);
        }
    }

    /// A column's result does not depend on its batch-mates: every column
    /// of `apply_many` is, bit for bit, `apply` of that column — for every
    /// batch size through the analysis GEMM's edge rows, four-row tile
    /// bands and both, with zero, `−0.0` and x-only columns.
    #[test]
    fn apply_many_columns_match_apply_bitwise() {
        for (basis, coeffs, mu) in test_cells().into_iter().take(2) {
            let p = basis.p;
            let op = SelfInteraction::build(&basis, &coeffs, mu);
            let n = basis.grid_size();
            for k in 1..=25 {
                let cols = test_columns(n, k);
                let batched = op.apply_many(&cols);
                assert_eq!((batched.rows(), batched.cols()), (3 * n, k));
                for c in 0..k {
                    let f: Vec<f64> = (0..3 * n).map(|i| cols[(i, c)]).collect();
                    let got: Vec<f64> = (0..3 * n).map(|i| batched[(i, c)]).collect();
                    assert_bits_eq(
                        &got,
                        &op.apply(&f),
                        &format!("p = {p}, K = {k}, column {c}"),
                    );
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
        let basis = SphBasis::new(6);
        let coeffs = biconcave_coeffs(&basis, 1.0, Vec3::new(0.2, -0.1, 0.3));
        let fresh = SelfInteraction::build(&basis, &coeffs, 0.9);

        let mut same_p = SelfInteraction::build(
            &basis,
            &sphere_coeffs(&basis, 1.4, Vec3::new(1.0, 0.0, 0.0)),
            1.0,
        );
        let buffer = same_p.blocks.as_ptr();
        same_p.rebuild(&basis, &coeffs, 0.9);
        assert_eq!(same_p.blocks.as_ptr(), buffer, "same shape reuses");

        let coarse = SphBasis::new(4);
        let mut other_p =
            SelfInteraction::build(&coarse, &sphere_coeffs(&coarse, 1.0, Vec3::ZERO), 1.0);
        let coarse_len = other_p.blocks.len();
        other_p.rebuild(&basis, &coeffs, 0.9);
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
        let op = SelfInteraction::build(&basis, &coeffs, mu);
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
        let op = SelfInteraction::build(&basis, &coeffs, 1.0);
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
