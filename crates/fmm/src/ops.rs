//! Precomputed translation operators for the kernel-independent FMM.
//!
//! All operators are built once per (equivalent kernel, surface order) pair
//! at *unit scale* (box half-width 1) and rescaled across levels using the
//! kernel's homogeneity degree, exactly as PVFMM does for scale-invariant
//! kernels. A process-wide cache keeps them across FMM instances — the
//! octree changes every time step of a simulation, the operators never do.
//!
//! Contents:
//! - `uc2ue`: pseudo-inverse mapping upward-check values to upward
//!   equivalent densities (regularized SVD, the ill-conditioned first-kind
//!   solve at the heart of KIFMM);
//! - `dc2de`: the downward counterpart;
//! - `m2m[o]`/`l2l[o]`: per-octant composed translation matrices
//!   (scale-invariant, so one set serves all levels);
//! - `m2l[(dx,dy,dz)]`: dense check-value translation matrices for the 316
//!   well-separated same-level offsets.

use crate::surface::{cube_surface, RAD_INNER, RAD_OUTER};
use kernels::Kernel;
use linalg::{Mat, Svd, Vec3};
use parking_lot::Mutex;
use rayon::par;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Relative SVD truncation for the equivalent-density pseudo-inverses.
pub const PINV_TOL: f64 = 1e-10;

/// Number of M2L translation-offset classes: all `(dx,dy,dz)` with
/// components in `[-3, 3]`, indexed densely (316 of the 343 slots are
/// valid V-list offsets; the 27 near-field slots stay empty).
pub const M2L_CLASSES: usize = 343;

/// Dense index of an M2L translation offset. Returns `None` for offsets
/// outside the `[-3, 3]` cube (cannot occur for a valid V list).
#[inline]
pub fn m2l_class(dx: i8, dy: i8, dz: i8) -> Option<usize> {
    if dx.abs() > 3 || dy.abs() > 3 || dz.abs() > 3 {
        return None;
    }
    Some((((dx + 3) as usize * 7) + (dy + 3) as usize) * 7 + (dz + 3) as usize)
}

/// The full operator set at unit scale. See the module docs.
pub struct FmmOperators {
    /// Surface order (points per cube edge).
    pub p: usize,
    /// Density components per equivalent-surface point (4 for the
    /// augmented Stokes kernel, 3 plain Stokes, 1 Laplace).
    pub sdim: usize,
    /// Value components per check-surface point (3 Stokes, 1 Laplace).
    pub vdim: usize,
    /// Points on each auxiliary surface.
    pub n_surf: usize,
    /// Homogeneity degree of the equivalent kernel.
    pub deg: f64,
    /// Upward check values → upward equivalent density (unit scale).
    pub uc2ue: Mat,
    /// Downward check values → downward equivalent density (unit scale).
    pub dc2de: Mat,
    /// Composed child-equivalent → parent-equivalent, per child octant.
    pub m2m: Vec<Mat>,
    /// Composed parent-equivalent → child-equivalent, per child octant.
    pub l2l: Vec<Mat>,
    /// **Transposed** source-equivalent → target-check translation
    /// operators, indexed by [`m2l_class`]. Stored transposed
    /// (`nd_eq × nd_chk`) so the batched level-wise M2L pass can gather a
    /// block of source densities as rows and dispatch one row-major GEMM
    /// per class: `Check_rowsᵀ += Equiv_rowsᵀ · Kᵀ`.
    pub m2l_t: Vec<Option<Mat>>,
    /// Per-component storage-scale exponents of the equivalent kernel.
    pub scale_exps: Vec<i32>,
}

/// Dense kernel interaction matrix: maps the stacked source data (source
/// major, `src_dim` each) to stacked target values (`trg_dim` each).
pub fn kernel_matrix<K: Kernel>(kernel: &K, srcs: &[Vec3], trgs: &[Vec3]) -> Mat {
    let sd = kernel.src_dim();
    let td = kernel.trg_dim();
    let mut m = Mat::zeros(trgs.len() * td, srcs.len() * sd);
    let mut unit = vec![0.0; sd];
    let mut out = vec![0.0; td];
    for (j, &s) in srcs.iter().enumerate() {
        for b in 0..sd {
            unit.iter_mut().for_each(|v| *v = 0.0);
            unit[b] = 1.0;
            for (i, &t) in trgs.iter().enumerate() {
                out.iter_mut().for_each(|v| *v = 0.0);
                kernel.eval_acc(t, s, &unit, &mut out);
                for (a, &val) in out.iter().enumerate() {
                    m[(i * td + a, j * sd + b)] = val;
                }
            }
        }
    }
    m
}

/// Kernel matrix for a density living on a surface of half-width `h_src`:
/// columns are scaled by `h_src^{e_j}` per the kernel's
/// [`Kernel::src_scale_exponents`] storage convention.
pub fn kernel_matrix_scaled<K: Kernel>(
    kernel: &K,
    srcs: &[Vec3],
    trgs: &[Vec3],
    h_src: f64,
) -> Mat {
    let mut m = kernel_matrix(kernel, srcs, trgs);
    let exps = kernel.src_scale_exponents();
    if exps.iter().any(|&e| e != 0) {
        let sd = kernel.src_dim();
        for i in 0..m.rows() {
            let row = m.row_mut(i);
            for (j, val) in row.iter_mut().enumerate() {
                let e = exps[j % sd];
                if e != 0 {
                    *val *= h_src.powi(e);
                }
            }
        }
    }
    m
}

fn child_center(octant: usize) -> Vec3 {
    Vec3::new(
        if octant & 1 == 0 { -0.5 } else { 0.5 },
        if octant & 2 == 0 { -0.5 } else { 0.5 },
        if octant & 4 == 0 { -0.5 } else { 0.5 },
    )
}

impl FmmOperators {
    /// Builds the operator set for the given equivalent kernel and order,
    /// truncating the pseudo-inverses at [`PINV_TOL`].
    pub fn build<K: Kernel>(eq_kernel: &K, p: usize) -> FmmOperators {
        let sdim = eq_kernel.src_dim();
        let vdim = eq_kernel.trg_dim();
        let deg = eq_kernel.scale_invariance();

        let ue = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let uc = cube_surface(p, Vec3::ZERO, RAD_OUTER);
        let n_surf = ue.len();

        // pseudo-inverses at unit scale
        let k_ue2uc = kernel_matrix(eq_kernel, &ue, &uc);
        let uc2ue = Svd::new(&k_ue2uc).pseudo_inverse(PINV_TOL);
        // downward: equivalent on the outer surface, check on the inner
        let de = cube_surface(p, Vec3::ZERO, RAD_OUTER);
        let dc = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let k_de2dc = kernel_matrix(eq_kernel, &de, &dc);
        let dc2de = Svd::new(&k_de2dc).pseudo_inverse(PINV_TOL);

        // composed M2M / L2L per octant; both are invariant under global
        // rescaling (kernel factor s^deg in K cancels s^{-deg} in the
        // pseudo-inverse), so one set serves every level.
        let child_scale = 0.5_f64;
        let m2m: Vec<Mat> = par::map_indexed(8, |o| {
            let cc = child_center(o);
            let ceq = cube_surface(p, cc, RAD_INNER * child_scale);
            let k = kernel_matrix_scaled(eq_kernel, &ceq, &uc, child_scale);
            uc2ue.matmul(&k)
        });
        let l2l: Vec<Mat> = par::map_indexed(8, |o| {
            let cc = child_center(o);
            let cchk = cube_surface(p, cc, RAD_INNER * child_scale);
            let k = kernel_matrix(eq_kernel, &de, &cchk);
            // compose with the child's own pseudo-inverse at half scale
            let cde = cube_surface(p, cc, RAD_OUTER * child_scale);
            let k_cde2cdc = kernel_matrix_scaled(eq_kernel, &cde, &cchk, child_scale);
            Svd::new(&k_cde2cdc).pseudo_inverse(PINV_TOL).matmul(&k)
        });

        // M2L offsets: same-level boxes with center offsets 2·(dx,dy,dz),
        // non-adjacent (max |d| ≥ 2), |d| ≤ 3. Stored transposed, densely
        // indexed by class (see `m2l_class`).
        let mut offsets = Vec::new();
        for dz in -3i8..=3 {
            for dy in -3i8..=3 {
                for dx in -3i8..=3 {
                    if dx.abs().max(dy.abs()).max(dz.abs()) >= 2 {
                        offsets.push((dx, dy, dz));
                    }
                }
            }
        }
        let mats: Vec<Mat> = par::map_indexed(offsets.len(), |i| {
            let (dx, dy, dz) = offsets[i];
            let src_center = Vec3::new(2.0 * dx as f64, 2.0 * dy as f64, 2.0 * dz as f64);
            let seq = cube_surface(p, src_center, RAD_INNER);
            kernel_matrix(eq_kernel, &seq, &dc).transpose()
        });
        let mut m2l_t: Vec<Option<Mat>> = (0..M2L_CLASSES).map(|_| None).collect();
        for ((dx, dy, dz), mat) in offsets.into_iter().zip(mats) {
            m2l_t[m2l_class(dx, dy, dz).unwrap()] = Some(mat);
        }

        FmmOperators {
            p,
            sdim,
            vdim,
            n_surf,
            deg,
            uc2ue,
            dc2de,
            m2m,
            l2l,
            m2l_t,
            scale_exps: eq_kernel.src_scale_exponents(),
        }
    }
}

type CacheKey = (&'static str, u64, usize);
static OPS_CACHE: Mutex<Option<HashMap<CacheKey, Arc<FmmOperators>>>> = Mutex::new(None);
static OPS_BUILDS: AtomicU64 = AtomicU64::new(0);
static OPS_HITS: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide operator-cache counters (monotone since process
/// start). Consumers that want per-window telemetry (e.g. the driver's
/// batch farm) snapshot before/after and subtract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpsCacheStats {
    /// Cold operator-set builds ([`FmmOperators::build`] actually ran).
    pub builds: u64,
    /// Lookups served from the shared cache without rebuilding.
    pub hits: u64,
}

/// Snapshot of the [`cached_operators`] hit/build counters.
pub fn ops_cache_stats() -> OpsCacheStats {
    OpsCacheStats {
        builds: OPS_BUILDS.load(Ordering::Relaxed),
        hits: OPS_HITS.load(Ordering::Relaxed),
    }
}

/// Returns (building if needed) the cached operator set for this kernel and
/// order. Thread-safe; the build runs outside the cache lock would risk
/// duplicate work, so it is kept inside — builds are rare and idempotent.
pub fn cached_operators<K: Kernel>(eq_kernel: &K, p: usize) -> Arc<FmmOperators> {
    let key: CacheKey = (eq_kernel.name(), eq_kernel.param_bits(), p);
    let mut guard = OPS_CACHE.lock();
    let map = guard.get_or_insert_with(HashMap::new);
    if let Some(ops) = map.get(&key) {
        OPS_HITS.fetch_add(1, Ordering::Relaxed);
        return ops.clone();
    }
    let ops = Arc::new(FmmOperators::build(eq_kernel, p));
    OPS_BUILDS.fetch_add(1, Ordering::Relaxed);
    map.insert(key, ops.clone());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{direct_eval_serial, LaplaceSL, StokesSL};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The equivalent-density round trip: sources inside a unit box must be
    /// representable on the upward equivalent surface such that the far
    /// field matches.
    #[test]
    fn upward_equivalent_reproduces_far_field_laplace() {
        let kernel = LaplaceSL;
        let p = 6;
        let ops = FmmOperators::build(&kernel, p);
        let mut rng = StdRng::seed_from_u64(3);
        // sources inside the unit box
        let srcs: Vec<Vec3> = (0..30)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-0.9..0.9),
                    rng.random_range(-0.9..0.9),
                    rng.random_range(-0.9..0.9),
                )
            })
            .collect();
        let data: Vec<f64> = (0..30).map(|_| rng.random_range(-1.0..1.0)).collect();
        // S2M: evaluate at upward check surface, solve for equivalent density
        let uc = cube_surface(p, Vec3::ZERO, RAD_OUTER);
        let mut check = vec![0.0; uc.len()];
        direct_eval_serial(&kernel, &srcs, &data, &uc, &mut check);
        let equiv = ops.uc2ue.matvec(&check);
        // far targets (outside 3h): equivalent field must match the true
        // field to ~1e-6 of the cancellation-free field scale Σ|q| / 4πr.
        // (Normalizing by the signed field value is hostage to random
        // cancellation — charges of mixed sign can make the true potential
        // orders of magnitude smaller than the representation scale.)
        let ue = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let trgs = [
            Vec3::new(5.0, 0.0, 0.0),
            Vec3::new(3.5, 3.5, -2.0),
            Vec3::new(0.0, -6.0, 1.0),
        ];
        let mut truth = vec![0.0; trgs.len()];
        direct_eval_serial(&kernel, &srcs, &data, &trgs, &mut truth);
        let mut approx = vec![0.0; trgs.len()];
        direct_eval_serial(&kernel, &ue, &equiv, &trgs, &mut approx);
        let qsum: f64 = data.iter().map(|q| q.abs()).sum();
        for (i, trg) in trgs.iter().enumerate() {
            let scale = qsum / (4.0 * std::f64::consts::PI * trg.norm());
            assert!(
                (truth[i] - approx[i]).abs() < 1e-6 * scale,
                "target {trg:?}: {} vs {} (scale {scale})",
                truth[i],
                approx[i]
            );
        }
    }

    #[test]
    fn upward_equivalent_reproduces_far_field_stokes() {
        let kernel = StokesSL { mu: 1.0 };
        let p = 6;
        let ops = FmmOperators::build(&kernel, p);
        let mut rng = StdRng::seed_from_u64(4);
        let srcs: Vec<Vec3> = (0..20)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-0.8..0.8),
                    rng.random_range(-0.8..0.8),
                    rng.random_range(-0.8..0.8),
                )
            })
            .collect();
        let data: Vec<f64> = (0..60).map(|_| rng.random_range(-1.0..1.0)).collect();
        let uc = cube_surface(p, Vec3::ZERO, RAD_OUTER);
        let mut check = vec![0.0; uc.len() * 3];
        direct_eval_serial(&kernel, &srcs, &data, &uc, &mut check);
        let equiv = ops.uc2ue.matvec(&check);
        let ue = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let trg = vec![Vec3::new(4.0, 2.0, -3.0)];
        let mut truth = vec![0.0; 3];
        direct_eval_serial(&kernel, &srcs, &data, &trg, &mut truth);
        let mut approx = vec![0.0; 3];
        direct_eval_serial(&kernel, &ue, &equiv, &trg, &mut approx);
        // vector-norm relative error; p = 6 gives ~1e-5 for the Stokeslet
        let num: f64 = truth
            .iter()
            .zip(&approx)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = truth.iter().map(|a| a * a).sum::<f64>().sqrt();
        assert!(num / den < 1e-4, "relative error {}", num / den);
    }

    #[test]
    fn m2m_preserves_far_field() {
        // a source in a child box, translated to the parent representation
        let kernel = LaplaceSL;
        let p = 6;
        let ops = FmmOperators::build(&kernel, p);
        // child octant 3 => (+,+,-): center (0.5, 0.5, -0.5), half 0.5
        let octant = 3usize;
        let cc = child_center(octant);
        let src = vec![cc + Vec3::new(0.1, -0.2, 0.15)];
        let data = vec![1.0];
        // child S2M
        let cuc = cube_surface(p, cc, RAD_OUTER * 0.5);
        let mut check = vec![0.0; cuc.len()];
        direct_eval_serial(&kernel, &src, &data, &cuc, &mut check);
        // child pinv = unit pinv scaled by (1/2)^{-deg} = 2^{deg}... apply
        // via the scale rule D = h^{-deg} · pinv_unit · V with h = 0.5
        let child_equiv = {
            let mut d = ops.uc2ue.matvec(&check);
            let s = 0.5_f64.powf(-ops.deg);
            d.iter_mut().for_each(|v| *v *= s);
            d
        };
        // M2M to parent
        let parent_equiv = ops.m2m[octant].matvec(&child_equiv);
        // compare far fields
        let ue = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let trg = vec![Vec3::new(0.0, 7.0, 0.0)];
        let mut truth = vec![0.0];
        direct_eval_serial(&kernel, &src, &data, &trg, &mut truth);
        let mut approx = vec![0.0];
        direct_eval_serial(&kernel, &ue, &parent_equiv, &trg, &mut approx);
        assert!(
            (truth[0] - approx[0]).abs() < 1e-6 * truth[0].abs(),
            "{} vs {}",
            truth[0],
            approx[0]
        );
    }

    #[test]
    fn operator_cache_returns_same_instance() {
        let k = LaplaceSL;
        let before = ops_cache_stats();
        let a = cached_operators(&k, 4);
        let b = cached_operators(&k, 4);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cached_operators(&StokesSL { mu: 1.0 }, 4);
        assert_eq!(c.vdim, 3);
        // telemetry: the repeat lookup is a hit, and every distinct
        // (kernel, order) pair builds at most once per process
        let after = ops_cache_stats();
        assert!(
            after.hits > before.hits,
            "repeat lookup not counted as a hit: {before:?} -> {after:?}"
        );
        assert!(
            after.builds >= before.builds,
            "build counter went backwards: {before:?} -> {after:?}"
        );
        let again = {
            let _ = cached_operators(&k, 4);
            ops_cache_stats()
        };
        assert_eq!(again.builds, after.builds, "warm lookup rebuilt operators");
        assert_eq!(again.hits, after.hits + 1);
    }
}
