//! Precomputed translation operators for the kernel-independent FMM.
//!
//! All operators are built once per (equivalent kernel, surface order) pair
//! at *unit scale* (box half-width 1) and rescaled across levels using the
//! kernel's homogeneity degree, exactly as PVFMM does for scale-invariant
//! kernels. A process-wide cache keeps them across FMM instances — the
//! octree changes every time step of a simulation, the operators never do.
//!
//! Every matrix is stored once, **transposed** (`_t`: input length × output
//! length), the orientation the evaluation's level-wide GEMMs read: a
//! block of input rows (check values or equivalent densities, one node per
//! row) times the transposed operator gives the block of output rows.
//!
//! Contents:
//! - `uc2ue_t`: pseudo-inverse mapping upward-check values to upward
//!   equivalent densities (regularized SVD, the ill-conditioned first-kind
//!   solve at the heart of KIFMM);
//! - `dc2de_t`: the downward counterpart;
//! - `m2m_t[o]`/`l2l_t[o]`: per-octant composed translation matrices
//!   (scale-invariant, so one set serves all levels);
//! - `m2l_orbits_t[o]`: one dense check-value translation matrix per
//!   *orbit* of the 316 well-separated same-level offsets under the 48
//!   signed axis permutations (16 orbits), and per offset class the signed
//!   permutations of surface points and vector components (`m2l_classes`)
//!   that turn its orbit's operator into its own, as PVFMM does with its
//!   interaction classes.
//!
//! **The symmetry.** If the axis map `T` ([`kernels::AxisMap`]) takes offset
//! `d` to its orbit's representative `rep` (`|d|` sorted descending), it
//! takes the offset-`d` source surface onto the representative's and the
//! target surface onto itself, point for point: grid index `i` of axis `a`
//! goes to index `i` (or `p − 1 − i` when `a` flips) of axis `perm[a]`. The
//! points are matched by grid index rather than by coordinate, since
//! `cube_surface`'s `−1 + step·i` is not exactly antisymmetric in floating
//! point. A kernel whose declared components ([`Kernel::src_components`],
//! [`Kernel::trg_components`]) obey `K(T·r) = T·K(r)·Tᵀ` then gives
//! `K_d[(i,α),(j,β)] = ±K_rep[(π(i),α'),(π(j),β')]`, with the vector
//! components permuted and signed like the axes and the scalar ones left
//! alone.

use crate::surface::{cube_surface, cube_surface_grid, RAD_INNER, RAD_OUTER};
use kernels::{AxisMap, Kernel};
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

/// Number of M2L orbits: classes of offsets that one signed axis
/// permutation maps onto each other.
pub const M2L_ORBITS: usize = 16;

/// Dense index of an M2L translation offset. Returns `None` for offsets
/// outside the `[-3, 3]` cube (cannot occur for a valid V list).
#[inline]
pub fn m2l_class(dx: i8, dy: i8, dz: i8) -> Option<usize> {
    if dx.abs() > 3 || dy.abs() > 3 || dz.abs() > 3 {
        return None;
    }
    Some((((dx + 3) as usize * 7) + (dy + 3) as usize) * 7 + (dz + 3) as usize)
}

/// The offset of a dense class index (inverse of [`m2l_class`]).
pub(crate) fn m2l_offset(class: usize) -> [i8; 3] {
    [
        (class / 49) as i8 - 3,
        (class / 7 % 7) as i8 - 3,
        (class % 7) as i8 - 3,
    ]
}

/// Whether an offset in `[-3, 3]³` is a V-list offset (non-adjacent).
fn is_m2l_offset(d: [i8; 3]) -> bool {
    d.iter().any(|c| c.abs() >= 2)
}

/// The orbit representatives, `|d|` sorted descending, in orbit order.
fn orbit_reps() -> Vec<[i8; 3]> {
    let mut reps = Vec::with_capacity(M2L_ORBITS);
    for a in 2..=3i8 {
        for b in 0..=a {
            for c in 0..=b {
                reps.push([a, b, c]);
            }
        }
    }
    reps
}

/// The axis map taking offset `d` to its orbit representative: axes sorted
/// by `|d|` descending (stably), negative components flipped.
fn to_representative(d: [i8; 3]) -> AxisMap {
    let mut order = [0usize, 1, 2];
    order.sort_by_key(|&a| std::cmp::Reverse(d[a].abs()));
    let mut perm = [0usize; 3];
    for (rank, &a) in order.iter().enumerate() {
        perm[a] = rank;
    }
    AxisMap {
        perm,
        flip: [d[0] < 0, d[1] < 0, d[2] < 0],
    }
}

/// Sign bit of a signed-permutation entry: the index in the low 31 bits,
/// the moved value negated when this bit is set.
const NEG: u32 = 1 << 31;

/// `dst[k] = ±src[perm[k]]` over a signed permutation (see [`M2lClass`]).
#[inline]
pub fn gather_signed(perm: &[u32], src: &[f64], dst: &mut [f64]) {
    for (d, &e) in dst.iter_mut().zip(perm) {
        let v = src[(e & !NEG) as usize];
        *d = f64::from_bits(v.to_bits() ^ (((e & NEG) as u64) << 32));
    }
}

/// `dst[k] += ±src[perm[k]]` over a signed permutation (see [`M2lClass`]).
#[inline]
pub fn scatter_add_signed(perm: &[u32], src: &[f64], dst: &mut [f64]) {
    for (d, &e) in dst.iter_mut().zip(perm) {
        let v = src[(e & !NEG) as usize];
        *d += f64::from_bits(v.to_bits() ^ (((e & NEG) as u64) << 32));
    }
}

/// How one M2L offset class reaches its orbit's representative operator.
/// Both tables are signed permutations: entry `k` holds an index, with
/// the top bit set when the moved value changes sign.
pub struct M2lClass {
    /// Index into [`FmmOperators::m2l_orbits_t`].
    pub orbit: u8,
    /// Gather of a source's equivalent density into the representative's
    /// order, `g[k] = ±up[eq[k]]` (`n_surf · sdim` entries).
    pub eq: Vec<u32>,
    /// Scatter of the representative's check values into this offset's
    /// order, `check[c] += ±y[chk[c]]` (`n_surf · vdim` entries).
    pub chk: Vec<u32>,
}

impl M2lClass {
    /// The tables of offset `d` for a kernel with the given components on
    /// order-`p` surfaces whose grid points are `grid`.
    fn new<K: Kernel>(eq_kernel: &K, p: usize, grid: &[[usize; 3]], d: [i8; 3]) -> M2lClass {
        let t = to_representative(d);
        let mut rep = [0i8; 3];
        for a in 0..3 {
            rep[t.perm[a]] = d[a].abs();
        }
        let orbit = orbit_reps().iter().position(|&r| r == rep).unwrap() as u8;
        // point permutation π: the grid point T maps point j onto
        let mut index = vec![u32::MAX; p * p * p];
        for (j, g) in grid.iter().enumerate() {
            index[(g[2] * p + g[1]) * p + g[0]] = j as u32;
        }
        let pi: Vec<usize> = grid
            .iter()
            .map(|g| {
                let mut r = [0usize; 3];
                for a in 0..3 {
                    r[t.perm[a]] = if t.flip[a] { p - 1 - g[a] } else { g[a] };
                }
                index[(r[2] * p + r[1]) * p + r[0]] as usize
            })
            .collect();
        let (src_comps, trg_comps) = (eq_kernel.src_components(), eq_kernel.trg_components());
        let (sd, td) = (src_comps.len(), trg_comps.len());
        let mut eq = vec![0u32; grid.len() * sd];
        let mut chk = vec![0u32; grid.len() * td];
        for (j, &pj) in pi.iter().enumerate() {
            for b in 0..sd {
                let (to, neg) = t.component(&src_comps, b);
                eq[pj * sd + to] = (j * sd + b) as u32 | if neg { NEG } else { 0 };
            }
            for a in 0..td {
                let (to, neg) = t.component(&trg_comps, a);
                chk[j * td + a] = (pj * td + to) as u32 | if neg { NEG } else { 0 };
            }
        }
        M2lClass { orbit, eq, chk }
    }
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
    /// Upward check values → upward equivalent density (unit scale),
    /// transposed (`nd_chk × nd_eq`).
    pub uc2ue_t: Mat,
    /// Downward check values → downward equivalent density (unit scale),
    /// transposed (`nd_chk × nd_eq`).
    pub dc2de_t: Mat,
    /// Composed child-equivalent → parent-equivalent, per child octant,
    /// transposed (`nd_eq × nd_eq`).
    pub m2m_t: Vec<Mat>,
    /// Composed parent-equivalent → child-equivalent, per child octant,
    /// transposed (`nd_eq × nd_eq`).
    pub l2l_t: Vec<Mat>,
    /// **Transposed** source-equivalent → target-check translation
    /// operators of the [`M2L_ORBITS`] orbit representatives. Stored
    /// transposed (`nd_eq × nd_chk`) so the batched level-wise M2L pass can
    /// gather a block of source densities as rows and run one row-major
    /// GEMM per block: `Check_rowsᵀ += Equiv_rowsᵀ · K_repᵀ`.
    pub m2l_orbits_t: Vec<Mat>,
    /// Per offset class, indexed by [`m2l_class`] (`None` for the
    /// near-field slots): its orbit and signed permutations.
    pub m2l_classes: Vec<Option<M2lClass>>,
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

/// The dense offset-`d` M2L operator, source-equivalent surface at
/// `2d` → target check surface `dc` at the origin, built directly from the
/// kernel.
pub(crate) fn m2l_operator<K: Kernel>(eq_kernel: &K, p: usize, d: [i8; 3], dc: &[Vec3]) -> Mat {
    let src_center = Vec3::new(2.0 * d[0] as f64, 2.0 * d[1] as f64, 2.0 * d[2] as f64);
    let seq = cube_surface(p, src_center, RAD_INNER);
    kernel_matrix(eq_kernel, &seq, dc)
}

impl FmmOperators {
    /// Builds the operator set for the given equivalent kernel and order,
    /// truncating the pseudo-inverses at [`PINV_TOL`].
    pub fn build<K: Kernel>(eq_kernel: &K, p: usize) -> FmmOperators {
        let sdim = eq_kernel.src_dim();
        let vdim = eq_kernel.trg_dim();
        let deg = eq_kernel.scale_invariance();

        // upward: equivalent on the inner surface, check on the outer;
        // downward: equivalent on the outer surface, check on the inner
        let ue = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let uc = cube_surface(p, Vec3::ZERO, RAD_OUTER);
        let n_surf = ue.len();
        let (de, dc) = (&uc, &ue);

        // the ten pseudo-inverses — upward, downward, and each child's
        // downward at half scale for L2L — are the build's dominant cost,
        // so they share one parallel region
        let child_scale = 0.5_f64;
        let mut pinvs = par::map_indexed(10, |i| {
            let k = match i {
                0 => kernel_matrix(eq_kernel, &ue, &uc),
                1 => kernel_matrix(eq_kernel, de, dc),
                _ => {
                    let cc = child_center(i - 2);
                    let cde = cube_surface(p, cc, RAD_OUTER * child_scale);
                    let cdc = cube_surface(p, cc, RAD_INNER * child_scale);
                    kernel_matrix_scaled(eq_kernel, &cde, &cdc, child_scale)
                }
            };
            Svd::new(&k).pseudo_inverse(PINV_TOL)
        })
        .into_iter();
        let uc2ue = pinvs.next().unwrap();
        let dc2de = pinvs.next().unwrap();
        let child_dc2de: Vec<Mat> = pinvs.collect();

        // composed M2M / L2L per octant; both are invariant under global
        // rescaling (kernel factor s^deg in K cancels s^{-deg} in the
        // pseudo-inverse), so one set serves every level.
        let m2m_t: Vec<Mat> = par::map_indexed(8, |o| {
            let cc = child_center(o);
            let ceq = cube_surface(p, cc, RAD_INNER * child_scale);
            let k = kernel_matrix_scaled(eq_kernel, &ceq, &uc, child_scale);
            uc2ue.matmul(&k).transpose()
        });
        let l2l_t: Vec<Mat> = par::map_indexed(8, |o| {
            let cc = child_center(o);
            let cchk = cube_surface(p, cc, RAD_INNER * child_scale);
            let k = kernel_matrix(eq_kernel, de, &cchk);
            // compose with the child's own pseudo-inverse at half scale
            child_dc2de[o].matmul(&k).transpose()
        });

        // M2L: same-level boxes with center offsets 2·(dx,dy,dz),
        // non-adjacent (max |d| ≥ 2), |d| ≤ 3 — one transposed operator per
        // orbit, one pair of signed permutations per class
        let reps = orbit_reps();
        let m2l_orbits_t: Vec<Mat> = par::map_indexed(reps.len(), |o| {
            m2l_operator(eq_kernel, p, reps[o], dc).transpose()
        });
        let grid = cube_surface_grid(p);
        let m2l_classes: Vec<Option<M2lClass>> = (0..M2L_CLASSES)
            .map(|class| {
                let d = m2l_offset(class);
                is_m2l_offset(d).then(|| M2lClass::new(eq_kernel, p, &grid, d))
            })
            .collect();

        FmmOperators {
            p,
            sdim,
            vdim,
            n_surf,
            deg,
            uc2ue_t: uc2ue.transpose(),
            dc2de_t: dc2de.transpose(),
            m2m_t,
            l2l_t,
            m2l_orbits_t,
            m2l_classes,
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
/// order. Thread-safe. The build runs inside the cache lock, so two
/// threads never build the same set twice; builds are rare and idempotent.
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
    use kernels::{direct_eval_serial, LaplaceSL, StokesEquiv, StokesSL};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The class's transposed operator expanded from its orbit's
    /// representative through the class tables, exactly as the M2L gather
    /// and scatter apply them.
    fn rebuilt_t(ops: &FmmOperators, class: &M2lClass) -> Mat {
        let rep = &ops.m2l_orbits_t[class.orbit as usize];
        let mut out = Mat::zeros(rep.rows(), rep.cols());
        let mut row = vec![0.0; rep.cols()];
        for (k, &e) in class.eq.iter().enumerate() {
            row.fill(0.0);
            scatter_add_signed(&class.chk, rep.row(k), &mut row);
            let neg = e & NEG != 0;
            for (o, &v) in out.row_mut((e & !NEG) as usize).iter_mut().zip(&row) {
                *o = if neg { -v } else { v };
            }
        }
        out
    }

    /// Every one of the 316 classes, rebuilt from its orbit's
    /// representative, against `kernel_matrix` on its own geometry.
    fn check_classes_match_direct<K: Kernel>(kernel: &K, p: usize) {
        let ops = cached_operators(kernel, p);
        let dc = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let classes: Vec<usize> = (0..M2L_CLASSES)
            .filter(|&c| ops.m2l_classes[c].is_some())
            .collect();
        assert_eq!(classes.len(), 316);
        let errs = par::map_indexed(classes.len(), |i| {
            let c = classes[i];
            let direct = m2l_operator(kernel, p, m2l_offset(c), &dc).transpose();
            let rebuilt = rebuilt_t(&ops, ops.m2l_classes[c].as_ref().unwrap());
            let scale = direct.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let diff = (direct.data().iter().zip(rebuilt.data()))
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            diff / scale
        });
        for (&c, e) in classes.iter().zip(errs) {
            assert!(
                e <= 1e-14,
                "{} p = {p}, offset {:?}: relative error {e:.2e}",
                kernel.name(),
                m2l_offset(c)
            );
        }
    }

    #[test]
    fn every_class_rebuilt_from_its_orbit_matches_kernel_matrix() {
        assert_eq!(orbit_reps().len(), M2L_ORBITS);
        for p in [4, 6] {
            check_classes_match_direct(&LaplaceSL, p);
            check_classes_match_direct(&StokesSL { mu: 0.7 }, p);
            check_classes_match_direct(&StokesEquiv { mu: 1.0 }, p);
        }
    }

    /// Bytes held by an operator set: every matrix and every M2L class
    /// table.
    fn bytes(ops: &FmmOperators) -> usize {
        let mats = [&ops.uc2ue_t, &ops.dc2de_t]
            .into_iter()
            .chain(&ops.m2m_t)
            .chain(&ops.l2l_t)
            .chain(&ops.m2l_orbits_t);
        let tables = ops.m2l_classes.iter().flatten();
        mats.map(|m| m.data().len() * 8).sum::<usize>()
            + tables
                .map(|c| (c.eq.len() + c.chk.len()) * 4)
                .sum::<usize>()
    }

    /// The storage the symmetry buys: 16 M2L matrices, and the order-4
    /// wall operator set (the augmented Stokes kernel) within 12 MiB, where
    /// one dense matrix per class would take 97 MiB.
    #[test]
    fn order_4_stokes_equivalent_set_holds_16_m2l_matrices_in_12_mib() {
        let ops = cached_operators(&StokesEquiv { mu: 1.0 }, 4);
        assert_eq!(ops.m2l_orbits_t.len(), M2L_ORBITS);
        assert_eq!(ops.m2l_classes.iter().flatten().count(), 316);
        let bytes = bytes(&ops);
        assert!(
            bytes <= 12 << 20,
            "order-4 StokesEquiv operators: {bytes} B"
        );
    }

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
        let equiv = ops.uc2ue_t.matvec_t(&check);
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
        let equiv = ops.uc2ue_t.matvec_t(&check);
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
            let mut d = ops.uc2ue_t.matvec_t(&check);
            let s = 0.5_f64.powf(-ops.deg);
            d.iter_mut().for_each(|v| *v *= s);
            d
        };
        // M2M to parent
        let parent_equiv = ops.m2m_t[octant].matvec_t(&child_equiv);
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
