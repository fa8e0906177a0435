//! The [`Kernel`] abstraction consumed by the kernel-independent FMM and the
//! direct (P2P) evaluators.
//!
//! A kernel maps per-source data (e.g. a force vector, or a density/normal
//! pair) to per-target values (velocity components or a scalar potential).
//! The FMM additionally needs a *translation* kernel — the single-layer
//! kernel of the same PDE — and the homogeneity degree for per-level scaling
//! of precomputed operators.

use crate::{laplace, stokes};
use linalg::Vec3;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use std::arch::x86_64::*;

/// How one per-point component of a kernel's source data or target value
/// transforms when space is mapped by an [`AxisMap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Unchanged: a charge, a potential, a point-source strength.
    Scalar,
    /// Axis `a` (0, 1 or 2) of a Cartesian vector whose three components
    /// are stored consecutively: a force, a velocity, a normal.
    Axis(u8),
}

/// The components of one Cartesian vector, in storage order.
pub const VECTOR: [Component; 3] = [Component::Axis(0), Component::Axis(1), Component::Axis(2)];

/// A signed permutation of the coordinate axes, one of the 48 symmetries
/// of the cube: `(T·v)[perm[a]] = ±v[a]`, negated where `flip[a]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AxisMap {
    /// Destination axis of each axis.
    pub perm: [usize; 3],
    /// Whether each axis changes sign.
    pub flip: [bool; 3],
}

impl AxisMap {
    /// Where component `c` of a point's stacked components (declared by
    /// `comps`) goes under the map, and whether it changes sign.
    pub fn component(&self, comps: &[Component], c: usize) -> (usize, bool) {
        match comps[c] {
            Component::Scalar => (c, false),
            Component::Axis(a) => {
                let a = a as usize;
                (c - a + self.perm[a], self.flip[a])
            }
        }
    }
}

/// An elliptic kernel evaluated pairwise between points.
pub trait Kernel: Sync {
    /// Number of `f64` data entries carried per source point.
    fn src_dim(&self) -> usize;
    /// Number of `f64` value entries produced per target point.
    fn trg_dim(&self) -> usize;
    /// Accumulates the contribution of one source into the target value:
    /// `out += K(trg, src) · data`. `data` has length [`Kernel::src_dim`],
    /// `out` length [`Kernel::trg_dim`]. Must be zero for `trg == src`.
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]);
    /// Homogeneity degree `d` such that `K(s·r) = s^d K(r)` (−1 for
    /// single-layer kernels, −2 for double-layer). The kernel-independent
    /// FMM uses this to rescale unit-box operators across tree levels.
    fn scale_invariance(&self) -> f64 {
        -1.0
    }
    /// A short stable identifier used as part of precomputed-operator cache
    /// keys in the FMM.
    fn name(&self) -> &'static str;
    /// Bit pattern of any continuous kernel parameters (e.g. viscosity),
    /// folded into precomputed-operator cache keys. Defaults to 0 for
    /// parameter-free kernels.
    fn param_bits(&self) -> u64 {
        0
    }
    /// Per-source-component scale exponents `e_j`: when a density lives on
    /// a surface of half-width `h`, its physical contribution uses the
    /// stored component multiplied by `h^{e_j}`. All zero for plain kernels;
    /// the augmented Stokes equivalent kernel uses `[0,0,0,1]` so that the
    /// mixed-homogeneity (Stokeslet −1, point source −2) basis behaves as a
    /// uniform degree −1 family across octree levels.
    fn src_scale_exponents(&self) -> Vec<i32> {
        vec![0; self.src_dim()]
    }
    /// How each source component transforms under an [`AxisMap`] `T` of
    /// space. Together with [`Kernel::trg_components`] this declares the
    /// kernel's symmetry `K(T·trg, T·src, T·data) = T·K(trg, src, data)`,
    /// which lets the FMM store one M2L operator per orbit of translation
    /// offsets. Required of every kernel: a vector component declared
    /// scalar would silently corrupt every non-representative operator.
    fn src_components(&self) -> Vec<Component>;
    /// How each target component transforms (see
    /// [`Kernel::src_components`]).
    fn trg_components(&self) -> Vec<Component>;
    /// Batched evaluation: accumulates the contribution of every source
    /// into every target, `out[i] += Σ_j K(trg_i, src_j) · data_j`.
    /// `data` is source-major (`src_dim` per source), `out` target-major
    /// (`trg_dim` per target). Semantically identical to looping
    /// [`Kernel::eval_acc`]; the hot kernels override it with tiled
    /// structure-of-arrays inner loops that hoist the kernel constants and
    /// run as SIMD lanes (this is the P2P/S2M/P2L/L2T/M2T workhorse of the
    /// FMM). On AVX-512 targets [`StokesDL`] and [`StokesEquiv`] take
    /// `1/|r|` from a refined reciprocal-square-root estimate instead of a
    /// square root and a division: within 4 ulp of it per pair, so their
    /// blocks agree with `eval_acc` to roundoff, not bit for bit.
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        let sd = self.src_dim();
        let td = self.trg_dim();
        debug_assert_eq!(data.len(), srcs.len() * sd);
        debug_assert_eq!(out.len(), trgs.len() * td);
        for (i, &t) in trgs.iter().enumerate() {
            let o = &mut out[i * td..(i + 1) * td];
            for (j, &s) in srcs.iter().enumerate() {
                self.eval_acc(t, s, &data[j * sd..(j + 1) * sd], o);
            }
        }
    }
}

/// Source-tile width of the vectorized `eval_block` implementations: the
/// per-tile SoA buffers (≤ 7 lanes of `TILE` f64) stay in registers / L1
/// and give fixed-trip-count inner loops. Where the target has AVX-512,
/// the Stokes double-layer and equivalent kernels run each tile as
/// `TILE / LANES` explicit 8-lane groups (`rsqrt8`); elsewhere, and for
/// the other kernels, LLVM autovectorizes the lane loops.
pub(crate) const TILE: usize = 32;

/// SIMD accumulator width: contributions are summed into `LANES` partial
/// accumulators and reduced once per (target, tile). A plain scalar
/// accumulator would be a strict-FP reduction, which LLVM refuses to
/// vectorize; explicit lanes sidestep that without fast-math. One AVX-512
/// register of f64.
pub(crate) const LANES: usize = 8;

/// `1/√r²` in eight lanes, exactly `0` where `r² == 0` (the
/// self-interaction guard): the hardware estimate `_mm512_rsqrt14_pd`
/// (relative error < 2⁻¹⁴) refined by two Newton steps
/// `y ← y·(1.5 − ½r²·y²)`, 14 → 28 → 56 bits, as PVFMM's P2P kernels do
/// instead of a square root and a division. Within 4 ulp of
/// `1.0 / r2.sqrt()` over `r²` in [1e-12, 1e12] (unit test
/// `rsqrt8_is_within_4_ulp_and_zero_at_the_origin`).
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn rsqrt8(r2: __m512d) -> __m512d {
    let half_r2 = _mm512_mul_pd(_mm512_set1_pd(0.5), r2);
    let newton = |y: __m512d| {
        let t = _mm512_fnmadd_pd(half_r2, _mm512_mul_pd(y, y), _mm512_set1_pd(1.5));
        _mm512_mul_pd(y, t)
    };
    let y = newton(newton(_mm512_rsqrt14_pd(r2)));
    _mm512_maskz_mov_pd(_mm512_cmpneq_pd_mask(r2, _mm512_setzero_pd()), y)
}

/// Lanes `g·LANES ..< (g + 1)·LANES` of a tile buffer as one register.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn lanes8(a: &[f64; TILE], g: usize) -> __m512d {
    let s = &a[g * LANES..(g + 1) * LANES];
    // SAFETY: `s` is a bounds-checked run of LANES = 8 initialised f64,
    // exactly the 64 bytes an unaligned 512-bit load reads.
    unsafe { _mm512_loadu_pd(s.as_ptr()) }
}

/// Copies a tile of source points into SoA lanes. Tail lanes keep stale
/// coordinates — callers zero the tail of the *data* lanes instead, which
/// forces the stale contributions to zero while keeping every inner loop
/// at a fixed `TILE` trip count.
#[inline(always)]
pub(crate) fn load_tile(
    srcs: &[Vec3],
    xs: &mut [f64; TILE],
    ys: &mut [f64; TILE],
    zs: &mut [f64; TILE],
) {
    for (l, s) in srcs.iter().enumerate() {
        xs[l] = s.x;
        ys[l] = s.y;
        zs[l] = s.z;
    }
}

/// Augmented Stokes equivalent-density kernel for the kernel-independent
/// FMM: a point force (Stokeslet) plus a potential point source,
/// `u = S(r) f + q · r / (4π |r|³)`.
///
/// The source component is required to represent stresslet (double-layer)
/// far fields, which carry net mass flux that a Stokeslet-only basis cannot
/// produce — the same augmentation PVFMM applies for its Stokes
/// double-layer translations.
#[derive(Clone, Copy, Debug)]
pub struct StokesEquiv {
    /// Ambient fluid viscosity μ (for the Stokeslet part).
    pub mu: f64,
}

impl Kernel for StokesEquiv {
    fn name(&self) -> &'static str {
        "stokes_equiv"
    }
    fn scale_invariance(&self) -> f64 {
        -1.0
    }
    fn param_bits(&self) -> u64 {
        self.mu.to_bits()
    }
    fn src_scale_exponents(&self) -> Vec<i32> {
        vec![0, 0, 0, 1]
    }
    fn src_components(&self) -> Vec<Component> {
        [&VECTOR[..], &[Component::Scalar]].concat()
    }
    fn trg_components(&self) -> Vec<Component> {
        VECTOR.to_vec()
    }
    fn src_dim(&self) -> usize {
        4
    }
    fn trg_dim(&self) -> usize {
        3
    }
    #[inline]
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]) {
        let f = Vec3::new(data[0], data[1], data[2]);
        let u = stokes::stokeslet(trg, src, f, self.mu);
        let r = trg - src;
        let r2 = r.norm_sq();
        let srcq = if r2 == 0.0 {
            Vec3::ZERO
        } else {
            r * (data[3] / (4.0 * std::f64::consts::PI * r2 * r2.sqrt()))
        };
        out[0] += u.x + srcq.x;
        out[1] += u.y + srcq.y;
        out[2] += u.z + srcq.z;
    }
    #[inline]
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        stokes::stokes_equiv_block(trgs, srcs, data, self.mu, out);
    }
}

/// Stokes single-layer kernel (velocity from point forces), 3 → 3.
#[derive(Clone, Copy, Debug)]
pub struct StokesSL {
    /// Ambient fluid viscosity μ.
    pub mu: f64,
}

impl Kernel for StokesSL {
    fn name(&self) -> &'static str {
        "stokes_sl"
    }
    fn param_bits(&self) -> u64 {
        self.mu.to_bits()
    }
    fn src_components(&self) -> Vec<Component> {
        VECTOR.to_vec()
    }
    fn trg_components(&self) -> Vec<Component> {
        VECTOR.to_vec()
    }
    fn scale_invariance(&self) -> f64 {
        -1.0
    }
    fn src_dim(&self) -> usize {
        3
    }
    fn trg_dim(&self) -> usize {
        3
    }
    #[inline]
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]) {
        let f = Vec3::new(data[0], data[1], data[2]);
        let u = stokes::stokeslet(trg, src, f, self.mu);
        out[0] += u.x;
        out[1] += u.y;
        out[2] += u.z;
    }
    #[inline]
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        stokes::stokeslet_block(trgs, srcs, data, self.mu, out);
    }
}

/// Stokes double-layer kernel (velocity from density+normal pairs), 6 → 3.
/// Source data layout: `[φx, φy, φz, nx, ny, nz]` where the normal is
/// premultiplied by the quadrature weight if used for integration.
#[derive(Clone, Copy, Debug, Default)]
pub struct StokesDL;

impl Kernel for StokesDL {
    fn name(&self) -> &'static str {
        "stokes_dl"
    }
    fn scale_invariance(&self) -> f64 {
        -2.0
    }
    fn src_components(&self) -> Vec<Component> {
        [VECTOR, VECTOR].concat()
    }
    fn trg_components(&self) -> Vec<Component> {
        VECTOR.to_vec()
    }
    fn src_dim(&self) -> usize {
        6
    }
    fn trg_dim(&self) -> usize {
        3
    }
    #[inline]
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]) {
        let phi = Vec3::new(data[0], data[1], data[2]);
        let n = Vec3::new(data[3], data[4], data[5]);
        let u = stokes::stresslet(trg, src, phi, n);
        out[0] += u.x;
        out[1] += u.y;
        out[2] += u.z;
    }
    #[inline]
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        stokes::stresslet_block(trgs, srcs, data, out);
    }
}

/// Laplace single-layer kernel, 1 → 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaplaceSL;

impl Kernel for LaplaceSL {
    fn name(&self) -> &'static str {
        "laplace_sl"
    }
    fn scale_invariance(&self) -> f64 {
        -1.0
    }
    fn src_components(&self) -> Vec<Component> {
        vec![Component::Scalar]
    }
    fn trg_components(&self) -> Vec<Component> {
        vec![Component::Scalar]
    }
    fn src_dim(&self) -> usize {
        1
    }
    fn trg_dim(&self) -> usize {
        1
    }
    #[inline]
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]) {
        out[0] += laplace::laplace_sl(trg, src, data[0]);
    }
    #[inline]
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        laplace::laplace_sl_block(trgs, srcs, data, out);
    }
}

/// Laplace double-layer kernel, 4 → 1 (`[q, nx, ny, nz]`).
#[derive(Clone, Copy, Debug, Default)]
pub struct LaplaceDL;

impl Kernel for LaplaceDL {
    fn name(&self) -> &'static str {
        "laplace_dl"
    }
    fn scale_invariance(&self) -> f64 {
        -2.0
    }
    fn src_components(&self) -> Vec<Component> {
        [&[Component::Scalar], &VECTOR[..]].concat()
    }
    fn trg_components(&self) -> Vec<Component> {
        vec![Component::Scalar]
    }
    fn src_dim(&self) -> usize {
        4
    }
    fn trg_dim(&self) -> usize {
        1
    }
    #[inline]
    fn eval_acc(&self, trg: Vec3, src: Vec3, data: &[f64], out: &mut [f64]) {
        let n = Vec3::new(data[1], data[2], data[3]);
        out[0] += laplace::laplace_dl(trg, src, data[0], n);
    }
    #[inline]
    fn eval_block(&self, trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        laplace::laplace_dl_block(trgs, srcs, data, out);
    }
}

/// Direct (all-pairs) evaluation: for every target accumulate the sum over
/// all sources, in parallel over targets.
///
/// `src_data` is laid out source-major (`src_dim` entries per source);
/// `out` target-major (`trg_dim` per target) and is **accumulated into**.
pub fn direct_eval<K: Kernel>(
    kernel: &K,
    src_pts: &[Vec3],
    src_data: &[f64],
    trg_pts: &[Vec3],
    out: &mut [f64],
) {
    let sd = kernel.src_dim();
    let td = kernel.trg_dim();
    assert_eq!(
        src_data.len(),
        src_pts.len() * sd,
        "source data length mismatch"
    );
    assert_eq!(
        out.len(),
        trg_pts.len() * td,
        "target buffer length mismatch"
    );
    // parallel over target blocks, vectorized eval_block within each block
    const BLK: usize = 64;
    rayon::par::chunks_mut(out, BLK * td, |bi, chunk| {
        let t0 = bi * BLK;
        let t1 = t0 + chunk.len() / td;
        kernel.eval_block(&trg_pts[t0..t1], src_pts, src_data, chunk);
    });
}

/// Serial variant of [`direct_eval`] for small problems (avoids rayon
/// overhead inside already-parallel outer loops).
pub fn direct_eval_serial<K: Kernel>(
    kernel: &K,
    src_pts: &[Vec3],
    src_data: &[f64],
    trg_pts: &[Vec3],
    out: &mut [f64],
) {
    let sd = kernel.src_dim();
    let td = kernel.trg_dim();
    assert_eq!(src_data.len(), src_pts.len() * sd);
    assert_eq!(out.len(), trg_pts.len() * td);
    kernel.eval_block(trg_pts, src_pts, src_data, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                )
            })
            .collect()
    }

    /// Scalar reference: eval_acc looped over all pairs.
    fn eval_pairwise<K: Kernel>(
        kernel: &K,
        trgs: &[Vec3],
        srcs: &[Vec3],
        data: &[f64],
        out: &mut [f64],
    ) {
        let sd = kernel.src_dim();
        let td = kernel.trg_dim();
        for (i, &t) in trgs.iter().enumerate() {
            let o = &mut out[i * td..(i + 1) * td];
            for (j, &s) in srcs.iter().enumerate() {
                kernel.eval_acc(t, s, &data[j * sd..(j + 1) * sd], o);
            }
        }
    }

    fn check_block_matches_scalar<K: Kernel>(kernel: &K, name: &str) {
        let mut rng = StdRng::seed_from_u64(71);
        // deliberately awkward sizes (not tile multiples), plus a target
        // coincident with a source to exercise the self-interaction guard
        for (nt, ns) in [(1usize, 1usize), (7, 33), (65, 130), (3, 100)] {
            let srcs = random_points(&mut rng, ns);
            let mut trgs = random_points(&mut rng, nt);
            trgs[0] = srcs[0];
            let data: Vec<f64> = (0..ns * kernel.src_dim())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let mut blocked = vec![0.1; nt * kernel.trg_dim()];
            let mut scalar = vec![0.1; nt * kernel.trg_dim()];
            kernel.eval_block(&trgs, &srcs, &data, &mut blocked);
            eval_pairwise(kernel, &trgs, &srcs, &data, &mut scalar);
            for (a, b) in blocked.iter().zip(&scalar) {
                assert!(
                    (a - b).abs() <= 1e-13 * b.abs().max(1.0),
                    "{name} ({nt}x{ns}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn eval_block_matches_eval_acc_for_all_kernels() {
        check_block_matches_scalar(&LaplaceSL, "laplace_sl");
        check_block_matches_scalar(&LaplaceDL, "laplace_dl");
        check_block_matches_scalar(&StokesSL { mu: 0.7 }, "stokes_sl");
        check_block_matches_scalar(&StokesDL, "stokes_dl");
        check_block_matches_scalar(&StokesEquiv { mu: 1.3 }, "stokes_equiv");
    }

    #[test]
    fn parallel_and_serial_direct_agree() {
        let mut rng = StdRng::seed_from_u64(17);
        let srcs = random_points(&mut rng, 40);
        let trgs = random_points(&mut rng, 23);
        let kernel = StokesSL { mu: 1.3 };
        let data: Vec<f64> = (0..srcs.len() * 3)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut out_p = vec![0.0; trgs.len() * 3];
        let mut out_s = vec![0.0; trgs.len() * 3];
        direct_eval(&kernel, &srcs, &data, &trgs, &mut out_p);
        direct_eval_serial(&kernel, &srcs, &data, &trgs, &mut out_s);
        for (a, b) in out_p.iter().zip(&out_s) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn direct_eval_accumulates() {
        let srcs = vec![Vec3::new(1.0, 0.0, 0.0)];
        let trgs = vec![Vec3::ZERO];
        let kernel = LaplaceSL;
        let mut out = vec![5.0];
        direct_eval_serial(
            &kernel,
            &srcs,
            &[4.0 * std::f64::consts::PI],
            &trgs,
            &mut out,
        );
        assert!((out[0] - 6.0).abs() < 1e-14);
    }

    #[test]
    fn stokes_dl_kernel_matches_function() {
        let x = Vec3::new(0.4, 0.5, 0.6);
        let y = Vec3::new(-0.1, 0.0, 0.2);
        let phi = Vec3::new(1.0, 2.0, 3.0);
        let n = Vec3::new(0.0, 1.0, 0.0);
        let mut out = [0.0; 3];
        StokesDL.eval_acc(x, y, &[phi.x, phi.y, phi.z, n.x, n.y, n.z], &mut out);
        let u = stokes::stresslet(x, y, phi, n);
        assert!((Vec3::new(out[0], out[1], out[2]) - u).norm() < 1e-15);
    }

    #[test]
    fn stokes_equiv_adds_flux_carrying_source() {
        // the augmented kernel's 4th component is a potential source whose
        // flux through an enclosing sphere is exactly q
        let y = Vec3::ZERO;
        let q = 2.5;
        let data = [0.0, 0.0, 0.0, q];
        let k = StokesEquiv { mu: 1.0 };
        // flux through a sphere of radius 2, midpoint-sampled
        let gl = linalg::quad::gauss_legendre(24);
        let nphi = 48;
        let mut flux = 0.0;
        for i in 0..24 {
            let ct = gl.nodes[i];
            let st = (1.0 - ct * ct).sqrt();
            for j in 0..nphi {
                let ph = 2.0 * std::f64::consts::PI * j as f64 / nphi as f64;
                let n = Vec3::new(st * ph.cos(), st * ph.sin(), ct);
                let x = n * 2.0;
                let mut u = [0.0; 3];
                k.eval_acc(x, y, &data, &mut u);
                flux += (u[0] * n.x + u[1] * n.y + u[2] * n.z)
                    * gl.weights[i]
                    * (2.0 * std::f64::consts::PI / nphi as f64)
                    * 4.0; // r² = 4
            }
        }
        assert!((flux - q).abs() < 1e-10, "flux {flux} vs {q}");
        // with q = 0 it reduces to the plain Stokeslet
        let f = [1.0, -2.0, 0.5, 0.0];
        let x = Vec3::new(0.7, -0.3, 0.4);
        let mut u = [0.0; 3];
        k.eval_acc(x, y, &f, &mut u);
        let exact = stokes::stokeslet(x, y, Vec3::new(1.0, -2.0, 0.5), 1.0);
        assert!((Vec3::new(u[0], u[1], u[2]) - exact).norm() < 1e-14);
    }

    #[test]
    fn scale_exponents_mark_source_component() {
        assert_eq!(
            StokesEquiv { mu: 1.0 }.src_scale_exponents(),
            vec![0, 0, 0, 1]
        );
        assert_eq!(StokesSL { mu: 1.0 }.src_scale_exponents(), vec![0, 0, 0]);
        assert_eq!(LaplaceSL.src_scale_exponents(), vec![0]);
    }

    /// All 48 signed axis permutations.
    fn all_axis_maps() -> impl Iterator<Item = AxisMap> {
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        PERMS.into_iter().flat_map(|perm| {
            (0..8).map(move |f| AxisMap {
                perm,
                flip: [f & 1 != 0, f & 2 != 0, f & 4 != 0],
            })
        })
    }

    /// `T·v`.
    fn map_point(t: &AxisMap, v: Vec3) -> Vec3 {
        let mut out = Vec3::ZERO;
        for a in 0..3 {
            out[t.perm[a]] = if t.flip[a] { -v[a] } else { v[a] };
        }
        out
    }

    /// `K(T·trg, T·src, T·data) = T·K(trg, src, data)` for every signed
    /// axis permutation `T`, at random points.
    fn check_declared_symmetry<K: Kernel>(kernel: &K, name: &str) {
        let mut rng = StdRng::seed_from_u64(72);
        let (src_comps, trg_comps) = (kernel.src_components(), kernel.trg_components());
        assert_eq!(src_comps.len(), kernel.src_dim(), "{name}");
        assert_eq!(trg_comps.len(), kernel.trg_dim(), "{name}");
        let signed = |t: &AxisMap, comps: &[Component], v: &[f64]| {
            let mut out = vec![0.0; v.len()];
            for (c, &x) in v.iter().enumerate() {
                let (to, neg) = t.component(comps, c);
                out[to] = if neg { -x } else { x };
            }
            out
        };
        for t in all_axis_maps() {
            let pts = random_points(&mut rng, 2);
            let data: Vec<f64> = (0..kernel.src_dim())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let mut out = vec![0.0; kernel.trg_dim()];
            kernel.eval_acc(pts[0], pts[1], &data, &mut out);
            let mut mapped = vec![0.0; kernel.trg_dim()];
            kernel.eval_acc(
                map_point(&t, pts[0]),
                map_point(&t, pts[1]),
                &signed(&t, &src_comps, &data),
                &mut mapped,
            );
            let scale = out.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (a, b) in mapped.iter().zip(signed(&t, &trg_comps, &out)) {
                assert!(
                    (a - b).abs() <= 1e-14 * scale,
                    "{name} under {t:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn declared_component_transforms_hold_for_all_48_axis_maps() {
        assert_eq!(all_axis_maps().count(), 48);
        check_declared_symmetry(&LaplaceSL, "laplace_sl");
        check_declared_symmetry(&LaplaceDL, "laplace_dl");
        check_declared_symmetry(&StokesSL { mu: 0.7 }, "stokes_sl");
        check_declared_symmetry(&StokesDL, "stokes_dl");
        check_declared_symmetry(&StokesEquiv { mu: 1.3 }, "stokes_equiv");
    }

    /// `rsqrt8` against `1.0 / r2.sqrt()` over `r²` log-spaced in
    /// [1e-12, 1e12]: within 4 ulp relative (measured 1.67 ulp; with one
    /// Newton step instead of two, 2.3e7), and exactly 0 at `r² = 0`; a
    /// target on its only source gets exactly nothing from either AVX-512
    /// kernel.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    #[test]
    fn rsqrt8_is_within_4_ulp_and_zero_at_the_origin() {
        let rsqrt_tile = |r2: &[f64; TILE]| {
            let mut y = [0.0; TILE];
            for g in 0..TILE / LANES {
                // SAFETY: avx512f is enabled for the whole build (the
                // test's cfg); the store writes LANES f64 inside `y`.
                unsafe { _mm512_storeu_pd(y[g * LANES..].as_mut_ptr(), rsqrt8(lanes8(r2, g))) };
            }
            y
        };
        let n = 1000 * TILE;
        let mut worst = 0.0f64;
        for k0 in (0..n).step_by(TILE) {
            let r2: [f64; TILE] =
                std::array::from_fn(|l| 1e-12 * 1e24f64.powf((k0 + l) as f64 / (n - 1) as f64));
            for (y, r2) in rsqrt_tile(&r2).iter().zip(r2) {
                let exact = 1.0 / r2.sqrt();
                worst = worst.max(((y - exact) / exact).abs() / f64::EPSILON);
            }
        }
        assert!(worst <= 4.0, "rsqrt8 is {worst} ulp from 1/sqrt");
        let mut r2 = [1.0; TILE];
        r2[3] = 0.0;
        let y = rsqrt_tile(&r2);
        assert_eq!(y[3].to_bits(), 0, "rsqrt8(0) = {}", y[3]);
        assert_eq!(y[2], 1.0);

        let p = Vec3::new(0.3, -0.2, 0.7);
        let mut out = [0.0; 3];
        StokesDL.eval_block(&[p], &[p], &[1.0, -2.0, 0.5, 0.0, 0.6, 0.8], &mut out);
        StokesEquiv { mu: 1.3 }.eval_block(&[p], &[p], &[1.0, -2.0, 0.5, 0.7], &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn self_interaction_is_skipped() {
        let p = Vec3::new(0.5, 0.5, 0.5);
        let mut out = [0.0; 3];
        StokesSL { mu: 1.0 }.eval_acc(p, p, &[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [0.0; 3]);
    }
}
