//! Stokes kernels: single-layer Stokeslet, double-layer stresslet, and the
//! associated pressure kernels (Eq. 2.4 and 2.5 of the paper).
//!
//! Sign conventions, fixed once and verified by the Gauss-type identities in
//! the tests below (`r = x − y`, `n` the outward normal of the closed
//! surface, fluid on the *interior* side as in a blood vessel):
//!
//! - single layer: `S(x,y) f = 1/(8πμ) (f/|r| + r (r·f)/|r|³)`;
//! - double layer: `D(x,y) φ = −3/(4π) · r (r·φ)(r·n)/|r|⁵`, chosen so that
//!   for constant density `c`, `∫_Γ D(x,·) c dS = c` for `x` strictly inside,
//!   `c/2` in the principal-value sense on `Γ`, and `0` outside. Hence the
//!   interior-limit operator is `(1/2) I + D_PV`, matching Eq. (2.5).

use crate::traits::CheckLines;
use linalg::Vec3;

/// Stokes single-layer (Stokeslet) velocity kernel.
///
/// Returns `S(x,y) f` where `r = x − y`; `mu` is the ambient viscosity.
/// Returns zero when `x == y` (the singular self term is handled by the
/// dedicated quadrature schemes, never by this function).
#[inline]
pub fn stokeslet(x: Vec3, y: Vec3, f: Vec3, mu: f64) -> Vec3 {
    let r = x - y;
    let r2 = r.norm_sq();
    if r2 == 0.0 {
        return Vec3::ZERO;
    }
    let rinv = 1.0 / r2.sqrt();
    let rinv3 = rinv * rinv * rinv;
    let c = 1.0 / (8.0 * std::f64::consts::PI * mu);
    c * (f * rinv + r * (r.dot(f) * rinv3))
}

/// The 3×3 Stokeslet matrix `S(x,y)` (row-major), without the force applied.
#[inline]
pub fn stokeslet_matrix(x: Vec3, y: Vec3, mu: f64) -> [[f64; 3]; 3] {
    let r = x - y;
    let r2 = r.norm_sq();
    let mut m = [[0.0; 3]; 3];
    if r2 == 0.0 {
        return m;
    }
    let rinv = 1.0 / r2.sqrt();
    let rinv3 = rinv / r2;
    let c = 1.0 / (8.0 * std::f64::consts::PI * mu);
    let ra = r.to_array();
    for i in 0..3 {
        for j in 0..3 {
            let delta = if i == j { rinv } else { 0.0 };
            m[i][j] = c * (delta + ra[i] * ra[j] * rinv3);
        }
    }
    m
}

/// Stokes double-layer (stresslet) velocity kernel.
///
/// Returns `D(x,y) φ` with source normal `n = n(y)`; `r = x − y`. See the
/// module docs for the sign convention. Independent of viscosity.
#[inline]
pub fn stresslet(x: Vec3, y: Vec3, phi: Vec3, n: Vec3) -> Vec3 {
    let r = x - y;
    let r2 = r.norm_sq();
    if r2 == 0.0 {
        return Vec3::ZERO;
    }
    let rinv = 1.0 / r2.sqrt();
    let rinv5 = rinv * rinv * rinv * rinv * rinv;
    let c = -3.0 / (4.0 * std::f64::consts::PI);
    r * (c * r.dot(phi) * r.dot(n) * rinv5)
}

/// Batched Stokeslet: `out[3i..3i+3] += Σ_j S(t_i, s_j) f_j`.
///
/// Tiled SoA inner loops; the `1/(8πμ)` constant is hoisted and applied
/// once per target, and the self-interaction guard compiles to a select,
/// so the lane loop autovectorizes.
pub fn stokeslet_block(trgs: &[Vec3], srcs: &[Vec3], data: &[f64], mu: f64, out: &mut [f64]) {
    use crate::traits::{load_tile, LANES, TILE};
    debug_assert_eq!(data.len(), srcs.len() * 3);
    debug_assert_eq!(out.len(), trgs.len() * 3);
    let c = 1.0 / (8.0 * std::f64::consts::PI * mu);
    let (mut xs, mut ys, mut zs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let (mut fxs, mut fys, mut fzs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    for (tile, dt) in srcs.chunks(TILE).zip(data.chunks(TILE * 3)) {
        load_tile(tile, &mut xs, &mut ys, &mut zs);
        let m = tile.len();
        for l in 0..m {
            fxs[l] = dt[l * 3];
            fys[l] = dt[l * 3 + 1];
            fzs[l] = dt[l * 3 + 2];
        }
        // zero data ⇒ stale tail lanes contribute 0
        fxs[m..].fill(0.0);
        fys[m..].fill(0.0);
        fzs[m..].fill(0.0);
        for (i, &t) in trgs.iter().enumerate() {
            let mut ax = [0.0f64; LANES];
            let mut ay = [0.0f64; LANES];
            let mut az = [0.0f64; LANES];
            for g in 0..TILE / LANES {
                let o = g * LANES;
                for l in 0..LANES {
                    let rx = t.x - xs[o + l];
                    let ry = t.y - ys[o + l];
                    let rz = t.z - zs[o + l];
                    let r2 = rx * rx + ry * ry + rz * rz;
                    let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                    let rinv2 = rinv * rinv;
                    let fdotr = fxs[o + l] * rx + fys[o + l] * ry + fzs[o + l] * rz;
                    let s = fdotr * rinv2 * rinv;
                    ax[l] += fxs[o + l] * rinv + rx * s;
                    ay[l] += fys[o + l] * rinv + ry * s;
                    az[l] += fzs[o + l] * rinv + rz * s;
                }
            }
            out[i * 3] += c * ax.iter().sum::<f64>();
            out[i * 3 + 1] += c * ay.iter().sum::<f64>();
            out[i * 3 + 2] += c * az.iter().sum::<f64>();
        }
    }
}

/// Batched stresslet (`[φx, φy, φz, nx, ny, nz]` per source), same
/// convention as [`stresslet`]: the FMM's S2M, P2L and P2P, and the far
/// targets of a dense-backend `eval_at` (the dense wall matvec runs
/// [`stresslet_lines_block`]).
///
/// Tiled SoA loops as [`stokeslet_block`]. Where the build targets
/// AVX-512 each target meets a tile as four 8-lane groups with FMA dot
/// products and accumulators and `1/|r|` from one `rsqrt14` estimate plus
/// two Newton steps (within 4 ulp of `1.0 / r2.sqrt()`, exactly 0 at
/// `r = 0`); the sum sits ~6e-16 (relative 2-norm) from the exact loop,
/// which every other build runs unchanged.
pub fn stresslet_block(trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
    use crate::traits::{load_tile, TILE};
    debug_assert_eq!(data.len(), srcs.len() * 6);
    debug_assert_eq!(out.len(), trgs.len() * 3);
    let c = -3.0 / (4.0 * std::f64::consts::PI);
    let (mut xs, mut ys, mut zs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let (mut pxs, mut pys, mut pzs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let (mut nxs, mut nys, mut nzs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    for (tile, dt) in srcs.chunks(TILE).zip(data.chunks(TILE * 6)) {
        load_tile(tile, &mut xs, &mut ys, &mut zs);
        let m = tile.len();
        for l in 0..m {
            pxs[l] = dt[l * 6];
            pys[l] = dt[l * 6 + 1];
            pzs[l] = dt[l * 6 + 2];
            nxs[l] = dt[l * 6 + 3];
            nys[l] = dt[l * 6 + 4];
            nzs[l] = dt[l * 6 + 5];
        }
        // zero data ⇒ stale tail lanes contribute 0
        pxs[m..].fill(0.0);
        pys[m..].fill(0.0);
        pzs[m..].fill(0.0);
        for (i, &t) in trgs.iter().enumerate() {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
            // SAFETY: compiled only where avx512f is enabled for the whole
            // build, so the CPU running this has it.
            let sum = unsafe {
                stresslet_lanes8(t, [&xs, &ys, &zs], [&pxs, &pys, &pzs], [&nxs, &nys, &nzs])
            };
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
            let sum = {
                use crate::traits::LANES;
                let mut ax = [0.0f64; LANES];
                let mut ay = [0.0f64; LANES];
                let mut az = [0.0f64; LANES];
                for g in 0..TILE / LANES {
                    let o = g * LANES;
                    for l in 0..LANES {
                        let rx = t.x - xs[o + l];
                        let ry = t.y - ys[o + l];
                        let rz = t.z - zs[o + l];
                        let r2 = rx * rx + ry * ry + rz * rz;
                        let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                        let rinv2 = rinv * rinv;
                        let rinv5 = rinv2 * rinv2 * rinv;
                        let rdotp = rx * pxs[o + l] + ry * pys[o + l] + rz * pzs[o + l];
                        let rdotn = rx * nxs[o + l] + ry * nys[o + l] + rz * nzs[o + l];
                        let s = rdotp * rdotn * rinv5;
                        ax[l] += rx * s;
                        ay[l] += ry * s;
                        az[l] += rz * s;
                    }
                }
                [
                    ax.iter().sum::<f64>(),
                    ay.iter().sum::<f64>(),
                    az.iter().sum::<f64>(),
                ]
            };
            out[i * 3] += c * sum[0];
            out[i * 3 + 1] += c * sum[1];
            out[i * 3 + 2] += c * sum[2];
        }
    }
}

/// The stresslet sum of the sources (`[φx, φy, φz, nx, ny, nz]` each) at
/// every check point of `lines`, combined by the line weights:
/// `out[3i..3i+3] += Σ_k w_ik Σ_j D(x_i − t_ik n_i, y_j) φ_j`, without
/// forming a check-point value (the dense wall matvec and the near
/// targets of `eval_at`).
///
/// Eight lines sit in the lanes and the sources are broadcast. Per
/// (line, source) `d = x_i − y_j` and the dot products `d·d`, `d·n_i`,
/// `d·n_j`, `d·φ_j`, `n_i·n_j`, `n_i·φ_j` are formed once; per check
/// point only `r² = d·d − 2t d·n_i + t²`, `1/|r|`, `r·n_j = d·n_j − t
/// n_i·n_j` and `r·φ_j = d·φ_j − t n_i·φ_j` remain, and with
/// `r_k = d − t_k n_i` the weighted sum of `r_k s_k` is `d·A − n_i·B`,
/// `A = Σ_k w_k s_k`, `B = Σ_k w_k t_k s_k`. A check point on a source
/// (`r²` ≤ 0 after rounding) adds exactly nothing. Where the build
/// targets AVX-512 the lanes are one register and `1/|r|` comes from
/// `rsqrt8`; elsewhere lane loops take the exact `1/√r²`.
pub fn stresslet_lines_block(lines: &CheckLines, srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
    use crate::traits::{LineLanes, LANES};
    debug_assert_eq!(data.len(), srcs.len() * 6);
    debug_assert_eq!(out.len(), lines.len() * 3);
    let c = -3.0 / (4.0 * std::f64::consts::PI);
    let mut lanes = LineLanes::new(lines.points_per_line());
    for first in (0..lines.len()).step_by(LANES) {
        let m = lanes.load(lines, first);
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        // SAFETY: compiled only where avx512f is enabled for the whole
        // build, so the CPU running this has it.
        let sum = unsafe { stresslet_lines_lanes8(&lanes, srcs, data) };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
        let sum = stresslet_lines_lanes(&lanes, srcs, data);
        for l in 0..m {
            for k in 0..3 {
                out[(first + l) * 3 + k] += c * sum[k][l];
            }
        }
    }
}

/// [`stresslet_lines_lanes8`] where the build does not target AVX-512:
/// the same operations with the exact `1/√r²`, each step a loop over the
/// lanes (per source the dot products, per check point the kernel), so
/// the inner loops run over the lanes and can vectorize.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
fn stresslet_lines_lanes(
    lanes: &crate::traits::LineLanes,
    srcs: &[Vec3],
    data: &[f64],
) -> [[f64; crate::traits::LANES]; 3] {
    use crate::traits::LANES;
    let (x, n) = (&lanes.x, &lanes.n);
    let mut acc = [[0.0; LANES]; 3];
    let mut acc_b = [0.0; LANES];
    let mut d = [[0.0; LANES]; 3];
    let (mut dd, mut dn, mut dnj) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    let (mut dp, mut nnj, mut np) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    for (y, dj) in srcs.iter().zip(data.chunks_exact(6)) {
        let (phi, nj) = (&dj[..3], &dj[3..]);
        for l in 0..LANES {
            let dl = [x[0][l] - y.x, x[1][l] - y.y, x[2][l] - y.z];
            let nl = [n[0][l], n[1][l], n[2][l]];
            for c in 0..3 {
                d[c][l] = dl[c];
            }
            dd[l] = dl[0] * dl[0] + dl[1] * dl[1] + dl[2] * dl[2];
            dn[l] = dl[0] * nl[0] + dl[1] * nl[1] + dl[2] * nl[2];
            dnj[l] = dl[0] * nj[0] + dl[1] * nj[1] + dl[2] * nj[2];
            dp[l] = dl[0] * phi[0] + dl[1] * phi[1] + dl[2] * phi[2];
            nnj[l] = nl[0] * nj[0] + nl[1] * nj[1] + nl[2] * nj[2];
            np[l] = nl[0] * phi[0] + nl[1] * phi[1] + nl[2] * phi[2];
        }
        let (mut a, mut b) = ([0.0; LANES], [0.0; LANES]);
        for ((t, w), wt) in lanes.t.iter().zip(&lanes.w).zip(&lanes.wt) {
            for l in 0..LANES {
                let r2 = dd[l] - 2.0 * t[l] * dn[l] + t[l] * t[l];
                let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                let rinv2 = rinv * rinv;
                let s = (dnj[l] - t[l] * nnj[l]) * (dp[l] - t[l] * np[l]) * (rinv2 * rinv2 * rinv);
                a[l] += w[l] * s;
                b[l] += wt[l] * s;
            }
        }
        for l in 0..LANES {
            for c in 0..3 {
                acc[c][l] += d[c][l] * a[l];
            }
            acc_b[l] += b[l];
        }
    }
    let mut sum = [[0.0; LANES]; 3];
    for c in 0..3 {
        for l in 0..LANES {
            sum[c][l] = acc[c][l] - n[c][l] * acc_b[l];
        }
    }
    sum
}

/// The sum of [`stresslet_lines_block`] over all sources for one group
/// of lines, before its `−3/(4π)`: lanes are lines, FMA dot products,
/// `1/|r|` from `rsqrt8`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
fn stresslet_lines_lanes8(
    lanes: &crate::traits::LineLanes,
    srcs: &[Vec3],
    data: &[f64],
) -> [[f64; crate::traits::LANES]; 3] {
    use crate::traits::{load8, rsqrt8, LANES};
    use std::arch::x86_64::*;
    let x = lanes.x.map(|a| load8(&a));
    let n = lanes.n.map(|a| load8(&a));
    let two = _mm512_set1_pd(2.0);
    let mut acc = [_mm512_setzero_pd(); 3];
    let mut acc_b = _mm512_setzero_pd();
    for (y, dj) in srcs.iter().zip(data.chunks_exact(6)) {
        let d = [
            _mm512_sub_pd(x[0], _mm512_set1_pd(y.x)),
            _mm512_sub_pd(x[1], _mm512_set1_pd(y.y)),
            _mm512_sub_pd(x[2], _mm512_set1_pd(y.z)),
        ];
        let phi = [dj[0], dj[1], dj[2]].map(|v| _mm512_set1_pd(v));
        let nj = [dj[3], dj[4], dj[5]].map(|v| _mm512_set1_pd(v));
        let (dd, dn) = (dot8(d, d), dot8(d, n));
        let (dnj, dp) = (dot8(d, nj), dot8(d, phi));
        let (nnj, np) = (dot8(n, nj), dot8(n, phi));
        let mut a = _mm512_setzero_pd();
        let mut b = _mm512_setzero_pd();
        for ((t, w), wt) in lanes.t.iter().zip(&lanes.w).zip(&lanes.wt) {
            let t = load8(t);
            // r² = t·(t − 2 d·n) + d·d
            let r2 = _mm512_fmadd_pd(t, _mm512_fnmadd_pd(two, dn, t), dd);
            let rinv = rsqrt8(r2);
            let rinv2 = _mm512_mul_pd(rinv, rinv);
            let rinv5 = _mm512_mul_pd(_mm512_mul_pd(rinv2, rinv2), rinv);
            let rn = _mm512_fnmadd_pd(t, nnj, dnj);
            let rp = _mm512_fnmadd_pd(t, np, dp);
            let s = _mm512_mul_pd(_mm512_mul_pd(rn, rp), rinv5);
            a = _mm512_fmadd_pd(load8(w), s, a);
            b = _mm512_fmadd_pd(load8(wt), s, b);
        }
        for k in 0..3 {
            acc[k] = _mm512_fmadd_pd(d[k], a, acc[k]);
        }
        acc_b = _mm512_add_pd(acc_b, b);
    }
    let mut sum = [[0.0; LANES]; 3];
    for k in 0..3 {
        let u = _mm512_fnmadd_pd(n[k], acc_b, acc[k]);
        // SAFETY: the store writes LANES = 8 f64, all of `sum[k]`.
        unsafe { _mm512_storeu_pd(sum[k].as_mut_ptr(), u) };
    }
    sum
}

/// Batched augmented Stokes equivalent kernel (`[fx, fy, fz, q]` per
/// source): Stokeslet plus a potential point source, the equivalent-density
/// basis of the Stokes double-layer FMM (its L2T and M2T). On AVX-512
/// targets it runs the 8-lane body described at [`stresslet_block`].
pub fn stokes_equiv_block(trgs: &[Vec3], srcs: &[Vec3], data: &[f64], mu: f64, out: &mut [f64]) {
    use crate::traits::{load_tile, TILE};
    debug_assert_eq!(data.len(), srcs.len() * 4);
    debug_assert_eq!(out.len(), trgs.len() * 3);
    let cs = 1.0 / (8.0 * std::f64::consts::PI * mu);
    let cq = 1.0 / (4.0 * std::f64::consts::PI);
    let (mut xs, mut ys, mut zs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let (mut fxs, mut fys, mut fzs, mut qs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE], [0.0; TILE]);
    for (tile, dt) in srcs.chunks(TILE).zip(data.chunks(TILE * 4)) {
        load_tile(tile, &mut xs, &mut ys, &mut zs);
        let m = tile.len();
        for l in 0..m {
            // fold the 1/8πμ and 1/4π constants into the tile data so the
            // inner loop applies no per-target scaling
            fxs[l] = cs * dt[l * 4];
            fys[l] = cs * dt[l * 4 + 1];
            fzs[l] = cs * dt[l * 4 + 2];
            qs[l] = cq * dt[l * 4 + 3];
        }
        // zero data ⇒ stale tail lanes contribute 0
        fxs[m..].fill(0.0);
        fys[m..].fill(0.0);
        fzs[m..].fill(0.0);
        qs[m..].fill(0.0);
        for (i, &t) in trgs.iter().enumerate() {
            #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
            // SAFETY: compiled only where avx512f is enabled for the whole
            // build, so the CPU running this has it.
            let sum = unsafe { stokes_equiv_lanes8(t, [&xs, &ys, &zs], [&fxs, &fys, &fzs], &qs) };
            #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
            let sum = {
                use crate::traits::LANES;
                let mut ax = [0.0f64; LANES];
                let mut ay = [0.0f64; LANES];
                let mut az = [0.0f64; LANES];
                for g in 0..TILE / LANES {
                    let o = g * LANES;
                    for l in 0..LANES {
                        let rx = t.x - xs[o + l];
                        let ry = t.y - ys[o + l];
                        let rz = t.z - zs[o + l];
                        let r2 = rx * rx + ry * ry + rz * rz;
                        let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                        let rinv2 = rinv * rinv;
                        let rinv3 = rinv2 * rinv;
                        let fdotr = fxs[o + l] * rx + fys[o + l] * ry + fzs[o + l] * rz;
                        let s = fdotr * rinv3 + qs[o + l] * rinv3;
                        ax[l] += fxs[o + l] * rinv + rx * s;
                        ay[l] += fys[o + l] * rinv + ry * s;
                        az[l] += fzs[o + l] * rinv + rz * s;
                    }
                }
                [
                    ax.iter().sum::<f64>(),
                    ay.iter().sum::<f64>(),
                    az.iter().sum::<f64>(),
                ]
            };
            out[i * 3] += sum[0];
            out[i * 3 + 1] += sum[1];
            out[i * 3 + 2] += sum[2];
        }
    }
}

/// One target's sum over one tile of [`stresslet_block`] before its
/// `−3/(4π)`: `TILE / LANES` groups of eight lanes with FMA dot products
/// and accumulators, `1/|r|` from `rsqrt8`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
fn stresslet_lanes8(t: Vec3, pos: [&Tile; 3], phi: [&Tile; 3], n: [&Tile; 3]) -> [f64; 3] {
    use crate::traits::{lanes8, rsqrt8, LANES, TILE};
    use std::arch::x86_64::*;
    let tv = [t.x, t.y, t.z].map(|c| _mm512_set1_pd(c));
    let mut acc = [_mm512_setzero_pd(); 3];
    for g in 0..TILE / LANES {
        let r: [__m512d; 3] = std::array::from_fn(|k| _mm512_sub_pd(tv[k], lanes8(pos[k], g)));
        let rinv = rsqrt8(dot8(r, r));
        let rinv2 = _mm512_mul_pd(rinv, rinv);
        let rinv5 = _mm512_mul_pd(_mm512_mul_pd(rinv2, rinv2), rinv);
        let rdotp = dot8(r, phi.map(|a| lanes8(a, g)));
        let rdotn = dot8(r, n.map(|a| lanes8(a, g)));
        let s = _mm512_mul_pd(_mm512_mul_pd(rdotp, rdotn), rinv5);
        for k in 0..3 {
            acc[k] = _mm512_fmadd_pd(r[k], s, acc[k]);
        }
    }
    acc.map(|a| _mm512_reduce_add_pd(a))
}

/// One target's sum over one tile of [`stokes_equiv_block`] (constants
/// already folded into the tile data), as [`stresslet_lanes8`].
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
fn stokes_equiv_lanes8(t: Vec3, pos: [&Tile; 3], f: [&Tile; 3], q: &Tile) -> [f64; 3] {
    use crate::traits::{lanes8, rsqrt8, LANES, TILE};
    use std::arch::x86_64::*;
    let tv = [t.x, t.y, t.z].map(|c| _mm512_set1_pd(c));
    let mut acc = [_mm512_setzero_pd(); 3];
    for g in 0..TILE / LANES {
        let r: [__m512d; 3] = std::array::from_fn(|k| _mm512_sub_pd(tv[k], lanes8(pos[k], g)));
        let rinv = rsqrt8(dot8(r, r));
        let rinv3 = _mm512_mul_pd(_mm512_mul_pd(rinv, rinv), rinv);
        let fv = f.map(|a| lanes8(a, g));
        let s = _mm512_mul_pd(_mm512_add_pd(dot8(fv, r), lanes8(q, g)), rinv3);
        for k in 0..3 {
            acc[k] = _mm512_fmadd_pd(fv[k], rinv, _mm512_fmadd_pd(r[k], s, acc[k]));
        }
    }
    acc.map(|a| _mm512_reduce_add_pd(a))
}

/// `a · b` over three 8-lane components, by FMA.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
#[inline]
fn dot8(
    a: [std::arch::x86_64::__m512d; 3],
    b: [std::arch::x86_64::__m512d; 3],
) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;
    _mm512_fmadd_pd(
        a[2],
        b[2],
        _mm512_fmadd_pd(a[1], b[1], _mm512_mul_pd(a[0], b[0])),
    )
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
type Tile = [f64; crate::traits::TILE];

/// Pressure kernel associated with the Stokeslet:
/// `p(x) = (1/4π) r·f / |r|³`.
#[inline]
pub fn stokeslet_pressure(x: Vec3, y: Vec3, f: Vec3) -> f64 {
    let r = x - y;
    let r2 = r.norm_sq();
    if r2 == 0.0 {
        return 0.0;
    }
    let rinv3 = 1.0 / (r2 * r2.sqrt());
    r.dot(f) * rinv3 / (4.0 * std::f64::consts::PI)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::quad::gauss_legendre;
    use std::f64::consts::PI;

    /// Quadrature over the unit sphere: Gauss–Legendre in cos(theta),
    /// uniform in phi — spectrally accurate for smooth integrands.
    fn sphere_quadrature(nlat: usize) -> Vec<(Vec3, f64)> {
        let gl = gauss_legendre(nlat);
        let nphi = 2 * nlat;
        let mut out = Vec::new();
        for i in 0..nlat {
            let ct = gl.nodes[i];
            let st = (1.0 - ct * ct).sqrt();
            let wlat = gl.weights[i];
            for j in 0..nphi {
                let phi = 2.0 * PI * j as f64 / nphi as f64;
                let y = Vec3::new(st * phi.cos(), st * phi.sin(), ct);
                out.push((y, wlat * 2.0 * PI / nphi as f64));
            }
        }
        out
    }

    #[test]
    fn double_layer_gauss_identity_inside_on_outside() {
        // ∫ D(x,y) c dS over the unit sphere equals c inside, 0 outside.
        let quad = sphere_quadrature(24);
        let c = Vec3::new(0.3, -1.0, 2.0);
        for (x, expect) in [
            (Vec3::new(0.2, 0.1, -0.3), c),
            (Vec3::new(0.0, 0.0, 0.0), c),
            (Vec3::new(2.0, 1.0, 0.5), Vec3::ZERO),
        ] {
            let mut acc = Vec3::ZERO;
            for &(y, w) in &quad {
                let n = y; // unit sphere: outward normal = position
                acc += stresslet(x, y, c, n) * w;
            }
            assert!(
                (acc - expect).norm() < 1e-10,
                "x={x:?} got {acc:?} want {expect:?}"
            );
        }
    }

    #[test]
    fn single_layer_velocity_is_continuous_and_divergence_free() {
        // numerically check ∇·u = 0 for a Stokeslet field
        let y = Vec3::new(0.1, -0.2, 0.05);
        let f = Vec3::new(1.0, 2.0, -0.5);
        let x = Vec3::new(1.0, 0.7, -0.4);
        let h = 1e-5;
        let mut div = 0.0;
        for k in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[k] += h;
            xm[k] -= h;
            div += (stokeslet(xp, y, f, 1.0)[k] - stokeslet(xm, y, f, 1.0)[k]) / (2.0 * h);
        }
        assert!(div.abs() < 1e-8, "div={div}");
    }

    #[test]
    fn stresslet_field_is_divergence_free() {
        let y = Vec3::new(0.0, 0.0, 0.0);
        let n = Vec3::new(0.0, 0.0, 1.0);
        let phi = Vec3::new(1.0, -1.0, 0.5);
        let x = Vec3::new(0.8, 0.3, 0.6);
        let h = 1e-5;
        let mut div = 0.0;
        for k in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[k] += h;
            xm[k] -= h;
            div += (stresslet(xp, y, phi, n)[k] - stresslet(xm, y, phi, n)[k]) / (2.0 * h);
        }
        assert!(div.abs() < 1e-8, "div={div}");
    }

    #[test]
    fn stokeslet_satisfies_stokes_equation_away_from_source() {
        // μ Δu = ∇p away from the singularity
        let y = Vec3::ZERO;
        let f = Vec3::new(0.7, -0.3, 1.1);
        let x = Vec3::new(0.9, 0.5, -0.7);
        let mu = 2.0;
        let h = 1e-4;
        for comp in 0..3 {
            // Laplacian of u_comp by central differences
            let mut lap = 0.0;
            let u0 = stokeslet(x, y, f, mu)[comp];
            for k in 0..3 {
                let mut xp = x;
                let mut xm = x;
                xp[k] += h;
                xm[k] -= h;
                lap += (stokeslet(xp, y, f, mu)[comp] + stokeslet(xm, y, f, mu)[comp] - 2.0 * u0)
                    / (h * h);
            }
            // pressure gradient component
            let mut xp = x;
            let mut xm = x;
            xp[comp] += h;
            xm[comp] -= h;
            let dp = (stokeslet_pressure(xp, y, f) - stokeslet_pressure(xm, y, f)) / (2.0 * h);
            assert!(
                (mu * lap - dp).abs() < 1e-4,
                "comp {comp}: mu lap {} vs dp {}",
                mu * lap,
                dp
            );
        }
    }

    #[test]
    fn stokeslet_matrix_matches_apply() {
        let x = Vec3::new(1.0, 2.0, 3.0);
        let y = Vec3::new(-0.5, 0.3, 0.9);
        let f = Vec3::new(0.2, -0.7, 1.3);
        let m = stokeslet_matrix(x, y, 1.7);
        let u = stokeslet(x, y, f, 1.7);
        for i in 0..3 {
            let v = m[i][0] * f.x + m[i][1] * f.y + m[i][2] * f.z;
            assert!((v - u[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn kernels_scale_correctly_with_viscosity_and_distance() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::ZERO;
        let f = Vec3::new(0.0, 1.0, 0.0);
        // Stokeslet homogeneous of degree −1
        let u1 = stokeslet(x, y, f, 1.0);
        let u2 = stokeslet(x * 2.0, y, f, 1.0);
        assert!((u1.norm() / u2.norm() - 2.0).abs() < 1e-12);
        // viscosity scaling 1/μ
        let umu = stokeslet(x, y, f, 4.0);
        assert!((u1.norm() / umu.norm() - 4.0).abs() < 1e-12);
        // stresslet homogeneous of degree −2 (normal chosen with r·n ≠ 0)
        let n = Vec3::new(1.0, 0.0, 1.0).normalized();
        let phi = Vec3::new(1.0, 1.0, 1.0);
        let d1 = stresslet(x, y, phi, n);
        let d2 = stresslet(x * 2.0, y, phi, n);
        assert!((d1.norm() / d2.norm() - 4.0).abs() < 1e-12);
    }
}
