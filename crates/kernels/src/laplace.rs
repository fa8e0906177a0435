//! Laplace kernels (single and double layer).
//!
//! Not used by the blood-flow model itself, but they are the cheapest
//! elliptic kernels and serve as the reference case for validating the
//! kernel-independent FMM and the singular-quadrature machinery — the
//! boundary solver of the paper is advertised as a general elliptic-PDE
//! solver, and these kernels exercise that generality.

use linalg::Vec3;

/// Laplace single-layer kernel `G(x,y) q = q / (4π |x−y|)`.
#[inline]
pub fn laplace_sl(x: Vec3, y: Vec3, q: f64) -> f64 {
    let r2 = (x - y).norm_sq();
    if r2 == 0.0 {
        return 0.0;
    }
    q / (4.0 * std::f64::consts::PI * r2.sqrt())
}

/// Laplace double-layer kernel with the interior-Gauss convention:
/// `K(x,y) q = q ((y−x)·n) / (4π |x−y|³)`, so that `∫_Γ K(x,·) dS = 1` for
/// `x` inside the closed surface `Γ` with outward normal `n` (the classical
/// identity `∫ ∂/∂n (1/4πr) dS = −1` carries the opposite sign).
#[inline]
pub fn laplace_dl(x: Vec3, y: Vec3, q: f64, n: Vec3) -> f64 {
    let r = x - y;
    let r2 = r.norm_sq();
    if r2 == 0.0 {
        return 0.0;
    }
    let rinv3 = 1.0 / (r2 * r2.sqrt());
    -q * r.dot(n) * rinv3 / (4.0 * std::f64::consts::PI)
}

/// Batched Laplace single layer: `out[i] += Σ_j q_j / (4π |t_i − s_j|)`.
///
/// Tiled SoA inner loops with the 1/4π constant hoisted; the lane loop has
/// a fixed trip count and no branches (the self-interaction guard compiles
/// to a select), so it autovectorizes.
pub fn laplace_sl_block(trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
    use crate::traits::{load_tile, LANES, TILE};
    debug_assert_eq!(data.len(), srcs.len());
    debug_assert_eq!(out.len(), trgs.len());
    let c = 1.0 / (4.0 * std::f64::consts::PI);
    let (mut xs, mut ys, mut zs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let mut qs = [0.0; TILE];
    for (tile, qt) in srcs.chunks(TILE).zip(data.chunks(TILE)) {
        load_tile(tile, &mut xs, &mut ys, &mut zs);
        qs[..qt.len()].copy_from_slice(qt);
        qs[qt.len()..].fill(0.0); // zero data ⇒ stale tail lanes contribute 0
        for (i, &t) in trgs.iter().enumerate() {
            let mut acc = [0.0f64; LANES];
            for g in 0..TILE / LANES {
                let o = g * LANES;
                for l in 0..LANES {
                    let dx = t.x - xs[o + l];
                    let dy = t.y - ys[o + l];
                    let dz = t.z - zs[o + l];
                    let r2 = dx * dx + dy * dy + dz * dz;
                    let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                    acc[l] += qs[o + l] * rinv;
                }
            }
            out[i] += c * acc.iter().sum::<f64>();
        }
    }
}

/// Batched Laplace double layer (`[q, nx, ny, nz]` per source), same
/// convention as [`laplace_dl`].
pub fn laplace_dl_block(trgs: &[Vec3], srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
    use crate::traits::{load_tile, LANES, TILE};
    debug_assert_eq!(data.len(), srcs.len() * 4);
    debug_assert_eq!(out.len(), trgs.len());
    let c = -1.0 / (4.0 * std::f64::consts::PI);
    let (mut xs, mut ys, mut zs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE]);
    let (mut qs, mut nxs, mut nys, mut nzs) = ([0.0; TILE], [0.0; TILE], [0.0; TILE], [0.0; TILE]);
    for (tile, dt) in srcs.chunks(TILE).zip(data.chunks(TILE * 4)) {
        load_tile(tile, &mut xs, &mut ys, &mut zs);
        let m = tile.len();
        for l in 0..m {
            qs[l] = dt[l * 4];
            nxs[l] = dt[l * 4 + 1];
            nys[l] = dt[l * 4 + 2];
            nzs[l] = dt[l * 4 + 3];
        }
        qs[m..].fill(0.0); // zero data ⇒ stale tail lanes contribute 0
        for (i, &t) in trgs.iter().enumerate() {
            let mut acc = [0.0f64; LANES];
            for g in 0..TILE / LANES {
                let o = g * LANES;
                for l in 0..LANES {
                    let dx = t.x - xs[o + l];
                    let dy = t.y - ys[o + l];
                    let dz = t.z - zs[o + l];
                    let r2 = dx * dx + dy * dy + dz * dz;
                    let rinv = if r2 > 0.0 { 1.0 / r2.sqrt() } else { 0.0 };
                    let rinv3 = rinv * rinv * rinv;
                    let rdotn = dx * nxs[o + l] + dy * nys[o + l] + dz * nzs[o + l];
                    acc[l] += qs[o + l] * rdotn * rinv3;
                }
            }
            out[i] += c * acc.iter().sum::<f64>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::quad::gauss_legendre;
    use std::f64::consts::PI;

    #[test]
    fn gauss_identity_for_double_layer() {
        let gl = gauss_legendre(20);
        let nphi = 40;
        let eval = |x: Vec3| -> f64 {
            let mut acc = 0.0;
            for i in 0..20 {
                let ct = gl.nodes[i];
                let st = (1.0 - ct * ct).sqrt();
                for j in 0..nphi {
                    let phi = 2.0 * PI * j as f64 / nphi as f64;
                    let y = Vec3::new(st * phi.cos(), st * phi.sin(), ct);
                    acc += laplace_dl(x, y, 1.0, y) * gl.weights[i] * 2.0 * PI / nphi as f64;
                }
            }
            acc
        };
        assert!((eval(Vec3::new(0.1, 0.2, -0.3)) - 1.0).abs() < 1e-10);
        assert!(eval(Vec3::new(1.5, 0.0, 1.5)).abs() < 1e-10);
    }

    #[test]
    fn potential_is_harmonic_away_from_source() {
        let y = Vec3::new(0.2, 0.1, 0.0);
        let x = Vec3::new(1.0, -0.5, 0.7);
        let h = 1e-4;
        let u0 = laplace_sl(x, y, 1.0);
        let mut lap = 0.0;
        for k in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[k] += h;
            xm[k] -= h;
            lap += (laplace_sl(xp, y, 1.0) + laplace_sl(xm, y, 1.0) - 2.0 * u0) / (h * h);
        }
        assert!(lap.abs() < 1e-6, "laplacian {lap}");
    }
}
