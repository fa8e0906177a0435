//! Procedural vessel geometries.
//!
//! The paper's vessel networks come from medical quad meshes (Figs. 1, 8);
//! those are not available, so this module generates closed patch-based
//! surfaces procedurally. All generators
//! produce smooth maps sampled at Clenshaw–Curtis nodes and fitted with
//! [`PolyPatch`]es, so every downstream code path (quadrature, closest
//! point, near-singular evaluation, collision meshes, refinement) is
//! identical to the medical-mesh case.
//!
//! Generators:
//! - [`cube_sphere`]: sphere from 6 projected cube faces (convergence tests);
//! - [`torus`]: closed vessel loop;
//! - [`modulated_torus`]: vessel loop with radius modulation (stenoses and
//!   aneurysm-like bulges) — the "complex vessel" stand-in for scaling runs;
//! - [`capsule_tube`]: tube with hemispherical caps along an arbitrary
//!   smooth centerline, with inlet/outlet cap marking for confined flows.

use crate::poly::PolyPatch;
use crate::surface::{BoundarySurface, PatchKind};
use linalg::{clenshaw_curtis, Vec3};
use std::f64::consts::PI;

/// Fits one patch of order `q` through samples of a smooth map on the
/// sub-square `[u0,u1] × [v0,v1]` of the map's parameter domain.
pub(crate) fn fit_from_map(
    q: usize,
    u0: f64,
    u1: f64,
    v0: f64,
    v1: f64,
    f: &dyn Fn(f64, f64) -> Vec3,
) -> PolyPatch {
    let nodes = clenshaw_curtis(q).nodes;
    let mut samples = Vec::with_capacity(q * q);
    for &tv in &nodes {
        let v = 0.5 * (v0 + v1) + 0.5 * (v1 - v0) * tv;
        for &tu in &nodes {
            let u = 0.5 * (u0 + u1) + 0.5 * (u1 - u0) * tu;
            samples.push(f(u, v));
        }
    }
    PolyPatch::fit(q, &samples)
}

/// Subdivides a map's square domain into `n × n` fitted patches.
pub(crate) fn fit_grid(q: usize, n: usize, f: &dyn Fn(f64, f64) -> Vec3) -> Vec<PolyPatch> {
    let mut out = Vec::with_capacity(n * n);
    for j in 0..n {
        let v0 = -1.0 + 2.0 * j as f64 / n as f64;
        let v1 = -1.0 + 2.0 * (j + 1) as f64 / n as f64;
        for i in 0..n {
            let u0 = -1.0 + 2.0 * i as f64 / n as f64;
            let u1 = -1.0 + 2.0 * (i + 1) as f64 / n as f64;
            out.push(fit_from_map(q, u0, u1, v0, v1, f));
        }
    }
    out
}

/// The six cube-face → unit-sphere maps with outward orientation.
pub(crate) fn cube_face_maps() -> Vec<Box<dyn Fn(f64, f64) -> Vec3 + Sync>> {
    // each face: (u,v) ∈ [-1,1]² → normalize(face point); orientation chosen
    // so that X_u × X_v points outward
    vec![
        Box::new(|u, v| Vec3::new(1.0, u, v).normalized()), // +x
        Box::new(|u, v| Vec3::new(-1.0, v, u).normalized()), // -x
        Box::new(|u, v| Vec3::new(v, 1.0, u).normalized()), // +y
        Box::new(|u, v| Vec3::new(u, -1.0, v).normalized()), // -y
        Box::new(|u, v| Vec3::new(u, v, 1.0).normalized()), // +z
        Box::new(|u, v| Vec3::new(v, u, -1.0).normalized()), // -z
    ]
}

/// Sphere of given radius/center from `6·n²` patches (cube-sphere).
///
/// `n` is the per-face subdivision; the patch size `L` scales as `1/n`,
/// which drives the boundary-solver convergence study (Fig. 9).
pub fn cube_sphere(radius: f64, center: Vec3, subdivisions: u32, q: usize) -> BoundarySurface {
    let n = 1usize << subdivisions;
    let mut patches = Vec::new();
    for face in cube_face_maps() {
        let map = |u: f64, v: f64| center + face(u, v) * radius;
        patches.extend(fit_grid(q, n, &map));
    }
    BoundarySurface::new(q, patches)
}

/// Torus with ring radius `big_r` and tube radius `small_r`, covered by
/// `nu × nv` patches (u: around the ring, v: around the tube).
pub fn torus(big_r: f64, small_r: f64, nu: usize, nv: usize, q: usize) -> BoundarySurface {
    modulated_torus(big_r, small_r, 0.0, 0, nu, nv, q)
}

/// Torus whose tube radius varies around the ring:
/// `r(α) = small_r · (1 + amp · cos(lobes · α))`.
///
/// With `amp < 0` sections pinch (stenosis), `amp > 0` sections bulge
/// (aneurysm). This is the closed "complex vessel network" used by the
/// scaling harnesses: arbitrarily refinable, confining, and smooth.
pub fn modulated_torus(
    big_r: f64,
    small_r: f64,
    amp: f64,
    lobes: u32,
    nu: usize,
    nv: usize,
    q: usize,
) -> BoundarySurface {
    assert!(
        big_r > small_r * (1.0 + amp.abs()),
        "torus would self-intersect"
    );
    let map = move |alpha: f64, beta: f64| -> Vec3 {
        let r = small_r * (1.0 + amp * (lobes as f64 * alpha).cos());
        let ring = Vec3::new(alpha.cos(), alpha.sin(), 0.0);
        // tube cross-section in the (ring, z) plane; orientation gives
        // outward normals
        ring * (big_r + r * beta.cos()) + Vec3::new(0.0, 0.0, r * beta.sin())
    };
    let mut patches = Vec::new();
    for j in 0..nv {
        let b0 = 2.0 * PI * j as f64 / nv as f64;
        let b1 = 2.0 * PI * (j + 1) as f64 / nv as f64;
        for i in 0..nu {
            let a0 = 2.0 * PI * i as f64 / nu as f64;
            let a1 = 2.0 * PI * (i + 1) as f64 / nu as f64;
            let f = |u: f64, v: f64| {
                let alpha = 0.5 * (a0 + a1) + 0.5 * (a1 - a0) * u;
                let beta = 0.5 * (b0 + b1) + 0.5 * (b1 - b0) * v;
                map(alpha, beta)
            };
            patches.push(fit_from_map(q, -1.0, 1.0, -1.0, 1.0, &f));
        }
    }
    BoundarySurface::new(q, patches)
}

/// A smooth centerline curve for [`capsule_tube`].
pub trait Centerline: Sync {
    /// Position at arc parameter `s ∈ [0, 1]`.
    fn position(&self, s: f64) -> Vec3;
    /// Reference "up" vector used to build a smooth frame (must never be
    /// parallel to the tangent).
    fn up(&self) -> Vec3 {
        Vec3::new(0.0, 0.0, 1.0)
    }
}

/// Straight segment between two points.
pub struct StraightLine {
    /// Start point.
    pub a: Vec3,
    /// End point.
    pub b: Vec3,
}

impl Centerline for StraightLine {
    fn position(&self, s: f64) -> Vec3 {
        self.a + (self.b - self.a) * s
    }
    fn up(&self) -> Vec3 {
        (self.b - self.a).any_orthogonal()
    }
}

/// Planar serpentine curve: a sequence of smooth bends in the x–y plane,
/// `y = amp · sin(2π windings x̂)` scaled to the given length.
pub struct Serpentine {
    /// Total extent along x.
    pub length: f64,
    /// Amplitude of the bends.
    pub amp: f64,
    /// Number of full sine periods.
    pub windings: f64,
}

impl Centerline for Serpentine {
    fn position(&self, s: f64) -> Vec3 {
        Vec3::new(
            self.length * s,
            self.amp * (2.0 * PI * self.windings * s).sin(),
            0.0,
        )
    }
}

/// Frame along the centerline: tangent plus a smooth normal/binormal pair
/// from the fixed up vector (valid while the tangent stays away from `up`).
fn frame(c: &dyn Centerline, s: f64) -> (Vec3, Vec3, Vec3) {
    let h = 1e-5;
    let t =
        ((c.position((s + h).min(1.0)) - c.position((s - h).max(0.0))).normalized()).normalized();
    let up = c.up();
    let n = (up - t * up.dot(t)).normalized();
    let b = t.cross(n);
    (t, n, b)
}

/// Closed tube of radius `r` along a centerline with hemispherical caps.
///
/// Patch layout: `n_s × 4` tube patches (the 4 angular patches use the
/// cube-sphere angular map so the cap seam is watertight), plus `5` patches
/// per cap (1 polar + 4 flank). Cap patches are marked [`PatchKind::Inlet`]
/// (at `s = 0`, port 0) and [`PatchKind::Outlet`] (at `s = 1`, port 1).
///
/// The caps join the tube with tangent continuity (C¹); the curvature jump
/// at the seam is an accepted geometric simplification.
pub fn capsule_tube(c: &dyn Centerline, r: f64, n_s: usize, q: usize) -> BoundarySurface {
    let mut patches = Vec::new();
    let mut kinds = Vec::new();

    // angular map shared with cube-sphere flank faces: for k-th quadrant,
    // angle φ(w) = k·90° + atan(w), w ∈ [-1,1]
    let ang = |k: usize, w: f64| -> f64 { (k as f64) * 0.5 * PI + w.atan() };

    // tube body: s ∈ [0,1] → centerline, 4 angular quadrants. Parameter
    // order (u: angular, v: axial) makes X_u × X_v point outward.
    for k in 0..4 {
        for i in 0..n_s {
            let s0 = i as f64 / n_s as f64;
            let s1 = (i + 1) as f64 / n_s as f64;
            let f = |u: f64, v: f64| -> Vec3 {
                // v: axial, u: angular (atan map keeps the cap seam exact)
                let s = 0.5 * (s0 + s1) + 0.5 * (s1 - s0) * v;
                let phi = ang(k, u);
                let (_, n, b) = frame(c, s);
                c.position(s) + (n * phi.cos() + b * phi.sin()) * r
            };
            patches.push(fit_from_map(q, -1.0, 1.0, -1.0, 1.0, &f));
            kinds.push(PatchKind::Wall);
        }
    }

    // caps: hemisphere in the local frame at s = 0 (pointing −t) and
    // s = 1 (pointing +t)
    for (end, port) in [(0.0, 0u32), (1.0, 1u32)] {
        let (t, n, b) = frame(c, end);
        let axis = if end == 0.0 { -t } else { t };
        let center = c.position(end);
        // polar face: projected square onto the hemisphere around `axis`
        let polar = |u: f64, v: f64| -> Vec3 {
            let d = (axis + (n * u + b * v) * 1.0).normalized();
            center + d * r
        };
        // orientation: ensure outward normal (flip u/v when needed)
        let polar_oriented = move |u: f64, v: f64| -> Vec3 {
            if end == 0.0 {
                polar(v, u)
            } else {
                polar(u, v)
            }
        };
        patches.push(fit_from_map(q, -1.0, 1.0, -1.0, 1.0, &polar_oriented));
        kinds.push(if port == 0 {
            PatchKind::Inlet(port)
        } else {
            PatchKind::Outlet(port)
        });
        // four flank faces: from the tube seam (polar angle 90°) to the
        // polar face edge (45°)
        for k in 0..4 {
            // exact cube-sphere half-face in the local frame: the face in
            // direction ring_k, spanned by tang_k (in-plane) and the axis;
            // its seam edge (w = 0) matches the tube's atan angular map and
            // its top edge (w = 1) matches the polar face edges, so the cap
            // is watertight
            let kang = (k as f64) * 0.5 * PI;
            let ring_k = n * kang.cos() + b * kang.sin();
            let tang_k = n * (-kang.sin()) + b * kang.cos();
            let flank = move |u: f64, v: f64| -> Vec3 {
                let w = 0.5 * (u + 1.0); // 0 at seam, 1 at polar edge
                let d = (ring_k + tang_k * v + axis * w).normalized();
                center + d * r
            };
            // orientation: outward normals on both ends
            let flank_oriented = move |u: f64, v: f64| -> Vec3 {
                if end == 0.0 {
                    flank(u, v)
                } else {
                    flank(u, -v)
                }
            };
            patches.push(fit_from_map(q, -1.0, 1.0, -1.0, 1.0, &flank_oriented));
            kinds.push(if port == 0 {
                PatchKind::Inlet(port)
            } else {
                PatchKind::Outlet(port)
            });
        }
    }

    BoundarySurface { q, patches, kinds }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_closed_surface(s: &BoundarySurface, interior: Vec3, tol: f64) {
        // Gauss identity: ∫ n·(x−c)/(4π|x−c|³) dS = 1 for c inside
        let quad = s.quadrature();
        let mut acc = 0.0;
        for i in 0..quad.len() {
            let r = quad.points[i] - interior;
            acc += quad.normals[i].dot(r) / (4.0 * PI * r.norm().powi(3)) * quad.weights[i];
        }
        assert!((acc - 1.0).abs() < tol, "Gauss identity: {acc} (want 1)");
    }

    #[test]
    fn sphere_is_closed_and_oriented() {
        let s = cube_sphere(1.0, Vec3::new(0.5, 0.0, 0.0), 1, 8);
        check_closed_surface(&s, Vec3::new(0.5, 0.1, -0.2), 1e-6);
    }

    #[test]
    fn torus_area_matches_analytic() {
        let (big_r, small_r) = (2.0, 0.5);
        let s = torus(big_r, small_r, 8, 4, 8);
        let area = s.quadrature().total_area();
        let exact = 4.0 * PI * PI * big_r * small_r;
        assert!((area - exact).abs() / exact < 1e-6, "{area} vs {exact}");
        // interior point 0.2 from the wall: plain quadrature is only
        // ~1e-3 accurate this close (the near-singular regime of §3.1)
        check_closed_surface(&s, Vec3::new(2.0, 0.0, 0.3), 5e-3);
    }

    #[test]
    fn modulated_torus_closed() {
        let s = modulated_torus(3.0, 0.6, 0.3, 5, 12, 4, 8);
        check_closed_surface(&s, Vec3::new(3.0, 0.0, 0.0), 5e-3);
        // normals outward: dot with radial-from-ring direction positive
        let quad = s.quadrature();
        let mut pos = 0usize;
        for i in 0..quad.len() {
            let p = quad.points[i];
            let ring = Vec3::new(p.x, p.y, 0.0).normalized() * 3.0;
            if quad.normals[i].dot(p - ring) > 0.0 {
                pos += 1;
            }
        }
        assert!(
            pos as f64 > 0.95 * quad.len() as f64,
            "outward normals: {pos}/{}",
            quad.len()
        );
    }

    #[test]
    fn straight_capsule_closed_and_capped() {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(4.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, 0.5, 4, 8);
        // 4·4 tube + 2·5 caps
        assert_eq!(s.num_patches(), 26);
        check_closed_surface(&s, Vec3::new(2.0, 0.1, 0.0), 2e-2);
        // area ≈ cylinder + sphere
        let area = s.quadrature().total_area();
        let exact = 2.0 * PI * 0.5 * 4.0 + 4.0 * PI * 0.25;
        assert!((area - exact).abs() / exact < 1e-3, "{area} vs {exact}");
        // inlet/outlet marked
        let inlets = s
            .kinds
            .iter()
            .filter(|k| matches!(k, PatchKind::Inlet(_)))
            .count();
        let outlets = s
            .kinds
            .iter()
            .filter(|k| matches!(k, PatchKind::Outlet(_)))
            .count();
        assert_eq!(inlets, 5);
        assert_eq!(outlets, 5);
    }

    #[test]
    fn serpentine_capsule_closed() {
        let c = Serpentine {
            length: 6.0,
            amp: 0.8,
            windings: 1.5,
        };
        let s = capsule_tube(&c, 0.4, 8, 8);
        check_closed_surface(&c_interior(&c), 2e-2, &s);
        fn c_interior(c: &Serpentine) -> Vec3 {
            c.position(0.5)
        }
        fn check_closed_surface(interior: &Vec3, tol: f64, s: &BoundarySurface) {
            let quad = s.quadrature();
            let mut acc = 0.0;
            for i in 0..quad.len() {
                let r = quad.points[i] - *interior;
                acc += quad.normals[i].dot(r) / (4.0 * PI * r.norm().powi(3)) * quad.weights[i];
            }
            assert!((acc - 1.0).abs() < tol, "Gauss identity: {acc}");
        }
    }
}
