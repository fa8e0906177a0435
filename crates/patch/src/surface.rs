//! A boundary surface Γ as a collection of polynomial patches, with the
//! coarse quadrature discretization of §3.1 attached.

use crate::poly::PolyPatch;
use linalg::{clenshaw_curtis, Aabb, Vec3};

/// Role of a patch in the flow problem (§5.1: inflow/outflow regions carry
/// parabolic velocity boundary conditions; walls are no-slip).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchKind {
    /// No-slip vessel wall (`g = 0`).
    Wall,
    /// Inflow cap belonging to the given port id.
    Inlet(u32),
    /// Outflow cap belonging to the given port id.
    Outlet(u32),
}

/// A closed boundary surface made of non-overlapping polynomial patches.
#[derive(Clone, Debug)]
pub struct BoundarySurface {
    /// Quadrature order per direction (the paper uses q = 11, i.e. 121
    /// Clenshaw–Curtis points per patch).
    pub q: usize,
    /// The patches.
    pub patches: Vec<PolyPatch>,
    /// Per-patch role.
    pub kinds: Vec<PatchKind>,
}

/// The coarse quadrature discretization of a surface: the `y_ℓ` of §3.1.
#[derive(Clone, Debug)]
pub struct SurfaceQuad {
    /// Quadrature order used.
    pub q: usize,
    /// All quadrature points, patch-major, `u` fastest within a patch.
    pub points: Vec<Vec3>,
    /// Outward unit normals at the points.
    pub normals: Vec<Vec3>,
    /// Quadrature weights including the surface Jacobian `|X_u × X_v|`.
    pub weights: Vec<f64>,
    /// Patch index of every point.
    pub patch_of: Vec<u32>,
    /// Per-patch surface area.
    pub patch_area: Vec<f64>,
}

impl SurfaceQuad {
    /// Number of quadrature nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the discretization is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total surface area.
    pub fn total_area(&self) -> f64 {
        self.patch_area.iter().sum()
    }

    /// The paper's patch size `L`: square root of the patch area ("the
    /// square root of the surface area of the patch containing the closest
    /// point", §5.1).
    pub fn patch_size(&self, patch: usize) -> f64 {
        self.patch_area[patch].sqrt()
    }
}

impl BoundarySurface {
    /// Creates a surface from patches, all walls.
    pub fn new(q: usize, patches: Vec<PolyPatch>) -> BoundarySurface {
        let kinds = vec![PatchKind::Wall; patches.len()];
        BoundarySurface { q, patches, kinds }
    }

    /// Number of patches.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// Builds the coarse quadrature discretization (tensor Clenshaw–Curtis
    /// per patch, Eq. 3.1).
    pub fn quadrature(&self) -> SurfaceQuad {
        let rule = clenshaw_curtis(self.q);
        let mut quad = SurfaceQuad {
            q: self.q,
            points: Vec::new(),
            normals: Vec::new(),
            weights: Vec::new(),
            patch_of: Vec::new(),
            patch_area: Vec::new(),
        };
        for (pi, patch) in self.patches.iter().enumerate() {
            let mut area = 0.0;
            for (j, &v) in rule.nodes.iter().enumerate() {
                for (i, &u) in rule.nodes.iter().enumerate() {
                    let (x, xu, xv) = patch.eval_jet(u, v);
                    let nr = xu.cross(xv);
                    let jac = nr.norm();
                    let w = rule.weights[i] * rule.weights[j] * jac;
                    quad.points.push(x);
                    quad.normals.push(nr.normalized());
                    quad.weights.push(w);
                    quad.patch_of.push(pi as u32);
                    area += w;
                }
            }
            quad.patch_area.push(area);
        }
        quad
    }

    /// Splits every patch into four children (the weak-scaling refinement
    /// rule of §5.2: "subdivide the M polynomial patches into 4M new but
    /// equivalent polynomial patches").
    pub fn refined(&self) -> BoundarySurface {
        let mut patches = Vec::with_capacity(self.patches.len() * 4);
        let mut kinds = Vec::with_capacity(self.patches.len() * 4);
        for (p, &k) in self.patches.iter().zip(&self.kinds) {
            for c in p.split4() {
                patches.push(c);
                kinds.push(k);
            }
        }
        BoundarySurface {
            q: self.q,
            patches,
            kinds,
        }
    }

    /// Applies [`BoundarySurface::refined`] `levels` times: every patch
    /// splits into `4^levels` children with re-fit Chebyshev coefficients
    /// (exact polynomial subdivision), quadrupling the wall resolution per
    /// level while leaving the geometry itself unchanged.
    ///
    /// This is the wall-resolution control of the vessel scenarios
    /// (`wall_refine` in the scenario configs): the patch size `L̂` halves
    /// per level, so the check-point family `R = check_r · L̂` of the
    /// boundary solver shrinks with it and the constraint
    /// `(1+p) R ≲ 0.6 · radius` (stay inside the lumen) can be met
    /// simultaneously with `R ≳ 3 h_fine` (stay resolved by the fine
    /// quadrature) — impossible on the coarse registry vessels where `L̂`
    /// is comparable to the tube radius.
    pub fn refine(&self, levels: u32) -> BoundarySurface {
        let mut s = self.clone();
        for _ in 0..levels {
            s = s.refined();
        }
        s
    }

    /// Uniformly-spaced `m × m` sample grid per patch for collision meshes
    /// (the paper uses 22² = 484 equispaced points per patch).
    pub fn collision_grid(&self, m: usize) -> Vec<Vec<Vec3>> {
        self.patches
            .iter()
            .map(|p| {
                let mut pts = Vec::with_capacity(m * m);
                for j in 0..m {
                    let v = -1.0 + 2.0 * j as f64 / (m - 1) as f64;
                    for i in 0..m {
                        let u = -1.0 + 2.0 * i as f64 / (m - 1) as f64;
                        pts.push(p.eval(u, v));
                    }
                }
                pts
            })
            .collect()
    }

    /// Bounding box of the whole surface (from patch boxes).
    pub fn bounding_box(&self) -> Aabb {
        self.patches
            .iter()
            .map(|p| p.bounding_box(8))
            .fold(Aabb::EMPTY, Aabb::union)
    }

    /// Per-patch boxes of an `n × n` sample ([`PolyPatch::bounding_box`]:
    /// sampled, not enclosing).
    pub fn patch_boxes(&self, n: usize) -> Vec<Aabb> {
        self.patches.iter().map(|p| p.bounding_box(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::cube_sphere;

    #[test]
    fn sphere_quadrature_area_and_normals() {
        let s = cube_sphere(1.0, Vec3::ZERO, 1, 8);
        let quad = s.quadrature();
        let area = quad.total_area();
        let exact = 4.0 * std::f64::consts::PI;
        assert!(
            (area - exact).abs() / exact < 1e-6,
            "area {area} vs {exact}"
        );
        // normals point outward for a sphere at the origin
        for (p, n) in quad.points.iter().zip(&quad.normals) {
            assert!(p.normalized().dot(*n) > 0.99, "normal not outward");
            assert!((n.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gauss_identity_on_patched_sphere() {
        // ∫ dΩ-style identity: ∫ n·(x−c)/|x−c|³ dS = 4π for c inside
        let s = cube_sphere(1.3, Vec3::new(0.2, 0.0, -0.1), 1, 8);
        let quad = s.quadrature();
        let c = Vec3::new(0.3, 0.1, 0.0);
        let mut acc = 0.0;
        for i in 0..quad.len() {
            let r = quad.points[i] - c;
            acc += quad.normals[i].dot(r) / r.norm().powi(3) * quad.weights[i];
        }
        let expect = 4.0 * std::f64::consts::PI;
        assert!((acc - expect).abs() / expect < 1e-5, "{acc} vs {expect}");
    }

    #[test]
    fn refinement_preserves_area_and_multiplies_patches() {
        let s = cube_sphere(1.0, Vec3::ZERO, 1, 8);
        let r = s.refined();
        assert_eq!(r.num_patches(), 4 * s.num_patches());
        let a0 = s.quadrature().total_area();
        let a1 = r.quadrature().total_area();
        assert!((a0 - a1).abs() / a0 < 1e-5);
        // refined patches are smaller
        let q0 = s.quadrature();
        let q1 = r.quadrature();
        let l0 = q0.patch_size(0);
        let l1 = q1.patch_size(0);
        assert!(l1 < 0.6 * l0);
    }

    #[test]
    fn collision_grid_lies_on_surface() {
        let s = cube_sphere(2.0, Vec3::ZERO, 0, 8);
        for grid in s.collision_grid(6) {
            for p in grid {
                assert!((p.norm() - 2.0).abs() < 5e-3, "r = {}", p.norm());
            }
        }
    }
}
