//! Equivalent/check surfaces for the kernel-independent FMM.
//!
//! Following Ying et al. and PVFMM, each octree box carries cube-shaped
//! auxiliary surfaces sampled with a regular `p × p` grid per face:
//!
//! - upward equivalent surface at radius `RAD_INNER · h` (just outside the
//!   box) carrying the outgoing representation;
//! - upward check surface at radius `RAD_OUTER · h` (just inside the
//!   far-field boundary) where outgoing fields are matched;
//! - downward check surface at `RAD_INNER · h` and downward equivalent
//!   surface at `RAD_OUTER · h` for the incoming representation.

use linalg::Vec3;

/// Inner auxiliary-surface radius relative to the box half-width
/// (PVFMM's 1.05).
pub const RAD_INNER: f64 = 1.05;
/// Outer auxiliary-surface radius relative to the box half-width
/// (PVFMM's 2.95, just inside the 3h far-field boundary).
pub const RAD_OUTER: f64 = 2.95;

/// Number of points on a cube surface sampled with `p` points per edge:
/// `p³ − (p−2)³` (all grid points with at least one extreme coordinate).
pub fn surface_point_count(p: usize) -> usize {
    debug_assert!(p >= 2);
    p * p * p - (p - 2) * (p - 2) * (p - 2)
}

/// Grid indices `[i, j, k]` (each in `0..p`) of the cube-surface points,
/// in the order [`cube_surface`] emits them.
pub fn cube_surface_grid(p: usize) -> Vec<[usize; 3]> {
    assert!(p >= 2, "cube_surface requires p >= 2");
    let mut grid = Vec::with_capacity(surface_point_count(p));
    for k in 0..p {
        for j in 0..p {
            for i in 0..p {
                if i == 0 || i == p - 1 || j == 0 || j == p - 1 || k == 0 || k == p - 1 {
                    grid.push([i, j, k]);
                }
            }
        }
    }
    grid
}

/// Sample points of the cube surface `center ± radius` with `p` points per
/// edge, in a deterministic order: grid point `g` sits at
/// `center + (−1 + step·g) · radius` with `step = 2 / (p − 1)`.
pub fn cube_surface(p: usize, center: Vec3, radius: f64) -> Vec<Vec3> {
    let step = 2.0 / (p as f64 - 1.0);
    cube_surface_grid(p)
        .into_iter()
        .map(|[i, j, k]| {
            let x = -1.0 + step * i as f64;
            let y = -1.0 + step * j as f64;
            let z = -1.0 + step * k as f64;
            center + Vec3::new(x, y, z) * radius
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_count_formula() {
        for p in [2usize, 3, 4, 6, 8] {
            assert_eq!(
                cube_surface(p, Vec3::ZERO, 1.0).len(),
                surface_point_count(p)
            );
        }
        assert_eq!(surface_point_count(2), 8);
        assert_eq!(surface_point_count(4), 56);
        assert_eq!(surface_point_count(6), 152);
    }

    #[test]
    fn points_lie_on_cube_surface() {
        let r = 1.7;
        let c = Vec3::new(0.5, -1.0, 2.0);
        for pt in cube_surface(5, c, r) {
            let d = pt - c;
            let m = d.x.abs().max(d.y.abs()).max(d.z.abs());
            assert!((m - r).abs() < 1e-12);
        }
    }

    #[test]
    fn no_duplicate_points() {
        let pts = cube_surface(6, Vec3::ZERO, 1.0);
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                assert!((pts[i] - pts[j]).norm() > 1e-9);
            }
        }
    }
}
