//! Minimal legacy-VTK writers for visualization.
//!
//! The paper renders its simulations with ParaView; these writers produce
//! legacy ASCII `.vtk` (quad meshes, point clouds with vector data) that
//! ParaView opens directly.

use crate::surface::BoundarySurface;
use linalg::Vec3;
use std::io::{self, Write};
use std::path::Path;

/// Writes a quad mesh (shared vertex list + quad connectivity) as legacy
/// VTK polydata.
pub fn write_vtk_quads(
    path: &Path,
    points: &[Vec3],
    quads: &[[u32; 4]],
    scalars: Option<(&str, &[f64])>,
) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# vtk DataFile Version 3.0")?;
    writeln!(f, "rbcflow surface")?;
    writeln!(f, "ASCII")?;
    writeln!(f, "DATASET POLYDATA")?;
    writeln!(f, "POINTS {} double", points.len())?;
    for p in points {
        writeln!(f, "{} {} {}", p.x, p.y, p.z)?;
    }
    writeln!(f, "POLYGONS {} {}", quads.len(), quads.len() * 5)?;
    for q in quads {
        writeln!(f, "4 {} {} {} {}", q[0], q[1], q[2], q[3])?;
    }
    if let Some((name, vals)) = scalars {
        assert_eq!(vals.len(), points.len());
        writeln!(f, "POINT_DATA {}", points.len())?;
        writeln!(f, "SCALARS {name} double 1")?;
        writeln!(f, "LOOKUP_TABLE default")?;
        for v in vals {
            writeln!(f, "{v}")?;
        }
    }
    Ok(())
}

/// Writes a point cloud with optional per-point vectors (e.g. velocities).
pub fn write_vtk_points(
    path: &Path,
    points: &[Vec3],
    vectors: Option<(&str, &[Vec3])>,
) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# vtk DataFile Version 3.0")?;
    writeln!(f, "rbcflow points")?;
    writeln!(f, "ASCII")?;
    writeln!(f, "DATASET POLYDATA")?;
    writeln!(f, "POINTS {} double", points.len())?;
    for p in points {
        writeln!(f, "{} {} {}", p.x, p.y, p.z)?;
    }
    writeln!(f, "VERTICES {} {}", points.len(), points.len() * 2)?;
    for i in 0..points.len() {
        writeln!(f, "1 {i}")?;
    }
    if let Some((name, vecs)) = vectors {
        assert_eq!(vecs.len(), points.len());
        writeln!(f, "POINT_DATA {}", points.len())?;
        writeln!(f, "VECTORS {name} double")?;
        for v in vecs {
            writeln!(f, "{} {} {}", v.x, v.y, v.z)?;
        }
    }
    Ok(())
}

/// Exports a boundary surface as a VTK quad mesh sampled `m × m` per patch
/// (per-patch vertices are not shared across patches; viewers handle the
/// duplicated seam vertices fine).
pub fn export_surface_vtk(path: &Path, surface: &BoundarySurface, m: usize) -> io::Result<()> {
    let grids = surface.collision_grid(m);
    let mut points = Vec::new();
    let mut quads = Vec::new();
    let mut patch_id = Vec::new();
    for (pi, grid) in grids.iter().enumerate() {
        let base = points.len() as u32;
        points.extend_from_slice(grid);
        patch_id.extend(std::iter::repeat_n(pi as f64, grid.len()));
        for j in 0..m - 1 {
            for i in 0..m - 1 {
                let v00 = base + (j * m + i) as u32;
                let v10 = v00 + 1;
                let v01 = base + ((j + 1) * m + i) as u32;
                let v11 = v01 + 1;
                quads.push([v00, v10, v11, v01]);
            }
        }
    }
    write_vtk_quads(path, &points, &quads, Some(("patch", &patch_id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::cube_sphere;

    #[test]
    fn vtk_export_writes_parseable_header() {
        let dir = std::env::temp_dir().join("rbcflow_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sphere.vtk");
        let s = cube_sphere(1.0, linalg::Vec3::ZERO, 0, 6);
        export_surface_vtk(&path, &s, 5).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# vtk DataFile"));
        assert!(text.contains("POLYGONS"));
        // 6 patches × 4×4 quads
        assert!(text.contains(&format!("POLYGONS {} ", 6 * 16)));
    }
}
