//! # patch — polynomial boundary patches and vessel geometry
//!
//! The blood-vessel boundary Γ of the paper: non-overlapping tensor-product
//! polynomial patches (8th order, 11² Clenshaw–Curtis quadrature nodes and
//! 22² collision samples per patch in the paper's configuration), with
//!
//! - exact polynomial subdivision (the Bezier-style refinement used for
//!   weak scaling, §5.2),
//! - Newton-with-backtracking closest-point search (§3.3 step d),
//! - the coarse quadrature discretization of §3.1,
//! - procedural closed vessel geometries replacing the paper's medical quad
//!   meshes (see [`geom`]),
//! - VTK export for visualization.

pub mod geom;
pub mod io;
pub mod network;
pub mod poly;
pub mod surface;

pub use geom::{
    capsule_tube, cube_sphere, modulated_torus, torus, Centerline, Serpentine, StraightLine,
};
pub use io::{export_surface_vtk, write_vtk_points, write_vtk_quads};
pub use network::{branched_network, BranchSpec};
pub use poly::{patch_interp_matrix, PolyPatch};
pub use surface::{BoundarySurface, PatchKind, SurfaceQuad};
