//! # collision — parallel contact detection and resolution (§4)
//!
//! Keeps RBC–RBC and RBC–vessel configurations interference-free by solving
//! the nonlinear complementarity problem (Eq. 2.11) as a sequence of
//! linearized LCPs:
//!
//! - [`mesh`]: linear triangle-mesh proxies of cells (upsampled lat–long
//!   grids) and vessel patches (equispaced grids), the unifying step of §4;
//! - [`detect`]: space-time bounding boxes for candidate mesh pairs, then a
//!   per-partner uniform-grid cell index for output-sensitive
//!   vertex–triangle candidates among those pairs only, and the
//!   per-object-pair interference measure `V` with gradients (a
//!   simplification of the space-time volume of \[17\]/\[25\], stated in
//!   [`detect`]'s module docs);
//! - [`lcp`]: minimum-map Newton over GMRES;
//! - [`ncp`]: the outer re-linearization loop with the deterministic CSR
//!   coupling matrix `B`, batched per-mesh mobility applies
//!   ([`Mobility::apply_many`]), and the object mobilities supplied by the
//!   caller.
//!
//! See `crates/collision/README.md` for the pipeline walk-through, the
//! broad-phase cell sizing rule, and the determinism rules every parallel
//! fold in this crate follows.

#![warn(missing_docs)]

pub mod detect;
pub mod lcp;
pub mod mesh;
pub mod ncp;

pub use detect::{detect_contacts, Contact, ContactPair, DetectOptions};
pub use lcp::{solve_lcp, LcpOptions, LcpResult};
pub use mesh::{
    barycentric, closest_point_on_triangle, triangulate_grid, triangulate_latlon, TriMesh,
};
pub use ncp::{resolve_contacts, IdentityMobility, Mobility, NcpOptions, NcpResult};
