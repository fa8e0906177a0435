//! # octree — spatial indexing substrate
//!
//! Two spatial data structures used throughout the platform:
//!
//! - [`Octree`]: an adaptive, 2:1-balanced linear octree with the classic
//!   adaptive-FMM interaction lists (U, V, W, X). This is the tree layer of
//!   the PVFMM substitute (`fmm` crate).
//! - [`SpatialHash`] + the sort-based candidate searches: the near-pair
//!   detection of §3.3 (near-singular quadrature zones) and §4 (collision
//!   candidates), with a sequential in-memory sort standing in for the
//!   distributed HykSort of the paper.

pub mod hashgrid;
pub mod morton;
pub mod tree;

pub use hashgrid::{
    box_box_candidates_self, box_point_candidates, mean_diagonal_spacing, SpatialHash,
};
pub use morton::{morton_decode, morton_encode, point_morton, MortonKey, MAX_DEPTH};
pub use tree::{Node, Octree, Retarget, TreeOptions, NONE};
