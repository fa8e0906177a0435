//! # fmm — kernel-independent fast multipole method
//!
//! The PVFMM substitute: a shared-memory, thread-parallel (`rayon::par`),
//! kernel-independent FMM in the style of Ying, Biros &
//! Zorin / Malhotra & Biros, used for every global far-field summation in
//! the platform — the free-space velocity `u_fr` (Eq. 2.4), the
//! double-layer matvec inside each GMRES iteration of the boundary solve
//! (Eq. 3.5), and the evaluation of `u_Γ` at check points and RBC points.
//!
//! Design highlights:
//! - equivalent/check cube surfaces with PVFMM's radii (1.05 / 2.95);
//! - regularized-SVD equivalent-density solves;
//! - per-level operator reuse via kernel homogeneity; one process-wide
//!   operator cache shared by all FMM instances;
//! - one M2L operator per orbit of the 316 translation offsets under the
//!   cube's 48 signed axis permutations (16 stored, as PVFMM's interaction
//!   classes), each offset reached by a signed permutation of points and
//!   vector components in the M2L gather and scatter;
//! - full adaptive-tree interaction lists (U/V/W/X) from the `octree`
//!   crate, so highly non-uniform surface distributions stay O(N).

pub mod eval;
pub mod ops;
pub mod surface;

pub use eval::{fmm_evaluate, Fmm, FmmOptions};
pub use ops::{cached_operators, kernel_matrix, ops_cache_stats, FmmOperators, OpsCacheStats};
pub use surface::{cube_surface, surface_point_count, RAD_INNER, RAD_OUTER};
