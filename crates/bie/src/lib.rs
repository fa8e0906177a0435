//! # bie — the parallel boundary integral solver (§3 of the paper)
//!
//! Solves the exterior-boundary contribution `u_Γ` of the confined Stokes
//! flow: the double-layer equation `(1/2 I + D + N) φ = g − u_fr` on a
//! patch-based vessel boundary, discretized with the Nyström method and
//! the unified singular/near-singular quadrature of §3.1 (upsampled fine
//! discretization, check points along the interior normal, 1-D polynomial
//! extrapolation), with GMRES as the outer iteration and the
//! kernel-independent FMM for all far-field sums.
//!
//! The solver is generic over the layer kernel, demonstrating the "general
//! elliptic PDEs" claim: the tests exercise the interior Laplace Dirichlet
//! problem alongside the Stokes problem the simulation uses.

#![warn(missing_docs)]

pub mod closest;
pub mod fine;
pub mod solver;

pub use closest::{closest_points, ClosestHit, NearIndex};
pub use fine::FineDiscretization;
pub use fmm::FmmOptions;
pub use solver::{BieOptions, DoubleLayerSolver, LayerKernel, MatvecBackend};
