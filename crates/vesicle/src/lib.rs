//! # vesicle — the deformable RBC model (§2 of the paper)
//!
//! Spherical-harmonic cell surfaces with:
//! - [`geometry`]: fundamental forms, curvatures, area elements,
//!   Laplace–Beltrami (the ingredients of Eq. 2.1's interfacial forces);
//! - [`shape`]: sphere and biconcave (Evans–Fung) reference shapes, random
//!   orientations for the vessel-filling procedure;
//! - [`selfop`]: precomputed singular self-interaction quadrature for the
//!   single-layer potential (the \[28\]-style precomputed operator);
//! - [`cell`]: Canham–Helfrich bending + area-penalty tension and the
//!   locally-implicit backward-Euler step (Eq. 2.12);
//! - [`state`]: bit-exact cell (de)serialization hooks for the
//!   checkpoint/restart system (`sim::checkpoint`).

#![warn(missing_docs)]

pub mod cell;
pub mod geometry;
pub mod selfop;
pub mod shape;
pub mod state;

pub use cell::{
    implicit_step, implicit_substep_chain, step_health, weighted_div_grad, Cell, CellHealth,
    CellParams, StepOptions,
};
pub use geometry::{surface_geometry, SurfaceGeometry};
pub use selfop::{upsample_matrix_t, SelfInteraction, SelfOpOptions};
pub use shape::{
    biconcave_coeffs, bumpy_sphere_coeffs, rotated_coeffs, shape_from_radial, sphere_coeffs,
};
