//! # linalg — dense linear algebra and numerics substrate
//!
//! Foundation crate for the RBC-flow reproduction. It replaces the roles of
//! Intel MKL (dense kernels), PETSc's KSP (GMRES), and assorted LAPACK
//! routines in the reference implementation:
//!
//! - [`Vec3`]/[`Aabb`]: geometric primitives used by every crate above;
//! - [`Mat`], [`Lu`], [`Qr`], [`Svd`]: dense matrices and factorizations for
//!   patch fitting, Newton systems, and the FMM equivalent-density solves;
//! - [`mod@gmres`]: restarted matrix-free GMRES (the boundary-solver and LCP
//!   iterations of the paper both run on it);
//! - [`CsrMatrix`]: deterministic compressed-sparse-row matrices (the
//!   collision coupling matrix `B` is assembled into one per linearization);
//! - [`quad`]: Clenshaw–Curtis and Gauss–Legendre rules;
//! - [`interp`]: barycentric interpolation, tensor-product upsampling, and
//!   the check-point extrapolation weights of §3.1;
//! - [`bytes`]: the little-endian binary codec the checkpoint/restart
//!   system serializes state through (offline stand-in for serde).

#![warn(missing_docs)]

pub mod bytes;
pub mod csr;
pub mod gmres;
pub mod interp;
pub mod mat;
pub mod quad;
pub mod solve;
pub mod svd;
pub mod vec3;

pub use bytes::{fnv1a64, ByteReader, ByteWriter, CodecError};
pub use csr::CsrMatrix;
pub use gmres::{gmres, FnOperator, GmresOptions, GmresResult, LinearOperator};
pub use interp::{
    barycentric_weights, checkpoint_extrapolation_weights, lagrange_basis_at, tensor_interp_matrix,
    Interp1d,
};
pub use mat::{axpy, dot, gemm_acc, norm2, norm_inf, Mat};
pub use quad::{
    clenshaw_curtis, gauss_legendre, legendre_and_derivative, periodic_trapezoid, Rule1d,
};
pub use solve::{Lu, Qr};
pub use svd::Svd;
pub use vec3::{Aabb, Vec3};
