//! # kernels — elliptic PDE kernels for the boundary-integral platform
//!
//! Implements the Green's functions the paper's formulation is built on
//! (§2.1.1): the Stokes single-layer (Stokeslet) kernel of Eq. (2.4), the
//! double-layer stresslet kernel of Eq. (2.5), their pressure counterparts,
//! and Laplace kernels used to validate the general elliptic machinery.
//!
//! The [`Kernel`] trait is the interface consumed by the `fmm` crate
//! (kernel-independent FMM, the PVFMM substitute) and by the direct
//! summation fallbacks.

pub mod laplace;
pub mod stokes;
pub mod traits;

pub use laplace::{laplace_dl, laplace_dl_block, laplace_sl, laplace_sl_block, laplace_sl_grad};
pub use stokes::{
    stokes_equiv_block, stokeslet, stokeslet_block, stokeslet_matrix, stokeslet_pressure,
    stresslet, stresslet_block,
};
pub use traits::{
    direct_eval, direct_eval_serial, Kernel, LaplaceDL, LaplaceSL, StokesDL, StokesEquiv, StokesSL,
};
