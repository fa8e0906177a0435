//! # sphharm — spherical-harmonic surface representation
//!
//! The RBC-surface substrate (§2.2 of the paper): spectral analysis and
//! synthesis on Gauss–Legendre × uniform longitude grids, with first and
//! second parametric derivatives, spectrally exact up/down-sampling, and
//! quadrature weights for surface integrals. Order p = 16 reproduces the
//! paper's 544 quadrature points per cell; the 2×-upsampled grid gives the
//! 2,112 collision points.
//!
//! ## What a transform costs
//!
//! `SphBasis::analyze` and `SphBasis::synthesize` are direct (no FFT): a
//! longitude sum of `(p+1)·nlat·nlon` products per sine/cosine part and a
//! Legendre sum of about `(p+1)²·nlat/2`, i.e. `O(p³)` multiply-adds. At
//! p = 8 on a 2-core 2.1 GHz host that is ~5 µs for a three-component
//! `analyze_vec3` and ~3 µs for one `synthesize`. Their Fourier factors
//! `cos(m·φ_j)` / `sin(m·φ_j)` are read from two `(p+1)·nlon` tables that
//! `SphBasis::new` fills; evaluated in the inner loops they would be 1,296
//! sin/cos pairs per order-8 analysis (9,248 per order-16 one) and make
//! both transforms 6–8× slower. The tables are exact, not
//! an approximation: each entry is computed with the very expression
//! `(m as f64 * φ_j).cos()` / `.sin()`, and the transforms keep every
//! product and sum in its order, so results are bit-identical to inline
//! evaluation (`tabulated_transforms_match_inline_trig_bitwise`).
//! `synthesize_at` evaluates at an arbitrary `φ` and keeps its own calls.
//!
//! `RingProjection` is the adjoint of `synthesize` (values), fed one
//! latitude ring of many fields at a time: the cell self-interaction
//! operator projects its kernel onto the coefficients with it, ring by ring,
//! so the kernel on the fine grid never exists whole
//! (`crates/vesicle/README.md`). It folds each ring about `φ = 0`, so a
//! mode's longitude sum reads half the ring, and runs both sums as small
//! register-blocked products over the fields.

pub mod basis;

pub use basis::{Deriv, RingProjection, SphBasis, SphCoeffs};
