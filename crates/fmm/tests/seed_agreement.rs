//! The production FMM (`fmm::Fmm`) against the pre-arena seed engine
//! (`seed_fmm::SeedFmm`, beside this file) on identical inputs.
//!
//! The seed engine builds its own 316 per-offset M2L matrices straight from
//! the kernel, so agreement also checks the production engine's orbit
//! tables: the symmetry mapping of the scalar (Laplace), 3 → 3 (Stokes SL)
//! and 3+1 → 3 (the Stokes DL's augmented equivalent kernel) component
//! layouts. The two engines sum in different orders (GEMM blocks vs
//! per-interaction matvecs), so they agree to roundoff amplified by the
//! pseudo-inverse conditioning, not to machine epsilon.

mod seed_fmm;

use fmm::{Fmm, FmmOptions};
use kernels::{Kernel, LaplaceSL, StokesDL, StokesEquiv, StokesSL};
use linalg::Vec3;
use rand::prelude::*;
use rand::rngs::StdRng;
use seed_fmm::SeedFmm;

/// Uniform random cloud in `[-1, 1]³`.
fn cloud(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            Vec3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            )
        })
        .collect()
}

/// Relative 2-norm difference of `a` from `b`.
fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

/// Evaluates both engines on N = 8000 cloud points (sources = targets,
/// seed 1) at `leaf_capacity` 120, `max_depth` 10 and asserts agreement
/// below 1e-8.
fn assert_agrees<KS: Kernel + Clone, KE: Kernel + Clone>(
    src_kernel: KS,
    eq_kernel: KE,
    order: usize,
) {
    let n = 8000;
    let mut rng = StdRng::seed_from_u64(1);
    let pts = cloud(&mut rng, n);
    let data: Vec<f64> = (0..n * src_kernel.src_dim())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let opts = FmmOptions {
        order,
        leaf_capacity: 120,
        max_depth: 10,
    };
    let new_out = Fmm::new(src_kernel.clone(), eq_kernel.clone(), &pts, &pts, opts).evaluate(&data);
    let seed_out = SeedFmm::new(src_kernel, eq_kernel, &pts, &pts, opts).evaluate(&data);
    let rd = rel_diff(&new_out, &seed_out);
    assert!(
        rd < 1e-8,
        "order {order}: production FMM disagrees with the seed engine: {rd:.3e}"
    );
}

#[test]
fn laplace_sl_order_4_agrees_with_seed() {
    assert_agrees(LaplaceSL, LaplaceSL, 4);
}

#[test]
fn laplace_sl_order_6_agrees_with_seed() {
    assert_agrees(LaplaceSL, LaplaceSL, 6);
}

#[test]
fn stokes_sl_order_4_agrees_with_seed() {
    assert_agrees(StokesSL { mu: 1.0 }, StokesSL { mu: 1.0 }, 4);
}

#[test]
fn stokes_dl_order_4_agrees_with_seed() {
    assert_agrees(StokesDL, StokesEquiv { mu: 1.0 }, 4);
}
