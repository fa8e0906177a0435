//! Shared helpers for the FMM microbench (`fmm_bench`, `benches/`) and
//! the accuracy studies (`tube_accuracy`, the convergence and quadrature
//! bins). Step timing lives in the standalone `benchmark/` package.

pub mod seed_fmm;

use linalg::Vec3;
use rand::rngs::StdRng;

/// Uniform random cloud in `[-1, 1]³` — the shared point sampler of the
/// N-body benches (`benches/components.rs`, `bin/fmm_bench.rs`).
pub fn cloud(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
    use rand::Rng;
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

/// Least-squares slope of log(y) against log(x) (convergence order).
pub fn fitted_order(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.max(1e-300).ln()).collect();
    let sx: f64 = lx.iter().sum();
    let sy: f64 = ly.iter().sum();
    let sxx: f64 = lx.iter().map(|v| v * v).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
