//! Shared helpers for the accuracy studies (`tube_accuracy`, the
//! convergence and quadrature bins) and the seed FMM engine that
//! `tests/seed_agreement.rs` checks the production engine against. Timing
//! lives in the standalone `benchmark/` package.

pub mod seed_fmm;

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
