//! Ablation study for the singular-quadrature design choices of §3.1:
//! sweeps the extrapolation order p, the fine-discretization depth η, and
//! the check-point distance `R = r = check_r · L̂`, reporting the on-surface
//! operator error (via the constant-density Gauss identity, which the
//! interior limit must map to exactly 1).
//!
//! `cargo run --release -p bench --bin quadrature_ablation`

use bie::{BieOptions, DoubleLayerSolver, MatvecBackend};
use kernels::{LaplaceDL, LaplaceSL};
use linalg::Vec3;
use patch::cube_sphere;

fn operator_error(opts: BieOptions) -> f64 {
    let surface = cube_sphere(1.0, Vec3::ZERO, 1, 8);
    let solver = DoubleLayerSolver::new(surface, LaplaceDL, LaplaceSL, opts);
    let phi = vec![1.0; solver.dim()];
    let mut out = vec![0.0; solver.dim()];
    solver.apply(&phi, &mut out);
    out.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
}

fn main() {
    println!("# Quadrature ablation (§3.1 parameters; error = max |A·1 − 1|)");
    let base = BieOptions {
        backend: MatvecBackend::Dense,
        null_space: false,
        ..Default::default()
    };

    println!("\n-- extrapolation order p (η = 2, R = r = 0.15 L̂) --");
    println!("{:>4} {:>12}", "p", "op error");
    for p in [2usize, 4, 6, 8, 10] {
        let e = operator_error(BieOptions {
            eta: 2,
            p_extrap: p,
            ..base
        });
        println!("{p:>4} {e:>12.3e}");
    }

    println!("\n-- fine-discretization depth η (p = 8) --");
    println!("{:>4} {:>12}", "eta", "op error");
    for eta in [0u32, 1, 2] {
        let e = operator_error(BieOptions {
            eta,
            p_extrap: 8,
            ..base
        });
        println!("{eta:>4} {e:>12.3e}");
    }

    println!("\n-- check distance R = r (η = 2, p = 8) --");
    println!("{:>22} {:>12}", "rule", "op error");
    for (name, check_r) in [
        ("R=r=0.10 L (weak)", 0.10),
        ("R=r=0.15 L (strong)", 0.15),
        ("R=r=0.25 L", 0.25),
    ] {
        let e = operator_error(BieOptions {
            eta: 2,
            p_extrap: 8,
            check_r,
            ..base
        });
        println!("{name:>22} {e:>12.3e}");
    }
    println!("\nthe paper's production choices (η = 1–2, p = 8, R = r = 0.1–0.15 L̂)");
    println!("sit at the error/cost knee visible above");
}
