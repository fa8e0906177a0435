//! Analytic-tube accuracy and backend-crossover study: the measurement
//! behind the vessel wall-resolution work (ROADMAP "vessel boundary
//! resolution" item).
//!
//! Solves the interior Stokes Dirichlet problem on a straight capsule tube
//! at the *registry* scale (radius 1.6, the sedimentation vessel) with the
//! exact solution of an exterior Stokeslet, for `wall_refine` levels
//! 0, 1, 2 with the scenario-default check spec per level, and reports:
//!
//! - the max relative field error at interior targets (the "analytic tube
//!   error" — ~0.7 at level 0, the number that motivated wall refinement);
//! - GMRES iterations and solve time;
//! - per-matvec dense vs FMM timings (the data behind
//!   `bie::MatvecBackend::FMM_CROSSOVER_PATCHES`).
//!
//! `cargo run --release -p bie --example tube_accuracy [-- --crossover]`
//! (`--crossover` adds the dense-vs-FMM per-matvec timing sweep, which
//! costs a few extra dense applications at the refined levels.)

use bie::{BieOptions, DoubleLayerSolver, MatvecBackend};
use kernels::{stokeslet, StokesDL, StokesEquiv};
use linalg::{GmresOptions, Vec3};
use patch::{capsule_tube, BoundarySurface, StraightLine};
use std::time::Instant;

/// Exterior Stokeslet (well outside the tube).
const X0: Vec3 = Vec3 {
    x: 3.0,
    y: 4.0,
    z: 9.0,
};
const F0: Vec3 = Vec3 {
    x: 1.0,
    y: -0.5,
    z: 2.0,
};

/// The sedimentation-registry tube: radius 1.6, axis length 6, 22 patches.
fn tube(refine: u32) -> BoundarySurface {
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(0.0, 0.0, 6.0),
    };
    capsule_tube(&line, 1.6, 3, 8).refine(refine)
}

/// Scenario-default boundary options at a given refinement level (mirrors
/// `driver`'s `bie_options`: check_r 0.06 unrefined / 0.15 refined,
/// qf = q unrefined / q + 4 refined, tol 1e-5 unrefined / 2e-3 refined,
/// p_extrap 5, short restarts with the stall check). The `TUBE_*`
/// environment knobs override single parameters for ad-hoc studies (they
/// are how the defaults were calibrated in the first place).
fn opts(refine: u32, backend: MatvecBackend) -> BieOptions {
    let envf = |k: &str, d: f64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(d)
    };
    let refined = refine > 0;
    let check_r = envf("TUBE_CHECK_R", if refined { 0.15 } else { 0.06 });
    BieOptions {
        backend,
        eta: envf("TUBE_ETA", 1.0) as u32,
        qf: envf("TUBE_QF", if refined { 12.0 } else { 0.0 }) as usize,
        check_r,
        p_extrap: envf("TUBE_P_EXTRAP", 5.0) as usize,
        gmres: GmresOptions {
            tol: envf("TUBE_TOL", if refined { 2e-3 } else { 1e-5 }),
            max_iters: 60,
            restart: 10,
            stall_ratio: envf("TUBE_STALL", 0.9),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Interior targets: on-axis and at 60% radius, away from the caps.
fn targets() -> Vec<Vec3> {
    let mut t = Vec::new();
    for i in 0..5 {
        let z = 1.0 + i as f64;
        t.push(Vec3::new(0.0, 0.0, z));
        t.push(Vec3::new(0.96, 0.0, z));
        t.push(Vec3::new(0.0, -0.96, z));
    }
    t
}

fn max_rel_err(solver: &DoubleLayerSolver<StokesDL, StokesEquiv>, phi: &[f64]) -> f64 {
    let targets = targets();
    let u = solver.eval_at(phi, &targets);
    let mut worst = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let exact = stokeslet(t, X0, F0, 1.0);
        let got = Vec3::new(u[i * 3], u[i * 3 + 1], u[i * 3 + 2]);
        worst = worst.max((got - exact).norm() / exact.norm());
    }
    worst
}

fn main() {
    let crossover = std::env::args().any(|a| a == "--crossover");
    println!("# Analytic tube (radius 1.6, exterior-Stokeslet exact solution)");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>6} {:>9} {:>12}",
        "refine", "patches", "L_max", "backend", "iters", "solve_s", "max_rel_err"
    );
    let max_level: u32 = std::env::var("TUBE_MAX_LEVEL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let min_level: u32 = std::env::var("TUBE_MIN_LEVEL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut rows = Vec::new();
    for refine in min_level..=max_level {
        let surface = tube(refine);
        let solver = DoubleLayerSolver::new(
            surface,
            StokesDL,
            StokesEquiv { mu: 1.0 },
            opts(refine, MatvecBackend::Auto),
        );
        let lmax = (0..solver.surface.num_patches())
            .map(|p| solver.quad.patch_size(p))
            .fold(0.0_f64, f64::max);
        let mut g = Vec::with_capacity(solver.dim());
        for &y in &solver.quad.points {
            let u = stokeslet(y, X0, F0, 1.0);
            g.extend_from_slice(&[u.x, u.y, u.z]);
        }
        let t0 = Instant::now();
        let (phi, res) = solver.solve(&g);
        let t_solve = t0.elapsed().as_secs_f64();
        let err = max_rel_err(&solver, &phi);
        let backend = format!("{:?}", solver.solve_backend()).to_lowercase();
        println!(
            "{:>6} {:>8} {:>8.3} {:>8} {:>6} {:>9.2} {:>12.3e}   (residual {:.1e}{})",
            refine,
            solver.surface.num_patches(),
            lmax,
            backend,
            res.iterations,
            t_solve,
            err,
            res.rel_residual,
            if res.stalled { ", stalled" } else { "" }
        );
        rows.push((refine, solver.surface.num_patches(), err));

        if crossover {
            // one dense and one FMM application of the operator on the same
            // geometry: the per-iteration cost the Auto heuristic trades
            // off. Measured at qf = q so the cost per patch is identical
            // across levels (this is the configuration behind the
            // crossover table in crates/bie/README.md and the constant in
            // bie::MatvecBackend::FMM_CROSSOVER_PATCHES).
            for b in [MatvecBackend::Dense, MatvecBackend::Fmm] {
                let s = DoubleLayerSolver::new(
                    tube(refine),
                    StokesDL,
                    StokesEquiv { mu: 1.0 },
                    BieOptions {
                        qf: 0,
                        ..opts(refine, b)
                    },
                );
                let x = vec![0.5; s.dim()];
                let mut y = vec![0.0; s.dim()];
                s.apply(&x, &mut y); // warm caches / amortized setup
                let t0 = Instant::now();
                s.apply(&x, &mut y);
                println!(
                    "        matvec {:>5}: {:>8.3} s",
                    format!("{b:?}").to_lowercase(),
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }
    std::fs::create_dir_all("target/bench_out").ok();
    let mut csv = String::from("refine,patches,max_rel_err\n");
    for (r, p, e) in &rows {
        csv.push_str(&format!("{r},{p},{e}\n"));
    }
    std::fs::write("target/bench_out/tube_accuracy.csv", csv).unwrap();
    println!("\nwrote target/bench_out/tube_accuracy.csv");
}
