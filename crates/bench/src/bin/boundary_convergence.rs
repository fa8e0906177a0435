//! Boundary-solver convergence (Fig. 9): interior Stokes Dirichlet problem
//! with the exact solution of an exterior Stokeslet, solved on successively
//! refined patched spheres. Reports the maximum relative error of the
//! on-surface velocity at off-node samples against the max patch size L,
//! and the fitted convergence order (the paper observes O(L⁷) with p = 8).
//!
//! `cargo run --release -p bench --bin boundary_convergence`

use bench::fitted_order;
use bie::{BieOptions, DoubleLayerSolver, MatvecBackend};
use kernels::{stokeslet, StokesDL, StokesEquiv};
use linalg::{GmresOptions, Vec3};
use patch::cube_sphere;

fn main() {
    let x0 = Vec3::new(0.0, 2.2, 1.1);
    let f0 = Vec3::new(1.0, -0.5, 2.0);
    let mut sizes = Vec::new();
    let mut errors = Vec::new();
    println!("# Boundary solver convergence (Fig. 9 analogue)");
    println!(
        "{:>6} {:>10} {:>14} {:>10}",
        "subs", "patches", "max patch L", "max rel err"
    );
    for sub in 0..3u32 {
        let surface = cube_sphere(1.0, Vec3::ZERO, sub, 8);
        let opts = BieOptions {
            eta: 2,
            p_extrap: 8,
            check_r: 0.15,
            backend: MatvecBackend::Dense,
            null_space: true,
            gmres: GmresOptions {
                tol: 1e-7,
                max_iters: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = DoubleLayerSolver::new(surface, StokesDL, StokesEquiv { mu: 1.0 }, opts);
        let lmax = (0..solver.surface.num_patches())
            .map(|p| solver.quad.patch_size(p))
            .fold(0.0_f64, f64::max);
        let mut g = Vec::with_capacity(solver.dim());
        for &y in &solver.quad.points {
            let u = stokeslet(y, x0, f0, 1.0);
            g.extend_from_slice(&[u.x, u.y, u.z]);
        }
        let (phi, _res) = solver.solve(&g);
        // evaluate at on-surface samples distinct from quadrature nodes
        let mut targets = Vec::new();
        let mut exact = Vec::new();
        for patch in solver.surface.patches.iter().step_by(2) {
            for &(u, v) in &[(0.31, -0.41), (-0.77, 0.23)] {
                let x = patch.eval(u, v);
                targets.push(x);
                exact.push(stokeslet(x, x0, f0, 1.0));
            }
        }
        let uvals = solver.eval_at(&phi, &targets);
        let mut max_rel = 0.0_f64;
        for (i, e) in exact.iter().enumerate() {
            let got = Vec3::new(uvals[i * 3], uvals[i * 3 + 1], uvals[i * 3 + 2]);
            max_rel = max_rel.max((got - *e).norm() / e.norm());
        }
        println!(
            "{:>6} {:>10} {:>14.4} {:>10.3e}",
            sub,
            solver.surface.num_patches(),
            lmax,
            max_rel
        );
        sizes.push(lmax);
        errors.push(max_rel);
    }
    let order = fitted_order(&sizes, &errors);
    println!("\nfitted convergence order: O(L^{order:.2}) (paper: O(L^7) at its parameters)");
    std::fs::create_dir_all("target/bench_out").ok();
    let mut csv = String::from("L,max_rel_err\n");
    for (l, e) in sizes.iter().zip(&errors) {
        csv.push_str(&format!("{l},{e}\n"));
    }
    std::fs::write("target/bench_out/boundary_convergence.csv", csv).unwrap();
}
