//! Analytic accuracy regression suite for the boundary solver.
//!
//! Interior Stokes Dirichlet problem with a known exact solution (a
//! Stokeslet placed *outside* the domain): `solve` must recover a density
//! whose double-layer potential reproduces the exact field inside, at two
//! quadrature orders, with the error decreasing as the order rises. This
//! pins the whole pipeline — upsampling, packing, check-point
//! extrapolation, GMRES (warm-started or not), and near/far `eval_at` —
//! against closed-form truth, so solver refactors (warm starts,
//! scratch-buffer recycling) cannot silently degrade accuracy.

use bie::{BieOptions, CheckSpec, DoubleLayerSolver, MatvecBackend};
use kernels::{stokeslet, StokesDL, StokesEquiv};
use linalg::{GmresOptions, Vec3};
use patch::cube_sphere;

/// Exterior Stokeslet: position, strength.
const X0: Vec3 = Vec3 {
    x: 0.0,
    y: 2.2,
    z: 1.1,
};
const F0: Vec3 = Vec3 {
    x: 1.0,
    y: -0.5,
    z: 2.0,
};

fn solve_on_sphere(q: usize) -> (DoubleLayerSolver<StokesDL, StokesEquiv>, Vec<f64>) {
    let s = cube_sphere(1.0, Vec3::ZERO, 1, q);
    // the completed Stokes system's residual floor sits at the
    // discrete-compatibility level, which shrinks with quadrature order
    let tol = if q >= 8 { 5e-5 } else { 5e-4 };
    let opts = BieOptions {
        eta: 2,
        p_extrap: 8,
        check: CheckSpec::Linear {
            big_r: 0.15,
            small_r: 0.15,
        },
        backend: MatvecBackend::Dense,
        null_space: true,
        gmres: GmresOptions {
            tol,
            max_iters: 60,
            ..Default::default()
        },
        ..Default::default()
    };
    let solver = DoubleLayerSolver::new(s, StokesDL, StokesEquiv { mu: 1.0 }, opts);
    let mut g = Vec::with_capacity(solver.dim());
    for &y in &solver.quad.points {
        let u = stokeslet(y, X0, F0, 1.0);
        g.extend_from_slice(&[u.x, u.y, u.z]);
    }
    let (phi, res) = solver.solve(&g);
    assert!(res.converged, "q={q}: GMRES residual {}", res.rel_residual);
    assert!(res.iterations <= 30, "q={q}: iterations {}", res.iterations);
    (solver, phi)
}

/// Max relative error of `eval_at` against the exact field at a target set
/// spanning deep-interior and near-surface (near-singular) points.
fn field_error(solver: &DoubleLayerSolver<StokesDL, StokesEquiv>, phi: &[f64]) -> f64 {
    let targets = vec![
        Vec3::new(0.25, 0.1, 0.0),
        Vec3::new(-0.3, -0.2, 0.35),
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(0.55, 0.55, 0.3),                    // mid-radius
        Vec3::new(0.8, 0.2, 0.1),                      // moderately near
        Vec3::new(0.4, -0.6, 0.2).normalized() * 0.93, // near-singular zone
    ];
    let u = solver.eval_at(phi, &targets);
    let mut worst = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let exact = stokeslet(t, X0, F0, 1.0);
        let got = Vec3::new(u[i * 3], u[i * 3 + 1], u[i * 3 + 2]);
        worst = worst.max((got - exact).norm() / exact.norm());
    }
    worst
}

#[test]
fn stokes_accuracy_regression_two_orders() {
    // order 6: the workhorse tolerance
    let (s6, phi6) = solve_on_sphere(6);
    let e6 = field_error(&s6, &phi6);
    assert!(e6 < 2e-2, "q=6 field error {e6}");

    // order 8: tighter
    let (s8, phi8) = solve_on_sphere(8);
    let e8 = field_error(&s8, &phi8);
    assert!(e8 < 3e-3, "q=8 field error {e8}");

    // convergence with order: the higher-order solve must be measurably
    // more accurate (guards against refactors that silently degrade the
    // singular quadrature while staying under the absolute tolerances)
    assert!(
        e8 < 0.5 * e6,
        "no order convergence: q=6 err {e6} vs q=8 err {e8}"
    );
}

#[test]
fn warm_start_reaches_same_solution() {
    // warm-starting from the converged density must return (essentially)
    // the same density, in O(1) iterations, and from a perturbed density
    // must still converge to the same solution
    let (solver, phi) = solve_on_sphere(6);
    let mut g = Vec::with_capacity(solver.dim());
    for &y in &solver.quad.points {
        let u = stokeslet(y, X0, F0, 1.0);
        g.extend_from_slice(&[u.x, u.y, u.z]);
    }
    let (phi2, res2) = solver.solve_warm(&g, Some(&phi));
    assert!(res2.converged);
    // the cold solve stops on the monotone Arnoldi estimate, so the true
    // residual of `phi` sits marginally above tol and a few polish
    // iterations are expected — but nowhere near a cold iteration count
    assert!(
        res2.iterations <= 8,
        "warm start from the solution should exit almost immediately, took {}",
        res2.iterations
    );
    let scale = phi.iter().map(|v| v * v).sum::<f64>().sqrt();
    let diff = phi
        .iter()
        .zip(&phi2)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(
        diff < 1e-3 * scale,
        "warm-started solution drifted: {diff} vs {scale}"
    );

    // perturbed warm start: a *smooth* perturbation (like the one a real
    // warm start carries — the previous step's density) must be corrected
    // back to the same solution
    let mut perturbed = phi.clone();
    for (l, &p) in solver.quad.points.iter().enumerate() {
        perturbed[l * 3] += 0.1 * (1.3 * p.y).sin();
        perturbed[l * 3 + 1] += 0.1 * p.z.cos();
        perturbed[l * 3 + 2] += 0.1 * p.x;
    }
    let (phi3, res3) = solver.solve_warm(&g, Some(&perturbed));
    assert!(res3.converged, "residual {}", res3.rel_residual);
    let e3 = field_error(&solver, &phi3);
    assert!(
        e3 < 2e-2,
        "perturbed warm start degraded the solution: {e3}"
    );
}
