//! Integration: the full boundary-solver pipeline (patches → quadrature →
//! Nyström GMRES → near/far evaluation) against an exact Stokes solution.

use bie::{BieOptions, DoubleLayerSolver, MatvecBackend};
use kernels::{stokeslet, StokesDL, StokesEquiv};
use linalg::{GmresOptions, Vec3};
use patch::cube_sphere;

#[test]
fn confined_stokes_solution_reproduced() {
    let surface = cube_sphere(1.0, Vec3::ZERO, 1, 8);
    let opts = BieOptions {
        eta: 2,
        p_extrap: 8,
        check_r: 0.15,
        backend: MatvecBackend::Dense,
        null_space: true,
        gmres: GmresOptions {
            tol: 5e-5,
            max_iters: 60,
            ..Default::default()
        },
        ..Default::default()
    };
    let solver = DoubleLayerSolver::new(surface, StokesDL, StokesEquiv { mu: 1.0 }, opts);
    let x0 = Vec3::new(2.0, -1.5, 0.8);
    let f0 = Vec3::new(-1.0, 0.3, 0.9);
    let mut g = Vec::with_capacity(solver.dim());
    for &y in &solver.quad.points {
        let u = stokeslet(y, x0, f0, 1.0);
        g.extend_from_slice(&[u.x, u.y, u.z]);
    }
    let (phi, res) = solver.solve(&g);
    // the paper observes ≤ 30 GMRES iterations in typical steps
    assert!(res.iterations <= 30, "GMRES iterations {}", res.iterations);
    // far + near targets in one evaluation
    let targets = vec![
        Vec3::new(0.2, 0.2, -0.1),
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(0.9, 0.1, 0.2), // near the wall
    ];
    let u = solver.eval_at(&phi, &targets);
    for (i, &t) in targets.iter().enumerate() {
        let exact = stokeslet(t, x0, f0, 1.0);
        let got = Vec3::new(u[i * 3], u[i * 3 + 1], u[i * 3 + 2]);
        assert!(
            (got - exact).norm() < 5e-3 * exact.norm(),
            "target {i}: {got:?} vs {exact:?}"
        );
    }
}
