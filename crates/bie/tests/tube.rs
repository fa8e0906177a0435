//! Wall-refinement regression suite on the *tube* geometry — the vessel
//! configuration whose boundary operator the coarse registry layout leaves
//! polluted (ROADMAP "vessel boundary resolution").
//!
//! A capsule tube at the registry aspect ratio (`L̂ ≈ 1.4·radius` at the
//! coarsest layout) is solved with an exact exterior-source solution at
//! successive [`patch::BoundarySurface::refine`] levels, with the
//! scenario-default check spec per level (`check_r = 0.06` unrefined,
//! `0.15` refined — see `driver`'s `bie_options`). The analytic error must
//! *decrease monotonically* with refinement: this is the property the
//! coarse vessels could not have, because no check family was
//! simultaneously inside the lumen and resolved by the fine quadrature.
//!
//! Also pins the dense ↔ FMM [`MatvecBackend`] seam: both backends must
//! apply the same discrete operator up to the FMM truncation error.

use bie::{BieOptions, DoubleLayerSolver, MatvecBackend};
use kernels::{laplace_sl, stokeslet, LaplaceDL, LaplaceSL, StokesDL, StokesEquiv};
use linalg::{GmresOptions, Vec3};
use patch::{capsule_tube, BoundarySurface, StraightLine};

/// Registry-aspect tube: radius 1.6, axis length 4, minimal segment count
/// (the coarsest, most polluted layout: 14 patches, `L̂_max ≈ 2.3`).
fn tube(q: usize, refine: u32) -> BoundarySurface {
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(0.0, 0.0, 4.0),
    };
    capsule_tube(&line, 1.6, 1, q).refine(refine)
}

/// Scenario-style options at a refinement level: `check_r = 0.06`
/// unrefined / `0.15` refined (mirrors `driver`'s `bie_options`), fine
/// order `qf` supplied by the caller.
fn tube_opts(refine: u32, qf: usize, backend: MatvecBackend) -> BieOptions {
    let check_r = if refine > 0 { 0.15 } else { 0.06 };
    BieOptions {
        backend,
        qf,
        check_r,
        p_extrap: 5,
        null_space: false,
        gmres: GmresOptions {
            tol: 1e-6,
            max_iters: 40,
            restart: 10,
            stall_ratio: 0.9,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Interior sample points: on-axis and at 60 % radius, away from the caps.
fn targets() -> Vec<Vec3> {
    vec![
        Vec3::new(0.0, 0.0, 1.2),
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::new(0.0, 0.0, 2.8),
        Vec3::new(0.96, 0.0, 2.0),
        Vec3::new(0.0, -0.96, 2.0),
        Vec3::new(-0.68, 0.68, 1.5),
    ]
}

/// Exterior Laplace point source (outside the tube).
const SRC: Vec3 = Vec3 {
    x: 3.0,
    y: 4.0,
    z: 6.0,
};

/// Max relative interior-field error of the Laplace Dirichlet solve on the
/// tube at one refinement level.
fn laplace_tube_error(refine: u32, backend: MatvecBackend) -> f64 {
    let q = 6;
    // the fine order follows the level: constraint (b) — `R ≳ 3 h_fine`,
    // `h_fine ∝ L̂ / qf` — must keep the check-resolution floor *below*
    // the shrinking Nyström error, or every refined level sits on the
    // same floor and the ladder flattens (measured: at flat qf the
    // level-2 error stagnates at the level-1 value)
    let qf = q + 2 + 2 * refine as usize;
    let solver = DoubleLayerSolver::new(
        tube(q, refine),
        LaplaceDL,
        LaplaceSL,
        tube_opts(refine, qf, backend),
    );
    let g: Vec<f64> = solver
        .quad
        .points
        .iter()
        .map(|&y| laplace_sl(y, SRC, 1.0))
        .collect();
    let (phi, _res) = solver.solve(&g);
    let targets = targets();
    let u = solver.eval_at(&phi, &targets);
    let mut worst = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let exact = laplace_sl(t, SRC, 1.0);
        worst = worst.max((u[i] - exact).abs() / exact.abs());
    }
    worst
}

#[test]
fn analytic_tube_error_decreases_monotonically_with_refinement() {
    let e0 = laplace_tube_error(0, MatvecBackend::Dense);
    let e1 = laplace_tube_error(1, MatvecBackend::Dense);
    let e2 = laplace_tube_error(2, MatvecBackend::Auto);
    println!("analytic tube (Laplace): e0 = {e0:.3e}, e1 = {e1:.3e}, e2 = {e2:.3e}");
    // level 0 is the polluted coarse-registry regime: O(1) error
    assert!(e0 > 0.1, "coarse tube unexpectedly accurate: {e0}");
    // each refinement level must improve the operator substantially — a
    // plain `<` would also pass on a plateau, which is the failure mode
    // wall refinement exists to remove (measured ladder:
    // 9.1e-1 → 7.2e-4 → 4.9e-5)
    assert!(
        e1 < 0.01 * e0,
        "level 1 did not improve on level 0: {e1} vs {e0}"
    );
    assert!(
        e2 < 0.25 * e1,
        "level 2 did not improve on level 1: {e2} vs {e1}"
    );
}

#[test]
fn refined_tube_stokes_error_below_threshold_with_fmm() {
    // the acceptance number of the wall-resolution work: wall_refine = 2
    // with the FMM backend takes the analytic tube below 0.1 relative
    // (the coarse registry layout sits at O(1); see also
    // `examples/tube_accuracy.rs` for the registry-scale version)
    let q = 6;
    let refine = 2;
    let solver = DoubleLayerSolver::new(
        tube(q, refine),
        StokesDL,
        StokesEquiv { mu: 1.0 },
        BieOptions {
            null_space: true,
            gmres: GmresOptions {
                // the scenario-default refined tolerance (attainable;
                // see driver's bie_options)
                tol: 2e-3,
                max_iters: 40,
                restart: 10,
                stall_ratio: 0.9,
                ..Default::default()
            },
            // the scenario-default refined matvec order: 4 — this test
            // pins the end-to-end refined accuracy at the *production*
            // order, so lowering the default below the quadrature floor
            // would fail here, not in a scenario run
            fmm: fmm::FmmOptions {
                order: 4,
                ..Default::default()
            },
            // the scenario-default refined fine order q + 4
            ..tube_opts(refine, q + 4, MatvecBackend::Fmm)
        },
    );
    assert_eq!(solver.solve_backend(), MatvecBackend::Fmm);
    let f0 = Vec3::new(1.0, -0.5, 2.0);
    let mut g = Vec::with_capacity(solver.dim());
    for &y in &solver.quad.points {
        let u = stokeslet(y, SRC, f0, 1.0);
        g.extend_from_slice(&[u.x, u.y, u.z]);
    }
    let (phi, _res) = solver.solve(&g);
    let targets = targets();
    let u = solver.eval_at(&phi, &targets);
    let mut worst = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let exact = stokeslet(t, SRC, f0, 1.0);
        let got = Vec3::new(u[i * 3], u[i * 3 + 1], u[i * 3 + 2]);
        worst = worst.max((got - exact).norm() / exact.norm());
    }
    println!("refined tube (Stokes, FMM): max rel err {worst:.3e}");
    assert!(worst < 0.1, "refined-tube Stokes error {worst} ≥ 0.1");
}

#[test]
fn dense_and_fmm_backends_apply_the_same_operator() {
    // one refinement level: 56 patches — small enough for a fast dense
    // apply, large enough that the FMM tree actually has far-field work
    let q = 6;
    let refine = 1;
    let dense = DoubleLayerSolver::new(
        tube(q, refine),
        StokesDL,
        StokesEquiv { mu: 1.0 },
        tube_opts(refine, q + 4, MatvecBackend::Dense),
    );
    assert_eq!(dense.solve_backend(), MatvecBackend::Dense);
    let n = dense.dim();
    // a smooth but non-trivial density
    let phi: Vec<f64> = (0..n).map(|i| 1.0 + (0.13 * i as f64).sin()).collect();
    let mut y_dense = vec![0.0; n];
    dense.apply(&phi, &mut y_dense);
    let scale = y_dense.iter().map(|v| v * v).sum::<f64>().sqrt();

    // tolerance tied to the FMM truncation order. The check targets sit
    // right against the source surface (R = 0.15 L̂), so the agreement is
    // set by the near-field translation accuracy, not the far-field
    // "5–6 digits at order 6" figure: measured 1.6e-2 at order 4, 4.1e-4
    // at order 6, and 2.0e-5 at order 8 on this geometry. Assert each
    // order's bound and that the distance tightens with order; order 4
    // heads the ladder because it is the refined-path matvec default
    // (driver `bie_fmm_order`) — a ~2-digit operator perturbation that
    // GMRES absorbs without moving the end-to-end interior error off the
    // quadrature floor (pinned at the default order by
    // `refined_tube_stokes_error_below_threshold_with_fmm` above).
    let mut dist = Vec::new();
    for (order, bound) in [(4usize, 3e-2), (6, 1.5e-3), (8, 1e-4)] {
        let fmm_solver = DoubleLayerSolver::new(
            tube(q, refine),
            StokesDL,
            StokesEquiv { mu: 1.0 },
            BieOptions {
                fmm: fmm::FmmOptions {
                    order,
                    ..Default::default()
                },
                ..tube_opts(refine, q + 4, MatvecBackend::Fmm)
            },
        );
        assert_eq!(fmm_solver.solve_backend(), MatvecBackend::Fmm);
        assert_eq!(fmm_solver.dim(), n);
        let mut y_fmm = vec![0.0; n];
        fmm_solver.apply(&phi, &mut y_fmm);
        let diff = y_dense
            .iter()
            .zip(&y_fmm)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        println!(
            "fmm order {order}: rel operator distance {:.3e}",
            diff / scale
        );
        assert!(
            diff < bound * scale,
            "order {order}: dense vs FMM matvec diverge: ‖Δ‖/‖y‖ = {:.3e} ≥ {bound:.1e}",
            diff / scale
        );
        dist.push(diff);
    }
    for w in dist.windows(2) {
        assert!(
            w[1] < w[0],
            "FMM operator distance did not tighten with order: {dist:?}"
        );
    }
}
