//! Linear complementarity solver: minimum-map Newton restructured over
//! GMRES, following [24, §3.2.2/§3.3] as §4 of the paper prescribes.
//!
//! The LCP is: find `λ ≥ 0` with `L = B λ + q ≥ 0` and `λ · L = 0`.
//! The minimum-map reformulation solves `H(λ) = min(λ, Bλ + q) = 0`
//! (componentwise) by a semismooth Newton method; each Newton system is
//! solved matrix-free with GMRES, so only `B`-matvecs are needed — in the
//! simulation `B` couples the contacts that share a cell and is assembled
//! once per linearization into a `linalg::CsrMatrix` (see `ncp`'s
//! `assemble_b`), whose matvec the solver is handed.

use linalg::{gmres, FnOperator, GmresOptions};

/// Options for the LCP solver.
#[derive(Clone, Copy, Debug)]
pub struct LcpOptions {
    /// Infinity-norm tolerance on the minimum map.
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_newton: usize,
    /// GMRES controls for the Newton systems.
    pub gmres: GmresOptions,
}

impl Default for LcpOptions {
    fn default() -> Self {
        LcpOptions {
            tol: 1e-10,
            max_newton: 50,
            gmres: GmresOptions {
                tol: 1e-10,
                atol: 1e-14,
                max_iters: 200,
                restart: 50,
                stall_ratio: 0.0,
            },
        }
    }
}

/// Outcome of an LCP solve.
#[derive(Clone, Debug)]
pub struct LcpResult {
    /// The multiplier vector λ.
    pub lambda: Vec<f64>,
    /// Final minimum-map residual (∞-norm).
    pub residual: f64,
    /// Newton iterations used.
    pub newton_iters: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Solves the LCP `λ ≥ 0 ⊥ Bλ + q ≥ 0` with `B` given as a matvec closure.
pub fn solve_lcp(
    m: usize,
    apply_b: impl Fn(&[f64], &mut [f64]) + Sync,
    q: &[f64],
    opts: &LcpOptions,
) -> LcpResult {
    assert_eq!(q.len(), m);
    if m == 0 {
        return LcpResult {
            lambda: Vec::new(),
            residual: 0.0,
            newton_iters: 0,
            converged: true,
        };
    }
    let mut lambda = vec![0.0; m];
    let mut blam = vec![0.0; m];
    let mut converged = false;
    let mut residual = f64::INFINITY;
    let mut iters = 0;

    for newton in 0..opts.max_newton {
        iters = newton + 1;
        apply_b(&lambda, &mut blam);
        // minimum map H(λ) = min(λ, Bλ + q)
        let h: Vec<f64> = (0..m).map(|i| lambda[i].min(blam[i] + q[i])).collect();
        residual = h.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
        if residual <= opts.tol {
            converged = true;
            break;
        }
        // active set: rows where Bλ + q < λ take the B row, else identity
        let active: Vec<bool> = (0..m).map(|i| blam[i] + q[i] < lambda[i]).collect();
        let ab = &apply_b;
        let active_ref = &active;
        let op = FnOperator::new(m, move |x: &[f64], y: &mut [f64]| {
            let mut bx = vec![0.0; m];
            ab(x, &mut bx);
            for i in 0..m {
                y[i] = if active_ref[i] { bx[i] } else { x[i] };
            }
        });
        // solve J d = -H
        let rhs: Vec<f64> = h.iter().map(|v| -v).collect();
        let mut d = vec![0.0; m];
        gmres(&op, &rhs, &mut d, &opts.gmres);
        // backtracking line search on ‖H‖∞
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..40 {
            let trial: Vec<f64> = (0..m).map(|i| lambda[i] + step * d[i]).collect();
            apply_b(&trial, &mut blam);
            let tres = (0..m)
                .map(|i| trial[i].min(blam[i] + q[i]).abs())
                .fold(0.0_f64, f64::max);
            if tres < residual * (1.0 - 1e-4 * step) || tres <= opts.tol {
                lambda = trial;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            break;
        }
    }
    // clamp tiny negatives from roundoff
    for v in &mut lambda {
        if *v < 0.0 && *v > -1e-13 {
            *v = 0.0;
        }
    }
    LcpResult {
        lambda,
        residual,
        newton_iters: iters,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Mat;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn check_lcp(b: &Mat, q: &[f64], res: &LcpResult) {
        let m = q.len();
        let l = {
            let mut bl = b.matvec(&res.lambda);
            for i in 0..m {
                bl[i] += q[i];
            }
            bl
        };
        for (i, (&lam, &li)) in res.lambda.iter().zip(&l).enumerate() {
            assert!(lam >= -1e-9, "λ_{i} = {lam}");
            assert!(li >= -1e-8, "L_{i} = {li}");
            assert!(lam * li < 1e-8, "complementarity {i}: λ={lam} L={li}");
        }
    }

    #[test]
    fn solves_strictly_feasible_case() {
        // q > 0 ⇒ λ = 0
        let b = Mat::identity(4);
        let q = vec![1.0, 2.0, 0.5, 3.0];
        let res = solve_lcp(4, |x, y| b.matvec_into(x, y), &q, &LcpOptions::default());
        assert!(res.converged);
        assert!(res.lambda.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn solves_identity_lcp() {
        // B = I: λ_i = max(0, -q_i)
        let b = Mat::identity(5);
        let q = vec![-1.0, 2.0, -0.3, 0.0, -5.0];
        let res = solve_lcp(5, |x, y| b.matvec_into(x, y), &q, &LcpOptions::default());
        assert!(res.converged);
        for (lam, qi) in res.lambda.iter().zip(&q) {
            assert!((lam - (-qi).max(0.0)).abs() < 1e-10);
        }
        check_lcp(&b, &q, &res);
    }

    #[test]
    fn random_diagonally_dominant_lcps() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..20 {
            let m = rng.random_range(1..25);
            let mut b = Mat::from_fn(m, m, |_, _| rng.random_range(-0.5..0.5));
            for i in 0..m {
                // symmetric positive-ish diagonally dominant (as the
                // contact-mobility matrices are)
                b[(i, i)] = m as f64;
            }
            let q: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
            let res = solve_lcp(m, |x, y| b.matvec_into(x, y), &q, &LcpOptions::default());
            assert!(
                res.converged,
                "trial {trial} (m={m}): residual {}",
                res.residual
            );
            check_lcp(&b, &q, &res);
        }
    }

    #[test]
    fn empty_problem_is_trivial() {
        let res = solve_lcp(0, |_x, _y| {}, &[], &LcpOptions::default());
        assert!(res.converged);
        assert!(res.lambda.is_empty());
    }

    #[test]
    fn contact_like_physics() {
        // two overlapping "bodies" coupled through a compliance matrix:
        // both constraints violated (q < 0), forces must activate both
        let b = Mat::from_vec(2, 2, vec![2.0, 0.5, 0.5, 2.0]);
        let q = vec![-1.0, -1.0];
        let res = solve_lcp(2, |x, y| b.matvec_into(x, y), &q, &LcpOptions::default());
        assert!(res.converged);
        // symmetric problem: λ = (0.4, 0.4) solves Bλ + q = 0
        assert!((res.lambda[0] - 0.4).abs() < 1e-9);
        assert!((res.lambda[1] - 0.4).abs() < 1e-9);
        check_lcp(&b, &q, &res);
    }
}
