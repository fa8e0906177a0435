//! Restarted GMRES for matrix-free linear operators.
//!
//! The paper solves the Nyström-discretized boundary integral equation
//! (Eq. 3.5) with PETSc's GMRES, never assembling the dense operator: each
//! iteration applies the singular-quadrature matrix-vector product. The same
//! matrix-free design is used here via the [`LinearOperator`] trait. The
//! paper caps iterations at 30 in its scaling runs (§5.1); the cap is a
//! parameter of [`GmresOptions`]. Like the paper, [`gmres`] runs
//! unpreconditioned: the paper relies on the second-kind form of the
//! double-layer equation for fast convergence. Each restart recomputes the
//! true residual `b − A x`, so warm starts and restarts see the real error.

use crate::mat::{axpy, dot, norm2};

/// A linear operator `y = A x` applied matrix-free.
pub trait LinearOperator {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Applies the operator: writes `A x` into `y`. Both slices have length
    /// [`LinearOperator::dim`].
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Blanket implementation so closures can be used as operators in tests.
pub struct FnOperator<F: Fn(&[f64], &mut [f64])> {
    dim: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> FnOperator<F> {
    /// Wraps a closure applying `A x` into an operator of dimension `dim`.
    pub fn new(dim: usize, f: F) -> Self {
        FnOperator { dim, f }
    }
}

impl<F: Fn(&[f64], &mut [f64])> LinearOperator for FnOperator<F> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

impl LinearOperator for crate::mat::Mat {
    fn dim(&self) -> usize {
        assert_eq!(self.rows(), self.cols());
        self.rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_into(x, y);
    }
}

/// Options controlling the GMRES iteration.
#[derive(Clone, Copy, Debug)]
pub struct GmresOptions {
    /// Relative residual tolerance ‖r‖/‖b‖.
    pub tol: f64,
    /// Absolute residual tolerance (secondary stop).
    pub atol: f64,
    /// Maximum total iterations (the paper's scaling runs use 30).
    pub max_iters: usize,
    /// Restart length (Krylov subspace dimension).
    pub restart: usize,
    /// Stagnation cutoff: stop early when the geometric mean per-iteration
    /// residual reduction over the last [`STALL_WINDOW`] iterations is
    /// worse than this ratio (e.g. `0.95`). `0` disables the check.
    ///
    /// Discretizations whose right-hand side carries content beyond the
    /// quadrature's resolution (near-wall cells in the vessel solve) hit a
    /// residual *floor* above any practical tolerance; without this check
    /// the iteration burns its full cap every solve for no improvement.
    /// A healthy solve contracts far faster than the cutoff, so the check
    /// does not fire before genuine convergence.
    pub stall_ratio: f64,
}

/// Window (iterations) over which [`GmresOptions::stall_ratio`] measures
/// the residual reduction rate.
pub const STALL_WINDOW: usize = 6;

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            tol: 1e-10,
            atol: 1e-14,
            max_iters: 200,
            restart: 60,
            stall_ratio: 0.0,
        }
    }
}

/// Outcome of a GMRES solve.
#[derive(Clone, Copy, Debug)]
pub struct GmresResult {
    /// Total iterations performed.
    pub iterations: usize,
    /// Final relative residual estimate.
    pub rel_residual: f64,
    /// Whether the tolerance was met before hitting the iteration cap.
    pub converged: bool,
    /// Whether the iteration was cut short by the stagnation check
    /// ([`GmresOptions::stall_ratio`]): the residual had stopped improving,
    /// so the returned solution is at the attainable floor.
    pub stalled: bool,
}

/// Solves `A x = b` with restarted GMRES, starting from `x` as initial guess
/// (often zero). `x` is updated in place.
pub fn gmres<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    opts: &GmresOptions,
) -> GmresResult {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let m = opts.restart.max(1);

    let mut total_iters = 0usize;
    let mut w = vec![0.0; n];
    // Krylov basis
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    // Hessenberg stored column-wise: h[j] has j+2 entries
    let mut hcols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut cs = vec![0.0; m];
    let mut sn = vec![0.0; m];
    let mut g = vec![0.0; m + 1];

    let mut rel_res;
    // per-iteration residual history for the stagnation check
    let mut hist: Vec<f64> = Vec::new();
    let mut stalled = false;
    // true residual and iteration count at the previous restart, for the
    // cross-cycle stagnation check (the Arnoldi estimate is monotone by
    // construction and can keep "improving" while the true residual sits
    // at the attainable floor; only restart boundaries expose the truth)
    let mut prev_cycle: Option<(f64, usize)> = None;
    'outer: loop {
        // r = b - A x
        a.apply(x, &mut w);
        let mut r = vec![0.0; n];
        for i in 0..n {
            r[i] = b[i] - w[i];
        }
        let rnorm = norm2(&r);
        rel_res = rnorm / bnorm;
        if rel_res <= opts.tol || rnorm <= opts.atol {
            return GmresResult {
                iterations: total_iters,
                rel_residual: rel_res,
                converged: true,
                stalled: false,
            };
        }
        if total_iters >= opts.max_iters {
            break 'outer;
        }
        if opts.stall_ratio > 0.0 {
            if let Some((prev_rnorm, prev_iters)) = prev_cycle {
                let done = (total_iters - prev_iters).max(1);
                if rnorm > prev_rnorm * opts.stall_ratio.powi(done as i32) {
                    stalled = true;
                    break 'outer;
                }
            }
            prev_cycle = Some((rnorm, total_iters));
        }

        basis.clear();
        hcols.clear();
        // the windowed check below must only compare estimates from the
        // same cycle: post-restart estimates are re-seeded from the true
        // residual, which can sit above the previous cycle's (monotone,
        // optimistic) Arnoldi estimates and would trip a false stall
        hist.clear();
        g.fill(0.0);
        g[0] = rnorm;
        for v in r.iter_mut() {
            *v /= rnorm;
        }
        basis.push(r);

        let mut k_used = 0usize;
        for j in 0..m {
            if total_iters >= opts.max_iters {
                break;
            }
            total_iters += 1;
            a.apply(&basis[j], &mut w);
            // modified Gram–Schmidt
            let mut h = vec![0.0; j + 2];
            for (i, vi) in basis.iter().enumerate().take(j + 1) {
                let hij = dot(&w, vi);
                h[i] = hij;
                axpy(-hij, vi, &mut w);
            }
            let hlast = norm2(&w);
            h[j + 1] = hlast;
            // apply previous Givens rotations to the new column
            for i in 0..j {
                let t = cs[i] * h[i] + sn[i] * h[i + 1];
                h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1];
                h[i] = t;
            }
            // new rotation
            let denom = h[j].hypot(h[j + 1]).max(f64::MIN_POSITIVE);
            cs[j] = h[j] / denom;
            sn[j] = h[j + 1] / denom;
            h[j] = denom;
            h[j + 1] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            hcols.push(h);
            k_used = j + 1;

            rel_res = g[j + 1].abs() / bnorm;
            let happy = hlast <= 1e-14 * bnorm;
            if rel_res <= opts.tol || g[j + 1].abs() <= opts.atol || happy {
                break;
            }
            hist.push(rel_res);
            if opts.stall_ratio > 0.0 && hist.len() > STALL_WINDOW {
                let old = hist[hist.len() - 1 - STALL_WINDOW];
                if rel_res > old * opts.stall_ratio.powi(STALL_WINDOW as i32) {
                    stalled = true;
                    break;
                }
            }
            if hlast == 0.0 {
                break;
            }
            let vnext: Vec<f64> = w.iter().map(|v| v / hlast).collect();
            basis.push(vnext);
        }

        // solve the small triangular system and update x
        if k_used > 0 {
            let mut y = vec![0.0; k_used];
            for i in (0..k_used).rev() {
                let mut acc = g[i];
                for jj in i + 1..k_used {
                    acc -= hcols[jj][i] * y[jj];
                }
                y[i] = acc / hcols[i][i];
            }
            for (j, yj) in y.iter().enumerate() {
                axpy(*yj, &basis[j], x);
            }
        }

        if rel_res <= opts.tol {
            return GmresResult {
                iterations: total_iters,
                rel_residual: rel_res,
                converged: true,
                stalled: false,
            };
        }
        if stalled || total_iters >= opts.max_iters {
            break 'outer;
        }
    }

    // recompute true residual for the report
    a.apply(x, &mut w);
    let mut rn = 0.0;
    for i in 0..n {
        let d = b[i] - w[i];
        rn += d * d;
    }
    let rel = rn.sqrt() / bnorm;
    GmresResult {
        iterations: total_iters,
        rel_residual: rel,
        converged: rel <= opts.tol,
        stalled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn solves_identity_in_one_iteration() {
        let a = Mat::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut x = vec![0.0; 10];
        let res = gmres(&a, &b, &mut x, &GmresOptions::default());
        assert!(res.converged);
        assert!(res.iterations <= 1);
        for (u, v) in x.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_spd_system() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50;
        let m = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        // A = MᵀM + n I is SPD and well conditioned
        let mut a = m.transpose().matmul(&m);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.matvec(&xtrue);
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &b,
            &mut x,
            &GmresOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(res.converged, "residual {}", res.rel_residual);
        let err: f64 = x
            .iter()
            .zip(&xtrue)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "err={err}");
    }

    #[test]
    fn restarting_still_converges() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 40;
        let mut a = Mat::from_fn(n, n, |_, _| rng.random_range(-0.3..0.3));
        for i in 0..n {
            a[(i, i)] += 2.0;
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &b,
            &mut x,
            &GmresOptions {
                tol: 1e-10,
                restart: 5,
                max_iters: 500,
                ..Default::default()
            },
        );
        assert!(res.converged, "residual {}", res.rel_residual);
        // verify residual directly
        let mut r = a.matvec(&x);
        for (ri, bi) in r.iter_mut().zip(&b) {
            *ri -= bi;
        }
        assert!(norm2(&r) / norm2(&b) < 1e-9);
    }

    #[test]
    fn iteration_cap_respected() {
        // nearly singular system; cap must stop the iteration
        let mut rng = StdRng::seed_from_u64(3);
        let n = 30;
        let a = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &b,
            &mut x,
            &GmresOptions {
                tol: 1e-16,
                atol: 0.0,
                max_iters: 7,
                restart: 4,
                stall_ratio: 0.0,
            },
        );
        assert!(res.iterations <= 7);
    }

    #[test]
    fn second_kind_operator_converges_fast() {
        // (I/2 + K) with small smooth K mimics the double-layer spectrum;
        // GMRES should converge in few iterations, as the paper relies on.
        let n = 80;
        let k = Mat::from_fn(n, n, |i, j| {
            0.05 * (-(((i as f64 - j as f64) / 8.0).powi(2))).exp() / n as f64 * 8.0
        });
        let mut a = k;
        for i in 0..n {
            a[(i, i)] += 0.5;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &b,
            &mut x,
            &GmresOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(res.converged);
        assert!(res.iterations < 30, "iterations {}", res.iterations);
    }

    #[test]
    fn stagnation_check_stops_floored_iteration() {
        // continuously spread ill-conditioned spectrum: after the easy
        // modes, the per-iteration reduction collapses far below the
        // healthy rate and the stall check must stop the grind early
        let n = 120;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                // geometric spread 1e-6 … 1
                1e-6_f64.powf(1.0 - i as f64 / (n - 1) as f64)
            } else {
                0.0
            }
        });
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let opts = GmresOptions {
            tol: 1e-13,
            atol: 0.0,
            max_iters: 1000,
            restart: 25,
            stall_ratio: 0.9,
        };
        let res = gmres(&a, &b, &mut x, &opts);
        assert!(res.stalled, "expected stall, got {res:?}");
        assert!(!res.converged);
        assert!(
            res.iterations < 200,
            "stall check should fire early, took {}",
            res.iterations
        );
        // a healthy solve must NOT trip the check
        let mut a2 = Mat::identity(n);
        a2[(0, 0)] = 2.0;
        let mut x2 = vec![0.0; n];
        let res2 = gmres(&a2, &b, &mut x2, &opts);
        assert!(res2.converged && !res2.stalled, "{res2:?}");
    }

    #[test]
    fn zero_rhs_early_exits_without_iterating() {
        let a = Mat::identity(12);
        let b = vec![0.0; 12];
        let mut x = vec![0.0; 12];
        let res = gmres(&a, &b, &mut x, &GmresOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn exact_initial_guess_early_exits() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 25;
        let mut a = Mat::from_fn(n, n, |_, _| rng.random_range(-0.2..0.2));
        for i in 0..n {
            a[(i, i)] += 3.0;
        }
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let b = a.matvec(&xtrue);
        let mut x = xtrue.clone();
        let res = gmres(&a, &b, &mut x, &GmresOptions::default());
        assert!(res.converged);
        assert_eq!(
            res.iterations, 0,
            "warm start at the solution must not iterate"
        );
        assert_eq!(x, xtrue);
    }

    #[test]
    fn happy_breakdown_on_low_degree_operator() {
        // A = I ⇒ the Krylov space is exhausted after one vector; the
        // `hlast ≈ 0` breakdown path must still return the exact solution
        let n = 15;
        let a = Mat::identity(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = vec![0.0; n];
        let res = gmres(
            &a,
            &b,
            &mut x,
            &GmresOptions {
                tol: 1e-15,
                ..Default::default()
            },
        );
        assert!(res.converged);
        assert!(res.iterations <= 1, "iterations {}", res.iterations);
        for (u, v) in x.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn fn_operator_wrapper_works() {
        // diagonal operator as a closure
        let d: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let dc = d.clone();
        let op = FnOperator::new(20, move |x: &[f64], y: &mut [f64]| {
            for i in 0..20 {
                y[i] = dc[i] * x[i];
            }
        });
        let b = vec![2.0; 20];
        let mut x = vec![0.0; 20];
        let res = gmres(&op, &b, &mut x, &GmresOptions::default());
        assert!(res.converged);
        for i in 0..20 {
            assert!((x[i] - 2.0 / d[i]).abs() < 1e-9);
        }
    }
}
