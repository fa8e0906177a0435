//! Restarted GMRES for matrix-free linear operators.
//!
//! The paper solves the Nyström-discretized boundary integral equation
//! (Eq. 3.5) with PETSc's GMRES, never assembling the dense operator: each
//! iteration applies the singular-quadrature matrix-vector product. The same
//! matrix-free design is used here via the [`LinearOperator`] trait. The
//! paper caps iterations at 30 in its scaling runs (§5.1); the cap is a
//! parameter of [`GmresOptions`]. Like the paper, [`gmres`] runs
//! unpreconditioned: the paper relies on the second-kind form of the
//! double-layer equation for fast convergence.
//!
//! **The iterate's image.** [`gmres`] carries `A x` alongside `x`, so a
//! solve applies `A` once per Krylov iteration and otherwise only at a
//! restart:
//! - On entry the caller may pass `A x₀` (a warm start whose image it kept
//!   from the previous solve); a zero guess is known to map to zero. Either
//!   way the first cycle's residual `b − A x₀` costs no apply. Any other
//!   guess is applied once, as a restart is.
//! - Each cycle updates the image through the Arnoldi relation
//!   `A x = A x₀ + V₍ₖ₊₁₎ H̄ y`, from the unrotated Hessenberg columns and
//!   the basis already held — no extra apply and no extra vector.
//! - The returned [`GmresResult::image`] is that `A x`, and the reported
//!   residual on a stall or cap exit is `‖b − A x‖` computed from it.
//! - Each restart recomputes the true residual with a direct apply, so
//!   restarts still see the real error.
//!
//! The image agrees with a direct apply to roundoff (~1e-14 relative per
//! solve), not bitwise.

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
#[derive(Clone, Debug)]
pub struct GmresResult {
    /// Total iterations performed.
    pub iterations: usize,
    /// Final relative residual: the Arnoldi estimate on a tolerance exit,
    /// `‖b − A x‖ / ‖b‖` from [`Self::image`] otherwise.
    pub rel_residual: f64,
    /// Whether the tolerance was met before hitting the iteration cap.
    pub converged: bool,
    /// Whether the iteration was cut short by the stagnation check
    /// ([`GmresOptions::stall_ratio`]): the residual had stopped improving,
    /// so the returned solution is at the attainable floor.
    pub stalled: bool,
    /// `A x` for the returned `x`, built from the Arnoldi relation (module
    /// doc): pass it back as the next solve's `ax` when `x` is that solve's
    /// initial guess.
    pub image: Vec<f64>,
}

/// Solves `A x = b` with restarted GMRES, starting from `x` as initial guess
/// (often zero). `x` is updated in place. `ax` is `A x` for the initial
/// guess when the caller knows it: the first cycle then skips its apply,
/// as it does for a guess that is identically zero.
pub fn gmres<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    ax: Option<&[f64]>,
    opts: &GmresOptions,
) -> GmresResult {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let m = opts.restart.max(1);

    // the iterate's image `A x`; `known` while it is current without an
    // apply (the caller's, or zero's, before the first cycle only)
    let (mut image, mut known) = match ax {
        Some(ax) => {
            assert_eq!(ax.len(), n);
            (ax.to_vec(), true)
        }
        None => (vec![0.0; n], x.iter().all(|&v| v == 0.0)),
    };
    let mut total_iters = 0usize;
    let mut w = vec![0.0; n];
    // Krylov basis
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    // Hessenberg stored column-wise: h[j] has j+2 entries; `hcols` is
    // rotated into the triangular factor, `hraw` keeps H̄ for the image
    let mut hcols: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut hraw: Vec<Vec<f64>> = Vec::with_capacity(m);
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
        if !known {
            a.apply(x, &mut image);
        }
        known = false;
        let mut r = vec![0.0; n];
        for i in 0..n {
            r[i] = b[i] - image[i];
        }
        let rnorm = norm2(&r);
        rel_res = rnorm / bnorm;
        if rel_res <= opts.tol || rnorm <= opts.atol {
            return GmresResult {
                iterations: total_iters,
                rel_residual: rel_res,
                converged: true,
                stalled: false,
                image,
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
        hraw.clear();
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
            hraw.push(h.clone());
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

        // solve the small triangular system and update x and its image
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
            // A x += V₍ₖ₊₁₎ H̄ y; the last basis vector's share,
            // H̄[k, k−1] y[k−1] v_k, is y[k−1] times the last
            // orthogonalized `w` (whose norm is that H̄ entry)
            for i in 0..k_used {
                let zi: f64 = (i.saturating_sub(1)..k_used)
                    .map(|jj| hraw[jj][i] * y[jj])
                    .sum();
                axpy(zi, &basis[i], &mut image);
            }
            axpy(y[k_used - 1], &w, &mut image);
        }

        if rel_res <= opts.tol {
            return GmresResult {
                iterations: total_iters,
                rel_residual: rel_res,
                converged: true,
                stalled: false,
                image,
            };
        }
        if stalled || total_iters >= opts.max_iters {
            break 'outer;
        }
    }

    // the true residual for the report, from the image
    let rn: f64 = b.iter().zip(&image).map(|(bi, ai)| (bi - ai).powi(2)).sum();
    let rel = rn.sqrt() / bnorm;
    GmresResult {
        iterations: total_iters,
        rel_residual: rel,
        converged: rel <= opts.tol,
        stalled,
        image,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::cell::{Cell, RefCell};

    #[test]
    fn solves_identity_in_one_iteration() {
        let a = Mat::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut x = vec![0.0; 10];
        let res = gmres(&a, &b, &mut x, None, &GmresOptions::default());
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
            None,
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
            None,
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
            None,
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
            None,
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
        let res = gmres(&a, &b, &mut x, None, &opts);
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
        let res2 = gmres(&a2, &b, &mut x2, None, &opts);
        assert!(res2.converged && !res2.stalled, "{res2:?}");
    }

    #[test]
    fn zero_rhs_early_exits_without_iterating() {
        let a = Mat::identity(12);
        let b = vec![0.0; 12];
        let mut x = vec![0.0; 12];
        let res = gmres(&a, &b, &mut x, None, &GmresOptions::default());
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
        let res = gmres(&a, &b, &mut x, None, &GmresOptions::default());
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
            None,
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
        let res = gmres(&op, &b, &mut x, None, &GmresOptions::default());
        assert!(res.converged);
        for i in 0..20 {
            assert!((x[i] - 2.0 / d[i]).abs() < 1e-9);
        }
    }

    /// A diagonally dominant nonsymmetric `n × n` system, a nonzero warm
    /// start and its image.
    fn warm_system(seed: u64, n: usize, spread: f64) -> (Mat, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Mat::from_fn(n, n, |_, _| rng.random_range(-spread..spread));
        for i in 0..n {
            a[(i, i)] += 2.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin() + 0.5).collect();
        let x0: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 * 0.7).cos()).collect();
        let mut ax0 = vec![0.0; n];
        a.apply(&x0, &mut ax0);
        (a, b, x0, ax0)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn supplied_image_reproduces_the_applied_start_bitwise() {
        // restart 6 over a ~20-iteration solve: the restart applies must
        // match too
        let (a, b, x0, ax0) = warm_system(11, 40, 0.45);
        let opts = GmresOptions {
            tol: 1e-12,
            restart: 6,
            ..Default::default()
        };
        let run = |ax: Option<&[f64]>| {
            let seen = RefCell::new(Vec::new());
            let op = FnOperator::new(a.rows(), |v: &[f64], y: &mut [f64]| {
                seen.borrow_mut().push(bits(v));
                a.apply(v, y);
            });
            let mut x = x0.clone();
            let res = gmres(&op, &b, &mut x, ax, &opts);
            (seen.into_inner(), x, res)
        };
        let (seen_applied, x_applied, res_applied) = run(None);
        let (seen_given, x_given, res_given) = run(Some(&ax0));
        assert!(res_applied.iterations > 2 * opts.restart, "{res_applied:?}");
        // the only difference is the first apply, to the warm start itself
        assert_eq!(seen_applied[0], bits(&x0));
        assert_eq!(seen_applied[1..], seen_given[..]);
        assert_eq!(bits(&x_applied), bits(&x_given));
        assert_eq!(bits(&res_applied.image), bits(&res_given.image));
        assert_eq!(res_applied.iterations, res_given.iterations);
        assert_eq!(
            res_applied.rel_residual.to_bits(),
            res_given.rel_residual.to_bits()
        );
    }

    #[test]
    fn image_matches_a_direct_apply_at_every_exit() {
        let check = |what: &str, a: &Mat, x: &[f64], res: &GmresResult| {
            let mut direct = vec![0.0; x.len()];
            a.apply(x, &mut direct);
            let diff: Vec<f64> = direct.iter().zip(&res.image).map(|(d, i)| d - i).collect();
            let rel = norm2(&diff) / norm2(&direct);
            assert!(rel <= 1e-13, "{what}: image off by {rel:e} ({res:?})");
        };
        // tolerance exit, warm start with its image
        let (a, b, x0, ax0) = warm_system(2, 50, 0.1);
        let mut x = x0.clone();
        let res = gmres(&a, &b, &mut x, Some(&ax0), &GmresOptions::default());
        assert!(res.converged && res.iterations > 0, "{res:?}");
        check("tolerance", &a, &x, &res);
        // ≥ 2 restarts, warm start with its image
        let (a, b, x0, ax0) = warm_system(8, 40, 0.3);
        let mut x = x0.clone();
        let opts = GmresOptions {
            restart: 5,
            max_iters: 500,
            ..Default::default()
        };
        let res = gmres(&a, &b, &mut x, Some(&ax0), &opts);
        assert!(
            res.converged && res.iterations > 2 * opts.restart,
            "{res:?}"
        );
        check("restarts", &a, &x, &res);
        // cap exit inside the first cycle, zero guess
        let (a, b, _, _) = warm_system(3, 30, 1.0);
        let mut x = vec![0.0; 30];
        let opts = GmresOptions {
            tol: 1e-16,
            atol: 0.0,
            max_iters: 7,
            ..Default::default()
        };
        let res = gmres(&a, &b, &mut x, None, &opts);
        assert!(
            !res.converged && !res.stalled && res.iterations == 7,
            "{res:?}"
        );
        check("cap", &a, &x, &res);
        // stagnation exit on a spread spectrum; the reported residual is
        // the image's
        let n = 60;
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                1e-3_f64.powf(1.0 - i as f64 / (n - 1) as f64)
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
            stall_ratio: 0.95,
        };
        let res = gmres(&a, &b, &mut x, None, &opts);
        assert!(res.stalled, "{res:?}");
        check("stall", &a, &x, &res);
        let r: Vec<f64> = b.iter().zip(&res.image).map(|(b, i)| b - i).collect();
        assert_eq!(res.rel_residual, norm2(&r) / norm2(&b));
    }

    #[test]
    fn applies_are_iterations_plus_restarts() {
        let (a, b, x0, ax0) = warm_system(5, 40, 0.35);
        let opts = GmresOptions {
            restart: 4,
            max_iters: 500,
            ..Default::default()
        };
        let count = |x0: &[f64], ax: Option<&[f64]>| {
            let applies = Cell::new(0usize);
            let op = FnOperator::new(a.rows(), |v: &[f64], y: &mut [f64]| {
                applies.set(applies.get() + 1);
                a.apply(v, y);
            });
            let mut x = x0.to_vec();
            let res = gmres(&op, &b, &mut x, ax, &opts);
            assert!(res.converged, "{res:?}");
            // the last cycle is partial, so it ends on the Arnoldi
            // estimate: every full cycle before it is one restart
            assert_ne!(res.iterations % opts.restart, 0, "{res:?}");
            (
                applies.get(),
                res.iterations + res.iterations / opts.restart,
            )
        };
        let (with_image, expected) = count(&x0, Some(&ax0));
        assert_eq!(with_image, expected);
        let (zero_guess, expected) = count(&vec![0.0; 40], None);
        assert_eq!(zero_guess, expected);
        // without its image a warm start costs the one apply it always did
        let (applied, expected) = count(&x0, None);
        assert_eq!(applied, expected + 1);
    }
}
