//! One-sided Jacobi SVD and regularized pseudo-inverse.
//!
//! The kernel-independent FMM builds its equivalent-density maps by inverting
//! ill-conditioned check-surface → equivalent-surface kernel matrices; PVFMM
//! does this with a truncated/regularized SVD, which we reproduce here.
//! One-sided Jacobi is simple, numerically robust, and accurate for the
//! small-to-medium matrices involved (a few hundred on a side).

use crate::mat::Mat;

/// Result of a singular value decomposition `A = U Σ Vᵀ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × r` with `r = min(m, n)` columns.
    pub u: Mat,
    /// Singular values in non-increasing order, length `r`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × r` (columns are the right vectors).
    pub v: Mat,
}

impl Svd {
    /// Computes the thin SVD of `a` using one-sided Jacobi rotations.
    ///
    /// For `m < n` the decomposition is computed on the transpose and the
    /// factors are swapped, so any shape is accepted.
    pub fn new(a: &Mat) -> Svd {
        if a.rows() >= a.cols() {
            Self::tall(a)
        } else {
            let s = Self::tall(&a.transpose());
            Svd {
                u: s.v,
                sigma: s.sigma,
                v: s.u,
            }
        }
    }

    /// One-sided Jacobi on a tall (m ≥ n) matrix: orthogonalize columns of a
    /// working copy `W = A V` by plane rotations; on convergence the column
    /// norms are the singular values.
    fn tall(a: &Mat) -> Svd {
        let (m, n) = (a.rows(), a.cols());
        debug_assert!(m >= n);
        // work on the transpose so that "columns" of A are contiguous rows
        let mut wt = a.transpose(); // n × m, row i is column i of A
        let mut vt = Mat::identity(n); // accumulates Vᵀ rows

        let eps = 1e-15_f64;
        let max_sweeps = 60;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0_f64;
            let mut denom = 0.0_f64;
            for p in 0..n {
                for q in p + 1..n {
                    // gram entries over the two rows of wt
                    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                    {
                        let rp = wt.row(p);
                        let rq = wt.row(q);
                        for k in 0..m {
                            app += rp[k] * rp[k];
                            aqq += rq[k] * rq[k];
                            apq += rp[k] * rq[k];
                        }
                    }
                    off += apq * apq;
                    denom += app * aqq;
                    if apq.abs() <= eps * (app * aqq).sqrt() {
                        continue;
                    }
                    // Jacobi rotation annihilating the (p,q) Gram entry
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    // rotate rows p and q of wt and vt
                    rotate_rows(&mut wt, p, q, c, s);
                    rotate_rows(&mut vt, p, q, c, s);
                }
            }
            if off <= eps * eps * denom.max(f64::MIN_POSITIVE) {
                break;
            }
        }

        // singular values = row norms of wt; sort descending
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<f64> = (0..n)
            .map(|i| wt.row(i).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

        let mut sigma = Vec::with_capacity(n);
        let mut u = Mat::zeros(m, n);
        let mut v = Mat::zeros(n, n);
        for (col, &i) in order.iter().enumerate() {
            let s = norms[i];
            sigma.push(s);
            if s > 0.0 {
                for k in 0..m {
                    u[(k, col)] = wt[(i, k)] / s;
                }
            }
            for k in 0..n {
                v[(k, col)] = vt[(i, k)];
            }
        }
        Svd { u, sigma, v }
    }

    /// Largest singular value.
    pub fn sigma_max(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }

    /// Builds the truncated pseudo-inverse `A⁺ = V Σ⁺ Uᵀ`, zeroing singular
    /// values below `rel_tol * σ_max` (PVFMM-style regularization for the
    /// equivalent-density solve).
    pub fn pseudo_inverse(&self, rel_tol: f64) -> Mat {
        let r = self.sigma.len();
        let cutoff = self.sigma_max() * rel_tol;
        // pinv = V * diag(1/sigma) * Uᵀ computed as (n × r)(r × m)
        let n = self.v.rows();
        let m = self.u.rows();
        let mut vs = Mat::zeros(n, r);
        for j in 0..r {
            let inv = if self.sigma[j] > cutoff && self.sigma[j] > 0.0 {
                1.0 / self.sigma[j]
            } else {
                0.0
            };
            for i in 0..n {
                vs[(i, j)] = self.v[(i, j)] * inv;
            }
        }
        let mut ut = Mat::zeros(r, m);
        for i in 0..m {
            for j in 0..r {
                ut[(j, i)] = self.u[(i, j)];
            }
        }
        vs.matmul(&ut)
    }
}

#[inline]
fn rotate_rows(m: &mut Mat, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    let (pr, qr) = if p < q { (p, q) } else { (q, p) };
    debug_assert!(pr == p);
    // split_at_mut to borrow both rows
    let data = m.data_mut();
    let (first, second) = data.split_at_mut(qr * cols);
    let rowp = &mut first[pr * cols..pr * cols + cols];
    let rowq = &mut second[..cols];
    for k in 0..cols {
        let a = rowp[k];
        let b = rowq[k];
        rowp[k] = c * a - s * b;
        rowq[k] = s * a + c * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn reconstruct(svd: &Svd) -> Mat {
        let r = svd.sigma.len();
        let mut us = svd.u.clone();
        for i in 0..us.rows() {
            for j in 0..r {
                us[(i, j)] *= svd.sigma[j];
            }
        }
        us.matmul(&svd.v.transpose())
    }

    #[test]
    fn svd_reconstructs_random_matrices() {
        let mut rng = StdRng::seed_from_u64(42);
        for (m, n) in [(5usize, 5usize), (12, 7), (7, 12), (30, 30), (64, 20)] {
            let a = Mat::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0));
            let svd = Svd::new(&a);
            let rec = reconstruct(&svd);
            let err = rec.add_scaled(&a, -1.0).frobenius_norm() / a.frobenius_norm();
            assert!(err < 1e-11, "({m},{n}) err={err}");
            // singular values sorted descending
            for w in svd.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn singular_vectors_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mat::from_fn(20, 9, |_, _| rng.random_range(-1.0..1.0));
        let svd = Svd::new(&a);
        let utu = svd.u.transpose().matmul(&svd.u);
        let vtv = svd.v.transpose().matmul(&svd.v);
        let r = svd.sigma.len();
        let err_u = utu.add_scaled(&Mat::identity(r), -1.0).frobenius_norm();
        let err_v = vtv.add_scaled(&Mat::identity(r), -1.0).frobenius_norm();
        assert!(err_u < 1e-11, "UᵀU err {err_u}");
        assert!(err_v < 1e-11, "VᵀV err {err_v}");
    }

    #[test]
    fn pseudo_inverse_of_well_conditioned_is_inverse() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10;
        let mut a = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        for i in 0..n {
            a[(i, i)] += 5.0;
        }
        let pinv = Svd::new(&a).pseudo_inverse(1e-13);
        let prod = a.matmul(&pinv);
        let err = prod.add_scaled(&Mat::identity(n), -1.0).frobenius_norm();
        assert!(err < 1e-10, "err={err}");
    }

    #[test]
    fn truncation_regularizes_rank_deficient() {
        // rank-1 matrix: pinv solve must not blow up
        let a = Mat::from_fn(6, 4, |i, j| ((i + 1) as f64) * ((j + 1) as f64));
        let svd = Svd::new(&a);
        assert!(svd.sigma[1] < 1e-10 * svd.sigma[0]);
        let b = vec![1.0; 6];
        let x = svd.pseudo_inverse(1e-8).matvec(&b);
        for v in &x {
            assert!(v.is_finite() && v.abs() < 10.0);
        }
        // the residual should be the projection error only
        let r = {
            let mut r = a.matvec(&x);
            for (ri, bi) in r.iter_mut().zip(&b) {
                *ri -= bi;
            }
            r
        };
        // Ax is the best rank-1 approximation of b in range(A)
        let g = a.matvec_t(&r);
        let gn = g.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(gn < 1e-9, "normal-equation residual {gn}");
    }
}
