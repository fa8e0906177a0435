//! Direct dense solver: LU with partial pivoting.
//!
//! This replaces the LAPACK routine (via MKL) used by the reference
//! implementation for small dense blocks: Newton systems in the closest-point
//! search and polynomial fitting of boundary patches.

use crate::mat::Mat;

/// LU factorization with partial pivoting, `P A = L U`.
#[derive(Clone, Debug)]
pub struct Lu {
    lu: Mat,
    piv: Vec<usize>,
}

impl Lu {
    /// Factors a square matrix. Returns `None` when a pivot underflows
    /// (numerically singular matrix).
    pub fn new(a: &Mat) -> Option<Lu> {
        assert_eq!(a.rows(), a.cols(), "Lu::new: matrix must be square");
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // pivot search
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < f64::MIN_POSITIVE * 4.0 {
                return None;
            }
            if p != k {
                piv.swap(p, k);
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in k + 1..n {
                        let v = lu[(k, j)];
                        lu[(i, j)] -= m * v;
                    }
                }
            }
        }
        Some(Lu { lu, piv })
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // apply permutation
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // forward substitution with unit lower triangle
        for i in 1..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc;
        }
        // back substitution
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        x
    }

    /// Matrix inverse: one solve per column of the identity.
    pub fn inverse(&self) -> Mat {
        let n = self.lu.rows();
        let mut inv = Mat::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            for (i, v) in self.solve(&e).into_iter().enumerate() {
                inv[(i, j)] = v;
            }
            e[j] = 0.0;
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_mat(rng: &mut StdRng, m: usize, n: usize) -> Mat {
        Mat::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0))
    }

    #[test]
    fn lu_solves_random_systems() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 20, 60] {
            // diagonally boosted to stay well conditioned
            let mut a = random_mat(&mut rng, n, n);
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let xtrue: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
            let b = a.matvec(&xtrue);
            let lu = Lu::new(&a).expect("nonsingular");
            let x = lu.solve(&b);
            let err: f64 = x
                .iter()
                .zip(&xtrue)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n} err={err}");
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(Lu::new(&a).is_none());
        // a pivoted but nonsingular matrix factors and solves
        let b = Mat::from_vec(2, 2, vec![0.0, 1.0, -1.0, 0.0]);
        assert_eq!(Lu::new(&b).unwrap().solve(&[2.0, 3.0]), vec![-3.0, 2.0]);
    }

    #[test]
    fn lu_inverse_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 12;
        let mut a = random_mat(&mut rng, n, n);
        for i in 0..n {
            a[(i, i)] += 4.0;
        }
        let inv = Lu::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        let err = prod.add_scaled(&Mat::identity(n), -1.0).frobenius_norm();
        assert!(err < 1e-10, "err={err}");
    }
}
