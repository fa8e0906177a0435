//! One-dimensional quadrature rules: Clenshaw–Curtis and Gauss–Legendre.
//!
//! The vessel boundary patches are sampled at tensor-product Clenshaw–Curtis
//! nodes (§3.1 of the paper) while the spherical-harmonic grids on RBC
//! surfaces use Gauss–Legendre nodes in latitude. Both rules are generated
//! from scratch here.

use std::f64::consts::PI;

/// A 1-D quadrature rule on `[-1, 1]`.
#[derive(Clone, Debug)]
pub struct Rule1d {
    /// Quadrature nodes in increasing order.
    pub nodes: Vec<f64>,
    /// Quadrature weights (positive for both supported families).
    pub weights: Vec<f64>,
}

impl Rule1d {
    /// Number of points in the rule.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the rule is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Integrates samples `f(nodes[i])` against the rule.
    pub fn integrate(&self, f: &[f64]) -> f64 {
        debug_assert_eq!(f.len(), self.weights.len());
        self.weights.iter().zip(f).map(|(w, v)| w * v).sum()
    }
}

/// Clenshaw–Curtis rule with `n ≥ 2` points (Chebyshev extreme points).
///
/// Nodes are `x_j = -cos(π j / (n-1))`, j = 0..n−1, in increasing order. The
/// weights are computed from the standard cosine-sum formula, which is exact
/// for polynomials of degree `n−1` (and in practice converges like Gauss for
/// smooth integrands).
pub fn clenshaw_curtis(n: usize) -> Rule1d {
    assert!(n >= 2, "clenshaw_curtis requires n >= 2");
    let m = n - 1;
    let mut nodes = Vec::with_capacity(n);
    let mut weights = vec![0.0; n];
    for j in 0..n {
        nodes.push(-(PI * j as f64 / m as f64).cos());
    }
    // w_j = (c_j / m) * (1 - sum_{k=1}^{m/2} b_k cos(2 k θ_j) / (4k² − 1) * 2)
    for (j, w) in weights.iter_mut().enumerate() {
        let theta = PI * j as f64 / m as f64;
        let mut s = 0.0;
        let kmax = m / 2;
        for k in 1..=kmax {
            let bk = if 2 * k == m { 1.0 } else { 2.0 };
            s += bk * (2.0 * k as f64 * theta).cos() / ((4 * k * k - 1) as f64);
        }
        let cj = if j == 0 || j == m { 1.0 } else { 2.0 };
        *w = cj / m as f64 * (1.0 - s);
    }
    Rule1d { nodes, weights }
}

/// Gauss–Legendre rule with `n ≥ 1` points, computed by Newton iteration on
/// the Legendre polynomial with the Chebyshev initial guess. Accurate to
/// machine precision for the orders used here (n ≤ ~200).
pub fn gauss_legendre(n: usize) -> Rule1d {
    assert!(n >= 1, "gauss_legendre requires n >= 1");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for i in 0..n {
        // initial guess (Chebyshev-like)
        let mut x = (PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            let (p, d) = legendre_and_derivative(n, x);
            dp = d;
            let dx = p / d;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        nodes[n - 1 - i] = x; // descending guess -> ascending storage
        weights[n - 1 - i] = 2.0 / ((1.0 - x * x) * dp * dp);
    }
    Rule1d { nodes, weights }
}

/// Evaluates the Legendre polynomial `P_n(x)` and its derivative via the
/// three-term recurrence.
pub fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p0 = 1.0;
    let mut p1 = x;
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    let d = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly_exactness(rule: &Rule1d, max_deg: usize, tol: f64) {
        for d in 0..=max_deg {
            let f: Vec<f64> = rule.nodes.iter().map(|x| x.powi(d as i32)).collect();
            let num = rule.integrate(&f);
            let exact = if d % 2 == 0 {
                2.0 / (d as f64 + 1.0)
            } else {
                0.0
            };
            assert!(
                (num - exact).abs() < tol,
                "degree {d}: got {num}, want {exact}"
            );
        }
    }

    #[test]
    fn clenshaw_curtis_polynomial_exactness() {
        // n-point CC is exact for degree n-1
        for n in [2usize, 3, 5, 8, 11, 16] {
            let rule = clenshaw_curtis(n);
            assert!((rule.weights.iter().sum::<f64>() - 2.0).abs() < 1e-13);
            poly_exactness(&rule, n - 1, 1e-12);
        }
    }

    #[test]
    fn gauss_legendre_polynomial_exactness() {
        // n-point GL is exact for degree 2n-1
        for n in [1usize, 2, 3, 5, 10, 17, 33] {
            let rule = gauss_legendre(n);
            assert!((rule.weights.iter().sum::<f64>() - 2.0).abs() < 1e-12);
            poly_exactness(&rule, 2 * n - 1, 1e-11);
        }
    }

    #[test]
    fn gauss_legendre_nodes_sorted_symmetric() {
        let rule = gauss_legendre(12);
        for w in rule.nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
        for i in 0..12 {
            assert!((rule.nodes[i] + rule.nodes[11 - i]).abs() < 1e-13);
            assert!((rule.weights[i] - rule.weights[11 - i]).abs() < 1e-13);
        }
    }

    #[test]
    fn smooth_integrand_converges_spectrally() {
        // ∫_{-1}^{1} e^x dx = e - 1/e
        let exact = std::f64::consts::E - 1.0 / std::f64::consts::E;
        let coarse = {
            let r = clenshaw_curtis(6);
            let f: Vec<f64> = r.nodes.iter().map(|x| x.exp()).collect();
            (r.integrate(&f) - exact).abs()
        };
        let fine = {
            let r = clenshaw_curtis(12);
            let f: Vec<f64> = r.nodes.iter().map(|x| x.exp()).collect();
            (r.integrate(&f) - exact).abs()
        };
        assert!(fine < 1e-12);
        assert!(coarse < 1e-4);
    }
}
