//! Polynomial interpolation and extrapolation utilities.
//!
//! Two uses in the paper's pipeline:
//! 1. upsampling patch densities from the coarse to the fine discretization
//!    (Lagrange interpolation at Clenshaw–Curtis nodes, §3.1 step 1);
//! 2. 1-D polynomial extrapolation of velocities from check points back to
//!    the on/near-surface target (§3.1 step 5, weights `e_q` in Eq. 3.3).
//!
//! Everything is built on barycentric Lagrange interpolation, which is
//! numerically stable for the node families used here.

/// Barycentric weights for an arbitrary set of distinct 1-D nodes.
///
/// For Chebyshev-type nodes the classical closed forms exist, but the O(n²)
/// direct computation is exact enough for n ≤ ~50 and keeps the code general.
pub fn barycentric_weights(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    let mut w = vec![1.0; n];
    // scale to avoid overflow for larger n: use the node spread
    let spread = nodes.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - nodes.iter().cloned().fold(f64::INFINITY, f64::min);
    let c = if spread > 0.0 { 4.0 / spread } else { 1.0 };
    for j in 0..n {
        for k in 0..n {
            if k != j {
                w[j] *= (nodes[j] - nodes[k]) * c;
            }
        }
        w[j] = 1.0 / w[j];
    }
    w
}

/// Evaluates the Lagrange basis at `x`: returns `l_j(x)` for all nodes.
///
/// If `x` coincides (to machine precision) with a node, returns the
/// corresponding unit vector.
pub fn lagrange_basis_at(nodes: &[f64], bary: &[f64], x: f64) -> Vec<f64> {
    let n = nodes.len();
    debug_assert_eq!(bary.len(), n);
    // check for node coincidence
    for (j, &xj) in nodes.iter().enumerate() {
        if x == xj {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            return e;
        }
    }
    let mut terms = Vec::with_capacity(n);
    let mut denom = 0.0;
    for j in 0..n {
        let t = bary[j] / (x - nodes[j]);
        terms.push(t);
        denom += t;
    }
    terms.iter().map(|t| t / denom).collect()
}

/// A reusable 1-D interpolation/extrapolation operator on fixed nodes.
#[derive(Clone, Debug)]
pub struct Interp1d {
    nodes: Vec<f64>,
    bary: Vec<f64>,
}

impl Interp1d {
    /// Builds the operator from distinct nodes.
    pub fn new(nodes: Vec<f64>) -> Interp1d {
        let bary = barycentric_weights(&nodes);
        Interp1d { nodes, bary }
    }

    /// The interpolation nodes.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Weights `e_j` such that `p(x) = Σ_j e_j f(x_j)` for the unique
    /// interpolating polynomial; valid for extrapolation as well (Eq. 3.3).
    pub fn weights_at(&self, x: f64) -> Vec<f64> {
        lagrange_basis_at(&self.nodes, &self.bary, x)
    }

    /// Evaluates the interpolant of the samples `f` at `x`.
    pub fn eval(&self, f: &[f64], x: f64) -> f64 {
        debug_assert_eq!(f.len(), self.nodes.len());
        self.weights_at(x).iter().zip(f).map(|(w, v)| w * v).sum()
    }
}

/// Builds the extrapolation weights of Eq. (3.3): the check points lie at
/// parameters `t_i = R + i·r`, `i = 0..=p`, along the normal, and we
/// extrapolate to distance `t_x` (0 for on-surface targets).
pub fn checkpoint_extrapolation_weights(big_r: f64, r: f64, p: usize, t_x: f64) -> Vec<f64> {
    let nodes: Vec<f64> = (0..=p).map(|i| big_r + i as f64 * r).collect();
    let interp = Interp1d::new(nodes);
    interp.weights_at(t_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::clenshaw_curtis;

    #[test]
    fn interpolation_reproduces_polynomials_exactly() {
        let nodes = clenshaw_curtis(9).nodes;
        let interp = Interp1d::new(nodes.clone());
        // degree-8 polynomial
        let f: Vec<f64> = nodes
            .iter()
            .map(|&x| 1.0 - 2.0 * x + 3.0 * x.powi(4) - 0.5 * x.powi(8))
            .collect();
        for &x in &[-0.95_f64, -0.3, 0.0, 0.123, 0.77, 1.0] {
            let exact = 1.0 - 2.0 * x + 3.0 * x.powi(4) - 0.5 * x.powi(8);
            assert!((interp.eval(&f, x) - exact).abs() < 1e-11, "x={x}");
        }
    }

    #[test]
    fn interpolation_at_node_is_identity() {
        let interp = Interp1d::new(vec![-1.0, -0.5, 0.0, 0.5, 1.0]);
        let f = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        for (j, &x) in interp.nodes().to_vec().iter().enumerate() {
            assert_eq!(interp.eval(&f, x), f[j]);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        // partition of unity: interpolating the constant 1 gives 1 anywhere
        let interp = Interp1d::new(clenshaw_curtis(7).nodes);
        for &x in &[-2.0, -1.0, 0.3, 1.5, 4.0] {
            let s: f64 = interp.weights_at(x).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "x={x} s={s}");
        }
    }

    #[test]
    fn extrapolation_weights_recover_smooth_decay() {
        // f(t) = 1/(1+t); sample at check-point distances and extrapolate to 0
        let (big_r, r, p) = (0.1, 0.0125, 8usize);
        let w = checkpoint_extrapolation_weights(big_r, r, p, 0.0);
        assert_eq!(w.len(), p + 1);
        let mut val = 0.0;
        for (i, wi) in w.iter().enumerate() {
            let t = big_r + i as f64 * r;
            val += wi / (1.0 + t);
        }
        assert!((val - 1.0).abs() < 1e-6, "extrapolated {val}");
    }
}
