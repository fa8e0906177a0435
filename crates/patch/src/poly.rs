//! Tensor-product polynomial patches `P : [-1,1]² → R³`.
//!
//! The blood-vessel boundary Γ is "a collection of non-overlapping patches
//! Γ = ⋃ P_i(Q)" with each `P_i` an 8th-order tensor-product polynomial
//! sampled at Clenshaw–Curtis quadrature points (§3.1, §5.1). A patch here
//! stores its coefficients in the tensor Chebyshev basis, which makes
//! evaluation, differentiation and Bezier-style subdivision exact
//! polynomial operations.

use linalg::{clenshaw_curtis, Aabb, Interp1d, Mat, Vec3};

/// Largest supported patch order `q`: the Chebyshev tables of the
/// evaluators live on the stack.
const MAX_ORDER: usize = 16;

/// `T_k(t)` and its first `D − 1 ≤ 2` derivatives for `k < q`, by one pass
/// of the three-term recurrences (trigonometric-free, stable on [-1,1]).
#[inline]
fn chebyshev_table<const D: usize>(q: usize, t: f64) -> [[f64; D]; MAX_ORDER] {
    let mut tab = [[0.0; D]; MAX_ORDER];
    tab[0][0] = 1.0;
    if q > 1 {
        tab[1][0] = t;
        if D > 1 {
            tab[1][1] = 1.0;
        }
    }
    for k in 2..q {
        tab[k][0] = 2.0 * t * tab[k - 1][0] - tab[k - 2][0];
        if D > 1 {
            tab[k][1] = 2.0 * tab[k - 1][0] + 2.0 * t * tab[k - 1][1] - tab[k - 2][1];
        }
        if D > 2 {
            tab[k][2] = 4.0 * tab[k - 1][1] + 2.0 * t * tab[k - 1][2] - tab[k - 2][2];
        }
    }
    tab
}

/// A polynomial patch of order `q` (degree `q−1` per direction), embedded in
/// R³, in the tensor Chebyshev basis `T_a(u) T_b(v)`, `a, b = 0..q`.
#[derive(Clone, Debug)]
pub struct PolyPatch {
    /// Nodes per direction (order); degree is `q − 1`.
    pub q: usize,
    /// Chebyshev coefficients `[x, y, z, 0]` at `a * q + b`: the three
    /// components side by side, so the evaluators advance them as the
    /// lanes of one vector accumulator.
    coef: Vec<[f64; 4]>,
}

impl PolyPatch {
    /// Fits a patch of order `q ≤ 16` through samples at the `q × q` tensor
    /// Clenshaw–Curtis grid (u fastest), interpolating exactly.
    pub fn fit(q: usize, samples: &[Vec3]) -> PolyPatch {
        assert_eq!(samples.len(), q * q, "PolyPatch::fit: need q² samples");
        assert!(
            q <= MAX_ORDER,
            "PolyPatch::fit: order {q} above {MAX_ORDER}"
        );
        // Build the 1-D Chebyshev Vandermonde at CC nodes and invert once.
        let nodes = clenshaw_curtis(q).nodes;
        let tabs: Vec<_> = nodes.iter().map(|&t| chebyshev_table::<1>(q, t)).collect();
        let vand = Mat::from_fn(q, q, |i, a| tabs[i][a][0]);
        let inv = linalg::Lu::new(&vand)
            .expect("Chebyshev Vandermonde is nonsingular")
            .inverse();
        // coefficients: C = inv * F * invᵀ per component (tensor structure)
        let mut coef = vec![[0.0; 4]; q * q];
        for c in 0..3 {
            // F[i][j] = samples[j * q + i][c]  (i: u index, j: v index)
            let f = Mat::from_fn(q, q, |i, j| samples[j * q + i][c]);
            // a-index from u: A = inv * F  (q×q), then coef = A * invᵀ
            let a = inv.matmul(&f);
            let full = a.matmul(&inv.transpose());
            for ai in 0..q {
                for bi in 0..q {
                    coef[ai * q + bi][c] = full[(ai, bi)];
                }
            }
        }
        PolyPatch { q, coef }
    }

    /// The Chebyshev coefficients of component `c`, row-major in `(a, b)`.
    pub fn component_coefs(&self, c: usize) -> Vec<f64> {
        self.coef.iter().map(|k| k[c]).collect()
    }

    /// Evaluates the patch position at `(u, v) ∈ [-1,1]²` (bit-equal to
    /// the position of [`Self::eval_jet`], without the derivative sums).
    pub fn eval(&self, u: f64, v: f64) -> Vec3 {
        let [x] = self.jet::<1, 1>(u, v, [(0, 0)]);
        x
    }

    /// Evaluates position and first derivatives `(X, X_u, X_v)`.
    pub fn eval_jet(&self, u: f64, v: f64) -> (Vec3, Vec3, Vec3) {
        let [x, xu, xv] = self.jet::<2, 3>(u, v, [(0, 0), (1, 0), (0, 1)]);
        (x, xu, xv)
    }

    /// Evaluates position, first, and second derivatives
    /// `(X, X_u, X_v, X_uu, X_uv, X_vv)`.
    #[allow(clippy::type_complexity)]
    pub fn eval_jet2(&self, u: f64, v: f64) -> (Vec3, Vec3, Vec3, Vec3, Vec3, Vec3) {
        let [x, xu, xv, xuu, xuv, xvv] =
            self.jet::<3, 6>(u, v, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]);
        (x, xu, xv, xuu, xuv, xvv)
    }

    /// The mixed derivatives `∂_u^i ∂_v^j X` for the listed `(i, j)`, all
    /// below `D`: `Σ_a T_a^(i)(u) · (Σ_b c_ab T_b^(j)(v))`, every sum in
    /// ascending index order with the three components as lanes of one
    /// accumulator.
    #[inline]
    fn jet<const D: usize, const N: usize>(
        &self,
        u: f64,
        v: f64,
        orders: [(usize, usize); N],
    ) -> [Vec3; N] {
        let tu = chebyshev_table::<D>(self.q, u);
        let tv = chebyshev_table::<D>(self.q, v);
        let mut out = [[0.0; 4]; N];
        for (ta, row) in tu.iter().zip(self.coef.chunks_exact(self.q)) {
            let mut inner = [[0.0; 4]; D];
            for (coef, tb) in row.iter().zip(&tv) {
                for d in 0..D {
                    for c in 0..4 {
                        inner[d][c] += coef[c] * tb[d];
                    }
                }
            }
            for (o, &(i, j)) in out.iter_mut().zip(&orders) {
                for c in 0..4 {
                    o[c] += ta[i] * inner[j][c];
                }
            }
        }
        out.map(|o| Vec3::new(o[0], o[1], o[2]))
    }

    /// Outward-oriented normal direction `X_u × X_v` (not normalized).
    pub fn normal_raw(&self, u: f64, v: f64) -> Vec3 {
        let (_, xu, xv) = self.eval_jet(u, v);
        xu.cross(xv)
    }

    /// Restricts the patch to the sub-rectangle `[u0,u1] × [v0,v1]` of the
    /// parameter domain, returning a new patch over `[-1,1]²` (the exact
    /// polynomial subdivision used to refine vessel geometry, the analogue
    /// of Bezier subdivision rules mentioned in §5.2).
    pub fn subpatch(&self, u0: f64, u1: f64, v0: f64, v1: f64) -> PolyPatch {
        let q = self.q;
        let nodes = clenshaw_curtis(q).nodes;
        let mut samples = Vec::with_capacity(q * q);
        for &tv in &nodes {
            let v = 0.5 * (v0 + v1) + 0.5 * (v1 - v0) * tv;
            for &tu in &nodes {
                let u = 0.5 * (u0 + u1) + 0.5 * (u1 - u0) * tu;
                samples.push(self.eval(u, v));
            }
        }
        PolyPatch::fit(q, samples.as_slice())
    }

    /// Splits into `2 × 2` children covering the four parameter quadrants.
    pub fn split4(&self) -> [PolyPatch; 4] {
        [
            self.subpatch(-1.0, 0.0, -1.0, 0.0),
            self.subpatch(0.0, 1.0, -1.0, 0.0),
            self.subpatch(-1.0, 0.0, 0.0, 1.0),
            self.subpatch(0.0, 1.0, 0.0, 1.0),
        ]
    }

    /// Axis-aligned box of an `n × n` equispaced sample (`n ≥ 2`). Sampled,
    /// not enclosing: the surface may bulge out of it between samples — the
    /// box that provably contains the patch is [`Self::hull`].
    pub fn bounding_box(&self, n: usize) -> Aabb {
        assert!(n >= 2, "PolyPatch::bounding_box: need n >= 2 samples");
        let mut b = Aabb::EMPTY;
        for j in 0..n {
            let v = -1.0 + 2.0 * j as f64 / (n - 1) as f64;
            for i in 0..n {
                let u = -1.0 + 2.0 * i as f64 / (n - 1) as f64;
                b = b.expanded_to(self.eval(u, v));
            }
        }
        b
    }

    /// Enclosing box read off the Chebyshev coefficients: `|T_a T_b| ≤ 1` on
    /// the parameter square, so component `c` stays within
    /// `c₀₀ ± Σ_{(a,b)≠(0,0)} |c_ab|`. Padded by `1e-9 Σ|c_ab|`, six orders
    /// above the rounding of the evaluators, so every point [`Self::eval`]
    /// can *return* lies inside as well.
    pub fn hull(&self) -> Aabb {
        let mut lo = Vec3::ZERO;
        let mut hi = Vec3::ZERO;
        for c in 0..3 {
            let c0 = self.coef[0][c];
            let rest: f64 = self.coef[1..].iter().map(|k| k[c].abs()).sum();
            let pad = 1e-9 * (c0.abs() + rest);
            lo[c] = c0 - rest - pad;
            hi[c] = c0 + rest + pad;
        }
        Aabb::new(lo, hi)
    }

    /// Hulls of the `k × k` exact [`Self::subpatch`]es (`v`-major): their
    /// union encloses the patch far more tightly than the single
    /// [`Self::hull`], whose slack is the patch's own sagitta.
    pub fn hull_boxes(&self, k: usize) -> Vec<Aabb> {
        let edge = |i: usize| -1.0 + 2.0 * i as f64 / k as f64;
        let mut boxes = Vec::with_capacity(k * k);
        for j in 0..k {
            for i in 0..k {
                boxes.push(
                    self.subpatch(edge(i), edge(i + 1), edge(j), edge(j + 1))
                        .hull(),
                );
            }
        }
        boxes
    }

    /// Finds the parameter of the closest point on the patch to `x` via
    /// projected Newton with backtracking line search (§3.3 step d),
    /// starting from `(u0, v0)`. Returns `(u, v, distance)`.
    pub fn closest_point_from(&self, x: Vec3, u0: f64, v0: f64, iters: usize) -> (f64, f64, f64) {
        let clamp = |t: f64| t.clamp(-1.0, 1.0);
        let mut u = clamp(u0);
        let mut v = clamp(v0);
        let obj = |u: f64, v: f64| (self.eval(u, v) - x).norm_sq();
        let mut fcur = obj(u, v);
        for _ in 0..iters {
            let (p, pu, pv, puu, puv, pvv) = self.eval_jet2(u, v);
            let d = p - x;
            // gradient and Hessian of ‖P(u,v) − x‖²/2
            let gu = d.dot(pu);
            let gv = d.dot(pv);
            let huu = pu.dot(pu) + d.dot(puu);
            let huv = pu.dot(pv) + d.dot(puv);
            let hvv = pv.dot(pv) + d.dot(pvv);
            let gnorm = (gu * gu + gv * gv).sqrt();
            if gnorm < 1e-14 {
                break;
            }
            // solve 2×2 Newton system with fallback to gradient descent
            let det = huu * hvv - huv * huv;
            let (mut du, mut dv) = if det.abs() > 1e-14 && huu + hvv > 0.0 {
                ((-gu * hvv + gv * huv) / det, (gu * huv - gv * huu) / det)
            } else {
                (-gu, -gv)
            };
            // ensure descent direction
            if du * gu + dv * gv > 0.0 {
                du = -gu;
                dv = -gv;
            }
            // backtracking line search with box clamping
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..30 {
                let un = clamp(u + step * du);
                let vn = clamp(v + step * dv);
                let fn_ = obj(un, vn);
                if fn_ < fcur - 1e-18 {
                    u = un;
                    v = vn;
                    fcur = fn_;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                break;
            }
        }
        (u, v, fcur.sqrt())
    }

    /// Multi-start closest point search over a coarse seed grid (robust for
    /// targets near patch edges).
    pub fn closest_point(&self, x: Vec3) -> (f64, f64, f64) {
        let seeds = [-0.75, 0.0, 0.75];
        let mut best = (0.0, 0.0, f64::INFINITY);
        for &su in &seeds {
            for &sv in &seeds {
                let (u, v, d) = self.closest_point_from(x, su, sv, 30);
                if d < best.2 {
                    best = (u, v, d);
                }
            }
        }
        best
    }
}

/// Interpolation matrix from a patch's `q × q` Clenshaw–Curtis grid to an
/// arbitrary list of parameter points (used for upsampling densities from
/// the coarse to the fine discretization, §3.1 step 1).
pub fn patch_interp_matrix(q: usize, targets: &[(f64, f64)]) -> Mat {
    let nodes = clenshaw_curtis(q).nodes;
    let iu = Interp1d::new(nodes);
    let mut m = Mat::zeros(targets.len(), q * q);
    for (r, &(u, v)) in targets.iter().enumerate() {
        let wu = iu.weights_at(u);
        let wv = iu.weights_at(v);
        for b in 0..q {
            for a in 0..q {
                m[(r, b * q + a)] = wu[a] * wv[b];
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::clenshaw_curtis;

    fn sample_fn(q: usize, f: impl Fn(f64, f64) -> Vec3) -> Vec<Vec3> {
        let nodes = clenshaw_curtis(q).nodes;
        let mut out = Vec::with_capacity(q * q);
        for &v in &nodes {
            for &u in &nodes {
                out.push(f(u, v));
            }
        }
        out
    }

    fn curved(u: f64, v: f64) -> Vec3 {
        Vec3::new(
            u + 0.1 * v * v,
            v - 0.2 * u * u * v,
            0.3 * u * u + 0.25 * v + 0.05 * u * v * v,
        )
    }

    #[test]
    fn fit_interpolates_samples() {
        let q = 8;
        let samples = sample_fn(q, curved);
        let patch = PolyPatch::fit(q, &samples);
        let nodes = clenshaw_curtis(q).nodes;
        for (j, &v) in nodes.iter().enumerate() {
            for (i, &u) in nodes.iter().enumerate() {
                let p = patch.eval(u, v);
                let s = samples[j * q + i];
                assert!((p - s).norm() < 1e-12, "node ({i},{j})");
            }
        }
        // off-node evaluation agrees with the analytic polynomial
        let p = patch.eval(0.3, -0.77);
        assert!((p - curved(0.3, -0.77)).norm() < 1e-12);
    }

    #[test]
    fn jets_match_finite_differences() {
        let q = 8;
        let patch = PolyPatch::fit(q, &sample_fn(q, curved));
        let (u, v) = (0.21, -0.4);
        let h = 1e-6;
        let (_, xu, xv) = patch.eval_jet(u, v);
        let fdu = (patch.eval(u + h, v) - patch.eval(u - h, v)) / (2.0 * h);
        let fdv = (patch.eval(u, v + h) - patch.eval(u, v - h)) / (2.0 * h);
        assert!((xu - fdu).norm() < 1e-7);
        assert!((xv - fdv).norm() < 1e-7);
        let (_, _, _, xuu, xuv, xvv) = patch.eval_jet2(u, v);
        let fduu = (patch.eval(u + h, v) - 2.0 * patch.eval(u, v) + patch.eval(u - h, v)) / (h * h);
        let fdvv = (patch.eval(u, v + h) - 2.0 * patch.eval(u, v) + patch.eval(u, v - h)) / (h * h);
        let fduv = (patch.eval(u + h, v + h) - patch.eval(u + h, v - h) - patch.eval(u - h, v + h)
            + patch.eval(u - h, v - h))
            / (4.0 * h * h);
        assert!((xuu - fduu).norm() < 1e-3);
        assert!((xuv - fduv).norm() < 1e-3);
        assert!((xvv - fdvv).norm() < 1e-3);
    }

    #[test]
    fn subdivision_is_exact() {
        let q = 7;
        let patch = PolyPatch::fit(q, &sample_fn(q, curved));
        let children = patch.split4();
        // child 0 covers [-1,0]×[-1,0]: its (s,t) maps to parent (u,v)
        for &(s, t) in &[(-0.5, -0.5), (0.9, -0.1), (0.0, 0.0)] {
            let u = -0.5 + 0.5 * s;
            let v = -0.5 + 0.5 * t;
            let pc = children[0].eval(s, t);
            let pp = patch.eval(u, v);
            assert!((pc - pp).norm() < 1e-11, "({s},{t})");
        }
        // child 3 covers [0,1]×[0,1]
        let pc = children[3].eval(0.2, -0.6);
        let pp = patch.eval(0.5 + 0.5 * 0.2, 0.5 + 0.5 * -0.6);
        assert!((pc - pp).norm() < 1e-11);
    }

    #[test]
    fn closest_point_interior_and_edge() {
        let q = 8;
        let patch = PolyPatch::fit(q, &sample_fn(q, curved));
        // point slightly off the surface along the normal at a known param
        let (u0, v0) = (0.3, -0.2);
        let n = patch.normal_raw(u0, v0).normalized();
        let x = patch.eval(u0, v0) + n * 0.05;
        let (u, v, d) = patch.closest_point(x);
        assert!((d - 0.05).abs() < 1e-6, "distance {d}");
        assert!((patch.eval(u, v) - patch.eval(u0, v0)).norm() < 1e-4);
        // a far point clamps to the boundary of the parameter square
        let far = Vec3::new(10.0, 10.0, 0.0);
        let (ue, ve, _) = patch.closest_point(far);
        assert!(
            ue.abs() > 0.999 || ve.abs() > 0.999,
            "expected edge params ({ue},{ve})"
        );
    }

    #[test]
    fn interp_matrix_reproduces_polynomials() {
        let q = 6;
        let targets = vec![(0.3, 0.4), (-0.9, 0.1), (0.0, -1.0)];
        let m = patch_interp_matrix(q, &targets);
        let nodes = clenshaw_curtis(q).nodes;
        // degree-(q-1) scalar field sampled on the grid
        let f = |u: f64, v: f64| (1.0 + u).powi(3) * (1.0 - 0.5 * v).powi(2);
        let mut samples = vec![0.0; q * q];
        for (j, &v) in nodes.iter().enumerate() {
            for (i, &u) in nodes.iter().enumerate() {
                samples[j * q + i] = f(u, v);
            }
        }
        let vals = m.matvec(&samples);
        for (k, &(u, v)) in targets.iter().enumerate() {
            assert!((vals[k] - f(u, v)).abs() < 1e-11, "target {k}");
        }
    }

    #[test]
    fn bounding_box_contains_surface() {
        let q = 8;
        let patch = PolyPatch::fit(q, &sample_fn(q, curved));
        let bb = patch.bounding_box(12).inflated(1e-3);
        for &(u, v) in &[(0.1, 0.9), (-0.7, -0.7), (0.99, -0.99)] {
            assert!(bb.contains(patch.eval(u, v)));
        }
        // the coefficient hull encloses without inflation, and so do the
        // subpatch hulls, which are tighter
        let hull = patch.hull();
        let boxes = patch.hull_boxes(4);
        assert_eq!(boxes.len(), 16);
        for j in 0..=40 {
            for i in 0..=40 {
                let p = patch.eval(-1.0 + 0.05 * i as f64, -1.0 + 0.05 * j as f64);
                assert!(hull.contains(p));
                assert!(boxes.iter().any(|b| b.contains(p)), "({i},{j})");
            }
        }
        let volume = |b: &Aabb| b.extent().x * b.extent().y * b.extent().z;
        assert!(boxes.iter().map(volume).sum::<f64>() < 0.5 * volume(&hull));
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn bounding_box_rejects_a_single_sample() {
        PolyPatch::fit(4, &sample_fn(4, curved)).bounding_box(1);
    }

    /// `T_k`, `T'_k`, `T''_k` at `t`, each from a recurrence of its own
    /// started at `k = 0`.
    fn chebyshev_from_scratch(k: usize, t: f64) -> [f64; 3] {
        let (mut t0, mut t1) = (1.0, t);
        let (mut d0, mut d1) = (0.0, 1.0);
        let (mut s0, mut s1) = (0.0, 0.0);
        if k == 0 {
            return [t0, d0, s0];
        }
        for _ in 1..k {
            let t2 = 2.0 * t * t1 - t0;
            let d2 = 2.0 * t1 + 2.0 * t * d1 - d0;
            let s2 = 4.0 * d1 + 2.0 * t * s1 - s0;
            (t0, t1, d0, d1, s0, s1) = (t1, t2, d1, d2, s1, s2);
        }
        [t1, d1, s1]
    }

    /// The evaluators keep the arithmetic of the plain nested loops they
    /// replaced (one component, one row, one dependent sum at a time), bit
    /// for bit — trajectories and their digests rest on it.
    #[test]
    fn jets_are_the_bits_of_the_nested_loops() {
        for q in [2, 6, 8, 11] {
            let patch = PolyPatch::fit(q, &sample_fn(q, curved));
            for &(u, v) in &[(0.3, -0.77), (-1.0, 1.0), (0.0, 0.123456789), (0.999, -0.5)] {
                let mut want = [Vec3::ZERO; 6]; // x, xu, xv, xuu, xuv, xvv
                for a in 0..q {
                    let [ta, da, dda] = chebyshev_from_scratch(a, u);
                    let (mut i0, mut i1, mut i2) = (Vec3::ZERO, Vec3::ZERO, Vec3::ZERO);
                    for b in 0..q {
                        let [tb, db, ddb] = chebyshev_from_scratch(b, v);
                        let [cx, cy, cz, _] = patch.coef[a * q + b];
                        let coef = Vec3::new(cx, cy, cz);
                        i0 += coef * tb;
                        i1 += coef * db;
                        i2 += coef * ddb;
                    }
                    want[0] += ta * i0;
                    want[1] += da * i0;
                    want[2] += ta * i1;
                    want[3] += dda * i0;
                    want[4] += da * i1;
                    want[5] += ta * i2;
                }
                let (x, xu, xv, xuu, xuv, xvv) = patch.eval_jet2(u, v);
                assert_eq!([x, xu, xv, xuu, xuv, xvv], want, "q {q} at ({u},{v})");
                assert_eq!(patch.eval_jet(u, v), (want[0], want[1], want[2]));
                assert_eq!(patch.eval(u, v), want[0]);
            }
        }
    }
}
