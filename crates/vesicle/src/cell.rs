//! The RBC (vesicle) model: membrane forces and the locally-implicit time
//! step of §2.2.
//!
//! Membranes are inextensible with no in-plane shear rigidity; bending
//! follows the Canham–Helfrich model (§2.1). Two substitutions for the
//! paper's scheme: the exact Lagrange-multiplier tension solve of \[48\] is
//! replaced by a stiff area-dilation penalty `σ = k_a (J − 1)` against the
//! reference metric (conserves area to `O(1/k_a)`), and the self-interaction
//! quadrature uses the check-point scheme of `selfop`.

use crate::geometry::{surface_geometry, SurfaceGeometry};
use crate::selfop::SelfInteraction;
use linalg::{gmres, CodecError, FnOperator, GmresOptions, GmresResult, Vec3};
use sphharm::{Deriv, SphBasis, SphCoeffs};

/// Physical and numerical parameters of a cell.
#[derive(Clone, Copy, Debug)]
pub struct CellParams {
    /// Bending modulus κ_b.
    pub kappa_b: f64,
    /// Area-dilation penalty stiffness k_a (inextensibility).
    pub k_area: f64,
    /// Ambient viscosity μ (no viscosity contrast, as in the paper's runs).
    pub mu: f64,
}

impl Default for CellParams {
    fn default() -> Self {
        CellParams {
            kappa_b: 0.01,
            k_area: 1.0,
            mu: 1.0,
        }
    }
}

impl CellParams {
    /// Checks that `kappa_b` and `k_area` are finite and ≥ 0 and `mu` is
    /// finite and > 0. The error names the field.
    pub fn validate(&self) -> Result<(), CodecError> {
        for (name, v) in [("kappa_b", self.kappa_b), ("k_area", self.k_area)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(CodecError(format!("{name} {v}: must be finite and ≥ 0")));
            }
        }
        if !(self.mu.is_finite() && self.mu > 0.0) {
            return Err(CodecError(format!(
                "mu {}: must be finite and > 0",
                self.mu
            )));
        }
        Ok(())
    }
}

/// A deformable cell: spherical-harmonic position coefficients plus the
/// reference area element for the inextensibility penalty.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Position coefficients (x, y, z).
    pub coeffs: [SphCoeffs; 3],
    /// Reference area element `W_ref` per grid node.
    pub ref_w: Vec<f64>,
    /// Parameters.
    pub params: CellParams,
}

impl Cell {
    /// Creates a cell, capturing the current geometry as the reference
    /// (unstretched) state.
    pub fn new(basis: &SphBasis, coeffs: [SphCoeffs; 3], params: CellParams) -> Cell {
        let geo = surface_geometry(basis, &coeffs);
        Cell {
            coeffs,
            ref_w: geo.w.clone(),
            params,
        }
    }

    /// Current surface geometry.
    pub fn geometry(&self, basis: &SphBasis) -> SurfaceGeometry {
        surface_geometry(basis, &self.coeffs)
    }

    /// Grid positions (latitude-major).
    pub fn positions(&self, basis: &SphBasis) -> Vec<Vec3> {
        let gx = basis.synthesize(&self.coeffs[0], Deriv::None);
        let gy = basis.synthesize(&self.coeffs[1], Deriv::None);
        let gz = basis.synthesize(&self.coeffs[2], Deriv::None);
        (0..basis.grid_size())
            .map(|i| Vec3::new(gx[i], gy[i], gz[i]))
            .collect()
    }

    /// Replaces positions from grid values.
    pub fn set_positions(&mut self, basis: &SphBasis, pos: &[Vec3]) {
        let n = basis.grid_size();
        assert_eq!(pos.len(), n);
        let gx: Vec<f64> = pos.iter().map(|p| p.x).collect();
        let gy: Vec<f64> = pos.iter().map(|p| p.y).collect();
        let gz: Vec<f64> = pos.iter().map(|p| p.z).collect();
        self.coeffs = [basis.analyze(&gx), basis.analyze(&gy), basis.analyze(&gz)];
    }

    /// Rigid translation.
    pub fn translate(&mut self, basis: &SphBasis, d: Vec3) {
        // shifting only affects the (0,0) coefficient of each component
        let c00 = (4.0 * std::f64::consts::PI).sqrt();
        let _ = basis;
        let a = self.coeffs[0].a(0, 0);
        self.coeffs[0].set_a(0, 0, a + d.x * c00);
        let a = self.coeffs[1].a(0, 0);
        self.coeffs[1].set_a(0, 0, a + d.y * c00);
        let a = self.coeffs[2].a(0, 0);
        self.coeffs[2].set_a(0, 0, a + d.z * c00);
    }

    /// Upsampled collision grid points (order `p_up = upsample · p`) plus
    /// pole points: the lat–long grid the triangle proxy mesh is built on
    /// (2,112 points at the paper's p = 16, 2× upsampling).
    pub fn collision_points(
        &self,
        basis: &SphBasis,
        upsample: usize,
    ) -> (Vec<Vec3>, usize, usize, Vec3, Vec3) {
        let pu = basis.p * upsample;
        let bu = SphBasis::new(pu);
        let cu: [SphCoeffs; 3] = [
            self.coeffs[0].resampled(pu),
            self.coeffs[1].resampled(pu),
            self.coeffs[2].resampled(pu),
        ];
        let gx = bu.synthesize(&cu[0], Deriv::None);
        let gy = bu.synthesize(&cu[1], Deriv::None);
        let gz = bu.synthesize(&cu[2], Deriv::None);
        let pts: Vec<Vec3> = (0..bu.grid_size())
            .map(|i| Vec3::new(gx[i], gy[i], gz[i]))
            .collect();
        let north = Vec3::new(
            bu.synthesize_at(&cu[0], 1e-9, 0.0),
            bu.synthesize_at(&cu[1], 1e-9, 0.0),
            bu.synthesize_at(&cu[2], 1e-9, 0.0),
        );
        let south = Vec3::new(
            bu.synthesize_at(&cu[0], std::f64::consts::PI - 1e-9, 0.0),
            bu.synthesize_at(&cu[1], std::f64::consts::PI - 1e-9, 0.0),
            bu.synthesize_at(&cu[2], std::f64::consts::PI - 1e-9, 0.0),
        );
        (pts, bu.nlat, bu.nlon, north, south)
    }

    /// Builds the self-interaction operator for the current geometry.
    pub fn self_interaction(&self, basis: &SphBasis) -> SelfInteraction {
        SelfInteraction::build(basis, &self.coeffs, self.params.mu)
    }

    /// Re-assembles `op` for the current geometry in place (see
    /// [`SelfInteraction::rebuild`]); bitwise [`Cell::self_interaction`].
    pub fn rebuild_self_interaction(&self, basis: &SphBasis, op: &mut SelfInteraction) {
        op.rebuild(basis, &self.coeffs, self.params.mu);
    }

    /// Membrane force density `f = f_b + f_σ` on the grid.
    ///
    /// Bending (Canham–Helfrich): `f_b = −κ_b [Δ_γ H + 2H(H² − K)] n` in
    /// our curvature convention (H < 0 for spheres with outward normals);
    /// the sign is fixed by the dissipation requirement (perturbed spheres
    /// must relax under Willmore flow — see the relaxation test).
    /// Tension penalty: `f_σ = ∇_γ·(σ ∇_γ X)` with `σ = k_a (W/W_ref − 1)`.
    pub fn membrane_force(&self, basis: &SphBasis, geo: &SurfaceGeometry) -> Vec<Vec3> {
        let n = basis.grid_size();
        let lap_h = geo.laplace_beltrami(basis, &geo.h);
        let sigma: Vec<f64> = (0..n)
            .map(|i| self.params.k_area * (geo.w[i] / self.ref_w[i] - 1.0))
            .collect();
        let fx: Vec<f64> = geo.x.iter().map(|v| v.x).collect();
        let fy: Vec<f64> = geo.x.iter().map(|v| v.y).collect();
        let fz: Vec<f64> = geo.x.iter().map(|v| v.z).collect();
        let tx = weighted_div_grad(basis, geo, &sigma, &fx);
        let ty = weighted_div_grad(basis, geo, &sigma, &fy);
        let tz = weighted_div_grad(basis, geo, &sigma, &fz);
        (0..n)
            .map(|i| {
                let bend = -self.params.kappa_b
                    * (lap_h[i] + 2.0 * geo.h[i] * (geo.h[i] * geo.h[i] - geo.kg[i]));
                geo.normal[i] * bend + Vec3::new(tx[i], ty[i], tz[i])
            })
            .collect()
    }
}

/// `∇_γ·(σ ∇_γ f) = σ Δ_γ f + ∇_γ σ · ∇_γ f` on the grid. Both factors are
/// smooth scalar fields, so the product-rule form avoids spectrally
/// differentiating non-smooth flux intermediates.
pub fn weighted_div_grad(
    basis: &SphBasis,
    geo: &SurfaceGeometry,
    sigma: &[f64],
    f: &[f64],
) -> Vec<f64> {
    let n = basis.grid_size();
    let lap = geo.laplace_beltrami(basis, f);
    let gd = geo.grad_dot(basis, sigma, f);
    (0..n).map(|i| sigma[i] * lap[i] + gd[i]).collect()
}

/// Time-stepping controls for the per-cell implicit update.
#[derive(Clone, Copy, Debug)]
pub struct StepOptions {
    /// Time-step size Δt.
    pub dt: f64,
    /// GMRES controls for the implicit solve.
    pub gmres: GmresOptions,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions {
            dt: 1e-3,
            gmres: GmresOptions {
                tol: 1e-8,
                atol: 1e-14,
                max_iters: 60,
                restart: 60,
                stall_ratio: 0.0,
            },
        }
    }
}

/// One locally-implicit backward-Euler update for a single cell (Eq. 2.12):
/// `X⁺ = X + Δt (b + S_i f_i(X⁺))`, with the membrane force linearized
/// about the current geometry (metric, normals and curvature factors
/// frozen; the stiff 4th-order bending term and the 2nd-order tension act
/// on `X⁺`). `b_grid` is the explicit inter-cell + boundary velocity.
/// Returns the new positions (grid) and the GMRES stats.
pub fn implicit_step(
    basis: &SphBasis,
    cell: &Cell,
    selfop: &SelfInteraction,
    b_grid: &[Vec3],
    opts: &StepOptions,
) -> (Vec<Vec3>, GmresResult) {
    let n = basis.grid_size();
    assert_eq!(b_grid.len(), n);
    let geo = cell.geometry(basis);
    let dt = opts.dt;
    let kb = cell.params.kappa_b;
    let ka = cell.params.k_area;

    // frozen geometric factors
    let sigma0: Vec<f64> = (0..n)
        .map(|i| ka * (geo.w[i] / cell.ref_w[i] - 1.0))
        .collect();

    // linearized force: f_lin(X⁺) = κ_b Δ0(H_lin(X⁺)) n0 + ∇·(σ0 ∇ X⁺)
    // where H_lin uses frozen first-form and normals.
    let force_lin = |pos: &[f64]| -> Vec<Vec3> {
        // transforms of the candidate positions
        let px: Vec<f64> = (0..n).map(|i| pos[3 * i]).collect();
        let py: Vec<f64> = (0..n).map(|i| pos[3 * i + 1]).collect();
        let pz: Vec<f64> = (0..n).map(|i| pos[3 * i + 2]).collect();
        let cx = basis.analyze(&px);
        let cy = basis.analyze(&py);
        let cz = basis.analyze(&pz);
        let d = |c: &SphCoeffs, d: Deriv| basis.synthesize(c, d);
        let xtt: Vec<Vec3> = {
            let a = d(&cx, Deriv::Dtheta2);
            let b = d(&cy, Deriv::Dtheta2);
            let c2 = d(&cz, Deriv::Dtheta2);
            (0..n).map(|i| Vec3::new(a[i], b[i], c2[i])).collect()
        };
        let xtp: Vec<Vec3> = {
            let a = d(&cx, Deriv::DthetaDphi);
            let b = d(&cy, Deriv::DthetaDphi);
            let c2 = d(&cz, Deriv::DthetaDphi);
            (0..n).map(|i| Vec3::new(a[i], b[i], c2[i])).collect()
        };
        let xpp: Vec<Vec3> = {
            let a = d(&cx, Deriv::Dphi2);
            let b = d(&cy, Deriv::Dphi2);
            let c2 = d(&cz, Deriv::Dphi2);
            (0..n).map(|i| Vec3::new(a[i], b[i], c2[i])).collect()
        };
        let hl: Vec<f64> = (0..n)
            .map(|i| {
                let l = xtt[i].dot(geo.normal[i]);
                let m = xtp[i].dot(geo.normal[i]);
                let nn = xpp[i].dot(geo.normal[i]);
                (geo.e[i] * nn - 2.0 * geo.f[i] * m + geo.g[i] * l) / (2.0 * geo.w[i] * geo.w[i])
            })
            .collect();
        let lap_hl = geo.laplace_beltrami(basis, &hl);
        let tx = weighted_div_grad(basis, &geo, &sigma0, &px);
        let ty = weighted_div_grad(basis, &geo, &sigma0, &py);
        let tz = weighted_div_grad(basis, &geo, &sigma0, &pz);
        (0..n)
            .map(|i| geo.normal[i] * (-kb * lap_hl[i]) + Vec3::new(tx[i], ty[i], tz[i]))
            .collect()
    };

    // explicit remainder of the bending force (lower-order terms)
    let f_expl: Vec<Vec3> = (0..n)
        .map(|i| geo.normal[i] * (-kb * 2.0 * geo.h[i] * (geo.h[i] * geo.h[i] - geo.kg[i])))
        .collect();

    // right-hand side: X + Δt (b + S f_expl)
    let fe_flat: Vec<f64> = f_expl.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
    let se = selfop.apply(&fe_flat);
    let mut rhs = vec![0.0; 3 * n];
    for i in 0..n {
        for c in 0..3 {
            rhs[3 * i + c] = geo.x[i][c] + dt * (b_grid[i][c] + se[3 * i + c]);
        }
    }

    // operator: X⁺ − Δt S f_lin(X⁺)
    let op = FnOperator::new(3 * n, |x: &[f64], y: &mut [f64]| {
        let fl = force_lin(x);
        let fl_flat: Vec<f64> = fl.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
        let sf = selfop.apply(&fl_flat);
        for i in 0..3 * n {
            y[i] = x[i] - dt * sf[i];
        }
    });
    let mut xplus: Vec<f64> = geo.x.iter().flat_map(|v| [v.x, v.y, v.z]).collect();
    let res = gmres(&op, &rhs, &mut xplus, None, &opts.gmres);
    let pos: Vec<Vec3> = (0..n)
        .map(|i| Vec3::new(xplus[3 * i], xplus[3 * i + 1], xplus[3 * i + 2]))
        .collect();
    (pos, res)
}

/// Per-cell step-health metrics: what the adaptive time-step controller in
/// `sim` inspects after the implicit stage to decide whether a candidate
/// update is acceptable or must be rolled back and retried at a smaller Δt.
///
/// All three metrics are pure functions of (cell, candidate positions), so
/// the controller built on them is deterministic: two instances evaluating
/// the same state reach bit-identical accept/retry decisions.
#[derive(Clone, Copy, Debug)]
pub struct CellHealth {
    /// Maximum local stretch ratio vs the rest configuration,
    /// `max_i √(W_i / W_ref,i)` — the linear stretch of the surface element
    /// against the reference metric captured at [`Cell::new`]. Edge lengths
    /// of any surface-sampled mesh (including the upsampled collision
    /// proxy) scale with this factor, so it is the spectral-grid stand-in
    /// for the "edges stretching ~10⁴×" blow-up signature of a diverging
    /// implicit update. ∞ when the candidate positions are non-finite.
    pub max_stretch: f64,
    /// Relative enclosed-volume change over the candidate step,
    /// `|V⁺ − V| / |V|`. A locally-implicit update that is merely stiff
    /// wobbles the surface; one that is diverging inflates or collapses the
    /// cell, which this catches even before the stretch bound trips.
    pub volume_drift: f64,
    /// Whether every candidate position is finite. `false` means the solve
    /// itself produced NaN/∞ and nothing downstream of it can be trusted.
    pub finite: bool,
}

impl CellHealth {
    /// Whether this candidate update passes the controller's bounds.
    pub fn ok(&self, max_stretch: f64, max_volume_drift: f64) -> bool {
        self.finite && self.max_stretch <= max_stretch && self.volume_drift <= max_volume_drift
    }
}

/// Evaluates the step-health of candidate grid positions `pos_new` for
/// `cell`, against the pre-step enclosed volume `vol_before` (computed from
/// the geometry the step started from, so callers that already have it
/// don't pay for it twice).
pub fn step_health(basis: &SphBasis, cell: &Cell, pos_new: &[Vec3], vol_before: f64) -> CellHealth {
    if !pos_new.iter().all(|p| p.is_finite()) {
        return CellHealth {
            max_stretch: f64::INFINITY,
            volume_drift: f64::INFINITY,
            finite: false,
        };
    }
    let n = basis.grid_size();
    let gx: Vec<f64> = pos_new.iter().map(|p| p.x).collect();
    let gy: Vec<f64> = pos_new.iter().map(|p| p.y).collect();
    let gz: Vec<f64> = pos_new.iter().map(|p| p.z).collect();
    let coeffs = [basis.analyze(&gx), basis.analyze(&gy), basis.analyze(&gz)];
    let geo = surface_geometry(basis, &coeffs);
    let mut max_stretch = 0.0f64;
    for i in 0..n {
        let ratio = (geo.w[i] / cell.ref_w[i]).abs().sqrt();
        max_stretch = max_stretch.max(ratio);
    }
    let vol_new = geo.volume();
    let volume_drift = if vol_before.abs() > 0.0 {
        (vol_new - vol_before).abs() / vol_before.abs()
    } else {
        vol_new.abs()
    };
    if !max_stretch.is_finite() || !volume_drift.is_finite() {
        // non-finite metrics from finite positions (degenerate geometry)
        return CellHealth {
            max_stretch: f64::INFINITY,
            volume_drift: f64::INFINITY,
            finite: false,
        };
    }
    CellHealth {
        max_stretch,
        volume_drift,
        finite: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{bumpy_sphere_coeffs, sphere_coeffs};

    fn perturbation_energy(basis: &SphBasis, geo: &SurfaceGeometry) -> f64 {
        // variance of H is zero on a sphere; grows with shape perturbation
        let n = basis.grid_size();
        let mean: f64 = geo.h.iter().sum::<f64>() / n as f64;
        geo.h.iter().map(|h| (h - mean) * (h - mean)).sum::<f64>() / n as f64
    }

    #[test]
    fn sphere_is_equilibrium() {
        let p = 8;
        let basis = SphBasis::new(p);
        let params = CellParams::default();
        let cell = Cell::new(&basis, sphere_coeffs(&basis, 1.0, Vec3::ZERO), params);
        let geo = cell.geometry(&basis);
        let f = cell.membrane_force(&basis, &geo);
        let fmax = f.iter().map(|v| v.norm()).fold(0.0, f64::max);
        assert!(fmax < 1e-6, "force on equilibrium sphere: {fmax}");
    }

    #[test]
    fn bending_relaxes_perturbed_sphere() {
        let p = 10;
        let basis = SphBasis::new(p);
        let params = CellParams {
            kappa_b: 0.05,
            k_area: 0.0,
            ..Default::default()
        };
        let mut cell = Cell::new(
            &basis,
            bumpy_sphere_coeffs(&basis, 1.0, Vec3::ZERO, 0.04),
            params,
        );
        let e0 = perturbation_energy(&basis, &cell.geometry(&basis));
        let opts = StepOptions {
            dt: 2e-2,
            ..Default::default()
        };
        let zero = vec![Vec3::ZERO; basis.grid_size()];
        for _ in 0..8 {
            let selfop = cell.self_interaction(&basis);
            let (pos, res) = implicit_step(&basis, &cell, &selfop, &zero, &opts);
            assert!(
                res.rel_residual < 1e-6,
                "implicit solve residual {}",
                res.rel_residual
            );
            cell.set_positions(&basis, &pos);
        }
        let e1 = perturbation_energy(&basis, &cell.geometry(&basis));
        assert!(e1 < 0.8 * e0, "perturbation should decay: {e0} -> {e1}");
    }

    #[test]
    fn tension_penalty_conserves_area() {
        let p = 10;
        let basis = SphBasis::new(p);
        let params = CellParams {
            kappa_b: 0.02,
            k_area: 5.0,
            ..Default::default()
        };
        let mut cell = Cell::new(
            &basis,
            bumpy_sphere_coeffs(&basis, 1.0, Vec3::ZERO, 0.03),
            params,
        );
        let a0 = cell.geometry(&basis).area();
        let opts = StepOptions {
            dt: 1e-2,
            ..Default::default()
        };
        let zero = vec![Vec3::ZERO; basis.grid_size()];
        for _ in 0..5 {
            let selfop = cell.self_interaction(&basis);
            let (pos, _) = implicit_step(&basis, &cell, &selfop, &zero, &opts);
            cell.set_positions(&basis, &pos);
        }
        let a1 = cell.geometry(&basis).area();
        assert!((a1 - a0).abs() / a0 < 2e-2, "area drift {} -> {}", a0, a1);
    }

    #[test]
    fn translation_moves_centroid_exactly() {
        let p = 8;
        let basis = SphBasis::new(p);
        let mut cell = Cell::new(
            &basis,
            sphere_coeffs(&basis, 1.0, Vec3::ZERO),
            CellParams::default(),
        );
        let c0 = cell.geometry(&basis).centroid();
        cell.translate(&basis, Vec3::new(0.5, -1.0, 2.0));
        let c1 = cell.geometry(&basis).centroid();
        assert!((c1 - c0 - Vec3::new(0.5, -1.0, 2.0)).norm() < 1e-10);
    }

    #[test]
    fn collision_points_match_paper_counts() {
        // p = 16, 2× upsampling: 33 × 64 = 2,112 grid points
        let basis = SphBasis::new(16);
        let cell = Cell::new(
            &basis,
            sphere_coeffs(&basis, 1.0, Vec3::ZERO),
            CellParams::default(),
        );
        let (pts, nlat, nlon, north, south) = cell.collision_points(&basis, 2);
        assert_eq!(pts.len(), 2112);
        assert_eq!(nlat, 33);
        assert_eq!(nlon, 64);
        assert!((north.norm() - 1.0).abs() < 1e-6);
        assert!((south.norm() - 1.0).abs() < 1e-6);
        // quadrature count on the coarse grid matches the paper's 544
        assert_eq!(basis.grid_size(), 544);
    }

    #[test]
    fn step_health_reports_stretch_drift_and_nonfinite() {
        let p = 8;
        let basis = SphBasis::new(p);
        let cell = Cell::new(
            &basis,
            sphere_coeffs(&basis, 1.0, Vec3::ZERO),
            CellParams::default(),
        );
        let geo = cell.geometry(&basis);
        let vol0 = geo.volume();

        // unchanged positions: stretch ≈ 1, no drift
        let h = step_health(&basis, &cell, &geo.x, vol0);
        assert!(h.finite);
        assert!((h.max_stretch - 1.0).abs() < 1e-8, "{}", h.max_stretch);
        assert!(h.volume_drift < 1e-10);
        assert!(h.ok(10.0, 0.25));

        // uniformly scaled ×3: stretch ≈ 3, volume drift ≈ 26×
        let scaled: Vec<Vec3> = geo.x.iter().map(|p| *p * 3.0).collect();
        let h = step_health(&basis, &cell, &scaled, vol0);
        assert!(h.finite);
        assert!((h.max_stretch - 3.0).abs() < 1e-6, "{}", h.max_stretch);
        assert!((h.volume_drift - 26.0).abs() < 1e-6, "{}", h.volume_drift);
        assert!(!h.ok(2.0, 0.25) && h.ok(4.0, 30.0));

        // one NaN vertex: non-finite, never ok
        let mut bad = geo.x.clone();
        bad[7] = Vec3::new(f64::NAN, 0.0, 0.0);
        let h = step_health(&basis, &cell, &bad, vol0);
        assert!(!h.finite);
        assert!(!h.ok(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn drag_translation_under_uniform_background() {
        // b = const velocity with no forces: X⁺ = X + Δt·b exactly
        let p = 8;
        let basis = SphBasis::new(p);
        let params = CellParams {
            kappa_b: 0.0,
            k_area: 0.0,
            ..Default::default()
        };
        let cell = Cell::new(&basis, sphere_coeffs(&basis, 1.0, Vec3::ZERO), params);
        let selfop = cell.self_interaction(&basis);
        let b = vec![Vec3::new(1.0, 2.0, 3.0); basis.grid_size()];
        let opts = StepOptions {
            dt: 0.1,
            ..Default::default()
        };
        let (pos, _) = implicit_step(&basis, &cell, &selfop, &b, &opts);
        let geo = cell.geometry(&basis);
        for (p1, p0) in pos.iter().zip(&geo.x) {
            assert!((*p1 - *p0 - Vec3::new(0.1, 0.2, 0.3)).norm() < 1e-9);
        }
    }
}
