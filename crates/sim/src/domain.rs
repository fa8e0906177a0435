//! The confined-flow domain: vessel boundary state, boundary conditions,
//! and inlet/outlet bookkeeping (§5.1).

use bie::{BieOptions, DoubleLayerSolver};
use collision::{triangulate_grid, TriMesh};
use kernels::{StokesDL, StokesEquiv};
use linalg::Vec3;
use patch::{BoundarySurface, PatchKind};

/// A flow port (inlet or outlet cap of the vessel).
#[derive(Clone, Copy, Debug)]
pub struct Port {
    /// Port id (matches [`PatchKind::Inlet`]/[`PatchKind::Outlet`]).
    pub id: u32,
    /// Whether fluid enters here.
    pub is_inlet: bool,
    /// Cap center.
    pub center: Vec3,
    /// Unit direction of flow *into* the domain at this port.
    pub inward: Vec3,
    /// Rim (axis) radius of the cap: the largest distance of any cap
    /// quadrature node from the port axis. The port profile vanishes
    /// (with zero slope) at this radius, so the boundary data meets the
    /// no-slip wall smoothly at the cap seam.
    pub radius: f64,
    /// Prescribed discrete flux through the port, positive *into* the
    /// domain (so inlets carry positive flux, outlets negative, and the
    /// sum over all ports is zero by construction).
    pub flux: f64,
}

/// The rigid vessel: boundary solver plus collision meshes and ports.
pub struct Vessel {
    /// The Stokes boundary solver on Γ.
    pub solver: DoubleLayerSolver<StokesDL, StokesEquiv>,
    /// Boundary condition `g` at the coarse nodes (3 per node).
    pub bc: Vec<f64>,
    /// Collision triangle meshes, one per patch (the paper's 22² grids).
    pub meshes: Vec<TriMesh>,
    /// Ports (inlets and outlets).
    pub ports: Vec<Port>,
    /// Interior volume of the vessel (from the divergence theorem).
    pub volume: f64,
    /// Fluid viscosity μ the boundary solver was built with (recorded so
    /// the checkpoint digest covers it).
    pub mu: f64,
}

impl Vessel {
    /// Builds the vessel state: boundary solver, mollified quartic port
    /// boundary conditions scaled so the net flux is zero (§5.1), and
    /// collision meshes with `col_m × col_m` samples per patch (paper: 22).
    ///
    /// The port profile is `(3/2)·peak_speed·((1 − ρ²)⁺)²` with `ρ` the
    /// distance from the *port axis* normalized by the cap's rim radius,
    /// rather than the old parabolic `peak_speed·(1 − ρ²)⁺` over the
    /// distance from the cap's area centroid. That old coordinate never
    /// reached 1 on the (hemispherical) caps — the area-based radius
    /// estimate overshoots the rim — so the boundary data held an O(1)
    /// *value jump* at the cap/wall seam, content at the patch scale that
    /// no `wall_refine` could resolve: refined vessel solves floored at
    /// O(0.1) relative residual. The axis coordinate puts the rim exactly
    /// at the cap/wall seam, and the quartic has zero value *and* zero
    /// slope there, so the data is C¹ into the no-slip wall. Measured
    /// effect: the refined cell-free floor drops ~4×, 0.4 → ~0.11 (a
    /// slowly converging spectral tail of the through-flow system keeps
    /// an O(0.1) residual at practical iteration budgets — see
    /// `refined_serpentine_port_floor_improved` for the probe record;
    /// full unrestarted GMRES does reach tolerance, at ~0.7·N
    /// iterations). The 3/2 factor preserves
    /// the parabola's flux: over a flat disk (disk means: 1/2 for 1 − ρ²,
    /// 1/3 for its square) and *exactly* as well over a hemispherical cap
    /// with ρ = sin θ (∫cos⁵θ sinθ = 1/6 vs ∫cos³θ sinθ = 1/4).
    pub fn new(
        surface: BoundarySurface,
        mu: f64,
        opts: BieOptions,
        peak_speed: f64,
        col_m: usize,
    ) -> Vessel {
        let solver = DoubleLayerSolver::new(surface, StokesDL, StokesEquiv { mu }, opts);
        let quad = &solver.quad;
        let surface = &solver.surface;

        // identify ports from cap patches: `port_of[l]` is the index into
        // `ports` of node `l`'s port (ports in ascending id order), `None`
        // on the wall
        let ids = port_ids(surface);
        let port_of: Vec<Option<usize>> = quad
            .patch_of
            .iter()
            .map(|&pi| match surface.kinds[pi as usize] {
                PatchKind::Inlet(p) | PatchKind::Outlet(p) => ids.binary_search(&p).ok(),
                PatchKind::Wall => None,
            })
            .collect();
        let on_ports = || {
            port_of
                .iter()
                .enumerate()
                .filter_map(|(l, i)| i.map(|i| (l, i)))
        };

        // area-weighted center and mean normal over each cap
        let mut center = vec![Vec3::ZERO; ids.len()];
        let mut normal = vec![Vec3::ZERO; ids.len()];
        let mut area = vec![0.0; ids.len()];
        for (l, i) in on_ports() {
            let w = quad.weights[l];
            center[i] += quad.points[l] * w;
            normal[i] += quad.normals[l] * w;
            area[i] += w;
        }
        let mut ports: Vec<Port> = ids
            .iter()
            .enumerate()
            .map(|(i, &pid)| Port {
                id: pid,
                is_inlet: surface.kinds.contains(&PatchKind::Inlet(pid)),
                center: center[i] / area[i],
                // outward cap normal points out of the fluid; inward = −n
                inward: -normal[i].normalized(),
                radius: 0.0,
                flux: 0.0,
            })
            .collect();

        // the rim (axis) radius: the largest node distance from the port
        // axis, so the profile below vanishes exactly at the outermost cap
        // node, at the seam with the no-slip wall (see the constructor docs)
        for (l, i) in on_ports() {
            let port = &mut ports[i];
            let d = quad.points[l] - port.center;
            let ax = d - port.inward * d.dot(port.inward);
            port.radius = port.radius.max(ax.norm());
        }

        // mollified quartic boundary condition on ports (equal flux to the
        // parabolic profile, but rim-smooth — see the constructor docs),
        // zero on walls; outlet speeds scaled for zero total flux
        let mut bc = vec![0.0; quad.len() * 3];
        let mut influx = 0.0;
        let mut outflux = 0.0;
        for (l, i) in on_ports() {
            let port = &ports[i];
            let d = quad.points[l] - port.center;
            let ax = d - port.inward * d.dot(port.inward);
            let u = port.inward * (peak_speed * quartic(ax.norm() / port.radius));
            bc[l * 3] = u.x;
            bc[l * 3 + 1] = u.y;
            bc[l * 3 + 2] = u.z;
            let fl = u.dot(quad.normals[l]) * quad.weights[l];
            if port.is_inlet {
                influx += fl;
            } else {
                outflux += fl;
            }
        }
        if outflux.abs() > 1e-300 {
            // rescale outlet velocities for exact discrete zero net flux
            let scale = -influx / outflux;
            for (l, i) in on_ports() {
                if !ports[i].is_inlet {
                    bc[l * 3] *= scale;
                    bc[l * 3 + 1] *= scale;
                    bc[l * 3 + 2] *= scale;
                }
            }
        }

        // record each port's prescribed discrete flux (positive into the
        // domain; n is outward, hence the sign flip)
        for (l, i) in on_ports() {
            let u = Vec3::new(bc[l * 3], bc[l * 3 + 1], bc[l * 3 + 2]);
            ports[i].flux -= u.dot(quad.normals[l]) * quad.weights[l];
        }

        let meshes = build_meshes(&solver.surface, col_m);
        let volume = interior_volume(quad);

        Vessel {
            solver,
            bc,
            meshes,
            ports,
            volume,
            mu,
        }
    }

    /// Net discrete flux of the boundary condition through the surface
    /// (absolute value). Zero to rounding for a well-posed interior Stokes
    /// problem; the stepper records it each step ([`crate::StepStats`]'s
    /// `flux_imbalance`) and `sim-driver --assert 'max(flux_imbalance) <= …'`
    /// gates on it, so a drifted or mis-built port manifest fails loudly
    /// instead of feeding the solver an inconsistent right-hand side.
    pub fn port_flux_imbalance(&self) -> f64 {
        let quad = &self.solver.quad;
        let mut flux = 0.0;
        for l in 0..quad.len() {
            let u = Vec3::new(self.bc[l * 3], self.bc[l * 3 + 1], self.bc[l * 3 + 2]);
            flux += u.dot(quad.normals[l]) * quad.weights[l];
        }
        flux.abs()
    }

    /// Prescribed per-port fluxes (positive into the domain), in
    /// [`Vessel::ports`] order.
    pub fn port_fluxes(&self) -> Vec<f64> {
        self.ports.iter().map(|p| p.flux).collect()
    }
}

/// Quartic rim-smooth port profile at normalized radius `rho` (see
/// [`Vessel::new`] for its analytic flux properties on flat and
/// hemispherical caps).
pub(crate) fn quartic(rho: f64) -> f64 {
    let s = (1.0 - rho * rho).max(0.0);
    1.5 * s * s
}

/// Collision triangle meshes from `col_m × col_m` samples per patch.
pub(crate) fn build_meshes(surface: &BoundarySurface, col_m: usize) -> Vec<TriMesh> {
    surface
        .collision_grid(col_m)
        .into_iter()
        .map(|g| triangulate_grid(&g, col_m))
        .collect()
}

/// Interior volume via the divergence theorem (normals outward).
pub(crate) fn interior_volume(quad: &patch::SurfaceQuad) -> f64 {
    let mut volume = 0.0;
    for l in 0..quad.len() {
        volume += quad.points[l].dot(quad.normals[l]) * quad.weights[l];
    }
    volume / 3.0
}

fn port_ids(surface: &BoundarySurface) -> Vec<u32> {
    let mut ids: Vec<u32> = surface
        .kinds
        .iter()
        .filter_map(|k| match k {
            PatchKind::Inlet(p) | PatchKind::Outlet(p) => Some(*p),
            PatchKind::Wall => None,
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch::{capsule_tube, StraightLine};

    fn tube_vessel() -> Vessel {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(6.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, 1.0, 3, 8);
        let opts = BieOptions {
            backend: bie::MatvecBackend::Dense,
            ..Default::default()
        };
        Vessel::new(s, 1.0, opts, 1.0, 8)
    }

    #[test]
    fn ports_identified_with_opposed_flow() {
        let v = tube_vessel();
        assert_eq!(v.ports.len(), 2);
        let inlet = v.ports.iter().find(|p| p.is_inlet).unwrap();
        let outlet = v.ports.iter().find(|p| !p.is_inlet).unwrap();
        // inlet at x≈0 cap pointing +x, outlet at x≈6 pointing −x inward
        assert!(inlet.center.x < 0.0, "{:?}", inlet.center);
        assert!(outlet.center.x > 6.0, "{:?}", outlet.center);
        assert!(inlet.inward.x > 0.9);
        assert!(outlet.inward.x < -0.9);
    }

    #[test]
    fn boundary_condition_has_zero_net_flux() {
        let v = tube_vessel();
        let quad = &v.solver.quad;
        let mut flux = 0.0;
        for l in 0..quad.len() {
            let u = Vec3::new(v.bc[l * 3], v.bc[l * 3 + 1], v.bc[l * 3 + 2]);
            flux += u.dot(quad.normals[l]) * quad.weights[l];
        }
        assert!(flux.abs() < 1e-12, "net flux {flux}");
        // walls are no-slip
        for l in 0..quad.len() {
            if matches!(
                v.solver.surface.kinds[quad.patch_of[l] as usize],
                PatchKind::Wall
            ) {
                assert_eq!(v.bc[l * 3], 0.0);
            }
        }
    }

    /// The rim-kink fix: the port profile must vanish *with its slope* at
    /// the rim (C¹ match to the no-slip wall) while carrying the same disk
    /// flux as the parabolic profile it replaced.
    #[test]
    fn port_profile_is_rim_smooth_and_flux_preserving() {
        // zero value and zero slope at the rim (the parabola had slope −2)
        assert_eq!(quartic(1.0), 0.0);
        let h = 1e-6;
        let rim_slope = (quartic(1.0) - quartic(1.0 - h)) / h;
        assert!(rim_slope.abs() < 1e-4, "rim slope {rim_slope}");
        // disk mean equals the parabolic profile's 1/2 (flux preserved at
        // equal peak speed): mean = ∫₀¹ 2ρ·quartic(ρ) dρ
        let n = 200_000;
        let mut mean = 0.0;
        for i in 0..n {
            let rho = (i as f64 + 0.5) / n as f64;
            mean += 2.0 * rho * quartic(rho) / n as f64;
        }
        assert!((mean - 0.5).abs() < 1e-6, "disk mean {mean}");
        // ...and the *same* flux over a hemispherical cap, where ρ = sin θ
        // and the axis-projected area element is cos θ · r² sin θ dθ dφ:
        // flux/(π r² · peak) = 2·∫₀^{π/2} quartic(sin θ) cos θ sin θ dθ = 1/2,
        // identical to the flat disk — the 3/2 normalization is exact on
        // both cap shapes, which is what lets the network BCs prescribe
        // port fluxes on hemispherical caps without shape corrections
        let mut hemi = 0.0;
        let dth = std::f64::consts::FRAC_PI_2 / n as f64;
        for i in 0..n {
            let th = (i as f64 + 0.5) * dth;
            hemi += 2.0 * quartic(th.sin()) * th.cos() * th.sin() * dth;
        }
        assert!((hemi - 0.5).abs() < 1e-6, "hemisphere mean {hemi}");
        // and the built vessel's inlet peak reflects the 3/2 rescale: the
        // quadrature never samples the exact disk center, but only the
        // rescaled quartic can exceed the parabola's `peak_speed` cap of
        // 1.0 anywhere (it does so for ρ² < 1 − √(2/3), sampled by the
        // inner cap nodes)
        let v = tube_vessel();
        let quad = &v.solver.quad;
        let peak = (0..quad.len())
            .filter(|&l| {
                matches!(
                    v.solver.surface.kinds[quad.patch_of[l] as usize],
                    PatchKind::Inlet(_)
                )
            })
            .map(|l| Vec3::new(v.bc[l * 3], v.bc[l * 3 + 1], v.bc[l * 3 + 2]).norm())
            .fold(0.0f64, f64::max);
        assert!(
            peak > 1.0 && peak <= 1.5 + 1e-9,
            "inlet peak {peak} not in the rescaled-quartic range"
        );
    }

    /// The payoff of the rim-smooth profile, pinned at its *measured*
    /// size: a refined serpentine vessel's cell-free boundary solve
    /// (the `vessel_flow` registry geometry at smoke settings) floored
    /// at ~0.4 relative residual under the old parabolic/centroid
    /// profile — the O(1) value jump at the cap seam put unresolvable
    /// content in the data — and reaches ~0.11 with the rim-smooth
    /// quartic, a ~4× improvement this test ratchets.
    ///
    /// What the remaining O(0.1) floor at practical iteration budgets
    /// is NOT (all probed while landing this fix): not data smoothness
    /// (a C∞ bump profile floors at ~0.12, same as the quartic's
    /// ~0.11), not wall resolution (`wall_refine` 0/1/2 → 0.21 / 0.12
    /// / 0.21, no trend), not restart stagnation or the FMM backend
    /// (dense unrestarted GMRES on a small straight tube sits at
    /// 9.4e-2 after 400 iterations), and not inconsistency: the same
    /// full GMRES *does* converge to 2e-3 — at iteration 1334 of a
    /// 1944-unknown system. Through-flow port data excites a slowly
    /// resolving spectral tail that needs ~0.7·N Krylov iterations.
    /// More wall refinement or smoother data does not help, and neither
    /// did the coarse-grid preconditioner that was tried and removed
    /// (`crates/bie/README.md`); ROADMAP item 1 looks at the spectrum.
    #[test]
    fn refined_serpentine_port_floor_improved() {
        let c = patch::Serpentine {
            length: 8.0,
            amp: 0.7,
            windings: 1.0,
        };
        let surface = capsule_tube(&c, 1.1, 1, 6).refine(1);
        let opts = BieOptions {
            backend: bie::MatvecBackend::Fmm,
            qf: 10,
            fmm: bie::FmmOptions {
                order: 4,
                ..Default::default()
            },
            gmres: linalg::GmresOptions {
                tol: 2e-3,
                max_iters: 30,
                stall_ratio: 0.9,
                restart: 10,
                ..Default::default()
            },
            check_r: 0.15,
            p_extrap: 5,
            ..Default::default()
        };
        let v = Vessel::new(surface, 1.0, opts, 1.0, 5);
        let (_, res) = v.solver.solve(&v.bc);
        // measured ~0.109 when the fix landed; 0.15 leaves noise margin
        // while staying far below the parabolic profile's ~0.4 floor
        assert!(
            res.rel_residual < 0.15,
            "cell-free refined port solve at residual {:.3e} after {} \
             iterations (stalled: {}) — the rim-smooth profile should \
             hold the floor near 0.11, well under the parabolic 0.4",
            res.rel_residual,
            res.iterations,
            res.stalled
        );
    }

    #[test]
    fn port_fluxes_recorded_and_balanced() {
        let v = tube_vessel();
        let fluxes = v.port_fluxes();
        assert_eq!(fluxes.len(), 2);
        let inlet = v.ports.iter().find(|p| p.is_inlet).unwrap();
        let outlet = v.ports.iter().find(|p| !p.is_inlet).unwrap();
        assert!(inlet.flux > 0.0, "inlet flux {}", inlet.flux);
        assert!(outlet.flux < 0.0, "outlet flux {}", outlet.flux);
        // ports balance exactly (the outlet rescale) and the live bc
        // integral agrees
        assert!((inlet.flux + outlet.flux).abs() < 1e-12);
        assert!(v.port_flux_imbalance() < 1e-12);
        // hemispherical cap at peak 1: flux ≈ π r²/2 (r = 1), up to the
        // max-node rim underestimate at this resolution (a few percent)
        let analytic = std::f64::consts::FRAC_PI_2;
        assert!(
            (inlet.flux - analytic).abs() / analytic < 0.2,
            "inlet flux {} vs analytic {analytic}",
            inlet.flux
        );
    }

    #[test]
    fn vessel_volume_close_to_capsule() {
        let v = tube_vessel();
        // capsule: cylinder π r² L + sphere 4/3 π r³
        let exact = std::f64::consts::PI * 6.0 + 4.0 / 3.0 * std::f64::consts::PI;
        assert!(
            (v.volume - exact).abs() / exact < 1e-2,
            "{} vs {exact}",
            v.volume
        );
    }
}
