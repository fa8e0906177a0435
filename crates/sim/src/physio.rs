//! Physiology observables of confined RBC flow: apparent viscosity,
//! cell-free layer width, and per-branch hematocrit split.
//!
//! These are the classic microvascular quantities the paper's workloads
//! are judged by (Fåhræus–Lindqvist apparent viscosity vs. tube diameter,
//! plasma skimming at bifurcations). Each observable is computed from the
//! live trajectory state with *documented, honest* definitions — they are
//! diagnostics for regression pinning, not claims of quantitative
//! agreement with in-vivo correlations:
//!
//! - [`membrane_drag_power`]: the rate of work the flow spends deforming
//!   and dragging the suspended cells, from the membrane traction and
//!   finite-difference surface velocities;
//! - [`apparent_viscosity`]: relative apparent viscosity `μ_app/μ` via the
//!   energy budget `1 + P_mem/Φ₀` against the cell-free Poiseuille
//!   dissipation `Φ₀ = 8 μ L Q²/(π R⁴)` at equal flux;
//! - [`cell_free_layer`]: mean gap between the outermost cell surface
//!   point and the tube wall across axial bins;
//! - [`branch_hematocrit`]: per-daughter-branch cell volume fractions
//!   compared against the imposed flux split (the plasma-skimming
//!   deviation is `hematocrit_frac − flux_frac`).

use crate::domain::Vessel;
use crate::stepper::Simulation;
use linalg::Vec3;
use std::f64::consts::PI;

/// Rate of work the flow performs on the suspended cells:
/// `P = −Σ_cells ∫ f · v dS`, with `f` the membrane traction exerted *on
/// the fluid* and `v = (x − x_prev)/dt` the finite-difference surface
/// velocity. Positive when the cells resist the flow (extra dissipation
/// the driving pressure must supply — the numerator of the apparent
/// viscosity excess); transiently negative when stored elastic energy is
/// released back into the fluid.
///
/// `prev_x[ci]` must hold cell `ci`'s quadrature points at the previous
/// step (from `cell.geometry(&sim.basis).x`); cells missing a previous
/// snapshot contribute zero.
pub fn membrane_drag_power(sim: &Simulation, prev_x: &[Vec<Vec3>], dt: f64) -> f64 {
    let basis = &sim.basis;
    let mut power = 0.0;
    for (ci, cell) in sim.cells.iter().enumerate() {
        let Some(prev) = prev_x.get(ci) else { continue };
        let geo = cell.geometry(basis);
        if prev.len() != geo.x.len() {
            continue;
        }
        let f = cell.membrane_force(basis, &geo);
        for i in 0..geo.x.len() {
            let v = (geo.x[i] - prev[i]) * (1.0 / dt);
            power -= f[i].dot(v) * geo.w_quad[i];
        }
    }
    power
}

/// Relative apparent viscosity `μ_app/μ` from the energy budget: the total
/// dissipation of the loaded tube is the cell-free Poiseuille dissipation
/// `Φ₀ = 8 μ L Q²/(π R⁴)` plus the membrane drag power, and the apparent
/// viscosity is their ratio at equal flux:
///
/// ```text
/// μ_app/μ = (Φ₀ + P_mem)/Φ₀ = 1 + P_mem·π R⁴/(8 μ L Q²)
/// ```
///
/// `1.0` for a cell-free tube by construction.
pub fn apparent_viscosity(power: f64, mu: f64, flux: f64, radius: f64, length: f64) -> f64 {
    let phi0 = 8.0 * mu * length * flux * flux / (PI * radius.powi(4));
    1.0 + power / phi0
}

/// Tube dimensions of a straight 2-port vessel, for feeding
/// [`apparent_viscosity`]: `(flux Q, radius R, length L)` with `Q` the
/// inlet's prescribed flux, `R` its rim radius, and `L` the distance
/// between the port centers. `None` unless the vessel has exactly one
/// inlet and one outlet.
pub fn tube_dimensions(vessel: &Vessel) -> Option<(f64, f64, f64)> {
    let inlet = vessel.ports.iter().find(|p| p.is_inlet)?;
    let outlet = vessel.ports.iter().find(|p| !p.is_inlet)?;
    if vessel.ports.len() != 2 {
        return None;
    }
    Some((
        inlet.flux,
        inlet.radius,
        (outlet.center - inlet.center).norm(),
    ))
}

/// Cell-free layer width of a straight 2-port tube: the tube axis runs
/// between the port centers; every cell surface point is binned axially
/// (`bins` bins over the inter-port span), and each occupied bin
/// contributes `R − max(radial extent)` — the gap between the outermost
/// cell point and the wall. Returns the mean over occupied bins, or `None`
/// without a 2-port vessel or without any cell point inside the span.
pub fn cell_free_layer(sim: &Simulation, bins: usize) -> Option<f64> {
    let vessel = sim.vessel.as_ref()?;
    let (_, radius, length) = tube_dimensions(vessel)?;
    let inlet = vessel.ports.iter().find(|p| p.is_inlet)?;
    let axis = inlet.inward; // unit, points down the tube for a capsule
    let origin = inlet.center;
    let mut max_r = vec![0.0f64; bins.max(1)];
    let mut occupied = vec![false; bins.max(1)];
    for cell in &sim.cells {
        let geo = cell.geometry(&sim.basis);
        for &x in &geo.x {
            let d = x - origin;
            let t = d.dot(axis) / length;
            if !(0.0..1.0).contains(&t) {
                continue;
            }
            let b = ((t * bins as f64) as usize).min(bins - 1);
            let radial = (d - axis * d.dot(axis)).norm();
            max_r[b] = max_r[b].max(radial);
            occupied[b] = true;
        }
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for b in 0..bins {
        if occupied[b] {
            sum += radius - max_r[b];
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Per-branch hematocrit split at a junction (see [`branch_hematocrit`]).
#[derive(Clone, Debug)]
pub struct BranchSplit {
    /// Outlet port ids, in [`Vessel::ports`] order.
    pub port_ids: Vec<u32>,
    /// Fraction of the *assigned* cell volume residing in each outlet
    /// branch (sums to 1 when any cell is assigned, all-zero otherwise).
    pub hematocrit_frac: Vec<f64>,
    /// Fraction of the total outflow each outlet carries (from the
    /// prescribed port fluxes; always sums to 1).
    pub flux_frac: Vec<f64>,
    /// Cells assigned to some outlet branch.
    pub assigned_cells: usize,
    /// All cells in the simulation.
    pub total_cells: usize,
}

/// Classifies every cell into an outlet branch by centroid — inside the
/// branch cylinder (radial distance below the port rim radius) and past
/// the junction (`(centroid − junction)·axis > 0`) — and compares the
/// per-branch cell volume fractions with the imposed flux split. Plasma
/// skimming shows up as `hematocrit_frac > flux_frac` on the
/// faster daughter. `None` without a vessel or with fewer than 2 outlets.
pub fn branch_hematocrit(sim: &Simulation, junction: Vec3) -> Option<BranchSplit> {
    let vessel = sim.vessel.as_ref()?;
    let outlets: Vec<_> = vessel.ports.iter().filter(|p| !p.is_inlet).collect();
    if outlets.len() < 2 {
        return None;
    }
    let total_out: f64 = outlets.iter().map(|p| p.flux.abs()).sum();
    let mut volume = vec![0.0f64; outlets.len()];
    let mut assigned = 0usize;
    for cell in &sim.cells {
        let geo = cell.geometry(&sim.basis);
        let c = geo.centroid() - junction;
        for (oi, port) in outlets.iter().enumerate() {
            let axis = -port.inward;
            let t = c.dot(axis);
            let ray = (c - axis * t).norm();
            if t > 0.0 && ray < port.radius {
                volume[oi] += geo.volume();
                assigned += 1;
                break;
            }
        }
    }
    let total_vol: f64 = volume.iter().sum();
    Some(BranchSplit {
        port_ids: outlets.iter().map(|p| p.id).collect(),
        hematocrit_frac: volume
            .iter()
            .map(|v| if total_vol > 0.0 { v / total_vol } else { 0.0 })
            .collect(),
        flux_frac: outlets.iter().map(|p| p.flux.abs() / total_out).collect(),
        assigned_cells: assigned,
        total_cells: sim.cells.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{vessel_from_network, NetworkSpec, SegmentSpec};
    use crate::stepper::SimConfig;
    use bie::BieOptions;
    use patch::{capsule_tube, StraightLine};
    use sphharm::SphBasis;
    use vesicle::{sphere_coeffs, Cell, CellParams};

    fn dense_opts() -> BieOptions {
        BieOptions {
            backend: bie::MatvecBackend::Dense,
            ..Default::default()
        }
    }

    fn tube_vessel(radius: f64) -> Vessel {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(6.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, radius, 3, 6);
        Vessel::new(s, 1.0, dense_opts(), 1.0, 6)
    }

    fn sphere_cell(basis: &SphBasis, r: f64, center: Vec3) -> Cell {
        Cell::new(
            basis,
            sphere_coeffs(basis, r, center),
            CellParams::default(),
        )
    }

    fn sim_with(cells: Vec<Cell>, vessel: Option<Vessel>) -> Simulation {
        let basis = SphBasis::new(6);
        Simulation::new(basis, cells, vessel, SimConfig::default())
    }

    /// Sign convention pin: surface velocities opposing the membrane
    /// traction mean the flow is working against the cells — positive
    /// drag power. Zero motion gives exactly zero.
    #[test]
    fn drag_power_sign_convention() {
        let basis = SphBasis::new(6);
        let cell = sphere_cell(&basis, 0.5, Vec3::ZERO);
        let geo = cell.geometry(&basis);
        let f = cell.membrane_force(&basis, &geo);
        let dt = 0.01;
        // previous positions displaced along +f: v = (x − prev)/dt = −f
        let prev: Vec<Vec3> = geo.x.iter().zip(&f).map(|(x, fi)| *x + *fi * dt).collect();
        let sim = sim_with(vec![cell], None);
        let p = membrane_drag_power(&sim, &[prev], dt);
        let fsq: f64 = f
            .iter()
            .zip(&geo.w_quad)
            .map(|(fi, w)| fi.dot(*fi) * w)
            .sum();
        assert!(fsq > 0.0, "sphere under default params carries no traction");
        assert!((p - fsq).abs() < 1e-9 * fsq.max(1.0), "{p} vs {fsq}");
        // no motion → no power
        let frozen = membrane_drag_power(&sim, &[sim.cells[0].geometry(&sim.basis).x.clone()], dt);
        assert_eq!(frozen, 0.0);
    }

    #[test]
    fn apparent_viscosity_formula_pins_poiseuille_scaling() {
        // cell-free tube: exactly 1 at any dimensions
        assert_eq!(apparent_viscosity(0.0, 1.0, 2.0, 0.5, 6.0), 1.0);
        // the excess scales as R⁴ at fixed power/flux/length (tolerance
        // covers the (1 + e) − 1 cancellation at e ~ 3e-4)
        let e1 = apparent_viscosity(0.3, 1.0, 2.0, 0.5, 6.0) - 1.0;
        let e2 = apparent_viscosity(0.3, 1.0, 2.0, 1.0, 6.0) - 1.0;
        assert!((e2 / e1 - 16.0).abs() < 1e-6, "{}", e2 / e1);
        // and inversely with Q²
        let e3 = apparent_viscosity(0.3, 1.0, 4.0, 0.5, 6.0) - 1.0;
        assert!((e1 / e3 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn cell_free_layer_measures_wall_gap() {
        let basis = SphBasis::new(6);
        let on_axis = sphere_cell(&basis, 0.3, Vec3::new(3.0, 0.0, 0.0));
        let sim = sim_with(vec![on_axis], Some(tube_vessel(1.0)));
        let cfl = cell_free_layer(&sim, 8).unwrap();
        // tube radius 1, cell surface reaches 0.3 off axis → gap 0.7
        assert!((cfl - 0.7).abs() < 0.05, "cfl {cfl}");
        // a cell pushed toward the wall shrinks the layer
        let off_axis = sphere_cell(&basis, 0.3, Vec3::new(3.0, 0.4, 0.0));
        let sim2 = sim_with(vec![off_axis], Some(tube_vessel(1.0)));
        let cfl2 = cell_free_layer(&sim2, 8).unwrap();
        assert!((cfl2 - 0.3).abs() < 0.05, "cfl {cfl2}");
        assert!(cfl2 < cfl);
        // no cells → None
        let empty = sim_with(vec![], Some(tube_vessel(1.0)));
        assert!(cell_free_layer(&empty, 8).is_none());
    }

    /// Pins the plasma-skimming sign convention of the observable: more
    /// cell volume routed into the fast daughter than its flux share
    /// must show up as `hematocrit_frac > flux_frac` on that branch.
    #[test]
    fn branch_split_pins_plasma_skimming_direction() {
        let up = Vec3::new(-1.0, 0.6, 0.0).normalized();
        let dn = Vec3::new(-1.0, -0.6, 0.0).normalized();
        let spec = NetworkSpec {
            center: Vec3::ZERO,
            segments: vec![
                SegmentSpec {
                    axis: Vec3::new(1.0, 0.0, 0.0),
                    length: 1.6,
                    radius: 0.5,
                    flux: 1.0,
                },
                SegmentSpec {
                    axis: up,
                    length: 1.5,
                    radius: 0.4,
                    flux: -0.55,
                },
                SegmentSpec {
                    axis: dn,
                    length: 1.5,
                    radius: 0.4,
                    flux: -0.45,
                },
            ],
            smoothing: 0.15,
            per_face: 2,
            q: 8,
        };
        let vessel = vessel_from_network(&spec, 1.0, dense_opts(), 6).unwrap();
        let basis = SphBasis::new(6);
        // three cells down the fast daughter, one down the slow one, one
        // still in the parent (must stay unassigned)
        let mut cells = Vec::new();
        for t in [0.7, 1.0, 1.3] {
            cells.push(sphere_cell(&basis, 0.15, up * t));
        }
        cells.push(sphere_cell(&basis, 0.15, dn * 1.0));
        cells.push(sphere_cell(&basis, 0.15, Vec3::new(1.0, 0.0, 0.0)));
        let sim = sim_with(cells, Some(vessel));
        let split = branch_hematocrit(&sim, Vec3::ZERO).unwrap();
        assert_eq!(split.total_cells, 5);
        assert_eq!(split.assigned_cells, 4);
        let fast = split
            .port_ids
            .iter()
            .position(|&id| id == 1)
            .expect("fast daughter is port 1");
        assert!((split.hematocrit_frac[fast] - 0.75).abs() < 1e-6);
        assert!((split.flux_frac[fast] - 0.55).abs() < 1e-12);
        // plasma-skimming direction: volume share exceeds flux share
        assert!(split.hematocrit_frac[fast] > split.flux_frac[fast]);
        let fracs: f64 = split.hematocrit_frac.iter().sum();
        assert!((fracs - 1.0).abs() < 1e-12);
    }
}
