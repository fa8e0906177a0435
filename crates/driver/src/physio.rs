//! Physiology observables as a pluggable [`StepSink`]: apparent viscosity,
//! cell-free layer, and branch hematocrit split, kept as one row per step.
//!
//! The observables themselves live in [`sim::physio`]; this sink does the
//! run-loop plumbing they need — it keeps the previous step's cell surface
//! points so the membrane drag power's finite-difference velocity is
//! well-defined, and skips the power on steps that recycled cells (an
//! outlet→inlet teleport is not a physical velocity). The regression
//! tests consume the in-memory [`PhysioRow`]s.

use crate::session::{StepRow, StepSink};
use linalg::Vec3;
use sim::{
    apparent_viscosity, branch_hematocrit, cell_free_layer, membrane_drag_power, tube_dimensions,
    BranchSplit, Simulation,
};
use std::io;

/// One step's physiology record. Fields are `None` where the observable
/// is undefined for the run's vessel (e.g. apparent viscosity needs a
/// straight 2-port tube; branch splits need ≥ 2 outlets) or, for the
/// power, on steps polluted by a recycle teleport.
#[derive(Clone, Debug)]
pub struct PhysioRow {
    /// Step index (1-based, global across restarts).
    pub step: usize,
    /// Membrane drag power `−Σ ∫ f·v dS` (see
    /// [`sim::membrane_drag_power`]); `None` when cells were recycled
    /// this step.
    pub drag_power: Option<f64>,
    /// Relative apparent viscosity `μ_app/μ` of a straight 2-port tube.
    pub apparent_viscosity: Option<f64>,
    /// Cell-free layer width of a straight 2-port tube.
    pub cell_free_layer: Option<f64>,
    /// Per-outlet hematocrit/flux split at the junction (needs ≥ 2
    /// outlets and a junction point configured on the sink).
    pub split: Option<BranchSplit>,
}

/// Keeps per-step physiology rows in memory for assertions.
pub struct PhysioSink {
    /// Junction point for [`sim::branch_hematocrit`]; `None` skips the
    /// branch split (straight-tube runs).
    junction: Option<Vec3>,
    /// Axial bins for [`sim::cell_free_layer`].
    bins: usize,
    prev_x: Vec<Vec<Vec3>>,
    /// Every row observed so far, in step order.
    pub rows: Vec<PhysioRow>,
}

fn snapshot(sim: &Simulation) -> Vec<Vec<Vec3>> {
    sim.cells.iter().map(|c| c.geometry(&sim.basis).x).collect()
}

impl PhysioSink {
    /// A sink with no rows yet. Pass the network's junction point to
    /// enable the branch split; `bins` controls the cell-free-layer axial
    /// resolution (16 is plenty for smoke runs).
    pub fn new(junction: Option<Vec3>, bins: usize) -> PhysioSink {
        PhysioSink {
            junction,
            bins: bins.max(1),
            prev_x: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Computes one row from the current state — the core of `on_step`.
    fn observe(&mut self, sim: &Simulation, row: &StepRow) -> PhysioRow {
        let dt = row.stats.dt_effective;
        // a recycle teleports cells outlet → inlet; the finite-difference
        // velocity across that jump is not physical, so the power (and
        // the viscosity derived from it) sits this step out
        let clean = row.recycled == 0 && !self.prev_x.is_empty() && dt > 0.0;
        let drag_power = clean.then(|| membrane_drag_power(sim, &self.prev_x, dt));
        let tube = sim.vessel.as_ref().and_then(tube_dimensions);
        let apparent = match (drag_power, tube) {
            (Some(p), Some((q, r, l))) => {
                let mu = sim.vessel.as_ref().map(|v| v.mu).unwrap_or(1.0);
                Some(apparent_viscosity(p, mu, q, r, l))
            }
            _ => None,
        };
        let cfl = cell_free_layer(sim, self.bins);
        let split = self.junction.and_then(|j| branch_hematocrit(sim, j));
        self.prev_x = snapshot(sim);
        PhysioRow {
            step: row.step,
            drag_power,
            apparent_viscosity: apparent,
            cell_free_layer: cfl,
            split,
        }
    }
}

impl StepSink for PhysioSink {
    fn on_start(&mut self, sim: &Simulation) -> io::Result<()> {
        self.prev_x = snapshot(sim);
        Ok(())
    }

    fn on_step(&mut self, sim: &Simulation, row: &StepRow) -> io::Result<()> {
        let r = self.observe(sim, row);
        self.rows.push(r);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::toml::{Doc, Value};

    fn smoke_cfg(sec: &str) -> Doc {
        let mut cfg = Doc::default();
        cfg.set(sec, "order", Value::Int(6));
        cfg.set(sec, "patch_order", Value::Int(6));
        cfg
    }

    #[test]
    fn ladder_run_emits_viscosity_and_cfl_rows() {
        let mut cfg = smoke_cfg("vessel_ladder");
        cfg.set("vessel_ladder", "recycle", Value::Bool(false));
        let mut s = Session::build("vessel_ladder", &cfg).unwrap();
        let mut sink = PhysioSink::new(None, 16);
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut sink];
            s.drive(2, &mut sinks).unwrap();
        }
        assert_eq!(sink.rows.len(), 2);
        for r in &sink.rows {
            let mu = r.apparent_viscosity.expect("2-port tube has μ_app");
            assert!(mu.is_finite(), "{mu}");
            let cfl = r.cell_free_layer.expect("cells are in the tube");
            assert!(cfl > 0.0 && cfl < 0.8, "implausible CFL {cfl}");
            assert!(r.split.is_none(), "straight tube has no junction");
        }
    }

    #[test]
    fn bifurcation_run_emits_branch_split_rows() {
        let cfg = smoke_cfg("bifurcation");
        let mut s = Session::build("bifurcation", &cfg).unwrap();
        let mut sink = PhysioSink::new(Some(linalg::Vec3::ZERO), 16);
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut sink];
            s.drive(1, &mut sinks).unwrap();
        }
        let r = &sink.rows[0];
        assert!(
            r.apparent_viscosity.is_none(),
            "3-port vessel is not a straight tube"
        );
        let split = r.split.as_ref().expect("junction split");
        assert_eq!(split.port_ids.len(), 2);
        // prescribed 0.55/0.45 split, recorded exactly at build time
        let qsum: f64 = split.flux_frac.iter().sum();
        assert!((qsum - 1.0).abs() < 1e-12, "{:?}", split.flux_frac);
        assert!(
            (split.flux_frac[0] - 0.55).abs() < 1e-12 || (split.flux_frac[1] - 0.55).abs() < 1e-12
        );
    }

    #[test]
    fn recycle_steps_skip_the_drag_power() {
        // fabricate a recycled row: the sink must blank the power fields
        let cfg = smoke_cfg("vessel_ladder");
        let mut s = Session::build("vessel_ladder", &cfg).unwrap();
        let mut sink = PhysioSink::new(None, 16);
        sink.on_start(&s.sim).unwrap();
        let mut row = s.step().unwrap();
        row.recycled = 1;
        sink.on_step(&s.sim, &row).unwrap();
        assert!(sink.rows[0].drag_power.is_none());
        assert!(sink.rows[0].apparent_viscosity.is_none());
        // the cell-free layer is geometric, so it survives the recycle
        assert!(sink.rows[0].cell_free_layer.is_some());
    }
}
