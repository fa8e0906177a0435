//! Binary checkpoint/restart for long simulation runs.
//!
//! A checkpoint captures everything the time stepper evolves — the cells
//! (via the bit-exact [`vesicle::state`] hooks), the step counter, the
//! configuration, and the accumulated component timers. The static domain
//! (vessel geometry, boundary solver, collision meshes) is *not* stored;
//! the scenario that created the run rebuilds it deterministically, and a
//! FNV digest of the vessel's collision meshes and boundary condition
//! (serialized through the [`collision`] mesh hooks) is stored so a restart
//! against a drifted domain fails loudly instead of silently diverging.
//!
//! Because every float round-trips bit-exactly and stepping is
//! deterministic, a restarted run reproduces the uninterrupted trajectory
//! bit-identically (covered by the `driver` crate's restart test).

use crate::domain::Vessel;
use crate::stepper::{DtControl, DtState, SimConfig, Simulation};
use crate::timers::StepTimers;
use linalg::{fnv1a64, ByteReader, ByteWriter, CodecError};
use std::io;
use std::path::Path;
use vesicle::{Cell, StepOptions};

/// File magic: "RBCCKPT" + format version. Version history:
/// 1 — cells + config + timers (PR 2); 2 — adds the boundary-solve
/// warm-start density (`bie_warm`), needed for bit-identical restarts now
/// that the GMRES initial guess carries across steps; 3 — adds the
/// adaptive time-step controller ([`DtControl`] in the config,
/// [`DtState`] as evolving state), so a restart resumes the same backoff
/// trajectory — restarting mid-recovery with a fresh controller would
/// retry at the wrong Δt and diverge from the uninterrupted run; 4 — the
/// config drops the collision switch, the backoff floor and the retry
/// shape (the collision stage always runs, the floor is fixed at Δt/16
/// and whole-step halving is the only retry shape); 5 — each cell drops
/// the four self-interaction quadrature options (32 bytes; they are
/// constants of `vesicle::selfop`, cell state version 2); 6 — adds the
/// warm-start density's image `A·bie_warm` (`bie_warm_image`): a solve
/// handed the image skips the apply that would recompute it, and the two
/// agree to roundoff only, so a restart without it would not continue the
/// uninterrupted run bit-identically.
const MAGIC: &[u8; 8] = b"RBCCKPT6";

/// A captured simulation state, decoupled from the live [`Simulation`].
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Scenario tag (free-form; the driver stores the registry name so a
    /// restart can rebuild the same domain).
    pub scenario: String,
    /// Steps taken when the checkpoint was captured.
    pub steps: usize,
    /// Spherical-harmonic order of the cell basis.
    pub basis_p: usize,
    /// The configuration the run was using.
    pub config: SimConfig,
    /// Accumulated component timers (informational; wall times are not
    /// part of the trajectory).
    pub timers: StepTimers,
    /// Digest of the vessel state (0 for free-space runs).
    pub vessel_digest: u64,
    /// The evolving cell state.
    pub cells: Vec<Cell>,
    /// Boundary-solve warm-start density carried between steps (`None`
    /// before the first vessel step / for free-space runs). Serialized
    /// bit-exactly so a restarted run's first GMRES solve starts from the
    /// same iterate as the uninterrupted run.
    pub bie_warm: Option<Vec<f64>>,
    /// The image `A·bie_warm` the solve that produced `bie_warm` left
    /// ([`Simulation::bie_warm_image`]), serialized bit-exactly for the
    /// same reason.
    pub bie_warm_image: Option<Vec<f64>>,
    /// Adaptive time-step controller state (current Δt, clean-step
    /// counter, per-cell freeze flags) — part of the trajectory since the
    /// controller's next decision depends on it.
    pub dt_state: DtState,
}

/// Deterministic digest of the static vessel state: collision meshes,
/// boundary condition, port layout, and the boundary-solver options —
/// anything that changes the trajectory without being part of the evolving
/// cell state must hash in here, or a drifted restart diverges silently.
pub fn vessel_digest(vessel: &Vessel) -> u64 {
    let mut w = ByteWriter::new();
    w.put_usize(vessel.meshes.len());
    for m in &vessel.meshes {
        m.write_state(&mut w);
    }
    w.put_f64_slice(&vessel.bc);
    w.put_usize(vessel.ports.len());
    for p in &vessel.ports {
        w.put_u32(p.id);
        w.put_bool(p.is_inlet);
        w.put_vec3(p.center);
        w.put_vec3(p.inward);
        w.put_f64(p.radius);
        w.put_f64(p.flux);
    }
    w.put_f64(vessel.volume);
    w.put_f64(vessel.mu);
    let o = &vessel.solver.opts;
    w.put_u32(o.eta);
    w.put_usize(o.qf);
    w.put_usize(o.p_extrap);
    // the bytes of the former two-rule check spec (tag 0, `R`, `r`) and
    // near-zone factor (1), kept so existing digests match
    w.put_u8(0);
    w.put_f64(o.check_r);
    w.put_f64(o.check_r);
    w.put_f64(1.0);
    // hash the *resolved* backend, not the config enum: the trajectory
    // depends only on which engine actually runs the matvec (dense = 0,
    // FMM = 1 — the byte values the pre-backend `use_fmm: Option<bool>`
    // encoding used for Some(false)/Some(true)), so `Auto` configurations
    // digest identically to an explicit choice that resolves the same way,
    // and pre-refactor checkpoints (scenario default was Some(false) on
    // vessels that `Auto` still resolves dense) keep restoring
    w.put_u8(match vessel.solver.solve_backend() {
        bie::MatvecBackend::Fmm => 1,
        _ => 0,
    });
    w.put_usize(o.fmm.order);
    w.put_usize(o.fmm.leaf_capacity);
    w.put_u32(o.fmm.max_depth);
    w.put_f64(o.gmres.tol);
    w.put_f64(o.gmres.atol);
    w.put_usize(o.gmres.max_iters);
    w.put_usize(o.gmres.restart);
    w.put_f64(o.gmres.stall_ratio);
    // the removed `precond` option's byte, kept so existing digests match
    w.put_bool(false);
    fnv1a64(w.bytes())
}

fn write_config(w: &mut ByteWriter, c: &SimConfig) {
    w.put_f64(c.dt);
    w.put_f64(c.collision_delta);
    w.put_usize(c.col_upsample);
    w.put_f64(c.shear_rate);
    w.put_vec3(c.gravity);
    w.put_f64(c.fmm_pair_threshold);
    w.put_usize(c.fmm.order);
    w.put_usize(c.fmm.leaf_capacity);
    w.put_u32(c.fmm.max_depth);
    w.put_f64(c.step.dt);
    w.put_f64(c.step.gmres.tol);
    w.put_f64(c.step.gmres.atol);
    w.put_usize(c.step.gmres.max_iters);
    w.put_usize(c.step.gmres.restart);
    w.put_f64(c.step.gmres.stall_ratio);
    w.put_bool(c.dt_control.enabled);
    w.put_usize(c.dt_control.grow_after);
    w.put_f64(c.dt_control.max_stretch);
    w.put_f64(c.dt_control.max_volume_drift);
}

fn read_config(r: &mut ByteReader) -> Result<SimConfig, CodecError> {
    Ok(SimConfig {
        dt: r.get_f64()?,
        collision_delta: r.get_f64()?,
        col_upsample: r.get_usize()?,
        shear_rate: r.get_f64()?,
        gravity: r.get_vec3()?,
        fmm_pair_threshold: r.get_f64()?,
        fmm: fmm::FmmOptions {
            order: r.get_usize()?,
            leaf_capacity: r.get_usize()?,
            max_depth: r.get_u32()?,
        },
        step: StepOptions {
            dt: r.get_f64()?,
            gmres: linalg::GmresOptions {
                tol: r.get_f64()?,
                atol: r.get_f64()?,
                max_iters: r.get_usize()?,
                restart: r.get_usize()?,
                stall_ratio: r.get_f64()?,
            },
        },
        dt_control: DtControl {
            enabled: r.get_bool()?,
            grow_after: r.get_usize()?,
            max_stretch: r.get_f64()?,
            max_volume_drift: r.get_f64()?,
        },
        // deliberately not serialized: thread count
        // is an execution detail, and restore_into keeps the live value
        threads: 0,
    })
}

impl Checkpoint {
    /// Captures the evolving state of `sim` under the given scenario tag.
    pub fn capture(sim: &Simulation, scenario: &str) -> Checkpoint {
        Checkpoint {
            scenario: scenario.to_string(),
            steps: sim.steps,
            basis_p: sim.basis.p,
            config: sim.config,
            timers: sim.timers,
            vessel_digest: sim.vessel.as_ref().map(vessel_digest).unwrap_or(0),
            cells: sim.cells.clone(),
            bie_warm: sim.bie_warm.clone(),
            bie_warm_image: sim.bie_warm_image.clone(),
            dt_state: sim.dt_state.clone(),
        }
    }

    /// Serializes to bytes (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for &b in MAGIC {
            w.put_u8(b);
        }
        w.put_str(&self.scenario);
        w.put_usize(self.steps);
        w.put_usize(self.basis_p);
        write_config(&mut w, &self.config);
        w.put_f64(self.timers.col);
        w.put_f64(self.timers.bie_solve);
        w.put_f64(self.timers.bie_fmm);
        w.put_f64(self.timers.other_fmm);
        w.put_f64(self.timers.other);
        w.put_u64(self.vessel_digest);
        w.put_usize(self.cells.len());
        for c in &self.cells {
            c.write_state(&mut w);
        }
        for v in [&self.bie_warm, &self.bie_warm_image] {
            match v {
                Some(v) => {
                    w.put_bool(true);
                    w.put_f64_slice(v);
                }
                None => w.put_bool(false),
            }
        }
        w.put_f64(self.dt_state.dt);
        w.put_usize(self.dt_state.clean_steps);
        w.put_usize(self.dt_state.frozen.len());
        for &f in &self.dt_state.frozen {
            w.put_bool(f);
        }
        w.into_bytes()
    }

    /// Deserializes from bytes written by [`Checkpoint::to_bytes`].
    ///
    /// Rejects files from other format versions with a clear error — a v1
    /// checkpoint has no warm-start density and a v2 checkpoint has no
    /// adaptive-Δt controller state, so continuing from either could not
    /// reproduce the original trajectory bit-identically.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CodecError> {
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.get_u8()?;
        }
        if magic != *MAGIC {
            if magic[..7] == MAGIC[..7] {
                return Err(CodecError(format!(
                    "unsupported checkpoint format version {} (this build reads version {}); \
                     re-run the scenario from the start or convert the checkpoint",
                    magic[7] as char, MAGIC[7] as char,
                )));
            }
            return Err(CodecError("not a checkpoint file (bad magic)".into()));
        }
        let scenario = r.get_string()?;
        let steps = r.get_usize()?;
        let basis_p = r.get_usize()?;
        let config = read_config(&mut r)?;
        let timers = StepTimers {
            col: r.get_f64()?,
            bie_solve: r.get_f64()?,
            bie_fmm: r.get_f64()?,
            other_fmm: r.get_f64()?,
            other: r.get_f64()?,
        };
        let vessel_digest = r.get_u64()?;
        let n_cells = r.get_usize()?;
        let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
        for i in 0..n_cells {
            let cell =
                Cell::read_state(&mut r).map_err(|e| CodecError(format!("cell {i}: {}", e.0)))?;
            cells.push(cell);
        }
        let mut optional_vec = || -> Result<Option<Vec<f64>>, CodecError> {
            Ok(if r.get_bool()? {
                Some(r.get_f64_vec()?)
            } else {
                None
            })
        };
        let bie_warm = optional_vec()?;
        let bie_warm_image = optional_vec()?;
        let dt_state = {
            let dt = r.get_f64()?;
            let clean_steps = r.get_usize()?;
            let n_frozen = r.get_usize()?;
            let mut frozen = Vec::with_capacity(n_frozen.min(1 << 20));
            for _ in 0..n_frozen {
                frozen.push(r.get_bool()?);
            }
            DtState {
                dt,
                clean_steps,
                frozen,
            }
        };
        if r.remaining() != 0 {
            return Err(CodecError(format!("{} trailing bytes", r.remaining())));
        }
        Ok(Checkpoint {
            scenario,
            steps,
            basis_p,
            config,
            timers,
            vessel_digest,
            cells,
            bie_warm,
            bie_warm_image,
            dt_state,
        })
    }

    /// Writes the checkpoint to `path` (atomically: temp file + rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads a checkpoint from `path`.
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Restores the captured state into a freshly built simulation of the
    /// same scenario: replaces cells, config, step counter, and timers.
    /// The live simulation's `threads` knob is kept — thread count is an
    /// execution detail, not trajectory state (every parallel stage is
    /// bit-identical across thread counts), so a checkpoint written at
    /// N threads restores cleanly into a 1-thread run and vice versa.
    ///
    /// Fails if the basis order or the vessel digest disagrees — that means
    /// the scenario was rebuilt differently from the checkpointed run and a
    /// bit-identical continuation is impossible — and, naming the cell, if a
    /// cell's coefficients or reference weights do not fit the basis or its
    /// parameters are out of range ([`vesicle::CellParams::validate`]).
    pub fn restore_into(&self, sim: &mut Simulation) -> Result<(), CodecError> {
        if sim.basis.p != self.basis_p {
            return Err(CodecError(format!(
                "basis order mismatch: checkpoint p={}, simulation p={}",
                self.basis_p, sim.basis.p
            )));
        }
        let grid = sim.basis.grid_size();
        for (i, cell) in self.cells.iter().enumerate() {
            if let Some(c) = cell.coeffs.iter().find(|c| c.p != self.basis_p) {
                return Err(CodecError(format!(
                    "cell {i}: coefficient order {} does not match basis order {}",
                    c.p, self.basis_p
                )));
            }
            if cell.ref_w.len() != grid {
                return Err(CodecError(format!(
                    "cell {i}: {} reference area weights for a {grid}-node grid",
                    cell.ref_w.len()
                )));
            }
            cell.params
                .validate()
                .map_err(|e| CodecError(format!("cell {i}: {}", e.0)))?;
        }
        let digest = sim.vessel.as_ref().map(vessel_digest).unwrap_or(0);
        if digest != self.vessel_digest {
            return Err(CodecError(format!(
                "vessel digest mismatch: checkpoint {:#018x}, rebuilt domain {digest:#018x}",
                self.vessel_digest
            )));
        }
        sim.cells = self.cells.clone();
        let threads = sim.config.threads;
        sim.config = self.config;
        sim.config.threads = threads;
        sim.steps = self.steps;
        sim.timers = self.timers;
        sim.last_stats = Default::default();
        sim.bie_warm = self.bie_warm.clone();
        sim.bie_warm_image = self.bie_warm_image.clone();
        sim.dt_state = self.dt_state.clone();
        sim.last_health = Vec::new();
        Ok(())
    }

    /// Convenience: capture-and-save in one call.
    pub fn write(sim: &Simulation, scenario: &str, path: &Path) -> io::Result<()> {
        Checkpoint::capture(sim, scenario).save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Vec3;
    use sphharm::SphBasis;
    use vesicle::{biconcave_coeffs, CellParams};

    fn two_cell_sim() -> Simulation {
        let basis = SphBasis::new(6);
        let params = CellParams {
            kappa_b: 0.02,
            ..Default::default()
        };
        let cells = vec![
            Cell::new(
                &basis,
                biconcave_coeffs(&basis, 1.0, Vec3::new(-1.3, 0.0, 0.2)),
                params,
            ),
            Cell::new(
                &basis,
                biconcave_coeffs(&basis, 1.0, Vec3::new(1.3, 0.0, -0.2)),
                params,
            ),
        ];
        let config = SimConfig {
            dt: 0.015,
            shear_rate: 0.8,
            ..Default::default()
        };
        Simulation::new(basis, cells, None, config)
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let mut sim = two_cell_sim();
        sim.steps = 17;
        sim.timers.col = 1.25;
        // mid-backoff controller state must round-trip bit-exactly
        sim.dt_state = DtState {
            dt: 0.015 / 4.0,
            clean_steps: 3,
            frozen: vec![true, false],
        };
        sim.config.dt_control.grow_after = 7;
        let ckpt = Checkpoint::capture(&sim, "shear_pair");
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.scenario, "shear_pair");
        assert_eq!(back.steps, 17);
        assert_eq!(back.basis_p, 6);
        assert_eq!(back.config.dt, 0.015);
        assert_eq!(back.config.shear_rate, 0.8);
        assert_eq!(back.timers.col, 1.25);
        assert_eq!(back.cells.len(), 2);
        for (a, b) in back.cells.iter().zip(&sim.cells) {
            for c in 0..3 {
                assert_eq!(a.coeffs[c].data, b.coeffs[c].data);
            }
        }
        assert_eq!(back.dt_state.dt, 0.015 / 4.0);
        assert_eq!(back.dt_state.clean_steps, 3);
        assert_eq!(back.dt_state.frozen, vec![true, false]);
        assert_eq!(back.config.dt_control.grow_after, 7);
    }

    #[test]
    fn v2_checkpoint_rejected_with_version_error() {
        let sim = two_cell_sim();
        // the pre-adaptive-dt format, the format whose config still carried
        // the collision switch, backoff floor and retry shape, the one
        // whose cells still carried the self-operator options, and the one
        // without the warm density's image
        for old in [b'2', b'3', b'4', b'5'] {
            let mut bytes = Checkpoint::capture(&sim, "x").to_bytes();
            bytes[7] = old;
            let err = Checkpoint::from_bytes(&bytes).unwrap_err().to_string();
            assert!(
                err.contains(&format!("version {}", old as char)),
                "error should name the file's version: {err}"
            );
            assert!(
                err.contains("version 6"),
                "error should name the supported version: {err}"
            );
        }
    }

    #[test]
    fn warm_density_and_its_image_round_trip_bit_exactly() {
        let mut sim = two_cell_sim();
        let warm = vec![0.25, -1.5, 3.0, f64::MIN_POSITIVE];
        let image = vec![-0.0, 7.5e-300, 1.0 / 3.0, -2.0];
        sim.bie_warm = Some(warm.clone());
        sim.bie_warm_image = Some(image.clone());
        let back = Checkpoint::from_bytes(&Checkpoint::capture(&sim, "x").to_bytes()).unwrap();
        let bits = |v: &Option<Vec<f64>>| {
            v.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&back.bie_warm), bits(&Some(warm)));
        assert_eq!(bits(&back.bie_warm_image), bits(&Some(image)));
        let mut other = two_cell_sim();
        back.restore_into(&mut other).unwrap();
        assert_eq!(bits(&other.bie_warm_image), bits(&sim.bie_warm_image));
        // a density without its image stays without one
        sim.bie_warm_image = None;
        let back = Checkpoint::from_bytes(&Checkpoint::capture(&sim, "x").to_bytes()).unwrap();
        assert!(back.bie_warm.is_some() && back.bie_warm_image.is_none());
        back.restore_into(&mut other).unwrap();
        assert!(other.bie_warm_image.is_none());
    }

    #[test]
    fn restore_replaces_evolving_state() {
        let mut sim = two_cell_sim();
        let ckpt = Checkpoint::capture(&sim, "shear_pair");
        // drift the live sim
        sim.cells[0].translate(&sim.basis, Vec3::new(9.0, 0.0, 0.0));
        sim.steps = 99;
        ckpt.restore_into(&mut sim).unwrap();
        assert_eq!(sim.steps, ckpt.steps);
        let c = sim.cells[0].geometry(&sim.basis).centroid();
        assert!((c.x - (-1.3)).abs() < 1e-8, "centroid not restored: {c:?}");
    }

    #[test]
    fn basis_mismatch_rejected() {
        let sim = two_cell_sim();
        let ckpt = Checkpoint::capture(&sim, "x");
        let mut other = Simulation::new(SphBasis::new(8), Vec::new(), None, SimConfig::default());
        assert!(ckpt.restore_into(&mut other).is_err());
        // a cell whose coefficient order or reference weights disagree with
        // the checkpoint's basis is rejected by index, not handed on
        let foreign = SphBasis::new(8);
        let order8 = Cell::new(
            &foreign,
            biconcave_coeffs(&foreign, 1.0, Vec3::ZERO),
            CellParams::default(),
        );
        let mut short_w = ckpt.cells[0].clone();
        short_w.ref_w.pop();
        // cell parameters out of range
        let with = |f: fn(&mut CellParams)| {
            let mut c = ckpt.cells[0].clone();
            f(&mut c.params);
            c
        };
        let mut sim = two_cell_sim();
        for (bad, names) in [
            (order8, "coefficient order 8"),
            (short_w, "reference area"),
            (with(|p| p.kappa_b = -1.0), "kappa_b"),
            (with(|p| p.k_area = f64::NAN), "k_area"),
            (with(|p| p.mu = 0.0), "mu"),
            (with(|p| p.mu = f64::INFINITY), "mu"),
        ] {
            let mut c = Checkpoint::capture(&sim, "x");
            c.cells[1] = bad;
            let e = c.restore_into(&mut sim).unwrap_err().0;
            assert!(e.starts_with("cell 1:") && e.contains(names), "{e}");
        }
    }

    /// Every proper prefix of a two-cell checkpoint (with a warm-start
    /// density, its image and frozen flags, so every section is present)
    /// is an error, never a panic.
    #[test]
    fn every_proper_prefix_is_rejected() {
        let mut sim = two_cell_sim();
        sim.bie_warm = Some(vec![0.25, -1.5, 3.0]);
        sim.bie_warm_image = Some(vec![1.0, 2.0, -0.5]);
        sim.dt_state.frozen = vec![false, true];
        let bytes = Checkpoint::capture(&sim, "shear_pair").to_bytes();
        assert!(Checkpoint::from_bytes(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "a {len}-byte prefix of {} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn corrupt_magic_rejected() {
        let sim = two_cell_sim();
        let mut bytes = Checkpoint::capture(&sim, "x").to_bytes();
        bytes[0] = b'X';
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }
}
