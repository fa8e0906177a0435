//! The scenario registry: every runnable workload, in one place.
//!
//! A scenario is a named builder from a declarative config ([`Doc`]) to a
//! ready-to-step [`Simulation`]. The `examples/` binaries, the `sim-driver`
//! CLI, and the `benchmark/` workloads all construct domains through this
//! registry, so a scenario definition lives exactly once.
//!
//! A builder composes four shared parts — the tube vessel
//! (`straight_tube`, `tube_vessel`), the fill (`fill`), the cell train
//! (`Train`) and the tail (`tail`) — and reads its keys from the
//! config section named after it (e.g. `[shear_pair]`) through `Keys`,
//! which records each key with its default. A key of the section that the
//! scenario does not read, or a value of the wrong type, is an error.
//! Unknown scenarios list the registry in the error.
//!
//! Builders are deterministic: all randomness comes from seeded RNGs whose
//! seeds are config keys, which is what lets a checkpoint restart rebuild
//! the identical domain (verified via [`sim::vessel_digest`]).

use crate::toml::{Doc, Value};
use linalg::{GmresOptions, Vec3};
use patch::{capsule_tube, modulated_torus, BoundarySurface, Serpentine, StraightLine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{
    cells_from_seeds, fill_seeds, fill_seeds_packed, refined_surface, vessel_from_network,
    DtControl, NetworkSpec, SegmentSpec, SimConfig, Simulation, Vessel,
};
use sphharm::{SphBasis, SphCoeffs};
use std::f64::consts::PI;
use vesicle::{biconcave_coeffs, rotated_coeffs, sphere_coeffs, Cell, CellParams};

/// A registered scenario.
pub struct ScenarioSpec {
    /// Registry name (also the config section the builder reads).
    pub name: &'static str,
    /// One-line description for `sim-driver list`.
    pub summary: &'static str,
    /// Builder from the scenario's config section to a ready simulation.
    pub(crate) build: fn(&mut Keys) -> Result<Built, String>,
}

/// A built scenario: the simulation plus its per-step policy.
pub struct Built {
    /// The ready-to-step simulation.
    pub sim: Simulation,
    /// Whether the run loop should recycle outlet cells into the inlet
    /// after each step (§5.1 — vessel-flow style scenarios).
    pub recycle: bool,
}

/// All registered scenarios.
pub fn registry() -> &'static [ScenarioSpec] {
    &[
        ScenarioSpec {
            name: "shear_pair",
            summary: "two RBCs overtaking in linear shear, free space (Fig. 10)",
            build: build_shear_pair,
        },
        ScenarioSpec {
            name: "sedimentation",
            summary: "cells settling under gravity in a closed vertical capsule (Fig. 7)",
            build: build_sedimentation,
        },
        ScenarioSpec {
            name: "vessel_flow",
            summary:
                "confined flow through a serpentine vessel with inlet/outlet + recycling (Fig. 1)",
            build: build_vessel_flow,
        },
        ScenarioSpec {
            name: "dense_fill",
            summary: "dense RBC suspension filling a modulated torus, walls only (Fig. 8)",
            build: build_dense_fill,
        },
        ScenarioSpec {
            name: "dense_fill_packed",
            summary:
                "rouleau column at paper-scale ~40% hematocrit in a snug tube (adaptive-dt stress)",
            build: build_dense_fill_packed,
        },
        ScenarioSpec {
            name: "poiseuille_train",
            summary: "a train of cells advected by Poiseuille inflow in a straight tube",
            build: build_poiseuille_train,
        },
        ScenarioSpec {
            name: "random_suspension",
            summary:
                "randomly oriented cells on a jittered lattice in background shear, free space",
            build: build_random_suspension,
        },
        ScenarioSpec {
            name: "bifurcation",
            summary:
                "Y-bifurcation vessel with flux-balanced ports splitting a cell train (§6 networks)",
            build: build_bifurcation,
        },
        ScenarioSpec {
            name: "vessel_ladder",
            summary:
                "one rung of the tube-diameter ladder: straight tube at fixed flux (Fåhræus–Lindqvist)",
            build: build_vessel_ladder,
        },
    ]
}

/// Looks up and builds a scenario by name, then rejects any key of its
/// section that the build did not read.
pub fn build(name: &str, cfg: &Doc) -> Result<Built, String> {
    let spec = registry().iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        format!("unknown scenario `{name}`; available: {}", names.join(", "))
    })?;
    let (built, mut keys) = spec.record(cfg);
    if built.is_err() {
        // a failed build stopped reading early: the scenario's keys are
        // those it read before failing and those a default build reads, so
        // a typo is reported as such, not as what its default broke
        keys.read.extend(spec.record(&Doc::default()).1.read);
    }
    let known: Vec<&str> = keys.read.iter().map(|(key, _)| *key).collect();
    match cfg.keys(name).into_iter().find(|key| !known.contains(key)) {
        None => built,
        // keys that no longer exist name what replaced them
        Some(key @ "bie_fmm") => Err(format!(
            "{name}: `{key}` was replaced by `bie_backend` (\"auto\", \"dense\", or \"fmm\")"
        )),
        Some(key @ "bie_fmm_leaf_capacity") => Err(format!(
            "{name}: `{key}` was removed; the wall FMM sizes its leaves with `fmm::FmmOptions::default()`"
        )),
        Some(key @ "bie_precond") => Err(format!(
            "{name}: `{key}` was removed; the wall solve runs unpreconditioned GMRES (see crates/bie/README.md)"
        )),
        Some(key) => Err(format!(
            "{name}: unknown key `{key}`; {name} reads {}",
            known.join(", ")
        )),
    }
}

impl ScenarioSpec {
    /// Runs the builder on `cfg`, returning what it built and the keys it read.
    fn record<'a>(&self, cfg: &'a Doc) -> (Result<Built, String>, Keys<'a>) {
        let mut keys = Keys {
            doc: cfg,
            sec: self.name,
            read: Vec::new(),
        };
        ((self.build)(&mut keys), keys)
    }
}

/// Typed reads from one scenario's config section, each recorded with the
/// default it was read with. A given value of the wrong type, or out of a
/// key's bounds, is an error naming the section, the key, the expected
/// type or bounds and the value.
pub(crate) struct Keys<'a> {
    doc: &'a Doc,
    sec: &'static str,
    read: Vec<(&'static str, Value)>,
}

impl Keys<'_> {
    fn read<T>(
        &mut self,
        key: &'static str,
        default: Value,
        expected: &str,
        view: impl Fn(&Value) -> Option<T>,
    ) -> Result<T, String> {
        let value = view(self.doc.get(self.sec, key).unwrap_or(&default));
        self.read.push((key, default));
        let ok = value.is_some();
        let value = self.bound(key, value, ok, expected)?;
        Ok(value.expect("a default fits its own type"))
    }

    fn f64(&mut self, key: &'static str, default: f64) -> Result<f64, String> {
        self.read(key, Value::Float(default), "a number", Value::as_f64)
    }

    fn usize(&mut self, key: &'static str, default: usize) -> Result<usize, String> {
        let expected = "a non-negative integer";
        self.read(key, Value::Int(default as i64), expected, Value::as_usize)
    }

    /// `value`, just read for `key`, if it is `ok`; else an error naming
    /// the values `expected` describes and the value given (a default is
    /// always `ok`).
    fn bound<T>(&self, key: &str, value: T, ok: bool, expected: &str) -> Result<T, String> {
        let sec = self.sec;
        match self.doc.get(sec, key) {
            Some(given) if !ok => Err(format!("{sec}: `{key}` expects {expected}, got {given:?}")),
            _ => Ok(value),
        }
    }

    /// A finite number > 0.
    fn positive(&mut self, key: &'static str, default: f64) -> Result<f64, String> {
        self.above(key, default, 0.0)
    }

    /// A finite number > `min`.
    fn above(&mut self, key: &'static str, default: f64, min: f64) -> Result<f64, String> {
        let x = self.f64(key, default)?;
        let expected = format!("a finite number > {min}");
        self.bound(key, x, x.is_finite() && x > min, &expected)
    }

    /// A number in `[0, 1)`.
    fn fraction(&mut self, key: &'static str, default: f64) -> Result<f64, String> {
        let x = self.f64(key, default)?;
        self.bound(key, x, (0.0..1.0).contains(&x), "a number in [0, 1)")
    }

    /// A finite number ≥ 0.
    fn non_negative(&mut self, key: &'static str, default: f64) -> Result<f64, String> {
        let x = self.f64(key, default)?;
        self.bound(key, x, x.is_finite() && x >= 0.0, "a finite number ≥ 0")
    }

    /// An integer of at least `min`.
    fn at_least(&mut self, key: &'static str, default: usize, min: usize) -> Result<usize, String> {
        let n = self.usize(key, default)?;
        self.bound(key, n, n >= min, &format!("an integer ≥ {min}"))
    }

    fn bool(&mut self, key: &'static str, default: bool) -> Result<bool, String> {
        self.read(key, Value::Bool(default), "true or false", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The index of the given string in `options` (default: the first).
    fn choice(&mut self, key: &'static str, options: &[&str]) -> Result<usize, String> {
        let (doc, sec) = (self.doc, self.sec);
        let index = |v: &Value| match v {
            Value::Str(s) => options.iter().position(|o| o == s),
            _ => None,
        };
        let default = Value::Str(options[0].into());
        self.read(key, default, "", index).map_err(|_| {
            let given = doc.get(sec, key).expect("the default is an option");
            format!(
                "{sec}: unknown {key} {given:?} (expected {})",
                options.join(", ")
            )
        })
    }
}

/// The tail of every scenario: the simulation from the scenario's parts
/// and the `SimConfig` read from its section with the scenario's `step`
/// defaults — `dt`, `collision_delta`, `shear_rate` and, for scenarios
/// driven by gravity, `gravity_z`, the z component of the body force
/// (other scenarios do not read the key). `recycle` is the default of the
/// `recycle` key, `None` where the scenario has no outlet to recycle cells
/// through (the key is then not read).
///
/// Adaptive time-step knobs (all optional; see [`sim::DtControl`]):
/// `dt_adaptive` (default true), `dt_grow_after`, `dt_max_stretch`,
/// `dt_max_vol_drift`.
///
/// Parallelism: `threads` (default 0 = available parallelism) pins every
/// parallel stage of `Simulation::step` to that many workers. Trajectories
/// are bit-identical at any thread count; the knob only trades wall time,
/// so it is also settable from the CLI via `sim-driver --threads`.
fn tail(
    k: &mut Keys,
    basis: SphBasis,
    cells: Vec<Cell>,
    vessel: Option<Vessel>,
    recycle: Option<bool>,
    step: (f64, f64, f64, Option<f64>),
) -> Result<Built, String> {
    let (dt, collision_delta, shear_rate, gravity_z) = step;
    let recycle = match recycle {
        Some(r) => k.bool("recycle", r)?,
        None => false,
    };
    let gravity = match gravity_z {
        Some(z) => Vec3::new(0.0, 0.0, k.f64("gravity_z", z)?),
        None => Vec3::ZERO,
    };
    let dtc = DtControl::default();
    let config = SimConfig {
        dt: k.positive("dt", dt)?,
        collision_delta: k.positive("collision_delta", collision_delta)?,
        shear_rate: k.f64("shear_rate", shear_rate)?,
        gravity,
        dt_control: DtControl {
            enabled: k.bool("dt_adaptive", dtc.enabled)?,
            grow_after: k.usize("dt_grow_after", dtc.grow_after)?,
            // an undeformed cell's stretch is 1: a bound at or below it
            // fails every attempt and freezes every cell
            max_stretch: k.above("dt_max_stretch", dtc.max_stretch, 1.0)?,
            max_volume_drift: k.positive("dt_max_vol_drift", dtc.max_volume_drift)?,
        },
        threads: k.usize("threads", 0)?,
        ..Default::default()
    };
    Ok(Built {
        sim: Simulation::new(basis, cells, vessel, config),
        recycle,
    })
}

fn cell_params(k: &mut Keys, kappa_b: f64, k_area: f64) -> Result<CellParams, String> {
    Ok(CellParams {
        kappa_b: k.non_negative("kappa_b", kappa_b)?,
        k_area: k.non_negative("k_area", k_area)?,
        ..Default::default()
    })
}

/// The coarse straight tube: a capsule of `radius` along the line from the
/// origin to `b`, with the scenario's `tube_segments` and `patch_order`
/// defaults.
fn straight_tube(
    k: &mut Keys,
    b: Vec3,
    radius: f64,
    segments: usize,
    q: usize,
) -> Result<BoundarySurface, String> {
    let line = StraightLine { a: Vec3::ZERO, b };
    let segments = k.at_least("tube_segments", segments, 1)?;
    let q = k.at_least("patch_order", q, 2)?;
    Ok(capsule_tube(&line, radius, segments, q))
}

/// The tube-vessel part: the coarse surface refined `wall_refine` levels
/// ([`patch::BoundarySurface::refine`]; each level splits every patch in
/// 4), with inflow peak `peak` (0 = no inflow). The scenario's `refine`
/// default is 0, the coarse layout, except for `vessel_flow` — the
/// headline confined-flow run — which defaults to 1 now that the
/// persistent wall FMM makes the refined operator affordable per step.
///
/// Collision-mesh sampling per patch under refinement: `col_m` halves per
/// level (floor 3) so the *total* wall collision-vertex count stays
/// roughly constant — refinement sharpens the boundary operator, not the
/// contact mesh, and carrying `col_m²` vertices on 4× the patches per
/// level would blow up the COL broad phase for nothing.
fn tube_vessel(
    k: &mut Keys,
    coarse: &BoundarySurface,
    refine: usize,
    peak: f64,
    col_m: usize,
) -> Result<Vessel, String> {
    let refine = k.usize("wall_refine", refine)? as u32;
    // refinement goes through the process-wide shared cache (sim::caches):
    // farm jobs and checkpoint-restore rebuilds of the same geometry reuse
    // one immutable refined copy instead of re-fitting 4^levels patches
    let surface = refined_surface(coarse, refine);
    let opts = bie_options(k, coarse.q, refine)?;
    let col_m = match k.at_least("col_m", col_m, 2)? {
        c if refine == 0 => c,
        c => (c >> refine).max(3),
    };
    Ok(Vessel::new((*surface).clone(), 1.0, opts, peak, col_m))
}

/// Boundary-solver options shared by the vessel scenarios.
///
/// The check-point family of a node spans `(1 + p_extrap) · check_r · L̂`
/// along the inward normal, and the first check point sits `check_r · L̂`
/// off the wall. Two constraints fight over `check_r`:
///
/// - *stay inside the lumen*: `(1 + p_extrap) · check_r · L̂ ≲ 0.6·radius`,
///   or the far check points cross into the near-singular zone of the
///   opposite wall and the extrapolated interior limit turns garbage (the
///   seed harness ran every vessel solve into its iteration cap this way);
/// - *stay resolved by the fine quadrature*: `check_r · L̂ ≳ 3 h_fine`, or
///   the potential at the nearest check point is itself quadrature noise.
///
/// `h_fine ∝ L̂`, so the second constraint pins `check_r` from below
/// *independently of refinement* while the first caps `check_r · L̂`
/// absolutely. On the coarse registry vessels (`L̂` ≈ tube radius) no value
/// satisfies both; the default `check_r = 0.06` picks lumen safety and
/// accepts the ~0.7-relative operator error recorded in ROADMAP.md. With
/// `wall_refine ≥ 1` the patch size halves per level, the lumen constraint
/// relaxes, and the default switches to the paper's production
/// `check_r = 0.15` — which is what actually makes the analytic-tube error
/// converge (see `crates/bie/tests/accuracy.rs`).
///
/// Refinement alone leaves the second constraint binding at
/// `check_r = 0.15` (`R ≈ 1.3 h_fine` at `qf = q = 8`), flooring the
/// analytic-tube error near 2e-2; the refined defaults therefore also
/// raise the fine order to `bie_qf = q + 4`, which halves `h_fine`
/// (`R ≈ 2.1 h_fine`) and buys another ~10× (measured by `bie`'s
/// example `tube_accuracy`). `bie_tol` tightens with it: the
/// unrefined solves floor near 2e-2 relative (the stall check is what
/// stops them, not the nominal `1e-5`), while the refined configuration
/// reaches ~1e-3 on *resolvable* boundary data — its `2e-3` default is
/// attainable on smooth fields (the analytic suite converges to it in
/// 3–4 iterations). Scenario port boundary data is rim-smooth (the
/// mollified quartic profile of [`sim::Vessel::new`] replaced the
/// parabolic one whose O(1) seam jump floored refined residuals at ~0.4
/// regardless of `wall_refine`), which cut the refined cell-free floor
/// ~4× to ~0.11 — but through-flow data still excites a slowly
/// converging spectral tail, so vessel solves sit at the stall check
/// rather than `bie_tol` at practical iteration budgets (the probe
/// record lives on `sim::domain`'s
/// `refined_serpentine_port_floor_improved` test; the spectrum study of
/// ROADMAP item 1 is the open item).
fn bie_options(k: &mut Keys, q: usize, refine: u32) -> Result<bie::BieOptions, String> {
    let refined = refine > 0;
    // check_r = 0 puts the check points on the wall
    let check_r = k.positive("bie_check_r", if refined { 0.15 } else { 0.06 })?;
    let qf = k.usize("bie_qf", if refined { q + 4 } else { 0 })?;
    let qf = k.bound("bie_qf", qf, qf != 1, "0 or an integer ≥ 2")?;
    // matvec/eval FMM tuning. The refined path defaults to order 4: the
    // quadrature floor sits near 1e-3, so the ~4e-4 operator error of
    // order 6 buys nothing over order 4's (see the per-order ladder in
    // crates/bie/tests/tube.rs), while the smaller equivalent surfaces
    // roughly halve the M2L work per solve. Unrefined solves keep the
    // library default (order 6), whose extra digits are free at those
    // patch counts because they run dense anyway.
    let mut fmm = bie::FmmOptions::default();
    fmm.order = k.at_least("bie_fmm_order", if refined { 4 } else { fmm.order }, 2)?;
    use bie::MatvecBackend::{Auto, Dense, Fmm};
    let backend = [Auto, Dense, Fmm][k.choice("bie_backend", &["auto", "dense", "fmm"])?];
    Ok(bie::BieOptions {
        backend,
        qf,
        fmm,
        gmres: GmresOptions {
            tol: k.positive("bie_tol", if refined { 2e-3 } else { 1e-5 })?,
            max_iters: k.at_least("bie_max_iters", 30, 1)?,
            // vessel rhs from near-wall cells carries content beyond the
            // quadrature's resolution, flooring the residual; stop the
            // iteration when it stops improving instead of burning the cap
            // (0 disables the check)
            stall_ratio: k.fraction("bie_stall", 0.9)?,
            // short cycles so the cross-cycle (true-residual) stagnation
            // check engages: the Arnoldi estimate alone cannot see the
            // floor from a warm start
            restart: 10,
            ..Default::default()
        },
        check_r,
        p_extrap: k.usize("bie_p_extrap", 5)?,
        ..Default::default()
    })
}

/// The fill part (§5.1): cells grown from a seed lattice of spacing
/// `fill_h` through the coarse vessel, with the scenario's defaults for
/// `fill_h`, `fill_margin` and `seed`. Where the scenario is `packable`,
/// `fill_packed = true` switches to the BCC double-lattice filler with
/// individual freeze growth (~1.5× the cubic fill's packing); elsewhere
/// the key is not read.
///
/// Cells are seeded from the *unrefined* surface: refinement reproduces
/// the same geometry, but keeping the seed lattice's accept/reject tests on
/// the coarse patch layout makes the initial packing bit-identical across
/// `wall_refine` levels (so accuracy/cost comparisons share one initial
/// condition).
fn fill(
    k: &mut Keys,
    coarse: &BoundarySurface,
    basis: &SphBasis,
    h: f64,
    margin: f64,
    seed: usize,
    packable: bool,
) -> Result<Vec<Cell>, String> {
    let bcc = packable && k.bool("fill_packed", false)?;
    let fill = if bcc { fill_seeds_packed } else { fill_seeds };
    let seeds = fill(
        coarse,
        k.positive("fill_h", h)?,
        k.positive("fill_margin", margin)?,
    );
    if seeds.is_empty() {
        return Err(format!("{}: no cells fit (raise fill_h)", k.sec));
    }
    let mut rng = StdRng::seed_from_u64(k.usize("seed", seed)? as u64);
    let params = cell_params(k, 0.01, 1.0)?;
    Ok(cells_from_seeds(basis, &seeds, params, &mut rng))
}

/// A uniform offset in `[-amount, amount)³`, drawn x, y, z from `rng`.
/// `amount = 0` is a valid unjittered run and draws nothing (the shim's
/// `random_range` rejects empty ranges).
fn jitter(rng: &mut StdRng, amount: f64) -> Vec3 {
    if amount > 0.0 {
        let mut draw = || rng.random_range(-amount..amount);
        Vec3::new(draw(), draw(), draw())
    } else {
        Vec3::ZERO
    }
}

/// A cell shape: coefficients of a cell of radius `r` centred at a point.
type Shape = fn(&SphBasis, f64, Vec3) -> [SphCoeffs; 3];

/// The cell-train part: `n_cells` cells of radius `cell_radius` in single
/// file, `spacing` apart.
struct Train {
    n: usize,
    r: f64,
    spacing: f64,
}

impl Train {
    /// Reads the train; `spacing` maps the cell radius to its default.
    fn read(k: &mut Keys, n: usize, r: f64, spacing: fn(f64) -> f64) -> Result<Train, String> {
        let n = k.at_least("n_cells", n, 1)?;
        let r = k.positive("cell_radius", r)?;
        let spacing = k.f64("spacing", spacing(r))?;
        Ok(Train { n, r, spacing })
    }

    /// The cells, cell `i` centred at `start + i·spacing·dir`, once they
    /// are checked against the vessel: `fit = (narrow, room)` — the cells
    /// must fit its narrowest radius `narrow` (less any offset off the
    /// axis), the train's span the `room` it leaves along the axis.
    fn cells(
        &self,
        k: &mut Keys,
        basis: &SphBasis,
        (narrow, room): (f64, f64),
        start: Vec3,
        dir: Vec3,
        mut shape: impl FnMut(&SphBasis, f64, Vec3) -> [SphCoeffs; 3],
    ) -> Result<Vec<Cell>, String> {
        let (sec, r) = (k.sec, self.r);
        let span = self.spacing * (self.n - 1) as f64 + 2.0 * r;
        if r >= narrow {
            return Err(format!(
                "{sec}: cell_radius {r} does not fit radius {narrow}"
            ));
        }
        if span > room {
            return Err(format!("{sec}: train span {span:.2} exceeds room {room}"));
        }
        let params = cell_params(k, 0.01, 1.0)?;
        let step = dir * self.spacing;
        let centre = |i: usize| start + step * i as f64;
        let cell = |i| Cell::new(basis, shape(basis, r, centre(i)), params);
        Ok((0..self.n).map(cell).collect())
    }

    /// The train centred along the +x axis of a straight tube of `length`
    /// and radius `tube_r`, `radial_offset` off the axis.
    fn centred(
        &self,
        k: &mut Keys,
        basis: &SphBasis,
        length: f64,
        tube_r: f64,
        shape: Shape,
    ) -> Result<Vec<Cell>, String> {
        let offset = k.f64("radial_offset", 0.0)?;
        let x0 = 0.5 * (length - self.spacing * (self.n - 1) as f64);
        let (start, dir) = (Vec3::new(x0, 0.0, offset), Vec3::new(1.0, 0.0, 0.0));
        self.cells(k, basis, (tube_r - offset.abs(), length), start, dir, shape)
    }
}

/// Two cells offset in z inside the linear shear `u = [γ̇ z, 0, 0]`; the
/// upper cell overtakes the lower one with contact handling keeping them
/// apart (ported from `examples/src/shear_pair.rs`).
fn build_shear_pair(k: &mut Keys) -> Result<Built, String> {
    let basis = SphBasis::new(k.at_least("order", 12, 1)?);
    let params = cell_params(k, 0.02, 2.0)?;
    let sep = k.f64("separation_x", 1.4)?;
    let off = k.f64("offset_z", 0.25)?;
    let radius = k.positive("cell_radius", 1.0)?;
    let cell = |c| Cell::new(&basis, biconcave_coeffs(&basis, radius, c), params);
    let cells = vec![
        cell(Vec3::new(-sep, 0.0, off)),
        cell(Vec3::new(sep, 0.0, -off)),
    ];
    tail(k, basis, cells, None, None, (0.02, 0.05, 1.0, None))
}

/// A closed vertical capsule filled with cells settling under gravity
/// (ported from `examples/src/sedimentation.rs`).
fn build_sedimentation(k: &mut Keys) -> Result<Built, String> {
    let length = k.positive("tube_length", 6.0)?;
    let radius = k.positive("tube_radius", 1.6)?;
    let coarse = straight_tube(k, Vec3::new(0.0, 0.0, length), radius, 3, 8)?;
    let vessel = tube_vessel(k, &coarse, 0, 0.0, 10)?;
    let basis = SphBasis::new(k.at_least("order", 8, 1)?);
    let cells = fill(k, &coarse, &basis, 0.95, 0.95, 7, true)?;
    let step = (0.02, 0.06, 0.0, Some(-4.0));
    tail(k, basis, cells, Some(vessel), None, step)
}

/// Serpentine vessel with parabolic inflow/outflow, cell recycling active —
/// the headline confined-flow setup (ported from
/// `examples/src/vessel_flow.rs`).
fn build_vessel_flow(k: &mut Keys) -> Result<Built, String> {
    let c = Serpentine {
        length: k.f64("length", 8.0)?,
        amp: k.f64("amp", 0.7)?,
        windings: k.f64("windings", 1.0)?,
    };
    let radius = k.positive("tube_radius", 1.1)?;
    let q = k.at_least("patch_order", 8, 2)?;
    let coarse = capsule_tube(&c, radius, k.at_least("tube_segments", 5, 1)?, q);
    let peak = k.f64("peak_speed", 1.0)?;
    let vessel = tube_vessel(k, &coarse, 1, peak, 10)?;
    let basis = SphBasis::new(k.at_least("order", 8, 1)?);
    let cells = fill(k, &coarse, &basis, 1.1, 0.9, 11, false)?;
    let step = (0.01, 0.05, 0.0, None);
    tail(k, basis, cells, Some(vessel), Some(true), step)
}

/// A modulated torus (stenosed loop) densely packed with cells — the
/// vessel-filling stress test of Fig. 8 turned into a steppable run
/// (ported from `examples/src/fill_vessel.rs`; the torus has no ports, so
/// the flow is driven purely by gravity / cell interactions).
fn build_dense_fill(k: &mut Keys) -> Result<Built, String> {
    let q = k.at_least("patch_order", 8, 2)?;
    let coarse = modulated_torus(
        k.f64("big_r", 4.0)?,
        k.f64("small_r", 1.0)?,
        k.f64("amp", 0.25)?,
        k.usize("lobes", 4)? as u32,
        k.usize("nu", 16)?,
        k.usize("nv", 6)?,
        q,
    );
    let vessel = tube_vessel(k, &coarse, 0, 0.0, 10)?;
    let basis = SphBasis::new(k.at_least("order", 8, 1)?);
    let cells = fill(k, &coarse, &basis, 0.7, 0.95, 3, true)?;
    let step = (0.01, 0.05, 0.0, Some(-1.0));
    tail(k, basis, cells, Some(vessel), None, step)
}

/// The high-hematocrit stability workload: a rouleau column — biconcave
/// cells stacked face-to-face, the configuration RBCs actually take at
/// high hematocrit — settling in a snug capsule tube at paper-scale ~40%
/// volume fraction. The flat cell shape (measured reduced volume ≈ 0.38)
/// is what makes 40% reachable with a modest cell count: a sphere-grown
/// random packing of biconcave cells tops out near ~30% (see
/// [`fill_seeds_packed`]), but face-to-face stacking fills the lumen the
/// way the paper's dense suspensions do. Gravity compacts the stack, so
/// within a few steps the column runs wall-to-wall and face-to-face
/// against the collision δ — the sustained-crowding regime where a single
/// diverging implicit update used to poison the whole trajectory, and the
/// reason this scenario exists: it runs under the adaptive-Δt gate
/// (enabled by default) as the standing stability acceptance test.
fn build_dense_fill_packed(k: &mut Keys) -> Result<Built, String> {
    // face-to-face spacing: cell axial full thickness is ≈ 0.63·r, so the
    // default 0.88·r leaves ≈ 0.25·r between facing rims — clear of the
    // collision δ at rest, closed by gravity within a few steps
    let train = Train::read(k, 14, 1.0, |r| 0.88 * r)?;
    let tube_r = k.positive("tube_radius", 1.12 * train.r)?;
    let margin = k.f64("end_margin", 0.55 * train.r)?;
    let length = 2.0 * margin + train.spacing * (train.n - 1) as f64;
    let segments = ((length / 2.0).ceil() as usize).max(2);
    let coarse = straight_tube(k, Vec3::new(0.0, 0.0, length), tube_r, segments, 6)?;
    let vessel = tube_vessel(k, &coarse, 0, 0.0, 8)?;
    let basis = SphBasis::new(k.at_least("order", 6, 1)?);
    // deterministic sub-collision-δ jitter so the column is not perfectly
    // axisymmetric (a perfect rouleau settles degenerately)
    let amount = k.f64("jitter", 0.03 * train.r)?;
    let mut rng = StdRng::seed_from_u64(k.usize("seed", 5)? as u64);
    let (start, dir) = (Vec3::new(0.0, 0.0, margin), Vec3::new(0.0, 0.0, 1.0));
    // the tube is sized to the column, so only the radius can fail to fit
    let fit = (tube_r, f64::INFINITY);
    let cells = train.cells(k, &basis, fit, start, dir, |basis, r, c| {
        biconcave_coeffs(basis, r, c + jitter(&mut rng, amount))
    })?;
    let step = (0.01, 0.05, 0.0, Some(-3.0));
    tail(k, basis, cells, Some(vessel), None, step)
}

/// A single-file train of biconcave cells in a straight tube, advected by
/// parabolic (Poiseuille) inflow — the axisymmetric margination baseline.
fn build_poiseuille_train(k: &mut Keys) -> Result<Built, String> {
    let length = k.positive("tube_length", 8.0)?;
    let tube_r = k.positive("tube_radius", 1.2)?;
    let coarse = straight_tube(k, Vec3::new(length, 0.0, 0.0), tube_r, 4, 8)?;
    let peak = k.f64("peak_speed", 1.5)?;
    let vessel = tube_vessel(k, &coarse, 0, peak, 10)?;
    let basis = SphBasis::new(k.at_least("order", 8, 1)?);
    let train = Train::read(k, 4, 0.5, |_| 1.5)?;
    let cells = train.centred(k, &basis, length, tube_r, biconcave_coeffs)?;
    let step = (0.01, 0.05, 0.0, None);
    tail(k, basis, cells, Some(vessel), Some(true), step)
}

/// A Y-bifurcation: one parent branch splitting into two daughters, built
/// by the [`sim::network`] composer with flux-balanced port boundary
/// conditions (the prescribed per-port fluxes sum to zero by
/// construction: `flux` enters the parent, `flux_split` of it leaves
/// through the first daughter, the rest through the second). A short
/// single-file train of cells is seeded in the parent branch so the run
/// exercises cell transport through the junction — the branch-hematocrit
/// observable's workload.
///
/// Geometry knobs: `parent_radius`/`parent_length`,
/// `daughter_radius`/`daughter_length`, `daughter_angle_deg` (each
/// daughter's angle off the parent's downstream direction, splayed in
/// ±y), `smoothing` (junction blend radius), `per_face` (patches per
/// cube-sphere face edge), `patch_order`.
///
/// `wall_refine` is rejected: refinement would re-fit the blended
/// junction from the *coarse* patch polynomials instead of the exact
/// surface; raise `per_face` to resolve the junction instead.
fn build_bifurcation(k: &mut Keys) -> Result<Built, String> {
    if k.doc.get(k.sec, "wall_refine").is_some() {
        // read, so the reason below is the error, not an unknown key
        k.read.push(("wall_refine", Value::Int(0)));
        return Err(
            "bifurcation: wall_refine is not supported on network vessels \
             (refinement would re-fit the junction blend from coarse patch \
             polynomials); raise per_face instead"
                .into(),
        );
    }
    let parent_r = k.f64("parent_radius", 0.5)?;
    let parent_l = k.f64("parent_length", 1.6)?;
    let daughter_r = k.f64("daughter_radius", 0.4)?;
    let daughter_l = k.f64("daughter_length", 1.5)?;
    let angle = k.f64("daughter_angle_deg", 31.0)?.to_radians();
    let flux = k.f64("flux", 1.0)?;
    if !flux.is_finite() || flux <= 0.0 {
        return Err(format!("bifurcation: flux must be > 0, got {flux}"));
    }
    let split = k.f64("flux_split", 0.55)?;
    if !(split > 0.0 && split < 1.0) {
        return Err(format!(
            "bifurcation: flux_split must be in (0, 1), got {split}"
        ));
    }
    // parent carries +x flow toward the junction at the origin; daughters
    // splay symmetrically in ±y around the continued -(-x) = downstream -x
    // direction. Port fluxes sum to zero by construction; NetworkSpec
    // re-validates and vessel_from_network makes each discrete port flux
    // exact, so the per-step imbalance assertion holds to roundoff.
    let (s, c) = (angle.sin(), angle.cos());
    let spec = NetworkSpec {
        center: Vec3::ZERO,
        segments: vec![
            SegmentSpec {
                axis: Vec3::new(1.0, 0.0, 0.0),
                length: parent_l,
                radius: parent_r,
                flux,
            },
            SegmentSpec {
                axis: Vec3::new(-c, s, 0.0),
                length: daughter_l,
                radius: daughter_r,
                flux: -split * flux,
            },
            SegmentSpec {
                axis: Vec3::new(-c, -s, 0.0),
                length: daughter_l,
                radius: daughter_r,
                flux: -(1.0 - split) * flux,
            },
        ],
        smoothing: k.f64("smoothing", 0.3 * daughter_r.min(parent_r))?,
        per_face: k.usize("per_face", 2)?,
        q: k.at_least("patch_order", 8, 2)?,
    };
    let opts = bie_options(k, spec.q, 0)?;
    let vessel = vessel_from_network(&spec, 1.0, opts, k.at_least("col_m", 6, 2)?)
        .map_err(|e| format!("bifurcation: {e}"))?;
    let basis = SphBasis::new(k.at_least("order", 6, 1)?);
    let train = Train::read(k, 2, 0.15, |r| 3.0 * r)?;
    // train along the parent axis, marching -x toward the junction; the
    // lead cell starts mid-branch, the tail stays a radius clear of the
    // inlet cap, which leaves the train the parent length less that radius
    let fit = (daughter_r.min(parent_r), parent_l - train.r);
    let start = Vec3::new(parent_l - 2.0 * train.r, 0.0, 0.0);
    let back = Vec3::new(-1.0, 0.0, 0.0);
    let cells = train.cells(k, &basis, fit, start, back, biconcave_coeffs)?;
    // `recycle_cells` tests every outlet, but the default stays off: the
    // pinned bifurcation trajectories were recorded without recycling
    let step = (0.01, 0.05, 0.0, None);
    tail(k, basis, cells, Some(vessel), Some(false), step)
}

/// One rung of the tube-diameter ladder behind the apparent-viscosity
/// (Fåhræus–Lindqvist) sweep: a straight capsule tube carrying a *fixed
/// volumetric flux* `flux` regardless of `tube_radius`, so runs at
/// different diameters are directly comparable (a sweep varies
/// `tube_radius` only). The quartic port profile of
/// [`sim::Vessel::new`] has flux `peak · π r² / 2`, so the inflow peak is
/// derived as `2·flux / (π·tube_radius²)` unless `peak_speed` overrides
/// it explicitly.
fn build_vessel_ladder(k: &mut Keys) -> Result<Built, String> {
    let length = k.f64("tube_length", 6.0)?;
    let tube_r = k.positive("tube_radius", 0.8)?;
    if length.is_nan() || length <= 2.0 * tube_r {
        return Err(format!(
            "vessel_ladder: need tube_length > 2·tube_radius, got \
             length {length}, radius {tube_r}"
        ));
    }
    let flux = k.f64("flux", 1.0)?;
    if !flux.is_finite() || flux <= 0.0 {
        return Err(format!("vessel_ladder: flux must be > 0, got {flux}"));
    }
    let peak = k.f64("peak_speed", 2.0 * flux / (PI * tube_r * tube_r))?;
    let coarse = straight_tube(k, Vec3::new(length, 0.0, 0.0), tube_r, 3, 8)?;
    let vessel = tube_vessel(k, &coarse, 0, peak, 10)?;
    let basis = SphBasis::new(k.at_least("order", 6, 1)?);
    let train = Train::read(k, 3, 0.4, |_| 1.4)?;
    // `shape = "sphere"` swaps the train for near-force-free spheres: the
    // discrete biconcave shape is *not* an equilibrium of the discretized
    // membrane energy, so it releases stored elastic energy for many steps
    // after t = 0 and that transient swamps the confinement drag the
    // apparent-viscosity observable wants to see at smoke horizons. A
    // sphere's bending force is a spatially constant normal field whose
    // work vanishes under the volume-conserving motion the stepper
    // enforces, so sphere rungs measure the genuine drag excess from
    // step 1 (the physiology regression tests run this mode).
    let shapes: [Shape; 2] = [biconcave_coeffs, sphere_coeffs];
    let shape = shapes[k.choice("shape", &["biconcave", "sphere"])?];
    let cells = train.centred(k, &basis, length, tube_r, shape)?;
    let step = (0.01, 0.05, 0.0, None);
    tail(k, basis, cells, Some(vessel), Some(true), step)
}

/// Randomly oriented cells on a jittered cubic lattice in free space,
/// sheared by the background flow — the unconfined dense-suspension
/// rheology workload.
fn build_random_suspension(k: &mut Keys) -> Result<Built, String> {
    let basis = SphBasis::new(k.at_least("order", 8, 1)?);
    let n_side = k.at_least("n_side", 2, 1)?;
    let spacing = k.f64("spacing", 2.6)?;
    let amount = k.f64("jitter", 0.25)?;
    if amount < 0.0 {
        return Err(format!(
            "random_suspension: jitter must be ≥ 0, got {amount}"
        ));
    }
    let cell_r = k.positive("cell_radius", 1.0)?;
    if amount * 2.0 + 2.0 * cell_r > spacing {
        return Err(format!(
            "random_suspension: spacing {spacing} too small for cell_radius {cell_r} + jitter {amount}"
        ));
    }
    let params = cell_params(k, 0.02, 1.0)?;
    let mut rng = StdRng::seed_from_u64(k.usize("seed", 13)? as u64);
    let half = 0.5 * spacing * (n_side - 1) as f64;
    let mut cells = Vec::with_capacity(n_side * n_side * n_side);
    for iz in 0..n_side {
        for iy in 0..n_side {
            for ix in 0..n_side {
                let lattice = Vec3::new(
                    ix as f64 * spacing - half,
                    iy as f64 * spacing - half,
                    iz as f64 * spacing - half,
                );
                let coeffs = biconcave_coeffs(&basis, cell_r, lattice + jitter(&mut rng, amount));
                let rot = rotated_coeffs(&basis, &coeffs, &mut rng);
                cells.push(Cell::new(&basis, rot, params));
            }
        }
    }
    tail(k, basis, cells, None, None, (0.01, 0.05, 0.5, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_buildable_cheaply() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate scenario names");
        assert!(n >= 9, "registry shrank to {n} scenarios");
    }

    #[test]
    fn dt_knobs_plumb_into_sim_config() {
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", crate::toml::Value::Int(6));
        cfg.set("shear_pair", "dt_adaptive", crate::toml::Value::Bool(false));
        cfg.set("shear_pair", "dt_grow_after", crate::toml::Value::Int(7));
        cfg.set(
            "shear_pair",
            "dt_max_stretch",
            crate::toml::Value::Float(5.0),
        );
        cfg.set(
            "shear_pair",
            "dt_max_vol_drift",
            crate::toml::Value::Float(0.1),
        );
        let built = build("shear_pair", &cfg).unwrap();
        let ctl = built.sim.config.dt_control;
        assert!(!ctl.enabled);
        assert_eq!(ctl.grow_after, 7);
        assert_eq!(ctl.max_stretch, 5.0);
        assert_eq!(ctl.max_volume_drift, 0.1);
        // default: controller armed
        let on = build("shear_pair", &Doc::default()).unwrap();
        assert!(on.sim.config.dt_control.enabled);
    }

    #[test]
    fn dense_fill_packed_reaches_paper_scale_hematocrit() {
        let built = build("dense_fill_packed", &Doc::default()).unwrap();
        let vf = built.sim.volume_fraction();
        assert!(
            vf >= 0.35,
            "packed fill reached only {:.1}% hematocrit with {} cells",
            100.0 * vf,
            built.sim.cells.len()
        );
        assert!(vf < 0.74, "overlapping packing? vf = {vf}");
        assert!(built.sim.vessel.is_some());
        assert!(built.sim.config.dt_control.enabled);
    }

    #[test]
    fn unknown_keys_are_rejected_with_the_keys_the_scenario_reads() {
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Int(6));
        cfg.set("shear_pair", "ordr", Value::Int(6));
        let e = build("shear_pair", &cfg).err().unwrap();
        assert!(e.starts_with("shear_pair: unknown key `ordr`"), "{e}");
        for key in [
            "order",
            "separation_x",
            "kappa_b",
            "dt_grow_after",
            "threads",
        ] {
            assert!(e.contains(key), "{e} does not list `{key}`");
        }
        // only the scenario's own section is checked
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Int(6));
        cfg.set("workload", "ordr", Value::Int(6));
        cfg.set("perturb", "offset_z", Value::Float(0.02));
        assert!(build("shear_pair", &cfg).is_ok());
        // a key of another scenario is unknown here
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Int(6));
        cfg.set("shear_pair", "gravity_z", Value::Float(-1.0));
        let e = build("shear_pair", &cfg).err().unwrap();
        assert!(e.contains("unknown key `gravity_z`"), "{e}");
        // vessel_flow shares the fill part but not its packed variant
        let mut cfg = Doc::default();
        cfg.set("vessel_flow", "tube_segments", Value::Int(1));
        cfg.set("vessel_flow", "fill_packed", Value::Bool(false));
        let e = build("vessel_flow", &cfg).err().unwrap();
        assert!(e.contains("unknown key `fill_packed`"), "{e}");
        // removed keys: the sub-stepping retry shape, the backoff floor,
        // the collision switch and the gravity array (gravity_z stays) ...
        let g = Value::Array(vec![Value::Float(0.0); 3]);
        for (key, value) in [
            ("substep", Value::Bool(false)),
            ("dt_min", Value::Float(0.0)),
            ("disable_collisions", Value::Bool(true)),
            ("gravity", g),
        ] {
            let mut cfg = Doc::default();
            cfg.set("shear_pair", "order", Value::Int(6));
            cfg.set("shear_pair", key, value);
            let e = build("shear_pair", &cfg).err().unwrap();
            assert!(e.contains(&format!("unknown key `{key}`")), "{e}");
        }
        // ... and the GMRES restart length of the vessel scenarios
        let mut cfg = Doc::default();
        cfg.set("vessel_flow", "tube_segments", Value::Int(1));
        cfg.set("vessel_flow", "bie_restart", Value::Int(10));
        let e = build("vessel_flow", &cfg).err().unwrap();
        assert!(e.contains("unknown key `bie_restart`"), "{e}");
    }

    #[test]
    fn mistyped_values_are_rejected_with_the_expected_type() {
        let pair = "shear_pair";
        for (scenario, key, value, expected) in [
            (
                pair,
                "order",
                Value::Str("six".into()),
                "a non-negative integer",
            ),
            (pair, "order", Value::Float(6.5), "a non-negative integer"),
            (pair, "order", Value::Int(-6), "a non-negative integer"),
            (pair, "dt", Value::Str("fast".into()), "a number"),
            (pair, "dt_adaptive", Value::Int(1), "true or false"),
            // values of the right type that would panic or step backwards
            (pair, "order", Value::Int(0), "an integer ≥ 1"),
            (pair, "dt", Value::Int(-1), "a finite number > 0"),
            (pair, "dt", Value::Float(0.0), "a finite number > 0"),
            (
                pair,
                "dt",
                Value::Float(f64::INFINITY),
                "a finite number > 0",
            ),
            (
                "vessel_flow",
                "patch_order",
                Value::Int(1),
                "an integer ≥ 2",
            ),
            ("dense_fill", "patch_order", Value::Int(0), "an integer ≥ 2"),
            (
                "vessel_flow",
                "bie_qf",
                Value::Int(1),
                "0 or an integer ≥ 2",
            ),
            (
                "vessel_flow",
                "bie_fmm_order",
                Value::Int(1),
                "an integer ≥ 2",
            ),
            (
                "random_suspension",
                "n_side",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            (
                "poiseuille_train",
                "n_cells",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            // a zero lattice spacing would never finish seeding; a negative
            // contact threshold or membrane modulus would run silently
            (
                "dense_fill",
                "fill_h",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                "dense_fill",
                "fill_margin",
                Value::Float(-0.1),
                "a finite number > 0",
            ),
            (
                "sedimentation",
                "fill_h",
                Value::Float(f64::NAN),
                "a finite number > 0",
            ),
            (
                pair,
                "collision_delta",
                Value::Int(-1),
                "a finite number > 0",
            ),
            (
                pair,
                "collision_delta",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (pair, "kappa_b", Value::Float(-0.01), "a finite number ≥ 0"),
            // a stretch bound ≤ 1 or a drift bound ≤ 0 fails every attempt
            // and freezes every cell; check points at r = 0 sit on the wall
            (
                pair,
                "dt_max_stretch",
                Value::Float(-1.0),
                "a finite number > 1",
            ),
            (pair, "dt_max_stretch", Value::Int(1), "a finite number > 1"),
            (
                pair,
                "dt_max_stretch",
                Value::Float(f64::INFINITY),
                "a finite number > 1",
            ),
            (
                pair,
                "dt_max_vol_drift",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                pair,
                "dt_max_vol_drift",
                Value::Float(f64::NAN),
                "a finite number > 0",
            ),
            (
                "vessel_flow",
                "bie_check_r",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                pair,
                "k_area",
                Value::Float(f64::INFINITY),
                "a finite number ≥ 0",
            ),
            // a wall solve of no iterations, a tolerance ≤ 0, or a stall
            // ratio that never fires (≥ 1) or fires at the first restart
            // (< 0) would run silently
            (
                "poiseuille_train",
                "bie_max_iters",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            (
                "vessel_flow",
                "bie_tol",
                Value::Float(-1.0),
                "a finite number > 0",
            ),
            (
                "vessel_flow",
                "bie_stall",
                Value::Float(1.5),
                "a number in [0, 1)",
            ),
            (
                "vessel_flow",
                "bie_stall",
                Value::Float(-0.1),
                "a number in [0, 1)",
            ),
            // a cell or tube of radius ≤ 0 has no surface
            (
                pair,
                "cell_radius",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                "poiseuille_train",
                "cell_radius",
                Value::Float(-0.5),
                "a finite number > 0",
            ),
            (
                "random_suspension",
                "cell_radius",
                Value::Float(f64::NAN),
                "a finite number > 0",
            ),
            (
                "vessel_flow",
                "tube_radius",
                Value::Float(-1.0),
                "a finite number > 0",
            ),
            (
                "sedimentation",
                "tube_radius",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                "dense_fill_packed",
                "tube_radius",
                Value::Float(-1.0),
                "a finite number > 0",
            ),
            (
                "poiseuille_train",
                "tube_radius",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            (
                "vessel_ladder",
                "tube_radius",
                Value::Float(-0.8),
                "a finite number > 0",
            ),
            // a capsule of length ≤ 0 has no cylinder
            (
                "sedimentation",
                "tube_length",
                Value::Float(-1.0),
                "a finite number > 0",
            ),
            (
                "poiseuille_train",
                "tube_length",
                Value::Float(0.0),
                "a finite number > 0",
            ),
            // a capsule of no segments is two unjoined caps, an open
            // surface; a collision grid of one sample per side has no
            // triangles (and zero samples never finishes triangulating)
            (
                "poiseuille_train",
                "tube_segments",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            (
                "sedimentation",
                "tube_segments",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            (
                "vessel_flow",
                "tube_segments",
                Value::Int(0),
                "an integer ≥ 1",
            ),
            ("poiseuille_train", "col_m", Value::Int(1), "an integer ≥ 2"),
            ("vessel_flow", "col_m", Value::Int(1), "an integer ≥ 2"),
            ("bifurcation", "col_m", Value::Int(1), "an integer ≥ 2"),
        ] {
            let mut cfg = Doc::default();
            cfg.set(scenario, key, value.clone());
            if key != "order" {
                cfg.set(scenario, "order", Value::Int(6));
            }
            let e = build(scenario, &cfg).err().unwrap();
            let want = format!("{scenario}: `{key}` expects {expected}, got {value:?}");
            assert_eq!(e, want);
        }
        // whole-number floats still read as integers, integers as numbers
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Float(6.0));
        cfg.set("shear_pair", "dt", Value::Int(1));
        let built = build("shear_pair", &cfg).unwrap();
        assert_eq!((built.sim.basis.p, built.sim.config.dt), (6, 1.0));
        // a string outside the choices names them
        let mut cfg = Doc::default();
        cfg.set("vessel_ladder", "shape", Value::Str("cube".into()));
        let e = build("vessel_ladder", &cfg).err().unwrap();
        assert!(
            e.contains("unknown shape") && e.contains("biconcave, sphere"),
            "{e}"
        );
    }

    /// Every key scenario `name` reads, in read order, with the default it
    /// uses: the record of a build from an empty config.
    fn defaults(name: &str) -> Vec<(&'static str, Value)> {
        let spec = registry().iter().find(|s| s.name == name).unwrap();
        let doc = Doc::default();
        let (built, keys) = spec.record(&doc);
        built.unwrap_or_else(|e| panic!("{name}: {e}"));
        keys.read
    }

    #[test]
    fn a_typo_is_reported_ahead_of_the_build_error_its_default_causes() {
        // the typo leaves tube_radius at its default 1.2, which the cell
        // radius does not fit
        let mut cfg = Doc::default();
        cfg.set("poiseuille_train", "tube_radus", Value::Float(2.0));
        cfg.set("poiseuille_train", "cell_radius", Value::Float(1.5));
        let e = build("poiseuille_train", &cfg).err().unwrap();
        assert!(
            e.starts_with("poiseuille_train: unknown key `tube_radus`"),
            "{e}"
        );
        // keys read after the failure point are still known: with the
        // typo fixed, the error is the misfit itself
        cfg = Doc::default();
        cfg.set("poiseuille_train", "cell_radius", Value::Float(1.5));
        cfg.set("poiseuille_train", "recycle", Value::Bool(false));
        let e = build("poiseuille_train", &cfg).err().unwrap();
        assert!(e.contains("cell_radius 1.5 does not fit"), "{e}");
    }

    /// Every sample config builds, and every scalar it sets equals (to 1e-12
    /// relative) the default the registry reads that key with: a sample TOML
    /// writes the registry scenario out, it does not define another one.
    #[test]
    fn sample_configs_restate_the_registry_defaults() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        for spec in registry() {
            let path = dir.join(format!("{}.toml", spec.name));
            let doc = Doc::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            build(spec.name, &doc).unwrap_or_else(|e| panic!("{}.toml: {e}", spec.name));
            let defaults = defaults(spec.name);
            for key in doc.keys(spec.name) {
                let given = doc.get(spec.name, key).unwrap();
                let (_, default) = defaults
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("{}: `{key}` built but was not read", spec.name));
                let same = match (given.as_f64(), default.as_f64()) {
                    (Some(a), Some(b)) => (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
                    _ => given == default,
                };
                assert!(
                    same,
                    "{}.toml sets {key} = {given:?}; the registry default is {default:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_key_is_read_once() {
        for spec in registry() {
            let read = defaults(spec.name);
            let mut keys: Vec<&str> = read.iter().map(|(key, _)| *key).collect();
            keys.sort_unstable();
            let n = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), n, "{}: a key is read twice", spec.name);
        }
    }

    #[test]
    fn unknown_scenario_lists_registry() {
        let e = build("warp_drive", &Doc::default()).err().unwrap();
        assert!(
            e.contains("shear_pair") && e.contains("poiseuille_train"),
            "{e}"
        );
    }

    #[test]
    fn shear_pair_builds_with_overrides() {
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", crate::toml::Value::Int(6));
        cfg.set("shear_pair", "shear_rate", crate::toml::Value::Float(2.0));
        let built = build("shear_pair", &cfg).unwrap();
        assert_eq!(built.sim.basis.p, 6);
        assert_eq!(built.sim.cells.len(), 2);
        assert_eq!(built.sim.config.shear_rate, 2.0);
        assert!(!built.recycle);
        assert!(built.sim.vessel.is_none());
    }

    #[test]
    fn free_space_builders_are_deterministic() {
        let mut cfg = Doc::default();
        cfg.set("random_suspension", "order", crate::toml::Value::Int(6));
        cfg.set("random_suspension", "n_side", crate::toml::Value::Int(2));
        let a = build("random_suspension", &cfg).unwrap();
        let b = build("random_suspension", &cfg).unwrap();
        assert_eq!(a.sim.cells.len(), 8);
        for (ca, cb) in a.sim.cells.iter().zip(&b.sim.cells) {
            for c in 0..3 {
                let x: Vec<u64> = ca.coeffs[c].data.iter().map(|v| v.to_bits()).collect();
                let y: Vec<u64> = cb.coeffs[c].data.iter().map(|v| v.to_bits()).collect();
                assert_eq!(x, y, "rebuild differs");
            }
        }
    }

    #[test]
    fn removed_bie_keys_are_rejected_by_name() {
        for (key, value, names) in [
            ("bie_fmm", crate::toml::Value::Bool(true), "bie_backend"),
            (
                "bie_fmm_leaf_capacity",
                crate::toml::Value::Int(99),
                "`bie_fmm_leaf_capacity` was removed",
            ),
            (
                "bie_precond",
                crate::toml::Value::Bool(false),
                "`bie_precond` was removed",
            ),
        ] {
            let mut cfg = Doc::default();
            cfg.set("poiseuille_train", key, value);
            let e = build("poiseuille_train", &cfg).err().unwrap();
            assert!(e.contains(names), "{e}");
        }
    }

    #[test]
    fn unknown_bie_backend_is_rejected() {
        let mut cfg = Doc::default();
        cfg.set(
            "poiseuille_train",
            "bie_backend",
            crate::toml::Value::Str("gpu".into()),
        );
        let e = build("poiseuille_train", &cfg).err().unwrap();
        assert!(e.contains("unknown bie_backend"), "{e}");
    }

    #[test]
    fn wall_refine_multiplies_vessel_patches_and_scales_col_m() {
        let mut cfg = Doc::default();
        cfg.set("poiseuille_train", "order", crate::toml::Value::Int(6));
        cfg.set(
            "poiseuille_train",
            "patch_order",
            crate::toml::Value::Int(6),
        );
        cfg.set(
            "poiseuille_train",
            "tube_segments",
            crate::toml::Value::Int(1),
        );
        let base = build("poiseuille_train", &cfg).unwrap();
        cfg.set(
            "poiseuille_train",
            "wall_refine",
            crate::toml::Value::Int(1),
        );
        let refined = build("poiseuille_train", &cfg).unwrap();
        let (vb, vr) = (
            base.sim.vessel.as_ref().unwrap(),
            refined.sim.vessel.as_ref().unwrap(),
        );
        assert_eq!(
            vr.solver.surface.num_patches(),
            4 * vb.solver.surface.num_patches()
        );
        // same geometry: the interior volumes agree to quadrature
        // accuracy (refinement re-fits the same polynomials, but the
        // finer tensor rule integrates them more accurately, so the two
        // values differ by the coarse rule's quadrature error, not 0)
        assert!(
            (vr.volume - vb.volume).abs() / vb.volume < 2e-3,
            "{} vs {}",
            vr.volume,
            vb.volume
        );
        // collision sampling halved per level (col_m 10 -> 5), so the
        // total wall collision-vertex count stays comparable
        let verts = |v: &sim::Vessel| v.meshes.iter().map(|m| m.verts.len()).sum::<usize>();
        assert_eq!(vr.meshes.len(), 4 * vb.meshes.len());
        assert!(verts(vr) <= 2 * verts(vb), "{} vs {}", verts(vr), verts(vb));
        // initial cell packing identical across refinement levels
        assert_eq!(base.sim.cells.len(), refined.sim.cells.len());
        // refined defaults kick in: attainable tolerance + finer quadrature
        assert_eq!(vr.solver.opts.gmres.tol, 2e-3);
        assert_eq!(vr.solver.opts.qf, 10);
        assert_eq!(vb.solver.opts.qf, 0);
    }

    #[test]
    fn vessel_flow_defaults_to_refined_wall_with_order_4_fmm() {
        // small geometry so the refined build stays cheap in unit tests
        let mut cfg = Doc::default();
        cfg.set("vessel_flow", "order", crate::toml::Value::Int(6));
        cfg.set("vessel_flow", "patch_order", crate::toml::Value::Int(6));
        cfg.set("vessel_flow", "tube_segments", crate::toml::Value::Int(1));
        cfg.set("vessel_flow", "fill_h", crate::toml::Value::Float(1.5));
        let refined = build("vessel_flow", &cfg).unwrap();
        let vr = refined.sim.vessel.as_ref().unwrap();
        // the registry default flipped to wall_refine = 1: refined bie
        // defaults (finer quadrature, attainable tol, order-4 matvec FMM)
        assert_eq!(vr.solver.opts.qf, 10);
        assert_eq!(vr.solver.opts.gmres.tol, 2e-3);
        assert_eq!(vr.solver.opts.fmm.order, 4);
        // explicit opt-out restores the coarse wall and the library-default
        // FMM order
        cfg.set("vessel_flow", "wall_refine", crate::toml::Value::Int(0));
        let coarse = build("vessel_flow", &cfg).unwrap();
        let vc = coarse.sim.vessel.as_ref().unwrap();
        assert_eq!(
            4 * vc.solver.surface.num_patches(),
            vr.solver.surface.num_patches()
        );
        assert_eq!(vc.solver.opts.fmm.order, 6);
        // seeding is from the unrefined surface, so the flip does not move
        // the initial packing
        assert_eq!(coarse.sim.cells.len(), refined.sim.cells.len());
    }

    #[test]
    fn bie_fmm_knobs_plumb_into_solver_options() {
        let mut cfg = Doc::default();
        cfg.set("poiseuille_train", "order", crate::toml::Value::Int(6));
        cfg.set(
            "poiseuille_train",
            "patch_order",
            crate::toml::Value::Int(6),
        );
        cfg.set(
            "poiseuille_train",
            "tube_segments",
            crate::toml::Value::Int(1),
        );
        cfg.set(
            "poiseuille_train",
            "bie_fmm_order",
            crate::toml::Value::Int(5),
        );
        let built = build("poiseuille_train", &cfg).unwrap();
        let v = built.sim.vessel.as_ref().unwrap();
        assert_eq!(v.solver.opts.fmm.order, 5);
        // defaults: unrefined scenarios keep the library default order
        let mut plain = Doc::default();
        plain.set("poiseuille_train", "order", crate::toml::Value::Int(6));
        plain.set(
            "poiseuille_train",
            "patch_order",
            crate::toml::Value::Int(6),
        );
        plain.set(
            "poiseuille_train",
            "tube_segments",
            crate::toml::Value::Int(1),
        );
        let built = build("poiseuille_train", &plain).unwrap();
        let v = built.sim.vessel.as_ref().unwrap();
        assert_eq!(v.solver.opts.fmm.order, bie::FmmOptions::default().order);
    }

    #[test]
    fn bifurcation_builds_with_balanced_ports() {
        let built = build("bifurcation", &Doc::default()).unwrap();
        let v = built.sim.vessel.as_ref().unwrap();
        assert_eq!(v.ports.len(), 3);
        assert_eq!(v.ports.iter().filter(|p| p.is_inlet).count(), 1);
        // the network builder makes each prescribed port flux exact in the
        // discrete quadrature, so the net imbalance is roundoff
        let fluxes = v.port_fluxes();
        let total: f64 = fluxes.iter().map(|f| f.abs()).sum();
        assert!(
            v.port_flux_imbalance() < 1e-12 * total,
            "imbalance {} on fluxes {fluxes:?}",
            v.port_flux_imbalance()
        );
        // default split: 0.55 / 0.45 of unit inflow
        let inlet = v.ports.iter().find(|p| p.is_inlet).unwrap();
        assert!((inlet.flux - 1.0).abs() < 1e-12, "{}", inlet.flux);
        assert!(!built.recycle, "multi-outlet recycling is off by default");
        assert_eq!(built.sim.cells.len(), 2);
        // rebuilds are bit-identical (no RNG anywhere in the builder)
        let again = build("bifurcation", &Doc::default()).unwrap();
        assert_eq!(
            sim::vessel_digest(built.sim.vessel.as_ref().unwrap()),
            sim::vessel_digest(again.sim.vessel.as_ref().unwrap())
        );
    }

    #[test]
    fn bifurcation_rejects_bad_split_and_wall_refine() {
        let mut cfg = Doc::default();
        cfg.set("bifurcation", "flux_split", crate::toml::Value::Float(1.5));
        let e = build("bifurcation", &cfg).err().unwrap();
        assert!(e.contains("flux_split"), "{e}");
        let mut cfg = Doc::default();
        cfg.set("bifurcation", "wall_refine", crate::toml::Value::Int(1));
        let e = build("bifurcation", &cfg).err().unwrap();
        assert!(e.contains("per_face"), "{e}");
        let mut cfg = Doc::default();
        cfg.set(
            "bifurcation",
            "cell_radius",
            crate::toml::Value::Float(0.45),
        );
        let e = build("bifurcation", &cfg).err().unwrap();
        assert!(e.contains("does not fit"), "{e}");
    }

    #[test]
    fn vessel_ladder_fixes_flux_across_diameters() {
        // same flux, two radii: the inflow peak scales as 1/r², so the
        // recorded inlet flux matches across rungs
        let mut small = Doc::default();
        small.set(
            "vessel_ladder",
            "tube_radius",
            crate::toml::Value::Float(0.7),
        );
        small.set("vessel_ladder", "patch_order", crate::toml::Value::Int(6));
        let mut large = Doc::default();
        large.set(
            "vessel_ladder",
            "tube_radius",
            crate::toml::Value::Float(1.1),
        );
        large.set("vessel_ladder", "patch_order", crate::toml::Value::Int(6));
        let (a, b) = (
            build("vessel_ladder", &small).unwrap(),
            build("vessel_ladder", &large).unwrap(),
        );
        let qa = a.sim.vessel.as_ref().unwrap().ports[0].flux.abs();
        let qb = b.sim.vessel.as_ref().unwrap().ports[0].flux.abs();
        // Vessel::new rims are the max-node estimate, so the discrete flux
        // sits below π r² peak/2 by an O(h²) geometric factor — but the
        // factor is resolution-, not radius-, dominated, so fixed-flux
        // rungs agree to a few percent
        assert!(
            (qa - qb).abs() / qb < 0.05,
            "flux not fixed across rungs: {qa} vs {qb}"
        );
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let mut cfg = Doc::default();
        cfg.set(
            "poiseuille_train",
            "cell_radius",
            crate::toml::Value::Float(5.0),
        );
        assert!(build("poiseuille_train", &cfg).is_err());
        let mut cfg = Doc::default();
        cfg.set(
            "random_suspension",
            "spacing",
            crate::toml::Value::Float(1.0),
        );
        assert!(build("random_suspension", &cfg).is_err());
    }
}
