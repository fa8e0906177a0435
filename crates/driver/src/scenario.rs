//! The scenario registry: every runnable workload, in one place.
//!
//! A scenario is a named builder from a declarative config ([`Doc`]) to a
//! ready-to-step [`Simulation`]. The `examples/` binaries, the `sim-driver`
//! CLI, and the `benchmark/` workloads all construct domains through this
//! registry, so a scenario definition lives exactly once.
//!
//! Builders are deterministic: all randomness comes from seeded RNGs whose
//! seeds are config keys, which is what lets a checkpoint restart rebuild
//! the identical domain (verified via [`sim::vessel_digest`]).
//!
//! Every scenario reads its keys from the config section named after it
//! (e.g. `[shear_pair]`); unknown scenarios list the registry in the error.

use crate::toml::Doc;
use linalg::{GmresOptions, Vec3};
use patch::{capsule_tube, modulated_torus, Serpentine, StraightLine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim::{
    cells_from_seeds, fill_seeds, fill_seeds_packed, refined_surface, vessel_from_network,
    DtControl, NetworkSpec, SegmentSpec, SimConfig, Simulation, Vessel,
};
use sphharm::SphBasis;
use vesicle::{biconcave_coeffs, rotated_coeffs, sphere_coeffs, Cell, CellParams};

/// A registered scenario.
pub struct ScenarioSpec {
    /// Registry name (also the config section the builder reads).
    pub name: &'static str,
    /// One-line description for `sim-driver list`.
    pub summary: &'static str,
    /// Builder from config to a ready simulation.
    pub build: fn(&Doc) -> Result<Built, String>,
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

/// Looks up and builds a scenario by name.
pub fn build(name: &str, cfg: &Doc) -> Result<Built, String> {
    let spec = registry().iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        format!("unknown scenario `{name}`; available: {}", names.join(", "))
    })?;
    (spec.build)(cfg)
}

/// Shared config plumbing: `SimConfig` from the scenario's section with
/// per-scenario defaults for `dt` and `collision_delta`.
///
/// Adaptive time-step knobs (all optional; see [`sim::DtControl`]):
/// `dt_adaptive` (default true), `dt_min` (default 0 = dt/16),
/// `dt_grow_after`, `substep`, `dt_max_stretch`, `dt_max_vol_drift`.
///
/// Parallelism: `threads` (default 0 = available parallelism) pins every
/// parallel stage of `Simulation::step` to that many workers. Trajectories
/// are bit-identical at any thread count; the knob only trades wall time,
/// so it is also settable from the CLI via `sim-driver --threads`.
fn sim_config(cfg: &Doc, sec: &str, dt: f64, collision_delta: f64) -> SimConfig {
    let gravity = match cfg.get(sec, "gravity") {
        Some(crate::toml::Value::Array(v)) if v.len() == 3 => Vec3::new(
            v[0].as_f64().unwrap_or(0.0),
            v[1].as_f64().unwrap_or(0.0),
            v[2].as_f64().unwrap_or(0.0),
        ),
        _ => Vec3::ZERO,
    };
    let dtc = DtControl::default();
    let dt_control = DtControl {
        enabled: cfg.bool_or(sec, "dt_adaptive", dtc.enabled),
        dt_min: cfg.f64_or(sec, "dt_min", dtc.dt_min),
        grow_after: cfg.usize_or(sec, "dt_grow_after", dtc.grow_after),
        substep: cfg.bool_or(sec, "substep", dtc.substep),
        max_stretch: cfg.f64_or(sec, "dt_max_stretch", dtc.max_stretch),
        max_volume_drift: cfg.f64_or(sec, "dt_max_vol_drift", dtc.max_volume_drift),
    };
    SimConfig {
        dt: cfg.f64_or(sec, "dt", dt),
        collision_delta: cfg.f64_or(sec, "collision_delta", collision_delta),
        shear_rate: cfg.f64_or(sec, "shear_rate", 0.0),
        gravity,
        disable_collisions: cfg.bool_or(sec, "disable_collisions", false),
        dt_control,
        threads: cfg.usize_or(sec, "threads", 0),
        ..Default::default()
    }
}

fn cell_params(cfg: &Doc, sec: &str, kappa_b: f64, k_area: f64) -> CellParams {
    CellParams {
        kappa_b: cfg.f64_or(sec, "kappa_b", kappa_b),
        k_area: cfg.f64_or(sec, "k_area", k_area),
        ..Default::default()
    }
}

/// Reads the `wall_refine` knob of a vessel scenario: the number of
/// [`patch::BoundarySurface::refine`] levels applied to the vessel surface
/// (`default` = the scenario's registry level; each level splits every
/// patch in 4). Most scenarios default to the coarse layout (0);
/// `vessel_flow` — the headline confined-flow run — defaults to 1 now that
/// the persistent wall FMM makes the refined operator affordable per step.
fn wall_refine(cfg: &Doc, sec: &str, default: usize) -> u32 {
    cfg.usize_or(sec, "wall_refine", default) as u32
}

/// Collision-mesh sampling per patch under refinement: halve `col_m` per
/// level (floor 3) so the *total* wall collision-vertex count stays
/// roughly constant — refinement sharpens the boundary operator, not the
/// contact mesh, and carrying `col_m²` vertices on 4× the patches per
/// level would blow up the COL broad phase for nothing.
fn wall_col_m(col_m: usize, levels: u32) -> usize {
    if levels == 0 {
        col_m
    } else {
        (col_m >> levels).max(3)
    }
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
/// (`R ≈ 2.1 h_fine`) and buys another ~10× (measured in
/// `bench --bin tube_accuracy`). `bie_tol` tightens with it: the
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
/// `refined_serpentine_port_floor_improved` test; preconditioning is
/// the open item).
fn bie_options(cfg: &Doc, sec: &str, q: usize, refine: u32) -> Result<bie::BieOptions, String> {
    // keys that no longer exist: the TOML layer ignores unknown keys, so
    // reject them by name rather than silently running something other
    // than what the config asked for
    for (key, now) in [
        (
            "bie_fmm",
            "was replaced by `bie_backend` (\"auto\", \"dense\", or \"fmm\")",
        ),
        (
            "bie_fmm_leaf_capacity",
            "was removed; the wall FMM sizes its leaves with `fmm::FmmOptions::default()`",
        ),
    ] {
        if cfg.get(sec, key).is_some() {
            return Err(format!("{sec}: `{key}` {now}"));
        }
    }
    let refined = refine > 0;
    let check_r = cfg.f64_or(sec, "bie_check_r", if refined { 0.15 } else { 0.06 });
    let qf = cfg.usize_or(sec, "bie_qf", if refined { q + 4 } else { 0 });
    // matvec/eval FMM tuning. The refined path defaults to order 4: the
    // quadrature floor sits near 1e-3, so the ~4e-4 operator error of
    // order 6 buys nothing over order 4's (see the per-order ladder in
    // crates/bie/tests/tube.rs), while the smaller equivalent surfaces
    // roughly halve the M2L work per solve. Unrefined solves keep the
    // library default (order 6), whose extra digits are free at those
    // patch counts because they run dense anyway.
    let fmm_default = bie::FmmOptions::default();
    let fmm = bie::FmmOptions {
        order: cfg.usize_or(
            sec,
            "bie_fmm_order",
            if refined { 4 } else { fmm_default.order },
        ),
        ..fmm_default
    };
    let backend = match cfg.str_or(sec, "bie_backend", "auto") {
        "auto" => bie::MatvecBackend::Auto,
        "dense" => bie::MatvecBackend::Dense,
        "fmm" => bie::MatvecBackend::Fmm,
        other => {
            return Err(format!(
                "{sec}: unknown bie_backend `{other}` (expected auto, dense, or fmm)"
            ))
        }
    };
    Ok(bie::BieOptions {
        backend,
        qf,
        fmm,
        gmres: GmresOptions {
            tol: cfg.f64_or(sec, "bie_tol", if refined { 2e-3 } else { 1e-5 }),
            max_iters: cfg.usize_or(sec, "bie_max_iters", 30),
            // vessel rhs from near-wall cells carries content beyond the
            // quadrature's resolution, flooring the residual; stop the
            // iteration when it stops improving instead of burning the cap
            stall_ratio: cfg.f64_or(sec, "bie_stall", 0.9),
            // short cycles so the cross-cycle (true-residual) stagnation
            // check engages: the Arnoldi estimate alone cannot see the
            // floor from a warm start
            restart: cfg.usize_or(sec, "bie_restart", 10),
            ..Default::default()
        },
        check: bie::CheckSpec::Linear {
            big_r: check_r,
            small_r: check_r,
        },
        p_extrap: cfg.usize_or(sec, "bie_p_extrap", 5),
        precond: cfg.bool_or(sec, "bie_precond", false),
        ..Default::default()
    })
}

/// Two cells offset in z inside the linear shear `u = [γ̇ z, 0, 0]`; the
/// upper cell overtakes the lower one with contact handling keeping them
/// apart (ported from `examples/src/shear_pair.rs`).
fn build_shear_pair(cfg: &Doc) -> Result<Built, String> {
    let sec = "shear_pair";
    let p = cfg.usize_or(sec, "order", 12);
    let basis = SphBasis::new(p);
    let params = cell_params(cfg, sec, 0.02, 2.0);
    let sep = cfg.f64_or(sec, "separation_x", 1.4);
    let off = cfg.f64_or(sec, "offset_z", 0.25);
    let radius = cfg.f64_or(sec, "cell_radius", 1.0);
    let cells = vec![
        Cell::new(
            &basis,
            biconcave_coeffs(&basis, radius, Vec3::new(-sep, 0.0, off)),
            params,
        ),
        Cell::new(
            &basis,
            biconcave_coeffs(&basis, radius, Vec3::new(sep, 0.0, -off)),
            params,
        ),
    ];
    let mut config = sim_config(cfg, sec, 0.02, 0.05);
    config.shear_rate = cfg.f64_or(sec, "shear_rate", 1.0);
    Ok(Built {
        sim: Simulation::new(basis, cells, None, config),
        recycle: false,
    })
}

/// A closed vertical capsule filled with cells settling under gravity
/// (ported from `examples/src/sedimentation.rs`).
fn build_sedimentation(cfg: &Doc) -> Result<Built, String> {
    let sec = "sedimentation";
    let length = cfg.f64_or(sec, "tube_length", 6.0);
    let radius = cfg.f64_or(sec, "tube_radius", 1.6);
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(0.0, 0.0, length),
    };
    let refine = wall_refine(cfg, sec, 0);
    let q = cfg.usize_or(sec, "patch_order", 8);
    // cells are seeded from the *unrefined* surface: refinement reproduces
    // the same geometry, but keeping the seed lattice's accept/reject tests
    // on the coarse patch layout makes the initial packing bit-identical
    // across wall_refine levels (so accuracy/cost comparisons share one
    // initial condition)
    let coarse = capsule_tube(&line, radius, cfg.usize_or(sec, "tube_segments", 3), q);
    // refinement goes through the process-wide shared cache (sim::caches):
    // farm jobs and checkpoint-restore rebuilds of the same geometry reuse
    // one immutable refined copy instead of re-fitting 4^levels patches
    let surface = refined_surface(&coarse, refine);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        0.0,
        wall_col_m(cfg.usize_or(sec, "col_m", 10), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 8));
    let fill = if cfg.bool_or(sec, "fill_packed", false) {
        fill_seeds_packed
    } else {
        fill_seeds
    };
    let seeds = fill(
        &coarse,
        cfg.f64_or(sec, "fill_h", 0.95),
        cfg.f64_or(sec, "fill_margin", 0.95),
    );
    if seeds.is_empty() {
        return Err("sedimentation: vessel too small for any cells (raise fill_h)".into());
    }
    let mut rng = StdRng::seed_from_u64(cfg.usize_or(sec, "seed", 7) as u64);
    let params = cell_params(cfg, sec, 0.01, 1.0);
    let cells = cells_from_seeds(&basis, &seeds, params, &mut rng);

    let mut config = sim_config(cfg, sec, 0.02, 0.06);
    if cfg.get(sec, "gravity").is_none() {
        config.gravity = Vec3::new(0.0, 0.0, cfg.f64_or(sec, "gravity_z", -4.0));
    }
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle: false,
    })
}

/// Serpentine vessel with parabolic inflow/outflow, cell recycling active —
/// the headline confined-flow setup (ported from
/// `examples/src/vessel_flow.rs`).
fn build_vessel_flow(cfg: &Doc) -> Result<Built, String> {
    let sec = "vessel_flow";
    let c = Serpentine {
        length: cfg.f64_or(sec, "length", 8.0),
        amp: cfg.f64_or(sec, "amp", 0.7),
        windings: cfg.f64_or(sec, "windings", 1.0),
    };
    let refine = wall_refine(cfg, sec, 1);
    let q = cfg.usize_or(sec, "patch_order", 8);
    // seeded from the unrefined surface; see build_sedimentation
    let coarse = capsule_tube(
        &c,
        cfg.f64_or(sec, "tube_radius", 1.1),
        cfg.usize_or(sec, "tube_segments", 5),
        q,
    );
    let surface = refined_surface(&coarse, refine);
    let peak = cfg.f64_or(sec, "peak_speed", 1.0);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        peak,
        wall_col_m(cfg.usize_or(sec, "col_m", 10), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 8));
    let seeds = fill_seeds(
        &coarse,
        cfg.f64_or(sec, "fill_h", 1.1),
        cfg.f64_or(sec, "fill_margin", 0.9),
    );
    if seeds.is_empty() {
        return Err("vessel_flow: no cells fit (raise fill_h)".into());
    }
    let mut rng = StdRng::seed_from_u64(cfg.usize_or(sec, "seed", 11) as u64);
    let cells = cells_from_seeds(&basis, &seeds, cell_params(cfg, sec, 0.01, 1.0), &mut rng);

    let config = sim_config(cfg, sec, 0.01, 0.05);
    let recycle = cfg.bool_or(sec, "recycle", true);
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle,
    })
}

/// A modulated torus (stenosed loop) densely packed with cells — the
/// vessel-filling stress test of Fig. 8 turned into a steppable run
/// (ported from `examples/src/fill_vessel.rs`; the torus has no ports, so
/// the flow is driven purely by gravity / cell interactions).
fn build_dense_fill(cfg: &Doc) -> Result<Built, String> {
    let sec = "dense_fill";
    let refine = wall_refine(cfg, sec, 0);
    let q = cfg.usize_or(sec, "patch_order", 8);
    // seeded from the unrefined surface; see build_sedimentation
    let coarse = modulated_torus(
        cfg.f64_or(sec, "big_r", 4.0),
        cfg.f64_or(sec, "small_r", 1.0),
        cfg.f64_or(sec, "amp", 0.25),
        cfg.usize_or(sec, "lobes", 4) as u32,
        cfg.usize_or(sec, "nu", 16),
        cfg.usize_or(sec, "nv", 6),
        q,
    );
    let surface = refined_surface(&coarse, refine);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        0.0,
        wall_col_m(cfg.usize_or(sec, "col_m", 10), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 8));
    // `fill_packed = true` switches to the BCC double-lattice filler with
    // individual freeze growth (~1.5× the cubic fill's packing)
    let fill = if cfg.bool_or(sec, "fill_packed", false) {
        fill_seeds_packed
    } else {
        fill_seeds
    };
    let seeds = fill(
        &coarse,
        cfg.f64_or(sec, "fill_h", 0.7),
        cfg.f64_or(sec, "fill_margin", 0.95),
    );
    if seeds.is_empty() {
        return Err("dense_fill: no cells fit (raise fill_h)".into());
    }
    let mut rng = StdRng::seed_from_u64(cfg.usize_or(sec, "seed", 3) as u64);
    let cells = cells_from_seeds(&basis, &seeds, cell_params(cfg, sec, 0.01, 1.0), &mut rng);

    let mut config = sim_config(cfg, sec, 0.01, 0.05);
    if cfg.get(sec, "gravity").is_none() {
        config.gravity = Vec3::new(0.0, 0.0, cfg.f64_or(sec, "gravity_z", -1.0));
    }
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle: false,
    })
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
fn build_dense_fill_packed(cfg: &Doc) -> Result<Built, String> {
    let sec = "dense_fill_packed";
    let n_cells = cfg.usize_or(sec, "n_cells", 14);
    if n_cells == 0 {
        return Err("dense_fill_packed: n_cells must be ≥ 1".into());
    }
    let cell_r = cfg.f64_or(sec, "cell_radius", 1.0);
    let tube_r = cfg.f64_or(sec, "tube_radius", 1.12 * cell_r);
    if cell_r >= tube_r {
        return Err(format!(
            "dense_fill_packed: cell_radius {cell_r} does not fit tube_radius {tube_r}"
        ));
    }
    // face-to-face spacing: cell axial full thickness is ≈ 0.63·r, so the
    // default 0.88·r leaves ≈ 0.25·r between facing rims — clear of the
    // collision δ at rest, closed by gravity within a few steps
    let spacing = cfg.f64_or(sec, "spacing", 0.88 * cell_r);
    let margin = cfg.f64_or(sec, "end_margin", 0.55 * cell_r);
    let length = 2.0 * margin + spacing * (n_cells - 1) as f64;
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(0.0, 0.0, length),
    };
    let refine = wall_refine(cfg, sec, 0);
    let q = cfg.usize_or(sec, "patch_order", 6);
    let segments = cfg.usize_or(
        sec,
        "tube_segments",
        ((length / 2.0).ceil() as usize).max(2),
    );
    let coarse = capsule_tube(&line, tube_r, segments, q);
    let surface = refined_surface(&coarse, refine);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        0.0,
        wall_col_m(cfg.usize_or(sec, "col_m", 8), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 6));
    let params = cell_params(cfg, sec, 0.01, 1.0);
    // deterministic sub-collision-δ jitter so the column is not perfectly
    // axisymmetric (a perfect rouleau settles degenerately)
    let jitter = cfg.f64_or(sec, "jitter", 0.03 * cell_r);
    let mut rng = StdRng::seed_from_u64(cfg.usize_or(sec, "seed", 5) as u64);
    let cells: Vec<Cell> = (0..n_cells)
        .map(|i| {
            let wob = if jitter > 0.0 {
                Vec3::new(
                    rng.random_range(-jitter..jitter),
                    rng.random_range(-jitter..jitter),
                    rng.random_range(-jitter..jitter),
                )
            } else {
                Vec3::ZERO
            };
            let center = Vec3::new(0.0, 0.0, margin + spacing * i as f64) + wob;
            Cell::new(&basis, biconcave_coeffs(&basis, cell_r, center), params)
        })
        .collect();

    let mut config = sim_config(cfg, sec, 0.01, 0.05);
    if cfg.get(sec, "gravity").is_none() {
        config.gravity = Vec3::new(0.0, 0.0, cfg.f64_or(sec, "gravity_z", -3.0));
    }
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle: false,
    })
}

/// A single-file train of biconcave cells in a straight tube, advected by
/// parabolic (Poiseuille) inflow — the axisymmetric margination baseline.
fn build_poiseuille_train(cfg: &Doc) -> Result<Built, String> {
    let sec = "poiseuille_train";
    let length = cfg.f64_or(sec, "tube_length", 8.0);
    let tube_r = cfg.f64_or(sec, "tube_radius", 1.2);
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(length, 0.0, 0.0),
    };
    let refine = wall_refine(cfg, sec, 0);
    let q = cfg.usize_or(sec, "patch_order", 8);
    let coarse = capsule_tube(&line, tube_r, cfg.usize_or(sec, "tube_segments", 4), q);
    let surface = refined_surface(&coarse, refine);
    let peak = cfg.f64_or(sec, "peak_speed", 1.5);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        peak,
        wall_col_m(cfg.usize_or(sec, "col_m", 10), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 8));
    let n_cells = cfg.usize_or(sec, "n_cells", 4);
    if n_cells == 0 {
        return Err("poiseuille_train: n_cells must be ≥ 1".into());
    }
    let cell_r = cfg.f64_or(sec, "cell_radius", 0.5);
    if cell_r >= tube_r {
        return Err(format!(
            "poiseuille_train: cell_radius {cell_r} does not fit tube_radius {tube_r}"
        ));
    }
    let spacing = cfg.f64_or(sec, "spacing", 1.5);
    let span = spacing * (n_cells - 1) as f64 + 2.0 * cell_r;
    if span > length {
        return Err(format!(
            "poiseuille_train: train span {span:.2} (n_cells·spacing + cell) exceeds tube_length {length}"
        ));
    }
    let offset = cfg.f64_or(sec, "radial_offset", 0.0);
    if offset.abs() + cell_r >= tube_r {
        return Err(format!(
            "poiseuille_train: radial_offset {offset} pushes cells into the wall"
        ));
    }
    let params = cell_params(cfg, sec, 0.01, 1.0);
    // train centered in the tube, marching along +x
    let x0 = 0.5 * (length - spacing * (n_cells.saturating_sub(1)) as f64);
    let cells: Vec<Cell> = (0..n_cells)
        .map(|i| {
            let center = Vec3::new(x0 + spacing * i as f64, 0.0, offset);
            Cell::new(&basis, biconcave_coeffs(&basis, cell_r, center), params)
        })
        .collect();

    let config = sim_config(cfg, sec, 0.01, 0.05);
    let recycle = cfg.bool_or(sec, "recycle", true);
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle,
    })
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
fn build_bifurcation(cfg: &Doc) -> Result<Built, String> {
    let sec = "bifurcation";
    if cfg.get(sec, "wall_refine").is_some() {
        return Err(
            "bifurcation: wall_refine is not supported on network vessels \
             (refinement would re-fit the junction blend from coarse patch \
             polynomials); raise per_face instead"
                .into(),
        );
    }
    let parent_r = cfg.f64_or(sec, "parent_radius", 0.5);
    let parent_l = cfg.f64_or(sec, "parent_length", 1.6);
    let daughter_r = cfg.f64_or(sec, "daughter_radius", 0.4);
    let daughter_l = cfg.f64_or(sec, "daughter_length", 1.5);
    let angle = cfg.f64_or(sec, "daughter_angle_deg", 31.0).to_radians();
    let flux = cfg.f64_or(sec, "flux", 1.0);
    if !flux.is_finite() || flux <= 0.0 {
        return Err(format!("bifurcation: flux must be > 0, got {flux}"));
    }
    let split = cfg.f64_or(sec, "flux_split", 0.55);
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
        smoothing: cfg.f64_or(sec, "smoothing", 0.3 * daughter_r.min(parent_r)),
        per_face: cfg.usize_or(sec, "per_face", 2),
        q: cfg.usize_or(sec, "patch_order", 8),
    };
    let vessel = vessel_from_network(
        &spec,
        1.0,
        bie_options(cfg, sec, spec.q, 0)?,
        cfg.usize_or(sec, "col_m", 6),
    )
    .map_err(|e| format!("bifurcation: {e}"))?;

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 6));
    let n_cells = cfg.usize_or(sec, "n_cells", 2);
    if n_cells == 0 {
        return Err("bifurcation: n_cells must be ≥ 1".into());
    }
    let cell_r = cfg.f64_or(sec, "cell_radius", 0.15);
    if cell_r >= daughter_r.min(parent_r) {
        return Err(format!(
            "bifurcation: cell_radius {cell_r} does not fit the narrowest branch \
             (radius {})",
            daughter_r.min(parent_r)
        ));
    }
    let spacing = cfg.f64_or(sec, "spacing", 3.0 * cell_r);
    // train along the parent axis, marching -x toward the junction; the
    // lead cell starts mid-branch, the tail stays clear of the inlet cap
    let x_far = parent_l - 2.0 * cell_r;
    let x_near = x_far - spacing * (n_cells - 1) as f64;
    if x_near < cell_r {
        return Err(format!(
            "bifurcation: train span {:.2} (n_cells·spacing + caps) exceeds \
             parent_length {parent_l}",
            spacing * (n_cells - 1) as f64 + 3.0 * cell_r
        ));
    }
    let params = cell_params(cfg, sec, 0.01, 1.0);
    let cells: Vec<Cell> = (0..n_cells)
        .map(|i| {
            let center = Vec3::new(x_far - spacing * i as f64, 0.0, 0.0);
            Cell::new(&basis, biconcave_coeffs(&basis, cell_r, center), params)
        })
        .collect();

    let config = sim_config(cfg, sec, 0.01, 0.05);
    // `recycle_cells` tests every outlet, but the default stays off: the
    // pinned bifurcation trajectories were recorded without recycling
    let recycle = cfg.bool_or(sec, "recycle", false);
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle,
    })
}

/// One rung of the tube-diameter ladder behind the apparent-viscosity
/// (Fåhræus–Lindqvist) sweep: a straight capsule tube carrying a *fixed
/// volumetric flux* `flux` regardless of `tube_radius`, so runs at
/// different diameters are directly comparable (the physiology bench
/// varies `tube_radius` only). The quartic port profile of
/// [`sim::Vessel::new`] has flux `peak · π r² / 2`, so the inflow peak is
/// derived as `2·flux / (π·tube_radius²)` unless `peak_speed` overrides
/// it explicitly.
fn build_vessel_ladder(cfg: &Doc) -> Result<Built, String> {
    let sec = "vessel_ladder";
    let length = cfg.f64_or(sec, "tube_length", 6.0);
    let tube_r = cfg.f64_or(sec, "tube_radius", 0.8);
    if !(tube_r > 0.0 && length > 2.0 * tube_r) {
        return Err(format!(
            "vessel_ladder: need tube_length > 2·tube_radius > 0, got \
             length {length}, radius {tube_r}"
        ));
    }
    let flux = cfg.f64_or(sec, "flux", 1.0);
    if !flux.is_finite() || flux <= 0.0 {
        return Err(format!("vessel_ladder: flux must be > 0, got {flux}"));
    }
    let peak = cfg.f64_or(
        sec,
        "peak_speed",
        2.0 * flux / (std::f64::consts::PI * tube_r * tube_r),
    );
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(length, 0.0, 0.0),
    };
    let refine = wall_refine(cfg, sec, 0);
    let q = cfg.usize_or(sec, "patch_order", 8);
    let coarse = capsule_tube(&line, tube_r, cfg.usize_or(sec, "tube_segments", 3), q);
    let surface = refined_surface(&coarse, refine);
    let vessel = Vessel::new(
        (*surface).clone(),
        1.0,
        bie_options(cfg, sec, q, refine)?,
        peak,
        wall_col_m(cfg.usize_or(sec, "col_m", 10), refine),
    );

    let basis = SphBasis::new(cfg.usize_or(sec, "order", 6));
    let n_cells = cfg.usize_or(sec, "n_cells", 3);
    if n_cells == 0 {
        return Err("vessel_ladder: n_cells must be ≥ 1".into());
    }
    let cell_r = cfg.f64_or(sec, "cell_radius", 0.4);
    if cell_r >= tube_r {
        return Err(format!(
            "vessel_ladder: cell_radius {cell_r} does not fit tube_radius {tube_r}"
        ));
    }
    let spacing = cfg.f64_or(sec, "spacing", 1.4);
    let span = spacing * (n_cells - 1) as f64 + 2.0 * cell_r;
    if span > length {
        return Err(format!(
            "vessel_ladder: train span {span:.2} (n_cells·spacing + cell) exceeds \
             tube_length {length}"
        ));
    }
    let offset = cfg.f64_or(sec, "radial_offset", 0.0);
    if offset.abs() + cell_r >= tube_r {
        return Err(format!(
            "vessel_ladder: radial_offset {offset} pushes cells into the wall"
        ));
    }
    // `shape = "sphere"` swaps the train for near-force-free spheres: the
    // discrete biconcave shape is *not* an equilibrium of the discretized
    // membrane energy, so it releases stored elastic energy for many steps
    // after t = 0 and that transient swamps the confinement drag the
    // apparent-viscosity observable wants to see at smoke horizons. A
    // sphere's bending force is a spatially constant normal field whose
    // work vanishes under the volume-conserving motion the stepper
    // enforces, so sphere rungs measure the genuine drag excess from
    // step 1 (the physiology regression tests and bench run this mode).
    let shape = cfg.str_or(sec, "shape", "biconcave");
    if shape != "biconcave" && shape != "sphere" {
        return Err(format!(
            "vessel_ladder: unknown shape `{shape}` (expected biconcave or sphere)"
        ));
    }
    let params = cell_params(cfg, sec, 0.01, 1.0);
    let x0 = 0.5 * (length - spacing * (n_cells.saturating_sub(1)) as f64);
    let cells: Vec<Cell> = (0..n_cells)
        .map(|i| {
            let center = Vec3::new(x0 + spacing * i as f64, 0.0, offset);
            let coeffs = if shape == "sphere" {
                sphere_coeffs(&basis, cell_r, center)
            } else {
                biconcave_coeffs(&basis, cell_r, center)
            };
            Cell::new(&basis, coeffs, params)
        })
        .collect();

    let config = sim_config(cfg, sec, 0.01, 0.05);
    let recycle = cfg.bool_or(sec, "recycle", true);
    Ok(Built {
        sim: Simulation::new(basis, cells, Some(vessel), config),
        recycle,
    })
}

/// Randomly oriented cells on a jittered cubic lattice in free space,
/// sheared by the background flow — the unconfined dense-suspension
/// rheology workload.
fn build_random_suspension(cfg: &Doc) -> Result<Built, String> {
    let sec = "random_suspension";
    let basis = SphBasis::new(cfg.usize_or(sec, "order", 8));
    let n_side = cfg.usize_or(sec, "n_side", 2);
    if n_side == 0 {
        return Err("random_suspension: n_side must be ≥ 1".into());
    }
    let spacing = cfg.f64_or(sec, "spacing", 2.6);
    let jitter = cfg.f64_or(sec, "jitter", 0.25);
    if jitter < 0.0 {
        return Err(format!(
            "random_suspension: jitter must be ≥ 0, got {jitter}"
        ));
    }
    let cell_r = cfg.f64_or(sec, "cell_radius", 1.0);
    if jitter * 2.0 + 2.0 * cell_r > spacing {
        return Err(format!(
            "random_suspension: spacing {spacing} too small for cell_radius {cell_r} + jitter {jitter}"
        ));
    }
    let params = cell_params(cfg, sec, 0.02, 1.0);
    let mut rng = StdRng::seed_from_u64(cfg.usize_or(sec, "seed", 13) as u64);
    let half = 0.5 * spacing * (n_side - 1) as f64;
    let mut cells = Vec::with_capacity(n_side * n_side * n_side);
    for k in 0..n_side {
        for j in 0..n_side {
            for i in 0..n_side {
                let lattice = Vec3::new(
                    i as f64 * spacing - half,
                    j as f64 * spacing - half,
                    k as f64 * spacing - half,
                );
                // jitter = 0 is a valid perfect-lattice run; the shim's
                // random_range rejects empty ranges
                let wob = if jitter > 0.0 {
                    Vec3::new(
                        rng.random_range(-jitter..jitter),
                        rng.random_range(-jitter..jitter),
                        rng.random_range(-jitter..jitter),
                    )
                } else {
                    Vec3::ZERO
                };
                let coeffs = biconcave_coeffs(&basis, cell_r, lattice + wob);
                let rot = rotated_coeffs(&basis, &coeffs, &mut rng);
                cells.push(Cell::new(&basis, rot, params));
            }
        }
    }
    let mut config = sim_config(cfg, sec, 0.01, 0.05);
    config.shear_rate = cfg.f64_or(sec, "shear_rate", 0.5);
    Ok(Built {
        sim: Simulation::new(basis, cells, None, config),
        recycle: false,
    })
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
        cfg.set("shear_pair", "dt_min", crate::toml::Value::Float(1e-4));
        cfg.set("shear_pair", "dt_grow_after", crate::toml::Value::Int(7));
        cfg.set("shear_pair", "substep", crate::toml::Value::Bool(true));
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
        assert_eq!(ctl.dt_min, 1e-4);
        assert_eq!(ctl.grow_after, 7);
        assert!(ctl.substep);
        assert_eq!(ctl.max_stretch, 5.0);
        assert_eq!(ctl.max_volume_drift, 0.1);
        // defaults: controller armed, dt_min resolved from the target dt
        let on = build("shear_pair", &Doc::default()).unwrap();
        assert!(on.sim.config.dt_control.enabled);
        assert_eq!(on.sim.config.dt_control.resolved_dt_min(0.02), 0.02 / 16.0);
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
