//! Acceptance tests for the branched-network scenario family: the
//! `bifurcation` scenario must conserve flux at every step to roundoff,
//! step bit-identically across instances and thread counts, and
//! round-trip bit-identically through a checkpoint file — with the
//! network's flux manifest riding the vessel-digest guard, so a restart
//! against a *different* flux split is rejected instead of silently
//! continuing on the wrong boundary condition.
//!
//! The physiology regression tests live here too: every rung of the
//! tube-diameter ladder must dissipate more than cell-free Poiseuille at
//! fixed flux, with a positive cell-free layer widening with the lumen,
//! and the bifurcation's branch split must track the prescribed flux
//! split.

use driver::{Doc, PhysioSink, StepSink, Value};
use sim::{Checkpoint, Simulation};

fn coeff_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = Vec::new();
    for cell in &sim.cells {
        for c in 0..3 {
            bits.extend(cell.coeffs[c].data.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

fn assert_bits_equal(step: usize, a: &Simulation, b: &Simulation) {
    let da = coeff_bits(a);
    let db = coeff_bits(b);
    let diffs = da.iter().zip(&db).filter(|(x, y)| x != y).count();
    assert_eq!(
        diffs,
        0,
        "step {step}: {diffs}/{} coefficient words differ",
        da.len()
    );
    if let (Some(wa), Some(wb)) = (a.bie_warm.as_ref(), b.bie_warm.as_ref()) {
        let wdiffs = wa
            .iter()
            .zip(wb)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        assert_eq!(wdiffs, 0, "step {step}: warm-start densities differ");
    }
}

/// The registry-default Y-bifurcation at smoke cost (24 wall patches at
/// per_face = 2, two cells in the parent branch).
fn bifurcation_cfg() -> Doc {
    let mut cfg = Doc::default();
    let sec = "bifurcation";
    cfg.set(sec, "order", Value::Int(6));
    cfg.set(sec, "patch_order", Value::Int(6));
    cfg
}

/// Every committed step of the bifurcation must conserve flux: the three
/// prescribed port fluxes cancel exactly in the discrete quadrature, so
/// the per-step imbalance recorded in `StepStats` is roundoff — orders
/// below the 1e-6 acceptance tolerance the CI smoke enforces.
#[test]
fn bifurcation_conserves_flux_every_step() {
    let mut sim = driver::build("bifurcation", &bifurcation_cfg())
        .unwrap()
        .sim;
    let scale: f64 = sim
        .vessel
        .as_ref()
        .unwrap()
        .port_fluxes()
        .iter()
        .map(|f| f.abs())
        .sum();
    for step in 1..=2 {
        sim.step();
        let imb = sim.last_stats.flux_imbalance;
        assert!(
            imb < 1e-12 * scale,
            "step {step}: net port flux imbalance {imb:.3e} is not roundoff"
        );
    }
}

/// Two independently built bifurcations, one pinned to 1 worker and one
/// to 4, must step bit-identically — the junction blend, the N-port BC
/// assembly, and the boundary solve all preserve the fixed reduction
/// order the rest of the pipeline guarantees.
#[test]
fn bifurcation_threads_step_bit_identically() {
    let mut cfg1 = bifurcation_cfg();
    let mut cfg4 = bifurcation_cfg();
    cfg1.set("bifurcation", "threads", Value::Int(1));
    cfg4.set("bifurcation", "threads", Value::Int(4));
    let mut a = driver::build("bifurcation", &cfg1).unwrap().sim;
    let mut b = driver::build("bifurcation", &cfg4).unwrap().sim;
    assert_eq!(a.config.threads, 1);
    assert_eq!(b.config.threads, 4);
    for step in 1..=2 {
        a.step();
        b.step();
        assert_bits_equal(step, &a, &b);
        assert_eq!(
            a.last_stats.flux_imbalance.to_bits(),
            b.last_stats.flux_imbalance.to_bits(),
            "step {step}: flux imbalance differs across thread counts"
        );
    }
}

/// A bifurcation run interrupted at step 2 and restored from the
/// checkpoint file must reproduce the uninterrupted 3-step trajectory
/// bit-identically; restoring the same checkpoint into a bifurcation
/// built with a *different flux split* must fail the vessel-digest
/// guard (the per-port fluxes are hashed into the digest).
#[test]
fn bifurcation_restart_round_trips_and_guards_the_flux_manifest() {
    let cfg = bifurcation_cfg();

    // uninterrupted reference: 3 steps
    let mut reference = driver::build("bifurcation", &cfg).unwrap().sim;
    for _ in 0..3 {
        reference.step();
    }
    let ref_bits = coeff_bits(&reference);

    // interrupted: 2 steps, checkpoint through a file
    let mut first = driver::build("bifurcation", &cfg).unwrap().sim;
    for _ in 0..2 {
        first.step();
    }
    let dir = std::env::temp_dir().join(format!("driver_bifurcation_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bifurcation.ckpt");
    Checkpoint::write(&first, "bifurcation", &path).unwrap();

    // fresh process-equivalent: rebuild, restore, continue one step
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.steps, 2);
    let mut resumed = driver::build("bifurcation", &cfg).unwrap().sim;
    loaded.restore_into(&mut resumed).unwrap();
    resumed.step();
    assert_eq!(resumed.steps, 3);
    let resumed_bits = coeff_bits(&resumed);
    let diffs = ref_bits
        .iter()
        .zip(&resumed_bits)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        diffs,
        0,
        "{diffs}/{} coefficient words differ after bifurcation restart",
        ref_bits.len()
    );

    // same geometry, different flux manifest: the digest guard rejects it
    let mut wrong = bifurcation_cfg();
    wrong.set("bifurcation", "flux_split", Value::Float(0.7));
    let mut other = driver::build("bifurcation", &wrong).unwrap().sim;
    let err = loaded
        .restore_into(&mut other)
        .expect_err("restore against a different flux split must fail");
    assert!(err.to_string().contains("vessel digest mismatch"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A cheap `vessel_ladder` instance at the given rung radius, recycle off
/// so every step's drag power is clean, sphere cells so the drag power is
/// not swamped by the biconcave initialization's elastic relaxation (the
/// discrete biconcave shape is not force-free; see `build_vessel_ladder`).
fn ladder_cfg(radius: f64, n_cells: i64) -> Doc {
    let mut cfg = Doc::default();
    let sec = "vessel_ladder";
    cfg.set(sec, "order", Value::Int(6));
    cfg.set(sec, "patch_order", Value::Int(6));
    cfg.set(sec, "tube_radius", Value::Float(radius));
    cfg.set(sec, "recycle", Value::Bool(false));
    cfg.set(sec, "shape", Value::Str("sphere".into()));
    cfg.set(sec, "n_cells", Value::Int(n_cells));
    cfg
}

/// Runs `steps` steps of a scenario through a `PhysioSink` and returns
/// the rows.
fn physio_rows(
    name: &str,
    cfg: &Doc,
    steps: usize,
    junction: Option<linalg::Vec3>,
) -> Vec<driver::PhysioRow> {
    let mut built = driver::build(name, cfg).unwrap();
    let mut sink = PhysioSink::new(junction, 16);
    sink.on_start(&built.sim).unwrap();
    for _ in 0..steps {
        let t = built.sim.step();
        let row = driver::StepRow {
            step: built.sim.steps,
            timers: t,
            stats: built.sim.last_stats,
            recycled: 0,
        };
        sink.on_step(&built.sim, &row).unwrap();
    }
    sink.rows
}

/// The apparent-viscosity sign regression across the diameter ladder: a
/// loaded tube must dissipate *more* than cell-free Poiseuille at equal
/// flux on every rung (`μ_app/μ > 1`, drag power > 0), and the cell-free
/// layer must widen with the lumen at fixed cell size. The μ-vs-diameter
/// *curve* itself is a steady-state quantity that needs longer horizons
/// than a test should spend; at smoke horizons the honest pins are its
/// sign and the CFL's geometric monotonicity.
#[test]
fn ladder_viscosity_sign_and_cfl_widen_with_lumen() {
    let narrow = physio_rows("vessel_ladder", &ladder_cfg(0.7, 3), 2, None);
    let wide = physio_rows("vessel_ladder", &ladder_cfg(1.1, 3), 2, None);
    for (label, rows) in [("narrow", &narrow), ("wide", &wide)] {
        let mu = rows[1].apparent_viscosity.expect("2-port tube");
        let p = rows[1].drag_power.expect("clean step");
        assert!(
            mu > 1.0 && p > 0.0,
            "{label}: loaded tube must dissipate more than Poiseuille \
             (μ_app {mu}, power {p})"
        );
    }
    let cfl_n = narrow[1].cell_free_layer.expect("cells in span");
    let cfl_w = wide[1].cell_free_layer.expect("cells in span");
    assert!(
        cfl_w > cfl_n && cfl_n > 0.0,
        "cell-free layer must widen with the lumen: narrow {cfl_n} vs wide {cfl_w}"
    );
}

/// The apparent-viscosity monotonicity regression: more cells in the same
/// tube at the same flux must dissipate strictly more — `μ_app` rises
/// with hematocrit (the other axis of the paper's physiology curves, and
/// the one that is monotone already at smoke horizons since every added
/// cell adds drag power against the same Poiseuille baseline).
#[test]
fn ladder_viscosity_rises_with_hematocrit() {
    let dilute = physio_rows("vessel_ladder", &ladder_cfg(0.9, 1), 2, None);
    let dense = physio_rows("vessel_ladder", &ladder_cfg(0.9, 3), 2, None);
    let mu_1 = dilute[1].apparent_viscosity.expect("2-port tube");
    let mu_3 = dense[1].apparent_viscosity.expect("2-port tube");
    assert!(
        mu_3 > mu_1 && mu_1 > 1.0,
        "μ_app must rise with hematocrit: 1 cell {mu_1} vs 3 cells {mu_3}"
    );
}

/// The branch-split regression: the bifurcation's flux split is the
/// prescribed 0.55/0.45 manifest (recorded exactly), and with the seed
/// train still in the parent branch the hematocrit split reports every
/// cell unassigned rather than inventing a split.
#[test]
fn bifurcation_branch_split_tracks_the_flux_manifest() {
    let rows = physio_rows(
        "bifurcation",
        &bifurcation_cfg(),
        2,
        Some(linalg::Vec3::ZERO),
    );
    for r in &rows {
        let split = r.split.as_ref().expect("two outlets + junction");
        let hi = split.flux_frac.iter().cloned().fold(0.0, f64::max);
        let lo = split.flux_frac.iter().cloned().fold(1.0, f64::min);
        assert!(
            (hi - 0.55).abs() < 1e-12 && (lo - 0.45).abs() < 1e-12,
            "{split:?}"
        );
        assert_eq!(split.total_cells, 2);
        // drag power is well-defined from step 1: the sink snapshotted the
        // initial state in on_start
        assert!(r.drag_power.is_some());
    }
}
