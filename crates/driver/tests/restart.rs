//! Checkpoint/restart acceptance test: a shear-pair run interrupted at
//! step 3 and restarted from its checkpoint must reproduce the
//! uninterrupted 5-step trajectory **bit-identically**.

use driver::{Doc, Value};
use sim::{Checkpoint, Simulation};

fn small_shear_pair_cfg() -> Doc {
    let mut cfg = Doc::default();
    // keep the test fast: low order, two cells
    cfg.set("shear_pair", "order", Value::Int(8));
    cfg.set("shear_pair", "dt", Value::Float(0.02));
    cfg
}

fn coeff_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = Vec::new();
    for cell in &sim.cells {
        for c in 0..3 {
            bits.extend(cell.coeffs[c].data.iter().map(|v| v.to_bits()));
        }
        bits.extend(cell.ref_w.iter().map(|v| v.to_bits()));
    }
    bits
}

#[test]
fn restart_reproduces_uninterrupted_run_bit_identically() {
    let cfg = small_shear_pair_cfg();

    // uninterrupted reference: 5 steps
    let mut reference = driver::build("shear_pair", &cfg).unwrap().sim;
    for _ in 0..5 {
        reference.step();
    }
    let ref_bits = coeff_bits(&reference);

    // interrupted run: 3 steps, checkpoint through an actual file
    let mut first = driver::build("shear_pair", &cfg).unwrap().sim;
    for _ in 0..3 {
        first.step();
    }
    let dir = std::env::temp_dir().join(format!("driver_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shear_pair.ckpt");
    Checkpoint::write(&first, "shear_pair", &path).unwrap();

    // fresh process-equivalent: rebuild the scenario, restore, continue
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.scenario, "shear_pair");
    assert_eq!(loaded.steps, 3);
    let mut resumed = driver::build("shear_pair", &cfg).unwrap().sim;
    loaded.restore_into(&mut resumed).unwrap();
    for _ in 0..2 {
        resumed.step();
    }

    assert_eq!(resumed.steps, 5);
    let resumed_bits = coeff_bits(&resumed);
    assert_eq!(ref_bits.len(), resumed_bits.len());
    let diffs = ref_bits
        .iter()
        .zip(&resumed_bits)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        diffs,
        0,
        "{diffs}/{} coefficient words differ after restart",
        ref_bits.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Small sedimentation vessel (5 cells, ~1 s/step in release): exercises
/// the boundary solve so the warm-start density is populated.
fn small_vessel_cfg() -> Doc {
    let mut cfg = Doc::default();
    let sec = "sedimentation";
    cfg.set(sec, "tube_segments", Value::Int(1));
    cfg.set(sec, "patch_order", Value::Int(6));
    cfg.set(sec, "order", Value::Int(6));
    cfg.set(sec, "fill_h", Value::Float(1.5));
    cfg.set(sec, "col_m", Value::Int(6));
    cfg
}

#[test]
fn vessel_warm_start_round_trips_bit_identically() {
    let cfg = small_vessel_cfg();

    // uninterrupted reference: 3 steps
    let mut reference = driver::build("sedimentation", &cfg).unwrap().sim;
    for _ in 0..3 {
        reference.step();
    }
    let ref_bits = coeff_bits(&reference);

    // interrupted: 2 steps, checkpoint through a file
    let mut first = driver::build("sedimentation", &cfg).unwrap().sim;
    for _ in 0..2 {
        first.step();
    }
    let warm = first
        .bie_warm
        .clone()
        .expect("vessel step populates bie_warm");
    let dir = std::env::temp_dir().join(format!("driver_warm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sedimentation.ckpt");
    Checkpoint::write(&first, "sedimentation", &path).unwrap();

    // the warm-start density round-trips bit-exactly through the file
    let loaded = Checkpoint::load(&path).unwrap();
    let loaded_warm = loaded
        .bie_warm
        .as_ref()
        .expect("checkpoint carries bie_warm");
    assert_eq!(loaded_warm.len(), warm.len());
    let diffs = warm
        .iter()
        .zip(loaded_warm)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(diffs, 0, "{diffs}/{} warm-start words differ", warm.len());
    // and so does its image, which the next solve starts from
    let image_bits = |v: Option<&Vec<f64>>| {
        v.expect("a vessel step leaves the warm density's image")
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        image_bits(first.bie_warm_image.as_ref()),
        image_bits(loaded.bie_warm_image.as_ref())
    );

    // restored run continues bit-identically (the next step's GMRES starts
    // from the same warm iterate as the uninterrupted run's)
    let mut resumed = driver::build("sedimentation", &cfg).unwrap().sim;
    loaded.restore_into(&mut resumed).unwrap();
    assert!(resumed.bie_warm.is_some());
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
        "{diffs}/{} coefficient words differ after vessel restart",
        ref_bits.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Restart through the *persistent wall FMM* cache: a refined-wall
/// `vessel_flow` run (wall_refine defaults to 1, FMM backend forced)
/// interrupted and restarted must continue bit-identically. The cache is
/// deliberately not serialized — the resumed instance rebuilds the frozen
/// source tree on its first step (asserted via the telemetry) and must
/// land on the exact bits of the uninterrupted run, which is what licenses
/// treating the plan as derived state rather than trajectory state.
#[test]
fn refined_fmm_vessel_restart_round_trips_bit_identically() {
    let mut cfg = Doc::default();
    let sec = "vessel_flow";
    cfg.set(sec, "tube_segments", Value::Int(1));
    cfg.set(sec, "patch_order", Value::Int(6));
    cfg.set(sec, "order", Value::Int(6));
    cfg.set(sec, "bie_backend", Value::Str("fmm".into()));
    cfg.set(sec, "bie_qf", Value::Int(6)); // keep the refined solve fast
    cfg.set(sec, "fill_h", Value::Float(1.5));

    // uninterrupted reference: 3 steps
    let mut reference = driver::build("vessel_flow", &cfg).unwrap().sim;
    for _ in 0..3 {
        reference.step();
    }
    let ref_bits = coeff_bits(&reference);

    // interrupted: 2 steps, checkpoint through a file
    let mut first = driver::build("vessel_flow", &cfg).unwrap().sim;
    for _ in 0..2 {
        first.step();
    }
    // steady state before the interrupt: the plan was reused, not rebuilt
    assert_eq!(first.last_stats.wall_fmm_builds, 0);
    assert!(first.last_stats.wall_fmm_replans >= 1);
    let dir = std::env::temp_dir().join(format!("driver_fmm_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("vessel_flow.ckpt");
    Checkpoint::write(&first, "vessel_flow", &path).unwrap();

    // fresh process-equivalent: rebuild, restore, continue one step
    let loaded = Checkpoint::load(&path).unwrap();
    let mut resumed = driver::build("vessel_flow", &cfg).unwrap().sim;
    loaded.restore_into(&mut resumed).unwrap();
    resumed.step();
    assert_eq!(resumed.steps, 3);
    // the resumed instance's first step pays exactly one frozen-tree build
    assert_eq!(resumed.last_stats.wall_fmm_builds, 1);

    let resumed_bits = coeff_bits(&resumed);
    assert_eq!(ref_bits.len(), resumed_bits.len());
    let diffs = ref_bits
        .iter()
        .zip(&resumed_bits)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        diffs,
        0,
        "{diffs}/{} coefficient words differ after refined-FMM restart",
        ref_bits.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The image `A·bie_warm` a step hands the next solve comes from GMRES's
/// Arnoldi relation, not from an apply: after 20 steps of a small wall
/// scenario it must still match a direct apply of the wall operator to
/// roundoff (the error of one solve is ~1e-14 relative and must not grow).
#[test]
fn carried_wall_image_matches_a_direct_apply_after_20_steps() {
    let mut cfg = Doc::default();
    let sec = "poiseuille_train";
    cfg.set(sec, "order", Value::Int(6));
    cfg.set(sec, "n_cells", Value::Int(1));
    cfg.set(sec, "tube_segments", Value::Int(1));
    cfg.set(sec, "patch_order", Value::Int(6));
    let mut sim = driver::build(sec, &cfg).unwrap().sim;
    let mut iterations = 0;
    for _ in 0..20 {
        sim.step();
        iterations += sim.last_stats.bie_iterations;
    }
    assert!(iterations >= 20, "the solves must iterate: {iterations}");
    let warm = sim
        .bie_warm
        .as_ref()
        .expect("a vessel step leaves bie_warm");
    let image = sim.bie_warm_image.as_ref().expect("and its image");
    let solver = &sim.vessel.as_ref().unwrap().solver;
    let mut direct = vec![0.0; warm.len()];
    solver.apply(warm, &mut direct);
    let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
    let rel =
        norm(&mut direct.iter().zip(image).map(|(d, i)| d - i)) / norm(&mut direct.iter().copied());
    assert!(rel <= 1e-10, "carried image is {rel:e} off a direct apply");
}

#[test]
fn old_version_checkpoint_rejected_with_clear_error() {
    let cfg = small_shear_pair_cfg();
    let sim = driver::build("shear_pair", &cfg).unwrap().sim;
    let mut bytes = Checkpoint::capture(&sim, "shear_pair").to_bytes();
    // an old file differs only in the version byte of the magic ("RBCCKPT2")
    assert_eq!(&bytes[..7], b"RBCCKPT");
    bytes[7] = b'2';
    let err = Checkpoint::from_bytes(&bytes).expect_err("v2 must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("version 2"),
        "error should name the unsupported version: {msg}"
    );
    assert!(
        msg.contains("version 6"),
        "error should name the supported version: {msg}"
    );

    // garbage magic still reports the generic error
    bytes[0] = b'X';
    let err = Checkpoint::from_bytes(&bytes).expect_err("bad magic");
    assert!(err.to_string().contains("bad magic"), "{err}");
}

#[test]
fn restart_against_wrong_scenario_fails() {
    let cfg = small_shear_pair_cfg();
    let sim = driver::build("shear_pair", &cfg).unwrap().sim;
    let ckpt = Checkpoint::capture(&sim, "shear_pair");

    // a free-space scenario with a different basis order must be rejected
    let mut cfg6 = Doc::default();
    cfg6.set("shear_pair", "order", Value::Int(6));
    let mut other = driver::build("shear_pair", &cfg6).unwrap().sim;
    assert!(ckpt.restore_into(&mut other).is_err());
}

#[test]
fn run_loop_checkpoints_on_cadence_and_restarts() {
    let cfg = small_shear_pair_cfg();
    let dir = std::env::temp_dir().join(format!("driver_cadence_{}", std::process::id()));

    let mut session = driver::Session::build("shear_pair", &cfg).unwrap();
    let opts = driver::RunOptions {
        steps: 4,
        checkpoint_every: 2,
        out_dir: Some(dir.clone()),
        quiet: true,
        ..Default::default()
    };
    let report = session.run(&opts).unwrap();
    // cadence checkpoints at steps 2 and 4, plus the final one
    assert_eq!(report.checkpoints.len(), 3, "{:?}", report.checkpoints);
    assert!(dir.join("trajectory.csv").exists());
    assert_eq!(report.rows.len(), 4);
    assert!(report.timers.total() > 0.0);

    // the mid-run checkpoint resumes to the same state as the full run
    let mid = Checkpoint::load(&report.checkpoints[0]).unwrap();
    assert_eq!(mid.steps, 2);
    let mut resumed = driver::build("shear_pair", &cfg).unwrap().sim;
    mid.restore_into(&mut resumed).unwrap();
    resumed.step();
    resumed.step();
    let full_bits: Vec<u64> = session.sim.cells[0].coeffs[0]
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let res_bits: Vec<u64> = resumed.cells[0].coeffs[0]
        .data
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(full_bits, res_bits);

    std::fs::remove_dir_all(&dir).ok();
}
