//! Adaptive-dt regression tests at the driver level: the retry/backoff
//! controller must (a) actually fire on an oversized step and recover by
//! halving, (b) stay bit-identical across independently built instances
//! *through* the retry path (a failed attempt must leave nothing behind —
//! neither in the cells nor in the boundary solve's warm start — or the
//! trajectories diverge), and
//! (c) survive a checkpoint/restart taken mid-backoff — the controller's
//! evolving state (current dt, clean-step counter, frozen set) rides in
//! the v4 checkpoint, so the restarted instance must continue the exact
//! backed-off trajectory rather than resetting to the target dt.
//! The free-space test covers the controller; the `poiseuille_train` test
//! covers the same three with a wall, where `bie_warm` and the boundary
//! solve are in play, plus (d) the retry-equivalence oracle: what a step
//! computes before its first attempt does not depend on dt.

use driver::{Doc, Value};
use sim::Simulation;

fn coeff_bits(sim: &Simulation) -> Vec<u64> {
    let mut bits = Vec::new();
    for cell in &sim.cells {
        for c in 0..3 {
            bits.extend(cell.coeffs[c].data.iter().map(|v| v.to_bits()));
        }
    }
    bits
}

fn assert_bit_identical(a: &Simulation, b: &Simulation, what: &str) {
    let da = coeff_bits(a);
    let db = coeff_bits(b);
    let diffs = da.iter().zip(&db).filter(|(x, y)| x != y).count();
    assert_eq!(
        diffs,
        0,
        "{what}: {diffs}/{} coefficient words differ",
        da.len()
    );
    assert_eq!(
        a.dt_state.dt.to_bits(),
        b.dt_state.dt.to_bits(),
        "{what}: controller dt differs"
    );
    assert_eq!(a.dt_state.clean_steps, b.dt_state.clean_steps, "{what}");
    assert_eq!(a.dt_state.frozen, b.dt_state.frozen, "{what}");
    assert_eq!(warm_bits(a), warm_bits(b), "{what}: bie_warm differs");
}

fn warm_bits(sim: &Simulation) -> Option<Vec<u64>> {
    let warm = sim.bie_warm.as_ref()?;
    Some(warm.iter().map(|v| v.to_bits()).collect())
}

fn shear_cfg(dt: f64) -> Doc {
    let mut cfg = Doc::default();
    cfg.set("shear_pair", "order", Value::Int(6));
    cfg.set("shear_pair", "dt", Value::Float(dt));
    cfg
}

#[test]
fn oversized_dt_retries_bit_identically_and_restarts_mid_backoff() {
    // probe the unconstrained volume drift of an oversized step, so the
    // gate below trips at the full dt but clears after one halving
    let dt = 0.05;
    let mut probe_cfg = shear_cfg(dt);
    probe_cfg.set("shear_pair", "dt_adaptive", Value::Bool(false));
    let mut probe = driver::build("shear_pair", &probe_cfg).unwrap().sim;
    probe.step();
    let d1 = probe
        .last_health
        .iter()
        .map(|h| h.volume_drift)
        .fold(0.0f64, f64::max);
    assert!(d1 > 0.0, "probe run reported no volume drift");

    let mut cfg = shear_cfg(dt);
    cfg.set("shear_pair", "dt_max_vol_drift", Value::Float(0.7 * d1));
    let mut a = driver::build("shear_pair", &cfg).unwrap().sim;
    let mut b = driver::build("shear_pair", &cfg).unwrap().sim;

    // step 1: the oversized dt must trip the gate and recover by halving
    a.step();
    b.step();
    assert!(a.last_stats.dt_retries >= 1, "oversized dt never retried");
    assert_eq!(a.last_stats.frozen_cells, 0, "halving should suffice");
    assert!(a.last_stats.dt_effective < dt);
    assert!(a.dt_state.dt < dt, "backed-off dt must persist");
    assert_bit_identical(&a, &b, "step 1 (through retry)");

    // checkpoint mid-backoff: the restored instance continues the exact
    // backed-off trajectory
    let ckpt = sim::Checkpoint::capture(&a, "shear_pair");
    let restored = sim::Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let mut c = driver::build("shear_pair", &cfg).unwrap().sim;
    restored.restore_into(&mut c).unwrap();
    assert_bit_identical(&a, &c, "restore mid-backoff");

    for step in 2..=4 {
        a.step();
        b.step();
        c.step();
        assert_bit_identical(&a, &b, &format!("step {step} instances"));
        assert_bit_identical(&a, &c, &format!("step {step} restart"));
    }
}

const TRAIN: &str = "poiseuille_train";
const TRAIN_DT: f64 = 0.04;

/// A tiny `poiseuille_train`: 2 cells, 2 wall segments, dense backend.
fn train_cfg() -> Doc {
    let mut cfg = Doc::default();
    cfg.set(TRAIN, "order", Value::Int(6));
    cfg.set(TRAIN, "n_cells", Value::Int(2));
    cfg.set(TRAIN, "tube_segments", Value::Int(2));
    cfg.set(TRAIN, "patch_order", Value::Int(6));
    cfg.set(TRAIN, "dt", Value::Float(TRAIN_DT));
    cfg
}

/// `n` identical trains one committed step in, so that `bie_warm` is warm,
/// with the drift bound then tightened so that step 2 fails at dt and clears
/// at dt/2.
fn trains_before_a_retried_step(n: usize) -> Vec<Simulation> {
    let mut probe_cfg = train_cfg();
    probe_cfg.set(TRAIN, "dt_adaptive", Value::Bool(false));
    let mut probe = driver::build(TRAIN, &probe_cfg).unwrap().sim;
    probe.step();
    probe.step();
    let d2 = probe
        .last_health
        .iter()
        .map(|h| h.volume_drift)
        .fold(0.0f64, f64::max);
    assert!(d2 > 0.0, "probe run reported no volume drift");
    (0..n)
        .map(|_| {
            let mut sim = driver::build(TRAIN, &train_cfg()).unwrap().sim;
            sim.step();
            assert_eq!(sim.last_stats.dt_retries, 0, "step 1 commits at dt");
            sim.config.dt_control.max_volume_drift = 0.8 * d2;
            sim
        })
        .collect()
}

fn restart_train(from: &Simulation) -> Simulation {
    let ckpt = sim::Checkpoint::capture(from, TRAIN);
    let restored = sim::Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    let mut sim = driver::build(TRAIN, &train_cfg()).unwrap().sim;
    restored.restore_into(&mut sim).unwrap();
    assert_bit_identical(from, &sim, "restore");
    sim
}

#[test]
fn retried_wall_step_is_bit_identical_across_instances_and_restarts() {
    let mut sims = trains_before_a_retried_step(2);
    sims.push(restart_train(&sims[0])); // restarted right before the retry
    for sim in &mut sims {
        sim.step();
        assert_eq!(sim.last_stats.dt_retries, 1, "step 2 fails once at dt");
        assert_eq!(sim.last_stats.frozen_cells, 0, "halving should suffice");
        assert!(sim.bie_warm.is_some(), "the wall solve must have run");
    }
    sims.push(restart_train(&sims[0])); // restarted mid-backoff
    for sim in &mut sims {
        sim.step();
    }
    for (what, other) in [
        "instance",
        "restart before the retry",
        "restart mid-backoff",
    ]
    .iter()
    .zip(&sims[1..])
    {
        assert_bit_identical(&sims[0], other, what);
    }
}

/// The retry-equivalence oracle: a step that fails at dt and commits at dt/2
/// ends exactly where a first-attempt commit at dt/2 ends, warm start
/// included — nothing a step computes before its first attempt depends on
/// dt.
#[test]
fn retried_wall_step_equals_a_first_attempt_commit_at_half_dt() {
    let mut sims = trains_before_a_retried_step(2);
    sims[1].dt_state.dt = 0.5 * TRAIN_DT;
    for sim in &mut sims {
        sim.step();
        assert_eq!(sim.last_stats.dt_effective, 0.5 * TRAIN_DT);
    }
    let (retried, preset) = (&sims[0], &sims[1]);
    assert_eq!(retried.last_stats.dt_retries, 1);
    assert_eq!(preset.last_stats.dt_retries, 0);
    assert_eq!(coeff_bits(retried), coeff_bits(preset));
    assert!(retried.bie_warm.is_some());
    assert_eq!(warm_bits(retried), warm_bits(preset), "bie_warm");
}
