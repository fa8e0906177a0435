//! Simulation-farm acceptance tests: batch jobs must be bit-identical to
//! single runs, and a killed farm must resume from per-job checkpoints to
//! the exact bits of an uninterrupted farm.
//!
//! Checkpoint *files* are not byte-comparable across runs (they embed
//! wall-clock timers), so identity is asserted on what defines the
//! trajectory: the restored cells' coefficient bits (via `coeff_bits`)
//! and the step counter.

use driver::{Doc, FarmOptions, JobStatus, Manifest, Value};
use sim::{Checkpoint, Simulation};
use std::path::Path;

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

/// Loads a job's final checkpoint and restores it into a freshly built
/// scenario, returning the restored simulation.
fn restore_final(out_dir: &Path, scenario: &str, cfg: &Doc) -> Simulation {
    let path = driver::final_checkpoint_path(out_dir, scenario);
    let ckpt = Checkpoint::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut sim = driver::build(scenario, cfg).unwrap().sim;
    ckpt.restore_into(&mut sim).unwrap();
    sim
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("driver_farm_{tag}_{}", std::process::id()))
}

#[test]
fn farm_jobs_match_single_runs_bit_identically() {
    let root = tmp("single");
    std::fs::remove_dir_all(&root).ok();
    let text = format!(
        r#"
[farm]
jobs = ["pair8", "pair6"]
out_root = "{}"

[pair8]
scenario = "shear_pair"
steps = 3
order = 8
dt = 0.02

[pair6]
scenario = "shear_pair"
steps = 2
order = 6
"#,
        root.display()
    );
    let manifest = Manifest::parse(&text).unwrap();
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.failed(), 0, "{:?}", report.outcomes);
    assert_eq!(report.completed(), 2);

    // single-run references, stepped directly through the sim API
    for (job, steps) in [(&manifest.jobs[0], 3usize), (&manifest.jobs[1], 2usize)] {
        let mut reference = driver::build("shear_pair", &job.cfg).unwrap().sim;
        for _ in 0..steps {
            reference.step();
        }
        let farm_sim = restore_final(&job.out_dir, "shear_pair", &job.cfg);
        assert_eq!(farm_sim.steps, steps);
        assert_eq!(
            coeff_bits(&reference),
            coeff_bits(&farm_sim),
            "farm job `{}` diverged from the single run",
            job.name
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_farm_resumes_bit_identically() {
    let root_ref = tmp("kill_ref");
    let root_kill = tmp("kill");
    std::fs::remove_dir_all(&root_ref).ok();
    std::fs::remove_dir_all(&root_kill).ok();
    let manifest_for = |root: &Path, steps: usize| {
        let text = format!(
            r#"
[farm]
jobs = ["pair"]
out_root = "{}"
checkpoint_every = 1

[pair]
scenario = "shear_pair"
steps = {steps}
order = 8
dt = 0.02
"#,
            root.display()
        );
        Manifest::parse(&text).unwrap()
    };
    let quiet = FarmOptions {
        quiet: true,
        ..Default::default()
    };

    // uninterrupted reference farm: 4 steps straight through
    driver::run_farm(&manifest_for(&root_ref, 4), &quiet).unwrap();

    // "crashed" farm: killed after the step-2 cadence checkpoint landed —
    // run 2 steps, then erase the final-state file the kill would have
    // prevented, leaving only cadence checkpoints behind
    driver::run_farm(&manifest_for(&root_kill, 2), &quiet).unwrap();
    let out_dir = root_kill.join("pair");
    std::fs::remove_file(driver::final_checkpoint_path(&out_dir, "shear_pair")).unwrap();
    assert!(out_dir.join("shear_pair_step000002.ckpt").exists());

    // restarting the same farm resumes the job from the newest cadence
    // checkpoint and runs only the remainder
    let report = driver::run_farm(&manifest_for(&root_kill, 4), &quiet).unwrap();
    assert_eq!(report.resumed(), 1);
    assert_eq!(report.outcomes[0].start_step, 2);
    assert_eq!(report.outcomes[0].steps_run, 2);

    let cfg = &manifest_for(&root_kill, 4).jobs[0].cfg.clone();
    let resumed = restore_final(&out_dir, "shear_pair", cfg);
    let reference = restore_final(&root_ref.join("pair"), "shear_pair", cfg);
    assert_eq!(resumed.steps, 4);
    let a = coeff_bits(&reference);
    let b = coeff_bits(&resumed);
    let diffs = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert_eq!(
        diffs,
        0,
        "{diffs}/{} coefficient words differ after farm resume",
        a.len()
    );

    // a third run has nothing to do: the job is already at target
    let report = driver::run_farm(&manifest_for(&root_kill, 4), &quiet).unwrap();
    assert_eq!(report.outcomes[0].status, JobStatus::AlreadyDone);
    std::fs::remove_dir_all(&root_ref).ok();
    std::fs::remove_dir_all(&root_kill).ok();
}

#[test]
fn halted_farm_restarts_and_finishes_the_queue() {
    let root = tmp("halt");
    std::fs::remove_dir_all(&root).ok();
    let text = format!(
        r#"
[farm]
jobs = ["first", "second"]
out_root = "{}"

[first]
scenario = "shear_pair"
steps = 2
order = 6

[second]
scenario = "shear_pair"
steps = 2
order = 6
shear_rate = 0.5
"#,
        root.display()
    );
    let manifest = Manifest::parse(&text).unwrap();

    // simulated crash after one completed job
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            halt_after: Some(1),
            ..Default::default()
        },
    )
    .unwrap();
    let statuses: Vec<JobStatus> = report.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(statuses, [JobStatus::Completed, JobStatus::Halted]);

    // the restarted farm skips the finished job and runs the halted one
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    let statuses: Vec<JobStatus> = report.outcomes.iter().map(|o| o.status).collect();
    assert_eq!(statuses, [JobStatus::AlreadyDone, JobStatus::Completed]);
    assert_eq!(report.completed(), 2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn same_geometry_jobs_share_the_refined_surface_cache() {
    let root = tmp("cache");
    std::fs::remove_dir_all(&root).ok();
    // two refined-wall vessel jobs over the same tiny geometry: the
    // second build must hit the process-wide surface cache, and the
    // FMM-backed solves share operator tables
    let text = format!(
        r#"
[farm]
jobs = ["ves_a", "ves_b"]
out_root = "{}"

[ves_a]
scenario = "vessel_flow"
steps = 1
tube_segments = 1
patch_order = 6
order = 6
bie_backend = "fmm"
bie_qf = 6
fill_h = 1.5

[ves_b]
scenario = "vessel_flow"
steps = 1
tube_segments = 1
patch_order = 6
order = 6
bie_backend = "fmm"
bie_qf = 6
fill_h = 1.5
seed = 7
"#,
        root.display()
    );
    let manifest = Manifest::parse(&text).unwrap();
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.failed(), 0, "{:?}", report.outcomes);
    assert!(
        report.cache.hits() >= 1,
        "expected shared-cache hits across same-geometry jobs, telemetry {:?}",
        report.cache
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn manifest_rejections_surface_before_any_job_runs() {
    // bad scenario name
    let e =
        Manifest::parse("[farm]\njobs = [\"a\"]\n[a]\nscenario = \"not_a_scenario\"\nsteps = 1\n")
            .unwrap_err();
    assert!(e.contains("unknown scenario"), "{e}");

    // duplicate output dir (both jobs default to out_root/<name>… forced
    // here via explicit out_dir)
    let e = Manifest::parse(
        "[farm]\njobs = [\"a\", \"b\"]\n\
         [a]\nscenario = \"shear_pair\"\nsteps = 1\nout_dir = \"target/dup\"\n\
         [b]\nscenario = \"shear_pair\"\nsteps = 1\nout_dir = \"target/dup\"\n",
    )
    .unwrap_err();
    assert!(e.contains("already used"), "{e}");

    // a config key the builder rejects fails the job, not the farm
    let mut cfg = Doc::default();
    cfg.set("shear_pair", "order", Value::Int(8));
    assert!(driver::build("shear_pair", &cfg).is_ok());
}

#[test]
fn a_mistyped_job_key_fails_that_job_only() {
    let root = tmp("typo");
    std::fs::remove_dir_all(&root).ok();
    let text = format!(
        r#"
[farm]
jobs = ["typo", "clean"]
out_root = "{}"

[typo]
scenario = "shear_pair"
steps = 1
order = 6
ordr = 8

[clean]
scenario = "shear_pair"
steps = 1
order = 6
"#,
        root.display()
    );
    let manifest = Manifest::parse(&text).unwrap();
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            ..Default::default()
        },
    )
    .unwrap();
    let (typo, clean) = (&report.outcomes[0], &report.outcomes[1]);
    assert_eq!(typo.status, JobStatus::Failed);
    let e = typo.error.as_deref().unwrap_or_default();
    assert!(e.starts_with("shear_pair: unknown key `ordr`"), "{e}");
    assert_eq!(clean.status, JobStatus::Completed, "{:?}", clean.error);
    assert_eq!(report.completed(), 1);
    std::fs::remove_dir_all(&root).ok();
}
