//! `sim-driver` — run named scenarios end-to-end with checkpoint/restart.
//!
//! ```text
//! sim-driver list
//! sim-driver <scenario> [--config FILE] [--steps N] [--checkpoint-every K]
//!            [--keep-checkpoints K] [--out DIR | --no-output]
//!            [--restart CKPT] [--quiet] [--threads N]
//!            [--assert-contacts N] [--assert-bie-below N]
//!            [--assert-dt-retries N] [--assert-fmm-rebuilds N]
//!            [--assert-flux-balance TOL]
//!            [--allow-nonfinite] [--set key=value ...]
//! sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] [--quiet]
//!            [--assert-cache-hits N] [--assert-resumed N]
//! ```
//!
//! `batch` runs a simulation farm: a manifest of scenario jobs scheduled
//! over the persistent worker pool, resumable from per-job checkpoints
//! (see `driver::batch` for the manifest format). `--jobs N` caps
//! concurrent jobs (1 = sequential, 0 = pool width); `--halt-after N`
//! simulates a crash after `N` completed jobs; `--assert-cache-hits N` /
//! `--assert-resumed N` turn the farm into a CI smoke asserting at least
//! `N` shared-cache hits / resumed jobs.
//!
//! `--set` writes into the scenario's config section, overriding the file;
//! e.g. `sim-driver shear_pair --set order=8 --set dt=0.01`.
//!
//! `--threads N` pins every parallel stage of the step to `N` workers
//! (shorthand for `--set threads=N`; default 0 = available parallelism).
//! Trajectories are bit-identical at any thread count, so this only trades
//! wall time — and it survives `--restart`, since the checkpoint neither
//! stores nor restores the thread count.
//!
//! `--assert-contacts N` turns the run into a collision smoke test: it
//! exits nonzero unless at least `N` contacts were detected over the run
//! and every cell finished with a finite volume (the CI gate uses this to
//! catch collision-stage regressions in seconds instead of at the bench).
//!
//! `--assert-bie-below N` turns the run into a boundary-solve smoke test:
//! it exits nonzero if any step's GMRES iteration count reached `N`
//! (i.e. the solve ran into a cap instead of converging) or any cell
//! finished with a non-finite centroid or volume. The CI gate runs one
//! refined-wall `vessel_flow` step through this to pin the wall-refinement
//! + FMM-backend path.
//!
//! `--assert-flux-balance TOL` turns the run into a conservation smoke
//! test: it exits nonzero unless every step's net port flux imbalance
//! `|Σ ∫ u·n dS|` over the committed boundary condition stayed at or
//! below `TOL` and every cell finished finite. Network scenarios
//! (`bifurcation`) prescribe per-port fluxes that sum to zero and make
//! each discrete port flux exact, so the CI gate runs them through this
//! with a roundoff-scale tolerance.
//!
//! `--assert-dt-retries N` turns the run into an instability smoke test:
//! it exits nonzero unless the adaptive time stepper performed at least
//! `N` retries over the run, every step's max edge stretch was
//! finite and within the configured bound, and the final state is finite.
//! The CI gate runs one deliberately oversized-dt step through this to
//! prove the retry path actually fires and keeps the state sane.
//!
//! `--assert-fmm-rebuilds N` turns the run into a plan-reuse smoke test:
//! it exits nonzero unless the persistent wall FMM was built at most `N`
//! times over the whole run while every step still routed its boundary
//! evaluation through it (≥ 1 target replan per step). The CI gate runs a
//! multi-step refined-wall `vessel_flow` through this with `N = 1` to
//! prove steps after the first reuse the frozen source tree instead of
//! rebuilding the FMM from scratch each step.
//!
//! The run aborts by default the moment any cell's coefficients go
//! non-finite (naming the step, cell, and coefficient); pass
//! `--allow-nonfinite` to disable that guard and keep stepping anyway.

use driver::{final_checkpoint_path, Doc, FarmOptions, Manifest, RunOptions, Session};
use sim::{Checkpoint, Simulation};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scenario: String,
    config: Option<PathBuf>,
    steps: usize,
    checkpoint_every: usize,
    keep_checkpoints: usize,
    out_dir: Option<PathBuf>,
    no_output: bool,
    restart: Option<PathBuf>,
    quiet: bool,
    threads: Option<usize>,
    assert_contacts: Option<usize>,
    assert_bie_below: Option<usize>,
    assert_dt_retries: Option<usize>,
    assert_fmm_rebuilds: Option<usize>,
    assert_flux_balance: Option<f64>,
    allow_nonfinite: bool,
    sets: Vec<String>,
    help: bool,
}

fn usage() -> String {
    let mut u = String::from(
        "usage: sim-driver <scenario|list> [--config FILE] [--steps N] \
         [--checkpoint-every K] [--keep-checkpoints K] \
         [--out DIR | --no-output] [--restart CKPT] \
         [--quiet] [--threads N] [--assert-contacts N] [--assert-bie-below N] \
         [--assert-dt-retries N] [--assert-fmm-rebuilds N] \
         [--assert-flux-balance TOL] \
         [--allow-nonfinite] [--set key=value ...]\n       \
         sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] \
         [--quiet] [--assert-cache-hits N] [--assert-resumed N]\n\nscenarios:\n",
    );
    for s in driver::registry() {
        u.push_str(&format!("  {:<18} {}\n", s.name, s.summary));
    }
    u
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scenario: String::new(),
        config: None,
        steps: 10,
        checkpoint_every: 0,
        keep_checkpoints: 0,
        out_dir: None,
        no_output: false,
        restart: None,
        quiet: false,
        threads: None,
        assert_contacts: None,
        assert_bie_below: None,
        assert_dt_retries: None,
        assert_fmm_rebuilds: None,
        assert_flux_balance: None,
        allow_nonfinite: false,
        sets: Vec::new(),
        help: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "--steps" => {
                args.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--keep-checkpoints" => {
                args.keep_checkpoints = value("--keep-checkpoints")?
                    .parse()
                    .map_err(|e| format!("--keep-checkpoints: {e}"))?
            }
            "--out" => args.out_dir = Some(PathBuf::from(value("--out")?)),
            "--no-output" => args.no_output = true,
            "--restart" => args.restart = Some(PathBuf::from(value("--restart")?)),
            "--quiet" => args.quiet = true,
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--assert-contacts" => {
                args.assert_contacts = Some(
                    value("--assert-contacts")?
                        .parse()
                        .map_err(|e| format!("--assert-contacts: {e}"))?,
                )
            }
            "--assert-bie-below" => {
                args.assert_bie_below = Some(
                    value("--assert-bie-below")?
                        .parse()
                        .map_err(|e| format!("--assert-bie-below: {e}"))?,
                )
            }
            "--assert-dt-retries" => {
                args.assert_dt_retries = Some(
                    value("--assert-dt-retries")?
                        .parse()
                        .map_err(|e| format!("--assert-dt-retries: {e}"))?,
                )
            }
            "--assert-fmm-rebuilds" => {
                args.assert_fmm_rebuilds = Some(
                    value("--assert-fmm-rebuilds")?
                        .parse()
                        .map_err(|e| format!("--assert-fmm-rebuilds: {e}"))?,
                )
            }
            "--assert-flux-balance" => {
                args.assert_flux_balance = Some(
                    value("--assert-flux-balance")?
                        .parse()
                        .map_err(|e| format!("--assert-flux-balance: {e}"))?,
                )
            }
            "--allow-nonfinite" => args.allow_nonfinite = true,
            "--set" => args.sets.push(value("--set")?),
            "--help" | "-h" => args.help = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            other => {
                if !args.scenario.is_empty() {
                    return Err(format!(
                        "two scenarios given: {} and {other}",
                        args.scenario
                    ));
                }
                args.scenario = other.to_string();
            }
        }
    }
    if args.scenario.is_empty() && !args.help {
        return Err(usage());
    }
    Ok(args)
}

/// `sim-driver batch <manifest.toml> [...]`: parse the manifest, run the
/// farm, enforce the optional CI assertions, exit nonzero on any failed
/// job.
fn batch_main(argv: &[String]) -> Result<(), String> {
    let mut manifest_path: Option<PathBuf> = None;
    let mut opts = FarmOptions::default();
    let mut assert_cache_hits: Option<u64> = None;
    let mut assert_resumed: Option<usize> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--jobs" => {
                opts.jobs_parallel = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?
            }
            "--halt-after" => {
                opts.halt_after = Some(
                    value("--halt-after")?
                        .parse()
                        .map_err(|e| format!("--halt-after: {e}"))?,
                )
            }
            "--quiet" => opts.quiet = true,
            "--assert-cache-hits" => {
                assert_cache_hits = Some(
                    value("--assert-cache-hits")?
                        .parse()
                        .map_err(|e| format!("--assert-cache-hits: {e}"))?,
                )
            }
            "--assert-resumed" => {
                assert_resumed = Some(
                    value("--assert-resumed")?
                        .parse()
                        .map_err(|e| format!("--assert-resumed: {e}"))?,
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown batch flag {other}\n{}", usage()))
            }
            other => {
                if manifest_path.is_some() {
                    return Err(format!("two manifests given; second was {other}"));
                }
                manifest_path = Some(PathBuf::from(other));
            }
        }
    }
    let path = manifest_path.ok_or_else(|| format!("batch needs a manifest\n{}", usage()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let manifest = Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = driver::run_farm(&manifest, &opts)?;
    if let Some(min) = assert_cache_hits {
        if report.cache.hits() < min {
            return Err(format!(
                "farm smoke: {} shared-cache hits, expected ≥ {min} — jobs are \
                 rebuilding immutable state instead of sharing it",
                report.cache.hits()
            ));
        }
    }
    if let Some(min) = assert_resumed {
        if report.resumed() < min {
            return Err(format!(
                "farm smoke: {} jobs resumed from checkpoints, expected ≥ {min}",
                report.resumed()
            ));
        }
    }
    if report.failed() > 0 {
        return Err(format!("{} farm job(s) failed", report.failed()));
    }
    // only count jobs as missing if the farm was supposed to run them
    if opts.halt_after.is_none() && report.completed() < manifest.jobs.len() {
        return Err(format!(
            "{}/{} farm jobs reached their target",
            report.completed(),
            manifest.jobs.len()
        ));
    }
    Ok(())
}

/// The end-of-run check the smokes share: every cell's centroid and
/// volume are finite. Only finiteness — a squeezed cell can transiently
/// invert (negative signed volume) in aggressive configs, but NaN/∞ means
/// the step itself produced garbage.
fn cells_ended_finite(sim: &Simulation, smoke: &str) -> Result<(), String> {
    for (ci, cell) in sim.cells.iter().enumerate() {
        let g = cell.geometry(&sim.basis);
        let c = g.centroid();
        let vol = g.volume();
        if !c.is_finite() || !vol.is_finite() {
            return Err(format!(
                "{smoke}: cell {ci} ended non-finite (centroid {c:?}, volume {vol})"
            ));
        }
    }
    Ok(())
}

fn main_inner() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("batch") {
        return batch_main(&argv[1..]);
    }
    let args = parse_args(&argv)?;

    if args.help || args.scenario == "list" {
        print!("{}", usage());
        return Ok(());
    }

    // config: file, then --set overrides into the scenario's section
    let mut cfg = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            Doc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Doc::default(),
    };
    for s in &args.sets {
        let (key, value) = driver::toml::parse_override(s)?;
        cfg.set(&args.scenario, &key, value);
    }
    if let Some(n) = args.threads {
        cfg.set(&args.scenario, "threads", driver::Value::Int(n as i64));
    }

    let mut session = Session::build(&args.scenario, &cfg)?;
    session.fail_on_nonfinite = !args.allow_nonfinite;

    if let Some(ckpt_path) = &args.restart {
        let ckpt =
            Checkpoint::load(ckpt_path).map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
        session.restore(&ckpt)?;
        if !args.sets.is_empty() {
            eprintln!(
                "warning: --restart restores the checkpoint's configuration; \
                 --set overrides of evolving-state parameters (dt, shear_rate, ...) \
                 are ignored for the restored run"
            );
        }
        if !args.quiet {
            println!(
                "restarted from {} at step {}",
                ckpt_path.display(),
                session.sim.steps
            );
        }
    }

    let out_dir = if args.no_output {
        None
    } else {
        Some(
            args.out_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from("target/driver").join(&args.scenario)),
        )
    };
    let opts = RunOptions {
        steps: args.steps,
        checkpoint_every: args.checkpoint_every,
        keep_checkpoints: args.keep_checkpoints,
        out_dir: out_dir.clone(),
        quiet: args.quiet,
    };
    let report = session.run(&opts).map_err(|e| e.to_string())?;
    let sim = &session.sim;

    if let Some(min_contacts) = args.assert_contacts {
        let total: usize = report.rows.iter().map(|r| r.stats.contacts).sum();
        if total < min_contacts {
            return Err(format!(
                "collision smoke: {total} contacts detected over {} steps, expected ≥ {min_contacts}",
                report.rows.len()
            ));
        }
        cells_ended_finite(sim, "collision smoke")?;
        if !args.quiet {
            println!(
                "collision smoke OK: {total} contacts ≥ {min_contacts}, all {} cell volumes finite",
                sim.cells.len()
            );
        }
    }

    if let Some(cap) = args.assert_bie_below {
        if sim.vessel.is_none() {
            return Err("bie smoke: scenario has no vessel (no boundary solve ran)".into());
        }
        for row in &report.rows {
            if row.stats.bie_iterations >= cap {
                return Err(format!(
                    "bie smoke: step {} took {} GMRES iterations (cap {cap}) — \
                     the boundary solve is not converging",
                    row.step, row.stats.bie_iterations
                ));
            }
            // NOTE: this deliberately does *not* require bie_converged.
            // Through-flow port data converges slowly (a spectral tail
            // needing ~0.7·N Krylov iterations — measured in sim::domain's
            // refined_serpentine_port_floor_improved), so vessel solves
            // engage the stall check at smoke iteration budgets even with
            // the rim-smooth quartic profile, which fixed the parabolic
            // seam jump and cut the floor ~4× (0.4 → ~0.11). The floor
            // improvement is pinned by that test; smooth-data convergence
            // by the analytic suite in crates/bie/tests/tube.rs.
        }
        cells_ended_finite(sim, "bie smoke")?;
        if !args.quiet {
            let worst = report
                .rows
                .iter()
                .map(|r| r.stats.bie_iterations)
                .max()
                .unwrap_or(0);
            let resid = report
                .rows
                .last()
                .map(|r| r.stats.bie_residual)
                .unwrap_or(0.0);
            println!(
                "bie smoke OK: max {worst} GMRES iterations < {cap}, final relative \
                 residual {resid:.2e}, all {} cells finite",
                sim.cells.len()
            );
        }
    }

    if let Some(max_builds) = args.assert_fmm_rebuilds {
        if sim.vessel.is_none() {
            return Err("fmm-reuse smoke: scenario has no vessel (no wall FMM runs)".into());
        }
        let builds: usize = report.rows.iter().map(|r| r.stats.wall_fmm_builds).sum();
        if builds > max_builds {
            return Err(format!(
                "fmm-reuse smoke: {builds} wall-FMM builds over {} steps (max {max_builds}) \
                 — the persistent plan is being rebuilt instead of reused",
                report.rows.len()
            ));
        }
        for row in &report.rows {
            if row.stats.wall_fmm_replans == 0 {
                return Err(format!(
                    "fmm-reuse smoke: step {} did not route its boundary evaluation \
                     through the wall FMM (0 target replans) — the smoke is not \
                     exercising the persistent plan (check bie_backend / problem size)",
                    row.step
                ));
            }
        }
        if !args.quiet {
            let replans: usize = report.rows.iter().map(|r| r.stats.wall_fmm_replans).sum();
            println!(
                "fmm-reuse smoke OK: {builds} wall-FMM build(s) ≤ {max_builds}, \
                 {replans} target replans over {} steps",
                report.rows.len()
            );
        }
    }

    if let Some(tol) = args.assert_flux_balance {
        if sim.vessel.is_none() {
            return Err("flux-balance smoke: scenario has no vessel (no ports to balance)".into());
        }
        let mut worst = 0.0f64;
        for row in &report.rows {
            let imb = row.stats.flux_imbalance;
            if !imb.is_finite() || imb > tol {
                return Err(format!(
                    "flux-balance smoke: step {} net port flux imbalance {imb:.3e} \
                     exceeds {tol:.3e} — the prescribed port fluxes do not cancel \
                     in the committed boundary condition",
                    row.step
                ));
            }
            worst = worst.max(imb);
        }
        cells_ended_finite(sim, "flux-balance smoke")?;
        if !args.quiet {
            println!(
                "flux-balance smoke OK: max net port flux imbalance {worst:.3e} ≤ {tol:.3e} \
                 over {} steps, all {} cells finite",
                report.rows.len(),
                sim.cells.len()
            );
        }
    }

    if let Some(min_retries) = args.assert_dt_retries {
        let total: usize = report.rows.iter().map(|r| r.stats.dt_retries).sum();
        if total < min_retries {
            return Err(format!(
                "instability smoke: {total} dt retries over {} steps, expected ≥ {min_retries} \
                 — the oversized step never tripped the health gate",
                report.rows.len()
            ));
        }
        let bound = sim.config.dt_control.max_stretch;
        for row in &report.rows {
            let s = row.stats.max_edge_stretch;
            if !s.is_finite() || s > bound {
                return Err(format!(
                    "instability smoke: step {} committed with max edge stretch {s} \
                     (bound {bound}) — the retry path let a blown-up state through",
                    row.step
                ));
            }
        }
        for (ci, cell) in sim.cells.iter().enumerate() {
            for (comp, coeffs) in cell.coeffs.iter().enumerate() {
                if let Some(k) = coeffs.data.iter().position(|v| !v.is_finite()) {
                    return Err(format!(
                        "instability smoke: cell {ci} component {} coefficient {k} \
                         is not finite after the run",
                        ["x", "y", "z"][comp]
                    ));
                }
            }
        }
        if !args.quiet {
            let worst = report
                .rows
                .iter()
                .map(|r| r.stats.max_edge_stretch)
                .fold(0.0f64, f64::max);
            println!(
                "instability smoke OK: {total} dt retries ≥ {min_retries}, \
                 max edge stretch {worst:.3} ≤ {bound}, final state finite"
            );
        }
    }

    if !args.quiet {
        println!("\n{}", report.stage_table());
        if let Some(dir) = &out_dir {
            println!(
                "wrote per-step CSV and {} checkpoint(s) under {}; resume with:\n  sim-driver {} --restart {} --steps N",
                report.checkpoints.len(),
                dir.display(),
                args.scenario,
                final_checkpoint_path(dir, &args.scenario).display(),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
