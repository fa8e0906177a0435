//! `sim-driver` — run named scenarios end-to-end with checkpoint/restart.
//!
//! ```text
//! sim-driver list
//! sim-driver <scenario> [--config FILE] [--steps N] [--checkpoint-every K]
//!            [--keep-checkpoints K] [--out DIR | --no-output]
//!            [--restart CKPT] [--quiet] [--threads N] [--assert EXPR ...]
//!            [--allow-nonfinite] [--set key=value ...]
//! sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] [--quiet]
//!            [--assert EXPR ...]
//! ```
//!
//! `batch` runs a simulation farm: a manifest of scenario jobs scheduled
//! over the persistent worker pool, resumable from per-job checkpoints
//! (see `driver::batch` for the manifest format). `--jobs N` caps
//! concurrent jobs (1 = sequential, 0 = pool width); `--halt-after N`
//! simulates a crash after `N` completed jobs.
//!
//! `--set` writes into the scenario's config section, overriding the file;
//! e.g. `sim-driver shear_pair --set order=8 --set dt=0.01`. The section is
//! read strictly: a key the scenario does not read, or a value of the
//! wrong type, is an error.
//!
//! `--threads N` pins every parallel stage of the step to `N` workers
//! (shorthand for `--set threads=N`; default 0 = available parallelism).
//! Trajectories are bit-identical at any thread count, so this only trades
//! wall time — and it survives `--restart`, since the checkpoint neither
//! stores nor restores the thread count.
//!
//! `--assert '<expr>'` (repeatable; grammar in `driver::assert`) makes the
//! run a smoke test over its `trajectory.csv` columns, e.g.
//! `--assert 'sum(contacts) >= 10'`: a failing expression exits nonzero
//! naming itself, the observed value and the step, and an asserting run
//! must end with finite coefficients even under `--allow-nonfinite`.
//! `batch --assert` reads the farm's `cache_hits` and `resumed`.
//!
//! The run aborts by default the moment any cell's coefficients go
//! non-finite (naming the step, cell, and coefficient); pass
//! `--allow-nonfinite` to disable that guard and keep stepping anyway.

use driver::{
    final_checkpoint_path, Doc, FarmAssert, FarmOptions, Manifest, RunAssert, RunOptions, Session,
};
use sim::Checkpoint;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

#[derive(Default)]
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
    asserts: Vec<RunAssert>,
    allow_nonfinite: bool,
    sets: Vec<String>,
    help: bool,
}

fn usage() -> String {
    let mut u = String::from(
        "usage: sim-driver <scenario|list> [--config FILE] [--steps N] \
         [--checkpoint-every K] [--keep-checkpoints K] \
         [--out DIR | --no-output] [--restart CKPT] \
         [--quiet] [--threads N] [--assert EXPR ...] \
         [--allow-nonfinite] [--set key=value ...]\n       \
         sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] \
         [--quiet] [--assert EXPR ...]\n\n\
         EXPR: 'sum|max|min(<trajectory.csv column>) <|<=|>=|> <number>' for a run,\n      \
         'cache_hits|resumed <op> <number>' for a farm\n\nscenarios:\n",
    );
    for s in driver::registry() {
        u.push_str(&format!("  {:<18} {}\n", s.name, s.summary));
    }
    u
}

/// The value that follows flag `name`, parsed.
fn value<T: FromStr>(it: &mut std::slice::Iter<String>, name: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
    v.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        steps: 10,
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--config" => args.config = Some(value(it, a)?),
            "--steps" => args.steps = value(it, a)?,
            "--checkpoint-every" => args.checkpoint_every = value(it, a)?,
            "--keep-checkpoints" => args.keep_checkpoints = value(it, a)?,
            "--out" => args.out_dir = Some(value(it, a)?),
            "--no-output" => args.no_output = true,
            "--restart" => args.restart = Some(value(it, a)?),
            "--quiet" => args.quiet = true,
            "--threads" => args.threads = Some(value(it, a)?),
            "--assert" => args.asserts.push(value(it, a)?),
            "--allow-nonfinite" => args.allow_nonfinite = true,
            "--set" => args.sets.push(value(it, a)?),
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

/// Reads the file at `path` with `parse`; errors name the path.
fn read_toml<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let shown = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {shown}: {e}"))?;
    parse(&text).map_err(|e| format!("{shown}: {e}"))
}

/// `sim-driver batch <manifest.toml> [...]`: parse the manifest, run the
/// farm, enforce the optional CI assertions, exit nonzero on any failed
/// job.
fn batch_main(argv: &[String]) -> Result<(), String> {
    let mut manifest_path: Option<PathBuf> = None;
    let mut opts = FarmOptions::default();
    let mut asserts: Vec<FarmAssert> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--jobs" => opts.jobs_parallel = value(it, a)?,
            "--halt-after" => opts.halt_after = Some(value(it, a)?),
            "--quiet" => opts.quiet = true,
            "--assert" => asserts.push(value(it, a)?),
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
    let manifest = read_toml(&path, Manifest::parse)?;
    let report = driver::run_farm(&manifest, &opts)?;
    for a in &asserts {
        let ok = a.check(&report)?;
        if !opts.quiet {
            println!("{ok}");
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
        Some(path) => read_toml(path, Doc::parse)?,
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

    let default_dir = || PathBuf::from("target/driver").join(&args.scenario);
    let out_dir = (!args.no_output).then(|| args.out_dir.clone().unwrap_or_else(default_dir));
    let opts = RunOptions {
        steps: args.steps,
        checkpoint_every: args.checkpoint_every,
        keep_checkpoints: args.keep_checkpoints,
        out_dir: out_dir.clone(),
        quiet: args.quiet,
    };
    let report = session.run(&opts).map_err(|e| e.to_string())?;
    if !args.asserts.is_empty() {
        session.check_finite()?;
    }
    for a in &args.asserts {
        let ok = a.check(&report)?;
        if !args.quiet {
            println!("{ok}");
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
