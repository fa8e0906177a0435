//! Runs one workload in this process: set-up, the timed closed loop, the
//! correctness gate, the per-layer counts, and (traced) the layer probes.
//!
//! Closed loop: the next step (or farm round) starts when the previous one
//! returns. The timed region lasts `--seconds`, but never fewer than the
//! workload's checked prefix — a fixed number of steps after which the end
//! state is digested and held against the committed reference, and over
//! which the exact counts `--compare` prints are taken.
//!
//! The timed region runs in laps: after `lap_steps` steps (`lap_rounds` farm
//! rounds) the state is put back to where the timed region began (untimed)
//! and stepped again. The trajectories these workloads follow do not stay
//! in one regime for ever — the suspension, left alone, jams into a
//! retry storm at step 19 — so an open-ended loop would time different work
//! on a faster host or with a longer `--seconds`. With laps every host
//! times the same steps, however many it gets through.

use crate::check::{self, EndState};
use crate::config;
use crate::probes;
use crate::trace::{median, Tracer};
use driver::{
    final_checkpoint_path, run_farm, CacheTelemetry, CsvSink, Doc, FarmOptions, FarmReport,
    JobSpec, JobStatus, Manifest, Session, StepRow, Value,
};
use sim::{Checkpoint, StepStats, StepTimers};
use sphharm::SphBasis;
use std::path::PathBuf;
use std::time::Instant;

/// Flux imbalance a vessel step may report (the CI gate's
/// `--assert-flux-balance` tolerance).
const FLUX_TOL: f64 = 1e-6;
/// Cold set-ups sampled per untraced run: this process's own plus two
/// `--setup-only` children, each a fresh process with cold caches.
const SETUP_SAMPLES: usize = 3;
/// Farm jobs in flight at once, one worker each (the host has two cores).
const JOBS_PARALLEL: usize = 2;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
    /// Stop after set-up and print its seconds (what the set-up children run).
    pub setup_only: bool,
    pub out: PathBuf,
}

/// Named values in emission order.
#[derive(Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

#[derive(Default)]
pub struct Outcome {
    /// Every metric this run measured: the end-to-end ones and the layer
    /// counts always, the layer probes when traced.
    pub metrics: Values,
    /// Exact counts over the checked prefix (identical between two runs of
    /// one program on one seed).
    pub counts: Values,
    pub digest: u64,
    pub ref_dev: f64,
    /// Timed samples behind `step_s_p50`.
    pub samples: usize,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `--setup-only` children of this program, one after the other, and
/// returns the set-up seconds each reported.
fn setup_children(args: &RunArgs, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                    "--setup-only",
                    "--out",
                ])
                .arg(&args.out)
                .output()
                .map_err(|e| format!("spawning the set-up child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up child failed: {}{}",
                        stdout,
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

/// The result of a workload's set-up, or `None` after `--setup-only`.
fn finish_setup(args: &RunArgs, own: f64) -> Result<Option<f64>, String> {
    if args.setup_only {
        println!("setup_s {own}");
        return Ok(None);
    }
    let mut samples = vec![own];
    if !args.trace && !args.smoke {
        samples.extend(setup_children(args, SETUP_SAMPLES - 1)?);
    }
    Ok(median(&samples))
}

pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<Option<Outcome>, String> {
    let doc = config::load(&args.workload, args.seed, args.smoke)?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    if config::is_farm(&doc) {
        run_farm_workload(args, doc, tracer)
    } else {
        run_session(args, doc, tracer)
    }
}

fn check_prefix(
    args: &RunArgs,
    doc: &Doc,
    state: &EndState,
    out: &mut Outcome,
) -> Result<(), String> {
    out.digest = state.digest;
    if !state.finite() {
        out.fail("non-finite cell centroid at the end of the checked prefix".into());
    }
    if args.smoke {
        // tiny sizes have no committed reference
        return Ok(());
    }
    if args.bless {
        check::write_reference(&args.workload, args.seed, state)?;
    }
    let radius = doc.f64_or("workload", "cell_radius", 1.0);
    let seed_tol = doc.f64_or("workload", "seed_dev_tol", 0.05);
    let (dev, violation) =
        check::against_reference(&args.workload, args.seed, state, radius, seed_tol);
    out.ref_dev = dev;
    if let Some(v) = violation {
        out.fail(v);
    }
    Ok(())
}

/// The exact counts over the checked prefix that `--compare` shows identical
/// between two runs of one program on one seed.
fn prefix_counts(counts: &mut Values, rows: &[(StepRow, f64)], cache: &CacheTelemetry) {
    let total =
        |f: &dyn Fn(&StepRow) -> usize| rows.iter().map(|(r, _)| f(r)).sum::<usize>() as f64;
    counts.put("sim.attempts", total(&|r| 1 + r.stats.dt_retries));
    counts.put("bie.gmres_iters", total(&|r| r.stats.bie_iterations));
    counts.put("collision.contacts", total(&|r| r.stats.contacts));
    counts.put("driver.cache_hits", cache.hits() as f64);
}

/// A traced run reports its median step a second time as a layer metric:
/// tracing overhead is that value over the untraced run's `step_s_p50`.
fn put_step_p50(m: &mut Values, args: &RunArgs, p50: f64) {
    m.put("step_s_p50", p50);
    if args.trace {
        m.put("trace.step_s_p50", p50);
    }
}

fn share(part: usize, whole: usize, when_empty: f64) -> f64 {
    if whole == 0 {
        when_empty
    } else {
        part as f64 / whole as f64
    }
}

/// The layer metrics that are counts read off the rows the timed steps
/// returned (`rows`, with each step's wall seconds) and the rows of the
/// untimed set-up steps (`warm`). Every field used here is also a column of
/// the trajectory file a farm job writes.
fn step_counts(m: &mut Values, warm: &[StepRow], rows: &[(StepRow, f64)]) {
    let n = rows.len();
    // (an empty f64 sum is -0.0)
    let mean = |rows: &mut dyn Iterator<Item = f64>| {
        let (sum, n) = rows.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    let per_step = |f: &dyn Fn(&StepRow) -> f64| mean(&mut rows.iter().map(|(r, _)| f(r)));
    m.put("sim.col_s", per_step(&|r| r.timers.col));
    m.put("sim.bie_solve_s", per_step(&|r| r.timers.bie_solve));
    m.put("sim.bie_fmm_s", per_step(&|r| r.timers.bie_fmm));
    m.put("sim.other_fmm_s", per_step(&|r| r.timers.other_fmm));
    m.put("sim.other_s", per_step(&|r| r.timers.other));
    m.put(
        "sim.step_s_max",
        rows.iter().map(|(_, w)| *w).fold(0.0, f64::max),
    );
    let attempts: usize = rows.iter().map(|(r, _)| 1 + r.stats.dt_retries).sum();
    m.put("sim.attempts_per_step", share(attempts, n, 0.0));
    m.put("sim.retry_share", share(attempts - n, attempts, 0.0));
    m.put(
        "sim.frozen_cells",
        rows.iter()
            .map(|(r, _)| r.stats.frozen_cells)
            .sum::<usize>() as f64,
    );
    m.put(
        "bie.gmres_iters_per_step",
        per_step(&|r| r.stats.bie_iterations as f64),
    );
    m.put(
        "bie.gmres_iters_cold",
        mean(&mut warm.iter().map(|r| r.stats.bie_iterations as f64)),
    );
    let builds = warm
        .iter()
        .chain(rows.iter().map(|(r, _)| r))
        .map(|r| r.stats.wall_fmm_builds)
        .sum::<usize>();
    m.put("fmm.wall_builds", builds as f64);
    m.put(
        "fmm.wall_replans",
        per_step(&|r| r.stats.wall_fmm_replans as f64),
    );
    m.put(
        "collision.contacts_per_step",
        per_step(&|r| r.stats.contacts as f64),
    );
    m.put(
        "collision.ncp_iters_per_step",
        per_step(&|r| r.stats.ncp_iters as f64),
    );
    let contact_steps = rows.iter().filter(|(r, _)| r.stats.contacts > 0);
    let capped = contact_steps
        .clone()
        .filter(|(r, _)| r.stats.ncp_iters >= 10)
        .count();
    m.put(
        "collision.ncp_cap_share",
        share(capped, contact_steps.count(), 0.0),
    );
}

/// The layer metrics on how well the solvers ended, which only a `StepRow`
/// carries (a farm job's trajectory file has no column for them).
fn solver_quality(m: &mut Values, rows: &[StepRow]) {
    m.put(
        "bie.residual_max",
        rows.iter()
            .map(|r| r.stats.bie_residual)
            .fold(0.0, f64::max),
    );
    m.put(
        "bie.converged_share",
        share(
            rows.iter().filter(|r| r.stats.bie_converged).count(),
            rows.len(),
            0.0,
        ),
    );
    let contact_steps = rows.iter().filter(|r| r.stats.contacts > 0);
    let freed = contact_steps
        .clone()
        .filter(|r| r.stats.contact_free)
        .count();
    m.put(
        "collision.contact_free_share",
        share(freed, contact_steps.count(), 1.0),
    );
}

/// Why a committed step counts as a failed operation by its row alone
/// (all a farm job leaves behind), if it does.
fn row_violation(row: &StepRow) -> Option<String> {
    if row.stats.frozen_cells > 0 {
        return Some(format!(
            "step {}: {} frozen cells",
            row.step, row.stats.frozen_cells
        ));
    }
    if check::exceeds(row.stats.flux_imbalance.abs(), FLUX_TOL) {
        return Some(format!(
            "step {}: flux imbalance {:.3e}",
            row.step, row.stats.flux_imbalance
        ));
    }
    None
}

/// Why a committed step of a session counts as a failed operation, if it does.
fn step_violation(session: &Session, row: &StepRow) -> Option<String> {
    let ctl = session.sim.config.dt_control;
    if let Some(ci) = session
        .sim
        .last_health
        .iter()
        .position(|h| !h.ok(ctl.max_stretch, ctl.max_volume_drift))
    {
        let h = session.sim.last_health[ci];
        return Some(format!(
            "step {}: cell {ci} outside the stepper's bounds (stretch {:.3}, volume drift {:.3e})",
            row.step, h.max_stretch, h.volume_drift
        ));
    }
    row_violation(row)
}

fn run_session(args: &RunArgs, doc: Doc, tracer: &mut Tracer) -> Result<Option<Outcome>, String> {
    let scenario = doc.str_or("workload", "scenario", "").to_string();
    let check_steps = if args.smoke {
        1
    } else {
        doc.usize_or("workload", "check_steps", 4)
    };
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    // --- set-up: build + one untimed warm-up step (cold tables, cold GMRES) ---
    let t_setup = Instant::now();
    let mut session = tracer.span("Session::build", |_| Session::build(&scenario, &doc))?;
    let build_s = t_setup.elapsed().as_secs_f64();
    let warm = tracer
        .span("Session::step (warm-up)", |_| session.step())
        .map_err(|e| e.to_string())?;
    let Some(setup_s) = finish_setup(args, t_setup.elapsed().as_secs_f64())? else {
        return Ok(None);
    };

    // --- timed closed loop ---
    let lap_steps = doc
        .usize_or("workload", "lap_steps", check_steps)
        .max(check_steps);
    let lap_start = Checkpoint::capture(&session.sim, &scenario);
    // the timed region ends on a multiple of `stride` steps, so that a
    // workload whose steps come in a cycle is timed over whole cycles
    let stride = doc.usize_or("workload", "stride", 1).max(1);
    let mut out = Outcome::default();
    let mut rows: Vec<(StepRow, f64)> = Vec::new();
    let mut wall = 0.0;
    let mut prefix_cache = CacheTelemetry::default();
    while rows.len() < check_steps || wall < seconds || !rows.len().is_multiple_of(stride) {
        let t0 = Instant::now();
        let row = tracer.span("Session::step", |_| session.step());
        let dt = t0.elapsed().as_secs_f64();
        out.attempted += 1;
        let row = match row {
            Ok(row) => row,
            Err(e) => {
                // the state is garbage from here on: stop stepping
                out.fail(format!("step failed: {e}"));
                break;
            }
        };
        wall += dt;
        if let Some(v) = step_violation(&session, &row) {
            out.fail(v);
        }
        rows.push((row, dt));
        if rows.len() == check_steps {
            let basis = &session.sim.basis;
            let state = EndState::capture(session.sim.cells.iter().map(|c| (c, basis)));
            check_prefix(args, &doc, &state, &mut out)?;
            prefix_cache = CacheTelemetry::snapshot();
            prefix_counts(&mut out.counts, &rows, &prefix_cache);
        }
        if rows.len().is_multiple_of(lap_steps) {
            session.restore(&lap_start)?;
        }
    }
    let rss = peak_rss_mb();

    // --- end-to-end metrics ---
    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("steps_per_s", rows.len() as f64 / wall);
    // the median over steps that committed on their first attempt: a
    // retried step re-runs the whole step, so mixing the two gives a
    // bimodal sample whose median flips with the count's parity; the cost
    // of retries is in steps_per_s
    let clean: Vec<f64> = rows
        .iter()
        .filter(|(r, _)| r.stats.dt_retries == 0)
        .map(|(_, w)| *w)
        .collect();
    let all: Vec<f64> = rows.iter().map(|(_, w)| *w).collect();
    let sample = if clean.is_empty() { &all } else { &clean };
    out.samples = sample.len();
    put_step_p50(m, args, median(sample).unwrap_or(f64::NAN));
    m.put("peak_rss_mb", rss);

    // --- per-layer counts ---
    step_counts(m, &[warm], &rows);
    let bare: Vec<StepRow> = rows.iter().map(|(r, _)| *r).collect();
    solver_quality(m, &bare);
    m.put("fmm.ops_cache_hits", prefix_cache.fmm_op_hits as f64);
    m.put("driver.build_s", build_s);
    m.put("driver.cache_hits", prefix_cache.hits() as f64);
    m.put("driver.cache_builds", prefix_cache.builds() as f64);
    for name in [
        "driver.jobs_resumed",
        "driver.jobs_failed",
        "driver.pool_idle_share",
    ] {
        m.put(name, 0.0);
    }
    if args.trace {
        probes::run(&mut session, tracer, &args.out, &mut out);
    }
    Ok(Some(out))
}

/// The rows a farm job streamed to its trajectory file in the leg that
/// began at step counter `start_step` (the farm hands back no rows, the
/// files are its per-step output). Columns the file does not have keep
/// their `StepStats` defaults and are not read by `step_counts`.
fn trajectory_rows(job: &JobSpec, start_step: usize) -> Result<Vec<StepRow>, String> {
    let path = job.out_dir.join(CsvSink::trajectory_name(start_step));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_trajectory(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_trajectory(text: &str) -> Result<Vec<StepRow>, String> {
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
    lines
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let num = |name: &str| -> Result<f64, String> {
                header
                    .iter()
                    .position(|h| *h == name)
                    .and_then(|i| fields.get(i)?.parse::<f64>().ok())
                    .ok_or(format!("no number under `{name}` in `{line}`"))
            };
            let count = |name: &str| num(name).map(|v| v as usize);
            Ok(StepRow {
                step: count("step")?,
                timers: StepTimers {
                    col: num("col_s")?,
                    bie_solve: num("bie_solve_s")?,
                    bie_fmm: num("bie_fmm_s")?,
                    other_fmm: num("other_fmm_s")?,
                    other: num("other_s")?,
                },
                stats: StepStats {
                    bie_iterations: count("gmres_iters")?,
                    contacts: count("contacts")?,
                    ncp_iters: count("ncp_iters")?,
                    dt_retries: count("dt_retries")?,
                    frozen_cells: count("frozen_cells")?,
                    wall_fmm_builds: count("wall_fmm_builds")?,
                    wall_fmm_replans: count("wall_fmm_replans")?,
                    flux_imbalance: num("flux_imbalance")?,
                    ..StepStats::default()
                },
                recycled: count("recycled")?,
            })
        })
        .collect()
}

/// The farm workload's fixed inputs.
struct Farm {
    manifest: Manifest,
    /// What each job advances per leg (its manifest `steps`).
    per_leg: Vec<usize>,
    opts: FarmOptions,
    /// Where the end of the cold leg is kept for the laps.
    lap_dir: PathBuf,
}

impl Farm {
    /// Runs the manifest with every job's target at `legs` legs' worth of steps.
    fn leg(&mut self, legs: usize, name: &str, tracer: &mut Tracer) -> Result<FarmReport, String> {
        for (job, steps) in self.manifest.jobs.iter_mut().zip(&self.per_leg) {
            job.steps = steps * legs;
        }
        tracer.span(name, |_| run_farm(&self.manifest, &self.opts))
    }

    fn lap_file(&self, job: &JobSpec) -> PathBuf {
        self.lap_dir.join(format!("{}.ckpt", job.name))
    }

    /// Keeps every job's end-of-cold-leg checkpoint aside.
    fn save_lap_start(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.lap_dir)?;
        for job in &self.manifest.jobs {
            std::fs::copy(
                final_checkpoint_path(&job.out_dir, &job.scenario),
                self.lap_file(job),
            )?;
        }
        Ok(())
    }

    /// Puts every job's output directory back to the end of the cold leg.
    fn restore_lap_start(&self) -> std::io::Result<()> {
        for job in &self.manifest.jobs {
            std::fs::remove_dir_all(&job.out_dir)?;
            std::fs::create_dir_all(&job.out_dir)?;
            std::fs::copy(
                self.lap_file(job),
                final_checkpoint_path(&job.out_dir, &job.scenario),
            )?;
        }
        Ok(())
    }
}

fn run_farm_workload(
    args: &RunArgs,
    mut doc: Doc,
    tracer: &mut Tracer,
) -> Result<Option<Outcome>, String> {
    let out_root = args.out.join(format!(
        "farm-{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    doc.set(
        "farm",
        "out_root",
        Value::Str(out_root.to_string_lossy().into_owned()),
    );
    let manifest = Manifest::from_doc(&doc)?;
    let mut farm = Farm {
        per_leg: manifest.jobs.iter().map(|j| j.steps).collect(),
        manifest,
        opts: FarmOptions {
            jobs_parallel: JOBS_PARALLEL,
            quiet: true,
            halt_after: None,
        },
        lap_dir: out_root.join("lap-start"),
    };
    let _ = std::fs::remove_dir_all(&out_root);
    let result = farm_legs(args, &doc, &mut farm, tracer);
    let _ = std::fs::remove_dir_all(&out_root);
    result
}

fn farm_legs(
    args: &RunArgs,
    doc: &Doc,
    farm: &mut Farm,
    tracer: &mut Tracer,
) -> Result<Option<Outcome>, String> {
    let check_rounds = 1;
    let lap_rounds = doc.usize_or("workload", "lap_rounds", 1).max(check_rounds);
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let io = |e: std::io::Error| format!("farm lap checkpoints: {e}");

    // --- set-up: the whole cold leg (every build cold, no checkpoints) ---
    let t_setup = Instant::now();
    let cold = farm.leg(1, "run_farm (cold leg)", tracer)?;
    let mut out = Outcome::default();
    if cold.completed() != farm.manifest.jobs.len() {
        // nothing to resume from: report instead of timing a broken farm
        let errors: Vec<String> = cold
            .outcomes
            .iter()
            .filter_map(|o| o.error.clone())
            .collect();
        return Err(format!("cold farm leg failed: {}", errors.join("; ")));
    }
    let Some(setup_s) = finish_setup(args, t_setup.elapsed().as_secs_f64())? else {
        return Ok(None);
    };
    farm.save_lap_start().map_err(io)?;
    let mut warm = Vec::new();
    for job in &farm.manifest.jobs {
        warm.extend(trajectory_rows(job, 0)?);
    }

    // --- timed rounds: every job restores its checkpoint and runs on ---
    let (mut wall, mut job_steps, mut resumed, mut idle) = (0.0, 0usize, 0usize, 0.0);
    let mut round_s = Vec::new();
    let mut rows: Vec<(StepRow, f64)> = Vec::new();
    let mut prefix_cache = CacheTelemetry::default();
    while round_s.len() < check_rounds || wall < seconds {
        let round_in_lap = round_s.len() % lap_rounds + 1;
        let report = farm.leg(1 + round_in_lap, "run_farm (resumed leg)", tracer)?;
        let mut steps = 0;
        for (o, job) in report.outcomes.iter().zip(&farm.manifest.jobs) {
            out.attempted += 1;
            steps += o.steps_run;
            // the steps the job just streamed to its trajectory file
            // (read outside the timed region: only the legs' own wall
            // seconds are summed)
            let written = trajectory_rows(job, o.start_step)?;
            let unhealthy = written.iter().find_map(row_violation);
            if o.status != JobStatus::Completed
                || !o.resumed()
                || o.start_step + o.steps_run != job.steps
            {
                out.fail(format!(
                    "round {}: job {} {:?} at step {} of {} ({})",
                    round_s.len() + 1,
                    o.name,
                    o.status,
                    o.start_step + o.steps_run,
                    job.steps,
                    o.error.as_deref().unwrap_or("not resumed")
                ));
            } else if let Some(v) = unhealthy {
                out.fail(format!("round {}: job {}, {v}", round_s.len() + 1, o.name));
            }
            rows.extend(written.into_iter().map(|r| (r, r.timers.total())));
        }
        wall += report.wall_s;
        job_steps += steps;
        resumed += report.resumed();
        idle += 1.0
            - report.outcomes.iter().map(|o| o.wall_s).sum::<f64>()
                / (JOBS_PARALLEL as f64 * report.wall_s);
        round_s.push(report.wall_s / steps.max(1) as f64);
        if round_s.len() == check_rounds {
            // end state of every job, read back from the checkpoints the
            // farm just wrote (outside the timed region: only the legs'
            // own wall seconds are summed)
            let mut cells = Vec::new();
            for job in &farm.manifest.jobs {
                let path = final_checkpoint_path(&job.out_dir, &job.scenario);
                let ckpt =
                    Checkpoint::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                if ckpt.steps != job.steps {
                    out.fail(format!(
                        "job {}: checkpoint at step {}, target {}",
                        job.name, ckpt.steps, job.steps
                    ));
                }
                cells.push((SphBasis::new(ckpt.basis_p), ckpt.cells));
            }
            let state = EndState::capture(
                cells
                    .iter()
                    .flat_map(|(basis, cs)| cs.iter().map(move |c| (c, basis))),
            );
            check_prefix(args, doc, &state, &mut out)?;
            prefix_cache = CacheTelemetry::snapshot();
            prefix_counts(&mut out.counts, &rows, &prefix_cache);
            out.counts
                .put("driver.jobs_resumed", report.resumed() as f64);
        }
        if round_s.len().is_multiple_of(lap_rounds) {
            farm.restore_lap_start().map_err(io)?;
        }
    }
    let rss = peak_rss_mb();
    let rounds = round_s.len();

    let m = &mut out.metrics;
    m.put("setup_s", setup_s);
    m.put("steps_per_s", job_steps as f64 / wall);
    // no single step to time here: the median over rounds of a round's
    // wall seconds per job-step it committed
    put_step_p50(m, args, median(&round_s).unwrap_or(f64::NAN));
    m.put("peak_rss_mb", rss);
    out.samples = rounds;

    step_counts(m, &warm, &rows);
    m.put("fmm.ops_cache_hits", prefix_cache.fmm_op_hits as f64);
    m.put("driver.cache_hits", prefix_cache.hits() as f64);
    m.put("driver.cache_builds", prefix_cache.builds() as f64);
    m.put("driver.jobs_resumed", resumed as f64 / rounds as f64);
    m.put("driver.jobs_failed", out.failed as f64);
    m.put("driver.pool_idle_share", idle / rounds as f64);
    if args.trace {
        // the layer probes need one live simulation: the manifest's last
        // job (the FMM-backed vessel), built and warmed like a session
        let job = farm
            .manifest
            .jobs
            .last()
            .expect("a parsed manifest has jobs");
        let t0 = Instant::now();
        let mut session = tracer.span("Session::build (probe)", |_| {
            Session::build(&job.scenario, &job.cfg)
        })?;
        out.metrics
            .put("driver.build_s", t0.elapsed().as_secs_f64());
        let row = session.step().map_err(|e| e.to_string())?;
        solver_quality(&mut out.metrics, &[row]);
        probes::run(&mut session, tracer, &args.out, &mut out);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_read() {
        let mb = peak_rss_mb();
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }

    #[test]
    fn trajectory_lines_become_rows_by_column_name() {
        let text = "step,col_s,bie_solve_s,bie_fmm_s,other_fmm_s,other_s,total_s,gmres_iters,contacts,\
            ncp_iters,recycled,dt_effective,dt_retries,max_edge_stretch,frozen_cells,wall_fmm_builds,\
            wall_fmm_replans,flux_imbalance\n\
            5,0.5,0.25,1.0,0.0,0.125,1.875,7,2,10,0,0.02,1,1.01,0,1,3,2.1e-16\n";
        let rows = parse_trajectory(text).unwrap();
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!(
            (r.step, r.stats.bie_iterations, r.stats.dt_retries),
            (5, 7, 1)
        );
        assert_eq!(r.timers.total(), 1.875);
        assert_eq!(r.stats.wall_fmm_replans, 3);
        assert!(row_violation(&r).is_none());
        // a file without a column the counts need is an error, not a zero
        let cut = text.replace("dt_retries", "retries");
        assert!(parse_trajectory(&cut).unwrap_err().contains("dt_retries"));
    }

    #[test]
    fn shares_of_nothing_take_their_stated_default() {
        assert_eq!(share(1, 4, 9.0), 0.25);
        assert_eq!(share(0, 0, 1.0), 1.0);
    }
}
