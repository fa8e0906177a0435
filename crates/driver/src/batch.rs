//! The simulation farm: a batch job runner over the [`Session`] API.
//!
//! Serving the paper's workload means many concurrent simulations, not one
//! giant run. `sim-driver batch <manifest.toml>` schedules a list of
//! scenario jobs over the persistent rayon worker pool, with:
//!
//! - **shared immutable caches** across jobs — FMM operator tables
//!   ([`fmm::ops`]) and refined wall surfaces ([`sim::caches`]) are
//!   process-wide, so the N-th job of a geometry/order the farm has seen
//!   skips the cold build; the delta telemetry rides in
//!   [`FarmReport::cache`];
//! - **per-job checkpoint rotation** — cadence checkpoints rotate down to
//!   `keep_checkpoints` per job, so long horizons do not cost one file per
//!   tick;
//! - **a resumable queue** — jobs whose output directory already holds a
//!   checkpoint resume from the newest one (bit-identically: checkpoints
//!   are bit-exact and stepping is deterministic), and jobs whose
//!   final-state checkpoint already reaches the target step count are
//!   skipped, so a crashed or killed farm just restarts.
//!
//! ## Manifest format (the driver's TOML subset)
//!
//! ```toml
//! [farm]
//! jobs = ["shear_a", "vessel_b"]     # execution order; section per job
//! out_root = "target/farm"           # default per-job out dir: out_root/<job>
//! checkpoint_every = 5               # default cadence (0 = final only)
//! keep_checkpoints = 2               # default rotation (0 = keep all)
//!
//! [shear_a]
//! scenario = "shear_pair"            # required: registry scenario name
//! steps = 40                         # required: target step count
//! order = 8                          # any other key: scenario config
//!
//! [vessel_b]
//! scenario = "vessel_flow"
//! steps = 20
//! out_dir = "target/farm/custom"     # optional per-job override
//! checkpoint_every = 2               # optional per-job override
//! keep_checkpoints = 3               # optional per-job override
//! ```
//!
//! The TOML subset has no array-of-tables, so each job is a named section;
//! every key that is not `scenario`/`steps`/`out_dir`/`checkpoint_every`/
//! `keep_checkpoints` is forwarded into the scenario's config section,
//! exactly like a `--set` override of the single-run CLI. The farm's own
//! keys are read strictly: a value of the wrong type, or a `[farm]` key
//! other than the four above, is an error.
//!
//! ## Determinism
//!
//! Per-job trajectories are bit-identical to the same scenario run through
//! the single-run CLI: trajectories are thread-count invariant, builds are
//! seeded, and cached surface/operator tables are bit-exact clones of cold
//! builds. When the farm runs jobs concurrently (inside pool workers,
//! where nested parallel regions execute serially), each job's
//! `threads` knob is pinned to 1 — job-level parallelism replaces
//! step-level parallelism, without touching the trajectory.

use crate::session::{final_checkpoint_path, CacheTelemetry, RunOptions, Session};
use crate::toml::{Doc, Value};
use rayon::par;
use sim::Checkpoint;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// The keys `[farm]` accepts.
const FARM_KEYS: [&str; 4] = ["jobs", "out_root", "checkpoint_every", "keep_checkpoints"];

/// Keys of a job section that configure the farm itself; everything else
/// is forwarded to the scenario config.
const RESERVED_JOB_KEYS: [&str; 5] = [
    "scenario",
    "steps",
    "out_dir",
    "checkpoint_every",
    "keep_checkpoints",
];

/// One job of a farm manifest.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job name (the manifest section; also the default output subdir).
    pub name: String,
    /// Registry scenario to build.
    pub scenario: String,
    /// Target step count: the job is complete once its simulation's step
    /// counter reaches this (so a resumed job runs only the remainder).
    pub steps: usize,
    /// Output directory (CSV + checkpoints) — unique per job.
    pub out_dir: PathBuf,
    /// Cadence checkpoint interval (0 = final checkpoint only).
    pub checkpoint_every: usize,
    /// Cadence checkpoints kept per job (0 = keep all).
    pub keep_checkpoints: usize,
    /// Scenario config for [`Session::build`] (job keys forwarded into
    /// the `[scenario]` section).
    pub cfg: Doc,
}

/// A parsed, validated farm manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Jobs in execution order.
    pub jobs: Vec<JobSpec>,
}

impl Manifest {
    /// Parses and validates manifest text (see the module docs for the
    /// format). Rejects unknown scenario names, duplicate job names, and
    /// duplicate output directories at parse time — a farm that would
    /// interleave two jobs' checkpoints must not start.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        Manifest::from_doc(&Doc::parse(text)?)
    }

    /// [`Manifest::parse`] over an already-parsed document.
    pub fn from_doc(doc: &Doc) -> Result<Manifest, String> {
        let job_names: Vec<String> = match doc.get("farm", "jobs") {
            Some(Value::Array(v)) => v
                .iter()
                .map(|x| match x {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(format!("farm.jobs entries must be strings, got {other:?}")),
                })
                .collect::<Result<_, _>>()?,
            Some(other) => return Err(format!("farm.jobs must be an array, got {other:?}")),
            None => return Err("manifest needs a [farm] section with a `jobs` array".into()),
        };
        if job_names.is_empty() {
            return Err("farm.jobs is empty — nothing to run".into());
        }
        {
            let mut seen = BTreeSet::new();
            for name in &job_names {
                if !seen.insert(name) {
                    return Err(format!("duplicate job name `{name}` in farm.jobs"));
                }
                if name == "farm" {
                    return Err("`farm` is the manifest's own section, not a job name".into());
                }
            }
        }
        let farm_keys = doc.keys("farm");
        if let Some(key) = farm_keys.iter().find(|k| !FARM_KEYS.contains(k)) {
            let accepted = FARM_KEYS.join(", ");
            return Err(format!(
                "farm: unknown key `{key}`; [farm] accepts {accepted}"
            ));
        }
        let out_root = match doc.get("farm", "out_root") {
            Some(Value::Str(s)) => PathBuf::from(s),
            Some(other) => return Err(format!("farm: `out_root` expects a string, got {other:?}")),
            None => PathBuf::from("target/farm"),
        };
        let default_every = read_usize(doc, "farm", "checkpoint_every", 0)?;
        let default_keep = read_usize(doc, "farm", "keep_checkpoints", 0)?;

        let mut jobs = Vec::with_capacity(job_names.len());
        let mut out_dirs = BTreeSet::new();
        for name in &job_names {
            let scenario = match doc.get(name, "scenario") {
                Some(Value::Str(s)) => s.clone(),
                Some(other) => {
                    return Err(format!(
                        "job `{name}`: scenario must be a string, got {other:?}"
                    ))
                }
                None => {
                    return Err(format!(
                        "job `{name}`: missing `[{name}]` section with a `scenario` key"
                    ))
                }
            };
            if !crate::registry().iter().any(|s| s.name == scenario) {
                let names: Vec<&str> = crate::registry().iter().map(|s| s.name).collect();
                return Err(format!(
                    "job `{name}`: unknown scenario `{scenario}`; available: {}",
                    names.join(", ")
                ));
            }
            let steps = read_usize(doc, name, "steps", 0)?;
            if steps == 0 {
                return Err(format!("job `{name}`: needs `steps` ≥ 1"));
            }
            let out_dir = match doc.get(name, "out_dir") {
                Some(Value::Str(s)) => PathBuf::from(s),
                Some(other) => {
                    return Err(format!(
                        "job `{name}`: out_dir must be a string, got {other:?}"
                    ))
                }
                None => out_root.join(name),
            };
            if !out_dirs.insert(out_dir.clone()) {
                return Err(format!(
                    "job `{name}`: output dir {} is already used by another job \
                     (checkpoints would collide)",
                    out_dir.display()
                ));
            }
            let mut cfg = Doc::default();
            for key in doc.keys(name) {
                if RESERVED_JOB_KEYS.contains(&key) {
                    continue;
                }
                if let Some(v) = doc.get(name, key) {
                    cfg.set(&scenario, key, v.clone());
                }
            }
            jobs.push(JobSpec {
                name: name.clone(),
                scenario,
                steps,
                out_dir,
                checkpoint_every: read_usize(doc, name, "checkpoint_every", default_every)?,
                keep_checkpoints: read_usize(doc, name, "keep_checkpoints", default_keep)?,
                cfg,
            });
        }
        Ok(Manifest { jobs })
    }
}

/// `key` of `section` (`farm` or a job), `default` when absent; any value
/// but a non-negative integer is an error naming the job, key and value.
fn read_usize(doc: &Doc, section: &str, key: &str, default: usize) -> Result<usize, String> {
    let Some(value) = doc.get(section, key) else {
        return Ok(default);
    };
    value.as_usize().ok_or_else(|| {
        let owner = match section {
            "farm" => "farm".to_string(),
            job => format!("job `{job}`"),
        };
        format!("{owner}: `{key}` expects a non-negative integer, got {value:?}")
    })
}

/// Controls for [`run_farm`].
#[derive(Clone, Debug, Default)]
pub struct FarmOptions {
    /// Concurrent jobs (0 = the worker pool's ambient width, 1 = strictly
    /// sequential — which keeps each job's own step-level parallelism).
    pub jobs_parallel: usize,
    /// Suppress per-job progress lines.
    pub quiet: bool,
    /// Simulated crash for tests/smokes: run jobs sequentially and stop
    /// scheduling after this many jobs finished, leaving the rest
    /// [`JobStatus::Halted`] — a rerun of the same manifest resumes them.
    pub halt_after: Option<usize>,
}

/// What happened to a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran (cold or resumed) to its target step count.
    Completed,
    /// Its final-state checkpoint already reached the target — skipped.
    AlreadyDone,
    /// Not scheduled because the farm halted first ([`FarmOptions::halt_after`]).
    Halted,
    /// Build, restore, or stepping failed (see [`JobOutcome::error`]).
    Failed,
}

/// Per-job result record.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job name from the manifest.
    pub name: String,
    /// Scenario the job ran.
    pub scenario: String,
    /// Final status.
    pub status: JobStatus,
    /// Step counter the job started from (> 0 ⇒ resumed from a checkpoint).
    pub start_step: usize,
    /// Steps actually executed by this farm run.
    pub steps_run: usize,
    /// Wall-clock seconds spent on the job.
    pub wall_s: f64,
    /// Failure message for [`JobStatus::Failed`].
    pub error: Option<String>,
}

impl JobOutcome {
    /// `job` with `status`, before it steps: no steps, no time, no error.
    fn new(job: &JobSpec, status: JobStatus) -> JobOutcome {
        JobOutcome {
            name: job.name.clone(),
            scenario: job.scenario.clone(),
            status,
            start_step: 0,
            steps_run: 0,
            wall_s: 0.0,
            error: None,
        }
    }

    /// Whether the job resumed from a pre-existing checkpoint.
    pub fn resumed(&self) -> bool {
        self.start_step > 0 && self.status == JobStatus::Completed
    }
}

/// What a farm run produced.
#[derive(Clone, Debug)]
pub struct FarmReport {
    /// Per-job outcomes, in manifest order.
    pub outcomes: Vec<JobOutcome>,
    /// Shared-cache telemetry delta over the farm window: `cache.hits()`
    /// counts builds jobs skipped by sharing immutable state.
    pub cache: CacheTelemetry,
    /// Total wall-clock seconds.
    pub wall_s: f64,
}

impl FarmReport {
    /// Jobs at their target step count (completed now or previously).
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, JobStatus::Completed | JobStatus::AlreadyDone))
            .count()
    }

    /// Jobs that resumed from a checkpoint this run.
    pub fn resumed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.resumed()).count()
    }

    /// Jobs that failed.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Failed)
            .count()
    }

    /// One-paragraph human summary (what the CLI prints).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "farm: {}/{} jobs at target ({} resumed, {} failed) in {:.2}s\n",
            self.completed(),
            self.outcomes.len(),
            self.resumed(),
            self.failed(),
            self.wall_s
        );
        s.push_str(&format!(
            "shared caches: {} hits / {} cold builds (surfaces {}/{}, fmm operators {}/{})\n",
            self.cache.hits(),
            self.cache.builds(),
            self.cache.surface_hits,
            self.cache.surface_builds,
            self.cache.fmm_op_hits,
            self.cache.fmm_op_builds,
        ));
        s
    }
}

/// The newest checkpoint of `job` on disk, by step counter: the final
/// checkpoint and every cadence checkpoint are candidates (a resumed run
/// killed mid-flight leaves cadence files newer than an older final).
fn latest_checkpoint(job: &JobSpec) -> Option<(PathBuf, usize)> {
    let mut best: Option<(PathBuf, usize)> = None;
    let fin = final_checkpoint_path(&job.out_dir, &job.scenario);
    if let Ok(ckpt) = Checkpoint::load(&fin) {
        best = Some((fin, ckpt.steps));
    }
    let prefix = format!("{}_step", job.scenario);
    if let Ok(entries) = std::fs::read_dir(&job.out_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name
                .strip_prefix(&prefix)
                .and_then(|s| s.strip_suffix(".ckpt"))
            else {
                continue;
            };
            let Ok(steps) = stem.parse::<usize>() else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, b)| steps > *b) {
                best = Some((entry.path(), steps));
            }
        }
    }
    best
}

/// Runs one job to its target step count: resume from the newest
/// checkpoint if one exists, skip if already at target, else step the
/// remainder with quiet streaming CSV + rotated checkpoints.
fn run_job(job: &JobSpec, pin_serial: bool) -> JobOutcome {
    let t0 = Instant::now();
    let mut outcome = JobOutcome::new(job, JobStatus::Failed);
    let resume = latest_checkpoint(job);
    if let Some((_, steps)) = &resume {
        if *steps >= job.steps {
            outcome.status = JobStatus::AlreadyDone;
            outcome.start_step = *steps;
            outcome.wall_s = t0.elapsed().as_secs_f64();
            return outcome;
        }
    }
    let result = (|| -> Result<usize, String> {
        let mut session = Session::build(&job.scenario, &job.cfg)?;
        if pin_serial {
            // jobs run concurrently inside pool workers, where nested
            // parallel regions execute serially anyway; pinning the knob
            // keeps the step from touching the process-wide thread
            // override under a running sibling job. Trajectories are
            // thread-count invariant, so this cannot change results.
            session.sim.config.threads = 1;
        }
        if let Some((path, _)) = &resume {
            let ckpt = Checkpoint::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
            session.restore(&ckpt)?;
        }
        let start = session.sim.steps;
        let opts = RunOptions {
            steps: job.steps - start,
            checkpoint_every: job.checkpoint_every,
            keep_checkpoints: job.keep_checkpoints,
            out_dir: Some(job.out_dir.clone()),
            quiet: true,
        };
        session.run(&opts).map_err(|e| e.to_string())?;
        Ok(start)
    })();
    match result {
        Ok(start) => {
            outcome.status = JobStatus::Completed;
            outcome.start_step = start;
            outcome.steps_run = job.steps - start;
        }
        Err(e) => outcome.error = Some(e),
    }
    outcome.wall_s = t0.elapsed().as_secs_f64();
    outcome
}

fn print_outcome(o: &JobOutcome) {
    let how = match o.status {
        JobStatus::Completed if o.start_step > 0 => "resumed",
        JobStatus::Completed => "completed",
        JobStatus::AlreadyDone => "already at target, skipped",
        JobStatus::Halted => "halted (simulated crash)",
        JobStatus::Failed => "FAILED",
    };
    let detail = match o.status {
        JobStatus::Completed => format!(
            ", steps {} → {} in {:.2}s",
            o.start_step,
            o.start_step + o.steps_run,
            o.wall_s
        ),
        JobStatus::Failed => format!(": {}", o.error.as_deref().unwrap_or("?")),
        _ => String::new(),
    };
    println!("farm job {} [{}]: {how}{detail}", o.name, o.scenario);
}

/// Runs every job of `manifest` to its target step count over the
/// persistent worker pool. Job failures do not abort the farm — they are
/// reported per job ([`FarmReport::failed`]); manifest-level problems are
/// the `Err` case.
pub fn run_farm(manifest: &Manifest, opts: &FarmOptions) -> Result<FarmReport, String> {
    let t0 = Instant::now();
    let cache0 = CacheTelemetry::snapshot();
    let n = manifest.jobs.len();
    let outcomes = if let Some(halt) = opts.halt_after {
        // simulated crash: strictly sequential so "the first k jobs
        // finished" is a deterministic statement
        let mut outcomes = Vec::with_capacity(n);
        let mut done = 0usize;
        for job in &manifest.jobs {
            if done >= halt {
                outcomes.push(JobOutcome::new(job, JobStatus::Halted));
                continue;
            }
            let o = run_job(job, false);
            if !opts.quiet {
                print_outcome(&o);
            }
            done += 1;
            outcomes.push(o);
        }
        outcomes
    } else {
        let width = if opts.jobs_parallel == 0 {
            par::num_threads()
        } else {
            opts.jobs_parallel
        };
        let concurrent = width.min(n) > 1;
        let run_all = || {
            par::map_indexed(n, |i| {
                let o = run_job(&manifest.jobs[i], concurrent);
                if !opts.quiet {
                    print_outcome(&o);
                }
                o
            })
        };
        if opts.jobs_parallel > 0 {
            par::with_override(opts.jobs_parallel, run_all)
        } else {
            run_all()
        }
    };
    let report = FarmReport {
        outcomes,
        cache: CacheTelemetry::snapshot().since(&cache0),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    if !opts.quiet {
        print!("{}", report.summary());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_JOBS: &str = r#"
[farm]
jobs = ["a", "b"]
out_root = "target/test-farm"
checkpoint_every = 2

[a]
scenario = "shear_pair"
steps = 3
order = 6

[b]
scenario = "shear_pair"
steps = 2
order = 6
keep_checkpoints = 1
"#;

    #[test]
    fn manifest_parses_jobs_defaults_and_overrides() {
        let m = Manifest::parse(TWO_JOBS).unwrap();
        assert_eq!(m.jobs.len(), 2);
        let a = &m.jobs[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.scenario, "shear_pair");
        assert_eq!(a.steps, 3);
        assert_eq!(a.out_dir, PathBuf::from("target/test-farm/a"));
        assert_eq!(a.checkpoint_every, 2, "farm-level default not inherited");
        assert_eq!(a.keep_checkpoints, 0);
        assert_eq!(m.jobs[1].keep_checkpoints, 1, "per-job override lost");
        // scenario keys forwarded into the scenario's config section;
        // reserved farm keys are not
        assert_eq!(a.cfg.usize_or("shear_pair", "order", 0), 6);
        assert!(a.cfg.get("shear_pair", "steps").is_none());
        assert!(a.cfg.get("shear_pair", "scenario").is_none());
    }

    #[test]
    fn manifest_rejects_missing_farm_section_and_empty_jobs() {
        let e = Manifest::parse("[a]\nscenario = \"shear_pair\"\n").unwrap_err();
        assert!(e.contains("[farm]"), "{e}");
        let e = Manifest::parse("[farm]\njobs = []\n").unwrap_err();
        assert!(e.contains("empty"), "{e}");
    }

    #[test]
    fn manifest_rejects_bad_scenario_name() {
        let text = "[farm]\njobs = [\"a\"]\n[a]\nscenario = \"warp_drive\"\nsteps = 1\n";
        let e = Manifest::parse(text).unwrap_err();
        assert!(
            e.contains("unknown scenario") && e.contains("warp_drive"),
            "{e}"
        );
        assert!(e.contains("shear_pair"), "should list the registry: {e}");
    }

    #[test]
    fn manifest_rejects_duplicate_output_dir() {
        let text = "[farm]\njobs = [\"a\", \"b\"]\n\
                    [a]\nscenario = \"shear_pair\"\nsteps = 1\nout_dir = \"target/x\"\n\
                    [b]\nscenario = \"shear_pair\"\nsteps = 1\nout_dir = \"target/x\"\n";
        let e = Manifest::parse(text).unwrap_err();
        assert!(e.contains("already used"), "{e}");
    }

    #[test]
    fn manifest_rejects_duplicate_job_and_missing_section() {
        let e = Manifest::parse(
            "[farm]\njobs = [\"a\", \"a\"]\n[a]\nscenario = \"shear_pair\"\nsteps = 1\n",
        )
        .unwrap_err();
        assert!(e.contains("duplicate job name"), "{e}");
        let e = Manifest::parse("[farm]\njobs = [\"a\"]\n").unwrap_err();
        assert!(e.contains("missing"), "{e}");
        let e = Manifest::parse("[farm]\njobs = [\"a\"]\n[a]\nscenario = \"shear_pair\"\n")
            .unwrap_err();
        assert!(e.contains("steps"), "{e}");
    }

    /// The farm's own keys are read strictly: a mistyped value names the
    /// job (or `farm`), the key, the value and the type it expects, and a
    /// misspelled `[farm]` key lists the four keys `[farm]` accepts.
    #[test]
    fn manifest_rejects_mistyped_farm_values_and_unknown_farm_keys() {
        let manifest = |farm: &str, job: &str| {
            format!("[farm]\njobs = [\"a\"]\n{farm}\n[a]\nscenario = \"shear_pair\"\n{job}\n")
        };
        for (farm, job, want) in [
            (
                "checkpoint_every = \"5\"",
                "steps = 1",
                "farm: `checkpoint_every` expects a non-negative integer, got Str(\"5\")",
            ),
            (
                "checkpoint_every = -1",
                "steps = 1",
                "farm: `checkpoint_every` expects a non-negative integer, got Int(-1)",
            ),
            (
                "keep_checkpoints = true",
                "steps = 1",
                "farm: `keep_checkpoints` expects a non-negative integer, got Bool(true)",
            ),
            (
                "out_root = 3",
                "steps = 1",
                "farm: `out_root` expects a string, got Int(3)",
            ),
            (
                "",
                "steps = 2.5",
                "job `a`: `steps` expects a non-negative integer, got Float(2.5)",
            ),
            (
                "",
                "steps = 1\ncheckpoint_every = \"5\"",
                "job `a`: `checkpoint_every` expects a non-negative integer, got Str(\"5\")",
            ),
            (
                "",
                "steps = 1\nkeep_checkpoints = -2",
                "job `a`: `keep_checkpoints` expects a non-negative integer, got Int(-2)",
            ),
            (
                "checkpoint_evry = 5",
                "steps = 1",
                "farm: unknown key `checkpoint_evry`; [farm] accepts jobs, out_root, \
                 checkpoint_every, keep_checkpoints",
            ),
        ] {
            let e = Manifest::parse(&manifest(farm, job)).unwrap_err();
            assert_eq!(e, want);
        }
        // the same keys, well typed, parse
        let m = Manifest::parse(&manifest(
            "out_root = \"target/x\"\ncheckpoint_every = 5\nkeep_checkpoints = 2",
            "steps = 3\ncheckpoint_every = 1",
        ))
        .unwrap();
        let a = &m.jobs[0];
        assert_eq!(a.out_dir, PathBuf::from("target/x/a"));
        assert_eq!((a.steps, a.checkpoint_every, a.keep_checkpoints), (3, 1, 2));
    }
}
