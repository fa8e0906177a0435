//! The run layer: scenario build / step loop / IO split.
//!
//! - **build**: [`Session::build`] goes registry → ready-to-step
//!   [`Simulation`] (through the process-wide shared immutable caches —
//!   FMM operator tables in [`fmm::ops`], refined wall surfaces in
//!   [`sim::caches`]) and carries the per-step policy (outlet recycling,
//!   the non-finite guard) with the state it applies to;
//! - **step loop**: [`Session::step`] is the resumable stepper — one call,
//!   one committed step, one [`StepRow`] of per-stage timers and
//!   [`sim::StepStats`]; [`Session::drive`] folds it over N steps;
//! - **IO sinks**: [`StepSink`] observers ([`ConsoleSink`], [`CsvSink`],
//!   [`CheckpointSink`]) receive each row as it happens, so output
//!   streams and checkpoints survive a kill at any step. They are
//!   pluggable: the batch farm, the CLI, and the examples wire different
//!   sink sets over the same loop.
//!
//! [`Session::run`] is the one full composition (console + streaming CSV +
//! cadence/final checkpoints, configured by [`RunOptions`]) that the CLI
//! and the farm's per-job runner use; its console lines, `trajectory.csv`
//! bytes, and checkpoint files are pinned by `driver/tests/`.

use crate::scenario::Built;
use crate::toml::Doc;
use sim::{Checkpoint, Simulation, StepStats, StepTimers};
use std::io;
use std::path::{Path, PathBuf};

/// Controls for [`Session::run`].
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Number of steps to take (on restart: *additional* steps).
    pub steps: usize,
    /// Write a checkpoint every `k` steps (0 = only the final one).
    pub checkpoint_every: usize,
    /// Cadence checkpoints to keep on disk (rotation): 0 = keep all,
    /// `k` = delete all but the newest `k` (the final-state checkpoint is
    /// never rotated). Long-horizon farm jobs use this so resumability
    /// does not cost one file per cadence tick.
    pub keep_checkpoints: usize,
    /// Directory for checkpoints and CSV output; `None` disables all
    /// file output.
    pub out_dir: Option<PathBuf>,
    /// Suppress the per-step progress lines.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            steps: 10,
            checkpoint_every: 0,
            keep_checkpoints: 0,
            out_dir: None,
            quiet: false,
        }
    }
}

/// One step's record.
#[derive(Clone, Copy, Debug)]
pub struct StepRow {
    /// Step index (1-based, global across restarts).
    pub step: usize,
    /// Component timers for this step.
    pub timers: StepTimers,
    /// Solver/contact diagnostics.
    pub stats: StepStats,
    /// Cells recycled outlet → inlet after this step.
    pub recycled: usize,
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Component timers summed over the executed steps.
    pub timers: StepTimers,
    /// Per-step records.
    pub rows: Vec<StepRow>,
    /// Checkpoints written, in order; the last one is the final state.
    pub checkpoints: Vec<PathBuf>,
    /// Whether the scenario has a vessel, the only source of the wall
    /// columns (`gmres_iters`, `wall_fmm_*`, `flux_imbalance`).
    pub vessel: bool,
}

impl RunReport {
    /// Renders the per-stage aggregate the paper's Figs. 4–6 tabulate.
    pub fn stage_table(&self) -> String {
        let t = &self.timers;
        let n = self.rows.len().max(1) as f64;
        let mut out = String::from("stage        total(s)  per-step(s)\n");
        for (name, v) in [
            ("COL", t.col),
            ("BIE-solve", t.bie_solve),
            ("BIE-FMM", t.bie_fmm),
            ("Other-FMM", t.other_fmm),
            ("Other", t.other),
            ("TOTAL", t.total()),
        ] {
            out.push_str(&format!("{name:<11} {v:>9.3}  {:>11.4}\n", v / n));
        }
        out
    }
}

/// `v`, a count, as an integer.
fn int(v: f64) -> String {
    format!("{v:.0}")
}

/// `v` in fixed notation with `P` digits after the point.
fn fixed<const P: usize>(v: f64) -> String {
    format!("{v:.P$}")
}

/// `v` in scientific notation with `P` digits after the point.
fn sci<const P: usize>(v: f64) -> String {
    format!("{v:.P$e}")
}

/// One `trajectory.csv` column: its header name, its value in a row and
/// how that value is written.
pub type Column = (&'static str, fn(&StepRow) -> f64, fn(f64) -> String);

/// The per-step CSV's columns, in order: its header, every line and the
/// `--assert` lookup all read this one table.
pub(crate) const COLUMNS: &[Column] = &[
    ("step", |r| r.step as f64, int),
    ("col_s", |r| r.timers.col, fixed::<6>),
    ("bie_solve_s", |r| r.timers.bie_solve, fixed::<6>),
    ("bie_fmm_s", |r| r.timers.bie_fmm, fixed::<6>),
    ("other_fmm_s", |r| r.timers.other_fmm, fixed::<6>),
    ("other_s", |r| r.timers.other, fixed::<6>),
    ("total_s", |r| r.timers.total(), fixed::<6>),
    ("gmres_iters", |r| r.stats.bie_iterations as f64, int),
    ("contacts", |r| r.stats.contacts as f64, int),
    ("ncp_iters", |r| r.stats.ncp_iters as f64, int),
    ("recycled", |r| r.recycled as f64, int),
    ("dt_effective", |r| r.stats.dt_effective, fixed::<8>),
    ("dt_retries", |r| r.stats.dt_retries as f64, int),
    ("max_edge_stretch", |r| r.stats.max_edge_stretch, fixed::<4>),
    ("frozen_cells", |r| r.stats.frozen_cells as f64, int),
    ("wall_fmm_builds", |r| r.stats.wall_fmm_builds as f64, int),
    ("wall_fmm_replans", |r| r.stats.wall_fmm_replans as f64, int),
    ("flux_imbalance", |r| r.stats.flux_imbalance, sci::<3>),
];

impl StepRow {
    /// One CSV line (newline-terminated) for this row.
    fn csv_line(&self) -> String {
        let cells: Vec<String> = COLUMNS.iter().map(|(_, v, f)| f(v(self))).collect();
        cells.join(",") + "\n"
    }
}

/// Path of a cadence checkpoint at the given step counter.
fn checkpoint_path(dir: &Path, scenario: &str, step: usize) -> PathBuf {
    dir.join(format!("{scenario}_step{step:06}.ckpt"))
}

/// Path of the final-state checkpoint a run writes.
pub fn final_checkpoint_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}_final.ckpt"))
}

/// A per-step observer plugged into the step loop.
///
/// Sinks are called in the order they are passed to [`Session::drive`]; any error
/// aborts the run (the step itself is already committed — sinks observe,
/// they do not vote).
pub trait StepSink {
    /// Called once before the first step.
    fn on_start(&mut self, _sim: &Simulation) -> io::Result<()> {
        Ok(())
    }
    /// Called after every committed step with the step's record.
    fn on_step(&mut self, sim: &Simulation, row: &StepRow) -> io::Result<()>;
    /// Called once after the last step.
    fn on_finish(&mut self, _sim: &Simulation) -> io::Result<()> {
        Ok(())
    }
}

/// Prints the monolith-era progress lines: a two-line header, then one
/// line per step.
pub struct ConsoleSink {
    scenario: String,
    steps: usize,
}

impl ConsoleSink {
    /// A console sink announcing `scenario` over `steps` steps.
    pub fn new(scenario: impl Into<String>, steps: usize) -> ConsoleSink {
        ConsoleSink {
            scenario: scenario.into(),
            steps,
        }
    }
}

impl StepSink for ConsoleSink {
    fn on_start(&mut self, sim: &Simulation) -> io::Result<()> {
        println!(
            "{}: {} cells, {} dofs, dt = {}, {} steps",
            self.scenario,
            sim.cells.len(),
            sim.dofs(),
            sim.config.dt,
            self.steps
        );
        println!("step  total(s)  COL(s)  BIE(s)  gmres  contacts  recycled  dt_eff  retries");
        Ok(())
    }

    fn on_step(&mut self, _sim: &Simulation, row: &StepRow) -> io::Result<()> {
        let t = row.timers;
        println!(
            "{:>4}  {:>8.3}  {:>6.3}  {:>6.3}  {:>5}  {:>8}  {:>8}  {:>6.4}  {:>7}",
            row.step,
            t.total(),
            t.col,
            t.bie_solve + t.bie_fmm,
            row.stats.bie_iterations,
            row.stats.contacts,
            row.recycled,
            row.stats.dt_effective,
            row.stats.dt_retries
        );
        Ok(())
    }
}

/// Streams rows to a CSV file as they happen, so a killed run keeps
/// everything up to its last completed step.
pub struct CsvSink {
    file: std::fs::File,
}

impl CsvSink {
    /// Creates (truncating) `path` and writes the column header.
    pub fn create(path: &Path) -> io::Result<CsvSink> {
        let mut file = std::fs::File::create(path)?;
        let names: Vec<&str> = COLUMNS.iter().map(|c| c.0).collect();
        io::Write::write_all(&mut file, (names.join(",") + "\n").as_bytes())?;
        Ok(CsvSink { file })
    }

    /// The trajectory CSV name for a run starting at step counter
    /// `start_step`: continuation runs (restarts) get their own file
    /// instead of overwriting the earlier portion of the trajectory.
    pub fn trajectory_name(start_step: usize) -> String {
        if start_step == 0 {
            "trajectory.csv".to_string()
        } else {
            format!("trajectory_from_{:06}.csv", start_step + 1)
        }
    }
}

impl StepSink for CsvSink {
    fn on_step(&mut self, _sim: &Simulation, row: &StepRow) -> io::Result<()> {
        io::Write::write_all(&mut self.file, row.csv_line().as_bytes())
    }
}

/// Writes cadence checkpoints every `every` steps (0 = none), rotates them
/// down to the newest `keep` (0 = keep all), and writes the final-state
/// checkpoint after the last step.
pub struct CheckpointSink {
    dir: PathBuf,
    scenario: String,
    every: usize,
    keep: usize,
    /// Cadence checkpoints currently on disk from this run, oldest first.
    cadence: Vec<PathBuf>,
    /// All surviving checkpoints written by this run, in write order (the
    /// final-state checkpoint last) — what [`RunReport::checkpoints`]
    /// reports.
    pub written: Vec<PathBuf>,
}

impl CheckpointSink {
    /// A checkpoint sink writing into `dir` under `scenario`'s name.
    pub fn new(
        dir: impl Into<PathBuf>,
        scenario: impl Into<String>,
        every: usize,
        keep: usize,
    ) -> CheckpointSink {
        CheckpointSink {
            dir: dir.into(),
            scenario: scenario.into(),
            every,
            keep,
            cadence: Vec::new(),
            written: Vec::new(),
        }
    }
}

impl StepSink for CheckpointSink {
    fn on_step(&mut self, sim: &Simulation, _row: &StepRow) -> io::Result<()> {
        if self.every == 0 || !sim.steps.is_multiple_of(self.every) {
            return Ok(());
        }
        let path = checkpoint_path(&self.dir, &self.scenario, sim.steps);
        Checkpoint::write(sim, &self.scenario, &path)?;
        self.cadence.push(path.clone());
        self.written.push(path);
        // rotation: long-horizon farm jobs would otherwise accumulate one
        // file per cadence tick; resume only ever needs the newest
        while self.keep > 0 && self.cadence.len() > self.keep {
            let old = self.cadence.remove(0);
            std::fs::remove_file(&old)?;
            self.written.retain(|p| p != &old);
        }
        Ok(())
    }

    fn on_finish(&mut self, sim: &Simulation) -> io::Result<()> {
        let path = final_checkpoint_path(&self.dir, &self.scenario);
        Checkpoint::write(sim, &self.scenario, &path)?;
        self.written.push(path);
        Ok(())
    }
}

/// An owned scenario run: the simulation plus the per-step policy and the
/// name that ties its checkpoints back to the registry.
///
/// [`Session::step`] advances one step at a time (resumable — call it
/// whenever), [`Session::drive`] folds it over any sink set, and
/// [`Session::run`] composes the full console/CSV/checkpoint set.
pub struct Session {
    /// Registry name (stored in checkpoints so a restart can rebuild).
    pub scenario: String,
    /// The live simulation.
    pub sim: Simulation,
    /// Recycle outlet cells into the inlet after each step.
    pub recycle: bool,
    /// Abort the run (with an error naming the step, cell, and
    /// coefficient) the moment any cell's shape coefficients go
    /// non-finite. On by default: a NaN that survives the adaptive
    /// stepper's own gates means the simulation state is garbage and every
    /// later step wastes time.
    pub fail_on_nonfinite: bool,
}

impl Session {
    /// Builds registry scenario `name` from `cfg` (through the shared
    /// immutable caches) into a ready-to-step session.
    pub fn build(name: &str, cfg: &Doc) -> Result<Session, String> {
        Ok(Session::from_built(name, crate::build(name, cfg)?))
    }

    /// Wraps an already-built scenario.
    pub fn from_built(name: &str, built: Built) -> Session {
        Session {
            scenario: name.to_string(),
            sim: built.sim,
            recycle: built.recycle,
            fail_on_nonfinite: true,
        }
    }

    /// Restores a checkpoint into this session, rejecting checkpoints
    /// from a different scenario (their domains cannot match).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), String> {
        if ckpt.scenario != self.scenario {
            return Err(format!(
                "checkpoint is from scenario `{}`, not `{}`",
                ckpt.scenario, self.scenario
            ));
        }
        ckpt.restore_into(&mut self.sim).map_err(|e| e.to_string())
    }

    /// Errs naming the step, cell, component and coefficient of the first
    /// shape coefficient that is NaN or ∞.
    pub fn check_finite(&self) -> Result<(), String> {
        for (ci, cell) in self.sim.cells.iter().enumerate() {
            for (comp, coeffs) in cell.coeffs.iter().enumerate() {
                if let Some(k) = coeffs.data.iter().position(|v| !v.is_finite()) {
                    return Err(format!(
                        "non-finite state after step {}: cell {ci}, component {}, coefficient {k}",
                        self.sim.steps,
                        ["x", "y", "z"][comp],
                    ));
                }
            }
        }
        Ok(())
    }

    /// Takes one committed step — advance, guard, recycle — and returns
    /// its record. Resumable: the step counter (and the CSV/ckpt numbering
    /// derived from it) carries across calls, checkpoint restores, and
    /// process restarts.
    pub fn step(&mut self) -> io::Result<StepRow> {
        let t = self.sim.step();
        if self.fail_on_nonfinite {
            let rerun = "rerun with --allow-nonfinite to continue anyway";
            self.check_finite()
                .map_err(|e| io::Error::other(format!("{e} ({rerun})")))?;
        }
        let sim = &mut self.sim;
        let recycled = if self.recycle { sim.recycle_cells() } else { 0 };
        Ok(StepRow {
            step: sim.steps,
            timers: t,
            stats: sim.last_stats,
            recycled,
        })
    }

    /// Runs `steps` steps, feeding every row to each sink in order.
    /// Returns the aggregate report; `report.checkpoints` stays empty —
    /// checkpoint paths live in the [`CheckpointSink`] that wrote them.
    pub fn drive(
        &mut self,
        steps: usize,
        sinks: &mut [&mut dyn StepSink],
    ) -> io::Result<RunReport> {
        for sink in sinks.iter_mut() {
            sink.on_start(&self.sim)?;
        }
        let mut report = RunReport {
            vessel: self.sim.vessel.is_some(),
            ..Default::default()
        };
        for _ in 0..steps {
            let row = self.step()?;
            report.timers.accumulate(&row.timers);
            for sink in sinks.iter_mut() {
                sink.on_step(&self.sim, &row)?;
            }
            report.rows.push(row);
        }
        for sink in sinks.iter_mut() {
            sink.on_finish(&self.sim)?;
        }
        Ok(report)
    }

    /// Runs `opts.steps` steps through the full sink set: console lines
    /// (unless `opts.quiet`), and under `opts.out_dir` a streaming
    /// `trajectory.csv` plus cadence and final checkpoints named after the
    /// session's scenario.
    pub fn run(&mut self, opts: &RunOptions) -> io::Result<RunReport> {
        if let Some(dir) = &opts.out_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut console = (!opts.quiet).then(|| ConsoleSink::new(&self.scenario, opts.steps));
        let mut csv = match &opts.out_dir {
            Some(dir) => Some(CsvSink::create(
                &dir.join(CsvSink::trajectory_name(self.sim.steps)),
            )?),
            None => None,
        };
        let mut ckpt = opts.out_dir.as_ref().map(|dir| {
            CheckpointSink::new(
                dir,
                &self.scenario,
                opts.checkpoint_every,
                opts.keep_checkpoints,
            )
        });
        let mut sinks: Vec<&mut dyn StepSink> = Vec::with_capacity(3);
        if let Some(s) = console.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = csv.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = ckpt.as_mut() {
            sinks.push(s);
        }
        let mut report = self.drive(opts.steps, &mut sinks)?;
        if let Some(c) = ckpt {
            report.checkpoints = c.written;
        }
        Ok(report)
    }
}

/// Snapshot of the process-wide shared-cache counters (cumulative).
///
/// The farm reports the delta over its run window: `hits > 0` is the
/// acceptance signal that jobs actually shared immutable state instead of
/// re-paying cold builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Cold refined-wall-surface builds ([`sim::caches`]).
    pub surface_builds: u64,
    /// Refined-wall-surface cache hits.
    pub surface_hits: u64,
    /// Cold FMM operator-table builds ([`fmm::ops`]).
    pub fmm_op_builds: u64,
    /// FMM operator-table cache hits.
    pub fmm_op_hits: u64,
}

impl CacheTelemetry {
    /// Current cumulative counters.
    pub fn snapshot() -> CacheTelemetry {
        let s = sim::surface_cache_stats();
        let f = fmm::ops_cache_stats();
        CacheTelemetry {
            surface_builds: s.builds,
            surface_hits: s.hits,
            fmm_op_builds: f.builds,
            fmm_op_hits: f.hits,
        }
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CacheTelemetry) -> CacheTelemetry {
        CacheTelemetry {
            surface_builds: self.surface_builds.saturating_sub(earlier.surface_builds),
            surface_hits: self.surface_hits.saturating_sub(earlier.surface_hits),
            fmm_op_builds: self.fmm_op_builds.saturating_sub(earlier.fmm_op_builds),
            fmm_op_hits: self.fmm_op_hits.saturating_sub(earlier.fmm_op_hits),
        }
    }

    /// Total cache hits across all shared caches.
    pub fn hits(&self) -> u64 {
        self.surface_hits + self.fmm_op_hits
    }

    /// Total cold builds across all shared caches.
    pub fn builds(&self) -> u64 {
        self.surface_builds + self.fmm_op_builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::Value;

    fn tiny_session() -> Session {
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Int(6));
        Session::build("shear_pair", &cfg).unwrap()
    }

    /// A sink that records the step indices it observed plus the
    /// start/finish hooks — pins the observer contract.
    #[derive(Default)]
    struct Recorder {
        started: usize,
        finished: usize,
        steps: Vec<usize>,
    }

    impl StepSink for Recorder {
        fn on_start(&mut self, _sim: &Simulation) -> io::Result<()> {
            self.started += 1;
            Ok(())
        }
        fn on_step(&mut self, sim: &Simulation, row: &StepRow) -> io::Result<()> {
            assert_eq!(sim.steps, row.step, "row observed out of sync");
            self.steps.push(row.step);
            Ok(())
        }
        fn on_finish(&mut self, _sim: &Simulation) -> io::Result<()> {
            self.finished += 1;
            Ok(())
        }
    }

    #[test]
    fn session_step_is_resumable_across_drive_calls() {
        let mut s = tiny_session();
        let r1 = s.step().unwrap();
        assert_eq!(r1.step, 1);
        let mut rec = Recorder::default();
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut rec];
            s.drive(2, &mut sinks).unwrap();
        }
        assert_eq!(rec.started, 1);
        assert_eq!(rec.finished, 1);
        assert_eq!(rec.steps, vec![2, 3], "global step counter must carry");
        assert_eq!(s.sim.steps, 3);
    }

    #[test]
    fn stage_table_and_csv_render() {
        let t = StepTimers {
            col: 0.5,
            bie_solve: 0.25,
            ..Default::default()
        };
        let row = StepRow {
            step: 1,
            timers: t,
            stats: StepStats {
                bie_iterations: 12,
                contacts: 3,
                dt_effective: 0.005,
                dt_retries: 2,
                max_edge_stretch: 1.25,
                frozen_cells: 1,
                wall_fmm_builds: 1,
                wall_fmm_replans: 4,
                flux_imbalance: 2.5e-13,
                ..Default::default()
            },
            recycled: 1,
        };
        let mut report = RunReport::default();
        report.timers.accumulate(&t);
        report.rows.push(row);
        let table = report.stage_table();
        assert!(table.contains("COL") && table.contains("0.500"), "{table}");

        let path = std::env::temp_dir().join(format!("session_csv_{}.csv", std::process::id()));
        {
            let mut csv = CsvSink::create(&path).unwrap();
            csv.on_step(&tiny_session().sim, &row).unwrap();
        }
        let csv = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // the full header and data line, byte for byte: the benchmark reads
        // trajectory files back by header name
        assert_eq!(
            csv,
            "step,col_s,bie_solve_s,bie_fmm_s,other_fmm_s,other_s,total_s,gmres_iters,\
             contacts,ncp_iters,recycled,dt_effective,dt_retries,max_edge_stretch,\
             frozen_cells,wall_fmm_builds,wall_fmm_replans,flux_imbalance\n\
             1,0.500000,0.250000,0.000000,0.000000,0.000000,0.750000,12,\
             3,0,1,0.00500000,2,1.2500,\
             1,1,4,2.500e-13\n"
        );
    }

    #[test]
    fn checkpoint_sink_rotates_cadence_files() {
        let mut s = tiny_session();
        let dir = std::env::temp_dir().join(format!("session_rotate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut ckpt = CheckpointSink::new(&dir, "shear_pair", 1, 2);
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut ckpt];
            s.drive(4, &mut sinks).unwrap();
        }
        // keep = 2: steps 3 and 4 survive, 1 and 2 rotated away, plus final
        let names: Vec<String> = ckpt
            .written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "shear_pair_step000003.ckpt",
                "shear_pair_step000004.ckpt",
                "shear_pair_final.ckpt"
            ],
            "{names:?}"
        );
        for p in &ckpt.written {
            assert!(p.exists(), "{} missing", p.display());
        }
        assert!(!checkpoint_path(&dir, "shear_pair", 1).exists());
        assert!(!checkpoint_path(&dir, "shear_pair", 2).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_wrong_scenario() {
        let mut s = tiny_session();
        let ckpt = Checkpoint::capture(&s.sim, "sedimentation");
        let e = s.restore(&ckpt).unwrap_err();
        assert!(
            e.contains("sedimentation") && e.contains("shear_pair"),
            "{e}"
        );
    }

    #[test]
    fn cache_telemetry_deltas() {
        let a = CacheTelemetry {
            surface_builds: 1,
            surface_hits: 2,
            fmm_op_builds: 3,
            fmm_op_hits: 5,
        };
        let b = CacheTelemetry {
            surface_builds: 1,
            surface_hits: 4,
            fmm_op_builds: 4,
            fmm_op_hits: 9,
        };
        let d = b.since(&a);
        assert_eq!(d.surface_builds, 0);
        assert_eq!(d.surface_hits, 2);
        assert_eq!(d.fmm_op_builds, 1);
        assert_eq!(d.fmm_op_hits, 4);
        assert_eq!(d.hits(), 6);
        assert_eq!(d.builds(), 1);
    }
}
