//! Full-step perf-trajectory bench: times `sim::Simulation::step` end to
//! end (self-interaction → BIE/GMRES → FMM → collision resolution) for
//! registry scenarios and writes a machine-readable `BENCH_step.json` with
//! the per-stage COL / BIE-solve / BIE-FMM / Other-FMM / Other split, so
//! full-pipeline performance is tracked across PRs alongside the
//! FMM-only `BENCH_fmm.json`.
//!
//! Scenario settings mirror `scenarios/step_bench.toml` (scaled down from
//! the paper's production sizes so the bench finishes in ~a minute). The
//! `bifurcation` row times the branched-network workload (flux-balanced
//! 3-port BCs) next to the straight-tube rows; physiology observables for
//! the network family live in `BENCH_physiology.json` (`--bin physiology`).
//!
//! The two heaviest scenarios (sedimentation, vessel_flow_refined) also
//! record a full-step thread-count curve (1/2/4/8 workers via the
//! `SimConfig::threads` knob) in their `thread_curve` column; the
//! top-level `host_cores` field documents the bench box so a flat curve
//! on a small host isn't read as a scaling regression.
//!
//! Usage: `cargo run --release -p bench --bin step_bench [--quick]`
//! (`--quick` runs fewer steps on the free-space case only and writes
//! `BENCH_step_quick.json` so smoke runs never clobber the trajectory.)

use driver::{Doc, FarmOptions, Manifest, Session};
use sim::StepTimers;
use std::fmt::Write as _;

struct CaseResult {
    name: String,
    cells: usize,
    dofs: usize,
    steps: usize,
    timers: StepTimers,
    /// Boundary-solve GMRES iterations of the untimed warm-up step — the
    /// cold-start count (`None` for free-space scenarios).
    bie_iters_cold: Option<usize>,
    /// Boundary-solve GMRES iterations per measured step (empty for
    /// free-space scenarios). The warm-up step primes the warm start, so
    /// these are *steady-state* (warm) counts; compare against
    /// `bie_iters_cold` for the warm-start win.
    bie_iters: Vec<usize>,
    /// Active contacts at first detection per measured step — the COL
    /// stage's workload scale (its cost is roughly proportional to this
    /// times the NCP outer iterations), recorded so COL perf regressions
    /// can be separated from trajectory changes that shift the contact
    /// count.
    col_contacts: Vec<usize>,
    /// Adaptive-dt retries per measured step. Nonzero entries
    /// mean the step-health gate tripped and the step re-ran at a reduced
    /// dt — each retry repeats the implicit stage, so retry counts explain
    /// per-step wall-time outliers that are otherwise invisible in the
    /// stage split.
    dt_retries: Vec<usize>,
    /// Worker count the measured steps ran at (the `SimConfig::threads`
    /// knob; 0 = ambient parallelism of the bench host).
    threads: usize,
    /// Full-step thread-count curve, `(workers, total seconds per step)`:
    /// the same warmed instance steps once per entry with
    /// `config.threads` pinned. Trajectories are bit-identical across
    /// thread counts, so consecutive steps time the same pipeline on a
    /// slightly evolving workload. Empty for unswept scenarios.
    thread_curve: Vec<(usize, f64)>,
}

/// Runs `steps` timed steps of registry scenario `name`, reported under
/// `label` (labels diverge from the registry name for config variants,
/// e.g. `vessel_flow_refined`). `curve` lists worker counts to sweep the
/// full step over afterwards (one extra step each, on the same instance).
fn run_case(label: &str, name: &str, cfg: &Doc, steps: usize, curve: &[usize]) -> CaseResult {
    let mut session = Session::build(name, cfg).unwrap_or_else(|e| panic!("build {name}: {e}"));
    let mut timers = StepTimers::default();
    let mut bie_iters = Vec::with_capacity(steps);
    let mut col_contacts = Vec::with_capacity(steps);
    let mut dt_retries = Vec::with_capacity(steps);
    // one untimed warm-up step so process-wide operator caches (upsample
    // matrices, FMM operators) don't pollute the first measured step.
    // NOTE: the warm-up also primes the boundary-solve warm start, so the
    // measured steps reflect steady-state (warm) GMRES iteration counts;
    // its own count is the cold baseline.
    let warm = session.step().unwrap_or_else(|e| panic!("{name}: {e}"));
    let bie_iters_cold = session
        .sim
        .vessel
        .is_some()
        .then_some(warm.stats.bie_iterations);
    for _ in 0..steps {
        let row = session.step().unwrap_or_else(|e| panic!("{name}: {e}"));
        if session.sim.vessel.is_some() {
            bie_iters.push(row.stats.bie_iterations);
        }
        col_contacts.push(row.stats.contacts);
        dt_retries.push(row.stats.dt_retries);
        timers.accumulate(&row.timers);
    }
    let ambient = session.sim.config.threads;
    let mut thread_curve = Vec::with_capacity(curve.len());
    for &nt in curve {
        session.sim.config.threads = nt;
        let row = session.step().unwrap_or_else(|e| panic!("{name}: {e}"));
        thread_curve.push((nt, row.timers.total()));
    }
    session.sim.config.threads = ambient;
    let r = CaseResult {
        name: label.to_string(),
        cells: session.sim.cells.len(),
        dofs: session.sim.dofs(),
        steps,
        timers,
        bie_iters_cold,
        bie_iters,
        col_contacts,
        dt_retries,
        threads: ambient,
        thread_curve,
    };
    let t = &r.timers;
    let n = steps as f64;
    println!(
        "{:<18} {:>3} cells {:>7} dofs  {:>2} steps  per-step: COL {:>7.3}s  BIE-solve {:>7.3}s  BIE-FMM {:>7.3}s  Other-FMM {:>7.3}s  Other {:>7.3}s  total {:>7.3}s  bie_iters cold {} warm {:?}  contacts {:?}",
        r.name, r.cells, r.dofs, r.steps,
        t.col / n, t.bie_solve / n, t.bie_fmm / n, t.other_fmm / n, t.other / n, t.total() / n,
        r.bie_iters_cold.map_or(0, |v| v),
        r.bie_iters,
        r.col_contacts,
    );
    if r.dt_retries.iter().any(|&v| v > 0) {
        println!("{:<18} dt retries per step: {:?}", "", r.dt_retries);
    }
    if !r.thread_curve.is_empty() {
        let pts: Vec<String> = r
            .thread_curve
            .iter()
            .map(|(nt, s)| format!("{nt}t {s:.3}s"))
            .collect();
        println!("{:<18} thread curve per step: {}", "", pts.join("  "));
    }
    r
}

/// Farm-throughput metrics for the `"farm"` row of `BENCH_step.json`.
struct FarmResult {
    jobs: usize,
    completed: usize,
    wall_s: f64,
    cache_hits: u64,
    cache_builds: u64,
}

/// Runs a small two-job farm (free-space pair + refined-wall vessel, the
/// `scenarios/farm_smoke.toml` sizes) through `driver::run_farm` over the
/// worker pool and records throughput plus shared-cache telemetry — the
/// hits-vs-cold-builds split is the farm's headline number: it measures
/// how much immutable state jobs actually share instead of rebuilding.
fn run_farm_case() -> FarmResult {
    let out_root = "target/bench-farm";
    std::fs::remove_dir_all(out_root).ok();
    let text = format!(
        "[farm]\njobs = [\"shear_a\", \"shear_b\", \"vessel_a\", \"vessel_b\"]\n\
         out_root = \"{out_root}\"\n\
         [shear_a]\nscenario = \"shear_pair\"\nsteps = 2\norder = 8\n\
         [shear_b]\nscenario = \"shear_pair\"\nsteps = 2\norder = 8\nshear_rate = 0.5\n\
         [vessel_a]\nscenario = \"vessel_flow\"\nsteps = 2\ntube_segments = 1\n\
         patch_order = 6\norder = 6\nbie_backend = \"fmm\"\nbie_qf = 6\nfill_h = 1.5\n\
         [vessel_b]\nscenario = \"vessel_flow\"\nsteps = 2\ntube_segments = 1\n\
         patch_order = 6\norder = 6\nbie_backend = \"fmm\"\nbie_qf = 6\nfill_h = 1.5\nseed = 7\n"
    );
    let manifest = Manifest::parse(&text).expect("bench farm manifest must parse");
    let report = driver::run_farm(
        &manifest,
        &FarmOptions {
            quiet: true,
            ..Default::default()
        },
    )
    .expect("bench farm must run");
    let r = FarmResult {
        jobs: manifest.jobs.len(),
        completed: report.completed(),
        wall_s: report.wall_s,
        cache_hits: report.cache.hits(),
        cache_builds: report.cache.builds(),
    };
    println!(
        "{:<18} {}/{} jobs in {:.3}s  shared-cache hits {} vs cold builds {}",
        "farm", r.completed, r.jobs, r.wall_s, r.cache_hits, r.cache_builds
    );
    std::fs::remove_dir_all(out_root).ok();
    r
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // the scaled-down scenario settings live in scenarios/step_bench.toml
    // (compiled in, so the bench and an interactive driver run of the same
    // config file can never drift apart)
    let cfg = Doc::parse(include_str!("../../../../scenarios/step_bench.toml"))
        .expect("scenarios/step_bench.toml must parse");

    // the full-step thread sweep (workers pinned via `SimConfig::threads`);
    // recorded per swept scenario so the scaling trajectory lives next to
    // the stage split it explains
    const CURVE: &[usize] = &[1, 2, 4, 8];

    let mut results = Vec::new();
    if quick {
        results.push(run_case("shear_pair", "shear_pair", &cfg, 2, &[]));
    } else {
        results.push(run_case("shear_pair", "shear_pair", &cfg, 5, &[]));
        results.push(run_case("sedimentation", "sedimentation", &cfg, 2, CURVE));
        results.push(run_case(
            "poiseuille_train",
            "poiseuille_train",
            &cfg,
            2,
            &[],
        ));
        // the high-hematocrit stress case: a ~40% volume-fraction rouleau
        // column in a snug tube, stepping under the adaptive-dt controller
        // (its dt_retries_per_step column is the point — retry activity at
        // paper-scale packing is the robustness trajectory this bench pins)
        results.push(run_case(
            "dense_fill_packed",
            "dense_fill_packed",
            &cfg,
            2,
            &[],
        ));
        results.push(run_case("vessel_flow", "vessel_flow", &cfg, 2, &[]));
        // the branched-network workload: a Y-bifurcation with flux-balanced
        // 3-port BCs (the N-port generalization of the tube's 2-port solve)
        // splitting a 2-cell train — tracks the junction blend's cost next
        // to the straight-tube rows
        results.push(run_case("bifurcation", "bifurcation", &cfg, 2, &[]));
        // the resolved-wall variant: 2 refinement levels multiply the
        // patch count 16×, the check spec tightens to the paper's
        // production values, and the Auto backend crosses over to the FMM
        // — the accuracy/cost point of the wall-resolution work (accuracy
        // itself is tracked by `tube_accuracy` and the bie test suite)
        // one measured step (after the shared warm-up): the refined solve
        // is ~an order of magnitude more work per step, and the warm-start
        // iteration shape is already visible from bie_iters_cold vs the
        // single warm count
        let mut refined = cfg.clone();
        refined.set("vessel_flow", "wall_refine", driver::Value::Int(2));
        results.push(run_case(
            "vessel_flow_refined",
            "vessel_flow",
            &refined,
            1,
            CURVE,
        ));
    }

    // hand-rolled JSON (no serde in the environment); host_cores records
    // the bench box's parallelism so flat thread curves measured on a
    // small host aren't mistaken for a scaling regression
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"simulation_step\",\n  \"host_cores\": {host_cores},\n  \"cases\": [\n"
    );
    for (i, r) in results.iter().enumerate() {
        let t = &r.timers;
        let n = r.steps as f64;
        let iters: Vec<String> = r.bie_iters.iter().map(|v| v.to_string()).collect();
        let contacts: Vec<String> = r.col_contacts.iter().map(|v| v.to_string()).collect();
        let retries: Vec<String> = r.dt_retries.iter().map(|v| v.to_string()).collect();
        let cold = r
            .bie_iters_cold
            .map_or("null".to_string(), |v| v.to_string());
        let curve: Vec<String> = r
            .thread_curve
            .iter()
            .map(|(nt, s)| format!("{{\"threads\": {nt}, \"total_s\": {s:.6}}}"))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"cells\": {}, \"dofs\": {}, \"steps\": {}, \"threads\": {}, \"bie_iters_cold\": {}, \"bie_iters_per_step\": [{}], \"col_contacts_per_step\": [{}], \"dt_retries_per_step\": [{}], \"thread_curve\": [{}], \"per_step_s\": {{\"col\": {:.6}, \"bie_solve\": {:.6}, \"bie_fmm\": {:.6}, \"other_fmm\": {:.6}, \"other\": {:.6}, \"total\": {:.6}}}}}{}",
            r.name,
            r.cells,
            r.dofs,
            r.steps,
            r.threads,
            cold,
            iters.join(", "),
            contacts.join(", "),
            retries.join(", "),
            curve.join(", "),
            t.col / n,
            t.bie_solve / n,
            t.bie_fmm / n,
            t.other_fmm / n,
            t.other / n,
            t.total() / n,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]");
    if !quick {
        // farm throughput rides in the same trajectory file: jobs
        // completed over the worker pool, wall time, and the shared-cache
        // hit/cold-build split across jobs
        let f = run_farm_case();
        let _ = write!(
            json,
            ",\n  \"farm\": {{\"jobs\": {}, \"completed\": {}, \"wall_s\": {:.3}, \"shared_cache_hits\": {}, \"cold_builds\": {}}}",
            f.jobs, f.completed, f.wall_s, f.cache_hits, f.cache_builds
        );
    }
    json.push_str("\n}\n");
    let path = if quick {
        "BENCH_step_quick.json"
    } else {
        "BENCH_step.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
