//! Physiology-trajectory bench: sweeps the tube-diameter ladder
//! (`vessel_ladder` at fixed flux, one rung per tube radius) and the
//! `bifurcation` branch split, recording the paper's three physiology
//! observables — relative apparent viscosity, cell-free-layer width, and
//! per-branch hematocrit split — into a machine-readable
//! `BENCH_physiology.json`, so the Fåhræus–Lindqvist trajectory is
//! tracked across PRs alongside the perf files.
//!
//! Scenario settings mirror `scenarios/physiology.toml` (sphere cells at
//! smoke resolution — see the TOML's note on the biconcave relaxation
//! transient). The regression *pins* on these observables live in
//! `driver/tests/network.rs`; this bench records the curves themselves,
//! which need longer horizons than a test should spend.
//!
//! Usage: `cargo run --release -p bench --bin physiology [--quick]`
//! (`--quick` runs one rung and one bifurcation step only and writes
//! `BENCH_physiology_quick.json` so smoke runs never clobber the
//! trajectory.)

use driver::{Doc, PhysioRow, PhysioSink, Session, StepSink, Value};
use linalg::Vec3;
use std::fmt::Write as _;

/// One ladder rung (or the bifurcation case): the per-step physiology
/// rows plus the per-step net port flux imbalance from `StepStats`.
struct CaseResult {
    cells: usize,
    dofs: usize,
    rows: Vec<PhysioRow>,
    flux_imbalance: Vec<f64>,
}

/// Steps scenario `name` through a [`PhysioSink`] (junction point enables
/// the branch split) and collects the rows.
fn run_case(name: &str, cfg: &Doc, steps: usize, junction: Option<Vec3>) -> CaseResult {
    let mut session = Session::build(name, cfg).unwrap_or_else(|e| panic!("build {name}: {e}"));
    let mut sink = PhysioSink::new(junction, 16);
    sink.on_start(&session.sim)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut flux_imbalance = Vec::with_capacity(steps);
    for _ in 0..steps {
        let row = session.step().unwrap_or_else(|e| panic!("{name}: {e}"));
        flux_imbalance.push(row.stats.flux_imbalance);
        sink.on_step(&session.sim, &row)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    CaseResult {
        cells: session.sim.cells.len(),
        dofs: session.sim.dofs(),
        rows: sink.rows,
        flux_imbalance,
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |x| format!("{x:.6e}"))
}

fn opt_list(vals: impl Iterator<Item = Option<f64>>) -> String {
    vals.map(opt).collect::<Vec<_>>().join(", ")
}

fn list(vals: &[f64]) -> String {
    vals.iter()
        .map(|v| format!("{v:.6e}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // scaled-down scenario settings live in scenarios/physiology.toml
    // (compiled in, so the bench and an interactive driver run of the
    // same config file can never drift apart)
    let cfg = Doc::parse(include_str!("../../../../scenarios/physiology.toml"))
        .expect("scenarios/physiology.toml must parse");

    let (radii, ladder_steps, bif_steps): (&[f64], usize, usize) = if quick {
        (&[0.9], 2, 1)
    } else {
        (&[0.7, 0.9, 1.1, 1.3], 4, 2)
    };

    let mut rungs = Vec::new();
    for &radius in radii {
        let mut c = cfg.clone();
        c.set("vessel_ladder", "tube_radius", Value::Float(radius));
        let r = run_case("vessel_ladder", &c, ladder_steps, None);
        let last = r.rows.last().expect("at least one step");
        println!(
            "ladder R={radius:.2}  {} cells {:>6} dofs  μ_app/μ {:?}  CFL {:?}",
            r.cells, r.dofs, last.apparent_viscosity, last.cell_free_layer,
        );
        rungs.push((radius, r));
    }

    let bif = run_case("bifurcation", &cfg, bif_steps, Some(Vec3::ZERO));
    let bif_split = bif.rows.last().and_then(|r| r.split.clone());
    println!(
        "bifurcation  {} cells {:>6} dofs  flux split {:?}  hematocrit split {:?}  max |imbalance| {:.3e}",
        bif.cells,
        bif.dofs,
        bif_split.as_ref().map(|s| s.flux_frac.clone()),
        bif_split.as_ref().map(|s| s.hematocrit_frac.clone()),
        bif.flux_imbalance.iter().cloned().fold(0.0, f64::max),
    );

    // hand-rolled JSON (no serde in the environment); host_cores records
    // the bench box for parity with the other trajectory files
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"physiology\",\n  \"host_cores\": {host_cores},\n  \"ladder\": [\n"
    );
    for (i, (radius, r)) in rungs.iter().enumerate() {
        let last = r.rows.last().expect("at least one step");
        let _ = writeln!(
            json,
            "    {{\"tube_radius\": {radius}, \"cells\": {}, \"dofs\": {}, \"steps\": {}, \"apparent_viscosity\": {}, \"cell_free_layer\": {}, \"drag_power_per_step\": [{}], \"apparent_viscosity_per_step\": [{}], \"cell_free_layer_per_step\": [{}]}}{}",
            r.cells,
            r.dofs,
            r.rows.len(),
            opt(last.apparent_viscosity),
            opt(last.cell_free_layer),
            opt_list(r.rows.iter().map(|row| row.drag_power)),
            opt_list(r.rows.iter().map(|row| row.apparent_viscosity)),
            opt_list(r.rows.iter().map(|row| row.cell_free_layer)),
            if i + 1 < rungs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let (hema, flux, assigned, total) = match &bif_split {
        Some(s) => (
            list(&s.hematocrit_frac),
            list(&s.flux_frac),
            s.assigned_cells.to_string(),
            s.total_cells.to_string(),
        ),
        None => (String::new(), String::new(), "null".into(), "null".into()),
    };
    let _ = write!(
        json,
        "  \"bifurcation\": {{\"cells\": {}, \"dofs\": {}, \"steps\": {}, \"flux_split\": [{flux}], \"hematocrit_split\": [{hema}], \"assigned_cells\": {assigned}, \"total_cells\": {total}, \"flux_imbalance_per_step\": [{}]}}\n}}\n",
        bif.cells,
        bif.dofs,
        bif.rows.len(),
        list(&bif.flux_imbalance),
    );
    let path = if quick {
        "BENCH_physiology_quick.json"
    } else {
        "BENCH_physiology.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}
