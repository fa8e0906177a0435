//! Layer probes of a traced run: each layer's public functions called on
//! the workload's own state, timed from outside (median of `REPS`), each
//! group inside its own span.
//!
//! Every probe emits all of its metrics on every workload; a layer the
//! workload does not have (no vessel in free space) reports 0. FMM probes
//! run at order 4 — the order the refined-wall matvec uses — whatever the
//! workload's own setting, so no probe pays the multi-second cold build of
//! a higher-order operator table.

use crate::check::exceeds;
use crate::run::{Outcome, Values};
use crate::trace::{median, timed_median, Tracer};
use collision::{
    detect_contacts, resolve_contacts, triangulate_latlon, DetectOptions, IdentityMobility,
    NcpOptions, TriMesh,
};
use driver::Session;
use fmm::{Fmm, FmmOptions};
use kernels::{direct_eval, Kernel, StokesDL, StokesEquiv, StokesSL};
use linalg::{gemm_acc, Vec3};
use octree::{Octree, TreeOptions};
use sim::{Checkpoint, Simulation};
use sphharm::Deriv;
use std::path::Path;
use std::time::Instant;
use vesicle::{implicit_step, StepOptions};

const REPS: usize = 3;
/// Cells the per-cell probes visit.
const PROBE_CELLS: usize = 3;
/// The order-4 FMM-vs-dense operator bound pinned in `crates/bie/tests/tube.rs`.
const FMM_REL_ERR_BOUND: f64 = 3e-2;
/// Targets of the direct-sum check behind `fmm.rel_err`.
const REL_ERR_TARGETS: usize = 256;

/// Seconds per call of `f`, repeated `inner` times per sample so that a
/// microsecond-scale call is timed over a measurable interval.
fn per_call(inner: usize, mut f: impl FnMut()) -> f64 {
    timed_median(REPS, || (0..inner).for_each(|_| f())).1 / inner as f64
}

pub fn run(session: &mut Session, tracer: &mut Tracer, out_dir: &Path, out: &mut Outcome) {
    let threads = session.sim.config.threads;
    let mut body = || {
        let m = &mut out.metrics;
        tracer.span("probe vesicle", |_| vesicle_probe(&session.sim, m));
        tracer.span("probe sphharm", |_| sphharm_probe(&session.sim, m));
        tracer.span("probe collision", |_| collision_probe(&session.sim, m));
        tracer.span("probe kernels", |_| kernels_probe(&session.sim, m));
        tracer.span("probe linalg", |_| linalg_probe(&session.sim, m));
        if let Some(e) = tracer.span("probe octree+fmm", |_| fmm_probe(&session.sim, m)) {
            out.failed += 1;
            out.failures.push(e);
        }
        tracer.span("probe patch", |_| patch_probe(&session.sim, m));
        tracer.span("probe bie", |_| bie_probe(&session.sim, m));
    };
    // the layer calls below open parallel regions of their own: pin them to
    // the worker count the workload's steps run with
    if threads > 0 {
        rayon::par::with_override(threads, &mut body);
    } else {
        body();
    }
    if let Err(e) = tracer.span("probe checkpoint", |_| {
        checkpoint_probe(session, out_dir, &mut out.metrics)
    }) {
        out.failed += 1;
        out.failures.push(format!("checkpoint probe: {e}"));
    }
    // last: these steps move the state on
    tracer.span("probe threads", |t| {
        thread_probe(session, t, &mut out.metrics)
    });
}

/// Every cell's quadrature points, cell-major.
fn cell_points(sim: &Simulation) -> Vec<Vec3> {
    sim.cells
        .iter()
        .flat_map(|c| c.positions(&sim.basis))
        .collect()
}

fn vesicle_probe(sim: &Simulation, m: &mut Values) {
    let basis = &sim.basis;
    let n = basis.grid_size();
    let (mut build, mut apply, mut force, mut step, mut iters) =
        (vec![], vec![], vec![], vec![], vec![]);
    for cell in sim.cells.iter().take(PROBE_CELLS) {
        let geo = cell.geometry(basis);
        let (selfop, t) = timed_median(REPS, || cell.self_interaction(basis));
        build.push(t);
        let (f, t) = timed_median(REPS, || cell.membrane_force(basis, &geo));
        force.push(t);
        let flat: Vec<f64> = f.iter().flat_map(|v| v.to_array()).collect();
        apply.push(timed_median(REPS, || selfop.apply(&flat)).1);
        let opts = StepOptions {
            dt: sim.config.dt,
            ..sim.config.step
        };
        let ((_, res), t) = timed_median(REPS, || {
            implicit_step(basis, cell, &selfop, &vec![Vec3::ZERO; n], &opts)
        });
        step.push(t);
        iters.push(res.iterations as f64);
    }
    let mid = |v: &[f64]| median(v).unwrap_or(0.0);
    m.put("vesicle.selfop_build_s", mid(&build));
    m.put("vesicle.selfop_apply_s", mid(&apply));
    m.put("vesicle.force_s", mid(&force));
    m.put("vesicle.implicit_step_s", mid(&step));
    m.put("vesicle.implicit_gmres_iters", mid(&iters));
}

fn sphharm_probe(sim: &Simulation, m: &mut Values) {
    let Some(cell) = sim.cells.first() else {
        m.put("sphharm.analyze_s", 0.0);
        m.put("sphharm.synthesize_s", 0.0);
        return;
    };
    let field: Vec<f64> = cell
        .positions(&sim.basis)
        .iter()
        .flat_map(|v| v.to_array())
        .collect();
    let coeffs = sim.basis.analyze_vec3(&field);
    m.put(
        "sphharm.analyze_s",
        per_call(20, || {
            drop(std::hint::black_box(sim.basis.analyze_vec3(&field)))
        }),
    );
    m.put(
        "sphharm.synthesize_s",
        per_call(20, || {
            drop(std::hint::black_box(
                sim.basis.synthesize(&coeffs[0], Deriv::None),
            ))
        }),
    );
}

/// Contact detection and resolution on the cells' collision meshes, with
/// the end-of-step positions pulled 2 % toward the suspension's centroid so
/// that neighbours interfere.
fn collision_probe(sim: &Simulation, m: &mut Values) {
    let mut meshes: Vec<TriMesh> = Vec::new();
    let mut start: Vec<Vec<Vec3>> = Vec::new();
    for cell in &sim.cells {
        let (mut pts, nlat, nlon, north, south) =
            cell.collision_points(&sim.basis, sim.config.col_upsample);
        meshes.push(triangulate_latlon(&pts, nlat, nlon, north, south));
        pts.extend([north, south]);
        start.push(pts);
    }
    let count = start.iter().map(Vec::len).sum::<usize>().max(1);
    let centroid = start.iter().flatten().fold(Vec3::ZERO, |a, &p| a + p) / count as f64;
    let end: Vec<Vec<Vec3>> = start
        .iter()
        .map(|s| {
            s.iter()
                .map(|&p| centroid + (p - centroid) * 0.98)
                .collect()
        })
        .collect();
    let end_meshes: Vec<TriMesh> = meshes
        .iter()
        .zip(&end)
        .map(|(mesh, e)| mesh.with_positions(e.clone()))
        .collect();
    let obj_of: Vec<u32> = (0..meshes.len() as u32).collect();
    let detect = DetectOptions::new(sim.config.collision_delta);
    m.put(
        "collision.detect_s",
        timed_median(REPS, || {
            detect_contacts(&end_meshes, Some(&start), &obj_of, detect)
        })
        .1,
    );
    let mobility = IdentityMobility {
        scale: 1.0,
        rigid: vec![false; meshes.len()],
    };
    let opts = NcpOptions {
        detect,
        max_outer: 10,
        ..Default::default()
    };
    m.put(
        "collision.resolve_s",
        timed_median(REPS, || {
            resolve_contacts(&meshes, &mut end.clone(), &start, &obj_of, &mobility, &opts)
        })
        .1,
    );
}

fn kernels_probe(sim: &Simulation, m: &mut Values) {
    let pts = cell_points(sim);
    let pairs = (pts.len() * pts.len()).max(1);
    let inner = (20_000_000 / pairs).clamp(1, 200);
    let rate = |kernel: &dyn Fn(&[f64], &mut [f64]), src_dim: usize| {
        // smooth, non-trivial source data; DL carries (density, normal)
        let data: Vec<f64> = (0..pts.len() * src_dim)
            .map(|i| (0.37 * i as f64).sin())
            .collect();
        let mut out = vec![0.0; pts.len() * 3];
        pairs as f64 / per_call(inner, || kernel(&data, &mut out))
    };
    let mu = sim.cells.first().map_or(1.0, |c| c.params.mu);
    m.put(
        "kernels.stokes_sl_pairs_per_s",
        rate(&|d, o| direct_eval(&StokesSL { mu }, &pts, d, &pts, o), 3),
    );
    m.put(
        "kernels.stokes_dl_pairs_per_s",
        rate(&|d, o| direct_eval(&StokesDL, &pts, d, &pts, o), 6),
    );
}

/// `gemm_acc` at the two shapes the step spends its GEMM time in: a batched
/// M2L block (64 gathered order-4 equivalent densities × one translation
/// operator) and a cell's self-interaction applied to 16 contact columns.
fn linalg_probe(sim: &Simulation, m: &mut Values) {
    let eq = fmm::surface_point_count(4);
    let dofs = 3 * sim.basis.grid_size();
    let (mut flops, mut secs) = (0.0, 0.0);
    for (rows, cols, inner_dim) in [(64, 3 * eq, 4 * eq), (dofs, 16, dofs)] {
        let a: Vec<f64> = (0..rows * inner_dim)
            .map(|i| (0.11 * i as f64).cos())
            .collect();
        let b: Vec<f64> = (0..inner_dim * cols)
            .map(|i| (0.07 * i as f64).sin())
            .collect();
        let mut c = vec![0.0; rows * cols];
        let work = 2.0 * (rows * cols * inner_dim) as f64;
        let inner = ((2e8 / work) as usize).clamp(1, 1000);
        secs += per_call(inner, || {
            gemm_acc(rows, cols, inner_dim, 1.0, &a, &b, &mut c)
        });
        flops += work;
    }
    m.put("linalg.gemm_gflops", flops / secs * 1e-9);
}

/// Tree and FMM on the workload's own clouds: the wall's fine quadrature
/// points as double-layer sources and the cell points as targets when there
/// is a vessel, the cell points as single-layer sources and targets in free
/// space. Returns the correctness violation, if any.
fn fmm_probe(sim: &Simulation, m: &mut Values) -> Option<String> {
    let trg = cell_points(sim);
    let mu = sim.cells.first().map_or(1.0, |c| c.params.mu);
    let eq = StokesEquiv { mu };
    match &sim.vessel {
        Some(v) => {
            let fine = &v.solver.fine;
            let data: Vec<f64> = (0..fine.points.len())
                .flat_map(|i| {
                    let (p, n, w) = (fine.points[i], fine.normals[i], fine.weights[i]);
                    [w * p.x.sin(), w * p.y.cos(), w, n.x, n.y, n.z]
                })
                .collect();
            fmm_cloud(StokesDL, eq, &fine.points, &data, &trg, m)
        }
        None => {
            let data: Vec<f64> = (0..trg.len() * 3)
                .map(|i| (0.37 * i as f64).sin())
                .collect();
            fmm_cloud(StokesSL { mu }, eq, &trg, &data, &trg, m)
        }
    }
}

fn fmm_cloud<K: Kernel + Clone>(
    kernel: K,
    eq: StokesEquiv,
    src: &[Vec3],
    data: &[f64],
    trg: &[Vec3],
    m: &mut Values,
) -> Option<String> {
    let opts = FmmOptions {
        order: 4,
        ..Default::default()
    };
    let tree_opts = TreeOptions {
        leaf_capacity: opts.leaf_capacity,
        max_depth: opts.max_depth,
    };
    m.put(
        "octree.build_s",
        timed_median(REPS, || Octree::build(src, trg, tree_opts)).1,
    );
    // the first construction loads the operator table into the shared cache
    let _ = Fmm::new(kernel.clone(), eq, src, trg, opts);
    let (fmm, build_s) = timed_median(REPS, || Fmm::new(kernel.clone(), eq, src, trg, opts));
    m.put("fmm.build_s", build_s);
    let (values, evaluate_s) = timed_median(REPS, || fmm.evaluate(data));
    m.put("fmm.evaluate_s", evaluate_s);
    let (mut frozen, frozen_s) =
        timed_median(REPS, || Fmm::frozen(kernel.clone(), eq, src, &[], opts));
    m.put("fmm.frozen_build_s", frozen_s);
    m.put(
        "fmm.set_targets_s",
        timed_median(REPS, || frozen.set_targets(trg)).1,
    );
    m.put(
        "fmm.points_per_s",
        (src.len() + trg.len()) as f64 / evaluate_s,
    );

    let nt = trg.len().min(REL_ERR_TARGETS);
    let mut exact = vec![0.0; nt * 3];
    direct_eval(&kernel, src, data, &trg[..nt], &mut exact);
    let diff: f64 = exact
        .iter()
        .zip(&values)
        .map(|(e, v)| (e - v) * (e - v))
        .sum();
    let norm: f64 = exact.iter().map(|e| e * e).sum();
    let rel_err = (diff / norm).sqrt();
    m.put("fmm.rel_err", rel_err);
    exceeds(rel_err, FMM_REL_ERR_BOUND).then(|| {
        format!(
            "fmm.rel_err {rel_err:.3e} exceeds the order-4 operator bound {FMM_REL_ERR_BOUND:.0e}"
        )
    })
}

fn patch_probe(sim: &Simulation, m: &mut Values) {
    let (refine_s, quadrature_s) = sim.vessel.as_ref().map_or((0.0, 0.0), |v| {
        let surface = &v.solver.surface;
        (
            timed_median(REPS, || surface.refine(1)).1,
            timed_median(REPS, || surface.quadrature()).1,
        )
    });
    m.put("patch.refine_s", refine_s);
    m.put("patch.quadrature_s", quadrature_s);
}

/// The boundary solver's three public entry points on the current wall
/// data: one matvec, one warm-started solve (a single repetition: it is the
/// most expensive probe), one evaluation at the cell points.
fn bie_probe(sim: &Simulation, m: &mut Values) {
    let Some(v) = &sim.vessel else {
        for name in [
            "bie.matvec_s",
            "bie.matvec_fmm_share",
            "bie.solve_s",
            "bie.eval_at_s",
            "bie.dofs",
        ] {
            m.put(name, 0.0);
        }
        return;
    };
    let solver = &v.solver;
    let phi = sim.bie_warm.clone().unwrap_or_else(|| v.bc.clone());
    let mut applied = vec![0.0; solver.dim()];
    solver.take_fmm_nanos();
    let t0 = Instant::now();
    let matvec_s = timed_median(REPS, || solver.apply(&phi, &mut applied)).1;
    let total = t0.elapsed().as_secs_f64();
    m.put("bie.matvec_s", matvec_s);
    m.put("bie.matvec_fmm_share", solver.take_fmm_nanos() / total);
    m.put(
        "bie.solve_s",
        timed_median(1, || solver.solve_warm(&v.bc, Some(&phi))).1,
    );
    let targets = cell_points(sim);
    m.put(
        "bie.eval_at_s",
        timed_median(REPS, || solver.eval_at(&phi, &targets)).1,
    );
    m.put("bie.dofs", solver.dim() as f64);
    // leave the step's own accounting as the probes found it
    solver.take_fmm_nanos();
    solver.take_eval_fmm_counters();
}

/// What the farm's checkpoint sink and resume path do per step and per job:
/// `Checkpoint::write` to disk, then `Checkpoint::load` + restore.
fn checkpoint_probe(session: &mut Session, out_dir: &Path, m: &mut Values) -> Result<(), String> {
    let path = out_dir.join(format!(
        "probe-{}-pid{}.ckpt",
        session.scenario,
        std::process::id()
    ));
    let scenario = session.scenario.clone();
    let (written, write_s) =
        timed_median(REPS, || Checkpoint::write(&session.sim, &scenario, &path));
    written.map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let (restored, restore_s) = timed_median(REPS, || {
        Checkpoint::load(&path)
            .map_err(|e| e.to_string())
            .and_then(|c| session.restore(&c))
    });
    let _ = std::fs::remove_file(&path);
    restored?;
    m.put("sim.checkpoint_bytes", bytes as f64);
    m.put("sim.checkpoint_write_s", write_s);
    m.put("sim.checkpoint_restore_s", restore_s);
    Ok(())
}

/// Two more steps on one worker against two more on two: the only thread
/// scaling point a two-core host has. 0 when the host has a single core.
fn thread_probe(session: &mut Session, tracer: &mut Tracer, m: &mut Values) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let configured = session.sim.config.threads;
    let mut two_steps = |threads: usize, tracer: &mut Tracer| {
        session.sim.config.threads = threads;
        tracer.span(&format!("Session::step x2 (threads = {threads})"), |_| {
            let t0 = Instant::now();
            let ok = (0..2).all(|_| session.step().is_ok());
            ok.then(|| t0.elapsed().as_secs_f64())
        })
    };
    let speedup = if cores < 2 {
        None
    } else {
        two_steps(1, tracer)
            .zip(two_steps(2, tracer))
            .map(|(one, two)| one / two)
    };
    session.sim.config.threads = configured;
    m.put("sim.par_speedup_2t", speedup.unwrap_or(0.0));
}
