//! The time-step orchestration of §2.2: explicit inter-cell and boundary
//! contributions, the boundary solve, the locally-implicit per-cell update,
//! and contact resolution — with wall-time split into the component
//! categories of Figs. 4–6.

use crate::domain::{Port, Vessel};
use crate::timers::{timed, StepTimers};
use collision::{
    resolve_contacts, triangulate_latlon, DetectOptions, Mobility, NcpOptions, TriMesh,
};
use fmm::fmm_evaluate;
use kernels::{direct_eval_serial, StokesEquiv, StokesSL};
use linalg::{Mat, Vec3};
use sphharm::SphBasis;
use vesicle::{
    implicit_step, step_health, upsample_matrix_t, Cell, CellHealth, SelfInteraction, StepOptions,
    SurfaceGeometry,
};

/// The backoff floor as a divisor of the target Δt: four halvings, after
/// which a step freezes the cells that still violate the health bounds.
const BACKOFF_FLOOR_DIVISOR: f64 = 16.0;

/// Adaptive time-step controls: the per-cell blow-up gate and the
/// deterministic retry/backoff policy [`Simulation::step`] runs behind.
///
/// The controller is a pure function of simulation state — every decision
/// (accept, retry at Δt/2, freeze at the Δt/16 floor, recover toward the target
/// Δt) depends only on the cells, the config, and [`DtState`], all of
/// which the checkpoint serializes — so two instances and a restarted run
/// take bit-identical retry sequences.
#[derive(Clone, Copy, Debug)]
pub struct DtControl {
    /// Master switch. `false` restores the pre-adaptive behavior: one
    /// attempt per step at the configured Δt, committed regardless of
    /// health (the health metrics are still computed and reported).
    pub enabled: bool,
    /// Consecutive clean steps (no retries, no frozen cells) before the
    /// controller doubles Δt back toward the target.
    pub grow_after: usize,
    /// Health bound on [`CellHealth::max_stretch`] (linear stretch of the
    /// surface element vs the rest configuration).
    pub max_stretch: f64,
    /// Health bound on [`CellHealth::volume_drift`] (relative enclosed
    /// volume change per attempted step).
    pub max_volume_drift: f64,
}

impl Default for DtControl {
    fn default() -> Self {
        DtControl {
            enabled: true,
            grow_after: 4,
            max_stretch: 10.0,
            max_volume_drift: 0.25,
        }
    }
}

/// The adaptive controller's evolving state. Part of the trajectory —
/// a restarted run must resume with the same current Δt and clean-step
/// counter to reproduce the original retry sequence bit-identically, so
/// [`crate::Checkpoint`] (format v4) serializes it.
#[derive(Clone, Debug, Default)]
pub struct DtState {
    /// Current controller Δt (`0` = uninitialized, meaning the target Δt).
    pub dt: f64,
    /// Consecutive clean steps since the last retry/freeze/recovery.
    pub clean_steps: usize,
    /// Per-cell freeze flags from the last step's backoff-floor fallback:
    /// `true` means that cell's implicit update was skipped (its pre-step
    /// positions were kept through the implicit stage) because it still
    /// violated the health bounds at Δt/16.
    pub frozen: Vec<bool>,
}

/// Simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Time-step size.
    pub dt: f64,
    /// Collision threshold δ (minimal surface separation).
    pub collision_delta: f64,
    /// Collision-mesh upsampling factor for cells (paper: 2).
    pub col_upsample: usize,
    /// Background shear rate γ̇ for free-space runs (`u = [γ̇ z, 0, 0]`).
    pub shear_rate: f64,
    /// Body-force density (e.g. gravity for sedimentation, Fig. 7).
    pub gravity: Vec3,
    /// Use FMM for cell–cell interaction above this many point pairs.
    pub fmm_pair_threshold: f64,
    /// FMM options for cell–cell far field.
    pub fmm: fmm::FmmOptions,
    /// Per-cell implicit solve options.
    pub step: StepOptions,
    /// Adaptive time-step controls (blow-up gate + retry/backoff policy).
    pub dt_control: DtControl,
    /// Worker threads for the parallel stages of [`Simulation::step`].
    /// `0` (the default) inherits the ambient pool size (available
    /// parallelism, or an enclosing `rayon` pool override); any other
    /// value pins the step to exactly that many workers. Every parallel
    /// stage commits results in a fixed index order, so trajectories are
    /// bit-identical at any thread count — this knob only trades wall
    /// time. It is an execution detail, not trajectory state: checkpoints
    /// neither store nor restore it.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt: 1e-3,
            collision_delta: 5e-2,
            col_upsample: 2,
            shear_rate: 0.0,
            gravity: Vec3::ZERO,
            fmm_pair_threshold: 4.0e8,
            fmm: fmm::FmmOptions::default(),
            step: StepOptions::default(),
            dt_control: DtControl::default(),
            threads: 0,
        }
    }
}

/// Per-step diagnostics (the rows of the scaling tables).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// GMRES iterations of the boundary solve.
    pub bie_iterations: usize,
    /// Whether the boundary solve reached its tolerance (`false` when it
    /// exited on the stagnation check or the iteration cap; `false` for
    /// free-space steps, where no solve runs).
    pub bie_converged: bool,
    /// Relative residual the boundary solve stopped at (0 for free-space
    /// steps) — together with [`StepStats::bie_converged`] this separates
    /// "converged", "stalled near the quadrature floor", and "stalled
    /// against a polluted operator".
    pub bie_residual: f64,
    /// Number of active contacts at detection.
    pub contacts: usize,
    /// NCP outer iterations.
    pub ncp_iters: usize,
    /// Whether contact resolution reached a contact-free state.
    pub contact_free: bool,
    /// Time actually advanced by this step: the (possibly backed-off)
    /// controller Δt.
    pub dt_effective: f64,
    /// Failed (dropped) attempts before this step was accepted (0 = clean).
    pub dt_retries: usize,
    /// Largest per-cell [`CellHealth::max_stretch`] of the accepted
    /// attempt — bounded by `DtControl::max_stretch` whenever the
    /// controller is enabled and no cell had to be frozen.
    pub max_edge_stretch: f64,
    /// Cells whose implicit update was frozen this step because they still
    /// violated the health bounds at Δt/16 (graceful degradation: the
    /// run stays alive and finite instead of emitting NaNs).
    pub frozen_cells: usize,
    /// Persistent wall-FMM plans *built* during this step's boundary
    /// evaluations. Healthy steady state is 0: the frozen source tree is
    /// reused across steps, so only the first vessel step pays a build.
    pub wall_fmm_builds: usize,
    /// Target-only replans of the persistent wall FMM during this step
    /// (one per `eval_at` call on the FMM backend; 0 on the dense path).
    pub wall_fmm_replans: usize,
    /// Net flux of the vessel boundary condition through the surface
    /// ([`Vessel::port_flux_imbalance`]) at the step's boundary solve —
    /// machine-epsilon-sized for a well-posed port manifest, 0 for
    /// free-space steps. Asserted over a run by
    /// `sim-driver --assert 'max(flux_imbalance) <= …'`.
    pub flux_imbalance: f64,
}

/// The simulation state: cells in an optional vessel.
pub struct Simulation {
    /// Spherical-harmonic basis shared by all cells.
    pub basis: SphBasis,
    /// The cells.
    pub cells: Vec<Cell>,
    /// Optional confining vessel.
    pub vessel: Option<Vessel>,
    /// Configuration.
    pub config: SimConfig,
    /// Accumulated component timers.
    pub timers: StepTimers,
    /// Steps taken.
    pub steps: usize,
    /// Last step's diagnostics.
    pub last_stats: StepStats,
    /// Boundary density of the previous step's BIE solve, used to
    /// warm-start the next solve (`None` before the first vessel step).
    /// Part of the evolving trajectory state: it is serialized by
    /// [`crate::Checkpoint`] so restarts stay bit-identical.
    pub bie_warm: Option<Vec<f64>>,
    /// `A·bie_warm`, the image the solve that produced `bie_warm` left
    /// (GMRES's Arnoldi update, not a fresh apply): handed back to the next
    /// solve so it applies the wall operator only for its iterations.
    /// Serialized with `bie_warm` (checkpoint v6) so restarts stay
    /// bit-identical. Whoever writes `bie_warm` writes this too, `None` if
    /// the image is unknown: the next solve then applies `A` itself.
    pub bie_warm_image: Option<Vec<f64>>,
    /// Adaptive time-step controller state (current Δt, clean-step
    /// counter, per-cell freeze flags). Evolving trajectory state,
    /// serialized by [`crate::Checkpoint`] (format v4).
    pub dt_state: DtState,
    /// Per-cell health metrics of the last accepted step (empty before the
    /// first step) — the per-cell detail behind
    /// [`StepStats::max_edge_stretch`], for diagnostics that need to name
    /// the offending cell.
    pub last_health: Vec<CellHealth>,
    /// The previous step's per-cell self-interaction operators: derived
    /// state, like the wall FMM plan. [`Simulation::prepare`] re-assembles
    /// each cell's operator into its existing buffer, so it never holds more
    /// than one operator per cell. Not serialized — the first step
    /// after a restore rebuilds every entry from the cells.
    selfops: Vec<SelfInteraction>,
}

/// The part of a step that depends on the pre-step state alone, not on Δt
/// or the frozen set: built once by [`Simulation::prepare`], read by every
/// [`Simulation::advance`] call of that step.
struct Background {
    geos: Vec<SurfaceGeometry>,
    selfops: Vec<SelfInteraction>,
    /// Explicit velocity at each cell's points: inter-cell sum, `u_Γ`,
    /// gravity self-mobility and background shear.
    b_cells: Vec<Vec<Vec3>>,
    /// The boundary-solve half of [`StepStats`] (everything stage 3 fills in).
    stats: StepStats,
}

/// One passed, uncommitted [`Simulation::advance`] call: everything
/// `Simulation::step` needs to either commit (positions, minus reverted
/// frozen cells) or report (stats, per-cell health).
struct Attempt {
    stats: StepStats,
    health: Vec<CellHealth>,
    new_positions: Vec<Vec<Vec3>>,
    /// Frozen cells whose post-collision positions went non-finite: their
    /// committed state is the pre-step state (position update discarded).
    reverts: Vec<bool>,
}

struct CellMobility<'a> {
    selfops: &'a [SelfInteraction],
    /// Transposed collision-grid upsampling matrix `Uᵀ` (coarse × fine).
    up_t: &'a Mat,
    dt: f64,
    n_cells: usize,
    n_coarse: usize,
    n_fine_grid: usize,
}

impl Mobility for CellMobility<'_> {
    fn is_rigid(&self, mesh: u32) -> bool {
        // meshes are ordered: cells first, vessel patches after
        mesh as usize >= self.n_cells
    }
    /// The batched path the NCP assembly drives: all contact-force columns
    /// touching one cell are packed into matrices so the two dense stages
    /// — the self-interaction velocity response and the Δt·U displacement
    /// prolongation — each run as one GEMM per linearization instead of
    /// one matvec chain per contact. A column's result does not depend on
    /// its batch-mates (pinned bitwise in this module's tests).
    fn apply_many(&self, mesh: u32, forces: &[&[(u32, Vec3)]], nverts: usize) -> Vec<Vec<Vec3>> {
        let mi = mesh as usize;
        let k = forces.len();
        if mi >= self.n_cells || k == 0 {
            return vec![vec![Vec3::ZERO; nverts]; k];
        }
        let nf = self.n_fine_grid;
        let nc = self.n_coarse;
        // fine-vertex forces → coarse generalized forces via Uᵀ, one
        // column per contact (pole vertices, beyond the fine grid, are
        // dropped). The force lists are sparse, so this stage stays a
        // scatter rather than a GEMM.
        let mut coarse_f = Mat::zeros(3 * nc, k);
        for (col, force) in forces.iter().enumerate() {
            for &(v, f) in *force {
                let v = v as usize;
                if v >= nf {
                    continue;
                }
                for j in 0..nc {
                    let u = self.up_t[(j, v)];
                    if u != 0.0 {
                        coarse_f[(3 * j, col)] += u * f.x;
                        coarse_f[(3 * j + 1, col)] += u * f.y;
                        coarse_f[(3 * j + 2, col)] += u * f.z;
                    }
                }
            }
        }
        // velocity response through the cell's singular self-interaction
        let vel = self.selfops[mi].apply_many(&coarse_f);
        // displacement at fine vertices: Δt · U · v as vᵀ · Uᵀ, one GEMM row
        // per (component, column) — row c·K + col — so the inner loops run
        // along the fine grid however few columns there are
        let mut comp = Mat::zeros(3 * k, nc);
        for j in 0..nc {
            for c in 0..3 {
                for (col, &v) in vel.row(3 * j + c).iter().enumerate() {
                    comp[(c * k + col, j)] = v;
                }
            }
        }
        let fine = comp.matmul(self.up_t);
        let mut out = vec![vec![Vec3::ZERO; nverts]; k];
        for (col, ocol) in out.iter_mut().enumerate() {
            for c in 0..3 {
                for (o, &d) in ocol.iter_mut().zip(fine.row(c * k + col)) {
                    o[c] = self.dt * d;
                }
            }
        }
        // each pole vertex copies the displacement of one vertex of its
        // nearest ring (the first, resp. last, fine grid vertex)
        if nverts >= nf + 2 {
            for ocol in &mut out {
                ocol[nf] = ocol[0];
                ocol[nf + 1] = ocol[nf - 1];
            }
        }
        out
    }
}

impl Simulation {
    /// Creates a simulation.
    pub fn new(
        basis: SphBasis,
        cells: Vec<Cell>,
        vessel: Option<Vessel>,
        config: SimConfig,
    ) -> Simulation {
        let n_cells = cells.len();
        Simulation {
            basis,
            cells,
            vessel,
            config,
            timers: StepTimers::default(),
            steps: 0,
            last_stats: StepStats::default(),
            bie_warm: None,
            bie_warm_image: None,
            dt_state: DtState {
                dt: config.dt,
                clean_steps: 0,
                frozen: vec![false; n_cells],
            },
            last_health: Vec::new(),
            selfops: Vec::new(),
        }
    }

    /// Number of degrees of freedom solved per step (cells: 3 per
    /// quadrature point; boundary: 3 per coarse node), the paper's
    /// "unknowns per time step" metric.
    pub fn dofs(&self) -> usize {
        let cell_dofs = self.cells.len() * 3 * self.basis.grid_size();
        let bd = self.vessel.as_ref().map(|v| v.solver.dim()).unwrap_or(0);
        cell_dofs + bd
    }

    /// Total volume fraction of cells inside the vessel (Figs. 5–7).
    pub fn volume_fraction(&self) -> f64 {
        let vols = rayon::par::map_indexed(self.cells.len(), |ci| {
            self.cells[ci].geometry(&self.basis).volume()
        });
        let cell_vol: f64 = vols.iter().sum();
        match &self.vessel {
            Some(v) => cell_vol / v.volume,
            None => 0.0,
        }
    }

    /// Advances one time step (the algorithm summary of §2.2) as a
    /// **transaction**: stages 1–3 (forces, global sums, boundary solve) run
    /// once, then an attempt at the controller's current Δt runs the
    /// implicit stage, is health-checked (per-cell edge stretch, volume
    /// drift, non-finite detection — see [`vesicle::CellHealth`]), resolves
    /// contacts and is checked for finiteness. A violating attempt wrote
    /// nothing, so it is simply dropped and the attempt alone is retried at
    /// Δt/2 with exponential backoff down to Δt/16. At that floor the
    /// offending cells' implicit updates are frozen for the step
    /// (graceful degradation: the run stays alive and finite). After
    /// `grow_after` consecutive clean steps the controller doubles Δt back
    /// toward the configured target. Returns the per-component timers for
    /// this step (each dropped attempt adds its stage 4–5 wall time).
    ///
    /// When `config.threads > 0` the whole step runs under a `rayon` pool
    /// override of that size; `0` leaves the ambient pool (available
    /// parallelism, or an enclosing override such as a bench sweep)
    /// untouched. The result is bit-identical either way.
    pub fn step(&mut self) -> StepTimers {
        let threads = self.config.threads;
        if threads > 0 {
            rayon::par::with_override(threads, || self.step_inner())
        } else {
            self.step_inner()
        }
    }

    fn step_inner(&mut self) -> StepTimers {
        let mut t = StepTimers::default();
        let ctl = self.config.dt_control;
        let dt_target = self.config.dt;
        let dt_floor = dt_target / BACKOFF_FLOOR_DIVISOR;
        let nc = self.cells.len();

        // controller Δt from serialized state (0 = fresh ⇒ target)
        let mut dt_now = if self.dt_state.dt > 0.0 {
            self.dt_state.dt.min(dt_target)
        } else {
            dt_target
        };
        if !ctl.enabled {
            dt_now = dt_target;
        }

        // stages 1–3 do not depend on Δt or the frozen set: once per step
        let bg = self.prepare(&mut t);

        let mut frozen = vec![false; nc];
        let mut retries = 0usize;
        // freezing only ever grows the frozen set, and an attempt with a
        // cell frozen cannot re-report it, so the loop terminates after at
        // most log2(BACKOFF_FLOOR_DIVISOR) halvings + nc freezes
        let attempt = loop {
            match self.advance(&bg, dt_now, &frozen, ctl.enabled, &mut t) {
                Ok(a) => break a,
                Err(violators) => {
                    retries += 1;
                    if dt_now * 0.5 >= dt_floor * (1.0 - 1e-12) {
                        dt_now *= 0.5;
                    } else {
                        // floor reached: freeze the offenders for this step
                        for ci in violators {
                            frozen[ci] = true;
                        }
                    }
                }
            }
        };

        // the operators are next step's buffers
        self.selfops = bg.selfops;

        // --- commit (Other) ---
        let (_, t_commit) = timed(|| {
            for (ci, pos) in attempt.new_positions.iter().enumerate() {
                if !attempt.reverts[ci] {
                    self.cells[ci].set_positions(&self.basis, pos);
                }
            }
        });
        t.other += t_commit;

        // controller bookkeeping: recovery toward the target Δt
        let frozen_cells = frozen.iter().filter(|&&f| f).count();
        if retries == 0 && frozen_cells == 0 {
            self.dt_state.clean_steps += 1;
            if ctl.enabled
                && dt_now < dt_target
                && self.dt_state.clean_steps >= ctl.grow_after.max(1)
            {
                dt_now = (dt_now * 2.0).min(dt_target);
                self.dt_state.clean_steps = 0;
            }
        } else {
            self.dt_state.clean_steps = 0;
        }
        self.dt_state.dt = dt_now;
        self.dt_state.frozen = frozen;

        let mut stats = attempt.stats;
        stats.dt_retries = retries;
        stats.frozen_cells = frozen_cells;
        let health = attempt.health;
        stats.max_edge_stretch = health.iter().map(|h| h.max_stretch).fold(0.0f64, f64::max);
        self.last_health = health;

        self.timers.accumulate(&t);
        self.steps += 1;
        self.last_stats = stats;
        t
    }

    /// Single-layer velocity of the packed cell sources at `trg`: FMM above
    /// `fmm_pair_threshold` source–target pairs, direct sum below.
    fn cell_sum(&self, mu: f64, pts: &[Vec3], src_f: &[f64], trg: &[Vec3]) -> Vec<f64> {
        let kernel = StokesSL { mu };
        if (pts.len() as f64) * (trg.len() as f64) > self.config.fmm_pair_threshold {
            fmm_evaluate(
                &kernel,
                &StokesEquiv { mu },
                pts,
                src_f,
                trg,
                self.config.fmm,
            )
        } else {
            let mut out = vec![0.0; trg.len() * 3];
            kernels::direct_eval(&kernel, pts, src_f, trg, &mut out);
            out
        }
    }

    /// Stages 1–3 plus the gravity and shear terms, once per step however
    /// many attempts follow. The only place a step touches the boundary
    /// solver: the `bie_warm` hand-over and the drain of the solver's FMM
    /// time and plan counters both live here.
    fn prepare(&mut self, t: &mut StepTimers) -> Background {
        let basis = &self.basis;
        let nc = self.cells.len();
        let n = basis.grid_size();
        let mut stats = StepStats::default();

        // --- membrane forces and per-cell data (Other) ---
        // cells are independent within each stage: one slot per cell,
        // committed in cell-index order, so the result is bit-identical at
        // any thread count
        let ((geos, forces, selfops), t_other0) = timed(|| {
            let geos = rayon::par::map_indexed(nc, |ci| self.cells[ci].geometry(basis));
            let forces: Vec<Vec<Vec3>> = rayon::par::map_indexed(nc, |ci| {
                let mut f = self.cells[ci].membrane_force(basis, &geos[ci]);
                for v in &mut f {
                    *v += self.config.gravity;
                }
                f
            });
            // each operator re-assembled into last step's buffer for the
            // cell; cells beyond that (the first step, or after cells were
            // added) get a fresh one
            let mut selfops = std::mem::take(&mut self.selfops);
            selfops.truncate(nc);
            let cells = &self.cells;
            rayon::par::chunks_mut(&mut selfops, 1, |ci, op| {
                cells[ci].rebuild_self_interaction(basis, &mut op[0]);
            });
            let kept = selfops.len();
            selfops.extend(rayon::par::map_indexed(nc - kept, |k| {
                cells[kept + k].self_interaction(basis)
            }));
            (geos, forces, selfops)
        });
        t.other += t_other0;

        // --- inter-cell velocities via global summation (Other-FMM) ---
        // sources, packed once for both global sums: all cells' quadrature
        // points with weighted forces. The same points are the targets of
        // the cell–cell sum here and of `u_Γ` below
        let mu = self.cells.first().map_or(1.0, |c| c.params.mu);
        let ((pts, src_f, mut b_cells), t_ofmm) = timed(|| {
            let mut pts = Vec::with_capacity(nc * n);
            let mut src_f = Vec::with_capacity(nc * n * 3);
            for (g, f) in geos.iter().zip(&forces) {
                for ((&x, &fi), &w) in g.x.iter().zip(f).zip(&g.w_quad) {
                    pts.push(x);
                    let wf = fi * w;
                    src_f.extend_from_slice(&[wf.x, wf.y, wf.z]);
                }
            }
            let total = self.cell_sum(mu, &pts, &src_f, &pts);
            // subtract each cell's own plain-quadrature self sum (u_fr − u_γi);
            // one output slot per cell, committed in index order
            let b: Vec<Vec<Vec3>> = rayon::par::map_indexed(nc, |ci| {
                let mut own = vec![0.0; n * 3];
                direct_eval_serial(
                    &StokesSL { mu },
                    &pts[ci * n..(ci + 1) * n],
                    &src_f[ci * n * 3..(ci + 1) * n * 3],
                    &pts[ci * n..(ci + 1) * n],
                    &mut own,
                );
                let mut bi = vec![Vec3::ZERO; n];
                for i in 0..n {
                    let gidx = ci * n + i;
                    bi[i] = Vec3::new(
                        total[gidx * 3] - own[i * 3],
                        total[gidx * 3 + 1] - own[i * 3 + 1],
                        total[gidx * 3 + 2] - own[i * 3 + 2],
                    );
                }
                bi
            });
            (pts, src_f, b)
        });
        t.other_fmm += t_ofmm;

        // --- boundary solve for u_Γ (BIE-solve / BIE-FMM) ---
        if let Some(vessel) = &self.vessel {
            // warm start from the previous step's density (the boundary
            // data changes little between steps, so the previous solution
            // is a much better initial iterate than zero), with its image
            let warm = self.bie_warm.take();
            let warm_image = self.bie_warm_image.take();
            let ((phi, res), t_bie) = timed(|| {
                // u_fr on Γ from all cells (this far-field sum is charged to
                // BIE-FMM below through the solver's own accounting for the
                // check-point evaluation; the cell→Γ sum is Other-FMM-like
                // but the paper groups it with the boundary solve input)
                let u_fr = self.cell_sum(mu, &pts, &src_f, &vessel.solver.quad.points);
                // g − u_fr
                let rhs: Vec<f64> = vessel.bc.iter().zip(&u_fr).map(|(g, u)| g - u).collect();
                let (phi, res) =
                    vessel
                        .solver
                        .solve_carried(&rhs, warm.as_deref(), warm_image.as_deref());
                // u_Γ at all cell points
                let ug = vessel.solver.eval_at(&phi, &pts);
                for (bi, ug) in b_cells.iter_mut().zip(ug.chunks_exact(3 * n)) {
                    for (b, u) in bi.iter_mut().zip(ug.chunks_exact(3)) {
                        *b += Vec3::new(u[0], u[1], u[2]);
                    }
                }
                (phi, res)
            });
            self.bie_warm = Some(phi);
            stats.bie_iterations = res.iterations;
            stats.bie_converged = res.converged;
            stats.bie_residual = res.rel_residual;
            self.bie_warm_image = Some(res.image);
            stats.flux_imbalance = vessel.port_flux_imbalance();
            let (builds, replans) = vessel.solver.take_eval_fmm_counters();
            stats.wall_fmm_builds = builds as usize;
            stats.wall_fmm_replans = replans as usize;
            let fmm_part = vessel.solver.take_fmm_nanos();
            t.bie_fmm += fmm_part;
            t.bie_solve += (t_bie - fmm_part).max(0.0);
        }

        // --- self-mobility response to external body forces (Other) ---
        // gravity enters the inter-cell sums above, but each cell also
        // moves through its *own* single layer: b_i += S_i[f_g]
        if self.config.gravity != Vec3::ZERO && nc > 0 {
            let (_, t_g) = timed(|| {
                let g = self.config.gravity;
                // chunk size 1 = one disjoint cell slot per dispatched index
                rayon::par::chunks_mut(&mut b_cells, 1, |ci, slot| {
                    let bi = &mut slot[0];
                    let mut f = vec![0.0; 3 * n];
                    for i in 0..n {
                        f[3 * i] = g.x;
                        f[3 * i + 1] = g.y;
                        f[3 * i + 2] = g.z;
                    }
                    let v = selfops[ci].apply(&f);
                    for i in 0..n {
                        bi[i] += Vec3::new(v[3 * i], v[3 * i + 1], v[3 * i + 2]);
                    }
                });
            });
            t.other += t_g;
        }

        // --- background flow (Other) ---
        if self.config.shear_rate != 0.0 {
            let (_, t_sh) = timed(|| {
                for (bi, g) in b_cells.iter_mut().zip(&geos) {
                    for (b, x) in bi.iter_mut().zip(&g.x) {
                        *b += Vec3::new(self.config.shear_rate * x.z, 0.0, 0.0);
                    }
                }
            });
            t.other += t_sh;
        }

        Background {
            geos,
            selfops,
            b_cells,
            stats,
        }
    }

    /// One attempt on a step's [`Background`] at step size `dt`, with
    /// `frozen` cells' implicit updates skipped.
    /// Writes nothing (positions are returned for the caller to commit), so
    /// a failed attempt needs no undoing. With `gate` set, returns
    /// `Err(violating cell indices)` when any non-frozen cell fails the
    /// health bounds after the implicit stage or ends non-finite after
    /// contact resolution.
    fn advance(
        &self,
        bg: &Background,
        dt: f64,
        frozen: &[bool],
        gate: bool,
        t: &mut StepTimers,
    ) -> Result<Attempt, Vec<usize>> {
        let ctl = self.config.dt_control;
        let basis = &self.basis;
        let nc = self.cells.len();
        let n = basis.grid_size();
        let (geos, selfops, b_cells) = (&bg.geos, &bg.selfops, &bg.b_cells);
        let mut stats = StepStats {
            dt_effective: dt,
            ..bg.stats
        };

        // --- locally-implicit per-cell update (Other) ---
        // frozen cells skip the update entirely (their candidate is the
        // pre-step position grid — §graceful degradation); the rest run
        // backward Euler at dt
        let (new_positions, t_impl) = timed(|| {
            rayon::par::map_indexed(nc, |ci| {
                if frozen[ci] {
                    return geos[ci].x.clone();
                }
                let opts = StepOptions {
                    dt,
                    ..self.config.step
                };
                let cell = &self.cells[ci];
                implicit_step(basis, cell, &selfops[ci], &b_cells[ci], &opts).0
            })
        });
        t.other += t_impl;

        // --- step-health gate after the implicit stage (Other) ---
        // per-cell max edge stretch vs rest length, volume drift, and
        // non-finite detection; a violation fails the attempt
        let (health, t_health) = timed(|| {
            rayon::par::map_indexed(nc, |ci| {
                step_health(
                    basis,
                    &self.cells[ci],
                    &new_positions[ci],
                    geos[ci].volume(),
                )
            })
        });
        t.other += t_health;
        if gate {
            let violators: Vec<usize> = health
                .iter()
                .enumerate()
                .filter(|(ci, h)| !frozen[*ci] && !h.ok(ctl.max_stretch, ctl.max_volume_drift))
                .map(|(ci, _)| ci)
                .collect();
            if !violators.is_empty() {
                return Err(violators);
            }
        }

        // --- collision handling (COL) ---
        let ((corrected, res), t_col) = timed(|| {
            let pu = basis.p * self.config.col_upsample;
            let up_t = upsample_matrix_t(basis.p, pu);
            let bu = SphBasis::new(pu);
            let nf = bu.grid_size();
            let fine_positions = |coarse: &[Vec3]| -> Vec<Vec3> {
                let mut out = vec![Vec3::ZERO; nf];
                let mut comp = vec![0.0; n];
                for c in 0..3 {
                    for j in 0..n {
                        comp[j] = coarse[j][c];
                    }
                    let f = up_t.matvec_t(&comp);
                    for v in 0..nf {
                        out[v][c] = f[v];
                    }
                }
                out
            };
            // build meshes at start positions; end positions from the
            // implicit update. One slot per cell, unzipped in index order
            let per_cell = rayon::par::map_indexed(nc, |ci| {
                let (pts0, nlat, nlon, n0, s0) =
                    self.cells[ci].collision_points(basis, self.config.col_upsample);
                let mesh = triangulate_latlon(&pts0, nlat, nlon, n0, s0);
                let mut e = fine_positions(&new_positions[ci]);
                // poles at end: reuse ring ends
                e.push(e[0]);
                e.push(e[nf - 1]);
                let mut s = pts0;
                s.push(n0);
                s.push(s0);
                (mesh, s, e)
            });
            let mut meshes: Vec<TriMesh> = Vec::with_capacity(nc);
            let mut start: Vec<Vec<Vec3>> = Vec::with_capacity(nc);
            let mut end: Vec<Vec<Vec3>> = Vec::with_capacity(nc);
            for (mesh, s, e) in per_cell {
                meshes.push(mesh);
                start.push(s);
                end.push(e);
            }
            let mut obj_of: Vec<u32> = (0..nc as u32).collect();
            if let Some(vessel) = &self.vessel {
                for m in &vessel.meshes {
                    start.push(m.verts.clone());
                    end.push(m.verts.clone());
                    meshes.push(m.clone());
                    obj_of.push(nc as u32); // one rigid vessel object
                }
            }
            let mobility = CellMobility {
                selfops,
                up_t: &up_t,
                dt,
                n_cells: nc,
                n_coarse: n,
                n_fine_grid: nf,
            };
            let opts = NcpOptions {
                detect: DetectOptions::new(self.config.collision_delta),
                max_outer: 10,
                ..Default::default()
            };
            let res = resolve_contacts(&meshes, &mut end, &start, &obj_of, &mobility, &opts);
            // project corrected fine positions back to the coarse grid
            // (spectral truncation: exact left inverse of upsampling)
            let corrected: Vec<Vec<Vec3>> = rayon::par::map_indexed(nc, |ci| {
                let fine = &end[ci][..nf];
                let mut out = vec![Vec3::ZERO; n];
                for c in 0..3 {
                    let comp: Vec<f64> = fine.iter().map(|v| v[c]).collect();
                    let cc = bu.analyze(&comp).resampled(basis.p);
                    let g = basis.synthesize(&cc, sphharm::Deriv::None);
                    for j in 0..n {
                        out[j][c] = g[j];
                    }
                }
                out
            });
            (corrected, res)
        });
        stats.contacts = res.initial_contacts;
        stats.ncp_iters = res.outer_iters;
        stats.contact_free = res.resolved;
        let new_positions = corrected;
        t.col += t_col;

        // --- post-collision finiteness gate ---
        // contact resolution can amplify a borderline update; a non-frozen
        // cell going non-finite here re-triggers the backoff, while a
        // frozen cell's non-finite correction is simply discarded at commit
        // (revert flag) so the committed state stays finite
        let mut reverts = vec![false; nc];
        if gate {
            let mut violators = Vec::new();
            for (ci, pos) in new_positions.iter().enumerate() {
                let finite = pos
                    .iter()
                    .all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite());
                if !finite {
                    if frozen[ci] {
                        reverts[ci] = true;
                    } else {
                        violators.push(ci);
                    }
                }
            }
            if !violators.is_empty() {
                return Err(violators);
            }
        }

        Ok(Attempt {
            stats,
            health,
            new_positions,
            reverts,
        })
    }

    /// Recycles cells that reached an outlet region back into the inlet
    /// (§5.1): a cell whose centroid passes the cap plane of any outlet,
    /// within that port's radius of its axis, is teleported near an inlet,
    /// skipping the move if it would overlap another cell.
    pub fn recycle_cells(&mut self) -> usize {
        let Some(vessel) = &self.vessel else { return 0 };
        let basis = &self.basis;
        let (inlets, outlets): (Vec<&Port>, Vec<&Port>) =
            vessel.ports.iter().partition(|p| p.is_inlet);
        if inlets.is_empty() || outlets.is_empty() {
            return 0;
        }
        let centroids: Vec<Vec3> = rayon::par::map_indexed(self.cells.len(), |ci| {
            self.cells[ci].geometry(basis).centroid()
        });
        let mut moved = 0;
        for ci in 0..self.cells.len() {
            let c = centroids[ci];
            // beyond an outlet's cap plane (inward normal points into the
            // domain) and inside its cylinder, so that a cell in a sibling
            // branch behind the same plane does not match
            let leaving = outlets.iter().any(|out| {
                let r = c - out.center;
                let along = r.dot(out.inward);
                along < out.radius * 0.5 && (r - out.inward * along).norm() < out.radius
            });
            if leaving {
                // near/through the cap: recycle
                let inl = &inlets[moved % inlets.len()];
                let target = inl.center + inl.inward * (1.5 * inl.radius);
                // collision-free check against other cells
                let min_sep = self
                    .cells
                    .iter()
                    .enumerate()
                    .filter(|(cj, _)| *cj != ci)
                    .map(|(cj, _)| (centroids[cj] - target).norm())
                    .fold(f64::INFINITY, f64::min);
                if min_sep > inl.radius * 0.8 {
                    let d = target - c;
                    self.cells[ci].translate(basis, d);
                    moved += 1;
                }
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vesicle::{biconcave_coeffs, CellParams};

    fn shear_sim(ctl: DtControl, dt: f64) -> Simulation {
        let basis = SphBasis::new(6);
        let params = CellParams {
            kappa_b: 0.02,
            ..Default::default()
        };
        let cells = vec![Cell::new(
            &basis,
            biconcave_coeffs(&basis, 1.0, Vec3::ZERO),
            params,
        )];
        let config = SimConfig {
            dt,
            shear_rate: 0.8,
            dt_control: ctl,
            ..Default::default()
        };
        Simulation::new(basis, cells, None, config)
    }

    fn assert_finite(sim: &Simulation) {
        for (ci, c) in sim.cells.iter().enumerate() {
            for comp in 0..3 {
                assert!(
                    c.coeffs[comp].data.iter().all(|v| v.is_finite()),
                    "cell {ci} component {comp} went non-finite"
                );
            }
        }
    }

    #[test]
    fn oversized_dt_recovers_via_halving() {
        // probe the unconstrained per-step drift so the gate below is
        // guaranteed to trip at the full dt but pass near dt/2
        let off = DtControl {
            enabled: false,
            ..Default::default()
        };
        let mut probe = shear_sim(off, 0.05);
        probe.step();
        assert_eq!(probe.last_stats.dt_retries, 0);
        assert_eq!(probe.last_stats.dt_effective, 0.05);
        let d1 = probe
            .last_health
            .iter()
            .map(|h| h.volume_drift)
            .fold(0.0f64, f64::max);
        assert!(
            d1 > 0.0 && probe.last_stats.max_edge_stretch > 0.0,
            "health must be reported even with the controller disabled"
        );

        // drift scales ~linearly in dt: a bound at 0.7·d1 fails at dt,
        // passes at dt/2 (≈ 0.5·d1) with margin
        let ctl = DtControl {
            max_volume_drift: 0.7 * d1,
            ..Default::default()
        };
        let mut sim = shear_sim(ctl, 0.05);
        sim.step();
        let st = sim.last_stats;
        assert!(st.dt_retries >= 1, "oversized dt must trigger a retry");
        assert_eq!(
            st.frozen_cells, 0,
            "halving should recover without freezing"
        );
        assert!(
            st.dt_effective < 0.05,
            "whole-step halving advances a reduced dt, got {}",
            st.dt_effective
        );
        assert!(st.max_edge_stretch.is_finite());
        assert!(sim.dt_state.dt < 0.05, "backed-off dt must carry over");
        assert_finite(&sim);
    }

    #[test]
    fn impossible_bound_takes_four_halvings_then_freezes() {
        // max_stretch 0.5 is violated by any configuration (stretch ≈ 1):
        // from the target dt the backoff halves four times down to its
        // dt/16 floor, and the fifth failed attempt freezes the cell
        let ctl = DtControl {
            max_stretch: 0.5,
            ..Default::default()
        };
        let dt = 0.02;
        let mut sim = shear_sim(ctl, dt);
        sim.step();
        let st = sim.last_stats;
        assert_eq!(st.dt_retries, 5);
        assert_eq!(st.dt_effective, dt / 16.0);
        assert_eq!(st.frozen_cells, 1);
        assert_finite(&sim);
    }

    #[test]
    fn impossible_bound_freezes_at_dt_min_and_stays_finite() {
        // max_stretch 0.5 is violated by any configuration (stretch ≈ 1),
        // and a controller already at the dt/16 floor has no halving room:
        // the first violation must freeze the cell instead of looping
        let ctl = DtControl {
            max_stretch: 0.5,
            ..Default::default()
        };
        let mut sim = shear_sim(ctl, 0.02);
        sim.dt_state.dt = 0.02 / 16.0;
        sim.step();
        let st = sim.last_stats;
        assert_eq!(st.dt_retries, 1);
        assert_eq!(st.frozen_cells, 1);
        assert_eq!(sim.dt_state.frozen, vec![true]);
        assert_finite(&sim);
        // graceful degradation: the sim keeps stepping
        sim.step();
        assert_eq!(sim.last_stats.frozen_cells, 1);
        assert_finite(&sim);
    }

    #[test]
    fn controller_recovers_dt_after_clean_steps() {
        let ctl = DtControl {
            grow_after: 2,
            ..Default::default()
        };
        let mut sim = shear_sim(ctl, 0.02);
        sim.dt_state.dt = 0.005; // as if two halvings happened earlier
        sim.step();
        assert_eq!(sim.last_stats.dt_effective, 0.005);
        assert_eq!(sim.dt_state.clean_steps, 1);
        sim.step();
        assert_eq!(
            sim.dt_state.dt, 0.01,
            "doubled after grow_after clean steps"
        );
        assert_eq!(sim.dt_state.clean_steps, 0);
        sim.step();
        sim.step();
        assert_eq!(sim.dt_state.dt, 0.02, "recovered to the target dt");
    }

    #[test]
    fn disabled_controller_matches_clean_adaptive_trajectory_bit_exactly() {
        // a healthy run takes the same single-attempt path whether the gate
        // is armed or not — the controller must not perturb clean steps
        let mut on = shear_sim(DtControl::default(), 0.01);
        let mut off = shear_sim(
            DtControl {
                enabled: false,
                ..Default::default()
            },
            0.01,
        );
        for _ in 0..2 {
            on.step();
            off.step();
        }
        assert_eq!(on.last_stats.dt_retries, 0);
        for (a, b) in on.cells.iter().zip(&off.cells) {
            for c in 0..3 {
                assert_eq!(a.coeffs[c].data, b.coeffs[c].data);
            }
        }
    }
    /// The plan counters are drained once per step, in `prepare`: a
    /// frozen-tree build paid while the step's first attempt fails must
    /// still show in the committed row, or a
    /// `--assert 'sum(wall_fmm_builds) <= 1'` cannot see it.
    #[test]
    fn retried_first_vessel_step_reports_its_wall_fmm_build() {
        let basis = SphBasis::new(6);
        let line = patch::StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(6.0, 0.0, 0.0),
        };
        let opts = bie::BieOptions {
            backend: bie::MatvecBackend::Fmm,
            qf: 6,
            // small leaves: at the default capacity this 14-patch wall's
            // frozen eval tree is eight adjacent leaves with no far field
            fmm: bie::FmmOptions {
                order: 4,
                leaf_capacity: 160,
                ..Default::default()
            },
            gmres: linalg::GmresOptions {
                max_iters: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let vessel = Vessel::new(patch::capsule_tube(&line, 1.0, 1, 6), 1.0, opts, 1.0, 6);
        let center = Vec3::new(3.0, 0.0, 0.0);
        let cells = vec![Cell::new(
            &basis,
            biconcave_coeffs(&basis, 0.5, center),
            CellParams::default(),
        )];
        // a volume-drift bound no moving cell meets and a controller at the
        // dt/16 floor, so no halving room: the first attempt fails, the
        // second commits with the cell frozen
        let dt = 0.01;
        let config = SimConfig {
            dt,
            dt_control: DtControl {
                max_volume_drift: 1e-14,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulation::new(basis, cells, Some(vessel), config);
        sim.dt_state.dt = dt / 16.0;
        sim.step();
        let st = sim.last_stats;
        assert_eq!(st.dt_retries, 1, "the first attempt must fail");
        assert_eq!((st.wall_fmm_builds, st.wall_fmm_replans), (1, 1));
        // steady state: the tree is reused, one target replan per step
        sim.step();
        let st = sim.last_stats;
        assert_eq!((st.wall_fmm_builds, st.wall_fmm_replans), (0, 1));
    }

    /// The NCP loop drives `CellMobility::apply_many` with however many
    /// contact columns touch a cell. Whatever the batch size — one GEMM
    /// edge row, or 27 rows across tiles and edge — each column must be,
    /// bit for bit, the row-major chain it replaced: restriction by `Uᵀ`,
    /// `SelfInteraction::apply`, `Δt·U` as sequential dots, poles copied.
    #[test]
    fn cell_mobility_batches_match_the_row_major_chain_bitwise() {
        let basis = SphBasis::new(6);
        let cells: Vec<Cell> = [Vec3::ZERO, Vec3::new(2.1, 0.3, -0.2)]
            .into_iter()
            .map(|c| {
                Cell::new(
                    &basis,
                    biconcave_coeffs(&basis, 1.0, c),
                    CellParams::default(),
                )
            })
            .collect();
        let selfops: Vec<SelfInteraction> =
            cells.iter().map(|c| c.self_interaction(&basis)).collect();
        let up_t = upsample_matrix_t(basis.p, 2 * basis.p);
        let (nc, nf) = (up_t.rows(), up_t.cols());
        let dt = 0.02;
        let mobility = CellMobility {
            selfops: &selfops,
            up_t: &up_t,
            dt,
            n_cells: 2,
            n_coarse: nc,
            n_fine_grid: nf,
        };
        let nverts = nf + 2;
        // sparse contact-force columns: a few fine vertices each, signed
        // zeros included, plus a pole vertex (dropped by the restriction)
        let columns: Vec<Vec<(u32, Vec3)>> = (0..9)
            .map(|col| {
                let mut f: Vec<(u32, Vec3)> = (0..3 + col)
                    .map(|e| {
                        let v = (col * 37 + e * 11) % nf;
                        let x = ((col * 5 + e) as f64 * 0.7).sin();
                        (v as u32, Vec3::new(x, -0.0, 0.3 - x))
                    })
                    .collect();
                f.push((nf as u32 + (col % 2) as u32, Vec3::new(1.0, 2.0, 3.0)));
                f
            })
            .collect();

        let up = up_t.transpose();
        let reference = |mesh: usize, force: &[(u32, Vec3)]| -> Vec<Vec3> {
            let mut coarse = vec![0.0; 3 * nc];
            for &(v, f) in force.iter().filter(|(v, _)| (*v as usize) < nf) {
                for j in 0..nc {
                    let u = up[(v as usize, j)];
                    if u != 0.0 {
                        coarse[3 * j] += u * f.x;
                        coarse[3 * j + 1] += u * f.y;
                        coarse[3 * j + 2] += u * f.z;
                    }
                }
            }
            let vel = selfops[mesh].apply(&coarse);
            let mut out = vec![Vec3::ZERO; nverts];
            for c in 0..3 {
                let comp: Vec<f64> = (0..nc).map(|j| vel[3 * j + c]).collect();
                for (v, d) in up.matvec(&comp).into_iter().enumerate() {
                    out[v][c] = dt * d;
                }
            }
            out[nf] = out[0];
            out[nf + 1] = out[nf - 1];
            out
        };
        let bits = |d: &[Vec3]| -> Vec<[u64; 3]> {
            d.iter()
                .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .collect()
        };
        for mesh in 0..2 {
            let want: Vec<Vec<Vec3>> = columns.iter().map(|f| reference(mesh, f)).collect();
            for k in [1, 9] {
                let batch: Vec<&[(u32, Vec3)]> = columns[..k].iter().map(Vec::as_slice).collect();
                let got = mobility.apply_many(mesh as u32, &batch, nverts);
                assert_eq!(got.len(), k);
                for (col, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(g), bits(w), "mesh {mesh}, K = {k}, column {col}");
                }
            }
        }
    }
}
