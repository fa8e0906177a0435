//! The boundary integral solver of §3: Nyström discretization of
//! `(1/2 I + D + N) φ = g` with singular/near-singular quadrature by
//! check-point extrapolation, solved matrix-free with GMRES.
//!
//! The dense operator is never assembled (§3): each GMRES iteration
//! upsamples the density to the fine discretization and extrapolates the
//! layer potential at the check points of every node back to the node.
//! The FMM backend evaluates it at all check points and then extrapolates;
//! the dense backend runs one fused kernel per node
//! ([`LayerKernel::eval_lines`]) that sums the extrapolated value directly
//! and never forms a check-point value. Because the check points lie on
//! the *fluid* side of Γ, the extrapolated value is the interior limit,
//! which already contains the `+φ/2` jump — so the discrete operator is
//! exactly the left-hand side of Eq. (2.5)/(3.5).

use crate::closest::{ClosestHit, NearIndex};
use crate::fine::FineDiscretization;
use fmm::{Fmm, FmmOptions};
use kernels::{direct_eval, CheckLines, Kernel, LaplaceDL, StokesDL};
use linalg::{axpy, gmres, GmresOptions, GmresResult, Interp1d, LinearOperator, Vec3};
use parking_lot::Mutex;
use patch::{BoundarySurface, SurfaceQuad};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A double-layer kernel usable by the Nyström solver: packs a density
/// value, surface normal and quadrature weight into FMM source data.
pub trait LayerKernel: Kernel + Clone + Sync + Send {
    /// Components of the layer density (3 for Stokes, 1 for Laplace).
    fn value_dim(&self) -> usize;
    /// Packs `weight · density` and the normal into the kernel's source
    /// data layout (`src_dim` entries).
    fn pack(&self, density: &[f64], normal: Vec3, weight: f64, out: &mut [f64]);
    /// Accumulates into `out` (`value_dim` per line) the layer potential
    /// of the packed sources at each line's check points, combined by the
    /// line's weights: [`kernels::direct_eval`] at `lines.points()`
    /// followed by `lines.combine`, fused so that no check-point value is
    /// formed (the dense matvec and the near targets of `eval_at`).
    fn eval_lines(&self, lines: &CheckLines, srcs: &[Vec3], data: &[f64], out: &mut [f64]);
}

impl LayerKernel for StokesDL {
    fn value_dim(&self) -> usize {
        3
    }
    fn pack(&self, density: &[f64], normal: Vec3, weight: f64, out: &mut [f64]) {
        out[0] = density[0] * weight;
        out[1] = density[1] * weight;
        out[2] = density[2] * weight;
        out[3] = normal.x;
        out[4] = normal.y;
        out[5] = normal.z;
    }
    fn eval_lines(&self, lines: &CheckLines, srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        kernels::stresslet_lines_block(lines, srcs, data, out);
    }
}

impl LayerKernel for LaplaceDL {
    fn value_dim(&self) -> usize {
        1
    }
    fn pack(&self, density: &[f64], normal: Vec3, weight: f64, out: &mut [f64]) {
        out[0] = density[0] * weight;
        out[1] = normal.x;
        out[2] = normal.y;
        out[3] = normal.z;
    }
    fn eval_lines(&self, lines: &CheckLines, srcs: &[Vec3], data: &[f64], out: &mut [f64]) {
        kernels::laplace_dl_lines_block(lines, srcs, data, out);
    }
}

/// Which engine evaluates the fine-source layer potential at the check
/// points — the matvec inside every GMRES iteration — and at the targets
/// of [`DoubleLayerSolver::eval_at`].
///
/// The dense path is O(N_fine · N_check); both factors grow linearly with
/// the patch count `P`, so its cost is O(P²) and wall refinement
/// (4× patches per level) multiplies it 16× per level. The FMM path is
/// O(P) with a larger constant (tree + translation setup is amortized:
/// the solve-time [`fmm::Fmm`] is built once per solver and its arenas are
/// reused across all GMRES iterations and time steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatvecBackend {
    /// Choose by patch count: FMM from
    /// [`MatvecBackend::FMM_CROSSOVER_PATCHES`] patches up, dense below.
    Auto,
    /// Direct summation: the fused check-line kernel
    /// [`LayerKernel::eval_lines`] at the nodes and near targets,
    /// [`kernels::direct_eval`] at far targets.
    Dense,
    /// The kernel-independent [`fmm::Fmm`].
    Fmm,
}

impl MatvecBackend {
    /// Patch count from which `Auto` routes the GMRES matvec through the
    /// FMM. The per-matvec crossover on the registry-scale capsule tube is
    /// tabulated in `crates/bie/README.md` ("Matvec backends & when FMM
    /// wins"): with the dense matvec on the fused check-line kernel and the
    /// FMM's translations run as level-wide GEMMs, dense and FMM tie
    /// between 22 and 88 patches (0.03 s dense against 0.08 s FMM at 22,
    /// 0.5–0.75 s against 0.38 s at 88, per matvec on one thread; about
    /// 50–60 patches by interpolation). The constant stays at 128: no
    /// benchmark workload has an unrefined wall between 40 and 128
    /// patches to measure a move on, the unrefined registry vessels
    /// (14–96 patches) stay dense, and every refined vessel (≥ 4× the
    /// patches per level) goes FMM.
    pub const FMM_CROSSOVER_PATCHES: usize = 128;

    /// Resolves the backend choice for a surface with `num_patches`
    /// patches: `true` ⇒ FMM, `false` ⇒ dense summation.
    pub fn use_fmm(self, num_patches: usize) -> bool {
        match self {
            MatvecBackend::Dense => false,
            MatvecBackend::Fmm => true,
            MatvecBackend::Auto => num_patches >= Self::FMM_CROSSOVER_PATCHES,
        }
    }
}

/// Solver options; defaults follow the paper's production configuration.
#[derive(Clone, Copy, Debug)]
pub struct BieOptions {
    /// Patch-subdivision depth of the fine discretization (η).
    pub eta: u32,
    /// Clenshaw–Curtis order on fine subpatches (0 ⇒ same as coarse `q`).
    pub qf: usize,
    /// Extrapolation order `p` (p+1 check points).
    pub p_extrap: usize,
    /// Check-point distance as a multiple of the patch size `L̂`: the first
    /// check point sits `R = check_r · L̂` off the surface and the spacing
    /// is `r = R` (§5.1: `0.15` for strong scaling, `0.1` weak).
    pub check_r: f64,
    /// Far-field summation engine for the GMRES matvec and `eval_at`.
    pub backend: MatvecBackend,
    /// FMM tuning.
    pub fmm: FmmOptions,
    /// GMRES controls (the paper caps iterations at 30 in scaling runs).
    pub gmres: GmresOptions,
    /// Include the rank-completing operator `N` (required for the interior
    /// Stokes problem; not needed for Laplace).
    pub null_space: bool,
}

impl Default for BieOptions {
    fn default() -> Self {
        BieOptions {
            eta: 1,
            qf: 0,
            p_extrap: 8,
            check_r: 0.15,
            backend: MatvecBackend::Auto,
            fmm: FmmOptions::default(),
            gmres: GmresOptions {
                tol: 1e-8,
                atol: 1e-12,
                max_iters: 100,
                restart: 60,
                stall_ratio: 0.0,
            },
            null_space: true,
        }
    }
}

/// Scratch buffers recycled across GMRES matvecs ([`DoubleLayerSolver::apply`]
/// is called dozens of times per solve; reallocating the fine density and
/// the packed source data every application showed up in the BIE-solve
/// timer).
#[derive(Default)]
struct ApplyScratch {
    fine: Vec<f64>,
    src: Vec<f64>,
}

/// The Nyström double-layer solver on a fixed boundary surface.
pub struct DoubleLayerSolver<K: LayerKernel, KE: Kernel + Clone + Sync + Send> {
    /// The boundary.
    pub surface: BoundarySurface,
    /// Coarse discretization (the Nyström nodes `y_ℓ`).
    pub quad: SurfaceQuad,
    /// Fine discretization for near-singular integration.
    pub fine: FineDiscretization,
    /// Near-zone search index of `surface` for [`Self::eval_at`].
    near: NearIndex,
    kernel: K,
    eq_kernel: KE,
    /// Options in effect.
    pub opts: BieOptions,
    vd: usize,
    /// Check-point spacing `R = r = check_r · L̂` of each node's line.
    check_h: Vec<f64>,
    /// Extrapolation weights to `t = 0`, `p + 1` per node (the same for
    /// every node: the check nodes are an affine family in `L̂`).
    check_w: Vec<f64>,
    /// FMM with fixed geometry (fine sources → check targets), reused every
    /// GMRES iteration; `None` when running direct summation.
    solve_fmm: Option<Fmm<K, KE>>,
    /// Matvec scratch recycled across GMRES iterations.
    scratch: Mutex<ApplyScratch>,
    /// Nanoseconds spent in far-field summation (FMM or direct) — the
    /// paper's "BIE-FMM" timer category; reset with [`Self::take_fmm_nanos`].
    fmm_nanos: AtomicU64,
    /// Persistent FMM for [`Self::eval_at`]-style moving-target summation:
    /// frozen once over the (static) fine sources, then target-only
    /// replanned per call. Lazily built on the first FMM-routed
    /// `summation` call. The fine sources are fixed for the solver's
    /// lifetime, so the plan never goes stale: a different wall is a
    /// different solver.
    eval_fmm: Mutex<Option<Fmm<K, KE>>>,
    /// Frozen-tree constructions of `eval_fmm` (plan-reuse telemetry: at
    /// most 1 across a solver's lifetime).
    eval_fmm_builds: AtomicU64,
    /// Target-only replans on `eval_fmm` (one per FMM-routed `summation`).
    eval_fmm_replans: AtomicU64,
    /// `A n`, the image of the nodal normal field: what projecting a warm
    /// start `φ − c n` does to its image. One apply, on the first warm
    /// solve handed an image.
    normal_image: OnceLock<Vec<f64>>,
}

impl<K: LayerKernel, KE: Kernel + Clone + Sync + Send> DoubleLayerSolver<K, KE> {
    /// Builds the solver: coarse/fine discretizations, the nodes' check
    /// lines, and (FMM backend) the static-geometry FMM for the GMRES
    /// matvec.
    pub fn new(surface: BoundarySurface, kernel: K, eq_kernel: KE, opts: BieOptions) -> Self {
        let quad = surface.quadrature();
        let qf = if opts.qf == 0 { surface.q } else { opts.qf };
        let fine = FineDiscretization::build(&surface, opts.eta, qf);
        let near = NearIndex::new(&surface, &quad);
        let vd = kernel.value_dim();

        // check points: y − (R + i r) n, i = 0..=p (into the fluid), with
        // R = r = check_r · L̂
        let check_h: Vec<f64> = (0..quad.len())
            .map(|l| opts.check_r * quad.patch_size(quad.patch_of[l] as usize))
            .collect();
        // extrapolation weights to t = 0 on the canonical node family
        let extrap_w = linalg::checkpoint_extrapolation_weights(
            opts.check_r,
            opts.check_r,
            opts.p_extrap,
            0.0,
        );
        let check_w = extrap_w.repeat(quad.len());

        let solve_fmm = if opts.backend.use_fmm(surface.num_patches()) {
            let lines = CheckLines {
                base: &quad.points,
                normal: &quad.normals,
                spacing: &check_h,
                weights: &check_w,
            };
            Some(Fmm::new(
                kernel.clone(),
                eq_kernel.clone(),
                &fine.points,
                &lines.points(),
                opts.fmm,
            ))
        } else {
            None
        };
        DoubleLayerSolver {
            surface,
            quad,
            fine,
            near,
            kernel,
            eq_kernel,
            opts,
            vd,
            check_h,
            check_w,
            solve_fmm,
            scratch: Mutex::new(ApplyScratch::default()),
            fmm_nanos: AtomicU64::new(0),
            eval_fmm: Mutex::new(None),
            eval_fmm_builds: AtomicU64::new(0),
            eval_fmm_replans: AtomicU64::new(0),
            normal_image: OnceLock::new(),
        }
    }

    /// The backend the GMRES matvec actually resolved to (`Auto` settled
    /// at construction by patch count): [`MatvecBackend::Fmm`] when the
    /// solve routes through the persistent FMM, [`MatvecBackend::Dense`]
    /// otherwise.
    pub fn solve_backend(&self) -> MatvecBackend {
        if self.solve_fmm.is_some() {
            MatvecBackend::Fmm
        } else {
            MatvecBackend::Dense
        }
    }

    /// Returns and resets the accumulated far-field summation time
    /// (seconds) — the BIE-FMM component of the paper's timing breakdown.
    pub fn take_fmm_nanos(&self) -> f64 {
        self.fmm_nanos.swap(0, Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of scalar unknowns (`N_coarse · value_dim`).
    pub fn dim(&self) -> usize {
        self.quad.len() * self.vd
    }

    /// Packs an upsampled density into kernel source data.
    fn pack_sources(&self, fine_density: &[f64]) -> Vec<f64> {
        let mut src = Vec::new();
        self.pack_sources_into(fine_density, &mut src);
        src
    }

    /// [`Self::pack_sources`] into a recycled caller buffer.
    fn pack_sources_into(&self, fine_density: &[f64], src: &mut Vec<f64>) {
        let sd = self.kernel.src_dim();
        let vd = self.vd;
        src.clear();
        src.resize(self.fine.len() * sd, 0.0);
        // batch work items: one dispatch per 256 nodes, not per node
        const BLK: usize = 256;
        rayon::par::chunks_mut(src, BLK * sd, |b, out| {
            for (r, o) in out.chunks_mut(sd).enumerate() {
                let j = b * BLK + r;
                self.kernel.pack(
                    &fine_density[j * vd..(j + 1) * vd],
                    self.fine.normals[j],
                    self.fine.weights[j],
                    o,
                );
            }
        });
    }

    /// The nodes' check lines: node `l`'s runs from `y_l` against its
    /// normal, with the check spacing of its patch and the extrapolation
    /// weights to `t = 0`.
    fn node_lines(&self) -> CheckLines<'_> {
        CheckLines {
            base: &self.quad.points,
            normal: &self.quad.normals,
            spacing: &self.check_h,
            weights: &self.check_w,
        }
    }

    /// Adds the time since `t0` to the far-field summation timer.
    fn add_fmm_time(&self, t0: Instant) {
        self.fmm_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// [`LayerKernel::eval_lines`] of packed fine sources over `lines`
    /// into `out` (overwritten), in parallel over blocks of lines.
    fn sum_lines(&self, lines: &CheckLines, src: &[f64], out: &mut [f64]) {
        let vd = self.vd;
        out.fill(0.0);
        // one dispatch per 32 lines: four groups of eight lanes
        const BLK: usize = 32;
        rayon::par::chunks_mut(out, BLK * vd, |b, chunk| {
            let lines = lines.slice(b * BLK, b * BLK + chunk.len() / vd);
            self.kernel
                .eval_lines(&lines, &self.fine.points, src, chunk);
        });
    }

    /// Evaluates the layer potential of packed sources at the `far`
    /// targets and combined along the near targets' check `lines`, into
    /// `far_out` and `near_out`, choosing FMM or direct summation by
    /// problem size.
    ///
    /// The FMM path evaluates at the far targets and every check point on
    /// a *persistent* [`Fmm::frozen`] plan: the tree, interaction lists,
    /// and operators are built once over the static fine sources (lazily,
    /// on the first FMM-routed call) and each call only replans the moving
    /// targets — the per-step throwaway build this replaced dominated the
    /// refined-vessel step time. The dense path sums directly at the far
    /// targets and runs the fused line kernel for the near ones.
    fn summation(
        &self,
        src_data: &[f64],
        far: &[Vec3],
        lines: &CheckLines,
        far_out: &mut [f64],
        near_out: &mut [f64],
    ) {
        let t0 = Instant::now();
        let n_points = far.len() + lines.len() * lines.points_per_line();
        // `Auto` resolves by patch count like the solve matvec, but only
        // once the point set is big enough for the FMM to beat direct
        // summation (small unrefined problems stay dense)
        let use_fmm = match self.opts.backend {
            MatvecBackend::Dense => false,
            MatvecBackend::Fmm => true,
            MatvecBackend::Auto => {
                self.opts.backend.use_fmm(self.surface.num_patches())
                    && n_points * self.kernel.trg_dim() > 2000
            }
        };
        if use_fmm {
            let mut points = far.to_vec();
            points.extend(lines.points());
            let mut guard = self.eval_fmm.lock();
            if guard.is_none() {
                *guard = Some(Fmm::frozen(
                    self.kernel.clone(),
                    self.eq_kernel.clone(),
                    &self.fine.points,
                    &[],
                    self.opts.fmm,
                ));
                self.eval_fmm_builds.fetch_add(1, Ordering::Relaxed);
            }
            self.eval_fmm_replans.fetch_add(1, Ordering::Relaxed);
            let vals = guard
                .as_mut()
                .expect("eval_fmm just built")
                .evaluate_at(src_data, &points);
            self.add_fmm_time(t0);
            let (far_vals, check_vals) = vals.split_at(far_out.len());
            far_out.copy_from_slice(far_vals);
            lines.combine(check_vals, self.vd, near_out);
        } else {
            far_out.fill(0.0);
            direct_eval(&self.kernel, &self.fine.points, src_data, far, far_out);
            self.sum_lines(lines, src_data, near_out);
            self.add_fmm_time(t0);
        }
    }

    /// Returns and resets the persistent-eval-FMM activity counters
    /// `(frozen-tree builds, target replans)` — the plan-reuse telemetry
    /// behind `StepStats::{wall_fmm_builds, wall_fmm_replans}`. A healthy
    /// steady state is builds = 0 (the tree was built on an earlier step)
    /// and one replan per `eval_at`/`summation` call.
    pub fn take_eval_fmm_counters(&self) -> (u64, u64) {
        (
            self.eval_fmm_builds.swap(0, Ordering::Relaxed),
            self.eval_fmm_replans.swap(0, Ordering::Relaxed),
        )
    }

    /// Applies the discrete boundary operator `A = (1/2 I + D)|_interior
    /// (+ N)` to a density (matrix-free GMRES matvec): the upsampled
    /// density's layer potential, extrapolated along each node's check
    /// line to the node. The dense backend sums the extrapolated value
    /// directly with the fused kernel [`LayerKernel::eval_lines`] and forms
    /// no check-point value; the FMM backend evaluates at all check points
    /// and combines them. Either way the sum is timed as "BIE-FMM"
    /// ([`Self::take_fmm_nanos`]).
    pub fn apply(&self, phi: &[f64], out: &mut [f64]) {
        let vd = self.vd;
        let nq = self.quad.len();
        assert_eq!(phi.len(), nq * vd);
        // scratch recycled across GMRES iterations (apply is serial within
        // a solve; the lock is uncontended)
        let mut guard = self.scratch.lock();
        let scratch = &mut *guard;
        // 1. upsample to the fine grid
        self.fine.upsample_density_into(
            phi,
            vd,
            self.surface.num_patches(),
            self.surface.q,
            &mut scratch.fine,
        );
        // 2. pack, then extrapolate the layer potential along every node's
        // check line to the node (the interior limit, which includes the
        // jump): the FMM evaluates at all check points and the values are
        // combined; the dense path runs the fused line kernel
        self.pack_sources_into(&scratch.fine, &mut scratch.src);
        let lines = self.node_lines();
        let t0 = Instant::now();
        match &self.solve_fmm {
            Some(f) => {
                let vals = f.evaluate(&scratch.src);
                self.add_fmm_time(t0);
                lines.combine(&vals, vd, out);
            }
            None => {
                self.sum_lines(&lines, &scratch.src, out);
                self.add_fmm_time(t0);
            }
        }
        // 3. null-space completion N φ = n(x) · (1/|Γ|) ∫ n·φ dS
        // (normalized by the surface area so its spectral weight matches
        // the O(1) eigenvalues of 1/2 I + D)
        if self.opts.null_space && vd == 3 {
            let mut flux = 0.0;
            for m in 0..nq {
                flux += self.quad.weights[m]
                    * (self.quad.normals[m].x * phi[m * 3]
                        + self.quad.normals[m].y * phi[m * 3 + 1]
                        + self.quad.normals[m].z * phi[m * 3 + 2]);
            }
            flux /= self.quad.total_area();
            for l in 0..nq {
                out[l * 3] += self.quad.normals[l].x * flux;
                out[l * 3 + 1] += self.quad.normals[l].y * flux;
                out[l * 3 + 2] += self.quad.normals[l].z * flux;
            }
        }
    }

    /// Removes the weighted-normal component `c·n`, `c = ∮ n·v dS / ∮ dS`,
    /// from a nodal vector field — the projection that keeps right-hand
    /// sides (and warm-start guesses) compatible with the null space of the
    /// interior Stokes double-layer operator. Returns `c`.
    fn remove_normal_component(&self, v: &mut [f64]) -> f64 {
        let nq = self.quad.len();
        let mut flux = 0.0;
        let mut nn = 0.0;
        for m in 0..nq {
            let n = self.quad.normals[m];
            let w = self.quad.weights[m];
            flux += w * (n.x * v[m * 3] + n.y * v[m * 3 + 1] + n.z * v[m * 3 + 2]);
            nn += w;
        }
        let c = flux / nn;
        for m in 0..nq {
            let n = self.quad.normals[m];
            v[m * 3] -= c * n.x;
            v[m * 3 + 1] -= c * n.y;
            v[m * 3 + 2] -= c * n.z;
        }
        c
    }

    /// `A n`, applied on first use and kept.
    fn normal_image(&self) -> &[f64] {
        self.normal_image.get_or_init(|| {
            let n: Vec<f64> = self
                .quad
                .normals
                .iter()
                .flat_map(|v| v.to_array())
                .collect();
            let mut an = vec![0.0; n.len()];
            self.apply(&n, &mut an);
            an
        })
    }

    /// Solves `A φ = g` for the boundary condition `g` sampled at the
    /// coarse nodes. Returns the density and GMRES statistics.
    ///
    /// With the null-space completion active, the continuum compatibility
    /// condition `∫ g·n dS = 0` holds only to discretization accuracy; the
    /// incompatible component is removed from `g` first so GMRES does not
    /// stagnate at the quadrature-error floor.
    pub fn solve(&self, g: &[f64]) -> (Vec<f64>, GmresResult) {
        self.solve_carried(g, None, None)
    }

    /// Like [`Self::solve`], but starting GMRES from `warm` (typically the
    /// previous time step's density) instead of zero, its image unknown
    /// (one apply more than [`Self::solve_carried`] with the image).
    pub fn solve_warm(&self, g: &[f64], warm: Option<&[f64]>) -> (Vec<f64>, GmresResult) {
        self.solve_carried(g, warm, None)
    }

    /// Solves `A φ = g` from the initial guess `warm` whose image `A·warm`
    /// is `warm_image` (the previous solve's [`GmresResult::image`]), so
    /// the solve applies `A` only for its GMRES iterations (and restarts);
    /// the returned result's image is `A φ` for the next solve.
    ///
    /// The guess is projected back onto the null-space-compatible subspace
    /// first — the geometry carrying it forward has moved, so its normal
    /// component has drifted — and its image with it: `A(φ − c n) =
    /// Aφ − c·(A n)`, with `A n` applied once per solver. A guess of the
    /// wrong length (e.g. after a re-discretization) is ignored, and a
    /// missing image or one of the wrong length costs the direct apply.
    pub fn solve_carried(
        &self,
        g: &[f64],
        warm: Option<&[f64]>,
        warm_image: Option<&[f64]>,
    ) -> (Vec<f64>, GmresResult) {
        let complete = self.opts.null_space && self.vd == 3;
        let mut rhs = g.to_vec();
        if complete {
            self.remove_normal_component(&mut rhs);
        }
        let mut phi = vec![0.0; self.dim()];
        let mut image = None;
        if let Some(w) = warm.filter(|w| w.len() == phi.len()) {
            phi.copy_from_slice(w);
            image = warm_image
                .filter(|a| a.len() == phi.len())
                .map(<[f64]>::to_vec);
            if complete {
                let c = self.remove_normal_component(&mut phi);
                if let Some(image) = &mut image {
                    axpy(-c, self.normal_image(), image);
                }
            }
        }
        let op = SolverOperator { solver: self };
        let res = gmres(&op, &rhs, &mut phi, image.as_deref(), &self.opts.gmres);
        (phi, res)
    }

    /// Evaluates the solution field `u = D φ` at arbitrary points in the
    /// domain, using far (plain quadrature / FMM) or near-singular
    /// (check-point extrapolation, §3.1) evaluation per target based on the
    /// parallel closest-point search of §3.3.
    pub fn eval_at(&self, phi: &[f64], targets: &[Vec3]) -> Vec<f64> {
        let vd = self.vd;
        if targets.is_empty() {
            return Vec::new();
        }
        let fine_density =
            self.fine
                .upsample_density(phi, vd, self.surface.num_patches(), self.surface.q);
        let src = self.pack_sources(&fine_density);

        // the near zone: within 1·L̂ of some patch
        let hits = self.near.closest_points(&self.surface, targets, 1.0);
        let mut far_idx = Vec::new();
        let mut near: Vec<(usize, ClosestHit)> = Vec::new();
        for (i, h) in hits.iter().enumerate() {
            match h {
                Some(hit) => near.push((i, *hit)),
                None => far_idx.push(i),
            }
        }
        // a near target interpolates along the check line off its closest
        // point, at its own signed distance t_x along the inward line y − t n
        let p1 = self.opts.p_extrap + 1;
        let base: Vec<Vec3> = near.iter().map(|(_, hit)| hit.point).collect();
        let normal: Vec<Vec3> = near.iter().map(|(_, hit)| hit.normal).collect();
        let spacing: Vec<f64> = near
            .iter()
            .map(|(_, hit)| self.opts.check_r * self.quad.patch_size(hit.patch as usize))
            .collect();
        let mut weights = Vec::with_capacity(near.len() * p1);
        for (&(i, hit), &r) in near.iter().zip(&spacing) {
            let t_x = (hit.point - targets[i]).dot(hit.normal);
            let nodes: Vec<f64> = (0..p1).map(|m| r + m as f64 * r).collect();
            weights.extend(Interp1d::new(nodes).weights_at(t_x));
        }
        let lines = CheckLines {
            base: &base,
            normal: &normal,
            spacing: &spacing,
            weights: &weights,
        };
        let far_pts: Vec<Vec3> = far_idx.iter().map(|&i| targets[i]).collect();
        let mut far_vals = vec![0.0; far_pts.len() * vd];
        let mut near_vals = vec![0.0; near.len() * vd];
        self.summation(&src, &far_pts, &lines, &mut far_vals, &mut near_vals);

        let mut out = vec![0.0; targets.len() * vd];
        let far_slots = far_idx.iter().zip(far_vals.chunks(vd));
        let near_slots = near.iter().map(|(i, _)| i).zip(near_vals.chunks(vd));
        for (&i, v) in far_slots.chain(near_slots) {
            out[i * vd..(i + 1) * vd].copy_from_slice(v);
        }
        out
    }
}

struct SolverOperator<'a, K: LayerKernel, KE: Kernel + Clone + Sync + Send> {
    solver: &'a DoubleLayerSolver<K, KE>,
}

impl<K: LayerKernel, KE: Kernel + Clone + Sync + Send> LinearOperator
    for SolverOperator<'_, K, KE>
{
    fn dim(&self) -> usize {
        self.solver.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.solver.apply(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{laplace_sl, stokeslet, StokesEquiv};
    use patch::cube_sphere;

    fn laplace_solver(
        sub: u32,
        q: usize,
        opts: BieOptions,
    ) -> DoubleLayerSolver<LaplaceDL, kernels::LaplaceSL> {
        let s = cube_sphere(1.0, Vec3::ZERO, sub, q);
        DoubleLayerSolver::new(s, LaplaceDL, kernels::LaplaceSL, opts)
    }

    #[test]
    fn laplace_interior_dirichlet() {
        // harmonic field from an exterior charge; interior Dirichlet BIE
        let opts = BieOptions {
            eta: 2,
            p_extrap: 8,
            check_r: 0.15,
            backend: MatvecBackend::Dense,
            null_space: false,
            gmres: GmresOptions {
                tol: 1e-6,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = laplace_solver(1, 8, opts);
        let x0 = Vec3::new(2.5, 0.4, -0.3);
        let g: Vec<f64> = solver
            .quad
            .points
            .iter()
            .map(|&y| laplace_sl(y, x0, 1.0))
            .collect();
        let (phi, res) = solver.solve(&g);
        assert!(res.converged, "GMRES residual {}", res.rel_residual);
        assert!(res.iterations < 30, "iterations {}", res.iterations);
        // far interior points
        let targets = vec![
            Vec3::new(0.3, 0.0, 0.0),
            Vec3::new(-0.2, 0.4, 0.1),
            Vec3::ZERO,
        ];
        let u = solver.eval_at(&phi, &targets);
        for (i, &t) in targets.iter().enumerate() {
            let exact = laplace_sl(t, x0, 1.0);
            assert!(
                (u[i] - exact).abs() < 1e-3 * exact.abs(),
                "target {i}: {} vs {exact}",
                u[i]
            );
        }
    }

    #[test]
    fn laplace_near_surface_evaluation() {
        let opts = BieOptions {
            eta: 2,
            p_extrap: 8,
            check_r: 0.15,
            backend: MatvecBackend::Dense,
            null_space: false,
            gmres: GmresOptions {
                tol: 1e-6,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = laplace_solver(1, 8, opts);
        let x0 = Vec3::new(2.5, 0.4, -0.3);
        let g: Vec<f64> = solver
            .quad
            .points
            .iter()
            .map(|&y| laplace_sl(y, x0, 1.0))
            .collect();
        let (phi, _) = solver.solve(&g);
        // points very close to the surface (near-singular regime)
        let dirs = [
            Vec3::new(1.0, 0.2, 0.1).normalized(),
            Vec3::new(-0.3, 0.9, -0.3).normalized(),
        ];
        let targets: Vec<Vec3> = dirs.iter().map(|&d| d * 0.98).collect();
        let u = solver.eval_at(&phi, &targets);
        for (i, &t) in targets.iter().enumerate() {
            let exact = laplace_sl(t, x0, 1.0);
            assert!(
                (u[i] - exact).abs() < 5e-3 * exact.abs(),
                "near target {i}: {} vs {exact}",
                u[i]
            );
        }
    }

    #[test]
    fn stokes_interior_dirichlet() {
        // exact solution: Stokeslet at an exterior point (the Fig. 9 setup)
        let s = cube_sphere(1.0, Vec3::ZERO, 1, 8);
        let opts = BieOptions {
            eta: 2,
            p_extrap: 8,
            check_r: 0.15,
            backend: MatvecBackend::Dense,
            null_space: true,
            // the residual floor of the completed Stokes system sits at the
            // discrete-compatibility level (~1e-5 at this resolution); the
            // paper likewise caps iterations rather than solving to zero
            gmres: GmresOptions {
                tol: 5e-5,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = DoubleLayerSolver::new(s, StokesDL, StokesEquiv { mu: 1.0 }, opts);
        let x0 = Vec3::new(0.0, 2.2, 1.1);
        let f0 = Vec3::new(1.0, -0.5, 2.0);
        let mut g = Vec::with_capacity(solver.dim());
        for &y in &solver.quad.points {
            let u = stokeslet(y, x0, f0, 1.0);
            g.extend_from_slice(&[u.x, u.y, u.z]);
        }
        let (phi, res) = solver.solve(&g);
        assert!(res.converged, "GMRES residual {}", res.rel_residual);
        assert!(res.iterations < 30, "iterations {}", res.iterations);
        let targets = vec![Vec3::new(0.25, 0.1, 0.0), Vec3::new(-0.3, -0.2, 0.35)];
        let u = solver.eval_at(&phi, &targets);
        for (i, &t) in targets.iter().enumerate() {
            let exact = stokeslet(t, x0, f0, 1.0);
            let got = Vec3::new(u[i * 3], u[i * 3 + 1], u[i * 3 + 2]);
            assert!(
                (got - exact).norm() < 2e-3 * exact.norm(),
                "target {i}: {got:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn operator_application_is_linear() {
        let opts = BieOptions {
            eta: 1,
            backend: MatvecBackend::Dense,
            null_space: false,
            ..Default::default()
        };
        let solver = laplace_solver(0, 6, opts);
        let n = solver.dim();
        let phi1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let phi2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut a1 = vec![0.0; n];
        let mut a2 = vec![0.0; n];
        let mut a12 = vec![0.0; n];
        solver.apply(&phi1, &mut a1);
        solver.apply(&phi2, &mut a2);
        let sum: Vec<f64> = phi1
            .iter()
            .zip(&phi2)
            .map(|(a, b)| 2.0 * a - 3.0 * b)
            .collect();
        solver.apply(&sum, &mut a12);
        for i in 0..n {
            let expect = 2.0 * a1[i] - 3.0 * a2[i];
            assert!((a12[i] - expect).abs() < 1e-10 * (1.0 + expect.abs()));
        }
    }

    #[test]
    fn constant_density_maps_to_constant() {
        // Gauss identity at the operator level: for φ ≡ c the interior
        // limit of Dφ is exactly c (jump c/2 + PV value c/2). Its error
        // max|A·1 − 1| strictly falls with the §3.1 quadrature parameters:
        // the fine-discretization depth η (measured 4.21e-1, 2.48e-2,
        // 4.75e-5 at η = 0, 1, 2) and the check distance R = r =
        // check_r · L̂ (1.67e-3, 4.75e-5, 1.58e-6 at check_r = 0.10, 0.15,
        // 0.25), both at p = 8
        let error = |eta: u32, check_r: f64| {
            let opts = BieOptions {
                eta,
                check_r,
                backend: MatvecBackend::Dense,
                null_space: false,
                ..Default::default()
            };
            let solver = laplace_solver(1, 8, opts);
            let phi = vec![1.0; solver.dim()];
            let mut out = vec![0.0; solver.dim()];
            solver.apply(&phi, &mut out);
            out.iter().map(|v| (v - 1.0).abs()).fold(0.0, f64::max)
        };
        let base = error(2, 0.15);
        assert!(base < 5e-4, "max|A·1 − 1| = {base:.3e}");
        let by_eta = [error(0, 0.15), error(1, 0.15), base];
        let by_check_r = [error(2, 0.10), base, error(2, 0.25)];
        for errors in [by_eta, by_check_r] {
            assert!(errors.windows(2).all(|w| w[1] < w[0]), "{errors:?}");
        }
    }

    #[test]
    fn carried_solve_matches_the_applied_warm_start() {
        // the warm start's image, projected along with the density, stands
        // in for the apply GMRES would make: same density to roundoff, and
        // the returned image is the new density's (the resolution of
        // `stokes_interior_dirichlet`, where the solve converges)
        let s = cube_sphere(1.0, Vec3::ZERO, 1, 8);
        let opts = BieOptions {
            eta: 2,
            backend: MatvecBackend::Dense,
            gmres: GmresOptions {
                tol: 5e-5,
                ..Default::default()
            },
            ..Default::default()
        };
        let solver = DoubleLayerSolver::new(s, StokesDL, StokesEquiv { mu: 1.0 }, opts);
        let data = |f0: Vec3| -> Vec<f64> {
            let x0 = Vec3::new(0.0, 2.2, 1.1);
            let pts = &solver.quad.points;
            pts.iter()
                .flat_map(|&y| stokeslet(y, x0, f0, 1.0).to_array())
                .collect()
        };
        let (phi, res) = solver.solve(&data(Vec3::new(1.0, -0.5, 2.0)));
        let g = data(Vec3::new(1.1, -0.4, 2.0));
        let (carried, res_c) = solver.solve_carried(&g, Some(&phi), Some(&res.image));
        let (applied, res_a) = solver.solve_warm(&g, Some(&phi));
        assert!(res.converged && res_c.converged && res_a.converged);
        assert_eq!(res_c.iterations, res_a.iterations);
        let rel = |a: &[f64], b: &[f64]| {
            let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
            (d / b.iter().map(|y| y * y).sum::<f64>()).sqrt()
        };
        assert!(
            rel(&carried, &applied) < 1e-9,
            "{}",
            rel(&carried, &applied)
        );
        let mut direct = vec![0.0; solver.dim()];
        solver.apply(&carried, &mut direct);
        assert!(
            rel(&res_c.image, &direct) < 1e-12,
            "{}",
            rel(&res_c.image, &direct)
        );
    }
}
