//! The kernel-independent FMM evaluation engine.
//!
//! Separates *setup* (octree construction, interaction lists, point
//! permutations, evaluation plan — geometry-dependent) from *evaluation*
//! (upward pass, M2L/P2L, downward pass, P2P/L2T/M2T — density-dependent).
//! The boundary solver calls [`Fmm::evaluate`] once per GMRES iteration
//! with a new density on fixed geometry, exactly the access pattern the
//! paper's BIE-solve loop has against PVFMM.
//!
//! Evaluation is arena-based: all equivalent densities live in flat
//! level-major `Vec<f64>` buffers allocated once in [`Fmm::new`] and
//! reused across calls, and every per-node kernel sum goes through the
//! vectorized [`Kernel::eval_block`] path. The M2L stage — the dominant
//! far-field cost — is batched level by level: interactions are grouped at
//! setup into the 316 translation-offset classes and cut into 64-pair
//! blocks, and a level's blocks run as one parallel pass of dense GEMMs
//! over gathered source densities (`linalg::gemm_acc`) instead of one
//! HashMap lookup + matvec per interaction. See `crates/fmm/README.md` for
//! the layout and the before/after numbers.

use crate::ops::{cached_operators, m2l_class, FmmOperators};
use crate::surface::{cube_surface, RAD_INNER, RAD_OUTER};
use kernels::Kernel;
use linalg::{gemm_acc, Vec3};
use octree::{MortonKey, Octree, TreeOptions, MAX_DEPTH, NONE};
use parking_lot::Mutex;
use rayon::par;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Tuning parameters of the FMM.
#[derive(Clone, Copy, Debug)]
pub struct FmmOptions {
    /// Equivalent-surface order (points per cube edge). 4 ≈ 3–4 digits,
    /// 6 ≈ 5–6 digits, 8 ≈ 8 digits for the kernels used here.
    pub order: usize,
    /// Octree leaf capacity (sources + targets). The default balances the
    /// two halves of an order-4 evaluation on a surface cloud — P2P per
    /// leaf grows with capacity², M2L per leaf with `n_surf²` — see "Leaf
    /// size" in `crates/fmm/README.md` for the sweep behind it.
    pub leaf_capacity: usize,
    /// Octree depth cap.
    pub max_depth: u32,
}

impl Default for FmmOptions {
    fn default() -> Self {
        FmmOptions {
            order: 6,
            leaf_capacity: 800,
            max_depth: 14,
        }
    }
}

/// Pairs-per-block of the batched M2L dispatch: a block's gathered source
/// densities and check results must fit in L2 alongside one stream of the
/// translation operator.
const M2L_BLOCK: usize = 64;

/// Work items per parallel M2L region. A constant, never the thread count:
/// it fixes the staging layout, and the staged rows are added into the
/// check arena in item order, so the sums are the same bits on any number
/// of threads.
const M2L_BATCH: usize = 32;

/// One M2L translation-offset class at one level: all same-level V-list
/// interactions whose source anchor minus target anchor equals the class
/// offset. Within a class every target appears at most once (the offset
/// determines the source).
struct M2lGroup {
    /// Index into [`FmmOperators::m2l_t`].
    class: u16,
    /// Level-local check-arena rows of the targets (unique within the
    /// group), sorted ascending for scatter locality.
    trg_rows: Vec<u32>,
    /// Global up-arena slots of the sources, aligned with `trg_rows`.
    src_slots: Vec<u32>,
}

/// One unit of M2L work: `len ≤ M2L_BLOCK` consecutive pairs of one group,
/// i.e. one gather + one `gemm_acc` call.
struct M2lItem {
    /// Index into [`LevelPlan::groups`].
    group: u32,
    /// First pair of the block within the group.
    start: u32,
    len: u32,
}

/// Cuts every group into [`M2L_BLOCK`]-pair items, groups in order and
/// blocks in order within a group.
fn m2l_items(groups: &[M2lGroup]) -> Vec<M2lItem> {
    let mut items = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        for start in (0..g.trg_rows.len()).step_by(M2L_BLOCK) {
            items.push(M2lItem {
                group: gi as u32,
                start: start as u32,
                len: (g.trg_rows.len() - start).min(M2L_BLOCK) as u32,
            });
        }
    }
    items
}

/// Per-level portion of the evaluation plan. Node ids in slot order are
/// `tree.levels[level]` — not duplicated here.
struct LevelPlan {
    /// M2L classes with at least one interaction at this level.
    groups: Vec<M2lGroup>,
    /// The level's M2L work: every group cut into blocks, in group order.
    items: Vec<M2lItem>,
    /// Level-local check rows that receive P2L (X-list) contributions…
    x_rows: Vec<u32>,
    /// …and the node ids they belong to, aligned with `x_rows`.
    x_nodes: Vec<u32>,
    /// `h_level^{-deg}`: scale of the uc2ue / dc2de pseudo-inverse solves.
    scale_inv: f64,
    /// `h_level^{+deg}`: scale of the M2L translation.
    scale_m2l: f64,
    /// Per-component equivalent-density multipliers `h^{e_j}` applied at
    /// L2T/M2T (empty when all scale exponents are zero).
    dens_scale: Vec<f64>,
}

/// The geometry-dependent evaluation plan, fully precomputed in
/// [`Fmm::new`] so that [`Fmm::evaluate`] does no geometry work and no
/// per-node allocation.
struct EvalPlan {
    /// Stacked equivalent-density length per node (`n_surf · sdim`).
    nd_eq: usize,
    /// Stacked check-value length per node (`n_surf · vdim`).
    nd_chk: usize,
    /// Node id → global arena slot (level-major: all of level 0, then 1…).
    slot: Vec<u32>,
    /// First slot of each level; `level_ofs[levels.len()]` = total slots.
    level_ofs: Vec<usize>,
    levels: Vec<LevelPlan>,
    /// Unit-scale auxiliary cube surface (center 0, radius 1). Every
    /// node's inner (`RAD_INNER · h`) and outer (`RAD_OUTER · h`) surface
    /// is its affine image, generated into per-worker scratch at use —
    /// O(n_surf) fma against the kernel sums that consume it, and no
    /// per-node surface arrays pinned for the Fmm's lifetime.
    unit_surf: Vec<Vec3>,
    /// Whether the node's subtree contains any sources (⇒ its upward
    /// equivalent can be nonzero). Replaces the seed's per-interaction
    /// zero-scan of the source density.
    has_src: Vec<bool>,
    /// Whether the node receives V- or X-list contributions.
    receives: Vec<bool>,
    /// Whether the node or any ancestor receives (⇒ its downward
    /// equivalent can be nonzero).
    has_dn: Vec<bool>,
    /// Leaves with at least one target, in `out_ranges` order.
    leaves: Vec<u32>,
    /// Disjoint `[start, end)` ranges of the Morton-ordered output buffer,
    /// one per entry of `leaves`.
    out_ranges: Vec<(usize, usize)>,
    /// Maximum node count over levels (sizes the check arena).
    max_level_len: usize,
}

/// Flat evaluation arenas, allocated once and reused across
/// [`Fmm::evaluate`] calls.
struct Arenas {
    /// Morton-permuted source data (`n_src · sd`).
    data: Vec<f64>,
    /// Upward equivalent densities, `slots · nd_eq`, level-major.
    up: Vec<f64>,
    /// Downward equivalent densities, same layout.
    dn: Vec<f64>,
    /// Downward check values of the level currently being processed
    /// (`max_level_len · nd_chk`).
    check: Vec<f64>,
    /// M2L staging: one `M2L_BLOCK · nd_chk` result slot per work item of
    /// a batch (at most [`M2L_BATCH`] slots, fewer on a tree whose levels
    /// all hold fewer items).
    stage: Vec<f64>,
    /// Results for leaf-resident targets, in Morton target order.
    out_sorted: Vec<f64>,
    /// Results for virtual targets, grouped per [`VirtGroup`].
    virt_out: Vec<f64>,
}

/// Targets of one internal "virtual leaf" owner on a frozen source tree.
///
/// A source-only tree prunes source-free regions, so a target placed there
/// by [`Fmm::set_targets`] has an *internal* deepest covering node. Its
/// potential is assembled exactly like a leaf's — L2T from the owner's
/// downward equivalent, P2P over adjacent leaves, M2T from the W-style
/// near list — plus a recursive sweep over the owner's own subtree (the
/// part a real leaf covers via its own U-list entry).
struct VirtGroup {
    /// Internal node that covers every target of the group.
    owner: u32,
    /// Adjacent leaves (exact P2P), excluding the owner.
    u_list: Vec<u32>,
    /// Non-adjacent subtrees with adjacent parents (multipole at target).
    w_list: Vec<u32>,
    /// Original target indices, Morton-ordered.
    idx: Vec<u32>,
    /// Target points, aligned with `idx`.
    pts: Vec<Vec3>,
    /// Deep Morton codes, aligned with `idx` (sorted ascending).
    codes: Vec<u64>,
    /// `[start, end)` range of the group in the `virt_out` arena.
    out_range: (usize, usize),
}

/// Per-worker scratch (check values during S2M, the gather block of the
/// batched M2L, scaled densities at L2T/M2T). Thread-local so the passes
/// allocate nothing per node in steady state.
#[derive(Default)]
struct Scratch {
    check: Vec<f64>,
    sblk: Vec<f64>,
    dens: Vec<f64>,
    surf: Vec<Vec3>,
}

/// Writes the affine image `center + unit · radius` of the unit surface
/// into `out` — identical arithmetic to `cube_surface(p, center, radius)`.
#[inline]
fn fill_surface(unit: &[Vec3], center: Vec3, radius: f64, out: &mut Vec<Vec3>) {
    out.clear();
    out.extend(unit.iter().map(|&u| center + u * radius));
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Whether `FMM_TIMERS=1` is set (perf diagnostics on stderr: the plan's
/// per-level statistics at build, the per-pass and per-level times at every
/// evaluate). Read once per process.
fn timers_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FMM_TIMERS").is_some_and(|v| v == "1"))
}

/// A configured FMM over fixed source/target geometry.
pub struct Fmm<KS: Kernel, KE: Kernel> {
    src_kernel: KS,
    eq_kernel: KE,
    ops: Arc<FmmOperators>,
    tree: Octree,
    /// Source points in Morton order.
    src_pts: Vec<Vec3>,
    /// Target points in Morton order.
    trg_pts: Vec<Vec3>,
    n_trg: usize,
    sd: usize,
    td: usize,
    plan: EvalPlan,
    arenas: Mutex<Arenas>,
    /// Virtual-target groups of the current target set (empty unless the
    /// tree was frozen on sources only and targets fell in pruned regions).
    virt: Vec<VirtGroup>,
    /// `[start, end)` ranges into `virt_out`, aligned with `virt`.
    virt_ranges: Vec<(usize, usize)>,
    /// Original indices of targets outside the root cube…
    outside_idx: Vec<u32>,
    /// …and their points, evaluated by exact direct summation.
    outside_pts: Vec<Vec3>,
}

impl<KS: Kernel, KE: Kernel> Fmm<KS, KE> {
    /// Builds the tree, binds the precomputed operators, and lays out the
    /// evaluation plan and arenas.
    ///
    /// `src_kernel` maps the physical source data (forces, density/normal
    /// pairs) to values; `eq_kernel` is the single-layer kernel of the same
    /// PDE used for all equivalent densities (its value dimension must match
    /// `src_kernel`'s target dimension).
    pub fn new(
        src_kernel: KS,
        eq_kernel: KE,
        src: &[Vec3],
        trg: &[Vec3],
        opts: FmmOptions,
    ) -> Self {
        assert_eq!(
            src_kernel.trg_dim(),
            eq_kernel.trg_dim(),
            "source and equivalent kernels must produce the same values"
        );
        let ops = cached_operators(&eq_kernel, opts.order);
        let tree = Octree::build(
            src,
            trg,
            TreeOptions {
                leaf_capacity: opts.leaf_capacity,
                max_depth: opts.max_depth,
            },
        );
        Self::from_tree(src_kernel, eq_kernel, ops, src, trg, tree)
    }

    /// Builds a *persistent-plan* FMM: the tree is frozen on the sources
    /// alone, then the targets are bound with [`Fmm::set_targets`].
    ///
    /// Unlike [`Fmm::new`], whose tree shape depends on both point sets,
    /// the frozen tree, interaction lists, operators, and arenas are
    /// target-independent — [`Fmm::set_targets`] / [`Fmm::evaluate_at`]
    /// re-bin a moving target set in O(targets · depth) without rebuilding
    /// anything source-side. Two frozen instances over the same sources
    /// produce bit-identical results for the same targets and densities,
    /// which is what makes a long-lived replanned instance a drop-in for a
    /// fresh per-call build.
    pub fn frozen(
        src_kernel: KS,
        eq_kernel: KE,
        src: &[Vec3],
        trg: &[Vec3],
        opts: FmmOptions,
    ) -> Self {
        assert_eq!(
            src_kernel.trg_dim(),
            eq_kernel.trg_dim(),
            "source and equivalent kernels must produce the same values"
        );
        let ops = cached_operators(&eq_kernel, opts.order);
        let tree = Octree::build(
            src,
            &[],
            TreeOptions {
                leaf_capacity: opts.leaf_capacity,
                max_depth: opts.max_depth,
            },
        );
        let mut fmm = Self::from_tree(src_kernel, eq_kernel, ops, src, &[], tree);
        fmm.set_targets(trg);
        fmm
    }

    /// Shared tail of the constructors: permutes points, lays out the plan
    /// and arenas over an already-built tree.
    fn from_tree(
        src_kernel: KS,
        eq_kernel: KE,
        ops: Arc<FmmOperators>,
        src: &[Vec3],
        trg: &[Vec3],
        tree: Octree,
    ) -> Self {
        let src_pts: Vec<Vec3> = tree.src_order.iter().map(|&i| src[i as usize]).collect();
        let trg_pts: Vec<Vec3> = tree.trg_order.iter().map(|&i| trg[i as usize]).collect();
        let sd = src_kernel.src_dim();
        let td = src_kernel.trg_dim();
        let plan = build_plan(&tree, &ops);
        let widest = plan.levels.iter().map(|lp| lp.items.len()).max();
        let stage_slots = widest.map_or(0, |n| n.min(M2L_BATCH));
        let arenas = Mutex::new(Arenas {
            data: vec![0.0; src.len() * sd],
            up: vec![0.0; plan.level_ofs[plan.levels.len()] * plan.nd_eq],
            dn: vec![0.0; plan.level_ofs[plan.levels.len()] * plan.nd_eq],
            check: vec![0.0; plan.max_level_len * plan.nd_chk],
            stage: vec![0.0; stage_slots * M2L_BLOCK * plan.nd_chk],
            out_sorted: vec![0.0; trg.len() * td],
            virt_out: Vec::new(),
        });
        Fmm {
            src_kernel,
            eq_kernel,
            ops,
            tree,
            src_pts,
            trg_pts,
            n_trg: trg.len(),
            sd,
            td,
            plan,
            arenas,
            virt: Vec::new(),
            virt_ranges: Vec::new(),
            outside_idx: Vec::new(),
            outside_pts: Vec::new(),
        }
    }

    /// Re-bins a new target set onto the frozen source tree: a target-only
    /// replan. The tree structure, interaction lists, operator tables,
    /// upward/downward arenas, and the whole source side are untouched;
    /// only the per-leaf output ranges, the virtual-target groups, and the
    /// output arenas are refreshed.
    ///
    /// Targets in pruned (source-free) regions are grouped under their
    /// internal covering node and evaluated through the virtual-leaf path;
    /// targets outside the root cube are evaluated by direct summation.
    pub fn set_targets(&mut self, trg: &[Vec3]) {
        let ret = self.tree.retarget(trg);
        self.trg_pts = self
            .tree
            .trg_order
            .iter()
            .map(|&i| trg[i as usize])
            .collect();
        self.n_trg = trg.len();
        let td = self.td;

        // refresh the leaf output ranges (the only target-dependent plan
        // state; `has_dn`/`receives`/`has_src` are all source-side)
        self.plan.leaves.clear();
        self.plan.out_ranges.clear();
        for li in self.tree.leaves() {
            let node = &self.tree.nodes[li as usize];
            if node.ntrg() > 0 {
                self.plan.leaves.push(li);
                self.plan.out_ranges.push((
                    node.trg_range.0 as usize * td,
                    node.trg_range.1 as usize * td,
                ));
            }
        }

        // group virtual targets by owner (ret.virt is sorted by owner)
        self.virt.clear();
        self.virt_ranges.clear();
        let mut ofs = 0usize;
        let mut i = 0usize;
        while i < ret.virt.len() {
            let owner = ret.virt[i].0;
            let mut j = i;
            while j < ret.virt.len() && ret.virt[j].0 == owner {
                j += 1;
            }
            let (u_list, w_list) = self.tree.near_lists(owner);
            let idx: Vec<u32> = ret.virt[i..j].iter().map(|&(_, _, t)| t).collect();
            let codes: Vec<u64> = ret.virt[i..j].iter().map(|&(_, c, _)| c).collect();
            let pts: Vec<Vec3> = idx.iter().map(|&t| trg[t as usize]).collect();
            let nt = j - i;
            let out_range = (ofs * td, (ofs + nt) * td);
            self.virt.push(VirtGroup {
                owner,
                u_list,
                w_list,
                idx,
                pts,
                codes,
                out_range,
            });
            self.virt_ranges.push(out_range);
            ofs += nt;
            i = j;
        }
        self.outside_idx = ret.outside;
        self.outside_pts = self.outside_idx.iter().map(|&t| trg[t as usize]).collect();

        let mut ar = self.arenas.lock();
        ar.out_sorted.resize(self.tree.trg_order.len() * td, 0.0);
        ar.virt_out.resize(ofs * td, 0.0);
    }

    /// [`Fmm::set_targets`] followed by [`Fmm::evaluate`]: evaluates the
    /// potential of `src_data` at a fresh target set on the frozen plan.
    pub fn evaluate_at(&mut self, src_data: &[f64], trg: &[Vec3]) -> Vec<f64> {
        self.set_targets(trg);
        self.evaluate(src_data)
    }

    /// The underlying octree (e.g. for statistics).
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// Evaluates the potential of `src_data` (original source ordering,
    /// `src_dim` entries per source) at every target; returns values in the
    /// original target ordering (`trg_dim` entries per target).
    pub fn evaluate(&self, src_data: &[f64]) -> Vec<f64> {
        assert_eq!(
            src_data.len(),
            self.src_pts.len() * self.sd,
            "source data length"
        );
        let mut guard = self.arenas.lock();
        let ar = &mut *guard;

        // permute source data into Morton order
        for (pos, &orig) in self.tree.src_order.iter().enumerate() {
            let o = orig as usize * self.sd;
            ar.data[pos * self.sd..(pos + 1) * self.sd].copy_from_slice(&src_data[o..o + self.sd]);
        }

        // pass timers, printed with FMM_TIMERS=1 (perf diagnostics)
        let timers = timers_enabled();
        let t0 = Instant::now();
        self.upward(&ar.data, &mut ar.up);
        let t1 = Instant::now();
        self.downward(&ar.data, &ar.up, &mut ar.dn, &mut ar.check, &mut ar.stage);
        let t2 = Instant::now();
        self.leaf_eval(&ar.data, &ar.up, &ar.dn, &mut ar.out_sorted);
        if !self.virt.is_empty() {
            self.virtual_eval(&ar.data, &ar.up, &ar.dn, &mut ar.virt_out);
        }
        if timers {
            let t3 = Instant::now();
            eprintln!(
                "fmm timers: upward {:.2} ms, downward {:.2} ms, leaves {:.2} ms",
                (t1 - t0).as_secs_f64() * 1e3,
                (t2 - t1).as_secs_f64() * 1e3,
                (t3 - t2).as_secs_f64() * 1e3,
            );
        }

        // scatter back to the original target order
        let mut out = vec![0.0; self.n_trg * self.td];
        for (pos, &orig) in self.tree.trg_order.iter().enumerate() {
            let o = orig as usize * self.td;
            out[o..o + self.td].copy_from_slice(&ar.out_sorted[pos * self.td..(pos + 1) * self.td]);
        }
        for g in &self.virt {
            for (k, &orig) in g.idx.iter().enumerate() {
                let o = orig as usize * self.td;
                let s = g.out_range.0 + k * self.td;
                out[o..o + self.td].copy_from_slice(&ar.virt_out[s..s + self.td]);
            }
        }
        if !self.outside_idx.is_empty() {
            // out-of-cube targets: exact direct summation over all sources
            let mut tmp = vec![0.0; self.outside_pts.len() * self.td];
            self.src_kernel
                .eval_block(&self.outside_pts, &self.src_pts, &ar.data, &mut tmp);
            for (k, &orig) in self.outside_idx.iter().enumerate() {
                let o = orig as usize * self.td;
                out[o..o + self.td].copy_from_slice(&tmp[k * self.td..(k + 1) * self.td]);
            }
        }
        out
    }

    /// Upward pass: S2M at source leaves (via `eval_block` on the
    /// precomputed check surfaces), M2M up the tree. Writes the level-major
    /// `up` arena in place, finest level first.
    fn upward(&self, data: &[f64], up: &mut [f64]) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let (nd_eq, nd_chk) = (plan.nd_eq, plan.nd_chk);
        for level in (0..plan.levels.len()).rev() {
            let lp = &plan.levels[level];
            let level_nodes = &self.tree.levels[level];
            let start = plan.level_ofs[level] * nd_eq;
            let end = plan.level_ofs[level + 1] * nd_eq;
            let (head, deeper) = up.split_at_mut(end);
            let cur = &mut head[start..];
            let deeper = &*deeper;
            let deeper_base = plan.level_ofs[level + 1];
            par::chunks_mut(cur, nd_eq, |i, equiv| {
                let ni = level_nodes[i] as usize;
                if !plan.has_src[ni] {
                    equiv.fill(0.0);
                    return;
                }
                let node = &nodes[ni];
                if node.is_leaf {
                    // S2M: sources -> upward check surface -> density
                    let h = self.tree.node_half(level_nodes[i]);
                    let center = self.tree.node_center(level_nodes[i]);
                    let (a, b) = (node.src_range.0 as usize, node.src_range.1 as usize);
                    SCRATCH.with(|s| {
                        let s = &mut *s.borrow_mut();
                        fill_surface(&plan.unit_surf, center, RAD_OUTER * h, &mut s.surf);
                        s.check.resize(nd_chk, 0.0);
                        let check = &mut s.check[..nd_chk];
                        check.fill(0.0);
                        self.src_kernel.eval_block(
                            &s.surf,
                            &self.src_pts[a..b],
                            &data[a * self.sd..b * self.sd],
                            check,
                        );
                        self.ops.uc2ue.matvec_into(check, equiv);
                    });
                    for v in equiv.iter_mut() {
                        *v *= lp.scale_inv;
                    }
                } else {
                    // M2M from children (already computed: deeper level)
                    equiv.fill(0.0);
                    for (o, &c) in node.children.iter().enumerate() {
                        if c != NONE && plan.has_src[c as usize] {
                            let cs = plan.slot[c as usize] as usize - deeper_base;
                            self.ops.m2m[o].matvec_acc(
                                &deeper[cs * nd_eq..(cs + 1) * nd_eq],
                                1.0,
                                equiv,
                            );
                        }
                    }
                }
            });
        }
    }

    /// Downward pass, level by level from the root: the level's batched
    /// M2L, P2L from X lists, then the dc2de solve fused with L2L from the
    /// parent.
    fn downward(
        &self,
        data: &[f64],
        up: &[f64],
        dn: &mut [f64],
        check: &mut [f64],
        stage: &mut [f64],
    ) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let (nd_eq, nd_chk) = (plan.nd_eq, plan.nd_chk);
        let timers = timers_enabled();
        for level in 0..plan.levels.len() {
            let lp = &plan.levels[level];
            let level_nodes = &self.tree.levels[level];
            let nlev = level_nodes.len();
            let check = &mut check[..nlev * nd_chk];
            check.fill(0.0);

            let t0 = Instant::now();
            self.m2l_level(lp, up, check, stage);
            let t1 = Instant::now();

            // P2L from the X list: direct source evaluation at the
            // downward check surface
            par::for_each_row_block(check, nd_chk, &lp.x_rows, 1, |start, view| {
                let id = lp.x_nodes[start];
                let ni = id as usize;
                let h = self.tree.node_half(id);
                let center = self.tree.node_center(id);
                let row = view.row(0);
                SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    fill_surface(&plan.unit_surf, center, RAD_INNER * h, &mut s.surf);
                    for &x in &nodes[ni].x_list {
                        let (a, b) = (
                            nodes[x as usize].src_range.0 as usize,
                            nodes[x as usize].src_range.1 as usize,
                        );
                        if a == b {
                            continue;
                        }
                        self.src_kernel.eval_block(
                            &s.surf,
                            &self.src_pts[a..b],
                            &data[a * self.sd..b * self.sd],
                            row,
                        );
                    }
                });
            });
            let t2 = Instant::now();

            // dc2de solve + L2L from the parent, writing dn in place
            let dstart = plan.level_ofs[level] * nd_eq;
            let (shallower, rest) = dn.split_at_mut(dstart);
            let cur = &mut rest[..nlev * nd_eq];
            let check = &*check;
            par::chunks_mut(cur, nd_eq, |i, equiv| {
                let ni = level_nodes[i] as usize;
                if !plan.has_dn[ni] {
                    equiv.fill(0.0);
                    return;
                }
                if plan.receives[ni] {
                    self.ops
                        .dc2de
                        .matvec_into(&check[i * nd_chk..(i + 1) * nd_chk], equiv);
                    for v in equiv.iter_mut() {
                        *v *= lp.scale_inv;
                    }
                } else {
                    equiv.fill(0.0);
                }
                let node = &nodes[ni];
                if node.parent != NONE && plan.has_dn[node.parent as usize] {
                    let ps = plan.slot[node.parent as usize] as usize;
                    let oct = node.key.child_index();
                    self.ops.l2l[oct].matvec_acc(
                        &shallower[ps * nd_eq..(ps + 1) * nd_eq],
                        1.0,
                        equiv,
                    );
                }
            });
            if timers {
                eprintln!(
                    "fmm timers: level {level}: m2l {:.2} ms, p2l {:.2} ms, dc2de+l2l {:.2} ms",
                    (t1 - t0).as_secs_f64() * 1e3,
                    (t2 - t1).as_secs_f64() * 1e3,
                    t2.elapsed().as_secs_f64() * 1e3,
                );
            }
        }
    }

    /// M2L of one level into its (zeroed) check rows. [`M2L_BATCH`] work
    /// items at a time run in parallel, each gathering its sources and
    /// multiplying into its own staging slot; the staged rows are then
    /// added into `check` serially in item order. A row therefore receives
    /// its classes' contributions in class order whatever the thread
    /// count — and a parallel region is a batch of items, not one class,
    /// so a shallow level's 47-pair classes no longer run one at a time.
    fn m2l_level(&self, lp: &LevelPlan, up: &[f64], check: &mut [f64], stage: &mut [f64]) {
        let (nd_eq, nd_chk) = (self.plan.nd_eq, self.plan.nd_chk);
        let slot_len = M2L_BLOCK * nd_chk;
        for batch in lp.items.chunks(M2L_BATCH) {
            par::chunks_mut(&mut stage[..batch.len() * slot_len], slot_len, |k, y| {
                let it = &batch[k];
                let g = &lp.groups[it.group as usize];
                let a_t = self.ops.m2l_t[g.class as usize]
                    .as_ref()
                    .expect("V-list offset outside precomputed M2L set");
                let (start, b) = (it.start as usize, it.len as usize);
                SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    s.sblk.resize(M2L_BLOCK * nd_eq, 0.0);
                    // gather source densities as block rows
                    for (r, &ss) in g.src_slots[start..start + b].iter().enumerate() {
                        let ss = ss as usize;
                        s.sblk[r * nd_eq..(r + 1) * nd_eq]
                            .copy_from_slice(&up[ss * nd_eq..(ss + 1) * nd_eq]);
                    }
                    // Checkᵀ-block = h^{deg} · Equivᵀ-block · Kᵀ
                    y[..b * nd_chk].fill(0.0);
                    gemm_acc(b, nd_chk, nd_eq, lp.scale_m2l, &s.sblk, a_t.data(), y);
                });
            });
            for (it, y) in batch.iter().zip(stage.chunks(slot_len)) {
                let g = &lp.groups[it.group as usize];
                let rows = &g.trg_rows[it.start as usize..(it.start + it.len) as usize];
                for (&row, yrow) in rows.iter().zip(y.chunks(nd_chk)) {
                    let row = row as usize;
                    for (c, y) in check[row * nd_chk..(row + 1) * nd_chk].iter_mut().zip(yrow) {
                        *c += y;
                    }
                }
            }
        }
    }

    /// Leaf evaluation: P2P over U lists, L2T from the own downward
    /// equivalent, M2T from W-list multipoles — all through `eval_block`,
    /// in parallel over leaves (disjoint target ranges).
    fn leaf_eval(&self, data: &[f64], up: &[f64], dn: &[f64], out_sorted: &mut [f64]) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let nd_eq = plan.nd_eq;
        let sdim = self.ops.sdim;
        out_sorted.fill(0.0);
        par::for_each_disjoint_range(out_sorted, &plan.out_ranges, |i, out| {
            let li = plan.leaves[i] as usize;
            let node = &nodes[li];
            let (t0, t1) = (node.trg_range.0 as usize, node.trg_range.1 as usize);
            let trgs = &self.trg_pts[t0..t1];

            // P2P over the U list
            for &u in &node.u_list {
                let un = &nodes[u as usize];
                let (a, b) = (un.src_range.0 as usize, un.src_range.1 as usize);
                if a == b {
                    continue;
                }
                self.src_kernel.eval_block(
                    trgs,
                    &self.src_pts[a..b],
                    &data[a * self.sd..b * self.sd],
                    out,
                );
            }

            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                // L2T: own downward equivalent density on the outer surface
                if plan.has_dn[li] {
                    let slot = plan.slot[li] as usize;
                    let lp = &plan.levels[node.key.level as usize];
                    let h = self.tree.node_half(plan.leaves[i]);
                    let center = self.tree.node_center(plan.leaves[i]);
                    fill_surface(&plan.unit_surf, center, RAD_OUTER * h, &mut s.surf);
                    let row = &dn[slot * nd_eq..(slot + 1) * nd_eq];
                    let dens = scaled_density(row, &lp.dens_scale, sdim, &mut s.dens);
                    self.eq_kernel.eval_block(trgs, &s.surf, dens, out);
                }
                // M2T: W-list multipoles evaluated directly at the targets
                for &w in &node.w_list {
                    if !plan.has_src[w as usize] {
                        continue;
                    }
                    let slot = plan.slot[w as usize] as usize;
                    let lp = &plan.levels[nodes[w as usize].key.level as usize];
                    let h = self.tree.node_half(w);
                    let center = self.tree.node_center(w);
                    fill_surface(&plan.unit_surf, center, RAD_INNER * h, &mut s.surf);
                    let row = &up[slot * nd_eq..(slot + 1) * nd_eq];
                    let dens = scaled_density(row, &lp.dens_scale, sdim, &mut s.dens);
                    self.eq_kernel.eval_block(trgs, &s.surf, dens, out);
                }
            });
        });
    }

    /// Evaluation at virtual targets: exactly the leaf contribution paths
    /// with the internal owner playing the leaf's role — L2T from the
    /// owner's downward equivalent, P2P over its adjacent leaves, M2T from
    /// its W-style list — plus [`Fmm::near_rec`] over the owner's own
    /// subtree (the sources a real leaf covers via its self U-list entry).
    fn virtual_eval(&self, data: &[f64], up: &[f64], dn: &[f64], virt_out: &mut [f64]) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let nd_eq = plan.nd_eq;
        let sdim = self.ops.sdim;
        virt_out.fill(0.0);
        par::for_each_disjoint_range(virt_out, &self.virt_ranges, |i, out| {
            let g = &self.virt[i];
            let trgs = &g.pts[..];

            // P2P over adjacent leaves
            for &u in &g.u_list {
                let un = &nodes[u as usize];
                let (a, b) = (un.src_range.0 as usize, un.src_range.1 as usize);
                if a == b {
                    continue;
                }
                self.src_kernel.eval_block(
                    trgs,
                    &self.src_pts[a..b],
                    &data[a * self.sd..b * self.sd],
                    out,
                );
            }

            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                // L2T: the owner's downward equivalent is valid anywhere
                // inside the owner's cube
                let oi = g.owner as usize;
                if plan.has_dn[oi] {
                    let slot = plan.slot[oi] as usize;
                    let lp = &plan.levels[nodes[oi].key.level as usize];
                    let h = self.tree.node_half(g.owner);
                    let center = self.tree.node_center(g.owner);
                    fill_surface(&plan.unit_surf, center, RAD_OUTER * h, &mut s.surf);
                    let row = &dn[slot * nd_eq..(slot + 1) * nd_eq];
                    let dens = scaled_density(row, &lp.dens_scale, sdim, &mut s.dens);
                    self.eq_kernel.eval_block(trgs, &s.surf, dens, out);
                }
                // M2T: W-style multipoles (non-adjacent to the owner, so
                // at least three half-widths from any interior target)
                for &w in &g.w_list {
                    if !plan.has_src[w as usize] {
                        continue;
                    }
                    let slot = plan.slot[w as usize] as usize;
                    let lp = &plan.levels[nodes[w as usize].key.level as usize];
                    let h = self.tree.node_half(w);
                    let center = self.tree.node_center(w);
                    fill_surface(&plan.unit_surf, center, RAD_INNER * h, &mut s.surf);
                    let row = &up[slot * nd_eq..(slot + 1) * nd_eq];
                    let dens = scaled_density(row, &lp.dens_scale, sdim, &mut s.dens);
                    self.eq_kernel.eval_block(trgs, &s.surf, dens, out);
                }
                // sources inside the owner's own subtree
                for &c in &nodes[oi].children {
                    if c != NONE {
                        self.near_rec(g, c, 0, g.pts.len(), data, up, out, s);
                    }
                }
            });
        });
    }

    /// Recursive near-field sweep of subtree `m` against the Morton-sorted
    /// target run `[lo, hi)` of group `g`.
    ///
    /// Targets are partitioned into runs sharing their (virtual) cell at
    /// `m`'s level. A run whose cell is not adjacent to `m` takes `m`'s
    /// multipole directly (same-level non-adjacency gives the same ≥ 3·h
    /// margin as the V/W lists); an adjacent leaf is summed exactly; an
    /// adjacent internal node recurses into its children.
    #[allow(clippy::too_many_arguments)]
    fn near_rec(
        &self,
        g: &VirtGroup,
        m: u32,
        lo: usize,
        hi: usize,
        data: &[f64],
        up: &[f64],
        out: &mut [f64],
        s: &mut Scratch,
    ) {
        let plan = &self.plan;
        let mnode = &self.tree.nodes[m as usize];
        let level = mnode.key.level;
        let (nd_eq, sdim, td) = (plan.nd_eq, self.ops.sdim, self.td);
        let mut a = lo;
        while a < hi {
            let cell = MortonKey {
                level: MAX_DEPTH,
                code: g.codes[a],
            }
            .ancestor_at(level);
            let ub = cell.code + (1u64 << (3 * (MAX_DEPTH - level) as u64).min(63));
            let b = a + g.codes[a..hi].partition_point(|&c| c < ub);
            if !mnode.key.is_adjacent(cell) {
                if plan.has_src[m as usize] {
                    let slot = plan.slot[m as usize] as usize;
                    let lp = &plan.levels[level as usize];
                    let h = self.tree.node_half(m);
                    let center = self.tree.node_center(m);
                    fill_surface(&plan.unit_surf, center, RAD_INNER * h, &mut s.surf);
                    let row = &up[slot * nd_eq..(slot + 1) * nd_eq];
                    let dens = scaled_density(row, &lp.dens_scale, sdim, &mut s.dens);
                    self.eq_kernel.eval_block(
                        &g.pts[a..b],
                        &s.surf,
                        dens,
                        &mut out[a * td..b * td],
                    );
                }
            } else if mnode.is_leaf {
                let (sa, sb) = (mnode.src_range.0 as usize, mnode.src_range.1 as usize);
                if sa < sb {
                    self.src_kernel.eval_block(
                        &g.pts[a..b],
                        &self.src_pts[sa..sb],
                        &data[sa * self.sd..sb * self.sd],
                        &mut out[a * td..b * td],
                    );
                }
            } else {
                for &c in &mnode.children {
                    if c != NONE {
                        self.near_rec(g, c, a, b, data, up, out, s);
                    }
                }
            }
            a = b;
        }
    }
}

/// Applies the storage-scale convention without allocating: stored
/// equivalent densities on a surface of half-width `h` represent physical
/// strengths `stored · h^{e_c}` per component (see
/// [`kernels::Kernel::src_scale_exponents`]). Returns the row itself when
/// all exponents are zero.
fn scaled_density<'a>(
    row: &'a [f64],
    dens_scale: &[f64],
    sdim: usize,
    scratch: &'a mut Vec<f64>,
) -> &'a [f64] {
    if dens_scale.is_empty() {
        return row;
    }
    scratch.resize(row.len(), 0.0);
    for (j, (dst, src)) in scratch.iter_mut().zip(row).enumerate() {
        *dst = src * dens_scale[j % sdim];
    }
    &scratch[..row.len()]
}

/// Builds the geometry-dependent evaluation plan: arena slots, per-level
/// scale tables, auxiliary surfaces, source/receive flags, M2L offset-class
/// buckets, and leaf output ranges.
fn build_plan(tree: &Octree, ops: &FmmOperators) -> EvalPlan {
    let nodes = &tree.nodes;
    let n_levels = tree.levels.len();
    let nd_eq = ops.n_surf * ops.sdim;
    let nd_chk = ops.n_surf * ops.vdim;

    // level-major slot assignment
    let mut slot = vec![0u32; nodes.len()];
    let mut level_ofs = Vec::with_capacity(n_levels + 1);
    level_ofs.push(0usize);
    let mut next = 0u32;
    for level_nodes in &tree.levels {
        for &ni in level_nodes {
            slot[ni as usize] = next;
            next += 1;
        }
        level_ofs.push(next as usize);
    }
    let max_level_len = tree.levels.iter().map(|l| l.len()).max().unwrap_or(0);

    // subtree-has-sources flags, finest level first
    let mut has_src = vec![false; nodes.len()];
    for level_nodes in tree.levels.iter().rev() {
        for &ni in level_nodes {
            let node = &nodes[ni as usize];
            has_src[ni as usize] = if node.is_leaf {
                node.nsrc() > 0
            } else {
                node.children
                    .iter()
                    .any(|&c| c != NONE && has_src[c as usize])
            };
        }
    }

    // receive flags: V-list sources with multipoles, or X-list sources
    let mut receives = vec![false; nodes.len()];
    let mut has_dn = vec![false; nodes.len()];
    for level_nodes in &tree.levels {
        for &ni in level_nodes {
            let node = &nodes[ni as usize];
            let r = node.v_list.iter().any(|&v| has_src[v as usize])
                || node.x_list.iter().any(|&x| nodes[x as usize].nsrc() > 0);
            receives[ni as usize] = r;
            has_dn[ni as usize] = r || (node.parent != NONE && has_dn[node.parent as usize]);
        }
    }

    // per-level plans: scale tables, M2L class buckets, X-list rows
    let exps = &ops.scale_exps;
    let scaling = exps.iter().any(|&e| e != 0);
    let levels: Vec<LevelPlan> = (0..n_levels)
        .map(|level| {
            let level_nodes = &tree.levels[level];
            let h = tree.half / (1u64 << level) as f64;
            let dens_scale = if scaling {
                exps.iter().map(|&e| h.powi(e)).collect()
            } else {
                Vec::new()
            };

            // bucket V-list interactions by translation-offset class
            let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); crate::ops::M2L_CLASSES];
            for (row, &ni) in level_nodes.iter().enumerate() {
                let node = &nodes[ni as usize];
                if node.v_list.is_empty() {
                    continue;
                }
                let (tx, ty, tz) = node.key.anchor();
                for &v in &node.v_list {
                    if !has_src[v as usize] {
                        continue;
                    }
                    let (sx, sy, sz) = nodes[v as usize].key.anchor();
                    let class = m2l_class(
                        (sx as i64 - tx as i64) as i8,
                        (sy as i64 - ty as i64) as i8,
                        (sz as i64 - tz as i64) as i8,
                    )
                    .expect("V-list offset outside the [-3,3] cube");
                    buckets[class].push((row as u32, slot[v as usize]));
                }
            }
            let mut groups = Vec::new();
            for (class, mut pairs) in buckets.into_iter().enumerate() {
                if pairs.is_empty() {
                    continue;
                }
                pairs.sort_unstable();
                groups.push(M2lGroup {
                    class: class as u16,
                    trg_rows: pairs.iter().map(|p| p.0).collect(),
                    src_slots: pairs.iter().map(|p| p.1).collect(),
                });
            }

            let mut x_rows = Vec::new();
            let mut x_nodes = Vec::new();
            for (row, &ni) in level_nodes.iter().enumerate() {
                let node = &nodes[ni as usize];
                if node.x_list.iter().any(|&x| nodes[x as usize].nsrc() > 0) {
                    x_rows.push(row as u32);
                    x_nodes.push(ni);
                }
            }

            LevelPlan {
                items: m2l_items(&groups),
                groups,
                x_rows,
                x_nodes,
                scale_inv: h.powf(-ops.deg),
                scale_m2l: h.powf(ops.deg),
                dens_scale,
            }
        })
        .collect();

    // leaves with targets and their (disjoint) Morton-ordered out ranges
    let td = ops.vdim;
    let mut leaves = Vec::new();
    let mut out_ranges = Vec::new();
    for li in tree.leaves() {
        let node = &nodes[li as usize];
        if node.ntrg() > 0 {
            leaves.push(li);
            out_ranges.push((
                node.trg_range.0 as usize * td,
                node.trg_range.1 as usize * td,
            ));
        }
    }

    if timers_enabled() {
        for (l, lp) in levels.iter().enumerate() {
            let pairs: usize = lp.groups.iter().map(|g| g.trg_rows.len()).sum();
            eprintln!(
                "fmm plan: level {l}: {} nodes, {} m2l groups, {} pairs, {} items, {} x-rows",
                tree.levels[l].len(),
                lp.groups.len(),
                pairs,
                lp.items.len(),
                lp.x_rows.len()
            );
        }
    }
    EvalPlan {
        nd_eq,
        nd_chk,
        slot,
        level_ofs,
        levels,
        unit_surf: cube_surface(ops.p, Vec3::ZERO, 1.0),
        has_src,
        receives,
        has_dn,
        leaves,
        out_ranges,
        max_level_len,
    }
}

/// One-shot convenience wrapper: builds the tree and evaluates once.
pub fn fmm_evaluate<KS: Kernel + Clone, KE: Kernel + Clone>(
    src_kernel: &KS,
    eq_kernel: &KE,
    src: &[Vec3],
    src_data: &[f64],
    trg: &[Vec3],
    opts: FmmOptions,
) -> Vec<f64> {
    Fmm::new(src_kernel.clone(), eq_kernel.clone(), src, trg, opts).evaluate(src_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{direct_eval, LaplaceSL, StokesDL, StokesEquiv, StokesSL};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn cloud(rng: &mut StdRng, n: usize, spread: f64, offset: Vec3) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                offset
                    + Vec3::new(
                        rng.random_range(-spread..spread),
                        rng.random_range(-spread..spread),
                        rng.random_range(-spread..spread),
                    )
            })
            .collect()
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
        num / den.max(1e-300)
    }

    #[test]
    fn laplace_matches_direct_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let src = cloud(&mut rng, 1500, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 700, 1.0, Vec3::ZERO);
        let data: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let k = LaplaceSL;
        let approx = fmm_evaluate(
            &k,
            &k,
            &src,
            &data,
            &trg,
            FmmOptions {
                order: 6,
                leaf_capacity: 60,
                max_depth: 10,
            },
        );
        let mut exact = vec![0.0; trg.len()];
        direct_eval(&k, &src, &data, &trg, &mut exact);
        let e = rel_err(&approx, &exact);
        assert!(e < 1e-5, "relative error {e}");
    }

    #[test]
    fn laplace_matches_direct_clustered() {
        // strong adaptivity: two tight clusters + sparse background
        let mut rng = StdRng::seed_from_u64(8);
        let mut src = cloud(&mut rng, 600, 0.02, Vec3::new(0.7, 0.7, 0.7));
        src.extend(cloud(&mut rng, 600, 0.02, Vec3::new(-0.7, -0.7, -0.7)));
        src.extend(cloud(&mut rng, 100, 1.0, Vec3::ZERO));
        let trg = src.clone();
        let data: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let k = LaplaceSL;
        let approx = fmm_evaluate(
            &k,
            &k,
            &src,
            &data,
            &trg,
            FmmOptions {
                order: 6,
                leaf_capacity: 50,
                max_depth: 12,
            },
        );
        let mut exact = vec![0.0; trg.len()];
        direct_eval(&k, &src, &data, &trg, &mut exact);
        let e = rel_err(&approx, &exact);
        assert!(e < 1e-5, "relative error {e}");
    }

    #[test]
    fn stokes_single_layer_matches_direct() {
        let mut rng = StdRng::seed_from_u64(9);
        let src = cloud(&mut rng, 900, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 400, 1.0, Vec3::ZERO);
        let data: Vec<f64> = (0..src.len() * 3)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let k = StokesSL { mu: 0.7 };
        let approx = fmm_evaluate(
            &k,
            &k,
            &src,
            &data,
            &trg,
            FmmOptions {
                order: 6,
                leaf_capacity: 70,
                max_depth: 10,
            },
        );
        let mut exact = vec![0.0; trg.len() * 3];
        direct_eval(&k, &src, &data, &trg, &mut exact);
        let e = rel_err(&approx, &exact);
        assert!(e < 1e-4, "relative error {e}");
    }

    /// Stokes double-layer FMM against direct summation: stresslet sources
    /// (`data` = density + unit normal per source), Stokeslet-plus-source
    /// equivalent densities — the configuration the boundary solver uses
    /// (stresslets carry net mass flux, hence the augmented kernel).
    fn stokes_dl_rel_err(src: &[Vec3], data: &[f64], trg: &[Vec3], opts: FmmOptions) -> f64 {
        let sk = StokesDL;
        let approx = fmm_evaluate(&sk, &StokesEquiv { mu: 1.0 }, src, data, trg, opts);
        let mut exact = vec![0.0; trg.len() * 3];
        direct_eval(&sk, src, data, trg, &mut exact);
        rel_err(&approx, &exact)
    }

    /// `n` points at radius `radius(rng)` around the axis of a tube of
    /// length 4, each with a random density and its radial unit normal
    /// (stresslet source data).
    fn tube_cloud(
        rng: &mut StdRng,
        n: usize,
        radius: impl Fn(&mut StdRng) -> f64,
    ) -> (Vec<Vec3>, Vec<f64>) {
        let mut pts = Vec::with_capacity(n);
        let mut data = Vec::with_capacity(n * 6);
        for _ in 0..n {
            let th = rng.random_range(0.0..std::f64::consts::TAU);
            let rr = radius(rng);
            let z = rng.random_range(-2.0..2.0);
            pts.push(Vec3::new(rr * th.cos(), rr * th.sin(), z));
            for _ in 0..3 {
                data.push(rng.random_range(-1.0..1.0));
            }
            data.extend_from_slice(&[th.cos(), th.sin(), 0.0]);
        }
        (pts, data)
    }

    #[test]
    fn stokes_double_layer_matches_direct() {
        let mut rng = StdRng::seed_from_u64(10);
        let src = cloud(&mut rng, 800, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 300, 1.0, Vec3::new(0.1, 0.0, 0.0));
        let mut data = Vec::with_capacity(src.len() * 6);
        for _ in 0..src.len() {
            for _ in 0..3 {
                data.push(rng.random_range(-1.0..1.0));
            }
            let n = Vec3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
            )
            .normalized();
            data.extend_from_slice(&[n.x, n.y, n.z]);
        }
        let opts = FmmOptions {
            order: 6,
            leaf_capacity: 60,
            max_depth: 10,
        };
        let e = stokes_dl_rel_err(&src, &data, &trg, opts);
        assert!(e < 1e-4, "relative error {e}");
    }

    /// The default leaf capacity trades translations for exact pairs, so on
    /// the wall's geometry (sources on a tube, targets just inside it) it
    /// must be at least as accurate as the 160 it replaced — with a tree
    /// still deep enough to translate (a one-leaf tree would pass
    /// trivially).
    #[test]
    fn default_capacity_is_no_less_accurate_than_160_on_a_tube() {
        let mut rng = StdRng::seed_from_u64(14);
        let (src, data) = tube_cloud(&mut rng, 9000, |_| 1.0);
        let (trg, _) = tube_cloud(&mut rng, 3000, |rng| rng.random_range(0.8..0.97));
        let default_cap = FmmOptions::default().leaf_capacity;
        let tree = Octree::build(
            &src,
            &trg,
            TreeOptions {
                leaf_capacity: default_cap,
                max_depth: 14,
            },
        );
        assert!(
            tree.nodes.iter().any(|n| !n.v_list.is_empty()),
            "cloud too small to exercise M2L at capacity {default_cap}"
        );
        for order in [4, 6] {
            let err = |leaf_capacity| {
                let opts = FmmOptions {
                    order,
                    leaf_capacity,
                    ..Default::default()
                };
                stokes_dl_rel_err(&src, &data, &trg, opts)
            };
            let (e_new, e_old) = (err(default_cap), err(160));
            assert!(
                e_new <= e_old,
                "order {order}: capacity {default_cap} error {e_new} vs 160 error {e_old}"
            );
        }
    }

    /// The per-class M2L dispatch [`Fmm::m2l_level`] replaced, kept as its
    /// bitwise oracle: one parallel region per offset class over 64-pair
    /// blocks, each block adding its result rows straight into `check`.
    fn m2l_level_per_class<KS: Kernel, KE: Kernel>(
        fmm: &Fmm<KS, KE>,
        lp: &LevelPlan,
        up: &[f64],
        check: &mut [f64],
    ) {
        let (nd_eq, nd_chk) = (fmm.plan.nd_eq, fmm.plan.nd_chk);
        for g in &lp.groups {
            let a_t = fmm.ops.m2l_t[g.class as usize].as_ref().unwrap();
            par::for_each_row_block(check, nd_chk, &g.trg_rows, M2L_BLOCK, |start, view| {
                let b = view.len();
                let mut sblk = vec![0.0; M2L_BLOCK * nd_eq];
                let mut yblk = vec![0.0; M2L_BLOCK * nd_chk];
                for r in 0..b {
                    let ss = g.src_slots[start + r] as usize;
                    sblk[r * nd_eq..(r + 1) * nd_eq]
                        .copy_from_slice(&up[ss * nd_eq..(ss + 1) * nd_eq]);
                }
                gemm_acc(b, nd_chk, nd_eq, lp.scale_m2l, &sblk, a_t.data(), &mut yblk);
                for r in 0..b {
                    let yrow = &yblk[r * nd_chk..(r + 1) * nd_chk];
                    for (c, y) in view.row(r).iter_mut().zip(yrow) {
                        *c += y;
                    }
                }
            });
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Level-wide staged M2L against the per-class loop, bit for bit, on a
    /// Stokes-DL surface cloud: every level of the real plan, then one
    /// level re-cut into classes of 1, 47, 64, 65 and 130 pairs that all
    /// hit the same rows (a short class, the refined wall's old level-4
    /// class size, an exact block, a block plus one, two blocks plus two) —
    /// and the same bits again on 1, 2 and 4 threads.
    #[test]
    fn level_wide_m2l_matches_per_class_dispatch_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let (src, data) = tube_cloud(&mut rng, 6000, |_| 1.0);
        let (trg, _) = tube_cloud(&mut rng, 2000, |rng| rng.random_range(0.8..0.97));
        let opts = FmmOptions {
            order: 4,
            leaf_capacity: 40,
            max_depth: 10,
        };
        let mut fmm = Fmm::new(StokesDL, StokesEquiv { mu: 1.0 }, &src, &trg, opts);
        let reference = fmm.evaluate(&data);
        let up = fmm.arenas.lock().up.clone();
        let nd_chk = fmm.plan.nd_chk;

        let staged_vs_per_class = |fmm: &Fmm<StokesDL, StokesEquiv>, lp: &LevelPlan, n: usize| {
            let mut stage = vec![0.0; M2L_BATCH * M2L_BLOCK * nd_chk];
            let mut staged = vec![0.0; n * nd_chk];
            fmm.m2l_level(lp, &up, &mut staged, &mut stage);
            let mut per_class = vec![0.0; n * nd_chk];
            m2l_level_per_class(fmm, lp, &up, &mut per_class);
            assert!(staged.iter().any(|&v| v != 0.0) || lp.groups.is_empty());
            assert_eq!(bits(&staged), bits(&per_class));
            staged
        };
        for (level, lp) in fmm.plan.levels.iter().enumerate() {
            staged_vs_per_class(&fmm, lp, fmm.tree.levels[level].len());
        }

        // re-cut the widest level into classes of the sizes that matter
        let level = (0..fmm.plan.levels.len())
            .max_by_key(|&l| fmm.tree.levels[l].len())
            .unwrap();
        let nlev = fmm.tree.levels[level].len();
        assert!(nlev >= 130, "widest level has {nlev} nodes");
        let base = fmm.plan.level_ofs[level] as u32;
        let groups: Vec<M2lGroup> = [1usize, 47, 64, 65, 130]
            .iter()
            .zip(&fmm.plan.levels[level].groups)
            .map(|(&n, real)| M2lGroup {
                class: real.class,
                trg_rows: (0..n as u32).collect(),
                src_slots: (0..n as u32)
                    .map(|i| base + (7 * i + n as u32) % nlev as u32)
                    .collect(),
            })
            .collect();
        assert_eq!(groups.len(), 5);
        let lp = &mut fmm.plan.levels[level];
        lp.items = m2l_items(&groups);
        lp.groups = groups;
        assert_eq!(
            lp.items.iter().map(|it| it.len).collect::<Vec<_>>(),
            [1, 47, 64, 64, 1, 64, 64, 2]
        );
        let recut = staged_vs_per_class(&fmm, &fmm.plan.levels[level], nlev);

        // thread-count independence, of the re-cut level and of a whole
        // evaluate on it
        let whole = fmm.evaluate(&data);
        assert_ne!(bits(&whole), bits(&reference));
        for threads in [1, 2, 4] {
            par::with_override(threads, || {
                let again = staged_vs_per_class(&fmm, &fmm.plan.levels[level], nlev);
                assert_eq!(bits(&again), bits(&recut), "{threads} threads");
                assert_eq!(
                    bits(&fmm.evaluate(&data)),
                    bits(&whole),
                    "{threads} threads"
                );
            });
        }
    }

    #[test]
    fn accuracy_improves_with_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let src = cloud(&mut rng, 800, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 200, 1.0, Vec3::ZERO);
        let data: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let k = LaplaceSL;
        let mut exact = vec![0.0; trg.len()];
        direct_eval(&k, &src, &data, &trg, &mut exact);
        let errs: Vec<f64> = [4usize, 6]
            .iter()
            .map(|&p| {
                let approx = fmm_evaluate(
                    &k,
                    &k,
                    &src,
                    &data,
                    &trg,
                    FmmOptions {
                        order: p,
                        leaf_capacity: 50,
                        max_depth: 10,
                    },
                );
                rel_err(&approx, &exact)
            })
            .collect();
        assert!(errs[1] < errs[0] * 0.5, "orders 4/6 errors: {errs:?}");
    }

    #[test]
    fn reusable_geometry_multiple_densities() {
        let mut rng = StdRng::seed_from_u64(12);
        let src = cloud(&mut rng, 500, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 200, 1.0, Vec3::ZERO);
        let k = LaplaceSL;
        let fmm = Fmm::new(
            k,
            k,
            &src,
            &trg,
            FmmOptions {
                order: 4,
                leaf_capacity: 40,
                max_depth: 10,
            },
        );
        for seed in 0..3 {
            let mut r2 = StdRng::seed_from_u64(100 + seed);
            let data: Vec<f64> = (0..src.len()).map(|_| r2.random_range(-1.0..1.0)).collect();
            let approx = fmm.evaluate(&data);
            let mut exact = vec![0.0; trg.len()];
            direct_eval(&k, &src, &data, &trg, &mut exact);
            assert!(rel_err(&approx, &exact) < 1e-3);
        }
    }

    /// Arena reuse must not leak state between densities: evaluating A,
    /// then B, then A again must reproduce A's result bit-for-bit.
    #[test]
    fn repeated_evaluation_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        let src = cloud(&mut rng, 600, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 250, 1.0, Vec3::ZERO);
        let k = LaplaceSL;
        let fmm = Fmm::new(
            k,
            k,
            &src,
            &trg,
            FmmOptions {
                order: 4,
                leaf_capacity: 40,
                max_depth: 10,
            },
        );
        let da: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let db: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let first = fmm.evaluate(&da);
        let _ = fmm.evaluate(&db);
        let again = fmm.evaluate(&da);
        assert_eq!(first, again);
    }

    #[test]
    fn small_problem_is_pure_p2p() {
        // fewer points than leaf capacity: single-leaf tree, exact result
        let mut rng = StdRng::seed_from_u64(13);
        let src = cloud(&mut rng, 30, 1.0, Vec3::ZERO);
        let trg = cloud(&mut rng, 20, 1.0, Vec3::ZERO);
        let data: Vec<f64> = (0..30).map(|_| rng.random_range(-1.0..1.0)).collect();
        let k = LaplaceSL;
        let approx = fmm_evaluate(&k, &k, &src, &data, &trg, FmmOptions::default());
        let mut exact = vec![0.0; 20];
        direct_eval(&k, &src, &data, &trg, &mut exact);
        for (a, b) in approx.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-14);
        }
    }
}
