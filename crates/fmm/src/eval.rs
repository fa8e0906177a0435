//! The kernel-independent FMM evaluation engine.
//!
//! Separates *setup* (octree construction, interaction lists, point
//! permutations, evaluation plan — geometry-dependent) from *evaluation*
//! (upward pass, M2L/P2L, downward pass, P2P/L2T/M2T — density-dependent).
//! The boundary solver calls [`Fmm::evaluate`] once per GMRES iteration
//! with a new density on fixed geometry, exactly the access pattern the
//! paper's BIE-solve loop has against PVFMM.
//!
//! Targets are evaluated in *target groups*: every in-cube target belongs
//! to the deepest node covering it (its owner) and takes L2T from the
//! owner's downward equivalent plus P2P/M2T over the owner's near field.
//! A leaf owns the targets in its cube, with its own U and W lists; on a
//! source-only [`Fmm::frozen`] tree a target in a pruned region is owned
//! by an internal node, which also sweeps its own subtree. One routine
//! evaluates both kinds of group into one output arena.
//!
//! Evaluation is arena-based: all equivalent densities live in flat
//! level-major `Vec<f64>` buffers allocated once in [`Fmm::new`] and
//! reused across calls, and every per-node kernel sum goes through the
//! vectorized [`Kernel::eval_block`] path. Every translation runs as
//! level-wide dense GEMMs (`linalg::gemm_acc`) rather than one matvec per
//! node or interaction. The M2L stage — the dominant far-field cost —
//! groups a level's interactions at setup into the 16 orbits of
//! translation offsets (one stored operator each) and cuts them into
//! 64-pair blocks over source densities gathered through each pair's
//! signed permutation. The per-node translations (uc2ue, M2M, dc2de, L2L)
//! gather a level's input rows by operator into 64-row bands, multiply
//! each band into zeroed staging rows, and then assemble every node's row
//! from its staged rows in the order the per-node passes used, so the
//! output bits are those of one matvec per node. See
//! `crates/fmm/README.md` for the layout and the before/after numbers.

use crate::ops::{
    cached_operators, gather_signed, m2l_class, scatter_add_signed, FmmOperators, M2L_ORBITS,
};
use crate::surface::{cube_surface, RAD_INNER, RAD_OUTER};
use kernels::Kernel;
use linalg::{gemm_acc, Mat, Vec3};
use octree::{MortonKey, Octree, Retarget, TreeOptions, MAX_DEPTH, NONE};
use parking_lot::Mutex;
use rayon::par;
use std::cell::RefCell;
use std::sync::Arc;

/// Tuning parameters of the FMM.
#[derive(Clone, Copy, Debug)]
pub struct FmmOptions {
    /// Equivalent-surface order (points per cube edge). 4 ≈ 3–4 digits,
    /// 6 ≈ 5–6 digits, 8 ≈ 8 digits for the kernels used here.
    pub order: usize,
    /// Octree leaf capacity: sources + targets for [`Fmm::new`], sources
    /// only for [`Fmm::frozen`], whose tree ignores the targets. The
    /// default balances the two halves of an order-4 evaluation on a
    /// surface cloud — P2P per leaf grows with capacity², M2L per leaf
    /// with `n_surf²` — see "Leaf size" in `crates/fmm/README.md` for the
    /// sweep behind it.
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

/// Rows per `gemm_acc` call of every batched translation — pairs per M2L
/// block, staged rows per uc2ue / M2M / dc2de / L2L band: a block's
/// gathered input rows and its results must fit in L2 alongside one stream
/// of the operator.
const BLOCK: usize = 64;

/// Work items per parallel M2L region. A constant, never the thread count:
/// it fixes the staging layout, and the staged rows are added into the
/// check arena in item order, so the sums are the same bits on any number
/// of threads.
const M2L_BATCH: usize = 32;

/// One M2L orbit at one level: all same-level V-list interactions whose
/// offset (source anchor minus target anchor) lies in the orbit, sorted by
/// offset class and, within a class, by target row. A target appears at
/// most once per class (the offset determines the source) but may appear
/// once for each class of the orbit.
struct M2lGroup {
    /// Index into [`FmmOperators::m2l_orbits_t`].
    orbit: u8,
    /// Offset class of each pair, an index into
    /// [`FmmOperators::m2l_classes`].
    classes: Vec<u16>,
    /// Level-local check-arena rows of the targets.
    trg_rows: Vec<u32>,
    /// Global up-arena slots of the sources, aligned with `trg_rows`.
    src_slots: Vec<u32>,
}

/// One unit of M2L work: `len ≤ BLOCK` consecutive pairs of one group,
/// i.e. one signed gather + one `gemm_acc` call + one signed scatter.
struct M2lItem {
    /// Index into [`LevelPlan::groups`].
    group: u32,
    /// First pair of the block within the group.
    start: u32,
    len: u32,
}

/// Cuts every group into [`BLOCK`]-pair items, groups in order and
/// blocks in order within a group.
fn m2l_items(groups: &[M2lGroup]) -> Vec<M2lItem> {
    let mut items = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        for start in (0..g.trg_rows.len()).step_by(BLOCK) {
            items.push(M2lItem {
                group: gi as u32,
                start: start as u32,
                len: (g.trg_rows.len() - start).min(BLOCK) as u32,
            });
        }
    }
    items
}

/// One level's per-node translation — uc2ue, M2M, dc2de or L2L — laid
/// out as level-wide GEMMs: staged row `r` is input row `src[r]` times the
/// transposed operator of its band. Staged rows are grouped by operator
/// (octant) and ascend in level row within one, and the bands cut each
/// operator's run into [`BLOCK`]-row pieces.
///
/// Each band is one `gemm_acc` with `alpha = 1` into zeroed rows, which
/// gives every staged row the sequential dot of a per-node matvec, bit for
/// bit, whatever the band sizes or the thread count.
struct Translation {
    /// Input row of each staged row: a check-arena row (uc2ue, dc2de) or
    /// an `up` / `dn` arena slot (M2M, L2L).
    src: Vec<u32>,
    /// `(operator, first staged row, end)` of each band.
    bands: Vec<(u8, usize, usize)>,
    /// Staged row of each row of the keyed level (the level's own for
    /// uc2ue, dc2de and L2L, the children's for M2M), `NONE` where a row
    /// takes no translation.
    at: Vec<u32>,
}

impl Translation {
    /// Lays out `(operator, keyed row, input row)` entries over a keyed
    /// level of `nlev` rows.
    fn new(mut entries: Vec<(u8, u32, u32)>, nlev: usize) -> Translation {
        entries.sort_unstable();
        let mut at = vec![NONE; nlev];
        let mut bands: Vec<(u8, usize, usize)> = Vec::new();
        for (r, &(op, row, _)) in entries.iter().enumerate() {
            at[row as usize] = r as u32;
            match bands.last_mut() {
                Some((o, s, e)) if *o == op && *e - *s < BLOCK => *e += 1,
                _ => bands.push((op, r, r + 1)),
            }
        }
        Translation {
            src: entries.iter().map(|e| e.2).collect(),
            bands,
            at,
        }
    }

    /// Number of staged rows.
    fn len(&self) -> usize {
        self.src.len()
    }

    /// Stages every row: `out[r] = input[src[r]] · ops_t[op]`, the bands
    /// in parallel, each gathering its input rows and running one GEMM.
    fn stage(&self, ops_t: &[Mat], input: &[f64], out: &mut [f64]) {
        let (k, n) = (ops_t[0].rows(), ops_t[0].cols());
        let ranges: Vec<(usize, usize)> = self.bands.iter().map(|b| (b.1 * n, b.2 * n)).collect();
        par::for_each_disjoint_range(out, &ranges, |bi, y| {
            let (op, s, e) = self.bands[bi];
            SCRATCH.with(|sc| {
                let sc = &mut *sc.borrow_mut();
                sc.sblk.resize(BLOCK * k, 0.0);
                for (row, &r) in sc.sblk.chunks_mut(k).zip(&self.src[s..e]) {
                    let r = r as usize;
                    row.copy_from_slice(&input[r * k..(r + 1) * k]);
                }
                y.fill(0.0);
                gemm_acc(e - s, n, k, 1.0, &sc.sblk, ops_t[op as usize].data(), y);
            });
        });
    }

    /// The staged row (of width `n`) of keyed row `row`, if it takes one.
    fn staged<'a>(&self, row: usize, out: &'a [f64], n: usize) -> Option<&'a [f64]> {
        let r = self.at[row];
        (r != NONE).then(|| &out[r as usize * n..(r as usize + 1) * n])
    }
}

/// Per-level portion of the evaluation plan. Node ids in slot order are
/// `tree.levels[level]` — not duplicated here.
struct LevelPlan {
    /// M2L orbits with at least one interaction at this level.
    groups: Vec<M2lGroup>,
    /// The level's M2L work: every group cut into blocks, in group order.
    items: Vec<M2lItem>,
    /// Level-local check rows that receive P2L (X-list) contributions…
    x_rows: Vec<u32>,
    /// …and the node ids they belong to, aligned with `x_rows`.
    x_nodes: Vec<u32>,
    /// S2M's uc2ue solves: the level's leaves with sources, from their
    /// check rows.
    s2m: Translation,
    /// M2M into this level: the deeper level's nodes with sources, from
    /// their `up` slots, operator = octant in the parent.
    m2m: Translation,
    /// dc2de solves: the level's receiving nodes, from their check rows.
    dc2de: Translation,
    /// L2L into this level: nodes whose parent has a downward equivalent,
    /// from the parent's `dn` slot, operator = octant.
    l2l: Translation,
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
    /// Whether the node or any ancestor receives (⇒ its downward
    /// equivalent can be nonzero).
    has_dn: Vec<bool>,
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
    /// Check values of the level currently being processed, one row per
    /// node (`max_level_len · nd_chk`): upward at S2M, downward at M2L/P2L.
    check: Vec<f64>,
    /// Staging of the level-wide GEMMs: one `BLOCK · nd_chk` result slot
    /// per M2L work item of a batch (at most [`M2L_BATCH`] slots, fewer on
    /// a tree whose levels all hold fewer items), or one level's staged
    /// translation rows, whichever is larger.
    stage: Vec<f64>,
    /// Results at the bound targets, in `Fmm::trg_pts` order.
    out: Vec<f64>,
}

/// The targets of one owner node: a contiguous run of `Fmm::trg_pts`
/// (the range at the same index of `Fmm::group_ranges`).
struct TargetGroup {
    /// Deepest node covering every target of the group.
    owner: u32,
    /// Near field of an internal owner; `None` for a leaf, whose own
    /// `u_list` / `w_list` serve.
    near: Option<Box<NearField>>,
}

/// An internal owner's near field: a source-only tree prunes source-free
/// regions, so a target there has an internal deepest covering node.
struct NearField {
    /// Adjacent leaves (exact P2P), excluding the owner.
    u_list: Vec<u32>,
    /// Non-adjacent subtrees with adjacent parents (multipole at target).
    w_list: Vec<u32>,
    /// Deep Morton codes of the group's targets (sorted ascending), which
    /// [`Fmm::near_rec`] splits into runs over the owner's subtree.
    codes: Vec<u64>,
}

/// Per-worker scratch (the gathered input rows of a GEMM block or band,
/// scaled densities at L2T/M2T). Thread-local so the passes allocate
/// nothing per node in steady state.
#[derive(Default)]
struct Scratch {
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

/// A configured FMM over fixed source/target geometry.
pub struct Fmm<KS: Kernel, KE: Kernel> {
    src_kernel: KS,
    eq_kernel: KE,
    ops: Arc<FmmOperators>,
    tree: Octree,
    /// Source points in Morton order.
    src_pts: Vec<Vec3>,
    /// In-cube target points, group by group, Morton-ordered within a
    /// group: leaf targets in the tree's target order, then the targets
    /// of internal owners.
    trg_pts: Vec<Vec3>,
    /// Original index of each entry of `trg_pts`.
    trg_idx: Vec<u32>,
    n_trg: usize,
    sd: usize,
    td: usize,
    plan: EvalPlan,
    arenas: Mutex<Arenas>,
    /// Target groups of the current target set.
    groups: Vec<TargetGroup>,
    /// `[start, end)` range of each group in the `out` arena
    /// (`td` entries per target), aligned with `groups`.
    group_ranges: Vec<(usize, usize)>,
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

    /// Shared tail of the constructors: permutes the sources, lays out the
    /// plan and arenas over an already-built tree, and binds `trg` — the
    /// targets the tree was built with, all inside its leaves.
    fn from_tree(
        src_kernel: KS,
        eq_kernel: KE,
        ops: Arc<FmmOperators>,
        src: &[Vec3],
        trg: &[Vec3],
        tree: Octree,
    ) -> Self {
        let src_pts: Vec<Vec3> = tree.src_order.iter().map(|&i| src[i as usize]).collect();
        let sd = src_kernel.src_dim();
        let td = src_kernel.trg_dim();
        let plan = build_plan(&tree, &ops);
        let widest = plan.levels.iter().map(|lp| lp.items.len()).max();
        let stage_slots = widest.map_or(0, |n| n.min(M2L_BATCH));
        let staged_rows = plan
            .levels
            .iter()
            .map(|lp| (lp.s2m.len() + lp.m2m.len()).max(lp.dc2de.len() + lp.l2l.len()));
        let stage_len =
            (stage_slots * BLOCK * plan.nd_chk).max(staged_rows.max().unwrap_or(0) * plan.nd_eq);
        let arenas = Mutex::new(Arenas {
            data: vec![0.0; src.len() * sd],
            up: vec![0.0; plan.level_ofs[plan.levels.len()] * plan.nd_eq],
            dn: vec![0.0; plan.level_ofs[plan.levels.len()] * plan.nd_eq],
            check: vec![0.0; plan.max_level_len * plan.nd_chk],
            stage: vec![0.0; stage_len],
            out: Vec::new(),
        });
        let mut fmm = Fmm {
            src_kernel,
            eq_kernel,
            ops,
            tree,
            src_pts,
            trg_pts: Vec::new(),
            trg_idx: Vec::new(),
            n_trg: 0,
            sd,
            td,
            plan,
            arenas,
            groups: Vec::new(),
            group_ranges: Vec::new(),
            outside_idx: Vec::new(),
            outside_pts: Vec::new(),
        };
        fmm.bind_targets(trg, Retarget::default());
        fmm
    }

    /// Re-bins a new target set onto the frozen source tree: a target-only
    /// replan. The tree structure, interaction lists, operator tables,
    /// upward/downward arenas, and the whole source side are untouched;
    /// only the target groups and the output arena are refreshed.
    ///
    /// A target in a leaf joins that leaf's group; a target in a pruned
    /// (source-free) region joins the group of its internal covering node;
    /// a target outside the root cube is evaluated by direct summation.
    pub fn set_targets(&mut self, trg: &[Vec3]) {
        let ret = self.tree.retarget(trg);
        self.bind_targets(trg, ret);
    }

    /// Binds `trg` as target groups: one per leaf holding targets (its
    /// `trg_range` of the tree's target order), then one per internal
    /// owner in `ret.virt` (sorted by owner, so each owner's targets are
    /// contiguous), and sets aside `ret.outside`.
    fn bind_targets(&mut self, trg: &[Vec3], ret: Retarget) {
        let td = self.td;
        self.trg_idx.clone_from(&self.tree.trg_order);
        self.groups.clear();
        self.group_ranges.clear();
        for li in self.tree.leaves() {
            let node = &self.tree.nodes[li as usize];
            if node.ntrg() > 0 {
                self.groups.push(TargetGroup {
                    owner: li,
                    near: None,
                });
                let (t0, t1) = node.trg_range;
                self.group_ranges.push((t0 as usize * td, t1 as usize * td));
            }
        }
        for run in ret.virt.chunk_by(|a, b| a.0 == b.0) {
            let owner = run[0].0;
            let (u_list, w_list) = self.tree.near_lists(owner);
            let codes = run.iter().map(|&(_, c, _)| c).collect();
            let t0 = self.trg_idx.len();
            self.trg_idx.extend(run.iter().map(|&(_, _, t)| t));
            self.groups.push(TargetGroup {
                owner,
                near: Some(Box::new(NearField {
                    u_list,
                    w_list,
                    codes,
                })),
            });
            self.group_ranges.push((t0 * td, self.trg_idx.len() * td));
        }
        self.trg_pts = self.trg_idx.iter().map(|&t| trg[t as usize]).collect();
        self.n_trg = trg.len();
        self.outside_idx = ret.outside;
        self.outside_pts = self.outside_idx.iter().map(|&t| trg[t as usize]).collect();
        self.arenas.lock().out.resize(self.trg_idx.len() * td, 0.0);
    }

    /// [`Fmm::set_targets`] followed by [`Fmm::evaluate`]: evaluates the
    /// potential of `src_data` at a fresh target set on the frozen plan.
    pub fn evaluate_at(&mut self, src_data: &[f64], trg: &[Vec3]) -> Vec<f64> {
        self.set_targets(trg);
        self.evaluate(src_data)
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

        self.upward(&ar.data, &mut ar.up, &mut ar.check, &mut ar.stage);
        self.downward(&ar.data, &ar.up, &mut ar.dn, &mut ar.check, &mut ar.stage);
        self.group_eval(&ar.data, &ar.up, &ar.dn, &mut ar.out);

        // scatter back to the original target order
        let mut out = vec![0.0; self.n_trg * self.td];
        for (pos, &orig) in self.trg_idx.iter().enumerate() {
            let o = orig as usize * self.td;
            out[o..o + self.td].copy_from_slice(&ar.out[pos * self.td..(pos + 1) * self.td]);
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

    /// Upward pass, finest level first, writing the level-major `up` arena
    /// in place: S2M check values of the level's source leaves (via
    /// `eval_block` on their check surfaces) into the check arena, the
    /// level's uc2ue solves and its M2M translations from the deeper level
    /// staged as level-wide GEMMs, then every node's row from its staged
    /// rows — a leaf's solve scaled by `h^{-deg}`, an internal node's
    /// children summed in octant order.
    fn upward(&self, data: &[f64], up: &mut [f64], check: &mut [f64], stage: &mut [f64]) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let (nd_eq, nd_chk) = (plan.nd_eq, plan.nd_chk);
        for level in (0..plan.levels.len()).rev() {
            let lp = &plan.levels[level];
            let level_nodes = &self.tree.levels[level];
            par::for_each_row_block(check, nd_chk, &lp.s2m.src, 1, |r, view| {
                let id = level_nodes[lp.s2m.src[r] as usize];
                let node = &nodes[id as usize];
                let (a, b) = (node.src_range.0 as usize, node.src_range.1 as usize);
                let row = view.row(0);
                row.fill(0.0);
                SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    let (h, center) = (self.tree.node_half(id), self.tree.node_center(id));
                    fill_surface(&plan.unit_surf, center, RAD_OUTER * h, &mut s.surf);
                    self.src_kernel.eval_block(
                        &s.surf,
                        &self.src_pts[a..b],
                        &data[a * self.sd..b * self.sd],
                        row,
                    );
                });
            });
            let (s2m, m2m) = stage.split_at_mut(lp.s2m.len() * nd_eq);
            lp.s2m
                .stage(std::slice::from_ref(&self.ops.uc2ue_t), check, s2m);
            lp.m2m.stage(&self.ops.m2m_t, up, m2m);
            let (s2m, m2m) = (&*s2m, &*m2m);
            let deeper_base = plan.level_ofs[level + 1];
            let cur = &mut up[plan.level_ofs[level] * nd_eq..deeper_base * nd_eq];
            par::chunks_mut(cur, nd_eq, |i, equiv| {
                if let Some(solved) = lp.s2m.staged(i, s2m, nd_eq) {
                    for (v, x) in equiv.iter_mut().zip(solved) {
                        *v = x * lp.scale_inv;
                    }
                    return;
                }
                equiv.fill(0.0);
                for &c in &nodes[level_nodes[i] as usize].children {
                    if c == NONE {
                        continue;
                    }
                    let row = plan.slot[c as usize] as usize - deeper_base;
                    if let Some(moved) = lp.m2m.staged(row, m2m, nd_eq) {
                        for (v, x) in equiv.iter_mut().zip(moved) {
                            *v += x;
                        }
                    }
                }
            });
        }
    }

    /// Downward pass, level by level from the root: the level's check
    /// values ([`Fmm::level_check`]), its dc2de solves and its L2L
    /// translations from the parents staged as level-wide GEMMs, then
    /// every node's `dn` row: its solve scaled by `h^{-deg}` (zero when it
    /// receives nothing) plus its parent's translation.
    fn downward(
        &self,
        data: &[f64],
        up: &[f64],
        dn: &mut [f64],
        check: &mut [f64],
        stage: &mut [f64],
    ) {
        let plan = &self.plan;
        let nd_eq = plan.nd_eq;
        for level in 0..plan.levels.len() {
            let lp = &plan.levels[level];
            self.level_check(level, data, up, check, stage);
            let (dc2de, l2l) = stage.split_at_mut(lp.dc2de.len() * nd_eq);
            lp.dc2de
                .stage(std::slice::from_ref(&self.ops.dc2de_t), check, dc2de);
            lp.l2l.stage(&self.ops.l2l_t, dn, l2l);
            let (dc2de, l2l) = (&*dc2de, &*l2l);
            let cur = &mut dn[plan.level_ofs[level] * nd_eq..plan.level_ofs[level + 1] * nd_eq];
            par::chunks_mut(cur, nd_eq, |i, equiv| {
                match lp.dc2de.staged(i, dc2de, nd_eq) {
                    Some(solved) => {
                        for (v, x) in equiv.iter_mut().zip(solved) {
                            *v = x * lp.scale_inv;
                        }
                    }
                    None => equiv.fill(0.0),
                }
                if let Some(moved) = lp.l2l.staged(i, l2l, nd_eq) {
                    for (v, x) in equiv.iter_mut().zip(moved) {
                        *v += x;
                    }
                }
            });
        }
    }

    /// The downward check values of one level, into the first rows of
    /// `check` (zeroed first): the level's batched M2L, then P2L from X
    /// lists.
    fn level_check(
        &self,
        level: usize,
        data: &[f64],
        up: &[f64],
        check: &mut [f64],
        stage: &mut [f64],
    ) {
        let plan = &self.plan;
        let nodes = &self.tree.nodes;
        let lp = &plan.levels[level];
        let nd_chk = plan.nd_chk;
        let check = &mut check[..self.tree.levels[level].len() * nd_chk];
        check.fill(0.0);

        self.m2l_level(lp, up, check, stage);

        // P2L from the X list: direct source evaluation at the downward
        // check surface
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
    }

    /// M2L of one level into its (zeroed) check rows. [`M2L_BATCH`] work
    /// items at a time run in parallel, each gathering its sources through
    /// their classes' signed permutations into the orbit's order and
    /// multiplying by the orbit's operator into its own staging slot; the
    /// staged rows are then added into `check` serially in item order,
    /// each through its class's signed scatter. A row therefore receives
    /// its contributions in the same order whatever the thread count, and
    /// a parallel region is a batch of items, not one orbit.
    fn m2l_level(&self, lp: &LevelPlan, up: &[f64], check: &mut [f64], stage: &mut [f64]) {
        let (nd_eq, nd_chk) = (self.plan.nd_eq, self.plan.nd_chk);
        let class = |c: u16| {
            self.ops.m2l_classes[c as usize]
                .as_ref()
                .expect("V-list offset outside precomputed M2L set")
        };
        let slot_len = BLOCK * nd_chk;
        for batch in lp.items.chunks(M2L_BATCH) {
            par::chunks_mut(&mut stage[..batch.len() * slot_len], slot_len, |k, y| {
                let it = &batch[k];
                let g = &lp.groups[it.group as usize];
                let a_t = &self.ops.m2l_orbits_t[g.orbit as usize];
                let pairs = it.start as usize..(it.start + it.len) as usize;
                let b = it.len as usize;
                SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    s.sblk.resize(BLOCK * nd_eq, 0.0);
                    // gather source densities as block rows, in the
                    // orbit representative's point and component order
                    let rows = s.sblk.chunks_mut(nd_eq);
                    for ((&ss, &c), row) in g.src_slots[pairs.clone()]
                        .iter()
                        .zip(&g.classes[pairs.clone()])
                        .zip(rows)
                    {
                        let ss = ss as usize;
                        gather_signed(&class(c).eq, &up[ss * nd_eq..(ss + 1) * nd_eq], row);
                    }
                    // Checkᵀ-block = h^{deg} · Equivᵀ-block · K_repᵀ
                    y[..b * nd_chk].fill(0.0);
                    gemm_acc(b, nd_chk, nd_eq, lp.scale_m2l, &s.sblk, a_t.data(), y);
                });
            });
            for (it, y) in batch.iter().zip(stage.chunks(slot_len)) {
                let g = &lp.groups[it.group as usize];
                let pairs = it.start as usize..(it.start + it.len) as usize;
                for ((&row, &c), yrow) in g.trg_rows[pairs.clone()]
                    .iter()
                    .zip(&g.classes[pairs])
                    .zip(y.chunks(nd_chk))
                {
                    let row = row as usize;
                    let dst = &mut check[row * nd_chk..(row + 1) * nd_chk];
                    scatter_add_signed(&class(c).chk, yrow, dst);
                }
            }
        }
    }

    /// Target evaluation, in parallel over groups (disjoint output
    /// ranges): P2P over the owner's U list, L2T from the owner's downward
    /// equivalent (valid anywhere inside the owner's cube), M2T from its W
    /// list, then [`Fmm::near_rec`] over the owner's children — none for a
    /// leaf, whose own U list already holds it.
    fn group_eval(&self, data: &[f64], up: &[f64], dn: &[f64], out: &mut [f64]) {
        let plan = &self.plan;
        out.fill(0.0);
        par::for_each_disjoint_range(out, &self.group_ranges, |i, out| {
            let g = &self.groups[i];
            let owner = &self.tree.nodes[g.owner as usize];
            let (r0, r1) = self.group_ranges[i];
            let trgs = &self.trg_pts[r0 / self.td..r1 / self.td];
            let (u_list, w_list, codes) = match &g.near {
                Some(n) => (&n.u_list, &n.w_list, &n.codes[..]),
                None => (&owner.u_list, &owner.w_list, &[][..]),
            };
            for &u in u_list {
                self.p2p(u, data, trgs, out);
            }
            SCRATCH.with(|s| {
                let s = &mut *s.borrow_mut();
                if plan.has_dn[g.owner as usize] {
                    self.surface_eval(g.owner, RAD_OUTER, dn, trgs, out, s);
                }
                // W members are non-adjacent to the owner, so at least
                // three half-widths from any target inside it
                for &w in w_list {
                    if plan.has_src[w as usize] {
                        self.surface_eval(w, RAD_INNER, up, trgs, out, s);
                    }
                }
                for &c in &owner.children {
                    if c != NONE {
                        self.near_rec(trgs, codes, c, 0, trgs.len(), data, up, out, s);
                    }
                }
            });
        });
    }

    /// Exact P2P: the sources of leaf `leaf` at `trgs`.
    fn p2p(&self, leaf: u32, data: &[f64], trgs: &[Vec3], out: &mut [f64]) {
        let node = &self.tree.nodes[leaf as usize];
        let (a, b) = (node.src_range.0 as usize, node.src_range.1 as usize);
        if a < b {
            self.src_kernel.eval_block(
                trgs,
                &self.src_pts[a..b],
                &data[a * self.sd..b * self.sd],
                out,
            );
        }
    }

    /// Evaluates node `ni`'s equivalent density (its row of `arena`) on
    /// its surface of radius `rad · h` at `trgs`: L2T with the downward
    /// arena and [`RAD_OUTER`], M2T with the upward arena and
    /// [`RAD_INNER`].
    fn surface_eval(
        &self,
        ni: u32,
        rad: f64,
        arena: &[f64],
        trgs: &[Vec3],
        out: &mut [f64],
        s: &mut Scratch,
    ) {
        let plan = &self.plan;
        let nd_eq = plan.nd_eq;
        let slot = plan.slot[ni as usize] as usize;
        let lp = &plan.levels[self.tree.nodes[ni as usize].key.level as usize];
        let h = self.tree.node_half(ni);
        let center = self.tree.node_center(ni);
        fill_surface(&plan.unit_surf, center, rad * h, &mut s.surf);
        let row = &arena[slot * nd_eq..(slot + 1) * nd_eq];
        let dens = scaled_density(row, &lp.dens_scale, self.ops.sdim, &mut s.dens);
        self.eq_kernel.eval_block(trgs, &s.surf, dens, out);
    }

    /// Recursive near-field sweep of subtree `m` against the Morton-sorted
    /// target run `[lo, hi)` of one group (`trgs`, with deep codes
    /// `codes`).
    ///
    /// Targets are partitioned into runs sharing their (virtual) cell at
    /// `m`'s level. A run whose cell is not adjacent to `m` takes `m`'s
    /// multipole directly (same-level non-adjacency gives the same ≥ 3·h
    /// margin as the V/W lists); an adjacent leaf is summed exactly; an
    /// adjacent internal node recurses into its children.
    #[allow(clippy::too_many_arguments)]
    fn near_rec(
        &self,
        trgs: &[Vec3],
        codes: &[u64],
        m: u32,
        lo: usize,
        hi: usize,
        data: &[f64],
        up: &[f64],
        out: &mut [f64],
        s: &mut Scratch,
    ) {
        let mnode = &self.tree.nodes[m as usize];
        let level = mnode.key.level;
        let td = self.td;
        let mut a = lo;
        while a < hi {
            let cell = MortonKey {
                level: MAX_DEPTH,
                code: codes[a],
            }
            .ancestor_at(level);
            let ub = cell.code + (1u64 << (3 * (MAX_DEPTH - level) as u64).min(63));
            let b = a + codes[a..hi].partition_point(|&c| c < ub);
            let (run, run_out) = (&trgs[a..b], &mut out[a * td..b * td]);
            if !mnode.key.is_adjacent(cell) {
                if self.plan.has_src[m as usize] {
                    self.surface_eval(m, RAD_INNER, up, run, run_out, s);
                }
            } else if mnode.is_leaf {
                self.p2p(m, data, run, run_out);
            } else {
                for &c in &mnode.children {
                    if c != NONE {
                        self.near_rec(trgs, codes, c, a, b, data, up, out, s);
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
/// scale tables, auxiliary surfaces, source/receive flags, and M2L orbit
/// buckets — source- and tree-side state only.
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

    // per-level plans: scale tables, M2L orbit buckets, X-list rows
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

            // bucket V-list interactions by the orbit of their offset
            let mut buckets: Vec<Vec<(u16, u32, u32)>> = vec![Vec::new(); M2L_ORBITS];
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
                    let orbit = ops.m2l_classes[class]
                        .as_ref()
                        .expect("V-list offset inside the near field")
                        .orbit;
                    buckets[orbit as usize].push((class as u16, row as u32, slot[v as usize]));
                }
            }
            let mut groups = Vec::new();
            for (orbit, mut pairs) in buckets.into_iter().enumerate() {
                if pairs.is_empty() {
                    continue;
                }
                pairs.sort_unstable();
                groups.push(M2lGroup {
                    orbit: orbit as u8,
                    classes: pairs.iter().map(|p| p.0).collect(),
                    trg_rows: pairs.iter().map(|p| p.1).collect(),
                    src_slots: pairs.iter().map(|p| p.2).collect(),
                });
            }

            // X-list rows and the per-node translations, keyed by level
            // row (M2M by the child's row in the deeper level)
            let (mut x_rows, mut x_nodes) = (Vec::new(), Vec::new());
            let (mut s2m, mut m2m, mut dc2de, mut l2l) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let deeper_base = level_ofs[level + 1] as u32;
            for (row, &ni) in level_nodes.iter().enumerate() {
                let (r, node) = (row as u32, &nodes[ni as usize]);
                if node.x_list.iter().any(|&x| nodes[x as usize].nsrc() > 0) {
                    x_rows.push(r);
                    x_nodes.push(ni);
                }
                if node.is_leaf && has_src[ni as usize] {
                    s2m.push((0, r, r));
                }
                for (o, &c) in node.children.iter().enumerate() {
                    if c != NONE && has_src[c as usize] {
                        let cs = slot[c as usize];
                        m2m.push((o as u8, cs - deeper_base, cs));
                    }
                }
                if receives[ni as usize] {
                    dc2de.push((0, r, r));
                }
                if node.parent != NONE && has_dn[node.parent as usize] {
                    let oct = node.key.child_index() as u8;
                    l2l.push((oct, r, slot[node.parent as usize]));
                }
            }
            let nlev = level_nodes.len();
            let n_deeper = tree.levels.get(level + 1).map_or(0, |l| l.len());

            LevelPlan {
                items: m2l_items(&groups),
                groups,
                x_rows,
                x_nodes,
                s2m: Translation::new(s2m, nlev),
                m2m: Translation::new(m2m, n_deeper),
                dc2de: Translation::new(dc2de, nlev),
                l2l: Translation::new(l2l, nlev),
                scale_inv: h.powf(-ops.deg),
                scale_m2l: h.powf(ops.deg),
                dens_scale,
            }
        })
        .collect();

    EvalPlan {
        nd_eq,
        nd_chk,
        slot,
        level_ofs,
        levels,
        unit_surf: cube_surface(ops.p, Vec3::ZERO, 1.0),
        has_src,
        has_dn,
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

    /// Per-class oracle of [`Fmm::m2l_level`]: every pair multiplied by its
    /// class's own operator, built directly by `kernel_matrix` on that
    /// offset's geometry, and added straight into `check`.
    fn m2l_level_per_class<KS: Kernel, KE: Kernel>(
        fmm: &Fmm<KS, KE>,
        lp: &LevelPlan,
        up: &[f64],
        check: &mut [f64],
    ) {
        let (nd_eq, nd_chk, p) = (fmm.plan.nd_eq, fmm.plan.nd_chk, fmm.ops.p);
        let dc = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let mut direct = std::collections::HashMap::new();
        for g in &lp.groups {
            for (i, &c) in g.classes.iter().enumerate() {
                let a_t = direct.entry(c).or_insert_with(|| {
                    let d = crate::ops::m2l_offset(c as usize);
                    crate::ops::m2l_operator(&fmm.eq_kernel, p, d, &dc).transpose()
                });
                let (ss, row) = (g.src_slots[i] as usize, g.trg_rows[i] as usize);
                let mut y = vec![0.0; nd_chk];
                let src = &up[ss * nd_eq..(ss + 1) * nd_eq];
                gemm_acc(1, nd_chk, nd_eq, lp.scale_m2l, src, a_t.data(), &mut y);
                for (c, y) in check[row * nd_chk..(row + 1) * nd_chk].iter_mut().zip(&y) {
                    *c += y;
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Orbit-blocked staged M2L on a Stokes-DL surface cloud: within
    /// 1e-13 of the per-class oracle on every level of the real plan, and
    /// on one level re-cut into orbit groups of 1, 47, 64, 65 and 130 pairs
    /// (a short group, the refined wall's old level-4 class size, an exact
    /// block, a block plus one, two blocks plus two) that mix the orbit's
    /// classes and hit each target row twice — then the same bits on 1, 2
    /// and 4 threads, level by level and for a whole evaluate.
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

        let staged = |fmm: &Fmm<StokesDL, StokesEquiv>, level: usize| {
            let n = fmm.tree.levels[level].len();
            let mut stage = vec![0.0; M2L_BATCH * BLOCK * nd_chk];
            let mut staged = vec![0.0; n * nd_chk];
            fmm.m2l_level(&fmm.plan.levels[level], &up, &mut staged, &mut stage);
            staged
        };
        let staged_vs_per_class = |fmm: &Fmm<StokesDL, StokesEquiv>, level: usize| {
            let lp = &fmm.plan.levels[level];
            let staged = staged(fmm, level);
            let mut per_class = vec![0.0; staged.len()];
            m2l_level_per_class(fmm, lp, &up, &mut per_class);
            assert!(staged.iter().any(|&v| v != 0.0) || lp.groups.is_empty());
            let scale = per_class.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let diff =
                (staged.iter().zip(&per_class)).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                diff <= 1e-13 * scale,
                "level {level}: {diff:.2e} of {scale:.2e}"
            );
            staged
        };

        // every level as the planner builds it, the widest one included
        for l in 0..fmm.plan.levels.len() {
            staged_vs_per_class(&fmm, l);
        }

        // re-cut the widest level into orbit groups of the sizes that matter
        let level = (0..fmm.plan.levels.len())
            .max_by_key(|&l| fmm.tree.levels[l].len())
            .unwrap();
        let nlev = fmm.tree.levels[level].len();
        assert!(nlev >= 130, "widest level has {nlev} nodes");
        let base = fmm.plan.level_ofs[level] as u32;
        let groups: Vec<M2lGroup> = [1usize, 47, 64, 65, 130]
            .iter()
            .zip(&fmm.plan.levels[level].groups)
            .map(|(&n, real)| {
                let mut classes = real.classes.clone();
                classes.dedup();
                assert!(classes.len() >= 2, "orbit {} has one class", real.orbit);
                M2lGroup {
                    orbit: real.orbit,
                    classes: (0..n).map(|i| classes[i % classes.len()]).collect(),
                    trg_rows: (0..n as u32).map(|i| i / 2).collect(),
                    src_slots: (0..n as u32)
                        .map(|i| base + (7 * i + n as u32) % nlev as u32)
                        .collect(),
                }
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
        let per_level: Vec<Vec<f64>> = (0..fmm.plan.levels.len())
            .map(|l| staged_vs_per_class(&fmm, l))
            .collect();

        // thread-count independence, of every level and of a whole
        // evaluate on the re-cut plan
        let whole = fmm.evaluate(&data);
        assert_ne!(bits(&whole), bits(&reference));
        for threads in [1, 2, 4] {
            par::with_override(threads, || {
                for (l, expect) in per_level.iter().enumerate() {
                    assert_eq!(
                        bits(&staged(&fmm, l)),
                        bits(expect),
                        "level {l}, {threads} threads"
                    );
                }
                assert_eq!(
                    bits(&fmm.evaluate(&data)),
                    bits(&whole),
                    "{threads} threads"
                );
            });
        }
    }

    /// `y[j] = Σ_l x[l]·op_t[(l, j)]` summed in `l` order from zero, or
    /// `y[j] += 1·Σ…` with `acc`: the rounding of the per-node passes'
    /// matvecs through the untransposed operator (`y = A·x` and
    /// `y += 1·(A·x)`).
    fn matvec_seq(op_t: &Mat, x: &[f64], y: &mut [f64], acc: bool) {
        for (j, yj) in y.iter_mut().enumerate() {
            let mut sum = 0.0;
            for (l, xl) in x.iter().enumerate() {
                sum += op_t[(l, j)] * xl;
            }
            *yj = if acc { *yj + 1.0 * sum } else { sum };
        }
    }

    /// Per-node oracle of [`Fmm::upward`]: one uc2ue matvec per source
    /// leaf, scaled, and one M2M matvec per child with sources, added in
    /// octant order.
    fn upward_per_node<KS: Kernel, KE: Kernel>(fmm: &Fmm<KS, KE>, data: &[f64]) -> Vec<f64> {
        let (plan, ops, tree) = (&fmm.plan, &fmm.ops, &fmm.tree);
        let (nd_eq, nd_chk) = (plan.nd_eq, plan.nd_chk);
        let mut up = vec![0.0; plan.level_ofs[plan.levels.len()] * nd_eq];
        for level in (0..plan.levels.len()).rev() {
            for &id in &tree.levels[level] {
                let (ni, node) = (id as usize, &tree.nodes[id as usize]);
                if !plan.has_src[ni] {
                    continue;
                }
                let mut equiv = vec![0.0; nd_eq];
                if node.is_leaf {
                    let (a, b) = (node.src_range.0 as usize, node.src_range.1 as usize);
                    let surf =
                        cube_surface(ops.p, tree.node_center(id), RAD_OUTER * tree.node_half(id));
                    let mut check = vec![0.0; nd_chk];
                    let (pts, dat) = (&fmm.src_pts[a..b], &data[a * fmm.sd..b * fmm.sd]);
                    fmm.src_kernel.eval_block(&surf, pts, dat, &mut check);
                    matvec_seq(&ops.uc2ue_t, &check, &mut equiv, false);
                    for v in equiv.iter_mut() {
                        *v *= plan.levels[level].scale_inv;
                    }
                } else {
                    for (o, &c) in node.children.iter().enumerate() {
                        if c != NONE && plan.has_src[c as usize] {
                            let cs = plan.slot[c as usize] as usize * nd_eq;
                            matvec_seq(&ops.m2m_t[o], &up[cs..cs + nd_eq], &mut equiv, true);
                        }
                    }
                }
                let s = plan.slot[ni] as usize * nd_eq;
                up[s..s + nd_eq].copy_from_slice(&equiv);
            }
        }
        up
    }

    /// Per-node oracle of [`Fmm::downward`]: one dc2de matvec per
    /// receiving node, scaled, plus one L2L matvec from a parent with a
    /// downward equivalent.
    fn downward_per_node<KS: Kernel, KE: Kernel>(
        fmm: &Fmm<KS, KE>,
        data: &[f64],
        up: &[f64],
    ) -> Vec<f64> {
        let (plan, ops, tree) = (&fmm.plan, &fmm.ops, &fmm.tree);
        let (nd_eq, nd_chk) = (plan.nd_eq, plan.nd_chk);
        let mut dn = vec![0.0; plan.level_ofs[plan.levels.len()] * nd_eq];
        let mut check = vec![0.0; plan.max_level_len * nd_chk];
        let mut stage = vec![0.0; fmm.arenas.lock().stage.len()];
        let receives = |node: &octree::Node| {
            node.v_list.iter().any(|&v| plan.has_src[v as usize])
                || node
                    .x_list
                    .iter()
                    .any(|&x| tree.nodes[x as usize].nsrc() > 0)
        };
        for level in 0..plan.levels.len() {
            fmm.level_check(level, data, up, &mut check, &mut stage);
            for (i, &id) in tree.levels[level].iter().enumerate() {
                let (ni, node) = (id as usize, &tree.nodes[id as usize]);
                if !plan.has_dn[ni] {
                    continue;
                }
                let mut equiv = vec![0.0; nd_eq];
                if receives(node) {
                    let row = &check[i * nd_chk..(i + 1) * nd_chk];
                    matvec_seq(&ops.dc2de_t, row, &mut equiv, false);
                    for v in equiv.iter_mut() {
                        *v *= plan.levels[level].scale_inv;
                    }
                }
                if node.parent != NONE && plan.has_dn[node.parent as usize] {
                    let ps = plan.slot[node.parent as usize] as usize * nd_eq;
                    let l2l = &ops.l2l_t[node.key.child_index()];
                    matvec_seq(l2l, &dn[ps..ps + nd_eq], &mut equiv, true);
                }
                let s = plan.slot[ni] as usize * nd_eq;
                dn[s..s + nd_eq].copy_from_slice(&equiv);
            }
        }
        dn
    }

    /// The level-wide translation GEMMs give the `up` and `dn` arenas of
    /// the per-node passes bit for bit, on 1, 2 and 4 threads, on an
    /// adaptive tree: leaves on several levels, parents with empty or
    /// source-free octants, nodes that take L2L without receiving and
    /// nodes with no downward equivalent at all.
    #[test]
    fn batched_translations_match_per_node_passes_bitwise() {
        fn check<KS: Kernel, KE: Kernel>(fmm: Fmm<KS, KE>, dens: &[f64]) {
            let (plan, tree) = (&fmm.plan, &fmm.tree);
            let leaf_levels: std::collections::BTreeSet<u32> = (tree.nodes.iter())
                .filter(|n| n.is_leaf && n.nsrc() > 0)
                .map(|n| n.key.level)
                .collect();
            assert!(leaf_levels.len() >= 3, "leaf levels {leaf_levels:?}");
            let partial = tree.nodes.iter().enumerate().any(|(ni, n)| {
                !n.is_leaf
                    && plan.has_src[ni]
                    && n.children
                        .iter()
                        .any(|&c| c == NONE || !plan.has_src[c as usize])
            });
            assert!(partial, "no parent with an empty or source-free octant");
            let levels = plan.levels.iter();
            assert!(levels.clone().any(|lp| lp.l2l.len() > lp.dc2de.len()));
            assert!(plan.has_dn.iter().any(|&d| !d));
            assert!(levels.map(|lp| lp.m2m.bands.len()).sum::<usize>() >= 8);

            let reference = fmm.evaluate(dens);
            let data = fmm.arenas.lock().data.clone();
            let up = upward_per_node(&fmm, &data);
            let dn = downward_per_node(&fmm, &data, &up);
            for threads in [1, 2, 4] {
                par::with_override(threads, || {
                    assert_eq!(bits(&fmm.evaluate(dens)), bits(&reference));
                    let ar = fmm.arenas.lock();
                    assert_eq!(bits(&ar.up), bits(&up), "up, {threads} threads");
                    assert_eq!(bits(&ar.dn), bits(&dn), "dn, {threads} threads");
                });
            }
        }
        let mut rng = StdRng::seed_from_u64(41);
        let mut src = cloud(&mut rng, 500, 0.03, Vec3::new(0.6, 0.6, 0.6));
        src.extend(cloud(&mut rng, 500, 0.03, Vec3::new(-0.6, -0.5, -0.6)));
        src.extend(cloud(&mut rng, 400, 1.0, Vec3::ZERO));
        let trg = cloud(&mut rng, 300, 1.0, Vec3::ZERO);
        let opts = FmmOptions {
            order: 4,
            leaf_capacity: 30,
            max_depth: 10,
        };
        let q: Vec<f64> = (0..src.len())
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        check(Fmm::new(LaplaceSL, LaplaceSL, &src, &trg, opts), &q);
        let mut dl = Vec::with_capacity(src.len() * 6);
        for p in &src {
            dl.extend((0..3).map(|_| rng.random_range(-1.0..1.0)));
            let n = (*p + Vec3::new(0.1, 0.2, 0.3)).normalized();
            dl.extend([n.x, n.y, n.z]);
        }
        let fmm = Fmm::new(StokesDL, StokesEquiv { mu: 1.0 }, &src, &trg, opts);
        check(fmm, &dl);
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
