//! Faithful port of the *seed* FMM evaluation engine, kept as the oracle
//! `seed_agreement.rs` checks the production engine against (and
//! the baseline of the historical perf table in `crates/fmm/README.md`).
//!
//! This is the pre-arena implementation: a fresh `Vec<f64>` per octree
//! node per pass, per-level `collect` of `(node, Vec)` pairs, one
//! offset-map lookup plus a dense matvec per V-list interaction, a
//! per-interaction zero-scan of the source density, per-node `h.powf`
//! calls, and scalar `eval_acc` loops for S2M/P2L/P2P/L2T/M2T. The
//! production engine (`fmm::Fmm`) replaces all of that with level-major
//! arenas, orbit-batched GEMM M2L, precomputed scale tables/surfaces, and
//! vectorized `eval_block` kernels.

use fmm::{
    cached_operators, cube_surface, kernel_matrix, FmmOperators, FmmOptions, RAD_INNER, RAD_OUTER,
};
use kernels::Kernel;
use linalg::{Mat, Vec3};
use octree::{Octree, TreeOptions, NONE};
use std::collections::HashMap;
use std::sync::Arc;

/// The seed engine: same tree, same S2M/M2M/L2L operators, its own M2L
/// operators, original evaluation.
pub struct SeedFmm<KS: Kernel, KE: Kernel> {
    src_kernel: KS,
    eq_kernel: KE,
    ops: Arc<FmmOperators>,
    /// Untransposed per-offset M2L operators, exactly the seed's layout.
    m2l: HashMap<(i8, i8, i8), Mat>,
    tree: Octree,
    src_pts: Vec<Vec3>,
    trg_pts: Vec<Vec3>,
    n_trg: usize,
    sd: usize,
    td: usize,
}

impl<KS: Kernel, KE: Kernel> SeedFmm<KS, KE> {
    pub fn new(
        src_kernel: KS,
        eq_kernel: KE,
        src: &[Vec3],
        trg: &[Vec3],
        opts: FmmOptions,
    ) -> Self {
        let ops = cached_operators(&eq_kernel, opts.order);
        let tree = Octree::build(
            src,
            trg,
            TreeOptions {
                leaf_capacity: opts.leaf_capacity,
                max_depth: opts.max_depth,
            },
        );
        let src_pts: Vec<Vec3> = tree.src_order.iter().map(|&i| src[i as usize]).collect();
        let trg_pts: Vec<Vec3> = tree.trg_order.iter().map(|&i| trg[i as usize]).collect();
        // the seed's own per-offset M2L operators, one dense matrix for each
        // of the 316 classes built directly from the kernel: an oracle
        // independent of the production engine's orbit tables
        let p = opts.order;
        let dc = cube_surface(p, Vec3::ZERO, RAD_INNER);
        let mut m2l = HashMap::new();
        for dz in -3i8..=3 {
            for dy in -3i8..=3 {
                for dx in -3i8..=3 {
                    if dx.abs().max(dy.abs()).max(dz.abs()) >= 2 {
                        let c = Vec3::new(2.0 * dx as f64, 2.0 * dy as f64, 2.0 * dz as f64);
                        let seq = cube_surface(p, c, RAD_INNER);
                        m2l.insert((dx, dy, dz), kernel_matrix(&eq_kernel, &seq, &dc));
                    }
                }
            }
        }
        let sd = src_kernel.src_dim();
        let td = src_kernel.trg_dim();
        SeedFmm {
            src_kernel,
            eq_kernel,
            ops,
            m2l,
            tree,
            src_pts,
            trg_pts,
            n_trg: trg.len(),
            sd,
            td,
        }
    }

    fn scaled_density(&self, d: &[f64], h: f64) -> Vec<f64> {
        let exps = &self.ops.scale_exps;
        if exps.iter().all(|&e| e == 0) {
            return d.to_vec();
        }
        let dim = self.ops.sdim;
        let mut out = d.to_vec();
        for (j, v) in out.iter_mut().enumerate() {
            let e = exps[j % dim];
            if e != 0 {
                *v *= h.powi(e);
            }
        }
        out
    }

    /// The seed `Fmm::evaluate`, verbatim up to the operator-store rename.
    pub fn evaluate(&self, src_data: &[f64]) -> Vec<f64> {
        assert_eq!(
            src_data.len(),
            self.src_pts.len() * self.sd,
            "source data length"
        );
        let nd_eq = self.ops.n_surf * self.ops.sdim;
        let nd_chk = self.ops.n_surf * self.ops.vdim;
        let nodes = &self.tree.nodes;
        let deg = self.ops.deg;

        // permute source data into Morton order
        let mut data = vec![0.0; src_data.len()];
        for (pos, &orig) in self.tree.src_order.iter().enumerate() {
            let o = orig as usize * self.sd;
            data[pos * self.sd..(pos + 1) * self.sd].copy_from_slice(&src_data[o..o + self.sd]);
        }

        // ---------------- upward pass ----------------
        let mut up_equiv: Vec<Vec<f64>> = vec![Vec::new(); nodes.len()];
        for level in (0..self.tree.levels.len()).rev() {
            let level_nodes = &self.tree.levels[level];
            let results: Vec<(u32, Vec<f64>)> = level_nodes
                .iter()
                .map(|&ni| {
                    let node = &nodes[ni as usize];
                    let h = self.tree.node_half(ni);
                    let center = self.tree.node_center(ni);
                    let mut equiv = vec![0.0; nd_eq];
                    if node.is_leaf {
                        if node.nsrc() > 0 {
                            // S2M: sources -> upward check surface -> density
                            let uc = cube_surface(self.ops.p, center, RAD_OUTER * h);
                            let mut check = vec![0.0; nd_chk];
                            let (a, b) = node.src_range;
                            let pts = &self.src_pts[a as usize..b as usize];
                            let dat = &data[a as usize * self.sd..b as usize * self.sd];
                            for (i, &t) in uc.iter().enumerate() {
                                let o = &mut check[i * self.ops.vdim..(i + 1) * self.ops.vdim];
                                for (j, &s) in pts.iter().enumerate() {
                                    self.src_kernel.eval_acc(
                                        t,
                                        s,
                                        &dat[j * self.sd..(j + 1) * self.sd],
                                        o,
                                    );
                                }
                            }
                            let scale = h.powf(-deg);
                            let mut d = self.ops.uc2ue_t.matvec_t(&check);
                            d.iter_mut().for_each(|v| *v *= scale);
                            equiv = d;
                        }
                    } else {
                        // M2M from children (already computed: deeper level)
                        for (o, &c) in node.children.iter().enumerate() {
                            if c != NONE && !up_equiv[c as usize].is_empty() {
                                linalg::axpy(
                                    1.0,
                                    &self.ops.m2m_t[o].matvec_t(&up_equiv[c as usize]),
                                    &mut equiv,
                                );
                            }
                        }
                    }
                    (ni, equiv)
                })
                .collect();
            for (ni, equiv) in results {
                up_equiv[ni as usize] = equiv;
            }
        }

        // ---------------- downward pass ----------------
        let mut dn_equiv: Vec<Vec<f64>> = vec![Vec::new(); nodes.len()];
        for level in 0..self.tree.levels.len() {
            let level_nodes = &self.tree.levels[level];
            let results: Vec<(u32, Vec<f64>)> = level_nodes
                .iter()
                .map(|&ni| {
                    let node = &nodes[ni as usize];
                    let h = self.tree.node_half(ni);
                    let center = self.tree.node_center(ni);
                    let mut check = vec![0.0; nd_chk];
                    let mut any = false;

                    // M2L from the V list
                    if !node.v_list.is_empty() {
                        let (tx, ty, tz) = node.key.anchor();
                        let kscale = h.powf(deg);
                        for &v in &node.v_list {
                            let src_equiv = &up_equiv[v as usize];
                            if src_equiv.is_empty() || src_equiv.iter().all(|&x| x == 0.0) {
                                continue;
                            }
                            let (sx, sy, sz) = nodes[v as usize].key.anchor();
                            let off = (
                                (sx as i64 - tx as i64) as i8,
                                (sy as i64 - ty as i64) as i8,
                                (sz as i64 - tz as i64) as i8,
                            );
                            let m = self
                                .m2l
                                .get(&off)
                                .expect("V-list offset outside precomputed M2L set");
                            linalg::axpy(kscale, &m.matvec(src_equiv), &mut check);
                            any = true;
                        }
                    }

                    // P2L from the X list
                    if !node.x_list.is_empty() {
                        let dc = cube_surface(self.ops.p, center, RAD_INNER * h);
                        for &x in &node.x_list {
                            let xn = &nodes[x as usize];
                            let (a, b) = xn.src_range;
                            if a == b {
                                continue;
                            }
                            let pts = &self.src_pts[a as usize..b as usize];
                            let dat = &data[a as usize * self.sd..b as usize * self.sd];
                            for (i, &t) in dc.iter().enumerate() {
                                let o = &mut check[i * self.ops.vdim..(i + 1) * self.ops.vdim];
                                for (j, &s) in pts.iter().enumerate() {
                                    self.src_kernel.eval_acc(
                                        t,
                                        s,
                                        &dat[j * self.sd..(j + 1) * self.sd],
                                        o,
                                    );
                                }
                            }
                            any = true;
                        }
                    }

                    let mut equiv = if any {
                        let scale = h.powf(-deg);
                        let mut d = self.ops.dc2de_t.matvec_t(&check);
                        d.iter_mut().for_each(|v| *v *= scale);
                        d
                    } else {
                        Vec::new()
                    };

                    // L2L from the parent
                    if node.parent != NONE {
                        let pd = &dn_equiv[node.parent as usize];
                        if !pd.is_empty() {
                            if equiv.is_empty() {
                                equiv = vec![0.0; nd_eq];
                            }
                            let oct = node.key.child_index();
                            linalg::axpy(1.0, &self.ops.l2l_t[oct].matvec_t(pd), &mut equiv);
                        }
                    }
                    (ni, equiv)
                })
                .collect();
            for (ni, equiv) in results {
                dn_equiv[ni as usize] = equiv;
            }
        }

        // ---------------- leaf evaluation ----------------
        let leaves = self.tree.leaves();
        let chunks: Vec<(u32, Vec<f64>)> = leaves
            .iter()
            .filter(|&&li| nodes[li as usize].ntrg() > 0)
            .map(|&li| {
                let node = &nodes[li as usize];
                let (t0, t1) = node.trg_range;
                let trgs = &self.trg_pts[t0 as usize..t1 as usize];
                let mut out = vec![0.0; trgs.len() * self.td];

                // P2P over the U list
                for &u in &node.u_list {
                    let un = &nodes[u as usize];
                    let (a, b) = un.src_range;
                    if a == b {
                        continue;
                    }
                    let pts = &self.src_pts[a as usize..b as usize];
                    let dat = &data[a as usize * self.sd..b as usize * self.sd];
                    for (i, &t) in trgs.iter().enumerate() {
                        let o = &mut out[i * self.td..(i + 1) * self.td];
                        for (j, &s) in pts.iter().enumerate() {
                            self.src_kernel
                                .eval_acc(t, s, &dat[j * self.sd..(j + 1) * self.sd], o);
                        }
                    }
                }

                // L2T: own downward equivalent density
                let dn = &dn_equiv[li as usize];
                if !dn.is_empty() {
                    let h = self.tree.node_half(li);
                    let center = self.tree.node_center(li);
                    let de = cube_surface(self.ops.p, center, RAD_OUTER * h);
                    let dns = self.scaled_density(dn, h);
                    for (i, &t) in trgs.iter().enumerate() {
                        let o = &mut out[i * self.td..(i + 1) * self.td];
                        for (j, &s) in de.iter().enumerate() {
                            self.eq_kernel.eval_acc(
                                t,
                                s,
                                &dns[j * self.ops.sdim..(j + 1) * self.ops.sdim],
                                o,
                            );
                        }
                    }
                }

                // M2T: W-list multipoles evaluated directly
                for &w in &node.w_list {
                    let wu = &up_equiv[w as usize];
                    if wu.is_empty() {
                        continue;
                    }
                    let h = self.tree.node_half(w);
                    let center = self.tree.node_center(w);
                    let ue = cube_surface(self.ops.p, center, RAD_INNER * h);
                    let wus = self.scaled_density(wu, h);
                    for (i, &t) in trgs.iter().enumerate() {
                        let o = &mut out[i * self.td..(i + 1) * self.td];
                        for (j, &s) in ue.iter().enumerate() {
                            self.eq_kernel.eval_acc(
                                t,
                                s,
                                &wus[j * self.ops.sdim..(j + 1) * self.ops.sdim],
                                o,
                            );
                        }
                    }
                }
                (li, out)
            })
            .collect();

        // scatter back to the original target order
        let mut out = vec![0.0; self.n_trg * self.td];
        for (li, vals) in chunks {
            let (t0, _) = nodes[li as usize].trg_range;
            for (i, chunk) in vals.chunks(self.td).enumerate() {
                let orig = self.tree.trg_order[t0 as usize + i] as usize;
                out[orig * self.td..(orig + 1) * self.td].copy_from_slice(chunk);
            }
        }
        out
    }
}
