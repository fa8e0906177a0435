//! Adaptive, 2:1-balanced linear octree over source and target point sets.
//!
//! This is the tree structure underneath the kernel-independent FMM (the
//! role PVFMM's distributed octree plays in the paper). Construction:
//!
//! 1. sort source and target points by their Morton codes at maximum depth;
//! 2. split top-down while a node holds more points than the leaf capacity
//!    (children that contain no points are pruned);
//! 3. enforce the 2:1 balance condition (adjacent leaves differ by at most
//!    one level) by splitting coarse leaves, which keeps the FMM interaction
//!    lists bounded;
//! 4. build the classic adaptive-FMM interaction lists (U, V, W, X) for
//!    every node.
//!
//! Every node stores contiguous ranges into the Morton-sorted permutations
//! of the input points, so per-leaf point access is allocation-free.

use crate::morton::{point_morton, MortonKey, MAX_DEPTH};
use linalg::{Aabb, Vec3};
use std::collections::HashMap;

/// Sentinel for "no node".
pub const NONE: u32 = u32::MAX;

/// Result of [`Octree::retarget`]: targets that could not be assigned to a
/// leaf of the frozen (source-built) tree.
///
/// A source-only tree prunes boxes that hold no sources, so a target may
/// land in a region with no leaf — its deepest covering node is *internal*
/// (a "virtual leaf" position). Targets outside the root cube cannot be
/// Morton-binned at all and are listed separately.
#[derive(Clone, Debug, Default)]
pub struct Retarget {
    /// Original indices of targets outside the root cube.
    pub outside: Vec<u32>,
    /// `(owner node, deep Morton code, original index)` for each target
    /// whose deepest covering node is internal, sorted by that tuple — so
    /// entries sharing an owner are contiguous and Morton-ordered within
    /// the owner.
    pub virt: Vec<(u32, u64, u32)>,
}

/// A node of the octree.
#[derive(Clone, Debug)]
pub struct Node {
    /// Geometric key (level + anchor).
    pub key: MortonKey,
    /// Parent node index (`NONE` for the root).
    pub parent: u32,
    /// Child node indices (`NONE` where the child does not exist).
    pub children: [u32; 8],
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Range into [`Octree::src_order`] of sources inside this node.
    pub src_range: (u32, u32),
    /// Range into [`Octree::trg_order`] of targets inside this node.
    pub trg_range: (u32, u32),
    /// U list (leaves only): adjacent leaves of any level, including self.
    pub u_list: Vec<u32>,
    /// V list: children of the parent's colleagues not adjacent to this node.
    pub v_list: Vec<u32>,
    /// W list (leaves only): non-adjacent descendants of colleagues whose
    /// parent is adjacent; their multipole is evaluated directly at targets.
    pub w_list: Vec<u32>,
    /// X list: dual of W — leaves whose sources enter this node's local
    /// expansion directly.
    pub x_list: Vec<u32>,
}

impl Node {
    fn new(key: MortonKey, parent: u32) -> Node {
        Node {
            key,
            parent,
            children: [NONE; 8],
            is_leaf: true,
            src_range: (0, 0),
            trg_range: (0, 0),
            u_list: Vec::new(),
            v_list: Vec::new(),
            w_list: Vec::new(),
            x_list: Vec::new(),
        }
    }

    /// Number of source points in this node.
    pub fn nsrc(&self) -> usize {
        (self.src_range.1 - self.src_range.0) as usize
    }

    /// Number of target points in this node.
    pub fn ntrg(&self) -> usize {
        (self.trg_range.1 - self.trg_range.0) as usize
    }
}

/// Construction options.
#[derive(Clone, Copy, Debug)]
pub struct TreeOptions {
    /// Split a node when it holds more than this many points (src + trg).
    pub leaf_capacity: usize,
    /// Hard depth limit.
    pub max_depth: u32,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions {
            leaf_capacity: 160,
            max_depth: 12,
        }
    }
}

/// The adaptive octree. See the module docs.
#[derive(Clone, Debug)]
pub struct Octree {
    /// Center of the root cube.
    pub center: Vec3,
    /// Half-width of the root cube.
    pub half: f64,
    /// All nodes; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Permutation of the source points in Morton order.
    pub src_order: Vec<u32>,
    /// Permutation of the target points in Morton order.
    pub trg_order: Vec<u32>,
    /// Node indices grouped by level (index 0 = root level).
    pub levels: Vec<Vec<u32>>,
    key_to_node: HashMap<MortonKey, u32>,
    src_codes: Vec<u64>,
    trg_codes: Vec<u64>,
}

impl Octree {
    /// Builds the tree over the given sources and targets.
    ///
    /// The root cube is the inflated bounding cube of all points. Either set
    /// may be empty (but not both).
    pub fn build(src: &[Vec3], trg: &[Vec3], opts: TreeOptions) -> Octree {
        assert!(
            !src.is_empty() || !trg.is_empty(),
            "Octree::build: no points"
        );
        let bbox = Aabb::from_points(src.iter().chain(trg.iter()).copied());
        let ext = bbox.extent();
        let half = (0.5 * ext.max_component()).max(1e-12) * (1.0 + 1e-9) + 1e-300;
        let center = bbox.center();

        // Morton codes at max resolution + argsort
        let mut src_codes: Vec<u64> = src.iter().map(|&p| point_morton(p, center, half)).collect();
        let mut trg_codes: Vec<u64> = trg.iter().map(|&p| point_morton(p, center, half)).collect();
        let mut src_order: Vec<u32> = (0..src.len() as u32).collect();
        let mut trg_order: Vec<u32> = (0..trg.len() as u32).collect();
        src_order.sort_unstable_by_key(|&i| src_codes[i as usize]);
        trg_order.sort_unstable_by_key(|&i| trg_codes[i as usize]);
        // reorder codes into sorted order for range splitting
        src_codes = src_order.iter().map(|&i| src_codes[i as usize]).collect();
        trg_codes = trg_order.iter().map(|&i| trg_codes[i as usize]).collect();

        let mut tree = Octree {
            center,
            half,
            nodes: vec![Node::new(MortonKey::ROOT, NONE)],
            src_order,
            trg_order,
            levels: Vec::new(),
            key_to_node: HashMap::new(),
            src_codes,
            trg_codes,
        };
        tree.nodes[0].src_range = (0, tree.src_order.len() as u32);
        tree.nodes[0].trg_range = (0, tree.trg_order.len() as u32);

        // top-down refinement
        let mut stack = vec![0u32];
        while let Some(ni) = stack.pop() {
            let n = &tree.nodes[ni as usize];
            if n.nsrc() + n.ntrg() > opts.leaf_capacity && n.key.level < opts.max_depth {
                let children = tree.split(ni);
                stack.extend(children);
            }
        }

        tree.balance(opts.max_depth);
        tree.finalize();
        tree
    }

    /// Splits node `ni` into its nonempty children; returns their indices.
    fn split(&mut self, ni: u32) -> Vec<u32> {
        let key = self.nodes[ni as usize].key;
        let (s0, s1) = self.nodes[ni as usize].src_range;
        let (t0, t1) = self.nodes[ni as usize].trg_range;
        let child_keys = key.children();
        let mut out = Vec::with_capacity(8);
        // children partition the Morton code range of the parent; find
        // boundaries by binary search on the sorted deep codes.
        let mut s_lo = s0 as usize;
        let mut t_lo = t0 as usize;
        for (ci, ck) in child_keys.iter().enumerate() {
            // upper bound of this child's code range
            let hi_code = child_code_upper_bound(*ck);
            let s_hi = upper_bound(&self.src_codes[..s1 as usize], s_lo, hi_code);
            let t_hi = upper_bound(&self.trg_codes[..t1 as usize], t_lo, hi_code);
            if s_hi > s_lo || t_hi > t_lo {
                let idx = self.nodes.len() as u32;
                let mut child = Node::new(*ck, ni);
                child.src_range = (s_lo as u32, s_hi as u32);
                child.trg_range = (t_lo as u32, t_hi as u32);
                self.nodes.push(child);
                self.nodes[ni as usize].children[ci] = idx;
                out.push(idx);
            }
            s_lo = s_hi;
            t_lo = t_hi;
        }
        self.nodes[ni as usize].is_leaf = false;
        out
    }

    /// Enforces the 2:1 balance condition by splitting coarse leaves that
    /// neighbour much finer ones. Splitting a leaf may create new
    /// violations, so we iterate to a fixed point.
    fn balance(&mut self, max_depth: u32) {
        loop {
            let mut to_split: Vec<u32> = Vec::new();
            // collect current leaves by level, finest first
            let mut leaves: Vec<u32> = (0..self.nodes.len() as u32)
                .filter(|&i| self.nodes[i as usize].is_leaf)
                .collect();
            leaves.sort_by_key(|&i| std::cmp::Reverse(self.nodes[i as usize].key.level));
            for &li in &leaves {
                let key = self.nodes[li as usize].key;
                if key.level <= 1 {
                    continue;
                }
                // every neighbour region at level-1 must not be covered by a
                // leaf coarser than level-1
                for nb in key.parent().neighbors() {
                    if let Some(cover) = self.deepest_node_covering(nb) {
                        let cn = &self.nodes[cover as usize];
                        if cn.is_leaf && cn.key.level < nb.level && cn.key.level < max_depth {
                            to_split.push(cover);
                        }
                    }
                }
            }
            to_split.sort_unstable();
            to_split.dedup();
            if to_split.is_empty() {
                break;
            }
            for ni in to_split {
                if self.nodes[ni as usize].is_leaf {
                    self.split(ni);
                }
            }
        }
    }

    /// Finds the deepest existing node whose region contains the region of
    /// `key` (i.e. the node is an ancestor-or-self of `key`).
    fn deepest_node_covering(&self, key: MortonKey) -> Option<u32> {
        let mut cur = 0u32; // root
        loop {
            let node = &self.nodes[cur as usize];
            if node.key.level == key.level || node.is_leaf {
                return Some(cur);
            }
            let child_key = key.ancestor_at(node.key.level + 1);
            let ci = child_key.child_index();
            let child = node.children[ci];
            if child == NONE {
                // region exists geometrically but holds no points
                return Some(cur);
            }
            cur = child;
        }
    }

    /// Looks up a node by exact key.
    pub fn node_by_key(&self, key: MortonKey) -> Option<u32> {
        self.key_to_node.get(&key).copied()
    }

    /// Re-bins a new target set onto the existing (frozen) tree without
    /// touching its structure, sources, or interaction lists.
    ///
    /// Targets that land in a leaf are Morton-sorted into `trg_order` and
    /// the per-node `trg_range`s are rebuilt top-down. Targets whose
    /// deepest covering node is internal (their region was pruned at build
    /// time) and targets outside the root cube are returned in the
    /// [`Retarget`] — the caller must evaluate those separately.
    pub fn retarget(&mut self, trg: &[Vec3]) -> Retarget {
        let mut ret = Retarget::default();
        let mut regular: Vec<(u64, u32)> = Vec::with_capacity(trg.len());
        for (i, &p) in trg.iter().enumerate() {
            // `point_morton` clamps to the cube, so outside-ness must be
            // tested explicitly
            let d = p - self.center;
            if d.x.abs() > self.half || d.y.abs() > self.half || d.z.abs() > self.half {
                ret.outside.push(i as u32);
                continue;
            }
            let code = point_morton(p, self.center, self.half);
            let deep = MortonKey {
                level: MAX_DEPTH,
                code,
            };
            let mut cur = 0u32;
            loop {
                let node = &self.nodes[cur as usize];
                if node.is_leaf {
                    regular.push((code, i as u32));
                    break;
                }
                let ci = deep.ancestor_at(node.key.level + 1).child_index();
                let child = node.children[ci];
                if child == NONE {
                    ret.virt.push((cur, code, i as u32));
                    break;
                }
                cur = child;
            }
        }
        ret.virt.sort_unstable();
        regular.sort_unstable();
        self.trg_codes = regular.iter().map(|&(c, _)| c).collect();
        self.trg_order = regular.iter().map(|&(_, i)| i).collect();

        // rebuild target ranges top-down in level order (a node's range is
        // fixed before its children partition it)
        for n in &mut self.nodes {
            n.trg_range = (0, 0);
        }
        self.nodes[0].trg_range = (0, self.trg_order.len() as u32);
        let level_order: Vec<u32> = self.levels.iter().flatten().copied().collect();
        for &ni in &level_order {
            if self.nodes[ni as usize].is_leaf {
                continue;
            }
            let (t0, t1) = self.nodes[ni as usize].trg_range;
            let child_keys = self.nodes[ni as usize].key.children();
            let children = self.nodes[ni as usize].children;
            let mut t_lo = t0 as usize;
            for (ci, ck) in child_keys.iter().enumerate() {
                let t_hi = upper_bound(
                    &self.trg_codes[..t1 as usize],
                    t_lo,
                    child_code_upper_bound(*ck),
                );
                if children[ci] != NONE {
                    self.nodes[children[ci] as usize].trg_range = (t_lo as u32, t_hi as u32);
                } else {
                    // targets in pruned regions were routed to `virt` above
                    debug_assert_eq!(t_lo, t_hi);
                }
                t_lo = t_hi;
            }
        }
        ret
    }

    /// Builds the level lists, the key map, and all interaction lists.
    fn finalize(&mut self) {
        let max_level = self.nodes.iter().map(|n| n.key.level).max().unwrap_or(0);
        self.levels = vec![Vec::new(); (max_level + 1) as usize];
        self.key_to_node = HashMap::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            self.levels[n.key.level as usize].push(i as u32);
            self.key_to_node.insert(n.key, i as u32);
        }

        // V lists (any node): children of the parent's colleagues not
        // adjacent to the node
        let v_lists: Vec<Vec<u32>> = (0..self.nodes.len())
            .map(|i| {
                let node = &self.nodes[i];
                let mut v = Vec::new();
                if node.parent != NONE {
                    let parent = &self.nodes[node.parent as usize];
                    for nb in parent.key.neighbors() {
                        if let Some(pc) = self.node_by_key(nb) {
                            for &c in &self.nodes[pc as usize].children {
                                if c != NONE && !self.nodes[c as usize].key.is_adjacent(node.key) {
                                    v.push(c);
                                }
                            }
                        }
                    }
                }
                v
            })
            .collect();
        for (node, v) in self.nodes.iter_mut().zip(v_lists) {
            node.v_list = v;
        }

        // U and W lists for leaves
        let uw: Vec<(usize, Vec<u32>, Vec<u32>)> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf)
            .map(|i| {
                let (u, w) = self.compute_u_w(i as u32);
                (i, u, w)
            })
            .collect();
        for (i, u, w) in &uw {
            self.nodes[*i].u_list = u.clone();
            self.nodes[*i].w_list = w.clone();
        }

        // X list = dual of W
        let mut x: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        for (i, _, w) in &uw {
            for &c in w {
                x[c as usize].push(*i as u32);
            }
        }
        for (i, xi) in x.into_iter().enumerate() {
            self.nodes[i].x_list = xi;
        }
    }

    /// Computes the U and W lists of leaf `li`.
    fn compute_u_w(&self, li: u32) -> (Vec<u32>, Vec<u32>) {
        let (mut u, w) = self.near_lists(li);
        u.push(li);
        u.sort_unstable();
        u.dedup();
        (u, w)
    }

    /// Near-field lists of *any* node (leaf or internal), excluding the
    /// node itself: adjacent leaves (U-style, exact P2P) and non-adjacent
    /// subtrees whose parent is adjacent (W-style, multipole-at-target).
    ///
    /// Walks the (≤26) same-level neighbour regions. For each region we find
    /// the covering node: a coarser-or-equal leaf goes straight to U; an
    /// internal node is descended, collecting adjacent leaves into U and
    /// non-adjacent child subtrees (whose parent is adjacent) into W.
    ///
    /// For a leaf this is its U (minus self) and W lists. For an internal
    /// node it gives the near field of a point anywhere inside the node —
    /// the W margin is the same as for a leaf (a W member at level `l` is
    /// non-adjacent to the node, so any interior point is at least three
    /// level-`l` half-widths from the member's centre). Sources inside the
    /// node's own subtree are *not* covered and must be handled by the
    /// caller.
    pub fn near_lists(&self, ni: u32) -> (Vec<u32>, Vec<u32>) {
        let key = self.nodes[ni as usize].key;
        let mut u = Vec::new();
        let mut w = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for nb in key.neighbors() {
            if let Some(ci) = self.deepest_node_covering(nb) {
                let cn = &self.nodes[ci as usize];
                if cn.key.level < nb.level {
                    // coarser covering node: if it's a leaf it is adjacent
                    if cn.is_leaf {
                        u.push(ci);
                    }
                    // an internal coarser cover means the region holds no
                    // points (child absent) -> nothing to do
                } else if cn.is_leaf {
                    u.push(ci);
                } else {
                    stack.push(ci);
                }
            }
        }
        while let Some(si) = stack.pop() {
            for &c in &self.nodes[si as usize].children {
                if c == NONE {
                    continue;
                }
                let cn = &self.nodes[c as usize];
                if cn.key.is_adjacent(key) {
                    if cn.is_leaf {
                        u.push(c);
                    } else {
                        stack.push(c);
                    }
                } else {
                    // parent was adjacent, this child is not: W list
                    w.push(c);
                }
            }
        }
        u.sort_unstable();
        u.dedup();
        (u, w)
    }

    /// Leaf node indices.
    pub fn leaves(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].is_leaf)
            .collect()
    }

    /// Center of a node's cube.
    pub fn node_center(&self, ni: u32) -> Vec3 {
        let key = self.nodes[ni as usize].key;
        let (x, y, z) = key.anchor();
        let w = 2.0 * self.half / (1u64 << key.level) as f64;
        let lo = self.center - Vec3::splat(self.half);
        lo + Vec3::new(
            (x as f64 + 0.5) * w,
            (y as f64 + 0.5) * w,
            (z as f64 + 0.5) * w,
        )
    }

    /// Half-width of a node's cube.
    pub fn node_half(&self, ni: u32) -> f64 {
        self.half / (1u64 << self.nodes[ni as usize].key.level) as f64
    }

    /// Source indices (into the original input array) owned by node `ni`.
    pub fn node_sources(&self, ni: u32) -> &[u32] {
        let (a, b) = self.nodes[ni as usize].src_range;
        &self.src_order[a as usize..b as usize]
    }

    /// Target indices (into the original input array) owned by node `ni`.
    pub fn node_targets(&self, ni: u32) -> &[u32] {
        let (a, b) = self.nodes[ni as usize].trg_range;
        &self.trg_order[a as usize..b as usize]
    }

    /// Maximum depth actually present in the tree.
    pub fn depth(&self) -> u32 {
        (self.levels.len() as u32).saturating_sub(1)
    }
}

/// Exclusive upper bound of the deep-Morton code range covered by `key`.
fn child_code_upper_bound(key: MortonKey) -> u64 {
    let shift = 3 * (MAX_DEPTH - key.level) as u64;
    if shift >= 64 {
        u64::MAX
    } else {
        key.code + (1u64 << shift)
    }
}

/// First index in `codes[lo..]` with `codes[i] >= bound`, i.e. the exclusive
/// end of the range `< bound`.
fn upper_bound(codes: &[u64], lo: usize, bound: u64) -> usize {
    let slice = &codes[lo..];
    lo + slice.partition_point(|&c| c < bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_cloud(rng: &mut StdRng, n: usize, spread: f64) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-spread..spread),
                    rng.random_range(-spread..spread),
                    rng.random_range(-spread..spread),
                )
            })
            .collect()
    }

    fn check_invariants(tree: &Octree, nsrc: usize, ntrg: usize) {
        // every point appears in exactly one leaf
        let mut src_seen = vec![false; nsrc];
        let mut trg_seen = vec![false; ntrg];
        for li in tree.leaves() {
            for &s in tree.node_sources(li) {
                assert!(!src_seen[s as usize], "source {s} in two leaves");
                src_seen[s as usize] = true;
            }
            for &t in tree.node_targets(li) {
                assert!(!trg_seen[t as usize], "target {t} in two leaves");
                trg_seen[t as usize] = true;
            }
        }
        assert!(src_seen.iter().all(|&b| b));
        assert!(trg_seen.iter().all(|&b| b));

        // children ranges partition parents; parent/child keys consistent
        for (i, n) in tree.nodes.iter().enumerate() {
            if !n.is_leaf {
                let mut ns = 0;
                let mut nt = 0;
                for &c in &n.children {
                    if c != NONE {
                        let cn = &tree.nodes[c as usize];
                        assert_eq!(cn.parent, i as u32);
                        assert_eq!(cn.key.parent(), n.key);
                        ns += cn.nsrc();
                        nt += cn.ntrg();
                    }
                }
                assert_eq!(ns, n.nsrc(), "node {i} source partition");
                assert_eq!(nt, n.ntrg(), "node {i} target partition");
            }
        }
    }

    #[test]
    fn build_uniform_cloud() {
        let mut rng = StdRng::seed_from_u64(1);
        let src = random_cloud(&mut rng, 500, 1.0);
        let trg = random_cloud(&mut rng, 300, 1.0);
        let tree = Octree::build(
            &src,
            &trg,
            TreeOptions {
                leaf_capacity: 40,
                max_depth: 10,
            },
        );
        check_invariants(&tree, 500, 300);
        // leaves respect capacity unless depth-limited
        for li in tree.leaves() {
            let n = &tree.nodes[li as usize];
            if n.key.level < 10 {
                assert!(
                    n.nsrc() + n.ntrg() <= 40,
                    "leaf overflow: {}",
                    n.nsrc() + n.ntrg()
                );
            }
        }
    }

    #[test]
    fn two_to_one_balance_holds() {
        let mut rng = StdRng::seed_from_u64(2);
        // highly non-uniform: dense cluster + sparse halo
        let mut pts = random_cloud(&mut rng, 800, 0.01);
        pts.extend(random_cloud(&mut rng, 50, 1.0));
        let tree = Octree::build(
            &pts,
            &pts,
            TreeOptions {
                leaf_capacity: 30,
                max_depth: 14,
            },
        );
        let leaves = tree.leaves();
        for &a in &leaves {
            for &b in &leaves {
                let ka = tree.nodes[a as usize].key;
                let kb = tree.nodes[b as usize].key;
                if ka.is_adjacent(kb) {
                    let d = (ka.level as i64 - kb.level as i64).abs();
                    assert!(
                        d <= 1,
                        "balance violated: levels {} vs {}",
                        ka.level,
                        kb.level
                    );
                }
            }
        }
    }

    #[test]
    fn u_list_symmetric_and_contains_self() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = random_cloud(&mut rng, 600, 1.0);
        let tree = Octree::build(
            &pts,
            &pts,
            TreeOptions {
                leaf_capacity: 25,
                max_depth: 10,
            },
        );
        for li in tree.leaves() {
            let u = &tree.nodes[li as usize].u_list;
            assert!(u.contains(&li), "U list must contain self");
            for &o in u {
                assert!(tree.nodes[o as usize].is_leaf);
                assert!(
                    tree.nodes[o as usize].u_list.contains(&li),
                    "U list not symmetric between {li} and {o}"
                );
            }
        }
    }

    #[test]
    fn interaction_lists_cover_all_pairs_exactly_once() {
        // Structural completeness: simulate the FMM contribution paths with
        // a counting kernel. For each (target leaf B, source leaf L) the
        // source must be counted exactly once through U, V, W or X.
        let mut rng = StdRng::seed_from_u64(4);
        let mut pts = random_cloud(&mut rng, 300, 1.0);
        pts.extend(random_cloud(&mut rng, 300, 0.05)); // cluster for adaptivity
        let tree = Octree::build(
            &pts,
            &pts,
            TreeOptions {
                leaf_capacity: 20,
                max_depth: 12,
            },
        );
        let n = tree.nodes.len();

        // multipole counts: number of sources per node (upward pass)
        let mult: Vec<usize> = tree.nodes.iter().map(|node| node.nsrc()).collect();

        // local counts via V and X lists, propagated down (L2L)
        let mut local = vec![0usize; n];
        let level_order: Vec<u32> = tree.levels.iter().flatten().copied().collect();
        for &i in &level_order {
            let node = &tree.nodes[i as usize];
            for &v in &node.v_list {
                local[i as usize] += mult[v as usize];
            }
            for &x in &node.x_list {
                local[i as usize] += tree.nodes[x as usize].nsrc();
            }
        }
        // push locals to children
        for &i in &level_order {
            let node = &tree.nodes[i as usize];
            if !node.is_leaf {
                for &c in &node.children {
                    if c != NONE {
                        local[c as usize] += local[i as usize];
                    }
                }
            }
        }

        let total: usize = tree.nodes[0].nsrc();
        for li in tree.leaves() {
            if tree.nodes[li as usize].ntrg() == 0 {
                continue;
            }
            let node = &tree.nodes[li as usize];
            let mut count = local[li as usize];
            for &u in &node.u_list {
                count += tree.nodes[u as usize].nsrc();
            }
            for &w in &node.w_list {
                count += mult[w as usize];
            }
            assert_eq!(
                count, total,
                "leaf {li}: covered {count} of {total} sources"
            );
        }
    }

    #[test]
    fn node_geometry_contains_its_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let pts = random_cloud(&mut rng, 400, 2.5);
        let tree = Octree::build(
            &pts,
            &[],
            TreeOptions {
                leaf_capacity: 15,
                max_depth: 10,
            },
        );
        for li in tree.leaves() {
            let c = tree.node_center(li);
            let h = tree.node_half(li) * (1.0 + 1e-9);
            for &s in tree.node_sources(li) {
                let p = pts[s as usize];
                assert!(
                    (p.x - c.x).abs() <= h && (p.y - c.y).abs() <= h && (p.z - c.z).abs() <= h,
                    "point outside its leaf box"
                );
            }
        }
    }

    #[test]
    fn single_point_tree() {
        let pts = vec![Vec3::new(0.3, -0.2, 0.9)];
        let tree = Octree::build(&pts, &pts, TreeOptions::default());
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.nodes[0].is_leaf);
        assert_eq!(tree.node_sources(0), &[0]);
    }

    /// A frozen source-only tree re-binned onto a new target set must
    /// account for every target exactly once: in a leaf, as a virtual
    /// target of an internal owner, or as outside the root cube.
    #[test]
    fn retarget_partitions_every_target_exactly_once() {
        let mut rng = StdRng::seed_from_u64(6);
        // shell-like sources (pruned interior) so virtual owners appear
        let src: Vec<Vec3> = (0..700)
            .map(|_| {
                let d = Vec3::new(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                )
                .normalized();
                d * rng.random_range(0.9..1.0)
            })
            .collect();
        let mut tree = Octree::build(
            &src,
            &[],
            TreeOptions {
                leaf_capacity: 20,
                max_depth: 10,
            },
        );
        // targets throughout the interior + a few outside the cube
        let mut trg = random_cloud(&mut rng, 400, 0.8);
        trg.extend(random_cloud(&mut rng, 10, 5.0));
        let ret = tree.retarget(&trg);

        let mut seen = vec![0usize; trg.len()];
        for li in tree.leaves() {
            for &t in tree.node_targets(li) {
                seen[t as usize] += 1;
            }
        }
        for &(owner, code, t) in &ret.virt {
            let node = &tree.nodes[owner as usize];
            assert!(!node.is_leaf, "virtual owner must be internal");
            let deep = MortonKey {
                level: MAX_DEPTH,
                code,
            };
            assert!(node.key.is_ancestor_of(deep.ancestor_at(node.key.level)));
            // the child cell holding the target really is absent
            let ci = deep.ancestor_at(node.key.level + 1).child_index();
            assert_eq!(node.children[ci], NONE);
            seen[t as usize] += 1;
        }
        for &t in &ret.outside {
            let d = trg[t as usize] - tree.center;
            assert!(
                d.x.abs() > tree.half || d.y.abs() > tree.half || d.z.abs() > tree.half,
                "outside target is inside the cube"
            );
            seen[t as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "targets not partitioned");
        assert!(
            !ret.virt.is_empty(),
            "test geometry produced no virtual targets"
        );
        assert!(
            !ret.outside.is_empty(),
            "test geometry produced no outside targets"
        );

        // per-node target ranges still partition parents
        for (i, n) in tree.nodes.iter().enumerate() {
            if !n.is_leaf {
                let nt: usize = n
                    .children
                    .iter()
                    .filter(|&&c| c != NONE)
                    .map(|&c| tree.nodes[c as usize].ntrg())
                    .sum();
                assert_eq!(nt, n.ntrg(), "node {i} target partition");
            }
        }

        // re-binning a second target set and then the first again must
        // reproduce the first assignment exactly
        let order1 = tree.trg_order.clone();
        let ranges1: Vec<(u32, u32)> = tree.nodes.iter().map(|n| n.trg_range).collect();
        let other = random_cloud(&mut rng, 123, 0.5);
        let _ = tree.retarget(&other);
        let ret2 = tree.retarget(&trg);
        assert_eq!(order1, tree.trg_order);
        assert_eq!(
            ranges1,
            tree.nodes.iter().map(|n| n.trg_range).collect::<Vec<_>>()
        );
        assert_eq!(ret.outside, ret2.outside);
        assert_eq!(ret.virt, ret2.virt);
    }

    /// The virtual-owner evaluation identity: for an internal owner `n`,
    /// local(n) (V/X of `n` and its ancestors) + near_lists(n) + subtree(n)
    /// must cover every source exactly once — the same counting-kernel
    /// check `interaction_lists_cover_all_pairs_exactly_once` runs for
    /// leaves.
    #[test]
    fn virtual_owner_lists_cover_all_sources_exactly_once() {
        let mut rng = StdRng::seed_from_u64(14);
        let src: Vec<Vec3> = (0..900)
            .map(|_| {
                let d = Vec3::new(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                )
                .normalized();
                d * rng.random_range(0.85..1.0)
            })
            .collect();
        let mut tree = Octree::build(
            &src,
            &[],
            TreeOptions {
                leaf_capacity: 15,
                max_depth: 12,
            },
        );
        let trg = random_cloud(&mut rng, 300, 0.9);
        let ret = tree.retarget(&trg);
        assert!(!ret.virt.is_empty(), "no virtual owners to check");

        // local counts via V and X lists, propagated down (as in the leaf
        // coverage test; an internal node's nsrc() is its subtree count)
        let n = tree.nodes.len();
        let mut local = vec![0usize; n];
        let level_order: Vec<u32> = tree.levels.iter().flatten().copied().collect();
        for &i in &level_order {
            let node = &tree.nodes[i as usize];
            for &v in &node.v_list {
                local[i as usize] += tree.nodes[v as usize].nsrc();
            }
            for &x in &node.x_list {
                local[i as usize] += tree.nodes[x as usize].nsrc();
            }
        }
        for &i in &level_order {
            let node = &tree.nodes[i as usize];
            if !node.is_leaf {
                for &c in &node.children {
                    if c != NONE {
                        local[c as usize] += local[i as usize];
                    }
                }
            }
        }

        let total = tree.nodes[0].nsrc();
        let mut owners: Vec<u32> = ret.virt.iter().map(|&(o, _, _)| o).collect();
        owners.dedup();
        for owner in owners {
            let (u, w) = tree.near_lists(owner);
            assert!(!u.contains(&owner), "near_lists must exclude self");
            let mut count = local[owner as usize] + tree.nodes[owner as usize].nsrc();
            for &ui in &u {
                assert!(tree.nodes[ui as usize].is_leaf);
                count += tree.nodes[ui as usize].nsrc();
            }
            for &wi in &w {
                assert!(!tree.nodes[wi as usize]
                    .key
                    .is_adjacent(tree.nodes[owner as usize].key));
                count += tree.nodes[wi as usize].nsrc();
            }
            assert_eq!(
                count, total,
                "owner {owner}: covered {count} of {total} sources"
            );
        }
    }

    /// `near_lists` on a leaf must agree with its stored U (minus self)
    /// and W lists.
    #[test]
    fn near_lists_matches_leaf_u_w() {
        let mut rng = StdRng::seed_from_u64(15);
        let pts = random_cloud(&mut rng, 500, 1.0);
        let tree = Octree::build(
            &pts,
            &pts,
            TreeOptions {
                leaf_capacity: 25,
                max_depth: 10,
            },
        );
        for li in tree.leaves() {
            let (u, w) = tree.near_lists(li);
            let mut expect: Vec<u32> = tree.nodes[li as usize]
                .u_list
                .iter()
                .copied()
                .filter(|&x| x != li)
                .collect();
            expect.sort_unstable();
            assert_eq!(u, expect, "leaf {li} U mismatch");
            assert_eq!(w, tree.nodes[li as usize].w_list, "leaf {li} W mismatch");
        }
    }
}
