//! Parallel contact detection (§4, items 1–2 of the collision algorithm).
//!
//! 1. Space-time bounding boxes of all meshes are hashed and sorted to find
//!    candidate mesh pairs (Fig. 3; the same sort-based search as the
//!    closest-point machinery of §3.3, with `d_ε = 0` for static patches).
//! 2. A single binned uniform grid over the *triangle* AABBs of every mesh
//!    that survived step 1 generates vertex–triangle candidates: triangle
//!    boxes (inflated by δ) are binned into every grid cell they overlap,
//!    each vertex looks up only its own cell, and candidates are verified
//!    by the exact closest-point test. With cell size `δ + max(median
//!    edge, δ)` a
//!    triangle spans O(1) cells, so candidate generation is
//!    output-sensitive — the old path rebuilt a hash of *all* triangles of
//!    a mesh for every candidate mesh pair it appeared in. The old
//!    exhaustive scan survives behind [`BroadPhase::BruteForce`] as the
//!    equivalence-test reference.
//!
//! Determinism: both paths emit the identical pair set, canonically sorted
//! by `(object pair, vertex mesh, vertex, triangle mesh, triangle)` before
//! the interference values are accumulated, so `V` and every gradient is
//! bit-identical across paths, runs, and instances (the restart guarantee).
//!
//! Interference measure (a substitution for the paper's): where \[17\]/\[25\] compute
//! exact piecewise-linear space-time interference volumes, we use
//! `V_k = −Σ_pairs (δ − dist)₊ · a_v` accumulated over the vertex–triangle
//! pairs of contact `k`, with `a_v` the vertex area weight and `δ` the
//! contact threshold. `V_k < 0` exactly when surfaces come within `δ`, and
//! `∇V` distributes along the closest-point directions — preserving the
//! complementarity structure (Eq. 2.7) the paper's algorithm relies on.

use crate::mesh::{barycentric, closest_point_on_triangle, TriMesh};
use linalg::{Aabb, Vec3};
use octree::{box_box_candidates_self, mean_diagonal_spacing, SpatialHash};
use std::collections::HashMap;

/// A single vertex–triangle interaction inside a contact.
#[derive(Clone, Copy, Debug)]
pub struct ContactPair {
    /// Mesh owning the vertex.
    pub vert_mesh: u32,
    /// Vertex index within its mesh.
    pub vert: u32,
    /// Mesh owning the triangle.
    pub tri_mesh: u32,
    /// Triangle index within its mesh.
    pub tri: u32,
    /// Surface separation `dist − δ` (negative ⇒ active interference).
    pub gap: f64,
    /// Unit direction from the closest point on the triangle to the vertex.
    pub dir: Vec3,
    /// Barycentric coordinates of the closest point on the triangle.
    pub bary: (f64, f64, f64),
    /// Area weight of the pair (vertex area).
    pub weight: f64,
}

/// A connected contact between two objects (one component of `V`).
#[derive(Clone, Debug)]
pub struct Contact {
    /// First object id (always < `obj_b`).
    pub obj_a: u32,
    /// Second object id.
    pub obj_b: u32,
    /// Interference value `V_k` (negative while interfering).
    pub value: f64,
    /// Active vertex–triangle pairs, in canonical
    /// `(vert_mesh, vert, tri_mesh, tri)` order.
    pub pairs: Vec<ContactPair>,
}

impl Contact {
    /// Gradient of `V_k` w.r.t. the vertices of object `obj`, as a sparse
    /// list `(vertex, dV/dx)`. Moving a vertex along `+dir` opens the gap,
    /// increasing `V` (since `V = Σ gap·w` over active pairs).
    pub fn gradient(&self, obj: u32, meshes: &[TriMesh]) -> Vec<(u32, Vec3)> {
        let mut acc: HashMap<u32, Vec3> = HashMap::new();
        for p in &self.pairs {
            if p.vert_mesh == obj {
                *acc.entry(p.vert).or_insert(Vec3::ZERO) += p.dir * p.weight;
            }
            if p.tri_mesh == obj {
                let tri = meshes[p.tri_mesh as usize].tris[p.tri as usize];
                let (b0, b1, b2) = p.bary;
                *acc.entry(tri[0]).or_insert(Vec3::ZERO) -= p.dir * (p.weight * b0);
                *acc.entry(tri[1]).or_insert(Vec3::ZERO) -= p.dir * (p.weight * b1);
                *acc.entry(tri[2]).or_insert(Vec3::ZERO) -= p.dir * (p.weight * b2);
            }
        }
        let mut out: Vec<(u32, Vec3)> = acc.into_iter().collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }
}

/// Candidate-generation strategy for the vertex–triangle narrow phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BroadPhase {
    /// One binned grid over all active triangles (output-sensitive; the
    /// production path).
    #[default]
    Grid,
    /// Exhaustive all-vertex × all-triangle scan per candidate mesh pair —
    /// O(n·m) per pair, kept only as the equivalence-test reference.
    BruteForce,
}

/// Options for contact detection.
#[derive(Clone, Copy, Debug)]
pub struct DetectOptions {
    /// Contact activation threshold δ (surfaces closer than this count as
    /// interfering; acts as the minimal separation the NCP enforces).
    pub delta: f64,
    /// Candidate-generation strategy (grid unless testing).
    pub broad_phase: BroadPhase,
}

impl DetectOptions {
    /// Grid-backed detection with threshold `delta`.
    pub fn new(delta: f64) -> DetectOptions {
        DetectOptions {
            delta,
            broad_phase: BroadPhase::Grid,
        }
    }
}

/// Finds all contacts among the meshes at their *end-of-step* positions.
///
/// `start` optionally holds start-of-step vertex positions per mesh for the
/// space-time bounding boxes (pass `None` for a static check). `obj_of`
/// maps each mesh to its owning object id (all vessel patches share one
/// object so one `V` component forms per touching body pair).
pub fn detect_contacts(
    meshes: &[TriMesh],
    start: Option<&[Vec<Vec3>]>,
    obj_of: &[u32],
    opts: DetectOptions,
) -> Vec<Contact> {
    assert_eq!(meshes.len(), obj_of.len());
    // 1. space-time boxes + candidate mesh pairs
    let boxes: Vec<Aabb> = rayon::par::map_indexed(meshes.len(), |i| match start {
        Some(s) => meshes[i].space_time_box(&s[i], opts.delta),
        None => meshes[i].bounding_box().inflated(opts.delta),
    });
    let grid = SpatialHash::new(mean_diagonal_spacing(&boxes).max(opts.delta), Vec3::ZERO);
    let mesh_pairs: Vec<(u32, u32)> = box_box_candidates_self(&boxes, &grid)
        .into_iter()
        .filter(|&(a, b)| obj_of[a as usize] != obj_of[b as usize])
        .collect();

    // 2. vertex–triangle pairs among the meshes with candidate partners
    let mut raw: Vec<ContactPair> = match opts.broad_phase {
        BroadPhase::Grid => grid_pairs(meshes, &boxes, &mesh_pairs, obj_of, opts.delta),
        BroadPhase::BruteForce => brute_force_pairs(meshes, &mesh_pairs, opts.delta),
    };

    // canonical order: by object pair, then (vert_mesh, vert, tri_mesh,
    // tri). Both broad phases and any parallel split then accumulate V and
    // the gradients in the same floating-point order (a pair is emitted
    // once, so the keys are unique and an unstable sort is deterministic).
    let pair_objs = |p: &ContactPair| {
        let oa = obj_of[p.vert_mesh as usize];
        let ob = obj_of[p.tri_mesh as usize];
        (oa.min(ob), oa.max(ob))
    };
    raw.sort_unstable_by_key(|p| (pair_objs(p), p.vert_mesh, p.vert, p.tri_mesh, p.tri));

    // group into contacts by scanning runs of equal object pairs
    let mut contacts: Vec<Contact> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let key = pair_objs(&raw[i]);
        let mut j = i;
        while j < raw.len() && pair_objs(&raw[j]) == key {
            j += 1;
        }
        let pairs = raw[i..j].to_vec();
        let value: f64 = pairs.iter().map(|p| p.gap * p.weight).sum();
        contacts.push(Contact {
            obj_a: key.0,
            obj_b: key.1,
            value,
            pairs,
        });
        i = j;
    }
    contacts
}

/// Exact narrow test: emits a pair when vertex `vi` of mesh `mv` lies
/// within `delta` of triangle `ti` of mesh `mt`.
#[inline]
fn try_pair(
    meshes: &[TriMesh],
    mv: u32,
    vi: u32,
    mt: u32,
    ti: u32,
    delta: f64,
) -> Option<ContactPair> {
    let vm = &meshes[mv as usize];
    let tm = &meshes[mt as usize];
    let t = tm.tris[ti as usize];
    let a = tm.verts[t[0] as usize];
    let b = tm.verts[t[1] as usize];
    let c = tm.verts[t[2] as usize];
    let p = vm.verts[vi as usize];
    let cp = closest_point_on_triangle(p, a, b, c);
    let d = (p - cp).norm();
    if d < delta && d > 1e-14 {
        Some(ContactPair {
            vert_mesh: mv,
            vert: vi,
            tri_mesh: mt,
            tri: ti,
            gap: d - delta,
            dir: (p - cp) / d,
            bary: barycentric(cp, a, b, c),
            weight: vm.vert_area[vi as usize],
        })
    } else {
        None
    }
}

/// Runs `f(mesh)` for every listed mesh across the worker threads and
/// concatenates the results in list order, so the output is the same at any
/// thread count.
fn per_mesh<T: Send>(meshes: &[u32], f: impl Fn(u32) -> Vec<T> + Sync) -> Vec<T> {
    let parts = rayon::par::map_indexed(meshes.len(), |i| f(meshes[i]));
    parts.into_iter().flatten().collect()
}

/// Output-sensitive narrow phase: one uniform grid over every mesh that
/// appears in a candidate pair. Vertices are binned into their cell (one
/// entry each); each triangle enumerates the cells its δ-inflated AABB
/// overlaps and tests the vertices found there.
///
/// Completeness: a vertex within δ of a triangle lies inside the
/// triangle's inflated AABB, hence inside one of the cells that box
/// overlaps. Uniqueness: a vertex occupies exactly one cell, so no
/// (vertex, triangle) pair is ever emitted twice. Candidates pass a cheap
/// box-containment reject (which cannot discard a true pair) before the
/// exact closest-point test, so the result set is identical to
/// [`BroadPhase::BruteForce`]'s.
///
/// Before any of that, a triangle whose margined box meets no space-time
/// box (`boxes`, step 1's) of an active mesh of another object is skipped
/// outright — most of a suspension's triangles face away from every
/// neighbour. The skip is conservative: an emitted pair's vertex lies
/// inside the triangle's margined box (the containment test) and inside
/// its own mesh's box (which bounds that mesh's vertices), so the two boxes
/// meet; the closed-interval test sees exactly that, with no rounding in
/// between.
///
/// Cell size is `δ + max(median edge, δ)` — the median edge length,
/// floored at δ so over-resolved meshes cannot shrink cells below the
/// interaction distance: the meshes mix
/// resolutions (finely upsampled cells against coarse vessel patches, and
/// occasionally a blown-up mesh mid-transient), and sizing by the max —
/// or even the mean — edge would collapse the grid into a few enormous
/// cells whose contents cross all-to-all. With the median, an oversized
/// triangle simply enumerates more cells (capped below) while the grid
/// stays matched to the healthy geometry.
fn grid_pairs(
    meshes: &[TriMesh],
    boxes: &[Aabb],
    mesh_pairs: &[(u32, u32)],
    obj_of: &[u32],
    delta: f64,
) -> Vec<ContactPair> {
    // meshes with at least one candidate partner
    let mut active: Vec<u32> = mesh_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    active.sort_unstable();
    active.dedup();
    if active.is_empty() {
        return Vec::new();
    }

    // median edge length: robust to blown-up meshes (a diverged implicit
    // update can stretch a single cell's triangles by orders of magnitude
    // mid-transient; a mean — let alone a max — would inflate the grid
    // cell until every vertex lands in one bin and the narrow phase goes
    // quadratic)
    let mut edges: Vec<f64> = per_mesh(&active, |mi| {
        let m = &meshes[mi as usize];
        let edges = |t: &[u32; 3]| {
            let a = m.verts[t[0] as usize];
            let b = m.verts[t[1] as usize];
            let c = m.verts[t[2] as usize];
            [(a - b).norm(), (b - c).norm(), (c - a).norm()]
        };
        m.tris.iter().flat_map(edges).collect()
    });
    let median_edge = if edges.is_empty() {
        0.0
    } else {
        let mid = edges.len() / 2;
        let (_, med, _) = edges.select_nth_unstable_by(mid, f64::total_cmp);
        *med
    };
    let grid = SpatialHash::new(delta + median_edge.max(delta), Vec3::ZERO);

    // bin vertices by their *integer cell coordinates* — deliberately not
    // by wrapped Morton key: the conservative run rejects below derive a
    // run's AABB from its cell, and a 21-bit key collision would group
    // far-apart vertices under one box, turning the reject into a false
    // negative exactly in the blown-up-mesh regime the fallback serves
    #[derive(Clone, Copy)]
    struct VertEntry {
        cell: (i64, i64, i64),
        mesh: u32,
        vert: u32,
    }
    let mut verts: Vec<VertEntry> = per_mesh(&active, |mi| {
        let entry = |(vi, &p): (usize, &Vec3)| VertEntry {
            cell: grid.cell_of(p),
            mesh: mi,
            vert: vi as u32,
        };
        let verts = &meshes[mi as usize].verts;
        verts.iter().enumerate().map(entry).collect()
    });
    verts.sort_unstable_by_key(|e| (e.cell, e.mesh, e.vert));
    // run = the vertices of one occupied cell; `cells` looks runs up by
    // cell for the enumeration path, `runs` keeps them in cell order with
    // their cell boxes for the capped-triangle fallback below
    struct CellRun {
        lo: Vec3,
        hi: Vec3,
        start: u32,
        end: u32,
    }
    let mut cells: HashMap<(i64, i64, i64), u32> = HashMap::new();
    let mut runs: Vec<CellRun> = Vec::new();
    let mut start = 0;
    for i in 1..=verts.len() {
        if i == verts.len() || verts[i].cell != verts[start].cell {
            cells.insert(verts[start].cell, runs.len() as u32);
            let cell = verts[start].cell;
            let lo = grid.origin + Vec3::new(cell.0 as f64, cell.1 as f64, cell.2 as f64) * grid.h;
            runs.push(CellRun {
                lo,
                hi: lo + Vec3::new(grid.h, grid.h, grid.h),
                start: start as u32,
                end: i as u32,
            });
            start = i;
        }
    }

    // a healthy triangle's inflated box overlaps a handful of cells; a
    // blown-up one could overlap billions, so enumeration is capped and
    // oversized triangles fall through to a sweep over the occupied-cell
    // runs, pruned by a box test and a plane-slab test (a stretched
    // triangle covers a huge box but stays razor-thin, so the slab rejects
    // nearly every cell). Both rejects are conservative — a vertex within
    // δ of the triangle can never be discarded — so the result set stays
    // identical to brute force.
    const CELL_CAP: f64 = 256.0;

    // per triangle: gather the vertices of every overlapped cell
    per_mesh(&active, |mi| {
        let m = &meshes[mi as usize];
        let obj = obj_of[mi as usize];
        let foreign: Vec<Aabb> = active
            .iter()
            .filter(|&&o| obj_of[o as usize] != obj)
            .map(|&o| boxes[o as usize])
            .collect();
        let mut out = Vec::new();
        for (ti, t) in m.tris.iter().enumerate() {
            let (ta, tb, tc) = (
                m.verts[t[0] as usize],
                m.verts[t[1] as usize],
                m.verts[t[2] as usize],
            );
            // every broad-phase reject below uses this box, inflated a
            // hair past δ: the extra margin absorbs the rounding of
            // `min − δ` and of the reconstructed run boxes, so no pair
            // whose exact test would pass (d < δ, to within an ulp)
            // can be discarded — only try_pair decides membership, and
            // the result set stays identical to brute force
            let coord_scale = [ta, tb, tc]
                .iter()
                .flat_map(|p| [p.x.abs(), p.y.abs(), p.z.abs()])
                .fold(1.0, f64::max);
            let eps = 1e-9 * (delta + coord_scale);
            let b = Aabb::from_points([ta, tb, tc]).inflated(delta + eps);
            if !foreign.iter().any(|&o| o.intersects(b)) {
                continue;
            }
            let (x0, y0, z0) = grid.cell_of(b.lo);
            let (x1, y1, z1) = grid.cell_of(b.hi);
            // in f64: a blown-up triangle's box can span enough cells
            // to overflow any integer product
            let span = (x1 as f64 - x0 as f64 + 1.0)
                * (y1 as f64 - y0 as f64 + 1.0)
                * (z1 as f64 - z0 as f64 + 1.0);
            let test = |v: &VertEntry, out: &mut Vec<ContactPair>| {
                if obj_of[v.mesh as usize] == obj {
                    return;
                }
                // cheap reject: outside the margined box ⇒ farther
                // than δ from the triangle
                if !b.contains(meshes[v.mesh as usize].verts[v.vert as usize]) {
                    return;
                }
                if let Some(p) = try_pair(meshes, v.mesh, v.vert, mi, ti as u32, delta) {
                    out.push(p);
                }
            };
            if span <= CELL_CAP {
                for z in z0..=z1 {
                    for y in y0..=y1 {
                        for x in x0..=x1 {
                            let Some(&ri) = cells.get(&(x, y, z)) else {
                                continue;
                            };
                            let run = &runs[ri as usize];
                            for v in &verts[run.start as usize..run.end as usize] {
                                test(v, &mut out);
                            }
                        }
                    }
                }
            } else {
                let n = (tb - ta).cross(tc - ta);
                let nn = n.norm();
                for run in &runs {
                    if run.hi.x < b.lo.x
                        || run.lo.x > b.hi.x
                        || run.hi.y < b.lo.y
                        || run.lo.y > b.hi.y
                        || run.hi.z < b.lo.z
                        || run.lo.z > b.hi.z
                    {
                        continue;
                    }
                    if nn > 1e-300 {
                        // slab reject: the whole cell is farther than δ
                        // (plus the rounding margin) from the plane
                        let center = (run.lo + run.hi) * 0.5;
                        let half = 0.5 * grid.h;
                        let dist = n.dot(center - ta).abs() / nn;
                        let radius = half * (n.x.abs() + n.y.abs() + n.z.abs()) / nn;
                        if dist - radius > delta + eps {
                            continue;
                        }
                    }
                    for v in &verts[run.start as usize..run.end as usize] {
                        test(v, &mut out);
                    }
                }
            }
        }
        out
    })
}

/// Reference narrow phase: every vertex of each candidate mesh pair against
/// every triangle of the partner, both directions.
fn brute_force_pairs(
    meshes: &[TriMesh],
    mesh_pairs: &[(u32, u32)],
    delta: f64,
) -> Vec<ContactPair> {
    let mut out = Vec::new();
    for &(ma, mb) in mesh_pairs {
        for (mv, mt) in [(ma, mb), (mb, ma)] {
            for vi in 0..meshes[mv as usize].verts.len() as u32 {
                for ti in 0..meshes[mt as usize].tris.len() as u32 {
                    out.extend(try_pair(meshes, mv, vi, mt, ti, delta));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{triangulate_grid, triangulate_latlon};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn flat_square(z: f64, shift: f64) -> TriMesh {
        let m = 5;
        let mut grid = Vec::new();
        for j in 0..m {
            for i in 0..m {
                grid.push(Vec3::new(i as f64 * 0.25 + shift, j as f64 * 0.25, z));
            }
        }
        triangulate_grid(&grid, m)
    }

    #[test]
    fn detects_close_parallel_sheets() {
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.05, 0.0);
        let contacts = detect_contacts(&[a, b], None, &[0, 1], DetectOptions::new(0.1));
        assert_eq!(contacts.len(), 1);
        let c = &contacts[0];
        assert!(c.value < 0.0, "V = {}", c.value);
        assert!(!c.pairs.is_empty());
        // gaps are dist − δ = −0.05
        for p in &c.pairs {
            assert!((p.gap + 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn no_contact_when_separated() {
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.5, 0.0);
        let contacts = detect_contacts(&[a, b], None, &[0, 1], DetectOptions::new(0.1));
        assert!(contacts.is_empty());
    }

    #[test]
    fn same_object_meshes_never_collide() {
        // two patches of the same vessel: near each other but same object id
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.05, 0.0);
        let contacts = detect_contacts(&[a, b], None, &[7, 7], DetectOptions::new(0.1));
        assert!(contacts.is_empty());
    }

    #[test]
    fn gradient_separates_objects() {
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.05, 0.0);
        let meshes = vec![a, b];
        let contacts = detect_contacts(&meshes, None, &[0, 1], DetectOptions::new(0.1));
        let c = &contacts[0];
        // gradient w.r.t. object 1 (upper sheet): moving up must increase V
        let g1 = c.gradient(1, &meshes);
        assert!(!g1.is_empty());
        let gsum: Vec3 = g1.iter().map(|(_, g)| *g).sum();
        assert!(
            gsum.z > 0.0,
            "gradient should push the upper sheet up: {gsum:?}"
        );
        let g0 = c.gradient(0, &meshes);
        let gsum0: Vec3 = g0.iter().map(|(_, g)| *g).sum();
        assert!(gsum0.z < 0.0, "lower sheet pushed down: {gsum0:?}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.06, 0.1);
        let meshes = vec![a.clone(), b.clone()];
        let opts = DetectOptions::new(0.1);
        let contacts = detect_contacts(&meshes, None, &[0, 1], opts);
        let c = &contacts[0];
        let g = c.gradient(1, &meshes);
        // pick a vertex with nonzero gradient and move it
        let (vi, grad) = g
            .iter()
            .max_by(|x, y| x.1.norm().partial_cmp(&y.1.norm()).unwrap())
            .copied()
            .unwrap();
        let h = 1e-7;
        for axis in 0..3 {
            let mut dir = Vec3::ZERO;
            dir[axis] = h;
            let mut moved = b.verts.clone();
            moved[vi as usize] += dir;
            let meshes2 = vec![a.clone(), b.with_positions(moved)];
            let c2 = detect_contacts(&meshes2, None, &[0, 1], opts);
            let v2 = c2.first().map(|c| c.value).unwrap_or(0.0);
            let fd = (v2 - c.value) / h;
            assert!(
                (fd - grad[axis]).abs() < 1e-4 * (1.0 + grad[axis].abs()),
                "axis {axis}: fd {fd} vs grad {}",
                grad[axis]
            );
        }
    }

    #[test]
    fn multiple_object_pairs_give_multiple_components() {
        let a = flat_square(0.0, 0.0);
        let b = flat_square(0.05, 0.0);
        let c = flat_square(0.0, 5.0);
        let d = flat_square(0.05, 5.0);
        let contacts = detect_contacts(&[a, b, c, d], None, &[0, 1, 2, 3], DetectOptions::new(0.1));
        assert_eq!(contacts.len(), 2);
        assert_eq!((contacts[0].obj_a, contacts[0].obj_b), (0, 1));
        assert_eq!((contacts[1].obj_a, contacts[1].obj_b), (2, 3));
    }

    /// A small lat–long sphere mesh centered at `c`.
    fn sphere(c: Vec3, r: f64, nlat: usize, nlon: usize) -> TriMesh {
        let mut grid = Vec::new();
        for i in 0..nlat {
            let th = std::f64::consts::PI * (i as f64 + 0.5) / nlat as f64;
            for j in 0..nlon {
                let ph = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
                grid.push(c + Vec3::new(th.sin() * ph.cos(), th.sin() * ph.sin(), th.cos()) * r);
            }
        }
        triangulate_latlon(
            &grid,
            nlat,
            nlon,
            c + Vec3::new(0.0, 0.0, r),
            c - Vec3::new(0.0, 0.0, r),
        )
    }

    /// A jittered cluster of `n` spheres with centres in `[-spread, spread)³`,
    /// deliberately overlapping.
    fn sphere_cluster(rng: &mut StdRng, n: usize, spread: f64) -> Vec<TriMesh> {
        (0..n)
            .map(|_| {
                let c = Vec3::new(
                    rng.random_range(-spread..spread),
                    rng.random_range(-spread..spread),
                    rng.random_range(-spread..spread),
                );
                sphere(c, rng.random_range(0.5..0.8), 7, 12)
            })
            .collect()
    }

    /// Six healthy spheres plus one stretched by orders of magnitude (mesh 6).
    fn cluster_with_blown_up_mesh() -> Vec<TriMesh> {
        let mut meshes = sphere_cluster(&mut StdRng::seed_from_u64(4), 6, 1.0);
        let base = sphere(Vec3::ZERO, 0.6, 7, 12);
        // anisotropic blow-up: huge, thin triangles crossing the cluster
        let verts: Vec<Vec3> = base
            .verts
            .iter()
            .map(|&v| Vec3::new(v.x * 800.0, v.y * 600.0, v.z * 0.7))
            .collect();
        meshes.push(base.with_positions(verts));
        meshes
    }

    /// Exact bit-equality of two contact lists (values, pair sets, order).
    fn assert_contacts_identical(a: &[Contact], b: &[Contact]) {
        assert_eq!(a.len(), b.len(), "contact count differs");
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.obj_a, x.obj_b), (y.obj_a, y.obj_b));
            assert_eq!(
                x.value.to_bits(),
                y.value.to_bits(),
                "V differs for ({}, {}): {} vs {}",
                x.obj_a,
                x.obj_b,
                x.value,
                y.value
            );
            assert_eq!(x.pairs.len(), y.pairs.len());
            for (p, q) in x.pairs.iter().zip(&y.pairs) {
                assert_eq!(
                    (p.vert_mesh, p.vert, p.tri_mesh, p.tri),
                    (q.vert_mesh, q.vert, q.tri_mesh, q.tri)
                );
                assert_eq!(p.gap.to_bits(), q.gap.to_bits());
                assert_eq!(p.weight.to_bits(), q.weight.to_bits());
                let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                assert_eq!(bits(p.dir), bits(q.dir));
                let (pb, qb) = (p.bary, q.bary);
                assert_eq!(
                    bits(Vec3::new(pb.0, pb.1, pb.2)),
                    bits(Vec3::new(qb.0, qb.1, qb.2))
                );
            }
        }
    }

    #[test]
    fn grid_matches_brute_force_on_random_dense_packings() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..5 {
            let n = 8 + trial;
            let meshes = sphere_cluster(&mut rng, n, 1.2);
            let obj_of: Vec<u32> = (0..n as u32).collect();
            let delta = 0.08;
            let grid = detect_contacts(
                &meshes,
                None,
                &obj_of,
                DetectOptions {
                    delta,
                    broad_phase: BroadPhase::Grid,
                },
            );
            let brute = detect_contacts(
                &meshes,
                None,
                &obj_of,
                DetectOptions {
                    delta,
                    broad_phase: BroadPhase::BruteForce,
                },
            );
            assert!(
                grid.len() >= 3,
                "trial {trial}: dense packing produced only {} contacts",
                grid.len()
            );
            assert_contacts_identical(&grid, &brute);
        }
    }

    #[test]
    fn grid_matches_brute_force_with_a_blown_up_mesh() {
        // a diverged mesh mid-transient: one sphere stretched by orders of
        // magnitude so its triangles overflow the cell-enumeration cap and
        // take the occupied-cell-run fallback; the healthy cluster keeps
        // the grid cell size sane (median sizing)
        let meshes = cluster_with_blown_up_mesh();
        let obj_of: Vec<u32> = (0..meshes.len() as u32).collect();
        let delta = 0.08;
        let grid = detect_contacts(
            &meshes,
            None,
            &obj_of,
            DetectOptions {
                delta,
                broad_phase: BroadPhase::Grid,
            },
        );
        let brute = detect_contacts(
            &meshes,
            None,
            &obj_of,
            DetectOptions {
                delta,
                broad_phase: BroadPhase::BruteForce,
            },
        );
        assert!(
            brute.iter().any(|c| c.obj_b == 6 || c.obj_a == 6),
            "monster mesh produced no contacts; the fallback path is untested"
        );
        assert_contacts_identical(&grid, &brute);
    }

    #[test]
    fn contacts_identical_at_any_thread_count() {
        // the per-mesh loops run on the worker pool: their concatenation in
        // mesh order plus the canonical sort must make the result
        // independent of how the work was split
        let fixtures = [
            sphere_cluster(&mut StdRng::seed_from_u64(99), 12, 1.2),
            cluster_with_blown_up_mesh(),
        ];
        for meshes in fixtures {
            let obj_of: Vec<u32> = (0..meshes.len() as u32).collect();
            let detect = || detect_contacts(&meshes, None, &obj_of, DetectOptions::new(0.08));
            let serial = rayon::par::with_override(1, detect);
            assert!(serial.len() >= 3, "fixture produced too few contacts");
            for threads in [2, 4] {
                let parallel = rayon::par::with_override(threads, detect);
                assert_contacts_identical(&serial, &parallel);
            }
        }
    }

    /// An oblate lat–long spheroid (semi-axes `r`, `r`, `rz`) centred at `c`,
    /// its axis tilted by `tilt` about x and then turned by `turn` about z.
    fn spheroid(c: Vec3, r: f64, rz: f64, tilt: f64, turn: f64) -> TriMesh {
        let (nlat, nlon) = (11, 20);
        let rot = |v: Vec3| {
            let v = Vec3::new(
                v.x,
                v.y * tilt.cos() - v.z * tilt.sin(),
                v.y * tilt.sin() + v.z * tilt.cos(),
            );
            c + Vec3::new(
                v.x * turn.cos() - v.y * turn.sin(),
                v.x * turn.sin() + v.y * turn.cos(),
                v.z,
            )
        };
        let mut grid = Vec::new();
        for i in 0..nlat {
            let th = std::f64::consts::PI * (i as f64 + 0.5) / nlat as f64;
            for j in 0..nlon {
                let ph = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
                grid.push(rot(Vec3::new(
                    r * th.sin() * ph.cos(),
                    r * th.sin() * ph.sin(),
                    rz * th.cos(),
                )));
            }
        }
        let north = rot(Vec3::new(0.0, 0.0, rz));
        let south = rot(Vec3::new(0.0, 0.0, -rz));
        triangulate_latlon(&grid, nlat, nlon, north, south)
    }

    /// The grid against brute force and across thread counts, bit for bit.
    fn assert_grid_matches_brute_force(
        meshes: &[TriMesh],
        start: Option<&[Vec<Vec3>]>,
        delta: f64,
    ) -> Vec<Contact> {
        let obj_of: Vec<u32> = (0..meshes.len() as u32).collect();
        let run = |broad_phase| {
            detect_contacts(meshes, start, &obj_of, DetectOptions { delta, broad_phase })
        };
        let brute = run(BroadPhase::BruteForce);
        for threads in [1, 2, 4] {
            let grid = rayon::par::with_override(threads, || run(BroadPhase::Grid));
            assert_contacts_identical(&grid, &brute);
        }
        brute
    }

    /// The suspension's geometry: a 3 × 3 × 3 lattice of unit oblate
    /// spheroids at spacing 2.02, jittered and randomly oriented, δ = 0.12 —
    /// most triangles face away from every neighbour and take the
    /// per-triangle box reject. Once static, once with space-time boxes
    /// (start ≠ end) that are wider than the end meshes.
    #[test]
    fn grid_matches_brute_force_on_a_spheroid_lattice() {
        let mut rng = StdRng::seed_from_u64(27);
        let mut meshes = Vec::new();
        for z in 0..3 {
            for y in 0..3 {
                for x in 0..3 {
                    let jitter = Vec3::new(
                        rng.random_range(-0.006..0.006),
                        rng.random_range(-0.006..0.006),
                        rng.random_range(-0.006..0.006),
                    );
                    let c = Vec3::new(x as f64, y as f64, z as f64) * 2.02 + jitter;
                    let tilt = rng.random_range(0.0..std::f64::consts::PI);
                    let turn = rng.random_range(0.0..std::f64::consts::TAU);
                    meshes.push(spheroid(c, 1.0, 0.45, tilt, turn));
                }
            }
        }
        let delta = 0.12;
        let still = assert_grid_matches_brute_force(&meshes, None, delta);
        assert!(
            still.len() >= 3,
            "lattice produced {} contacts",
            still.len()
        );
        let start: Vec<Vec<Vec3>> = meshes
            .iter()
            .map(|m| {
                let shift = Vec3::new(
                    rng.random_range(-0.1..0.1),
                    rng.random_range(-0.1..0.1),
                    rng.random_range(-0.1..0.1),
                );
                m.verts.iter().map(|&v| v + shift).collect()
            })
            .collect();
        let moving = assert_grid_matches_brute_force(&meshes, Some(&start), delta);
        assert!(
            moving.len() >= 3,
            "lattice produced {} contacts",
            moving.len()
        );
    }

    /// The reject's boundary. A unit square's corner vertex (1, 1, 0) is the
    /// extreme point of its box. One triangle sits in the plane
    /// x = 1 + δ(1 − 10⁻⁹), so that corner is just inside δ of it; another
    /// has a vertex just inside δ of the corner of the square's δ-inflated
    /// box, on its diagonal.
    #[test]
    fn triangles_at_the_box_reject_boundary_match_brute_force() {
        let delta = 0.1;
        let x = 1.0 + delta * (1.0 - 1e-9);
        let near_vertex = TriMesh::new(
            vec![
                Vec3::new(x, 0.5, -0.5),
                Vec3::new(x, 1.5, -0.5),
                Vec3::new(x, 1.0, 0.8),
            ],
            vec![[0, 1, 2]],
        );
        let corner = Vec3::new(1.0 + delta, 1.0 + delta, delta);
        let d = Vec3::splat(delta * (1.0 - 1e-9) / 3f64.sqrt());
        let near_box = TriMesh::new(
            vec![
                corner + d,
                corner + d + Vec3::new(0.5, 0.0, 0.0),
                corner + d + Vec3::new(0.0, 0.5, 0.5),
            ],
            vec![[0, 1, 2]],
        );
        // each triangle alone with the square, so no third box can let it
        // through the reject
        let contacts =
            assert_grid_matches_brute_force(&[flat_square(0.0, 0.0), near_vertex], None, delta);
        assert_eq!(
            contacts.len(),
            1,
            "the corner vertex is within δ of triangle 1"
        );
        assert!(contacts[0]
            .pairs
            .iter()
            .any(|p| (p.vert_mesh, p.vert, p.tri_mesh) == (0, 24, 1)));
        assert_grid_matches_brute_force(&[flat_square(0.0, 0.0), near_box], None, delta);
    }

    #[test]
    fn grid_matches_brute_force_with_space_time_boxes_and_shared_objects() {
        // moving sheets + a two-mesh rigid "vessel" sharing one object id
        let mut rng = StdRng::seed_from_u64(7);
        let wall_a = flat_square(0.0, 0.0);
        let wall_b = flat_square(0.0, 0.9);
        let mut meshes = vec![wall_a, wall_b];
        let mut starts: Vec<Vec<Vec3>> = meshes.iter().map(|m| m.verts.clone()).collect();
        for _ in 0..6 {
            let z = rng.random_range(0.02..0.3);
            let shift = rng.random_range(-0.3..1.0);
            let m = flat_square(z, shift);
            // started higher up and moved down to its current position
            starts.push(
                m.verts
                    .iter()
                    .map(|&v| v + Vec3::new(0.0, 0.0, 0.5))
                    .collect(),
            );
            meshes.push(m);
        }
        let obj_of = [0u32, 0, 1, 2, 3, 4, 5, 6];
        for delta in [0.05, 0.12] {
            let grid = detect_contacts(
                &meshes,
                Some(&starts),
                &obj_of,
                DetectOptions {
                    delta,
                    broad_phase: BroadPhase::Grid,
                },
            );
            let brute = detect_contacts(
                &meshes,
                Some(&starts),
                &obj_of,
                DetectOptions {
                    delta,
                    broad_phase: BroadPhase::BruteForce,
                },
            );
            assert!(!grid.is_empty());
            assert_contacts_identical(&grid, &brute);
        }
    }
}
