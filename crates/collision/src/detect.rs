//! Parallel contact detection (§4, items 1–2 of the collision algorithm).
//!
//! 1. Space-time bounding boxes of all meshes are hashed and sorted to find
//!    candidate mesh pairs (Fig. 3; the same sort-based search as the
//!    closest-point machinery of §3.3, with `d_ε = 0` for static patches).
//! 2. Each mesh's triangles are tested only against the vertices of its
//!    *partners* — the meshes it shares a candidate pair with — found
//!    through a per-partner cell index of a uniform grid (cell size
//!    `δ + max(median edge, δ)`, so a triangle's δ-inflated box spans O(1)
//!    cells) after a chunk and a per-triangle box reject; candidates are
//!    verified by the exact closest-point test. The pair set is by
//!    construction the exhaustive scan's over the same mesh pairs (the
//!    equivalence-test reference in this module's tests).
//!
//! Determinism: the pair set is canonically sorted by `(object pair,
//! vertex mesh, vertex, triangle mesh, triangle)` before the interference
//! values are accumulated, so `V` and every gradient is bit-identical
//! across narrow phases, runs, thread counts and instances (the restart
//! guarantee).
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

/// Options for contact detection.
#[derive(Clone, Copy, Debug)]
pub struct DetectOptions {
    /// Contact activation threshold δ (surfaces closer than this count as
    /// interfering; acts as the minimal separation the NCP enforces).
    pub delta: f64,
}

impl DetectOptions {
    /// Detection with threshold `delta`.
    pub fn new(delta: f64) -> DetectOptions {
        DetectOptions { delta }
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
    let (boxes, mesh_pairs) = candidate_mesh_pairs(meshes, start, obj_of, opts.delta);
    let raw = grid_pairs(meshes, &boxes, &mesh_pairs, opts.delta);
    group_contacts(raw, obj_of)
}

/// Step 1: the space-time box of every mesh and the candidate mesh pairs,
/// `(a, b)` with `a < b` whose boxes share a grid cell and whose objects
/// differ.
fn candidate_mesh_pairs(
    meshes: &[TriMesh],
    start: Option<&[Vec<Vec3>]>,
    obj_of: &[u32],
    delta: f64,
) -> (Vec<Aabb>, Vec<(u32, u32)>) {
    assert_eq!(meshes.len(), obj_of.len());
    let boxes: Vec<Aabb> = rayon::par::map_indexed(meshes.len(), |i| match start {
        Some(s) => meshes[i].space_time_box(&s[i], delta),
        None => meshes[i].bounding_box().inflated(delta),
    });
    let grid = SpatialHash::new(mean_diagonal_spacing(&boxes).max(delta), Vec3::ZERO);
    let mesh_pairs = box_box_candidates_self(&boxes, &grid)
        .into_iter()
        .filter(|&(a, b)| obj_of[a as usize] != obj_of[b as usize])
        .collect();
    (boxes, mesh_pairs)
}

/// Sorts the vertex–triangle pairs canonically and groups them into one
/// contact per touching object pair.
fn group_contacts(mut raw: Vec<ContactPair>, obj_of: &[u32]) -> Vec<Contact> {
    // canonical order: by object pair, then (vert_mesh, vert, tri_mesh,
    // tri). Any narrow phase that finds the same pair set, and any parallel
    // split, then accumulates V and the gradients in the same
    // floating-point order (a pair is emitted once, so the keys are unique
    // and an unstable sort is deterministic).
    let pair_objs = |p: &ContactPair| {
        let oa = obj_of[p.vert_mesh as usize];
        let ob = obj_of[p.tri_mesh as usize];
        (oa.min(ob), oa.max(ob))
    };
    raw.sort_unstable_by_key(|p| (pair_objs(p), p.vert_mesh, p.vert, p.tri_mesh, p.tri));
    raw.chunk_by(|p, q| pair_objs(p) == pair_objs(q))
        .map(|run| {
            let (obj_a, obj_b) = pair_objs(&run[0]);
            Contact {
                obj_a,
                obj_b,
                value: run.iter().map(|p| p.gap * p.weight).sum(),
                pairs: run.to_vec(),
            }
        })
        .collect()
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

/// Consecutive triangles that share one chunk box in the narrow phase's
/// first reject: a run of a lat–long mesh's triangles is a strip of its
/// surface, so the chunk box stays close to its triangles' boxes.
const CHUNK: usize = 32;

/// A triangle whose box would overlap more than this many grid cells (only
/// ever a blown-up mesh: a healthy one overlaps a handful) scans the
/// partner's cell index linearly instead of enumerating cells.
const CELL_CAP: f64 = 256.0;

/// The rounding margin `1e-9·(δ + s)` of a box whose largest coordinate
/// magnitude is `s` (at least 1). Every reject in the narrow phase tests
/// against a box inflated past δ by it: the margin absorbs the rounding of
/// `lo − δ` and of `try_pair`'s distance, so no pair whose exact test
/// would pass (d < δ, to within an ulp) can be discarded — only `try_pair`
/// decides membership.
fn eps(b: Aabb, delta: f64) -> f64 {
    let scale = [b.lo, b.hi]
        .iter()
        .flat_map(|p| [p.x.abs(), p.y.abs(), p.z.abs()])
        .fold(1.0, f64::max);
    1e-9 * (delta + scale)
}

/// `b` inflated by `δ + eps(b, δ)`.
fn margined(b: Aabb, delta: f64) -> Aabb {
    b.inflated(delta + eps(b, delta))
}

/// The vertices of one mesh that can be in a pair: `(cell, vertex)`
/// sorted by grid cell, and their bounding box (empty, and so meeting no
/// box, when no vertex is indexed).
struct CellIndex {
    cells: Vec<((i64, i64, i64), u32)>,
    bounds: Aabb,
}

impl CellIndex {
    /// Calls `f` on every indexed vertex whose cell lies in `x0..=x1`,
    /// `y0..=y1`, `z0..=z1`; the `z` cells of one `(x, y)` column are
    /// contiguous in the sorted index, so a column is one binary search.
    fn for_each_in(
        &self,
        (x0, y0, z0): (i64, i64, i64),
        (x1, y1, z1): (i64, i64, i64),
        mut f: impl FnMut(u32),
    ) {
        for x in x0..=x1 {
            for y in y0..=y1 {
                let first = self.cells.partition_point(|e| e.0 < (x, y, z0));
                for &(cell, v) in &self.cells[first..] {
                    if cell > (x, y, z1) {
                        break;
                    }
                    f(v);
                }
            }
        }
    }
}

/// Output-sensitive narrow phase over the candidate mesh pairs of step 1
/// (`mesh_pairs`, objects already distinct). A mesh's *partners* are the
/// meshes it shares a candidate pair with; each mesh's triangles are
/// tested only against its partners' vertices, so the pair set is exactly
/// the exhaustive scan's over the same mesh pairs.
///
/// 1. **Cell index per mesh.** The vertices of a mesh that lie in one of
///    its partners' space-time boxes, inflated by [`eps`], binned into a
///    uniform grid and sorted by cell, with their bounding box. A vertex
///    is indexed once, so no pair is emitted twice.
/// 2. **Chunk, then triangle reject.** A chunk of [`CHUNK`] consecutive
///    triangles keeps the partners whose index box meets its margined
///    box; each triangle of it, those that meet its own margined box.
/// 3. **Lookup.** The triangle enumerates the cells of its margined box
///    clipped to the partner's index box, and every indexed vertex found
///    there inside the margined box goes to [`try_pair`].
///
/// Completeness: a vertex `try_pair` accepts lies within δ of a point of
/// the triangle, so inside the triangle mesh's space-time box — which is
/// inflated by δ only; the pre-filter of step 1 adds [`eps`] on top,
/// which covers the rounding of that box and of `try_pair`'s distance.
/// So an emitted pair's vertex is indexed, hence inside the index box
/// (the exact bounds of the indexed points), and inside the triangle's
/// margined box (the containment test): the closed-interval tests of
/// step 2 see the two boxes meet with no rounding in between, a chunk's
/// margined box contains each of its triangles' (the same construction
/// over a superset of points, and rounding is monotone), and the vertex's
/// cell lies in the clipped range.
///
/// Cell size is `δ + max(median edge, δ)`, the median taken over every
/// fourth triangle's edges and floored at δ so over-resolved meshes cannot
/// shrink cells below the interaction distance. It sets only the speed:
/// the meshes mix resolutions (finely upsampled cells against coarse
/// vessel patches, and occasionally a blown-up mesh mid-transient), and
/// sizing by the max — or even the mean — edge would collapse the grid
/// into a few enormous cells whose contents cross all-to-all. With the
/// median, an oversized triangle simply overlaps more cells (above
/// [`CELL_CAP`] it scans the partner's index) while the grid stays matched
/// to the healthy geometry.
fn grid_pairs(
    meshes: &[TriMesh],
    boxes: &[Aabb],
    mesh_pairs: &[(u32, u32)],
    delta: f64,
) -> Vec<ContactPair> {
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); meshes.len()];
    for &(a, b) in mesh_pairs {
        partners[a as usize].push(b);
        partners[b as usize].push(a);
    }
    let active: Vec<u32> = (0..meshes.len() as u32)
        .filter(|&m| !partners[m as usize].is_empty())
        .collect();
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
        m.tris.iter().step_by(4).flat_map(edges).collect()
    });
    let median_edge = if edges.is_empty() {
        0.0
    } else {
        let mid = edges.len() / 2;
        let (_, med, _) = edges.select_nth_unstable_by(mid, f64::total_cmp);
        *med
    };
    let grid = SpatialHash::new(delta + median_edge.max(delta), Vec3::ZERO);

    // keyed by integer cell coordinates, not a wrapped Morton key, so the
    // z cells of one (x, y) column are contiguous in sort order
    let reach: Vec<Aabb> = boxes.iter().map(|&b| b.inflated(eps(b, delta))).collect();
    let index: Vec<CellIndex> = rayon::par::map_indexed(meshes.len(), |mi| {
        let near = |p: &Vec3| partners[mi].iter().any(|&o| reach[o as usize].contains(*p));
        let mut cells: Vec<_> = (meshes[mi].verts.iter().enumerate())
            .filter(|(_, p)| near(p))
            .map(|(vi, &p)| (grid.cell_of(p), vi as u32))
            .collect();
        cells.sort_unstable();
        let verts = cells.iter().map(|&(_, v)| meshes[mi].verts[v as usize]);
        let bounds = Aabb::from_points(verts);
        CellIndex { cells, bounds }
    });

    per_mesh(&active, |mi| {
        let m = &meshes[mi as usize];
        let corners = |t: &[u32; 3]| t.map(|v| m.verts[v as usize]);
        let mut out = Vec::new();
        let mut near: Vec<u32> = Vec::new();
        for (ci, chunk) in m.tris.chunks(CHUNK).enumerate() {
            let chunk_box = margined(Aabb::from_points(chunk.iter().flat_map(corners)), delta);
            near.clear();
            near.extend(
                partners[mi as usize]
                    .iter()
                    .filter(|&&o| index[o as usize].bounds.intersects(chunk_box)),
            );
            if near.is_empty() {
                continue;
            }
            for (k, t) in chunk.iter().enumerate() {
                let ti = (ci * CHUNK + k) as u32;
                let [ta, tb, tc] = corners(t);
                let b = margined(Aabb::from_points([ta, tb, tc]), delta);
                for &o in &near {
                    let bounds = index[o as usize].bounds;
                    if !bounds.intersects(b) {
                        continue;
                    }
                    let verts = &meshes[o as usize].verts;
                    let mut test = |vi: u32| {
                        // cheap reject: outside the margined box ⇒ farther
                        // than δ from the triangle
                        if b.contains(verts[vi as usize]) {
                            out.extend(try_pair(meshes, o, vi, mi, ti, delta));
                        }
                    };
                    let lo = grid.cell_of(b.lo.max(bounds.lo));
                    let hi = grid.cell_of(b.hi.min(bounds.hi));
                    // in f64: a blown-up triangle's box can span enough
                    // cells to overflow any integer product
                    let span = (hi.0 as f64 - lo.0 as f64 + 1.0)
                        * (hi.1 as f64 - lo.1 as f64 + 1.0)
                        * (hi.2 as f64 - lo.2 as f64 + 1.0);
                    if span <= CELL_CAP {
                        index[o as usize].for_each_in(lo, hi, test);
                    } else {
                        index[o as usize].cells.iter().for_each(|&(_, vi)| test(vi));
                    }
                }
            }
        }
        out
    })
}

/// Runs `f(mesh)` for every listed mesh across the worker threads and
/// concatenates the results in list order, so the output is the same at any
/// thread count.
fn per_mesh<T: Send>(meshes: &[u32], f: impl Fn(u32) -> Vec<T> + Sync) -> Vec<T> {
    let parts = rayon::par::map_indexed(meshes.len(), |i| f(meshes[i]));
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{triangulate_grid, triangulate_latlon};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Reference narrow phase: every vertex of each candidate mesh pair
    /// against every triangle of the partner, both directions.
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

    /// [`detect_contacts`] with the exhaustive reference narrow phase, the
    /// oracle the grid is held to bit for bit.
    fn brute_force(
        meshes: &[TriMesh],
        start: Option<&[Vec<Vec3>]>,
        obj_of: &[u32],
        delta: f64,
    ) -> Vec<Contact> {
        let (_, mesh_pairs) = candidate_mesh_pairs(meshes, start, obj_of, delta);
        group_contacts(brute_force_pairs(meshes, &mesh_pairs, delta), obj_of)
    }

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
            let grid = detect_contacts(&meshes, None, &obj_of, DetectOptions::new(delta));
            let brute = brute_force(&meshes, None, &obj_of, delta);
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
        let grid = detect_contacts(&meshes, None, &obj_of, DetectOptions::new(delta));
        let brute = brute_force(&meshes, None, &obj_of, delta);
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
        assert_grid_matches_brute_force_for(meshes, start, &obj_of, delta)
    }

    /// [`assert_grid_matches_brute_force`] with mesh `i` owned by object
    /// `obj_of[i]`.
    fn assert_grid_matches_brute_force_for(
        meshes: &[TriMesh],
        start: Option<&[Vec<Vec3>]>,
        obj_of: &[u32],
        delta: f64,
    ) -> Vec<Contact> {
        let brute = brute_force(meshes, start, obj_of, delta);
        for threads in [1, 2, 4] {
            let grid = rayon::par::with_override(threads, || {
                detect_contacts(meshes, start, obj_of, DetectOptions::new(delta))
            });
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

    /// The vertex pre-filter's boundary. Mesh A, a triangle in the plane
    /// x = 1, moved there from x = 0.5, so its δ-inflated space-time box
    /// ends at x = 1 + δ. Mesh B's vertex 0 sits at x = 1 + δ(1 − 10⁻⁹),
    /// within δ of A's triangle and just inside that box face; its vertex
    /// 1 sits at x = 1 + δ(1 + 10⁻⁹), just outside the box and farther
    /// than δ. Only vertex 0 may pair, and the grid must find it.
    #[test]
    fn vertices_at_the_pre_filter_boundary_match_brute_force() {
        let delta = 0.1;
        let a = TriMesh::new(
            vec![
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::new(1.0, 0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        );
        let inside = Vec3::new(1.0 + delta * (1.0 - 1e-9), 0.25, 0.25);
        let outside = Vec3::new(1.0 + delta * (1.0 + 1e-9), 0.5, 0.25);
        let b = TriMesh::new(
            vec![inside, outside, Vec3::new(2.0, 0.25, 0.5)],
            vec![[0, 1, 2]],
        );
        let start = vec![
            a.verts
                .iter()
                .map(|&v| v - Vec3::new(0.5, 0.0, 0.0))
                .collect(),
            b.verts.clone(),
        ];
        let box_a = a.space_time_box(&start[0], delta);
        assert!(box_a.contains(inside) && !box_a.contains(outside));
        assert!(box_a.hi.x - inside.x < 2e-9 * delta);
        let contacts = assert_grid_matches_brute_force(&[a, b], Some(&start), delta);
        assert_eq!(contacts.len(), 1, "vertex 0 is within δ of A");
        let pairs: Vec<_> = (contacts[0].pairs.iter())
            .map(|p| (p.vert_mesh, p.vert, p.tri_mesh, p.tri))
            .collect();
        assert_eq!(pairs, [(1, 0, 0, 0)]);
    }

    /// Two patches of one object (A and C) whose boxes meet, so (A, C) is
    /// no candidate pair although A's vertices lie within δ of C's
    /// triangles; a sheet B of a second object over both, and a sheet D of
    /// a third object over C only. Every mesh looks up only its partners.
    #[test]
    fn meshes_of_one_object_with_meeting_boxes_match_brute_force() {
        let delta = 0.1;
        let meshes = [
            flat_square(0.0, 0.0),
            flat_square(0.05, 0.5),
            flat_square(0.03, 0.9),
            flat_square(0.1, 1.7),
        ];
        let obj_of = [0, 1, 0, 2];
        let boxes: Vec<Aabb> = meshes
            .iter()
            .map(|m| m.bounding_box().inflated(delta))
            .collect();
        assert!(boxes[0].intersects(boxes[2]) && !boxes[0].intersects(boxes[3]));
        let (_, mesh_pairs) = candidate_mesh_pairs(&meshes, None, &obj_of, delta);
        assert!(!mesh_pairs.contains(&(0, 2)));
        let contacts = assert_grid_matches_brute_force_for(&meshes, None, &obj_of, delta);
        let touching: Vec<_> = contacts.iter().map(|c| (c.obj_a, c.obj_b)).collect();
        assert_eq!(touching, [(0, 1), (0, 2)]);
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
            let grid = detect_contacts(&meshes, Some(&starts), &obj_of, DetectOptions::new(delta));
            let brute = brute_force(&meshes, Some(&starts), &obj_of, delta);
            assert!(!grid.is_empty());
            assert_contacts_identical(&grid, &brute);
        }
    }
}
