//! Sort-based spatial hashing for near-pair detection.
//!
//! Implements the parallel candidate-search pattern of §3.3 (near-zone
//! detection for near-singular integration) and §4 (collision candidate
//! pairs): assign spatial sort keys to inflated bounding boxes and to query
//! points, sort everything by key, and pair up entries that land in the same
//! cell.
//!
//! Two deliberate deviations from the paper: the parallel distributed
//! HykSort is replaced by a sequential in-memory sort (`sort_unstable`),
//! and instead of *sampling* each box with equispaced samples we enumerate
//! exactly the grid cells the box overlaps (same effect as sampling at grid
//! resolution, with no risk of missed cells). Hash aliasing can only create
//! false positives — candidates are always verified by an exact geometric
//! test downstream — never false negatives.

use crate::morton::morton_encode;
use linalg::{Aabb, Vec3};

/// A uniform grid over space with spacing `h`, used to generate sort keys.
#[derive(Clone, Copy, Debug)]
pub struct SpatialHash {
    /// Grid spacing (the paper's `H`, the average inflated box diagonal).
    pub h: f64,
    /// Grid origin.
    pub origin: Vec3,
}

const COORD_MASK: u64 = 0x1f_ffff; // 21 bits
const COORD_OFFSET: i64 = 1 << 20;

impl SpatialHash {
    /// Creates a grid with spacing `h` anchored at `origin`.
    pub fn new(h: f64, origin: Vec3) -> SpatialHash {
        assert!(h > 0.0, "SpatialHash spacing must be positive");
        SpatialHash { h, origin }
    }

    /// Integer cell coordinates of a point.
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> (i64, i64, i64) {
        (
            ((p.x - self.origin.x) / self.h).floor() as i64,
            ((p.y - self.origin.y) / self.h).floor() as i64,
            ((p.z - self.origin.z) / self.h).floor() as i64,
        )
    }

    /// Morton sort key of a cell (coordinates wrapped into 21 bits; see the
    /// module docs on why aliasing is harmless).
    #[inline]
    pub fn key_of_cell(&self, c: (i64, i64, i64)) -> u64 {
        let x = ((c.0 + COORD_OFFSET) as u64) & COORD_MASK;
        let y = ((c.1 + COORD_OFFSET) as u64) & COORD_MASK;
        let z = ((c.2 + COORD_OFFSET) as u64) & COORD_MASK;
        morton_encode(x, y, z)
    }

    /// Sort key of the cell containing a point.
    #[inline]
    pub fn key_of_point(&self, p: Vec3) -> u64 {
        self.key_of_cell(self.cell_of(p))
    }

    /// Enumerates the keys of every cell overlapped by the box.
    pub fn keys_of_box(&self, b: Aabb, out: &mut Vec<u64>) {
        let (x0, y0, z0) = self.cell_of(b.lo);
        let (x1, y1, z1) = self.cell_of(b.hi);
        for z in z0..=z1 {
            for y in y0..=y1 {
                for x in x0..=x1 {
                    out.push(self.key_of_cell((x, y, z)));
                }
            }
        }
    }
}

/// Picks a grid spacing from a set of boxes: the mean diagonal (the paper's
/// `H`), floored to avoid degenerate spacing.
pub fn mean_diagonal_spacing(boxes: &[Aabb]) -> f64 {
    if boxes.is_empty() {
        return 1.0;
    }
    let sum: f64 = boxes.iter().map(|b| b.diagonal()).sum();
    (sum / boxes.len() as f64).max(1e-12)
}

/// Finds all (box, point) candidate pairs: every pair where the point lies
/// in a grid cell overlapped by the box. The boxes should already be
/// inflated by the interaction distance. Exactness: if `pt ∈ box`, the pair
/// is always produced (plus possible false positives from hash aliasing).
pub fn box_point_candidates(boxes: &[Aabb], pts: &[Vec3], grid: &SpatialHash) -> Vec<(u32, u32)> {
    #[derive(Clone, Copy)]
    struct Entry {
        key: u64,
        id: u32,
        is_box: bool,
    }
    // one entry per overlapped cell of each box, then one per point
    let mut entries: Vec<Entry> = boxes
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            let mut keys = Vec::new();
            grid.keys_of_box(*b, &mut keys);
            keys.into_iter().map(move |key| Entry {
                key,
                id: i as u32,
                is_box: true,
            })
        })
        .collect();
    entries.extend(pts.iter().enumerate().map(|(i, &p)| Entry {
        key: grid.key_of_point(p),
        id: i as u32,
        is_box: false,
    }));
    entries.sort_unstable_by_key(|e| (e.key, e.is_box));

    // pair up within runs of equal keys (points come before boxes is not
    // guaranteed; we scan each run and cross both groups)
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for i in 1..=entries.len() {
        if i == entries.len() || entries[i].key != entries[start].key {
            runs.push((start, i));
            start = i;
        }
    }
    runs.iter()
        .flat_map(|&(a, b)| {
            let run = &entries[a..b];
            let pts_in: Vec<u32> = run.iter().filter(|e| !e.is_box).map(|e| e.id).collect();
            let boxes_in: Vec<u32> = run.iter().filter(|e| e.is_box).map(|e| e.id).collect();
            let mut out = Vec::with_capacity(pts_in.len() * boxes_in.len());
            for &bi in &boxes_in {
                for &pi in &pts_in {
                    out.push((bi, pi));
                }
            }
            out.into_iter()
        })
        .collect()
}

/// Candidate pairs within a single set of boxes: pairs whose boxes overlap
/// at least one common grid cell, each unordered pair once with `i < j`.
pub fn box_box_candidates_self(boxes: &[Aabb], grid: &SpatialHash) -> Vec<(u32, u32)> {
    // one entry (cell key, box id) per overlapped cell of each box
    let mut entries: Vec<(u64, u32)> = boxes
        .iter()
        .enumerate()
        .flat_map(|(i, bx)| {
            let mut keys = Vec::new();
            grid.keys_of_box(*bx, &mut keys);
            keys.into_iter().map(move |key| (key, i as u32))
        })
        .collect();
    entries.sort_unstable_by_key(|e| e.0);

    let mut pairs = Vec::new();
    for run in entries.chunk_by(|x, y| x.0 == y.0) {
        for (i, &(_, x)) in run.iter().enumerate() {
            for &(_, y) in &run[i + 1..] {
                if x != y {
                    pairs.push((x.min(y), x.max(y)));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn rand_box(rng: &mut StdRng, spread: f64, size: f64) -> Aabb {
        let c = Vec3::new(
            rng.random_range(-spread..spread),
            rng.random_range(-spread..spread),
            rng.random_range(-spread..spread),
        );
        let e = Vec3::new(
            rng.random_range(0.0..size),
            rng.random_range(0.0..size),
            rng.random_range(0.0..size),
        );
        Aabb::new(c - e, c + e)
    }

    #[test]
    fn box_point_candidates_complete() {
        let mut rng = StdRng::seed_from_u64(10);
        let boxes: Vec<Aabb> = (0..50).map(|_| rand_box(&mut rng, 2.0, 0.3)).collect();
        let pts: Vec<Vec3> = (0..200)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-2.0..2.0),
                    rng.random_range(-2.0..2.0),
                    rng.random_range(-2.0..2.0),
                )
            })
            .collect();
        let grid = SpatialHash::new(mean_diagonal_spacing(&boxes), Vec3::ZERO);
        let cands = box_point_candidates(&boxes, &pts, &grid);
        let set: std::collections::HashSet<(u32, u32)> = cands.into_iter().collect();
        // completeness vs brute force
        for (bi, b) in boxes.iter().enumerate() {
            for (pi, &p) in pts.iter().enumerate() {
                if b.contains(p) {
                    assert!(
                        set.contains(&(bi as u32, pi as u32)),
                        "missed containing pair ({bi},{pi})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_candidates_unordered_unique() {
        let mut rng = StdRng::seed_from_u64(12);
        let boxes: Vec<Aabb> = (0..60).map(|_| rand_box(&mut rng, 1.0, 0.3)).collect();
        let grid = SpatialHash::new(0.4, Vec3::ZERO);
        let cands = box_box_candidates_self(&boxes, &grid);
        let mut seen = std::collections::HashSet::new();
        for &(i, j) in &cands {
            assert!(i < j, "pair not ordered");
            assert!(seen.insert((i, j)), "duplicate pair");
        }
        // completeness
        let set: std::collections::HashSet<(u32, u32)> = cands.into_iter().collect();
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                if boxes[i].intersects(boxes[j]) {
                    assert!(
                        set.contains(&(i as u32, j as u32)),
                        "missed self pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let grid = SpatialHash::new(1.0, Vec3::ZERO);
        let b = Aabb::new(Vec3::new(-3.2, -3.2, -3.2), Vec3::new(-2.8, -2.8, -2.8));
        let p = Vec3::new(-3.0, -3.0, -3.0);
        let cands = box_point_candidates(&[b], &[p], &grid);
        assert!(cands.contains(&(0, 0)));
    }

    #[test]
    fn spacing_helper_is_mean_diagonal() {
        let boxes = vec![
            Aabb::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)),
            Aabb::new(Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0)),
        ];
        assert!((mean_diagonal_spacing(&boxes) - 2.0).abs() < 1e-14);
    }
}
