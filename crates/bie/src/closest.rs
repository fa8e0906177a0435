//! Parallel closest-point search (§3.3).
//!
//! For every query point we must decide whether it is in the near-zone of
//! the boundary (requiring near-singular integration) and, if so, find the
//! closest point on Γ. Steps (matching the paper's a–e):
//!
//! a. inflate each patch's bounding box by its near-zone distance `d_ε`;
//! b./c. spatial-hash the boxes and query points and sort to collect
//!    candidate (patch, point) pairs (`octree::box_point_candidates`, with
//!    a sort standing in for HykSort);
//! d. run Newton with backtracking on the candidate pairs that can still
//!    win: `d_ε ≳ L̂` makes nearly every patch of a vessel a candidate for
//!    every cell point, so each candidate first gets a lower bound on its
//!    distance from the patch's enclosing hull boxes ([`NearIndex`]) and
//!    Newton only runs while that bound does not exceed `d_ε` or the best
//!    distance found so far;
//! e. reduce over candidates to the globally closest patch per point.

use linalg::{Aabb, Vec3};
use octree::{box_point_candidates, mean_diagonal_spacing, SpatialHash};
use patch::{BoundarySurface, SurfaceQuad};

/// Result of a closest-point query that landed in the near zone.
#[derive(Clone, Copy, Debug)]
pub struct ClosestHit {
    /// Patch containing the closest point.
    pub patch: u32,
    /// Parameter coordinates of the closest point.
    pub u: f64,
    /// Parameter coordinates of the closest point.
    pub v: f64,
    /// Distance from the query to the closest point.
    pub dist: f64,
    /// The closest point itself.
    pub point: Vec3,
    /// Outward unit normal at the closest point.
    pub normal: Vec3,
}

/// Subpatches per direction whose hulls bound a patch in the [`NearIndex`].
const HULL_SPLIT: usize = 4;

/// The target-independent half of the near-zone search, built once per
/// surface (the wall is static): the sampled patch boxes that generate the
/// candidates, the patch sizes `L̂`, and per patch `HULL_SPLIT²` boxes that
/// provably enclose it ([`patch::PolyPatch::hull_boxes`]).
pub struct NearIndex {
    boxes: Vec<Aabb>,
    patch_size: Vec<f64>,
    hulls: Vec<Aabb>,
}

impl NearIndex {
    /// Builds the index of `surface` (`quad` is its coarse quadrature).
    pub fn new(surface: &BoundarySurface, quad: &SurfaceQuad) -> NearIndex {
        let per_patch = rayon::par::map_indexed(surface.num_patches(), |pi| {
            surface.patches[pi].hull_boxes(HULL_SPLIT)
        });
        NearIndex {
            boxes: surface.patch_boxes(6),
            patch_size: (0..surface.num_patches())
                .map(|pi| quad.patch_size(pi))
                .collect(),
            hulls: per_patch.into_iter().flatten().collect(),
        }
    }

    /// A distance no `closest_point` of patch `pi` to `x` can come in under:
    /// the distance to the nearest hull box, shrunk by the relative rounding
    /// of the distance evaluation itself (the hulls' own padding covers the
    /// absolute part).
    fn lower_bound(&self, pi: usize, x: Vec3) -> f64 {
        let per = HULL_SPLIT * HULL_SPLIT;
        let d = self.hulls[pi * per..(pi + 1) * per]
            .iter()
            .map(|b| b.distance_to(x))
            .fold(f64::INFINITY, f64::min);
        d * (1.0 - 1e-9)
    }

    /// §3.3 a.–c.: the near-zone distance `d_ε = near_factor · L̂` of every
    /// patch, and the `(patch, target)` candidate pairs — targets hashed
    /// against the sampled boxes inflated by `d_ε` — sorted by target.
    fn candidates(&self, targets: &[Vec3], near_factor: f64) -> (Vec<f64>, Vec<(u32, u32)>) {
        let d_eps: Vec<f64> = self.patch_size.iter().map(|l| near_factor * l).collect();
        let boxes: Vec<Aabb> = self
            .boxes
            .iter()
            .zip(&d_eps)
            .map(|(b, d)| b.inflated(*d))
            .collect();
        let grid = SpatialHash::new(mean_diagonal_spacing(&boxes), Vec3::ZERO);
        let mut cands = box_point_candidates(&boxes, targets, &grid);
        cands.sort_unstable_by_key(|&(_, t)| t);
        (d_eps, cands)
    }

    /// Finds, for each target, the closest point of `surface` (the surface
    /// the index was built from) if the target lies within
    /// `near_factor · L̂(patch)` of some patch (L̂ = √patch-area, the
    /// paper's patch size). Returns `None` for far targets.
    pub fn closest_points(
        &self,
        surface: &BoundarySurface,
        targets: &[Vec3],
        near_factor: f64,
    ) -> Vec<Option<ClosestHit>> {
        self.search(surface, targets, near_factor).0
    }

    /// [`Self::closest_points`] plus `(candidates generated, Newton
    /// searches run)`.
    fn search(
        &self,
        surface: &BoundarySurface,
        targets: &[Vec3],
        near_factor: f64,
    ) -> (Vec<Option<ClosestHit>>, (usize, usize)) {
        assert_eq!(
            surface.num_patches(),
            self.patch_size.len(),
            "NearIndex built from another surface"
        );
        let (d_eps, cands) = self.candidates(targets, near_factor);
        let runs: Vec<&[(u32, u32)]> = cands.chunk_by(|p, q| p.1 == q.1).collect();

        // d./e. one slot per run (= per target with candidates), committed
        // in run order. The winner is the qualifying candidate least in
        // (distance, position in its run) — exact distance ties are real
        // (mirror-image patches of a straight tube) and the position breaks
        // them — so it does not depend on the order candidates are visited
        // in, nor on skipping those whose lower bound already loses.
        let hits = rayon::par::map_indexed(runs.len(), |ri| {
            let run = runs[ri];
            let x = targets[run[0].1 as usize];
            let mut order: Vec<(f64, usize)> = (0..run.len())
                .map(|j| (self.lower_bound(run[j].0 as usize, x), j))
                .filter(|&(lb, j)| lb <= d_eps[run[j].0 as usize])
                .collect();
            order.sort_unstable_by(|p, q| p.0.total_cmp(&q.0).then(p.1.cmp(&q.1)));
            let mut best: Option<(f64, usize, f64, f64)> = None; // dist, j, u, v
            let mut newton_runs = 0;
            for (lb, j) in order {
                if best.is_some_and(|(dist, ..)| lb > dist) {
                    break; // so is every later bound
                }
                let pi = run[j].0 as usize;
                let (u, v, dist) = surface.patches[pi].closest_point(x);
                newton_runs += 1;
                if dist <= d_eps[pi] && best.is_none_or(|(bd, bj, ..)| (dist, j) < (bd, bj)) {
                    best = Some((dist, j, u, v));
                }
            }
            let hit = best.map(|(dist, j, u, v)| {
                let pi = run[j].0;
                let (point, xu, xv) = surface.patches[pi as usize].eval_jet(u, v);
                ClosestHit {
                    patch: pi,
                    u,
                    v,
                    dist,
                    point,
                    normal: xu.cross(xv).normalized(),
                }
            });
            (hit, newton_runs)
        });
        let mut result = vec![None; targets.len()];
        let mut newton_runs = 0;
        for (run, (hit, n)) in runs.iter().zip(hits) {
            result[run[0].1 as usize] = hit;
            newton_runs += n;
        }
        (result, (cands.len(), newton_runs))
    }
}

/// One-shot [`NearIndex::closest_points`] for callers that query a surface
/// once (`quad` is the surface's coarse quadrature).
pub fn closest_points(
    surface: &BoundarySurface,
    quad: &SurfaceQuad,
    targets: &[Vec3],
    near_factor: f64,
) -> Vec<Option<ClosestHit>> {
    NearIndex::new(surface, quad).closest_points(surface, targets, near_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch::{
        branched_network, capsule_tube, cube_sphere, BranchSpec, Serpentine, StraightLine,
    };

    /// The search as it ran before pruning, kept as the oracle: Newton on
    /// every candidate in candidate order, the first strictly closer
    /// qualifying one wins.
    fn exhaustive(
        index: &NearIndex,
        surface: &BoundarySurface,
        targets: &[Vec3],
        near_factor: f64,
    ) -> Vec<Option<ClosestHit>> {
        let (d_eps, cands) = index.candidates(targets, near_factor);
        let mut result = vec![None; targets.len()];
        for run in cands.chunk_by(|p, q| p.1 == q.1) {
            let t = run[0].1 as usize;
            let mut best: Option<ClosestHit> = None;
            for &(pi, _) in run {
                let patch = &surface.patches[pi as usize];
                let (u, v, dist) = patch.closest_point(targets[t]);
                if dist <= d_eps[pi as usize] && best.map(|h| dist < h.dist).unwrap_or(true) {
                    let (point, xu, xv) = patch.eval_jet(u, v);
                    best = Some(ClosestHit {
                        patch: pi,
                        u,
                        v,
                        dist,
                        point,
                        normal: xu.cross(xv).normalized(),
                    });
                }
            }
            result[t] = best;
        }
        result
    }

    fn bits(h: &Option<ClosestHit>) -> Option<(u32, [u64; 9])> {
        h.map(|h| {
            let f = [
                h.u, h.v, h.dist, h.point.x, h.point.y, h.point.z, h.normal.x, h.normal.y,
                h.normal.z,
            ];
            (h.patch, f.map(f64::to_bits))
        })
    }

    /// SplitMix64 draws in [0, 1).
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn straight_tube() -> BoundarySurface {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(8.0, 0.0, 0.0),
        };
        capsule_tube(&line, 1.2, 3, 8)
    }

    /// The four test surfaces, each with points of its axis / centre (where
    /// several patches are equally close — on the straight tube bit-equally).
    fn surfaces() -> Vec<(&'static str, BoundarySurface, Vec<Vec3>)> {
        let serp = Serpentine {
            length: 8.0,
            amp: 0.7,
            windings: 1.0,
        };
        let up = Vec3::new(-0.6, 0.8, 0.0);
        let branch = |axis, length, radius, is_inlet| BranchSpec {
            axis,
            length,
            radius,
            is_inlet,
        };
        let y = [
            branch(Vec3::new(1.0, 0.0, 0.0), 1.6, 0.5, true),
            branch(up, 1.5, 0.4, false),
            branch(Vec3::new(-0.6, -0.8, 0.0), 1.5, 0.4, false),
        ];
        let on_x = |n: usize, x0: f64, x1: f64| -> Vec<Vec3> {
            (0..n)
                .map(|i| Vec3::new(x0 + (x1 - x0) * i as f64 / (n - 1) as f64, 0.0, 0.0))
                .collect()
        };
        vec![
            (
                "cube_sphere",
                cube_sphere(1.0, Vec3::ZERO, 1, 8),
                vec![Vec3::ZERO, Vec3::new(0.5, 0.0, 0.0)],
            ),
            ("capsule tube", straight_tube(), on_x(17, -1.0, 9.0)),
            (
                "refined serpentine",
                capsule_tube(&serp, 1.1, 1, 6).refine(1),
                on_x(9, 0.0, 8.0),
            ),
            (
                "bifurcation",
                branched_network(Vec3::ZERO, &y, 0.15, 3, 8).unwrap(),
                (0..8).map(|i| up * (0.2 * i as f64)).collect(),
            ),
        ]
    }

    #[test]
    fn pruned_search_is_bit_identical_to_exhaustive() {
        for (name, s, special) in surfaces() {
            let quad = s.quadrature();
            let index = NearIndex::new(&s, &quad);
            let bb = s.bounding_box();
            let (c, half) = (bb.center(), bb.extent() * 0.6);
            let mut rng = 0x5eed_u64 + s.num_patches() as u64;
            let mut draw = |scale: f64| {
                let mut r = || scale * (2.0 * uniform(&mut rng) - 1.0);
                c + Vec3::new(half.x * r(), half.y * r(), half.z * r())
            };
            let mut targets = special;
            // in and around the surface, then beyond every near zone
            targets.extend((0..240).map(|_| draw(1.0)));
            targets.extend((0..8).map(|_| draw(40.0)));
            // as eval_at (near_factor 1) and sim::fill (1e9) call it; the
            // latter makes every patch a candidate, so fewer targets do
            for (near_factor, n) in [(1.0, targets.len()), (1e9, 48)] {
                let t = &targets[..n];
                let want = exhaustive(&index, &s, t, near_factor);
                let (got, (cands, newton)) = index.search(&s, t, near_factor);
                for i in 0..n {
                    assert_eq!(
                        bits(&got[i]),
                        bits(&want[i]),
                        "{name}, near_factor {near_factor}, target {i} {:?}: {:?} vs {:?}",
                        t[i],
                        got[i],
                        want[i]
                    );
                }
                assert!(newton < cands, "{name}: nothing pruned");
                if near_factor == 1e9 {
                    assert!(got.iter().all(|h| h.is_some()), "{name}");
                }
            }
            let far = closest_points(&s, &quad, &targets[targets.len() - 8..], 1.0);
            assert!(far.iter().all(|h| h.is_none()), "{name}: far targets hit");
        }
    }

    /// On the `train_retry` geometry (22-patch straight tube, three
    /// cell-sized spheroids of 144 points on its axis) every patch is a
    /// candidate for every point; Newton must run on a quarter of them at
    /// most — a change that quietly disables the pruning fails here.
    #[test]
    fn pruning_leaves_a_quarter_of_the_newton_runs() {
        let s = straight_tube();
        let quad = s.quadrature();
        let mut targets = Vec::new();
        for cx in [2.5, 4.0, 5.5] {
            for j in 0..9 {
                let th = std::f64::consts::PI * (j as f64 + 0.5) / 9.0;
                for k in 0..16 {
                    let ph = std::f64::consts::TAU * k as f64 / 16.0;
                    targets.push(Vec3::new(
                        cx + 0.18 * th.cos(),
                        0.5 * th.sin() * ph.cos(),
                        0.5 * th.sin() * ph.sin(),
                    ));
                }
            }
        }
        let (hits, (cands, newton)) = NearIndex::new(&s, &quad).search(&s, &targets, 1.0);
        assert!(hits.iter().all(|h| h.is_some()));
        assert!(cands >= 20 * targets.len(), "{cands} candidates");
        assert!(
            4 * newton <= cands,
            "{newton} Newton runs for {cands} candidates"
        );
    }

    #[test]
    fn near_points_get_hits_far_points_dont() {
        let s = cube_sphere(1.0, Vec3::ZERO, 1, 8);
        let quad = s.quadrature();
        let l = quad.patch_size(0);
        let targets = vec![
            Vec3::new(1.0 - 0.1 * l, 0.0, 0.0), // near inside
            Vec3::new(0.2, 0.1, 0.0),           // deep inside: far
            Vec3::new(0.0, 0.0, 1.0 - 0.3 * l), // near pole
        ];
        let hits = closest_points(&s, &quad, &targets, 1.0);
        assert!(hits[0].is_some());
        assert!(hits[1].is_none());
        assert!(hits[2].is_some());
        let h = hits[0].unwrap();
        // closest point on the sphere along +x
        assert!(
            (h.point - Vec3::new(1.0, 0.0, 0.0)).norm() < 1e-4,
            "{:?}",
            h.point
        );
        assert!((h.dist - 0.1 * l).abs() < 1e-4);
        assert!(h.normal.dot(Vec3::new(1.0, 0.0, 0.0)) > 0.999);
    }

    #[test]
    fn matches_brute_force_distance() {
        let s = cube_sphere(1.3, Vec3::new(0.2, -0.1, 0.4), 1, 8);
        let quad = s.quadrature();
        let mut targets = Vec::new();
        // ring of points just inside the sphere
        for k in 0..12 {
            let a = 2.0 * std::f64::consts::PI * k as f64 / 12.0;
            targets.push(Vec3::new(0.2 + 1.25 * a.cos(), -0.1 + 1.25 * a.sin(), 0.4));
        }
        let hits = closest_points(&s, &quad, &targets, 2.0);
        for (i, hit) in hits.iter().enumerate() {
            let h = hit.expect("ring point should be near");
            // brute force over all patches
            let mut best = f64::INFINITY;
            for p in &s.patches {
                let (_, _, d) = p.closest_point(targets[i]);
                best = best.min(d);
            }
            assert!(
                (h.dist - best).abs() < 1e-6,
                "target {i}: {} vs {best}",
                h.dist
            );
            // true distance to sphere is 0.05
            assert!((h.dist - 0.05).abs() < 1e-3, "target {i}: {}", h.dist);
        }
    }

    #[test]
    fn empty_targets_ok() {
        let s = cube_sphere(1.0, Vec3::ZERO, 0, 6);
        let quad = s.quadrature();
        assert!(closest_points(&s, &quad, &[], 1.0).is_empty());
    }
}
