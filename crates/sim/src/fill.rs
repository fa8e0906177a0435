//! The vessel-filling procedure of §5.1: "uniformly sample the volume of
//! the bounding box of the vessel with a spacing h to find point locations
//! inside the domain at which we place RBCs in a random orientation. We
//! then slowly increase the size of each RBC until it collides with the
//! vessel boundary or another RBC... This typically produces RBCs of radius
//! r with r0 < r < 2r0."

use bie::closest_points;
use kernels::{direct_eval, LaplaceDL};
use linalg::Vec3;
use patch::BoundarySurface;
use rand::Rng;
use sphharm::SphBasis;
use vesicle::{biconcave_coeffs, rotated_coeffs, Cell, CellParams};

/// A placed seed: center and grown radius.
#[derive(Clone, Copy, Debug)]
pub struct Seed {
    /// Cell center.
    pub center: Vec3,
    /// Grown cell radius.
    pub radius: f64,
}

/// Growth limits shared by the filling variants.
struct GrowOpts {
    /// Nominal radius; seeds shrunk below `r0/2` are discarded.
    r0: f64,
    /// Hard cap on the grown radius (the paper's `2 r0`).
    rmax_cap: f64,
    /// Fraction of the wall distance a seed may claim.
    wall_frac: f64,
    /// Fraction of the half-gap to the nearest neighbour a seed may claim.
    gap_frac: f64,
}

/// Interior classification + wall distance for a candidate set: keep
/// candidates strictly inside the vessel (Gauss double-layer identity:
/// winding 1 inside, 0 outside) and compute each survivor's distance to
/// the wall.
fn interior_with_wall_dist(
    surface: &BoundarySurface,
    candidates: Vec<Vec3>,
) -> (Vec<Vec3>, Vec<f64>) {
    let quad = surface.quadrature();
    // inside test: Laplace double layer of the constant density 1
    let src_data: Vec<f64> = (0..quad.len())
        .flat_map(|l| {
            let n = quad.normals[l];
            [quad.weights[l], n.x, n.y, n.z]
        })
        .collect();
    let mut winding = vec![0.0; candidates.len()];
    direct_eval(
        &LaplaceDL,
        &quad.points,
        &src_data,
        &candidates,
        &mut winding,
    );
    let inside: Vec<Vec3> = candidates
        .into_iter()
        .zip(&winding)
        .filter(|(_, &w)| w > 0.5)
        .map(|(p, _)| p)
        .collect();

    let wall_dist: Vec<f64> = closest_points(surface, &quad, &inside, 1e9)
        .iter()
        .map(|hit| hit.map(|h| h.dist).unwrap_or(f64::INFINITY))
        .collect();
    (inside, wall_dist)
}

/// The classify-and-grow core of §5.1: grow each interior candidate's
/// radius until it would touch the wall or split the gap to its nearest
/// neighbour.
fn grow_seeds(surface: &BoundarySurface, candidates: Vec<Vec3>, o: GrowOpts) -> Vec<Seed> {
    let (inside, wall_dist) = interior_with_wall_dist(surface, candidates);

    // grow radii: limited by wall distance and half the gap to the nearest
    // neighbour (all seeds grow at the same rate, so the gap splits evenly)
    let seeds: Vec<Seed> = inside
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| {
            let mut nearest = f64::INFINITY;
            for (j, &o2) in inside.iter().enumerate() {
                if j != i {
                    nearest = nearest.min((o2 - c).norm());
                }
            }
            let r = (wall_dist[i] * o.wall_frac)
                .min(0.5 * nearest * o.gap_frac)
                .min(o.rmax_cap);
            if r >= 0.5 * o.r0 {
                Some(Seed {
                    center: c,
                    radius: r,
                })
            } else {
                None
            }
        })
        .collect();
    seeds
}

/// Candidate points on a cubic lattice with spacing `h` over the surface's
/// bounding box, optionally shifted by `offset` (in units of `h`).
fn lattice_candidates(surface: &BoundarySurface, h: f64, offset: f64) -> Vec<Vec3> {
    let bbox = surface.bounding_box();
    let ext = bbox.extent();
    let (nx, ny, nz) = (
        (ext.x / h).floor() as i64,
        (ext.y / h).floor() as i64,
        (ext.z / h).floor() as i64,
    );
    let mut candidates = Vec::new();
    for k in 0..=nz {
        for j in 0..=ny {
            for i in 0..=nx {
                candidates.push(
                    bbox.lo
                        + Vec3::new(
                            (i as f64 + offset) * h,
                            (j as f64 + offset) * h,
                            (k as f64 + offset) * h,
                        ),
                );
            }
        }
    }
    candidates
}

/// Finds seed locations inside the vessel and grows their radii until they
/// would touch the wall or each other (capped at `2 r0`), with `r0 = h/2 ·
/// margin`. Interior/exterior classification uses the Gauss double-layer
/// identity (1 inside, 0 outside) evaluated with the coarse quadrature.
pub fn fill_seeds(surface: &BoundarySurface, h: f64, margin: f64) -> Vec<Seed> {
    let r0 = 0.5 * h * margin;
    grow_seeds(
        surface,
        lattice_candidates(surface, h, 0.0),
        GrowOpts {
            r0,
            rmax_cap: 2.0 * r0,
            wall_frac: 0.9,
            gap_frac: 0.95,
        },
    )
}

/// The high-hematocrit variant of [`fill_seeds`]: candidates on a BCC-style
/// double lattice (the cubic lattice plus a second copy shifted by `h/2` in
/// every axis — twice the sites of [`fill_seeds`]) grown by the paper's
/// §5.1 procedure taken literally: all radii increase at the same rate and
/// each seed **freezes individually** when *it* touches the wall or a
/// neighbour, while the rest keep growing into the space the frozen seed no
/// longer claims. That individual-freeze rule is what separates this from
/// [`fill_seeds`]'s symmetric half-gap split — a wall-adjacent seed stops
/// early and its interior neighbour then claims nearly the whole remaining
/// gap, so the packing stays dense right up to the boundary instead of
/// being throttled by the thinnest local gap. For biconcave cells (whose
/// measured reduced volume is ≈ 0.38 of the grown sphere) this lifts the
/// cubic half-gap fill's ~20% volume fraction to ~30% — the random-packing
/// ceiling; the driver's `dense_fill_packed` scenario reaches the
/// paper-scale ~40% by stacking cells face-to-face instead (scenario knob
/// `fill_packed = true` selects this filler in the fill-based scenarios).
pub fn fill_seeds_packed(surface: &BoundarySurface, h: f64, margin: f64) -> Vec<Seed> {
    let mut candidates = lattice_candidates(surface, h, 0.0);
    candidates.extend(lattice_candidates(surface, h, 0.5));
    let (inside, wall_dist) = interior_with_wall_dist(surface, candidates);
    let n = inside.len();
    let r0 = 0.5 * h * margin;
    let rmax_cap = 2.0 * r0;
    let wall_frac = 0.95;
    // simultaneous growth with individual freezing. Per round every active
    // seed grows by `dr`, clamped against the wall, the cap, and
    // `0.99·(d_ij − r_j)` for every neighbour j (the 0.99 keeps the pair
    // fixed point strictly separated); a seed that cannot grow freezes and
    // becomes a static obstacle for the rest. All clamps read the previous
    // round's radii, so the result is order-independent and deterministic.
    let dr = 0.02 * r0;
    let mut r = vec![0.0f64; n];
    let mut active = vec![true; n];
    // pairwise distances, reused every round
    let dist: Vec<Vec<f64>> = rayon::par::map_indexed(n, |i| {
        inside.iter().map(|&o| (o - inside[i]).norm()).collect()
    });
    while active.iter().any(|&a| a) {
        let prev = r.clone();
        let next: Vec<(f64, bool)> = rayon::par::map_indexed(n, |i| {
            if !active[i] {
                return (prev[i], false);
            }
            let mut lim = (wall_frac * wall_dist[i]).min(rmax_cap);
            for j in 0..n {
                if j != i {
                    lim = lim.min(0.99 * (dist[i][j] - prev[j]));
                }
            }
            let grown = (prev[i] + dr).min(lim);
            if grown <= prev[i] + 1e-12 * r0 {
                (prev[i], false) // stuck: freeze at the current radius
            } else {
                (grown, true)
            }
        });
        for (i, (ri, ai)) in next.into_iter().enumerate() {
            r[i] = ri;
            active[i] = ai;
        }
    }
    inside
        .into_iter()
        .zip(r)
        .filter(|&(_, ri)| ri >= 0.5 * r0)
        .map(|(center, radius)| Seed { center, radius })
        .collect()
}

/// Creates biconcave cells of various sizes at the seeds, each in a random
/// orientation (the filled configurations of Figs. 1 and 8).
pub fn cells_from_seeds(
    basis: &SphBasis,
    seeds: &[Seed],
    params: CellParams,
    rng: &mut impl Rng,
) -> Vec<Cell> {
    seeds
        .iter()
        .map(|s| {
            let coeffs = biconcave_coeffs(basis, s.radius, s.center);
            let rot = rotated_coeffs(basis, &coeffs, rng);
            Cell::new(basis, rot, params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use patch::{capsule_tube, StraightLine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seeds_are_inside_and_disjoint() {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(6.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, 1.0, 3, 8);
        let seeds = fill_seeds(&s, 0.8, 0.9);
        assert!(!seeds.is_empty(), "no seeds placed");
        // pairwise disjoint spheres
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                let d = (seeds[i].center - seeds[j].center).norm();
                assert!(
                    d >= 0.9 * (seeds[i].radius + seeds[j].radius),
                    "seeds {i},{j} overlap: d={d}"
                );
            }
            // inside the tube: distance from axis < 1
            let c = seeds[i].center;
            let axis_d = (c.y * c.y + c.z * c.z).sqrt();
            assert!(
                axis_d + seeds[i].radius <= 1.05,
                "seed {i} pokes through the wall"
            );
        }
    }

    #[test]
    fn packed_fill_beats_cubic_fill() {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(6.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, 1.0, 3, 8);
        let cubic = fill_seeds(&s, 0.8, 0.9);
        let packed = fill_seeds_packed(&s, 0.8, 0.9);
        assert!(
            packed.len() > cubic.len(),
            "double lattice should place more seeds: {} vs {}",
            packed.len(),
            cubic.len()
        );
        let sphere_vol =
            |seeds: &[Seed]| -> f64 { seeds.iter().map(|s| s.radius.powi(3)).sum::<f64>() };
        assert!(
            sphere_vol(&packed) > 1.3 * sphere_vol(&cubic),
            "packed fill should claim substantially more volume"
        );
        // still pairwise disjoint and inside the tube
        for i in 0..packed.len() {
            for j in i + 1..packed.len() {
                let d = (packed[i].center - packed[j].center).norm();
                assert!(
                    d >= 0.95 * (packed[i].radius + packed[j].radius),
                    "seeds {i},{j} overlap: d={d}"
                );
            }
            let c = packed[i].center;
            let axis_d = (c.y * c.y + c.z * c.z).sqrt();
            assert!(
                axis_d + packed[i].radius <= 1.05,
                "seed {i} pokes through the wall"
            );
        }
    }

    #[test]
    fn cells_built_with_varied_radii() {
        let line = StraightLine {
            a: Vec3::ZERO,
            b: Vec3::new(8.0, 0.0, 0.0),
        };
        let s = capsule_tube(&line, 1.0, 4, 8);
        let basis = SphBasis::new(8);
        let seeds = fill_seeds(&s, 0.7, 0.9);
        let mut rng = StdRng::seed_from_u64(42);
        let cells = cells_from_seeds(&basis, &seeds, CellParams::default(), &mut rng);
        assert_eq!(cells.len(), seeds.len());
        // volume fraction is positive and below close packing
        let vol: f64 = cells.iter().map(|c| c.geometry(&basis).volume()).sum();
        let vessel_vol = std::f64::consts::PI * 8.0 + 4.0 / 3.0 * std::f64::consts::PI;
        let vf = vol / vessel_vol;
        assert!(vf > 0.005 && vf < 0.74, "volume fraction {vf}");
    }
}
