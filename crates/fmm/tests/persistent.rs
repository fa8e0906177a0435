//! Regression suite for the persistent-plan FMM (`Fmm::frozen` +
//! `set_targets` / `evaluate_at`).
//!
//! The wall-FMM rework replaces a per-step throwaway `Fmm::new` with one
//! frozen source tree replanned per call for moving targets. These tests
//! pin the two properties that make that swap safe:
//!
//! 1. a long-lived replanned instance agrees with a fresh frozen build to
//!    ≤ 1e-12 on every target set (including repeated replans), and
//! 2. the frozen/virtual-leaf evaluation path agrees with direct
//!    summation to FMM truncation accuracy on wall-like (surface-
//!    concentrated) sources with targets in the pruned interior — the
//!    exact geometry of a vessel wall with red-cell quadrature targets in
//!    the lumen.

use fmm::{Fmm, FmmOptions};
use kernels::{direct_eval, LaplaceSL, StokesDL, StokesEquiv};
use linalg::Vec3;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Points on a tube surface of radius `r` along z — a vessel-wall stand-in
/// whose interior (the lumen) holds no sources, so interior targets land
/// in pruned octree regions and exercise the virtual-leaf path.
fn tube_surface(rng: &mut StdRng, n: usize, r: f64, len: f64) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            let th = rng.random_range(0.0..std::f64::consts::TAU);
            let z = rng.random_range(-0.5 * len..0.5 * len);
            Vec3::new(r * th.cos(), r * th.sin(), z)
        })
        .collect()
}

/// Targets inside the lumen (radius < `r`), i.e. in source-free regions.
fn lumen_targets(rng: &mut StdRng, n: usize, r: f64, len: f64) -> Vec<Vec3> {
    (0..n)
        .map(|_| {
            let th = rng.random_range(0.0..std::f64::consts::TAU);
            let rr = r * rng.random_range(0.0..0.85f64).sqrt();
            let z = rng.random_range(-0.45 * len..0.45 * len);
            Vec3::new(rr * th.cos(), rr * th.sin(), z)
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

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

const OPTS: FmmOptions = FmmOptions {
    order: 4,
    leaf_capacity: 60,
    max_depth: 10,
};

/// A persistent instance replanned across randomized moving-target sets
/// must agree with a fresh frozen build per set to ≤ 1e-12 (they run the
/// identical plan on the identical tree, so in practice bit-identically).
#[test]
fn replanned_evaluate_matches_fresh_frozen_build() {
    let mut rng = StdRng::seed_from_u64(31);
    let src = tube_surface(&mut rng, 1500, 1.0, 4.0);
    let data: Vec<f64> = (0..src.len())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let k = LaplaceSL;

    let trg0 = lumen_targets(&mut rng, 300, 1.0, 4.0);
    let mut persistent = Fmm::frozen(k, k, &src, &trg0, OPTS);

    for round in 0..4 {
        // targets drift between rounds, as cell quadrature points do
        let trg = lumen_targets(&mut rng, 250 + 25 * round, 1.0, 4.0);
        let replanned = persistent.evaluate_at(&data, &trg);
        let fresh = Fmm::frozen(k, k, &src, &trg, OPTS).evaluate(&data);
        let d = max_abs_diff(&replanned, &fresh);
        assert!(
            d <= 1e-12,
            "round {round}: replanned vs fresh frozen differ by {d:.3e}"
        );
    }
}

/// Replanning away and back must reproduce the original result
/// bit-for-bit: no target-side state may leak between replans.
#[test]
fn repeated_replans_on_same_plan_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(32);
    let src = tube_surface(&mut rng, 1200, 1.0, 4.0);
    let data: Vec<f64> = (0..src.len())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let k = LaplaceSL;
    let ta = lumen_targets(&mut rng, 300, 1.0, 4.0);
    let tb = lumen_targets(&mut rng, 180, 1.0, 4.0);

    let mut f = Fmm::frozen(k, k, &src, &ta, OPTS);
    let first = f.evaluate(&data);
    let _ = f.evaluate_at(&data, &tb);
    let again = f.evaluate_at(&data, &ta);
    assert_eq!(first, again, "replan round-trip changed the result");
}

/// The virtual-leaf path must hit normal FMM truncation accuracy against
/// direct summation for lumen targets over wall sources.
#[test]
fn frozen_lumen_evaluation_matches_direct_summation() {
    let mut rng = StdRng::seed_from_u64(33);
    let src = tube_surface(&mut rng, 1800, 1.0, 4.0);
    let trg = lumen_targets(&mut rng, 350, 1.0, 4.0);
    let data: Vec<f64> = (0..src.len())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let k = LaplaceSL;
    let opts = FmmOptions { order: 6, ..OPTS };
    let approx = Fmm::frozen(k, k, &src, &trg, opts).evaluate(&data);
    let mut exact = vec![0.0; trg.len()];
    direct_eval(&k, &src, &data, &trg, &mut exact);
    let e = rel_err(&approx, &exact);
    assert!(e < 1e-5, "relative error {e}");
}

/// Same check in the boundary solver's configuration: stresslet sources
/// with the augmented Stokes equivalent kernel, at the refined-path
/// default order 4.
#[test]
fn frozen_stokes_double_layer_matches_direct_summation() {
    let mut rng = StdRng::seed_from_u64(34);
    let src = tube_surface(&mut rng, 1500, 1.0, 4.0);
    let trg = lumen_targets(&mut rng, 300, 1.0, 4.0);
    let mut data = Vec::with_capacity(src.len() * 6);
    for p in &src {
        for _ in 0..3 {
            data.push(rng.random_range(-1.0..1.0));
        }
        // inward wall normal
        let n = Vec3::new(-p.x, -p.y, 0.0).normalized();
        data.extend_from_slice(&[n.x, n.y, n.z]);
    }
    let sk = StokesDL;
    let ek = StokesEquiv { mu: 1.0 };
    let approx = Fmm::frozen(sk, ek, &src, &trg, OPTS).evaluate(&data);
    let mut exact = vec![0.0; trg.len() * 3];
    direct_eval(&sk, &src, &data, &trg, &mut exact);
    // order 4 carries ~3 digits on stresslet clouds (measured 3.6e-3);
    // the matvec-operator accuracy that governs the refined default is
    // pinned separately in crates/bie/tests/tube.rs
    let e = rel_err(&approx, &exact);
    assert!(e < 1e-2, "relative error {e} at order 4");

    // and the persistent/fresh agreement holds for this kernel pair too
    let mut persistent = Fmm::frozen(sk, ek, &src, &trg, OPTS);
    let trg2 = lumen_targets(&mut rng, 280, 1.0, 4.0);
    let replanned = persistent.evaluate_at(&data, &trg2);
    let fresh = Fmm::frozen(sk, ek, &src, &trg2, OPTS).evaluate(&data);
    let d = max_abs_diff(&replanned, &fresh);
    assert!(d <= 1e-12, "replanned vs fresh differ by {d:.3e}");
}

/// Targets outside the frozen root cube (a cell drifting past the port
/// plane) fall back to exact direct summation.
#[test]
fn out_of_cube_targets_are_exact() {
    let mut rng = StdRng::seed_from_u64(35);
    let src = tube_surface(&mut rng, 900, 1.0, 3.0);
    let data: Vec<f64> = (0..src.len())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let k = LaplaceSL;
    // mixed set: lumen targets plus far-outside stragglers
    let mut trg = lumen_targets(&mut rng, 100, 1.0, 3.0);
    trg.push(Vec3::new(0.0, 0.0, 9.0));
    trg.push(Vec3::new(6.0, -5.0, 0.0));
    let out = Fmm::frozen(k, k, &src, &trg, OPTS).evaluate(&data);
    let mut exact = vec![0.0; trg.len()];
    direct_eval(&k, &src, &data, &trg, &mut exact);
    for i in trg.len() - 2..trg.len() {
        assert!(
            (out[i] - exact[i]).abs() <= 1e-12 * exact[i].abs().max(1.0),
            "outside target {i} not exact: {} vs {}",
            out[i],
            exact[i]
        );
    }
}

/// FNV-1a over the output bits of one evaluation.
fn bits_hash(v: &[f64]) -> u64 {
    let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    linalg::fnv1a64(&bytes)
}

/// Output-bit hashes of three evaluations over one tube wall: a
/// `Fmm::new` build (every target in a leaf), a `Fmm::frozen` build whose
/// targets mix near-wall (leaf), lumen (virtual) and out-of-cube points,
/// and a `set_targets` replan of that plan onto a second such set.
fn three_evaluation_hashes<KS, KE>(sk: KS, ek: KE, sd: usize) -> [u64; 3]
where
    KS: kernels::Kernel + Copy,
    KE: kernels::Kernel + Copy,
{
    let mut rng = StdRng::seed_from_u64(36);
    let src = tube_surface(&mut rng, 1500, 1.0, 4.0);
    let data: Vec<f64> = (0..src.len() * sd)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let mixed = |rng: &mut StdRng, n: usize| {
        let mut trg = lumen_targets(rng, n, 1.0, 4.0);
        trg.extend(tube_surface(rng, n, 0.995, 3.9));
        trg.push(Vec3::new(0.0, 0.0, 9.0));
        trg.push(Vec3::new(6.0, -5.0, 0.0));
        trg
    };
    let (ta, tb) = (mixed(&mut rng, 200), mixed(&mut rng, 150));

    // the mixed sets really reach all three target kinds
    let mut tree = octree::Octree::build(
        &src,
        &[],
        octree::TreeOptions {
            leaf_capacity: OPTS.leaf_capacity,
            max_depth: OPTS.max_depth,
        },
    );
    for trg in [&ta, &tb] {
        let ret = tree.retarget(trg);
        assert!(!tree.trg_order.is_empty() && !ret.virt.is_empty() && ret.outside.len() == 2);
    }

    let leaf_only = Fmm::new(sk, ek, &src, &ta[..ta.len() - 2], OPTS).evaluate(&data);
    let mut frozen = Fmm::frozen(sk, ek, &src, &ta, OPTS);
    let first = frozen.evaluate(&data);
    let replanned = frozen.evaluate_at(&data, &tb);
    [
        bits_hash(&leaf_only),
        bits_hash(&first),
        bits_hash(&replanned),
    ]
}

/// The FMM's output bits, pinned: any change to the evaluation order of
/// a target's contributions, to the tree, the plan or the operators
/// shows here, where the tolerance-based tests above would pass it.
#[test]
fn evaluation_bits_are_pinned() {
    let laplace = three_evaluation_hashes(LaplaceSL, LaplaceSL, 1);
    let stokes = three_evaluation_hashes(StokesDL, StokesEquiv { mu: 1.0 }, 6);
    assert_eq!(
        laplace,
        [0x80e9186969dd5a75, 0x87ec883d416128d6, 0x96c8f0b492335777],
        "LaplaceSL"
    );
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    let stokes_pin = [0x76180a87803174d0, 0x0a279ac8848a608e, 0xdd18d5c5daee111b];
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    let stokes_pin = [0x638d94de95cb5bd1, 0xb3ee9674d497f78c, 0x82bc8730a1f30268];
    assert_eq!(stokes, stokes_pin, "StokesDL/StokesEquiv");
}
