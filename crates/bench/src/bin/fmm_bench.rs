//! FMM perf-trajectory bench: times `Fmm::new` (setup) and
//! `Fmm::evaluate` for the nbody configurations of
//! `benches/components.rs` (N = 8000, orders 4 and 6, Laplace SL and
//! Stokes SL/DL), next to the seed engine (`bench::seed_fmm::SeedFmm`)
//! ported verbatim from the pre-arena implementation, and writes a
//! machine-readable `BENCH_fmm.json` so the numbers are tracked across
//! PRs.
//!
//! A second section times the *persistent-plan* path the wall FMM runs on
//! (`Fmm::frozen` + `evaluate_at`): stresslet sources on a tube surface,
//! moving targets in the lumen — one frozen-tree build, then a target-only
//! replan + evaluate per call, against the fresh build-per-call cost it
//! replaced, with a `leaf_capacity` sweep around the library default at
//! the production order 4 and, beside it, at order 6.
//!
//! The seed engine builds its own 316 per-offset M2L matrices straight from
//! the kernel, so its agreement check (≤ 1e-8, every kernel, every order
//! run) also checks the production engine's orbit tables: the symmetry
//! mapping of the scalar (Laplace), 3 → 3 (Stokes SL) and 3+1 → 3 (the
//! Stokes DL's augmented equivalent kernel) component layouts.
//!
//! Usage: `cargo run --release -p bench --bin fmm_bench [--quick]`
//! (`--quick` runs one evaluate repetition instead of three, skips
//! order 6, and runs a single replan row at the default capacity — used by
//! `scripts/check.sh` as a smoke test).

use bench::cloud;
use bench::seed_fmm::SeedFmm;
use fmm::{Fmm, FmmOptions};
use kernels::{Kernel, LaplaceSL, StokesDL, StokesEquiv, StokesSL};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct CaseResult {
    name: String,
    n: usize,
    order: usize,
    setup_s: f64,
    eval_s: f64,
    seed_eval_s: f64,
    speedup: f64,
    rel_diff: f64,
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

fn run_case<KS: Kernel + Clone, KE: Kernel + Clone>(
    name: &str,
    src_kernel: KS,
    eq_kernel: KE,
    n: usize,
    order: usize,
    reps: usize,
) -> CaseResult {
    let mut rng = StdRng::seed_from_u64(1);
    let pts = cloud(&mut rng, n);
    let data: Vec<f64> = (0..n * src_kernel.src_dim())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let opts = FmmOptions {
        order,
        leaf_capacity: 120,
        max_depth: 10,
    };

    // warm the process-wide operator cache so setup_s measures tree +
    // plan + arenas, not the one-time operator build
    let _ = fmm::cached_operators(&eq_kernel, order);

    let (setup_s, f) = time(1, || {
        Fmm::new(src_kernel.clone(), eq_kernel.clone(), &pts, &pts, opts)
    });
    let (eval_s, new_out) = time(reps, || f.evaluate(&data));

    let seed = SeedFmm::new(src_kernel.clone(), eq_kernel.clone(), &pts, &pts, opts);
    let (seed_eval_s, seed_out) = time(reps, || seed.evaluate(&data));

    let rd = rel_diff(&new_out, &seed_out);
    let r = CaseResult {
        name: name.to_string(),
        n,
        order,
        setup_s,
        eval_s,
        seed_eval_s,
        speedup: seed_eval_s / eval_s,
        rel_diff: rd,
    };
    println!(
        "{:<26} N={:<6} p={}  setup {:>8.1} ms   eval {:>9.2} ms   seed {:>9.2} ms   speedup {:>5.2}x   agree {:.1e}",
        r.name,
        r.n,
        r.order,
        r.setup_s * 1e3,
        r.eval_s * 1e3,
        r.seed_eval_s * 1e3,
        r.speedup,
        r.rel_diff
    );
    r
}

struct ReplanResult {
    n_src: usize,
    n_trg: usize,
    order: usize,
    leaf_capacity: usize,
    /// One-time frozen source-tree build (no targets).
    frozen_build_s: f64,
    /// Per-call cost on the persistent plan: target replan + evaluate.
    replan_eval_s: f64,
    /// The cost this replaced: fresh frozen build + evaluate per call.
    fresh_eval_s: f64,
    speedup: f64,
    /// Max abs difference of the replanned result vs the fresh build's —
    /// identical tree + plan, so this must sit at roundoff (≤ 1e-12).
    agree: f64,
}

/// Wall-FMM microbench: stresslet sources frozen on a tube surface,
/// per-call target replans for drifting lumen targets (the geometry of
/// `bie::DoubleLayerSolver::eval_at` inside a vessel step).
fn run_replan_case(
    n_src: usize,
    n_trg: usize,
    order: usize,
    leaf_capacity: usize,
    reps: usize,
) -> ReplanResult {
    let mut rng = StdRng::seed_from_u64(2);
    let (r, len) = (1.0, 4.0);
    let src: Vec<linalg::Vec3> = (0..n_src)
        .map(|_| {
            let th = rng.random_range(0.0..std::f64::consts::TAU);
            let z = rng.random_range(-0.5 * len..0.5 * len);
            linalg::Vec3::new(r * th.cos(), r * th.sin(), z)
        })
        .collect();
    let lumen = |rng: &mut StdRng, n: usize| -> Vec<linalg::Vec3> {
        (0..n)
            .map(|_| {
                let th = rng.random_range(0.0..std::f64::consts::TAU);
                let rr = r * rng.random_range(0.0..0.85f64).sqrt();
                let z = rng.random_range(-0.45 * len..0.45 * len);
                linalg::Vec3::new(rr * th.cos(), rr * th.sin(), z)
            })
            .collect()
    };
    let sk = StokesDL;
    let ek = StokesEquiv { mu: 1.0 };
    let data: Vec<f64> = (0..n_src * sk.src_dim())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let opts = FmmOptions {
        order,
        leaf_capacity,
        max_depth: 14,
    };
    let _ = fmm::cached_operators(&ek, order);

    let (frozen_build_s, mut f) = time(1, || Fmm::frozen(sk, ek, &src, &[], opts));
    // two target sets, alternated so every timed call replans
    let trg_a = lumen(&mut rng, n_trg);
    let trg_b = lumen(&mut rng, n_trg);
    // prime the persistent arenas, then time replan + evaluate
    let _ = f.evaluate_at(&data, &trg_b);
    let mut flip = false;
    let (replan_eval_s, _) = time(reps.max(2), || {
        flip = !flip;
        f.evaluate_at(&data, if flip { &trg_a } else { &trg_b })
    });
    // the cost this replaced: a throwaway frozen build + evaluate per call
    let (fresh_eval_s, fresh) = time(reps, || {
        let g = Fmm::frozen(sk, ek, &src, &trg_b, opts);
        g.evaluate(&data)
    });
    let replanned = f.evaluate_at(&data, &trg_b);
    let agree = replanned
        .iter()
        .zip(&fresh)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let res = ReplanResult {
        n_src,
        n_trg,
        order,
        leaf_capacity,
        frozen_build_s,
        replan_eval_s,
        fresh_eval_s,
        speedup: fresh_eval_s / replan_eval_s,
        agree,
    };
    println!(
        "replan stokes_dl           Nsrc={:<6} Ntrg={:<5} p={} leaf={:<4} build {:>8.1} ms   replan+eval {:>8.2} ms   fresh {:>9.2} ms   speedup {:>5.2}x   agree {:.1e}",
        res.n_src,
        res.n_trg,
        res.order,
        res.leaf_capacity,
        res.frozen_build_s * 1e3,
        res.replan_eval_s * 1e3,
        res.fresh_eval_s * 1e3,
        res.speedup,
        res.agree
    );
    res
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let n = 8000;
    let orders: &[usize] = if quick { &[4] } else { &[4, 6] };

    let mut results = Vec::new();
    for &order in orders {
        results.push(run_case("laplace_sl", LaplaceSL, LaplaceSL, n, order, reps));
        results.push(run_case(
            "stokes_sl",
            StokesSL { mu: 1.0 },
            StokesSL { mu: 1.0 },
            n,
            order,
            reps,
        ));
        results.push(run_case(
            "stokes_dl",
            StokesDL,
            StokesEquiv { mu: 1.0 },
            n,
            order,
            reps,
        ));
    }

    // persistent-plan section: one frozen build, target-only replans, at
    // the production wall configuration (stresslet kernel, order 4).
    // The full run sweeps leaf_capacity below and above the library
    // default to keep it honest against the replan workload, and repeats
    // the sweep at order 6: the number beside the README's unverified rule
    // that the balanced capacity grows with the equivalent-surface size.
    let default_leaf = FmmOptions::default().leaf_capacity;
    let mut replans = Vec::new();
    if quick {
        replans.push(run_replan_case(8000, 1500, 4, default_leaf, 1));
    } else {
        for order in [4, 6] {
            for leaf in [160, 400, default_leaf, 1600] {
                replans.push(run_replan_case(20000, 3000, order, leaf, reps));
            }
        }
    }

    // hand-rolled JSON (no serde in the environment)
    let mut json = String::from("{\n  \"bench\": \"fmm_evaluate\",\n  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"order\": {}, \"setup_s\": {:.6}, \"eval_s\": {:.6}, \"seed_eval_s\": {:.6}, \"speedup\": {:.3}, \"rel_diff_vs_seed\": {:.3e}}}{}",
            r.name,
            r.n,
            r.order,
            r.setup_s,
            r.eval_s,
            r.seed_eval_s,
            r.speedup,
            r.rel_diff,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"target_replan\": [\n");
    for (i, r) in replans.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"stokes_dl\", \"n_src\": {}, \"n_trg\": {}, \"order\": {}, \"leaf_capacity\": {}, \"frozen_build_s\": {:.6}, \"replan_eval_s\": {:.6}, \"fresh_eval_s\": {:.6}, \"speedup\": {:.3}, \"max_abs_diff_vs_fresh\": {:.3e}}}{}",
            r.n_src,
            r.n_trg,
            r.order,
            r.leaf_capacity,
            r.frozen_build_s,
            r.replan_eval_s,
            r.fresh_eval_s,
            r.speedup,
            r.agree,
            if i + 1 < replans.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    // quick (smoke) runs must not clobber the tracked perf trajectory
    let path = if quick {
        "BENCH_fmm_quick.json"
    } else {
        "BENCH_fmm.json"
    };
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");

    let worst = results
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    println!("worst-case speedup vs seed engine: {worst:.2}x");
    let worst_agree = results.iter().map(|r| r.rel_diff).fold(0.0, f64::max);
    // The two engines sum in different orders (GEMM blocks vs per-
    // interaction matvecs), so they agree to roundoff amplified by the
    // pseudo-inverse conditioning, not to machine epsilon.
    assert!(
        worst_agree < 1e-8,
        "new engine disagrees with seed engine: {worst_agree:.3e}"
    );
    // a replanned persistent plan runs the identical tree + operators as a
    // fresh frozen build — disagreement above roundoff means target-side
    // state leaked between replans
    let worst_replan = replans.iter().map(|r| r.agree).fold(0.0, f64::max);
    assert!(
        worst_replan <= 1e-12,
        "replanned persistent FMM disagrees with fresh build: {worst_replan:.3e}"
    );
}
