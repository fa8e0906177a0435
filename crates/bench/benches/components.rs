//! Criterion micro-benchmarks backing the component bars of Figs. 4–6:
//! FMM vs. direct N-body, candidate-pair detection, closest-point search,
//! LCP solves, the self-interaction operator, and spherical-harmonic
//! transforms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kernels::{direct_eval, LaplaceSL, StokesSL};
use linalg::Vec3;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;

use bench::cloud;

fn bench_fmm_vs_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbody_laplace");
    group.sample_size(10);
    for &n in &[2000usize, 8000] {
        let mut rng = StdRng::seed_from_u64(1);
        let src = cloud(&mut rng, n);
        let data: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let k = LaplaceSL;
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| {
                let mut out = vec![0.0; n];
                direct_eval(&k, &src, &data, &src, &mut out);
                black_box(out)
            })
        });
        for &order in &[4usize, 6] {
            group.bench_with_input(
                BenchmarkId::new(format!("fmm_order{order}"), n),
                &n,
                |b, _| {
                    let f = fmm::Fmm::new(
                        k,
                        k,
                        &src,
                        &src,
                        fmm::FmmOptions {
                            order,
                            leaf_capacity: 120,
                            max_depth: 10,
                        },
                    );
                    b.iter(|| black_box(f.evaluate(&data)))
                },
            );
        }
    }
    group.finish();
}

fn bench_fmm_stokes(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbody_stokes");
    group.sample_size(10);
    let n = 8000usize;
    let mut rng = StdRng::seed_from_u64(1);
    let src = cloud(&mut rng, n);
    let data: Vec<f64> = (0..3 * n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let k = StokesSL { mu: 1.0 };
    for &order in &[4usize, 6] {
        group.bench_with_input(
            BenchmarkId::new(format!("fmm_order{order}"), n),
            &n,
            |b, _| {
                let f = fmm::Fmm::new(
                    k,
                    k,
                    &src,
                    &src,
                    fmm::FmmOptions {
                        order,
                        leaf_capacity: 120,
                        max_depth: 10,
                    },
                );
                b.iter(|| black_box(f.evaluate(&data)))
            },
        );
    }
    group.finish();
}

/// The M2L inner kernel in its formulations, on the wall's real
/// precomputed operators (augmented Stokes equivalent kernel, order 4):
/// per-interaction dense matvecs with an offset-map lookup (the seed
/// formulation), one GEMM over an already gathered 64-pair block, and the
/// production item — the same GEMM with each pair's signed gather into the
/// orbit representative's order before it and signed scatter into its
/// class's order after it, pairs cycling through the orbit's classes.
fn bench_m2l(c: &mut Criterion) {
    use fmm::ops::{gather_signed, m2l_class, scatter_add_signed};
    let mut group = c.benchmark_group("m2l");
    group.sample_size(20);
    let ops = fmm::cached_operators(&kernels::StokesEquiv { mu: 1.0 }, 4);
    let (nd_eq, nd_chk) = (ops.n_surf * ops.sdim, ops.n_surf * ops.vdim);
    let class = ops.m2l_classes[m2l_class(2, 1, -1).unwrap()]
        .as_ref()
        .unwrap();
    let op_t = &ops.m2l_orbits_t[class.orbit as usize];
    let op = op_t.transpose();
    let orbit: Vec<_> = ops
        .m2l_classes
        .iter()
        .flatten()
        .filter(|c| c.orbit == class.orbit)
        .collect();
    let batch = 64usize;
    let mut rng = StdRng::seed_from_u64(3);
    // gathered source-density block (the arena rows the FMM would gather)
    let equiv: Vec<f64> = (0..batch * nd_eq)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    // an up arena of 4 · batch slots, gathered from at scattered slots
    let up: Vec<f64> = (0..4 * batch * nd_eq)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    let slots: Vec<usize> = (0..batch).map(|i| (7 * i + 3) % (4 * batch)).collect();
    let mut lookup = std::collections::HashMap::new();
    lookup.insert((2i8, 1i8, -1i8), op);
    group.bench_function("per_interaction_64", |b| {
        b.iter(|| {
            let mut check = vec![0.0; batch * nd_chk];
            let m = lookup.get(&(2i8, 1i8, -1i8)).unwrap();
            for i in 0..batch {
                m.matvec_acc(
                    &equiv[i * nd_eq..(i + 1) * nd_eq],
                    1.25,
                    &mut check[i * nd_chk..(i + 1) * nd_chk],
                );
            }
            black_box(check)
        })
    });
    group.bench_function("batched_gemm_64", |b| {
        b.iter(|| {
            let mut check = vec![0.0; batch * nd_chk];
            linalg::gemm_acc(batch, nd_chk, nd_eq, 1.25, &equiv, op_t.data(), &mut check);
            black_box(check)
        })
    });
    let mut sblk = vec![0.0; batch * nd_eq];
    let mut y = vec![0.0; batch * nd_chk];
    group.bench_function("batched_gemm_64_permuted", |b| {
        b.iter(|| {
            let mut check = vec![0.0; batch * nd_chk];
            for (i, row) in sblk.chunks_mut(nd_eq).enumerate() {
                let s = slots[i];
                gather_signed(
                    &orbit[i % orbit.len()].eq,
                    &up[s * nd_eq..(s + 1) * nd_eq],
                    row,
                );
            }
            y.fill(0.0);
            linalg::gemm_acc(batch, nd_chk, nd_eq, 1.25, &sblk, op_t.data(), &mut y);
            for (i, (dst, yrow)) in check.chunks_mut(nd_chk).zip(y.chunks(nd_chk)).enumerate() {
                scatter_add_signed(&orbit[i % orbit.len()].chk, yrow, dst);
            }
            black_box(check)
        })
    });
    group.finish();
}

/// The batched kernel micro-path: scalar `eval_acc` loops vs the
/// vectorized `eval_block` implementations, per kernel.
fn bench_eval_block(c: &mut Criterion) {
    use kernels::Kernel;
    let mut group = c.benchmark_group("eval_block");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    let srcs = cloud(&mut rng, 2000);
    let trgs = cloud(&mut rng, 64);

    fn scalar_loop<K: Kernel>(k: &K, trgs: &[Vec3], srcs: &[Vec3], data: &[f64]) -> Vec<f64> {
        let (sd, td) = (k.src_dim(), k.trg_dim());
        let mut out = vec![0.0; trgs.len() * td];
        for (i, &t) in trgs.iter().enumerate() {
            let o = &mut out[i * td..(i + 1) * td];
            for (j, &s) in srcs.iter().enumerate() {
                k.eval_acc(t, s, &data[j * sd..(j + 1) * sd], o);
            }
        }
        out
    }

    macro_rules! bench_kernel {
        ($name:literal, $k:expr) => {{
            let k = $k;
            let data: Vec<f64> = (0..srcs.len() * k.src_dim())
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            group.bench_function(concat!($name, "_scalar"), |b| {
                b.iter(|| black_box(scalar_loop(&k, &trgs, &srcs, &data)))
            });
            group.bench_function(concat!($name, "_block"), |b| {
                b.iter(|| {
                    let mut out = vec![0.0; trgs.len() * k.trg_dim()];
                    k.eval_block(&trgs, &srcs, &data, &mut out);
                    black_box(out)
                })
            });
        }};
    }
    bench_kernel!("laplace_sl", LaplaceSL);
    bench_kernel!("stokes_sl", StokesSL { mu: 1.0 });
    bench_kernel!("stokes_dl", kernels::StokesDL);
    group.finish();
}

fn bench_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("collision_candidates");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let boxes: Vec<linalg::Aabb> = (0..4000)
        .map(|_| {
            let c = Vec3::new(
                rng.random_range(-5.0..5.0),
                rng.random_range(-5.0..5.0),
                rng.random_range(-5.0..5.0),
            );
            linalg::Aabb::new(c - Vec3::splat(0.15), c + Vec3::splat(0.15))
        })
        .collect();
    let grid = octree::SpatialHash::new(octree::mean_diagonal_spacing(&boxes), Vec3::ZERO);
    group.bench_function("self_pairs_4000", |b| {
        b.iter(|| black_box(octree::box_box_candidates_self(&boxes, &grid)))
    });

    // one full `detect_contacts` call on the geometry of
    // `suspension_contact`: a 3 × 3 × 3 lattice of unit oblate spheroids at
    // spacing 2.02, jittered and randomly oriented, with space-time start
    // positions and δ = 0.12 (the lattice of the collision crate's
    // `grid_matches_brute_force_on_a_spheroid_lattice`)
    let mut rng = StdRng::seed_from_u64(27);
    let meshes: Vec<collision::TriMesh> = (0..27)
        .map(|i| {
            let jitter = Vec3::new(
                rng.random_range(-0.006..0.006),
                rng.random_range(-0.006..0.006),
                rng.random_range(-0.006..0.006),
            );
            let c = Vec3::new((i % 3) as f64, (i / 3 % 3) as f64, (i / 9) as f64) * 2.02 + jitter;
            let tilt: f64 = rng.random_range(0.0..std::f64::consts::PI);
            let turn: f64 = rng.random_range(0.0..std::f64::consts::TAU);
            let rot = |v: Vec3| {
                let (y, z) = (
                    v.y * tilt.cos() - v.z * tilt.sin(),
                    v.y * tilt.sin() + v.z * tilt.cos(),
                );
                c + Vec3::new(
                    v.x * turn.cos() - y * turn.sin(),
                    v.x * turn.sin() + y * turn.cos(),
                    z,
                )
            };
            let (nlat, nlon) = (11, 20);
            let grid: Vec<Vec3> = (0..nlat * nlon)
                .map(|k| {
                    let th = std::f64::consts::PI * ((k / nlon) as f64 + 0.5) / nlat as f64;
                    let ph = std::f64::consts::TAU * (k % nlon) as f64 / nlon as f64;
                    rot(Vec3::new(
                        th.sin() * ph.cos(),
                        th.sin() * ph.sin(),
                        0.45 * th.cos(),
                    ))
                })
                .collect();
            let (north, south) = (
                rot(Vec3::new(0.0, 0.0, 0.45)),
                rot(Vec3::new(0.0, 0.0, -0.45)),
            );
            collision::triangulate_latlon(&grid, nlat, nlon, north, south)
        })
        .collect();
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
    let obj_of: Vec<u32> = (0..27).collect();
    let opts = collision::DetectOptions::new(0.12);
    group.bench_function("detect_lattice_27", |b| {
        b.iter(|| {
            black_box(collision::detect_contacts(
                &meshes,
                Some(&start),
                &obj_of,
                opts,
            ))
        })
    });
    group.finish();
}

fn bench_lcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lcp");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(3);
    let m = 60;
    let mut bmat = linalg::Mat::from_fn(m, m, |_, _| rng.random_range(-0.3..0.3));
    for i in 0..m {
        bmat[(i, i)] = m as f64;
    }
    let q: Vec<f64> = (0..m).map(|_| rng.random_range(-2.0..2.0)).collect();
    group.bench_function("minimum_map_newton_60", |b| {
        b.iter(|| {
            black_box(collision::solve_lcp(
                m,
                |x, y| bmat.matvec_into(x, y),
                &q,
                &collision::LcpOptions::default(),
            ))
        })
    });
    group.finish();
}

fn bench_selfop(c: &mut Criterion) {
    let mut group = c.benchmark_group("selfop");
    group.sample_size(10);
    let basis = sphharm::SphBasis::new(12);
    let coeffs = vesicle::sphere_coeffs(&basis, 1.0, Vec3::ZERO);
    group.bench_function("build_p12", |b| {
        b.iter(|| black_box(vesicle::SelfInteraction::build(&basis, &coeffs, 1.0)))
    });
    let op = vesicle::SelfInteraction::build(&basis, &coeffs, 1.0);
    let f: Vec<f64> = (0..3 * basis.grid_size())
        .map(|i| (i as f64 * 0.1).sin())
        .collect();
    group.bench_function("apply_p12", |b| b.iter(|| black_box(op.apply(&f))));

    // the shape `suspension_contact` runs: a biconcave cell at p = 8, the
    // operator rebuilt in place each step, applied once per implicit GMRES
    // iteration and with one to three contact columns per NCP linearization;
    // and the same cell at the paper's p = 16 (544 targets, 2,112 fine
    // points, 289 coefficients)
    for p in [8, 16] {
        let basis = sphharm::SphBasis::new(p);
        let coeffs = vesicle::biconcave_coeffs(&basis, 1.0, Vec3::new(0.3, -0.2, 0.1));
        if p == 16 {
            group.bench_function("build_p16", |b| {
                b.iter(|| {
                    black_box(vesicle::SelfInteraction::build(
                        &basis,
                        black_box(&coeffs),
                        1.0,
                    ))
                })
            });
        }
        let mut op = vesicle::SelfInteraction::build(&basis, &coeffs, 1.0);
        group.bench_function(&format!("rebuild_p{p}"), |b| {
            b.iter(|| op.rebuild(&basis, black_box(&coeffs), 1.0))
        });
        let n = basis.grid_size();
        let f: Vec<f64> = (0..3 * n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_function(&format!("apply_p{p}"), |b| {
            b.iter(|| black_box(op.apply(&f)))
        });
        let ks: &[usize] = if p == 8 { &[1, 3] } else { &[3] };
        for &k in ks {
            let cols =
                linalg::Mat::from_fn(3 * n, k, |i, c| ((i * 7 + c * 13) as f64 * 0.11).sin());
            group.bench_function(&format!("apply_many_p{p}_k{k}"), |b| {
                b.iter(|| black_box(op.apply_many(&cols)))
            });
        }
    }
    group.finish();
}

fn bench_sph_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("sphharm");
    let basis = sphharm::SphBasis::new(16);
    let mut rng = StdRng::seed_from_u64(4);
    let grid: Vec<f64> = (0..basis.grid_size())
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    group.bench_function("analyze_p16", |b| {
        b.iter(|| black_box(basis.analyze(&grid)))
    });
    let cf = basis.analyze(&grid);
    group.bench_function("synthesize_p16", |b| {
        b.iter(|| black_box(basis.synthesize(&cf, sphharm::Deriv::None)))
    });
    group.finish();
}

fn bench_stokes_direct(c: &mut Criterion) {
    let mut group = c.benchmark_group("stokes_p2p");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    let n = 4000;
    let src = cloud(&mut rng, n);
    let data: Vec<f64> = (0..3 * n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let k = StokesSL { mu: 1.0 };
    group.bench_function("stokeslet_4000x4000", |b| {
        b.iter(|| {
            let mut out = vec![0.0; 3 * n];
            direct_eval(&k, &src, &data, &src, &mut out);
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fmm_vs_direct,
    bench_fmm_stokes,
    bench_m2l,
    bench_eval_block,
    bench_candidates,
    bench_lcp,
    bench_selfop,
    bench_sph_transforms,
    bench_stokes_direct
);
criterion_main!(benches);
