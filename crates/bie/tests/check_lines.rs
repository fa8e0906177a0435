//! The dense backend's fused check-line kernel against the check-point
//! composition it replaced: the layer potential summed by
//! `kernels::direct_eval` at every check point `y − (R + kR) n`, then
//! combined by the extrapolation weights to `t = 0` (`apply`) or the
//! interpolation weights at the target's depth (`eval_at`).
//!
//! Both kernels, on the 22-patch registry capsule tube, at extrapolation
//! orders `p` ∈ {3, 5, 8}: the fused output of `apply` must sit within
//! 1e-13 (relative 2-norm) of the composition, that of `eval_at` within
//! 2e-13 — or within the composition's own distance from the exact-loop
//! pipeline (`Kernel::eval_acc` at every check point) where that is
//! larger — and no farther from the exact loops than the composition is.

use bie::{closest_points, BieOptions, DoubleLayerSolver, LayerKernel, MatvecBackend};
use kernels::{direct_eval, Kernel, LaplaceDL, LaplaceSL, StokesDL, StokesEquiv};
use linalg::{checkpoint_extrapolation_weights, Interp1d, Vec3};
use patch::{capsule_tube, StraightLine};

/// Check spacing as a multiple of `L̂` (the unrefined scenarios' value):
/// the last check point sits `(p + 1)·0.06·L̂ ≤ 0.54 L̂` deep, inside the
/// near zone (`1·L̂`) and the lumen.
const CHECK_R: f64 = 0.06;

fn solver<K: LayerKernel, KE: Kernel + Clone + Sync + Send>(
    kernel: K,
    eq_kernel: KE,
    p: usize,
) -> DoubleLayerSolver<K, KE> {
    // the sedimentation-registry tube: radius 1.6, axis length 6
    let line = StraightLine {
        a: Vec3::ZERO,
        b: Vec3::new(0.0, 0.0, 6.0),
    };
    let surface = capsule_tube(&line, 1.6, 3, 8);
    assert_eq!(surface.num_patches(), 22);
    let opts = BieOptions {
        p_extrap: p,
        check_r: CHECK_R,
        backend: MatvecBackend::Dense,
        null_space: false,
        ..Default::default()
    };
    DoubleLayerSolver::new(surface, kernel, eq_kernel, opts)
}

/// A smooth density at the nodes, `value_dim` components each.
fn density<K: LayerKernel, KE: Kernel + Clone + Sync + Send>(
    s: &DoubleLayerSolver<K, KE>,
    kernel: &K,
) -> Vec<f64> {
    let field = |y: Vec3| [(y.x + 2.0 * y.y).sin(), (0.7 * y.z).cos(), y.x * y.y];
    s.quad
        .points
        .iter()
        .flat_map(|&y| field(y)[..kernel.value_dim()].to_vec())
        .collect()
}

/// The upsampled, packed sources of `phi`.
fn sources<K: LayerKernel, KE: Kernel + Clone + Sync + Send>(
    s: &DoubleLayerSolver<K, KE>,
    kernel: &K,
    phi: &[f64],
) -> Vec<f64> {
    let vd = kernel.value_dim();
    let fine = s
        .fine
        .upsample_density(phi, vd, s.surface.num_patches(), s.surface.q);
    let sd = kernel.src_dim();
    let mut src = vec![0.0; s.fine.len() * sd];
    for (j, o) in src.chunks_mut(sd).enumerate() {
        kernel.pack(
            &fine[j * vd..(j + 1) * vd],
            s.fine.normals[j],
            s.fine.weights[j],
            o,
        );
    }
    src
}

/// One check line: base, unit direction, spacing `R`, weights.
struct Line {
    base: Vec3,
    normal: Vec3,
    r: f64,
    w: Vec<f64>,
}

/// The composition at `lines`, through `direct_eval` (`exact = false`,
/// the kernels' blocks, as the dense backend ran before the fused
/// kernel) or the exact loops (`exact = true`).
fn composed<K: Kernel>(
    kernel: &K,
    fine_pts: &[Vec3],
    src: &[f64],
    lines: &[Line],
    exact: bool,
) -> Vec<f64> {
    let (sd, vd) = (kernel.src_dim(), kernel.trg_dim());
    let mut out = Vec::with_capacity(lines.len() * vd);
    for line in lines {
        let pts: Vec<Vec3> = (0..line.w.len())
            .map(|k| line.base - line.normal * (line.r + k as f64 * line.r))
            .collect();
        let mut vals = vec![0.0; pts.len() * vd];
        if exact {
            for (p, v) in pts.iter().zip(vals.chunks_mut(vd)) {
                for (j, &y) in fine_pts.iter().enumerate() {
                    kernel.eval_acc(*p, y, &src[j * sd..(j + 1) * sd], v);
                }
            }
        } else {
            direct_eval(kernel, fine_pts, src, &pts, &mut vals);
        }
        for c in 0..vd {
            out.push((0..pts.len()).map(|k| line.w[k] * vals[k * vd + c]).sum());
        }
    }
    out
}

fn rel_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let d: f64 = a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum();
    (d / b.iter().map(|y| y * y).sum::<f64>()).sqrt()
}

/// The fused values sit within `floor` of the composition, or within the
/// composition's own distance from the exact loops where that is larger,
/// and no farther from the exact loops than the composition is (10 %
/// slack), or than `floor`.
fn check(label: &str, fused: &[f64], blocks: &[f64], exact: &[f64], floor: f64) {
    let (to_blocks, to_exact) = (rel_dist(fused, blocks), rel_dist(fused, exact));
    let roundoff = rel_dist(blocks, exact);
    assert!(
        to_blocks <= floor.max(roundoff) && to_exact <= floor.max(1.1 * roundoff),
        "{label}: {to_blocks:.2e} from the composition, {to_exact:.2e} from the exact loops \
         (the composition is {roundoff:.2e} from them)"
    );
}

/// Dense `apply` against the composition at every node's extrapolation
/// line.
fn apply_case<K: LayerKernel, KE: Kernel + Clone + Sync + Send>(name: &str, kernel: K, eq: KE) {
    for p in [3, 5, 8] {
        let s = solver(kernel.clone(), eq.clone(), p);
        let phi = density(&s, &kernel);
        let mut fused = vec![0.0; s.dim()];
        s.apply(&phi, &mut fused);

        let src = sources(&s, &kernel, &phi);
        let w = checkpoint_extrapolation_weights(CHECK_R, CHECK_R, p, 0.0);
        let lines: Vec<Line> = (0..s.quad.len())
            .map(|l| Line {
                base: s.quad.points[l],
                normal: s.quad.normals[l],
                r: CHECK_R * s.quad.patch_size(s.quad.patch_of[l] as usize),
                w: w.clone(),
            })
            .collect();
        let blocks = composed(&kernel, &s.fine.points, &src, &lines, false);
        let exact = composed(&kernel, &s.fine.points, &src, &lines, true);
        check(
            &format!("{name} apply, p = {p}"),
            &fused,
            &blocks,
            &exact,
            1e-13,
        );
    }
}

/// Dense `eval_at` against the composition at near targets between the
/// surface and the last check point, off every fifth node, so both
/// extrapolation (depth < R) and interpolation (R ≤ depth ≤ (p + 1)R)
/// are exercised.
fn eval_at_case<K: LayerKernel, KE: Kernel + Clone + Sync + Send>(name: &str, kernel: K, eq: KE) {
    for p in [3, 5, 8] {
        let s = solver(kernel.clone(), eq.clone(), p);
        let phi = density(&s, &kernel);
        let depths = [0.02, 0.1, 0.3, 0.55, 0.8, 0.97];
        let mut targets: Vec<Vec3> = (0..s.quad.len())
            .step_by(5)
            .enumerate()
            .map(|(m, l)| {
                let last =
                    (p + 1) as f64 * CHECK_R * s.quad.patch_size(s.quad.patch_of[l] as usize);
                s.quad.points[l] - s.quad.normals[l] * (depths[m % depths.len()] * last)
            })
            .collect();
        // and two far targets (the near zone of a 22-patch tube covers
        // its whole lumen), which are summed directly
        targets.extend([Vec3::new(6.0, 0.0, 3.0), Vec3::new(0.0, -5.0, 9.0)]);
        let fused = s.eval_at(&phi, &targets);

        let src = sources(&s, &kernel, &phi);
        let hits = closest_points(&s.surface, &s.quad, &targets, 1.0);
        let (mut near, mut interpolated) = (Vec::new(), 0);
        let mut fused_near = Vec::new();
        let mut far_pts = Vec::new();
        let mut fused_far = Vec::new();
        let vd = kernel.value_dim();
        for (i, hit) in hits.iter().enumerate() {
            let v = &fused[i * vd..(i + 1) * vd];
            let Some(hit) = hit else {
                far_pts.push(targets[i]);
                fused_far.extend_from_slice(v);
                continue;
            };
            let r = CHECK_R * s.quad.patch_size(hit.patch as usize);
            let t_x = (hit.point - targets[i]).dot(hit.normal);
            interpolated += usize::from(t_x >= r);
            let nodes: Vec<f64> = (0..=p).map(|k| r + k as f64 * r).collect();
            near.push(Line {
                base: hit.point,
                normal: hit.normal,
                r,
                w: Interp1d::new(nodes).weights_at(t_x),
            });
            fused_near.extend_from_slice(v);
        }
        assert!(
            interpolated >= 10 && near.len() - interpolated >= 10,
            "{} near targets, {interpolated} between check points",
            near.len()
        );
        let blocks = composed(&kernel, &s.fine.points, &src, &near, false);
        let exact = composed(&kernel, &s.fine.points, &src, &near, true);
        // interpolation weights off the nodes amplify roundoff more than
        // the extrapolation to them (p = 8: the composition sits 8.6e-13
        // from the exact loops here, 3.1e-13 in `apply`)
        let label = format!("{name} eval_at, p = {p}");
        check(&label, &fused_near, &blocks, &exact, 2e-13);

        let mut direct = vec![0.0; fused_far.len()];
        direct_eval(&kernel, &s.fine.points, &src, &far_pts, &mut direct);
        assert_eq!(fused_far, direct, "{name} eval_at far targets, p = {p}");
    }
}

#[test]
fn dense_apply_matches_the_check_point_composition() {
    apply_case("stokes_dl", StokesDL, StokesEquiv { mu: 1.0 });
    apply_case("laplace_dl", LaplaceDL, LaplaceSL);
}

#[test]
fn dense_eval_at_matches_the_check_point_composition() {
    eval_at_case("stokes_dl", StokesDL, StokesEquiv { mu: 1.0 });
    eval_at_case("laplace_dl", LaplaceDL, LaplaceSL);
}
