//! Integration: the time-stepper's temporal order (the setup of Fig. 11) —
//! two biconcave cells in shear flow, their final centroid against a
//! fine-Δt reference.

use linalg::Vec3;
use sim::{SimConfig, Simulation};
use sphharm::SphBasis;
use vesicle::{biconcave_coeffs, Cell, CellParams};

/// Cell 0's centroid after `steps` fixed steps over the horizon `t`, and
/// the summed contacts and retries of those steps.
fn run(steps: usize, t: f64) -> (Vec3, usize, usize) {
    let basis = SphBasis::new(8);
    let params = CellParams {
        kappa_b: 0.02,
        k_area: 2.0,
        ..Default::default()
    };
    let cells = [Vec3::new(-1.3, 0.0, 0.22), Vec3::new(1.3, 0.0, -0.22)]
        .map(|c| Cell::new(&basis, biconcave_coeffs(&basis, 1.0, c), params))
        .to_vec();
    let config = SimConfig {
        dt: t / steps as f64,
        shear_rate: 1.0,
        collision_delta: 0.05,
        ..Default::default()
    };
    let mut sim = Simulation::new(basis, cells, None, config);
    let (mut contacts, mut retries) = (0, 0);
    for _ in 0..steps {
        sim.step();
        contacts += sim.last_stats.contacts;
        retries += sim.last_stats.dt_retries;
    }
    let centroid = sim.cells[0].geometry(&sim.basis).centroid();
    (centroid, contacts, retries)
}

#[test]
fn shear_pair_centroid_converges_first_order_in_dt() {
    // measured: 7.05e-4, 3.53e-4, 1.57e-4 at Δt = T/4, T/8, T/16 against
    // T/64. The cells close in but never come within the contact
    // threshold, and no step retries, so this pins the contact-free
    // stepper at the Δt it was given.
    let t = 1.0;
    let runs: Vec<_> = [64, 4, 8, 16].into_iter().map(|n| run(n, t)).collect();
    for (i, &(_, contacts, retries)) in runs.iter().enumerate() {
        assert_eq!((contacts, retries), (0, 0), "run {i}: contacts, retries");
    }
    let reference = runs[0].0;
    let errors: Vec<f64> = runs[1..]
        .iter()
        .map(|(c, ..)| (*c - reference).norm())
        .collect();
    for w in errors.windows(2) {
        assert!(w[0] >= 1.6 * w[1], "centroid errors {errors:?}");
    }
}
