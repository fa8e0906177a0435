//! The correctness gate: the end state of the checked prefix against a
//! committed reference, plus the exact-bits digest `--compare` uses to show
//! that two runs of one program are identical.
//!
//! References live in `workloads/ref/<workload>.seed<S>.txt`: one cell
//! centroid per line. A run whose seed has its own reference must match it
//! to `REF_TOL` cell radii. Any other seed is held against the default
//! seed's reference with the workload's `seed_dev_tol` — the `[perturb]`
//! amplitudes move a cell by far less than that over the checked prefix, a
//! broken stepper does not.

use crate::manifest::package_dir;
use linalg::{fnv1a64, ByteWriter, Vec3};
use sphharm::SphBasis;
use std::path::PathBuf;
use vesicle::Cell;

/// The seed a run uses when none is given; its references are committed.
pub const DEFAULT_SEED: u64 = 1;
/// Tolerance, in cell radii, against the reference of the run's own seed.
pub const REF_TOL: f64 = 1e-3;

/// The checked end state of a run.
pub struct EndState {
    pub centroids: Vec<Vec3>,
    /// FNV-1a over every cell's exact serialized state.
    pub digest: u64,
}

impl EndState {
    pub fn capture<'a>(cells: impl IntoIterator<Item = (&'a Cell, &'a SphBasis)>) -> EndState {
        let mut w = ByteWriter::new();
        let mut centroids = Vec::new();
        for (cell, basis) in cells {
            cell.write_state(&mut w);
            centroids.push(cell.geometry(basis).centroid());
        }
        EndState {
            centroids,
            digest: fnv1a64(w.bytes()),
        }
    }

    pub fn finite(&self) -> bool {
        self.centroids
            .iter()
            .all(|c| c.x.is_finite() && c.y.is_finite() && c.z.is_finite())
    }
}

pub fn reference_path(workload: &str, seed: u64) -> PathBuf {
    package_dir()
        .join("workloads/ref")
        .join(format!("{workload}.seed{seed}.txt"))
}

pub fn write_reference(workload: &str, seed: u64, state: &EndState) -> Result<(), String> {
    let mut text = format!(
        "# {workload}, seed {seed}: cell centroids (x y z) at the end of the checked prefix\n"
    );
    for c in &state.centroids {
        text.push_str(&format!("{:.12e} {:.12e} {:.12e}\n", c.x, c.y, c.z));
    }
    let path = reference_path(workload, seed);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_reference(workload: &str, seed: u64) -> Result<Option<Vec<Vec3>>, String> {
    let path = reference_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    parse_reference(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_reference(text: &str) -> Result<Vec<Vec3>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let v: Vec<f64> = line
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|_| format!("bad line `{line}`"))?;
            match v[..] {
                [x, y, z] => Ok(Vec3::new(x, y, z)),
                _ => Err(format!("expected three numbers, got `{line}`")),
            }
        })
        .collect()
}

/// Whether `value` is above `bound` — or not a number, which must fail too.
pub fn exceeds(value: f64, bound: f64) -> bool {
    value.is_nan() || value > bound
}

/// Largest centroid distance between two states, in units of `length`;
/// `None` when they do not hold the same number of cells.
pub fn deviation(a: &[Vec3], b: &[Vec3], length: f64) -> Option<f64> {
    (a.len() == b.len()).then(|| {
        a.iter()
            .zip(b)
            .map(|(p, q)| (*p - *q).norm() / length)
            .fold(0.0, f64::max)
    })
}

/// Holds `state` against the committed reference (see the module docs).
/// Returns `ref_dev` in cell radii and, on a violation, what went wrong.
pub fn against_reference(
    workload: &str,
    seed: u64,
    state: &EndState,
    cell_radius: f64,
    seed_dev_tol: f64,
) -> (f64, Option<String>) {
    let (reference, tol, of) = match read_reference(workload, seed) {
        Err(e) => return (f64::NAN, Some(e)),
        Ok(Some(r)) => (r, REF_TOL, seed),
        Ok(None) => match read_reference(workload, DEFAULT_SEED) {
            Err(e) => return (f64::NAN, Some(e)),
            Ok(Some(r)) => (r, seed_dev_tol, DEFAULT_SEED),
            Ok(None) => {
                return (
                    f64::NAN,
                    Some(format!("no reference for {workload} (run with --bless)")),
                )
            }
        },
    };
    match deviation(&state.centroids, &reference, cell_radius) {
        None => (
            f64::NAN,
            Some(format!(
                "{} cells, reference of seed {of} has {}",
                state.centroids.len(),
                reference.len()
            )),
        ),
        Some(dev) if exceeds(dev, tol) => (
            dev,
            Some(format!(
                "ref_dev {dev:.3e} cell radii from the seed-{of} reference exceeds {tol:.1e}"
            )),
        ),
        Some(dev) => (dev, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_text_round_trips() {
        let pts = parse_reference("# header\n1.5e0 -2.0e-1 3.0e2\n\n 0 0 1 \n").unwrap();
        assert_eq!(
            pts,
            vec![Vec3::new(1.5, -0.2, 300.0), Vec3::new(0.0, 0.0, 1.0)]
        );
        assert!(parse_reference("1 2\n").is_err());
        assert!(parse_reference("1 2 x\n").is_err());
    }

    #[test]
    fn deviation_is_the_largest_distance_in_radii() {
        let a = [Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let b = [Vec3::new(0.0, 0.3, 0.0), Vec3::new(1.0, 0.0, 0.4)];
        assert_eq!(deviation(&a, &b, 2.0), Some(0.2));
        assert_eq!(deviation(&a, &b[..1], 2.0), None);
    }
}
