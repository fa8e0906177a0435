//! `--compare A B`: two output directories side by side.
//!
//! A directory is one run (`<dir>/<workload>.json`) or a set of runs
//! (`<dir>/*/<workload>.json`, e.g. one sub-directory per seed). Each side's
//! value is the median over its runs and its spread the distance between
//! the first and third quartile as a share of that median (the whole range
//! below four runs, none for a single run). A base `A`, a candidate `B`:
//!
//! - `unresolved` — a side's spread exceeds the metric's bound, so the
//!   bound cannot tell the two apart;
//! - `worse` / `better` — `B`'s median is off `A`'s by more than the bound;
//! - `within` — otherwise.

use crate::check::exceeds;
use crate::manifest::{Manifest, Metric};
use crate::report::{result_path, RunRecord};
use crate::trace::median;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    Unresolved,
}

/// Inter-quartile distance (the range below four samples) over the median.
pub fn spread(values: &[f64]) -> f64 {
    let Some(mid) = median(values) else {
        return 0.0;
    };
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let width = if v.len() >= 4 {
        // the exclusive method of Python's statistics.quantiles(n=4)
        let at = |q: f64| {
            let pos = q * (v.len() + 1) as f64 - 1.0;
            let lo = (pos.floor() as usize).min(v.len() - 2);
            v[lo] + (pos - lo as f64) * (v[lo + 1] - v[lo])
        };
        at(0.75) - at(0.25)
    } else {
        v[v.len() - 1] - v[0]
    };
    width / mid.abs()
}

pub fn verdict(metric: &Metric, base: &[f64], cand: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (Some(a), Some(b)) = (median(base), median(cand)) else {
        return Verdict::Unresolved;
    };
    if exceeds(spread(base), bound)
        || exceeds(spread(cand), bound)
        || !(a.is_finite() && b.is_finite())
    {
        return Verdict::Unresolved;
    }
    // relative change in the direction that is worse
    let worse_by = if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The untraced runs of `workload` under `dir` (see the module docs).
fn load_runs(dir: &Path, workload: &str) -> Result<Vec<RunRecord>, String> {
    let mut paths = vec![result_path(dir, workload, false)];
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut subdirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    paths.extend(subdirs.iter().map(|d| result_path(d, workload, false)));
    paths
        .iter()
        .filter(|p| p.is_file())
        .map(|p| RunRecord::load(p))
        .collect()
}

/// Prints the comparison; `Ok(true)` when no pair is `worse` or `unresolved`,
/// every same-seed pair of runs is identical in digest and counts, and no
/// operation failed.
pub fn compare(manifest: &Manifest, a: &Path, b: &Path) -> Result<bool, String> {
    let mut clean = true;
    println!("workload metric A B B/A(base A) spread_A spread_B bound verdict");
    for workload in &manifest.workloads {
        let (runs_a, runs_b) = (load_runs(a, workload)?, load_runs(b, workload)?);
        if runs_a.is_empty() || runs_b.is_empty() {
            println!(
                "{workload} - no runs on one side ({} vs {})",
                runs_a.len(),
                runs_b.len()
            );
            clean = false;
            continue;
        }
        for metric in &manifest.end_to_end {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(&metric.name)).collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let v = verdict(metric, &va, &vb);
            clean &= matches!(v, Verdict::Within | Verdict::Better);
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            println!(
                "{workload} {} {ma:.6} {mb:.6} {:.4} {:.4} {:.4} {:.2} {}",
                metric.name,
                mb / ma,
                spread(&va),
                spread(&vb),
                metric.bound.unwrap_or(0.0),
                format!("{v:?}").to_lowercase()
            );
        }
        // same program, same seed: the checked end state and the counts
        // over the checked prefix must agree exactly
        for ra in &runs_a {
            for rb in runs_b.iter().filter(|r| r.seed == ra.seed) {
                let same = ra.digest == rb.digest && ra.counts == rb.counts;
                let counts: Vec<String> =
                    ra.counts.iter().map(|(n, v)| format!("{n}={v}")).collect();
                println!(
                    "{workload} seed {} digest {} vs {} counts [{}] {}",
                    ra.seed,
                    ra.digest,
                    rb.digest,
                    counts.join(" "),
                    if same { "identical" } else { "DIFFERENT" }
                );
                clean &= same;
                if !(ra.correct && rb.correct) {
                    println!(
                        "{workload} seed {} failed ops: {} vs {}",
                        ra.seed, ra.failed, rb.failed
                    );
                    clean = false;
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0]), 0.0);
        assert_eq!(spread(&[1.0, 3.0]), 1.0);
        // n = 4: quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert!((spread(&[4.0, 1.0, 3.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let lower = metric(false);
        assert_eq!(verdict(&lower, &[1.0], &[1.05]), Verdict::Within);
        assert_eq!(verdict(&lower, &[1.0], &[1.2]), Verdict::Worse);
        assert_eq!(verdict(&lower, &[1.0], &[0.8]), Verdict::Better);
        let higher = metric(true);
        assert_eq!(verdict(&higher, &[1.0], &[0.8]), Verdict::Worse);
        assert_eq!(verdict(&higher, &[1.0], &[1.2]), Verdict::Better);
    }

    #[test]
    fn wide_spread_or_missing_values_are_unresolved() {
        let m = metric(false);
        assert_eq!(verdict(&m, &[1.0, 1.5], &[1.0]), Verdict::Unresolved);
        assert_eq!(verdict(&m, &[], &[1.0]), Verdict::Unresolved);
        assert_eq!(verdict(&m, &[f64::NAN], &[1.0]), Verdict::Unresolved);
    }
}
