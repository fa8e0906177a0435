//! Per-component wall-time accounting matching the categories of
//! Figs. 4–6: COL, BIE-solve, BIE-FMM, Other-FMM, Other.

use std::time::Instant;

/// Accumulated seconds per component of a simulation step. A retried step
/// pays the boundary solve and the global sums once; each failed attempt adds
/// only its implicit stage and gates to `other` (and a collision pass to
/// `col` when it got that far).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimers {
    /// Collision detection + resolution (the paper's COL).
    pub col: f64,
    /// Boundary solve excluding far-field summation (BIE-solve).
    pub bie_solve: f64,
    /// Far-field summation inside the boundary solve and `u_Γ` evaluation
    /// (BIE-FMM).
    pub bie_fmm: f64,
    /// Far-field summation for cell–cell interactions (Other-FMM).
    pub other_fmm: f64,
    /// Everything else (membrane forces, implicit solves, bookkeeping).
    pub other: f64,
}

impl StepTimers {
    /// Total wall time.
    pub fn total(&self) -> f64 {
        self.col + self.bie_solve + self.bie_fmm + self.other_fmm + self.other
    }

    /// Adds another timer set.
    pub fn accumulate(&mut self, o: &StepTimers) {
        self.col += o.col;
        self.bie_solve += o.bie_solve;
        self.bie_fmm += o.bie_fmm;
        self.other_fmm += o.other_fmm;
        self.other += o.other;
    }

    /// The paper's headline combination "COL + BIE-solve".
    pub fn col_plus_bie_solve(&self) -> f64 {
        self.col + self.bie_solve
    }
}

/// Measures one closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_accumulation() {
        let mut a = StepTimers {
            col: 1.0,
            bie_solve: 2.0,
            bie_fmm: 3.0,
            other_fmm: 4.0,
            other: 5.0,
        };
        assert!((a.total() - 15.0).abs() < 1e-12);
        assert!((a.col_plus_bie_solve() - 3.0).abs() < 1e-12);
        let b = a;
        a.accumulate(&b);
        assert!((a.total() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn timed_measures_something() {
        let (v, t) = timed(|| (0..10000).sum::<u64>());
        assert_eq!(v, 49995000);
        assert!(t >= 0.0);
    }
}
