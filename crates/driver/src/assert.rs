//! `--assert` expressions: a bound on a run's per-step columns or on a
//! farm's counters, parsed before the run and judged on its report.
//!
//! A run expression is `sum|max|min(<column>) <op> <number>`, `<column>` a
//! `trajectory.csv` header name (`session::COLUMNS`); a farm expression is
//! `cache_hits|resumed <op> <number>`. `<op>` is `<`, `<=`, `>=` or `>`,
//! and the three tokens are separated by spaces: `'sum(contacts) >= 10'`.
//! A non-finite value in any row fails a run expression; a run of zero
//! steps, or a wall column on a scenario without a vessel, is an error
//! rather than a vacuous pass.

use crate::batch::FarmReport;
use crate::session::{Column, RunReport, StepRow, COLUMNS};
use std::str::FromStr;

/// Whether only a scenario with a vessel produces column `name`.
fn vessel_only(name: &str) -> bool {
    matches!(name, "gmres_iters" | "flux_imbalance") || name.starts_with("wall_fmm_")
}

/// A parsed `--assert` expression: `subject` compared with `bound`.
#[derive(Clone, Debug)]
pub struct Assert<S> {
    expr: String,
    subject: S,
    op: &'static str,
    bound: f64,
}

/// A run expression: an aggregate (`sum`, `max`, `min`) of one column.
pub type RunAssert = Assert<(&'static str, &'static Column)>;

/// A farm expression: one farm counter (`cache_hits`, `resumed`).
pub type FarmAssert = Assert<&'static str>;

/// The farm counters a farm expression can name.
const COUNTERS: [&str; 2] = ["cache_hits", "resumed"];

/// `name` if it is one of `options`, else an error naming it.
fn one_of(name: &str, options: &[&'static str], what: &str) -> Result<&'static str, String> {
    let known = options.iter().find(|o| **o == name);
    known.copied().ok_or_else(|| {
        let options = options.join(", ");
        format!("unknown {what} `{name}` (expected one of {options})")
    })
}

impl<S> Assert<S> {
    /// Parses `<subject> <op> <number>`, the subject token with `subject`;
    /// an error names the expression and the token at fault.
    fn parse(expr: &str, subject: impl FnOnce(&str) -> Result<S, String>) -> Result<Self, String> {
        let err = |what: String| format!("`{expr}`: {what}");
        let [token, op, number] = expr.split_whitespace().collect::<Vec<_>>()[..] else {
            return Err(err(
                "expected `<subject> <op> <number>`, separated by spaces".into(),
            ));
        };
        let op = one_of(op, &["<", "<=", ">=", ">"], "operator").map_err(err)?;
        let Some(bound) = number.parse::<f64>().ok().filter(|b| b.is_finite()) else {
            return Err(err(format!("`{number}` is not a finite number")));
        };
        let subject = subject(token).map_err(err)?;
        let expr = expr.to_string();
        Ok(Assert {
            expr,
            subject,
            op,
            bound,
        })
    }

    /// `Ok` if `observed` satisfies the bound (NaN satisfies none); either
    /// way the message names the expression and `shown`, the observed
    /// value and where it came from.
    fn judge(&self, observed: f64, shown: String) -> Result<String, String> {
        let b = self.bound;
        let holds = match self.op {
            "<" => observed < b,
            "<=" => observed <= b,
            ">=" => observed >= b,
            _ => observed > b,
        };
        let message = |verdict| format!("assert `{}` {verdict}: observed {shown}", self.expr);
        match holds {
            true => Ok(message("OK")),
            false => Err(message("failed")),
        }
    }
}

impl FromStr for RunAssert {
    type Err = String;

    /// Parses `sum|max|min(<column>) <op> <number>`.
    fn from_str(expr: &str) -> Result<Self, String> {
        Assert::parse(expr, |token| {
            let call = token.strip_suffix(')').and_then(|t| t.split_once('('));
            let (aggregate, name) =
                call.ok_or(format!("expected `sum|max|min(<column>)`, got `{token}`"))?;
            let aggregate = one_of(aggregate, &["sum", "max", "min"], "aggregate")?;
            let names: Vec<&'static str> = COLUMNS.iter().map(|c| c.0).collect();
            let name = one_of(name, &names, "column")?;
            let column = COLUMNS.iter().find(|c| c.0 == name);
            Ok((aggregate, column.expect("a column's name")))
        })
    }
}

impl RunAssert {
    /// Judges the run's rows: the message names the expression, the
    /// observed value and the step it came from (for a sum, the steps).
    pub fn check(&self, report: &RunReport) -> Result<String, String> {
        let (aggregate, &(name, value, format)) = self.subject;
        let rows = &report.rows;
        let err = |what: &str| Err(format!("assert `{}`: {what}", self.expr));
        if vessel_only(name) && !report.vessel {
            return err(&format!("`{name}` needs a vessel; the scenario has none"));
        }
        let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
            return err("the run took no steps");
        };
        if let Some(row) = rows.iter().find(|r| !value(r).is_finite()) {
            let shown = format!("{} at step {}", format(value(row)), row.step);
            return self.judge(f64::NAN, shown);
        }
        let (observed, at) = if aggregate == "sum" {
            let total = rows.iter().map(value).sum();
            (total, format!("over steps {}–{}", first.step, last.step))
        } else {
            let order = |a: &&StepRow, b: &&StepRow| value(a).total_cmp(&value(b));
            let row = match aggregate {
                "max" => rows.iter().max_by(order),
                _ => rows.iter().min_by(order),
            };
            let row = row.expect("rows are not empty");
            (value(row), format!("at step {}", row.step))
        };
        self.judge(observed, format!("{} {at}", format(observed)))
    }
}

impl FromStr for FarmAssert {
    type Err = String;

    /// Parses `cache_hits|resumed <op> <number>`.
    fn from_str(expr: &str) -> Result<Self, String> {
        Assert::parse(expr, |t| one_of(t, &COUNTERS, "farm counter"))
    }
}

impl FarmAssert {
    /// Judges the farm's counter: shared-cache hits over the farm window,
    /// or jobs resumed from a checkpoint.
    pub fn check(&self, report: &FarmReport) -> Result<String, String> {
        let observed = match self.subject {
            "cache_hits" => report.cache.hits() as f64,
            _ => report.resumed() as f64,
        };
        self.judge(observed, observed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{JobOutcome, JobStatus};
    use crate::session::CacheTelemetry;
    use sim::StepStats;

    /// A synthetic run: one row per entry of `stats`, steps numbered from 1.
    fn run(vessel: bool, stats: &[StepStats]) -> RunReport {
        let rows = stats.iter().enumerate().map(|(i, &stats)| StepRow {
            step: i + 1,
            timers: Default::default(),
            stats,
            recycled: 0,
        });
        RunReport {
            rows: rows.collect(),
            vessel,
            ..Default::default()
        }
    }

    /// A synthetic farm with `hits` shared-cache hits and `resumed` jobs
    /// resumed from a checkpoint.
    fn farm(hits: u64, resumed: usize) -> FarmReport {
        let job = |start_step| JobOutcome {
            name: "job".into(),
            scenario: "shear_pair".into(),
            status: JobStatus::Completed,
            start_step,
            steps_run: 1,
            wall_s: 0.0,
            error: None,
        };
        let mut outcomes = vec![job(0)];
        outcomes.extend((0..resumed).map(|_| job(3)));
        let cache = CacheTelemetry {
            fmm_op_hits: hits,
            ..Default::default()
        };
        FarmReport {
            outcomes,
            cache,
            wall_s: 0.0,
        }
    }

    fn check(expr: &str, report: &RunReport) -> Result<String, String> {
        expr.parse::<RunAssert>().unwrap().check(report)
    }

    #[test]
    fn ci_smoke_conditions_pass_and_fail() {
        let s = StepStats::default;
        let contacts = |c| StepStats { contacts: c, ..s() };
        let retries = |r| StepStats {
            dt_retries: r,
            ..s()
        };
        let stretch = |x| StepStats {
            max_edge_stretch: x,
            ..s()
        };
        let iters = |n| StepStats {
            bie_iterations: n,
            ..s()
        };
        let builds = |n| StepStats {
            wall_fmm_builds: n,
            ..s()
        };
        let replans = |n| StepStats {
            wall_fmm_replans: n,
            ..s()
        };
        let flux = |x| StepStats {
            flux_imbalance: x,
            ..s()
        };
        // (expression, a run that satisfies it, one that does not)
        let cases = [
            (
                "sum(contacts) >= 10",
                vec![contacts(4), contacts(6)],
                vec![contacts(9)],
            ),
            (
                "sum(dt_retries) >= 1",
                vec![retries(0), retries(1)],
                vec![retries(0)],
            ),
            (
                "max(max_edge_stretch) <= 10",
                vec![stretch(10.0)],
                vec![stretch(1.0), stretch(10.5)],
            ),
            (
                "max(gmres_iters) < 30",
                vec![iters(29), iters(3)],
                vec![iters(3), iters(30)],
            ),
            (
                "sum(wall_fmm_builds) <= 1",
                vec![builds(1), builds(0)],
                vec![builds(1), builds(1)],
            ),
            (
                "min(wall_fmm_replans) >= 1",
                vec![replans(2), replans(1)],
                vec![replans(2), replans(0)],
            ),
            (
                "max(flux_imbalance) <= 1e-6",
                vec![flux(1e-6), flux(-1.0)],
                vec![flux(2e-6)],
            ),
        ];
        for (expr, pass, fail) in cases {
            let ok = check(expr, &run(true, &pass)).unwrap();
            assert!(
                ok.starts_with(&format!("assert `{expr}` OK: observed ")),
                "{ok}"
            );
            let e = check(expr, &run(true, &fail)).unwrap_err();
            assert!(
                e.starts_with(&format!("assert `{expr}` failed: observed ")),
                "{e}"
            );
        }
    }

    #[test]
    fn farm_counters_pass_and_fail() {
        let expr = |e: &str| e.parse::<FarmAssert>().unwrap();
        assert!(expr("cache_hits >= 1").check(&farm(1, 0)).is_ok());
        let e = expr("cache_hits >= 1").check(&farm(0, 0)).unwrap_err();
        assert_eq!(e, "assert `cache_hits >= 1` failed: observed 0");
        assert!(expr("resumed >= 1").check(&farm(0, 1)).is_ok());
        assert!(expr("resumed >= 1").check(&farm(5, 0)).is_err());
        assert!(expr("resumed < 2").check(&farm(0, 2)).is_err());
    }

    #[test]
    fn failure_names_the_observed_value_and_step() {
        let rows = [2, 7, 5].map(|n| StepStats {
            bie_iterations: n,
            contacts: n,
            ..Default::default()
        });
        let report = run(true, &rows);
        let e = check("max(gmres_iters) < 6", &report).unwrap_err();
        assert_eq!(
            e,
            "assert `max(gmres_iters) < 6` failed: observed 7 at step 2"
        );
        let e = check("min(contacts) > 2", &report).unwrap_err();
        assert_eq!(e, "assert `min(contacts) > 2` failed: observed 2 at step 1");
        let e = check("sum(contacts)   >=  100", &report).unwrap_err();
        assert_eq!(
            e,
            "assert `sum(contacts)   >=  100` failed: observed 14 over steps 1–3"
        );
        let ok = check("max(flux_imbalance) <= 1e-6", &report).unwrap();
        assert_eq!(
            ok,
            "assert `max(flux_imbalance) <= 1e-6` OK: observed 0.000e0 at step 3"
        );
    }

    #[test]
    fn a_non_finite_row_fails_every_aggregate() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = [0.5, bad, 0.25].map(|x| StepStats {
                max_edge_stretch: x,
                ..Default::default()
            });
            let report = run(false, &rows);
            // each bound holds for the two finite rows alone
            for expr in [
                "max(max_edge_stretch) < 1",
                "min(max_edge_stretch) > 0",
                "sum(max_edge_stretch) < 1",
                "sum(max_edge_stretch) > 0",
            ] {
                let e = check(expr, &report).unwrap_err();
                assert!(e.contains("failed") && e.ends_with("at step 2"), "{e}");
            }
        }
    }

    #[test]
    fn wall_columns_need_a_vessel() {
        let free = run(false, &[StepStats::default()]);
        for column in [
            "gmres_iters",
            "wall_fmm_builds",
            "wall_fmm_replans",
            "flux_imbalance",
        ] {
            let e = check(&format!("max({column}) >= 0"), &free).unwrap_err();
            assert!(e.contains(&format!("`{column}` needs a vessel")), "{e}");
        }
        // the columns every scenario produces are checked as usual
        assert!(check("sum(contacts) >= 0", &free).is_ok());
        assert!(check("max(gmres_iters) >= 0", &run(true, &[StepStats::default()])).is_ok());
    }

    #[test]
    fn zero_steps_is_an_error_not_a_pass() {
        for expr in ["sum(contacts) >= 0", "max(dt_retries) < 1", "min(step) > 0"] {
            let e = check(expr, &run(true, &[])).unwrap_err();
            assert_eq!(e, format!("assert `{expr}`: the run took no steps"));
        }
    }

    #[test]
    fn malformed_expressions_name_the_token() {
        for (expr, token) in [
            ("", "expected `<subject> <op> <number>`"),
            ("sum(contacts) >= ", "expected `<subject> <op> <number>`"),
            ("sum(contacts)>=10", "expected `<subject> <op> <number>`"),
            (
                "sum(contacts) >= 10 steps",
                "expected `<subject> <op> <number>`",
            ),
            ("sum(contacts) == 10", "unknown operator `==`"),
            ("sum(contacts) => 10", "unknown operator `=>`"),
            ("sum(contacts) >= ten", "`ten` is not a finite number"),
            ("sum(contacts) >= nan", "`nan` is not a finite number"),
            ("sum(contacts) >= inf", "`inf` is not a finite number"),
            ("mean(contacts) >= 1", "unknown aggregate `mean`"),
            ("sum(contact) >= 1", "unknown column `contact`"),
            ("sum() >= 1", "unknown column ``"),
            (
                "contacts >= 1",
                "expected `sum|max|min(<column>)`, got `contacts`",
            ),
            (
                "sum(contacts >= 1",
                "expected `sum|max|min(<column>)`, got `sum(contacts`",
            ),
        ] {
            let e = expr.parse::<RunAssert>().unwrap_err();
            assert!(e.starts_with(&format!("`{expr}`: ")), "{e}");
            assert!(e.contains(token), "{expr}: {e}");
        }
        for (expr, token) in [
            ("cache_hit >= 1", "unknown farm counter `cache_hit`"),
            ("sum(contacts) >= 1", "unknown farm counter `sum(contacts)`"),
            ("resumed ≥ 1", "unknown operator `≥`"),
            ("resumed >= 1.5.", "`1.5.` is not a finite number"),
        ] {
            let e = expr.parse::<FarmAssert>().unwrap_err();
            assert!(e.contains(token), "{expr}: {e}");
        }
    }
}
