//! What a run prints and writes: the `workload metric value unit` lines,
//! the result file `--compare` reads back, and the result line (the last
//! line of standard output).

use crate::json::Json;
use crate::manifest::{Manifest, Metric};
use crate::run::{Outcome, RunArgs};
use std::path::{Path, PathBuf};

/// A finished run, as stored in (and read back from) its result file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub samples: usize,
    /// Hex FNV-1a digest of the checked end state.
    pub digest: String,
    pub ref_dev: f64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, String)>,
    pub counts: Vec<(String, f64)>,
}

pub fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

impl RunRecord {
    /// Attaches the declared unit to every emitted value; a value under a
    /// name `BENCHMARK.json` does not declare, or emitted twice, is an error.
    pub fn new(args: &RunArgs, manifest: &Manifest, out: &Outcome) -> Result<RunRecord, String> {
        let declared: Vec<&Metric> = manifest
            .end_to_end
            .iter()
            .chain(&manifest.per_layer)
            .collect();
        let mut metrics: Vec<(String, f64, String)> = Vec::new();
        for &(name, value) in &out.metrics.0 {
            let unit = declared
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.unit.clone())
                .ok_or(format!("metric `{name}` is not declared in BENCHMARK.json"))?;
            if metrics.iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric `{name}` emitted twice"));
            }
            metrics.push((name.to_string(), value, unit));
        }
        Ok(RunRecord {
            workload: args.workload.clone(),
            seed: args.seed,
            traced: args.trace,
            correct: out.failed == 0,
            attempted: out.attempted,
            failed: out.failed,
            failures: out.failures.clone(),
            samples: out.samples,
            digest: format!("{:016x}", out.digest),
            ref_dev: out.ref_dev,
            metrics,
            counts: out
                .counts
                .0
                .iter()
                .map(|&(n, v)| (n.to_string(), v))
                .collect(),
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn metrics_json<'a>(metrics: impl Iterator<Item = &'a (String, f64, String)>) -> Json {
        Json::Obj(
            metrics
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(u.as_str()))]),
                    )
                })
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("samples", Json::Num(self.samples as f64)),
            ("digest", Json::str(self.digest.as_str())),
            ("ref_dev", Json::Num(self.ref_dev)),
            ("metrics", RunRecord::metrics_json(self.metrics.iter())),
            (
                "counts",
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<RunRecord, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("result file: no number `{k}`"))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("result file: no string `{k}`"))
        };
        let flag = |k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("result file: no flag `{k}`")),
        };
        let metrics = j
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .map(|(name, m)| {
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("metric `{name}` without unit"))?;
                // a non-finite value was written as null
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                Ok((name.clone(), value, unit.to_string()))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunRecord {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            failures: j
                .get("failures")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            samples: num("samples")? as usize,
            digest: text("digest")?,
            ref_dev: j.get("ref_dev").and_then(Json::as_f64).unwrap_or(f64::NAN),
            metrics,
            counts: j
                .get("counts")
                .map(Json::as_obj)
                .unwrap_or_default()
                .iter()
                .map(|(n, v)| (n.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
        })
    }

    pub fn load(path: &Path) -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text)
            .and_then(|j| RunRecord::from_json(&j))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The `workload metric value unit` lines.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let w = &self.workload;
        for (name, value, unit) in &self.metrics {
            s.push_str(&format!("{w} {name} {value} {unit}\n"));
        }
        s.push_str(&format!(
            "{w} ops {} count\n{w} failed_ops {} count\n",
            self.attempted, self.failed
        ));
        s.push_str(&format!("{w} step_s_p50.samples {} count\n", self.samples));
        s.push_str(&format!(
            "{w} ref_dev {} cell_radii\n{w} state_digest {} fnv1a64\n",
            self.ref_dev, self.digest
        ));
        for f in &self.failures {
            s.push_str(&format!("{w} FAILED {f}\n"));
        }
        s
    }

    /// The result line: every end-to-end metric of an untraced run, every
    /// per-layer metric of a traced one. A declared metric the run did not
    /// emit is an error.
    pub fn result_line(&self, manifest: &Manifest) -> Result<String, String> {
        let wanted = if self.traced {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        let picked: Vec<&(String, f64, String)> = wanted
            .iter()
            .map(|m| {
                self.metrics
                    .iter()
                    .find(|(n, _, _)| *n == m.name)
                    .ok_or(format!(
                        "{}: declared metric `{}` was not emitted",
                        self.workload, m.name
                    ))
            })
            .collect::<Result<_, _>>()?;
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", RunRecord::metrics_json(picked.into_iter())),
        ])
        .render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn record() -> RunRecord {
        RunRecord {
            workload: "train_retry".into(),
            seed: 7,
            traced: false,
            correct: false,
            attempted: 33,
            failed: 1,
            failures: vec!["step 4: 2 frozen cells".into()],
            samples: 17,
            digest: "00ff00ff00ff00ff".into(),
            ref_dev: 1.25e-7,
            metrics: vec![
                ("setup_s".into(), 3.217_000_000_000_000_4, "s".into()),
                ("steps_per_s".into(), 0.8, "steps/s".into()),
            ],
            counts: vec![("sim.attempts".into(), 12.0)],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = record();
        let text = r.to_json().render();
        assert_eq!(
            RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap(),
            r,
            "{text}"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let manifest = Manifest::parse(
            r#"{"run_seconds": 5, "workloads": [{"name": "train_retry", "why": ""}],
            "end_to_end": [{"name": "steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.1},
                           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "sim.col_s", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap();
        let line = Json::parse(&record().result_line(&manifest).unwrap()).unwrap();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            ["steps_per_s", "setup_s"],
            "declared order, nothing else"
        );
        let traced = RunRecord {
            traced: true,
            ..record()
        };
        assert!(traced
            .result_line(&manifest)
            .unwrap_err()
            .contains("sim.col_s"));
    }
}
