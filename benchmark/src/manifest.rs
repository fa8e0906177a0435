//! `BENCHMARK.json`, the one place that declares the workloads and every
//! metric (name, unit, direction, bound). The benchmark reads it instead of
//! keeping a second table: a value emitted under an undeclared name, or a
//! declared metric left out, is an error.

use crate::json::Json;
use std::path::Path;

/// The benchmark package's directory (fixed at build time: the program runs
/// in the checkout it was built in).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The naming rule for workloads and metrics: starts with a letter or
/// digit, then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let path = package_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let root = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            root.get(key)
                .ok_or(format!("missing `{key}`"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("{key}: entry without `{f}`"))
                    };
                    let higher_is_better = match field("better")? {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("{key}: better = `{other}`")),
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads: Vec<String> = root
            .get("workloads")
            .ok_or("missing `workloads`")?
            .as_arr()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("workload without `name`")
            })
            .collect::<Result<_, _>>()?;
        let manifest = Manifest {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing `run_seconds`")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let mut names: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
        names.extend(
            manifest
                .end_to_end
                .iter()
                .chain(&manifest.per_layer)
                .map(|m| m.name.as_str()),
        );
        for (i, name) in names.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("invalid name `{name}`"));
            }
            if names[..i].contains(name) {
                return Err(format!("name `{name}` is used twice"));
            }
        }
        if let Some(m) = manifest.end_to_end.iter().find(|m| m.bound.is_none()) {
            return Err(format!("end-to-end metric `{}` has no bound", m.name));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in ["a", "sim.col_s", "4x-y_z.9", &"a".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".a", "_a", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn committed_manifest_is_well_formed() {
        let m = Manifest::load().unwrap();
        assert_eq!(m.workloads.len(), 4);
        assert_eq!(m.end_to_end.len(), 4);
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        assert!(m
            .end_to_end
            .iter()
            .all(|e| e.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(m.run_seconds >= 1.0 && m.run_seconds <= 60.0 && m.run_seconds.fract() == 0.0);
        // every workload has its config
        for w in &m.workloads {
            assert!(
                package_dir()
                    .join("workloads")
                    .join(format!("{w}.toml"))
                    .is_file(),
                "{w}"
            );
        }
    }

    /// This package is not a member of the root workspace, so it carries a
    /// copy of the root's release profile; the benchmark must time the code
    /// generation users run.
    #[test]
    fn release_profile_is_the_root_workspaces() {
        let profile = |manifest: &str| -> Vec<String> {
            let path = package_dir().join(manifest);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .map(|l| l.split_whitespace().collect())
                .collect()
        };
        let own = profile("Cargo.toml");
        assert!(!own.is_empty());
        assert_eq!(own, profile("../Cargo.toml"));
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let base = |name: &str| {
            format!(
                r#"{{"run_seconds": 5, "workloads": [{{"name": "w", "why": ""}}],
                "end_to_end": [{{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}}],
                "per_layer": [{{"name": "{name}", "unit": "s", "better": "lower"}}]}}"#
            )
        };
        assert!(Manifest::parse(&base("sim.col_s")).is_ok());
        assert!(Manifest::parse(&base("setup_s"))
            .unwrap_err()
            .contains("twice"));
        assert!(Manifest::parse(&base("bad name"))
            .unwrap_err()
            .contains("invalid"));
    }
}
