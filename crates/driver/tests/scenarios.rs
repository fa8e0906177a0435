//! Registry ↔ `scenarios/` round trip: every registered scenario ships a
//! sample TOML, and every scenario TOML names a registered scenario — so
//! the CLI's `--config` examples can never drift out of the registry, and
//! a new scenario cannot land without a runnable config.

use driver::{registry, Doc, Manifest};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// TOML files in `scenarios/` that are deliberately not named after one
/// registry scenario (multi-section configs for other harnesses).
const NON_SCENARIO_CONFIGS: &[&str] = &["physiology"];

#[test]
fn every_non_scenario_exception_exists() {
    for stem in NON_SCENARIO_CONFIGS {
        let path = scenarios_dir().join(format!("{stem}.toml"));
        assert!(
            path.is_file(),
            "NON_SCENARIO_CONFIGS lists `{stem}`, but {} does not exist",
            path.display()
        );
    }
}

#[test]
fn every_registry_scenario_has_a_parseable_toml() {
    for spec in registry() {
        let path = scenarios_dir().join(format!("{}.toml", spec.name));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "scenario `{}` has no sample config {}: {e}",
                spec.name,
                path.display()
            )
        });
        let doc =
            Doc::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            doc.get(spec.name, "order").is_some() || doc.get(spec.name, "dt").is_some(),
            "{} has no [{}] section with keys",
            path.display(),
            spec.name
        );
    }
}

#[test]
fn every_scenario_toml_names_a_registry_scenario() {
    let registered: BTreeSet<&str> = registry().iter().map(|s| s.name).collect();
    let mut seen_any = false;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ must exist") {
        let path = entry.expect("read_dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        seen_any = true;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 file name")
            .to_string();
        // every config must parse, scenario-named or not
        let text = std::fs::read_to_string(&path).expect("readable config");
        let doc =
            Doc::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        if NON_SCENARIO_CONFIGS.contains(&stem.as_str()) {
            continue;
        }
        // farm manifests validate through their own parser (which checks
        // every job's scenario against the registry) instead of by name
        if doc.get("farm", "jobs").is_some() {
            Manifest::from_doc(&doc)
                .unwrap_or_else(|e| panic!("{} is not a valid farm manifest: {e}", path.display()));
            continue;
        }
        assert!(
            registered.contains(stem.as_str()),
            "{} does not name a registry scenario (known: {:?})",
            path.display(),
            registered
        );
    }
    assert!(seen_any, "scenarios/ contains no TOML files");
}
