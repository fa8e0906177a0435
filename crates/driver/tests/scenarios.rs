//! Registry ↔ `scenarios/` round trip: every registered scenario ships a
//! sample TOML, and every scenario TOML names a registered scenario — so
//! the CLI's `--config` examples can never drift out of the registry, and
//! a new scenario cannot land without a runnable config.

use driver::{registry, Doc, Manifest, Value};
use sim::Checkpoint;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
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

/// Digest of a freshly built scenario: FNV-1a over its checkpoint bytes
/// (cells, step configuration, vessel digest), then the recycle flag, the
/// thread count (not serialized in a checkpoint) and the wall patch count.
fn build_digest(name: &str, cfg: &Doc) -> u64 {
    let built = driver::build(name, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut bytes = Checkpoint::capture(&built.sim, name).to_bytes();
    bytes.push(u8::from(built.recycle));
    bytes.extend((built.sim.config.threads as u64).to_le_bytes());
    let patches = built
        .sim
        .vessel
        .as_ref()
        .map_or(0, |v| v.solver.surface.num_patches());
    bytes.extend((patches as u64).to_le_bytes());
    linalg::fnv1a64(&bytes)
}

fn sample_config(name: &str) -> Doc {
    let path = scenarios_dir().join(format!("{name}.toml"));
    Doc::parse(&std::fs::read_to_string(&path).expect("readable config")).expect("parses")
}

/// What every scenario builds at its registry defaults and from its sample
/// TOML. Pinned before the builders were rewritten as compositions of
/// shared parts: a change to a builder that moves a float, an RNG draw or a
/// default shows here as a digest change. The digests hash checkpoint
/// bytes, so a checkpoint format change moves every one of them.
const BUILD_DIGESTS: &[(&str, u64, u64)] = &[
    ("shear_pair", 0x6dd006ca1c3381f9, 0x6dd006ca1c3381f9),
    ("sedimentation", 0xd52a9ef7be822b7f, 0xd52a9ef7be822b7f),
    ("vessel_flow", 0xc06f352b4c8be84d, 0xc06f352b4c8be84d),
    ("dense_fill", 0x38f74b5092ab3670, 0x38f74b5092ab3670),
    ("dense_fill_packed", 0xb71941fa39cc2be0, 0xb71941fa39cc2be0),
    ("poiseuille_train", 0x353bf4bb10bee7e6, 0x353bf4bb10bee7e6),
    ("random_suspension", 0xbbad80851d05db2c, 0xbbad80851d05db2c),
    ("bifurcation", 0xe7cca84f3abee428, 0xe7cca84f3abee428),
    ("vessel_ladder", 0x850156f9eb1512b2, 0x850156f9eb1512b2),
];

#[test]
fn scenario_builds_match_pinned_digests() {
    let mut got = Vec::new();
    for spec in registry() {
        let default = build_digest(spec.name, &Doc::default());
        let sample = build_digest(spec.name, &sample_config(spec.name));
        got.push(format!(
            "(\"{}\", {default:#018x}, {sample:#018x}),",
            spec.name
        ));
    }
    let want: Vec<String> = BUILD_DIGESTS
        .iter()
        .map(|(n, d, s)| format!("(\"{n}\", {d:#018x}, {s:#018x}),"))
        .collect();
    assert_eq!(got, want, "build digests moved:\n{}", got.join("\n"));
}

/// Branches the defaults and sample configs do not take, each pinned the
/// same way: the packed fill, a refined small tube, sphere cells, an
/// unjittered lattice and the FMM wall backend.
const BRANCH_DIGESTS: &[(&str, &str, u64)] = &[
    ("fill_packed", "sedimentation", 0x99731c29f46ec091),
    ("wall_refine", "poiseuille_train", 0xb810956f18af075c),
    ("sphere", "vessel_ladder", 0xaf2ab69d9768c4a3),
    ("jitter_0", "random_suspension", 0x2ed0c62bb2dc3f02),
    ("jitter_0", "dense_fill_packed", 0xb42924d97f2d40d4),
    ("fmm", "poiseuille_train", 0x3307f9f7a3da53c2),
];

fn branch_configs() -> Vec<(&'static str, &'static str, Doc)> {
    let small_tube = |sec: &str, cfg: &mut Doc| {
        cfg.set(sec, "order", Value::Int(6));
        cfg.set(sec, "patch_order", Value::Int(6));
        cfg.set(sec, "tube_segments", Value::Int(1));
    };
    let mut cases = Vec::new();
    let mut cfg = Doc::default();
    cfg.set("sedimentation", "fill_packed", Value::Bool(true));
    cases.push(("fill_packed", "sedimentation", cfg));
    let mut cfg = Doc::default();
    small_tube("poiseuille_train", &mut cfg);
    cfg.set("poiseuille_train", "wall_refine", Value::Int(1));
    cases.push(("wall_refine", "poiseuille_train", cfg));
    let mut cfg = Doc::default();
    cfg.set("vessel_ladder", "shape", Value::Str("sphere".into()));
    cases.push(("sphere", "vessel_ladder", cfg));
    let mut cfg = Doc::default();
    cfg.set("random_suspension", "jitter", Value::Float(0.0));
    cases.push(("jitter_0", "random_suspension", cfg));
    let mut cfg = Doc::default();
    cfg.set("dense_fill_packed", "jitter", Value::Int(0));
    cases.push(("jitter_0", "dense_fill_packed", cfg));
    let mut cfg = Doc::default();
    small_tube("poiseuille_train", &mut cfg);
    cfg.set("poiseuille_train", "bie_backend", Value::Str("fmm".into()));
    cases.push(("fmm", "poiseuille_train", cfg));
    cases
}

#[test]
fn scenario_branches_match_pinned_digests() {
    let got: Vec<String> = branch_configs()
        .iter()
        .map(|(case, name, cfg)| {
            format!(
                "(\"{case}\", \"{name}\", {:#018x}),",
                build_digest(name, cfg)
            )
        })
        .collect();
    let want: Vec<String> = BRANCH_DIGESTS
        .iter()
        .map(|(c, n, d)| format!("(\"{c}\", \"{n}\", {d:#018x}),"))
        .collect();
    assert_eq!(got, want, "build digests moved:\n{}", got.join("\n"));
}
