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
/// default shows here as a digest change.
const BUILD_DIGESTS: &[(&str, u64, u64)] = &[
    ("shear_pair", 0x632ff5b89bf91da8, 0x632ff5b89bf91da8),
    ("sedimentation", 0xfa45825ad38a2bd4, 0xfa45825ad38a2bd4),
    ("vessel_flow", 0x1587798e48366b60, 0x1587798e48366b60),
    ("dense_fill", 0xd2c6f5b2b1785073, 0xd2c6f5b2b1785073),
    ("dense_fill_packed", 0x25f3c7235aa61fe5, 0x25f3c7235aa61fe5),
    ("poiseuille_train", 0xf3334e5be263e3e7, 0xf3334e5be263e3e7),
    ("random_suspension", 0xc6f3be60e60cef61, 0xc6f3be60e60cef61),
    ("bifurcation", 0xf73dfbd77c3a3ae5, 0xf73dfbd77c3a3ae5),
    ("vessel_ladder", 0xf58a7761151e8241, 0xf58a7761151e8241),
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
/// unjittered lattice, a gravity array and the FMM wall backend.
const BRANCH_DIGESTS: &[(&str, &str, u64)] = &[
    ("fill_packed", "sedimentation", 0xe159fbe25da84686),
    ("wall_refine", "poiseuille_train", 0xc4b7309f69669db9),
    ("sphere", "vessel_ladder", 0xcc1418de21c523ea),
    ("jitter_0", "random_suspension", 0xe9792a4d9e11e637),
    ("jitter_0", "dense_fill_packed", 0x1e76b2c987c54e25),
    ("gravity", "sedimentation", 0xa0b1ae1cc27fb1f3),
    ("fmm", "poiseuille_train", 0xf22f36928642efe3),
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
    let g = [0.5, 0.0, -2.0].map(Value::Float).to_vec();
    cfg.set("sedimentation", "gravity", Value::Array(g));
    cases.push(("gravity", "sedimentation", cfg));
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
