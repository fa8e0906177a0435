//! Workload configs: `workloads/<name>.toml`, turned into the program's
//! inputs by the run's `--seed`.
//!
//! A session workload names its registry scenario in `[workload]` and keeps
//! the scenario keys in the section of that name; the farm workload is a
//! `driver::Manifest` document whose job sections play the same role. The
//! program under test only ever sees the generated config.
//!
//! `[perturb]` is how the seed enters: for every target section (the
//! scenario section, or each farm job in manifest order) and every key of
//! `[perturb]` that the section also has, one draw `u ∈ [-1, 1)` of a
//! SplitMix64 stream seeded with `--seed` turns a float `v` into
//! `v · (1 + amplitude · u)` and replaces an integer (an RNG seed key) by a
//! fresh 31-bit draw. The amplitudes are small on purpose: the inputs differ
//! from seed to seed, the amount of work does not, which is what keeps the
//! end-to-end metrics comparable across seeds.
//!
//! `[smoke]` overrides same-named keys of the target sections with tiny
//! sizes for the `--smoke` path.

use crate::manifest::package_dir;
use driver::{Doc, Value};

/// SplitMix64 (the benchmark's own stream, so its inputs do not depend on
/// the repo's RNG stand-in).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Whether the document is the farm workload (a job manifest) rather than a
/// single-session scenario config.
pub fn is_farm(doc: &Doc) -> bool {
    doc.get("farm", "jobs").is_some()
}

/// The sections the seed and the smoke overrides act on.
fn target_sections(doc: &Doc) -> Vec<String> {
    match doc.get("farm", "jobs") {
        Some(Value::Array(jobs)) => jobs
            .iter()
            .filter_map(|j| match j {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => vec![doc.str_or("workload", "scenario", "").to_string()],
    }
}

/// Applies `[smoke]` (when asked) and then the seeded `[perturb]` draws.
pub fn apply_seed(doc: &mut Doc, seed: u64, smoke: bool) {
    let sections = target_sections(doc);
    if smoke {
        for key in owned_keys(doc, "smoke") {
            let value = doc
                .get("smoke", &key)
                .cloned()
                .expect("key was just listed");
            for sec in &sections {
                if doc.get(sec, &key).is_some() {
                    doc.set(sec, &key, value.clone());
                }
            }
        }
    }
    let mut rng = SplitMix64(seed);
    let perturb = owned_keys(doc, "perturb");
    for sec in &sections {
        for key in &perturb {
            let amplitude = doc.f64_or("perturb", key, 0.0);
            let new = match doc.get(sec, key) {
                Some(Value::Float(v)) => Value::Float(v * (1.0 + amplitude * rng.unit())),
                Some(Value::Int(_)) => Value::Int((rng.next_u64() >> 33) as i64),
                _ => continue,
            };
            doc.set(sec, key, new);
        }
    }
}

fn owned_keys(doc: &Doc, section: &str) -> Vec<String> {
    doc.keys(section).into_iter().map(str::to_string).collect()
}

/// Loads `workloads/<name>.toml` and generates the inputs for `seed`.
pub fn load(name: &str, seed: u64, smoke: bool) -> Result<Doc, String> {
    let path = package_dir().join("workloads").join(format!("{name}.toml"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut doc = Doc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    apply_seed(&mut doc, seed, smoke);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SESSION: &str = "[workload]\nscenario = \"random_suspension\"\n[perturb]\nspacing = 0.01\nseed = 1\nabsent = 0.5\n\
        [smoke]\nn_side = 2\n[random_suspension]\nspacing = 2.0\nseed = 7\nn_side = 4\norder = 8\n";

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let gen = |seed| {
            let mut d = Doc::parse(SESSION).unwrap();
            apply_seed(&mut d, seed, false);
            (
                d.f64_or("random_suspension", "spacing", 0.0),
                d.usize_or("random_suspension", "seed", 0),
            )
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
        let (spacing, rng_seed) = gen(5);
        assert!((spacing - 2.0).abs() <= 0.02 && spacing != 2.0, "{spacing}");
        assert_ne!(rng_seed, 7);
    }

    #[test]
    fn untouched_keys_and_smoke_overrides() {
        let mut d = Doc::parse(SESSION).unwrap();
        apply_seed(&mut d, 3, true);
        assert_eq!(d.usize_or("random_suspension", "n_side", 0), 2);
        assert_eq!(d.usize_or("random_suspension", "order", 0), 8);
        assert!(d.get("random_suspension", "absent").is_none());
        let mut d = Doc::parse(SESSION).unwrap();
        apply_seed(&mut d, 3, false);
        assert_eq!(d.usize_or("random_suspension", "n_side", 0), 4);
    }

    #[test]
    fn farm_jobs_draw_independently() {
        let text = "[farm]\njobs = [\"a\", \"b\"]\n[perturb]\ndt = 0.1\n[a]\nscenario = \"shear_pair\"\ndt = 1.0\n\
            [b]\nscenario = \"shear_pair\"\ndt = 1.0\n";
        let mut d = Doc::parse(text).unwrap();
        assert!(is_farm(&d));
        apply_seed(&mut d, 1, false);
        let (a, b) = (d.f64_or("a", "dt", 0.0), d.f64_or("b", "dt", 0.0));
        assert!(a != b && a != 1.0 && b != 1.0, "{a} {b}");
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = SplitMix64(42);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((-1.0..1.0).contains(&u), "{u}");
        }
    }
}
