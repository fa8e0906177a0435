//! The repo's benchmark: four workloads over the whole simulation step,
//! four end-to-end metrics, per-layer counts and probes, a traced run, a
//! correctness gate, and a comparison of two result sets. `README.md` in
//! this package has the workloads, the metric tables and how to run a
//! parent/change comparison; `../BENCHMARK.json` declares every name.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//!     one workload in this process; the last line of standard output is
//!     the result object (end-to-end metrics untraced, per-layer traced)
//! benchmark [--seed N] [--seconds S] [--trace] [--smoke] [--bless] [--out DIR]
//!     every workload, each in a child process of its own; exits non-zero
//!     when any operation failed
//! benchmark --compare A B
//! ```

mod check;
mod compare;
mod config;
mod json;
mod manifest;
mod probes;
mod report;
mod run;
mod trace;

use manifest::Manifest;
use report::{result_path, RunRecord};
use run::RunArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    bless: bool,
    setup_only: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: check::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        bless: false,
        setup_only: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be ≥ 0".into());
                }
                cli.seconds = Some(s);
            }
            "--out" => cli.out = Some(PathBuf::from(value("a directory")?)),
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ))
            }
            // `--trace 0|1` as the driver passes it, or the bare flag
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--bless" => cli.bless = true,
            "--setup-only" => cli.setup_only = true,
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see the header of benchmark/src/main.rs)"
                ))
            }
        }
    }
    Ok(cli)
}

/// Default output directory: next to the executable, so it lands inside
/// whatever target directory the build used (always ignored by git).
fn default_out() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.parent().unwrap_or(Path::new(".")).join("benchmark-out"))
}

/// One workload in this process. Returns the record (none for
/// `--setup-only`) after writing its result file and trace.
fn run_one(
    cli: &Cli,
    manifest: &Manifest,
    workload: &str,
    out: &Path,
) -> Result<Option<RunRecord>, String> {
    if !manifest.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload `{workload}`; BENCHMARK.json declares {}",
            manifest.workloads.join(", ")
        ));
    }
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(manifest.run_seconds),
        trace: cli.trace,
        smoke: cli.smoke,
        bless: cli.bless,
        setup_only: cli.setup_only,
        out: out.to_path_buf(),
    };
    let mut tracer = Tracer::new(args.trace);
    let Some(outcome) = tracer.span(workload, |t| run::run(&args, t))? else {
        return Ok(None);
    };
    let record = RunRecord::new(&args, manifest, &outcome)?;
    if args.trace {
        let path = out.join(format!("{workload}.trace.json"));
        std::fs::write(&path, tracer.to_json(workload, args.seed).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let path = result_path(out, workload, args.trace);
    std::fs::write(&path, record.to_json().render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(record))
}

/// Every workload, each in a child process so that process-wide caches and
/// the peak resident set never leak from one workload into the next.
fn run_all(cli: &Cli, manifest: &Manifest, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for workload in &manifest.workloads {
        let mut p50 = [f64::NAN; 2];
        for traced in [false, true] {
            if traced && !cli.trace {
                continue;
            }
            let mut cmd = std::process::Command::new(&exe);
            cmd.args([
                "--workload",
                workload,
                "--seed",
                &cli.seed.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
                "--out",
            ])
            .arg(out);
            if let Some(s) = cli.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            for (flag, on) in [("--smoke", cli.smoke), ("--bless", cli.bless)] {
                if on {
                    cmd.arg(flag);
                }
            }
            // the child prints its own metric lines; its result is read
            // back from the file it wrote
            let status = cmd
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("workload {workload} exited with {status}"));
            }
            let record = RunRecord::load(&result_path(out, workload, traced))?;
            print!("{}", record.table());
            ok &= record.correct;
            p50[usize::from(traced)] = record.value("step_s_p50").unwrap_or(f64::NAN);
        }
        if cli.trace {
            println!("{workload} trace_overhead {} ratio", p50[1] / p50[0]);
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;
    let manifest = Manifest::load()?;
    if let Some((a, b)) = &cli.compare {
        return compare::compare(&manifest, a, b);
    }
    let out = match &cli.out {
        Some(dir) => dir.clone(),
        None => default_out()?,
    };
    match &cli.workload {
        Some(workload) => {
            if let Some(record) = run_one(&cli, &manifest, workload, &out)? {
                print!("{}", record.table());
                println!("{}", record.result_line(&manifest)?);
            }
            // an incorrect run still printed its result (`correct: false`)
            Ok(true)
        }
        None => run_all(&cli, &manifest, &out),
    }
}

/// Pins glibc's mmap threshold at its start value, which turns its
/// adjustment off. Left on, the threshold rises the first time a large
/// block is freed, so whether a later large buffer is carved from the heap
/// or mapped afresh depends on which worker thread freed what first:
/// `train_retry`'s peak resident set came out at 34.3 or 39.6 MB from run to
/// run of one executable. Pinned, it repeats to 2 %, at the price of a
/// `suspension_contact` step that is ~4 % slower (both measured, README).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets an allocator parameter; no thread exists yet
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_the_drivers_value_or_stands_alone() {
        assert!(!cli(&["--trace", "0", "--seed", "3"]).unwrap().trace);
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        let c = cli(&["--trace", "--seed", "3"]).unwrap();
        assert!(c.trace && c.seed == 3);
        assert!(!cli(&[]).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "-1"]).is_err());
        assert!(cli(&["--compare", "a"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    /// The `--smoke` path: every workload at tiny sizes, one timed step (one
    /// farm round), traced. Every declared metric must come out exactly once
    /// per workload — end-to-end and per-layer both — and nothing undeclared.
    #[test]
    fn smoke_emits_every_declared_metric_once_per_workload() {
        let manifest = Manifest::load().unwrap();
        let out = std::env::temp_dir().join(format!("benchmark-smoke-{}", std::process::id()));
        let t0 = std::time::Instant::now();
        for workload in &manifest.workloads {
            let c = Cli {
                smoke: true,
                trace: true,
                ..cli(&[]).unwrap()
            };
            let record = run_one(&c, &manifest, workload, &out).unwrap().unwrap();
            assert!(record.correct, "{workload}: {:?}", record.failures);
            let mut emitted: Vec<&str> =
                record.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let mut declared: Vec<&str> = manifest
                .end_to_end
                .iter()
                .chain(&manifest.per_layer)
                .map(|m| m.name.as_str())
                .collect();
            emitted.sort_unstable();
            declared.sort_unstable();
            assert_eq!(emitted, declared, "{workload}");
            // both result lines assemble (the untraced one from the same values)
            record.result_line(&manifest).unwrap();
            RunRecord {
                traced: false,
                ..record
            }
            .result_line(&manifest)
            .unwrap();
        }
        assert!(
            t0.elapsed().as_secs_f64() < 60.0,
            "smoke took {:?}",
            t0.elapsed()
        );
        std::fs::remove_dir_all(&out).unwrap();
    }
}
