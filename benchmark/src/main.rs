//! The repo's benchmark: five named workloads, end-to-end metrics from
//! untraced runs, and a per-layer ledger from a traced pass plus layer
//! probes. See `README.md` in this directory and `../BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark set [--quick] [--workload <name>] [--out <file>]
//! benchmark compare <A.json> <B.json>
//! benchmark list | manifest
//! ```

mod json;
mod metrics;
mod probes;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::RunArgs;

/// This package's directory: where `cargo run` says it is, or where it
/// was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// whitespace and comments stripped, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Refuses to measure a program built differently from the repo's own:
/// the two manifests' `[profile.release]` tables must be equal.
fn check_profiles(package: &Path) -> Result<(), String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let ours = release_profile(&read(package.join("Cargo.toml"))?);
    let root = release_profile(&read(package.join("../Cargo.toml"))?);
    if ours.is_empty() || ours != root {
        return Err(format!(
            "[profile.release] differs: benchmark has {ours:?}, the repo has {root:?}"
        ));
    }
    Ok(())
}

/// `--name value` pairs and bare flags.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }

    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

pub fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n  \
         benchmark set [--quick] [--workload <name>] [--out <file>]\n  \
         benchmark compare <A.json> <B.json>\n  benchmark list\n  benchmark manifest\n\
         workloads: {}",
        names.join(", ")
    )
}

fn one_run(args: &Args, package: &Path) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or_else(usage)?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let run_args = RunArgs {
        seed: args.parsed("--seed")?.unwrap_or(w.seed),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(metrics::RUN_SECONDS as f64),
        trace: match args.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, not {v}")),
        },
        quick: args.flag("--quick"),
    };
    let result = run::run(w, &run_args, &package.join("out"));
    for note in &result.notes {
        eprintln!("{name}: {note}");
    }
    for (metric, unit, value) in &result.metrics {
        eprintln!("{name}: {metric} = {value} {unit}");
    }
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let package = package_dir();
    let outcome = check_profiles(&package).and_then(|()| match argv.first().map(String::as_str) {
        Some("set") => report::set(&Args(argv[1..].to_vec()), &package),
        Some("compare") => report::compare(&argv[1..]),
        Some("list") => {
            for w in &workloads::WORKLOADS {
                println!(
                    "{}  (default seed {}, held-out seed {})\n    {}",
                    w.name, w.seed, w.held_out_seed, w.why
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            println!("{:#}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_run(&Args(argv.clone()), &package),
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_extracted_and_normalised() {
        let a = "[package]\nname = \"x\"\n\n# note\n[profile.release]\ndebug = true # why\nlto  =  \"thin\"\ncodegen-units=1\n\n[profile.bench]\ndebug = false\n";
        let b = "[profile.release]\ncodegen-units = 1\nlto = \"thin\"\ndebug=true\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 3);
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\ndebug = true\n")
        );
    }

    #[test]
    fn this_package_builds_the_repo_s_release_profile() {
        check_profiles(&package_dir()).unwrap();
    }
}
