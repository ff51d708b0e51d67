//! Sets of runs and their comparison: `set` repeats every workload on
//! several seeds (each run in a fresh child process, so `peak_rss_mb`
//! is the workload's own) and writes one result file; `compare` judges
//! two such files against the bounds; `manifest` renders
//! `BENCHMARK.json` from the metric and workload tables.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{quartiles, spread};
use crate::workloads::{Workload, WORKLOADS};
use crate::Args;

/// The command `BENCHMARK.json` records; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Seeds of a set's runs: the default seed, then steps far enough apart
/// that runs whose ops use `seed + i` never share an op.
const SEED_STEP: u64 = 1_000;

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str((*s).into())).collect());
    let workloads = WORKLOADS.iter().map(|w| {
        Json::obj([
            ("name", Json::Str(w.name.into())),
            ("why", Json::Str(w.why.into())),
        ])
    });
    let metric = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::Str(name.into())),
            ("unit", Json::Str(unit.into())),
            ("better", Json::Str(better.name().into())),
        ]
    };
    let end_to_end = END_TO_END.iter().map(|&(name, unit, better, bound)| {
        let mut m = metric(name, unit, better);
        m.push(("bound", Json::Num(bound)));
        Json::obj(m)
    });
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| Json::obj(metric(name, unit, better)));
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads.collect())),
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}

/// Runs of a full set per workload, each on a seed of its own; a quick
/// set makes one.
const SET_RUNS: u64 = 10;

/// Runs this binary once in a child process, for `RUN_SECONDS`, and
/// parses the result line.
fn child_run(w: &Workload, seed: u64, trace: bool, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout.lines().last().map(Json::parse);
    match parsed {
        Some(Ok(result)) if output.status.success() => Ok(result),
        _ => Err(format!(
            "run of {} on seed {seed} gave no result:\n{}",
            w.name,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn summary(unit: &str, values: &[f64]) -> Json {
    let (q1, median, q3) = quartiles(values);
    Json::obj([
        ("unit", Json::Str(unit.into())),
        ("median", Json::Num(median)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("spread", Json::Num(spread(values))),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// `benchmark set`: every workload (or `--workload` alone), ten
/// untraced runs on ten seeds plus one traced run on the first, written
/// to `--out`. Run count and run length are the benchmark's, not the
/// caller's: two sets are comparable only if they were taken alike.
pub fn set(args: &Args, package: &Path) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let runs = if quick { 1 } else { SET_RUNS };
    let default_out = package.join("out").join("set.json");
    let out = args.value("--out").map_or(default_out, Into::into);
    let only = args.value("--workload");
    if only.is_some_and(|name| crate::workloads::find(name).is_none()) {
        return Err(crate::usage());
    }
    let mut all_correct = true;
    let mut sections = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let seeds: Vec<u64> = (0..runs).map(|j| w.seed + j * SEED_STEP).collect();
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed, mut correct) = (0.0, 0.0, true);
        let mut tally = |result: &Json| {
            attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
            correct &= result.get("correct") == Some(&Json::Bool(true));
        };
        let metric_of = |result: &Json, name: &str| {
            let m = result.get("metrics").and_then(|m| m.get(name));
            m.and_then(|m| m.get("value")).and_then(Json::num)
        };
        // The quick set is the traced pass alone: it exercises the
        // untraced path, the traced path and every probe in one run.
        for &seed in seeds.iter().filter(|_| !quick) {
            let result = child_run(w, seed, false, quick)?;
            tally(&result);
            for (slot, (name, ..)) in values.iter_mut().zip(END_TO_END) {
                let v = metric_of(&result, name);
                slot.push(v.ok_or_else(|| format!("{}: run reported no {name}", w.name))?);
            }
            eprintln!(
                "{} seed {seed}: op_s {:?} msgs_per_op {:?}",
                w.name,
                metric_of(&result, "op_s"),
                metric_of(&result, "msgs_per_op")
            );
        }
        let traced = child_run(w, seeds[0], true, quick)?;
        tally(&traced);
        eprintln!("{} seed {}: traced pass done", w.name, seeds[0]);
        all_correct &= correct;
        let end_to_end = END_TO_END
            .iter()
            .zip(&values)
            .filter(|(_, v)| !v.is_empty())
            .map(|((name, unit, ..), v)| (*name, summary(unit, v)));
        let per_layer = PER_LAYER.iter().map(|(name, unit, _)| {
            let entry = [
                ("unit", Json::Str((*unit).into())),
                ("value", Json::Num(metric_of(&traced, name).unwrap_or(0.0))),
            ];
            (*name, Json::obj(entry))
        });
        let section = Json::obj([
            (
                "seeds",
                Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("correct", Json::Bool(correct)),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
        ]);
        sections.push((w.name, section));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let file = Json::obj([
        ("schema", Json::Str("sba-benchmark-set-v1".into())),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(RUN_SECONDS as f64)),
        ("quick", Json::Bool(quick)),
        ("available_parallelism", Json::Num(cores as f64)),
        ("workloads", Json::obj(sections)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{file:#}\n"))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one op failed or one cross-check did not hold");
        ExitCode::FAILURE
    })
}

/// The verdict on one workload × metric row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's and both spreads are
    /// inside the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A run-to-run spread is wider than the bound: the data cannot
    /// tell "unchanged" from "changed".
    Unresolved,
}

/// Judges B's samples against A's.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (_, ma, _) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let worse = match better {
        Better::Lower => mb > ma * (1.0 + bound),
        Better::Higher => mb < ma * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Refuses two set files that differ in how they were taken: run count,
/// run length and quick mode are fixed by the benchmark and must be the
/// same on both sides of a comparison.
fn taken_alike(a: &Json, b: &Json) -> Result<(), String> {
    for key in ["schema", "runs", "seconds", "quick"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Err(format!(
                "the sets were not taken alike: {key} is {va:?} in A and {vb:?} in B"
            ));
        }
    }
    Ok(())
}

/// `x` to four significant digits (all digits of a large count).
fn sig(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.digits$}")
}

/// `benchmark compare A.json B.json`: one row per workload × end-to-end
/// metric; exits non-zero if any row is `worse`.
pub fn compare(files: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err(crate::usage());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    taken_alike(&a, &b)?;
    let values = |file: &Json, workload: &str, metric: &str| -> Option<Vec<f64>> {
        let m = file
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?;
        let v: Vec<f64> = m
            .get("values")?
            .items()
            .iter()
            .filter_map(Json::num)
            .collect();
        (!v.is_empty()).then_some(v)
    };
    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | B/A (base A) | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for w in &WORKLOADS {
        for &(name, unit, better, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, name), values(&b, w.name, name)) else {
                continue;
            };
            let verdict = judge(better, bound, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            println!(
                "| {} | {name} ({unit}, {} is better) | {} [{}, {}] | {} [{}, {}] | {:.4} (base {}) | {bound} | {} |",
                w.name,
                better.name(),
                sig(a2),
                sig(a1),
                sig(a3),
                sig(b2),
                sig(b1),
                sig(b3),
                b2 / a2,
                sig(a2),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{valid_name, valid_unit};

    #[test]
    fn checked_in_manifest_equals_the_tables() {
        let path = crate::package_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10, "BENCHMARK.json exceeds 64 KiB");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(file, manifest(), "regenerate with `benchmark manifest`");
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let m = manifest();
        let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
        let expected = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        assert_eq!(keys, expected);
        let command = m.get("command").unwrap().items();
        assert!(command.len() <= 32);
        for part in command {
            let part = part.str().unwrap();
            assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        }
        let workloads = m.get("workloads").unwrap().items();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert!(valid_name(w.get("name").unwrap().str().unwrap()));
            let why = w.get("why").unwrap().str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in m.get("end_to_end").unwrap().items() {
            assert!(valid_unit(m.get("unit").unwrap().str().unwrap()));
            assert!(m.get("bound").unwrap().num().unwrap() <= 0.25);
        }
    }

    #[test]
    fn compare_refuses_sets_taken_differently() {
        let set = |runs: f64, seconds: f64, quick: bool| {
            Json::obj([
                ("schema", Json::Str("sba-benchmark-set-v1".into())),
                ("runs", Json::Num(runs)),
                ("seconds", Json::Num(seconds)),
                ("quick", Json::Bool(quick)),
            ])
        };
        let full = set(10.0, RUN_SECONDS as f64, false);
        assert!(taken_alike(&full, &full).is_ok());
        assert!(taken_alike(&full, &set(5.0, RUN_SECONDS as f64, false)).is_err());
        assert!(taken_alike(&full, &set(10.0, 3.0, false)).is_err());
        assert!(taken_alike(&full, &set(1.0, RUN_SECONDS as f64, true)).is_err());
        // A file that does not say how it was taken is refused too.
        assert!(taken_alike(&Json::Null, &Json::Null).is_err());
    }

    #[test]
    fn sig_keeps_four_significant_digits() {
        assert_eq!(sig(8_006_852.0), "8006852");
        assert_eq!(sig(4.404_847), "4.405");
        assert_eq!(sig(0.000_006_463_5), "0.000006464");
        assert_eq!(sig(53.406_25), "53.41");
        assert_eq!(sig(0.0), "0");
    }

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.5).collect();
        let noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 1.0, 0.9, 1.1];
        assert_eq!(judge(Better::Lower, 0.1, &steady, &steady), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.1, &steady, &slower), Verdict::Worse);
        assert_eq!(judge(Better::Lower, 0.1, &steady, &faster), Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.1, &steady, &faster), Verdict::Worse);
        assert_eq!(judge(Better::Higher, 0.1, &steady, &slower), Verdict::Ok);
        assert_eq!(
            judge(Better::Lower, 0.1, &steady, &noisy),
            Verdict::Unresolved
        );
    }
}
