//! The `experiments` binary's command line: a name it does not know is
//! an error, not an empty run; and `compare`'s drift gates, pinned on
//! small snapshot files (exit code plus the `DRIFT` marker per key).

use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

const NAMES: [&str; 15] = [
    "all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14",
    "compare",
];

fn lists_every_name(text: &[u8]) -> bool {
    let text = String::from_utf8_lossy(text);
    let words: Vec<&str> = text.split_whitespace().collect();
    NAMES.iter().all(|name| words.contains(name))
}

#[test]
fn unknown_experiment_exits_2_and_names_the_known_ones() {
    let out = experiments(&["e99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran, nothing is printed");
    assert!(lists_every_name(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("`e99`"));
}

#[test]
fn help_lists_every_experiment_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = experiments(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(lists_every_name(&out.stdout), "{flag}");
    }
}

/// An e9-shaped snapshot merged with an e13 sweep: every key a drift gate
/// reads, each at a round value.
const BASE: [(&str, f64); 6] = [
    ("scc_larger_system.wall_seconds", 2.0),
    ("scc_larger_system.messages", 1000.0),
    ("scc_larger_system.peak_inflight_bytes", 1000.0),
    ("scc_larger_system.deal_bytes", 1000.0),
    ("scc_n31.messages", 1000.0),
    ("scc_n31.bytes", 1000.0),
];

/// Writes `keys` as a flat JSON object (a dotted key parses like the
/// nested form) to a file under the temp dir named after `name`, which
/// each test keeps unique, and returns its path.
fn snapshot(name: &str, keys: &[(&str, f64)]) -> PathBuf {
    let body: Vec<String> = keys.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    let path = std::env::temp_dir().join(format!("sba-compare-{}-{name}.json", std::process::id()));
    std::fs::write(&path, format!("{{{}}}\n", body.join(", "))).expect("write snapshot");
    path
}

/// `compare BASE NEW extra…`, where NEW is `new` written under `name`.
fn compare(name: &str, new: &[(&str, f64)], extra: &[&str]) -> Output {
    let old = snapshot(&format!("{name}-old"), &BASE);
    let new = snapshot(&format!("{name}-new"), new);
    let mut args = vec!["compare", old.to_str().unwrap(), new.to_str().unwrap()];
    args.extend_from_slice(extra);
    let out = experiments(&args);
    std::fs::remove_file(old).ok();
    std::fs::remove_file(new).ok();
    out
}

/// `compare` against BASE with `key` scaled by `ratio`.
fn drift(key: &str, ratio: f64) -> Output {
    let new: Vec<(&str, f64)> = BASE
        .iter()
        .map(|&(k, v)| (k, if k == key { v * ratio } else { v }))
        .collect();
    compare(&format!("{key}-{ratio}"), &new, &[])
}

/// The stdout line `compare` prints for `key`.
fn line_of(out: &Output, key: &str) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with(&format!("{key}:")))
        .unwrap_or_else(|| panic!("no line for {key}:\n{}", show(out)))
        .to_string()
}

fn show(out: &Output) -> String {
    format!(
        "exit {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

fn assert_drifts(key: &str, ratio: f64) {
    let out = drift(key, ratio);
    assert_eq!(out.status.code(), Some(1), "{key} x{ratio}\n{}", show(&out));
    assert!(line_of(&out, key).ends_with("<-- DRIFT"), "{}", show(&out));
}

fn assert_passes(key: &str, ratio: f64) -> String {
    let out = drift(key, ratio);
    assert_eq!(out.status.code(), Some(0), "{key} x{ratio}\n{}", show(&out));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("DRIFT"));
    line_of(&out, key)
}

#[test]
fn compare_passes_identical_snapshots() {
    let out = compare("identical", &BASE, &[]);
    assert_eq!(out.status.code(), Some(0), "{}", show(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("perf gate OK"));
}

#[test]
fn compare_messages_drift_is_two_sided() {
    assert_drifts("scc_larger_system.messages", 1.11);
    assert_drifts("scc_larger_system.messages", 0.89);
}

#[test]
fn compare_peak_inflight_drop_is_an_improvement() {
    let line = assert_passes("scc_larger_system.peak_inflight_bytes", 0.5);
    assert!(line.contains("improvement"), "{line}");
}

#[test]
fn compare_deal_bytes_growth_drifts() {
    assert_drifts("scc_larger_system.deal_bytes", 1.11);
}

#[test]
fn compare_per_n_messages_drift_is_two_sided() {
    assert_drifts("scc_n31.messages", 1.11);
    assert_drifts("scc_n31.messages", 0.89);
}

#[test]
fn compare_per_n_bytes_are_one_sided() {
    assert_drifts("scc_n31.bytes", 1.11);
    let line = assert_passes("scc_n31.bytes", 0.5);
    assert!(line.contains("improvement"), "{line}");
}

#[test]
fn compare_gauge_missing_from_an_e9_snapshot_fails() {
    let new: Vec<(&str, f64)> = BASE
        .into_iter()
        .filter(|&(k, _)| k != "scc_larger_system.peak_inflight_bytes")
        .collect();
    let out = compare("missing-e9", &new, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", show(&out));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("DRIFT GATE: scc_larger_system.peak_inflight_bytes disappeared"),
        "{}",
        show(&out)
    );
}

#[test]
fn compare_gauge_missing_from_an_e13_only_snapshot_passes() {
    let new = [("scc_n31.messages", 1000.0), ("scc_n31.bytes", 1000.0)];
    let out = compare(
        "missing-e13",
        &new,
        &["--key", "scc_n31.messages", "--max-ratio", "1.001"],
    );
    assert_eq!(out.status.code(), Some(0), "{}", show(&out));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("DRIFT"));
    assert!(line_of(&out, "scc_larger_system.deal_bytes").contains("skipped"));
}

#[test]
fn compare_flag_without_a_usable_value_prints_usage_and_exits_2() {
    for extra in [&["--key"][..], &["--max-ratio"], &["--max-ratio", "fast"]] {
        let out = compare("bad-flag", &BASE, extra);
        assert_eq!(out.status.code(), Some(2), "{extra:?}\n{}", show(&out));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: experiments"),
            "{extra:?}\n{}",
            show(&out)
        );
    }
}
