//! The `experiments` binary's command line: a name it does not know is
//! an error, not an empty run.

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
