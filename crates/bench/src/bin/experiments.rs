//! The experiment harness: one table per quantitative claim of the
//! paper, plus the perf, scaling, runtime and artifact gates.
//!
//! ```sh
//! cargo run --release -p sba-bench --bin experiments -- all          # quick
//! cargo run --release -p sba-bench --bin experiments -- all --full  # long
//! cargo run --release -p sba-bench --bin experiments -- e3          # one table
//! cargo run --release -p sba-bench --bin experiments -- e9 --full --json BENCH_3.json
//! cargo run --release -p sba-bench --bin experiments -- compare BENCH_2.json BENCH_3.json
//! cargo run --release -p sba-bench --bin experiments -- --help       # the names
//! ```
//!
//! The paper (PODC 2008 theory paper) has no empirical tables or figures;
//! each of `e1`–`e8` validates one of its *quantitative claims* (Theorem 1
//! termination, rounds to decide, the Lemma 4 coin probabilities,
//! polynomial message/bit complexity, the O(n²) shunning bound,
//! Example 1, hiding, and the DMM ablation), named in the banner above
//! each `e<N>_…` function and in the table it prints.
//!
//! `--json PATH` records the perf experiment (E9) as a machine-readable
//! snapshot — the repo's perf trajectory file (`BENCH_<pr>.json`). In
//! `--full` mode E9 additionally times the heavyweight n=7 SCC agreement
//! run (the `scc_larger_system` slow-tier test's workload).
//!
//! `e11` sweeps the scenario zoo: every [`Zoo`](sba::Zoo) scenario's
//! plan — plus the three compound [`ScenarioPlan`](sba::ScenarioPlan)s,
//! which run under the invariant monitor — is run, recorded with its
//! full plan as a JSON artifact under `artifacts/`,
//! and immediately replayed from that artifact — the harness exits
//! nonzero if any replay diverges from its recording (the CI
//! replay-smoke gate). `e14` is the *fork corpus*: every recorded
//! `trial_*.json` artifact is checkpointed at each round boundary,
//! resumed (must reproduce the original tail digest) and forked under
//! fresh seeds; a stalled branch, an unfaithful resume, or a monitor
//! violation fails the run (the CI fork-conformance gate; `--json`
//! writes the conformance table).
//!
//! `e13` is the n-sweep (PR 7's cap lift): the SCC unit workload — one
//! moderated MW-SVSS share session — at n ∈ {7, 16, 31, 64, 128, 256}
//! (`--full`; quick mode stops at 31, and `--ns 7,31,128` picks an
//! explicit set, which is how CI stays inside its budget). With `--json
//! PATH` the per-n gauges are *merged* into the snapshot as
//! `scc_n<N>.{messages,wall_seconds,deal_bytes,...}`, so one file can
//! carry both the e9 trajectory and the scaling curve. `e10 --json
//! PATH` merges the system runtimes' rows the same way, as
//! `runtime_<kind>_<scenario>_n<N>.{wall_seconds,messages,batches,bytes,dropped,dead_links}`.
//!
//! `compare OLD NEW [--key K] [--max-ratio R]` diffs two snapshots and
//! exits nonzero when `K` (default `scc_larger_system.wall_seconds`)
//! regressed by more than `R` (default 1.25 = +25 %) — the CI perf gate.
//! It additionally drift-checks every key named in [`DRIFT_GATES`]:
//! `scc_larger_system.messages` and each `scc_n<N>.messages` by ±10 %,
//! `scc_larger_system.{peak_inflight_bytes,deal_bytes,heap_peak_bytes}`
//! and each `scc_n<N>.bytes` by +10 %.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sba::field::{Field, Gf101, Gf61};
use sba::harness::CoinNet;
use sba::{Cluster, ClusterConfig, CoinMode, OracleCoin, Params, Pid, Role};
use sba_bench::{loglog_slope, split_inputs, JsonSink, Stats};

/// The system allocator, counting live bytes, their peak and the
/// allocations made (a `realloc` is one more: the default moves the
/// block). In the single-threaded simulator, with its fixed-seed
/// hashing, e9's counts are seed-pinned memory gauges.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both calls are forwarded unchanged to `System` under the
// caller's own contract; the counters only observe them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        ALLOCS.fetch_add(1, Relaxed);
        PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The options an experiment may read.
struct Args {
    full: bool,
    json: Option<String>,
    ns: Option<String>,
}

/// An experiment's name and entry point.
type Experiment = (&'static str, fn(&Args));

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 13] = [
    ("e1", |a| e1_termination(a.full)),
    ("e2", |a| e2_rounds(a.full)),
    ("e3", |a| e3_coin_probabilities(a.full)),
    ("e4", |a| e4_complexity(a.full)),
    ("e5", |a| e5_shunning_bound(a.full)),
    ("e6", |_| e6_example1()),
    ("e7", |a| e7_hiding(a.full)),
    ("e8", |a| e8_ablation(a.full)),
    ("e9", |a| e9_perf(a.full, a.json.as_deref())),
    ("e10", |a| e10_threaded(a.full, a.json.as_deref())),
    ("e11", |a| e11_scenario_zoo(a.full, a.json.as_deref())),
    ("e13", |a| {
        e13_nsweep(a.full, a.json.as_deref(), a.ns.as_deref())
    }),
    ("e14", |a| e14_fork_corpus(a.full, a.json.as_deref())),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: experiments [NAME] [--full] [--json FILE] [--ns N,N,...]\n\
         \x20      experiments compare OLD NEW [--key K] [--max-ratio R]\n\
         NAME: all (the default) {}\n",
        names.join(" ")
    )
}

/// A command line the binary cannot run: says why, prints the usage and
/// exits 2.
fn usage_error(why: &str) -> ! {
    eprint!("experiments: {why}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if args.first().map(String::as_str) == Some("compare") {
        compare_snapshots(&args[1..]);
        return;
    }
    let value_of = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).cloned()
    };
    let opts = Args {
        full: args.iter().any(|a| a == "--full"),
        json: value_of("--json"),
        ns: value_of("--ns"),
    };
    let which = args
        .iter()
        .map(String::as_str)
        .find(|&a| {
            !a.starts_with("--") && Some(a) != opts.json.as_deref() && Some(a) != opts.ns.as_deref()
        })
        .unwrap_or("all");
    let selected: Vec<fn(&Args)> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _)| which == "all" || which == name)
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        usage_error(&format!("no experiment named `{which}`"));
    }
    println!(
        "# sba experiments ({} mode)\n",
        if opts.full { "full" } else { "quick" }
    );
    for run in selected {
        run(&opts);
    }
}

// ---------------------------------------------------------------------
// E11 - the scenario zoo: record every scenario, replay from artifact
// ---------------------------------------------------------------------
fn e11_scenario_zoo(full: bool, json_path: Option<&str>) {
    use sba::Zoo;
    use sba_bench::trial::{record, replay_file, Trial};

    println!("## E11 - scenario zoo: record -> artifact -> replay\n");
    println!("Every scenario runs once, is recorded under artifacts/, and is");
    println!("replayed from its artifact; `replay` must be bit-identical (the");
    println!("digest folds every delivered message's timing, route, and kind).\n");
    println!(
        "| scenario | rounds | messages | drops | retrans | held | recoveries | digest | replay |"
    );
    println!(
        "|----------|--------|----------|-------|---------|------|------------|--------|--------|"
    );
    let dir = std::path::Path::new("artifacts");
    let seed = 7u64;
    let mut sink = JsonSink::new();
    sink.put_str("schema", "sba-zoo-v1");
    let mut failed = false;
    let (n, t) = if full { (7, 2) } else { (4, 1) };
    for zoo in Zoo::ALL {
        let trial = Trial::new(zoo.plan(n, t, seed));
        let (path, run) = record(&trial, dir).expect("record artifact");
        let replay = replay_file(&path).expect("artifact replays");
        let r = &run.report;
        let m = &r.metrics;
        assert!(r.terminated, "{} must terminate", zoo.name());
        assert!(r.agreement(), "{} must agree", zoo.name());
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:016x} | {} |",
            zoo.name(),
            r.max_round,
            r.messages,
            m.sched_drops,
            m.sched_retransmits,
            m.sched_held,
            m.recoveries,
            run.digest,
            if replay.ok() { "identical" } else { "DIVERGED" }
        );
        if !replay.ok() {
            for mm in &replay.mismatches {
                eprintln!(
                    "  REPLAY DIVERGENCE {}: {} recorded {} replayed {}",
                    zoo.name(),
                    mm.key,
                    mm.recorded,
                    mm.replayed
                );
            }
            failed = true;
        }
        let k = |s: &str| format!("{}.{s}", zoo.name());
        sink.put_num(&k("rounds"), f64::from(r.max_round));
        sink.put_num(&k("messages"), r.messages as f64);
        sink.put_num(&k("virtual_time"), m.virtual_time as f64);
        sink.put_num(&k("sched_drops"), m.sched_drops as f64);
        sink.put_num(&k("sched_retransmits"), m.sched_retransmits as f64);
        sink.put_num(&k("sched_held"), m.sched_held as f64);
        sink.put_num(&k("recoveries"), m.recoveries as f64);
        sink.put_num(&k("replay_ok"), if replay.ok() { 1.0 } else { 0.0 });
    }

    // The compound fault plans: serialized in full into their artifacts
    // (`plan.*` keys), run under the invariant monitor, and replayed
    // from the artifact like the zoo. Always at the canonical (4, 1) —
    // their trigger constants are calibrated for that size.
    println!("\nCompound fault plans (invariant monitor riding every run):\n");
    println!("| plan | rounds | messages | held | recoveries | violations | digest | replay |");
    println!("|------|--------|----------|------|------------|------------|--------|--------|");
    for plan in sba::ScenarioPlan::compounds(4, 1, seed) {
        let trial = Trial::new(plan);
        let (path, run) = record(&trial, dir).expect("record artifact");
        let replay = replay_file(&path).expect("artifact replays");
        let r = &run.report;
        let m = &r.metrics;
        let (checks, violations) = run.monitor_counts();
        let name = trial.plan.name.clone();
        assert!(r.terminated, "{name} must terminate");
        assert!(r.agreement(), "{name} must agree");
        assert_eq!(
            run.monitor_ok(),
            Some(true),
            "{name} must run violation-free under the monitor"
        );
        println!(
            "| {} | {} | {} | {} | {} | {} | {:016x} | {} |",
            name,
            r.max_round,
            r.messages,
            m.sched_held,
            m.recoveries,
            violations,
            run.digest,
            if replay.ok() { "identical" } else { "DIVERGED" }
        );
        if !replay.ok() {
            for mm in &replay.mismatches {
                eprintln!(
                    "  REPLAY DIVERGENCE {name}: {} recorded {} replayed {}",
                    mm.key, mm.recorded, mm.replayed
                );
            }
            failed = true;
        }
        let k = |s: &str| format!("{name}.{s}");
        sink.put_num(&k("rounds"), f64::from(r.max_round));
        sink.put_num(&k("messages"), r.messages as f64);
        sink.put_num(&k("monitor_checks"), checks as f64);
        sink.put_num(&k("monitor_violations"), violations as f64);
        sink.put_num(&k("replay_ok"), if replay.ok() { 1.0 } else { 0.0 });
    }
    println!("\n(artifacts written to {}/)\n", dir.display());
    if let Some(path) = json_path {
        std::fs::write(path, sink.render()).expect("write json snapshot");
        println!("(wrote {path})\n");
    }
    if failed {
        eprintln!("REPLAY GATE FAILED: a replay diverged from its artifact");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// E14 - fork corpus: every recorded artifact, every round boundary
// ---------------------------------------------------------------------
fn e14_fork_corpus(full: bool, json_path: Option<&str>) {
    use sba_bench::trial::fork_corpus;

    println!("## E14 - fork corpus: every artifact, every round boundary\n");
    println!("Every trial_*.json artifact is rebuilt, checkpointed at each");
    println!("voting-round boundary (quarter-point supplements guarantee at");
    println!("least three branch points), resumed (must reproduce the recorded");
    println!("digest), and forked under fresh seeds — every branch must still");
    println!("decide, with the invariant monitor riding every run.\n");
    println!("| artifact | scenario | boundaries @events | resumes | branches decided | violations | ok |");
    println!("|----------|----------|--------------------|---------|------------------|------------|----|");
    let dir = std::path::Path::new("artifacts");
    let seeds: &[u64] = if full { &[101, 202] } else { &[101] };
    let max_boundaries = if full { 6 } else { 3 };
    let entries = fork_corpus(dir, seeds, max_boundaries).expect("fork corpus runs");
    assert!(
        !entries.is_empty(),
        "no trial_*.json artifacts under {} (run e11 first)",
        dir.display()
    );
    let mut sink = JsonSink::new();
    sink.put_str("schema", "sba-fork-v1");
    let mut failed = false;
    for e in &entries {
        println!(
            "| {} | {} | {:?} | {}/{} | {}/{} | {} | {} |",
            e.artifact,
            e.scenario,
            e.boundaries,
            e.resumes_faithful,
            e.boundaries.len(),
            e.branches_decided,
            e.branches_run,
            e.monitor_violations,
            if e.ok() { "yes" } else { "NO" }
        );
        if !e.ok() {
            eprintln!(
                "FORK CORPUS FAILURE {}: {}/{} resumes faithful, {}/{} branches decided, {} monitor violations",
                e.artifact,
                e.resumes_faithful,
                e.boundaries.len(),
                e.branches_decided,
                e.branches_run,
                e.monitor_violations
            );
            failed = true;
        }
        let k = |s: &str| format!("{}.{s}", e.scenario);
        sink.put_num(&k("boundaries"), e.boundaries.len() as f64);
        sink.put_num(&k("resumes_faithful"), e.resumes_faithful as f64);
        sink.put_num(&k("branches_run"), e.branches_run as f64);
        sink.put_num(&k("branches_decided"), e.branches_decided as f64);
        sink.put_num(&k("monitor_violations"), e.monitor_violations as f64);
        sink.put_num(&k("ok"), if e.ok() { 1.0 } else { 0.0 });
    }
    println!();
    if let Some(path) = json_path {
        std::fs::write(path, sink.render()).expect("write json snapshot");
        println!("(wrote {path})\n");
    }
    if failed {
        eprintln!(
            "FORK CORPUS GATE FAILED: a branch stalled, a resume diverged, or the monitor fired"
        );
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// E13 - n-sweep: the SCC unit workload at n up to MAX_N (scaling curve)
// ---------------------------------------------------------------------

fn e13_nsweep(full: bool, json_path: Option<&str>, ns_arg: Option<&str>) {
    use sba::harness::SvssNet;
    use std::time::Instant;

    println!("## E13 - n-sweep: SCC unit workload up to MAX_N = {}\n", {
        sba::net::MAX_N
    });
    println!("The full SCC agreement is a high-degree polynomial in n (its exact");
    println!("degree is unmeasured until the coin_n<N> curve lands) — infeasible far");
    println!("beyond n = 7 — so the sweep runs the coin's *unit* workload: one");
    println!("moderated MW-SVSS share session (dealer p1, moderator p2, fixed");
    println!("seed) under the batched simulator with a uniform adversary. That is");
    println!("the ~n^3-message building block the coin fans out n^2 times, and it");
    println!("exercises the full RB/DMM/engine stack at each n. Message counts");
    println!("are seed-pinned and machine-independent; `compare` drift-gates each");
    println!("`scc_n<N>.messages` key present in both snapshots.\n");

    // Default sweep: full/BENCH mode covers the whole curve to MAX_N;
    // quick mode (and `all`) stays at toy scale. CI passes an explicit
    // subset via --ns to stay inside the job budget.
    let ns: Vec<usize> = match ns_arg {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("--ns takes n1,n2,..."))
            .collect(),
        None if full => vec![7, 16, 31, 64, 128, 256],
        None => vec![7, 16, 31],
    };

    println!("| n | t | wall s | messages | bytes | mw/deal msgs | mw/deal bytes | peak bytes |");
    println!("|---|---|--------|----------|-------|--------------|---------------|------------|");
    let mut sink_rows: Vec<(usize, Vec<(&'static str, f64)>)> = Vec::new();
    let mut curve: Vec<(f64, f64)> = Vec::new();
    for &n in &ns {
        assert!(
            n as u32 <= sba::net::MAX_N,
            "n = {n} exceeds MAX_N = {}",
            sba::net::MAX_N
        );
        let t = (n - 1) / 3;
        let params = Params::new(n, t).expect("n > 3t");
        let id = sba::net::MwId::standalone(1, Pid::new(1), Pid::new(2));
        let secret = Gf61::from_u64(7);
        let mut net = SvssNet::<Gf61>::new(params, 15);
        let start = Instant::now();
        net.mw_share(id, secret);
        net.mw_set_moderator_input(id, secret);
        let done = sba::SvssEvent::MwShareCompleted(id);
        let all_done = net.sim_mut().run_until(u64::MAX, |sim| {
            sim.processes().all(|node| node.log().contains(&done))
        });
        let wall = start.elapsed().as_secs_f64();
        assert!(all_done, "n = {n}: MW share must complete at every process");
        let m = net.sim().metrics();
        let (deal_msgs, deal_bytes) = m.sent_with_prefix("mw/deal");
        println!(
            "| {n} | {t} | {wall:.2} | {} | {} | {deal_msgs} | {deal_bytes} | {} |",
            m.messages_sent, m.bytes_sent, m.inflight_peak_bytes
        );
        curve.push((n as f64, m.messages_sent as f64));
        sink_rows.push((
            n,
            vec![
                ("wall_seconds", wall),
                ("messages", m.messages_sent as f64),
                ("bytes", m.bytes_sent as f64),
                ("deal_msgs", deal_msgs as f64),
                ("deal_bytes", deal_bytes as f64),
                ("peak_inflight_bytes", m.inflight_peak_bytes as f64),
            ],
        ));
    }
    if curve.len() >= 2 {
        println!(
            "\nlog-log slope (messages vs n): **{:.2}** — the unit workload is",
            loglog_slope(&curve)
        );
        println!("~cubic (3n RB slots x ~n^2 RB messages), as the paper's per-session");
        println!("complexity accounting predicts.\n");
    } else {
        println!();
    }

    if let Some(path) = json_path {
        let family = |k: &str| {
            k.strip_prefix("scc_n")
                .is_some_and(|rest| rest.bytes().next().is_some_and(|b| b.is_ascii_digit()))
        };
        let rows = sink_rows.iter().flat_map(|(n, row)| {
            row.iter()
                .map(move |(name, v)| (format!("scc_n{n}.{name}"), *v))
        });
        merge_into_snapshot(path, family, rows);
    }
}

/// Merge-on-write: `BENCH_<pr>.json` carries the e9 gauges, the e13
/// sweep and the e10 runtime rows, so an experiment that adds a family
/// of keys re-emits the numeric keys already in `path` (minus the
/// `stale` family it replaces) before appending its own `rows`.
fn merge_into_snapshot(
    path: &str,
    stale: impl Fn(&str) -> bool,
    rows: impl Iterator<Item = (String, f64)>,
) {
    let mut sink = JsonSink::new();
    sink.put_str("schema", "sba-bench-v1");
    if let Ok(prev) = std::fs::read_to_string(path) {
        if prev.contains("\"mode\": \"full\"") {
            sink.put_str("mode", "full");
        } else if prev.contains("\"mode\": \"quick\"") {
            sink.put_str("mode", "quick");
        }
        for (k, v) in sba_bench::parse_snapshot(&prev).expect("existing snapshot parses") {
            if !stale(&k) {
                sink.put_num(&k, v);
            }
        }
    }
    for (k, v) in rows {
        sink.put_num(&k, v);
    }
    std::fs::write(path, sink.render()).expect("write json snapshot");
    println!("(wrote {path})\n");
}

// ---------------------------------------------------------------------
// compare - the CI perf-regression gate over two BENCH_<pr>.json files
// ---------------------------------------------------------------------

/// The drift gates on the deterministic keys, ±10 % (+10 % one-sided).
/// A `*` in the key stands for the `N` of a per-n family. Two-sided keys
/// are seed-pinned counts, so movement either way means the schedule
/// changed. One-sided keys are memory and word-complexity gauges: growth
/// is a bug, while a large drop is a deliberate win that the new snapshot
/// re-baselines (it prints as an improvement). A key absent from the old
/// snapshot is skipped, because older snapshots predate it. Absent from
/// the new one, it fails when the gate is marked "must exist" and the new
/// snapshot is an e9 run. CI's e13-only sweep lacks e9's keys and runs a
/// subset of the n set, so those are skipped.
const DRIFT_GATES: [(&str, bool, bool); 6] = [
    // (key, two-sided, must exist in an e9-shaped new snapshot)
    ("scc_larger_system.messages", true, true),
    ("scc_larger_system.peak_inflight_bytes", false, true),
    ("scc_larger_system.deal_bytes", false, true),
    ("scc_larger_system.heap_peak_bytes", false, true),
    ("scc_n*.messages", true, false),
    ("scc_n*.bytes", false, false),
];

/// Whether `key` is one of the keys `pattern` names in [`DRIFT_GATES`].
fn gate_covers(pattern: &str, key: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == key,
        Some((head, tail)) => key
            .strip_prefix(head)
            .and_then(|rest| rest.strip_suffix(tail))
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())),
    }
}

fn compare_snapshots(args: &[String]) {
    use sba_bench::{check_regression, parse_snapshot};

    let mut paths = Vec::new();
    let mut key = "scc_larger_system.wall_seconds".to_string();
    let mut max_ratio = 1.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--key" => {
                key = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage_error("--key needs a value"));
            }
            "--max-ratio" => {
                max_ratio = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--max-ratio needs a number"));
            }
            _ => paths.push(a.clone()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        usage_error("compare needs exactly two snapshots, OLD and NEW");
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read snapshot {p}: {e}"))
    };
    let old = parse_snapshot(&read(old_path)).expect("old snapshot parses");
    let new = parse_snapshot(&read(new_path)).expect("new snapshot parses");
    let mut failed = false;
    match check_regression(&old, &new, &key, max_ratio) {
        Ok(r) => {
            println!(
                "{}: {} -> {} ({:+.1}% vs limit +{:.0}%)",
                r.key,
                r.old,
                r.new,
                (r.ratio - 1.0) * 100.0,
                (max_ratio - 1.0) * 100.0
            );
            if !r.ok {
                eprintln!("PERF REGRESSION: {old_path} -> {new_path} exceeds the limit");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("perf gate cannot run: {e}");
            std::process::exit(1);
        }
    }
    const DRIFT: f64 = 1.10;
    let new_is_e9 = new.iter().any(|(k, _)| k.starts_with("scc_larger_system."));
    let lookup =
        |snap: &[(String, f64)], k: &str| snap.iter().find(|(kk, _)| kk == k).map(|&(_, v)| v);
    for (pattern, two_sided, must_exist) in DRIFT_GATES {
        for (k, o) in old.iter().filter(|(k, _)| gate_covers(pattern, k)) {
            if *k == key {
                // The caller picked this key as the primary gate with an
                // explicit ratio; don't second-guess it with the ±10 %.
                println!("{k}: drift check skipped (primary gate above)");
                continue;
            }
            let Some(n) = lookup(&new, k) else {
                if must_exist && new_is_e9 {
                    eprintln!("DRIFT GATE: {k} disappeared from the new snapshot");
                    failed = true;
                } else {
                    println!("{k}: skipped (absent from the new snapshot)");
                }
                continue;
            };
            if *o <= 0.0 {
                eprintln!("DRIFT GATE: old value for {k} is not positive ({o})");
                failed = true;
                continue;
            }
            let ratio = n / o;
            let ok = ratio <= DRIFT && (!two_sided || ratio >= 1.0 / DRIFT);
            println!(
                "{k}: {o} -> {n} ({:+.1}% vs {}{:.0}% drift limit){}",
                (ratio - 1.0) * 100.0,
                if two_sided { "±" } else { "+" },
                (DRIFT - 1.0) * 100.0,
                if !ok {
                    "  <-- DRIFT"
                } else if ratio < 1.0 / DRIFT {
                    "  (improvement; re-baselined by this snapshot)"
                } else {
                    ""
                }
            );
            failed |= !ok;
        }
        for (k, _) in new.iter().filter(|(k, _)| gate_covers(pattern, k)) {
            if lookup(&old, k).is_none() {
                println!("{k}: skipped (old snapshot predates this key)");
            }
        }
    }
    if failed {
        eprintln!("PERF GATE FAILED: {old_path} -> {new_path}");
        std::process::exit(1);
    }
    println!("perf gate OK");
}

// ---------------------------------------------------------------------
// E9 - computational primitives + SCC wall time (the perf trajectory)
// ---------------------------------------------------------------------

/// Median ns/op over several timed batches of `op`.
fn time_ns(mut op: impl FnMut()) -> f64 {
    use std::time::Instant;
    // Warm up, then size a batch to ~2ms and take the median of 5 batches.
    op();
    let probe = Instant::now();
    op();
    let once = probe.elapsed().as_nanos().max(1) as f64;
    let batch = ((2_000_000.0 / once) as u64).clamp(1, 2_000_000);
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[2]
}

fn e9_perf(full: bool, json_path: Option<&str>) {
    use sba::field::{Domain, Poly};

    println!("## E9 - computational primitives and SCC wall time\n");
    println!("| op | t | ns/op |");
    println!("|----|---|-------|");
    let mut sink = JsonSink::new();
    sink.put_str("schema", "sba-bench-v1");
    sink.put_str("mode", if full { "full" } else { "quick" });

    let mut rng = StdRng::seed_from_u64(2);
    let domain: Domain<Gf61> = Domain::new(32);
    let mut report = |label: String, ns: f64| {
        let (op, t) = label.rsplit_once("_t").expect("label ends in _t<deg>");
        println!("| {op} | {t} | {ns:.0} |");
        sink.put_num(&format!("microbench_ns.{label}"), ns);
    };
    for t in [1usize, 2, 5, 10, 20] {
        let poly = Poly::random_with_constant(Gf61::from_u64(7), t, &mut rng);
        let idx_pts: Vec<(u64, Gf61)> = (1..=(t as u64 + 1))
            .map(|i| (i, poly.eval_at_index(i)))
            .collect();
        let verify_pts: Vec<(u64, Gf61)> = (1..=(2 * (t as u64 + 1)).min(32))
            .map(|i| (i, poly.eval_at_index(i)))
            .collect();
        report(
            format!("domain_interpolate_t{t}"),
            time_ns(|| {
                std::hint::black_box(domain.interpolate(std::hint::black_box(&idx_pts)).unwrap());
            }),
        );
        report(
            format!("domain_interpolate_at_zero_t{t}"),
            time_ns(|| {
                std::hint::black_box(
                    domain
                        .interpolate_at_zero(std::hint::black_box(&idx_pts))
                        .unwrap(),
                );
            }),
        );
        report(
            format!("domain_batch_verify_t{t}"),
            time_ns(|| {
                std::hint::black_box(
                    domain
                        .interpolate_checked_at_zero(std::hint::black_box(&verify_pts), t)
                        .unwrap(),
                );
            }),
        );
        report(
            format!("poly_eval_t{t}"),
            time_ns(|| {
                std::hint::black_box(std::hint::black_box(&poly).eval(Gf61::from_u64(9)));
            }),
        );
    }

    // The adaptive set codec (PR 9): decode writes straight into the
    // bitmask words. The PR 8-era decoder built an intermediate
    // `Vec<Pid>` per set — one allocation on the hottest decode path,
    // ~22 M times per n = 256 sweep point. `_t<n>` = members decoded.
    {
        use sba::net::{ProcessSet, Reader, Wire};
        let dense: ProcessSet = Pid::all(256).collect();
        let sparse: ProcessSet = (1..=31u32).map(|i| Pid::new(8 * i)).collect();
        for (label, set) in [
            ("set_decode_dense_t256", dense),
            ("set_decode_sparse_t31", sparse),
        ] {
            let bytes = set.encoded();
            report(
                label.to_string(),
                time_ns(|| {
                    let mut r = Reader::new(std::hint::black_box(&bytes));
                    std::hint::black_box(ProcessSet::decode(&mut r).unwrap());
                }),
            );
        }
    }
    println!();

    if full {
        // The scc_larger_system workload: n=7, t=2, split inputs, SCC coin.
        //
        // Seed history: BENCH_2..4 pinned seed 13, whose schedule decided
        // in 1 round (~8.06 M messages) under the PR 4 batched scheduler.
        // PR 5 made the *event* the unit of scheduling (self-delivery
        // generations + one delay-draw pass per event), which re-rolls
        // every seed's schedule; seed 13 now lands on a 2-round run
        // (16.45 M messages, a structurally different workload that the
        // ±10 % message drift gate would rightly refuse to compare). The
        // workload is re-pinned to seed 15, which keeps the 1-round,
        // ~8.05 M-message shape the perf trajectory has tracked since
        // BENCH_4 — within 0.1 % of the old message count. For the
        // record, seed 13's 2-round run measured 9.2 s / 16.45 M msgs
        // (0.56 µs per delivered message) on the machine that produced
        // BENCH_5.
        use std::time::Instant;
        println!("Timing the n=7 SCC agreement run (slow tier's heaviest test)...\n");
        let config = ClusterConfig::new(7, 2).seed(15);
        // Memory as work counters, from `Cluster::new` to decision.
        let (heap_base, allocs_base) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
        PEAK.store(heap_base, Relaxed);
        let mut cluster = Cluster::new(config, &split_inputs(7));
        let start = Instant::now();
        let report = cluster.run(60_000_000);
        let wall = start.elapsed().as_secs_f64();
        let heap_peak = PEAK.load(Relaxed) - heap_base;
        let allocs = ALLOCS.load(Relaxed) - allocs_base;
        assert!(report.terminated, "n=7 SCC run must terminate");
        assert!(report.agreement(), "n=7 SCC run must agree");
        let m = &report.metrics;
        println!("| n | t | wall s | messages | batches | rounds |");
        println!("|---|---|--------|----------|---------|--------|");
        println!(
            "| 7 | 2 | {wall:.1} | {} | {} | {} |\n",
            report.messages, m.batches_sent, report.max_round
        );
        println!(
            "peak in flight: {} messages in {} batches ≈ {:.1} MB queue\n",
            m.inflight_peak_msgs,
            m.inflight_peak_batches,
            m.inflight_peak_bytes as f64 / 1e6
        );
        sink.put_num("scc_larger_system.wall_seconds", wall);
        sink.put_num("scc_larger_system.messages", report.messages as f64);
        sink.put_num("scc_larger_system.batches", m.batches_sent as f64);
        sink.put_num("scc_larger_system.rounds", f64::from(report.max_round));
        sink.put_num(
            "scc_larger_system.peak_inflight_msgs",
            m.inflight_peak_msgs as f64,
        );
        sink.put_num(
            "scc_larger_system.peak_inflight_batches",
            m.inflight_peak_batches as f64,
        );
        sink.put_num(
            "scc_larger_system.peak_inflight_bytes",
            m.inflight_peak_bytes as f64,
        );
        // The MwDeal word-complexity trajectory (PR 5 diet): `mw/deal`
        // is the only multi-kilobyte payload class, so its byte share is
        // tracked (and drift-gated by `compare`) separately.
        let (deal_msgs, deal_bytes) = m.sent_with_prefix("mw/deal");
        println!(
            "mw/deal: {deal_msgs} messages, {deal_bytes} bytes ({:.1} B/deal)\n",
            deal_bytes as f64 / deal_msgs.max(1) as f64
        );
        sink.put_num("scc_larger_system.deal_msgs", deal_msgs as f64);
        sink.put_num("scc_larger_system.deal_bytes", deal_bytes as f64);
        // Vector RB's amortisation, as work counters: the SVSS-stack RB
        // instances the processes started (one per step that broadcast
        // anything) and the slot values those carried. Seed-pinned and
        // hardware-independent, like `messages`.
        let (mut rb_instances, mut rb_members, mut mw_machines, mut coin_sessions) = (0, 0, 0, 0);
        for pid in cluster.honest() {
            let node = cluster.sim().process(pid).node();
            let coin = node.and_then(|n| n.coin()).expect("SCC mode");
            let svss = coin.svss();
            rb_instances += svss.rb_started_instances();
            rb_members += svss.rb_started_members();
            mw_machines += svss.mw_machine_count();
            let (live, _, retired) = coin.session_stats();
            coin_sessions += live + retired;
        }
        println!(
            "SVSS RB: {rb_members} slot values in {rb_instances} instances ({:.1} per instance)\n",
            rb_members as f64 / rb_instances.max(1) as f64
        );
        sink.put_num("scc_larger_system.rb_instances", rb_instances as f64);
        sink.put_num("scc_larger_system.rb_members", rb_members as f64);
        println!(
            "heap: {:.1} MB peak live, {allocs} allocations, {mw_machines} live MW machines, \
             {coin_sessions} coin sessions\n",
            heap_peak as f64 / 1e6
        );
        sink.put_num("scc_larger_system.heap_peak_bytes", heap_peak as f64);
        sink.put_num("scc_larger_system.allocs", allocs as f64);
        sink.put_num("scc_larger_system.mw_machines", mw_machines as f64);
        sink.put_num("scc_larger_system.coin_sessions", coin_sessions as f64);
        sink.put_num(
            "scc_larger_system.self_delivery_batches",
            m.self_delivery_batches as f64,
        );
        // Monitor gauges (0 here — the perf workload runs unmonitored;
        // nonzero only in monitored runs). Deliberately outside every
        // `compare` drift gate: the counters measure the *monitor*, not
        // the protocol.
        let watch = cluster.monitor_report().unwrap_or_default();
        sink.put_num("scc_larger_system.monitor_checks", watch.checks as f64);
        sink.put_num(
            "scc_larger_system.monitor_violations",
            watch.violations_total as f64,
        );
    }

    if let Some(path) = json_path {
        std::fs::write(path, sink.render()).expect("write json snapshot");
        println!("(wrote {path})\n");
    }
}

// ---------------------------------------------------------------------
// E1 - Theorem 1: termination matrix
// ---------------------------------------------------------------------
fn e1_termination(full: bool) {
    println!("## E1 - almost-sure termination, optimal resilience (Theorem 1)\n");
    println!("Fraction of runs in which every honest process decided & halted.\n");
    let seeds: u64 = if full { 10 } else { 4 };
    let systems: &[(usize, usize)] = if full {
        &[(4, 1), (7, 2), (10, 3)]
    } else {
        &[(4, 1), (7, 2)]
    };
    let faults: Vec<(&str, Role)> = vec![
        ("none", Role::Honest),
        ("silent", Role::Silent),
        ("crash@1500", Role::Crash { after: 1500 }),
        ("lying-shares", Role::LyingShares { delta: 5 }),
        ("flipped-votes", Role::FlippedVotes),
    ];
    println!("| n | t | fault | terminated | agreement |");
    println!("|---|---|-------|-----------|-----------|");
    for &(n, t) in systems {
        // Larger systems cost ~10M messages per coin; sample fewer seeds.
        let seeds = if n > 4 && !full { 2 } else { seeds };
        for (label, fault) in &faults {
            let mut terminated = 0;
            let mut agreed = 0;
            for seed in 0..seeds {
                let config = ClusterConfig::new(n, t)
                    .seed(seed * 31 + 7)
                    .fault(Pid::new(n as u32), fault.clone());
                let mut cluster = Cluster::new(config, &split_inputs(n));
                let report = cluster.run(600_000_000);
                if report.terminated {
                    terminated += 1;
                }
                if report.agreement() {
                    agreed += 1;
                }
            }
            println!("| {n} | {t} | {label} | {terminated}/{seeds} | {agreed}/{seeds} |");
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// E2 - rounds to decide, per coin mode
// ---------------------------------------------------------------------
fn e2_rounds(full: bool) {
    println!("## E2 - expected rounds to decide (split inputs)\n");
    println!("The SCC and oracle coins give O(1) expected rounds; the Ben-Or-style");
    println!("local coin needs ~n-t honest coins to collide: expected rounds grow");
    println!("exponentially with n (measured via cheap vote-only rounds).\n");
    println!("| coin | n | runs | mean rounds | p50 | p95 | max |");
    println!("|------|---|------|-------------|-----|-----|-----|");

    // SCC (full protocol, expensive): small n only.
    let scc_systems: &[(usize, usize, u64)] = if full {
        &[(4, 1, 20), (7, 2, 6)]
    } else {
        &[(4, 1, 8), (7, 2, 2)]
    };
    for &(n, t, runs) in scc_systems {
        let mut rounds = Vec::new();
        for seed in 0..runs {
            let config = ClusterConfig::new(n, t).seed(seed * 13 + 1);
            let mut cluster = Cluster::new(config, &split_inputs(n));
            let report = cluster.run(900_000_000);
            assert!(report.terminated, "SCC run must terminate");
            rounds.push(f64::from(report.max_round));
        }
        let s = Stats::of(&rounds);
        println!(
            "| SCC | {n} | {runs} | {:.2} | {} | {} | {} |",
            s.mean, s.p50, s.p95, s.max
        );
    }

    // Oracle and local coins: vote rounds only (cheap), larger n.
    let cheap_systems: &[(usize, usize)] = if full {
        &[(4, 1), (7, 2), (10, 3), (13, 4), (16, 5)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4)]
    };
    let runs: u64 = if full { 60 } else { 25 };
    for (label, mode_of) in [
        (
            "oracle(perfect)",
            Box::new(|seed: u64| CoinMode::Oracle(OracleCoin::new(seed, 0)))
                as Box<dyn Fn(u64) -> CoinMode>,
        ),
        ("local(Ben-Or)", Box::new(|_| CoinMode::Local)),
    ] {
        for &(n, t) in cheap_systems {
            let mut rounds = Vec::new();
            for seed in 0..runs {
                let config = ClusterConfig::new(n, t)
                    .seed(seed * 17 + 3)
                    .mode(mode_of(seed))
                    .max_rounds(4000);
                let mut cluster = Cluster::new(config, &split_inputs(n));
                let report = cluster.run(900_000_000);
                assert!(report.terminated, "{label} n={n} seed={seed} stalled");
                rounds.push(f64::from(report.max_round));
            }
            let s = Stats::of(&rounds);
            println!(
                "| {label} | {n} | {runs} | {:.2} | {} | {} | {} |",
                s.mean, s.p50, s.p95, s.max
            );
        }
    }
    println!();

    // The benign-schedule rounds above converge quickly even for the local
    // coin (majority tie-breaking forms candidates without coin help); the
    // baselines separate sharply once a Byzantine vote-flipper keeps
    // candidate formation contested.
    println!("With one Byzantine vote-flipper (coin rounds forced):\n");
    println!("| coin | n | runs | mean rounds | p50 | p95 | max |");
    println!("|------|---|------|-------------|-----|-----|-----|");
    let adv_systems: &[(usize, usize)] = if full {
        &[(4, 1), (7, 2), (10, 3), (13, 4), (16, 5)]
    } else {
        &[(4, 1), (7, 2), (10, 3), (13, 4)]
    };
    let adv_runs: u64 = if full { 40 } else { 15 };
    for (label, mode_of) in [
        (
            "oracle(perfect)",
            Box::new(|seed: u64| CoinMode::Oracle(OracleCoin::new(seed, 0)))
                as Box<dyn Fn(u64) -> CoinMode>,
        ),
        ("local(Ben-Or)", Box::new(|_| CoinMode::Local)),
    ] {
        for &(n, t) in adv_systems {
            let mut rounds = Vec::new();
            for seed in 0..adv_runs {
                let config = ClusterConfig::new(n, t)
                    .seed(seed * 19 + 7)
                    .mode(mode_of(seed))
                    .max_rounds(4000)
                    .fault(Pid::new(n as u32), Role::FlippedVotes);
                let mut cluster = Cluster::new(config, &split_inputs(n));
                let report = cluster.run(900_000_000);
                assert!(report.terminated, "{label} n={n} seed={seed} stalled");
                rounds.push(f64::from(report.max_round));
            }
            let s = Stats::of(&rounds);
            println!(
                "| {label} | {n} | {adv_runs} | {:.2} | {} | {} | {} |",
                s.mean, s.p50, s.p95, s.max
            );
        }
    }
    println!();

    // epsilon-failing Canetti-Rabin coin: probability of never terminating.
    println!("Canetti-Rabin epsilon-coin baseline: a coin session hangs with");
    println!("probability eps, and with it the whole agreement (the non-almost-sure");
    println!("termination the paper eliminates). Fraction of runs that stalled:\n");
    println!("| eps | runs | stalled |");
    println!("|-----|------|---------|");
    let runs = if full { 40 } else { 20 };
    for eps in [0u32, 200, 500] {
        let mut stalled = 0;
        for seed in 0..runs {
            let config = ClusterConfig::new(4, 1)
                .seed(seed * 7 + 5)
                .mode(CoinMode::Oracle(OracleCoin::new(seed, eps)))
                .max_rounds(60);
            let mut cluster = Cluster::new(config, &split_inputs(4));
            let report = cluster.run(3_000_000);
            if !report.terminated {
                stalled += 1;
            }
        }
        println!("| {:.1}% | {runs} | {stalled} |", f64::from(eps) / 10.0);
    }
    println!();
}

// ---------------------------------------------------------------------
// E3 - SCC correctness probabilities (Lemma 4)
// ---------------------------------------------------------------------
fn e3_coin_probabilities(full: bool) {
    println!("## E3 - SCC correctness (Lemma 4): Pr[all output s] >= 1/4 per side\n");
    println!("Each session is one flip on the simulator's batched schedule (one");
    println!("delay draw per event and recipient, uniform adversary, seeded).\n");
    println!("| n | t | faults | sessions | all-0 | all-1 | mixed | bound |");
    println!("|---|---|--------|----------|-------|-------|-------|-------|");
    let configs: &[(usize, usize, usize, u64)] = if full {
        &[(4, 1, 0, 120), (4, 1, 1, 60), (7, 2, 0, 30), (7, 2, 2, 15)]
    } else {
        &[(4, 1, 0, 40), (4, 1, 1, 20), (7, 2, 0, 6)]
    };
    for &(n, t, silent, sessions) in configs {
        let params = Params::new(n, t).unwrap();
        let mut all0 = 0;
        let mut all1 = 0;
        let mut mixed = 0;
        for s in 0..sessions {
            let mut net = CoinNet::<Gf61>::new(params, s * 101 + 17);
            for k in 0..silent {
                net.corrupt(Pid::new((n - k) as u32), Role::Silent);
            }
            net.flip_all(1);
            let outs = net.outputs(1);
            assert!(outs.iter().all(Option::is_some), "coin must terminate");
            let zeros = outs.iter().filter(|o| **o == Some(false)).count();
            if zeros == outs.len() {
                all0 += 1;
            } else if zeros == 0 {
                all1 += 1;
            } else {
                mixed += 1;
            }
        }
        let frac = |x: usize| x as f64 / sessions as f64;
        println!(
            "| {n} | {t} | {silent} silent | {sessions} | {:.2} | {:.2} | {:.2} | 0.25 |",
            frac(all0),
            frac(all1),
            frac(mixed)
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E4 - message/bit complexity vs n (polynomial-degree fit)
// ---------------------------------------------------------------------
fn e4_complexity(full: bool) {
    println!("## E4 - communication complexity vs n (polynomial, per Theorem 1)\n");
    println!("One complete coin flip (the dominant cost of a round), measured on the");
    println!("simulator's batched schedule: network messages and frame-charged bytes,");
    println!("self-deliveries excluded.\n");
    println!("| n | t | messages | bytes | msgs / n^2 sessions |");
    println!("|---|---|----------|-------|---------------------|");
    let ns: &[(usize, usize)] = if full {
        &[(4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (10, 3)]
    } else {
        &[(4, 1), (5, 1), (6, 1), (7, 2)]
    };
    let mut pts = Vec::new();
    for &(n, t) in ns {
        let params = Params::new(n, t).unwrap();
        let mut net = CoinNet::<Gf61>::new(params, 99);
        net.flip_all(1);
        assert!(net.outputs(1).iter().all(Option::is_some));
        let (msgs, bytes) = (
            net.sim().metrics().messages_sent,
            net.sim().metrics().bytes_sent,
        );
        pts.push((n as f64, msgs as f64));
        println!(
            "| {n} | {t} | {msgs} | {bytes} | {:.0} |",
            msgs as f64 / (n * n) as f64
        );
    }
    println!(
        "\nlog-log slope (messages vs n): **{:.2}** - polynomial, not exponential.",
        loglog_slope(&pts)
    );
    println!("(These are the counts of the schedule production runs, not of a");
    println!("one-message-per-step draw; the degree stays unmeasured until the");
    println!("coin_n<N> curve lands. Polynomial with a large exponent is exactly what");
    println!("the paper promises - its contribution is almost-sure termination at");
    println!("polynomial cost, not a low-degree protocol.)\n");
}

// ---------------------------------------------------------------------
// E5 - the O(n^2) shunning bound (paper section 5)
// ---------------------------------------------------------------------
fn e5_shunning_bound(full: bool) {
    println!("## E5 - shunning bound: property failures <= t(n-t) (paper section 5)\n");
    println!("A persistent forging adversary corrupts coin sessions until every");
    println!("honest process shuns it; afterwards its lies are discarded.\n");
    let seeds: u64 = if full { 6 } else { 3 };
    println!(
        "| n | t | seed | shun pairs | bound t(n-t) | disagreeing coin sessions | agreement |"
    );
    println!("|---|---|------|-----------|--------------|---------------------------|-----------|");
    for seed in 0..seeds {
        let (n, t) = (4usize, 1usize);
        let config = ClusterConfig::new(n, t)
            .seed(seed * 41 + 11)
            .fault(Pid::new(n as u32), Role::LyingShares { delta: 9 });
        let mut cluster = Cluster::new(config, &split_inputs(n));
        let report = cluster.run(900_000_000);
        let mut pairs = report.shun_pairs.clone();
        pairs.sort();
        pairs.dedup();
        // Count coin sessions where honest outputs disagreed.
        let mut disagreeing = 0;
        for round in 1..=report.max_round {
            let tag = u64::from(round); // instance 0
            let outs: Vec<Option<bool>> = cluster
                .honest()
                .into_iter()
                .filter_map(|p| cluster.sim().process(p).node())
                .map(|node| node.coin().and_then(|c| c.output(tag)))
                .collect();
            let vals: Vec<bool> = outs.iter().flatten().copied().collect();
            if vals.len() >= 2 && !vals.windows(2).all(|w| w[0] == w[1]) {
                disagreeing += 1;
            }
        }
        println!(
            "| {n} | {t} | {seed} | {} | {} | {disagreeing} | {} |",
            pairs.len(),
            t * (n - t),
            report.agreement()
        );
        assert!(pairs.len() <= t * (n - t), "bound violated!");
    }
    println!();
}

// ---------------------------------------------------------------------
// E6 - Example 1 (reported; the deterministic schedule lives in
// tests/tests/example1.rs)
// ---------------------------------------------------------------------
fn e6_example1() {
    println!("## E6 - paper Example 1 (MW-SVSS divergence, then shunning)\n");
    println!("Reproduced as the deterministic regression test");
    println!("`tests/tests/example1.rs::example_1_divergent_outputs_then_shunning`:");
    println!("- p1 reconstructs `s`, p3 reconstructs `s + 9d` (both complete, no");
    println!("  detection yet) - weak binding broken exactly as the paper describes;");
    println!("- releasing the delayed traffic makes p1 shun p2 *after the fact*;");
    println!("- p3, whose only expectation was satisfied, never detects - matching");
    println!("  the paper's remark that detection may be one-sided.\n");
}

// ---------------------------------------------------------------------
// E7 - hiding: the adversary's share view is secret-independent
// ---------------------------------------------------------------------
fn e7_hiding(full: bool) {
    use sba::harness::SvssNet;
    use sba::net::{Unpacked, WireKind};
    use sba::svss::SvssPriv;
    use sba::SvssId;

    println!("## E7 - hiding: t-view distribution is independent of the secret\n");
    println!("For each secret, collect the row share the (passive) corrupted");
    println!("process p4 receives across seeds (over GF(101)), and compare the");
    println!("distributions with a two-sample chi-square statistic (4 bins).\n");
    let samples: u64 = if full { 400 } else { 150 };
    let mut hist = [[0f64; 4]; 2];
    let p4 = Pid::new(4);
    for (si, secret) in [0u64, 50].into_iter().enumerate() {
        for seed in 0..samples {
            // Disjoint seed ranges per secret: with shared seeds the two
            // sample sets would be deterministically correlated (identical
            // polynomials shifted by the secret) and the chi-square would
            // detect the shift rather than an information leak.
            let run_seed = seed * 11 + 3 + (si as u64) * 1_000_003;
            let params = Params::new(4, 1).unwrap();
            let mut net = SvssNet::<Gf101>::new(params, run_seed);
            net.share(SvssId::new(1, Pid::new(1)), Gf101::from_u64(secret));
            // p4 holds the dealer's Rows message unread: its whole view
            // of the secret at share time derives from it.
            net.deliver_matching(move |_, to, msg| {
                !(to == p4 && msg.wire_kind() == WireKind::Rows)
            });
            let held = net.sim().process(p4).held()[0].1.clone().unpack();
            let Unpacked::Priv(SvssPriv::Rows { rows, .. }) = held else {
                panic!("p4 holds the dealer's rows");
            };
            let v = rows.g.first().map_or(0, |v| v.as_u64());
            hist[si][(v % 4) as usize] += 1.0;
        }
    }
    let mut chi2 = 0.0;
    for (a, c) in hist[0].iter().zip(hist[1].iter()) {
        let e = (a + c) / 2.0;
        if e > 0.0 {
            chi2 += (a - e).powi(2) / e + (c - e).powi(2) / e;
        }
    }
    println!("| bin | secret=0 | secret=50 |");
    println!("|-----|----------|-----------|");
    for (b, (a, c)) in hist[0].iter().zip(hist[1].iter()).enumerate() {
        println!("| {b} | {a:.0} | {c:.0} |");
    }
    println!("\nchi-square(3 dof) = {chi2:.2}; values below ~7.81 mean the");
    println!("distributions are indistinguishable at the 5% level.\n");
    assert!(chi2 < 16.27, "hiding violated (chi2 beyond the 0.1% tail)");
}

// ---------------------------------------------------------------------
// E8 - ablation: disable the DMM and watch the adversary win rounds
// ---------------------------------------------------------------------
fn e8_ablation(full: bool) {
    use sba::aba::{AbaConfig, AbaNode, AbaProcess};
    use sba::coin::coin_svss_id;
    use sba::field::Gf61 as F;
    use sba::sim::{SchedLayer, Simulation};
    use sba::svss::Reconstructed;
    use sba::{ClusterProcess, Role};

    println!("## E8 - ablation: why shunning matters\n");
    println!("A forging adversary attacks every SVSS session of every coin, across");
    println!("many agreement instances. The paper's bound: each session whose");
    println!("binding/validity breaks costs a NEW shun pair, so at most t(n-t)");
    println!("sessions can ever be corrupted. With the DMM disabled that budget is");
    println!("gone and corrupted sessions keep accumulating.\n");
    println!("A 'corrupted session' is one where honest SVSS outputs disagree or");
    println!("include bottom. Two slow honest processes make the forgery land.\n");

    let (n, t) = (4usize, 1usize);
    let instances: u32 = if full { 8 } else { 5 };
    let params = Params::new(n, t).unwrap();
    println!("| detection | instances | corrupted SVSS sessions | shun pairs | all agreed |");
    println!("|-----------|-----------|-------------------------|------------|-----------|");
    for &detection in &[true, false] {
        let procs: Vec<ClusterProcess> = (1..=n as u32)
            .map(|i| {
                let pid = Pid::new(i);
                let mut config = AbaConfig::scc(params, 7 ^ (u64::from(i) << 32));
                config.detection = detection;
                let node: AbaNode<F> = AbaNode::new(pid, config);
                let proposals: Vec<(u32, bool)> =
                    (0..instances).map(|k| (k, (k + i) % 2 == 0)).collect();
                let role = if i == n as u32 {
                    Role::LyingShares { delta: 3 }
                } else {
                    Role::Honest
                };
                ClusterProcess::with_role(AbaProcess::new(node, proposals), role)
            })
            .collect();
        let sched = SchedLayer::Lagged {
            slow: vec![Pid::new(1), Pid::new(2)],
            base: 2,
            factor: 9,
        }
        .build();
        let mut sim = Simulation::new(procs, sched, 31);
        let outcome = sim.run_until_all_done(2_000_000_000);

        // Count corrupted SVSS sessions across every instance and round.
        // The liar is the last process.
        let honest: Vec<&AbaNode<F>> = (1..n as u32)
            .map(|i| sim.process(Pid::new(i)).node().expect("honest nodes"))
            .collect();
        let mut corrupted = 0u64;
        let mut agreed = outcome.all_done;
        for inst in 0..instances {
            let decisions: Vec<Option<bool>> = honest.iter().map(|nd| nd.decision(inst)).collect();
            agreed &= decisions.iter().all(|d| d.is_some() && *d == decisions[0]);
            let max_round = honest
                .iter()
                .filter_map(|nd| nd.decision_round(inst))
                .max()
                .unwrap_or(1);
            for round in 1..=max_round {
                let tag = (u64::from(inst) << 24) | u64::from(round);
                for dealer in Pid::all(n) {
                    for target in Pid::all(n) {
                        let sid = coin_svss_id(tag, dealer, target);
                        let outs: Vec<Option<Reconstructed<F>>> = honest
                            .iter()
                            .filter_map(|nd| nd.coin())
                            .map(|c| c.svss().output(sid))
                            .collect();
                        let vals: Vec<Option<F>> =
                            outs.iter().flatten().map(|r| r.value()).collect();
                        if vals.is_empty() {
                            continue;
                        }
                        let bottom = vals.iter().any(Option::is_none);
                        let split = !vals.windows(2).all(|w| w[0] == w[1]);
                        if bottom || split {
                            corrupted += 1;
                        }
                    }
                }
            }
        }
        let mut shuns: Vec<(u32, Pid)> = Vec::new();
        for i in 1..n as u32 {
            for ev in sim.process(Pid::new(i)).events().expect("honest events") {
                if let sba::AbaEvent::Shunned { process } = ev {
                    shuns.push((i, *process));
                }
            }
        }
        shuns.sort_unstable();
        shuns.dedup();
        println!(
            "| {} | {instances} | {corrupted} | {} | {agreed} |",
            if detection { "on " } else { "off" },
            shuns.len()
        );
        if detection {
            assert!(shuns.len() <= t * (n - t), "shun bound violated: {shuns:?}");
        }
    }
    println!();
    println!("(With detection on, corruption is capped by the shunning budget and");
    println!("later instances run clean; with it off the same attack keeps biting.)\n");
}

// ---------------------------------------------------------------------
// E10 - system runtimes: threads and sockets vs the sim oracle
// ---------------------------------------------------------------------
fn e10_threaded(full: bool, json_path: Option<&str>) {
    use sba::scenario::{PlanCoin, ScenarioPlan, Zoo};
    use sba::{run_plan, RuntimeKind};
    use std::time::Duration;

    println!("## E10 - system runtimes: threads and sockets (OS nondeterminism)\n");
    println!("The runtime-independent core of each scenario plan (roles + coin;");
    println!("the OS supplies the schedule) runs thread-per-process over channels");
    println!("and over real loopback TCP shipping the canonical frame bytes. The");
    println!("safety checker re-checks agreement / decision-stability / validity /");
    println!("shun-monotonicity / honest-pair-shun after every batch an honest");
    println!("process takes; any violation fails the experiment.\n");
    println!("| runtime | scenario | n | coin | inputs | messages | batches | bytes | dropped | wall | ok |");
    println!("|---------|----------|---|------|--------|----------|---------|-------|---------|------|----|");

    // Each entry: a plan plus its input vector; `pin` is the bit
    // validity forces on every honest decision (unanimous inputs), or
    // `None` for split inputs (agreement-only — the decided bit is
    // legitimately schedule-dependent, so the two runtimes may differ).
    struct Row {
        plan: ScenarioPlan,
        inputs: Vec<Option<bool>>,
        pin: Option<bool>,
    }
    let mut rows: Vec<Row> = Vec::new();

    // n=7 oracle-coin sweep across the zoo (CrashRecover excluded: its
    // 500-delivery recovery window needs SCC traffic volume to elapse —
    // it gets a dedicated SCC row below).
    let zoo: &[Zoo] = if full {
        &[
            Zoo::Benign,
            Zoo::HealedPartition,
            Zoo::LossRetransmit,
            Zoo::Rushing,
            Zoo::HeavyTail,
        ]
    } else {
        &[Zoo::Benign, Zoo::HealedPartition, Zoo::Rushing]
    };
    for z in zoo {
        let mut plan = z.plan(7, 2, 11);
        plan.coin = PlanCoin::Oracle { seed: 42 };
        rows.push(Row {
            plan,
            inputs: vec![Some(true); 7],
            pin: Some(true),
        });
    }
    // Real-coin rows: the full SCC stack (SVSS, shunning, coin
    // reconstruction) under OS scheduling, n=4 quick / n=7 full.
    rows.push(Row {
        plan: Zoo::Benign.plan(4, 1, 7),
        inputs: split_inputs(4),
        pin: None,
    });
    rows.push(Row {
        plan: Zoo::CrashRecover.plan(4, 1, 7),
        inputs: vec![Some(true); 4],
        pin: Some(true),
    });
    if full {
        // Named apart from the oracle-coin n=7 benign row: the name is
        // the row's key in the snapshot.
        let mut plan = Zoo::Benign.plan(7, 2, 7);
        plan.name = "benign_scc".into();
        rows.push(Row {
            plan,
            inputs: split_inputs(7),
            pin: None,
        });
    }

    let wall = Duration::from_secs(if full { 600 } else { 180 });
    let mut sink_rows: Vec<(String, f64)> = Vec::new();
    for row in &rows {
        for kind in [RuntimeKind::Threaded, RuntimeKind::Socket] {
            let report = run_plan(kind, &row.plan, &row.inputs, wall).expect("socket setup failed");
            let validity_ok = match row.pin {
                Some(bit) => report
                    .honest
                    .iter()
                    .all(|p| report.decisions[(p.index() - 1) as usize] == Some(bit)),
                None => true,
            };
            let ok = report.stats.all_done
                && report.stats.dead_links == 0
                && report.ok()
                && report.all_decided()
                && report.agreement()
                && validity_ok;
            let coin = match row.plan.coin {
                PlanCoin::Scc => "scc",
                PlanCoin::Oracle { .. } => "oracle",
            };
            println!(
                "| {} | {} | {} | {coin} | {} | {} | {} | {} | {} | {:.2?} | {ok} |",
                kind.name(),
                row.plan.name,
                row.plan.n,
                if row.pin.is_some() {
                    "unanimous"
                } else {
                    "split"
                },
                report.stats.messages,
                report.stats.batches,
                report.stats.bytes,
                report.stats.dropped,
                report.stats.elapsed,
            );
            assert!(
                ok,
                "{} {} failed: all_done={} dead_links={} violations={} decisions={:?}",
                kind.name(),
                row.plan.name,
                report.stats.all_done,
                report.stats.dead_links,
                report.violations_total,
                report.decisions
            );
            let key = format!("runtime_{}_{}_n{}", kind.name(), row.plan.name, row.plan.n);
            for (name, v) in [
                ("wall_seconds", report.stats.elapsed.as_secs_f64()),
                ("messages", report.stats.messages as f64),
                ("batches", report.stats.batches as f64),
                ("bytes", report.stats.bytes as f64),
                ("dropped", report.stats.dropped as f64),
                ("dead_links", report.stats.dead_links as f64),
            ] {
                sink_rows.push((format!("{key}.{name}"), v));
            }
        }
    }
    if let Some(path) = json_path {
        merge_into_snapshot(path, |k| k.starts_with("runtime_"), sink_rows.into_iter());
    }
    println!();
    println!("(The sim remains the correctness oracle and keeps the pinned");
    println!("message/byte gauges; these runs check the same outcomes survive");
    println!("schedules no seed describes.)\n");
}
