//! The trial harness: record, replay, and fork scenario runs as JSON
//! artifacts.
//!
//! A *trial* is a [`ScenarioPlan`] plus an event budget — everything
//! needed to reproduce a run bit-for-bit, since a simulation is a pure
//! function of its construction. The artifact serializes the *entire
//! plan* (roles, scheduler layers, timed events) as `plan.*` keys, so it
//! carries its environment. [`record`] runs a trial and writes an
//! artifact (config + outcome + metrics + run digest) under a directory
//! of the caller's choosing (`artifacts/` by convention); [`replay_file`]
//! reads an artifact back, re-runs the trial it describes, and reports
//! every numeric divergence — an empty mismatch list *is* the
//! bit-identity proof (the digest folds every delivered message's
//! timing, route, and kind). Artifacts recorded before plans were
//! embedded name a [`Zoo`] entry by `trial.scenario_index`;
//! [`parse_trial`] maps that index to the entry's plan.
//!
//! [`fork`] drives the mid-run checkpoint path: advance a trial to a
//! branch point, then continue it once with the original schedule (the
//! tail must reproduce the recorded digest) and once per divergent seed
//! (each branch must still decide — almost-sure termination does not
//! depend on the adversary's coin flips). [`fork_corpus`] runs that
//! discipline over *every* recorded artifact in a directory, forking at
//! each round boundary (experiment E14).

use std::fs;
use std::path::{Path, PathBuf};

use sba::{Cluster, ClusterReport, MonitorReport, ScenarioPlan, Zoo};

use crate::{parse_snapshot, JsonSink};

/// Artifact schema tag.
pub const TRIAL_SCHEMA: &str = "sba-trial-v1";

/// The artifact key older artifacts name their [`Zoo`] entry by. It is
/// an input, not a measurement: [`parse_trial`] turns it into the plan,
/// and a replay does not compare it.
const LEGACY_INDEX_KEY: &str = "trial.scenario_index";

/// A reproducible scenario run: the full recipe, no state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trial {
    /// The adversary, the size, and the seed.
    pub plan: ScenarioPlan,
    /// Event budget for the run.
    pub max_events: u64,
}

impl Trial {
    /// A trial over `plan` with the standard event budget.
    pub fn new(plan: ScenarioPlan) -> Trial {
        Trial {
            plan,
            max_events: 60_000_000,
        }
    }

    /// Runs the trial to completion.
    pub fn run(&self) -> TrialRun {
        finish(&mut self.plan.build(), self.max_events)
    }

    /// The artifact file name this trial records to.
    pub fn artifact_name(&self) -> String {
        let p = &self.plan;
        format!("trial_{}_n{}t{}_s{}.json", p.name, p.n, p.t, p.seed)
    }
}

/// A completed trial: the cluster report plus the run digest.
#[derive(Clone, Debug)]
pub struct TrialRun {
    /// The cluster's report (decisions, rounds, shun pairs, metrics).
    pub report: ClusterReport,
    /// The run digest over every delivered message.
    pub digest: u64,
    /// The invariant monitor's findings (`None` if the plan did not
    /// enable it).
    pub monitor: Option<MonitorReport>,
}

impl TrialRun {
    /// Whether the invariant monitor stayed clean (`None` if the plan
    /// did not enable it).
    pub fn monitor_ok(&self) -> Option<bool> {
        self.monitor.as_ref().map(MonitorReport::ok)
    }

    /// `(checks, violations)` the invariant monitor counted; zeros when
    /// the plan did not enable it.
    pub fn monitor_counts(&self) -> (u64, u64) {
        (self.monitor.as_ref()).map_or((0, 0), |m| (m.checks, m.violations_total))
    }
}

/// Encodes a trial + outcome as artifact JSON.
///
/// Scalars only (the [`JsonSink`] round-trips numbers through `f64`, so
/// the 64-bit digest is stored as two 32-bit halves); decisions are
/// packed as bitmasks, which also keeps the artifact diff-friendly.
/// The full plan is embedded as `plan.*` keys ([`ScenarioPlan::to_kv`]).
pub fn artifact_json(trial: &Trial, run: &TrialRun) -> String {
    let plan = &trial.plan;
    let mut sink = JsonSink::new();
    sink.put_str("schema", TRIAL_SCHEMA);
    sink.put_str("trial.scenario", &plan.name);
    sink.put_num("trial.n", plan.n as f64);
    sink.put_num("trial.t", plan.t as f64);
    sink.put_num("trial.seed", plan.seed as f64);
    sink.put_num("trial.max_events", trial.max_events as f64);
    for (key, value) in plan.to_kv() {
        sink.put_num(&key, value);
    }
    let r = &run.report;
    let (mut decided_mask, mut decision_bits) = (0u64, 0u64);
    for (i, d) in r.decisions.iter().enumerate() {
        if let Some(bit) = d {
            decided_mask |= 1 << i;
            if *bit {
                decision_bits |= 1 << i;
            }
        }
    }
    sink.put_num("outcome.terminated", u64::from(r.terminated) as f64);
    sink.put_num("outcome.decided_mask", decided_mask as f64);
    sink.put_num("outcome.decision_bits", decision_bits as f64);
    sink.put_num("outcome.max_round", f64::from(r.max_round));
    sink.put_num("outcome.shun_pairs", r.shun_pairs.len() as f64);
    sink.put_num("outcome.digest_hi", (run.digest >> 32) as f64);
    sink.put_num("outcome.digest_lo", (run.digest & 0xffff_ffff) as f64);
    let m = &r.metrics;
    let (monitor_checks, monitor_violations) = run.monitor_counts();
    for (key, value) in [
        ("messages_sent", m.messages_sent),
        ("bytes_sent", m.bytes_sent),
        ("messages_delivered", m.messages_delivered),
        ("self_deliveries", m.self_deliveries),
        ("self_delivery_batches", m.self_delivery_batches),
        ("batches_sent", m.batches_sent),
        ("events", m.events),
        ("virtual_time", m.virtual_time),
        ("latency_sum", m.latency_sum),
        ("latency_max", m.latency_max),
        ("inflight_peak_msgs", m.inflight_peak_msgs),
        ("inflight_peak_batches", m.inflight_peak_batches),
        ("inflight_peak_bytes", m.inflight_peak_bytes),
        ("sched_drops", m.sched_drops),
        ("sched_retransmits", m.sched_retransmits),
        ("sched_held", m.sched_held),
        ("processes_down", m.processes_down),
        ("recoveries", m.recoveries),
        ("monitor_checks", monitor_checks),
        ("monitor_violations", monitor_violations),
    ] {
        sink.put_num(&format!("metrics.{key}"), value as f64);
    }
    sink.render()
}

/// Runs a trial and writes its artifact under `dir` (created if needed).
/// Returns the artifact path and the completed run.
///
/// # Errors
///
/// I/O errors from creating the directory or writing the file.
pub fn record(trial: &Trial, dir: &Path) -> std::io::Result<(PathBuf, TrialRun)> {
    let run = trial.run();
    fs::create_dir_all(dir)?;
    let path = dir.join(trial.artifact_name());
    fs::write(&path, artifact_json(trial, &run))?;
    Ok((path, run))
}

/// One numeric divergence between a recorded artifact and its replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// The dotted artifact key.
    pub key: String,
    /// Value in the artifact.
    pub recorded: f64,
    /// Value produced by the replay.
    pub replayed: f64,
}

/// Outcome of replaying an artifact.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The trial reconstructed from the artifact.
    pub trial: Trial,
    /// The re-run.
    pub run: TrialRun,
    /// Every numeric key whose replayed value differs from the recorded
    /// one. Empty ⇔ the replay was bit-identical (trace digest included).
    pub mismatches: Vec<Mismatch>,
}

impl Replay {
    /// Whether the replay reproduced the artifact exactly.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Extracts the `"scenario": "<name>"` string from raw artifact text
/// (the numeric snapshot parser drops string values; the name is only
/// display metadata, but plan replays preserve it when present).
fn scenario_name(text: &str) -> Option<String> {
    let tail = text.split("\"scenario\": \"").nth(1)?;
    Some(tail.split('"').next()?.to_string())
}

/// Reconstructs the trial an artifact describes without re-running it.
/// An artifact without `plan.*` keys names a [`Zoo`] entry by index, at
/// the artifact's `trial.{n,t,seed}`.
///
/// # Errors
///
/// Errors on malformed artifacts (bad JSON, missing keys, unknown
/// scenario index, a plan [`ScenarioPlan::check`] rejects).
pub fn parse_trial(text: &str) -> Result<Trial, String> {
    let recorded = parse_snapshot(text)?;
    // An exact integer in `0..=2^53`, by `ScenarioPlan::from_kv`'s rule.
    let get = |key: &str| {
        let &(_, v) = recorded
            .iter()
            .find(|(k, _)| k == key)
            .ok_or_else(|| format!("artifact is missing '{key}'"))?;
        let int = v as u64;
        (int as f64 == v && int <= 1 << 53)
            .then_some(int)
            .ok_or_else(|| format!("'{key}' = {v} is not an integer in 0..=2^53"))
    };
    let plan = if recorded.iter().any(|(k, _)| k == "plan.version") {
        let name = scenario_name(text).unwrap_or_else(|| "plan".to_string());
        ScenarioPlan::from_kv(&name, &recorded)?
    } else {
        let index = get(LEGACY_INDEX_KEY)? as usize;
        let zoo = Zoo::ALL
            .get(index)
            .ok_or_else(|| format!("unknown scenario index {index}"))?;
        let (n, t, seed) = (
            get("trial.n")? as usize,
            get("trial.t")? as usize,
            get("trial.seed")?,
        );
        // The size is checked before `Zoo::plan` builds for it.
        ScenarioPlan::new("", n, t, seed).check()?;
        let plan = zoo.plan(n, t, seed);
        plan.check()?;
        plan
    };
    Ok(Trial {
        plan,
        max_events: get("trial.max_events")?,
    })
}

/// Replays artifact text: rebuilds the recorded trial, re-runs it, and
/// diffs every numeric key. Only *recorded* keys are compared, so
/// artifacts written before a metric existed still replay cleanly.
///
/// # Errors
///
/// Everything [`parse_trial`] rejects.
pub fn replay_artifact(text: &str) -> Result<Replay, String> {
    let recorded = parse_snapshot(text)?;
    let trial = parse_trial(text)?;
    let run = trial.run();
    let replayed = parse_snapshot(&artifact_json(&trial, &run))?;
    let mut mismatches = Vec::new();
    for (key, recorded_v) in recorded.iter().filter(|(k, _)| k != LEGACY_INDEX_KEY) {
        let replayed_v = replayed
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("replay produced no '{key}'"))?;
        if replayed_v != *recorded_v {
            mismatches.push(Mismatch {
                key: key.clone(),
                recorded: *recorded_v,
                replayed: replayed_v,
            });
        }
    }
    Ok(Replay {
        trial,
        run,
        mismatches,
    })
}

/// [`replay_artifact`] over a file on disk.
///
/// # Errors
///
/// I/O errors reading the file, plus everything [`replay_artifact`]
/// rejects.
pub fn replay_file(path: &Path) -> Result<Replay, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    replay_artifact(&text)
}

/// One forked branch's outcome.
#[derive(Clone, Debug)]
pub struct BranchOutcome {
    /// The branch's divergence seed.
    pub seed: u64,
    /// The branch's run digest (diverges from the original's).
    pub digest: u64,
    /// The branch's cluster report.
    pub report: ClusterReport,
}

/// Outcome of a checkpoint/fork experiment (see [`fork`]).
#[derive(Clone, Debug)]
pub struct ForkReport {
    /// Events processed before the branch point.
    pub branch_events: u64,
    /// The uninterrupted original run.
    pub original: TrialRun,
    /// Digest of the checkpoint resumed with the *original* stream —
    /// equal to `original.digest` iff the checkpoint is faithful.
    pub resumed_digest: u64,
    /// One outcome per divergence seed.
    pub branches: Vec<BranchOutcome>,
}

impl ForkReport {
    /// Whether the same-seed resume reproduced the original tail exactly.
    pub fn resume_faithful(&self) -> bool {
        self.resumed_digest == self.original.digest
    }
}

/// Runs `cluster` to completion and reads its outcome.
fn finish(cluster: &mut Cluster, max_events: u64) -> TrialRun {
    let report = cluster.run(max_events);
    TrialRun {
        digest: cluster.digest().expect("plan runs carry digests"),
        monitor: cluster.monitor_report(),
        report,
    }
}

/// A divergent continuation of the checkpoint `ck`: a snapshot whose
/// scheduler stream is re-derived from `seed`.
fn fork_at(ck: &Cluster, seed: u64) -> Cluster {
    let mut branch = ck.snapshot();
    branch.sim_mut().reseed(seed);
    branch
}

/// Runs `trial` to (about) `at_events` delivered events, snapshots,
/// then: finishes the original run, resumes the snapshot with the
/// original schedule (must reproduce the original digest), and forks one
/// divergent branch per seed in `seeds`. Plan events that have not fired
/// by the branch point are carried into every branch.
pub fn fork(trial: &Trial, at_events: u64, seeds: &[u64]) -> ForkReport {
    let mut run = trial.plan.build();
    run.advance_until(at_events, |_| false);
    let ck = run.snapshot();
    let original = finish(&mut run, trial.max_events);
    let resumed_digest = finish(&mut ck.snapshot(), trial.max_events).digest;
    let branches = seeds
        .iter()
        .map(|&seed| {
            let TrialRun { digest, report, .. } = finish(&mut fork_at(&ck, seed), trial.max_events);
            BranchOutcome {
                seed,
                digest,
                report,
            }
        })
        .collect();
    ForkReport {
        branch_events: ck.sim().metrics().events,
        original,
        resumed_digest,
        branches,
    }
}

/// Fork-conformance result for one recorded artifact (experiment E14).
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Artifact file name.
    pub artifact: String,
    /// Scenario name.
    pub scenario: String,
    /// Event counts of the round boundaries forked at.
    pub boundaries: Vec<u64>,
    /// How many same-stream resumes reproduced the original digest
    /// (all of them, when conformant).
    pub resumes_faithful: usize,
    /// Divergent branches run (boundaries × seeds).
    pub branches_run: usize,
    /// Branches that terminated with honest agreement.
    pub branches_decided: usize,
    /// Invariant-monitor violations summed over the original run and
    /// every branch.
    pub monitor_violations: u64,
}

impl CorpusEntry {
    /// Whether every resume was faithful, every branch decided, and the
    /// monitor stayed clean.
    pub fn ok(&self) -> bool {
        self.resumes_faithful == self.boundaries.len()
            && self.branches_decided == self.branches_run
            && self.monitor_violations == 0
    }
}

/// Events processed up to a checkpoint's branch point.
fn events(ck: &Cluster) -> u64 {
    ck.sim().metrics().events
}

/// The branch decided: terminated, honest decisions exist, and agree.
fn decided(report: &ClusterReport) -> bool {
    report.terminated && report.all_decided() && report.agreement()
}

/// Forks one trial at up to `max_boundaries` round boundaries under
/// every seed in `seeds`, with the invariant monitor riding every
/// branch. Round boundaries are discovered live (a snapshot is taken
/// as each voting round is first entered); if the run has fewer than
/// three, quarter-points of the run's event count fill in — every entry
/// gets at least three branch points (unless the run is shorter than
/// four events).
pub fn fork_corpus_trial(trial: &Trial, seeds: &[u64], max_boundaries: usize) -> CorpusEntry {
    let mut plan = trial.plan.clone();
    plan.monitor = true;
    // Pass 1: run to completion, snapshotting at each round entry.
    let mut run = plan.build();
    let mut cks: Vec<Cluster> = Vec::new();
    let mut round = 1u32;
    while cks.len() < max_boundaries && run.advance_to_round(round, trial.max_events) {
        cks.push(run.snapshot());
        round += 1;
    }
    let original = finish(&mut run, trial.max_events);
    let mut violations = original.monitor_counts().1;
    let total = original.report.metrics.events;
    // Pass 2 (only if rounds were scarce): quarter-point supplements
    // from an identical fresh run — same plan, same seed, so its
    // snapshots resume onto the same digest.
    let mut quarter = 1u64;
    while cks.len() < max_boundaries.min(3) && quarter <= 3 {
        let target = total * quarter / 4;
        quarter += 1;
        if target == 0 || cks.iter().any(|ck| events(ck) == target) {
            continue;
        }
        let mut fresh = plan.build();
        if fresh.advance_until(trial.max_events, |s| s.metrics().events >= target) {
            cks.push(fresh);
        }
    }
    cks.sort_by_key(events);
    let mut resumes_faithful = 0;
    let mut branches_run = 0;
    let mut branches_decided = 0;
    for ck in &cks {
        let resumed = finish(&mut ck.snapshot(), trial.max_events);
        if resumed.digest == original.digest {
            resumes_faithful += 1;
        }
        violations += resumed.monitor_counts().1;
        for &seed in seeds {
            let branch = finish(&mut fork_at(ck, seed), trial.max_events);
            branches_run += 1;
            if decided(&branch.report) {
                branches_decided += 1;
            }
            violations += branch.monitor_counts().1;
        }
    }
    CorpusEntry {
        artifact: trial.artifact_name(),
        scenario: trial.plan.name.clone(),
        boundaries: cks.iter().map(events).collect(),
        resumes_faithful,
        branches_run,
        branches_decided,
        monitor_violations: violations,
    }
}

/// [`fork_corpus_trial`] over every `trial_*.json` artifact under
/// `dir`, in file-name order.
///
/// # Errors
///
/// I/O errors listing/reading the directory and malformed artifacts.
pub fn fork_corpus(
    dir: &Path,
    seeds: &[u64],
    max_boundaries: usize,
) -> Result<Vec<CorpusEntry>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with("trial_") && f.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text =
                fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let trial = parse_trial(&text)?;
            Ok(fork_corpus_trial(&trial, seeds, max_boundaries))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba::{Action, Pid, PlanEvent, Role, SchedLayer, Trigger};

    fn benign(seed: u64) -> Trial {
        Trial::new(Zoo::Benign.plan(4, 1, seed))
    }

    #[test]
    fn artifact_round_trips_bit_identically() {
        let trial = benign(42);
        let run = trial.run();
        let replay = replay_artifact(&artifact_json(&trial, &run)).expect("well-formed");
        assert!(
            replay.ok(),
            "self-replay must be exact: {:?}",
            replay.mismatches
        );
        assert_eq!(replay.run.digest, run.digest);
        assert_eq!(replay.trial, trial);
    }

    #[test]
    fn plan_artifact_round_trips_with_its_environment() {
        let trial = Trial::new(ScenarioPlan::crash_during_recovery(4, 1, 7));
        let run = trial.run();
        assert_eq!(run.monitor_ok(), Some(true));
        let text = artifact_json(&trial, &run);
        assert!(text.contains("\"plan\""), "plan keys embedded");
        let replay = replay_artifact(&text).expect("well-formed");
        assert!(
            replay.ok(),
            "plan self-replay must be exact: {:?}",
            replay.mismatches
        );
        assert_eq!(replay.trial, trial, "plan (and name) reconstructed");
    }

    /// An artifact recorded when zoo trials were stored by index (no
    /// `plan.*` keys) still loads, as its zoo entry's plan, and replays
    /// with zero mismatches.
    #[test]
    fn zoo_index_artifact_still_replays() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/trial_benign_n4t1_s7.json");
        let replay = replay_file(&path).expect("a zoo-index artifact loads");
        assert!(replay.ok(), "mismatches: {:?}", replay.mismatches);
        assert_eq!(replay.trial, Trial::new(Zoo::Benign.plan(4, 1, 7)));
    }

    #[test]
    fn tampered_artifact_is_flagged() {
        let trial = benign(42);
        let run = trial.run();
        let tampered = artifact_json(&trial, &run).replace(
            &format!("\"digest_lo\": {}", run.digest & 0xffff_ffff),
            &format!("\"digest_lo\": {}", (run.digest & 0xffff_ffff) ^ 1),
        );
        let replay = replay_artifact(&tampered).expect("still well-formed");
        assert!(!replay.ok());
        assert_eq!(replay.mismatches.len(), 1);
        assert_eq!(replay.mismatches[0].key, "outcome.digest_lo");
    }

    /// Artifact text for `plan` with some `plan.*` values overwritten.
    fn plan_text(plan: &ScenarioPlan, edits: &[(&str, f64)]) -> String {
        let mut sink = JsonSink::new();
        sink.put_str("schema", TRIAL_SCHEMA);
        sink.put_num("trial.max_events", 1000.0);
        for (key, value) in plan.to_kv() {
            let edit = edits.iter().find(|(k, _)| *k == key);
            sink.put_num(&key, edit.map_or(value, |&(_, v)| v));
        }
        for (key, _) in edits {
            assert!(plan.to_kv().iter().any(|(k, _)| k == key), "no key {key}");
        }
        sink.render()
    }

    #[test]
    fn replay_rejects_malformed_artifacts() {
        assert!(replay_artifact("{}").is_err());
        assert!(replay_artifact("not json").is_err());
        assert!(replay_artifact("{\"trial\": {\"scenario_index\": 99}}").is_err());
        // A zoo index at a size no cluster has, or crash_recover at t = 0;
        // then values that are not exact integers in 0..=2^53.
        let legacy = [
            ("0", "3", "1", "7", "10"),
            ("0", "0", "0", "7", "10"),
            ("0", "1000", "1", "7", "10"),
            ("2", "4", "0", "7", "10"),
            ("0.5", "4", "1", "7", "10"),
            ("-1", "4", "1", "7", "10"),
            ("0", "4.5", "1", "7", "10"),
            ("0", "4", "1.5", "7", "10"),
            ("0", "4", "1", "-7", "10"),
            ("0", "4", "1", "7.9", "10"),
            ("0", "4", "1", "1e30", "10"),
            ("0", "4", "1", "7", "10.5"),
            ("0", "4", "1", "7", "1e30"),
        ];
        for (index, n, t, seed, max_events) in legacy {
            let text = format!(
                "{{\"trial\": {{\"scenario_index\": {index}, \"n\": {n}, \"t\": {t}, \
                 \"seed\": {seed}, \"max_events\": {max_events}}}}}"
            );
            assert!(replay_artifact(&text).is_err(), "{text}");
        }
        // Plans that decode but could not be built: each must be an Err
        // from the decoder, never a panic in `build`.
        let silent = |pids: &[u32]| {
            let mut plan = ScenarioPlan::new("roles", 4, 1, 7);
            plan.roles = pids.iter().map(|&i| (Pid::new(i), Role::Silent)).collect();
            plan
        };
        let with_event = |action: Action| {
            let mut plan = ScenarioPlan::new("event", 4, 1, 7);
            plan.events.push(PlanEvent {
                at: Trigger::AtDelivery(10),
                action,
            });
            plan
        };
        let crash_recover = {
            let mut plan = silent(&[4]);
            plan.roles[0].1 = Role::CrashRecover {
                after: 10,
                down_for: 5,
            };
            plan
        };
        let lagged = {
            let mut plan = ScenarioPlan::new("lagged", 4, 1, 7);
            plan.layers = vec![SchedLayer::Lagged {
                slow: vec![Pid::new(4)],
                base: 2,
                factor: 9,
            }];
            plan
        };
        let mut cases: Vec<(ScenarioPlan, Vec<(&str, f64)>)> = vec![
            (silent(&[4]), vec![("plan.roles.r0.pid", 0.0)]),
            (silent(&[4]), vec![("plan.roles.r0.pid", 9.0)]),
            (silent(&[3, 4]), vec![]),
            (crash_recover, vec![("plan.roles.r0.b", 0.0)]),
            (Zoo::Rushing.plan(4, 1, 7), vec![("plan.layers.l0.a", 0.0)]),
            (Zoo::Rushing.plan(4, 1, 7), vec![("plan.layers.l0.b", 1.0)]),
            (
                Zoo::LossRetransmit.plan(4, 1, 7),
                vec![("plan.layers.l0.a", 1000.0)],
            ),
            (
                Zoo::LossRetransmit.plan(4, 1, 7),
                vec![("plan.layers.l0.d", 0.0)],
            ),
            (
                Zoo::HealedPartition.plan(4, 1, 7),
                vec![("plan.layers.l0.b", 0.0)],
            ),
            (
                Zoo::HeavyTail.plan(4, 1, 7),
                vec![("plan.layers.l0.b", 3.0)],
            ),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.layers.l0.a", 0.0)]),
            (
                Zoo::Benign.plan(4, 1, 7),
                vec![("plan.layers.l0.kind", 99.0)],
            ),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.layers.count", 0.0)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.n", 3.0)]),
            (
                ScenarioPlan::partition_heal_mid_coin(4, 1, 7),
                vec![("plan.layers.l0.a", 5000.0)],
            ),
            (lagged.clone(), vec![("plan.layers.l0.a", 0.0)]),
            (lagged.clone(), vec![("plan.layers.l0.b", 0.0)]),
            // Delays whose worst case overflows u64 (2^40 fits in a
            // to_kv value; the others are written as they would decode).
            (
                lagged,
                vec![
                    ("plan.layers.l0.a", 2f64.powi(40)),
                    ("plan.layers.l0.b", 2f64.powi(40)),
                ],
            ),
            (
                Zoo::HeavyTail.plan(4, 1, 7),
                vec![
                    ("plan.layers.l0.a", 2f64.powi(62)),
                    ("plan.layers.l0.b", 2f64.powi(63)),
                ],
            ),
            (
                Zoo::LossRetransmit.plan(4, 1, 7),
                vec![("plan.layers.l0.b", 2f64.powi(62))],
            ),
            (
                with_event(Action::Crash {
                    p: Pid::new(4),
                    down_for: Some(3),
                }),
                vec![("plan.events.e0.b", 0.0)],
            ),
            (
                with_event(Action::Crash {
                    p: Pid::new(4),
                    down_for: None,
                }),
                vec![("plan.events.e0.pid", 0.0)],
            ),
            (
                with_event(Action::Corrupt {
                    p: Pid::new(4),
                    role: Role::Silent,
                }),
                vec![("plan.events.e0.kind", 0.0)],
            ),
            // Values that are not exact integers in 0..=2^53, or out of
            // their field's range.
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.seed", -7.0)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.seed", 7.9)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.seed", 1e30)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.monitor", 0.5)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.monitor", 7.0)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.layers.l0.a", 2.5)]),
            (Zoo::Benign.plan(4, 1, 7), vec![("plan.n", 4.5)]),
            (
                with_event(Action::Crash {
                    p: Pid::new(4),
                    down_for: None,
                }),
                vec![
                    ("plan.events.e0.trigger", 2.0),
                    ("plan.events.e0.arg", 2f64.powi(32) + 1.0),
                ],
            ),
            (
                with_event(Action::Crash {
                    p: Pid::new(4),
                    down_for: None,
                }),
                vec![("plan.events.e0.a", 2.0)],
            ),
        ];
        // Events a run could not carry out: a crash of a silent or
        // Byzantine process, a corruption of a corrupted one, and event
        // victims that take the faulty count over t.
        let events = |roles: Vec<(u32, Role)>, actions: Vec<Action>| {
            let mut plan = ScenarioPlan::new("events", 4, 1, 7);
            plan.roles = roles.into_iter().map(|(i, r)| (Pid::new(i), r)).collect();
            for action in actions {
                plan.events.push(PlanEvent {
                    at: Trigger::AtDelivery(10),
                    action,
                });
            }
            (plan, vec![])
        };
        let crash = |i: u32, down_for: Option<u64>| Action::Crash {
            p: Pid::new(i),
            down_for,
        };
        let corrupt = |i: u32| Action::Corrupt {
            p: Pid::new(i),
            role: Role::FlippedVotes,
        };
        cases.extend([
            events(vec![(4, Role::Silent)], vec![crash(4, None)]),
            events(vec![(4, Role::FlippedVotes)], vec![crash(4, Some(3))]),
            events(vec![(4, Role::Crash { after: 5 })], vec![corrupt(4)]),
            events(vec![], vec![corrupt(4), corrupt(4)]),
            events(vec![], vec![corrupt(4), crash(4, None)]),
            events(vec![(3, Role::Silent)], vec![crash(4, None)]),
            events(vec![], vec![crash(3, Some(3)), crash(4, None)]),
        ]);
        // A pid given two roles: a silent liar, or an honest process
        // that is also silent and then corrupted.
        for roles in [
            [Role::Silent, Role::FlippedVotes],
            [Role::Honest, Role::Silent],
        ] {
            let mut plan = ScenarioPlan::new("two_roles", 7, 2, 7);
            let honest_first = roles[0] == Role::Honest;
            plan.roles = roles.map(|r| (Pid::new(4), r)).to_vec();
            if honest_first {
                plan.events.push(PlanEvent {
                    at: Trigger::AtDelivery(10),
                    action: corrupt(4),
                });
            }
            cases.push((plan, vec![]));
        }
        for (plan, edits) in cases {
            let text = plan_text(&plan, &edits);
            assert!(
                replay_artifact(&text).is_err(),
                "{} with {edits:?} decoded",
                plan.name
            );
        }
    }
}
