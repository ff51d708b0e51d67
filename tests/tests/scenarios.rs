//! The scenario zoo as tier-1 regression tests: every adversarial
//! environment in [`sba::Zoo`] gets one deterministic agreement +
//! validity test at a pinned seed, plus record/replay and
//! checkpoint/fork conformance over the bench trial harness.
//!
//! Everything here is a pure function of the pinned seed: the asserted
//! decisions, shun sets, and scheduler counters are exact, not
//! statistical. If a change to the stack moves any of them, that change
//! altered the schedule — which may be fine, but must be a conscious
//! re-pin, not drift.

use sba::svss::forge_recon_points;
use sba::{
    Action, Cluster, ClusterConfig, ClusterReport, Field, Gf61, Pid, PlanCoin, PlanEvent, Role,
    ScenarioPlan, SchedLayer, Trigger, Zoo,
};
use sba_bench::trial::{self, Trial};

/// The pinned tier-1 seed (matches the e11 artifact sweep).
const SEED: u64 = 7;

/// Runs a scenario at the canonical small size with split inputs.
fn run_zoo(zoo: Zoo) -> ClusterReport {
    zoo.plan(4, 1, SEED).build().run(60_000_000)
}

/// Asserts the invariants every scenario run must satisfy, plus the
/// pinned decision bit (split inputs make any common bit valid; the
/// *specific* bit is pinned by the seed).
fn assert_decided(zoo: Zoo, report: &ClusterReport, bit: bool) {
    assert!(report.terminated, "{}: no termination", zoo.name());
    assert!(report.all_decided(), "{}: undecided process", zoo.name());
    assert!(report.agreement(), "{}: disagreement", zoo.name());
    for d in report.decisions.iter().flatten() {
        assert_eq!(*d, bit, "{}: decision drifted off its pin", zoo.name());
    }
    // No scenario in the zoo is Byzantine: omission, delay, loss, and
    // reordering never produce shun evidence (shunning is reserved for
    // provable protocol violations).
    assert!(
        report.shun_pairs.is_empty(),
        "{}: spurious shun pairs {:?}",
        zoo.name(),
        report.shun_pairs
    );
}

/// Validity under this scenario: unanimous inputs decide that bit.
fn assert_validity(zoo: Zoo) {
    let inputs = vec![Some(true); 4];
    let report = zoo
        .plan(4, 1, SEED)
        .build_with_inputs(&inputs)
        .run(60_000_000);
    assert!(report.terminated && report.agreement(), "{}", zoo.name());
    for d in report.decisions.iter().flatten() {
        assert!(*d, "{}: validity violated", zoo.name());
    }
}

#[test]
fn benign_decides_and_is_quiet() {
    let report = run_zoo(Zoo::Benign);
    assert_decided(Zoo::Benign, &report, true);
    let m = &report.metrics;
    assert_eq!(m.sched_drops, 0);
    assert_eq!(m.sched_held, 0);
    assert_eq!(m.recoveries, 0);
    assert_eq!(m.processes_down, 0);
    assert_validity(Zoo::Benign);
}

#[test]
fn healed_partition_holds_then_releases_cross_traffic() {
    let report = run_zoo(Zoo::HealedPartition);
    assert_decided(Zoo::HealedPartition, &report, true);
    // The partition must actually bite: cross-group sends were held
    // behind the heal event and released afterwards (the run decided, so
    // release demonstrably happened).
    assert!(
        report.metrics.sched_held > 0,
        "partition never held a message"
    );
    assert_validity(Zoo::HealedPartition);
}

#[test]
fn crash_recover_catches_up_and_decides() {
    let report = run_zoo(Zoo::CrashRecover);
    assert_decided(Zoo::CrashRecover, &report, false);
    let m = &report.metrics;
    // Exactly one outage, fully recovered by decision time: the crashed
    // process replayed its missed backlog and reached its own decision
    // (all_decided above covers it — decisions has an entry for every
    // process, including the faulted slot).
    assert_eq!(m.recoveries, 1, "the crash must recover exactly once");
    assert_eq!(m.processes_down, 0, "nobody may still be down at the end");
    assert_validity(Zoo::CrashRecover);
}

#[test]
fn loss_retransmit_recovers_every_drop() {
    let report = run_zoo(Zoo::LossRetransmit);
    assert_decided(Zoo::LossRetransmit, &report, true);
    let m = &report.metrics;
    assert!(m.sched_drops > 0, "lossy links never dropped");
    // Bounded retransmission: every simulated loss was recovered by
    // exactly one retransmission (losses are folded into the delivery
    // delay, so eventual delivery is a structural invariant).
    assert_eq!(m.sched_retransmits, m.sched_drops);
    assert_validity(Zoo::LossRetransmit);
}

#[test]
fn rushing_target_cannot_break_agreement() {
    let report = run_zoo(Zoo::Rushing);
    assert_decided(Zoo::Rushing, &report, false);
    assert_validity(Zoo::Rushing);
}

#[test]
fn heavy_tail_delays_only_slow_the_run() {
    let report = run_zoo(Zoo::HeavyTail);
    assert_decided(Zoo::HeavyTail, &report, false);
    assert_validity(Zoo::HeavyTail);
}

/// Two identically-built clusters produce bit-identical `TraceEntry`
/// streams, metrics, and digests — the determinism contract the whole
/// record/replay harness rests on, asserted at the finest granularity
/// we have (every delivery's time, route, and kind).
#[test]
fn identical_runs_are_bit_identical() {
    let run = |_: ()| {
        let mut cluster = Zoo::LossRetransmit.plan(4, 1, SEED).build();
        cluster.sim_mut().enable_trace(1 << 20);
        cluster.run(60_000_000);
        let trace: Vec<sba::sim::TraceEntry> = cluster.sim().trace().cloned().collect();
        let metrics = cluster.sim().metrics().clone();
        (trace, metrics, cluster.digest())
    };
    let (trace_a, metrics_a, digest_a) = run(());
    let (trace_b, metrics_b, digest_b) = run(());
    assert!(!trace_a.is_empty(), "trace must record the run");
    assert_eq!(trace_a, trace_b, "trace streams diverged");
    assert_eq!(metrics_a, metrics_b, "metrics diverged");
    assert_eq!(digest_a, digest_b, "digests diverged");
}

/// Record a pinned run to a JSON artifact, replay it from the file, and
/// assert the replay reproduces every recorded value (digest included).
#[test]
fn recorded_artifact_replays_bit_identically() {
    let dir = std::env::temp_dir().join(format!("sba-replay-{}", std::process::id()));
    for zoo in [Zoo::Benign, Zoo::CrashRecover] {
        let trial = Trial::new(zoo.plan(4, 1, SEED));
        let (path, run) = trial::record(&trial, &dir).expect("record");
        let replay = trial::replay_file(&path).expect("artifact parses");
        assert!(
            replay.ok(),
            "{}: replay diverged: {:?}",
            zoo.name(),
            replay.mismatches
        );
        assert_eq!(replay.run.digest, run.digest);
        assert_eq!(replay.trial, trial);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fork conformance: resuming a mid-run checkpoint with the original
/// schedule reproduces the original tail exactly; forking with divergent
/// seeds yields different schedules that still decide.
#[test]
fn forked_checkpoints_resume_exactly_and_diverge_live() {
    let trial = Trial::new(Zoo::HealedPartition.plan(4, 1, SEED));
    let fork = trial::fork(&trial, 1_500, &[11, 22]);
    assert!(fork.branch_events >= 1_500, "branch point too early");
    assert!(
        fork.resume_faithful(),
        "same-seed resume must reproduce the original tail: {:016x} != {:016x}",
        fork.resumed_digest,
        fork.original.digest
    );
    assert!(fork.original.report.terminated && fork.original.report.agreement());
    for branch in &fork.branches {
        assert!(
            branch.report.terminated && branch.report.agreement(),
            "fork seed {} stalled",
            branch.seed
        );
        assert_ne!(
            branch.digest, fork.original.digest,
            "fork seed {} failed to diverge",
            branch.seed
        );
    }
}

/// A snapshot's monitor is its own: a same-stream resume of one
/// round-boundary checkpoint counts exactly the original's checks, two
/// reseeded branches count their own, and running any of them leaves
/// the original's report and the checkpoint's as they were.
#[test]
fn snapshot_branches_keep_their_own_monitors() {
    let mut original = ScenarioPlan::partition_heal_mid_coin(4, 1, SEED).build();
    assert!(
        original.advance_to_round(2, 60_000_000),
        "round 2 never started"
    );
    let ck = original.snapshot();
    let at_branch = ck.monitor_report().expect("compound plans are monitored");
    assert!(
        at_branch.checks > 0,
        "the branch point follows monitored deliveries"
    );

    original.run(60_000_000);
    let before = original.monitor_report().expect("monitored");
    assert!(before.checks > at_branch.checks, "the original ran on");
    let frozen = ck.monitor_report().expect("monitored");
    assert_eq!(
        frozen.checks, at_branch.checks,
        "the original's tail leaked into the checkpoint"
    );

    let mut resumed = ck.snapshot();
    resumed.run(60_000_000);
    let replayed = resumed.monitor_report().expect("monitored");
    assert_eq!(replayed.checks, before.checks, "the resume diverged");
    for seed in [11, 22] {
        let mut branch = ck.snapshot();
        branch.sim_mut().reseed(seed);
        let report = branch.run(60_000_000);
        assert!(report.terminated && report.agreement(), "fork seed {seed}");
        let own = branch.monitor_report().expect("monitored");
        assert!(own.checks > at_branch.checks, "fork seed {seed}");
        assert_eq!(own.violations_total, 0, "fork seed {seed}");
    }
    let after = original.monitor_report().expect("monitored");
    assert_eq!(
        after.checks, before.checks,
        "a branch's checks leaked into the original"
    );
    assert_eq!(after.violations_total, before.violations_total);
    let still = ck.monitor_report().expect("monitored");
    assert_eq!(
        still.checks, at_branch.checks,
        "a branch leaked into its checkpoint"
    );
}

/// The checker's findings, pinned: a monitored n=4, t=1 run (seed 4,
/// alternating inputs, delays up to 20) in which p4 keeps
/// [`Role::Honest`] but forges every reconstruction point it sends. The
/// checker takes p4 at its role, so each honest process that shuns it
/// is an `honest-pair-shun`, recorded once per new shun-log entry, in
/// the order the entries were made.
#[test]
fn monitor_findings_are_pinned() {
    let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
    let mut cluster = Cluster::new(ClusterConfig::new(4, 1).seed(4), &inputs);
    cluster.sim_mut().enable_digest();
    cluster.enable_monitor();
    cluster.set_tamper(Pid::new(4), |_, msg| {
        forge_recon_points(msg, |_| Some(Gf61::from_u64(11)))
    });
    let report = cluster.run(60_000_000);
    let decisions: String = (report.decisions.iter())
        .map(|d| d.map_or('-', |b| if b { '1' } else { '0' }))
        .collect();
    let digest = cluster.digest().expect("digest enabled");
    assert_eq!(
        (digest, report.messages, decisions.as_str()),
        (0x0e08_cfe5_a6d3_8ed2, 21_462, "1111")
    );
    let monitor = cluster.monitor_report().expect("monitored");
    let found: Vec<(&str, &str)> = (monitor.violations.iter())
        .map(|v| (v.invariant, v.detail.as_str()))
        .collect();
    assert_eq!(monitor.violations_total, 3, "{found:?}");
    assert_eq!(
        found,
        [
            ("honest-pair-shun", "honest p2 shunned honest p4"),
            ("honest-pair-shun", "honest p1 shunned honest p4"),
            ("honest-pair-shun", "honest p3 shunned honest p4"),
        ]
    );
}

/// Builds a zoo scenario the way the pre-plan code did — explicit
/// config, fault, and one bare scheduler layer, no [`ScenarioPlan`]
/// involved. Kept as an independent reference implementation so the
/// next test can prove the plan DSL (its checks, its layer stack, its
/// event runner) is a faithful re-expression, not a behavioural
/// rewrite.
fn legacy_cluster(zoo: Zoo, n: usize, t: usize, seed: u64) -> Cluster {
    let inputs: Vec<Option<bool>> = (0..n).map(|i| Some(i % 2 == 0)).collect();
    let mut config = ClusterConfig::new(n, t).seed(seed);
    if zoo == Zoo::CrashRecover {
        config = config.fault(
            Pid::new(n as u32),
            Role::CrashRecover {
                after: 300,
                down_for: 500,
            },
        );
    }
    let group_a: Vec<Pid> = Pid::all(n.div_ceil(2)).collect();
    let layer = match zoo {
        Zoo::Benign => SchedLayer::Uniform { max_delay: 20 },
        Zoo::HealedPartition => SchedLayer::HealedPartition {
            group_a,
            heal_at: 400,
            base: 6,
        },
        Zoo::CrashRecover => SchedLayer::Uniform { max_delay: 12 },
        Zoo::LossRetransmit => SchedLayer::LossRetransmit {
            loss_permille: 200,
            rto: 40,
            max_retries: 3,
            base: 8,
        },
        Zoo::Rushing => SchedLayer::Rushing {
            target: Pid::new(1),
            window: 30,
        },
        Zoo::HeavyTail => SchedLayer::HeavyTail { base: 4, cap: 800 },
    };
    let mut cluster = Cluster::with_scheduler(config, &inputs, layer.build());
    cluster.sim_mut().enable_digest();
    cluster
}

/// Every [`Zoo`] entry is now *defined* by its [`Zoo::plan`] literal;
/// this pins that the plan-built cluster is bit-identical (digest and
/// metrics) to the legacy hand-wired construction it replaced.
#[test]
fn plan_built_zoo_matches_legacy_construction_bit_for_bit() {
    for zoo in Zoo::ALL {
        let mut legacy = legacy_cluster(zoo, 4, 1, SEED);
        let legacy_report = legacy.run(60_000_000);
        let mut planned = zoo.plan(4, 1, SEED).build();
        let planned_report = planned.run(60_000_000);
        assert_eq!(
            legacy.digest(),
            planned.digest(),
            "{}: plan-built digest diverged from legacy construction",
            zoo.name()
        );
        assert_eq!(
            legacy_report.metrics,
            planned_report.metrics,
            "{}: metrics diverged",
            zoo.name()
        );
    }
}

/// The three compound fault plans — partition healed mid-coin, crash
/// stretched across a recovery, loss under a rushing adversary — run
/// with the invariant monitor riding every delivery: each must
/// terminate in agreement with zero violations, actually exercise its
/// fault (held traffic, a recovery, drops), and round-trip through a
/// recorded artifact bit-identically.
#[test]
fn compound_plans_run_clean_under_the_monitor() {
    let dir = std::env::temp_dir().join(format!("sba-compound-{}", std::process::id()));
    for plan in ScenarioPlan::compounds(4, 1, SEED) {
        let trial = Trial::new(plan.clone());
        let (path, run) = trial::record(&trial, &dir).expect("record");
        assert!(
            run.report.terminated && run.report.all_decided() && run.report.agreement(),
            "{}: compound run failed to decide",
            plan.name
        );
        assert_eq!(
            run.monitor_ok(),
            Some(true),
            "{}: invariant monitor reported violations",
            plan.name
        );
        let m = &run.report.metrics;
        match plan.name.as_str() {
            "partition_heal_mid_coin" => {
                assert!(m.sched_held > 0, "partition never held a message");
            }
            "crash_during_recovery" => {
                assert_eq!(m.recoveries, 1, "the stretched outage must recover once");
            }
            "loss_plus_rushing" => {
                assert!(m.sched_drops > 0, "lossy layer never dropped");
                assert_eq!(m.sched_retransmits, m.sched_drops);
            }
            other => panic!("unexpected compound plan {other}"),
        }
        let replay = trial::replay_file(&path).expect("artifact parses");
        assert!(
            replay.ok(),
            "{}: replay diverged: {:?}",
            plan.name,
            replay.mismatches
        );
        assert_eq!(replay.trial, trial, "plan did not survive the artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The monitor does not change the run: each compound plan, run with
/// and without it, delivers the same messages (equal digests) and ends
/// with equal metrics, field for field.
#[test]
fn the_monitor_leaves_the_run_unchanged() {
    for plan in ScenarioPlan::compounds(4, 1, SEED) {
        let run = |monitor| {
            let plan = ScenarioPlan {
                monitor,
                ..plan.clone()
            };
            let mut cluster = plan.build();
            let report = cluster.run(60_000_000);
            assert_eq!(cluster.monitor_report().is_some(), monitor);
            (cluster.digest(), report.metrics)
        };
        assert_eq!(run(true), run(false), "{}", plan.name);
    }
}

/// The zoo is size-generic: two scenarios pinned at n=16 (t=5) with an
/// oracle coin standing in for the high-degree-in-n shunning coin. The
/// decision bits and the partition actually biting are exact pins.
#[test]
fn zoo_scales_to_n16_with_an_oracle_coin() {
    for (zoo, bit) in [(Zoo::Benign, false), (Zoo::HealedPartition, true)] {
        let mut plan = zoo.plan(16, 5, SEED);
        plan.coin = PlanCoin::Oracle { seed: SEED };
        let report = plan.build().run(60_000_000);
        assert!(
            report.terminated && report.all_decided() && report.agreement(),
            "{} at n=16 failed to decide",
            zoo.name()
        );
        for d in report.decisions.iter().flatten() {
            assert_eq!(*d, bit, "{} at n=16: decision drifted", zoo.name());
        }
        assert!(report.shun_pairs.is_empty(), "{} at n=16", zoo.name());
        if zoo == Zoo::HealedPartition {
            assert!(
                report.metrics.sched_held > 0,
                "n=16 partition never held a message"
            );
        }
    }
}

/// The whole zoo at n=31 (t=10): every scenario still terminates in
/// agreement at the largest odd size under the word cap.
///
/// Slow tier: `cargo test -- --ignored` or `--include-ignored`.
#[test]
#[ignore = "slow tier: full zoo at n=31, ~6 large cluster runs"]
fn zoo_sweeps_at_n31_with_an_oracle_coin() {
    for zoo in Zoo::ALL {
        let mut plan = zoo.plan(31, 10, SEED);
        plan.coin = PlanCoin::Oracle { seed: SEED };
        let report = plan.build().run(120_000_000);
        assert!(
            report.terminated && report.all_decided() && report.agreement(),
            "{} at n=31 failed to decide",
            zoo.name()
        );
        assert!(report.shun_pairs.is_empty(), "{} at n=31", zoo.name());
    }
}

/// The whole zoo across extra seeds.
///
/// Slow tier: `cargo test -- --ignored` or `--include-ignored`.
#[test]
#[ignore = "slow tier: zoo x multi-seed sweep, ~18 cluster runs"]
fn zoo_multi_seed_sweep() {
    for zoo in Zoo::ALL {
        for seed in [1u64, 2, 3] {
            let report = zoo.plan(4, 1, seed).build().run(60_000_000);
            assert!(
                report.terminated && report.all_decided() && report.agreement(),
                "{} seed {seed} failed",
                zoo.name()
            );
            assert!(report.shun_pairs.is_empty(), "{} seed {seed}", zoo.name());
        }
    }
}

/// Replay conformance for every scenario (tier 1 covers two).
///
/// Slow tier: `cargo test -- --ignored` or `--include-ignored`.
#[test]
#[ignore = "slow tier: record+replay all six scenarios"]
fn every_scenario_replays_bit_identically() {
    let dir = std::env::temp_dir().join(format!("sba-replay-all-{}", std::process::id()));
    for zoo in Zoo::ALL {
        let trial = Trial::new(zoo.plan(4, 1, SEED));
        let (path, _) = trial::record(&trial, &dir).expect("record");
        let replay = trial::replay_file(&path).expect("artifact parses");
        assert!(replay.ok(), "{}: {:?}", zoo.name(), replay.mismatches);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The identity oracle for the fault path: one monitored n=4, t=1 run
/// per non-honest [`Role`] on p4, per [`Action::Corrupt`] of an honest
/// p4 into each of them, per [`Action::Crash`] shape, and for a
/// re-crash of a crash-recovering p4 inside its outage. Every count is
/// exact; a change that moves one changed what a faulty process does.
///
/// Columns: plan, digest, messages sent, decisions of p1..p4 (`-` for
/// none), max decision round, processes down and recoveries at the
/// end, monitor checks.
#[test]
fn every_role_and_action_is_pinned() {
    const PINS: &str = "\
role silent           f0f613b236d69b23   5352 111- 1 1 0   5708
role crash            ff14d31f3ab846bf  10626 000- 1 1 0   8360
role crash_recover    34dcd34e2f0cb23d  23715 1111 1 0 1  20420
role lying_shares     c2ad26e2799efc7c  23634 111- 2 0 0  31380
role flipped_votes    53f4ea416af5c098  13425 111- 1 0 0  17860
role equivocating     6a6ced2c8f13ab38  13386 111- 1 0 0  17720
corrupt silent        cf231e0513ca08e2   8406 000- 1 1 0   8036
corrupt crash         fda83c4245cbb03f  10860 000- 1 1 0   9260
corrupt crash_recover 3f005153d6378b9c  49692 0000 2 0 1  50896
corrupt lying_shares  c2ad26e2799efc7c  23634 111- 2 0 0  31428
corrupt flipped_votes 829382743494e677  27567 111- 2 0 0  38800
corrupt equivocating  5cb2361947af4599  27195 000- 2 0 0  37604
crash none            cf231e0513ca08e2   8406 000- 1 1 0   8036
crash some            8d9d587a01a96ea0  48645 0000 2 0 1  44696
recrash mid-outage    ea4cf9b8d118b8a2  53316 0000 2 0 1  46616";
    let p4 = Pid::new(4);
    let faulty = [
        ("silent", Role::Silent),
        ("crash", Role::Crash { after: 400 }),
        (
            "crash_recover",
            Role::CrashRecover {
                after: 300,
                down_for: 500,
            },
        ),
        ("lying_shares", Role::LyingShares { delta: 5 }),
        ("flipped_votes", Role::FlippedVotes),
        ("equivocating", Role::Equivocating),
    ];
    let plan = |name: String, roles: Vec<(Pid, Role)>, at: u64, action: Option<Action>| {
        let mut plan = ScenarioPlan::new(&name, 4, 1, SEED);
        plan.roles = roles;
        plan.events = action
            .map(|action| PlanEvent {
                at: Trigger::AtDelivery(at),
                action,
            })
            .into_iter()
            .collect();
        plan.monitor = true;
        plan
    };
    let mut plans = Vec::new();
    for (name, role) in &faulty {
        plans.push(plan(
            format!("role {name}"),
            vec![(p4, role.clone())],
            0,
            None,
        ));
    }
    for (name, role) in &faulty {
        let role = role.clone();
        let corrupt = Action::Corrupt { p: p4, role };
        plans.push(plan(format!("corrupt {name}"), vec![], 400, Some(corrupt)));
    }
    for (name, down_for) in [("none", None), ("some", Some(600))] {
        let crash = Action::Crash { p: p4, down_for };
        plans.push(plan(format!("crash {name}"), vec![], 400, Some(crash)));
    }
    let recrash = Action::Crash {
        p: p4,
        down_for: Some(600),
    };
    let outage = vec![(p4, faulty[2].1.clone())];
    plans.push(plan(
        "recrash mid-outage".into(),
        outage,
        700,
        Some(recrash),
    ));
    // The re-crash lands inside the static outage: p4 is down, not yet
    // recovered, one delivery before it fires.
    let mut probe = plans.last().expect("just pushed").build();
    probe.advance_until(60_000_000, |sim| sim.metrics().messages_delivered >= 699);
    let m = probe.sim().metrics();
    assert_eq!((m.processes_down, m.recoveries), (1, 0), "p4 is mid-outage");
    let got: Vec<String> = plans
        .iter()
        .map(|plan| {
            let mut cluster = plan.build();
            let report = cluster.run(60_000_000);
            assert!(report.terminated && report.agreement(), "{}", plan.name);
            let monitor = cluster.monitor_report().expect("monitored");
            assert!(monitor.ok(), "{}: {:?}", plan.name, monitor.violations);
            let decisions: String = (report.decisions.iter())
                .map(|d| d.map_or('-', |b| if b { '1' } else { '0' }))
                .collect();
            let m = &report.metrics;
            format!(
                "{:<21} {:016x} {:>6} {decisions} {} {} {} {:>6}",
                plan.name,
                cluster.digest().expect("plans record a digest"),
                report.messages,
                report.max_round,
                m.processes_down,
                m.recoveries,
                monitor.checks,
            )
        })
        .collect();
    assert_eq!(
        PINS.lines().collect::<Vec<_>>(),
        got,
        "actual pins:\n{}",
        got.join("\n")
    );
}

/// [`Cluster::honest`] is the fault-free set: the processes whose role
/// is [`Role::Honest`]. A p4 crashed mid-run with a recovery point (the
/// "crash some" plan above) leaves it, as a p4 that starts out
/// crash-recovering is never in it.
#[test]
fn a_crash_recovering_process_is_not_fault_free() {
    let p4 = Pid::new(4);
    let mut timed = ScenarioPlan::new("crash some", 4, 1, SEED);
    timed.events = vec![PlanEvent {
        at: Trigger::AtDelivery(400),
        action: Action::Crash {
            p: p4,
            down_for: Some(600),
        },
    }];
    let mut fixed = ScenarioPlan::new("static crash_recover", 4, 1, SEED);
    fixed.roles = vec![(
        p4,
        Role::CrashRecover {
            after: 300,
            down_for: 500,
        },
    )];
    for plan in [timed, fixed] {
        let mut cluster = plan.build();
        let report = cluster.run(60_000_000);
        assert!(report.terminated && report.agreement(), "{}", plan.name);
        let fault_free = [Pid::new(1), Pid::new(2), Pid::new(3)];
        assert_eq!(cluster.honest(), fault_free, "{}", plan.name);
    }
}
