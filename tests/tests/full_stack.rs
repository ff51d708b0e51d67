//! Cross-crate integration: the full agreement stack under fault
//! injection, adversarial scheduling, and on both runtimes.

use rand::rngs::StdRng;
use rand::Rng;
use sba::net::{Envelope, Kinded};
use sba::sim::Scheduler;
use sba::{AbaMsg, Cluster, ClusterConfig, Gf61, Pid, Role, ScenarioPlan, SchedLayer};

/// The cluster's wire message.
type Msg = AbaMsg<Gf61>;

fn inputs_split(n: usize) -> Vec<Option<bool>> {
    (0..n).map(|i| Some(i % 2 == 0)).collect()
}

fn assert_agreement_under_every_fault_model(seeds: &[u64]) {
    let faults: Vec<(&str, Role)> = vec![
        ("no fault", Role::Honest),
        ("silent", Role::Silent),
        ("crash", Role::Crash { after: 1500 }),
        ("lying shares", Role::LyingShares { delta: 3 }),
        ("flipped votes", Role::FlippedVotes),
    ];
    for (label, fault) in faults {
        for &seed in seeds {
            let config = ClusterConfig::new(4, 1)
                .seed(seed)
                .fault(Pid::new(4), fault.clone());
            let mut cluster = Cluster::new(config, &inputs_split(4));
            let report = cluster.run(60_000_000);
            assert!(report.terminated, "{label} seed {seed}: no termination");
            assert!(report.agreement(), "{label} seed {seed}: disagreement");
            assert!(report.all_decided(), "{label} seed {seed}: undecided");
        }
    }
}

/// Theorem 1 smoke: termination + agreement across fault types at
/// n = 4, t = 1 (one seed per fault in tier 1).
#[test]
fn agreement_under_every_fault_model() {
    assert_agreement_under_every_fault_model(&[1]);
}

/// The same sweep across more seeds.
///
/// Slow tier: `cargo test -- --ignored` or `--include-ignored`.
#[test]
#[ignore = "slow tier: multi-seed fault sweep, ~10 cluster runs"]
fn agreement_under_every_fault_model_multi_seed() {
    assert_agreement_under_every_fault_model(&[2, 3]);
}

/// Validity: unanimous inputs decide that value even with a Byzantine
/// vote-flipper.
#[test]
fn validity_with_byzantine_voter() {
    for bit in [true, false] {
        let config = ClusterConfig::new(4, 1)
            .seed(9)
            .fault(Pid::new(2), Role::FlippedVotes);
        let inputs: Vec<Option<bool>> = vec![Some(bit); 4];
        let mut cluster = Cluster::new(config, &inputs);
        let report = cluster.run(60_000_000);
        assert!(report.terminated && report.agreement());
        for d in report.decisions.iter().flatten() {
            assert_eq!(*d, bit, "validity violated");
        }
    }
}

/// The lying-shares adversary gets shunned, and shun pairs never exceed
/// the paper's t(n−t) bound.
#[test]
fn lying_share_adversary_is_shunned_within_bound() {
    let n = 4;
    let t = 1;
    let config = ClusterConfig::new(n, t)
        .seed(4)
        .fault(Pid::new(4), Role::LyingShares { delta: 11 });
    let mut cluster = Cluster::new(config, &inputs_split(n));
    let report = cluster.run(60_000_000);
    assert!(report.terminated && report.agreement());
    // Bound: at most t(n−t) distinct (shunner, shunned) pairs.
    let mut pairs = report.shun_pairs.clone();
    pairs.sort();
    pairs.dedup();
    assert!(
        pairs.len() <= t * (n - t),
        "shun pairs exceed t(n−t): {pairs:?}"
    );
    // Every shunned process is the actual liar.
    for (_, shunned) in &pairs {
        assert_eq!(*shunned, Pid::new(4), "honest process shunned: {pairs:?}");
    }
    // ...and the liar is caught: its reconstruct points leave inside
    // vector inits, and the tamper must reach them there.
    assert!(!pairs.is_empty(), "forged points went undetected");
}

/// Adversarial link-skewed scheduling cannot break agreement.
#[test]
fn skewed_scheduler_agreement() {
    for seed in [3u64, 4] {
        let mut plan = ScenarioPlan::new("skewed", 4, 1, seed);
        plan.layers = vec![SchedLayer::Skewed { max_delay: 30 }];
        let report = plan.build().run(60_000_000);
        assert!(report.terminated && report.agreement(), "seed {seed}");
    }
}

/// Delays the vote-layer traffic of `victims` by `factor` while coin
/// traffic flows freely: the "reveal the coin early, then let the slow
/// votes land" schedule of a rushing adversary, which voids a round's
/// progress guarantee without violating safety. It reads ABA message
/// kinds, so it is a scheduler of its own rather than a `SchedLayer`.
struct CoinSteer {
    victims: Vec<Pid>,
    factor: u64,
}

impl Scheduler<Msg> for CoinSteer {
    fn delivery_time(&mut self, env: &Envelope<Msg>, now: u64, rng: &mut StdRng) -> u64 {
        let base = now + rng.gen_range(1..=4u64);
        // Every RB step of a vote carries its phase's label.
        let is_vote = matches!(env.msg.kind(), "aba/vote" | "aba/candidate");
        if is_vote && self.victims.contains(&env.from) {
            base + self.factor
        } else {
            base
        }
    }
}

/// The coin-steering scheduler (a rushing adversary) delays victims'
/// votes until after coin reveal; safety and termination hold.
#[test]
fn coin_steer_scheduler_agreement() {
    let config = ClusterConfig::new(4, 1).seed(5);
    let sched = CoinSteer {
        victims: vec![Pid::new(1), Pid::new(2)],
        factor: 500,
    };
    let mut cluster = Cluster::with_scheduler(config, &inputs_split(4), Box::new(sched));
    let report = cluster.run(120_000_000);
    assert!(report.terminated, "steered run must still terminate");
    assert!(report.agreement());
}

/// Determinism: a full cluster run replays bit-identically from its seed.
#[test]
fn cluster_replay() {
    let run = |seed: u64| {
        let config = ClusterConfig::new(4, 1).seed(seed);
        let mut cluster = Cluster::new(config, &inputs_split(4));
        let r = cluster.run(60_000_000);
        (r.decisions.clone(), r.messages, r.metrics.virtual_time)
    };
    assert_eq!(run(77), run(77));
}

/// A temporary network partition (t+1 / n−t−1 split) stalls but never
/// breaks agreement: progress resumes after the heal.
#[test]
fn partition_heals_and_agreement_completes() {
    let mut plan = ScenarioPlan::new("partition", 4, 1, 6);
    plan.layers = vec![SchedLayer::HealedPartition {
        group_a: vec![Pid::new(1), Pid::new(2)],
        heal_at: 5_000,
        base: 10,
    }];
    let report = plan.build().run(120_000_000);
    assert!(report.terminated, "agreement must resume after the heal");
    assert!(report.agreement());
    assert!(report.metrics.sched_held > 0, "the partition never held");
}

/// A three-slot replicated log over the real SCC coin (not the oracle):
/// repeated agreement against one shunning domain.
#[test]
fn scc_replicated_log_three_slots() {
    use sba::sim::{schedulers, Simulation};
    use sba::{AbaConfig, AbaNode, AbaProcess, Params};

    let n = 4;
    let params = Params::new(n, 1).unwrap();
    let procs: Vec<AbaProcess<Gf61>> = (1..=n as u32)
        .map(|i| {
            let node: AbaNode<Gf61> = AbaNode::new(
                Pid::new(i),
                AbaConfig::scc(params, 17 ^ (u64::from(i) << 32)),
            );
            let proposals: Vec<(u32, bool)> = (0..3).map(|s| (s, (s + i) % 2 == 0)).collect();
            AbaProcess::new(node, proposals)
        })
        .collect();
    let mut sim = Simulation::new(procs, schedulers::uniform(15), 23);
    let outcome = sim.run_until_all_done(400_000_000);
    assert!(outcome.all_done, "log did not complete");
    for s in 0..3 {
        let d: Vec<bool> = (1..=n as u32)
            .map(|i| sim.process(Pid::new(i)).node().decision(s).unwrap())
            .collect();
        assert!(d.iter().all(|&x| x == d[0]), "slot {s}: {d:?}");
    }
}

/// n = 7 with the full fault budget (t = 2): one silent process and one
/// vote-flipper, oracle coin (the vote layer is what is under test).
#[test]
fn n7_with_two_byzantine_faults() {
    use sba::{CoinMode, OracleCoin};
    let config = ClusterConfig::new(7, 2)
        .seed(3)
        .mode(CoinMode::Oracle(OracleCoin::new(9, 0)))
        .fault(Pid::new(6), Role::Silent)
        .fault(Pid::new(7), Role::FlippedVotes);
    let mut cluster = Cluster::new(config, &inputs_split(7));
    let report = cluster.run(80_000_000);
    assert!(report.terminated, "two-fault run must terminate");
    assert!(report.agreement());
}
