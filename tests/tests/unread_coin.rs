//! The coin nobody reads is not dealt: a process whose own round-`r`
//! outcome is `Decide` enters round `r+1` without dealing its coin (the
//! round lemma in `sba_aba`'s node module doc says no honest process
//! reads it). Counted with the coin engine's own session store.

use sba::{Cluster, ClusterConfig, Pid};

/// The coin tag of `round` in agreement instance 0 (the node packs the
/// instance above a 24-bit round).
fn round_tag(round: u32) -> u64 {
    u64::from(round)
}

/// Coin sessions this process ever opened: live plus retired.
fn sessions(cluster: &Cluster, p: Pid) -> usize {
    let coin = cluster.sim().process(p).node().and_then(|n| n.coin());
    let (live, _, retired) = coin.expect("SCC mode").session_stats();
    live + retired
}

#[test]
fn a_round_one_decision_opens_one_coin_session_per_process() {
    for seed in [3u64, 11, 42] {
        let mut cluster = Cluster::new(ClusterConfig::new(4, 1).seed(seed), &[Some(true); 4]);
        let report = cluster.run(60_000_000);
        assert!(report.terminated && report.agreement(), "seed {seed}");
        assert_eq!(
            report.rounds,
            vec![Some(1); 4],
            "seed {seed}: decide rounds"
        );
        // Drain the tail too: nothing still in flight may open round 2.
        cluster.sim_mut().run_to_quiescence(60_000_000);
        for p in Pid::all(4) {
            assert_eq!(sessions(&cluster, p), 1, "seed {seed}: {p:?}");
            let coin = cluster.sim().process(p).node().and_then(|n| n.coin());
            assert_eq!(coin.expect("SCC mode").output(round_tag(2)), None);
        }
    }
}

#[test]
fn a_round_two_decision_still_halts_under_the_monitor() {
    // Split inputs; this seed's round 1 decides nothing, so every process
    // deals round 2's coin and none deals round 3's.
    let seed = 11;
    let inputs = [Some(false), Some(true), Some(false), Some(true)];
    let mut cluster = Cluster::new(ClusterConfig::new(4, 1).seed(seed), &inputs);
    cluster.enable_monitor();
    let report = cluster.run(60_000_000);
    assert!(report.terminated && report.agreement());
    assert_eq!(report.rounds, vec![Some(2); 4], "decide rounds");
    let monitor = cluster.monitor_report().expect("monitor installed");
    assert!(monitor.ok(), "{:?}", monitor.violations);
    assert!(report.shun_pairs.is_empty(), "{:?}", report.shun_pairs);
    for p in Pid::all(4) {
        assert!(sessions(&cluster, p) <= 2, "{p:?}");
    }
}
