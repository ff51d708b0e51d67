//! Memory accounting across a full SCC agreement run: accepted RB
//! instances must retire, keeping the live working set bounded instead of
//! growing with the total instance count (PR 3's slab/retirement design),
//! and fully-drained coin sessions must retire out of the dense session
//! slab (PR 5) — including under an adversary that floods duplicates at
//! sessions that already retired.

use sba::{Cluster, ClusterConfig, Role};

#[test]
fn rb_instances_retire_during_full_scc_run() {
    let config = ClusterConfig::new(4, 1).seed(11);
    let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
    let mut cluster = Cluster::new(config, &inputs);
    let report = cluster.run(50_000_000);
    assert!(report.terminated, "n=4 SCC run must terminate");
    assert!(report.agreement(), "n=4 SCC run must agree");

    for &pid in cluster.honest() {
        let node = cluster
            .sim()
            .process(pid)
            .node()
            .expect("honest processes have nodes");
        let (live, peak, retired) = node.rb_instance_stats();
        println!("{pid}: live={live} peak={peak} retired={retired}");
        // The run creates hundreds of RB instances (one per origin
        // step, carrying tens of thousands of slot values); retirement
        // must reclaim the overwhelming majority. Without it, `live`
        // equals `live + retired` (everything stays resident forever).
        assert!(
            retired > 300,
            "{pid}: expected a full run to retire >300 instances, got {retired}"
        );
        assert!(
            live < retired / 2,
            "{pid}: live instances ({live}) not bounded vs retired ({retired})"
        );
        // The slab recycles freed slots, so the peak working set is the
        // real memory bound — it must stay a small fraction of the total
        // instance population too (without retirement the ratio is 1).
        assert!(
            peak < (live + retired) / 2,
            "{pid}: peak live set ({peak}) grew with total instances ({})",
            live + retired
        );
    }
}

/// Coin sessions of completed rounds retire out of the dense slab during
/// a full agreement run (PR 5): the run halts at `all_done`, so the
/// final round's sessions may still be live/mid-flight, but drained
/// earlier state must not stay resident.
#[test]
fn coin_sessions_retire_during_full_scc_run() {
    let config = ClusterConfig::new(4, 1).seed(3);
    let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
    let mut cluster = Cluster::new(config, &inputs);
    let report = cluster.run(50_000_000);
    assert!(report.terminated && report.agreement());
    // `run` halts at `all_done` with tails still in flight; retirement
    // needs the session's whole (finite) input space consumed, so drain
    // to quiescence first.
    cluster.sim_mut().run_to_quiescence(50_000_000);

    let mut any_retired = false;
    for &pid in cluster.honest() {
        let node = cluster
            .sim()
            .process(pid)
            .node()
            .expect("honest processes have nodes");
        let coin = node.coin().expect("SCC mode");
        let (live, peak, retired) = coin.session_stats();
        println!("{pid}: coin sessions live={live} peak={peak} retired={retired}");
        any_retired |= retired > 0;
        // The slab never holds more than the peak concurrently-live
        // count, and nothing is lost: every session is live or retired.
        assert!(live <= peak, "{pid}: slab accounting broken");
        assert!(
            live + retired >= u64::from(report.max_round) as usize,
            "{pid}: sessions lost (rounds={})",
            report.max_round
        );
    }
    assert!(
        any_retired,
        "no process retired any coin session over a {}-round run",
        report.max_round
    );
}

/// Retirement under fire: a Byzantine process that keeps re-sending its
/// lying shares floods sessions that already retired at honest
/// processes. The duplicates must die without resurrecting slots or
/// breaking agreement — the full-stack companion to the unit-level
/// `retired_sessions_drop_late_duplicate_and_tampered_traffic` in
/// `tests/tests/coin_adversarial.rs`.
#[test]
fn duplicate_flood_cannot_resurrect_retired_sessions() {
    let config = ClusterConfig::new(4, 1)
        .seed(7)
        .fault(sba::Pid::new(4), Role::LyingShares { delta: 5 });
    let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
    let mut cluster = Cluster::new(config, &inputs);
    let report = cluster.run(100_000_000);
    assert!(
        report.terminated,
        "run under duplicate flood must terminate"
    );
    assert!(report.agreement());
    for &pid in cluster.honest() {
        let node = cluster.sim().process(pid).node().expect("honest node");
        let coin = node.coin().expect("SCC mode");
        let (live, peak, retired) = coin.session_stats();
        println!("{pid}: coin sessions live={live} peak={peak} retired={retired}");
        assert!(live <= peak);
    }
}
