//! Memory accounting across a full SCC agreement run: accepted RB
//! instances must retire, keeping the live working set bounded instead of
//! growing with the total instance count (PR 3's slab/retirement design),
//! and fully-drained coin sessions must retire out of the dense session
//! slab (PR 5) — including under an adversary that floods duplicates at
//! sessions that already retired. A finished MW-SVSS session retires to
//! its output record, and nothing that arrives for it later rebuilds it.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use sba::broadcast::Params;
use sba::field::{Field, Gf61};
use sba::harness::SvssNet;
use sba::net::{MwId, Pid, ProcessSet, RbStep, RbVector, Unpacked};
use sba::svss::{SvssMsg, SvssPriv, SvssRbValue, SvssSlot};
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

/// A finished MW session is inert: once a process has the output of a
/// standalone share and reconstruct, replaying every private message it
/// was sent (deals, points, monitor values), a fresh RB instance that
/// carries a value in every MW slot of the session, and the local
/// commands `mw_reconstruct` and `mw_set_moderator_input` builds no
/// machine, sends nothing of its own and reports no event, and the
/// output is still answered from the session's record.
#[test]
fn finished_mw_session_is_inert() {
    let (n, params) = (4, Params::new(4, 1).unwrap());
    let mut net = SvssNet::<Gf61>::new(params, 5);
    let (dealer, me) = (Pid::new(2), Pid::new(3));
    // Every private message `me` is sent, with its sender.
    let sent = Arc::new(Mutex::new(Vec::<(Pid, SvssPriv<Gf61>)>::new()));
    for from in Pid::all(n) {
        let sent = Arc::clone(&sent);
        net.set_tamper(from, move |to, msg| {
            if let (true, Unpacked::Priv(p)) = (to == me, msg.clone().unpack()) {
                sent.lock().unwrap().push((from, p));
            }
            None
        });
    }
    let id = MwId::standalone(1, dealer, me);
    let secret = Gf61::from_u64(77);
    net.mw_share(id, secret);
    net.mw_set_moderator_input(id, secret);
    net.run();
    net.mw_reconstruct_all(id);
    net.run();
    let output = net.engine(me).mw_output(id);
    assert_eq!(output.and_then(|o| o.value()), Some(secret));
    assert_eq!(net.engine(me).mw_machine_count(), 0, "retired at output");

    let late = std::mem::take(&mut *sent.lock().unwrap());
    let kinds: BTreeSet<_> = late
        .iter()
        .map(|(_, p)| match p {
            SvssPriv::MwDeal { .. } => "deal",
            SvssPriv::MwPoint { .. } => "point",
            SvssPriv::MwMonitorValue { .. } => "monitor value",
            SvssPriv::Rows { .. } => "rows",
        })
        .collect();
    assert_eq!(kinds, ["deal", "monitor value", "point"].into());

    let set: ProcessSet = Pid::all(n).collect();
    let mut members = vec![
        (SvssSlot::mw_ack(id), SvssRbValue::Unit),
        (SvssSlot::mw_l(id), SvssRbValue::Set(set)),
        (SvssSlot::mw_m(id), SvssRbValue::Set(set)),
        (SvssSlot::mw_ok(id), SvssRbValue::Unit),
    ];
    members.extend(Pid::all(n).map(|l| (SvssSlot::mw_recon(id, l), SvssRbValue::Value(secret))));
    members.sort_by_key(|m| m.0);
    let (origin, seq) = (Pid::new(1), 99);
    let vector = RbVector::new(origin, members);

    let events = net.events(me).len();
    net.act(me, |engine, sends| {
        let delivered = engine.rb_delivered_members();
        for (from, p) in &late {
            engine.on_message(*from, SvssMsg::private(p.clone()), sends);
        }
        for from in [Pid::new(1), Pid::new(2), Pid::new(4)] {
            let ready = SvssMsg::rb_vector(origin, seq, RbStep::Ready, vector.clone());
            engine.on_message(from, ready, sends);
        }
        assert_eq!(
            engine.rb_delivered_members(),
            delivered + 4 + n as u64,
            "every MW slot was delivered"
        );
        engine.mw_reconstruct(id, sends);
        engine.mw_set_moderator_input(id, secret, sends);
        assert_eq!(engine.mw_machine_count(), 0, "no machine rebuilt");
        assert_eq!(engine.mw_output(id), output, "answered from the record");
        // Only the injected instance's own RB relay leaves.
        for (_, m) in sends.iter() {
            let relay = matches!(
                m.clone().unpack(),
                Unpacked::RbVector { origin: o, seq: s, step: RbStep::Ready, .. }
                    if o == origin && s == seq
            );
            assert!(relay, "the finished session sent {m:?}");
        }
    });
    assert_eq!(net.events(me).len(), events, "no event");
}
