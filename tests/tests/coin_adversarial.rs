//! SCC under active adversaries: the correctness clause-2 path (property
//! failure ⇒ new shun pair), attach-set validation, and non-canonical
//! session-id injection.

use std::sync::{Arc, Mutex};

use sba::broadcast::Params;
use sba::coin::CoinMsg;
use sba::field::{Field, Gf61};
use sba::harness::CoinNet;
use sba::net::{Pid, ProcessSet, RbStep, Unpacked, WireKind};

type Msg = CoinMsg<Gf61>;

/// Lemma 4 clause 2: a forging process either leaves the coin common, or
/// some honest process shuns it. Across multiple sessions the attack
/// saturates: shun pairs stay within t(n−t) and name only the liar.
#[test]
fn forger_is_shunned_or_coin_is_common() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 23);
    let liar = Pid::new(4);
    net.set_tamper(liar, forger_tamper());
    for tag in 1..=3u64 {
        net.flip_all(tag);
        let outs = net.outputs(tag);
        // Termination holds for the honest trio regardless.
        for p in [1u32, 2, 3] {
            assert!(outs[(p - 1) as usize].is_some(), "p{p} session {tag}");
        }
        let honest: Vec<bool> = [1usize, 2, 3].iter().filter_map(|&i| outs[i - 1]).collect();
        let common = honest.windows(2).all(|w| w[0] == w[1]);
        if !common {
            assert!(
                net.shun_pairs().iter().any(|&(_, bad)| bad == liar),
                "session {tag}: coin not common and nobody shunned the liar"
            );
        }
    }
    let mut pairs = net.shun_pairs();
    pairs.sort();
    pairs.dedup();
    assert!(pairs.len() <= 3, "bound t(n−t): {pairs:?}");
    for (_, bad) in pairs {
        assert_eq!(bad, liar, "only the liar may be shunned");
    }
}

/// An attach broadcast with the wrong cardinality is ignored: its sender
/// is simply never accepted, and the coin still terminates on the other
/// n−t processes' attachments.
#[test]
fn malformed_attach_sets_ignored() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 31);
    net.set_tamper(Pid::new(4), |_to, msg: &Msg| {
        if msg.wire_kind() != WireKind::AttachInit {
            return None;
        }
        let Unpacked::CoinRb { slot, origin, .. } = msg.clone().unpack() else {
            return None;
        };
        // Oversized T set (|T| must be exactly t+1 = 2).
        let bogus: ProcessSet = Pid::all(4).collect();
        Some(CoinMsg::coin_rb(slot, origin, RbStep::Init, bogus))
    });
    net.flip_all(1);
    for p in [1u32, 2, 3] {
        assert!(
            net.outputs(1)[(p - 1) as usize].is_some(),
            "p{p} must terminate despite the malformed attach"
        );
    }
    assert!(
        net.shun_pairs().is_empty(),
        "malformed sets are not a shun offence"
    );
}

/// The reconstruct-point forger: shifts every reconstruct point it
/// originates by 5.
fn forger_tamper() -> impl FnMut(Pid, &Msg) -> Option<Msg> + Send + 'static {
    |_to, msg| sba::svss::forge_recon_points(msg, |_| Some(Gf61::from_u64(5)))
}

/// The adversarial sweep against recorded runs: under the forger, on a
/// pinned schedule, every process reports the recorded `CoinEvent`
/// stream, the recorded shun pairs and the recorded outputs, and the
/// session store retires what the sweep completes. The pins encode a
/// schedule — the simulator's seeded batched one, fingerprinted by its
/// run digest, so any change to the message population re-rolls it.
/// They were first recorded at the last commit that carried a reference
/// session map (plain hash map, no retirement), where map and slab were
/// asserted to produce the same streams in lockstep, delivery for
/// delivery; re-recorded when vector RB put a step's broadcasts into
/// one instance, and again when the sweep moved from a uniform draw
/// over single in-flight messages onto the simulator. What does not depend
/// on the schedule is asserted as such: the honest processes agree on
/// every coin, only the liar is shunned, and no session is lost. The
/// slab itself is model-checked in `sba_net`'s `interner_model.rs`.
#[test]
fn adversarial_sweep_matches_recorded_streams() {
    use sba::coin::CoinEvent::{Flipped, Shunned};
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 23);
    net.sim.enable_digest();
    let liar = Pid::new(4);
    net.set_tamper(liar, forger_tamper());
    // Per tag, what p1..p4 output; p4 is the liar.
    const COINS: [(u64, [bool; 4]); 3] = [
        (1, [false, false, false, true]),
        (2, [true; 4]),
        (3, [false; 4]),
    ];
    for (tag, values) in COINS {
        net.flip_all(tag);
        let outputs = net.outputs(tag);
        assert!(
            outputs[..3].iter().all(|o| o.is_some() && *o == outputs[0]),
            "tag {tag}: the honest processes disagree: {outputs:?}"
        );
        assert_eq!(outputs, values.map(Some), "tag {tag}");
    }
    let flips = |k: usize| {
        COINS.map(|(tag, values)| Flipped {
            tag,
            value: values[k],
        })
    };
    let honest = [&[Shunned { process: liar }][..], &flips(0)].concat();
    let events: Vec<_> = Pid::all(4).map(|p| net.events(p).to_vec()).collect();
    assert_eq!(
        events,
        [&honest[..], &honest, &honest, &flips(3)],
        "event streams moved"
    );
    assert!(net.shun_pairs().iter().all(|&(_, bad)| bad == liar));
    assert_eq!(
        net.shun_pairs(),
        [1, 2, 3].map(|p| (Pid::new(p), liar)),
        "shun pairs moved"
    );
    let delivered = (net.sim.metrics().messages_delivered, net.sim.digest());
    assert_eq!(
        delivered,
        (29_625, Some(0xb94b_6eda_3090_fdf7)),
        "delivery trace moved"
    );
    for (p, rb_peak) in Pid::all(4).zip([54, 55, 56, 60]) {
        let engine = net.engine(p);
        assert_eq!(engine.rb_instance_stats(), (0, rb_peak, 532), "{p}");
        let (live, peak, retired) = engine.session_stats();
        // The slab retires the fully-drained sessions and recycles
        // their slots; none of the three opened is lost.
        assert_eq!(live + retired, 3, "{p}: sessions lost");
        assert!(
            retired >= 1,
            "{p}: a fully drained honest sweep must retire sessions \
             (live={live} peak={peak} retired={retired})"
        );
    }
}

/// Session retirement edge cases (companion to
/// `tests/tests/retirement.rs`): after a session retires, late,
/// duplicate, and tampered coin messages for it — the full replayed
/// inbox plus conflicting-set variants of every RB step — are dropped
/// without output, without sends, and without resurrecting the slot;
/// `start` and `enable_reconstruct` re-invocations are equally inert;
/// `output()` still answers from the record.
#[test]
fn retired_sessions_drop_late_duplicate_and_tampered_traffic() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 51);
    let p2 = Pid::new(2);
    // Record every message p2 is ever sent — at quiescence, everything
    // it received — so it can be replayed later.
    let inbox: Arc<Mutex<Vec<(Pid, Msg)>>> = Arc::default();
    for p in Pid::all(4) {
        let inbox = Arc::clone(&inbox);
        net.set_tamper(p, move |to, msg: &Msg| {
            if to == p2 {
                inbox.lock().unwrap().push((p, msg.clone()));
            }
            None
        });
    }
    net.flip_all(1);
    let p2_inbox = std::mem::take(&mut *inbox.lock().unwrap());
    let value = net.engine(p2).output(1).expect("honest flip terminates");
    let (live_before, peak_before, retired_before) = net.engine(p2).session_stats();
    assert!(retired_before >= 1, "session 1 must have retired");
    let events_before = net.events(p2).len();
    let traffic = |net: &CoinNet<Gf61>| {
        let m = net.sim.metrics();
        (m.messages_sent, m.self_deliveries)
    };
    let traffic_before = traffic(&net);

    // Replay p2's whole inbox (duplicates) and a tampered variant of
    // every coin-RB message (conflicting sets, every RB step). All must
    // be inert: any answer would be sent or self-delivered.
    for (from, msg) in p2_inbox.clone() {
        net.act(p2, |e, s| e.on_message(from, msg, s));
    }
    for (from, msg) in p2_inbox {
        if !msg.wire_kind().is_coin_rb() {
            continue;
        }
        let Unpacked::CoinRb { slot, origin, .. } = msg.unpack() else {
            unreachable!()
        };
        for step in [RbStep::Init, RbStep::Echo, RbStep::Ready] {
            let bogus: ProcessSet = Pid::all(3).collect();
            let tampered = CoinMsg::coin_rb(slot, origin, step, bogus);
            net.act(p2, |e, s| e.on_message(from, tampered, s));
        }
    }
    net.act(p2, |e, sends| {
        e.start(1, sends);
        e.enable_reconstruct(1, sends);
        assert!(sends.is_empty(), "retired session restarted: {sends:?}");
    });
    assert_eq!(traffic(&net), traffic_before, "retired session answered");
    let engine = net.engine(p2);
    assert_eq!(
        engine.session_stats(),
        (live_before, peak_before, retired_before),
        "slot resurrected"
    );
    assert_eq!(engine.output(1), Some(value), "record lost");
    assert_eq!(
        net.events(p2).len(),
        events_before,
        "late traffic produced events: {:?}",
        &net.events(p2)[events_before..]
    );
}

/// Values are never leaked before reconstruct is enabled, even with an
/// eager adversary that enables its own reconstruction immediately.
#[test]
fn early_enabler_cannot_force_output() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 37);
    // Everyone starts; ONLY p4 enables reconstruct.
    net.act_all(|e, s| e.start(1, s));
    net.act(Pid::new(4), |e, s| e.enable_reconstruct(1, s));
    net.run();
    // p1..p3 must not have output (their gate is closed); p4 alone cannot
    // reconstruct degree-t secrets: SVSS-R needs all honest to begin R.
    for p in [1u32, 2, 3] {
        assert_eq!(net.outputs(1)[(p - 1) as usize], None, "p{p} leaked");
    }
    assert_eq!(net.outputs(1)[3], None, "p4 alone cannot reconstruct");
}
