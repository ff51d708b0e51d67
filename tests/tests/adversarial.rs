//! Adversarial edge cases beyond the headline properties: lying
//! moderators, forged `G`-set broadcasts, malformed messages, and the
//! DMM's expectation-liveness guarantees (Lemma 1).

use std::sync::{Arc, Mutex};

use sba::broadcast::Params;
use sba::field::{Field, Gf61};
use sba::harness::{CoinNet, SvssNet};
use sba::net::{MwId, Pid, ProcessSet, SlotKind, SvssId, Unpacked, Wire, WireKind};
use sba::svss::{
    GsetsBody, MwDealBody, Reconstructed, RowsBody, SvssEvent, SvssMsg, SvssPriv, SvssRbValue,
};
use sba::Role;

/// `msg` with every value of slot family `kind` this init message
/// originates (scalar, or inside a vector) replaced by `forged`, if it
/// originates one.
fn forge(msg: &SvssMsg<Gf61>, kind: SlotKind, forged: &SvssRbValue<Gf61>) -> Option<SvssMsg<Gf61>> {
    msg.rewrite_inits(|slot, _| (slot.kind() == kind).then(|| forged.clone()))
}

fn f(v: u64) -> Gf61 {
    Gf61::from_u64(v)
}

/// A moderator that broadcasts a forged (undersized) `M` set: honest
/// processes must simply never complete the share (moderation is a
/// liveness gate, not a safety risk).
#[test]
fn forged_m_set_blocks_completion_only() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 3);
    let id = MwId::standalone(1, Pid::new(1), Pid::new(2));
    // Moderator p2 replaces its M broadcast with a singleton set.
    let forged = SvssRbValue::Set([Pid::new(3)].into_iter().collect());
    net.set_tamper(Pid::new(2), move |_to, msg| {
        forge(msg, SlotKind::MwM, &forged)
    });
    net.mw_share(id, f(5));
    net.mw_set_moderator_input(id, f(5));
    net.run();
    // The dealer cannot validate the forged M̂ (it only has one member, so
    // the OK gate may or may not fire) — but no honest process may end up
    // with an output that differs from another's.
    net.mw_reconstruct_all(id);
    net.run();
    let outs: Vec<Option<Gf61>> = [1u32, 3, 4]
        .iter()
        .filter_map(|&i| net.engine(Pid::new(i)).mw_output(id))
        .map(Reconstructed::value)
        .collect();
    let non_bottom: Vec<Gf61> = outs.iter().flatten().copied().collect();
    assert!(
        non_bottom.windows(2).all(|w| w[0] == w[1]),
        "forged M produced divergent non-⊥ outputs: {outs:?}"
    );
}

/// A dealer broadcasting malformed `G` sets (missing self-inclusion,
/// undersized) is ignored: share never completes, nothing panics.
#[test]
fn invalid_gsets_are_ignored() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 5);
    let sid = SvssId::new(1, Pid::new(1));
    // Broadcast G sets without self-inclusion.
    let g: ProcessSet = Pid::all(3).collect();
    let members: Vec<(Pid, ProcessSet)> = Pid::all(3)
        .map(|j| {
            let others: ProcessSet = Pid::all(4).filter(|&l| l != j).collect();
            (j, others)
        })
        .collect();
    let forged = SvssRbValue::Gsets(Box::new(GsetsBody { g, members }));
    net.set_tamper(Pid::new(1), move |_to, msg| {
        forge(msg, SlotKind::Gsets, &forged)
    });
    net.share(sid, f(9));
    net.run();
    for p in Pid::all(4).skip(1) {
        assert!(
            !net.engine(p).share_completed(sid),
            "{p} accepted invalid G sets"
        );
    }
}

/// Malformed private messages (wrong vector sizes, bogus ids) are dropped
/// without panicking and without corrupting live sessions.
#[test]
fn malformed_messages_are_inert() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 6);
    let sid = SvssId::new(1, Pid::new(1));
    net.share(sid, f(77));
    // Inject garbage from p4 into everyone.
    let bogus_mw = MwId::standalone(2, Pid::new(99), Pid::new(98));
    for to in Pid::all(4) {
        net.push_raw(
            Pid::new(4),
            to,
            SvssMsg::private(SvssPriv::MwDeal {
                mw: bogus_mw,
                deal: Box::new(MwDealBody {
                    others: vec![f(1); 2], // wrong length (n−1 = 3 expected)
                    monitor_poly: vec![f(1); 9],
                    moderator_poly: None,
                }),
            }),
        );
        net.push_raw(
            Pid::new(4),
            to,
            SvssMsg::private(SvssPriv::Rows {
                session: sid,
                rows: Box::new(RowsBody {
                    g: vec![f(1); 9], // degree too high AND from non-dealer
                    h: vec![],
                }),
            }),
        );
    }
    net.run();
    assert!(net.all_shares_completed(sid));
    net.reconstruct_all(sid);
    net.run();
    for (p, out) in net.outputs(sid) {
        assert_eq!(out.and_then(Reconstructed::value), Some(f(77)), "{p}");
    }
}

/// Lemma 1(b) liveness: after a fully honest share + reconstruct, every
/// ACK/DEAL expectation has been resolved at every process.
#[test]
fn expectations_drain_after_reconstruct() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 8);
    let id = MwId::standalone(1, Pid::new(2), Pid::new(3));
    net.mw_share(id, f(3));
    net.mw_set_moderator_input(id, f(3));
    net.run();
    net.mw_reconstruct_all(id);
    net.run();
    for p in Pid::all(4) {
        let (ack, deal) = net.engine(p).dmm().expectation_counts();
        assert_eq!(
            (ack, deal),
            (0, 0),
            "{p} has unresolved expectations after full reconstruct"
        );
    }
}

/// Shunning is monotone and bounded: repeating the forging attack across
/// many sessions never produces more than t(n−t) distinct pairs, and the
/// attacker is eventually fully muted (later sessions run clean).
#[test]
fn repeated_attacks_saturate_shun_pairs() {
    let params = Params::new(4, 1).unwrap();
    let n = 4;
    let t = 1;
    let mut net = SvssNet::<Gf61>::new(params, 13);
    let liar = Pid::new(4);
    net.corrupt(liar, Role::LyingShares { delta: 2 });
    for session in 1..=5u64 {
        let id = MwId::standalone(session, Pid::new(1), Pid::new(2));
        net.mw_share(id, f(session * 7));
        net.mw_set_moderator_input(id, f(session * 7));
        net.run();
        net.mw_reconstruct_all(id);
        net.run();
    }
    let mut pairs = net.shun_pairs();
    pairs.sort();
    pairs.dedup();
    assert!(
        pairs.len() <= t * (n - t),
        "shun pairs exceed bound: {pairs:?}"
    );
    for (_, shunned) in &pairs {
        assert_eq!(*shunned, liar, "only the liar may be shunned");
    }
}

/// The standalone-MW event stream reports exactly one completion and one
/// output per session per process.
#[test]
fn events_are_exactly_once() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 21);
    let id = MwId::standalone(1, Pid::new(1), Pid::new(2));
    net.mw_share(id, f(4));
    net.mw_set_moderator_input(id, f(4));
    net.run();
    net.mw_reconstruct_all(id);
    net.run();
    for p in Pid::all(4) {
        let completions = net
            .events(p)
            .iter()
            .filter(|e| matches!(e, SvssEvent::MwShareCompleted(i) if *i == id))
            .count();
        let outputs = net
            .events(p)
            .iter()
            .filter(|e| matches!(e, SvssEvent::MwReconstructed(i, _) if *i == id))
            .count();
        assert_eq!((completions, outputs), (1, 1), "{p}");
    }
}

/// Memory hygiene (Theorem 1 mentions polynomial memory): after a full
/// share + reconstruct, finished MW machines and the reconstruct log are
/// dropped.
#[test]
fn finished_sessions_are_garbage_collected() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 30);
    let sid = SvssId::new(1, Pid::new(1));
    net.share(sid, f(11));
    net.run();
    net.reconstruct_all(sid);
    net.run();
    // n = 4 creates 4·C(4,2) = 24 MW invocations; every *reconstructed*
    // one must be dropped. Sessions of pairs outside the frozen Ĝ never
    // reconstruct and legitimately stay resident (bounded by the session).
    for p in Pid::all(4) {
        assert!(
            net.engine(p).mw_machine_count() <= 12,
            "{p}: reconstructed MW machines must be dropped (left {})",
            net.engine(p).mw_machine_count()
        );
        assert_eq!(
            net.engine(p).dmm().recon_log_len(),
            0,
            "{p}: reconstruct log must be pruned"
        );
        // Outputs survive the GC.
        assert_eq!(
            net.engine(p).output(sid).and_then(Reconstructed::value),
            Some(f(11))
        );
    }
}

/// Liveness sanity: at quiescence of an honest multi-session run, no
/// message is still sitting in any DMM delay buffer.
#[test]
fn no_messages_left_delayed_in_honest_runs() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 40);
    for round in 1..=3u64 {
        let sid = SvssId::new(round, Pid::new(((round % 4) + 1) as u32));
        net.share(sid, f(round * 13));
        net.run();
        net.reconstruct_all(sid);
        net.run();
    }
    for p in Pid::all(4) {
        assert_eq!(
            net.engine(p).pending_len(),
            0,
            "{p}: messages stuck in the delay buffer"
        );
    }
}

/// What an SVSS harness run leaves: its digest, its deliveries, its
/// shun pairs, and each live process's output of `sid` (`None` for one
/// that has not output, `Some(None)` for ⊥).
type SvssPin = (
    Option<u64>,
    u64,
    Vec<(Pid, Pid)>,
    Vec<(Pid, Option<Option<u64>>)>,
);

fn svss_pin(net: &SvssNet<Gf61>, sid: SvssId) -> SvssPin {
    let outputs = net.outputs(sid).into_iter();
    let value = |out: Reconstructed<Gf61>| out.value().map(Field::as_u64);
    (
        net.digest(),
        net.delivered(),
        net.shun_pairs(),
        outputs.map(|(p, out)| (p, out.map(value))).collect(),
    )
}

/// `msg`, if it is a `Rows`, with the first coefficient of `g` and of
/// `h` shifted by 5.
fn bump_rows(msg: &SvssMsg<Gf61>) -> Option<SvssMsg<Gf61>> {
    let Unpacked::Priv(SvssPriv::Rows { session, rows }) = msg.clone().unpack() else {
        return None;
    };
    let bump = |v: &[Gf61]| -> Vec<Gf61> {
        let mut v = v.to_vec();
        if let Some(c) = v.first_mut() {
            *c += f(5);
        }
        v
    };
    let rows = Box::new(RowsBody {
        g: bump(&rows.g),
        h: bump(&rows.h),
    });
    Some(SvssMsg::private(SvssPriv::Rows { session, rows }))
}

/// A `deliver_matching` predicate that admits what `admit` admits and
/// folds each admitted delivery's sender, recipient and `Wire::encode`
/// bytes into `hash` (FNV-1a): the payload check the digest lacks.
fn recording(
    hash: &Arc<Mutex<u64>>,
    admit: impl Fn(Pid, Pid, &SvssMsg<Gf61>) -> bool + Send + Sync + 'static,
) -> impl Fn(Pid, Pid, &SvssMsg<Gf61>) -> bool + Send + Sync + 'static {
    let hash = Arc::clone(hash);
    move |from, to, msg| {
        if !admit(from, to, msg) {
            return false;
        }
        let mut bytes = vec![from.index() as u8, to.index() as u8];
        msg.encode(&mut bytes);
        let mut h = hash.lock().unwrap();
        for b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        true
    }
}

/// Every way the harness makes a node faulty, pinned at n = 4: a lying
/// role, a rewrite of what it sends (per recipient), silence, a
/// receiver-side hold, a raw injection past the rewrite, and a coin
/// flip under a forger. The digest sees routing and timing but no
/// payload, so every run goes through [`recording`], which admits all
/// and so holds nothing: each case's payload hash, shun pairs and
/// outputs are the payload check.
#[test]
fn every_harness_fault_is_pinned() {
    let params = Params::new(4, 1).unwrap();
    let [p1, p2, p3, p4] = [1, 2, 3, 4].map(Pid::new);
    let sid = SvssId::new(1, p1);
    let svss = |seed| {
        let mut net = SvssNet::<Gf61>::new(params, seed);
        net.sim_mut().enable_digest();
        net
    };
    // One payload hash per case, in case order.
    let mut payloads = Vec::new();
    let mut hash = Arc::new(Mutex::new(0xcbf2_9ce4_8422_2325));
    let run = |net: &mut SvssNet<Gf61>, hash: &Arc<Mutex<u64>>| {
        net.deliver_matching(recording(hash, |_, _, _| true));
    };
    let share_and_reconstruct = |net: &mut SvssNet<Gf61>, hash: &Arc<Mutex<u64>>| {
        net.share(sid, f(123_456_789));
        run(net, hash);
        net.reconstruct_all(sid);
        run(net, hash);
        svss_pin(net, sid)
    };
    let mut next_case = |hash: &mut Arc<Mutex<u64>>| {
        payloads.push(*hash.lock().unwrap());
        *hash = Arc::new(Mutex::new(0xcbf2_9ce4_8422_2325));
    };
    let value = |p: Pid| (p, Some(Some(123_456_789)));

    // Honest.
    let mut net = svss(1);
    assert_eq!(
        share_and_reconstruct(&mut net, &hash),
        (
            Some(0xd260_42aa_cfb7_3077),
            2_776,
            vec![],
            vec![value(p1), value(p2), value(p3), value(p4)]
        ),
        "honest"
    );
    next_case(&mut hash);

    // p4 forges every reconstruction point (`examples/secret_sharing.rs`).
    let mut net = svss(2);
    net.corrupt(p4, Role::LyingShares { delta: 1 });
    assert_eq!(
        share_and_reconstruct(&mut net, &hash),
        (
            Some(0x7e1c_e3f3_cda3_b2f2),
            2_776,
            vec![(p1, p4), (p2, p4), (p3, p4)],
            vec![value(p1), value(p2), value(p3), (p4, Some(None))]
        ),
        "forger"
    );
    next_case(&mut hash);

    // The dealer corrupts the rows it sends to p3 only.
    let mut net = svss(3);
    net.set_tamper(p1, move |to, msg| bump_rows(msg).filter(|_| to == p3));
    assert_eq!(
        share_and_reconstruct(&mut net, &hash),
        (
            Some(0x49d1_13c3_518b_88c1),
            2_344,
            vec![],
            vec![value(p1), value(p2), value(p3), value(p4)]
        ),
        "rows to p3"
    );
    next_case(&mut hash);

    // p4 is silent.
    let mut net = svss(4);
    net.corrupt(p4, Role::Silent);
    assert_eq!(
        share_and_reconstruct(&mut net, &hash),
        (
            Some(0xe397_70b1_29e7_ebfe),
            1_298,
            vec![],
            vec![value(p1), value(p2), value(p3)]
        ),
        "silent p4"
    );
    next_case(&mut hash);

    // Example 1's hold: the share runs without p4, then everything is
    // released.
    let mut net = svss(5);
    net.share(sid, f(123_456_789));
    net.deliver_matching(recording(&hash, move |from, to, _| from != p4 && to != p4));
    assert_eq!(
        (net.digest(), net.delivered()),
        (Some(0x6d03_2e90_4f89_f4c7), 1_214),
        "held"
    );
    assert!(!net.engine(p4).share_completed(sid));
    run(&mut net, &hash);
    net.reconstruct_all(sid);
    run(&mut net, &hash);
    assert_eq!(
        svss_pin(&net, sid),
        (
            Some(0xa583_6067_c598_bd97),
            3_280,
            vec![],
            vec![value(p1), value(p2), value(p3), value(p4)]
        ),
        "released"
    );
    next_case(&mut hash);

    // A raw message from p4 bypasses its rewrite, which would bump it.
    let mut net = svss(6);
    net.set_tamper(p4, |_to, msg| bump_rows(msg));
    let raw = SvssMsg::private(SvssPriv::Rows {
        session: SvssId::new(1, p4),
        rows: Box::new(RowsBody {
            g: vec![f(1), f(2)],
            h: vec![f(3), f(4)],
        }),
    });
    net.push_raw(p4, p2, raw.clone());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    net.deliver_matching(recording(&hash, move |from, _, msg| {
        if from == p4 && msg.wire_kind() == WireKind::Rows {
            log.lock().unwrap().push(msg.clone());
        }
        true
    }));
    assert_eq!(*seen.lock().unwrap(), [raw], "push_raw was rewritten");
    assert_eq!(
        share_and_reconstruct(&mut net, &hash),
        (
            Some(0x4374_8a11_6ec2_f4bd),
            3_209,
            vec![],
            vec![value(p1), value(p2), value(p3), value(p4)]
        ),
        "raw"
    );
    next_case(&mut hash);

    // A coin flip under p4's reconstruct-point forger.
    let mut net = CoinNet::<Gf61>::new(params, 23);
    net.sim_mut().enable_digest();
    net.corrupt(p4, Role::LyingShares { delta: 5 });
    net.act_all(|e, sends| {
        e.start(1, sends);
        e.enable_reconstruct(1, sends);
    });
    net.deliver_matching(recording(&hash, |_, _, _| true));
    let coin = (
        net.digest(),
        net.delivered(),
        net.shun_pairs(),
        net.outputs(1),
    );
    let pinned = (
        Some(0xf5b8_e9cc_402f_685f),
        18_348,
        vec![(p1, p4), (p2, p4), (p3, p4)],
        vec![Some(false), Some(false), Some(false), Some(true)],
    );
    assert_eq!(coin, pinned, "coin forger");
    next_case(&mut hash);
    let pinned = [
        0xcf14_5f89_39bd_c54d,
        0x7d7b_e0cd_b5be_a3a0,
        0xd262_45e3_a4ec_64cc,
        0xb10d_2c63_a453_3ef1,
        0xc0fe_602f_6eef_e730,
        0xa6c4_a2a8_c2c7_f90a,
        0xb14c_bf93_947a_d69e,
    ];
    assert_eq!(payloads, pinned, "payloads moved");
}
