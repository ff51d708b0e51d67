//! SCC under active adversaries: the correctness clause-2 path (property
//! failure ⇒ new shun pair), attach-set validation, and non-canonical
//! session-id injection.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sba_broadcast::Params;
use sba_coin::{CoinEngine, CoinMsg};
use sba_field::{Field, Gf61};
use sba_net::{Kinded, Pid, ProcessSet, RbStep, Unpacked, WireKind};

type Msg = CoinMsg<Gf61>;

enum Tamper {
    Keep,
    Replace(Vec<Msg>),
}

type TamperFn = Box<dyn FnMut(Pid, &Msg) -> Tamper>;

/// Coin mesh with per-process outgoing tampering.
struct Net {
    params: Params,
    engines: Vec<CoinEngine<Gf61>>,
    queue: Vec<(Pid, Pid, Msg)>,
    rng: StdRng,
    tampers: Vec<Option<TamperFn>>,
    shuns: Vec<(Pid, Pid)>,
    /// Every event each engine reported, in order (the golden pin).
    events: Vec<Vec<sba_coin::CoinEvent>>,
    /// `(count, fold)` over every delivery's `(from, to, kind)`, in order.
    delivered: (u64, u64),
}

impl Net {
    fn new(params: Params, seed: u64) -> Self {
        Net {
            params,
            engines: Pid::all(params.n())
                .map(|p| CoinEngine::new(p, params, seed ^ (u64::from(p.index()) << 40)))
                .collect(),
            queue: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            tampers: (0..params.n()).map(|_| None).collect(),
            shuns: Vec::new(),
            events: (0..params.n()).map(|_| Vec::new()).collect(),
            delivered: (0, 0),
        }
    }

    fn drive(&mut self, p: Pid, f: impl FnOnce(&mut CoinEngine<Gf61>, &mut Vec<(Pid, Msg)>)) {
        let idx = (p.index() - 1) as usize;
        let mut sends = Vec::new();
        f(&mut self.engines[idx], &mut sends);
        for ev in self.engines[idx].take_events() {
            if let sba_coin::CoinEvent::Shunned { process } = ev {
                self.shuns.push((p, process));
            }
            self.events[idx].push(ev);
        }
        for (to, msg) in sends {
            match self.tampers[idx].as_mut() {
                None => self.queue.push((p, to, msg)),
                Some(t) => match t(to, &msg) {
                    Tamper::Keep => self.queue.push((p, to, msg)),
                    Tamper::Replace(list) => {
                        for m in list {
                            self.queue.push((p, to, m));
                        }
                    }
                },
            }
        }
    }

    fn flip_all(&mut self, tag: u64) {
        for p in Pid::all(self.params.n()) {
            self.drive(p, |e, s| e.start(tag, s));
            self.drive(p, |e, s| e.enable_reconstruct(tag, s));
        }
        while !self.queue.is_empty() {
            let k = self.rng.gen_range(0..self.queue.len());
            let (from, to, msg) = self.queue.swap_remove(k);
            // One FxHash-style step (rotate, xor, multiply) per field.
            let step = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
            let h = step(step(self.delivered.1, from.as_u64()), to.as_u64());
            let h = msg.kind().bytes().fold(h, |h, b| step(h, u64::from(b)));
            self.delivered = (self.delivered.0 + 1, h);
            self.drive(to, |e, s| e.on_message(from, msg, s));
        }
    }

    fn outputs(&self, tag: u64) -> Vec<Option<bool>> {
        Pid::all(self.params.n())
            .map(|p| self.engines[(p.index() - 1) as usize].output(tag))
            .collect()
    }
}

/// Lemma 4 clause 2: a forging process either leaves the coin common, or
/// some honest process shuns it. Across multiple sessions the attack
/// saturates: shun pairs stay within t(n−t) and name only the liar.
#[test]
fn forger_is_shunned_or_coin_is_common() {
    let params = Params::new(4, 1).unwrap();
    let mut net = Net::new(params, 23);
    let liar = Pid::new(4);
    net.tampers[3] = Some(forger_tamper());
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
                net.shuns.iter().any(|&(_, bad)| bad == liar),
                "session {tag}: coin not common and nobody shunned the liar"
            );
        }
    }
    let mut pairs = net.shuns.clone();
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
    let mut net = Net::new(params, 31);
    net.tampers[3] = Some(Box::new(|_to, msg| {
        if msg.wire_kind() != WireKind::AttachInit {
            return Tamper::Keep;
        }
        let Unpacked::CoinRb { slot, origin, .. } = msg.clone().unpack() else {
            return Tamper::Keep;
        };
        // Oversized T set (|T| must be exactly t+1 = 2).
        let bogus: ProcessSet = Pid::all(4).collect();
        Tamper::Replace(vec![CoinMsg::coin_rb(slot, origin, RbStep::Init, bogus)])
    }));
    net.flip_all(1);
    for p in [1u32, 2, 3] {
        assert!(
            net.outputs(1)[(p - 1) as usize].is_some(),
            "p{p} must terminate despite the malformed attach"
        );
    }
    assert!(
        net.shuns.is_empty(),
        "malformed sets are not a shun offence"
    );
}

/// The reconstruct-point forger: shifts every reconstruct point it
/// originates by 5.
fn forger_tamper() -> TamperFn {
    Box::new(|_to, msg| {
        sba_svss::forge_recon_points(msg, |_| Some(Gf61::from_u64(5)))
            .map_or(Tamper::Keep, |m| Tamper::Replace(vec![m]))
    })
}

/// The adversarial sweep against recorded runs: under the forger, on a
/// pinned schedule, every process reports the recorded `CoinEvent`
/// stream, the recorded shun pairs and the recorded outputs, and the
/// session store retires what the sweep completes. The pins encode a
/// schedule (this harness draws the next delivery uniformly from what
/// is in flight, so any change to the message population re-rolls it):
/// they were first recorded at the last commit that carried a reference
/// session map (plain hash map, no retirement), where map and slab were
/// asserted to produce the same streams in lockstep, delivery for
/// delivery, and re-recorded when vector RB (PR 24) put a step's
/// broadcasts into one instance. What does not depend on the schedule
/// is asserted as such: the honest processes agree on every coin, only
/// the liar is shunned, and no session is lost. The slab itself is
/// model-checked in `sba_net`'s `interner_model.rs`.
#[test]
fn adversarial_sweep_matches_recorded_streams() {
    use sba_coin::CoinEvent::{Flipped, Shunned};
    let params = Params::new(4, 1).unwrap();
    let mut net = Net::new(params, 23);
    let liar = Pid::new(4);
    net.tampers[3] = Some(forger_tamper());
    const COINS: [(u64, bool); 3] = [(1, false), (2, true), (3, false)];
    for (tag, value) in COINS {
        net.rng = StdRng::seed_from_u64(0xE0_0123 ^ tag);
        net.flip_all(tag);
        let outputs = net.outputs(tag);
        assert!(
            outputs[..3].iter().all(|o| o.is_some() && *o == outputs[0]),
            "tag {tag}: the honest processes disagree: {outputs:?}"
        );
        assert_eq!(outputs, [Some(value); 4], "tag {tag}");
    }
    let flips = COINS.map(|(tag, value)| Flipped { tag, value });
    let honest = [&[Shunned { process: liar }][..], &flips].concat();
    assert_eq!(
        net.events,
        [&honest[..], &honest, &honest, &flips],
        "event streams moved"
    );
    assert!(net.shuns.iter().all(|&(_, bad)| bad == liar));
    assert_eq!(
        net.shuns,
        [3, 2, 1].map(|p| (Pid::new(p), liar)),
        "shun pairs moved"
    );
    assert_eq!(
        net.delivered,
        (308_400, 0x1ffd_437f_cdd5_0ba2),
        "delivery trace moved"
    );
    for (p, rb_peak) in Pid::all(4).zip([1266, 1298, 1273, 1293]) {
        let engine = &net.engines[(p.index() - 1) as usize];
        assert_eq!(engine.rb_instance_stats(), (0, rb_peak, 8_107), "{p}");
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
    let mut net = Net::new(params, 51);
    // Record every message p2 ever received so it can be replayed later.
    let mut p2_inbox: Vec<(Pid, Msg)> = Vec::new();
    {
        let tag = 1u64;
        for p in Pid::all(4) {
            net.drive(p, |e, s| e.start(tag, s));
            net.drive(p, |e, s| e.enable_reconstruct(tag, s));
        }
        while !net.queue.is_empty() {
            let k = net.rng.gen_range(0..net.queue.len());
            let (from, to, msg) = net.queue.swap_remove(k);
            if to == Pid::new(2) {
                p2_inbox.push((from, msg.clone()));
            }
            net.drive(to, |e, s| e.on_message(from, msg, s));
        }
    }
    let p2 = &mut net.engines[1];
    let value = p2.output(1).expect("honest flip terminates");
    let (live_before, peak_before, retired_before) = p2.session_stats();
    assert!(retired_before >= 1, "session 1 must have retired");
    let events_before = net.events[1].len();

    // Replay p2's whole inbox (duplicates) and a tampered variant of
    // every coin-RB message (conflicting sets, every RB step). All must
    // be inert: any answer would land in `net.queue`.
    assert!(net.queue.is_empty());
    for (from, msg) in p2_inbox.clone() {
        net.drive(Pid::new(2), |e, s| e.on_message(from, msg, s));
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
            net.drive(Pid::new(2), |e, s| e.on_message(from, tampered, s));
        }
    }
    let p2 = &mut net.engines[1];
    let mut sends = Vec::new();
    p2.start(1, &mut sends);
    p2.enable_reconstruct(1, &mut sends);
    assert!(sends.is_empty(), "retired session restarted: {sends:?}");
    assert!(
        net.queue.is_empty(),
        "retired session answered: {:?}",
        net.queue
    );
    let p2 = &net.engines[1];
    assert_eq!(
        p2.session_stats(),
        (live_before, peak_before, retired_before),
        "slot resurrected"
    );
    assert_eq!(p2.output(1), Some(value), "record lost");
    assert_eq!(
        net.events[1].len(),
        events_before,
        "late traffic produced events: {:?}",
        &net.events[1][events_before..]
    );
}

/// Values are never leaked before reconstruct is enabled, even with an
/// eager adversary that enables its own reconstruction immediately.
#[test]
fn early_enabler_cannot_force_output() {
    let params = Params::new(4, 1).unwrap();
    let mut net = Net::new(params, 37);
    // Everyone starts; ONLY p4 enables reconstruct.
    for p in Pid::all(4) {
        net.drive(p, |e, s| e.start(1, s));
    }
    net.drive(Pid::new(4), |e, s| e.enable_reconstruct(1, s));
    while !net.queue.is_empty() {
        let k = net.rng.gen_range(0..net.queue.len());
        let (from, to, msg) = net.queue.swap_remove(k);
        net.drive(to, |e, s| e.on_message(from, msg, s));
    }
    // p1..p3 must not have output (their gate is closed); p4 alone cannot
    // reconstruct degree-t secrets: SVSS-R needs all honest to begin R.
    for p in [1u32, 2, 3] {
        assert_eq!(net.outputs(1)[(p - 1) as usize], None, "p{p} leaked");
    }
    assert_eq!(net.outputs(1)[3], None, "p4 alone cannot reconstruct");
}
