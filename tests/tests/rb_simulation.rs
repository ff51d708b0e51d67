//! Reliable-broadcast properties under randomized asynchronous schedules,
//! driven through the deterministic simulator.
//!
//! The mux runs the way the SVSS engine runs it: slots are
//! [`SvssSlot`]s, values [`SvssRbValue`]s, and every message travels as
//! the stack's one wire message ([`SvssMsg`]), built by its constructor
//! on send and unpacked into a flat `MuxMsg` on delivery. Test tag `k`
//! is the reconstruct-point slot of MW session `k`, and a test value is
//! one field element.

use proptest::prelude::*;
use sba::broadcast::{MuxMsg, RbDelivery, RbMux};
use sba::field::{Field, Gf61};
use sba::net::{MwId, Outbox, RbStep, SlotView, Unpacked};
use sba::sim::{schedulers, Process, Simulation};
use sba::svss::{SvssMsg, SvssRbValue, SvssSlot};
use sba::{Params, Pid};

type Msg = SvssMsg<Gf61>;
type Value = SvssRbValue<Gf61>;
type Delivery = RbDelivery<SvssSlot, Value>;

/// The slot test tag `tag` names.
fn slot(tag: u32) -> SvssSlot {
    let mw = MwId::standalone(u64::from(tag), Pid::new(1), Pid::new(2));
    SvssSlot::mw_recon(mw, Pid::new(1))
}

fn value(v: u64) -> Value {
    SvssRbValue::Value(Gf61::from_u64(v))
}

/// A delivery as `(origin, tag, value)`.
fn plain(d: &Delivery) -> (u32, u32, u64) {
    let (SlotView::MwRecon(mw, _), SvssRbValue::Value(v)) = (d.tag.view(), &d.value) else {
        unreachable!("only reconstruct points are broadcast here");
    };
    (d.origin.index(), mw.parent().tag() as u32, v.as_u64())
}

/// The routed form of a delivered wire message.
fn routed(msg: Msg) -> MuxMsg<SvssSlot, Value> {
    let Unpacked::Rb {
        slot,
        origin,
        step,
        value,
    } = msg.unpack()
    else {
        unreachable!("only scalar SVSS broadcasts are sent here");
    };
    MuxMsg::new(slot, origin, step, value)
}

/// A process that RB-broadcasts scripted values at start and records all
/// deliveries.
struct Broadcaster {
    mux: RbMux<SvssSlot, Value>,
    to_send: Vec<(u32, u64)>,
    delivered: Vec<Delivery>,
    expected: usize,
}

impl Broadcaster {
    fn new(me: Pid, params: Params, to_send: Vec<(u32, u64)>, expected: usize) -> Self {
        Broadcaster {
            mux: RbMux::new(me, params),
            to_send,
            delivered: Vec::new(),
            expected,
        }
    }
}

impl Process<Msg> for Broadcaster {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        let mut sends = Vec::new();
        for (tag, v) in self.to_send.clone() {
            self.mux
                .broadcast_with(slot(tag), value(v), &mut sends, Msg::rb);
        }
        for (to, m) in sends {
            out.send(to, m);
        }
    }

    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        let mut sends = Vec::new();
        let batch = [routed(msg)];
        self.mux
            .on_batch_with(from, batch, &mut sends, Msg::rb, &mut self.delivered);
        for (to, m) in sends {
            out.send(to, m);
        }
    }

    fn done(&self) -> bool {
        self.delivered.len() >= self.expected
    }
}

fn run_broadcasts(
    n: usize,
    t: usize,
    sends_per_proc: &[Vec<(u32, u64)>],
    seed: u64,
    max_delay: u64,
) -> Vec<Vec<Delivery>> {
    let params = Params::new(n, t).unwrap();
    let total: usize = sends_per_proc.iter().map(Vec::len).sum();
    let procs: Vec<Broadcaster> = (1..=n)
        .map(|i| {
            Broadcaster::new(
                Pid::new(i as u32),
                params,
                sends_per_proc[i - 1].clone(),
                total,
            )
        })
        .collect();
    let mut sim = Simulation::new(procs, schedulers::uniform(max_delay), seed);
    let outcome = sim.run_until_all_done(5_000_000);
    assert!(outcome.all_done, "RB did not deliver everything");
    (1..=n)
        .map(|i| sim.process(Pid::new(i as u32)).delivered.clone())
        .collect()
}

/// The deliveries as sorted `(origin, tag, value)` triples.
fn canon(d: &[Delivery]) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = d.iter().map(plain).collect();
    v.sort_unstable();
    v
}

#[test]
fn every_process_delivers_every_broadcast_identically() {
    let sends = vec![
        vec![(1u32, 10u64), (2, 20)],
        vec![(1, 30)],
        vec![],
        vec![(5, 50)],
    ];
    let all = run_broadcasts(4, 1, &sends, 7, 15);
    // All four processes deliver the same set of (origin, tag, value).
    let first = canon(&all[0]);
    assert_eq!(first.len(), 4);
    for other in &all[1..] {
        assert_eq!(canon(other), first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, max_shrink_iters: 0 })]

    /// RB agreement + totality under random schedules, loads, and system
    /// sizes.
    #[test]
    fn rb_agreement_random_schedules(
        seed in any::<u64>(),
        max_delay in 1u64..60,
        loads in proptest::collection::vec(0usize..4, 4),
    ) {
        let sends: Vec<Vec<(u32, u64)>> = loads
            .iter()
            .enumerate()
            .map(|(i, &k)| (0..k).map(|j| (j as u32, (i * 10 + j) as u64)).collect())
            .collect();
        let all = run_broadcasts(4, 1, &sends, seed, max_delay);
        let first = canon(&all[0]);
        for other in &all[1..] {
            prop_assert_eq!(canon(other), first.clone());
        }
    }
}

/// Late, duplicated, and tampered RB traffic arriving *after* a slot has
/// retired must change nothing: same deliveries, no extra sends, no
/// panics, and no resurrection of the retired slot (PR 3's retirement
/// contract — see `RbMux`'s module docs for the late-joiner story).
#[test]
fn late_and_tampered_traffic_after_retirement_is_inert() {
    let params = Params::new(4, 1).unwrap();
    let slots: Vec<(u32, u64)> = (0..8u32).map(|k| (k, u64::from(k) * 11)).collect();

    /// `Byz` runs the honest machine but duplicates every outgoing
    /// message and appends a forged Ready for the same slot —
    /// guaranteed-late garbage for slots that retire at the recipient.
    enum P {
        Honest(Broadcaster),
        Byz(Broadcaster),
    }
    impl P {
        fn step(
            &mut self,
            out: &mut Outbox<Msg>,
            f: impl FnOnce(&mut Broadcaster, &mut Outbox<Msg>),
        ) {
            match self {
                P::Honest(b) => f(b, out),
                P::Byz(b) => {
                    let mut raw = Outbox::new(out.me());
                    f(b, &mut raw);
                    for env in raw.drain_iter() {
                        let m = routed(env.msg.clone());
                        let forged = Msg::rb(m.tag, m.origin, RbStep::Ready, value(9_999_999));
                        for msg in [env.msg.clone(), env.msg, forged] {
                            out.send(env.to, msg);
                        }
                    }
                }
            }
        }
    }
    impl Process<Msg> for P {
        fn on_start(&mut self, out: &mut Outbox<Msg>) {
            self.step(out, |b, out| b.on_start(out));
        }
        fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
            self.step(out, |b, out| b.on_message(from, msg, out));
        }
        fn done(&self) -> bool {
            match self {
                P::Honest(x) => x.done(),
                P::Byz(_) => true,
            }
        }
    }

    for seed in 0..8u64 {
        let expected = slots.len();
        let procs: Vec<P> = (1..=4u32)
            .map(|i| {
                let b = Broadcaster::new(
                    Pid::new(i),
                    params,
                    if i == 1 { slots.clone() } else { vec![] },
                    expected,
                );
                if i == 4 {
                    P::Byz(b)
                } else {
                    P::Honest(b)
                }
            })
            .collect();
        let mut sim = Simulation::new(procs, schedulers::uniform(40), seed);
        sim.run_to_quiescence(5_000_000);

        // Same deliveries: every honest process delivered each slot
        // exactly once, with the broadcast value.
        for i in 1..=3u32 {
            let P::Honest(b) = sim.process(Pid::new(i)) else {
                unreachable!("p1..p3 are honest");
            };
            let mut got: Vec<(u32, u64)> =
                b.delivered.iter().map(plain).map(|d| (d.1, d.2)).collect();
            got.sort_unstable();
            assert_eq!(got, slots, "seed {seed}: p{i} deliveries diverged");
            assert_eq!(
                b.mux.retired_count(),
                slots.len(),
                "seed {seed}: p{i} retired-count"
            );
            assert_eq!(
                b.mux.instance_count(),
                0,
                "seed {seed}: p{i} kept live instances past quiescence"
            );
        }

        // No resurrection: replay every step straight into a retired
        // slot, with the accepted value and with another one; counters
        // must not move and nothing is sent.
        let P::Honest(b) = sim.process_mut(Pid::new(2)) else {
            unreachable!("p2 is honest");
        };
        let (live, retired) = (b.mux.instance_count(), b.mux.retired_count());
        for step in [RbStep::Init, RbStep::Echo, RbStep::Ready] {
            for v in [slots[0].1, 12345] {
                let mut out = Vec::new();
                let msg = MuxMsg::new(slot(slots[0].0), Pid::new(1), step, value(v));
                let d = b.mux.on_message(Pid::new(4), msg, &mut out);
                assert!(d.is_none(), "seed {seed}: retired slot delivered again");
                assert!(out.is_empty(), "seed {seed}: retired slot produced sends");
            }
        }
        assert_eq!(b.mux.instance_count(), live, "seed {seed}: resurrection");
        assert_eq!(b.mux.retired_count(), retired);
        assert_eq!(
            b.mux.accepted(Pid::new(1), &slot(slots[0].0)),
            Some(&value(slots[0].1))
        );
    }
}

/// An equivocating origin (different Init per recipient, injected raw)
/// can stall its slot but can never get two honest processes to accept
/// different values.
#[test]
fn equivocation_cannot_split_slot() {
    let params = Params::new(4, 1).unwrap();
    // p1 equivocates: Init(1) to p2, Init(2) to p3, nothing to p4.
    struct Equivocator;
    impl Process<Msg> for Equivocator {
        fn on_start(&mut self, out: &mut Outbox<Msg>) {
            for (to, v) in [(2u32, 1u64), (3, 2)] {
                out.send(
                    Pid::new(to),
                    Msg::rb(slot(9), Pid::new(1), RbStep::Init, value(v)),
                );
            }
        }
        fn on_message(&mut self, _: Pid, _: Msg, _: &mut Outbox<Msg>) {}
        fn done(&self) -> bool {
            true
        }
    }

    #[allow(clippy::large_enum_variant)] // test scaffolding
    enum P {
        Byz(Equivocator),
        Honest(Broadcaster),
    }
    impl Process<Msg> for P {
        fn on_start(&mut self, out: &mut Outbox<Msg>) {
            match self {
                P::Byz(x) => x.on_start(out),
                P::Honest(x) => x.on_start(out),
            }
        }
        fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
            match self {
                P::Byz(x) => x.on_message(from, msg, out),
                P::Honest(x) => x.on_message(from, msg, out),
            }
        }
    }

    for seed in 0..16 {
        let procs: Vec<P> = (1..=4)
            .map(|i| {
                if i == 1 {
                    P::Byz(Equivocator)
                } else {
                    P::Honest(Broadcaster::new(Pid::new(i), params, vec![], usize::MAX))
                }
            })
            .collect();
        let mut sim = Simulation::new(procs, schedulers::uniform(10), seed);
        sim.run_to_quiescence(1_000_000);
        let mut accepted: Vec<u64> = Vec::new();
        for i in 2..=4u32 {
            if let P::Honest(b) = sim.process(Pid::new(i)) {
                for d in &b.delivered {
                    let (_, tag, v) = plain(d);
                    assert_eq!(tag, 9);
                    accepted.push(v);
                }
            }
        }
        // Either nobody accepted (stalled slot) or all accepted the same.
        accepted.sort_unstable();
        accepted.dedup();
        assert!(
            accepted.len() <= 1,
            "seed {seed}: equivocation split the slot: {accepted:?}"
        );
    }
}
