//! Vector RB at the machine level: what the MW / SVSS machines ask
//! reliable broadcast to carry, and what comes out the other end, is
//! what it was before one Bracha instance carried a whole step.
//!
//! An honest n=4 SCC agreement is run to quiescence with a tap on every
//! process that reads the process's own inits (they reach it as a
//! self-delivery): every `(origin, slot, value)` handed to RB, whether it
//! left as a scalar init or as a member of a vector init. The tap's
//! per-family counts and folds are compared with the same tap's at the
//! last commit whose RB was one instance per slot (PR 22).
//!
//! Only part of that multiset is a function of the inputs alone, and
//! only that part is pinned: *which* `ack` and `OK` slots exist (their
//! values are `Unit`), and *how many* `L`, `M` and `G` broadcasts there
//! are. The values of `L_j`, `M` and `G` (who confirmed first) and the
//! set of reconstruct points (which secrets were attached first) depend
//! on the schedule — the PR-22 recording itself has three different
//! values for them on its three seeds — and vector RB is a different
//! schedule.

use std::sync::{Arc, Mutex};

use sba::field::Gf61;
use sba::net::{Outbox, RbStep, SlotKind, Wire};
use sba::sim::{schedulers, Process, Simulation};
use sba::svss::SvssMsg;
use sba::{AbaConfig, AbaMsg, AbaNode, AbaProcess, Params, Pid};

type Msg = AbaMsg<Gf61>;

/// Per slot family: how many values were broadcast, and the sum of a
/// hash of each one's scalar init encoding (order-free, so a multiset
/// fold).
type Tally = [(u64, u64); 6];

/// One FxHash-style fold step (rotate, xor, multiply).
fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A production `AbaProcess` with a tap on its own broadcasts.
struct Tap {
    me: Pid,
    inner: AbaProcess<Gf61>,
    tally: Arc<Mutex<Tally>>,
}

impl Process<Msg> for Tap {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        self.inner.on_start(out);
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        self.inner.on_message(from, msg, out);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        if from == self.me {
            let mut tally = self.tally.lock().expect("single-threaded");
            for msg in msgs.iter() {
                // Visits every value a scalar or vector SVSS init
                // carries; replaces none.
                msg.rewrite_inits(|slot, value| {
                    let scalar = SvssMsg::rb(slot, self.me, RbStep::Init, value.clone());
                    let hash = scalar
                        .encoded()
                        .iter()
                        .fold(0, |h, b| fold(h, u64::from(*b)));
                    let family = &mut tally[slot.kind() as usize];
                    family.0 += 1;
                    family.1 = family.1.wrapping_add(hash);
                    None
                });
            }
        }
        self.inner.on_batch(from, msgs, out);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[test]
fn machines_broadcast_what_they_did_under_scalar_rb() {
    // Counts recorded at 85ffe85 by this tap on scalar inits, halved:
    // these runs decide in round 1, and a decider does not deal the
    // round-2 coin, so only round 1's session is shared. The folds were
    // re-recorded when that skip landed (one session's slots).
    const ACKS: (u64, u64) = (3072 / 2, 0x9e34_82cb_3ace_7730);
    const OKS: (u64, u64) = (768 / 2, 0x40ff_6d41_f761_cfaf);
    const L_M_G: [u64; 3] = [3072 / 2, 768 / 2, 32 / 2];
    for seed in [3u64, 11, 42] {
        let n = 4;
        let params = Params::new(n, 1).unwrap();
        let tally = Arc::new(Mutex::new(Tally::default()));
        let procs: Vec<Tap> = Pid::all(n)
            .map(|me| {
                let seed = seed ^ (u64::from(me.index()) << 32);
                let node: AbaNode<Gf61> = AbaNode::new(me, AbaConfig::scc(params, seed));
                Tap {
                    me,
                    inner: AbaProcess::new(node, vec![(0, true)]),
                    tally: Arc::clone(&tally),
                }
            })
            .collect();
        let mut sim = Simulation::new(procs, schedulers::uniform(20), seed);
        assert!(sim.run_until_all_done(60_000_000).all_done, "seed {seed}");
        sim.run_to_quiescence(60_000_000);

        let tally = *tally.lock().expect("single-threaded");
        let family = |k: SlotKind| tally[k as usize];
        assert_eq!(family(SlotKind::MwAck), ACKS, "seed {seed}: ack slots");
        assert_eq!(family(SlotKind::MwOk), OKS, "seed {seed}: OK slots");
        let counts = [SlotKind::MwL, SlotKind::MwM, SlotKind::Gsets].map(|k| family(k).0);
        assert_eq!(counts, L_M_G, "seed {seed}: L / M / G broadcasts");

        // In = out: the engines' own counters agree with the tap, the
        // values rode far fewer instances than there are values, and at
        // quiescence every process has been delivered every one of
        // them exactly once.
        let broadcast: u64 = tally.iter().map(|f| f.0).sum();
        let engines = || {
            Pid::all(n).map(|p| {
                let node = sim.process(p).inner.node();
                node.coin().expect("SCC mode").svss()
            })
        };
        let started: u64 = engines().map(|e| e.rb_started_members()).sum();
        let instances: u64 = engines().map(|e| e.rb_started_instances()).sum();
        assert_eq!(started, broadcast, "seed {seed}: members started");
        assert!(
            instances * 5 < started,
            "seed {seed}: {instances} instances"
        );
        for e in engines() {
            assert_eq!(
                e.rb_delivered_members(),
                broadcast,
                "seed {seed}: {:?}",
                e.me()
            );
            assert_eq!(e.rb_live_instances(), 0, "seed {seed}: {:?}", e.me());
        }
    }
}
