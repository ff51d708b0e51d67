//! Delivery-order and outcome pins for batched delivery.
//!
//! The per-recipient same-tick batch is the simulator's unit of
//! scheduling. Two properties keep that honest:
//!
//! 1. **Queue-level delivery order** (the strong pin): full production
//!    runs on pinned seeds reproduce a recorded per-message delivery
//!    sequence exactly. The records were taken while the simulator still
//!    carried a per-message reference queue and the two layouts were
//!    asserted bit-identical, so they pin what that reference pinned:
//!    batching only changes how deliveries are chunked into callbacks,
//!    never their order (the queue itself is model-checked against a
//!    binary heap in `sba_sim`'s own tests).
//! 2. **Engine-level outcome equivalence**: the protocol engines'
//!    `on_batch` handlers (which amortize mux probes and monotone
//!    advance/pump fixpoints across a batch, and may reorder same-tick
//!    *sends*) still terminate with agreement — any send reordering
//!    within a tick is a legal asynchronous schedule.

use std::sync::{Arc, Mutex};

use sba::field::Gf61;
use sba::net::{Kinded, Outbox};
use sba::sim::{schedulers, Process, Simulation};
use sba::{AbaConfig, AbaMsg, AbaNode, AbaProcess, Params, Pid};

type Msg = AbaMsg<Gf61>;

/// One recorded delivery. Since PR 5 this covers the self-delivery path
/// too: generations arrive through the same `on_batch` hook (with
/// `from == to`), so the log pins network scheduling AND the
/// self-delivery generation structure in one sequence.
type Record = (u32 /* to */, u32 /* from */, &'static str);

/// Wraps a production `AbaProcess` (batch amortization and all),
/// recording every scheduled delivery into a shared log before
/// forwarding the batch intact.
struct Recorder {
    me: Pid,
    inner: AbaProcess<Gf61>,
    log: Arc<Mutex<Vec<Record>>>,
}

impl Process<Msg> for Recorder {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        self.inner.on_start(out);
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        self.inner.on_message(from, msg, out);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        {
            let mut log = self.log.lock().expect("single-threaded");
            for msg in msgs.iter() {
                log.push((self.me.index(), from.index(), msg.kind()));
            }
        }
        self.inner.on_batch(from, msgs, out);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
}

/// What one full production run is pinned to.
#[derive(Debug, PartialEq, Eq)]
struct RunPin {
    /// Deliveries recorded, self-deliveries included.
    deliveries: usize,
    /// Fold of the whole `(to, from, kind)` delivery log, in order.
    log_fold: u64,
    decisions: [Option<bool>; 4],
    messages_sent: u64,
    virtual_time: u64,
    self_deliveries: u64,
    self_delivery_batches: u64,
}

/// One FxHash-style fold step (rotate, xor, multiply).
fn fold(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn fold_log(log: &[Record]) -> u64 {
    log.iter().fold(0, |h, &(to, from, kind)| {
        let h = fold(fold(h, u64::from(to)), u64::from(from));
        kind.bytes().fold(h, |h, b| fold(h, u64::from(b)))
    })
}

fn recorded_run(seed: u64) -> (Vec<Record>, RunPin) {
    let n = 4;
    let params = Params::new(n, 1).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let procs: Vec<Recorder> = (1..=n as u32)
        .map(|i| {
            let pid = Pid::new(i);
            let node: AbaNode<Gf61> =
                AbaNode::new(pid, AbaConfig::scc(params, seed ^ (u64::from(i) << 32)));
            Recorder {
                me: pid,
                inner: AbaProcess::new(node, vec![(0, i % 2 == 0)]),
                log: Arc::clone(&log),
            }
        })
        .collect();
    let mut sim = Simulation::new(procs, schedulers::uniform(20), seed);
    let outcome = sim.run_until_all_done(60_000_000);
    assert!(outcome.all_done, "seed {seed}: stalled");
    let decisions = [1, 2, 3, 4].map(|i| sim.process(Pid::new(i)).inner.node().decision(0));
    let log = log.lock().expect("single-threaded").clone();
    let m = sim.metrics();
    let pin = RunPin {
        deliveries: log.len(),
        log_fold: fold_log(&log),
        decisions,
        messages_sent: m.messages_sent,
        virtual_time: m.virtual_time,
        self_deliveries: m.self_deliveries,
        self_delivery_batches: m.self_delivery_batches,
    };
    (log, pin)
}

/// The strong pin: full production runs on pinned seeds — through the
/// whole agreement stack, engine batch amortization included — deliver
/// the recorded per-message sequence (network batches AND self-delivery
/// generations, which ride the log with `from == to`), reach the
/// recorded decisions, and end with the recorded message count,
/// generation structure and virtual time. The virtual times, the
/// generation counts and the decisions were recorded at the last commit
/// that carried the per-message reference queue, where both layouts
/// were asserted to produce exactly these runs; the delivery log and the
/// message counts were re-recorded when vector RB (PR 24) put a step's
/// broadcasts into one instance — the same runs, tick for tick and
/// generation for generation, with a seventh of the messages. They were
/// re-recorded, with the generation counts, when a process that decides
/// stopped dealing the next round's coin: same decisions and decide
/// rounds, and the same ticks on seeds 3 and 42. Seed 11 (decides in
/// round 2) halts at tick 363, not 365: the scheduler draws one delay per
/// send from one stream, so the round-3 deals it no longer makes shift
/// the draws of the decide gossip that follows.
#[test]
fn delivery_order_matches_recorded_runs() {
    let pin = |deliveries, log_fold, decision, messages_sent, virtual_time, selfs, gens| RunPin {
        deliveries,
        log_fold,
        decisions: [Some(decision); 4],
        messages_sent,
        virtual_time,
        self_deliveries: selfs,
        self_delivery_batches: gens,
    };
    let pins = [
        (
            3u64,
            pin(
                17_101,
                0xfa72_0980_207a_c9fc,
                false,
                13_164,
                132,
                4_388,
                1_729,
            ),
        ),
        (
            11,
            pin(
                35_650,
                0x644f_10f2_0636_32e0,
                false,
                27_105,
                363,
                9_035,
                3_696,
            ),
        ),
        (
            42,
            pin(
                17_222,
                0x8aa8_321a_ad3b_52e6,
                true,
                13_260,
                130,
                4_420,
                1_773,
            ),
        ),
    ];
    for (seed, want) in pins {
        let (log, got) = recorded_run(seed);
        assert_eq!(got, want, "seed {seed}: the run moved");
        // The gauge is actually exercised, and self-deliveries ride the
        // recorded log (so the fold pins their order and chunking).
        assert!(
            got.self_delivery_batches > 0 && got.self_deliveries > got.self_delivery_batches,
            "seed {seed}: self-delivery batching never coalesced"
        );
        assert!(log.iter().any(|&(to, from, _)| to == from));
    }
}

/// The engines' batch overrides (probe memo, deferred advance/pump) are
/// outcome-equivalent to member-by-member processing: full production
/// runs terminate with agreement, and coalescing measurably happens.
#[test]
fn engine_batching_terminates_with_agreement() {
    for seed in [5u64, 19] {
        let n = 4;
        let params = Params::new(n, 1).unwrap();
        let procs: Vec<AbaProcess<Gf61>> = (1..=n as u32)
            .map(|i| {
                let node: AbaNode<Gf61> = AbaNode::new(
                    Pid::new(i),
                    AbaConfig::scc(params, seed ^ (u64::from(i) << 32)),
                );
                AbaProcess::new(node, vec![(0, i % 2 == 0)])
            })
            .collect();
        let mut sim = Simulation::new(procs, schedulers::uniform(20), seed);
        let outcome = sim.run_until_all_done(60_000_000);
        assert!(outcome.all_done, "seed {seed}: stalled");
        let decisions: Vec<Option<bool>> = (1..=n as u32)
            .map(|i| sim.process(Pid::new(i)).node().decision(0))
            .collect();
        assert!(decisions.iter().all(Option::is_some), "seed {seed}");
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: disagreement {decisions:?}"
        );
        let m = sim.metrics();
        assert!(
            m.batches_sent < m.messages_sent,
            "seed {seed}: no coalescing happened ({} batches / {} messages)",
            m.batches_sent,
            m.messages_sent
        );
        assert!(m.inflight_peak_msgs > 0 && m.inflight_peak_bytes > 0);
        assert!(m.inflight_peak_batches <= m.inflight_peak_msgs);
    }
}
