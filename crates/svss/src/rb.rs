//! The SVSS stack's reliable broadcast: one Bracha instance per
//! `(origin, step)`.
//!
//! [`SvssRb`] is the RB layer of one process's [`crate::SvssEngine`]:
//! the scalar instances (an [`RbMux`] keyed `(origin, slot)`), the
//! vector instances (keyed `(origin, seq)`, payload [`RbVector`]), the
//! open vector this process's current step is filling, and the
//! echo-once-per-slot record that keeps agreement per *slot* now that a
//! faulty origin can put one slot into several instances. What a vector
//! is, who closes it and when, and why echoing at most one instance per
//! `(origin, slot)` suffices (with the arithmetic) is in the engine's
//! module docs; this module is the mechanism.
//! A live instance lasts until it accepts (then a unit record), the open
//! vector until this process's step ends, and the echo-once record for
//! the layer's life: a late init for a slot an accepted instance carried
//! must still be refused.

use sba_broadcast::{MuxMsg, Params, Rb, RbDelivery, RbMux};
use sba_field::Field;
use sba_net::{FastMap, Interner, Pid, RbStep, RbVector, Slot};

use crate::{SvssMsg, SvssRbValue, SvssSlot};

/// Which Bracha instance of an origin carries a slot: the scalar one
/// keyed by the slot itself, or the origin's `seq`-th vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Instance {
    Scalar,
    Vector(u32),
}

/// Reliable broadcast for one process of the SVSS stack.
#[derive(Clone)]
pub(crate) struct SvssRb<F: Field> {
    me: Pid,
    params: Params,
    /// Scalar RB instances, keyed `(origin, slot)`.
    mux: RbMux<SvssSlot, SvssRbValue<F>>,
    /// Vector RB instances, keyed `(origin, seq)`; an accepted one
    /// retires to a unit record (its members were delivered, and nothing
    /// reads the list again).
    vectors: Interner<(Pid, u32), Rb<RbVector<F>>, ()>,
    /// The echo-once-per-slot record, one map per origin (`pid − 1`,
    /// built on the first claim): the one instance of that origin this
    /// process will echo (or, as origin, has started) for a slot.
    /// Written when an init arrives and when the own vector closes; the
    /// echo/ready relays never touch it.
    claims: Vec<FastMap<SvssSlot, Instance>>,
    /// The open vector: what this process has broadcast since its last
    /// step boundary, and where in the step's send list the first of it
    /// was issued.
    open: Vec<(SvssSlot, SvssRbValue<F>)>,
    open_at: usize,
    /// Vectors this process has closed (its next vector's `seq`, less one).
    closed_vectors: u32,
    /// RB instances this process started, and the slot values they
    /// carried.
    started: (u64, u64),
    /// Reusable buffers: one instance's init fan-out, and the scalar
    /// members of a delivered batch on their way to the mux's batch
    /// path.
    fan_out: Vec<(Pid, SvssMsg<F>)>,
    run: Vec<MuxMsg<SvssSlot, SvssRbValue<F>>>,
}

impl<F: Field> SvssRb<F> {
    pub(crate) fn new(me: Pid, params: Params) -> Self {
        SvssRb {
            me,
            params,
            mux: RbMux::new(me, params),
            vectors: Interner::new(),
            claims: Vec::new(),
            open: Vec::new(),
            open_at: 0,
            closed_vectors: 0,
            started: (0, 0),
            fan_out: Vec::new(),
            run: Vec::new(),
        }
    }

    /// Live (not yet accepted) instances, scalar and vector.
    pub(crate) fn live_instances(&self) -> usize {
        self.mux.instance_count() + self.vectors.live_count()
    }

    /// The two stores' peaks of concurrently-live instances, summed.
    pub(crate) fn live_peak(&self) -> usize {
        self.mux.live_peak() + self.vectors.live_peak()
    }

    /// Retired (accepted and reclaimed) instances.
    pub(crate) fn retired_instances(&self) -> usize {
        self.mux.retired_count() + self.vectors.retired_count()
    }

    /// `(instances this process started, slot values they carried)`.
    pub(crate) fn started(&self) -> (u64, u64) {
        self.started
    }

    /// The echo-once-per-slot rule: claims `slots` of `origin` for
    /// `instance`, and says whether every one of them was free or
    /// already this instance's — i.e. whether this process may echo that
    /// init (or, as origin, start that instance). A refusal may leave the
    /// leading slots claimed; only a faulty origin, who is owed nothing,
    /// ever meets one. An origin outside `1..=n` is no process: refused.
    fn claim(
        &mut self,
        origin: Pid,
        instance: Instance,
        slots: impl IntoIterator<Item = SvssSlot>,
    ) -> bool {
        let (n, at) = (self.params.n(), origin.index() as usize - 1);
        if at >= n {
            return false;
        }
        self.claims.resize_with(n, FastMap::default);
        let claims = &mut self.claims[at];
        slots
            .into_iter()
            .all(|slot| *claims.entry(slot).or_insert(instance) == instance)
    }

    /// Takes one step of the scalar instance `(origin, slot)` off a
    /// delivered batch; it is routed, with the batch's other scalar
    /// members, by the next [`SvssRb::flush`].
    pub(crate) fn on_scalar(
        &mut self,
        from: Pid,
        slot: SvssSlot,
        origin: Pid,
        step: RbStep,
        value: SvssRbValue<F>,
    ) {
        if step != RbStep::Init || (from == origin && self.claim(origin, Instance::Scalar, [slot]))
        {
            self.run.push(MuxMsg::new(slot, origin, step, value));
        }
    }

    /// Routes one step of the vector instance `(origin, seq)`; on
    /// acceptance the members join `deliveries` in vector order, exactly
    /// as that many scalar acceptances would.
    pub(crate) fn on_vector(
        &mut self,
        from: Pid,
        (origin, seq): (Pid, u32),
        step: RbStep,
        members: RbVector<F>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        deliveries: &mut Vec<RbDelivery<SvssSlot, SvssRbValue<F>>>,
    ) {
        if origin.index() as usize > self.params.n() {
            return; // forged origin: no such process
        }
        if step == RbStep::Init
            && !(from == origin && self.claim(origin, Instance::Vector(seq), members.slots()))
        {
            return;
        }
        let Slot::Live(idx) = self.vectors.intern((origin, seq), || Rb::new(origin)) else {
            return; // retired: late traffic needs no answer
        };
        let wrap = |step, members| SvssMsg::rb_vector(origin, seq, step, members);
        let rb = self.vectors.live_mut(idx);
        let Some(accepted) = rb.on_step(self.params, from, step, members, sends, wrap) else {
            return;
        };
        // Acceptance is final and the members are about to be handed
        // over: the husk must not pin the list until its slot recycles.
        *rb = Rb::new(origin);
        self.vectors.retire(idx, ());
        deliveries.extend(
            accepted
                .iter()
                .map(|(tag, value)| RbDelivery { origin, tag, value }),
        );
    }

    /// Routes the scalar members taken off the batch so far through the
    /// mux's batch path; acceptances join `deliveries`.
    pub(crate) fn flush(
        &mut self,
        from: Pid,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        deliveries: &mut Vec<RbDelivery<SvssSlot, SvssRbValue<F>>>,
    ) {
        if !self.run.is_empty() {
            self.mux
                .on_batch_with(from, self.run.drain(..), sends, SvssMsg::rb, deliveries);
        }
    }

    /// Adds a value to the open vector; `at` is the length of the step's
    /// send list at this moment.
    pub(crate) fn broadcast(&mut self, slot: SvssSlot, value: SvssRbValue<F>, at: usize) {
        if self.open.is_empty() {
            self.open_at = at;
        }
        self.open.push((slot, value));
    }

    /// The origin's step boundary: everything this process broadcast
    /// since the last one leaves as **one** Bracha instance — the scalar
    /// `(me, slot)` instance when it is a single value, else vector
    /// `(me, seq)` over the members in ascending slot order. Waits for
    /// nothing: the engine calls it at the end of every outermost entry
    /// point, never on a receipt or a timer. The init fan-out takes the
    /// place in `sends` where the first value was issued, so a step with
    /// one broadcast sends the messages, the bytes and the order it
    /// always did.
    ///
    /// # Panics
    ///
    /// Panics if this process already broadcast in one of the slots —
    /// slots are single-use by construction.
    pub(crate) fn close(&mut self, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        if self.open.is_empty() {
            return;
        }
        let me = self.me;
        let mut open = std::mem::take(&mut self.open);
        let mut fan_out = std::mem::take(&mut self.fan_out);
        self.started.0 += 1;
        self.started.1 += open.len() as u64;
        if open.len() == 1 {
            let (slot, value) = open.pop().expect("one member");
            assert!(
                self.claim(me, Instance::Scalar, [slot]),
                "RB slot started twice"
            );
            self.mux
                .broadcast_with(slot, value, &mut fan_out, SvssMsg::rb);
        } else {
            open.sort_unstable_by_key(|m| m.0);
            self.closed_vectors += 1;
            let seq = self.closed_vectors;
            assert!(
                self.claim(me, Instance::Vector(seq), open.iter().map(|m| m.0)),
                "RB slot started twice"
            );
            let members = RbVector::new(me, open.drain(..));
            let Slot::Live(idx) = self.vectors.intern((me, seq), || Rb::new(me)) else {
                unreachable!("own sequence numbers are fresh");
            };
            let wrap = |step, members| SvssMsg::rb_vector(me, seq, step, members);
            self.vectors
                .live_mut(idx)
                .start(self.params, members, &mut fan_out, wrap);
        }
        // (The list is the caller's: clamp rather than trust that it
        // only grew since the first value was issued.)
        let at = self.open_at.min(sends.len());
        sends.splice(at..at, fan_out.drain(..));
        self.open = open;
        self.fan_out = fan_out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sba_field::Gf61;
    use sba_net::{MwId, Unpacked};
    use std::collections::BTreeMap;

    type Msg = SvssMsg<Gf61>;
    type Member = (SvssSlot, SvssRbValue<Gf61>);
    type Delivery = RbDelivery<SvssSlot, SvssRbValue<Gf61>>;

    /// The slots the faulty origin plays with: few enough that its
    /// instances collide on them all the time.
    fn slot(k: u8) -> SvssSlot {
        let mw = MwId::standalone(u64::from(k / 2), Pid::new(1), Pid::new(2));
        SvssSlot::mw_recon(mw, Pid::new(1 + u32::from(k % 2)))
    }

    fn member(k: u8, v: u8) -> Member {
        (slot(k), SvssRbValue::Value(Gf61::from_u64(u64::from(v))))
    }

    /// One instance the faulty origin forms: a scalar or a vector, with
    /// — per recipient — which of two member lists (if any) arrives as
    /// its init and whether the origin also relays an echo and a ready
    /// for it.
    #[derive(Clone, Debug)]
    struct Forged {
        seq: u32,
        lists: [Vec<(u8, u8)>; 2],
        /// Per recipient: `(init: none / list 0 / list 1, echo, ready)`.
        plays: Vec<(u8, bool, bool)>,
    }

    /// `(slot, value)` draws as a member list: the first value drawn
    /// for a slot stands.
    fn one_value_per_slot(draws: Vec<(u8, u8)>) -> Vec<(u8, u8)> {
        let mut list = BTreeMap::new();
        for (k, v) in draws {
            list.entry(k).or_insert(v);
        }
        list.into_iter().collect()
    }

    fn forged_instance(n: usize) -> impl Strategy<Value = Forged> {
        let list =
            || proptest::collection::vec((0u8..4, 0u8..2), 1..4).prop_map(one_value_per_slot);
        (
            0u32..3,
            list(),
            list(),
            proptest::collection::vec((0u8..3, any::<bool>(), any::<bool>()), n),
        )
            .prop_map(|(seq, a, b, plays)| Forged {
                seq,
                lists: [a, b],
                plays,
            })
    }

    /// The message carrying `list` as instance `seq` of `origin` at
    /// `step`: the scalar message for a one-member list (whatever `seq`
    /// says — one canonical encoding), else a vector.
    fn instance_msg(origin: Pid, seq: u32, step: RbStep, list: &[(u8, u8)]) -> Msg {
        let mut members: Vec<Member> = list.iter().map(|&(k, v)| member(k, v)).collect();
        if members.len() == 1 {
            let (slot, value) = members.pop().expect("one member");
            return Msg::rb(slot, origin, step, value);
        }
        members.sort_by_key(|m| m.0);
        Msg::rb_vector(origin, seq, step, RbVector::new(origin, members))
    }

    /// Runs `n` processes' RB layers (the last process is faulty: it
    /// runs nothing, its traffic is `forged`) under a seed-drawn
    /// delivery order until nothing is in flight. Honest process `p`
    /// broadcasts `honest[p]` in one step, so as one instance. Returns
    /// each honest process's deliveries in order.
    fn run(n: usize, seed: u64, forged: &[Forged], honest: &[Vec<(u8, u8)>]) -> Vec<Vec<Delivery>> {
        let params = Params::new(n, (n - 1) / 3).expect("n > 3t");
        let bad = Pid::new(n as u32);
        let mut rbs: Vec<SvssRb<Gf61>> = Pid::all(n - 1).map(|p| SvssRb::new(p, params)).collect();
        let mut queue: Vec<(Pid, Pid, Msg)> = Vec::new();
        for f in forged {
            for (to, &(init, echo, ready)) in Pid::all(n).zip(&f.plays) {
                let list = &f.lists[usize::from(init == 2)];
                if init > 0 {
                    queue.push((bad, to, instance_msg(bad, f.seq, RbStep::Init, list)));
                }
                for (relay, step) in [(echo, RbStep::Echo), (ready, RbStep::Ready)] {
                    if relay {
                        queue.push((bad, to, instance_msg(bad, f.seq, step, &f.lists[0])));
                    }
                }
            }
        }
        let mut sends = Vec::new();
        for (rb, list) in rbs.iter_mut().zip(honest) {
            // Honest slots are the origin's own: disjoint from the
            // faulty origin's by the `origin` half of the key.
            for &(k, v) in list {
                let (slot, value) = member(k, v);
                rb.broadcast(slot, value, 0);
            }
            rb.close(&mut sends);
            queue.extend(sends.drain(..).map(|(to, m)| (rb.me, to, m)));
        }
        let mut logs: Vec<Vec<Delivery>> = vec![Vec::new(); n - 1];
        let mut rng = StdRng::seed_from_u64(seed);
        while !queue.is_empty() {
            let (from, to, msg) = queue.swap_remove(rng.gen_range(0..queue.len()));
            if to == bad {
                continue;
            }
            let at = (to.index() - 1) as usize;
            let (rb, log) = (&mut rbs[at], &mut logs[at]);
            match msg.unpack() {
                Unpacked::Rb {
                    slot,
                    origin,
                    step,
                    value,
                } => rb.on_scalar(from, slot, origin, step, value),
                Unpacked::RbVector {
                    origin,
                    seq,
                    step,
                    members,
                } => rb.on_vector(from, (origin, seq), step, members, &mut sends, log),
                other => unreachable!("RB traffic only: {other:?}"),
            }
            rb.flush(from, &mut sends, log);
            queue.extend(sends.drain(..).map(|(dest, m)| (to, dest, m)));
        }
        logs
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Slot-level agreement, integrity and totality of vector RB
        /// under a faulty origin that reuses slots across instances —
        /// the same slot in two vectors with different values, once
        /// scalar and once in a vector, inits to some recipients only,
        /// two member lists under one `seq` — and validity for honest
        /// origins. Per `(origin, slot)`: no process delivers twice, no
        /// two processes deliver different values, and what one honest
        /// process delivers every honest process delivers.
        #[test]
        fn vector_rb_agrees_slot_by_slot(
            big in any::<bool>(),
            seed in any::<u64>(),
            forged in proptest::collection::vec(forged_instance(7), 1..5),
            honest in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u8..2), 0..4).prop_map(one_value_per_slot), 6),
        ) {
            let n = if big { 7 } else { 4 };
            let logs = run(n, seed, &forged, &honest[..n - 1]);
            let mut agreed: BTreeMap<(Pid, SvssSlot), SvssRbValue<Gf61>> = BTreeMap::new();
            for log in &logs {
                let mut seen = BTreeMap::new();
                for d in log {
                    let key = (d.origin, d.tag);
                    prop_assert!(seen.insert(key, ()).is_none(), "{:?} delivered twice", key);
                    let first = agreed.entry(key).or_insert_with(|| d.value.clone());
                    prop_assert_eq!(&*first, &d.value, "{:?} delivered with two values", key);
                }
            }
            for log in &logs {
                prop_assert_eq!(log.len(), agreed.len(), "a delivery some process is missing");
            }
            for (p, list) in Pid::all(n - 1).zip(&honest[..n - 1]) {
                for &(k, v) in list {
                    let (slot, value) = member(k, v);
                    prop_assert_eq!(agreed.get(&(p, slot)), Some(&value), "honest broadcast lost");
                }
            }
        }
    }

    /// An init naming an origin outside `1..=n` — scalar or vector — is
    /// refused before it reaches the per-origin record: nothing is
    /// claimed, routed, relayed or delivered, and nothing panics.
    #[test]
    fn claims_refuse_origins_outside_the_system() {
        let n = 4;
        let params = Params::new(n, 1).expect("n > 3t");
        let mut rb: SvssRb<Gf61> = SvssRb::new(Pid::new(1), params);
        let (mut sends, mut log) = (Vec::new(), Vec::new());
        for origin in [Pid::new(n as u32 + 1), Pid::new(256)] {
            let (slot, value) = member(0, 1);
            rb.on_scalar(origin, slot, origin, RbStep::Init, value);
            let members = RbVector::new(origin, vec![member(0, 1), member(2, 1)]);
            rb.on_vector(
                origin,
                (origin, 1),
                RbStep::Init,
                members,
                &mut sends,
                &mut log,
            );
            rb.flush(origin, &mut sends, &mut log);
        }
        assert!(rb.claims.is_empty(), "no origin's record was built");
        assert!(sends.is_empty() && log.is_empty());
        assert_eq!(rb.live_instances(), 0);
        // A real origin's init is still claimed and echoed.
        let (slot, value) = member(0, 1);
        rb.on_scalar(Pid::new(2), slot, Pid::new(2), RbStep::Init, value);
        rb.flush(Pid::new(2), &mut sends, &mut log);
        assert_eq!(rb.claims[1].len(), 1);
        assert_eq!(sends.len(), n, "one echo per process");
    }

    /// The scenario the echo-once-per-slot rule exists for, pinned: two
    /// vectors of one origin share a slot with different values and
    /// every process hears both inits. Whichever init a process hears
    /// first is the only one it echoes, so at most one of the two is
    /// ever accepted (here, with the inits racing: possibly neither).
    #[test]
    fn two_vectors_sharing_a_slot_are_never_both_accepted() {
        for seed in 0..40 {
            let plays = vec![(1, true, true); 4];
            let a = Forged {
                seq: 1,
                lists: [vec![(0, 0), (1, 0)], vec![]],
                plays: plays.clone(),
            };
            let b = Forged {
                seq: 2,
                lists: [vec![(0, 1), (2, 0)], vec![]],
                plays,
            };
            for log in run(4, seed, &[a, b], &[vec![], vec![], vec![]]) {
                let shared = log.iter().filter(|d| d.tag == slot(0)).count();
                assert!(shared <= 1, "seed {seed}: slot 0 delivered {shared} times");
            }
        }
    }
}
