//! Multiplexing many RB instances over one channel.
//!
//! An RB instance is identified by `(origin, tag)`: who is broadcasting,
//! and what the instance carries. Within an instance, Bracha RB
//! guarantees all nonfaulty processes accept the same value — what this
//! mux provides is agreement *per instance*. Where a layer gives every
//! protocol slot an instance of its own (a vote in agreement round Y,
//! the coin's attach and support sets: `tag` is the slot), that is also
//! agreement per slot: "the value p broadcast for slot s" is well
//! defined everywhere. The SVSS engine does not: an origin's step
//! broadcasts many slots at once, so it carries them in **one** instance
//! per step (a *vector*; a lone value still takes a scalar instance
//! here, `tag` = slot), and since a faulty origin may then put one slot
//! into several instances, slot-level agreement needs one rule more —
//! echo at most one instance per `(origin, slot)`. The rule, its
//! quorum-intersection arithmetic and the vector instances themselves
//! live with that engine (`sba_svss::engine`'s module docs); this mux,
//! [`Rb`] and its tallies are as the paper's Appendix A has them.
//!
//! # Routing form, not wire form
//!
//! [`MuxMsg`] is an in-memory routing form with no encoding of its own:
//! the instance key `(tag, origin)` plus the paper's RB step and its
//! payload, the same four parts `sba_net::WireMsg` packs. A layer hands
//! the mux those parts as they come out of the wire message's unpacking,
//! and passes the matching `WireMsg` constructor as the `wrap` hook of
//! [`RbMux::broadcast_with`] / [`RbMux::on_batch_with`], so every send
//! leaves as the wire message it is. A new slot family reaches the wire
//! as a new row of that format's kind table, not as a codec here.
//!
//! # Instance store and retirement
//!
//! A full protocol run drives *hundreds of thousands* of RB slots per
//! process, and every delivered message routes through this mux. The
//! instances live in an [`Interner`] keyed by `(origin, tag)` — its
//! module docs explain the recycled slab, the retired store and the
//! one-line fingerprint index. What is specific to RB:
//!
//! - **Flat entries.** A slab entry is the interning key plus one
//!   [`Rb`], and an [`Rb`] is flat (see the `rb` module docs): two tallies
//!   of a sender bitset, a value and a count, a few flags. `me` and the
//!   system parameters are held once, here, and handed to each call;
//!   the instance writes its sends straight into the caller's list
//!   through the caller's `wrap`. Creating, driving and recycling an
//!   instance therefore allocates nothing unless senders contradict
//!   each other.
//! - **Retirement at accept.** Bracha RB fixes the accepted value at
//!   acceptance: once this process accepts, its `Ready` is already in
//!   flight to every peer (the accept quorum `n−t` exceeds the
//!   amplification threshold `t+1`), so the live state machine can never
//!   produce another send or a different value. At accept the whole
//!   [`Rb`] machine is retired for a compact accepted-value record.
//!   **Late-joiner story:** peers that have not accepted yet still
//!   terminate through ready amplification of the messages we already
//!   sent — late `Echo`/`Ready` traffic addressed to a retired slot needs
//!   no answer and is dropped, while local [`RbMux::accepted`] queries
//!   are answered from the record.

use std::hash::Hash;

use sba_net::{Interner, Pid, RbStep, Slot};

use crate::{Params, Rb};

/// A routed RB message: which instance it belongs to, the protocol step
/// and the value that step carries (an in-memory form; see the module
/// docs for how it travels).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MuxMsg<T, P> {
    /// Slot tag chosen by the broadcasting layer.
    pub tag: T,
    /// The broadcasting process (the RB dealer).
    pub origin: Pid,
    /// The RB protocol step.
    pub step: RbStep,
    /// The value the step carries.
    pub value: P,
}

impl<T, P> MuxMsg<T, P> {
    /// The message of step `step` carrying `value` in instance
    /// `(origin, tag)` — the mux's own `wrap` hook.
    pub fn new(tag: T, origin: Pid, step: RbStep, value: P) -> Self {
        MuxMsg {
            tag,
            origin,
            step,
            value,
        }
    }
}

/// A delivery produced by the mux: `origin` reliably broadcast `value`
/// for slot `tag`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RbDelivery<T, P> {
    /// The broadcasting process.
    pub origin: Pid,
    /// The slot.
    pub tag: T,
    /// The accepted value (identical at every nonfaulty process).
    pub value: P,
}

/// Manages all RB instances for one process.
///
/// # Examples
///
/// ```
/// use sba_broadcast::{Params, RbMux};
/// use sba_net::Pid;
///
/// let params = Params::new(4, 1).unwrap();
/// let mut mux: RbMux<u32, u64> = RbMux::new(Pid::new(1), params);
/// let mut sends = Vec::new();
/// mux.broadcast(7, 99, &mut sends);
/// assert_eq!(sends.len(), 4); // Init fan-out
/// ```
#[derive(Clone, Debug)]
pub struct RbMux<T, P> {
    me: Pid,
    params: Params,
    /// Live instances and accepted-value records, keyed by
    /// `(origin, tag)`.
    slots: Interner<(Pid, T), Rb<P>, P>,
}

impl<T, P> RbMux<T, P>
where
    T: Copy + Eq + Hash,
    P: Clone + Eq,
{
    /// Creates the mux for process `me`.
    pub fn new(me: Pid, params: Params) -> Self {
        RbMux {
            me,
            params,
            slots: Interner::new(),
        }
    }

    /// Reliably broadcasts `value` in slot `tag` (this process is origin),
    /// building each outgoing message with `wrap` from the instance key,
    /// step and payload — a layer passes its wire constructor.
    ///
    /// # Panics
    ///
    /// Panics if this process already broadcast in slot `tag` — slots are
    /// single-use by construction.
    pub fn broadcast_with<M>(
        &mut self,
        tag: T,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(T, Pid, RbStep, P) -> M,
    ) {
        let me = self.me;
        // A retired slot was accepted, which requires a prior start.
        let Slot::Live(idx) = self.slots.intern((me, tag), || Rb::new(me)) else {
            panic!("RB slot started twice (slot already retired)");
        };
        self.slots
            .live_mut(idx)
            .start(self.params, value, sends, |step, value| {
                wrap(tag, me, step, value)
            });
    }

    /// Reliably broadcasts `value` in slot `tag` (this process is origin).
    ///
    /// # Panics
    ///
    /// Panics if this process already broadcast in slot `tag` — slots are
    /// single-use by construction.
    pub fn broadcast(&mut self, tag: T, value: P, sends: &mut Vec<(Pid, MuxMsg<T, P>)>) {
        self.broadcast_with(tag, value, sends, MuxMsg::new);
    }

    /// Routes a whole delivered batch from one sender, building outgoing
    /// messages with `wrap` and appending any acceptances to
    /// `deliveries`. Semantically identical to routing the members one by
    /// one; the win is the probe memo — same-tick batches routinely carry
    /// several steps of the *same* slot (an echo quorum completing and
    /// the ready that follows it), and the memo turns the repeat index
    /// probes into one key comparison.
    pub fn on_batch_with<M>(
        &mut self,
        from: Pid,
        msgs: impl IntoIterator<Item = MuxMsg<T, P>>,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(T, Pid, RbStep, P) -> M,
        deliveries: &mut Vec<RbDelivery<T, P>>,
    ) {
        let mut memo = None;
        for msg in msgs {
            if let Some(d) = self.route_one(from, msg, sends, &mut wrap, &mut memo) {
                deliveries.push(d);
            }
        }
    }

    /// The routing core shared by the single-message and batch paths.
    /// `memo` caches the last probed `(origin, tag) → slot`; it is
    /// cleared when that slot retires (the live index is recycled).
    /// Traffic for a retired slot is dropped (see the module docs for why
    /// that is safe), and so is traffic naming an origin outside `1..=n`:
    /// no such process broadcasts, so its instance could never accept or
    /// retire.
    fn route_one<M>(
        &mut self,
        from: Pid,
        msg: MuxMsg<T, P>,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(T, Pid, RbStep, P) -> M,
        memo: &mut Option<((Pid, T), Slot)>,
    ) -> Option<RbDelivery<T, P>> {
        let (tag, origin) = (msg.tag, msg.origin);
        if origin.index() as usize > self.params.n() {
            return None;
        }
        let slot = match memo {
            Some((key, slot)) if *key == (origin, tag) => *slot,
            _ => {
                let slot = self.slots.intern((origin, tag), || Rb::new(origin));
                *memo = Some(((origin, tag), slot));
                slot
            }
        };
        let Slot::Live(idx) = slot else {
            return None; // retired: late traffic needs no answer
        };
        let wrap = |step, value| wrap(tag, origin, step, value);
        let rb = self.slots.live_mut(idx);
        let value = rb.on_step(self.params, from, msg.step, msg.value, sends, wrap)?;
        // Retire: acceptance is final, our ready is already in flight to
        // everyone — keep only the value. The accepted machine already
        // shrank its tallies (see `Rb`), so the husk left in the slab
        // until it is recycled is small.
        self.slots.retire(idx, value.clone());
        *memo = None; // the cached live index just became a record
        Some(RbDelivery { origin, tag, value })
    }

    /// Routes one delivered mux message; returns an RB delivery if the
    /// underlying instance just accepted.
    pub fn on_message(
        &mut self,
        from: Pid,
        msg: MuxMsg<T, P>,
        sends: &mut Vec<(Pid, MuxMsg<T, P>)>,
    ) -> Option<RbDelivery<T, P>> {
        self.route_one(from, msg, sends, MuxMsg::new, &mut None)
    }

    /// The accepted value for slot `(origin, tag)`, if that instance
    /// accepted already (answered from the retirement record once the
    /// instance is retired).
    pub fn accepted(&self, origin: Pid, tag: &T) -> Option<&P> {
        match self.slots.probe(&(origin, *tag))? {
            Slot::Retired(idx) => Some(self.slots.retired(idx)),
            // Live instances never hold an accepted value: acceptance
            // retires the slot in the same call.
            Slot::Live(_) => None,
        }
    }

    /// Number of live (not yet accepted) RB instances — the working-set
    /// metric for memory accounting tests.
    pub fn instance_count(&self) -> usize {
        self.slots.live_count()
    }

    /// High-water mark of concurrently live instances (slab capacity is
    /// never shrunk, so this is exactly the peak working set).
    pub fn live_peak(&self) -> usize {
        self.slots.live_peak()
    }

    /// Number of retired (accepted and reclaimed) instances.
    pub fn retired_count(&self) -> usize {
        self.slots.retired_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = MuxMsg<u32, u64>;

    /// Synchronously runs a mesh of muxes to quiescence.
    fn pump(
        muxes: &mut [RbMux<u32, u64>],
        mut inflight: Vec<(Pid, Pid, Msg)>,
    ) -> Vec<Vec<RbDelivery<u32, u64>>> {
        let mut delivered: Vec<Vec<RbDelivery<u32, u64>>> = vec![Vec::new(); muxes.len()];
        while let Some((from, to, msg)) = inflight.pop() {
            let mut out = Vec::new();
            let d = muxes[(to.index() - 1) as usize].on_message(from, msg, &mut out);
            if let Some(d) = d {
                delivered[(to.index() - 1) as usize].push(d);
            }
            inflight.extend(out.into_iter().map(|(t, m)| (to, t, m)));
        }
        delivered
    }

    #[test]
    fn concurrent_slots_do_not_interfere() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        // p1 broadcasts in slot 10, p2 in slot 20, interleaved.
        let mut sends = Vec::new();
        muxes[0].broadcast(10, 111, &mut sends);
        let mut inflight: Vec<(Pid, Pid, Msg)> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(1), to, m))
            .collect();
        let mut sends2 = Vec::new();
        muxes[1].broadcast(20, 222, &mut sends2);
        inflight.extend(sends2.into_iter().map(|(to, m)| (Pid::new(2), to, m)));

        let delivered = pump(&mut muxes, inflight);
        for (k, dels) in delivered.iter().enumerate() {
            assert_eq!(dels.len(), 2, "p{} deliveries", k + 1);
            let mut got: Vec<(u32, u64)> = dels.iter().map(|d| (d.tag, d.value)).collect();
            got.sort_unstable();
            assert_eq!(got, vec![(10, 111), (20, 222)]);
        }
    }

    #[test]
    fn same_tag_different_origins_are_distinct_instances() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        let mut inflight = Vec::new();
        for origin in [1u32, 2] {
            let mut sends = Vec::new();
            muxes[(origin - 1) as usize].broadcast(5, u64::from(origin) * 100, &mut sends);
            inflight.extend(sends.into_iter().map(|(to, m)| (Pid::new(origin), to, m)));
        }
        let delivered = pump(&mut muxes, inflight);
        for dels in &delivered {
            assert_eq!(dels.len(), 2);
            for d in dels {
                assert_eq!(d.value, u64::from(d.origin.index()) * 100);
            }
        }
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn slot_reuse_panics() {
        let params = Params::new(4, 1).unwrap();
        let mut mux: RbMux<u32, u64> = RbMux::new(Pid::new(1), params);
        let mut sends = Vec::new();
        mux.broadcast(1, 1, &mut sends);
        mux.broadcast(1, 2, &mut sends);
    }

    #[test]
    #[should_panic(expected = "started twice")]
    fn slot_reuse_after_retirement_panics() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        let mut sends = Vec::new();
        muxes[0].broadcast(1, 1, &mut sends);
        let inflight: Vec<(Pid, Pid, Msg)> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(1), to, m))
            .collect();
        pump(&mut muxes, inflight);
        assert_eq!(muxes[0].retired_count(), 1);
        muxes[0].broadcast(1, 2, &mut sends);
    }

    #[test]
    fn accepted_lookup() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        let mut sends = Vec::new();
        muxes[0].broadcast(3, 33, &mut sends);
        let inflight: Vec<(Pid, Pid, Msg)> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(1), to, m))
            .collect();
        pump(&mut muxes, inflight);
        for m in &muxes {
            assert_eq!(m.accepted(Pid::new(1), &3), Some(&33));
            assert_eq!(m.accepted(Pid::new(2), &3), None);
        }
    }

    /// After a slot completes everywhere, every process has retired it:
    /// the live instance count drops back while the record remains.
    #[test]
    fn accepted_instances_retire() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        let mut inflight = Vec::new();
        for slot in 0..10u32 {
            let mut sends = Vec::new();
            muxes[0].broadcast(slot, u64::from(slot), &mut sends);
            inflight.extend(sends.into_iter().map(|(to, m)| (Pid::new(1), to, m)));
        }
        pump(&mut muxes, inflight);
        for m in &muxes {
            assert_eq!(m.retired_count(), 10, "all slots accepted");
            assert_eq!(m.instance_count(), 0, "no live state survives");
            for slot in 0..10u32 {
                assert_eq!(m.accepted(Pid::new(1), &slot), Some(&u64::from(slot)));
            }
        }
    }

    /// Late traffic for a retired slot is dropped without output and
    /// without resurrecting the instance.
    #[test]
    fn late_traffic_to_retired_slot_is_inert() {
        let params = Params::new(4, 1).unwrap();
        let mut muxes: Vec<RbMux<u32, u64>> = (1..=4u32)
            .map(|i| RbMux::new(Pid::new(i), params))
            .collect();
        let mut sends = Vec::new();
        muxes[0].broadcast(3, 33, &mut sends);
        let inflight: Vec<(Pid, Pid, Msg)> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(1), to, m))
            .collect();
        pump(&mut muxes, inflight);
        let (live, retired) = (muxes[1].instance_count(), muxes[1].retired_count());
        // Replay every step at p2, with the accepted value and with
        // another one.
        for step in [RbStep::Init, RbStep::Echo, RbStep::Ready] {
            for value in [33, 44] {
                let mut out = Vec::new();
                let msg = MuxMsg::new(3, Pid::new(1), step, value);
                let d = muxes[1].on_message(Pid::new(4), msg, &mut out);
                assert!(d.is_none(), "retired slot must not deliver again");
                assert!(out.is_empty(), "retired slot must not send");
            }
        }
        assert_eq!(muxes[1].instance_count(), live, "no resurrection");
        assert_eq!(muxes[1].retired_count(), retired);
        assert_eq!(muxes[1].accepted(Pid::new(1), &3), Some(&33));
    }

    /// Batch routing is observationally identical to routing the same
    /// messages one at a time: same sends (order included), same
    /// deliveries, same live/retired accounting.
    #[test]
    fn batch_routing_matches_sequential() {
        let params = Params::new(4, 1).unwrap();
        // A same-sender burst that exercises the probe memo: echoes and
        // the ready for one slot, interleaved with a second slot.
        let burst: Vec<Msg> = vec![
            MuxMsg::new(7, Pid::new(1), RbStep::Init, 42),
            MuxMsg::new(7, Pid::new(1), RbStep::Echo, 42),
            MuxMsg::new(9, Pid::new(3), RbStep::Ready, 5),
            MuxMsg::new(7, Pid::new(1), RbStep::Ready, 42),
        ];
        let mut seq: RbMux<u32, u64> = RbMux::new(Pid::new(2), params);
        let mut seq_sends = Vec::new();
        let mut seq_deliveries = Vec::new();
        for msg in burst.clone() {
            if let Some(d) = seq.on_message(Pid::new(4), msg, &mut seq_sends) {
                seq_deliveries.push(d);
            }
        }
        let mut bat: RbMux<u32, u64> = RbMux::new(Pid::new(2), params);
        let mut bat_sends = Vec::new();
        let mut bat_deliveries = Vec::new();
        bat.on_batch_with(
            Pid::new(4),
            burst,
            &mut bat_sends,
            MuxMsg::new,
            &mut bat_deliveries,
        );
        assert_eq!(seq_sends, bat_sends);
        assert_eq!(seq_deliveries, bat_deliveries);
        assert_eq!(seq.instance_count(), bat.instance_count());
        assert_eq!(seq.retired_count(), bat.retired_count());
    }

    /// Traffic naming an origin that is no process (past `n`, up to the
    /// 256 a packed pid byte can name) builds no instance on any entry
    /// point: nothing is sent, delivered, or kept live.
    #[test]
    fn origins_outside_the_system_build_no_instance() {
        let params = Params::new(4, 1).unwrap();
        let mut mux: RbMux<u32, u64> = RbMux::new(Pid::new(2), params);
        let (mut out, mut deliveries) = (Vec::new(), Vec::new());
        let from = Pid::new(4); // the one faulty peer
        for origin in [Pid::new(5), Pid::new(256)] {
            for (tag, step) in [RbStep::Init, RbStep::Echo, RbStep::Ready]
                .into_iter()
                .enumerate()
            {
                let msg = MuxMsg::new(tag as u32, origin, step, 9);
                assert!(mux.on_message(from, msg.clone(), &mut out).is_none());
                let batch = [msg.clone(), msg];
                mux.on_batch_with(from, batch, &mut out, MuxMsg::new, &mut deliveries);
            }
        }
        assert!(out.is_empty() && deliveries.is_empty());
        assert_eq!((mux.instance_count(), mux.live_peak()), (0, 0));
    }
}
