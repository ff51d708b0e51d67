//! Bracha Reliable Broadcast on top of WRB (paper, Lemma 6).
//!
//! # Layout
//!
//! [`crate::RbMux`] keeps every live [`Rb`] inline in one slab and routes
//! every delivered message of a run through one of them, so an instance
//! is flat and each step costs the same whatever `n` is. The echo and
//! ready counts are two `Tally`s — a bitset of the senders already
//! counted, plus each distinct value once with the number of senders
//! behind it (see `wrb.rs`) — the system parameters are the caller's and
//! arrive with each call, and outgoing messages are written straight
//! into the caller's send list through its `wrap`. While no sender
//! contradicts another, an instance owns no heap memory beyond what a
//! value `P` itself may hold.

use sba_net::{Pid, RbStep};

use crate::wrb::Tally;
use crate::{Params, Wrb, WrbMsg};

/// RB protocol messages: the embedded WRB exchange plus type-3 `Ready`
/// (a routing form; the wire carries them as `sba_net::WireMsg`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbMsg<P> {
    /// Types 1 and 2 (the WRB sub-protocol).
    Wrb(WrbMsg<P>),
    /// `(r, 3)` — "I know the WRB outcome is r".
    Ready(P),
}

impl<P> RbMsg<P> {
    /// The message of protocol step `step` carrying `payload`.
    pub fn of_step(step: RbStep, payload: P) -> Self {
        match step {
            RbStep::Init => RbMsg::Wrb(WrbMsg::Init(payload)),
            RbStep::Echo => RbMsg::Wrb(WrbMsg::Echo(payload)),
            RbStep::Ready => RbMsg::Ready(payload),
        }
    }

    /// The protocol step and the payload it carries (the flat wire
    /// format stores the two apart).
    pub fn into_step(self) -> (RbStep, P) {
        match self {
            RbMsg::Wrb(WrbMsg::Init(p)) => (RbStep::Init, p),
            RbMsg::Wrb(WrbMsg::Echo(p)) => (RbStep::Echo, p),
            RbMsg::Ready(p) => (RbStep::Ready, p),
        }
    }
}

/// One Reliable Broadcast instance (one dealer, one slot).
///
/// Protocol (Appendix A.2):
/// 1. the dealer WRB-broadcasts its value;
/// 2. on WRB-accepting `r`, send `(r, 3)` to all;
/// 3. on `t + 1` distinct `(r, 3)`, send `(r, 3)` if not yet sent;
/// 4. on `n − t` distinct `(r, 3)`, accept `r`.
///
/// Guarantees for `n > 3t`: all nonfaulty processes that accept, accept
/// the same value; if the dealer is nonfaulty everyone accepts its value;
/// if *any* nonfaulty process accepts, every nonfaulty process eventually
/// accepts (termination) — provided all nonfaulty processes keep relaying,
/// which is why the DMM filter upstream never suppresses RB-internal
/// traffic.
#[derive(Clone, Debug)]
pub struct Rb<P> {
    wrb: Wrb<P>,
    sent_ready: bool,
    /// Reduced to the accepted value once the instance accepts.
    readies: Tally<P>,
    accepted: bool,
}

impl<P: Clone + Eq> Rb<P> {
    /// Creates one process's instance of `dealer`'s broadcast.
    pub fn new(dealer: Pid) -> Self {
        Rb {
            wrb: Wrb::new(dealer),
            sent_ready: false,
            readies: Tally::new(),
            accepted: false,
        }
    }

    /// The value accepted so far, if any.
    pub fn accepted(&self) -> Option<&P> {
        self.readies.decided().filter(|_| self.accepted)
    }

    /// Dealer entry point. Only the dealer's own instance may be started.
    ///
    /// # Panics
    ///
    /// Panics if the instance was already started.
    pub fn start(&mut self, params: Params, value: P, sends: &mut Vec<(Pid, RbMsg<P>)>) {
        self.start_with(params, value, sends, |m| m);
    }

    /// [`Rb::start`], with each outgoing message passed through `wrap`
    /// on its way into the enclosing layer's send list.
    pub fn start_with<M>(
        &mut self,
        params: Params,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(RbMsg<P>) -> M,
    ) {
        self.wrb
            .start_with(params, value, sends, |m| wrap(RbMsg::Wrb(m)));
    }

    /// Handles one delivered message; returns the value if acceptance
    /// happened just now.
    pub fn on_message(
        &mut self,
        params: Params,
        from: Pid,
        msg: RbMsg<P>,
        sends: &mut Vec<(Pid, RbMsg<P>)>,
    ) -> Option<P> {
        self.on_message_with(params, from, msg, sends, |m| m)
    }

    /// [`Rb::on_message`], with each outgoing message passed through
    /// `wrap` on its way into the enclosing layer's send list.
    pub fn on_message_with<M>(
        &mut self,
        params: Params,
        from: Pid,
        msg: RbMsg<P>,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(RbMsg<P>) -> M,
    ) -> Option<P> {
        if self.accepted {
            // Acceptance is sticky and implies this process already sent
            // its ready (quorum ≥ amplification threshold), so remaining
            // traffic for this instance cannot change anything here, and
            // everyone else still terminates via ready amplification.
            return None;
        }
        let wrb_accepted = match msg {
            RbMsg::Wrb(m) => self
                .wrb
                .on_message_with(params, from, m, sends, |m| wrap(RbMsg::Wrb(m))),
            RbMsg::Ready(v) => {
                self.readies.add(params.n(), from, v);
                None
            }
        };
        if !self.sent_ready {
            // Ready for the WRB outcome — or, by amplification, for a value
            // with t+1 readies, which prove a nonfaulty process
            // WRB-accepted it.
            let amplified = || self.readies.winner(params.amplify()).cloned();
            if let Some(v) = wrb_accepted.or_else(amplified) {
                self.sent_ready = true;
                sends.extend(Pid::all(params.n()).map(|p| (p, wrap(RbMsg::Ready(v.clone())))));
            }
        }
        let v = self.readies.decide(params.quorum())?.clone();
        self.accepted = true;
        // Acceptance is final: the ready tally is down to the accepted
        // value and the WRB sub-machine's echo tally is dead state — a
        // finished instance waiting in the slab for its slot to be
        // recycled holds nothing else.
        self.wrb.shrink();
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synchronous harness: delivers every in-flight message in
    /// round-robin order until quiescent. Faulty processes are absent
    /// (silent), modelled by skipping deliveries to them.
    fn run_mesh(n: usize, t: usize, dealer: u32, value: u64, silent: &[u32]) -> Vec<Option<u64>> {
        let params = Params::new(n, t).unwrap();
        let mut procs: Vec<Rb<u64>> = (0..n).map(|_| Rb::new(Pid::new(dealer))).collect();
        let mut sends = Vec::new();
        procs[(dealer - 1) as usize].start(params, value, &mut sends);
        let mut inflight: Vec<(Pid, Pid, RbMsg<u64>)> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(dealer), to, m))
            .collect();
        let mut accepted: Vec<Option<u64>> = vec![None; n];
        while let Some((from, to, msg)) = inflight.pop() {
            if silent.contains(&to.index()) {
                continue;
            }
            let mut out = Vec::new();
            if let Some(v) =
                procs[(to.index() - 1) as usize].on_message(params, from, msg, &mut out)
            {
                accepted[(to.index() - 1) as usize] = Some(v);
            }
            inflight.extend(out.into_iter().map(|(t2, m)| (to, t2, m)));
        }
        accepted
    }

    #[test]
    fn honest_dealer_everyone_accepts() {
        let acc = run_mesh(4, 1, 1, 42, &[]);
        assert_eq!(acc, vec![Some(42); 4]);
    }

    #[test]
    fn tolerates_one_silent_process() {
        let acc = run_mesh(4, 1, 1, 42, &[3]);
        assert_eq!(acc[0], Some(42));
        assert_eq!(acc[1], Some(42));
        assert_eq!(acc[3], Some(42));
    }

    #[test]
    fn larger_system_with_max_faults() {
        let acc = run_mesh(7, 2, 3, 7, &[1, 5]);
        for (k, a) in acc.iter().enumerate() {
            if [1usize, 5].contains(&(k + 1)) {
                continue;
            }
            assert_eq!(*a, Some(7), "p{} did not accept", k + 1);
        }
    }

    /// Termination amplification: a process that saw only `t+1` readies
    /// (no WRB acceptance) still relays and eventually accepts.
    #[test]
    fn ready_amplification_accepts_without_wrb() {
        let params = Params::new(4, 1).unwrap();
        let mut p4 = Rb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        // p4 never saw any WRB traffic, only readies from 2 peers (t+1=2).
        assert!(p4
            .on_message(params, Pid::new(2), RbMsg::Ready(9), &mut out)
            .is_none());
        assert!(out.is_empty());
        assert!(p4
            .on_message(params, Pid::new(3), RbMsg::Ready(9), &mut out)
            .is_none());
        // Amplified: p4 itself sends Ready to all 4 processes.
        assert_eq!(out.len(), 4);
        assert!(matches!(out[0].1, RbMsg::Ready(9)));
        // Its own ready (self-delivery) is the 3rd distinct ready = quorum.
        let acc = p4.on_message(params, Pid::new(4), RbMsg::Ready(9), &mut out);
        assert_eq!(acc, Some(9));
    }

    #[test]
    fn conflicting_readies_cannot_reach_quorum_for_two_values() {
        let params = Params::new(4, 1).unwrap();
        let mut p2 = Rb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        p2.on_message(params, Pid::new(1), RbMsg::Ready(0), &mut out);
        p2.on_message(params, Pid::new(3), RbMsg::Ready(1), &mut out);
        p2.on_message(params, Pid::new(4), RbMsg::Ready(1), &mut out);
        // p2 amplifies value 1 (t+1 = 2 readies) with its own ready.
        let acc = p2.on_message(params, Pid::new(2), RbMsg::Ready(1), &mut out);
        assert_eq!(acc, Some(1));
        // Value 0 can never also be accepted: accepted is sticky.
        assert!(p2
            .on_message(params, Pid::new(2), RbMsg::Ready(0), &mut out)
            .is_none());
    }

    #[test]
    fn accept_fires_exactly_once() {
        let params = Params::new(4, 1).unwrap();
        let mut p2 = Rb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        let mut accepts = 0;
        for from in 1..=4u32 {
            if p2
                .on_message(params, Pid::new(from), RbMsg::Ready(5), &mut out)
                .is_some()
            {
                accepts += 1;
            }
        }
        assert_eq!(accepts, 1);
        assert_eq!(p2.accepted(), Some(&5));
    }

    /// A sender that is not one of the `n` processes is ignored: it is
    /// not counted, triggers no echo or ready, and cannot reach the
    /// bitset's index assertion.
    #[test]
    fn senders_outside_the_system_are_ignored() {
        let params = Params::new(4, 1).unwrap();
        for outsider in [Pid::new(5), Pid::new(100_000)] {
            let mut p2 = Rb::<u64>::new(Pid::new(1));
            let mut out = Vec::new();
            for msg in [
                RbMsg::Wrb(WrbMsg::Init(9)),
                RbMsg::Wrb(WrbMsg::Echo(9)),
                RbMsg::Ready(9),
                RbMsg::Ready(9),
            ] {
                assert!(p2.on_message(params, outsider, msg, &mut out).is_none());
            }
            assert!(out.is_empty());
            assert!(p2.readies.winner(1).is_none(), "nothing was counted");
            // One real ready is still one short of the amplification
            // threshold of two.
            p2.on_message(params, Pid::new(3), RbMsg::Ready(9), &mut out);
            assert!(out.is_empty());
        }
    }
}
