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
use crate::{Params, Wrb};

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

    /// Dealer entry point: WRB-broadcasts `value`, each message built by
    /// `wrap` from its step and payload. Only the dealer's own instance
    /// may be started.
    ///
    /// # Panics
    ///
    /// Panics if the instance was already started.
    pub fn start<M>(
        &mut self,
        params: Params,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        wrap: impl FnMut(RbStep, P) -> M,
    ) {
        self.wrb.start(params, value, sends, wrap);
    }

    /// Handles one delivered step carrying `value`, building each
    /// outgoing message with `wrap`; returns the value if acceptance
    /// happened just now.
    pub fn on_step<M>(
        &mut self,
        params: Params,
        from: Pid,
        step: RbStep,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(RbStep, P) -> M,
    ) -> Option<P> {
        if self.accepted {
            // Acceptance is sticky and implies this process already sent
            // its ready (quorum ≥ amplification threshold), so remaining
            // traffic for this instance cannot change anything here, and
            // everyone else still terminates via ready amplification.
            return None;
        }
        let wrb_accepted = if step == RbStep::Ready {
            self.readies.add(params.n(), from, value);
            None
        } else {
            self.wrb
                .on_step(params, from, step, value, sends, &mut wrap)
        };
        if !self.sent_ready {
            // Ready for the WRB outcome — or, by amplification, for a value
            // with t+1 readies, which prove a nonfaulty process
            // WRB-accepted it.
            let amplified = || self.readies.winner(params.amplify()).cloned();
            if let Some(v) = wrb_accepted.or_else(amplified) {
                self.sent_ready = true;
                sends.extend(Pid::all(params.n()).map(|p| (p, wrap(RbStep::Ready, v.clone()))));
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

    impl<P: Clone + Eq> Rb<P> {
        /// The value accepted so far, if any.
        fn accepted(&self) -> Option<&P> {
            self.readies.decided().filter(|_| self.accepted)
        }
    }

    /// The tests' `wrap`: an outgoing message as its step and payload.
    fn pair(step: RbStep, value: u64) -> (RbStep, u64) {
        (step, value)
    }

    /// A tiny synchronous harness: delivers every in-flight message in
    /// round-robin order until quiescent. Faulty processes are absent
    /// (silent), modelled by skipping deliveries to them.
    fn run_mesh(n: usize, t: usize, dealer: u32, value: u64, silent: &[u32]) -> Vec<Option<u64>> {
        let params = Params::new(n, t).unwrap();
        let mut procs: Vec<Rb<u64>> = (0..n).map(|_| Rb::new(Pid::new(dealer))).collect();
        let mut sends = Vec::new();
        procs[(dealer - 1) as usize].start(params, value, &mut sends, pair);
        let mut inflight: Vec<(Pid, Pid, (RbStep, u64))> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(dealer), to, m))
            .collect();
        let mut accepted: Vec<Option<u64>> = vec![None; n];
        while let Some((from, to, (step, v))) = inflight.pop() {
            if silent.contains(&to.index()) {
                continue;
            }
            let mut out = Vec::new();
            if let Some(v) =
                procs[(to.index() - 1) as usize].on_step(params, from, step, v, &mut out, pair)
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
            .on_step(params, Pid::new(2), RbStep::Ready, 9, &mut out, pair)
            .is_none());
        assert!(out.is_empty());
        assert!(p4
            .on_step(params, Pid::new(3), RbStep::Ready, 9, &mut out, pair)
            .is_none());
        // Amplified: p4 itself sends Ready to all 4 processes.
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].1, (RbStep::Ready, 9));
        // Its own ready (self-delivery) is the 3rd distinct ready = quorum.
        let acc = p4.on_step(params, Pid::new(4), RbStep::Ready, 9, &mut out, pair);
        assert_eq!(acc, Some(9));
    }

    #[test]
    fn conflicting_readies_cannot_reach_quorum_for_two_values() {
        let params = Params::new(4, 1).unwrap();
        let mut p2 = Rb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        p2.on_step(params, Pid::new(1), RbStep::Ready, 0, &mut out, pair);
        p2.on_step(params, Pid::new(3), RbStep::Ready, 1, &mut out, pair);
        p2.on_step(params, Pid::new(4), RbStep::Ready, 1, &mut out, pair);
        // p2 amplifies value 1 (t+1 = 2 readies) with its own ready.
        let acc = p2.on_step(params, Pid::new(2), RbStep::Ready, 1, &mut out, pair);
        assert_eq!(acc, Some(1));
        // Value 0 can never also be accepted: accepted is sticky.
        assert!(p2
            .on_step(params, Pid::new(2), RbStep::Ready, 0, &mut out, pair)
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
                .on_step(params, Pid::new(from), RbStep::Ready, 5, &mut out, pair)
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
            for step in [RbStep::Init, RbStep::Echo, RbStep::Ready, RbStep::Ready] {
                assert!(p2
                    .on_step(params, outsider, step, 9, &mut out, pair)
                    .is_none());
            }
            assert!(out.is_empty());
            assert!(p2.readies.winner(1).is_none(), "nothing was counted");
            // One real ready is still one short of the amplification
            // threshold of two.
            p2.on_step(params, Pid::new(3), RbStep::Ready, 9, &mut out, pair);
            assert!(out.is_empty());
        }
    }
}
