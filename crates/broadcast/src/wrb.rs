//! Weak Reliable Broadcast: Dolev's crusader agreement (paper, Lemma 5).
//!
//! This module also owns [`Tally`], the vote counter behind both the
//! echo step here and the ready step of [`crate::Rb`].

use sba_net::{Pid, ProcessSet, RbStep};

use crate::Params;

/// Who sent what, for one echo or ready step: the set of senders already
/// counted, and every distinct value in first-seen order with the number
/// of senders behind it.
///
/// Echo and ready are the hottest message kinds of a run, so the tally is
/// O(1) per message and holds no per-sender state beyond one bit: honest
/// traffic carries a single value, which sits inline; `spill` fills only
/// when senders disagree (an equivocating or lying process), so a live
/// instance owns no heap memory in an honest run.
#[derive(Clone, Debug)]
pub(crate) struct Tally<P> {
    counted: ProcessSet,
    first: Option<(P, u32)>,
    spill: Vec<(P, u32)>,
}

impl<P: Eq> Tally<P> {
    pub(crate) fn new() -> Self {
        Tally {
            counted: ProcessSet::new(),
            first: None,
            spill: Vec::new(),
        }
    }

    /// Counts `value` for `from`. A sender's first message is the one
    /// that counts, and a sender that is not one of the `n` processes
    /// counts for nothing.
    pub(crate) fn add(&mut self, n: usize, from: Pid, value: P) {
        let i = from.index();
        if i as usize > n || i > ProcessSet::MAX_INDEX || !self.counted.insert(from) {
            return;
        }
        match &mut self.first {
            None => self.first = Some((value, 1)),
            Some((v, c)) if *v == value => *c += 1,
            Some(_) => match self.spill.iter_mut().find(|(v, _)| *v == value) {
                Some((_, c)) => *c += 1,
                None => self.spill.push((value, 1)),
            },
        }
    }

    /// If a value has at least `threshold` senders, reduces the tally to
    /// that value alone — the decision is all the tally existed for —
    /// and returns it.
    pub(crate) fn decide(&mut self, threshold: usize) -> Option<&P> {
        let reached = |(_, c): &(P, u32)| *c as usize >= threshold;
        if !self.first.as_ref().is_some_and(reached) {
            let at = self.spill.iter().position(reached)?;
            self.first = Some(self.spill.swap_remove(at));
        }
        self.counted = ProcessSet::new();
        self.spill = Vec::new();
        self.decided()
    }

    /// The value a successful [`Tally::decide`] left behind (before
    /// one, merely the first value seen).
    pub(crate) fn decided(&self) -> Option<&P> {
        self.first.as_ref().map(|(v, _)| v)
    }

    /// The first value, in first-seen order, that at least `threshold`
    /// senders sent.
    pub(crate) fn winner(&self, threshold: usize) -> Option<&P> {
        self.first
            .iter()
            .chain(&self.spill)
            .find(|(_, c)| *c as usize >= threshold)
            .map(|(v, _)| v)
    }
}

/// One Weak Reliable Broadcast instance (one dealer, one slot).
///
/// Protocol (Appendix A.1):
/// 1. the dealer sends `(s, 1)` to all;
/// 2. a process receiving `(r, 1)` from the dealer that has never echoed
///    sends `(r, 2)` to all;
/// 3. a process receiving `n − t` echoes with the same value accepts it.
///
/// An instance stores only what is its own: the system parameters belong
/// to whoever owns the instances (one [`crate::RbMux`] holds thousands)
/// and are passed to each call.
///
/// # Examples
///
/// ```
/// use sba_broadcast::{Params, Wrb};
/// use sba_net::{Pid, RbStep};
///
/// let params = Params::new(4, 1).unwrap();
/// let mut dealer = Wrb::<u64>::new(Pid::new(1));
/// let mut sends = Vec::new();
/// dealer.start(params, 7, &mut sends, |step, value| (step, value));
/// assert_eq!(sends.len(), 4); // Init to everyone, including itself
/// assert!(sends.iter().all(|&(_, m)| m == (RbStep::Init, 7)));
/// ```
#[derive(Clone, Debug)]
pub struct Wrb<P> {
    dealer: Pid,
    sent_echo: bool,
    started: bool,
    /// Reduced to the accepted value once the instance accepts.
    echoes: Tally<P>,
    accepted: bool,
}

impl<P: Clone + Eq> Wrb<P> {
    /// Creates one process's instance of `dealer`'s broadcast.
    pub fn new(dealer: Pid) -> Self {
        Wrb {
            dealer,
            sent_echo: false,
            started: false,
            echoes: Tally::new(),
            accepted: false,
        }
    }

    /// Drops the echo tally. Called by the enclosing RB once its own
    /// acceptance makes this sub-machine's future output irrelevant.
    pub(crate) fn shrink(&mut self) {
        self.echoes = Tally::new();
    }

    /// Dealer entry point: broadcast `value` to all processes, each
    /// message built by `wrap` from its step and payload. Only the
    /// dealer's own instance may be started.
    ///
    /// # Panics
    ///
    /// Panics if the instance was already started.
    pub fn start<M>(
        &mut self,
        params: Params,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(RbStep, P) -> M,
    ) {
        assert!(!self.started, "WRB instance started twice");
        self.started = true;
        sends.extend(Pid::all(params.n()).map(|p| (p, wrap(RbStep::Init, value.clone()))));
    }

    /// Handles one delivered step carrying `value`; pushes outgoing
    /// messages, built by `wrap`, to `sends` and returns a newly accepted
    /// value, if acceptance happened just now. A `Ready` is no WRB step
    /// and changes nothing.
    pub fn on_step<M>(
        &mut self,
        params: Params,
        from: Pid,
        step: RbStep,
        value: P,
        sends: &mut Vec<(Pid, M)>,
        mut wrap: impl FnMut(RbStep, P) -> M,
    ) -> Option<P> {
        match step {
            RbStep::Init => {
                // Only the dealer's type-1 counts; echo at most once.
                if from == self.dealer && !self.sent_echo {
                    self.sent_echo = true;
                    sends.extend(
                        Pid::all(params.n()).map(|p| (p, wrap(RbStep::Echo, value.clone()))),
                    );
                }
                None
            }
            RbStep::Echo => {
                if self.accepted {
                    return None; // sticky
                }
                self.echoes.add(params.n(), from, value);
                let winner = self.echoes.decide(params.quorum())?.clone();
                self.accepted = true;
                Some(winner)
            }
            RbStep::Ready => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<P: Clone + Eq> Wrb<P> {
        /// The value accepted so far, if any.
        fn accepted(&self) -> Option<&P> {
            self.echoes.decided().filter(|_| self.accepted)
        }
    }

    fn params4() -> Params {
        Params::new(4, 1).unwrap()
    }

    /// The tests' `wrap`: an outgoing message as its step and payload.
    fn pair(step: RbStep, value: u64) -> (RbStep, u64) {
        (step, value)
    }

    /// The tally this crate used before [`Tally`], kept as the reference
    /// model: first message per sender in arrival order, re-scanned on
    /// every query. Returns the first value held by at least `threshold`
    /// distinct senders, counting each distinct value once at its first
    /// occurrence.
    fn value_with_count<P: Clone + Eq>(entries: &[(Pid, P)], threshold: usize) -> Option<P> {
        for (i, (_, v)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(_, u)| u == v) {
                continue;
            }
            if entries.iter().filter(|(_, u)| u == v).count() >= threshold {
                return Some(v.clone());
            }
        }
        None
    }

    proptest! {
        /// Duplicates, equivocation and values that first appear late:
        /// after every message the new tally names the same winner as the
        /// old one, at the amplification threshold and at the quorum.
        #[test]
        fn tally_matches_value_with_count(
            t in 1usize..6,
            msgs in proptest::collection::vec((1u32..=16, 0u8..4), 0..60),
        ) {
            let n = 3 * t + 1;
            let mut tally = Tally::new();
            let mut entries: Vec<(Pid, u8)> = Vec::new();
            for (from, value) in msgs {
                let from = Pid::new(1 + (from - 1) % n as u32);
                tally.add(n, from, value);
                if !entries.iter().any(|&(q, _)| q == from) {
                    entries.push((from, value));
                }
                for threshold in [t + 1, n - t] {
                    prop_assert_eq!(
                        tally.winner(threshold).copied(),
                        value_with_count(&entries, threshold)
                    );
                }
            }
        }
    }

    /// A sender that is not one of the `n` processes is ignored — it is
    /// not counted, triggers no echo, and cannot reach the bitset's
    /// index assertion.
    #[test]
    fn senders_outside_the_system_are_ignored() {
        let params = params4();
        for outsider in [Pid::new(5), Pid::new(100_000)] {
            let mut p2 = Wrb::<u64>::new(Pid::new(1));
            let mut out = Vec::new();
            p2.on_step(params, outsider, RbStep::Init, 5, &mut out, pair);
            for _ in 0..3 {
                let acc = p2.on_step(params, outsider, RbStep::Echo, 5, &mut out, pair);
                assert!(acc.is_none());
            }
            assert!(out.is_empty());
            assert!(p2.echoes.winner(1).is_none(), "nothing was counted");
            // Two real echoes are still one short of the quorum of three.
            p2.on_step(params, Pid::new(2), RbStep::Echo, 5, &mut out, pair);
            p2.on_step(params, Pid::new(3), RbStep::Echo, 5, &mut out, pair);
            assert!(p2.accepted().is_none());
        }
    }

    /// Drives a full WRB exchange by hand among 4 processes.
    #[test]
    fn honest_dealer_all_accept() {
        let params = params4();
        let mut procs: Vec<Wrb<u64>> = (0..4).map(|_| Wrb::new(Pid::new(1))).collect();
        let mut sends = Vec::new();
        procs[0].start(params, 99, &mut sends, pair);

        // Deliver all messages until quiescent (synchronous full mesh).
        let mut inflight: Vec<(Pid, Pid, (RbStep, u64))> = sends
            .drain(..)
            .map(|(to, m)| (Pid::new(1), to, m))
            .collect();
        let mut accepted = vec![None; 4];
        while let Some((from, to, (step, v))) = inflight.pop() {
            let mut out = Vec::new();
            let acc =
                procs[(to.index() - 1) as usize].on_step(params, from, step, v, &mut out, pair);
            if let Some(v) = acc {
                accepted[(to.index() - 1) as usize] = Some(v);
            }
            inflight.extend(out.into_iter().map(|(t, m)| (to, t, m)));
        }
        assert_eq!(accepted, vec![Some(99); 4]);
    }

    /// Two nonfaulty processes can never accept different values, even if
    /// the dealer equivocates: quorums of echoes intersect in a nonfaulty
    /// echoer who echoes once.
    #[test]
    fn equivocating_dealer_cannot_split_acceptance() {
        let params = params4();
        // p1 faulty dealer; p2..p4 honest. Dealer sends Init(0) to p2, p3
        // and Init(1) to p4. Honest echoes: p2, p3 echo 0; p4 echoes 1.
        let mut p2 = Wrb::<u64>::new(Pid::new(1));
        let mut p3 = Wrb::<u64>::new(Pid::new(1));
        let mut p4 = Wrb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        p2.on_step(params, Pid::new(1), RbStep::Init, 0, &mut out, pair);
        p3.on_step(params, Pid::new(1), RbStep::Init, 0, &mut out, pair);
        p4.on_step(params, Pid::new(1), RbStep::Init, 1, &mut out, pair);
        // Feed every honest echo plus a faulty echo for value 1 to all.
        let echoes = [
            (Pid::new(2), 0u64),
            (Pid::new(3), 0),
            (Pid::new(4), 1),
            (Pid::new(1), 1), // faulty echo
        ];
        let mut accs = Vec::new();
        for proc_ in [&mut p2, &mut p3, &mut p4] {
            for &(from, v) in &echoes {
                let mut o = Vec::new();
                if let Some(a) = proc_.on_step(params, from, RbStep::Echo, v, &mut o, pair) {
                    accs.push(a);
                }
            }
        }
        // Value 0 has 2 echoes, value 1 has 2: quorum is 3 — nobody accepts.
        assert!(accs.is_empty());
    }

    #[test]
    fn duplicate_echoes_do_not_fake_quorum() {
        let params = params4();
        let mut p2 = Wrb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        // Same faulty sender echoes three times.
        for _ in 0..3 {
            assert!(p2
                .on_step(params, Pid::new(3), RbStep::Echo, 5, &mut out, pair)
                .is_none());
        }
        assert!(p2.accepted().is_none());
    }

    #[test]
    fn echo_sent_once_even_with_two_inits() {
        let params = params4();
        let mut p2 = Wrb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        p2.on_step(params, Pid::new(1), RbStep::Init, 5, &mut out, pair);
        assert_eq!(out.len(), 4);
        p2.on_step(params, Pid::new(1), RbStep::Init, 6, &mut out, pair);
        assert_eq!(out.len(), 4, "second Init must not trigger another echo");
    }

    #[test]
    fn init_from_non_dealer_ignored() {
        let params = params4();
        let mut p2 = Wrb::<u64>::new(Pid::new(1));
        let mut out = Vec::new();
        p2.on_step(params, Pid::new(3), RbStep::Init, 5, &mut out, pair);
        assert!(out.is_empty());
    }
}
