//! The per-process agreement node: vote rounds + coin + decide gossip.
//!
//! # The unread coin
//!
//! After its own round-`r` outcome is `Decide(v)`, a process enters `r+1`
//! and votes but does not deal `r+1`'s coin: by the paper's round lemma,
//! checked here against `round.rs`'s predicates, no honest process reads it.
//! 1. Votes ride RB (one vote per origin everywhere), and `Some(v)` needs
//!    `τ_B = ⌊(n+t)/2⌋+1 > n/2` valid `v` candidates: `Some(v)` and
//!    `Some(¬v)` never both validate in one round.
//! 2. The decider saw `n−t` origins vote `Some(v)`, so at most `t` voted
//!    otherwise and every `n−t` sample holds `≥ n−2t` `Some(v)`: every
//!    honest process enters `r+1` holding `v`.
//! 3. Anywhere, a `¬v` report needs `min(c_v, n−2t−1) + c_⊥ ≥ n−t`, i.e.
//!    `c_⊥ ≥ t+1`, which 2 rules out. So no `¬v` candidate and no `⊥` or
//!    `Some(¬v)` vote validates (`⌊(n+t)/2⌋ < n−t` as `n > 3t`): round
//!    `r+1` decides `v` everywhere and never reaches `UseCoin`.
//! 4. Shun accounting loses nothing: an undealt session cannot disagree.
//! 5. A process that only adopted in `r` still deals `r+1`'s coin. That
//!    session never completes (deciders do not deal) and nobody reads it;
//!    halting comes from the decide gossip, and instance teardown is what
//!    will retire such sessions. `tests/round_lemma.rs` checks 2 and 3.

use std::collections::{BTreeMap, HashMap};

use sba_broadcast::{MuxMsg, Params, RbDelivery, RbMux};
use sba_coin::oracle::{Flip, OracleCoin};
use sba_coin::{CoinEngine, CoinEvent};
use sba_field::Field;
use sba_net::{Pid, Unpacked, Wire};

use crate::{AbaMsg, RoundOutcome, RoundState, VoteSlot, VoteValue};

/// Which common-coin construction drives liveness.
#[derive(Clone, Copy, Debug)]
pub enum CoinMode {
    /// The paper's shunning common coin over SVSS (the contribution).
    Scc,
    /// A Ben-Or-style private coin: no communication, exponential expected
    /// rounds — the classic baseline the paper improves on.
    Local,
    /// A seed-derived oracle: perfect common coin with `ε = 0`, or the
    /// ε-failing Canetti–Rabin stand-in (sessions may hang forever).
    Oracle(OracleCoin),
}

/// Node configuration.
#[derive(Clone, Copy, Debug)]
pub struct AbaConfig {
    /// System parameters (`n`, `t`).
    pub params: Params,
    /// Seed for this process's randomness (polynomials, local coins).
    pub seed: u64,
    /// The coin construction.
    pub mode: CoinMode,
    /// Stop advancing past this round (keeps diverging baselines bounded
    /// in experiments; the SCC protocol never needs it in practice).
    /// Must stay below `2^24` (coin tags pack the round into 24 bits).
    pub max_rounds: u32,
    /// Whether the DMM's detection/shunning machinery is active
    /// (disable only for the E8 ablation).
    pub detection: bool,
}

impl AbaConfig {
    /// A config with the SCC coin and an effectively unbounded round cap.
    pub fn scc(params: Params, seed: u64) -> Self {
        AbaConfig {
            params,
            seed,
            mode: CoinMode::Scc,
            max_rounds: 10_000,
            detection: true,
        }
    }
}

/// Events reported by the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbaEvent {
    /// This process decided `value` in `round` of `instance`.
    Decided {
        /// The agreement instance.
        instance: u32,
        /// The agreed bit.
        value: bool,
        /// The round in which this process decided.
        round: u32,
    },
    /// This process saw `n−t` decide gossips and halted `instance`.
    Halted {
        /// The agreement instance.
        instance: u32,
    },
    /// The shunning layer detected a new faulty process.
    Shunned {
        /// The shunned process.
        process: Pid,
    },
}

/// Per-instance state.
#[derive(Clone, Debug)]
struct Instance {
    started: bool,
    value: bool,
    current_round: u32,
    rounds: BTreeMap<u32, RoundState>,
    decided: Option<bool>,
    decide_round: u32,
    decide_sent: bool,
    decides: BTreeMap<Pid, bool>,
    halted: bool,
}

impl Instance {
    fn new() -> Self {
        Instance {
            started: false,
            value: false,
            current_round: 0,
            rounds: BTreeMap::new(),
            decided: None,
            decide_round: 0,
            decide_sent: false,
            decides: BTreeMap::new(),
            halted: false,
        }
    }
}

/// An asynchronous Byzantine agreement node (one process), able to run
/// many binary-agreement instances over one shunning domain.
///
/// Lifecycle per instance: [`AbaNode::propose`] with the input bit, feed
/// messages via [`AbaNode::on_message`], watch for [`AbaEvent::Decided`]
/// and [`AbaEvent::Halted`] from [`AbaNode::take_events`].
#[derive(Clone)]
pub struct AbaNode<F: Field> {
    me: Pid,
    config: AbaConfig,
    coin: Option<CoinEngine<F>>,
    mux: RbMux<VoteSlot, VoteValue>,
    instances: HashMap<u32, Instance>,
    events: Vec<AbaEvent>,
    /// Reusable batch-routing buffers for [`AbaNode::on_batch`]
    /// (capacity survives across deliveries). The coin engine shares
    /// the flat wire type, so its sends go straight into the caller's
    /// list — no rewrap buffer.
    vote_run: Vec<MuxMsg<VoteSlot, VoteValue>>,
    vote_deliveries: Vec<RbDelivery<VoteSlot, VoteValue>>,
    coin_batch: Vec<AbaMsg<F>>,
    touched: Vec<u32>,
    /// Reusable one-member batch for [`AbaNode::on_message`].
    one: Vec<AbaMsg<F>>,
}

fn coin_tag(instance: u32, round: u32) -> u64 {
    (u64::from(instance) << 24) | u64::from(round)
}

impl<F: Field> AbaNode<F> {
    /// Creates the node for process `me`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_rounds` is `2^24` or more (see
    /// [`AbaConfig::max_rounds`]).
    pub fn new(me: Pid, config: AbaConfig) -> Self {
        // Round 2^24 of one instance would name round 0 of the next.
        assert!(
            config.max_rounds < 1 << 24,
            "max_rounds {} would alias coin tags (must be below 2^24)",
            config.max_rounds
        );
        let coin = match config.mode {
            CoinMode::Scc => {
                let mut c = CoinEngine::new(me, config.params, config.seed);
                if !config.detection {
                    c.disable_detection();
                }
                Some(c)
            }
            _ => None,
        };
        AbaNode {
            me,
            config,
            coin,
            mux: RbMux::new(me, config.params),
            instances: HashMap::new(),
            events: Vec::new(),
            vote_run: Vec::new(),
            vote_deliveries: Vec::new(),
            coin_batch: Vec::new(),
            touched: Vec::new(),
            one: Vec::new(),
        }
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<AbaEvent> {
        std::mem::take(&mut self.events)
    }

    /// The decision of `instance`, if reached.
    pub fn decision(&self, instance: u32) -> Option<bool> {
        self.instances.get(&instance).and_then(|i| i.decided)
    }

    /// The round in which this process decided `instance`.
    pub fn decision_round(&self, instance: u32) -> Option<u32> {
        self.instances
            .get(&instance)
            .filter(|i| i.decided.is_some())
            .map(|i| i.decide_round)
    }

    /// Whether `instance` has halted at this process.
    pub fn halted(&self, instance: u32) -> bool {
        self.instances.get(&instance).is_some_and(|i| i.halted)
    }

    /// The round this process is currently in for `instance`.
    pub fn current_round(&self, instance: u32) -> u32 {
        self.instances.get(&instance).map_or(0, |i| i.current_round)
    }

    /// Read access to the coin engine (SCC mode; for experiments).
    pub fn coin(&self) -> Option<&CoinEngine<F>> {
        self.coin.as_ref()
    }

    /// `(live, peak, retired)` RB instance counts across every mux this
    /// node owns (vote layer + coin + SVSS). The memory-accounting hook:
    /// retirement keeps `live` (and the peak working set) bounded while
    /// `retired` grows with the run.
    pub fn rb_instance_stats(&self) -> (usize, usize, usize) {
        let (mut live, mut peak, mut retired) = (
            self.mux.instance_count(),
            self.mux.live_peak(),
            self.mux.retired_count(),
        );
        if let Some(coin) = &self.coin {
            let (l, p, r) = coin.rb_instance_stats();
            live += l;
            peak += p;
            retired += r;
        }
        (live, peak, retired)
    }

    /// Proposes `value` for `instance` and starts round 1.
    ///
    /// # Panics
    ///
    /// Panics if this instance was already proposed by this process.
    pub fn propose(&mut self, instance: u32, value: bool, sends: &mut Vec<(Pid, AbaMsg<F>)>) {
        let inst = self.instances.entry(instance).or_insert_with(Instance::new);
        assert!(!inst.started, "instance {instance} proposed twice");
        inst.started = true;
        inst.value = value;
        self.start_round(instance, 1, sends);
        self.advance(instance, sends);
    }

    fn start_round(&mut self, instance: u32, round: u32, sends: &mut Vec<(Pid, AbaMsg<F>)>) {
        let inst = self.instances.get_mut(&instance).expect("instance exists");
        if inst.halted || round > self.config.max_rounds {
            return;
        }
        inst.current_round = round;
        let prev = inst.rounds.get(&(round - 1)).and_then(|s| s.outcome);
        let state = inst.rounds.entry(round).or_default();
        if state.a_sent {
            return;
        }
        state.a_sent = true;
        let value = inst.value;
        self.vote_broadcast(
            VoteSlot::Report { instance, round },
            VoteValue::Bit(value),
            sends,
        );
        // SCC: the coin's sharing phase runs concurrently with the votes.
        // After my own `Decide` nobody reads this round's coin (the module
        // doc's round lemma), so it is not dealt. Round 1 always deals.
        let unread = matches!(prev, Some(RoundOutcome::Decide(_)));
        if let Some(coin) = self.coin.as_mut().filter(|_| !unread) {
            let state = self
                .instances
                .get_mut(&instance)
                .expect("instance exists")
                .rounds
                .entry(round)
                .or_default();
            if !state.coin_started {
                state.coin_started = true;
                coin.start(coin_tag(instance, round), sends);
            }
        }
    }

    fn vote_broadcast(
        &mut self,
        slot: VoteSlot,
        value: VoteValue,
        sends: &mut Vec<(Pid, AbaMsg<F>)>,
    ) {
        self.mux.broadcast_with(slot, value, sends, AbaMsg::vote_rb);
    }

    /// Records one accepted vote-layer broadcast into its instance's
    /// round state; returns the touched instance.
    fn record_vote_delivery(&mut self, d: RbDelivery<VoteSlot, VoteValue>) -> u32 {
        let instance = d.tag.instance();
        let inst = self.instances.entry(instance).or_insert_with(Instance::new);
        // The flat wire fixes each phase's value shape (`WireMsg::vote_rb`
        // refuses any other pairing, decode rejects it), so every
        // delivery is one of these four.
        match (d.tag, d.value) {
            (VoteSlot::Report { round, .. }, VoteValue::Bit(v)) => {
                inst.rounds.entry(round).or_default().deliver_a(d.origin, v);
            }
            (VoteSlot::Candidate { round, .. }, VoteValue::Bit(v)) => {
                inst.rounds.entry(round).or_default().deliver_b(d.origin, v);
            }
            (VoteSlot::Vote { round, .. }, VoteValue::MaybeBit(v)) => {
                inst.rounds.entry(round).or_default().deliver_c(d.origin, v);
            }
            (VoteSlot::Decide { .. }, VoteValue::Bit(v)) => {
                inst.decides.entry(d.origin).or_insert(v);
            }
            (slot, value) => unreachable!("{slot:?} cannot carry {value:?}"),
        }
        instance
    }

    /// Feeds a whole same-sender delivery batch (drained from `msgs`):
    /// vote members route through the mux's batch path, everything else
    /// through the coin engine's, and the per-instance `advance` fixpoint
    /// runs **once per touched instance** instead of once per message.
    pub fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<AbaMsg<F>>,
        sends: &mut Vec<(Pid, AbaMsg<F>)>,
    ) {
        let mut votes = std::mem::take(&mut self.vote_run);
        let mut coins = std::mem::take(&mut self.coin_batch);
        for msg in msgs.drain(..) {
            if msg.wire_kind().is_vote_rb() {
                let Unpacked::VoteRb {
                    slot,
                    origin,
                    step,
                    value,
                } = msg.unpack()
                else {
                    unreachable!("vote RB kinds unpack as VoteRb");
                };
                votes.push(MuxMsg::new(slot, origin, step, value));
            } else {
                coins.push(msg);
            }
        }
        let mut deliveries = std::mem::take(&mut self.vote_deliveries);
        self.mux.on_batch_with(
            from,
            votes.drain(..),
            sends,
            AbaMsg::vote_rb,
            &mut deliveries,
        );
        let mut touched = std::mem::take(&mut self.touched);
        for d in deliveries.drain(..) {
            touched.push(self.record_vote_delivery(d));
        }
        if !coins.is_empty() {
            if let Some(coin) = self.coin.as_mut() {
                coin.on_batch(from, &mut coins, sends);
            } else {
                coins.clear(); // no coin engine in this mode: inert
            }
            touched.extend(self.absorb_coin_events());
        }
        touched.sort_unstable();
        touched.dedup();
        self.vote_run = votes;
        self.coin_batch = coins;
        self.vote_deliveries = deliveries;
        // `touched` is a local here (detached from self), so `advance` —
        // which can recurse into other instances — borrows freely.
        for &instance in &touched {
            self.advance(instance, sends);
        }
        touched.clear();
        self.touched = touched;
    }

    /// Feeds one delivered message: a one-member [`AbaNode::on_batch`].
    pub fn on_message(&mut self, from: Pid, msg: AbaMsg<F>, sends: &mut Vec<(Pid, AbaMsg<F>)>) {
        let mut one = std::mem::take(&mut self.one);
        one.push(msg);
        self.on_batch(from, &mut one, sends);
        self.one = one;
    }

    fn absorb_coin_events(&mut self) -> Vec<u32> {
        let mut instances = Vec::new();
        if let Some(coin) = self.coin.as_mut() {
            for ev in coin.take_events() {
                match ev {
                    CoinEvent::Flipped { tag, .. } => {
                        instances.push((tag >> 24) as u32);
                    }
                    CoinEvent::Shunned { process } => {
                        self.events.push(AbaEvent::Shunned { process });
                    }
                }
            }
        }
        instances.sort_unstable();
        instances.dedup();
        instances
    }

    /// The coin value for a round, per the configured mode. `None` means
    /// not yet available (or never, for a hung ε-coin).
    fn coin_value(&self, instance: u32, round: u32) -> Option<bool> {
        match self.config.mode {
            CoinMode::Scc => self
                .coin
                .as_ref()
                .and_then(|c| c.output(coin_tag(instance, round))),
            CoinMode::Local => {
                // Private randomness: derived from my seed — independent
                // across processes, which is the whole (in)efficiency.
                let h = OracleCoin::new(self.config.seed ^ (u64::from(self.me.index()) << 48), 0)
                    .flip(coin_tag(instance, round));
                match h {
                    Flip::Common(b) => Some(b),
                    Flip::Hangs => unreachable!("epsilon is 0"),
                }
            }
            CoinMode::Oracle(oracle) => match oracle.flip(coin_tag(instance, round)) {
                Flip::Common(b) => Some(b),
                Flip::Hangs => None, // the Canetti–Rabin ε-failure
            },
        }
    }

    /// Monotone advancement of one instance.
    fn advance(&mut self, instance: u32, sends: &mut Vec<(Pid, AbaMsg<F>)>) {
        loop {
            let mut progressed = false;

            // Revalidate all rounds bottom-up (validity of round k reports
            // depends on round k−1 votes).
            {
                let inst = self.instances.entry(instance).or_insert_with(Instance::new);
                let n = self.config.params.n();
                let t = self.config.params.t();
                let round_nums: Vec<u32> = inst.rounds.keys().copied().collect();
                for r in round_nums {
                    let prev = if r > 1 {
                        inst.rounds.get(&(r - 1)).cloned()
                    } else {
                        None
                    };
                    let state = inst.rounds.get_mut(&r).expect("round exists");
                    if state.revalidate(prev.as_ref(), n, t) {
                        progressed = true;
                    }
                }
            }

            progressed |= self.phase_progress(instance, sends);
            progressed |= self.decide_gossip(instance, sends);

            if !progressed {
                break;
            }
        }
    }

    /// Drives my own phases in the current round.
    fn phase_progress(&mut self, instance: u32, sends: &mut Vec<(Pid, AbaMsg<F>)>) -> bool {
        let n = self.config.params.n();
        let t = self.config.params.t();
        let (round, b_to_send, c_to_send, enable_coin, outcome_now);
        {
            let inst = self.instances.entry(instance).or_insert_with(Instance::new);
            if !inst.started || inst.halted || inst.current_round == 0 {
                return false;
            }
            round = inst.current_round;
            let state = inst.rounds.entry(round).or_default();
            b_to_send = if state.a_sent && !state.b_sent {
                state.candidate_bit(n, t)
            } else {
                None
            };
            if b_to_send.is_some() {
                state.b_sent = true;
            }
            c_to_send = if state.b_sent && !state.c_sent {
                state.vote(n, t)
            } else {
                None
            };
            if c_to_send.is_some() {
                state.c_sent = true;
            }
            enable_coin = state.c_sent && !state.coin_enabled && self.coin.is_some();
            if enable_coin {
                state.coin_enabled = true;
            }
            outcome_now = if state.c_sent && state.outcome.is_none() {
                state.compute_outcome(n, t)
            } else {
                None
            };
            if let Some(o) = outcome_now {
                state.outcome = Some(o);
            }
        }

        let mut progressed = false;
        if let Some(b) = b_to_send {
            self.vote_broadcast(
                VoteSlot::Candidate { instance, round },
                VoteValue::Bit(b),
                sends,
            );
            progressed = true;
        }
        if let Some(c) = c_to_send {
            self.vote_broadcast(
                VoteSlot::Vote { instance, round },
                VoteValue::MaybeBit(c),
                sends,
            );
            progressed = true;
        }
        if enable_coin {
            // Vote locked: the adversary may now learn the coin.
            if let Some(coin) = self.coin.as_mut() {
                coin.enable_reconstruct(coin_tag(instance, round), sends);
                let flips = self.absorb_coin_events();
                for other in flips {
                    if other != instance {
                        self.advance(other, sends);
                    }
                }
            }
            progressed = true;
        }

        // Resolve the outcome and enter the next round.
        let (outcome, already_advanced, coin_started) = {
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            let state = inst.rounds.entry(round).or_default();
            (state.outcome, state.advanced, state.coin_started)
        };
        let Some(outcome) = outcome else {
            return progressed;
        };
        if already_advanced {
            return progressed;
        }
        // The round lemma: a round whose coin I skipped never needs it.
        debug_assert!(outcome != RoundOutcome::UseCoin || coin_started || self.coin.is_none());
        let next_value = match outcome {
            RoundOutcome::Decide(v) | RoundOutcome::Adopt(v) => v,
            RoundOutcome::UseCoin => match self.coin_value(instance, round) {
                Some(v) => v,
                None => return progressed, // coin pending (or hung ε-coin)
            },
        };
        {
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            inst.rounds.entry(round).or_default().advanced = true;
            inst.value = next_value;
            if let (RoundOutcome::Decide(v), None) = (outcome, inst.decided) {
                inst.decided = Some(v);
                inst.decide_round = round;
                self.events.push(AbaEvent::Decided {
                    instance,
                    value: v,
                    round,
                });
            }
        }
        self.start_round(instance, round + 1, sends);
        true
    }

    /// Decide gossip: broadcast my decision; adopt on `t+1`, halt on `n−t`.
    fn decide_gossip(&mut self, instance: u32, sends: &mut Vec<(Pid, AbaMsg<F>)>) -> bool {
        let n = self.config.params.n();
        let t = self.config.params.t();
        let mut progressed = false;

        let send_decide;
        let adopt;
        let halt;
        {
            let inst = self.instances.entry(instance).or_insert_with(Instance::new);
            send_decide = match inst.decided {
                Some(v) if !inst.decide_sent => {
                    inst.decide_sent = true;
                    Some(v)
                }
                _ => None,
            };
            let count = |v: bool| inst.decides.values().filter(|&&x| x == v).count();
            adopt = [true, false]
                .into_iter()
                .find(|&v| count(v) > t && inst.decided.is_none());
            halt = [true, false].into_iter().any(|v| count(v) >= n - t) && !inst.halted;
        }

        if let Some(v) = send_decide {
            self.vote_broadcast(VoteSlot::Decide { instance }, VoteValue::Bit(v), sends);
            progressed = true;
        }
        if let Some(v) = adopt {
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            inst.decided = Some(v);
            inst.decide_round = inst.current_round;
            self.events.push(AbaEvent::Decided {
                instance,
                value: v,
                round: inst.current_round,
            });
            progressed = true;
        }
        if halt {
            let inst = self.instances.get_mut(&instance).expect("instance exists");
            inst.halted = true;
            self.events.push(AbaEvent::Halted { instance });
            progressed = true;
        }
        progressed
    }
}

/// Adapter: run an [`AbaNode`] as a simulated process.
///
/// The node is `done` once every proposed instance halted. Its events
/// come out of [`AbaProcess::take_events`]; the [`Process`](sba_sim::Process)
/// impl keeps none of them (`sba::ClusterProcess` logs them).
#[derive(Clone)]
pub struct AbaProcess<F: Field> {
    node: AbaNode<F>,
    proposals: Vec<(u32, bool)>,
    /// Reusable send buffer for the node→outbox adapter (per-delivery
    /// allocation-free).
    send_scratch: Vec<(Pid, AbaMsg<F>)>,
    /// Cached `done()` answer. The run loop polls doneness after every
    /// delivery for every process; halting is monotone, so once true it
    /// stays true, and only a fresh `Halted` event can flip it.
    done: bool,
}

impl<F: Field> AbaProcess<F> {
    /// Creates a process that will propose the given `(instance, bit)`
    /// pairs at start.
    pub fn new(node: AbaNode<F>, proposals: Vec<(u32, bool)>) -> Self {
        let proposals_all_halted = proposals.iter().all(|&(instance, _)| node.halted(instance));
        AbaProcess {
            node,
            proposals,
            send_scratch: Vec::new(),
            done: proposals_all_halted,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &AbaNode<F> {
        &self.node
    }

    /// The wrapped node, to feed it deliveries; drain its events through
    /// [`AbaProcess::take_events`], which keeps `done` current.
    pub fn node_mut(&mut self) -> &mut AbaNode<F> {
        &mut self.node
    }

    /// Proposes the `(instance, bit)` pairs it was built with: its first
    /// step.
    pub fn propose_all(&mut self, sends: &mut Vec<(Pid, AbaMsg<F>)>) {
        for &(instance, bit) in &self.proposals {
            self.node.propose(instance, bit, sends);
        }
    }

    /// Drains the node's events since the last call. A fresh `Halted`
    /// event is the only thing that can flip doneness, so the cache
    /// recomputes exactly then.
    pub fn take_events(&mut self) -> Vec<AbaEvent> {
        let events = self.node.take_events();
        if !self.done && events.iter().any(|e| matches!(e, AbaEvent::Halted { .. })) {
            self.done = self
                .proposals
                .iter()
                .all(|&(instance, _)| self.node.halted(instance));
        }
        events
    }

    /// Runs `step` into the send buffer, then moves its sends to `out`.
    fn flush(
        &mut self,
        out: &mut sba_net::Outbox<AbaMsg<F>>,
        step: impl FnOnce(&mut Self, &mut Vec<(Pid, AbaMsg<F>)>),
    ) {
        let mut sends = std::mem::take(&mut self.send_scratch);
        step(self, &mut sends);
        for (to, m) in sends.drain(..) {
            out.send(to, m);
        }
        self.send_scratch = sends;
        self.take_events();
    }
}

impl<F: Field> sba_sim::Process<AbaMsg<F>> for AbaProcess<F>
where
    AbaMsg<F>: Wire,
{
    fn on_start(&mut self, out: &mut sba_net::Outbox<AbaMsg<F>>) {
        self.flush(out, Self::propose_all);
    }

    fn on_message(&mut self, from: Pid, msg: AbaMsg<F>, out: &mut sba_net::Outbox<AbaMsg<F>>) {
        self.flush(out, |p, sends| p.node.on_message(from, msg, sends));
    }

    fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<AbaMsg<F>>,
        out: &mut sba_net::Outbox<AbaMsg<F>>,
    ) {
        self.flush(out, |p, sends| p.node.on_batch(from, msgs, sends));
    }

    fn done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;
    use sba_net::Kinded;

    fn config() -> AbaConfig {
        AbaConfig::scc(sba_broadcast::Params::new(4, 1).unwrap(), 7)
    }

    #[test]
    fn scc_config_defaults() {
        let c = config();
        assert!(c.detection);
        assert!(matches!(c.mode, CoinMode::Scc));
        assert_eq!(c.max_rounds, 10_000);
    }

    #[test]
    fn accessors_before_any_progress() {
        let node: AbaNode<Gf61> = AbaNode::new(Pid::new(1), config());
        assert_eq!(node.decision(0), None);
        assert_eq!(node.decision_round(0), None);
        assert!(!node.halted(0));
        assert_eq!(node.current_round(0), 0);
        assert!(node.coin().is_some(), "SCC mode carries a coin engine");
    }

    #[test]
    fn local_mode_has_no_coin_engine() {
        let mut c = config();
        c.mode = CoinMode::Local;
        let node: AbaNode<Gf61> = AbaNode::new(Pid::new(1), c);
        assert!(node.coin().is_none());
    }

    #[test]
    #[should_panic(expected = "proposed twice")]
    fn double_propose_panics() {
        let mut node: AbaNode<Gf61> = AbaNode::new(Pid::new(1), config());
        let mut sends = Vec::new();
        node.propose(0, true, &mut sends);
        node.propose(0, false, &mut sends);
    }

    #[test]
    fn propose_starts_round_one_and_coin() {
        let mut node: AbaNode<Gf61> = AbaNode::new(Pid::new(2), config());
        let mut sends = Vec::new();
        node.propose(0, true, &mut sends);
        assert_eq!(node.current_round(0), 1);
        // The fan-out contains both the report RB and the coin's sharing.
        assert!(sends.iter().any(|(_, m)| m.kind() == "aba/report"));
        assert!(sends.iter().any(|(_, m)| !m.wire_kind().is_vote_rb()));
    }

    #[test]
    #[should_panic(expected = "would alias coin tags")]
    fn max_rounds_past_the_coin_tag_packing_rejected() {
        let mut c = config();
        c.max_rounds = 1 << 24;
        let _: AbaNode<Gf61> = AbaNode::new(Pid::new(1), c);
    }

    #[test]
    fn coin_tag_packs_instance_and_round() {
        assert_eq!(coin_tag(0, 1), 1);
        assert_eq!(coin_tag(1, 1), (1 << 24) | 1);
        assert_ne!(coin_tag(2, 3), coin_tag(3, 2));
    }
}
