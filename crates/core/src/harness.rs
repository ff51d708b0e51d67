//! Multi-process SVSS and coin runs on the simulator, for tests,
//! experiments and `examples/secret_sharing.rs`. An [`SvssNet`] or a
//! [`CoinNet`] is the run struct [`Net`] of [`Node`](crate::Node)s that a
//! [`Cluster`](crate::Cluster) is, over another [`Engine`] and a seeded
//! uniform adversary (delays 1..=8), so its processes take the same
//! faults: a [`Role`](crate::Role) by [`Net::corrupt`], a rewrite of
//! each send by [`Net::set_tamper`], and a receiver-side hold.
//! [`Net::deliver_matching`] scripts a schedule message by message (the
//! paper's Example 1): a delivery the predicate rejects waits, unread,
//! at its recipient until a later run admits it — the simulator draws
//! one delay per `(event, recipient)` group, so no scheduler could hold
//! back a single message. Commands from outside the message flow
//! (share, reconstruct, start a coin, inject a raw message) are
//! [`Simulation::act`](sba_sim::Simulation::act) steps.

use std::sync::Arc;

use sba_aba::{AbaEvent, AbaProcess};
use sba_broadcast::Params;
use sba_coin::{CoinEngine, CoinEvent};
use sba_field::{Domain, Field};
use sba_net::{MwId, Pid, SvssId, WireMsg};
use sba_sim::Process;
use sba_svss::{Reconstructed, SvssEngine, SvssEvent};

use crate::cluster::Net;

/// Sends as `(recipient, message)` pairs, the engines' output form.
pub type Sends<F> = Vec<(Pid, WireMsg<F>)>;

/// A per-process protocol engine, the inside of a [`Node`](crate::Node): sends go
/// into a list, outputs come out as an event stream.
pub trait Engine: Clone + Send + 'static {
    /// The field of its messages: every layer speaks `WireMsg<Field>`.
    type Field: Field;
    /// What the engine reports to its caller.
    type Event: Clone + Send + 'static;
    /// Its first step (an agreement process proposes); the default does
    /// nothing.
    fn on_start(&mut self, _sends: &mut Sends<Self::Field>) {}
    /// Feeds one same-sender delivery batch (drained from `msgs`).
    fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<WireMsg<Self::Field>>,
        sends: &mut Sends<Self::Field>,
    );
    /// Drains the events reported since the last call.
    fn take_events(&mut self) -> Vec<Self::Event>;
    /// Whether it has produced its final output; the default never does
    /// (SVSS and coin runs go to quiescence).
    fn done(&self) -> bool {
        false
    }
    /// The process `event` newly shuns, if it is a shun.
    fn shunned(event: &Self::Event) -> Option<Pid>;
    /// Its agreement decision, once made; the default never makes one
    /// (SVSS and coin engines decide nothing, so the
    /// [checker](crate::monitor)'s agreement and validity are vacuous
    /// for them).
    fn decision(&self) -> Option<bool> {
        None
    }
}

impl<F: Field> Engine for SvssEngine<F> {
    type Field = F;
    type Event = SvssEvent<F>;
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<WireMsg<F>>, sends: &mut Sends<F>) {
        SvssEngine::on_batch(self, from, msgs, sends);
    }
    fn take_events(&mut self) -> Vec<SvssEvent<F>> {
        SvssEngine::take_events(self)
    }
    fn shunned(event: &SvssEvent<F>) -> Option<Pid> {
        match event {
            SvssEvent::Shunned { process, .. } => Some(*process),
            _ => None,
        }
    }
}

impl<F: Field> Engine for CoinEngine<F> {
    type Field = F;
    type Event = CoinEvent;
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<WireMsg<F>>, sends: &mut Sends<F>) {
        CoinEngine::on_batch(self, from, msgs, sends);
    }
    fn take_events(&mut self) -> Vec<CoinEvent> {
        CoinEngine::take_events(self)
    }
    fn shunned(event: &CoinEvent) -> Option<Pid> {
        match event {
            CoinEvent::Shunned { process } => Some(*process),
            CoinEvent::Flipped { .. } => None,
        }
    }
}

impl<F: Field> Engine for AbaProcess<F> {
    type Field = F;
    type Event = AbaEvent;
    fn on_start(&mut self, sends: &mut Sends<F>) {
        self.propose_all(sends);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<WireMsg<F>>, sends: &mut Sends<F>) {
        self.node_mut().on_batch(from, msgs, sends);
    }
    fn take_events(&mut self) -> Vec<AbaEvent> {
        AbaProcess::take_events(self)
    }
    fn done(&self) -> bool {
        Process::done(self)
    }
    fn shunned(event: &AbaEvent) -> Option<Pid> {
        match event {
            AbaEvent::Shunned { process } => Some(*process),
            _ => None,
        }
    }
    fn decision(&self) -> Option<bool> {
        self.node().decision(0)
    }
}

/// A mesh of SVSS engines.
pub type SvssNet<F> = Net<SvssEngine<F>>;

/// A mesh of common-coin engines.
pub type CoinNet<F> = Net<CoinEngine<F>>;

impl<F: Field> SvssNet<F> {
    /// `params.n()` honest engines; `seed` drives both the engines'
    /// sampling and the schedule.
    pub fn new(params: Params, seed: u64) -> Self {
        // One shared domain: its tables are O(n²) to build.
        let domain = Arc::new(Domain::new(params.n()));
        let seed_of = |p: Pid| seed ^ (u64::from(p.index()) << 32);
        let engine = |p| SvssEngine::with_domain(p, params, seed_of(p), Arc::clone(&domain));
        Net::mesh(Pid::all(params.n()).map(engine), seed)
    }

    /// Delivers everything, held messages included, until quiescent.
    pub fn run(&mut self) {
        self.settle(None);
    }

    /// Dealer `id.dealer()` shares `secret` in SVSS session `id`.
    pub fn share(&mut self, id: SvssId, secret: F) {
        self.act(id.dealer(), |e, sends| e.share(id, secret, sends));
    }

    /// Every live process invokes reconstruct for session `id`.
    pub fn reconstruct_all(&mut self, id: SvssId) {
        self.act_all(|e, sends| e.reconstruct(id, sends));
    }

    /// Standalone MW share by its dealer.
    pub fn mw_share(&mut self, id: MwId, secret: F) {
        self.act(id.dealer(), |e, sends| e.mw_share(id, secret, sends));
    }

    /// Standalone MW moderator input.
    pub fn mw_set_moderator_input(&mut self, id: MwId, value: F) {
        self.act(id.moderator(), |e, sends| {
            e.mw_set_moderator_input(id, value, sends)
        });
    }

    /// Every live process invokes the standalone MW reconstruct for `id`.
    pub fn mw_reconstruct_all(&mut self, id: MwId) {
        self.act_all(|e, sends| e.mw_reconstruct(id, sends));
    }

    /// Whether every live process completed the share of `id`.
    pub fn all_shares_completed(&self, id: SvssId) -> bool {
        self.live().all(|p| self.engine(p).share_completed(id))
    }

    /// Every live process's output for session `id` (`None` for one that
    /// has not output).
    pub fn outputs(&self, id: SvssId) -> Vec<(Pid, Option<Reconstructed<F>>)> {
        self.live()
            .map(|p| (p, self.engine(p).output(id)))
            .collect()
    }
}

impl<F: Field> CoinNet<F> {
    /// `params.n()` honest engines; `seed` drives both the engines'
    /// sampling and the schedule.
    pub fn new(params: Params, seed: u64) -> Self {
        let engine = |p: Pid| CoinEngine::new(p, params, seed ^ (u64::from(p.index()) << 40));
        Net::mesh(Pid::all(params.n()).map(engine), seed)
    }

    /// Delivers everything, held messages included, until quiescent.
    pub fn run(&mut self) {
        self.settle(None);
    }

    /// Every live process starts coin session `tag` and enables its
    /// reconstruction, in one local step; then runs to quiescence.
    pub fn flip_all(&mut self, tag: u64) {
        self.act_all(|e, sends| {
            e.start(tag, sends);
            e.enable_reconstruct(tag, sends);
        });
        self.run();
    }

    /// Every live process's output of coin session `tag`.
    pub fn outputs(&self, tag: u64) -> Vec<Option<bool>> {
        self.live().map(|p| self.engine(p).output(tag)).collect()
    }
}
