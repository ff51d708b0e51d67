//! Multi-process SVSS and coin runs on the simulator, for tests,
//! experiments and `examples/secret_sharing.rs`: one engine per process
//! on a [`Simulation`] under a seeded uniform adversary (delays 1..=8).
//!
//! Commands from outside the message flow (share, reconstruct, start a
//! coin, inject a raw message) are [`Simulation::act`] steps. A fault is
//! a field of a [`Node`], as of a `ClusterProcess`: [`Net::silence`] sets
//! one, and [`Net::set_tamper`] one that rewrites each send, one for one,
//! as `adversary::rewrite` does. [`Net::deliver_matching`] scripts a
//! schedule message by message (the paper's Example 1) as a
//! *receiver-side hold*: a delivery the predicate rejects waits, unread,
//! at its recipient until a later run admits it — the simulator draws
//! one delay per `(event, recipient)` group, so no scheduler could hold
//! back a single message.

use std::sync::Arc;

use sba_broadcast::Params;
use sba_coin::{CoinEngine, CoinEvent, CoinMsg};
use sba_field::{Domain, Field};
use sba_net::{MwId, Outbox, Pid, SvssId};
use sba_sim::{schedulers, Process, SimMsg, Simulation};
use sba_svss::{Reconstructed, SvssEngine, SvssEvent, SvssMsg};

/// Delivery events one run may take before it is declared a livelock.
const MAX_EVENTS: u64 = 4_000_000_000;

/// Sends as `(recipient, message)` pairs, the engines' output form.
type Sends<M> = Vec<(Pid, M)>;

/// A per-process protocol engine: sends go into a list, outputs come out
/// as an event stream.
pub trait Engine: Sized + Send + 'static {
    /// The engine's wire message.
    type Msg: SimMsg;
    /// What the engine reports to its caller.
    type Event: Send + 'static;
    /// The `n` engines of a fresh system, seeded from `seed`.
    fn mesh(params: Params, seed: u64) -> Vec<Self>;
    /// Feeds one same-sender delivery batch (drained from `msgs`).
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Self::Msg>, sends: &mut Sends<Self::Msg>);
    /// Drains the events reported since the last call.
    fn take_events(&mut self) -> Vec<Self::Event>;
    /// The process `event` newly shuns, if it is a shun.
    fn shunned(event: &Self::Event) -> Option<Pid>;
}

impl<F: Field> Engine for SvssEngine<F> {
    type Msg = SvssMsg<F>;
    type Event = SvssEvent<F>;
    fn mesh(params: Params, seed: u64) -> Vec<Self> {
        // One shared domain: its tables are O(n²) to build.
        let domain = Arc::new(Domain::new(params.n()));
        let seed = |p: Pid| seed ^ (u64::from(p.index()) << 32);
        Pid::all(params.n())
            .map(|p| SvssEngine::with_domain(p, params, seed(p), Arc::clone(&domain)))
            .collect()
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<SvssMsg<F>>, sends: &mut Sends<SvssMsg<F>>) {
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
    type Msg = CoinMsg<F>;
    type Event = CoinEvent;
    fn mesh(params: Params, seed: u64) -> Vec<Self> {
        Pid::all(params.n())
            .map(|p| CoinEngine::new(p, params, seed ^ (u64::from(p.index()) << 40)))
            .collect()
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<CoinMsg<F>>, sends: &mut Sends<CoinMsg<F>>) {
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

/// Which deliveries `(from, to, msg)` a node reads now.
type Admit<M> = Arc<dyn Fn(Pid, Pid, &M) -> bool + Send + Sync>;

/// What a Byzantine node sends `to` instead of `msg` (`None`: `msg`).
type Rewrite<M> = Box<dyn FnMut(Pid, &M) -> Option<M> + Send>;

/// One process of a [`Net`]: its engine, the events it reported, and
/// the deliveries it holds.
pub struct Node<E: Engine> {
    /// The engine.
    pub engine: E,
    /// Every event the engine reported, in order.
    pub events: Vec<E::Event>,
    /// The deliveries held back unread, with their senders.
    pub held: Vec<(Pid, E::Msg)>,
    /// Drops everything delivered to it (fail-silent).
    silent: bool,
    /// While set, a delivery it rejects waits in `held`.
    admit: Option<Admit<E::Msg>>,
    /// While set, rewrites what the engine sends (Byzantine).
    tamper: Option<Rewrite<E::Msg>>,
}

impl<E: Engine> Node<E> {
    /// One engine step: `f`'s sends go out through `out` and `tamper`.
    fn step(&mut self, out: &mut Outbox<E::Msg>, f: impl FnOnce(&mut E, &mut Sends<E::Msg>)) {
        let mut sends = Vec::new();
        f(&mut self.engine, &mut sends);
        for (to, msg) in sends {
            let forged = self.tamper.as_mut().and_then(|rewrite| rewrite(to, &msg));
            out.send(to, forged.unwrap_or(msg));
        }
        self.events.extend(self.engine.take_events());
    }
}

impl<E: Engine> Process<E::Msg> for Node<E> {
    fn on_start(&mut self, _: &mut Outbox<E::Msg>) {}

    fn on_message(&mut self, from: Pid, msg: E::Msg, out: &mut Outbox<E::Msg>) {
        self.on_batch(from, &mut vec![msg], out);
    }

    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<E::Msg>, out: &mut Outbox<E::Msg>) {
        if self.silent {
            msgs.clear();
            return;
        }
        if let Some(admit) = &self.admit {
            let me = out.me();
            let (read, hold): (Vec<_>, _) = msgs.drain(..).partition(|m| admit(from, me, m));
            self.held.extend(hold.into_iter().map(|m| (from, m)));
            *msgs = read;
        }
        self.step(out, |e, sends| e.on_batch(from, msgs, sends));
    }
}

/// `n` engines on one [`Simulation`].
pub struct Net<E: Engine> {
    /// The simulation (metrics, digest).
    pub sim: Simulation<E::Msg, Node<E>>,
}

/// A mesh of SVSS engines.
pub type SvssNet<F> = Net<SvssEngine<F>>;

/// A mesh of common-coin engines.
pub type CoinNet<F> = Net<CoinEngine<F>>;

impl<E: Engine> Net<E> {
    /// `params.n()` honest engines from [`Engine::mesh`]; `seed` drives
    /// both the engines' sampling and the schedule.
    pub fn new(params: Params, seed: u64) -> Self {
        let procs = E::mesh(params, seed).into_iter().map(|engine| Node {
            engine,
            events: Vec::new(),
            held: Vec::new(),
            silent: false,
            admit: None,
            tamper: None,
        });
        let sim = Simulation::new(procs.collect(), schedulers::uniform(8), seed);
        Net { sim }
    }

    /// Process `p`'s engine.
    pub fn engine(&self, p: Pid) -> &E {
        &self.sim.process(p).engine
    }

    /// Every event process `p` reported, in order.
    pub fn events(&self, p: Pid) -> &[E::Event] {
        &self.sim.process(p).events
    }

    /// Every (shunner, shunned) pair reported so far, by shunner.
    pub fn shun_pairs(&self) -> Vec<(Pid, Pid)> {
        let pairs = |p| {
            self.events(p)
                .iter()
                .filter_map(move |ev| Some((p, E::shunned(ev)?)))
        };
        Pid::all(self.sim.n()).flat_map(pairs).collect()
    }

    /// Messages delivered so far, self-deliveries included.
    pub fn delivered(&self) -> u64 {
        let m = self.sim.metrics();
        m.messages_delivered + m.self_deliveries
    }

    /// `p` drops everything delivered to it from now on, and the `_all`
    /// commands skip it (fail-silent).
    pub fn silence(&mut self, p: Pid) {
        self.sim.process_mut(p).silent = true;
    }

    /// The processes not silenced.
    fn live(&self) -> Vec<Pid> {
        Pid::all(self.sim.n())
            .filter(|&p| !self.sim.process(p).silent)
            .collect()
    }

    /// Makes `p` Byzantine from its next step on: `f(to, msg)` is the
    /// message `p` sends to `to` instead of `msg` (`None` sends `msg`
    /// unchanged), one for one, in send order. A later call replaces `f`.
    pub fn set_tamper(
        &mut self,
        p: Pid,
        f: impl FnMut(Pid, &E::Msg) -> Option<E::Msg> + Send + 'static,
    ) {
        self.sim.process_mut(p).tamper = Some(Box::new(f));
    }

    /// Injects a raw message from `from` to `to`, past `from`'s tamper.
    pub fn push_raw(&mut self, from: Pid, to: Pid, msg: E::Msg) {
        self.sim.act(from, |_, out| out.send(to, msg));
    }

    /// Runs `f` at `p`'s engine as one local step; its sends go through
    /// `p`'s tamper.
    pub fn act(&mut self, p: Pid, f: impl FnOnce(&mut E, &mut Sends<E::Msg>)) {
        self.sim.act(p, |node, out| node.step(out, f));
    }

    /// Runs `f` as one [`Net::act`] at every live process, in pid order.
    pub fn act_all(&mut self, mut f: impl FnMut(&mut E, &mut Sends<E::Msg>)) {
        for p in self.live() {
            self.act(p, &mut f);
        }
    }

    /// Installs `admit` at every node, lets each read the held
    /// deliveries it admits, and delivers until quiescent.
    fn settle(&mut self, admit: Option<Admit<E::Msg>>) {
        for p in Pid::all(self.sim.n()) {
            let admit = admit.clone();
            self.sim.act(p, |node, out| {
                node.admit = admit;
                for (from, msg) in std::mem::take(&mut node.held) {
                    node.on_batch(from, &mut vec![msg], out);
                }
            });
        }
        let outcome = self.sim.run_to_quiescence(MAX_EVENTS);
        assert!(outcome.quiescent, "harness exceeded {MAX_EVENTS} events");
    }

    /// Delivers everything, held messages included, until quiescent.
    pub fn run(&mut self) {
        self.settle(None);
    }

    /// Delivers until quiescent, but each node reads only the deliveries
    /// `pred(from, to, msg)` admits (held ones included); the rest stay
    /// held until a later `run` or `deliver_matching` admits them.
    pub fn deliver_matching(
        &mut self,
        pred: impl Fn(Pid, Pid, &E::Msg) -> bool + Send + Sync + 'static,
    ) {
        self.settle(Some(Arc::new(pred)));
    }
}

impl<F: Field> SvssNet<F> {
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
        let input =
            |e: &mut SvssEngine<F>, sends: &mut _| e.mw_set_moderator_input(id, value, sends);
        self.act(id.moderator(), input);
    }

    /// Every live process invokes the standalone MW reconstruct for `id`.
    pub fn mw_reconstruct_all(&mut self, id: MwId) {
        self.act_all(|e, sends| e.mw_reconstruct(id, sends));
    }

    /// Whether every live process completed the share of `id`.
    pub fn all_shares_completed(&self, id: SvssId) -> bool {
        self.live()
            .into_iter()
            .all(|p| self.engine(p).share_completed(id))
    }

    /// Every live process's output for session `id` (`None` for one that
    /// has not output).
    pub fn outputs(&self, id: SvssId) -> Vec<(Pid, Option<Reconstructed<F>>)> {
        self.live()
            .into_iter()
            .map(|p| (p, self.engine(p).output(id)))
            .collect()
    }
}

impl<F: Field> CoinNet<F> {
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
        self.live()
            .into_iter()
            .map(|p| self.engine(p).output(tag))
            .collect()
    }
}
