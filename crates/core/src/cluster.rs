//! The one multi-process harness. A [`Node`] is one process: an
//! [`Engine`] plus every fault the adversary gives it, each a field (a
//! [`Role`], a test rewrite, a receiver-side hold), and the handle of
//! the [safety checker](crate::monitor) it reports itself to after each
//! step. A [`Net`] is `n` nodes on one [`Simulation`]: the honest set,
//! the digest, the monitor and [`Net::snapshot`] are the same for every
//! engine.
//!
//! An agreement run is a [`Cluster`] of [`ClusterProcess`]es: build it,
//! inject faults, run agreement, read a report; its plans and timed
//! events live in `Cluster`'s own impl. SVSS and coin runs are the same
//! two structs over their engines ([`harness`](crate::harness)).

use std::sync::Arc;

use sba_aba::{AbaConfig, AbaMsg, AbaNode, AbaProcess, CoinMode};
use sba_field::Gf61;
use sba_net::{Outbox, Pid, WireMsg};
use sba_sim::{schedulers, Metrics, Process, Scheduler, Simulation};

use crate::adversary;
use crate::harness::{Engine, Sends};
use crate::monitor::{InvariantMonitor, MonitorReport};
use crate::scenario::{Action, PlanEvent, Role, Trigger};

/// The cluster's wire message type (the full stack over `GF(2^61−1)`).
pub type Msg = AbaMsg<Gf61>;

/// Configuration for a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    n: usize,
    t: usize,
    seed: u64,
    mode: CoinMode,
    max_rounds: u32,
    max_delay: u64,
    faults: Vec<(Pid, Role)>,
}

impl ClusterConfig {
    /// A cluster of `n` processes tolerating `t` faults, with the SCC
    /// coin, seed 0, uniform random delays up to 20, and a round cap of
    /// 200.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`.
    pub fn new(n: usize, t: usize) -> Self {
        assert!(n > 3 * t, "Byzantine agreement requires n > 3t");
        ClusterConfig {
            n,
            t,
            seed: 0,
            mode: CoinMode::Scc,
            max_rounds: 200,
            max_delay: 20,
            faults: Vec::new(),
        }
    }

    /// Sets the run seed (drives scheduling and all randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the coin construction.
    pub fn mode(mut self, mode: CoinMode) -> Self {
        self.mode = mode;
        self
    }

    /// Caps the number of voting rounds (for diverging baselines). The
    /// cap must stay below `2^24`: building the cluster panics otherwise
    /// (see [`AbaConfig::max_rounds`]).
    pub fn max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the maximum random message delay.
    pub fn max_delay(mut self, max_delay: u64) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Corrupts process `p` with the given role, in place of any role an
    /// earlier call gave it ([`Role::Honest`] leaves it honest).
    pub fn fault(mut self, p: Pid, role: Role) -> Self {
        self.faults.retain(|(q, _)| *q != p);
        if role != Role::Honest {
            self.faults.push((p, role));
        }
        self
    }

    /// Builds the process table this config describes — the same table
    /// for every runtime: [`Cluster::with_scheduler`] hands it to the
    /// deterministic simulator, the threaded and socket harnesses hand
    /// it to `sba_sim::threaded` / `sba_sim::socket`. `inputs[i]` is
    /// process `i+1`'s proposal (`None` for a bystander). Also returns
    /// the fault-free pids, the ones whose role is [`Role::Honest`]
    /// ([`Net::honest`]'s rule; crash-recover processes are *not* among
    /// them despite counting as honest for reporting — use
    /// [`ClusterProcess::is_honest`] for the reporting-honest set).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n` or more than `t` processes are
    /// corrupted.
    pub fn processes(&self, inputs: &[Option<bool>]) -> (Vec<ClusterProcess>, Vec<Pid>) {
        assert_eq!(inputs.len(), self.n, "one input slot per process");
        assert!(
            self.faults.len() <= self.t,
            "more corrupted processes than t"
        );
        let params = sba_broadcast::Params::new(self.n, self.t).expect("n > 3t");
        let mut honest = Vec::new();
        let procs = (1..=self.n)
            .map(|i| {
                let pid = Pid::new(i as u32);
                let role = self
                    .faults
                    .iter()
                    .find(|(p, _)| *p == pid)
                    .map_or(Role::Honest, |(_, role)| role.clone());
                let mut aba_config = AbaConfig::scc(params, self.seed ^ ((i as u64) << 32));
                aba_config.mode = self.mode;
                aba_config.max_rounds = self.max_rounds;
                let node: AbaNode<Gf61> = AbaNode::new(pid, aba_config);
                let proposals = match inputs[i - 1] {
                    Some(bit) => vec![(0u32, bit)],
                    None => vec![],
                };
                let process = AbaProcess::new(node, proposals);
                if role == Role::Honest {
                    honest.push(pid);
                }
                ClusterProcess::with_role(process, role)
            })
            .collect();
        (procs, honest)
    }
}

/// Which deliveries `(from, to, msg)` a node reads now.
type Admit<M> = Arc<dyn Fn(Pid, Pid, &M) -> bool + Send + Sync>;

/// What a node sends `to` instead of `msg` (`None`: `msg`).
type Rewrite<M> = Arc<dyn Fn(Pid, &M) -> Option<M> + Send + Sync>;

/// The wire message of engine `E`.
type MsgOf<E> = WireMsg<<E as Engine>::Field>;

/// One process of a [`Net`]: its [`Engine`], the events the engine
/// reported, and every fault the adversary gives it, each a field: a
/// [`Role`] (one `match` per [`Process`] method; a Byzantine role's
/// sends are forged by `adversary::rewrite`; a mid-run
/// [`Action::Corrupt`] or [`Action::Crash`] changes it in place), a test
/// rewrite of its sends ([`Net::set_tamper`]) that takes the role's
/// place, and a receiver-side hold ([`Net::deliver_matching`]). A node
/// with a monitor handle reports itself to that
/// [checker](crate::monitor) after every `Process` call and every
/// command it runs.
///
/// `Clone` deep-copies the whole protocol state (engines, RNG streams,
/// a crashed process's missed backlog, held deliveries) and shares the
/// monitor handle; [`Net::snapshot`] repoints the copy's handles.
#[derive(Clone)]
pub struct Node<E: Engine> {
    engine: E,
    role: Role,
    /// Where a crash role stands in its outage (inert for other roles).
    outage: Outage<MsgOf<E>>,
    /// Every event the engine reported, in order.
    log: Vec<E::Event>,
    /// Reusable send buffer: a step allocates nothing once it is warm.
    sends: Vec<(Pid, MsgOf<E>)>,
    /// The deliveries held back unread, with their senders.
    held: Vec<(Pid, MsgOf<E>)>,
    /// While set, a delivery it rejects waits in `held`.
    admit: Option<Admit<MsgOf<E>>>,
    /// While set, rewrites what the engine sends in place of the role.
    pub(crate) tamper: Option<Rewrite<MsgOf<E>>>,
    /// While set, the checker this node reports itself to.
    pub(crate) monitor: Option<InvariantMonitor>,
}

/// One process of the cluster: an agreement process and its faults.
pub type ClusterProcess = Node<AbaProcess<Gf61>>;

impl<E: Engine> Node<E> {
    /// Gives the honest engine `engine` the behaviour `role` names.
    pub fn with_role(engine: E, role: Role) -> Self {
        Node {
            engine,
            outage: Outage::of(&role),
            role,
            log: Vec::new(),
            sends: Vec::new(),
            held: Vec::new(),
            admit: None,
            tamper: None,
            monitor: None,
        }
    }

    /// Crashes the process now (the timed [`Action::Crash`]): fail-stop
    /// with `None`, down for the next `d` deliveries then recovered
    /// (backlog replay) with `Some(d)`. A process already down stays
    /// down, its backlog kept, until the new recovery point: re-crashing
    /// it *during its recovery window* extends the outage (the
    /// "crash-during-recovery" compound scenario).
    ///
    /// Panics if it is silent or Byzantine, or if `down_for` is
    /// `Some(0)` ([`ScenarioPlan::check`](crate::ScenarioPlan::check)
    /// rules both out).
    fn crash_now(&mut self, down_for: Option<u64>) {
        assert!(
            matches!(
                self.role,
                Role::Honest | Role::Crash { .. } | Role::CrashRecover { .. }
            ),
            "cannot crash a silent or Byzantine process"
        );
        self.outage.crash_now(down_for);
        // The outage already counts from now, so the role's `after` is 0.
        self.role = match down_for {
            None => Role::Crash { after: 0 },
            Some(down_for) => Role::CrashRecover { after: 0, down_for },
        };
    }

    /// One engine step: `f`'s sends go out through `out`, each rewritten
    /// by the tamper if one is set and by the role otherwise, one for
    /// one in send order; the events it reported join the log.
    fn step(&mut self, out: &mut Outbox<MsgOf<E>>, f: impl FnOnce(&mut E, &mut Sends<E::Field>)) {
        let mut sends = std::mem::take(&mut self.sends);
        f(&mut self.engine, &mut sends);
        for (to, msg) in sends.drain(..) {
            let forged = match &self.tamper {
                Some(rewrite) => rewrite(to, &msg),
                None => adversary::rewrite(&self.role, to, &msg),
            };
            out.send(to, forged.unwrap_or(msg));
        }
        self.sends = sends;
        self.log.extend(self.engine.take_events());
    }

    /// Reports this node, which runs as `me`, to its checker, if it has
    /// one.
    fn report(&self, me: Pid) {
        if let Some(monitor) = &self.monitor {
            let decision = self.engine.decision();
            monitor.observe(me, self.is_honest(), decision, &self.log, E::shunned);
        }
    }

    /// Hands one same-sender batch to the engine through every fault
    /// the node has (silence, the hold, a crash role's outage).
    fn take_batch(&mut self, from: Pid, msgs: &mut Vec<MsgOf<E>>, out: &mut Outbox<MsgOf<E>>) {
        if self.role == Role::Silent {
            return msgs.clear();
        }
        if let Some(admit) = &self.admit {
            let me = out.me();
            let (read, hold): (Vec<_>, _) = msgs.drain(..).partition(|m| admit(from, me, m));
            self.held.extend(hold.into_iter().map(|m| (from, m)));
            *msgs = read;
        }
        if let Role::Crash { .. } | Role::CrashRecover { .. } = self.role {
            // The outage counts *messages*: a batch that straddles the
            // crash point is split there, and the rest counts toward
            // the outage. Each delivery it lets through is a one-member
            // batch (`step` does not read the outage).
            let mut outage = std::mem::replace(&mut self.outage, Outage::of(&Role::Honest));
            let mut batch = std::mem::take(msgs);
            for msg in batch.drain(..) {
                outage.deliver(from, msg, |f, m| {
                    msgs.push(m);
                    self.step(out, |e, sends| e.on_batch(f, msgs, sends));
                });
            }
            self.outage = outage;
            *msgs = batch;
        } else {
            self.step(out, |e, sends| e.on_batch(from, msgs, sends));
        }
    }

    /// Whether this process follows the protocol (crash-recover counts:
    /// crash faults are omission faults, not Byzantine ones — its
    /// decision and shun observations are part of the honest report).
    pub fn is_honest(&self) -> bool {
        matches!(self.role, Role::Honest | Role::CrashRecover { .. })
    }

    /// Every event the engine reported, in order, whatever its role.
    pub fn log(&self) -> &[E::Event] {
        &self.log
    }

    /// The deliveries it holds back unread, with their senders.
    pub fn held(&self) -> &[(Pid, MsgOf<E>)] {
        &self.held
    }
}

impl ClusterProcess {
    /// The underlying node, when one exists (silent processes have none).
    pub fn node(&self) -> Option<&AbaNode<Gf61>> {
        (self.role != Role::Silent).then(|| self.engine.node())
    }

    /// The honest event stream, for processes that have one.
    pub fn events(&self) -> Option<&[sba_aba::AbaEvent]> {
        self.is_honest().then_some(&self.log[..])
    }
}

impl<E: Engine> Process<MsgOf<E>> for Node<E> {
    fn on_start(&mut self, out: &mut Outbox<MsgOf<E>>) {
        if !self.down() {
            self.step(out, E::on_start);
        }
        self.report(out.me());
    }
    fn on_message(&mut self, from: Pid, msg: MsgOf<E>, out: &mut Outbox<MsgOf<E>>) {
        self.on_batch(from, &mut vec![msg], out);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<MsgOf<E>>, out: &mut Outbox<MsgOf<E>>) {
        self.take_batch(from, msgs, out);
        self.report(out.me());
    }
    fn done(&self) -> bool {
        // A crash-recover process comes back and is expected to decide;
        // the run waits for it. Corrupted processes never gate
        // termination.
        !self.is_honest() || self.engine.done()
    }
    fn down(&self) -> bool {
        self.role == Role::Silent || self.outage.down()
    }
    fn recoveries(&self) -> u64 {
        self.outage.recoveries
    }
}

/// A crash role's outage: the process handles deliveries until its
/// crash point, then misses (fail-stop: drops; crash-recover: buffers)
/// every delivery until its recovery point, where it replays the missed
/// backlog in order — the deterministic stand-in for "recover state
/// from peers" — and stays up from there on.
#[derive(Clone)]
struct Outage<M> {
    /// Deliveries until the crash point; `u64::MAX` for a process that
    /// is up for good (every non-crash role, and a recovered process).
    left: u64,
    /// Deliveries the outage (while up: the coming one) still misses
    /// before the recovery point; 0 is fail-stop.
    down_left: u64,
    /// Deliveries missed so far, replayed at the recovery point.
    missed: Vec<(Pid, M)>,
    recoveries: u64,
}

impl<M> Outage<M> {
    /// The outage `role` starts with: a crash role is up for `after`
    /// deliveries, then down (for `down_for`, or for good); every other
    /// role is up for good.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length crash-recover outage.
    fn of(role: &Role) -> Self {
        let (left, down_left) = match *role {
            Role::Crash { after } => (after, 0),
            Role::CrashRecover { after, down_for } => {
                assert!(down_for > 0, "a zero-length outage is not a crash");
                (after, down_for)
            }
            _ => (u64::MAX, 0),
        };
        Outage {
            left,
            down_left,
            missed: Vec::new(),
            recoveries: 0,
        }
    }

    fn down(&self) -> bool {
        self.left == 0
    }

    /// Goes down now, whether up, recovered or mid-outage (a re-crash
    /// mid-outage moves the recovery point out and keeps the backlog).
    fn crash_now(&mut self, down_for: Option<u64>) {
        assert!(down_for != Some(0), "a zero-length outage is not a crash");
        self.left = 0;
        self.down_left = down_for.unwrap_or(0);
    }

    /// Feeds one delivery through the outage into `handle`.
    fn deliver(&mut self, from: Pid, msg: M, mut handle: impl FnMut(Pid, M)) {
        if self.left > 0 {
            // Up: the step that reaches the crash point still sends.
            self.left -= 1;
            handle(from, msg);
            return;
        }
        if self.down_left == 0 {
            return; // fail-stop: dead for good
        }
        self.missed.push((from, msg));
        self.down_left -= 1;
        if self.down_left == 0 {
            self.recoveries += 1;
            self.left = u64::MAX;
            for (f, m) in std::mem::take(&mut self.missed) {
                handle(f, m);
            }
        }
    }
}

/// Outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Whether all honest processes halted within the event budget.
    pub terminated: bool,
    /// Per-process decision (index `i` is pid `i+1`; `None` for corrupted
    /// processes and undecided ones).
    pub decisions: Vec<Option<bool>>,
    /// Per-process decision round.
    pub rounds: Vec<Option<u32>>,
    /// The maximum decision round among honest processes.
    pub max_round: u32,
    /// Total network messages sent.
    pub messages: u64,
    /// Total network bytes sent.
    pub bytes: u64,
    /// Simulator metrics snapshot (per-kind breakdowns for experiments).
    pub metrics: Metrics,
    /// (shunner, shunned) pairs observed by honest processes.
    pub shun_pairs: Vec<(Pid, Pid)>,
}

impl ClusterReport {
    /// Whether every honest process decided.
    pub fn all_decided(&self) -> bool {
        self.terminated && self.decisions.iter().flatten().count() > 0
    }

    /// Whether all honest decisions agree.
    pub fn agreement(&self) -> bool {
        agreement(&self.decisions)
    }
}

/// Whether the decided entries of `decisions` all agree (vacuously true
/// when none decided).
pub(crate) fn agreement(decisions: &[Option<bool>]) -> bool {
    let mut vals = decisions.iter().flatten();
    let Some(first) = vals.next() else {
        return true;
    };
    vals.all(|v| v == first)
}

/// `n` [`Node`]s on one [`Simulation`]: a [`Cluster`], or an SVSS or
/// coin run ([`harness`](crate::harness)). An agreement run built from
/// a [`ScenarioPlan`](crate::ScenarioPlan) also carries the plan's
/// unfired timed events ([`PlanEvent`]); [`Cluster::run`] and
/// [`Cluster::advance_until`] fire them as their triggers come due.
pub struct Net<E: Engine> {
    sim: Simulation<MsgOf<E>, Node<E>>,
    /// Proposals an agreement run was built with (the monitor's
    /// validity reference); all `None` for other runs.
    inputs: Vec<Option<bool>>,
    /// The plan's timed events that have not fired yet.
    pub(crate) pending: Vec<PlanEvent>,
}

/// A simulated cluster running one agreement instance.
///
/// See the crate-level docs for a quickstart; `examples/` for richer
/// scenarios.
pub type Cluster = Net<AbaProcess<Gf61>>;

/// Delivery events one quiescence run may take before it is declared a
/// livelock.
const MAX_EVENTS: u64 = 4_000_000_000;

impl<E: Engine> Net<E> {
    /// Honest `engines` (pid order) under the seeded uniform adversary,
    /// delays 1..=8: the SVSS and coin runs.
    pub(crate) fn mesh(engines: impl Iterator<Item = E>, seed: u64) -> Self {
        let nodes: Vec<_> = engines.map(|e| Node::with_role(e, Role::Honest)).collect();
        Net {
            inputs: vec![None; nodes.len()],
            sim: Simulation::new(nodes, schedulers::uniform(8), seed),
            pending: Vec::new(),
        }
    }

    /// Direct access to the simulation (metrics, stepping).
    pub fn sim(&self) -> &Simulation<MsgOf<E>, Node<E>> {
        &self.sim
    }

    /// Mutable access to the simulation — e.g. to enable its digest, or
    /// to drain in-flight tails after [`Cluster::run`] returned at
    /// `all_done` (memory accounting tests want full quiescence).
    pub fn sim_mut(&mut self) -> &mut Simulation<MsgOf<E>, Node<E>> {
        &mut self.sim
    }

    /// The fault-free process ids: those whose role is [`Role::Honest`]
    /// now (a crash-recovering process is omission-faulted, so it is
    /// not one, whether it started so or was crashed mid-run).
    pub fn honest(&self) -> Vec<Pid> {
        let fault_free = |&p: &Pid| self.sim.process(p).role == Role::Honest;
        Pid::all(self.sim.n()).filter(fault_free).collect()
    }

    /// The run digest, if [`Simulation::enable_digest`] was turned on
    /// (scenario-zoo clusters enable it so runs can be replay-verified).
    pub fn digest(&self) -> Option<u64> {
        self.sim.digest()
    }

    /// A deep copy of the whole run — every engine, RNG stream, the
    /// in-flight queue, the scheduler, the unfired plan events — through
    /// [`Simulation::snapshot`]. Every node of a monitored copy reports
    /// to the copy's own [`InvariantMonitor::deep_clone`] of the
    /// branch-point state, so the original and every copy observe their
    /// futures independently (a shared live monitor would misread a
    /// branch's re-observations as the original run rewinding).
    ///
    /// A snapshot nobody steps is a checkpoint: running a further
    /// snapshot of it reproduces the original tail bit-identically, and
    /// a further snapshot followed by [`Simulation::reseed`] (through
    /// [`Net::sim_mut`]) forks a divergent schedule from the same
    /// protocol state.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler cannot be copied (every
    /// [`SchedLayer`](sba_sim::SchedLayer) stack can; a custom
    /// [`Scheduler`] need not).
    pub fn snapshot(&self) -> Self {
        let mut copy = Net {
            sim: self.sim.snapshot(),
            inputs: self.inputs.clone(),
            pending: self.pending.clone(),
        };
        if let Some(monitor) = self.monitor() {
            copy.watch(&monitor.deep_clone());
        }
        copy
    }

    /// The monitor every node reports to, if one is enabled.
    fn monitor(&self) -> Option<&InvariantMonitor> {
        self.sim.process(Pid::new(1)).monitor.as_ref()
    }

    /// Points every node at `monitor`.
    fn watch(&mut self, monitor: &InvariantMonitor) {
        for p in Pid::all(self.sim.n()) {
            self.sim.process_mut(p).monitor = Some(monitor.clone());
        }
    }

    /// Enables the [invariant monitor](crate::monitor): after every
    /// step a process takes, the paper's safety properties (agreement,
    /// decision stability, validity, shun monotonicity, no honest-pair
    /// shuns) are re-checked against what it reports, and findings
    /// accumulate in a [`MonitorReport`] readable through
    /// [`Net::monitor_report`]. It works for every engine (an SVSS or
    /// coin run has no proposals, so validity is vacuous there).
    /// Strictly opt-in: the monitored run's digest and metrics are
    /// bit-identical to the unmonitored run's.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already delivered an event.
    pub fn enable_monitor(&mut self) {
        let events = self.sim.metrics().events;
        assert_eq!(events, 0, "enable_monitor must precede the first event");
        let honest = self.sim.processes().map(Node::is_honest).collect();
        self.watch(&InvariantMonitor::new(self.inputs.clone(), honest));
    }

    /// The monitor's findings so far (`None` unless
    /// [`Net::enable_monitor`] was called before the run).
    pub fn monitor_report(&self) -> Option<MonitorReport> {
        self.monitor().map(InvariantMonitor::report)
    }

    /// Corrupts process `p` **mid-run** with `role`, keeping its
    /// accumulated protocol state: an *adaptive* adversary that picks
    /// its victim after watching the run (the timed [`Action::Corrupt`];
    /// `corrupt(p, Role::Silent)` silences `p`). A corrupted process
    /// takes the new role in place and drops out of [`Net::honest`]
    /// from this event on. The invariant monitor (if enabled) sees the
    /// change when `p` next reports itself: at its next step, which is
    /// also the first step whose sends the new role can forge.
    ///
    /// # Panics
    ///
    /// Panics if `role` is [`Role::Honest`]
    /// ([`ScenarioPlan::check`](crate::ScenarioPlan::check) rules it
    /// out, and allows a plan to corrupt only an honest process).
    pub fn corrupt(&mut self, p: Pid, role: Role) {
        assert!(role != Role::Honest, "Corrupt requires a non-honest role");
        let node = self.sim.process_mut(p);
        // A crash role counts its `after` deliveries from here.
        node.outage = Outage::of(&role);
        node.role = role;
    }

    /// Process `p`'s engine.
    pub fn engine(&self, p: Pid) -> &E {
        &self.sim.process(p).engine
    }

    /// Every event process `p` reported, in order, whatever its role.
    pub fn events(&self, p: Pid) -> &[E::Event] {
        self.sim.process(p).log()
    }

    /// Every (shunner, shunned) pair reported so far, by shunner, liars
    /// included.
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

    /// The processes not down (silent, or mid-outage): the ones the
    /// `_all` commands and the outputs cover.
    pub(crate) fn live(&self) -> impl Iterator<Item = Pid> + '_ {
        Pid::all(self.sim.n()).filter(|&p| !self.sim.process(p).down())
    }

    /// From `p`'s next step on, `f(to, msg)` is the message `p` sends to
    /// `to` instead of `msg` (`None` sends `msg` unchanged), one for one,
    /// in send order, in place of its role's rewrite. A test device: `p`
    /// keeps its role and its place in the honest set. A later call
    /// replaces `f`.
    pub fn set_tamper(
        &mut self,
        p: Pid,
        f: impl Fn(Pid, &MsgOf<E>) -> Option<MsgOf<E>> + Send + Sync + 'static,
    ) {
        self.sim.process_mut(p).tamper = Some(Arc::new(f));
    }

    /// Injects a raw message from `from` to `to`, past `from`'s rewrite.
    pub fn push_raw(&mut self, from: Pid, to: Pid, msg: MsgOf<E>) {
        self.sim.act(from, |_, out| out.send(to, msg));
    }

    /// Runs `f` at `p`'s engine as one local step; its sends go through
    /// `p`'s rewrite, and `p` then reports itself like after a delivery.
    pub fn act(&mut self, p: Pid, f: impl FnOnce(&mut E, &mut Sends<E::Field>)) {
        self.sim.act(p, |node, out| {
            node.step(out, f);
            node.report(p);
        });
    }

    /// Runs `f` as one [`Net::act`] at every live process, in pid order.
    pub fn act_all(&mut self, mut f: impl FnMut(&mut E, &mut Sends<E::Field>)) {
        for p in self.live().collect::<Vec<_>>() {
            self.act(p, &mut f);
        }
    }

    /// Installs `admit` at every node, lets each read the held
    /// deliveries it admits, and delivers until quiescent.
    pub(crate) fn settle(&mut self, admit: Option<Admit<MsgOf<E>>>) {
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

    /// Delivers until quiescent, but each node reads only the deliveries
    /// `pred(from, to, msg)` admits (held ones included); the rest stay
    /// held until a later `run` or `deliver_matching` admits them.
    pub fn deliver_matching(
        &mut self,
        pred: impl Fn(Pid, Pid, &MsgOf<E>) -> bool + Send + Sync + 'static,
    ) {
        self.settle(Some(Arc::new(pred)));
    }
}

impl Cluster {
    /// Builds a cluster. `inputs[i]` is process `i+1`'s proposal (or
    /// `None` for a non-proposing bystander). Faults from the config
    /// override behaviour entirely.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n` or more than `t` processes are
    /// corrupted.
    pub fn new(config: ClusterConfig, inputs: &[Option<bool>]) -> Self {
        Self::with_scheduler(
            config.clone(),
            inputs,
            schedulers::uniform(config.max_delay),
        )
    }

    /// Builds a cluster with a custom adversarial scheduler: the
    /// [`ScenarioPlan::build`](crate::ScenarioPlan::build) back end.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Cluster::new`].
    pub fn with_scheduler(
        config: ClusterConfig,
        inputs: &[Option<bool>],
        scheduler: Box<dyn Scheduler<Msg>>,
    ) -> Self {
        let (procs, _) = config.processes(inputs);
        Net {
            sim: Simulation::new(procs, scheduler, config.seed),
            inputs: inputs.to_vec(),
            pending: Vec::new(),
        }
    }

    fn trigger_ready(sim: &Simulation<Msg, ClusterProcess>, at: &Trigger) -> bool {
        match at {
            Trigger::AtTime(ts) => sim.metrics().virtual_time >= *ts,
            Trigger::AtDelivery(k) => sim.metrics().messages_delivered >= *k,
            Trigger::AtRound(r) => Self::round_reached(sim, *r),
        }
    }

    fn round_reached(sim: &Simulation<Msg, ClusterProcess>, round: u32) -> bool {
        sim.processes()
            .any(|p| p.is_honest() && p.node().is_some_and(|node| node.current_round(0) >= round))
    }

    /// Fires every pending event whose trigger currently holds; returns
    /// how many fired.
    fn apply_due(&mut self) -> usize {
        let mut applied = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if Self::trigger_ready(&self.sim, &self.pending[i].at) {
                let ev = self.pending.remove(i);
                applied += 1;
                match ev.action {
                    Action::HealPartitions => self.sim.heal_partitions(),
                    Action::Corrupt { p, role } => self.corrupt(p, role),
                    Action::Crash { p, down_for } => self.sim.process_mut(p).crash_now(down_for),
                }
            } else {
                i += 1;
            }
        }
        applied
    }

    /// Advances until `stop` holds, the event budget is exhausted, all
    /// honest processes halt, or the simulation quiesces — firing due
    /// plan events along the way. Returns whether `stop` held on
    /// return. (This is the fork-corpus harness's stepping primitive:
    /// it can stop at a round boundary or an event count without losing
    /// pending plan events.)
    ///
    /// Never advances *past* honest termination: once every honest
    /// process halts, stepping on would deliver post-decision traffic
    /// that [`Cluster::run`] (and hence the recorded digests) never
    /// sees, so a still-unmet `stop` returns `false` there instead.
    pub fn advance_until(
        &mut self,
        max_events: u64,
        mut stop: impl FnMut(&Simulation<Msg, ClusterProcess>) -> bool,
    ) -> bool {
        let start = self.sim.metrics().events;
        loop {
            self.apply_due();
            if stop(&self.sim) {
                return true;
            }
            let used = self.sim.metrics().events - start;
            let Some(left) = max_events.checked_sub(used).filter(|&l| l > 0) else {
                return false;
            };
            let pending = std::mem::take(&mut self.pending);
            let hit = self.sim.run_until(left, |sim| {
                sim.all_done()
                    || stop(sim)
                    || pending.iter().any(|e| Self::trigger_ready(sim, &e.at))
            });
            self.pending = pending;
            let applied = self.apply_due();
            if stop(&self.sim) {
                return true;
            }
            if !hit || applied == 0 {
                // Budget exhausted, quiescent, or no forward progress.
                return false;
            }
        }
    }

    /// Advances until any honest process has entered voting round
    /// `round` (the [`Trigger::AtRound`] condition); returns whether
    /// that happened within the budget. The fork-corpus harness uses
    /// this to discover and snapshot round boundaries.
    pub fn advance_to_round(&mut self, round: u32, max_events: u64) -> bool {
        self.advance_until(max_events, |sim| Self::round_reached(sim, round))
    }

    /// Runs until all honest processes halt (or the event budget runs
    /// out), firing due plan events along the way, and reports. A
    /// cluster with no pending events steps exactly as
    /// [`Simulation::run_until_all_done`] would.
    pub fn run(&mut self, max_events: u64) -> ClusterReport {
        let start = self.sim.metrics().events;
        self.advance_until(max_events, Simulation::all_done);
        let used = self.sim.metrics().events - start;
        let outcome = self.sim.run_until_all_done(max_events.saturating_sub(used));
        let n = self.sim.n();
        let mut decisions = vec![None; n];
        let mut rounds = vec![None; n];
        let mut max_round = 0;
        for i in 1..=n as u32 {
            let proc_ = self.sim.process(Pid::new(i));
            if let Some(node) = proc_.node().filter(|_| proc_.is_honest()) {
                decisions[(i - 1) as usize] = node.decision(0);
                rounds[(i - 1) as usize] = node.decision_round(0);
                if let Some(r) = node.decision_round(0) {
                    max_round = max_round.max(r);
                }
            }
        }
        let mut shun_pairs = self.shun_pairs();
        shun_pairs.retain(|&(p, _)| self.sim.process(p).is_honest());
        let metrics = self.sim.metrics().clone();
        ClusterReport {
            terminated: outcome.all_done,
            decisions,
            rounds,
            max_round,
            messages: metrics.messages_sent,
            bytes: metrics.bytes_sent,
            metrics,
            shun_pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_aba::VoteValue;
    use sba_net::RbStep;

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_insufficient_resilience() {
        let _ = ClusterConfig::new(6, 2);
    }

    #[test]
    #[should_panic(expected = "one input slot per process")]
    fn rejects_wrong_input_count() {
        let config = ClusterConfig::new(4, 1);
        let _ = Cluster::new(config, &[Some(true); 3]);
    }

    #[test]
    #[should_panic(expected = "more corrupted processes than t")]
    fn rejects_too_many_faults() {
        let config = ClusterConfig::new(4, 1)
            .fault(Pid::new(3), Role::Silent)
            .fault(Pid::new(4), Role::Silent);
        let _ = Cluster::new(config, &[Some(true); 4]);
    }

    #[test]
    fn report_agreement_logic() {
        let base = ClusterReport {
            terminated: true,
            decisions: vec![Some(true), Some(true), None, Some(true)],
            rounds: vec![Some(1), Some(1), None, Some(2)],
            max_round: 2,
            messages: 0,
            bytes: 0,
            metrics: sba_sim::Metrics::new(),
            shun_pairs: vec![],
        };
        assert!(base.agreement());
        assert!(base.all_decided());
        let mut split = base.clone();
        split.decisions[3] = Some(false);
        assert!(!split.agreement());
        let mut empty = base.clone();
        empty.decisions = vec![None; 4];
        assert!(empty.agreement(), "vacuous agreement with no decisions");
        assert!(!empty.all_decided());
    }

    /// A vote-layer echo from p1, told apart by its round: any message
    /// will do for the outage tests, which only count deliveries.
    fn ping(k: u32) -> Msg {
        let slot = sba_aba::VoteSlot::Report {
            instance: 0,
            round: k + 1,
        };
        Msg::vote_rb(slot, Pid::new(1), RbStep::Echo, VoteValue::Bit(true))
    }

    /// p2 of a 4-process cluster with proposal `true`, in `role`.
    fn process(role: Role) -> ClusterProcess {
        let (mut procs, _) = ClusterConfig::new(4, 1)
            .fault(Pid::new(2), role)
            .processes(&[Some(true); 4]);
        procs.swap_remove(1)
    }

    /// Feeds pings `0..count` through `outage`; returns the ones the
    /// node handled, in handling order.
    fn feed(outage: &mut Outage<Msg>, count: u32) -> Vec<Msg> {
        let mut handled = Vec::new();
        for k in 0..count {
            outage.deliver(Pid::new(1), ping(k), |_, m| handled.push(m));
        }
        handled
    }

    #[test]
    fn crash_process_stops_reacting() {
        let mut outage = Outage::of(&Role::Crash { after: 4 });
        let first_four: Vec<Msg> = (0..4).map(ping).collect();
        assert_eq!(feed(&mut outage, 10), first_four, "4 of 10 handled");
        assert!(outage.down());
        assert_eq!(outage.recoveries, 0);
    }

    #[test]
    fn crash_recover_replays_missed_backlog() {
        // Up for 2 deliveries, down for the next 3 (buffered), then
        // recovered: every one of the 10 pings is handled, in order.
        let mut outage = Outage::of(&Role::CrashRecover {
            after: 2,
            down_for: 3,
        });
        assert_eq!(feed(&mut outage, 10), (0..10).map(ping).collect::<Vec<_>>());
        assert_eq!(outage.recoveries, 1);
        assert!(!outage.down(), "nobody down at the end");
    }

    #[test]
    fn crash_recover_down_state_is_visible_mid_outage() {
        let mut p = process(Role::CrashRecover {
            after: 1,
            down_for: 2,
        });
        let mut out = Outbox::new(Pid::new(2));
        assert!(!p.down());
        p.on_message(Pid::new(1), ping(0), &mut out);
        assert!(p.down(), "crash point reached");
        p.on_message(Pid::new(1), ping(1), &mut out);
        assert!(p.down(), "still down mid-outage");
        assert_eq!(p.recoveries(), 0);
        p.on_message(Pid::new(1), ping(2), &mut out);
        assert!(!p.down(), "recovered");
        assert_eq!(p.recoveries(), 1);
    }

    #[test]
    fn crash_now_mid_recovery_extends_the_outage() {
        let mut p = process(Role::CrashRecover {
            after: 1,
            down_for: 2,
        });
        let mut out = Outbox::new(Pid::new(2));
        p.on_message(Pid::new(1), ping(0), &mut out);
        p.on_message(Pid::new(1), ping(1), &mut out);
        assert!(p.down(), "one missed delivery into the outage");
        // Re-crash mid-outage: the recovery point moves out by 3 more
        // deliveries and the backlog keeps growing.
        p.crash_now(Some(3));
        for k in 2..5 {
            assert!(p.down());
            p.on_message(Pid::new(1), ping(k), &mut out);
        }
        assert!(!p.down(), "recovered at the extended point");
        assert_eq!(p.recoveries(), 1);
        assert!(p.is_honest(), "a crash-recover process stays honest");
        // And a recovered process can be fail-stopped outright.
        p.crash_now(None);
        assert!(p.down());
        assert!(!p.is_honest());
        assert!(p.done(), "fail-stop never blocks termination checks");
    }

    #[test]
    fn silent_process_sends_nothing() {
        let mut out = Outbox::new(Pid::new(2));
        process(Role::Honest).on_start(&mut out);
        assert!(!out.is_empty(), "an honest proposer sends at start");
        let mut silent = process(Role::Silent);
        let mut out = Outbox::new(Pid::new(2));
        silent.on_start(&mut out);
        silent.on_batch(Pid::new(1), &mut vec![ping(0), ping(1)], &mut out);
        assert!(out.is_empty());
        assert!(silent.done() && silent.down());
        assert!(silent.node().is_none() && silent.events().is_none());
    }

    #[test]
    fn config_accessors() {
        let c = ClusterConfig::new(7, 2).seed(5).max_rounds(9).max_delay(3);
        assert_eq!(c.n, 7);
        assert_eq!(c.t, 2);
    }
}
