//! A batteries-included multi-process harness: build a cluster, inject
//! faults, run agreement, read a report.

use sba_aba::{AbaConfig, AbaMsg, AbaNode, AbaProcess, CoinMode};
use sba_field::Gf61;
use sba_net::{Outbox, Pid};
use sba_sim::{schedulers, Metrics, Process, Scheduler, Simulation};

use crate::adversary;
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

    /// Corrupts process `p` with the given role ([`Role::Honest`]
    /// leaves it honest).
    pub fn fault(mut self, p: Pid, role: Role) -> Self {
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
    /// the fault-free pids (the initial value of [`Cluster::honest`];
    /// note crash-recover processes are *not* in it despite counting as
    /// honest for reporting — use [`ClusterProcess::is_honest`] for the
    /// reporting-honest set).
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

/// One process of the cluster: the honest state machine and the
/// [`Role`] the adversary gives it. What each role does is one `match`
/// per [`Process`] method; a mid-run [`Action::Corrupt`] or
/// [`Action::Crash`] changes the role in place.
///
/// `Clone` deep-copies the whole protocol state (engines, RNG streams,
/// a crashed process's missed backlog), which is what
/// [`Cluster::snapshot`] copies.
#[derive(Clone)]
pub struct ClusterProcess {
    node: AbaProcess<Gf61>,
    role: Role,
    /// Where a crash role stands in its outage (inert for other roles).
    outage: Outage,
}

impl ClusterProcess {
    /// Gives the honest state machine `process` the behaviour `role`
    /// names.
    pub fn with_role(process: AbaProcess<Gf61>, role: Role) -> Self {
        ClusterProcess {
            node: process,
            outage: Outage::of(&role),
            role,
        }
    }

    /// Crashes the process now: fail-stop with `None`, down for the next
    /// `d` deliveries then recovered with `Some(d)`. A process already
    /// down stays down, its backlog kept, until the new recovery point.
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

    /// Runs one step of the node, then rewrites what it queued for the
    /// Byzantine role, envelope by envelope in send order.
    fn forge(
        &mut self,
        out: &mut Outbox<Msg>,
        step: impl FnOnce(&mut AbaProcess<Gf61>, &mut Outbox<Msg>),
    ) {
        let start = out.len();
        step(&mut self.node, out);
        for env in out.tail_mut(start) {
            if let Some(msg) = adversary::rewrite(&self.role, env.to, &env.msg) {
                env.msg = msg;
            }
        }
    }

    /// The underlying node, when one exists (silent processes have none).
    pub fn node(&self) -> Option<&AbaNode<Gf61>> {
        (self.role != Role::Silent).then(|| self.node.node())
    }

    /// Whether this process follows the protocol (crash-recover counts:
    /// crash faults are omission faults, not Byzantine ones — its
    /// decision and shun observations are part of the honest report).
    pub fn is_honest(&self) -> bool {
        matches!(self.role, Role::Honest | Role::CrashRecover { .. })
    }

    /// The honest event stream, for processes that have one.
    pub fn events(&self) -> Option<&[sba_aba::AbaEvent]> {
        self.is_honest().then(|| self.node.events())
    }
}

impl Process<Msg> for ClusterProcess {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        match self.role {
            Role::Honest => self.node.on_start(out),
            Role::Silent => {}
            Role::Crash { .. } | Role::CrashRecover { .. } => {
                if !self.outage.down() {
                    self.node.on_start(out);
                }
            }
            Role::LyingShares { .. } | Role::FlippedVotes | Role::Equivocating => {
                self.forge(out, |node, raw| node.on_start(raw));
            }
        }
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        match self.role {
            Role::Honest => self.node.on_message(from, msg, out),
            Role::Silent => {}
            Role::Crash { .. } | Role::CrashRecover { .. } => {
                let node = &mut self.node;
                self.outage
                    .deliver(from, msg, |f, m| node.on_message(f, m, out));
            }
            Role::LyingShares { .. } | Role::FlippedVotes | Role::Equivocating => {
                self.forge(out, |node, raw| node.on_message(from, msg, raw));
            }
        }
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        match self.role {
            Role::Honest => self.node.on_batch(from, msgs, out),
            Role::Silent => msgs.clear(),
            // The outage counts *messages*: a batch that straddles the
            // crash point is split there, and the rest counts toward
            // the outage.
            Role::Crash { .. } | Role::CrashRecover { .. } => {
                let node = &mut self.node;
                for msg in msgs.drain(..) {
                    self.outage
                        .deliver(from, msg, |f, m| node.on_message(f, m, out));
                }
            }
            Role::LyingShares { .. } | Role::FlippedVotes | Role::Equivocating => {
                self.forge(out, |node, raw| node.on_batch(from, msgs, raw));
            }
        }
    }
    fn done(&self) -> bool {
        match self.role {
            // A crash-recover process comes back and is expected to
            // decide; the run waits for it.
            Role::Honest | Role::CrashRecover { .. } => self.node.done(),
            // Corrupted processes never gate termination.
            Role::Silent
            | Role::Crash { .. }
            | Role::LyingShares { .. }
            | Role::FlippedVotes
            | Role::Equivocating => true,
        }
    }
    fn down(&self) -> bool {
        match self.role {
            Role::Silent => true,
            Role::Crash { .. } | Role::CrashRecover { .. } => self.outage.down(),
            Role::Honest | Role::LyingShares { .. } | Role::FlippedVotes | Role::Equivocating => {
                false
            }
        }
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
struct Outage {
    /// Deliveries until the crash point; `u64::MAX` for a process that
    /// is up for good (every non-crash role, and a recovered process).
    left: u64,
    /// Deliveries the outage (while up: the coming one) still misses
    /// before the recovery point; 0 is fail-stop.
    down_left: u64,
    /// Deliveries missed so far, replayed at the recovery point.
    missed: Vec<(Pid, Msg)>,
    recoveries: u64,
}

impl Outage {
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
    fn deliver(&mut self, from: Pid, msg: Msg, mut handle: impl FnMut(Pid, Msg)) {
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

/// A simulated cluster running one agreement instance.
///
/// A cluster built from a [`ScenarioPlan`](crate::ScenarioPlan) also
/// carries the plan's unfired timed events ([`PlanEvent`]);
/// [`Cluster::run`] and [`Cluster::advance_until`] fire them as their
/// triggers come due. A cluster built by [`Cluster::new`] or
/// [`Cluster::with_scheduler`] has none.
///
/// See the crate-level docs for a quickstart; `examples/` for richer
/// scenarios.
pub struct Cluster {
    sim: Simulation<Msg, ClusterProcess>,
    honest: Vec<Pid>,
    /// Proposals the cluster was built with (the monitor's validity
    /// reference, and the basis for rebuilding a corrupted process).
    inputs: Vec<Option<bool>>,
    monitor: Option<crate::monitor::InvariantMonitor>,
    /// The plan's timed events that have not fired yet.
    pub(crate) pending: Vec<PlanEvent>,
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
        let (procs, honest) = config.processes(inputs);
        Cluster {
            sim: Simulation::new(procs, scheduler, config.seed),
            honest,
            inputs: inputs.to_vec(),
            monitor: None,
            pending: Vec::new(),
        }
    }

    /// Direct access to the simulation (metrics, stepping).
    pub fn sim(&self) -> &Simulation<Msg, ClusterProcess> {
        &self.sim
    }

    /// Mutable access to the simulation — e.g. to drain in-flight
    /// tails after [`Cluster::run`] returned at `all_done` (memory
    /// accounting tests want full quiescence).
    pub fn sim_mut(&mut self) -> &mut Simulation<Msg, ClusterProcess> {
        &mut self.sim
    }

    /// The honest process ids.
    pub fn honest(&self) -> &[Pid] {
        &self.honest
    }

    /// The run digest, if [`Simulation::enable_digest`] was turned on
    /// (scenario-zoo clusters enable it so runs can be replay-verified).
    pub fn digest(&self) -> Option<u64> {
        self.sim.digest()
    }

    /// Installs the [invariant monitor](crate::monitor): after every
    /// delivered event the paper's safety properties (agreement-so-far,
    /// validity, shun monotonicity, no honest-pair shuns) are re-checked
    /// against the live process table, and findings accumulate in a
    /// [`MonitorReport`](crate::MonitorReport) readable through
    /// [`Cluster::monitor_report`]. Strictly opt-in: the monitored run's
    /// digest and non-monitor metrics are bit-identical to the
    /// unmonitored run's.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn enable_monitor(&mut self) {
        let monitor = crate::monitor::InvariantMonitor::new(self.inputs.clone());
        self.sim.set_observer(Box::new(monitor.clone()));
        self.monitor = Some(monitor);
    }

    /// The monitor's findings so far (`None` unless
    /// [`Cluster::enable_monitor`] was called before the run).
    pub fn monitor_report(&self) -> Option<crate::monitor::MonitorReport> {
        self.monitor.as_ref().map(|m| m.report())
    }

    /// Corrupts process `p` **mid-run** with `role`, keeping its
    /// accumulated protocol state: an *adaptive* adversary that picks
    /// its victim after watching the run (the timed [`Action::Corrupt`]).
    /// The process drops out of the honest set from this event on (a
    /// crash-recover role keeps it there); the invariant monitor (if
    /// enabled) sees the change on the next delivery.
    ///
    /// Panics if `role` is [`Role::Honest`], or if `p` is not currently
    /// honest ([`ScenarioPlan::check`](crate::ScenarioPlan::check) rules
    /// both out).
    fn corrupt(&mut self, p: Pid, role: Role) {
        assert!(role != Role::Honest, "Corrupt requires a non-honest role");
        let process = self.sim.process_mut(p);
        assert!(
            process.role == Role::Honest,
            "corrupt targets a currently-honest process"
        );
        // A crash role counts its `after` deliveries from here.
        process.outage = Outage::of(&role);
        process.role = role;
        if !process.is_honest() {
            self.honest.retain(|&h| h != p);
        }
    }

    /// Crashes process `p` **now** (the timed [`Action::Crash`]):
    /// fail-stop with `down_for = None`, or down for the next `d`
    /// deliveries then recovered (backlog replay) with `Some(d)`. This
    /// also applies to a process already carrying a crash fault —
    /// re-crashing a process *during its recovery window* extends the
    /// outage (the "crash-during-recovery" compound scenario).
    ///
    /// Panics if `p` is silent or Byzantine, or if `down_for` is
    /// `Some(0)` ([`ScenarioPlan::check`](crate::ScenarioPlan::check)
    /// rules both out).
    fn crash(&mut self, p: Pid, down_for: Option<u64>) {
        let process = self.sim.process_mut(p);
        process.crash_now(down_for);
        if !process.is_honest() {
            self.honest.retain(|&h| h != p);
        }
    }

    /// A deep copy of the whole cluster — every engine, RNG stream, the
    /// in-flight queue, the scheduler, the unfired plan events — through
    /// [`Simulation::snapshot`]. A monitored copy gets its own
    /// [`InvariantMonitor::deep_clone`](crate::monitor::InvariantMonitor::deep_clone)
    /// of the branch-point state, so the original and every copy observe
    /// their futures independently (a shared live monitor would misread
    /// a branch's re-observations as the original run rewinding).
    ///
    /// A snapshot nobody steps is a checkpoint: running a further
    /// snapshot of it reproduces the original tail bit-identically, and
    /// a further snapshot followed by [`Simulation::reseed`] (through
    /// [`Cluster::sim_mut`]) forks a divergent schedule from the same
    /// protocol state.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler cannot be copied (every
    /// [`SchedLayer`](sba_sim::SchedLayer) stack can; a custom
    /// [`Scheduler`] need not).
    pub fn snapshot(&self) -> Cluster {
        let mut sim = self.sim.snapshot();
        let monitor = self
            .monitor
            .as_ref()
            .map(crate::monitor::InvariantMonitor::deep_clone);
        if let Some(m) = &monitor {
            sim.replace_observer(Box::new(m.clone()));
        }
        Cluster {
            sim,
            honest: self.honest.clone(),
            inputs: self.inputs.clone(),
            monitor,
            pending: self.pending.clone(),
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
                    Action::Crash { p, down_for } => self.crash(p, down_for),
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
        let mut shun_pairs = Vec::new();
        let mut max_round = 0;
        for i in 1..=n as u32 {
            let pid = Pid::new(i);
            let proc_ = self.sim.process(pid);
            if !proc_.is_honest() {
                continue;
            }
            if let Some(node) = proc_.node() {
                decisions[(i - 1) as usize] = node.decision(0);
                rounds[(i - 1) as usize] = node.decision_round(0);
                if let Some(r) = node.decision_round(0) {
                    max_round = max_round.max(r);
                }
            }
            if let Some(events) = proc_.events() {
                for ev in events {
                    if let sba_aba::AbaEvent::Shunned { process } = ev {
                        shun_pairs.push((pid, *process));
                    }
                }
            }
        }
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
    fn feed(outage: &mut Outage, count: u32) -> Vec<Msg> {
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
