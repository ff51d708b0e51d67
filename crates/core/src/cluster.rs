//! A batteries-included multi-process harness: build a cluster, inject
//! faults, run agreement, read a report.

use sba_aba::{AbaConfig, AbaMsg, AbaNode, AbaProcess, CoinMode};
use sba_field::Gf61;
use sba_net::{Outbox, Pid};
use sba_sim::{
    schedulers, CrashProcess, Metrics, Process, Scheduler, SilentProcess, Simulation, TamperProcess,
};

use crate::adversary;
use crate::scenario::Role;

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

/// One process of the cluster: honest, or one of the fault models.
///
/// `Clone` deep-copies the whole protocol state (engines, RNG streams,
/// tamper closures), which is what makes a [`Cluster`] checkpointable.
#[derive(Clone)]
pub enum ClusterProcess {
    /// Runs the full honest protocol.
    Honest(AbaProcess<Gf61>),
    /// Sends nothing, ever.
    Silent(SilentProcess),
    /// Honest until a delivery budget runs out, then dead.
    Crash(CrashProcess<AbaProcess<Gf61>, Msg>),
    /// Honest, then down for a bounded outage, then recovered (catch-up
    /// by replaying the missed backlog). Crash faults are not Byzantine:
    /// a recovered process is expected to decide like everyone else.
    Recovering(CrashProcess<AbaProcess<Gf61>, Msg>),
    /// Honest state machine with tampered outgoing messages.
    Byzantine(TamperProcess<AbaProcess<Gf61>, Msg>),
}

impl ClusterProcess {
    /// Wraps the honest state machine `process` in the behaviour `role`
    /// names.
    pub fn with_role(process: AbaProcess<Gf61>, role: Role) -> Self {
        match role {
            Role::Honest => ClusterProcess::Honest(process),
            Role::Silent => ClusterProcess::Silent(SilentProcess),
            Role::Crash { after } => ClusterProcess::Crash(CrashProcess::new(process, after)),
            Role::CrashRecover { after, down_for } => {
                ClusterProcess::Recovering(CrashProcess::with_recovery(process, after, down_for))
            }
            Role::LyingShares { delta } => ClusterProcess::Byzantine(TamperProcess::new(
                process,
                adversary::lying_share_tamper(delta),
            )),
            Role::FlippedVotes => ClusterProcess::Byzantine(TamperProcess::new(
                process,
                adversary::vote_flip_tamper(),
            )),
            Role::Equivocating => ClusterProcess::Byzantine(TamperProcess::new(
                process,
                adversary::equivocating_vote_tamper(),
            )),
        }
    }

    /// The underlying node, when one exists (silent processes have none).
    pub fn node(&self) -> Option<&AbaNode<Gf61>> {
        match self {
            ClusterProcess::Honest(p) => Some(p.node()),
            ClusterProcess::Silent(_) => None,
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => Some(p.inner().node()),
            ClusterProcess::Byzantine(p) => Some(p.inner().node()),
        }
    }

    /// Whether this process follows the protocol (crash-recover counts:
    /// crash faults are omission faults, not Byzantine ones — its
    /// decision and shun observations are part of the honest report).
    pub fn is_honest(&self) -> bool {
        matches!(
            self,
            ClusterProcess::Honest(_) | ClusterProcess::Recovering(_)
        )
    }

    /// The honest event stream, for processes that have one.
    pub fn events(&self) -> Option<&[sba_aba::AbaEvent]> {
        match self {
            ClusterProcess::Honest(p) => Some(p.events()),
            ClusterProcess::Recovering(p) => Some(p.inner().events()),
            _ => None,
        }
    }
}

impl Process<Msg> for ClusterProcess {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        match self {
            ClusterProcess::Honest(p) => p.on_start(out),
            ClusterProcess::Silent(p) => Process::<Msg>::on_start(p, out),
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => p.on_start(out),
            ClusterProcess::Byzantine(p) => p.on_start(out),
        }
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        match self {
            ClusterProcess::Honest(p) => p.on_message(from, msg, out),
            ClusterProcess::Silent(p) => Process::<Msg>::on_message(p, from, msg, out),
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => {
                p.on_message(from, msg, out)
            }
            ClusterProcess::Byzantine(p) => p.on_message(from, msg, out),
        }
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        match self {
            ClusterProcess::Honest(p) => p.on_batch(from, msgs, out),
            ClusterProcess::Silent(p) => Process::<Msg>::on_batch(p, from, msgs, out),
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => p.on_batch(from, msgs, out),
            ClusterProcess::Byzantine(p) => p.on_batch(from, msgs, out),
        }
    }
    fn done(&self) -> bool {
        match self {
            ClusterProcess::Honest(p) => p.done(),
            ClusterProcess::Silent(_) => true,
            // A crash-recover process comes back and is expected to
            // decide; the run waits for it.
            ClusterProcess::Recovering(p) => p.done(),
            // Corrupted processes never gate termination.
            ClusterProcess::Crash(_) | ClusterProcess::Byzantine(_) => true,
        }
    }
    fn down(&self) -> bool {
        match self {
            ClusterProcess::Silent(_) => true,
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => p.crashed(),
            _ => false,
        }
    }
    fn recoveries(&self) -> u64 {
        match self {
            ClusterProcess::Crash(p) | ClusterProcess::Recovering(p) => p.recoveries(),
            _ => 0,
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
        let mut vals = self.decisions.iter().flatten();
        let Some(first) = vals.next() else {
            return true;
        };
        vals.all(|v| v == first)
    }
}

/// A simulated cluster running one agreement instance.
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
    /// its victim after watching the run (the timed `Corrupt` action of
    /// a [`ScenarioPlan`](crate::ScenarioPlan)). The process drops out
    /// of the honest set from this event on; the invariant monitor (if
    /// enabled) sees the change on the next delivery.
    ///
    /// # Panics
    ///
    /// Panics if `role` is [`Role::Honest`], or if `p` is not currently
    /// honest (corrupting a corrupted process has no sensible semantics
    /// — use [`Cluster::crash`] to re-crash a crash-recover process).
    pub fn corrupt(&mut self, p: Pid, role: Role) {
        assert!(role != Role::Honest, "Corrupt requires a non-honest role");
        let slot = self.sim.process_mut(p);
        assert!(
            matches!(slot, ClusterProcess::Honest(_)),
            "corrupt targets a currently-honest process"
        );
        let taken = std::mem::replace(slot, ClusterProcess::Silent(SilentProcess));
        let ClusterProcess::Honest(process) = taken else {
            unreachable!("asserted honest above");
        };
        *self.sim.process_mut(p) = ClusterProcess::with_role(process, role);
        // Crash-recover keeps the process in the honest (omission-fault)
        // set; everything else removes it.
        if !self.sim.process(p).is_honest() {
            self.honest.retain(|&h| h != p);
        }
    }

    /// Crashes process `p` **now**: fail-stop with `down_for = None`, or
    /// down for the next `d` deliveries then recovered (backlog replay)
    /// with `Some(d)`. Unlike [`Cluster::corrupt`] this also applies to
    /// a process already carrying a crash fault — re-crashing a process
    /// *during its recovery window* extends the outage (the
    /// "crash-during-recovery" compound scenario).
    ///
    /// # Panics
    ///
    /// Panics if `p` is silent or Byzantine, or if `down_for` is
    /// `Some(0)`.
    pub fn crash(&mut self, p: Pid, down_for: Option<u64>) {
        let slot = self.sim.process_mut(p);
        let taken = std::mem::replace(slot, ClusterProcess::Silent(SilentProcess));
        *self.sim.process_mut(p) = match taken {
            ClusterProcess::Honest(process) => match down_for {
                None => {
                    let mut cp = CrashProcess::new(process, 1);
                    cp.crash_now(None);
                    ClusterProcess::Crash(cp)
                }
                Some(d) => {
                    let mut cp = CrashProcess::with_recovery(process, 1, d);
                    cp.crash_now(Some(d));
                    ClusterProcess::Recovering(cp)
                }
            },
            ClusterProcess::Crash(mut cp) | ClusterProcess::Recovering(mut cp) => {
                cp.crash_now(down_for);
                match down_for {
                    None => ClusterProcess::Crash(cp),
                    Some(_) => ClusterProcess::Recovering(cp),
                }
            }
            other => {
                let kind = match other {
                    ClusterProcess::Silent(_) => "silent",
                    _ => "byzantine",
                };
                panic!("cannot crash a {kind} process");
            }
        };
        if !self.sim.process(p).is_honest() {
            self.honest.retain(|&h| h != p);
        }
    }

    /// Freezes the full cluster state — every engine, RNG stream, the
    /// in-flight queue, the scheduler — as a reusable checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler does not support checkpointing (every
    /// [`SchedLayer`](sba_sim::SchedLayer) stack does; a custom
    /// [`Scheduler`] need not).
    pub fn checkpoint(&self) -> ClusterCheckpoint {
        ClusterCheckpoint {
            sim: self.sim.checkpoint(),
            honest: self.honest.clone(),
            inputs: self.inputs.clone(),
            // Deep-cloned so the original run's later observations never
            // leak into the frozen state branches start from.
            monitor: self
                .monitor
                .as_ref()
                .map(crate::monitor::InvariantMonitor::deep_clone),
        }
    }

    /// Runs until all honest processes halt (or the event budget runs
    /// out) and reports.
    pub fn run(&mut self, max_events: u64) -> ClusterReport {
        let outcome = self.sim.run_until_all_done(max_events);
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

/// A frozen mid-run [`Cluster`], from [`Cluster::checkpoint`]. Reusable:
/// each [`ClusterCheckpoint::resume`] / [`ClusterCheckpoint::fork`]
/// yields an independent continuation of the same branch point.
pub struct ClusterCheckpoint {
    sim: sba_sim::SimCheckpoint<Msg, ClusterProcess>,
    honest: Vec<Pid>,
    inputs: Vec<Option<bool>>,
    /// The monitor's state frozen at the branch point; every resumed /
    /// forked branch gets its own
    /// [`deep_clone`](crate::monitor::InvariantMonitor::deep_clone) of
    /// it, so branches observe their divergent futures independently
    /// (a shared live monitor would misread a branch's re-observations
    /// as the original run rewinding).
    monitor: Option<crate::monitor::InvariantMonitor>,
}

impl ClusterCheckpoint {
    /// Continues with the original scheduler stream: the tail is
    /// bit-identical to the run the checkpoint was taken from.
    pub fn resume(&self) -> Cluster {
        self.branch(self.sim.resume())
    }

    /// Continues with a scheduler stream re-derived from `seed`: same
    /// protocol state at the branch point, divergent schedule after it
    /// ("round 3, coin revealed, partition heals" counterfactuals).
    pub fn fork(&self, seed: u64) -> Cluster {
        self.branch(self.sim.fork(seed))
    }

    /// Wires one branch: its monitor is an isolated copy of the
    /// branch-point state, re-installed as the simulation's observer
    /// (the checkpointed observer inside `sim` shares state with other
    /// branches — see [`Observer::clone_box`](sba_sim::Observer)).
    fn branch(&self, mut sim: Simulation<Msg, ClusterProcess>) -> Cluster {
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
        }
    }

    /// Events processed up to the branch point.
    pub fn events(&self) -> u64 {
        self.sim.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn config_accessors() {
        let c = ClusterConfig::new(7, 2).seed(5).max_rounds(9).max_delay(3);
        assert_eq!(c.n, 7);
        assert_eq!(c.t, 2);
    }
}
