//! System runtimes for the cluster: the same protocol stack a
//! [`Cluster`](crate::Cluster) simulates, run on OS threads
//! ([`sba_sim::threaded`]) or over real loopback TCP sockets
//! ([`sba_sim::socket`]), with the safety checker riding every batch.
//!
//! The deterministic simulator stays the correctness *oracle*: it
//! explores adversarial schedules reproducibly and pins exact
//! message/byte gauges. These runtimes are the realism check — the OS
//! scheduler (and the kernel's socket machinery) supplies a schedule no
//! seed describes, and the protocol outcomes must still hold. A
//! [`ScenarioPlan`]'s runtime-independent core — `n`, `t`, seed, coin
//! construction, roles — carries over via
//! [`ScenarioPlan::cluster_config`]; its scheduler layers and timed
//! events are schedule concerns and do not (the OS *is* the scheduler
//! here).
//!
//! Safety is not only checked at the end: every process is wrapped in a
//! [`WatchedProcess`] that, after each batch it takes, reports its own
//! decision, event log and round to the run's one
//! [safety checker](crate::monitor) — the checker the simulator's
//! monitor feeds — so all five invariants (agreement,
//! decision-stability, validity, shun-monotonicity, honest-pair-shun)
//! are localized to the batch that exposed them, even in a run that
//! never terminates. The honest set is the one the plan's roles fix at
//! build: mid-run corruption is a simulator concern.

use std::time::Duration;

use sba_net::{Outbox, Pid};
use sba_sim::threaded::ThreadedStats;
use sba_sim::Process;

use crate::cluster::{ClusterProcess, Msg};
use crate::monitor::{InvariantMonitor, MonitorViolation};
use crate::ScenarioPlan;

/// Which system runtime to drive the cluster with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeKind {
    /// One OS thread per process, crossbeam channels between them,
    /// one step at a time ([`sba_sim::threaded`]).
    Threaded,
    /// One OS thread per process, loopback TCP between them, shipping
    /// the canonical per-recipient frame bytes ([`sba_sim::socket`]).
    Socket,
}

impl RuntimeKind {
    /// The stable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Threaded => "threaded",
            RuntimeKind::Socket => "socket",
        }
    }
}

/// A [`ClusterProcess`] that reports itself to the run's shared
/// [safety checker](crate::monitor) after every delivered batch — the
/// monitored unit the system runtimes actually run.
pub struct WatchedProcess {
    pid: Pid,
    inner: ClusterProcess,
    watch: InvariantMonitor,
}

impl Process<Msg> for WatchedProcess {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        self.inner.on_start(out);
        self.watch.after_batch(self.pid, &self.inner);
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        self.inner.on_message(from, msg, out);
        self.watch.after_batch(self.pid, &self.inner);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<Msg>, out: &mut Outbox<Msg>) {
        self.inner.on_batch(from, msgs, out);
        self.watch.after_batch(self.pid, &self.inner);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn down(&self) -> bool {
        self.inner.down()
    }
    fn recoveries(&self) -> u64 {
        self.inner.recoveries()
    }
}

/// Wraps a process table for a system runtime: every process reports to
/// one checker that takes `honest[i]` as whether pid `i+1` follows the
/// protocol.
fn watched(
    procs: Vec<ClusterProcess>,
    inputs: &[Option<bool>],
    honest: Vec<bool>,
) -> (Vec<WatchedProcess>, InvariantMonitor) {
    let watch = InvariantMonitor::with_honest(inputs.to_vec(), honest);
    let watched = (Pid::all(procs.len()).zip(procs))
        .map(|(pid, inner)| WatchedProcess {
            pid,
            inner,
            watch: watch.clone(),
        })
        .collect();
    (watched, watch)
}

/// Outcome of a threaded or socket cluster run.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Which runtime produced this report.
    pub kind: RuntimeKind,
    /// Runtime statistics (messages, batches, bytes, drops, wall time).
    pub stats: ThreadedStats,
    /// Per-process decision (index `i` is pid `i+1`; `None` for
    /// corrupted and undecided processes).
    pub decisions: Vec<Option<bool>>,
    /// The honest pids.
    pub honest: Vec<Pid>,
    /// Invariant evaluations the safety checker performed (4 per batch
    /// an honest process took).
    pub checks: u64,
    /// Total violations observed (including beyond the recording cap).
    pub violations_total: u64,
    /// The first recorded violations, verbatim; `at_event` counts the
    /// run's delivered batches.
    pub violations: Vec<MonitorViolation>,
}

impl RuntimeReport {
    /// Whether every honest process decided.
    pub fn all_decided(&self) -> bool {
        self.honest
            .iter()
            .all(|p| self.decisions[(p.index() - 1) as usize].is_some())
    }

    /// Whether all honest decisions agree (vacuously true with none).
    pub fn agreement(&self) -> bool {
        crate::cluster::agreement(&self.decisions)
    }

    /// Whether the checker saw no violation for the whole run.
    pub fn ok(&self) -> bool {
        self.violations_total == 0
    }
}

/// Runs a plan's cluster under a system runtime: the plan's
/// runtime-independent core ([`ScenarioPlan::cluster_config`]) builds
/// the process table, `kind` picks the transport, and the OS supplies
/// the schedule. Scheduler layers and timed events in the plan are
/// ignored (they describe simulated schedules). The run ends when every
/// process is done and all traffic has drained, or at `wall_limit`.
///
/// # Panics
///
/// Panics unless `n > 3t`, `inputs.len() == n`, at most `t` roles are
/// corrupted — and, for [`RuntimeKind::Socket`], `n >= 2`.
///
/// # Errors
///
/// Propagates socket setup errors ([`RuntimeKind::Socket`] only).
pub fn run_plan(
    kind: RuntimeKind,
    plan: &ScenarioPlan,
    inputs: &[Option<bool>],
    wall_limit: Duration,
) -> std::io::Result<RuntimeReport> {
    let (procs, _) = plan.cluster_config().processes(inputs);
    // The reporting-honest set: crash-recover processes count (they are
    // omission-faulted and expected to decide), Byzantine ones do not.
    let honest: Vec<bool> = procs.iter().map(ClusterProcess::is_honest).collect();
    let (watched, watch) = watched(procs, inputs, honest.clone());

    let (watched, stats) = match kind {
        RuntimeKind::Threaded => sba_sim::threaded::run(watched, wall_limit),
        RuntimeKind::Socket => sba_sim::socket::run(watched, wall_limit)?,
    };

    let decision = |w: &WatchedProcess| w.inner.node().filter(|_| w.inner.is_honest())?.decision(0);
    let decisions = watched.iter().map(decision).collect();
    let honest = (Pid::all(honest.len()).zip(honest))
        .filter_map(|(pid, honest)| honest.then_some(pid))
        .collect();
    let findings = watch.report();
    Ok(RuntimeReport {
        kind,
        stats,
        decisions,
        honest,
        checks: findings.checks,
        violations_total: findings.violations_total,
        violations: findings.violations,
    })
}

#[cfg(test)]
mod tests {
    use sba_aba::AbaEvent;
    use sba_sim::{schedulers, Simulation};

    use super::*;
    use crate::Role;

    /// A plan with one lying process, its table wrapped for a system
    /// runtime but driven by the deterministic simulator — so the
    /// schedule, and with it the liar's detection, repeats — under a
    /// checker that takes `honest` for the honest set. Returns the
    /// checker's findings and whether some honest process shunned the
    /// liar.
    fn lying_p4_run(honest: [bool; 4]) -> (crate::MonitorReport, bool) {
        let mut plan = ScenarioPlan::new("liar", 4, 1, 4);
        plan.roles = vec![(Pid::new(4), Role::LyingShares { delta: 11 })];
        let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
        let (procs, _) = plan.cluster_config().processes(&inputs);
        let (watched, watch) = watched(procs, &inputs, honest.to_vec());

        let mut sim = Simulation::new(watched, schedulers::uniform(20), plan.seed);
        let outcome = sim.run_until_all_done(60_000_000);
        assert!(outcome.all_done, "the watched table did not finish");

        let liar = AbaEvent::Shunned {
            process: Pid::new(4),
        };
        let shunned =
            (sim.processes()).any(|w| w.inner.events().is_some_and(|log| log.contains(&liar)));
        (watch.report(), shunned)
    }

    #[test]
    fn a_shunned_liar_is_no_violation() {
        let (report, shunned) = lying_p4_run([true, true, true, false]);
        assert!(shunned, "the seed no longer gets the liar shunned");
        assert!(report.ok(), "checker saw {:?}", report.violations);
        assert!(report.checks > 0 && report.checks % 4 == 0);
    }

    #[test]
    fn the_runtime_adapter_reports_honest_pair_shuns() {
        // The same run, but the checker is told p4 is honest: shunning
        // it is now the violation the paper rules out.
        let (report, shunned) = lying_p4_run([true; 4]);
        assert!(shunned);
        assert!(!report.ok());
        for v in &report.violations {
            assert_eq!(v.invariant, "honest-pair-shun");
            assert!(v.detail.ends_with("shunned honest p4"), "{}", v.detail);
            assert!(v.at_event > 0 && v.now == 0);
        }
    }
}
