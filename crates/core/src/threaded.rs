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
//! Safety is not only checked at the end: every process holds a handle
//! on the run's one [safety checker](crate::monitor) and, after each
//! batch it takes, reports its own decision and event log to it — the
//! path every monitored simulation takes too — so all five invariants
//! (agreement, decision-stability, validity, shun-monotonicity,
//! honest-pair-shun) are localized to the batch that exposed them, even
//! in a run that never terminates. The honest set is the one the plan's
//! roles fix at build: mid-run corruption is a simulator concern.

use std::time::Duration;

use sba_net::Pid;
use sba_sim::threaded::ThreadedStats;

use crate::cluster::ClusterProcess;
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

/// Points every process of a table built for `inputs` at one new
/// checker, which takes the processes' roles at build for the honest
/// set; returns the checker.
fn monitored(procs: &mut [ClusterProcess], inputs: &[Option<bool>]) -> InvariantMonitor {
    let honest = procs.iter().map(ClusterProcess::is_honest).collect();
    let monitor = InvariantMonitor::new(inputs.to_vec(), honest);
    for p in procs {
        p.monitor = Some(monitor.clone());
    }
    monitor
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
    /// Invariant evaluations the safety checker performed (4 per
    /// `Process` call of an honest process: its start and each batch).
    pub checks: u64,
    /// Total violations observed (including beyond the recording cap).
    pub violations_total: u64,
    /// The first recorded violations, verbatim; `at_event` counts the
    /// reports of every process (its start and each batch).
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
    let (mut procs, _) = plan.cluster_config().processes(inputs);
    let monitor = monitored(&mut procs, inputs);

    let (procs, stats) = match kind {
        RuntimeKind::Threaded => sba_sim::threaded::run(procs, wall_limit),
        RuntimeKind::Socket => sba_sim::socket::run(procs, wall_limit)?,
    };

    let decision = |p: &ClusterProcess| p.node().filter(|_| p.is_honest())?.decision(0);
    let decisions = procs.iter().map(decision).collect();
    // The reporting-honest set: crash-recover processes count (they are
    // omission-faulted and expected to decide), Byzantine ones do not.
    let honest = (Pid::all(procs.len()).zip(&procs))
        .filter_map(|(pid, p)| p.is_honest().then_some(pid))
        .collect();
    let findings = monitor.report();
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
    use std::sync::Arc;

    use sba_aba::AbaEvent;
    use sba_field::{Field, Gf61};
    use sba_sim::{schedulers, Simulation};
    use sba_svss::forge_recon_points;

    use super::*;
    use crate::Role;

    /// A plan whose p4 forges every reconstruction point it sends, by
    /// its role or — while keeping [`Role::Honest`] — by a tamper, its
    /// table monitored as [`run_plan`] monitors it but driven by the
    /// deterministic simulator, so the schedule, and with it p4's
    /// detection, repeats. Returns the checker's findings and whether
    /// some process shunned p4.
    fn forging_p4_run(role: Role) -> (crate::MonitorReport, bool) {
        let mut plan = ScenarioPlan::new("liar", 4, 1, 4);
        plan.roles = vec![(Pid::new(4), role)];
        let inputs: Vec<Option<bool>> = (0..4).map(|i| Some(i % 2 == 0)).collect();
        let (mut procs, _) = plan.cluster_config().processes(&inputs);
        if procs[3].is_honest() {
            let forge = |_, msg: &_| forge_recon_points(msg, |_| Some(Gf61::from_u64(11)));
            procs[3].tamper = Some(Arc::new(forge));
        }
        let monitor = monitored(&mut procs, &inputs);

        let mut sim = Simulation::new(procs, schedulers::uniform(20), plan.seed);
        let outcome = sim.run_until_all_done(60_000_000);
        assert!(outcome.all_done, "the monitored table did not finish");

        let liar = AbaEvent::Shunned {
            process: Pid::new(4),
        };
        let shunned = (sim.processes()).any(|p| p.log().contains(&liar));
        (monitor.report(), shunned)
    }

    #[test]
    fn a_shunned_liar_is_no_violation() {
        let (report, shunned) = forging_p4_run(Role::LyingShares { delta: 11 });
        assert!(shunned, "the seed no longer gets the liar shunned");
        assert!(report.ok(), "checker saw {:?}", report.violations);
        assert!(report.checks > 0 && report.checks % 4 == 0);
    }

    #[test]
    fn the_runtime_adapter_reports_honest_pair_shuns() {
        // The same attack, but p4 keeps its honest role: shunning it is
        // now the violation the paper rules out.
        let (report, shunned) = forging_p4_run(Role::Honest);
        assert!(shunned);
        assert!(!report.ok());
        for v in &report.violations {
            assert_eq!(v.invariant, "honest-pair-shun");
            assert!(v.detail.ends_with("shunned honest p4"), "{}", v.detail);
            assert!(v.at_event > 0);
        }
    }
}
