//! The safety checker: the paper's invariants re-checked after every
//! delivery, wherever the protocol runs.
//!
//! End-of-run assertions can only say a run *ended* safe; they cannot
//! catch a transient violation, localize when one happened, or guard a
//! run that never terminates. The checker is fed one **observation** per
//! honest process — its decision, its append-only ABA event log and its
//! current round — and checks, against everything observed so far:
//!
//! - **agreement** — no two honest decisions differ;
//! - **decision-stability** — a decision never changes once made;
//! - **validity** — if every honest process proposed the same bit, any
//!   honest decision equals it;
//! - **shun-monotonicity** — a process's shun observations only
//!   accumulate (the event log never rewinds or repeats a pair);
//! - **honest-pair-shun** — an honest process never shuns an honest
//!   process (the MW-SVSS shunning guarantee).
//!
//! Two adapters feed it. In the simulator an [`InvariantMonitor`] is an
//! opt-in [`Observer`]: after every delivered event it re-reads the
//! honest set from the process table (so mid-run corruption is
//! reflected) and observes every honest process, surfacing violations
//! live through [`Metrics::monitor_violations`](sba_sim::Metrics). It
//! draws nothing from the simulation RNG and never touches the digest,
//! so monitored and unmonitored runs are bit-identical apart from the
//! two monitor counters. In the system runtimes each
//! [`WatchedProcess`](crate::WatchedProcess) observes *itself* after
//! every batch it takes, against the honest set fixed at build. Either
//! way a violation is a structured [`MonitorViolation`], localized to
//! the event or batch that exposed it instead of a late test failure.

use std::sync::{Arc, Mutex};

use sba_aba::AbaEvent;
use sba_net::Pid;
use sba_sim::{Observer, ObserverStats};

use crate::cluster::ClusterProcess;

/// How many violations are kept verbatim; later ones are only counted.
/// A persistent violation would otherwise grow the report by one entry
/// per delivered event.
const MAX_RECORDED: usize = 64;

/// One invariant violation, localized to the observation that exposed
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorViolation {
    /// The simulator's event counter when the violation was observed —
    /// in a system runtime, the checker's count of delivered batches.
    pub at_event: u64,
    /// Virtual time of that event (0 in a system runtime: there is no
    /// virtual time outside the simulator).
    pub now: u64,
    /// Which invariant failed (`"agreement"`, `"decision-stability"`,
    /// `"validity"`, `"shun-monotonicity"`, `"honest-pair-shun"`).
    pub invariant: &'static str,
    /// Human-readable specifics (who, what values).
    pub detail: String,
}

/// The checker's cumulative findings for one run (or one family of
/// forked runs sharing a monitor — see [`InvariantMonitor`]'s `Clone`).
#[derive(Clone, Debug, Default)]
pub struct MonitorReport {
    /// Invariant evaluations performed (4 per delivered event in the
    /// simulator, 4 per batch an honest process took in a system
    /// runtime).
    pub checks: u64,
    /// Total violations observed (including any beyond the recording
    /// cap).
    pub violations_total: u64,
    /// The first violations, verbatim, up to a fixed recording cap.
    pub violations: Vec<MonitorViolation>,
    /// `(round, event counter)` at the first honest entry into each
    /// voting round — the round-boundary map the fork-corpus harness
    /// forks at.
    pub round_starts: Vec<(u32, u64)>,
}

impl MonitorReport {
    /// Whether the run stayed violation-free.
    pub fn ok(&self) -> bool {
        self.violations_total == 0
    }
}

/// What the checker reads off one honest process.
struct Observation<'a> {
    decision: Option<bool>,
    /// The append-only ABA event log, whole (the checker keeps the
    /// cursor).
    log: &'a [AbaEvent],
    round: u32,
}

impl<'a> Observation<'a> {
    /// `p`'s observation; `None` unless it follows the protocol.
    fn of(p: &'a ClusterProcess) -> Option<Self> {
        let node = p.node().filter(|_| p.is_honest())?;
        Some(Observation {
            decision: node.decision(0),
            log: p.events().unwrap_or(&[]),
            round: node.current_round(0),
        })
    }
}

#[derive(Clone)]
struct MonitorCore {
    /// Proposal per process (index `i` is pid `i+1`); fixed at build.
    inputs: Vec<Option<bool>>,
    /// Who follows the protocol: re-read from the process table every
    /// event in the simulator, fixed at build in the system runtimes.
    honest: Vec<bool>,
    /// Last observed decision per process (stability cache).
    decisions: Vec<Option<bool>>,
    /// Cursor into each process's append-only event log.
    cursors: Vec<usize>,
    /// Observed shun targets per process (for duplicate detection).
    shunned: Vec<Vec<Pid>>,
    /// Highest voting round any honest process has entered.
    max_round_seen: u32,
    /// Batches the system runtimes reported (their event counter).
    batches: u64,
    report: MonitorReport,
}

impl MonitorCore {
    fn new(inputs: Vec<Option<bool>>, honest: Vec<bool>) -> Self {
        let n = inputs.len();
        assert_eq!(honest.len(), n);
        MonitorCore {
            inputs,
            honest,
            decisions: vec![None; n],
            cursors: vec![0; n],
            shunned: vec![Vec::new(); n],
            max_round_seen: 0,
            batches: 0,
            report: MonitorReport::default(),
        }
    }

    /// The honest-unanimous proposal, if the honest proposers all agree
    /// (bystanders never break it; no proposer at all means no pin).
    fn unanimous(&self) -> Option<bool> {
        let mut proposals = (self.inputs.iter().zip(&self.honest))
            .filter_map(|(input, &honest)| input.filter(|_| honest));
        let first = proposals.next()?;
        proposals.all(|b| b == first).then_some(first)
    }

    /// The checker itself: honest process `i`'s observation against
    /// everything observed so far.
    fn observe(&mut self, at_event: u64, now: u64, i: usize, o: Observation<'_>) {
        let mut found: Vec<(&'static str, String)> = Vec::new();
        let me = i + 1;
        // Agreement, decision stability, validity.
        match (self.decisions[i], o.decision) {
            (Some(prev), cur) if cur != Some(prev) => {
                let detail = format!("p{me} decided {prev} then reported {cur:?}");
                found.push(("decision-stability", detail));
                // Re-arm on the new value so a flip is recorded once
                // per change, not once per subsequent observation.
                if let Some(c) = cur {
                    self.decisions[i] = Some(c);
                }
            }
            (None, Some(d)) => {
                self.decisions[i] = Some(d);
                for (j, other) in self.decisions.iter().enumerate() {
                    if j != i && self.honest[j] && *other == Some(!d) {
                        let detail = format!("p{me} decided {d}, p{} decided {}", j + 1, !d);
                        found.push(("agreement", detail));
                    }
                }
                if let Some(b) = self.unanimous().filter(|&b| b != d) {
                    let detail = format!("all honest proposed {b} but p{me} decided {d}");
                    found.push(("validity", detail));
                }
            }
            _ => {}
        }
        // Shun monotonicity + no-honest-pair-shuns, over the new suffix
        // of the append-only event log.
        if o.log.len() < self.cursors[i] {
            found.push(("shun-monotonicity", format!("p{me}'s event log rewound")));
            self.cursors[i] = o.log.len();
        }
        for ev in &o.log[self.cursors[i]..] {
            if let AbaEvent::Shunned { process } = ev {
                if self.shunned[i].contains(process) {
                    found.push(("shun-monotonicity", format!("p{me} re-shunned {process:?}")));
                } else {
                    self.shunned[i].push(*process);
                }
                if self.honest[(process.index() - 1) as usize] {
                    let detail = format!("honest p{me} shunned honest {process:?}");
                    found.push(("honest-pair-shun", detail));
                }
            }
        }
        self.cursors[i] = o.log.len();
        // Round-boundary map (not an invariant; the fork corpus forks
        // at these event counts).
        while self.max_round_seen < o.round {
            self.max_round_seen += 1;
            (self.report.round_starts).push((self.max_round_seen, at_event));
        }
        // A persistent violation is counted every time, recorded up to
        // the cap.
        self.report.violations_total += found.len() as u64;
        let room = MAX_RECORDED.saturating_sub(self.report.violations.len());
        let records = found.into_iter().take(room);
        (self.report.violations).extend(records.map(|(invariant, detail)| MonitorViolation {
            at_event,
            now,
            invariant,
            detail,
        }));
    }

    /// The simulator's adapter: one delivered event, then who follows
    /// the protocol now and what each of them shows (`None` at the
    /// others).
    fn after_event<'a>(
        &mut self,
        now: u64,
        events: u64,
        honest: impl Iterator<Item = bool>,
        table: impl Iterator<Item = Option<Observation<'a>>>,
    ) -> ObserverStats {
        let before = self.report.violations_total;
        self.honest.clear();
        self.honest.extend(honest);
        for (i, o) in table.enumerate() {
            if let Some(o) = o {
                self.observe(events, now, i, o);
            }
        }
        self.report.checks += 4;
        ObserverStats {
            checks: 4,
            violations: self.report.violations_total - before,
        }
    }

    /// The system runtimes' adapter: process `i` took one batch.
    fn after_batch(&mut self, i: usize, o: Option<Observation<'_>>) {
        self.batches += 1;
        if let Some(o) = o.filter(|_| self.honest[i]) {
            self.observe(self.batches, 0, i, o);
            self.report.checks += 4;
        }
    }
}

/// A handle on the safety checker (see the module docs). In the
/// simulator it is created through
/// [`Cluster::enable_monitor`](crate::Cluster::enable_monitor): the
/// cluster keeps one handle and installs another as the simulation's
/// observer.
///
/// `Clone` shares the underlying report — that is how the cluster's
/// handle and the simulation's observer stay one monitor. A
/// [`Cluster::snapshot`](crate::Cluster::snapshot) instead gets an
/// [`InvariantMonitor::deep_clone`]d monitor: each branch re-observes
/// from the branch point against its own copy of the monitor's caches
/// (decision table, event-log cursors), because sharing the live core
/// would make a branch's re-observations look like rewinds of the
/// original run.
#[derive(Clone)]
pub struct InvariantMonitor {
    core: Arc<Mutex<MonitorCore>>,
}

impl InvariantMonitor {
    /// A monitor over `inputs.len()` processes with the given proposals,
    /// for a simulation's observer hook.
    pub fn new(inputs: Vec<Option<bool>>) -> Self {
        let honest = vec![false; inputs.len()];
        Self::with_honest(inputs, honest)
    }

    /// A monitor whose honest set is fixed (`honest[i]` is pid `i+1`):
    /// what the system runtimes' processes report to.
    pub(crate) fn with_honest(inputs: Vec<Option<bool>>, honest: Vec<bool>) -> Self {
        InvariantMonitor {
            core: Arc::new(Mutex::new(MonitorCore::new(inputs, honest))),
        }
    }

    /// Observes `p`, which runs as `pid` in a system runtime, after a
    /// batch it took.
    pub(crate) fn after_batch(&self, pid: Pid, p: &ClusterProcess) {
        let o = Observation::of(p);
        let mut core = self.core.lock().expect("monitor lock poisoned");
        core.after_batch((pid.index() - 1) as usize, o);
    }

    /// A snapshot of the cumulative findings.
    pub fn report(&self) -> MonitorReport {
        let core = self.core.lock().expect("monitor lock poisoned");
        core.report.clone()
    }

    /// An *independent* monitor frozen at this one's current state —
    /// unlike `Clone`, later observations on either side do not leak to
    /// the other. This is what isolates the copies
    /// [`Cluster::snapshot`](crate::Cluster::snapshot) makes: each one
    /// monitors its own future against the state the caches had at the
    /// branch point.
    #[must_use]
    pub fn deep_clone(&self) -> Self {
        let core = self.core.lock().expect("monitor lock poisoned");
        InvariantMonitor {
            core: Arc::new(Mutex::new(core.clone())),
        }
    }
}

impl Observer<ClusterProcess> for InvariantMonitor {
    fn after_event(&mut self, now: u64, events: u64, procs: &[ClusterProcess]) -> ObserverStats {
        let mut core = self.core.lock().expect("monitor lock poisoned");
        let honest = procs.iter().map(ClusterProcess::is_honest);
        core.after_event(now, events, honest, procs.iter().map(Observation::of))
    }

    fn clone_box(&self) -> Option<Box<dyn Observer<ClusterProcess>>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a process shows the checker: its decision, its event log
    /// and its round.
    type State = (Option<bool>, Vec<AbaEvent>, u32);

    /// One scripted step: process `.0` (an index) now shows `.1`.
    type Step = (usize, State);

    fn shun(pid: u32) -> AbaEvent {
        AbaEvent::Shunned {
            process: Pid::new(pid),
        }
    }

    fn observation(state: &State) -> Observation<'_> {
        Observation {
            decision: state.0,
            log: &state.1,
            round: state.2,
        }
    }

    /// Plays `script` through the simulator's adapter: every step is
    /// one delivered event, after which the whole table is observed
    /// (`honest` is what the process table says that event).
    fn through_events(inputs: &[Option<bool>], honest: &[bool], script: &[Step]) -> MonitorReport {
        let mut core = MonitorCore::new(inputs.to_vec(), vec![false; inputs.len()]);
        let mut table: Vec<State> = vec![(None, Vec::new(), 0); inputs.len()];
        for (event, (i, state)) in script.iter().enumerate() {
            table[*i] = state.clone();
            let seen = (table.iter().zip(honest)).map(|(s, &h)| h.then(|| observation(s)));
            let (now, events) = (10 * event as u64, event as u64 + 1);
            let stats = core.after_event(now, events, honest.iter().copied(), seen);
            assert_eq!(stats.checks, 4);
        }
        core.report
    }

    /// Plays `script` through the system runtimes' adapter: every step
    /// is one batch taken by the process that changed.
    fn through_batches(inputs: &[Option<bool>], honest: &[bool], script: &[Step]) -> MonitorReport {
        let mut core = MonitorCore::new(inputs.to_vec(), honest.to_vec());
        for (i, state) in script {
            core.after_batch(*i, Some(observation(state)));
        }
        core.report
    }

    fn records(report: &MonitorReport) -> Vec<(&'static str, String)> {
        assert_eq!(report.violations_total, report.violations.len() as u64);
        (report.violations.iter())
            .map(|v| (v.invariant, v.detail.clone()))
            .collect()
    }

    #[test]
    fn each_invariant_fires_identically_through_both_adapters() {
        // Four processes, all proposing true; p4 is corrupted.
        let inputs = [Some(true); 4];
        let honest = [true, true, true, false];
        let script: Vec<Step> = vec![
            (0, (Some(true), vec![], 1)),
            // p2 decides against p1 and against the unanimous proposal.
            (1, (Some(false), vec![], 1)),
            // p1 changes its mind (recorded once: re-armed on false).
            (0, (Some(false), vec![], 2)),
            // p3 shuns the corrupted p4: what shunning is for.
            (2, (None, vec![shun(4)], 2)),
            // ...then repeats the pair, then shuns honest p1.
            (2, (None, vec![shun(4), shun(4)], 2)),
            (2, (None, vec![shun(4), shun(4), shun(1)], 2)),
            // p3's append-only log rewinds.
            (2, (None, vec![], 2)),
            // Whatever the corrupted p4 reports is not evidence.
            (3, (Some(true), vec![shun(1), shun(1)], 9)),
            (3, (Some(false), vec![], 0)),
        ];
        let expected = vec![
            ("agreement", "p2 decided false, p1 decided true".to_string()),
            (
                "validity",
                "all honest proposed true but p2 decided false".to_string(),
            ),
            (
                "decision-stability",
                "p1 decided true then reported Some(false)".to_string(),
            ),
            ("shun-monotonicity", "p3 re-shunned p4".to_string()),
            (
                "honest-pair-shun",
                "honest p3 shunned honest p1".to_string(),
            ),
            ("shun-monotonicity", "p3's event log rewound".to_string()),
        ];

        let events = through_events(&inputs, &honest, &script);
        let batches = through_batches(&inputs, &honest, &script);
        assert_eq!(records(&events), expected);
        assert_eq!(records(&batches), expected);
        // Where they differ is only how a violation is localized and
        // how often the checker runs: per event, or per honest batch.
        assert_eq!(events.violations[0].at_event, 2);
        assert_eq!(events.violations[0].now, 10);
        assert_eq!(
            (batches.violations[0].at_event, batches.violations[0].now),
            (2, 0)
        );
        assert_eq!(events.checks, 4 * 9);
        assert_eq!(batches.checks, 4 * 7);
        assert_eq!(events.round_starts, vec![(1, 1), (2, 3)]);
        assert_eq!(batches.round_starts, events.round_starts);
    }

    #[test]
    fn agreement_and_validity_breaks_are_flagged() {
        let honest = [true; 3];
        let script: Vec<Step> = vec![
            (0, (Some(true), vec![], 0)),
            (1, (Some(false), vec![], 0)), // breaks agreement AND validity
        ];
        let report = through_batches(&[Some(true); 3], &honest, &script);
        assert_eq!(report.checks, 8);
        assert_eq!(report.violations_total, 2);
        assert!(report.violations.iter().any(|v| v.invariant == "agreement"));
        assert!(report.violations.iter().any(|v| v.invariant == "validity"));
    }

    #[test]
    fn decision_instability_is_flagged() {
        let script: Vec<Step> = vec![
            (0, (Some(true), vec![], 0)),
            (0, (None, vec![], 0)), // a decision may never regress
        ];
        let report = through_batches(&[Some(true), Some(false)], &[true; 2], &script);
        assert_eq!(report.violations_total, 1);
        assert_eq!(report.violations[0].invariant, "decision-stability");
    }

    #[test]
    fn corrupted_processes_and_split_inputs_stay_silent() {
        // Split inputs: no unanimity pin. Pid 2 is corrupted: its
        // (nonsense) reports must not count, on either adapter.
        let (inputs, honest) = ([Some(true), Some(false)], [true, false]);
        let script: Vec<Step> = vec![
            (0, (Some(true), vec![shun(2)], 1)),
            (1, (Some(false), vec![shun(1)], 1)),
            (1, (None, vec![], 0)),
        ];
        let batches = through_batches(&inputs, &honest, &script);
        assert!(through_events(&inputs, &honest, &script).ok());
        assert!(batches.ok());
        assert_eq!(batches.checks, 4, "only the honest batch is checked");
    }
}
