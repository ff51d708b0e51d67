//! The safety checker: the paper's invariants re-checked after every
//! step a process takes, wherever the protocol runs.
//!
//! End-of-run assertions can only say a run *ended* safe; they cannot
//! catch a transient violation, localize when one happened, or guard a
//! run that never terminates. The checker is fed one report per step
//! of each process — whether it follows the protocol, its decision and
//! its append-only event log — and checks, for a process that follows
//! the protocol, against everything reported so far:
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
//! One adapter feeds it: a [`Node`](crate::Node) holding a monitor
//! handle reports itself after every `Process` call it takes
//! (`on_start`, each delivered batch, self-deliveries included) and
//! every command a [`Net`](crate::Net) runs at it. The simulator
//! ([`Net::enable_monitor`](crate::Net::enable_monitor), for every
//! engine) and the system runtimes ([`run_plan`](crate::run_plan)) set
//! that handle on every node, so both reach the checker by this one
//! path. A node reads its decision through
//! [`Engine::decision`](crate::harness::Engine::decision) (SVSS and coin
//! engines decide nothing, so agreement and validity are vacuous there)
//! and its shun targets through
//! [`Engine::shunned`](crate::harness::Engine::shunned).
//!
//! A report of an honest process costs 4 **checks** (the decision, and
//! the log's suffix against three shun rules); a report of a faulty one
//! only records that it no longer counts as honest. A violation is a
//! structured [`MonitorViolation`], localized to the report that
//! exposed it instead of a late test failure. The checker draws nothing
//! from the simulation RNG and never touches the digest, so monitored
//! and unmonitored runs are bit-identical.

use std::sync::{Arc, Mutex};

use sba_net::Pid;

/// How many violations are kept verbatim; later ones are only counted.
/// A persistent violation would otherwise grow the report by one entry
/// per step.
const MAX_RECORDED: usize = 64;

/// One invariant violation, localized to the report that exposed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorViolation {
    /// The checker's count of reports (one per step of any process)
    /// when the violation was observed.
    pub at_event: u64,
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
    /// Invariant evaluations performed: 4 per step of an honest
    /// process.
    pub checks: u64,
    /// Total violations observed (including any beyond the recording
    /// cap).
    pub violations_total: u64,
    /// The first violations, verbatim, up to a fixed recording cap.
    pub violations: Vec<MonitorViolation>,
}

impl MonitorReport {
    /// Whether the run stayed violation-free.
    pub fn ok(&self) -> bool {
        self.violations_total == 0
    }
}

#[derive(Clone)]
struct MonitorCore {
    /// Proposal per process (index `i` is pid `i+1`); fixed at build.
    inputs: Vec<Option<bool>>,
    /// Who follows the protocol, as each process last reported (its
    /// role at build until its first report).
    honest: Vec<bool>,
    /// Last observed decision per process (stability cache).
    decisions: Vec<Option<bool>>,
    /// Cursor into each process's append-only event log.
    cursors: Vec<usize>,
    /// Observed shun targets per process (for duplicate detection).
    shunned: Vec<Vec<Pid>>,
    /// Reports received (the violations' `at_event`).
    reports: u64,
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
            reports: 0,
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

    /// The checker itself: process `i` took a step, after which it
    /// follows the protocol (`honest`) or not, shows `decision`, and
    /// has the event log `log` (`shunned` reads an entry's shun
    /// target). An honest process's report is checked against
    /// everything reported so far.
    fn observe<Ev>(
        &mut self,
        i: usize,
        honest: bool,
        decision: Option<bool>,
        log: &[Ev],
        shunned: impl Fn(&Ev) -> Option<Pid>,
    ) {
        self.reports += 1;
        self.honest[i] = honest;
        if !honest {
            return;
        }
        self.report.checks += 4;
        let mut found: Vec<(&'static str, String)> = Vec::new();
        let me = i + 1;
        // Agreement, decision stability, validity.
        match (self.decisions[i], decision) {
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
        if log.len() < self.cursors[i] {
            found.push(("shun-monotonicity", format!("p{me}'s event log rewound")));
            self.cursors[i] = log.len();
        }
        for process in log[self.cursors[i]..].iter().filter_map(&shunned) {
            if self.shunned[i].contains(&process) {
                found.push(("shun-monotonicity", format!("p{me} re-shunned {process:?}")));
            } else {
                self.shunned[i].push(process);
            }
            if self.honest[(process.index() - 1) as usize] {
                let detail = format!("honest p{me} shunned honest {process:?}");
                found.push(("honest-pair-shun", detail));
            }
        }
        self.cursors[i] = log.len();
        // A persistent violation is counted every time, recorded up to
        // the cap.
        self.report.violations_total += found.len() as u64;
        let room = MAX_RECORDED.saturating_sub(self.report.violations.len());
        let records = found.into_iter().take(room);
        let at_event = self.reports;
        (self.report.violations).extend(records.map(|(invariant, detail)| MonitorViolation {
            at_event,
            invariant,
            detail,
        }));
    }
}

/// A handle on the safety checker (see the module docs): what a
/// [`Node`](crate::Node) reports itself to.
///
/// `Clone` shares the underlying report — that is how every node of a
/// run reports to one checker. A [`Net::snapshot`](crate::Net::snapshot)
/// instead points the copy's nodes at an
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
    /// A monitor over `inputs.len()` processes with the given proposals
    /// (`None`: no proposal) that takes `honest[i]` as whether pid
    /// `i+1` follows the protocol until that process reports otherwise.
    pub fn new(inputs: Vec<Option<bool>>, honest: Vec<bool>) -> Self {
        InvariantMonitor {
            core: Arc::new(Mutex::new(MonitorCore::new(inputs, honest))),
        }
    }

    /// Process `me` took a step (see [`MonitorCore::observe`]).
    pub(crate) fn observe<Ev>(
        &self,
        me: Pid,
        honest: bool,
        decision: Option<bool>,
        log: &[Ev],
        shunned: impl Fn(&Ev) -> Option<Pid>,
    ) {
        let mut core = self.core.lock().expect("monitor lock poisoned");
        core.observe((me.index() - 1) as usize, honest, decision, log, shunned);
    }

    /// A snapshot of the cumulative findings.
    pub fn report(&self) -> MonitorReport {
        let core = self.core.lock().expect("monitor lock poisoned");
        core.report.clone()
    }

    /// An *independent* monitor frozen at this one's current state —
    /// unlike `Clone`, later observations on either side do not leak to
    /// the other. This is what isolates the copies
    /// [`Net::snapshot`](crate::Net::snapshot) makes: each one
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

#[cfg(test)]
mod tests {
    use sba_aba::{AbaEvent, AbaProcess};
    use sba_field::Gf61;

    use super::*;
    use crate::harness::Engine;

    /// What a process shows the checker: whether it follows the
    /// protocol, its decision and its event log.
    type State = (bool, Option<bool>, Vec<AbaEvent>);

    /// One scripted step: process `.0` (an index) now shows `.1`.
    type Step = (usize, State);

    fn shun(pid: u32) -> AbaEvent {
        AbaEvent::Shunned {
            process: Pid::new(pid),
        }
    }

    /// Plays `script` through the checker: every step is one report by
    /// the process that changed (`honest` is the set at build).
    fn play(inputs: &[Option<bool>], honest: &[bool], script: &[Step]) -> MonitorReport {
        let mut core = MonitorCore::new(inputs.to_vec(), honest.to_vec());
        for (i, (honest, decision, log)) in script {
            let shunned = <AbaProcess<Gf61> as Engine>::shunned;
            core.observe(*i, *honest, *decision, log, shunned);
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
    fn each_invariant_fires_as_scripted() {
        // Four processes, all proposing true; p4 is corrupted.
        let inputs = [Some(true); 4];
        let honest = [true, true, true, false];
        let script: Vec<Step> = vec![
            (0, (true, Some(true), vec![])),
            // p2 decides against p1 and against the unanimous proposal.
            (1, (true, Some(false), vec![])),
            // p1 changes its mind (recorded once: re-armed on false).
            (0, (true, Some(false), vec![])),
            // p3 shuns the corrupted p4: what shunning is for.
            (2, (true, None, vec![shun(4)])),
            // ...then repeats the pair, then shuns honest p1.
            (2, (true, None, vec![shun(4), shun(4)])),
            (2, (true, None, vec![shun(4), shun(4), shun(1)])),
            // p3's append-only log rewinds.
            (2, (true, None, vec![])),
            // Whatever the corrupted p4 reports is not evidence.
            (3, (false, Some(true), vec![shun(1), shun(1)])),
            (3, (false, Some(false), vec![])),
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

        let report = play(&inputs, &honest, &script);
        assert_eq!(records(&report), expected);
        // A violation is localized to the report that exposed it, and
        // only an honest process's report is checked.
        assert_eq!(report.violations[0].at_event, 2);
        assert_eq!(report.violations[5].at_event, 7);
        assert_eq!(report.checks, 4 * 7);
    }

    #[test]
    fn agreement_and_validity_breaks_are_flagged() {
        let honest = [true; 3];
        let script: Vec<Step> = vec![
            (0, (true, Some(true), vec![])),
            (1, (true, Some(false), vec![])), // breaks agreement AND validity
        ];
        let report = play(&[Some(true); 3], &honest, &script);
        assert_eq!(report.checks, 8);
        assert_eq!(report.violations_total, 2);
        assert!(report.violations.iter().any(|v| v.invariant == "agreement"));
        assert!(report.violations.iter().any(|v| v.invariant == "validity"));
    }

    #[test]
    fn decision_instability_is_flagged() {
        let script: Vec<Step> = vec![
            (0, (true, Some(true), vec![])),
            (0, (true, None, vec![])), // a decision may never regress
        ];
        let report = play(&[Some(true), Some(false)], &[true; 2], &script);
        assert_eq!(report.violations_total, 1);
        assert_eq!(report.violations[0].invariant, "decision-stability");
    }

    #[test]
    fn corrupted_processes_and_split_inputs_stay_silent() {
        // Split inputs: no unanimity pin. Pid 2 is corrupted: its
        // (nonsense) reports must not count.
        let (inputs, honest) = ([Some(true), Some(false)], [true, false]);
        let script: Vec<Step> = vec![
            (0, (true, Some(true), vec![shun(2)])),
            (1, (false, Some(false), vec![shun(1)])),
            (1, (false, None, vec![])),
        ];
        let report = play(&inputs, &honest, &script);
        assert!(report.ok());
        assert_eq!(report.checks, 4, "only the honest report is checked");
    }

    #[test]
    fn a_process_that_reports_itself_faulty_leaves_the_honest_set() {
        // p2 decides false while honest, then is corrupted: from its
        // next report on, neither its decision nor a shun of it is a
        // violation, and all-true honest proposals pin validity again.
        let inputs = [Some(true), Some(false), Some(true)];
        let script: Vec<Step> = vec![
            (1, (true, Some(false), vec![])),
            (1, (false, Some(false), vec![])),
            (0, (true, Some(true), vec![shun(2)])),
            (2, (true, Some(false), vec![])),
        ];
        let report = play(&inputs, &[true; 3], &script);
        let expected = vec![
            ("agreement", "p3 decided false, p1 decided true".to_string()),
            (
                "validity",
                "all honest proposed true but p3 decided false".to_string(),
            ),
        ];
        assert_eq!(records(&report), expected);
        assert_eq!(report.checks, 4 * 3);
    }
}
