//! Per-delivery observers: opt-in invariant monitoring on the event loop.
//!
//! An [`Observer`] rides the same per-event hook as the run digest: after
//! every delivered batch (and its outbox dispatch) the simulator hands it
//! the virtual clock, the event counter, and a read-only view of the
//! process table. The observer reports how many invariant checks it ran
//! and how many violations it found; the simulator accumulates both into
//! [`Metrics`](crate::Metrics) (`monitor_checks` / `monitor_violations`)
//! so a violation is visible the moment it happens, not at the end of a
//! run.
//!
//! Observers are strictly opt-in: a simulation without one pays a single
//! branch per event, draws nothing from the RNG, and folds nothing into
//! the digest — runs with and without an observer are bit-identical in
//! digest, trace, and every non-monitor metric.

/// Checks-run / violations-found counts for one observer invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObserverStats {
    /// Invariant evaluations performed during this call.
    pub checks: u64,
    /// Violations detected during this call.
    pub violations: u64,
}

/// A read-only per-event hook over the simulation's process table.
///
/// Implementations read `procs` as the concrete process type they were
/// built for (the protocol layer's invariant monitor reads each honest
/// cluster process's decision, round and event log).
pub trait Observer<P>: Send {
    /// Called after every delivered event, once the event's outbox has
    /// been dispatched. `now` is the virtual clock, `events` the number
    /// of events delivered so far (including this one).
    fn after_event(&mut self, now: u64, events: u64, procs: &[P]) -> ObserverStats;

    /// A copy for [`Simulation::snapshot`](crate::Simulation::snapshot),
    /// or `None` if the observer cannot be cloned; a simulation whose
    /// observer returns `None` cannot be snapshotted. Observers that
    /// aggregate into shared state may return a handle-sharing clone
    /// (snapshots then append to the same report); a layer that needs
    /// isolated branches installs its own copy through
    /// [`Simulation::replace_observer`](crate::Simulation::replace_observer).
    fn clone_box(&self) -> Option<Box<dyn Observer<P>>> {
        None
    }
}
