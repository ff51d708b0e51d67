//! The sans-io process interface driven by the runtimes.

use std::fmt::Debug;

use sba_net::{Kinded, Outbox, Pid, Wire};

/// Bound implied for simulated wire messages: cloneable, debuggable,
/// byte-encodable (for metrics), kind-tagged (for per-protocol metrics),
/// and sendable across threads (for the threaded runtime).
pub trait SimMsg: Clone + Debug + Wire + Kinded + Send + 'static {}

impl<M: Clone + Debug + Wire + Kinded + Send + 'static> SimMsg for M {}

/// A simulated process: a deterministic state machine reacting to message
/// deliveries.
///
/// Implementations must be deterministic given their construction-time
/// RNG seed; all nondeterminism in a run comes from the [`Scheduler`] and
/// the seeds, making runs replayable.
///
/// Byzantine processes are ordinary `Process` implementations that
/// misbehave; the runtimes make no honesty assumptions.
///
/// [`Scheduler`]: crate::Scheduler
pub trait Process<M>: Send {
    /// Invoked once before any delivery; typically sends initial messages.
    fn on_start(&mut self, out: &mut Outbox<M>);

    /// Handles one delivered message.
    fn on_message(&mut self, from: Pid, msg: M, out: &mut Outbox<M>);

    /// Handles one delivered same-tick batch from `from`: every message
    /// the batch carries, in send order. Implementations **must drain**
    /// `msgs` completely; whatever they leave behind is discarded.
    ///
    /// The default forwards member-by-member to [`Process::on_message`],
    /// which is always correct. Protocol engines implement this one
    /// handler, amortizing per-delivery work (routing-table probes,
    /// monotone advance/pump fixpoints, event absorption) across the
    /// batch, and their `on_message` *is* the one-member batch. A batch
    /// must produce the same final state and the same *set* of sends as
    /// its members fed one at a time — only the ordering of sends within
    /// the batch may differ (any ordering is a legal asynchronous
    /// schedule).
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<M>, out: &mut Outbox<M>) {
        for msg in msgs.drain(..) {
            self.on_message(from, msg, out);
        }
    }

    /// Whether this process has produced its final output. Used by
    /// [`Simulation::run_until_all_done`] and the threaded runtime to stop
    /// early; defaults to `false` (run to quiescence).
    ///
    /// [`Simulation::run_until_all_done`]: crate::Simulation::run_until_all_done
    fn done(&self) -> bool {
        false
    }

    /// Whether this process is currently down (crashed, silent, or
    /// mid-outage). A fault model overrides this (`sba::ClusterProcess`
    /// does for its silent and crash roles); the simulator mirrors the
    /// count into
    /// [`Metrics::processes_down`](crate::Metrics::processes_down) so
    /// fault sweeps can assert how many processes were dead at decision
    /// time. Defaults to `false`.
    fn down(&self) -> bool {
        false
    }

    /// Completed crash-recoveries, mirrored into
    /// [`Metrics::recoveries`](crate::Metrics::recoveries). Defaults to 0.
    fn recoveries(&self) -> u64 {
        0
    }
}

/// Lets the simulator's unit tests mix process types in one run.
#[cfg(test)]
impl<M> Process<M> for Box<dyn Process<M>> {
    fn on_start(&mut self, out: &mut Outbox<M>) {
        (**self).on_start(out);
    }
    fn on_message(&mut self, from: Pid, msg: M, out: &mut Outbox<M>) {
        (**self).on_message(from, msg, out);
    }
    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<M>, out: &mut Outbox<M>) {
        (**self).on_batch(from, msgs, out);
    }
    fn done(&self) -> bool {
        (**self).done()
    }
    fn down(&self) -> bool {
        (**self).down()
    }
    fn recoveries(&self) -> u64 {
        (**self).recoveries()
    }
}
