//! Mid-run snapshots: record, replay, and fork simulations.
//!
//! A [`Simulation`] is a pure function of its seed, so any run can be
//! *replayed* by rebuilding it. Checkpointing adds the stronger
//! operation: freeze a run **mid-flight** — calendar queue, per-process
//! engine state and RNG streams, scheduler state, metrics, clocks — and
//! continue it later, any number of times:
//!
//! - [`SimCheckpoint::resume`] continues with the original scheduler RNG
//!   stream: the tail is bit-identical to the run the checkpoint was
//!   taken from (pinned by the conformance tests).
//! - [`SimCheckpoint::fork`] continues with a *divergent* scheduler
//!   stream: the protocol state at the branch point is identical, but
//!   the adversary schedules the future differently — "round 3, coin
//!   revealed, partition heals" style counterfactuals.
//!
//! Processes opt in through the [`Checkpoint`] trait, which is
//! blanket-implemented for every `Clone` process; schedulers opt in
//! through [`Scheduler::clone_box`](crate::Scheduler::clone_box) (all
//! [`SchedLayer`](crate::SchedLayer) rows do).

use crate::{Process, SimMsg, Simulation};

/// A deep, self-contained copy of a process's state.
///
/// Blanket-implemented for every `Clone` type, so any process whose
/// state is plain data (all protocol engines in this workspace) is
/// checkpointable for free; only processes holding un-cloneable
/// resources (raw closures, channels) need a manual implementation —
/// or cannot be checkpointed at all.
pub trait Checkpoint {
    /// Returns a deep copy of `self`, sharing no mutable state.
    fn snapshot(&self) -> Self;
}

impl<T: Clone> Checkpoint for T {
    fn snapshot(&self) -> T {
        self.clone()
    }
}

/// A frozen simulation, taken by [`Simulation::checkpoint`]. Cheap to
/// hold, reusable: every [`SimCheckpoint::resume`]/[`SimCheckpoint::fork`]
/// call produces an independent continuation of the same branch point.
pub struct SimCheckpoint<M, P> {
    frozen: Simulation<M, P>,
}

impl<M: SimMsg, P: Process<M> + Checkpoint> Simulation<M, P> {
    /// Freezes the current state as a checkpoint. Must be called between
    /// events (i.e. outside `step`) — which is the only way user code
    /// *can* call it.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler does not support checkpointing
    /// ([`Scheduler::clone_box`](crate::Scheduler::clone_box) returned
    /// `None` — the default for a custom impl).
    pub fn checkpoint(&self) -> SimCheckpoint<M, P> {
        SimCheckpoint {
            frozen: self.deep_copy(),
        }
    }
}

impl<M: SimMsg, P: Process<M> + Checkpoint> SimCheckpoint<M, P> {
    /// A continuation with the original scheduler RNG stream: running it
    /// reproduces the checkpointed run's tail bit-identically.
    pub fn resume(&self) -> Simulation<M, P> {
        self.frozen.deep_copy()
    }

    /// A continuation whose *scheduler* RNG is re-derived from `seed`:
    /// identical protocol state at the branch point, divergent schedule
    /// after it. Process-internal RNG streams continue unchanged — the
    /// adversary changes, the processes don't.
    pub fn fork(&self, seed: u64) -> Simulation<M, P> {
        let mut sim = self.frozen.deep_copy();
        sim.reseed(seed);
        sim
    }

    /// Events processed up to the branch point.
    pub fn events(&self) -> u64 {
        self.frozen.metrics().events
    }

    /// Virtual time at the branch point.
    pub fn now(&self) -> u64 {
        self.frozen.metrics().virtual_time
    }
}

#[cfg(test)]
mod tests {
    use sba_net::{Outbox, Pid};

    use crate::{schedulers, Process, SchedLayer, Simulation};

    /// A process with internal randomness-free state whose transcript
    /// depends on delivery order: each delivery appends to a rolling fold.
    #[derive(Clone)]
    struct Folder {
        me: Pid,
        n: usize,
        fold: u64,
        sends_left: u64,
    }
    impl Process<u64> for Folder {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for p in Pid::all(self.n) {
                if p != self.me {
                    out.send(p, u64::from(self.me.index()));
                }
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            self.fold = self
                .fold
                .rotate_left(7)
                .wrapping_add(msg.wrapping_mul(31).wrapping_add(u64::from(from.index())));
            if self.sends_left > 0 {
                self.sends_left -= 1;
                out.send(from, self.fold);
            }
        }
    }

    fn folders(n: usize) -> Vec<Folder> {
        (1..=n)
            .map(|i| Folder {
                me: Pid::new(i as u32),
                n,
                fold: 0,
                sends_left: 20,
            })
            .collect()
    }

    #[test]
    fn resume_reproduces_the_original_tail() {
        let mut sim = Simulation::new(folders(4), schedulers::uniform(30), 11);
        sim.enable_digest();
        sim.run_to_quiescence(40);
        let ck = sim.checkpoint();
        sim.run_to_quiescence(100_000);
        let mut resumed = ck.resume();
        resumed.run_to_quiescence(100_000);
        assert_eq!(sim.digest(), resumed.digest());
        assert_eq!(sim.metrics(), resumed.metrics());
        let a: Vec<u64> = sim.processes().map(|p| p.fold).collect();
        let b: Vec<u64> = resumed.processes().map(|p| p.fold).collect();
        assert_eq!(a, b, "process state must match, not just metrics");
    }

    #[test]
    fn fork_diverges_but_shares_the_prefix() {
        let mut sim = Simulation::new(folders(4), schedulers::uniform(30), 11);
        sim.enable_digest();
        sim.run_to_quiescence(40);
        let ck = sim.checkpoint();
        let prefix_digest = sim.digest();
        sim.run_to_quiescence(100_000);

        let mut fork = ck.fork(999);
        assert_eq!(fork.digest(), prefix_digest, "branch point state shared");
        fork.run_to_quiescence(100_000);
        // Both branches complete; the schedules (almost surely) differ.
        assert_ne!(sim.digest(), fork.digest(), "divergent tail");
        // A fork of the fork's own branch point is reproducible too.
        let mut fork2 = ck.fork(999);
        fork2.run_to_quiescence(100_000);
        assert_eq!(fork.digest(), fork2.digest(), "same fork seed, same run");
    }

    #[test]
    fn checkpoint_is_reusable_and_independent() {
        let mut sim = Simulation::new(folders(3), SchedLayer::Skewed { max_delay: 9 }.build(), 5);
        sim.enable_digest();
        sim.run_to_quiescence(10);
        let ck = sim.checkpoint();
        // Consuming one resume doesn't disturb the next.
        let mut r1 = ck.resume();
        r1.run_to_quiescence(100_000);
        let mut r2 = ck.resume();
        r2.run_to_quiescence(100_000);
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(ck.events(), 10);
    }
}
