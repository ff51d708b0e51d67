#![warn(missing_docs)]

//! Deterministic asynchronous-network simulator with pluggable adversaries.
//!
//! The paper's model is the classic asynchronous one: private channels,
//! unbounded but finite message delays chosen adversarially, up to `t`
//! Byzantine processes. This crate realizes that model as a seeded
//! discrete-event simulation:
//!
//! - every process is a sans-io [`Process`] state machine;
//! - every sent envelope is handed to a [`Scheduler`] (the adversary's
//!   scheduling power), which assigns it a finite virtual delivery time;
//!   the stock strategies are the rows of [`SchedLayer`], each scheduled
//!   straight from its row by [`SchedLayer::stack`]
//!   ([`schedulers::uniform`] is the benign one);
//! - Byzantine behaviour is expressed by corrupted [`Process`]es (the
//!   adversary's corruption power): the protocol's fault models (silent,
//!   crash, crash-recover, lying, equivocating) are `sba::Role` rows, and
//!   an `sba::harness` node's own rewrite makes it lie in SVSS and coin
//!   runs;
//! - the run is a pure function of the seed, so every experiment is
//!   replayable.
//!
//! A thread-based runtime ([`threaded`]) runs the same state machines over
//! real channels as a realism check (experiment E10).
//!
//! # Examples
//!
//! ```
//! use sba_net::{Outbox, Pid};
//! use sba_sim::{schedulers, Process, Simulation};
//!
//! /// Sends 1 to p1, then counts up on each echo until 10.
//! struct Echo {
//!     sent: bool,
//! }
//! impl Process<u64> for Echo {
//!     fn on_start(&mut self, out: &mut Outbox<u64>) {
//!         out.send(Pid::new(1), 1);
//!     }
//!     fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
//!         if !self.sent && msg < 10 {
//!             self.sent = true;
//!             out.send(from, msg + 1);
//!         }
//!     }
//! }
//!
//! let procs: Vec<Echo> = (0..2).map(|_| Echo { sent: false }).collect();
//! let mut sim = Simulation::new(procs, schedulers::uniform(8), 42);
//! let outcome = sim.run_to_quiescence(10_000);
//! assert!(outcome.quiescent);
//! // p2's start message crossed the network; p1's own was a self-delivery.
//! assert_eq!(sim.metrics().messages_sent, 1);
//! assert_eq!(sim.metrics().self_deliveries, 2);
//! ```

mod adversary;
mod metrics;
mod observer;
mod process;
mod simulation;
pub mod socket;
pub mod threaded;

pub use adversary::{schedulers, LinkStats, SchedLayer, Scheduler};
pub use metrics::Metrics;
pub use observer::{Observer, ObserverStats};
pub use process::{Process, SimMsg};
pub use simulation::{queue_slot_sizes, RunOutcome, Simulation, TraceEntry};
