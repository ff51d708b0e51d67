#![warn(missing_docs)]

//! # sba — shunning-VSS asynchronous Byzantine agreement
//!
//! A complete implementation of **Abraham, Dolev & Halpern, "An
//! Almost-Surely Terminating Polynomial Protocol for Asynchronous
//! Byzantine Agreement with Optimal Resilience" (PODC 2008)** — the first
//! protocol to combine, for `n > 3t`:
//!
//! 1. **optimal resilience** — up to `t < n/3` Byzantine processes;
//! 2. **almost-sure termination** — nonterminating executions have
//!    probability zero;
//! 3. **polynomial efficiency** — expected time, messages, and bits all
//!    polynomial in `n`.
//!
//! The stack, bottom-up (each layer is its own crate, re-exported here):
//!
//! | layer | crate | paper section |
//! |-------|-------|---------------|
//! | finite fields & polynomials | [`field`] | §3 prerequisites |
//! | reliable broadcast (WRB + Bracha) | [`broadcast`] | Appendix A |
//! | DMM + MW-SVSS + SVSS (*the contribution*) | [`svss`] | §2–§4 |
//! | shunning common coin | [`coin`] | §5 / Canetti Fig. 5-9 |
//! | agreement rounds | [`aba`] | §5 / Canetti Fig. 5-11 |
//! | deterministic simulator & adversaries | [`sim`] | the async model |
//!
//! ## Quickstart
//!
//! Four processes agree on a bit despite split inputs:
//!
//! ```
//! use sba::{Cluster, ClusterConfig};
//!
//! let config = ClusterConfig::new(4, 1).seed(7);
//! let mut cluster = Cluster::new(config, &[Some(true), Some(false), Some(true), Some(false)]);
//! let report = cluster.run(10_000_000);
//! assert!(report.all_decided());
//! assert!(report.agreement());
//! println!("decided {:?} in {} rounds, {} messages",
//!          report.decisions[0], report.max_round, report.messages);
//! ```
//!
//! See `examples/` for fault injection, direct secret sharing, coin
//! statistics, and a replicated-log scenario.

pub use sba_aba as aba;
pub use sba_broadcast as broadcast;
pub use sba_coin as coin;
pub use sba_field as field;
pub use sba_net as net;
pub use sba_sim as sim;

/// Shunning VSS: the [`sba_svss`] crate, plus the multi-process
/// [`harness`] its runs use.
pub mod svss {
    pub use crate::harness;
    pub use sba_svss::*;
}

pub use sba_aba::{AbaConfig, AbaEvent, AbaMsg, AbaNode, AbaProcess, CoinMode};
pub use sba_broadcast::Params;
pub use sba_coin::oracle::OracleCoin;
pub use sba_field::{Field, Gf101, Gf61};
pub use sba_net::{Pid, ProcessSet, SvssId};
pub use sba_svss::{Reconstructed, SvssEngine, SvssEvent};

mod adversary;
mod cluster;
pub mod harness;
pub mod monitor;
pub mod scenario;
pub mod threaded;

pub use cluster::{Cluster, ClusterConfig, ClusterProcess, ClusterReport};
pub use monitor::{InvariantMonitor, MonitorReport, MonitorViolation};
pub use scenario::{Action, PlanCoin, PlanEvent, Role, ScenarioPlan, SchedLayer, Trigger, Zoo};
pub use threaded::{run_plan, RuntimeKind, RuntimeReport, WatchedProcess};
