#![warn(missing_docs)]

//! Shunning verifiable secret sharing — the core primitive of Abraham,
//! Dolev & Halpern, *"An Almost-Surely Terminating Polynomial Protocol for
//! Asynchronous Byzantine Agreement with Optimal Resilience"* (PODC 2008).
//!
//! Standard asynchronous VSS with optimal resilience (`n > 3t`) either
//! fails to terminate with some probability (Canetti–Rabin) or costs
//! exponential time (Bracha). *Shunning* VSS weakens the contract just
//! enough to dodge both: every invocation either behaves like VSS
//! (validity + binding), **or** at least one nonfaulty process starts
//! permanently ignoring at least one *new* faulty process. Since there are
//! at most `t(n − t)` (nonfaulty, faulty) pairs, the adversary can break
//! invocations at most `O(n²)` times over an entire execution — which is
//! what makes the agreement protocol built on top almost-surely
//! terminating *and* polynomial.
//!
//! This crate implements the full stack of the paper's sections 2–4:
//!
//! - [`Dmm`] — the detection & message management filter (§3.3);
//! - [`Mw`] — moderated weak shunning VSS, share `S′` + reconstruct `R′` (§3.2);
//! - [`Svss`] — shunning VSS over a bivariate polynomial (§4);
//! - [`SvssEngine`] — everything wired together per process, on top of
//!   the reliable-broadcast mux from `sba-broadcast`.
//!
//! # Examples
//!
//! The engine is sans-io: a command or a delivered message goes in, the
//! sends it causes come out as `(recipient, message)` pairs, and the
//! caller moves them. Here the dealer's `share` step hands every
//! process, itself included, its private rows:
//!
//! ```
//! use sba_broadcast::Params;
//! use sba_field::{Field, Gf61};
//! use sba_net::{Pid, SvssId, WireKind};
//! use sba_svss::SvssEngine;
//!
//! let params = Params::new(4, 1).unwrap();
//! let sid = SvssId::new(1, Pid::new(2));
//! let mut dealer = SvssEngine::<Gf61>::new(Pid::new(2), params, 42);
//! let mut sends = Vec::new();
//! dealer.share(sid, Gf61::from_u64(123), &mut sends);
//! for p in Pid::all(4) {
//!     assert!(sends.iter().any(|(to, m)| *to == p && m.wire_kind() == WireKind::Rows));
//! }
//! assert!(!dealer.share_completed(sid));
//! ```
//!
//! `examples/secret_sharing.rs` runs whole shares and reconstructions
//! among four processes on the deterministic simulator, through the
//! `sba` facade's multi-process harness (`sba::harness`).

mod dmm;
mod engine;
mod messages;
mod mw;
mod rb;
mod svss;

pub use dmm::{Dmm, SessionKey, Verdict};
pub use engine::{SvssEngine, SvssEvent};
pub use messages::{
    forge_recon_points, GsetsBody, MwDealBody, Reconstructed, RowsBody, SvssMsg, SvssPriv,
    SvssRbValue, SvssSlot,
};
pub use mw::{Mw, MwIn, MwOut};
pub use svss::{pair_mw_ids, Svss, SvssCtx, SvssOut};
