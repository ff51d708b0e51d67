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
//! Sharing and reconstructing among `n = 4` processes on the deterministic
//! simulator (see `examples/secret_sharing.rs` for the full program):
//!
//! ```
//! use sba_broadcast::Params;
//! use sba_field::{Field, Gf61};
//! use sba_net::{Pid, SvssId};
//! use sba_svss::harness::SvssNet;
//!
//! let params = Params::new(4, 1).unwrap();
//! let mut net = SvssNet::<Gf61>::new(params, 42);
//! let sid = SvssId::new(1, Pid::new(2));
//! net.share(sid, Gf61::from_u64(123));
//! net.run();
//! assert!(net.all_shares_completed(sid));
//! net.reconstruct_all(sid);
//! net.run();
//! for p in Pid::all(4) {
//!     let out = net.engine(p).output(sid).unwrap();
//!     assert_eq!(out.value(), Some(Gf61::from_u64(123)));
//! }
//! ```

mod dmm;
mod engine;
pub mod harness;
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
