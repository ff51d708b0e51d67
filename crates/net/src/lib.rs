#![warn(missing_docs)]

//! Identifiers, session tags, wire codec, and sans-io plumbing shared by
//! every protocol crate in the `sba` workspace.
//!
//! Protocols in this workspace are written as *sans-io state machines*:
//! they never touch sockets or clocks. They consume delivered messages and
//! push outgoing [`Envelope`]s into an [`Outbox`]; a runtime (the
//! deterministic simulator in `sba-sim`, or the threaded runtime) moves
//! envelopes between processes.
//!
//! The hand-rolled [`Wire`] codec exists so that the complexity experiments
//! can report *real* wire bytes: every message type in the workspace
//! encodes to a canonical byte string, and the simulator charges its length.
//!
//! # Examples
//!
//! ```
//! use sba_net::{Outbox, Pid};
//!
//! let mut out = Outbox::new(Pid::new(1));
//! out.send(Pid::new(2), 42u64);
//! out.broadcast(Pid::all(3), 7u64);
//! assert_eq!(out.drain().len(), 4);
//! ```

mod codec;
mod envelope;
mod fasthash;
mod interner;
mod kind;
mod pid;
mod session;
pub mod tcp;
mod wire;

pub use codec::{get_field, put_field, CodecError, FramedWire, Reader, Wire};
pub use envelope::{Envelope, Outbox};
pub use fasthash::{FastMap, FastSet, FxHasher};
pub use interner::{Interner, Slot};
pub use kind::Kinded;
pub use pid::{Pid, ProcessSet, ProcessSetIter, MAX_N};
pub use session::{MwId, SessionKey, SvssId};
pub use wire::{
    decode_frame, encode_frame, frame_len, CoinSlot, GsetsBody, MwDealBody, RbStep, RbVector,
    RowsBody, SlotKind, SlotView, SvssPriv, SvssRbValue, SvssSlot, Unpacked, VoteSlot, VoteValue,
    WireKind, WireMsg, WIRE_KIND_COUNT,
};
