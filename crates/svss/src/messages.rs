//! Wire messages for MW-SVSS and SVSS.
//!
//! Two transport classes, mirroring the paper:
//!
//! - **private** point-to-point messages ([`SvssPriv`]): share values and
//!   polynomials that must stay secret (hiding depends on it);
//! - **reliable broadcasts**: public commitments (`ack`, `L_j`, `M`, `OK`,
//!   reconstruct points, `G` sets), carried as [`SvssRbValue`] payloads in
//!   [`SvssSlot`] slots through the `sba-broadcast` mux.
//!
//! The on-wire and in-queue representation is the **flat packed**
//! [`sba_net::WireMsg`] (one [`sba_net::WireKind`] discriminant, 32 bytes
//! in memory), the stack's only codec — see `sba_net::wire` for the
//! format and its kind table. Nothing converts to or from it here: the
//! RB layer hands the mux a broadcast's unpacked parts as a flat
//! `MuxMsg` and passes the constructors [`sba_net::WireMsg::rb`] and
//! [`sba_net::WireMsg::rb_vector`] as its `wrap` hooks, and [`SvssPriv`]
//! is what a private message unpacks to. This module re-exports the
//! shared types under their historical names.

use sba_field::Field;
use sba_net::{Pid, SlotView};

pub use sba_net::{GsetsBody, MwDealBody, RowsBody, SvssPriv, SvssRbValue, SvssSlot};

/// The complete wire message type of the SVSS stack: the flat packed
/// form. Construct with [`sba_net::WireMsg::private`] /
/// [`sba_net::WireMsg::rb`]; decompose with [`sba_net::WireMsg::unpack`].
pub type SvssMsg<F> = sba_net::WireMsg<F>;

/// Reconstructed output of a (MW-)SVSS session: a field value or `⊥`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Reconstructed<F> {
    /// A proper field value.
    Value(F),
    /// The default value `⊥` (weak binding's escape hatch).
    Bottom,
}

impl<F: Field> Reconstructed<F> {
    /// The value, or `None` for `⊥`.
    pub fn value(self) -> Option<F> {
        match self {
            Reconstructed::Value(v) => Some(v),
            Reconstructed::Bottom => None,
        }
    }
}

/// The lying-share attack on one outgoing message: every reconstruct
/// point the message originates — a scalar init, or members of a vector
/// init — moved by `shift(poly)` (`None` leaves that point honest).
/// `None` if the message carries no point that `shift` moved.
pub fn forge_recon_points<F: Field>(
    msg: &SvssMsg<F>,
    mut shift: impl FnMut(Pid) -> Option<F>,
) -> Option<SvssMsg<F>> {
    msg.rewrite_inits(|slot, value| match (slot.view(), value) {
        (SlotView::MwRecon(_, poly), SvssRbValue::Value(v)) => {
            Some(SvssRbValue::Value(*v + shift(poly)?))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_broadcast::MuxMsg;
    use sba_field::Gf61;
    use sba_net::{MwId, Pid, RbStep, SessionKey, SvssId, Unpacked, Wire};

    fn mw_id() -> MwId {
        MwId::nested(
            SvssId::new(9, Pid::new(1)),
            Pid::new(2),
            Pid::new(3),
            Pid::new(3),
            Pid::new(2),
        )
    }

    #[test]
    fn mux_round_trips_through_the_flat_form() {
        let f = |v: u64| Gf61::from_u64(v);
        let m = MuxMsg::new(
            SvssSlot::mw_recon(mw_id(), Pid::new(4)),
            Pid::new(2),
            RbStep::Init,
            SvssRbValue::Value(f(7)),
        );
        let flat = SvssMsg::rb(m.tag, m.origin, m.step, m.value.clone());
        let Unpacked::Rb {
            slot,
            origin,
            step,
            value,
        } = flat.unpack()
        else {
            panic!("RB kinds unpack as RB");
        };
        assert_eq!(MuxMsg::new(slot, origin, step, value), m);
    }

    #[test]
    fn flat_form_encodes_canonically() {
        let msg: SvssMsg<Gf61> = SvssMsg::private(SvssPriv::MwPoint {
            mw: mw_id(),
            value: Gf61::from_u64(10),
        });
        let bytes = msg.encoded();
        assert_eq!(msg.encoded_len(), bytes.len());
        let mut r = sba_net::Reader::new(&bytes);
        assert_eq!(SvssMsg::<Gf61>::decode(&mut r).unwrap(), msg);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sessions_extracted_for_dmm() {
        let s = SvssId::new(9, Pid::new(1));
        assert_eq!(
            SvssSlot::mw_ack(mw_id()).session_key(),
            SessionKey::Mw(mw_id())
        );
        assert_eq!(SvssSlot::gsets(s).session_key(), SessionKey::Svss(s));
        assert_eq!(
            SvssPriv::MwPoint {
                mw: mw_id(),
                value: Gf61::from_u64(0)
            }
            .session_key(),
            SessionKey::Mw(mw_id())
        );
    }

    #[test]
    fn reconstructed_accessors() {
        assert_eq!(
            Reconstructed::Value(Gf61::from_u64(3)).value(),
            Some(Gf61::from_u64(3))
        );
        assert_eq!(Reconstructed::<Gf61>::Bottom.value(), None);
    }
}
