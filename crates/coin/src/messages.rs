//! Wire messages and session-id conventions for the common coin.
//!
//! Since PR 4 the coin layer shares the **flat packed wire format** with
//! the SVSS stack ([`sba_net::WireMsg`]): a coin-layer message is either
//! nested SVSS traffic or a coin-slot reliable broadcast, and both live
//! in the same 32-byte `{key, body}` struct under one flat
//! [`sba_net::WireKind`] discriminant — no `CoinMsg::Svss(SvssMsg::…)`
//! wrapper nesting, no per-layer heap node, and wrapping SVSS traffic
//! into the coin layer is the identity function.

use sba_net::{Pid, SvssId};

pub use sba_net::CoinSlot;

/// The coin layer's wire message: the shared flat format (nested SVSS
/// traffic plus the coin's own attach/support reliable broadcasts).
pub type CoinMsg<F> = sba_svss::SvssMsg<F>;

/// Builds the SVSS session id of "dealer `dealer`'s secret attached to
/// `target` in coin session `coin_tag`".
///
/// # Panics
///
/// Panics if `coin_tag ≥ 2^56` (the low 8 bits encode the target, so the
/// tag must fit in the remaining 56).
pub fn coin_svss_id(coin_tag: u64, dealer: Pid, target: Pid) -> SvssId {
    assert!(coin_tag < (1 << 56), "coin tag too large");
    assert!(target.index() < 256, "coin supports up to 255 processes");
    SvssId::new((coin_tag << 8) | u64::from(target.index()), dealer)
}

/// Inverse of [`coin_svss_id`]: `(coin_tag, dealer, target)`.
pub fn decode_coin_svss_id(id: SvssId) -> (u64, Pid, Pid) {
    let target = (id.tag() & 0xff) as u32;
    (id.tag() >> 8, id.dealer(), Pid::new(target.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;
    use sba_net::{Kinded, ProcessSet, RbStep, Reader, Unpacked, Wire};

    #[test]
    fn svss_id_round_trip() {
        let id = coin_svss_id(77, Pid::new(3), Pid::new(9));
        let (tag, dealer, target) = decode_coin_svss_id(id);
        assert_eq!((tag, dealer, target), (77, Pid::new(3), Pid::new(9)));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_tag_rejected() {
        let _ = coin_svss_id(1 << 56, Pid::new(1), Pid::new(1));
    }

    #[test]
    fn wire_round_trips() {
        let all: ProcessSet = Pid::all(3).collect();
        let msg: CoinMsg<Gf61> =
            CoinMsg::coin_rb(CoinSlot::Support(9), Pid::new(2), RbStep::Ready, all);
        let bytes = msg.encoded();
        assert_eq!(msg.encoded_len(), bytes.len());
        assert_eq!(CoinMsg::decode(&mut Reader::new(&bytes)).unwrap(), msg);
        assert_eq!(msg.kind(), "coin/support");
        let Unpacked::CoinRb {
            slot,
            origin,
            step,
            set,
        } = msg.unpack()
        else {
            panic!("coin RB unpacks as CoinRb");
        };
        assert_eq!(
            (slot, origin, step, set),
            (CoinSlot::Support(9), Pid::new(2), RbStep::Ready, all)
        );
    }

    #[test]
    fn coin_slot_accessors() {
        assert_eq!(CoinSlot::Attach(5).coin_tag(), 5);
        assert_eq!(CoinSlot::Support(7).coin_tag(), 7);
    }
}
