//! The tampers behind the Byzantine [`Role`](crate::Role)s: each one
//! rewrites a corrupted process's outgoing messages, and
//! [`ClusterProcess::with_role`](crate::ClusterProcess::with_role) is
//! their only caller.

use sba_aba::VoteValue;
use sba_field::{Field, Gf61};
use sba_net::{Pid, RbStep, Unpacked, WireKind};
use sba_sim::Tamper;
use sba_svss::forge_recon_points;

use crate::cluster::Msg;

/// Tamper: shift every SVSS reconstruction point this process originates
/// by `delta`, whether it leaves as a scalar init or as a member of a
/// vector init.
pub fn lying_share_tamper(
    delta: u64,
) -> impl FnMut(Pid, &Msg) -> Tamper<Msg> + Send + Clone + 'static {
    move |_to, msg| {
        forge_recon_points(msg, |_| Some(Gf61::from_u64(delta)))
            .map_or(Tamper::Keep, |m| Tamper::Replace(vec![m]))
    }
}

/// The vote-flip lie on one outgoing message: a vote-layer init with its
/// bit negated (`⊥` becomes 1). Relays (echo/ready) and every other
/// layer's traffic stay honest: `None`.
fn flip_vote_init(msg: &Msg) -> Option<Msg> {
    if msg.wire_kind() != WireKind::VoteInit {
        return None;
    }
    let Unpacked::VoteRb {
        slot,
        origin,
        value,
        ..
    } = msg.clone().unpack()
    else {
        unreachable!("vote RB kinds unpack as VoteRb");
    };
    let flipped = match value {
        VoteValue::Bit(b) => VoteValue::Bit(!b),
        VoteValue::MaybeBit(b) => VoteValue::MaybeBit(Some(!b.unwrap_or(false))),
    };
    Some(Msg::vote_rb(slot, origin, RbStep::Init, flipped))
}

/// Tamper: flip every vote-layer bit this process originates.
pub fn vote_flip_tamper() -> impl FnMut(Pid, &Msg) -> Tamper<Msg> + Send + Clone + 'static {
    move |_to, msg| flip_vote_init(msg).map_or(Tamper::Keep, |m| Tamper::Replace(vec![m]))
}

/// Tamper: equivocate on every vote-layer value this process originates —
/// odd-indexed recipients get the honest bit, even-indexed recipients its
/// negation. Unlike [`vote_flip_tamper`] (which lies *consistently*),
/// this is per-recipient inconsistency: the attack reliable broadcast is
/// designed to block. An honest RB/WRB quorum can accept at most one of
/// the two versions per slot, so honest processes still agree (the
/// equivocator merely fails to get some slots accepted and earns shuns).
pub fn equivocating_vote_tamper() -> impl FnMut(Pid, &Msg) -> Tamper<Msg> + Send + Clone + 'static {
    move |to, msg| {
        if to.index() % 2 == 1 {
            return Tamper::Keep; // odd recipients hear the honest value
        }
        flip_vote_init(msg).map_or(Tamper::Keep, |m| Tamper::Replace(vec![m]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_aba::VoteSlot;

    fn report(origin: u32, step: RbStep, bit: bool) -> Msg {
        let slot = VoteSlot::Report {
            instance: 0,
            round: 1,
        };
        Msg::vote_rb(slot, Pid::new(origin), step, VoteValue::Bit(bit))
    }

    #[test]
    fn vote_flip_flips_init_only() {
        let mut tamper = vote_flip_tamper();
        match tamper(Pid::new(2), &report(1, RbStep::Init, true)) {
            Tamper::Replace(v) => assert_eq!(v, vec![report(1, RbStep::Init, false)]),
            _ => panic!("Init must be flipped"),
        }
        // A ⊥ vote becomes a 1.
        let slot = VoteSlot::Vote {
            instance: 0,
            round: 1,
        };
        let bottom = Msg::vote_rb(slot, Pid::new(1), RbStep::Init, VoteValue::MaybeBit(None));
        match tamper(Pid::new(2), &bottom) {
            Tamper::Replace(v) => assert_eq!(
                v,
                vec![Msg::vote_rb(
                    slot,
                    Pid::new(1),
                    RbStep::Init,
                    VoteValue::MaybeBit(Some(true))
                )]
            ),
            _ => panic!("a ⊥ Init must be flipped"),
        }
        // Relays (echo/ready) stay honest: RB correctness still holds.
        let echo = report(3, RbStep::Echo, true);
        assert!(matches!(tamper(Pid::new(2), &echo), Tamper::Keep));
    }

    #[test]
    fn equivocation_differs_per_recipient() {
        let mut tamper = equivocating_vote_tamper();
        let init = report(1, RbStep::Init, true);
        // Even recipients get the flipped bit...
        match tamper(Pid::new(2), &init) {
            Tamper::Replace(v) => assert_eq!(v, vec![report(1, RbStep::Init, false)]),
            _ => panic!("even recipient must see the flipped value"),
        }
        // ...odd recipients the honest one: two versions of one Init.
        assert!(matches!(tamper(Pid::new(3), &init), Tamper::Keep));
        // Relays stay honest either way.
        let echo = report(3, RbStep::Echo, true);
        assert!(matches!(tamper(Pid::new(2), &echo), Tamper::Keep));
    }
}
