//! What the Byzantine [`Role`]s send: each rewrites a corrupted
//! process's outgoing messages one envelope at a time, and
//! [`ClusterProcess`](crate::ClusterProcess) is its only caller.

use sba_aba::VoteValue;
use sba_field::{Field, Gf61};
use sba_net::{Pid, RbStep, Unpacked, WireKind};
use sba_svss::forge_recon_points;

use crate::cluster::Msg;
use crate::Role;

/// What `role` sends to `to` in place of the honest `msg`; `None` sends
/// `msg` unchanged.
pub(crate) fn rewrite(role: &Role, to: Pid, msg: &Msg) -> Option<Msg> {
    match *role {
        // Shift every SVSS reconstruction point this process originates
        // by `delta`, whether it leaves as a scalar init or as a member
        // of a vector init.
        Role::LyingShares { delta } => forge_recon_points(msg, |_| Some(Gf61::from_u64(delta))),
        // Lie consistently: every recipient hears the flipped bit.
        Role::FlippedVotes => flip_vote_init(msg),
        // Equivocate: odd-indexed recipients hear the honest bit,
        // even-indexed ones its negation. An honest RB/WRB quorum
        // accepts at most one of the two versions per slot, so honest
        // processes still agree (the equivocator merely fails to get
        // some slots accepted). It draws no shun: Bracha RB refuses
        // the second version without one, and only the DMM shuns.
        Role::Equivocating if to.index().is_multiple_of(2) => flip_vote_init(msg),
        Role::Equivocating
        | Role::Honest
        | Role::Silent
        | Role::Crash { .. }
        | Role::CrashRecover { .. } => None,
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
        let flip = |msg: &Msg| rewrite(&Role::FlippedVotes, Pid::new(2), msg);
        let init = report(1, RbStep::Init, true);
        assert_eq!(flip(&init), Some(report(1, RbStep::Init, false)));
        // A ⊥ vote becomes a 1.
        let slot = VoteSlot::Vote {
            instance: 0,
            round: 1,
        };
        let vote = |v| Msg::vote_rb(slot, Pid::new(1), RbStep::Init, VoteValue::MaybeBit(v));
        assert_eq!(flip(&vote(None)), Some(vote(Some(true))));
        // Relays (echo/ready) stay honest: RB correctness still holds.
        assert_eq!(flip(&report(3, RbStep::Echo, true)), None);
    }

    #[test]
    fn equivocation_differs_per_recipient() {
        let to = |i: u32, msg: &Msg| rewrite(&Role::Equivocating, Pid::new(i), msg);
        let init = report(1, RbStep::Init, true);
        // Even recipients get the flipped bit...
        assert_eq!(to(2, &init), Some(report(1, RbStep::Init, false)));
        // ...odd recipients the honest one: two versions of one Init.
        assert_eq!(to(3, &init), None);
        // Relays stay honest either way.
        assert_eq!(to(2, &report(3, RbStep::Echo, true)), None);
    }
}
