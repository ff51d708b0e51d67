//! Canned Byzantine behaviours and adversarial schedulers for the full
//! stack, used by the fault-injection tests and the experiment harness.

use sba_aba::{AbaMsg, VoteSlot, VoteValue};
use sba_broadcast::{MuxMsg, RbMsg, WrbMsg};
use sba_field::{Field, Gf61};
use sba_net::{Envelope, Pid};
use sba_sim::{FnScheduler, Scheduler, Tamper};
use sba_svss::forge_recon_points;

use crate::cluster::Msg;

/// Tamper: shift every SVSS reconstruction point this process originates
/// by `delta`, whether it leaves as a scalar init or as a member of a
/// vector init.
pub fn lying_share_tamper(
    delta: u64,
) -> impl FnMut(Pid, &Msg) -> Tamper<Msg> + Send + Clone + 'static {
    move |_to, msg| {
        let AbaMsg::Coin(coin) = msg else {
            return Tamper::Keep;
        };
        forge_recon_points(coin, |_| Some(Gf61::from_u64(delta)))
            .map_or(Tamper::Keep, |m| Tamper::Replace(vec![AbaMsg::Coin(m)]))
    }
}

/// Tamper: flip every vote-layer bit this process originates.
pub fn vote_flip_tamper() -> impl FnMut(Pid, &Msg) -> Tamper<Msg> + Send + Clone + 'static {
    move |_to, msg| {
        let AbaMsg::Vote(m) = msg else {
            return Tamper::Keep;
        };
        let RbMsg::Wrb(WrbMsg::Init(value)) = &m.inner else {
            return Tamper::Keep;
        };
        let flipped = match value {
            VoteValue::Bit(b) => VoteValue::Bit(!b),
            VoteValue::MaybeBit(Some(b)) => VoteValue::MaybeBit(Some(!b)),
            VoteValue::MaybeBit(None) => VoteValue::MaybeBit(Some(true)),
        };
        Tamper::Replace(vec![AbaMsg::Vote(MuxMsg {
            tag: m.tag,
            origin: m.origin,
            inner: RbMsg::Wrb(WrbMsg::Init(flipped)),
        })])
    }
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
        let AbaMsg::Vote(m) = msg else {
            return Tamper::Keep;
        };
        let RbMsg::Wrb(WrbMsg::Init(value)) = &m.inner else {
            return Tamper::Keep;
        };
        if to.index() % 2 == 1 {
            return Tamper::Keep; // odd recipients hear the honest value
        }
        let flipped = match value {
            VoteValue::Bit(b) => VoteValue::Bit(!b),
            VoteValue::MaybeBit(Some(b)) => VoteValue::MaybeBit(Some(!b)),
            VoteValue::MaybeBit(None) => VoteValue::MaybeBit(Some(true)),
        };
        Tamper::Replace(vec![AbaMsg::Vote(MuxMsg {
            tag: m.tag,
            origin: m.origin,
            inner: RbMsg::Wrb(WrbMsg::Init(flipped)),
        })])
    }
}

/// Scheduler: delays the vote-layer traffic of `victims` by `factor`
/// while coin traffic flows freely — the "reveal the coin early, then let
/// the slow votes land" schedule of a rushing adversary, which voids a
/// round's progress guarantee without violating safety.
pub fn coin_steer_scheduler(victims: Vec<Pid>, factor: u64) -> Box<dyn Scheduler<Msg>> {
    assert!(factor > 0, "factor must be positive");
    Box::new(FnScheduler::new(
        move |env: &Envelope<Msg>, now: u64, rng: &mut rand::rngs::StdRng| {
            use rand::Rng;
            let base = now + rng.gen_range(1..=4u64);
            let is_vote = matches!(
                &env.msg,
                AbaMsg::Vote(MuxMsg {
                    tag: VoteSlot::Vote { .. } | VoteSlot::Candidate { .. },
                    ..
                })
            );
            if is_vote && victims.contains(&env.from) {
                base + factor
            } else {
                base
            }
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_flip_flips_init_only() {
        let mut tamper = vote_flip_tamper();
        let init: Msg = AbaMsg::Vote(MuxMsg {
            tag: VoteSlot::Report {
                instance: 0,
                round: 1,
            },
            origin: Pid::new(1),
            inner: RbMsg::Wrb(WrbMsg::Init(VoteValue::Bit(true))),
        });
        match tamper(Pid::new(2), &init) {
            Tamper::Replace(v) => {
                assert!(matches!(
                    &v[0],
                    AbaMsg::Vote(MuxMsg {
                        inner: RbMsg::Wrb(WrbMsg::Init(VoteValue::Bit(false))),
                        ..
                    })
                ));
            }
            _ => panic!("Init must be flipped"),
        }
        // Relays (echo/ready) stay honest: RB correctness still holds.
        let echo: Msg = AbaMsg::Vote(MuxMsg {
            tag: VoteSlot::Report {
                instance: 0,
                round: 1,
            },
            origin: Pid::new(3),
            inner: RbMsg::Wrb(WrbMsg::Echo(VoteValue::Bit(true))),
        });
        assert!(matches!(tamper(Pid::new(2), &echo), Tamper::Keep));
    }

    #[test]
    fn equivocation_differs_per_recipient() {
        let mut tamper = equivocating_vote_tamper();
        let init: Msg = AbaMsg::Vote(MuxMsg {
            tag: VoteSlot::Report {
                instance: 0,
                round: 1,
            },
            origin: Pid::new(1),
            inner: RbMsg::Wrb(WrbMsg::Init(VoteValue::Bit(true))),
        });
        // Even recipients get the flipped bit...
        match tamper(Pid::new(2), &init) {
            Tamper::Replace(v) => assert!(matches!(
                &v[0],
                AbaMsg::Vote(MuxMsg {
                    inner: RbMsg::Wrb(WrbMsg::Init(VoteValue::Bit(false))),
                    ..
                })
            )),
            _ => panic!("even recipient must see the flipped value"),
        }
        // ...odd recipients the honest one: two versions of one Init.
        assert!(matches!(tamper(Pid::new(3), &init), Tamper::Keep));
        // Relays stay honest either way.
        let echo: Msg = AbaMsg::Vote(MuxMsg {
            tag: VoteSlot::Report {
                instance: 0,
                round: 1,
            },
            origin: Pid::new(3),
            inner: RbMsg::Wrb(WrbMsg::Echo(VoteValue::Bit(true))),
        });
        assert!(matches!(tamper(Pid::new(2), &echo), Tamper::Keep));
    }
}
