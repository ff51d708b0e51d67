//! Wire messages for the agreement layer.
//!
//! The vote layer shares the **flat packed wire format** with the coin
//! and the SVSS stack ([`sba_net::WireMsg`]): a report, candidate, vote
//! or decide broadcast is one more [`sba_net::WireKind`] family, its
//! `(instance, round)` the session tag, its phase a p-byte and its value
//! the aux byte. So `AbaMsg`, `CoinMsg` and `SvssMsg` are one type: the
//! coin's traffic joins the agreement layer's send list unwrapped, and
//! one decoder (with its canonical-form checks) covers every layer.

pub use sba_net::{VoteSlot, VoteValue};

/// The agreement layer's wire message: the shared flat format (vote-slot
/// reliable broadcasts plus all coin and SVSS traffic).
pub type AbaMsg<F> = sba_net::WireMsg<F>;

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;
    use sba_net::{
        decode_frame, encode_frame, frame_len, CoinSlot, Kinded, Pid, ProcessSet, RbStep, Reader,
        Unpacked, Wire,
    };

    /// A vote of `value` in `slot` survives encode → decode → unpack.
    fn round_trip(slot: VoteSlot, value: VoteValue) {
        let msg: AbaMsg<Gf61> = AbaMsg::vote_rb(slot, Pid::new(3), RbStep::Echo, value);
        let bytes = msg.encoded();
        assert_eq!(msg.encoded_len(), bytes.len(), "encoded_len mismatch");
        let mut r = Reader::new(&bytes);
        let back = AbaMsg::<Gf61>::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(matches!(
            back.unpack(),
            Unpacked::VoteRb { slot: s, value: v, .. } if s == slot && v == value
        ));
    }

    #[test]
    fn slots_round_trip() {
        let bit = VoteValue::Bit(true);
        round_trip(
            VoteSlot::Report {
                instance: 1,
                round: 2,
            },
            bit,
        );
        round_trip(
            VoteSlot::Candidate {
                instance: 0,
                round: u32::MAX,
            },
            bit,
        );
        round_trip(
            VoteSlot::Vote {
                instance: u32::MAX,
                round: 3,
            },
            VoteValue::MaybeBit(Some(true)),
        );
        round_trip(VoteSlot::Decide { instance: 4 }, bit);
    }

    #[test]
    fn values_round_trip() {
        let report = VoteSlot::Report {
            instance: 9,
            round: 1,
        };
        let vote = VoteSlot::Vote {
            instance: 9,
            round: 1,
        };
        for b in [false, true] {
            round_trip(report, VoteValue::Bit(b));
            round_trip(vote, VoteValue::MaybeBit(Some(b)));
        }
        round_trip(vote, VoteValue::MaybeBit(None));
    }

    #[test]
    fn messages_round_trip_and_kinds() {
        let vote = VoteSlot::Vote {
            instance: 1,
            round: 7,
        };
        let parts = (vote, Pid::new(2), RbStep::Ready, VoteValue::MaybeBit(None));
        let msg: AbaMsg<Gf61> = AbaMsg::vote_rb(parts.0, parts.1, parts.2, parts.3);
        assert_eq!(msg.kind(), "aba/vote");
        let bytes = msg.encoded();
        // kind + tag + phase + value + origin.
        assert_eq!((msg.encoded_len(), bytes.len()), (12, 12));
        assert_eq!(AbaMsg::decode(&mut Reader::new(&bytes)).unwrap(), msg);
        let Unpacked::VoteRb {
            slot,
            origin,
            step,
            value,
        } = msg.unpack()
        else {
            panic!("vote kinds unpack as VoteRb");
        };
        assert_eq!((slot, origin, step, value), parts);
    }

    #[test]
    fn mixed_frames_round_trip_at_the_charged_length() {
        let coin = |origin: u32| -> AbaMsg<Gf61> {
            let mut set = ProcessSet::new();
            set.insert(Pid::new(origin));
            AbaMsg::coin_rb(CoinSlot::Support(5), Pid::new(origin), RbStep::Ready, set)
        };
        let vote = |origin: u32| -> AbaMsg<Gf61> {
            let slot = VoteSlot::Report {
                instance: 0,
                round: 3,
            };
            AbaMsg::vote_rb(slot, Pid::new(origin), RbStep::Ready, VoteValue::Bit(true))
        };
        // Adjacent coins elide against each other, adjacent votes too.
        let batch = vec![coin(1), coin(2), vote(1), vote(2), coin(2), vote(1)];

        let mut buf = Vec::new();
        encode_frame(&batch, &mut buf);
        assert_eq!(buf.len(), frame_len(&batch), "frame_len mismatch");
        let mut prev: Option<&AbaMsg<Gf61>> = None;
        let charged: usize = batch
            .iter()
            .map(|m| {
                let len = m.framed_wire_len(prev);
                prev = Some(m);
                len
            })
            .sum();
        assert_eq!(buf.len(), 4 + charged, "member lengths disagree");
        // A vote after a vote of the same round spells only the prelude,
        // kind, value and origin bytes.
        assert_eq!(vote(2).framed_wire_len(Some(&vote(1))), 4);

        let mut r = Reader::new(&buf);
        let got: Vec<AbaMsg<Gf61>> = decode_frame(&mut r).unwrap();
        assert_eq!(got, batch);
        assert_eq!(r.remaining(), 0);
    }
}
