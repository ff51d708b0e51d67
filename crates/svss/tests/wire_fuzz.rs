//! Wire-format fuzzing for the full flat message surface — SVSS, coin
//! and agreement votes: random well-formed messages of **every**
//! `WireKind` round-trip; truncated, foreign-discriminant and
//! mis-shaped inputs are rejected; random bytes never panic the decoder.

use proptest::prelude::*;
use sba_field::{Field, Gf61};
use sba_net::{
    CodecError, CoinSlot, FramedWire, GsetsBody, Kinded, MwDealBody, MwId, Pid, ProcessSet, RbStep,
    RbVector, Reader, RowsBody, SvssId, SvssPriv, SvssRbValue, SvssSlot, VoteSlot, VoteValue, Wire,
    WireKind, WireMsg, WIRE_KIND_COUNT,
};
use sba_svss::SvssMsg;

fn pid() -> impl Strategy<Value = Pid> {
    (1u32..=256).prop_map(Pid::new)
}

fn field_el() -> impl Strategy<Value = Gf61> {
    (0..Gf61::MODULUS).prop_map(Gf61::from_u64)
}

fn svss_id() -> impl Strategy<Value = SvssId> {
    (any::<u64>(), pid()).prop_map(|(tag, dealer)| SvssId::new(tag, dealer))
}

fn mw_id() -> impl Strategy<Value = MwId> {
    (svss_id(), pid(), pid(), pid(), pid())
        .prop_map(|(parent, d, m, r, c)| MwId::nested(parent, d, m, r, c))
}

/// Sets spanning the full `1..=MAX_N` index range, with enough members
/// to exercise both the sparse and the dense arm of the adaptive set
/// encoding (the crossover is at 8 members per spanned bitmask word).
fn pid_set() -> impl Strategy<Value = ProcessSet> {
    proptest::collection::btree_set(1u32..=256, 0..48)
        .prop_map(|s| s.into_iter().map(Pid::new).collect())
}

fn rb_step() -> impl Strategy<Value = RbStep> {
    prop_oneof![Just(RbStep::Init), Just(RbStep::Echo), Just(RbStep::Ready)]
}

fn svss_priv() -> impl Strategy<Value = SvssPriv<Gf61>> {
    prop_oneof![
        (
            mw_id(),
            proptest::collection::vec(field_el(), 0..8),
            proptest::collection::vec(field_el(), 0..4),
            proptest::option::of(proptest::collection::vec(field_el(), 0..4)),
        )
            .prop_map(|(mw, others, monitor_poly, moderator_poly)| {
                SvssPriv::MwDeal {
                    mw,
                    deal: Box::new(MwDealBody {
                        others,
                        monitor_poly,
                        moderator_poly,
                    }),
                }
            }),
        (mw_id(), field_el()).prop_map(|(mw, value)| SvssPriv::MwPoint { mw, value }),
        (mw_id(), field_el()).prop_map(|(mw, value)| SvssPriv::MwMonitorValue { mw, value }),
        (
            svss_id(),
            proptest::collection::vec(field_el(), 0..4),
            proptest::collection::vec(field_el(), 0..4),
        )
            .prop_map(|(session, g, h)| SvssPriv::Rows {
                session,
                rows: Box::new(RowsBody { g, h }),
            }),
    ]
}

/// A slot of every family with a value of the shape the flat format
/// fixes for it.
fn slot_value() -> impl Strategy<Value = (SvssSlot, SvssRbValue<Gf61>)> {
    prop_oneof![
        mw_id().prop_map(|m| (SvssSlot::mw_ack(m), SvssRbValue::Unit)),
        mw_id().prop_map(|m| (SvssSlot::mw_ok(m), SvssRbValue::Unit)),
        (mw_id(), pid_set()).prop_map(|(m, set)| (SvssSlot::mw_l(m), SvssRbValue::Set(set))),
        (mw_id(), pid_set()).prop_map(|(m, set)| (SvssSlot::mw_m(m), SvssRbValue::Set(set))),
        (mw_id(), pid(), field_el())
            .prop_map(|(m, poly, v)| (SvssSlot::mw_recon(m, poly), SvssRbValue::Value(v))),
        (
            svss_id(),
            pid_set(),
            // The member table encodes as an adaptive keyset plus one
            // set per key, so keys must be unique and ascending — the
            // invariant the engine's G-set iteration guarantees.
            (
                proptest::collection::btree_set(1u32..=256, 0..4),
                proptest::collection::vec(pid_set(), 3),
            )
                .prop_map(|(keys, sets)| {
                    keys.into_iter()
                        .map(Pid::new)
                        .zip(sets.into_iter().cycle())
                        .collect::<Vec<_>>()
                })
        )
            .prop_map(|(sid, g, members)| {
                let body = Box::new(GsetsBody { g, members });
                (SvssSlot::gsets(sid), SvssRbValue::Gsets(body))
            }),
    ]
}

/// A well-formed scalar RB message of every slot family.
fn svss_rb() -> impl Strategy<Value = SvssMsg<Gf61>> {
    (slot_value(), pid(), rb_step()).prop_map(|((slot, v), o, s)| SvssMsg::rb(slot, o, s, v))
}

/// A well-formed vector RB message: two to eight members of any mix of
/// families, sessions close together (shared header prefixes) or far
/// apart.
fn rb_vector() -> impl Strategy<Value = SvssMsg<Gf61>> {
    (
        proptest::collection::vec(slot_value(), 0..6),
        mw_id(),
        pid(),
        any::<u32>(),
        rb_step(),
    )
        .prop_map(|(mut members, m, o, seq, s)| {
            // Two members that always differ keep the list long enough
            // once repeated slots are dropped.
            members.push((SvssSlot::mw_ack(m), SvssRbValue::Unit));
            members.push((SvssSlot::mw_ok(m), SvssRbValue::Unit));
            members.sort_by_key(|m| m.0);
            members.dedup_by_key(|m| m.0);
            SvssMsg::rb_vector(o, seq, s, RbVector::new(o, members))
        })
}

fn coin_rb() -> impl Strategy<Value = SvssMsg<Gf61>> {
    (
        prop_oneof![
            any::<u64>().prop_map(CoinSlot::Attach),
            any::<u64>().prop_map(CoinSlot::Support)
        ],
        pid(),
        rb_step(),
        pid_set(),
    )
        .prop_map(|(slot, o, s, set)| SvssMsg::coin_rb(slot, o, s, set))
}

/// A well-formed vote-layer RB message: every phase, with a value of
/// the shape the phase fixes.
fn vote_rb() -> impl Strategy<Value = SvssMsg<Gf61>> {
    let bit = || any::<bool>().prop_map(VoteValue::Bit);
    let maybe = proptest::option::of(any::<bool>()).prop_map(VoteValue::MaybeBit);
    let slot_value = prop_oneof![
        (any::<u32>(), any::<u32>(), bit())
            .prop_map(|(instance, round, v)| (VoteSlot::Report { instance, round }, v)),
        (any::<u32>(), any::<u32>(), bit())
            .prop_map(|(instance, round, v)| (VoteSlot::Candidate { instance, round }, v)),
        (any::<u32>(), any::<u32>(), maybe)
            .prop_map(|(instance, round, v)| (VoteSlot::Vote { instance, round }, v)),
        (any::<u32>(), bit()).prop_map(|(instance, v)| (VoteSlot::Decide { instance }, v)),
    ];
    (slot_value, pid(), rb_step()).prop_map(|((slot, v), o, s)| SvssMsg::vote_rb(slot, o, s, v))
}

fn any_msg() -> impl Strategy<Value = SvssMsg<Gf61>> {
    prop_oneof![
        svss_priv().prop_map(SvssMsg::private),
        svss_rb(),
        rb_vector(),
        coin_rb(),
        vote_rb()
    ]
}

/// One deterministic representative per [`WireKind`] — the exhaustiveness
/// backstop for the proptest strategies above.
fn representative(kind: WireKind) -> SvssMsg<Gf61> {
    let mw = MwId::nested(
        SvssId::new(5, Pid::new(1)),
        Pid::new(2),
        Pid::new(3),
        Pid::new(3),
        Pid::new(2),
    );
    let sid = SvssId::new(5, Pid::new(1));
    let origin = Pid::new(4);
    let set: ProcessSet = Pid::all(3).collect();
    let f = Gf61::from_u64(77);
    let step = kind.rb_step().unwrap_or(RbStep::Init);
    match kind {
        WireKind::MwDeal => SvssMsg::private(SvssPriv::MwDeal {
            mw,
            deal: Box::new(MwDealBody {
                others: vec![f, f],
                monitor_poly: vec![f],
                moderator_poly: Some(vec![f]),
            }),
        }),
        WireKind::MwPoint => SvssMsg::private(SvssPriv::MwPoint { mw, value: f }),
        WireKind::MwMval => SvssMsg::private(SvssPriv::MwMonitorValue { mw, value: f }),
        WireKind::Rows => SvssMsg::private(SvssPriv::Rows {
            session: sid,
            rows: Box::new(RowsBody {
                g: vec![f],
                h: vec![f, f],
            }),
        }),
        WireKind::MwAckInit | WireKind::MwAckEcho | WireKind::MwAckReady => {
            SvssMsg::rb(SvssSlot::mw_ack(mw), origin, step, SvssRbValue::Unit)
        }
        WireKind::MwLInit | WireKind::MwLEcho | WireKind::MwLReady => {
            SvssMsg::rb(SvssSlot::mw_l(mw), origin, step, SvssRbValue::Set(set))
        }
        WireKind::MwMInit | WireKind::MwMEcho | WireKind::MwMReady => {
            SvssMsg::rb(SvssSlot::mw_m(mw), origin, step, SvssRbValue::Set(set))
        }
        WireKind::MwOkInit | WireKind::MwOkEcho | WireKind::MwOkReady => {
            SvssMsg::rb(SvssSlot::mw_ok(mw), origin, step, SvssRbValue::Unit)
        }
        WireKind::MwReconInit | WireKind::MwReconEcho | WireKind::MwReconReady => SvssMsg::rb(
            SvssSlot::mw_recon(mw, Pid::new(2)),
            origin,
            step,
            SvssRbValue::Value(f),
        ),
        WireKind::GsetsInit | WireKind::GsetsEcho | WireKind::GsetsReady => SvssMsg::rb(
            SvssSlot::gsets(sid),
            origin,
            step,
            SvssRbValue::Gsets(Box::new(GsetsBody {
                g: set,
                members: vec![(Pid::new(1), set)],
            })),
        ),
        WireKind::AttachInit | WireKind::AttachEcho | WireKind::AttachReady => {
            SvssMsg::coin_rb(CoinSlot::Attach(9), origin, step, set)
        }
        WireKind::SupportInit | WireKind::SupportEcho | WireKind::SupportReady => {
            SvssMsg::coin_rb(CoinSlot::Support(9), origin, step, set)
        }
        WireKind::VecInit | WireKind::VecEcho | WireKind::VecReady => {
            let members = [
                (SvssSlot::mw_ack(mw), SvssRbValue::Unit),
                (SvssSlot::mw_l(mw), SvssRbValue::Set(set)),
                (SvssSlot::mw_recon(mw, Pid::new(2)), SvssRbValue::Value(f)),
                (SvssSlot::mw_recon(mw, Pid::new(3)), SvssRbValue::Value(f)),
            ];
            SvssMsg::rb_vector(origin, 9, step, RbVector::new(origin, members))
        }
        WireKind::VoteInit | WireKind::VoteEcho | WireKind::VoteReady => {
            let slot = VoteSlot::Vote {
                instance: 7,
                round: 2,
            };
            SvssMsg::vote_rb(slot, origin, step, VoteValue::MaybeBit(None))
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One [`GOLDEN`] row: the kind, its label, its standalone bytes, and its
/// frame-member bytes against no predecessor and against a same-session
/// one (the message itself, so both header elisions are available).
fn golden_row(kind: WireKind) -> String {
    let msg = representative(kind);
    let framed = |prev: Option<&SvssMsg<Gf61>>| {
        let mut buf = Vec::new();
        msg.encode_framed_member(prev, &mut buf);
        assert_eq!(msg.framed_wire_len(prev), buf.len(), "{kind:?}");
        hex(&buf)
    };
    format!(
        "{kind:?} {} {} {} {}",
        msg.kind(),
        hex(&msg.encoded()),
        framed(None),
        framed(Some(&msg))
    )
}

/// Every kind's bytes and label, recorded before the kind table existed:
/// `kind label standalone framed-first framed-after-same-session`.
const GOLDEN: &str = "
MwDeal mw/deal 0005000000000000000001020201024d000000000000004d00000000000000014d00000000000000024d00000000000000 000005000000000000000001020201024d000000000000004d00000000000000014d00000000000000024d00000000000000 0300024d000000000000004d00000000000000014d00000000000000024d00000000000000
MwPoint mw/point 01050000000000000000010202014d00000000000000 0001050000000000000000010202014d00000000000000 03014d00000000000000
MwMval mw/mval 02050000000000000000010202014d00000000000000 0002050000000000000000010202014d00000000000000 03024d00000000000000
Rows svss/rows 03050000000000000000014d00000000000000024d000000000000004d00000000000000 0003050000000000000000014d00000000000000024d000000000000004d00000000000000 0303014d00000000000000024d000000000000004d00000000000000
MwAckInit rb/init 040500000000000000000102020103 00040500000000000000000102020103 030403
MwAckEcho rb/echo 050500000000000000000102020103 00050500000000000000000102020103 030503
MwAckReady rb/ready 060500000000000000000102020103 00060500000000000000000102020103 030603
MwLInit rb/init 07050000000000000000010202010303000102 0007050000000000000000010202010303000102 03070303000102
MwLEcho rb/echo 08050000000000000000010202010303000102 0008050000000000000000010202010303000102 03080303000102
MwLReady rb/ready 09050000000000000000010202010303000102 0009050000000000000000010202010303000102 03090303000102
MwMInit rb/init 0a050000000000000000010202010303000102 000a050000000000000000010202010303000102 030a0303000102
MwMEcho rb/echo 0b050000000000000000010202010303000102 000b050000000000000000010202010303000102 030b0303000102
MwMReady rb/ready 0c050000000000000000010202010303000102 000c050000000000000000010202010303000102 030c0303000102
MwOkInit rb/init 0d0500000000000000000102020103 000d0500000000000000000102020103 030d03
MwOkEcho rb/echo 0e0500000000000000000102020103 000e0500000000000000000102020103 030e03
MwOkReady rb/ready 0f0500000000000000000102020103 000f0500000000000000000102020103 030f03
MwReconInit rb/init 100500000000000000000102020101034d00000000000000 00100500000000000000000102020101034d00000000000000 031001034d00000000000000
MwReconEcho rb/echo 110500000000000000000102020101034d00000000000000 00110500000000000000000102020101034d00000000000000 031101034d00000000000000
MwReconReady rb/ready 120500000000000000000102020101034d00000000000000 00120500000000000000000102020101034d00000000000000 031201034d00000000000000
GsetsInit rb/init 130500000000000000000303000102010003000102 00130500000000000000000303000102010003000102 03130303000102010003000102
GsetsEcho rb/echo 140500000000000000000303000102010003000102 00140500000000000000000303000102010003000102 03140303000102010003000102
GsetsReady rb/ready 150500000000000000000303000102010003000102 00150500000000000000000303000102010003000102 03150303000102010003000102
AttachInit coin/attach 1609000000000000000303000102 001609000000000000000303000102 01160303000102
AttachEcho coin/attach 1709000000000000000303000102 001709000000000000000303000102 01170303000102
AttachReady coin/attach 1809000000000000000303000102 001809000000000000000303000102 01180303000102
SupportInit coin/support 1909000000000000000303000102 001909000000000000000303000102 01190303000102
SupportEcho coin/support 1a09000000000000000303000102 001a09000000000000000303000102 011a0303000102
SupportReady coin/support 1b09000000000000000303000102 001b09000000000000000303000102 011b0303000102
VecInit rb/init 1c09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 001c09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 011c0304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000
VecEcho rb/echo 1d09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 001d09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 011d0304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000
VecReady rb/ready 1e09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 001e09000000000000000304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000 011e0304000000000500000000000000000102020159030001025c014d000000000000005c024d00000000000000
VoteInit aba/vote 1f0200000007000000020203 001f0200000007000000020203 031f0203
VoteEcho aba/vote 200200000007000000020203 00200200000007000000020203 03200203
VoteReady aba/vote 210200000007000000020203 00210200000007000000020203 03210203
";

/// The wire layout of every kind is pinned byte for byte: a change to
/// the kind table (or anything under it) fails on the kind that moved.
#[test]
fn every_wire_kind_matches_its_golden_encoding() {
    let rows: Vec<&str> = GOLDEN.trim().lines().collect();
    assert_eq!(rows.len(), usize::from(WIRE_KIND_COUNT));
    for (kind, want) in WireKind::all().zip(rows) {
        assert_eq!(golden_row(kind), want, "{kind:?}");
    }
}

/// Every flat discriminant round-trips, reports its own kind, and matches
/// its arithmetic `encoded_len`.
#[test]
fn every_wire_kind_round_trips() {
    for kind in WireKind::all() {
        let msg = representative(kind);
        assert_eq!(msg.wire_kind(), kind);
        let bytes = msg.encoded();
        assert_eq!(bytes[0], kind as u8, "flat discriminant leads the frame");
        assert_eq!(msg.encoded_len(), bytes.len(), "{kind:?}");
        let mut r = Reader::new(&bytes);
        assert_eq!(SvssMsg::<Gf61>::decode(&mut r).unwrap(), msg, "{kind:?}");
        assert_eq!(r.remaining(), 0);
    }
}

/// Every strict prefix of every kind's encoding is rejected (truncation
/// can never produce a value, let alone a panic).
#[test]
fn truncated_frames_rejected() {
    for kind in WireKind::all() {
        let bytes = representative(kind).encoded();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                SvssMsg::<Gf61>::decode(&mut r).is_err(),
                "{kind:?} truncated to {cut} bytes decoded"
            );
        }
    }
}

/// The shrunk PR 5 deal encoding (single-byte vector lengths, merged
/// moderator flag/length byte, recipient's own value omitted) round-trips
/// across the moderator/non-moderator split and every vector shape the
/// protocol can produce, and the merged byte is bounds-checked: a length
/// byte promising more coefficients than the frame carries is rejected,
/// never mis-decoded.
#[test]
fn shrunk_deal_encoding_round_trips_and_rejects_lies() {
    let mw = MwId::nested(
        SvssId::new(5, Pid::new(1)),
        Pid::new(2),
        Pid::new(3),
        Pid::new(3),
        Pid::new(2),
    );
    let f = Gf61::from_u64;
    for n_minus_1 in [0usize, 3, 6, 63] {
        for t_plus_1 in [0usize, 1, 3] {
            for moderator in [false, true] {
                let msg = SvssMsg::<Gf61>::private(SvssPriv::MwDeal {
                    mw,
                    deal: Box::new(MwDealBody {
                        others: (0..n_minus_1 as u64).map(f).collect(),
                        monitor_poly: (0..t_plus_1 as u64).map(f).collect(),
                        moderator_poly: moderator.then(|| (0..t_plus_1 as u64).map(f).collect()),
                    }),
                });
                let bytes = msg.encoded();
                assert_eq!(msg.encoded_len(), bytes.len());
                let mut r = Reader::new(&bytes);
                assert_eq!(SvssMsg::<Gf61>::decode(&mut r).unwrap(), msg);
                assert_eq!(r.remaining(), 0);
            }
        }
    }
    // A lying merged byte: claim 200 moderator coefficients in a frame
    // that ends right after the byte.
    let small = SvssMsg::<Gf61>::private(SvssPriv::MwDeal {
        mw,
        deal: Box::new(MwDealBody {
            others: vec![f(1)],
            monitor_poly: vec![f(2)],
            moderator_poly: None,
        }),
    });
    let mut bytes = small.encoded();
    let last = bytes.len() - 1;
    bytes[last] = 201; // merged byte: Some with 200 coefficients
    let mut r = Reader::new(&bytes);
    assert_eq!(
        SvssMsg::<Gf61>::decode(&mut r).unwrap_err(),
        CodecError::Invalid
    );
    // Same lie on a vector length prefix (the `others` length byte).
    let mut bytes = small.encoded();
    bytes[14] = 250; // kind 1 + mw 13, then the others length byte
    let mut r = Reader::new(&bytes);
    assert_eq!(
        SvssMsg::<Gf61>::decode(&mut r).unwrap_err(),
        CodecError::Invalid
    );
}

/// The adaptive set encoding round-trips inside a full message at the
/// bitmask word seams (64/65) and the cap seam (255/256), in both the
/// sparse and dense arm, and the sizes match the minimal-form rule.
#[test]
fn adaptive_sets_round_trip_across_word_seams() {
    let mw = MwId::nested(
        SvssId::new(5, Pid::new(1)),
        Pid::new(2),
        Pid::new(3),
        Pid::new(3),
        Pid::new(2),
    );
    for (set, set_bytes) in [
        (ProcessSet::new(), 1),                               // empty: bare tag
        (Pid::all(8).collect(), 9),                           // sparse, ties go sparse
        (Pid::all(64).collect(), 9),                          // dense, one word
        (Pid::all(65).collect(), 17),                         // dense, word seam
        ([64, 65].iter().map(|&i| Pid::new(i)).collect(), 3), // sparse across the seam
        (Pid::all(255).collect(), 33),                        // dense, four words
        (Pid::all(256).collect(), 33),                        // dense, full cap
        (std::iter::once(Pid::new(256)).collect(), 2),        // sparse at the cap
    ] {
        let msg = SvssMsg::<Gf61>::rb(
            SvssSlot::mw_l(mw),
            Pid::new(4),
            RbStep::Ready,
            SvssRbValue::Set(set),
        );
        let bytes = msg.encoded();
        // 15-byte header (kind + tag + 5 packed pids + origin), then the set.
        assert_eq!(bytes.len(), 15 + set_bytes, "set {set:?}");
        assert_eq!(msg.encoded_len(), bytes.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(SvssMsg::<Gf61>::decode(&mut r).unwrap(), msg);
        assert_eq!(r.remaining(), 0);
    }
}

/// Key-delta frames: hand-built non-minimal spellings are rejected —
/// a repeated tag written out instead of elided, delta flags with no
/// predecessor, unknown prelude bits, and a p-elision on a kind that
/// carries no p-bytes.
#[test]
fn non_minimal_frames_rejected() {
    let msg = representative(WireKind::MwAckEcho);
    let standalone = msg.encoded();

    // Canonical two-member frame: the repeat elides tag + p-bytes.
    let mut canonical = Vec::new();
    sba_net::encode_frame(&[msg.clone(), msg.clone()], &mut canonical);
    assert_eq!(
        sba_net::frame_len(&[msg.clone(), msg.clone()]),
        canonical.len()
    );
    assert_eq!(
        sba_net::decode_frame::<WireMsg<Gf61>>(&mut Reader::new(&canonical)).unwrap(),
        vec![msg.clone(), msg.clone()]
    );
    assert_eq!(
        canonical.len(),
        4 + (1 + standalone.len()) + (1 + standalone.len() - 8 - 5),
        "second member drops its 8-byte tag and 5 p-bytes"
    );

    // Same two messages with the second spelled out in full: rejected.
    let mut spelled = Vec::new();
    2u32.encode(&mut spelled);
    for _ in 0..2 {
        spelled.push(0); // prelude: nothing elided
        spelled.extend_from_slice(&standalone);
    }
    assert_eq!(
        sba_net::decode_frame::<WireMsg<Gf61>>(&mut Reader::new(&spelled)).unwrap_err(),
        CodecError::Invalid
    );

    // Delta flags on the first frame member: nothing to delta against.
    for prelude in [1u8, 2, 3] {
        let mut orphan = Vec::new();
        1u32.encode(&mut orphan);
        orphan.push(prelude);
        orphan.extend_from_slice(&standalone);
        assert_eq!(
            sba_net::decode_frame::<WireMsg<Gf61>>(&mut Reader::new(&orphan)).unwrap_err(),
            CodecError::Invalid,
            "prelude {prelude}"
        );
    }

    // Unknown prelude bits.
    let mut unknown = Vec::new();
    1u32.encode(&mut unknown);
    unknown.push(0x80);
    unknown.extend_from_slice(&standalone);
    assert_eq!(
        sba_net::decode_frame::<WireMsg<Gf61>>(&mut Reader::new(&unknown)).unwrap_err(),
        CodecError::Invalid
    );

    // A SAME_P elision on a kind with no p-bytes (coin RB): rejected
    // even though the byte stream is otherwise well-formed.
    let a = representative(WireKind::AttachInit);
    let b = SvssMsg::<Gf61>::coin_rb(
        CoinSlot::Attach(10),
        Pid::new(4),
        RbStep::Init,
        ProcessSet::new(),
    );
    assert_ne!(a.encoded()[1..9], b.encoded()[1..9], "tags differ");
    let mut bad_p = Vec::new();
    2u32.encode(&mut bad_p);
    bad_p.push(0);
    bad_p.extend_from_slice(&a.encoded());
    bad_p.push(2); // SAME_P
    bad_p.extend_from_slice(&b.encoded());
    assert_eq!(
        sba_net::decode_frame::<WireMsg<Gf61>>(&mut Reader::new(&bad_p)).unwrap_err(),
        CodecError::Invalid
    );
}

/// A vote key has three fields a hostile sender can get wrong — the
/// phase byte, the value byte (`⊥` only in the vote phase) and a
/// decide's round, which must be 0 — and each is `Invalid`, never a
/// panic and never a vote of another shape.
#[test]
fn malformed_votes_rejected() {
    let decode = |bytes: &[u8]| SvssMsg::<Gf61>::decode(&mut Reader::new(bytes));
    let vote = |slot, value| SvssMsg::<Gf61>::vote_rb(slot, Pid::new(2), RbStep::Echo, value);
    let (report, ballot, decide) = (
        VoteSlot::Report {
            instance: 1,
            round: 4,
        },
        VoteSlot::Vote {
            instance: 1,
            round: 4,
        },
        VoteSlot::Decide { instance: 1 },
    );
    // [kind][tag: 8][phase][value][origin]
    let (phase_at, value_at) = (9, 10);
    for (msg, max_value) in [
        (vote(report, VoteValue::Bit(true)), 1),
        (vote(ballot, VoteValue::MaybeBit(None)), 2),
        (vote(decide, VoteValue::Bit(false)), 1),
    ] {
        let good = msg.encoded();
        assert_eq!(good.len(), 12);
        assert_eq!(decode(&good), Ok(msg.clone()));
        for b in 0..=255u8 {
            let mut bytes = good.clone();
            bytes[value_at] = b;
            assert_eq!(
                decode(&bytes).is_ok(),
                b <= max_value,
                "value byte {b} in {msg:?}"
            );
        }
    }
    let mut bytes = vote(report, VoteValue::Bit(true)).encoded();
    for phase in 4..=255u8 {
        bytes[phase_at] = phase;
        assert_eq!(decode(&bytes), Err(CodecError::Invalid), "phase {phase}");
    }
    // A report carrying ⊥: the vote-phase value byte under a report.
    let mut bytes = vote(ballot, VoteValue::MaybeBit(None)).encoded();
    bytes[phase_at] = 0;
    assert_eq!(decode(&bytes), Err(CodecError::Invalid));
    // A decide that names a round.
    let mut bytes = vote(report, VoteValue::Bit(true)).encoded();
    bytes[phase_at] = 3;
    assert_eq!(decode(&bytes), Err(CodecError::Invalid));
}

/// Discriminant bytes outside the kind table are foreign and rejected
/// with `BadDiscriminant`.
#[test]
fn foreign_discriminants_rejected() {
    for b in WIRE_KIND_COUNT..=255 {
        let frame = [b, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let mut r = Reader::new(&frame);
        assert_eq!(
            SvssMsg::<Gf61>::decode(&mut r).unwrap_err(),
            CodecError::BadDiscriminant(b)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Canonical encode/decode is the identity and consumes all bytes,
    /// and the arithmetic `encoded_len` matches the real encoding (the
    /// simulator charges metrics through it without serializing).
    #[test]
    fn svss_messages_round_trip(msg in any_msg()) {
        let bytes = msg.encoded();
        prop_assert_eq!(msg.encoded_len(), bytes.len());
        let mut r = Reader::new(&bytes);
        let back = SvssMsg::<Gf61>::decode(&mut r).expect("well-formed");
        prop_assert_eq!(back, msg);
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Unpacking and re-packing the structured form is the identity.
    #[test]
    fn unpack_pack_identity(msg in any_msg()) {
        use sba_net::Unpacked;
        let back = match msg.clone().unpack() {
            Unpacked::Priv(p) => SvssMsg::private(p),
            Unpacked::Rb { slot, origin, step, value } => SvssMsg::rb(slot, origin, step, value),
            Unpacked::CoinRb { slot, origin, step, set } => {
                SvssMsg::coin_rb(slot, origin, step, set)
            }
            Unpacked::RbVector { origin, seq, step, members } => {
                // Rebuilt from its members, not handed back as the
                // same pointer.
                let rebuilt = RbVector::new(origin, members.iter());
                SvssMsg::rb_vector(origin, seq, step, rebuilt)
            }
            Unpacked::VoteRb { slot, origin, step, value } => {
                SvssMsg::vote_rb(slot, origin, step, value)
            }
        };
        prop_assert_eq!(back, msg);
    }

    /// Arbitrary byte soup either decodes to SOMETHING (which must then
    /// re-encode to a decodable value) or errors — never panics.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = Reader::new(&bytes);
        if let Ok(msg) = SvssMsg::<Gf61>::decode(&mut r) {
            let re = msg.encoded();
            let mut r2 = Reader::new(&re);
            prop_assert!(SvssMsg::<Gf61>::decode(&mut r2).is_ok());
        }
    }

    /// Byte soup behind each of the three vector discriminants, and a
    /// well-formed vector with one byte overwritten: the decoder never
    /// panics, never reports more members than bytes arrived, and
    /// whatever it accepts is canonical — it re-encodes to exactly the
    /// bytes it consumed.
    #[test]
    fn vector_decoder_never_panics(
        kind in WireKind::VecInit as u8..=WireKind::VecReady as u8,
        soup in proptest::collection::vec(any::<u8>(), 0..256),
        msg in rb_vector(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut mutated = msg.encoded();
        let at = at % mutated.len();
        mutated[at] = byte;
        let mut forced = vec![kind];
        forced.extend_from_slice(&soup);
        for bytes in [forced, mutated] {
            let mut r = Reader::new(&bytes);
            if let Ok(msg) = SvssMsg::<Gf61>::decode(&mut r) {
                let consumed = bytes.len() - r.remaining();
                prop_assert_eq!(msg.encoded(), &bytes[..consumed]);
                if let sba_net::Unpacked::RbVector { members, .. } = msg.unpack() {
                    prop_assert!((2..=consumed).contains(&members.slots().count()));
                }
            }
        }
    }

    /// Key-delta frames over arbitrary batches: encode/decode is the
    /// identity, the arithmetic `frame_len` / per-member
    /// `framed_wire_len` match the real bytes (they are what the
    /// simulator charges), and every strict prefix of a frame is
    /// rejected rather than mis-decoded.
    #[test]
    fn framed_batches_round_trip(msgs in proptest::collection::vec(any_msg(), 0..6)) {
        let mut buf = Vec::new();
        sba_net::encode_frame(&msgs, &mut buf);
        prop_assert_eq!(sba_net::frame_len(&msgs), buf.len());
        let mut charged = 4;
        let mut prev: Option<&SvssMsg<Gf61>> = None;
        for m in &msgs {
            charged += m.framed_wire_len(prev);
            prev = Some(m);
        }
        prop_assert_eq!(charged, buf.len());
        let mut r = Reader::new(&buf);
        prop_assert_eq!(sba_net::decode_frame::<WireMsg<Gf61>>(&mut r).unwrap(), msgs.clone());
        prop_assert_eq!(r.remaining(), 0);
        if !msgs.is_empty() {
            for cut in 0..buf.len() {
                let mut r = Reader::new(&buf[..cut]);
                prop_assert!(sba_net::decode_frame::<WireMsg<Gf61>>(&mut r).is_err(),
                    "frame truncated to {} of {} bytes decoded", cut, buf.len());
            }
        }
    }

    /// Frame soup: a well-formed frame that mixes vote, coin and SVSS
    /// members (so members elide against neighbours of other layers)
    /// with one byte overwritten. The decoder never panics, and whatever
    /// it accepts is canonical — it re-encodes to exactly the bytes it
    /// consumed.
    #[test]
    fn mixed_frame_soup_never_panics(
        votes in proptest::collection::vec(vote_rb(), 1..4),
        coins in proptest::collection::vec(coin_rb(), 1..3),
        svss in proptest::collection::vec(prop_oneof![svss_rb(), rb_vector()], 1..3),
        order in any::<u64>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut msgs: Vec<SvssMsg<Gf61>> = votes.into_iter().chain(coins).chain(svss).collect();
        let len = msgs.len();
        msgs.rotate_left(order as usize % len);
        msgs.swap(0, (order >> 32) as usize % len);
        let mut frame = Vec::new();
        sba_net::encode_frame(&msgs, &mut frame);
        let mut r = Reader::new(&frame);
        prop_assert_eq!(sba_net::decode_frame::<WireMsg<Gf61>>(&mut r).unwrap(), msgs);
        let at = at % frame.len();
        frame[at] = byte;
        let mut r = Reader::new(&frame);
        if let Ok(got) = sba_net::decode_frame::<WireMsg<Gf61>>(&mut r) {
            let consumed = frame.len() - r.remaining();
            let mut re = Vec::new();
            sba_net::encode_frame(&got, &mut re);
            prop_assert_eq!(&re[..], &frame[..consumed]);
        }
    }

    /// The frame decoder never panics on byte soup, and anything it
    /// accepts re-encodes to an accepted frame (canonical fixpoint).
    #[test]
    fn frame_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = Reader::new(&bytes);
        if let Ok(msgs) = sba_net::decode_frame::<WireMsg<Gf61>>(&mut r) {
            let mut re = Vec::new();
            sba_net::encode_frame(&msgs, &mut re);
            let mut r2 = Reader::new(&re);
            prop_assert!(sba_net::decode_frame::<WireMsg<Gf61>>(&mut r2).is_ok());
        }
    }
}
