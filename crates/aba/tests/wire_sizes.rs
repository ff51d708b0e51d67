//! Compile-time pins on the in-memory size of the hot wire enums.
//!
//! A full SCC run keeps ~10⁶ messages in flight, so every byte of the
//! message type is ~1 MB of queue population. PR 3 boxed the rare large
//! variants; PR 4 flattened the nested coin/SVSS enum tree into the
//! packed `WireMsg` (`{16-byte key, 16-byte body}`), which shrank
//! `CoinMsg` 56 → 32 B; PR 25 moved the vote layer onto the same flat
//! form, so `AbaMsg`, `CoinMsg` and `SvssMsg` are one 32-byte type with
//! no heap node behind a vote or a coin message.
//!
//! These `const` asserts fail the *build* if a refactor regresses that —
//! the `static_assert` of Rust. If one fires, re-box or re-pack the
//! variant that grew (or consciously raise the pin and re-measure
//! `BENCH_<pr>.json`).

use sba_aba::AbaMsg;
use sba_coin::CoinMsg;
use sba_field::Gf61;
use sba_net::{Envelope, MwId, SvssId, SvssSlot};
use sba_svss::{SvssMsg, SvssPriv, SvssRbValue};
use std::mem::size_of;

// The flat coin/SVSS wire message: 16-byte packed key + 16-byte body.
// PR 7 lifted the process cap to MAX_N = 256 (the `ProcessSet` bitmask
// is now 4 words = 32 bytes), but the body slot stores sets compactly —
// word-0 sets inline, wider sets spilled to the heap — so the queued
// message stays at its pinned 32 bytes for every n ≤ 64 workload.
const _: () = assert!(size_of::<CoinMsg<Gf61>>() == 32);
const _: () = assert!(size_of::<SvssMsg<Gf61>>() == 32);

// The top-level agreement message is the same flat type (a vote is a
// bodiless key: tag, phase p-byte, value aux byte), so it fits the same
// 32 bytes.
const _: () = assert!(size_of::<AbaMsg<Gf61>>() <= 32);

// What an outbox holds per send until the simulator groups it
// (measured: 40 — the message plus its sender and recipient).
const _: () = assert!(size_of::<Envelope<AbaMsg<Gf61>>>() <= 40);

// The structured decomposition forms stay lean too (they live on the
// stack during routing, and `SvssPriv` rides in the DMM delay buffer).
// `SvssRbValue` carries the now-4-word `ProcessSet` inline, so it grew
// 16 → 40 with the MAX_N = 256 cap lift — acceptable because it is a
// transient stack form, never queued. Re-measured for PR 9: exactly 40
// (32-byte set + discriminant, padded); the adaptive *wire* encoding
// shrank the set's serialized form, not this in-memory one.
const _: () = assert!(size_of::<SvssPriv<Gf61>>() <= 32);
const _: () = assert!(size_of::<SvssRbValue<Gf61>>() <= 40);

// Slot tags key the mux interning stores; both ids are packed to 16 B,
// and since PR 4 `SvssSlot` is too (it was a 24-byte enum).
const _: () = assert!(size_of::<MwId>() == 16);
const _: () = assert!(size_of::<SvssId>() == 16);
const _: () = assert!(size_of::<SvssSlot>() == 16);

/// PR 5's MwDeal word-complexity diet, pinned at the n=7/t=2 benchmark
/// shape: the recipient's own value is omitted (6 `others`, not 7
/// values), vector length prefixes are one byte, and the moderator
/// polynomial's presence flag is merged into its length byte. The
/// pre-diet encoding of the same deal was 131 B (moderator copy) /
/// 103 B — `mw/deal` is the only multi-kilobyte payload class of a full
/// run, so these bytes are the `deal_bytes` trajectory `experiments
/// compare` drift-gates.
#[test]
fn mw_deal_encoding_pinned() {
    use sba_field::Field;
    use sba_net::{MwDealBody, Pid, SvssPriv, Wire};
    let f = |v: u64| Gf61::from_u64(v);
    let mw = MwId::nested(
        SvssId::new(9, Pid::new(1)),
        Pid::new(2),
        Pid::new(3),
        Pid::new(3),
        Pid::new(2),
    );
    let deal = |moderator: bool| {
        SvssMsg::<Gf61>::private(SvssPriv::MwDeal {
            mw,
            deal: Box::new(MwDealBody {
                others: (0..6).map(f).collect(),
                monitor_poly: vec![f(1), f(2), f(3)],
                moderator_poly: moderator.then(|| vec![f(4), f(5), f(6)]),
            }),
        })
    };
    // kind 1 + mw 13 + others (1+48) + monitor (1+24) + merged byte 1.
    // Re-measured for PR 9: unchanged — deals carry no sets, and the
    // frame prelude is charged at the sim layer, not in `encoded()`.
    assert_eq!(deal(false).encoded_len(), 89);
    assert_eq!(deal(false).encoded().len(), 89);
    // The moderator's copy adds its 3 coefficients, nothing else.
    assert_eq!(deal(true).encoded_len(), 89 + 24);
    assert_eq!(deal(true).encoded().len(), 89 + 24);
}

/// PR 9's adaptive set + key-delta frame diet, pinned at both ends of
/// the n range. Measured against the PR 8-era encoding (4-byte count +
/// 4 bytes per member, full 14/15-byte header on every message):
/// - full-set L-ready at n = 7:   47 → 23 B standalone, 11 B framed
/// - full-set L-ready at n = 256: 1043 → 48 B standalone, 36 B framed
/// - G-sets ready, 7 members × full 7-set: 299 → 83 B
///
/// These payloads are echoed n² times per RB slot, which is why
/// `scc_n256.bytes` moves 24.1 GB → under 2.4 GB (BENCH_9 vs BENCH_8).
#[test]
fn set_and_frame_encodings_pinned() {
    use sba_net::{GsetsBody, Pid, ProcessSet, RbStep, Wire};
    let mw = MwId::nested(
        SvssId::new(9, Pid::new(1)),
        Pid::new(2),
        Pid::new(3),
        Pid::new(3),
        Pid::new(2),
    );
    let l_ready = |n: usize| {
        SvssMsg::<Gf61>::rb(
            SvssSlot::mw_l(mw),
            Pid::new(4),
            RbStep::Ready,
            SvssRbValue::Set(Pid::all(n).collect()),
        )
    };
    // 15-byte header (kind + tag + 5 packed pids + origin) + the set:
    // sparse (tag byte + one byte per member) up to 8 members per
    // spanned word, dense (tag byte + ⌈n/64⌉ words) past that.
    assert_eq!(l_ready(7).encoded_len(), 15 + 1 + 7);
    assert_eq!(l_ready(7).encoded().len(), 15 + 1 + 7);
    assert_eq!(l_ready(256).encoded_len(), 15 + 1 + 32);
    assert_eq!(l_ready(256).encoded().len(), 15 + 1 + 32);
    // Framed after a same-session message: prelude byte replaces the
    // 8-byte tag and 5 p-bytes (the n = 256 e13 workload is a single
    // MW share, so nearly every frame member takes this form).
    let prev = l_ready(7);
    assert_eq!(l_ready(256).framed_wire_len(Some(&prev)), 1 + 48 - 8 - 5);
    assert_eq!(l_ready(256).framed_wire_len(None), 1 + 48);
    // G-sets: the member table is an adaptive keyset plus one set per
    // member — no 4-byte count, no 4-byte pids.
    let full: ProcessSet = Pid::all(7).collect();
    let gsets = SvssMsg::<Gf61>::rb(
        SvssSlot::gsets(SvssId::new(9, Pid::new(1))),
        Pid::new(4),
        RbStep::Ready,
        SvssRbValue::Gsets(Box::new(GsetsBody {
            g: full,
            members: full.iter().map(|p| (p, full)).collect(),
        })),
    );
    // header 11 (kind + tag + dealer byte + origin) + g 8 + keyset 8 +
    // 7 member sets × 8 (each a sparse 7-member set).
    assert_eq!(gsets.encoded_len(), 11 + 8 + 8 + 7 * 8);
    assert_eq!(gsets.encoded().len(), 11 + 8 + 8 + 7 * 8);
}

/// PR 25's flat vote encoding. The nested form it replaced spelled a
/// vote as a frame byte, a discriminated `VoteSlot` (9 B; 5 for a
/// decide), a 4-byte origin pid, one or two `RbMsg`/`WrbMsg`
/// discriminants and a discriminated value (2–3 B): 17–19 B standalone
/// for the round phases, 13–14 for a decide, one more framed, with
/// nothing elided against a neighbour. Now the
/// slot is the key's tag plus a phase p-byte, the value the aux byte and
/// the origin one packed byte — 12 B for every phase and step — and the
/// key-delta frame form elides tag and phase against a same-round
/// neighbour, which is most of an n² echo/ready fan-in.
#[test]
fn vote_encoding_pinned() {
    use sba_aba::{VoteSlot, VoteValue};
    use sba_net::{Pid, RbStep, Wire};
    let vote = |origin: u32, slot, value| {
        AbaMsg::<Gf61>::vote_rb(slot, Pid::new(origin), RbStep::Echo, value)
    };
    let report = VoteSlot::Report {
        instance: 3,
        round: 2,
    };
    let bottom = VoteSlot::Vote {
        instance: 3,
        round: 2,
    };
    let decide = VoteSlot::Decide { instance: 3 };
    for m in [
        vote(1, report, VoteValue::Bit(true)),
        vote(1, bottom, VoteValue::MaybeBit(None)),
        vote(1, decide, VoteValue::Bit(false)),
    ] {
        // kind 1 + tag 8 + phase 1 + value 1 + origin 1.
        assert_eq!(m.encoded_len(), 12);
        assert_eq!(m.encoded().len(), 12);
        assert_eq!(m.framed_wire_len(None), 1 + 12);
    }
    // Same round and phase: the prelude, kind, value and origin remain.
    let prev = vote(1, report, VoteValue::Bit(true));
    assert_eq!(
        vote(2, report, VoteValue::Bit(false)).framed_wire_len(Some(&prev)),
        4
    );
    // Same round, another phase: the tag still elides.
    assert_eq!(
        vote(2, bottom, VoteValue::MaybeBit(None)).framed_wire_len(Some(&prev)),
        5
    );
}

/// The queue's per-batch and per-message footprint: one header per
/// `(tick, from, to)` group and one bare message per in-flight send, each
/// in its tick bucket's FIFO (no links, no `Option` slot). Runtime (not
/// const) because the sizes come through a function, but it fails the
/// same build that would regress them.
#[test]
fn queue_slot_sizes_pinned() {
    let (header, msg) = sba_sim::queue_slot_sizes::<AbaMsg<Gf61>>();
    assert!(header <= 24, "batch header grew to {header} bytes");
    assert!(msg <= 32, "queued message grew to {msg} bytes");
}

/// The asserts above are compile-time; this test exists so the pins show
/// up (and can print the live numbers) in the test run.
#[test]
fn wire_sizes_pinned() {
    for (name, size) in [
        ("AbaMsg<Gf61>", size_of::<AbaMsg<Gf61>>()),
        (
            "Envelope<AbaMsg<Gf61>>",
            size_of::<Envelope<AbaMsg<Gf61>>>(),
        ),
        ("CoinMsg<Gf61>", size_of::<CoinMsg<Gf61>>()),
        ("SvssMsg<Gf61>", size_of::<SvssMsg<Gf61>>()),
        ("SvssPriv<Gf61>", size_of::<SvssPriv<Gf61>>()),
        ("SvssSlot", size_of::<SvssSlot>()),
        ("MwId", size_of::<MwId>()),
    ] {
        println!("{name} = {size} bytes");
    }
    let (header, msg) = sba_sim::queue_slot_sizes::<AbaMsg<Gf61>>();
    println!("queue batch header = {header} bytes");
    println!("queued message = {msg} bytes");
}
