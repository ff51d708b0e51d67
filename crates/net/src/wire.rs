//! The flat wire format of the whole stack — SVSS, coin and agreement
//! votes — and the only codec its messages have.
//!
//! Every message a process sends is one [`WireMsg`]: a [`WireKind`]
//! discriminant packed into a fixed 16-byte routing header ([`WireKey`])
//! plus a 16-byte payload slot — 32 bytes total for `F = Gf61`, pinned
//! by `crates/aba/tests/wire_sizes.rs`. The RB step (init/echo/ready),
//! the protocol slot, and the session identifiers are all packed into
//! the key; the body holds only the payload (boxed when large and rare,
//! and stored compactly when a full `MAX_N`-wide `ProcessSet` would not
//! fit the slot — see [`CompactSet`]). A vote needs no body at all: its
//! `(instance, round)` is the session tag, its phase one p-byte and its
//! value the aux byte.
//!
//! # The kind table
//!
//! The paper's RB (Appendix A) has three message types and the stack
//! broadcasts over a fixed set of slot families, so the wire surface is
//! one *family × RB step* table plus four private message classes. The
//! `wire_kinds!` invocation below spells it once, declaring [`WireKind`]
//! and its table [`KINDS`] from one row per kind: RB family and step,
//! metrics label, p-byte width, aux byte, and body shape. Every question
//! the codec or an engine asks of a kind is answered by that row, and
//! the constructors find their kind from `(family, step)` through the
//! table's inverse. A new kind is a new row.
//!
//! # Routing forms
//!
//! The protocol crates reason in their own terms: `sba-broadcast`'s mux
//! routes a flat `MuxMsg { tag, origin, step, value }`, the SVSS engine
//! matches on [`SvssSlot`]/[`SvssRbValue`] pairs, the agreement node on
//! [`VoteSlot`]/[`VoteValue`] pairs. Those are in-memory routing forms
//! with no encoding of their own: they exist transiently on the stack,
//! [`WireMsg::unpack`] yields their parts, and the RB constructors
//! ([`WireMsg::rb`], [`WireMsg::coin_rb`], [`WireMsg::vote_rb`], and
//! [`WireMsg::rb_vector`] per vector instance) take the same
//! `(slot, origin, step, value)` parts back, so each is the mux's `wrap`
//! hook as it stands. Both directions move fields (no allocation).
//!
//! A safe-Rust subtlety: the body enum carries its own (redundant)
//! discriminant, but that byte lives inside the body's 16-byte slot, so
//! the struct still lands on 32 bytes. The kind/body agreement is a
//! construction invariant (constructors assert it, `decode` enforces it),
//! which is what makes [`WireMsg::unpack`] total.

use std::sync::Arc;

use sba_field::Field;

use crate::{
    get_field, put_field, CodecError, Kinded, MwId, Pid, ProcessSet, Reader, SessionKey, SvssId,
    Wire,
};

/// The reliable-broadcast protocol step a message carries.
///
/// The paper's RB (Appendix A) has exactly three message types: the
/// dealer's type-1 `Init`, the type-2 `Echo`, and the type-3 `Ready`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum RbStep {
    /// `(s, 1)` — the dealer's value.
    Init = 0,
    /// `(r, 2)` — the WRB echo.
    Echo = 1,
    /// `(r, 3)` — the RB ready.
    Ready = 2,
}

/// Which RB slot family a [`SvssSlot`] names (the SVSS stack's six
/// broadcast classes, paper §3–§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum SlotKind {
    /// MW share step 2: `ack`.
    MwAck = 0,
    /// MW share step 4: `L_j`.
    MwL = 1,
    /// MW share step 6: `M`.
    MwM = 2,
    /// MW share step 7: `OK`.
    MwOk = 3,
    /// MW reconstruct step 1: a point of some polynomial `f_l`.
    MwRecon = 4,
    /// SVSS share step 5: the `G` sets.
    Gsets = 5,
}

/// Declares [`WireKind`] and its table from one list of rows, in wire-byte
/// order, so that each kind is spelled exactly once.
macro_rules! wire_kinds {
    ($($kind:ident: $rb:expr, $label:literal, $p_width:literal, $aux:literal, $body:ident;)*) => {
        /// The single flat discriminant of the wire surface: every private
        /// message class and every `(slot family, RB step)` pair has its
        /// own kind (the vote layer's four phases share one family, told
        /// apart by a p-byte). One byte on the wire, one byte in the packed
        /// key: the kind's row in the kind table.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        #[allow(missing_docs)] // the pattern is uniform; see the module docs
        pub enum WireKind {
            $($kind,)*
        }

        /// The kind table: row `k` is the kind whose wire byte is `k`.
        const KINDS: [KindRow; WIRE_KIND_COUNT as usize] = {
            use Family::{Attach, Slot, Support, Vector, Vote};
            use RbStep::{Echo, Init, Ready};
            use SlotKind::{Gsets, MwAck, MwL, MwM, MwOk, MwRecon};
            [$(KindRow {
                kind: WireKind::$kind,
                rb: $rb,
                label: $label,
                p_width: $p_width,
                aux: $aux,
                body: Shape::$body,
            },)*]
        };
    };
}

wire_kinds! {
    // kind        RB family and step             label           p  aux    body
    MwDeal:        None,                          "mw/deal",      5, false, Deal;
    MwPoint:       None,                          "mw/point",     5, false, Value;
    MwMval:        None,                          "mw/mval",      5, false, Value;
    Rows:          None,                          "svss/rows",    1, false, Rows;
    MwAckInit:     Some((Slot(MwAck), Init)),     "rb/init",      5, false, Unit;
    MwAckEcho:     Some((Slot(MwAck), Echo)),     "rb/echo",      5, false, Unit;
    MwAckReady:    Some((Slot(MwAck), Ready)),    "rb/ready",     5, false, Unit;
    MwLInit:       Some((Slot(MwL), Init)),       "rb/init",      5, false, Set;
    MwLEcho:       Some((Slot(MwL), Echo)),       "rb/echo",      5, false, Set;
    MwLReady:      Some((Slot(MwL), Ready)),      "rb/ready",     5, false, Set;
    MwMInit:       Some((Slot(MwM), Init)),       "rb/init",      5, false, Set;
    MwMEcho:       Some((Slot(MwM), Echo)),       "rb/echo",      5, false, Set;
    MwMReady:      Some((Slot(MwM), Ready)),      "rb/ready",     5, false, Set;
    MwOkInit:      Some((Slot(MwOk), Init)),      "rb/init",      5, false, Unit;
    MwOkEcho:      Some((Slot(MwOk), Echo)),      "rb/echo",      5, false, Unit;
    MwOkReady:     Some((Slot(MwOk), Ready)),     "rb/ready",     5, false, Unit;
    MwReconInit:   Some((Slot(MwRecon), Init)),   "rb/init",      5, true,  Value;
    MwReconEcho:   Some((Slot(MwRecon), Echo)),   "rb/echo",      5, true,  Value;
    MwReconReady:  Some((Slot(MwRecon), Ready)),  "rb/ready",     5, true,  Value;
    GsetsInit:     Some((Slot(Gsets), Init)),     "rb/init",      1, false, Gsets;
    GsetsEcho:     Some((Slot(Gsets), Echo)),     "rb/echo",      1, false, Gsets;
    GsetsReady:    Some((Slot(Gsets), Ready)),    "rb/ready",     1, false, Gsets;
    AttachInit:    Some((Attach, Init)),          "coin/attach",  0, false, Set;
    AttachEcho:    Some((Attach, Echo)),          "coin/attach",  0, false, Set;
    AttachReady:   Some((Attach, Ready)),         "coin/attach",  0, false, Set;
    SupportInit:   Some((Support, Init)),         "coin/support", 0, false, Set;
    SupportEcho:   Some((Support, Echo)),         "coin/support", 0, false, Set;
    SupportReady:  Some((Support, Ready)),        "coin/support", 0, false, Set;
    VecInit:       Some((Vector, Init)),          "rb/init",      0, false, Vector;
    VecEcho:       Some((Vector, Echo)),          "rb/echo",      0, false, Vector;
    VecReady:      Some((Vector, Ready)),         "rb/ready",     0, false, Vector;
    VoteInit:      Some((Vote, Init)),            "",             1, true,  Vote;
    VoteEcho:      Some((Vote, Echo)),            "",             1, true,  Vote;
    VoteReady:     Some((Vote, Ready)),           "",             1, true,  Vote;
}

/// Number of [`WireKind`] values (discriminants are `0..COUNT`).
pub const WIRE_KIND_COUNT: u8 = 34;

/// One row of the kind table: everything a [`WireKind`] is.
#[derive(Clone, Copy, Debug)]
struct KindRow {
    kind: WireKind,
    /// The RB family and step; `None` for a private kind.
    rb: Option<(Family, RbStep)>,
    /// The [`Kinded`] label; empty for votes, labelled by phase.
    label: &'static str,
    /// Width of the packed-pid slot prefix after the session tag, the
    /// only header field whose width varies by kind: a standalone
    /// encoding is `[kind][tag: 8 LE][p-bytes: p_width]` and the tail.
    p_width: u8,
    /// Whether the tail spells the aux byte (the `MwRecon` polynomial
    /// index, or a vote's value).
    aux: bool,
    body: Shape,
}

/// The RB family whose steps an RB kind carries. (A private kind has no
/// family: each is a message class of its own.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Family {
    Slot(SlotKind),
    Attach,
    Support,
    Vector,
    Vote,
}

const RB_FAMILY_COUNT: usize = 10;

impl Family {
    /// The family's row in [`RB_KINDS`]. A slot family's is its
    /// [`SlotKind`] discriminant, which is how a vector member's head
    /// byte names it.
    const fn index(self) -> usize {
        match self {
            Family::Slot(slot) => slot as usize,
            Family::Attach => 6,
            Family::Support => 7,
            Family::Vector => 8,
            Family::Vote => 9,
        }
    }
}

/// What a kind's body holds ([`Body`]'s variants; `Vote` is a `Unit`
/// whose key must spell a vote). One shape per kind is what keeps the
/// kind/body agreement a decode-time invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Unit,
    Set,
    Value,
    Gsets,
    Deal,
    Rows,
    Vector,
    Vote,
}

/// The inverse of the table's RB rows: `RB_KINDS[family.index()][step]`
/// is the kind of that family's step. Built, and the table checked, at
/// compile time: every `(family, step)` must be exactly one row's.
const RB_KINDS: [[WireKind; 3]; RB_FAMILY_COUNT] = {
    // `MwDeal` marks an empty cell: no RB row can be a private kind.
    let mut by = [[WireKind::MwDeal; 3]; RB_FAMILY_COUNT];
    let (mut k, mut filled) = (0, 0);
    while k < KINDS.len() {
        if let Some((family, step)) = KINDS[k].rb {
            let cell = &mut by[family.index()][step as usize];
            assert!(matches!(*cell, WireKind::MwDeal), "two rows, one step");
            *cell = KINDS[k].kind;
            filled += 1;
        }
        k += 1;
    }
    assert!(filled == 3 * RB_FAMILY_COUNT, "an RB step has no row");
    by
};

impl WireKind {
    #[inline]
    fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }

    /// The kind of `family`'s step `step`.
    #[inline]
    fn of(family: Family, step: RbStep) -> WireKind {
        RB_KINDS[family.index()][step as usize]
    }

    /// The scalar init kind of the slot family a vector member's head
    /// byte names ([`Family::index`]); `None` past the six slot families.
    fn slot_init(b: u8) -> Option<WireKind> {
        let kind = RB_KINDS.get(usize::from(b))?[RbStep::Init as usize];
        kind.slot_kind().map(|_| kind)
    }

    /// Decodes a discriminant byte.
    pub fn from_byte(b: u8) -> Option<WireKind> {
        KINDS.get(usize::from(b)).map(|row| row.kind)
    }

    /// Enumerates every kind (for exhaustive wire tests).
    pub fn all() -> impl Iterator<Item = WireKind> {
        KINDS.iter().map(|row| row.kind)
    }

    /// The RB step, for RB-carried kinds.
    pub fn rb_step(self) -> Option<RbStep> {
        self.row().rb.map(|(_, step)| step)
    }

    fn family(self) -> Option<Family> {
        self.row().rb.map(|(family, _)| family)
    }

    /// The SVSS slot family, for SVSS-RB kinds.
    pub fn slot_kind(self) -> Option<SlotKind> {
        match self.family()? {
            Family::Slot(slot) => Some(slot),
            _ => None,
        }
    }

    /// Whether this is coin-layer RB traffic (attach/support slots).
    pub fn is_coin_rb(self) -> bool {
        matches!(self.family(), Some(Family::Attach | Family::Support))
    }

    /// Whether this is agreement-layer RB traffic (a [`VoteSlot`]).
    pub fn is_vote_rb(self) -> bool {
        self.family() == Some(Family::Vote)
    }

    /// Whether this is a private point-to-point message.
    pub fn is_priv(self) -> bool {
        self.row().rb.is_none()
    }

    fn has_aux(self) -> bool {
        self.row().aux
    }

    fn p_width(self) -> usize {
        usize::from(self.row().p_width)
    }
}

/// Narrows a pid index to a packed excess-one byte (`index − 1`, so the
/// full `1..=MAX_N` range fits in a `u8`), panicking past the cap — the
/// same [`crate::MAX_N`] cap that bounds `MwId` and `ProcessSet`.
pub(crate) fn pack_pid(p: Pid) -> u8 {
    assert!(
        p.index() <= crate::MAX_N,
        "process index {} exceeds the packed-wire cap of {}",
        p.index(),
        crate::MAX_N
    );
    (p.index() - 1) as u8
}

/// Widens a packed excess-one byte back to the pid it names. Total:
/// every byte value is a valid index in `1..=MAX_N`.
pub(crate) fn unpack_pid(b: u8) -> Pid {
    Pid::new(u32::from(b) + 1)
}

/// An RB slot of the SVSS stack, packed the way [`MwId`] is packed: one
/// `u64` session tag plus single-byte process indices, a slot-family
/// byte, and one auxiliary byte (the `MwRecon` polynomial index) — 16
/// bytes total.
///
/// This type keys the hottest interning table in the stack (the RB mux's
/// `(origin, tag) → slot` index) and is stored once per live and once per
/// retired RB instance, so its size is paid ~2 × 10⁵ times per process.
/// Construct with the factory methods, match via [`SvssSlot::view`]:
///
/// ```
/// use sba_net::{MwId, Pid, SlotView, SvssId, SvssSlot};
///
/// let mw = MwId::standalone(7, Pid::new(1), Pid::new(2));
/// let slot = SvssSlot::mw_recon(mw, Pid::new(3));
/// match slot.view() {
///     SlotView::MwRecon(id, poly) => {
///         assert_eq!(id, mw);
///         assert_eq!(poly, Pid::new(3));
///     }
///     _ => unreachable!(),
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SvssSlot {
    tag: u64,
    /// `[parent_dealer, dealer, moderator, row, col]` for MW slots;
    /// `[dealer, 0, 0, 0, 0]` for SVSS-session slots.
    p: [u8; 5],
    /// The `MwRecon` polynomial index; 0 otherwise.
    aux: u8,
    kind: SlotKind,
}

/// The unpacked, pattern-matchable form of a [`SvssSlot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotView {
    /// MW share step 2: `ack` (origin: the acknowledging process).
    MwAck(MwId),
    /// MW share step 4: `L_j` (origin: monitor `j`).
    MwL(MwId),
    /// MW share step 6: `M` (origin: the moderator).
    MwM(MwId),
    /// MW share step 7: `OK` (origin: the dealer).
    MwOk(MwId),
    /// MW reconstruct step 1: the point of polynomial `f_l` held by the
    /// origin (second field is `l`).
    MwRecon(MwId, Pid),
    /// SVSS share step 5: the `G` sets (origin: the SVSS dealer).
    Gsets(SvssId),
}

fn pack_mw(mw: MwId) -> (u64, [u8; 5]) {
    (
        mw.parent().tag(),
        [
            pack_pid(mw.parent().dealer()),
            pack_pid(mw.dealer()),
            pack_pid(mw.moderator()),
            pack_pid(mw.row()),
            pack_pid(mw.col()),
        ],
    )
}

fn unpack_mw(tag: u64, p: [u8; 5]) -> MwId {
    MwId::nested(
        SvssId::new(tag, unpack_pid(p[0])),
        unpack_pid(p[1]),
        unpack_pid(p[2]),
        unpack_pid(p[3]),
        unpack_pid(p[4]),
    )
}

impl SvssSlot {
    fn mw(kind: SlotKind, mw: MwId, aux: u8) -> Self {
        let (tag, p) = pack_mw(mw);
        SvssSlot { tag, p, aux, kind }
    }

    /// The `ack` slot of an MW session.
    pub fn mw_ack(mw: MwId) -> Self {
        Self::mw(SlotKind::MwAck, mw, 0)
    }

    /// The `L_j` slot of an MW session.
    pub fn mw_l(mw: MwId) -> Self {
        Self::mw(SlotKind::MwL, mw, 0)
    }

    /// The `M` slot of an MW session.
    pub fn mw_m(mw: MwId) -> Self {
        Self::mw(SlotKind::MwM, mw, 0)
    }

    /// The `OK` slot of an MW session.
    pub fn mw_ok(mw: MwId) -> Self {
        Self::mw(SlotKind::MwOk, mw, 0)
    }

    /// The reconstruct-point slot for polynomial `poly` of an MW session.
    ///
    /// # Panics
    ///
    /// Panics if `poly`'s index exceeds the packed cap of [`crate::MAX_N`].
    pub fn mw_recon(mw: MwId, poly: Pid) -> Self {
        Self::mw(SlotKind::MwRecon, mw, pack_pid(poly))
    }

    /// The `G`-sets slot of an SVSS session.
    ///
    /// # Panics
    ///
    /// Panics if the dealer's index exceeds the packed cap of
    /// [`crate::MAX_N`].
    pub fn gsets(sid: SvssId) -> Self {
        SvssSlot {
            tag: sid.tag(),
            p: [pack_pid(sid.dealer()), 0, 0, 0, 0],
            aux: 0,
            kind: SlotKind::Gsets,
        }
    }

    /// The slot family.
    pub fn kind(self) -> SlotKind {
        self.kind
    }

    /// The unpacked form, for pattern matching.
    pub fn view(self) -> SlotView {
        match self.kind {
            SlotKind::MwAck => SlotView::MwAck(unpack_mw(self.tag, self.p)),
            SlotKind::MwL => SlotView::MwL(unpack_mw(self.tag, self.p)),
            SlotKind::MwM => SlotView::MwM(unpack_mw(self.tag, self.p)),
            SlotKind::MwOk => SlotView::MwOk(unpack_mw(self.tag, self.p)),
            SlotKind::MwRecon => {
                SlotView::MwRecon(unpack_mw(self.tag, self.p), unpack_pid(self.aux))
            }
            SlotKind::Gsets => SlotView::Gsets(SvssId::new(self.tag, unpack_pid(self.p[0]))),
        }
    }

    /// The session this slot belongs to, at DMM-ordering granularity.
    pub fn session_key(self) -> SessionKey {
        match self.view() {
            SlotView::MwAck(m)
            | SlotView::MwL(m)
            | SlotView::MwM(m)
            | SlotView::MwOk(m)
            | SlotView::MwRecon(m, _) => SessionKey::Mw(m),
            SlotView::Gsets(s) => SessionKey::Svss(s),
        }
    }
}

/// RB slots of the coin layer (paper §5 steps 2 and 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CoinSlot {
    /// "Attach these `t+1` dealers' secrets to me" (origin: the attached
    /// process).
    Attach(u64),
    /// "I have accepted this set of attached processes" (origin: the
    /// supporter).
    Support(u64),
}

impl CoinSlot {
    /// The coin session this slot belongs to.
    pub fn coin_tag(self) -> u64 {
        match self {
            CoinSlot::Attach(t) | CoinSlot::Support(t) => t,
        }
    }
}

/// RB slots of the vote layer (paper §5). All slots carry the ABA
/// instance id, so one node can run many agreement instances (e.g. one
/// per log slot) over a single shunning domain.
///
/// On the wire `(instance, round)` is the session tag and the phase is
/// one p-byte (`Report` 0 … `Decide` 3, whose round is 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoteSlot {
    /// Phase `A` (report) of a round.
    Report {
        /// The agreement instance.
        instance: u32,
        /// The round.
        round: u32,
    },
    /// Phase `B` (candidate) of a round.
    Candidate {
        /// The agreement instance.
        instance: u32,
        /// The round.
        round: u32,
    },
    /// Phase `C` (vote) of a round.
    Vote {
        /// The agreement instance.
        instance: u32,
        /// The round.
        round: u32,
    },
    /// The decide gossip (one slot per instance per process).
    Decide {
        /// The agreement instance.
        instance: u32,
    },
}

/// The `Kinded` labels of the vote phases, indexed by phase byte.
const VOTE_LABELS: [&str; 4] = ["aba/report", "aba/candidate", "aba/vote", "aba/decide"];
/// The phase byte of `VoteSlot::Vote`, the one phase whose value may be `⊥`.
const VOTE_PHASE: u8 = 2;

impl VoteSlot {
    /// The agreement instance this slot belongs to.
    pub fn instance(self) -> u32 {
        match self {
            VoteSlot::Report { instance, .. }
            | VoteSlot::Candidate { instance, .. }
            | VoteSlot::Vote { instance, .. }
            | VoteSlot::Decide { instance } => instance,
        }
    }

    /// `(session tag, phase byte)`.
    fn pack(self) -> (u64, u8) {
        let (instance, round, phase) = match self {
            VoteSlot::Report { instance, round } => (instance, round, 0),
            VoteSlot::Candidate { instance, round } => (instance, round, 1),
            VoteSlot::Vote { instance, round } => (instance, round, VOTE_PHASE),
            VoteSlot::Decide { instance } => (instance, 0, 3),
        };
        (u64::from(instance) << 32 | u64::from(round), phase)
    }

    /// The inverse of [`VoteSlot::pack`]; `None` for a phase byte out of
    /// range or a decide that names a round.
    fn unpack(tag: u64, phase: u8) -> Option<Self> {
        let (instance, round) = ((tag >> 32) as u32, tag as u32);
        match phase {
            0 => Some(VoteSlot::Report { instance, round }),
            1 => Some(VoteSlot::Candidate { instance, round }),
            VOTE_PHASE => Some(VoteSlot::Vote { instance, round }),
            3 if round == 0 => Some(VoteSlot::Decide { instance }),
            _ => None,
        }
    }
}

/// Values carried in vote slots: a bit (`A`/`B`/decide) or an optional
/// bit (`C`, where `None` is the vote `⊥`). The phase fixes the shape,
/// and the flat format has no spelling for any other pairing.
///
/// On the wire the value is the aux byte: the bit, or 2 for `⊥`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteValue {
    /// A report/candidate/decide bit.
    Bit(bool),
    /// A vote: `Some(bit)` or `None` for `⊥`.
    MaybeBit(Option<bool>),
}

impl VoteValue {
    fn pack(self) -> u8 {
        match self {
            VoteValue::Bit(b) | VoteValue::MaybeBit(Some(b)) => u8::from(b),
            VoteValue::MaybeBit(None) => 2,
        }
    }

    /// The value byte `b` read in a slot of phase `phase`; `None` where
    /// that phase cannot carry it.
    fn unpack(phase: u8, b: u8) -> Option<Self> {
        match (phase == VOTE_PHASE, b) {
            (false, 0 | 1) => Some(VoteValue::Bit(b == 1)),
            (true, 0 | 1) => Some(VoteValue::MaybeBit(Some(b == 1))),
            (true, 2) => Some(VoteValue::MaybeBit(None)),
            _ => None,
        }
    }
}

/// Body of a `MwDeal` — the only share message with more than one
/// polynomial, boxed so [`WireMsg`] stays at its pinned size for the
/// far more common point/ack traffic.
///
/// # Word-complexity diet (PR 5)
///
/// The deal grid the dealer hands recipient `j` overlaps: the row of
/// values `f_1(j), …, f_n(j)` and the coefficient vector of `f_j`
/// intersect in `f_j(j)`, so carrying all `n` values next to the full
/// monitor polynomial was redundant. The wire form drops the
/// recipient's own value (`others` has `n−1` entries) and the receiving
/// engine splices `f_j(j)` back in by evaluating `monitor_poly` at its
/// own index — field arithmetic is exact, so the spliced value is
/// bit-identical to what the dealer would have sent. Vector length
/// prefixes are a single byte (the packed-pid cap of 255 already bounds
/// every runnable length) and the moderator polynomial's presence flag
/// is merged into its length byte. `mw/deal` is the only multi-kilobyte
/// payload class in a full run, so these bytes are the word-complexity
/// lever the ROADMAP names; `crates/aba/tests/wire_sizes.rs` pins the
/// encoded size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MwDealBody<F> {
    /// `f_l(j)` for `l ≠ j`, ascending `l` (recipient is `j`; the
    /// recipient's own value `f_j(j)` is derived from `monitor_poly`).
    pub others: Vec<F>,
    /// Coefficients of `f_j`, degree ≤ t.
    pub monitor_poly: Vec<F>,
    /// Coefficients of `f`, present iff the recipient is the moderator.
    pub moderator_poly: Option<Vec<F>>,
}

/// Body of a `Rows` message (boxed for the same reason as
/// [`MwDealBody`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowsBody<F> {
    /// Coefficients of `g_j`, degree ≤ t.
    pub g: Vec<F>,
    /// Coefficients of `h_j`, degree ≤ t.
    pub h: Vec<F>,
}

/// Body of a `Gsets` broadcast, boxed to keep the RB payload enum two
/// words wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GsetsBody {
    /// The accepted set `G`.
    pub g: ProcessSet,
    /// `G_j` for each `j ∈ G`, keyed in ascending order.
    pub members: Vec<(Pid, ProcessSet)>,
}

/// Private point-to-point messages (share values and polynomials that
/// must stay secret). The structured construction/decomposition form of
/// the four private [`WireKind`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvssPriv<F> {
    /// MW-SVSS share step 1, dealer → each process `j`: the values
    /// `f_1(j), …, f_n(j)`, the monitor polynomial `f_j` (coefficients),
    /// and — for the moderator only — the master polynomial `f`.
    MwDeal {
        /// The MW session.
        mw: MwId,
        /// The polynomial payload.
        deal: Box<MwDealBody<F>>,
    },
    /// MW-SVSS share step 2, `j → l`: the value `f̂^j_l` (confirmation).
    MwPoint {
        /// The MW session.
        mw: MwId,
        /// `f̂^j_l` — what the sender received as `f_l(j)`.
        value: F,
    },
    /// MW-SVSS share step 4, monitor `j` → moderator: `f̂_j(0)`.
    MwMonitorValue {
        /// The MW session.
        mw: MwId,
        /// `f̂_j(0)`.
        value: F,
    },
    /// SVSS share step 1, dealer → each `j`: row and column polynomials
    /// `g_j(y) = f(j, y)` and `h_j(x) = f(x, j)` (coefficients).
    Rows {
        /// The SVSS session.
        session: SvssId,
        /// The row/column payload.
        rows: Box<RowsBody<F>>,
    },
}

impl<F> SvssPriv<F> {
    /// The session this message belongs to, at DMM-ordering granularity.
    pub fn session_key(&self) -> SessionKey {
        match self {
            SvssPriv::MwDeal { mw, .. }
            | SvssPriv::MwPoint { mw, .. }
            | SvssPriv::MwMonitorValue { mw, .. } => SessionKey::Mw(*mw),
            SvssPriv::Rows { session, .. } => SessionKey::Svss(*session),
        }
    }
}

/// Payload values carried in SVSS RB slots. Which variant a slot carries
/// is fixed by its [`SlotKind`] (the flat format enforces it on the
/// wire): `ack`/`OK` are [`SvssRbValue::Unit`], `L_j`/`M` are sets,
/// reconstruct points are field values, `G` sets are [`GsetsBody`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvssRbValue<F> {
    /// No content (`ack`, `OK`).
    Unit,
    /// A process set (`L_j`, `M`).
    Set(ProcessSet),
    /// A field element (reconstruct points).
    Value(F),
    /// The SVSS dealer's `G` and `{G_j : j ∈ G}` sets.
    Gsets(Box<GsetsBody>),
}

/// The 16-byte packed routing header of a [`WireMsg`]: the flat
/// [`WireKind`], the session tag, the packed process indices, and (for
/// RB kinds) the broadcast origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct WireKey {
    tag: u64,
    p: [u8; 5],
    aux: u8,
    kind: WireKind,
    origin: u8,
}

/// Body-slot storage for process sets. Sets confined to the first
/// bitmask word (indices `1..=64` — every seed-pinned workload) stay
/// inline; wider sets spill their word block to the heap. The inline
/// common case holds [`WireMsg`] at its pinned 32 bytes (~10⁶ messages
/// sit in the simulator's tick buckets in a full n=7 run), while the
/// spill path spans the full [`crate::MAX_N`] range.
///
/// Canonical-form invariant (enforced by [`CompactSet::pack`], the only
/// constructor): `Spilled` only when a high word is nonzero, so the
/// derived `Eq` agrees with set equality.
#[derive(Clone, Debug, PartialEq, Eq)]
enum CompactSet {
    Inline(u64),
    Spilled(Box<[u64; crate::pid::WORDS]>),
}

impl CompactSet {
    fn pack(s: ProcessSet) -> CompactSet {
        let w = s.as_words();
        if w[1..].iter().all(|&x| x == 0) {
            CompactSet::Inline(w[0])
        } else {
            CompactSet::Spilled(Box::new(w))
        }
    }

    fn expand(&self) -> ProcessSet {
        match self {
            CompactSet::Inline(w0) => {
                let mut w = [0u64; crate::pid::WORDS];
                w[0] = *w0;
                ProcessSet::from_words(w)
            }
            CompactSet::Spilled(w) => ProcessSet::from_words(**w),
        }
    }
}

/// The member list of a *vector broadcast*: the `(slot, value)` pairs one
/// origin issued in one step, carried by a single Bracha instance keyed
/// `(origin, seq)` and delivered member by member when it is accepted
/// (the rule is in the SVSS engine's module docs).
///
/// One thin shared pointer: the list is built once by its origin (once
/// per decoded frame member off a socket) and shared by refcount through
/// the init/echo/ready fan-out, the RB tallies and the simulator's queue,
/// so [`WireMsg`] keeps its pinned size and comparing two copies of one
/// list is a pointer compare. Members are held in their packed scalar
/// `Init` form, strictly ascending by slot — which makes the encoding
/// canonical and a repeated slot unrepresentable — and there are always
/// at least two: a lone value travels as the scalar message it always
/// was.
#[derive(Clone, Debug)]
pub struct RbVector<F>(Arc<VectorBody<F>>);

#[derive(Debug)]
struct VectorBody<F> {
    members: Vec<WireMsg<F>>,
    /// Encoded length of the member list, fixed at construction: the
    /// simulator prices every copy of every relay, and must not walk
    /// the list.
    wire_len: usize,
}

impl<F: PartialEq> PartialEq for RbVector<F> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.members == other.0.members
    }
}

impl<F: Eq> Eq for RbVector<F> {}

impl<F: Field> RbVector<F> {
    /// The vector `origin` broadcasts for `members`.
    ///
    /// # Panics
    ///
    /// Panics unless there are at least two members in strictly
    /// ascending slot order, or if a value does not fit its slot family
    /// (see [`WireMsg::rb`]).
    pub fn new(origin: Pid, members: impl IntoIterator<Item = (SvssSlot, SvssRbValue<F>)>) -> Self {
        let pack = |(slot, value)| WireMsg::rb(slot, origin, RbStep::Init, value);
        Self::from_members(members.into_iter().map(pack).collect())
            .expect("a vector holds two or more members, strictly ascending by slot")
    }

    /// Seals a list of packed scalar inits of one origin.
    fn from_members(members: Vec<WireMsg<F>>) -> Result<Self, CodecError> {
        let ascending = members.windows(2).all(|w| w[0].rb_slot() < w[1].rb_slot());
        if members.len() < 2 || !ascending {
            return Err(CodecError::Invalid);
        }
        let (mut wire_len, mut prev) = (4, None);
        for m in &members {
            wire_len += m.vector_member_len(prev);
            prev = Some(m);
        }
        Ok(RbVector(Arc::new(VectorBody { members, wire_len })))
    }

    /// The members' slots, ascending.
    pub fn slots(&self) -> impl Iterator<Item = SvssSlot> + '_ {
        self.0.members.iter().filter_map(WireMsg::rb_slot)
    }

    /// The members in vector order (values are cloned out of the shared
    /// list).
    pub fn iter(&self) -> impl Iterator<Item = (SvssSlot, SvssRbValue<F>)> + '_ {
        self.0.members.iter().map(|m| match m.clone().unpack() {
            Unpacked::Rb { slot, value, .. } => (slot, value),
            _ => unreachable!("vector members are scalar SVSS inits by construction"),
        })
    }

    /// Decodes the member list of a vector whose header named `origin`
    /// (packed). Rejects what the constructor cannot build: fewer than
    /// two members, or slots not strictly ascending.
    fn decode(r: &mut Reader<'_>, origin: u8) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        // Each member takes at least one byte; bound before reserving.
        if len > r.remaining() {
            return Err(CodecError::Invalid);
        }
        let mut members: Vec<WireMsg<F>> = crate::codec::reserve_decoded(len);
        for _ in 0..len {
            let m = WireMsg::decode_vector_member(r, members.last(), origin)?;
            members.push(m);
        }
        Self::from_members(members)
    }
}

/// The payload slot of a [`WireMsg`]: exactly one variant is legal per
/// [`WireKind`] (a construction invariant, enforced on decode).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Body<F> {
    Unit,
    Set(CompactSet),
    Value(F),
    Gsets(Box<GsetsBody>),
    Deal(Box<MwDealBody<F>>),
    Rows(Box<RowsBody<F>>),
    Vector(RbVector<F>),
}

/// One wire message of the stack in flat packed form: a 16-byte routing
/// key plus a 16-byte payload slot — 32 bytes for `F = Gf61`, pinned in
/// `crates/aba/tests/wire_sizes.rs`.
///
/// Construct with [`WireMsg::private`], [`WireMsg::rb`],
/// [`WireMsg::rb_vector`], [`WireMsg::coin_rb`] or [`WireMsg::vote_rb`];
/// decompose with [`WireMsg::unpack`] (total — the kind/body agreement
/// is a construction invariant). [`WireMsg::wire_kind`] is the
/// allocation-free peek for filters and tamper functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMsg<F> {
    key: WireKey,
    body: Body<F>,
}

/// The structured, pattern-matchable form of a [`WireMsg`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unpacked<F> {
    /// A private point-to-point message.
    Priv(SvssPriv<F>),
    /// An SVSS-stack reliable-broadcast message.
    Rb {
        /// The RB slot.
        slot: SvssSlot,
        /// The broadcasting process (RB dealer).
        origin: Pid,
        /// The RB protocol step.
        step: RbStep,
        /// The carried value.
        value: SvssRbValue<F>,
    },
    /// A vector reliable-broadcast message of the SVSS stack: one step
    /// of the Bracha instance `(origin, seq)`.
    RbVector {
        /// The broadcasting process (RB dealer).
        origin: Pid,
        /// The origin's sequence number for this vector.
        seq: u32,
        /// The RB protocol step.
        step: RbStep,
        /// The carried member list.
        members: RbVector<F>,
    },
    /// A coin-layer reliable-broadcast message.
    CoinRb {
        /// The RB slot.
        slot: CoinSlot,
        /// The broadcasting process (RB dealer).
        origin: Pid,
        /// The RB protocol step.
        step: RbStep,
        /// The carried attach/support set.
        set: ProcessSet,
    },
    /// An agreement-layer reliable-broadcast message.
    VoteRb {
        /// The RB slot.
        slot: VoteSlot,
        /// The broadcasting process (RB dealer).
        origin: Pid,
        /// The RB protocol step.
        step: RbStep,
        /// The carried value (of the shape the slot's phase fixes).
        value: VoteValue,
    },
}

impl<F: Field> WireMsg<F> {
    /// Wraps a private message.
    pub fn private(p: SvssPriv<F>) -> Self {
        let (kind, (tag, p), body) = match p {
            SvssPriv::MwDeal { mw, deal } => (WireKind::MwDeal, pack_mw(mw), Body::Deal(deal)),
            SvssPriv::MwPoint { mw, value } => (WireKind::MwPoint, pack_mw(mw), Body::Value(value)),
            SvssPriv::MwMonitorValue { mw, value } => {
                (WireKind::MwMval, pack_mw(mw), Body::Value(value))
            }
            SvssPriv::Rows { session, rows } => {
                let p = [pack_pid(session.dealer()), 0, 0, 0, 0];
                (WireKind::Rows, (session.tag(), p), Body::Rows(rows))
            }
        };
        WireMsg {
            key: WireKey {
                tag,
                p,
                aux: 0,
                kind,
                origin: 0,
            },
            body,
        }
    }

    /// Wraps an SVSS-stack RB message.
    ///
    /// # Panics
    ///
    /// Panics if `value`'s variant does not match the slot family's fixed
    /// payload shape (the flat wire format cannot represent a mismatch),
    /// or if `origin` exceeds the packed pid cap of [`crate::MAX_N`].
    pub fn rb(slot: SvssSlot, origin: Pid, step: RbStep, value: SvssRbValue<F>) -> Self {
        let kind = WireKind::of(Family::Slot(slot.kind), step);
        let body = match (kind.row().body, value) {
            (Shape::Unit, SvssRbValue::Unit) => Body::Unit,
            (Shape::Set, SvssRbValue::Set(s)) => Body::Set(CompactSet::pack(s)),
            (Shape::Value, SvssRbValue::Value(v)) => Body::Value(v),
            (Shape::Gsets, SvssRbValue::Gsets(b)) => Body::Gsets(b),
            (_, v) => panic!("slot family {:?} cannot carry payload {v:?}", slot.kind),
        };
        WireMsg {
            key: WireKey {
                tag: slot.tag,
                p: slot.p,
                aux: slot.aux,
                kind,
                origin: pack_pid(origin),
            },
            body,
        }
    }

    /// Wraps a coin-layer RB message.
    ///
    /// # Panics
    ///
    /// Panics if `origin` exceeds the packed pid cap of [`crate::MAX_N`].
    pub fn coin_rb(slot: CoinSlot, origin: Pid, step: RbStep, set: ProcessSet) -> Self {
        let (tag, family) = match slot {
            CoinSlot::Attach(t) => (t, Family::Attach),
            CoinSlot::Support(t) => (t, Family::Support),
        };
        WireMsg {
            key: WireKey {
                tag,
                p: [0; 5],
                aux: 0,
                kind: WireKind::of(family, step),
                origin: pack_pid(origin),
            },
            body: Body::Set(CompactSet::pack(set)),
        }
    }

    /// Wraps one step of the vector broadcast `(origin, seq)`.
    ///
    /// # Panics
    ///
    /// Panics if `origin` exceeds the packed pid cap of [`crate::MAX_N`].
    pub fn rb_vector(origin: Pid, seq: u32, step: RbStep, members: RbVector<F>) -> Self {
        WireMsg {
            key: WireKey {
                tag: u64::from(seq),
                p: [0; 5],
                aux: 0,
                kind: WireKind::of(Family::Vector, step),
                origin: pack_pid(origin),
            },
            body: Body::Vector(members),
        }
    }

    /// Wraps an agreement-layer RB message.
    ///
    /// # Panics
    ///
    /// Panics if `value`'s shape is not the one `slot`'s phase fixes (a
    /// `⊥` or `MaybeBit` outside the vote phase, a plain `Bit` inside
    /// it), or if `origin` exceeds the packed pid cap of
    /// [`crate::MAX_N`].
    pub fn vote_rb(slot: VoteSlot, origin: Pid, step: RbStep, value: VoteValue) -> Self {
        let (tag, phase) = slot.pack();
        let aux = value.pack();
        assert!(
            VoteValue::unpack(phase, aux) == Some(value),
            "vote slot {slot:?} cannot carry {value:?}"
        );
        WireMsg {
            key: WireKey {
                tag,
                p: [phase, 0, 0, 0, 0],
                aux,
                kind: WireKind::of(Family::Vote, step),
                origin: pack_pid(origin),
            },
            body: Body::Unit,
        }
    }

    /// The flat discriminant — the allocation-free peek for filters,
    /// schedulers, and tamper functions.
    #[inline]
    pub fn wire_kind(&self) -> WireKind {
        self.key.kind
    }

    /// The RB origin (broadcasting process) for RB kinds, without
    /// cloning or unpacking; `None` for private kinds.
    #[inline]
    pub fn origin(&self) -> Option<Pid> {
        if self.key.kind.is_priv() {
            None
        } else {
            Some(unpack_pid(self.key.origin))
        }
    }

    /// The adversary's handle on what a process *originates*: if this is
    /// an SVSS broadcast init — scalar, or a vector of them (a value
    /// rides a vector whenever its origin broadcast anything else in the
    /// same step) — offers every value it carries to `f` and returns the
    /// message with the values `f` replaced. `None` when this is no such
    /// init or `f` replaced nothing.
    pub fn rewrite_inits(
        &self,
        mut f: impl FnMut(SvssSlot, &SvssRbValue<F>) -> Option<SvssRbValue<F>>,
    ) -> Option<Self> {
        let kind = self.key.kind;
        if kind.rb_step() != Some(RbStep::Init) || kind.is_coin_rb() || kind.is_vote_rb() {
            return None;
        }
        match self.clone().unpack() {
            Unpacked::Rb {
                slot,
                origin,
                value,
                ..
            } => Some(WireMsg::rb(slot, origin, RbStep::Init, f(slot, &value)?)),
            Unpacked::RbVector {
                origin,
                seq,
                members,
                ..
            } => {
                let mut replaced = false;
                let members: Vec<_> = members
                    .iter()
                    .map(|(slot, value)| match f(slot, &value) {
                        Some(forged) => {
                            replaced = true;
                            (slot, forged)
                        }
                        None => (slot, value),
                    })
                    .collect();
                let forged = || RbVector::new(origin, members);
                replaced.then(|| WireMsg::rb_vector(origin, seq, RbStep::Init, forged()))
            }
            _ => None,
        }
    }

    /// The RB slot, for scalar SVSS-RB kinds.
    fn rb_slot(&self) -> Option<SvssSlot> {
        Some(SvssSlot {
            tag: self.key.tag,
            p: self.key.p,
            aux: self.key.aux,
            kind: self.key.kind.slot_kind()?,
        })
    }

    /// Decomposes into the structured form (total: the kind/body
    /// agreement is a construction invariant).
    pub fn unpack(self) -> Unpacked<F> {
        let WireMsg { key, body } = self;
        let Some((family, step)) = key.kind.row().rb else {
            let p = match (key.kind, body) {
                (WireKind::MwDeal, Body::Deal(deal)) => SvssPriv::MwDeal {
                    mw: unpack_mw(key.tag, key.p),
                    deal,
                },
                (WireKind::MwPoint, Body::Value(value)) => SvssPriv::MwPoint {
                    mw: unpack_mw(key.tag, key.p),
                    value,
                },
                (WireKind::MwMval, Body::Value(value)) => SvssPriv::MwMonitorValue {
                    mw: unpack_mw(key.tag, key.p),
                    value,
                },
                (WireKind::Rows, Body::Rows(rows)) => SvssPriv::Rows {
                    session: SvssId::new(key.tag, unpack_pid(key.p[0])),
                    rows,
                },
                _ => unreachable!("kind/body agreement is a construction invariant"),
            };
            return Unpacked::Priv(p);
        };
        let origin = unpack_pid(key.origin);
        let coin = |slot, body| {
            let Body::Set(set) = body else {
                unreachable!("coin RB bodies are sets by construction")
            };
            Unpacked::CoinRb {
                slot,
                origin,
                step,
                set: set.expand(),
            }
        };
        match family {
            Family::Vote => {
                let phase = key.p[0];
                Unpacked::VoteRb {
                    slot: VoteSlot::unpack(key.tag, phase).expect("checked at construction"),
                    origin,
                    step,
                    value: VoteValue::unpack(phase, key.aux).expect("checked at construction"),
                }
            }
            Family::Attach => coin(CoinSlot::Attach(key.tag), body),
            Family::Support => coin(CoinSlot::Support(key.tag), body),
            Family::Vector => {
                let Body::Vector(members) = body else {
                    unreachable!("vector kinds carry member lists by construction")
                };
                Unpacked::RbVector {
                    origin,
                    seq: key.tag as u32,
                    step,
                    members,
                }
            }
            Family::Slot(kind) => {
                let value = match body {
                    Body::Unit => SvssRbValue::Unit,
                    Body::Set(s) => SvssRbValue::Set(s.expand()),
                    Body::Value(v) => SvssRbValue::Value(v),
                    Body::Gsets(b) => SvssRbValue::Gsets(b),
                    Body::Deal(_) | Body::Rows(_) | Body::Vector(_) => {
                        unreachable!("private and vector bodies never ride scalar RB kinds")
                    }
                };
                let slot = SvssSlot {
                    tag: key.tag,
                    p: key.p,
                    aux: key.aux,
                    kind,
                };
                Unpacked::Rb {
                    slot,
                    origin,
                    step,
                    value,
                }
            }
        }
    }
}

/// Field-vector length cap on the wire (single-byte prefix). The longest
/// vector any message carries is an `MwDeal`'s `others` with `n − 1`
/// entries, so the one-byte prefix spans every runnable length even at
/// `n = MAX_N`.
const FIELD_VEC_CAP: usize = 255;
const _: () = assert!(
    crate::MAX_N as usize - 1 <= FIELD_VEC_CAP,
    "one-byte vector length prefix must span n - 1 entries"
);

fn put_field_vec<F: Field>(v: &[F], buf: &mut Vec<u8>) {
    assert!(
        v.len() <= FIELD_VEC_CAP,
        "field vector of {} elements exceeds the wire cap of {FIELD_VEC_CAP}",
        v.len()
    );
    buf.push(v.len() as u8);
    for &x in v {
        put_field(x, buf);
    }
}

fn field_vec_len<F>(v: &[F]) -> usize {
    1 + 8 * v.len()
}

fn get_field_vec<F: Field>(r: &mut Reader<'_>) -> Result<Vec<F>, CodecError> {
    let len = r.byte()? as usize;
    if len * 8 > r.remaining() {
        return Err(CodecError::Invalid);
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_field(r)?);
    }
    Ok(out)
}

/// Encodes a G-sets member table: the member pids as one adaptive
/// [`ProcessSet`] keyset, then each member's set in ascending key order.
/// Canonical because the table is built by iterating `G` (ascending,
/// unique); the asserts pin that construction invariant.
fn put_members(members: &[(Pid, ProcessSet)], buf: &mut Vec<u8>) {
    assert!(
        members.windows(2).all(|w| w[0].0 < w[1].0),
        "G-set member keys must be strictly ascending"
    );
    let keys: ProcessSet = members.iter().map(|&(p, _)| p).collect();
    keys.encode(buf);
    for (_, s) in members {
        s.encode(buf);
    }
}

fn members_len(members: &[(Pid, ProcessSet)]) -> usize {
    let keys: ProcessSet = members.iter().map(|&(p, _)| p).collect();
    keys.encoded_len() + members.iter().map(|(_, s)| s.encoded_len()).sum::<usize>()
}

fn get_members(r: &mut Reader<'_>) -> Result<Vec<(Pid, ProcessSet)>, CodecError> {
    let keys = ProcessSet::decode(r)?;
    let mut out = Vec::with_capacity(keys.len());
    for p in keys.iter() {
        out.push((p, ProcessSet::decode(r)?));
    }
    Ok(out)
}

/// Frame prelude flag: this member reuses its predecessor's session tag.
const FRAME_SAME_TAG: u8 = 1 << 0;
/// Frame prelude flag: this member reuses its predecessor's p-bytes.
const FRAME_SAME_P: u8 = 1 << 1;

impl<F: Field> Wire for WireMsg<F> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.key.kind as u8);
        self.key.tag.encode(buf);
        buf.extend_from_slice(&self.key.p[..self.key.kind.p_width()]);
        self.encode_tail(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kb = r.byte()?;
        let kind = WireKind::from_byte(kb).ok_or(CodecError::BadDiscriminant(kb))?;
        let mut key = WireKey {
            tag: u64::decode(r)?,
            p: [0; 5],
            aux: 0,
            kind,
            origin: 0,
        };
        let pw = kind.p_width();
        key.p[..pw].copy_from_slice(r.take(pw)?);
        let body = Self::decode_tail(r, &mut key)?;
        Ok(WireMsg { key, body })
    }

    fn encoded_len(&self) -> usize {
        1 + 8 + self.key.kind.p_width() + self.tail_len()
    }

    /// Exact byte length of the key-delta frame-member encoding
    /// ([`crate::FramedWire`]), without serializing: a prelude byte plus
    /// the standalone form, less the header fields `prev` lets it elide.
    fn framed_wire_len(&self, prev: Option<&Self>) -> usize {
        let (same_tag, same_p) = self.frame_flags(prev);
        1 + self.encoded_len()
            - if same_tag { 8 } else { 0 }
            - if same_p { self.key.kind.p_width() } else { 0 }
    }
}

impl<F: Field> WireMsg<F> {
    /// Everything after the `[kind][tag][p-bytes]` header: the aux /
    /// origin bytes and the body. Shared by the standalone and framed
    /// encodings, which differ only in how they spell the header.
    fn encode_tail(&self, buf: &mut Vec<u8>) {
        let kind = self.key.kind;
        if kind.has_aux() {
            buf.push(self.key.aux);
        }
        if !kind.is_priv() {
            buf.push(self.key.origin);
        }
        self.encode_body(buf);
    }

    fn encode_body(&self, buf: &mut Vec<u8>) {
        match &self.body {
            Body::Unit => {}
            Body::Set(s) => s.expand().encode(buf),
            Body::Value(v) => put_field(*v, buf),
            Body::Gsets(b) => {
                b.g.encode(buf);
                put_members(&b.members, buf);
            }
            Body::Deal(d) => {
                put_field_vec(&d.others, buf);
                put_field_vec(&d.monitor_poly, buf);
                // Presence flag and length share one byte: 0 = absent,
                // k = present with k−1 coefficients.
                match &d.moderator_poly {
                    None => buf.push(0),
                    Some(p) => {
                        assert!(
                            p.len() < FIELD_VEC_CAP,
                            "moderator polynomial exceeds the wire cap"
                        );
                        buf.push(p.len() as u8 + 1);
                        for &x in p {
                            put_field(x, buf);
                        }
                    }
                }
            }
            Body::Rows(rows) => {
                put_field_vec(&rows.g, buf);
                put_field_vec(&rows.h, buf);
            }
            Body::Vector(v) => {
                (v.0.members.len() as u32).encode(buf);
                let mut prev = None;
                for m in &v.0.members {
                    m.encode_vector_member(prev, buf);
                    prev = Some(m);
                }
            }
        }
    }

    fn decode_tail(r: &mut Reader<'_>, key: &mut WireKey) -> Result<Body<F>, CodecError> {
        if key.kind.has_aux() {
            key.aux = r.byte()?;
        }
        if !key.kind.is_priv() {
            key.origin = r.byte()?;
        }
        Self::decode_body(r, key)
    }

    /// The body `key.kind` prescribes (one shape per kind: that is what
    /// keeps the kind/body agreement a decode-time invariant).
    fn decode_body(r: &mut Reader<'_>, key: &WireKey) -> Result<Body<F>, CodecError> {
        let body = match key.kind.row().body {
            Shape::Deal => {
                let others = get_field_vec(r)?;
                let monitor_poly = get_field_vec(r)?;
                let moderator_poly = match r.byte()? as usize {
                    0 => None,
                    k => {
                        let len = k - 1;
                        if len * 8 > r.remaining() {
                            return Err(CodecError::Invalid);
                        }
                        let mut p = Vec::with_capacity(len);
                        for _ in 0..len {
                            p.push(get_field(r)?);
                        }
                        Some(p)
                    }
                };
                Body::Deal(Box::new(MwDealBody {
                    others,
                    monitor_poly,
                    moderator_poly,
                }))
            }
            Shape::Rows => {
                let g = get_field_vec(r)?;
                let h = get_field_vec(r)?;
                Body::Rows(Box::new(RowsBody { g, h }))
            }
            Shape::Value => Body::Value(get_field(r)?),
            Shape::Unit => Body::Unit,
            Shape::Set => Body::Set(CompactSet::pack(ProcessSet::decode(r)?)),
            Shape::Gsets => Body::Gsets(Box::new(GsetsBody {
                g: ProcessSet::decode(r)?,
                members: get_members(r)?,
            })),
            Shape::Vector => {
                if key.tag > u64::from(u32::MAX) {
                    return Err(CodecError::Invalid);
                }
                Body::Vector(RbVector::decode(r, key.origin)?)
            }
            // The phase p-byte, a decide's empty round and the value's
            // shape are what a vote key can get wrong.
            Shape::Vote => {
                let phase = key.p[0];
                if VoteSlot::unpack(key.tag, phase).is_none()
                    || VoteValue::unpack(phase, key.aux).is_none()
                {
                    return Err(CodecError::Invalid);
                }
                Body::Unit
            }
        };
        Ok(body)
    }

    /// Byte length of [`WireMsg::encode_tail`], computed arithmetically.
    fn tail_len(&self) -> usize {
        let kind = self.key.kind;
        usize::from(kind.has_aux()) + usize::from(!kind.is_priv()) + self.body_len()
    }

    fn body_len(&self) -> usize {
        match &self.body {
            Body::Unit => 0,
            Body::Set(s) => s.expand().encoded_len(),
            Body::Value(_) => 8,
            Body::Gsets(b) => b.g.encoded_len() + members_len(&b.members),
            Body::Deal(d) => {
                field_vec_len(&d.others)
                    + field_vec_len(&d.monitor_poly)
                    + 1
                    + d.moderator_poly.as_ref().map_or(0, |p| 8 * p.len())
            }
            Body::Rows(rows) => field_vec_len(&rows.g) + field_vec_len(&rows.h),
            Body::Vector(v) => v.0.wire_len,
        }
    }

    /// How much of a vector member's header its predecessor spells
    /// already: whether the tag repeats, and how many leading p-bytes
    /// do. Members ascend by slot — `(tag, p, aux, family)` — so
    /// neighbours are the sessions closest to each other and the shared
    /// prefix is long.
    fn member_delta(&self, prev: Option<&Self>) -> (bool, usize) {
        let Some(q) = prev else {
            return (false, 0);
        };
        let pw = self.key.kind.p_width();
        let differ = |k: &usize| q.key.p[*k] != self.key.p[*k];
        (
            q.key.tag == self.key.tag,
            (0..pw).find(differ).unwrap_or(pw),
        )
    }

    /// Appends this scalar SVSS init as a member of its origin's vector:
    /// a head byte (slot family, tag-repeats flag, shared p-prefix
    /// length), the header fields the predecessor does not spell, and
    /// the body. The origin is the vector's and is not repeated. The
    /// encoder always takes the longest prefix and
    /// [`WireMsg::decode_vector_member`] refuses anything shorter, so
    /// the member form is canonical.
    fn encode_vector_member(&self, prev: Option<&Self>, buf: &mut Vec<u8>) {
        let kind = self.key.kind;
        let slot = kind.slot_kind().expect("members are SVSS RB");
        let (same_tag, shared) = self.member_delta(prev);
        buf.push(slot as u8 | u8::from(same_tag) << 3 | (shared as u8) << 4);
        if !same_tag {
            self.key.tag.encode(buf);
        }
        buf.extend_from_slice(&self.key.p[shared..kind.p_width()]);
        if kind.has_aux() {
            buf.push(self.key.aux);
        }
        self.encode_body(buf);
    }

    /// Exact byte length of [`WireMsg::encode_vector_member`].
    fn vector_member_len(&self, prev: Option<&Self>) -> usize {
        let (same_tag, shared) = self.member_delta(prev);
        1 + if same_tag { 0 } else { 8 } + self.key.kind.p_width() - shared
            + usize::from(self.key.kind.has_aux())
            + self.body_len()
    }

    /// Decodes one member of `origin`'s vector against its predecessor.
    fn decode_vector_member(
        r: &mut Reader<'_>,
        prev: Option<&Self>,
        origin: u8,
    ) -> Result<Self, CodecError> {
        let head = r.byte()?;
        let kind = WireKind::slot_init(head & 7).ok_or(CodecError::Invalid)?;
        let (same_tag, shared) = (head & 8 != 0, usize::from(head >> 4));
        let pw = kind.p_width();
        if shared > pw || (prev.is_none() && (same_tag || shared > 0)) {
            return Err(CodecError::Invalid);
        }
        let (prev_tag, prev_p) = prev.map_or((None, [0; 5]), |q| (Some(q.key.tag), q.key.p));
        let mut key = WireKey {
            tag: 0,
            p: [0; 5],
            aux: 0,
            kind,
            origin,
        };
        key.tag = match prev_tag {
            Some(tag) if same_tag => tag,
            _ => u64::decode(r)?,
        };
        key.p[..shared].copy_from_slice(&prev_p[..shared]);
        key.p[shared..pw].copy_from_slice(r.take(pw - shared)?);
        // Non-minimal: the flag, or a longer prefix, was available.
        if (!same_tag && prev_tag == Some(key.tag))
            || (shared < pw && prev.is_some() && prev_p[shared] == key.p[shared])
        {
            return Err(CodecError::Invalid);
        }
        if kind.has_aux() {
            key.aux = r.byte()?;
        }
        let body = Self::decode_body(r, &key)?;
        Ok(WireMsg { key, body })
    }

    /// Whether `prev` lets the frame form elide the tag and/or p-bytes.
    fn frame_flags(&self, prev: Option<&Self>) -> (bool, bool) {
        match prev {
            None => (false, false),
            Some(q) => (
                q.key.tag == self.key.tag,
                self.key.kind.p_width() > 0 && q.key.p == self.key.p,
            ),
        }
    }
}

/// The key-delta frame-member form: a one-byte prelude whose flags say
/// which header fields repeat the previous frame member's (which are
/// then omitted), the kind byte, the surviving header fields, and the
/// tail. The encoder always takes an available elision and the decoder
/// rejects a spelled-out field equal to the predecessor's, so the frame
/// form is canonical the same way the standalone form is.
impl<F: Field> crate::FramedWire for WireMsg<F> {
    fn encode_framed_member(&self, prev: Option<&Self>, buf: &mut Vec<u8>) {
        let (same_tag, same_p) = self.frame_flags(prev);
        let mut prelude = 0u8;
        if same_tag {
            prelude |= FRAME_SAME_TAG;
        }
        if same_p {
            prelude |= FRAME_SAME_P;
        }
        buf.push(prelude);
        buf.push(self.key.kind as u8);
        if !same_tag {
            self.key.tag.encode(buf);
        }
        if !same_p {
            buf.extend_from_slice(&self.key.p[..self.key.kind.p_width()]);
        }
        self.encode_tail(buf);
    }

    /// Decodes one frame member, resolving elided header fields against
    /// `prev` (`None` for the first member, which may elide nothing).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, unknown prelude bits, an
    /// elision with no predecessor (or one whose unused p-bytes are
    /// nonzero for this kind), or a non-minimal spelling — a tag or
    /// p-prefix written out despite matching the predecessor's.
    fn decode_framed_member(r: &mut Reader<'_>, prev: Option<&Self>) -> Result<Self, CodecError> {
        let prelude = r.byte()?;
        if prelude & !(FRAME_SAME_TAG | FRAME_SAME_P) != 0 {
            return Err(CodecError::Invalid);
        }
        let same_tag = prelude & FRAME_SAME_TAG != 0;
        let same_p = prelude & FRAME_SAME_P != 0;
        let kb = r.byte()?;
        let kind = WireKind::from_byte(kb).ok_or(CodecError::BadDiscriminant(kb))?;
        let pw = kind.p_width();
        let mut key = WireKey {
            tag: 0,
            p: [0; 5],
            aux: 0,
            kind,
            origin: 0,
        };
        if same_tag {
            key.tag = prev.ok_or(CodecError::Invalid)?.key.tag;
        } else {
            key.tag = u64::decode(r)?;
            if prev.is_some_and(|q| q.key.tag == key.tag) {
                return Err(CodecError::Invalid); // non-minimal: elision was available
            }
        }
        if same_p {
            let q = prev.ok_or(CodecError::Invalid)?;
            // Copying the whole array must not smuggle bytes this kind
            // never spells out.
            if pw == 0 || q.key.p[pw..].iter().any(|&b| b != 0) {
                return Err(CodecError::Invalid);
            }
            key.p = q.key.p;
        } else {
            key.p[..pw].copy_from_slice(r.take(pw)?);
            if pw > 0 && prev.is_some_and(|q| q.key.p == key.p) {
                return Err(CodecError::Invalid); // non-minimal: elision was available
            }
        }
        let body = Self::decode_tail(r, &mut key)?;
        Ok(WireMsg { key, body })
    }
}

/// Encodes a per-recipient frame: a `u32` member count, then each
/// message in its frame-member form against its predecessor (for
/// [`WireMsg`], the key-delta form).
pub fn encode_frame<T: crate::FramedWire>(msgs: &[T], buf: &mut Vec<u8>) {
    (msgs.len() as u32).encode(buf);
    let mut prev = None;
    for m in msgs {
        m.encode_framed_member(prev, buf);
        prev = Some(m);
    }
}

/// Exact byte length of [`encode_frame`], without serializing.
pub fn frame_len<T: crate::FramedWire>(msgs: &[T]) -> usize {
    let mut prev = None;
    let mut n = 4;
    for m in msgs {
        n += m.framed_wire_len(prev);
        prev = Some(m);
    }
    n
}

/// Decodes a per-recipient frame encoded by [`encode_frame`].
///
/// # Errors
///
/// Returns a [`CodecError`] if any member is truncated, malformed, or
/// non-minimally framed.
pub fn decode_frame<T: crate::FramedWire>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(r)? as usize;
    // Each framed member is ≥ 2 bytes; bound before allocating.
    if len > r.remaining() {
        return Err(CodecError::Invalid);
    }
    let mut out: Vec<T> = crate::codec::reserve_decoded(len);
    for _ in 0..len {
        let m = T::decode_framed_member(r, out.last())?;
        out.push(m);
    }
    Ok(out)
}

impl<F> Kinded for WireMsg<F> {
    fn kind(&self) -> &'static str {
        // Every RB step of a vote carries its phase's label.
        if self.key.kind.is_vote_rb() {
            VOTE_LABELS[usize::from(self.key.p[0])]
        } else {
            self.key.kind.row().label
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;

    fn mw_id() -> MwId {
        MwId::nested(
            SvssId::new(9, Pid::new(1)),
            Pid::new(2),
            Pid::new(3),
            Pid::new(3),
            Pid::new(2),
        )
    }

    /// A three-member vector of `origin`: an ack, an `L` set and a
    /// reconstruct point, ascending by slot.
    fn vector(origin: Pid) -> RbVector<Gf61> {
        let mut members = vec![
            (SvssSlot::mw_ack(mw_id()), SvssRbValue::Unit),
            (
                SvssSlot::mw_l(mw_id()),
                SvssRbValue::Set(Pid::all(3).collect()),
            ),
            (
                SvssSlot::mw_recon(mw_id(), Pid::new(4)),
                SvssRbValue::Value(Gf61::from_u64(7)),
            ),
        ];
        members.sort_unstable_by_key(|m| m.0);
        RbVector::new(origin, members)
    }

    /// The table's accessors agree with it and with its inverse.
    #[test]
    fn kind_table_is_consistent() {
        for kind in WireKind::all() {
            assert_eq!(WireKind::from_byte(kind as u8), Some(kind));
            assert_eq!(kind.is_priv(), kind.rb_step().is_none());
            if let Some((family, step)) = kind.row().rb {
                assert_eq!(WireKind::of(family, step), kind);
            }
        }
        assert_eq!(WireKind::from_byte(WIRE_KIND_COUNT), None);
        assert_eq!(WireKind::all().count(), usize::from(WIRE_KIND_COUNT));
    }

    #[test]
    fn slot_views_round_trip() {
        let mw = mw_id();
        assert_eq!(SvssSlot::mw_ack(mw).view(), SlotView::MwAck(mw));
        assert_eq!(SvssSlot::mw_l(mw).view(), SlotView::MwL(mw));
        assert_eq!(SvssSlot::mw_m(mw).view(), SlotView::MwM(mw));
        assert_eq!(SvssSlot::mw_ok(mw).view(), SlotView::MwOk(mw));
        assert_eq!(
            SvssSlot::mw_recon(mw, Pid::new(4)).view(),
            SlotView::MwRecon(mw, Pid::new(4))
        );
        let sid = SvssId::new(2, Pid::new(1));
        assert_eq!(SvssSlot::gsets(sid).view(), SlotView::Gsets(sid));
        assert_eq!(SvssSlot::mw_ack(mw).session_key(), SessionKey::Mw(mw),);
        assert_eq!(SvssSlot::gsets(sid).session_key(), SessionKey::Svss(sid),);
    }

    #[test]
    fn four_slots_per_mw_session_are_distinct() {
        let mw = mw_id();
        let slots = [
            SvssSlot::mw_ack(mw),
            SvssSlot::mw_l(mw),
            SvssSlot::mw_m(mw),
            SvssSlot::mw_ok(mw),
        ];
        for (i, a) in slots.iter().enumerate() {
            for b in &slots[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn pack_unpack_is_identity() {
        let f = |v: u64| Gf61::from_u64(v);
        let cases: Vec<WireMsg<Gf61>> = vec![
            WireMsg::private(SvssPriv::MwPoint {
                mw: mw_id(),
                value: f(9),
            }),
            WireMsg::rb(
                SvssSlot::mw_recon(mw_id(), Pid::new(4)),
                Pid::new(2),
                RbStep::Echo,
                SvssRbValue::Value(f(7)),
            ),
            WireMsg::coin_rb(
                CoinSlot::Support(3),
                Pid::new(1),
                RbStep::Ready,
                Pid::all(3).collect(),
            ),
            WireMsg::rb_vector(Pid::new(2), 7, RbStep::Echo, vector(Pid::new(2))),
            WireMsg::vote_rb(
                VoteSlot::Vote {
                    instance: u32::MAX,
                    round: 3,
                },
                Pid::new(5),
                RbStep::Ready,
                VoteValue::MaybeBit(None),
            ),
            WireMsg::vote_rb(
                VoteSlot::Decide { instance: 2 },
                Pid::new(1),
                RbStep::Init,
                VoteValue::Bit(true),
            ),
        ];
        for msg in cases {
            let back = match msg.clone().unpack() {
                Unpacked::Priv(p) => WireMsg::private(p),
                Unpacked::Rb {
                    slot,
                    origin,
                    step,
                    value,
                } => WireMsg::rb(slot, origin, step, value),
                Unpacked::CoinRb {
                    slot,
                    origin,
                    step,
                    set,
                } => WireMsg::coin_rb(slot, origin, step, set),
                Unpacked::RbVector {
                    origin,
                    seq,
                    step,
                    members,
                } => WireMsg::rb_vector(origin, seq, step, members),
                Unpacked::VoteRb {
                    slot,
                    origin,
                    step,
                    value,
                } => WireMsg::vote_rb(slot, origin, step, value),
            };
            assert_eq!(back, msg);
        }
    }

    /// A phase fixes its value's shape: no bare bit in the vote phase,
    /// no `⊥` (or `MaybeBit` at all) outside it.
    #[test]
    fn mismatched_vote_payloads_rejected() {
        let report = VoteSlot::Report {
            instance: 0,
            round: 1,
        };
        let vote = VoteSlot::Vote {
            instance: 0,
            round: 1,
        };
        for (slot, value) in [
            (report, VoteValue::MaybeBit(None)),
            (report, VoteValue::MaybeBit(Some(true))),
            (vote, VoteValue::Bit(false)),
        ] {
            let built = std::panic::catch_unwind(|| {
                WireMsg::<Gf61>::vote_rb(slot, Pid::new(1), RbStep::Init, value)
            });
            assert!(built.is_err(), "{slot:?} carried {value:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot carry payload")]
    fn mismatched_rb_payload_rejected() {
        let _ = WireMsg::<Gf61>::rb(
            SvssSlot::mw_ack(mw_id()),
            Pid::new(1),
            RbStep::Init,
            SvssRbValue::Value(Gf61::from_u64(1)),
        );
    }

    #[test]
    fn flat_sizes() {
        assert_eq!(std::mem::size_of::<WireKey>(), 16);
        assert_eq!(std::mem::size_of::<SvssSlot>(), 16);
        // The 4-word ProcessSet does not fit the 16-byte body slot;
        // CompactSet keeps the word-0 common case inline so the struct
        // stays at its historical 32 bytes.
        assert_eq!(std::mem::size_of::<CompactSet>(), 16);
        assert_eq!(std::mem::size_of::<WireMsg<Gf61>>(), 32);
    }

    #[test]
    fn encoded_matches_arithmetic_len() {
        let f = |v: u64| Gf61::from_u64(v);
        let msgs: Vec<WireMsg<Gf61>> = vec![
            WireMsg::private(SvssPriv::MwDeal {
                mw: mw_id(),
                deal: Box::new(MwDealBody {
                    others: vec![f(1), f(2)],
                    monitor_poly: vec![f(3)],
                    moderator_poly: Some(vec![f(4)]),
                }),
            }),
            WireMsg::private(SvssPriv::Rows {
                session: SvssId::new(4, Pid::new(2)),
                rows: Box::new(RowsBody {
                    g: vec![f(1)],
                    h: vec![f(2), f(3)],
                }),
            }),
            WireMsg::rb(
                SvssSlot::mw_l(mw_id()),
                Pid::new(3),
                RbStep::Init,
                SvssRbValue::Set(Pid::all(4).collect()),
            ),
            WireMsg::rb(
                SvssSlot::gsets(SvssId::new(1, Pid::new(1))),
                Pid::new(1),
                RbStep::Ready,
                SvssRbValue::Gsets(Box::new(GsetsBody {
                    g: Pid::all(2).collect(),
                    members: vec![(Pid::new(1), Pid::all(2).collect())],
                })),
            ),
            WireMsg::coin_rb(
                CoinSlot::Attach(77),
                Pid::new(2),
                RbStep::Init,
                Pid::all(2).collect(),
            ),
            WireMsg::rb_vector(Pid::new(3), 1, RbStep::Init, vector(Pid::new(3))),
        ];
        for msg in msgs {
            let bytes = msg.encoded();
            assert_eq!(msg.encoded_len(), bytes.len(), "{msg:?}");
            let mut r = Reader::new(&bytes);
            assert_eq!(WireMsg::<Gf61>::decode(&mut r).unwrap(), msg);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn kind_labels_match_the_metrics_contract() {
        let msg: WireMsg<Gf61> = WireMsg::rb(
            SvssSlot::mw_ack(mw_id()),
            Pid::new(1),
            RbStep::Echo,
            SvssRbValue::Unit,
        );
        assert_eq!(msg.kind(), "rb/echo");
        let msg: WireMsg<Gf61> = WireMsg::coin_rb(
            CoinSlot::Attach(1),
            Pid::new(1),
            RbStep::Ready,
            ProcessSet::new(),
        );
        assert_eq!(msg.kind(), "coin/attach");
        let msg: WireMsg<Gf61> = WireMsg::private(SvssPriv::MwPoint {
            mw: mw_id(),
            value: Gf61::from_u64(0),
        });
        assert_eq!(msg.kind(), "mw/point");
        // A vote's label is its phase's, whatever the RB step.
        for (slot, value, label) in [
            (
                VoteSlot::Report {
                    instance: 1,
                    round: 2,
                },
                VoteValue::Bit(true),
                "aba/report",
            ),
            (
                VoteSlot::Candidate {
                    instance: 1,
                    round: 2,
                },
                VoteValue::Bit(false),
                "aba/candidate",
            ),
            (
                VoteSlot::Vote {
                    instance: 1,
                    round: 2,
                },
                VoteValue::MaybeBit(None),
                "aba/vote",
            ),
            (
                VoteSlot::Decide { instance: 1 },
                VoteValue::Bit(true),
                "aba/decide",
            ),
        ] {
            for step in [RbStep::Init, RbStep::Echo, RbStep::Ready] {
                let msg: WireMsg<Gf61> = WireMsg::vote_rb(slot, Pid::new(3), step, value);
                assert_eq!(msg.kind(), label);
                assert!(msg.wire_kind().is_vote_rb());
                assert_eq!(msg.wire_kind().rb_step(), Some(step));
                assert_eq!(msg.origin(), Some(Pid::new(3)));
            }
        }
    }

    #[test]
    fn vector_kinds_keep_the_rb_labels_and_the_pinned_size() {
        for (step, label) in [
            (RbStep::Init, "rb/init"),
            (RbStep::Echo, "rb/echo"),
            (RbStep::Ready, "rb/ready"),
        ] {
            let msg = WireMsg::rb_vector(Pid::new(1), 9, step, vector(Pid::new(1)));
            assert_eq!(msg.kind(), label);
            assert_eq!(msg.wire_kind().family(), Some(Family::Vector));
            assert_eq!(msg.wire_kind().rb_step(), Some(step));
            assert_eq!(msg.origin(), Some(Pid::new(1)));
        }
        assert_eq!(std::mem::size_of::<RbVector<Gf61>>(), 8);
    }

    /// Copies of one list compare by pointer; a decoded duplicate
    /// compares equal by content.
    #[test]
    fn vector_equality_is_by_pointer_then_by_content() {
        let v = vector(Pid::new(2));
        assert_eq!(v, v.clone());
        assert_eq!(v, vector(Pid::new(2)));
        assert_ne!(v, vector(Pid::new(3)));
        let slots: Vec<SvssSlot> = v.slots().collect();
        assert_eq!(slots.len(), 3);
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(v.iter().map(|m| m.0).collect::<Vec<_>>(), slots);
    }

    #[test]
    #[should_panic(expected = "two or more members")]
    fn one_member_vector_rejected_at_construction() {
        let _ = RbVector::<Gf61>::new(
            Pid::new(1),
            [(SvssSlot::mw_ack(mw_id()), SvssRbValue::Unit)],
        );
    }

    /// The standalone encoding of a vector init of `origin` with sequence
    /// number 1, whose member list claims `claimed` members and then
    /// holds `members` in their vector-member form.
    fn vector_bytes(origin: Pid, claimed: u32, members: &[WireMsg<Gf61>]) -> Vec<u8> {
        let mut buf = vec![WireKind::VecInit as u8];
        1u64.encode(&mut buf);
        buf.push(pack_pid(origin));
        claimed.encode(&mut buf);
        let mut prev = None;
        for m in members {
            m.encode_vector_member(prev, &mut buf);
            prev = Some(m);
        }
        buf
    }

    /// What the vector decoder refuses: every non-canonical or
    /// ill-formed member list is `Invalid`, not a panic and not a
    /// second spelling of something the scalar kinds already say. (A
    /// member whose value does not fit its slot family, one of another
    /// origin, a relay step or a nested vector cannot be spelled at all:
    /// the head byte names one of the six slot families and nothing
    /// else, and the family fixes how the body is read.)
    #[test]
    fn malformed_vectors_rejected() {
        let o = Pid::new(2);
        let init = |slot| WireMsg::<Gf61>::rb(slot, o, RbStep::Init, SvssRbValue::Unit);
        let (ack, ok) = (
            init(SvssSlot::mw_ack(mw_id())),
            init(SvssSlot::mw_ok(mw_id())),
        );
        let decode = |bytes: &[u8]| WireMsg::<Gf61>::decode(&mut Reader::new(bytes));
        // The well-formed control decodes; its second member is one head
        // byte (same tag, all five p-bytes shared).
        let good = vector_bytes(o, 2, &[ack.clone(), ok.clone()]);
        assert_eq!(good.len(), 1 + 8 + 1 + 4 + (1 + 8 + 5) + 1);
        assert!(matches!(
            decode(&good).map(WireMsg::unpack),
            Ok(Unpacked::RbVector { seq: 1, .. })
        ));
        let edit = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let (first, second) = (14, good.len() - 1);
        let mut spelled_tag = good[..second].to_vec();
        spelled_tag.push(SlotKind::MwOk as u8 | 5 << 4);
        spelled_tag.extend_from_slice(&good[first + 1..first + 9]);
        let mut short_prefix = good[..second].to_vec();
        short_prefix.push(SlotKind::MwOk as u8 | 1 << 3 | 4 << 4);
        short_prefix.push(good[first + 13]);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vector_bytes(o, 0, &[])),
            ("one member", vector_bytes(o, 1, std::slice::from_ref(&ack))),
            (
                "repeated slot",
                vector_bytes(o, 2, &[ack.clone(), ack.clone()]),
            ),
            ("descending", vector_bytes(o, 2, &[ok.clone(), ack.clone()])),
            (
                "count past the input",
                vector_bytes(o, u32::MAX, &[ack, ok]),
            ),
            ("no such slot family", edit(second, 6 | 1 << 3 | 5 << 4)),
            (
                "prefix longer than the header",
                edit(second, 3 | 1 << 3 | 6 << 4),
            ),
            ("first member elides", edit(first, 1 << 3)),
            ("tag spelled though it repeats", spelled_tag),
            ("prefix shorter than it could be", short_prefix),
            // A sequence number past `u32` is refused before the list.
            ("sequence number too wide", edit(5, 1)),
        ];
        for (what, bytes) in cases {
            assert_eq!(decode(&bytes), Err(CodecError::Invalid), "{what}");
        }
    }

    #[test]
    fn foreign_discriminants_rejected() {
        for b in WIRE_KIND_COUNT..=255 {
            let bytes = [b];
            let mut r = Reader::new(&bytes);
            assert_eq!(
                WireMsg::<Gf61>::decode(&mut r).unwrap_err(),
                CodecError::BadDiscriminant(b)
            );
        }
    }

    #[test]
    fn spilled_sets_round_trip() {
        // A set with members past index 64 spills out of the inline body
        // slot but encodes, decodes, and unpacks like its inline siblings.
        let wide: ProcessSet = [Pid::new(1), Pid::new(65), Pid::new(256)]
            .into_iter()
            .collect();
        let msg: WireMsg<Gf61> =
            WireMsg::coin_rb(CoinSlot::Attach(9), Pid::new(200), RbStep::Echo, wide);
        let bytes = msg.encoded();
        assert_eq!(msg.encoded_len(), bytes.len());
        let mut r = Reader::new(&bytes);
        let back = WireMsg::<Gf61>::decode(&mut r).unwrap();
        assert_eq!(back, msg);
        match back.unpack() {
            Unpacked::CoinRb { set, origin, .. } => {
                assert_eq!(set, wide);
                assert_eq!(origin, Pid::new(200));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn packed_pid_cap_round_trips() {
        // Excess-one packing: index MAX_N lands on byte 255 and every
        // byte value decodes to a valid 1-based pid.
        let top = Pid::new(crate::MAX_N);
        let mw = MwId::standalone(4, top, Pid::new(1));
        let msg: WireMsg<Gf61> = WireMsg::private(SvssPriv::MwPoint {
            mw,
            value: Gf61::from_u64(5),
        });
        let bytes = msg.encoded();
        assert_eq!(bytes[9], 255); // kind(1) + tag(8), first pid byte
        let mut r = Reader::new(&bytes);
        let back = WireMsg::<Gf61>::decode(&mut r).unwrap();
        assert_eq!(back, msg);
        match back.unpack() {
            Unpacked::Priv(SvssPriv::MwPoint { mw: m, .. }) => assert_eq!(m.dealer(), top),
            other => panic!("unexpected unpack: {other:?}"),
        }
    }
}
