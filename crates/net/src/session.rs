//! Session identifiers for the VSS protocols.
//!
//! The paper tags every VSS invocation with a session id `(c, i)` — a
//! counter and the dealer — and tags each MW-SVSS sub-invocation inside an
//! SVSS session. Identifiers here are *structured* rather than bare
//! counters so that higher layers (common coin, agreement rounds) can mint
//! globally unique, self-describing sessions without coordination.

use crate::wire::{pack_pid, unpack_pid};
use crate::Pid;

/// Identifier of one SVSS invocation: the paper's `(c, i)`.
///
/// `tag` plays the role of the counter `c`, but is minted by the caller so
/// it can encode context (e.g. the common coin packs `(round, target)` into
/// it). Uniqueness contract: a dealer must never reuse a `tag`.
///
/// # Examples
///
/// ```
/// use sba_net::{Pid, SvssId};
///
/// let sid = SvssId::new(7, Pid::new(2));
/// assert_eq!(sid.dealer(), Pid::new(2));
/// assert_eq!(sid.tag(), 7);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SvssId {
    tag: u64,
    dealer: Pid,
}

impl SvssId {
    /// Creates a session id for `dealer` with caller-chosen unique `tag`.
    pub fn new(tag: u64, dealer: Pid) -> Self {
        SvssId { tag, dealer }
    }

    /// The counter/tag component (`c` in the paper).
    pub fn tag(self) -> u64 {
        self.tag
    }

    /// The dealer (`i` in the paper).
    pub fn dealer(self) -> Pid {
        self.dealer
    }
}

/// Identifier of one MW-SVSS invocation.
///
/// Standalone MW-SVSS sessions use [`MwId::standalone`]. Inside an SVSS
/// session (§4 step 2 of the paper) each unordered pair `{j, l}` runs four
/// MW-SVSS invocations — dealer and moderator in both assignments, for both
/// matrix entries `f(row, col)`:
///
/// | dealer | moderator | secret      |
/// |--------|-----------|-------------|
/// | j      | l         | `f(l, j)`   |
/// | j      | l         | `f(j, l)`   |
/// | l      | j         | `f(l, j)`   |
/// | l      | j         | `f(j, l)`   |
///
/// `(row, col)` names the bivariate entry the instance is supposed to
/// carry, which is how SVSS reconstruction (step 1 of `R`) locates the
/// value `r^j_{x,k,l}`.
///
/// # Representation
///
/// `MwId` rides in every MW-level RB slot tag and keys the hottest maps
/// in the SVSS engine, so it is packed to 16 bytes: the four process
/// indices and the parent dealer are stored as single excess-one bytes
/// (`index − 1`, so indices `1..=256` fit in a `u8`). Process indices
/// are therefore capped at [`crate::MAX_N`], the same cap that bounds
/// `ProcessSet` and the `Domain` tables. An `MwId`
/// has no encoding of its own: on the wire it is the parent tag and
/// these five bytes, packed into a [`WireMsg`](crate::WireMsg)'s key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MwId {
    parent_tag: u64,
    parent_dealer: u8,
    dealer: u8,
    moderator: u8,
    row: u8,
    col: u8,
}

impl MwId {
    /// Creates the id of an MW-SVSS invocation nested in SVSS session
    /// `parent`, with the given dealer/moderator and target entry.
    ///
    /// # Panics
    ///
    /// Panics if any process index exceeds [`crate::MAX_N`].
    pub fn nested(parent: SvssId, dealer: Pid, moderator: Pid, row: Pid, col: Pid) -> Self {
        MwId {
            parent_tag: parent.tag(),
            parent_dealer: pack_pid(parent.dealer()),
            dealer: pack_pid(dealer),
            moderator: pack_pid(moderator),
            row: pack_pid(row),
            col: pack_pid(col),
        }
    }

    /// Creates the id of a standalone MW-SVSS session (no enclosing SVSS).
    ///
    /// The entry coordinates are set to the dealer/moderator; they carry no
    /// meaning outside SVSS.
    ///
    /// # Panics
    ///
    /// Panics if any process index exceeds [`crate::MAX_N`].
    pub fn standalone(tag: u64, dealer: Pid, moderator: Pid) -> Self {
        Self::nested(
            SvssId::new(tag, dealer),
            dealer,
            moderator,
            dealer,
            moderator,
        )
    }

    /// The enclosing SVSS session (for standalone sessions, a synthetic id).
    pub fn parent(self) -> SvssId {
        SvssId::new(self.parent_tag, unpack_pid(self.parent_dealer))
    }

    /// The MW-SVSS dealer.
    pub fn dealer(self) -> Pid {
        unpack_pid(self.dealer)
    }

    /// The MW-SVSS moderator.
    pub fn moderator(self) -> Pid {
        unpack_pid(self.moderator)
    }

    /// Row index of the bivariate entry this instance carries.
    pub fn row(self) -> Pid {
        unpack_pid(self.row)
    }

    /// Column index of the bivariate entry this instance carries.
    pub fn col(self) -> Pid {
        unpack_pid(self.col)
    }
}

/// A VSS session at the granularity the DMM orders sessions by: either a
/// whole SVSS session or a single MW-SVSS invocation. (Every MW
/// invocation is a VSS session of its own for the paper's `→_i`
/// relation.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SessionKey {
    /// An MW-SVSS invocation.
    Mw(MwId),
    /// An SVSS session.
    Svss(SvssId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mw_id_round_trip_and_accessors() {
        let parent = SvssId::new(3, Pid::new(1));
        let id = MwId::nested(parent, Pid::new(2), Pid::new(4), Pid::new(4), Pid::new(2));
        assert_eq!(id.parent(), parent);
        assert_eq!(id.dealer(), Pid::new(2));
        assert_eq!(id.moderator(), Pid::new(4));
        assert_eq!(id.row(), Pid::new(4));
        assert_eq!(id.col(), Pid::new(2));
    }

    #[test]
    fn four_nested_ids_per_pair_are_distinct() {
        let parent = SvssId::new(0, Pid::new(1));
        let (j, l) = (Pid::new(2), Pid::new(3));
        let ids = [
            MwId::nested(parent, j, l, l, j),
            MwId::nested(parent, j, l, j, l),
            MwId::nested(parent, l, j, l, j),
            MwId::nested(parent, l, j, j, l),
        ];
        for (a, x) in ids.iter().enumerate() {
            for y in &ids[a + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn mw_id_cap_boundary_round_trips() {
        // Index MAX_N packs excess-one into the top byte value (255).
        let top = Pid::new(crate::MAX_N);
        let id = MwId::standalone(1, top, Pid::new(1));
        assert_eq!(id.dealer(), top);
        assert_eq!(id.parent().dealer(), top);
    }

    #[test]
    #[should_panic(expected = "exceeds the packed-wire cap")]
    fn mw_id_cap_enforced() {
        let _ = MwId::standalone(1, Pid::new(crate::MAX_N + 1), Pid::new(1));
    }

    #[test]
    fn standalone_id_is_self_describing() {
        let id = MwId::standalone(5, Pid::new(1), Pid::new(2));
        assert_eq!(id.parent().dealer(), Pid::new(1));
        assert_eq!(id.parent().tag(), 5);
        assert_eq!(id.moderator(), Pid::new(2));
    }
}
