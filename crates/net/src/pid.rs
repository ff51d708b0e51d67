//! Process identifiers and small process sets.

use std::cmp::Ordering;
use std::fmt;

/// Workspace-wide cap on the number of processes `n`.
///
/// This is the single source of truth for every layout that depends on
/// the process count: the [`ProcessSet`] bitset width, the packed
/// single-byte pid slots in the flat wire format (`crates/net/src/wire.rs`),
/// the `MwId` session coordinates, and the evaluation-domain width
/// (`sba_field::MAX_DOMAIN` — tied by a compile-time assert below).
///
/// The value is a deliberate trade: 256 processes is 4 bitset words
/// (keeping `ProcessSet` `Copy`-cheap) and exactly spans the one-byte
/// pid slots in the 16-byte wire keys (indices `1..=256` stored
/// excess-one as `0..=255`).
pub const MAX_N: u32 = 256;

/// Bitset words needed to cover [`MAX_N`] process indices.
pub(crate) const WORDS: usize = MAX_N as usize / 64;

// The packed wire slots store `index - 1` in one byte, so the cap must
// fit excess-one in a u8; the bitset math assumes whole words; and the
// field evaluation domain must be at least as wide as the process cap
// (pid indices double as evaluation points).
const _: () = assert!(MAX_N <= 256, "packed wire pids store index-1 in one byte");
const _: () = assert!(
    MAX_N.is_multiple_of(64),
    "ProcessSet words must be fully used"
);
const _: () = assert!(
    MAX_N as usize == sba_field::MAX_DOMAIN,
    "process cap and evaluation-domain width must agree"
);

/// A process identifier.
///
/// Processes are numbered `1..=n`, matching the paper's convention: the
/// index doubles as the field evaluation point for that process's share
/// (`f_j(k)` is evaluated at the field element `k`), and `0` is reserved
/// for the secret (`f(0)`).
///
/// # Examples
///
/// ```
/// use sba_net::Pid;
///
/// let p = Pid::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(u32);

impl Pid {
    /// Creates a process id.
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero — index 0 is the secret's evaluation point
    /// and must never name a process.
    pub fn new(index: u32) -> Self {
        assert!(index != 0, "process indices are 1-based");
        Pid(index)
    }

    /// The 1-based index, usable directly as a field evaluation point.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The index widened to `u64` for field arithmetic.
    pub fn as_u64(self) -> u64 {
        u64::from(self.0)
    }

    /// Enumerates all `n` process ids `p1..=pn`.
    pub fn all(n: usize) -> impl Iterator<Item = Pid> + Clone {
        (1..=n as u32).map(Pid)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An ordered set of process ids, stored as a fixed multi-word bitmask.
///
/// Used for the protocol sets the paper broadcasts (`L_j`, `M`, `G`,
/// `G_j`, attach/support sets). These sets ride inside every reliable
/// broadcast and are cloned per relay hop, and the SVSS state machines
/// re-check membership and subset conditions on every monotone advance —
/// so the representation is a `[u64; 4]` bitmask: `Copy`-cheap clones,
/// `O(1)` insert/membership, `O(words)` subset tests, and deterministic
/// ascending iteration for reproducible simulation.
///
/// Process indices are therefore capped at [`ProcessSet::MAX_INDEX`]
/// ( = [`MAX_N`]) processes — sized to keep the set `Copy`-small while
/// spanning the packed one-byte pid slots of the wire format, and
/// aligned with `sba_field::MAX_DOMAIN`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ProcessSet([u64; WORDS]);

// Ordering compares words most-significant first, which reproduces the
// numeric order of the historical single-u64 representation for sets
// confined to indices 1..=64 (seed-pinned schedules sort on this).
impl Ord for ProcessSet {
    fn cmp(&self, other: &Self) -> Ordering {
        for w in (0..WORDS).rev() {
            match self.0[w].cmp(&other.0[w]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for ProcessSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Iterator over a [`ProcessSet`] in ascending index order.
#[derive(Clone, Debug)]
pub struct ProcessSetIter {
    words: [u64; WORDS],
    w: usize,
}

impl Iterator for ProcessSetIter {
    type Item = Pid;

    #[inline]
    fn next(&mut self) -> Option<Pid> {
        while self.w < WORDS {
            let word = self.words[self.w];
            if word != 0 {
                let bit = word.trailing_zeros();
                self.words[self.w] &= word - 1;
                return Some(Pid(self.w as u32 * 64 + bit + 1));
            }
            self.w += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.w..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ProcessSet {
    /// The largest representable process index ( = [`MAX_N`]).
    pub const MAX_INDEX: u32 = MAX_N;

    #[inline]
    fn slot(p: Pid) -> (usize, u64) {
        assert!(
            p.index() <= Self::MAX_INDEX,
            "process index {} exceeds the ProcessSet cap of {}",
            p.index(),
            Self::MAX_INDEX
        );
        let i = p.index() - 1;
        ((i / 64) as usize, 1u64 << (i % 64))
    }

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a process; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds [`ProcessSet::MAX_INDEX`].
    pub fn insert(&mut self, p: Pid) -> bool {
        let (w, bit) = Self::slot(p);
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }

    /// Whether `p` is a member.
    #[inline]
    pub fn contains(&self, p: Pid) -> bool {
        if p.index() > Self::MAX_INDEX {
            return false;
        }
        let i = p.index() - 1;
        self.0[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; WORDS]
    }

    /// Iterates members in ascending index order.
    pub fn iter(&self) -> ProcessSetIter {
        ProcessSetIter {
            words: self.0,
            w: 0,
        }
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & !b == 0)
    }

    /// Removes a process; returns whether it was present.
    pub fn remove(&mut self, p: Pid) -> bool {
        if !self.contains(p) {
            return false;
        }
        let (w, bit) = Self::slot(p);
        self.0[w] &= !bit;
        true
    }

    /// Union with another set, in place.
    #[inline]
    pub fn extend_from(&mut self, other: &ProcessSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// The raw bitmask words, least-significant first: bit `b` of word
    /// `w` is process index `64·w + b + 1`. Exposed for compact storage
    /// (the wire body slot) and representation-level tests.
    #[inline]
    pub fn as_words(&self) -> [u64; WORDS] {
        self.0
    }

    /// Rebuilds a set from its [`ProcessSet::as_words`] representation.
    #[inline]
    pub fn from_words(words: [u64; WORDS]) -> Self {
        ProcessSet(words)
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Pid> for ProcessSet {
    fn from_iter<T: IntoIterator<Item = Pid>>(iter: T) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<Pid> for ProcessSet {
    fn extend<T: IntoIterator<Item = Pid>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl IntoIterator for &ProcessSet {
    type Item = Pid;
    type IntoIter = ProcessSetIter;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_basics() {
        let p = Pid::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_u64(), 7);
        assert_eq!(format!("{p}"), "p7");
        assert_eq!(format!("{p:?}"), "p7");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn pid_zero_rejected() {
        let _ = Pid::new(0);
    }

    #[test]
    fn all_enumerates_n() {
        let v: Vec<Pid> = Pid::all(4).collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], Pid::new(1));
        assert_eq!(v[3], Pid::new(4));
    }

    #[test]
    fn process_set_operations() {
        let mut s = ProcessSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Pid::new(2)));
        assert!(!s.insert(Pid::new(2)));
        s.insert(Pid::new(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Pid::new(1)));
        let t: ProcessSet = Pid::all(3).collect();
        assert!(s.is_subset(&t));
        assert!(!t.is_subset(&s));
        // Deterministic ascending iteration.
        let order: Vec<u32> = s.iter().map(Pid::index).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn process_set_union_and_remove() {
        let mut a: ProcessSet = [Pid::new(1), Pid::new(3)].into_iter().collect();
        let b: ProcessSet = [Pid::new(2)].into_iter().collect();
        a.extend_from(&b);
        assert_eq!(a.len(), 3);
        assert!(a.remove(Pid::new(3)));
        assert!(!a.remove(Pid::new(3)));
    }

    #[test]
    fn process_set_spans_words() {
        // Members on both sides of every word boundary.
        let idxs = [1u32, 63, 64, 65, 127, 128, 129, 200, 255, 256];
        let s: ProcessSet = idxs.iter().map(|&i| Pid::new(i)).collect();
        assert_eq!(s.len(), idxs.len());
        let order: Vec<u32> = s.iter().map(Pid::index).collect();
        assert_eq!(order, idxs);
        for &i in &idxs {
            assert!(s.contains(Pid::new(i)));
        }
        assert!(!s.contains(Pid::new(130)));
        let mut t = s;
        assert!(t.remove(Pid::new(128)));
        assert!(!t.contains(Pid::new(128)));
        assert!(t.is_subset(&s));
        assert!(!s.is_subset(&t));
        t.extend_from(&s);
        assert_eq!(t, s);
    }

    #[test]
    #[should_panic(expected = "exceeds the ProcessSet cap")]
    fn process_set_cap_enforced() {
        let mut s = ProcessSet::new();
        s.insert(Pid::new(MAX_N + 1));
    }

    #[test]
    fn process_set_order_matches_low_word_numeric() {
        // For sets confined to 1..=64 the Ord must match the historical
        // u64 numeric order (schedule determinism depends on it).
        let a: ProcessSet = [Pid::new(1), Pid::new(2)].into_iter().collect(); // 0b11
        let b: ProcessSet = [Pid::new(3)].into_iter().collect(); // 0b100
        assert!(a < b);
        // High words dominate.
        let c: ProcessSet = [Pid::new(65)].into_iter().collect();
        assert!(b < c);
    }
}
