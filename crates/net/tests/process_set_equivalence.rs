//! Equivalence suite for the multi-word `ProcessSet` (PR 7 cap lift).
//!
//! Up to n = 64 the old representation — a single `u64` bitmask with bit
//! `i-1` for index `i` — was the behavioural contract: insert/remove
//! return values, membership, counts, ascending iteration order, subset
//! tests, and the *numeric* `Ord` the seed-pinned schedules sort on. The
//! reference model here IS that old representation, and every operation
//! of the `[u64; W]` replacement is pinned against it property-style, so
//! a regression in the multi-word code shows up as a divergence from the
//! u64 semantics rather than as a silently re-rolled schedule.
//!
//! Past 64, dedicated boundary tests cover the word seams (64/65) and
//! the new cap (255/256).

use proptest::prelude::*;
use sba_net::{Pid, ProcessSet, MAX_N};

/// The pre-PR 7 representation, verbatim semantics: bit `i-1` ⇔ index
/// `i`, derived (numeric) ordering.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct RefSet(u64);

impl RefSet {
    fn insert(&mut self, i: u32) -> bool {
        let bit = 1u64 << (i - 1);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }
    fn remove(&mut self, i: u32) -> bool {
        let bit = 1u64 << (i - 1);
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }
    fn contains(self, i: u32) -> bool {
        self.0 & (1u64 << (i - 1)) != 0
    }
    fn len(self) -> usize {
        self.0.count_ones() as usize
    }
    fn iter(self) -> impl Iterator<Item = u32> {
        (1..=64u32).filter(move |&i| self.contains(i))
    }
    fn is_subset(self, other: RefSet) -> bool {
        self.0 & !other.0 == 0
    }
}

fn build(indices: &[u32]) -> (ProcessSet, RefSet) {
    let mut s = ProcessSet::new();
    let mut r = RefSet::default();
    for &i in indices {
        let (a, b) = (s.insert(Pid::new(i)), r.insert(i));
        assert_eq!(a, b, "insert({i}) return value diverged");
    }
    (s, r)
}

fn assert_equivalent(s: &ProcessSet, r: RefSet) {
    assert_eq!(s.len(), r.len(), "len diverged");
    assert_eq!(s.is_empty(), r.len() == 0, "is_empty diverged");
    for i in 1..=64u32 {
        assert_eq!(s.contains(Pid::new(i)), r.contains(i), "contains({i})");
    }
    let got: Vec<u32> = s.iter().map(Pid::index).collect();
    let want: Vec<u32> = r.iter().collect();
    assert_eq!(got, want, "iteration order diverged");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, max_shrink_iters: 0 })]

    /// Construction + membership + count + ascending iteration.
    #[test]
    fn low_word_construction_matches(indices in proptest::collection::vec(1..=64u32, 0..40)) {
        let (s, r) = build(&indices);
        assert_equivalent(&s, r);
    }

    /// Interleaved inserts and removes, with return values.
    #[test]
    fn insert_remove_matches(ops in proptest::collection::vec((any::<bool>(), 1..=64u32), 0..60)) {
        let mut s = ProcessSet::new();
        let mut r = RefSet::default();
        for (add, i) in ops {
            let (a, b) = if add {
                (s.insert(Pid::new(i)), r.insert(i))
            } else {
                (s.remove(Pid::new(i)), r.remove(i))
            };
            prop_assert_eq!(a, b, "op on {} diverged", i);
        }
        assert_equivalent(&s, r);
    }

    /// extend_from (union) / is_subset against the u64 bitwise
    /// definitions.
    #[test]
    fn set_algebra_matches(
        xs in proptest::collection::vec(1..=64u32, 0..40),
        ys in proptest::collection::vec(1..=64u32, 0..40),
    ) {
        let (sx, rx) = build(&xs);
        let (sy, ry) = build(&ys);
        let mut ext = sx;
        ext.extend_from(&sy);
        assert_equivalent(&ext, RefSet(rx.0 | ry.0));
        prop_assert_eq!(sx.is_subset(&sy), rx.is_subset(ry));
        prop_assert_eq!(sx.is_subset(&ext), true);
    }

    /// `Ord` reproduces the old numeric-u64 ordering for word-0 sets —
    /// the property the seed-pinned schedules' sorts depend on.
    #[test]
    fn order_matches_numeric_u64(
        xs in proptest::collection::vec(1..=64u32, 0..40),
        ys in proptest::collection::vec(1..=64u32, 0..40),
    ) {
        let (sx, rx) = build(&xs);
        let (sy, ry) = build(&ys);
        prop_assert_eq!(sx.cmp(&sy), rx.cmp(&ry));
        prop_assert_eq!(sx == sy, rx == ry);
    }

    /// FromIterator / Extend agree with sequential insertion.
    #[test]
    fn collect_matches_inserts(indices in proptest::collection::vec(1..=64u32, 0..40)) {
        let (s, r) = build(&indices);
        let collected: ProcessSet = indices.iter().map(|&i| Pid::new(i)).collect();
        prop_assert_eq!(collected, s);
        assert_equivalent(&collected, r);
    }
}

// -------------------------------------------------------------------
// Word-seam and cap boundaries (beyond the reference model's range)
// -------------------------------------------------------------------

#[test]
fn word_seam_64_65() {
    let mut s = ProcessSet::new();
    assert!(s.insert(Pid::new(64)));
    assert!(s.insert(Pid::new(65)));
    assert!(s.contains(Pid::new(64)) && s.contains(Pid::new(65)));
    assert!(!s.contains(Pid::new(63)) && !s.contains(Pid::new(66)));
    assert_eq!(s.len(), 2);
    assert_eq!(s.iter().map(Pid::index).collect::<Vec<_>>(), [64, 65]);
    assert!(s.remove(Pid::new(64)));
    assert!(!s.remove(Pid::new(64)));
    assert_eq!(s.iter().map(Pid::index).collect::<Vec<_>>(), [65]);
}

#[test]
fn cap_boundary_255_256() {
    assert_eq!(ProcessSet::MAX_INDEX, MAX_N);
    let mut s = ProcessSet::new();
    assert!(s.insert(Pid::new(255)));
    assert!(s.insert(Pid::new(256)));
    assert_eq!(s.len(), 2);
    assert_eq!(s.iter().map(Pid::index).collect::<Vec<_>>(), [255, 256]);
    // A full set holds every index once.
    let full: ProcessSet = (1..=MAX_N).map(Pid::new).collect();
    assert_eq!(full.len(), MAX_N as usize);
    assert!(s.is_subset(&full));
    let mut u = full;
    u.extend_from(&s);
    assert_eq!(u, full);
}

#[test]
#[should_panic(expected = "exceeds the ProcessSet cap")]
fn beyond_cap_panics() {
    let mut s = ProcessSet::new();
    s.insert(Pid::new(MAX_N + 1));
}

/// Sets that differ only in a high word still order deterministically and
/// sort *after* any word-0 set with the same low word — the multi-word
/// `Ord` compares words most-significant-first.
#[test]
fn high_word_orders_above_low_word() {
    let low: ProcessSet = [1u32, 7, 64].into_iter().map(Pid::new).collect();
    let mut high = low;
    high.insert(Pid::new(200));
    assert!(low < high);
    let mut higher = low;
    higher.insert(Pid::new(201));
    assert!(high < higher);
}
