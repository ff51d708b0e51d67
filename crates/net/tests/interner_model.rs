//! Model-based suite for [`Interner`], the one keyed-state store under
//! `RbMux` and the coin's session table.
//!
//! Random `intern` / `retire` / `probe` sequences run against a
//! `HashMap<K, Result<L, R>>` model (`Ok` = live state, `Err` = retired
//! record), long enough to double the index several times and recycle
//! slab entries many times over. Pinned: a retired key is never
//! resurrected, a live index is stable until its key retires, the slab is
//! exactly as long as the peak concurrently-live count, every interned
//! key is either live or retired, and keys whose hashes collide — all of
//! them, with a constant-hash key type — still resolve by full-key
//! compare.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use sba_net::{Interner, Pid, Slot};

/// Live state: a counter bumped on every re-intern of a live key.
type Live = u64;
/// Retired record: the final counter and the retirement's sequence number.
type Record = (u64, usize);

/// A key type whose every value hashes alike: one fingerprint, one home
/// bucket, so the index degenerates to a single probe chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Collide(u32);

impl Hash for Collide {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(0xC0111DE);
    }
}

struct Harness<K> {
    store: Interner<K, Live, Record>,
    model: HashMap<K, Result<Live, Record>>,
    /// Slab index each live key was interned at.
    index_of: HashMap<K, u32>,
    peak_live: usize,
}

impl<K: Copy + Eq + Hash + Debug> Harness<K> {
    fn new() -> Self {
        Harness {
            store: Interner::new(),
            model: HashMap::new(),
            index_of: HashMap::new(),
            peak_live: 0,
        }
    }

    /// `probe(key)` agrees with the model, index stability included.
    fn check_key(&self, key: K) {
        match (self.store.probe(&key), self.model.get(&key)) {
            (None, None) => {}
            (Some(Slot::Live(idx)), Some(Ok(state))) => {
                assert_eq!(self.index_of[&key], idx, "{key:?}: live index moved");
                assert_eq!(self.store.key_of_live(idx), &key);
                assert_eq!(self.store.live(idx), state, "{key:?}: live state");
            }
            (Some(Slot::Retired(idx)), Some(Err(record))) => {
                assert_eq!(self.store.retired(idx), record, "{key:?}: record");
            }
            (got, want) => panic!("{key:?}: store says {got:?}, model says {want:?}"),
        }
    }

    fn check_counts(&self) {
        let live = self.model.values().filter(|v| v.is_ok()).count();
        assert_eq!(self.store.live_count(), live);
        assert_eq!(self.store.retired_count(), self.model.len() - live);
        assert_eq!(
            self.store.live_peak(),
            self.peak_live,
            "slab length is the peak concurrently-live count"
        );
    }

    fn check_all(&self) {
        for &key in self.model.keys() {
            self.check_key(key);
        }
        // Live keys occupy distinct slab entries.
        let mut taken: Vec<u32> = self.index_of.values().copied().collect();
        taken.sort_unstable();
        taken.dedup();
        assert_eq!(taken.len(), self.index_of.len(), "two keys share an entry");
        self.check_counts();
    }

    fn intern(&mut self, key: K, seed: u64) {
        let mut fresh = false;
        let slot = self.store.intern(key, || {
            fresh = true;
            seed
        });
        match self.model.get_mut(&key) {
            None => {
                assert!(fresh, "{key:?}: first sight must build a state");
                let Slot::Live(idx) = slot else {
                    panic!("{key:?}: fresh key interned as {slot:?}");
                };
                self.model.insert(key, Ok(seed));
                self.index_of.insert(key, idx);
                self.peak_live = self.peak_live.max(self.index_of.len());
            }
            Some(Ok(state)) => {
                assert!(!fresh, "{key:?}: live key rebuilt");
                let idx = self.index_of[&key];
                assert_eq!(slot, Slot::Live(idx), "{key:?}: live index moved");
                *state += 1;
                *self.store.live_mut(idx) += 1;
            }
            Some(Err(_)) => {
                assert!(!fresh, "{key:?}: retired key resurrected");
                assert!(matches!(slot, Slot::Retired(_)), "{key:?}: {slot:?}");
            }
        }
    }

    /// Retires `key` if the model has it live; a no-op otherwise.
    fn retire(&mut self, key: K) {
        let Some(Ok(state)) = self.model.get(&key).copied() else {
            return;
        };
        let record = (state, self.store.retired_count());
        self.store.retire(self.index_of[&key], record);
        self.model.insert(key, Err(record));
        self.index_of.remove(&key);
    }

    fn run(ops: &[(u8, u32)], key: impl Fn(u32) -> K) {
        let mut h = Harness::new();
        for (step, &(op, k)) in ops.iter().enumerate() {
            let key = key(k);
            match op {
                0 | 1 => h.intern(key, u64::from(k) << 8),
                2 => h.retire(key),
                _ => {}
            }
            h.check_key(key);
            h.check_counts();
            if step % 256 == 0 {
                h.check_all();
            }
        }
        h.check_all();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, max_shrink_iters: 0 })]

    /// Mux-shaped keys over a key space wide enough for six index
    /// doublings (16 → 1024 buckets), with a quarter of the ops retiring.
    #[test]
    fn interner_matches_model(ops in proptest::collection::vec((0..4u8, 0..700u32), 0..4000)) {
        Harness::run(&ops, |k| (Pid::new(k % 5 + 1), k / 5));
    }

    /// Every key collides: hits and misses walk one chain and must still
    /// tell keys apart, through growth and retirement repointing.
    #[test]
    fn colliding_fingerprints_resolve_by_key(
        ops in proptest::collection::vec((0..4u8, 0..90u32), 0..900),
    ) {
        Harness::run(&ops, Collide);
    }
}

/// The deterministic worst case for recycling: one slab entry serves
/// every key, and every earlier key stays answerable from its record.
#[test]
fn one_entry_recycled_across_index_doublings() {
    let mut store: Interner<u32, u32, u32> = Interner::new();
    for k in 0..1000u32 {
        assert_eq!(store.intern(k, || k), Slot::Live(0));
        store.retire(0, k + 1);
    }
    assert_eq!((store.live_count(), store.live_peak()), (0, 1));
    assert_eq!(store.retired_count(), 1000);
    for k in 0..1000u32 {
        assert_eq!(store.probe(&k), Some(Slot::Retired(k)));
        assert_eq!(*store.retired(k), k + 1);
    }
    assert_eq!(store.probe(&1000), None);
}
