//! The stack's one keyed-state store: intern a key, drive its live state
//! in a recycled slab, keep a compact record once it is provably inert.
//!
//! The protocol is a pile of keyed state machines — every reliable
//! broadcast is an `(origin, slot)` instance, every MW-SVSS invocation an
//! [`MwId`](crate::MwId) session (its machine, then its output record),
//! every shunning-coin round a tagged session — and every delivered
//! message routes into one of them, so this is the hottest data
//! structure in the stack (~2 × 10⁵ interned keys per process in a full
//! run). Three parts, one owner:
//!
//! - **The live slab.** Live states sit next to their keys in a `Vec`
//!   whose freed entries are recycled, so its size tracks the *peak
//!   concurrently-live* count, not the total a run creates — the state
//!   the hot path mutates stays cache-resident, and a [`Slot::Live`]
//!   index is stable until that key retires.
//! - **The retired store.** Once a state machine can never send or emit
//!   again its owner [`retire`](Interner::retire)s it: the live entry is
//!   left as a husk for the next [`intern`](Interner::intern) to recycle
//!   and a compact record is appended to an append-only store. A retired
//!   key is never resurrected — it resolves to [`Slot::Retired`] forever,
//!   so late traffic for it can be dropped and queries answered from the
//!   record.
//! - **The fingerprint index.** Insert-only open addressing with one
//!   `u64` per bucket: a 32-bit hash fingerprint and the packed slot id.
//!   Full keys live in the two stores and are compared only on a
//!   fingerprint match, so the common probe touches exactly **one** index
//!   cache line (a general-purpose swiss table costs two: control bytes +
//!   the fat key/value entry). A bucket is written once at interning and
//!   once at retirement — never per message. Linear probing, doubled at
//!   3/4 load: probing reads only one line per bucket, so clustering is
//!   cheap, but chains stay short.
//!
//! Keys are hashed with [`FxHasher`]: use only where keys are validated
//! protocol identifiers, never raw attacker input.

use std::hash::{Hash, Hasher};

use crate::FxHasher;

/// Tag bit distinguishing live-slab indices from retired-store indices
/// in a bucket's packed `u32` slot id.
const RETIRED_BIT: u32 = 1 << 31;

/// Packed slot id reserved as the empty-bucket sentinel.
const EMPTY_SLOT: u32 = u32::MAX;

/// Where an interned key's state lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Index into the live slab ([`Interner::live`]); stable until the
    /// key retires.
    Live(u32),
    /// Index into the retired store ([`Interner::retired`]); final.
    Retired(u32),
}

impl Slot {
    #[inline]
    fn unpack(packed: u32) -> Slot {
        if packed & RETIRED_BIT != 0 {
            Slot::Retired(packed & !RETIRED_BIT)
        } else {
            Slot::Live(packed)
        }
    }
}

fn fx_hash<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// A bucket word: `h`'s fingerprint over the packed slot id.
#[inline]
fn bucket(h: u64, packed: u32) -> u64 {
    (h >> 32) << 32 | u64::from(packed)
}

/// Interning store from keys `K` to live states `L` and, after
/// retirement, records `R` (see the module docs).
///
/// # Examples
///
/// ```
/// use sba_net::{Interner, Slot};
///
/// let mut store: Interner<u64, Vec<u8>, usize> = Interner::new();
/// let Slot::Live(idx) = store.intern(7, Vec::new) else { unreachable!() };
/// store.live_mut(idx).push(1);
/// let len = store.live(idx).len();
/// store.retire(idx, len);
/// assert_eq!(store.intern(7, Vec::new), Slot::Retired(0));
/// assert_eq!(*store.retired(0), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Interner<K, L, R> {
    /// `(fp << 32) | packed_slot`; low word [`EMPTY_SLOT`] marks empty.
    buckets: Vec<u64>,
    mask: usize,
    /// Occupied buckets (= distinct keys ever interned).
    interned: usize,
    live: Vec<(K, L)>,
    /// Recycled `live` indices.
    free: Vec<u32>,
    retired: Vec<(K, R)>,
}

impl<K: Copy + Eq + Hash, L, R> Default for Interner<K, L, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash, L, R> Interner<K, L, R> {
    /// An empty store. It owns no heap memory until the first key is
    /// interned (a process builds several stores it may never use).
    pub fn new() -> Self {
        Interner {
            buckets: Vec::new(),
            mask: 0,
            interned: 0,
            live: Vec::new(),
            free: Vec::new(),
            retired: Vec::new(),
        }
    }

    /// The key stored alongside packed slot `packed`'s state.
    fn key_of(&self, packed: u32) -> &K {
        match Slot::unpack(packed) {
            Slot::Live(idx) => &self.live[idx as usize].0,
            Slot::Retired(idx) => &self.retired[idx as usize].0,
        }
    }

    /// Probes for `key` under hash `h`. Returns the packed slot on a hit,
    /// or the bucket position of the first empty slot on a miss.
    fn find(&self, h: u64, key: &K) -> Result<u32, usize> {
        let fp = (h >> 32) as u32;
        let mut at = h as usize & self.mask;
        loop {
            // Only the index of a store that never interned is empty.
            let Some(&bucket) = self.buckets.get(at) else {
                return Err(at);
            };
            let packed = bucket as u32;
            if packed == EMPTY_SLOT {
                return Err(at);
            }
            if (bucket >> 32) as u32 == fp && self.key_of(packed) == key {
                return Ok(packed);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Doubles the index and reinserts every bucket (keys are re-hashed
    /// from the two stores).
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.buckets, vec![u64::MAX; (self.mask + 1) * 2]);
        self.mask = self.buckets.len() - 1;
        for word in old {
            let packed = word as u32;
            if packed == EMPTY_SLOT {
                continue;
            }
            let h = fx_hash(self.key_of(packed));
            let mut at = h as usize & self.mask;
            while self.buckets[at] as u32 != EMPTY_SLOT {
                at = (at + 1) & self.mask;
            }
            self.buckets[at] = bucket(h, packed);
        }
    }

    /// Where `key`'s state lives, if it was ever interned.
    pub fn probe(&self, key: &K) -> Option<Slot> {
        self.find(fx_hash(key), key).ok().map(Slot::unpack)
    }

    /// Interns `key`: on first sight a fresh live state from `init` is
    /// stored (in a recycled slab entry when one is free).
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed 2³¹ entries.
    pub fn intern(&mut self, key: K, init: impl FnOnce() -> L) -> Slot {
        let h = fx_hash(&key);
        match self.find(h, &key) {
            Ok(packed) => Slot::unpack(packed),
            Err(mut at) => {
                if self.buckets.is_empty() {
                    self.buckets = vec![u64::MAX; 16];
                    self.mask = 15;
                    at = h as usize & self.mask;
                }
                let idx = if let Some(idx) = self.free.pop() {
                    self.live[idx as usize] = (key, init());
                    idx
                } else {
                    assert!(
                        self.live.len() < RETIRED_BIT as usize,
                        "interner slab overflow"
                    );
                    self.live.push((key, init()));
                    (self.live.len() - 1) as u32
                };
                self.buckets[at] = bucket(h, idx);
                self.interned += 1;
                if self.interned * 4 > (self.mask + 1) * 3 {
                    self.grow();
                }
                Slot::Live(idx)
            }
        }
    }

    /// The live state at slab index `idx`.
    pub fn live(&self, idx: u32) -> &L {
        &self.live[idx as usize].1
    }

    /// The live state at slab index `idx`, mutably.
    pub fn live_mut(&mut self, idx: u32) -> &mut L {
        &mut self.live[idx as usize].1
    }

    /// The key whose live state sits at slab index `idx`.
    pub fn key_of_live(&self, idx: u32) -> &K {
        &self.live[idx as usize].0
    }

    /// The record at retired-store index `idx`.
    pub fn retired(&self, idx: u32) -> &R {
        &self.retired[idx as usize].1
    }

    /// Retires the live key at slab index `idx`: appends `record`, frees
    /// the slab entry for recycling (its state stays in place as a husk
    /// until then — shrink it first if it is large), and repoints the
    /// key's bucket at the record. `idx` must be a current
    /// [`Slot::Live`] index.
    ///
    /// # Panics
    ///
    /// Panics if the retired store would exceed 2³¹ − 1 records.
    pub fn retire(&mut self, idx: u32, record: R) {
        assert!(
            (self.retired.len() as u32) < !RETIRED_BIT,
            "interner retired-store overflow"
        );
        let key = self.live[idx as usize].0;
        let packed = RETIRED_BIT | self.retired.len() as u32;
        self.retired.push((key, record));
        self.free.push(idx);
        // Packed slot ids are unique, so no key comparison is needed.
        let h = fx_hash(&key);
        let mut at = h as usize & self.mask;
        while self.buckets[at] as u32 != idx {
            at = (at + 1) & self.mask;
        }
        self.buckets[at] = bucket(h, packed);
    }

    /// Number of currently live keys.
    pub fn live_count(&self) -> usize {
        self.live.len() - self.free.len()
    }

    /// High-water mark of concurrently live keys (the slab never
    /// shrinks, so this is exactly its length).
    pub fn live_peak(&self) -> usize {
        self.live.len()
    }

    /// Number of retired keys.
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }
}
