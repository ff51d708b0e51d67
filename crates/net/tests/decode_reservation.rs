//! A peer's length prefix must not size an allocation: every decoder
//! that reads a member count reserves at most 1 024 members up front and
//! grows with what really decodes. This binary runs under a counting
//! global allocator, so it sees what a decode *asks* the heap for, not
//! just whether the decode fails: a lie of 4 Mi members over 4 MiB of
//! zeros would request 128 MiB of `WireMsg`s from
//! `Vec::with_capacity(len)` before its first member failed to decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use sba_field::{Field, Gf61};
use sba_net::{
    decode_frame, MwId, Pid, RbStep, RbVector, Reader, SvssId, SvssRbValue, SvssSlot, Wire, WireMsg,
};

/// The system allocator, counting live bytes and their peak (the trait's
/// default `realloc` and `alloc_zeroed` come through `alloc`).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both calls are forwarded unchanged to `System` under the
// caller's own contract; the counters only observe them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The members a lie claims: 4 Mi, one per byte of the zeros behind it.
const CLAIMED: u32 = 4 << 20;

/// Heap growth allowed above the bytes live before a decode: 1 024
/// members of 32 bytes, with room to spare, and ~1/128 of what
/// reserving the claimed count would request.
const BUDGET: usize = 1 << 20;

/// The peak heap growth while `decode` runs on `bytes`, and its result.
fn peak_growth<T>(bytes: &[u8], decode: impl FnOnce(&mut Reader<'_>) -> T) -> (usize, T) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = decode(&mut Reader::new(bytes));
    (PEAK.load(Relaxed).saturating_sub(base), out)
}

/// A vector RB of `members` reconstruction points; every size shares one
/// header.
fn vector(members: usize) -> WireMsg<Gf61> {
    let origin = Pid::new(1);
    let mw = MwId::nested(
        SvssId::new(3, origin),
        origin,
        Pid::new(2),
        Pid::new(3),
        Pid::new(4),
    );
    let slots = (1..=members as u32).map(|k| SvssSlot::mw_recon(mw, Pid::new(k)));
    let members = slots.map(|slot| (slot, SvssRbValue::Value(Gf61::from_u64(7))));
    WireMsg::rb_vector(origin, 9, RbStep::Init, RbVector::new(origin, members))
}

fn encoded(m: &WireMsg<Gf61>) -> Vec<u8> {
    let mut buf = Vec::new();
    m.encode(&mut buf);
    buf
}

/// Both decoders that read a member count — the frame's and a vector
/// RB's member list — refuse a 4 Mi-member lie without asking the heap
/// for the claimed count.
#[test]
fn a_claimed_member_count_does_not_size_the_reservation() {
    // The frame: a count, then members.
    let mut lie = CLAIMED.to_le_bytes().to_vec();
    lie.resize(4 + CLAIMED as usize, 0);
    let (grown, out) = peak_growth(&lie, decode_frame::<WireMsg<Gf61>>);
    assert!(out.is_err(), "zeros spell no canonical member");
    assert!(
        grown < BUDGET,
        "frame decode grew the heap by {grown} bytes"
    );

    // The vector: its member count is the first byte where a two- and a
    // three-member vector of the same header differ (members are encoded
    // against their predecessor, so the first two spell the same bytes).
    let (two, three) = (encoded(&vector(2)), encoded(&vector(3)));
    let at = two
        .iter()
        .zip(&three)
        .position(|(a, b)| a != b)
        .expect("the member counts differ");
    assert_eq!(two[at..at + 4], 2u32.to_le_bytes(), "the count is a u32");
    let mut lie = two[..at].to_vec();
    lie.extend_from_slice(&CLAIMED.to_le_bytes());
    lie.resize(lie.len() + CLAIMED as usize, 0);
    let (grown, out) = peak_growth(&lie, WireMsg::<Gf61>::decode);
    assert!(out.is_err(), "zeros spell no canonical member");
    assert!(
        grown < BUDGET,
        "vector decode grew the heap by {grown} bytes"
    );

    // The same bytes with the true count still decode.
    let (_, out) = peak_growth(&two, WireMsg::<Gf61>::decode);
    assert_eq!(out, Ok(vector(2)));
}
