//! The canonical byte codec under [`WireMsg`](crate::WireMsg), the one
//! message type the stack ships.
//!
//! No offline serialization *format* crate is available (serde alone
//! emits nothing), so the workspace defines its own: fixed-width
//! little-endian integers, one-byte discriminants and an adaptive
//! process-set form. Canonical encodings make the wire-byte metrics, the
//! quantity the paper's polynomial bound counts, exact and reproducible.
//!
//! What implements these traits, and why:
//! - [`Wire`] for `u32` and `u64`: `WireMsg`'s encoder writes its
//!   counts, session tags and field elements with them;
//! - [`Wire`] for [`ProcessSet`](crate::ProcessSet): the one set form of
//!   every set-carrying kind;
//! - [`FramedWire`] (and [`Kinded`](crate::Kinded)) for `u64`: the one
//!   raw message of the simulator, transport and socket-runtime unit
//!   tests, which the orphan rule keeps from implementing this crate's
//!   traits on `u64` themselves.
//!
//! [`FramedWire`] and the frame functions (`encode_frame`,
//! `decode_frame`, `frame_len`, `tcp::{read_frame, write_frame}`) stay
//! generic over it because the benchmark package's probes instantiate
//! them by name.
//!
//! Decoding validates everything it can (C-VALIDATE): field elements
//! must be canonical representatives, counts are bounded by the
//! remaining input, and a set has exactly one spelling.

use std::fmt;

use sba_field::Field;

/// The buffer a sequence decoder starts from when a length prefix
/// claims `claimed` elements. Decoders bound the claim by the bytes that
/// remain, but an element is wider in memory than its shortest encoding
/// (a 64 MiB frame claiming 64 M thirty-two-byte messages would reserve
/// 2 GiB before its first member failed to decode), so the prefix buys
/// a small reservation and `push` grows with what really decodes.
pub(crate) fn reserve_decoded<T>(claimed: usize) -> Vec<T> {
    Vec::with_capacity(claimed.min(1024))
}

/// Error produced when decoding malformed bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum discriminant byte was out of range.
    BadDiscriminant(u8),
    /// A value failed validation (non-canonical field element, zero pid,
    /// non-boolean byte, oversized length).
    Invalid,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::BadDiscriminant(d) => write!(f, "bad discriminant byte {d}"),
            CodecError::Invalid => write!(f, "invalid encoded value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over encoded bytes.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes `n` bytes off the front.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a single byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
}

/// Canonical byte encoding for wire messages.
///
/// Laws (enforced by tests across the workspace):
/// - round-trip: `T::decode(&mut Reader::new(&t.encoded()))? == t`
/// - appending: `encode` only appends to the buffer.
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the input is truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Convenience: the canonical encoding as a fresh vector.
    fn encoded(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Exact byte length of the canonical encoding, computed **without**
    /// serializing: the simulator and the channel runtime charge every
    /// sent message this many bytes (laws tests pin it to
    /// `encoded().len()`).
    fn encoded_len(&self) -> usize;

    /// The wire length charged when this message rides a per-recipient
    /// batch frame immediately after `prev` (`None` = first frame
    /// member). Types without a frame-delta encoding charge their
    /// standalone [`Wire::encoded_len`], which keeps raw test messages
    /// byte-identical; `WireMsg` overrides this with the key-delta
    /// arithmetic of its framed form.
    fn framed_wire_len(&self, prev: Option<&Self>) -> usize {
        let _ = prev;
        self.encoded_len()
    }
}

/// A wire type with a self-delimiting per-recipient *frame member*
/// encoding — the delta form [`encode_frame`](crate::encode_frame)
/// strings together, and the unit the TCP transport
/// ([`tcp`](crate::tcp)) ships.
///
/// Laws (enforced by frame round-trip tests):
/// - member round-trip against the same predecessor:
///   `decode_framed_member(&encode_framed_member(prev), prev) == self`;
/// - byte accounting: the member's encoding is exactly
///   [`Wire::framed_wire_len`]`(prev)` bytes — the quantity the
///   simulator charges, so simulated and socket-shipped bytes agree.
pub trait FramedWire: Wire {
    /// Appends this message's frame-member encoding, eliding whatever
    /// the predecessor `prev` (`None` = first member) lets it elide.
    fn encode_framed_member(&self, prev: Option<&Self>, buf: &mut Vec<u8>);

    /// Decodes one frame member, resolving elisions against `prev`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, malformed bytes, or a
    /// non-minimal spelling (an available elision not taken).
    fn decode_framed_member(r: &mut Reader<'_>, prev: Option<&Self>) -> Result<Self, CodecError>;
}

/// `u64` is the one raw message type of the runtime unit tests (the
/// simulator's, the TCP transport's and the socket runtime's): its
/// frame member is its standalone encoding, matching the
/// [`Wire::framed_wire_len`] default. Protocol messages are `WireMsg`s,
/// with real delta forms.
impl FramedWire for u64 {
    fn encode_framed_member(&self, _prev: Option<&Self>, buf: &mut Vec<u8>) {
        self.encode(buf);
    }
    fn decode_framed_member(r: &mut Reader<'_>, _prev: Option<&Self>) -> Result<Self, CodecError> {
        Self::decode(r)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        4
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().unwrap()))
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().unwrap()))
    }
}

/// Highest tag byte that means "sparse set of that many members". Tags
/// `SPARSE_MAX+1 ..= SPARSE_MAX+WORDS` are dense with `tag - SPARSE_MAX`
/// bitmask words; 255 is reserved (always rejected).
const SET_SPARSE_MAX: u8 = 250;

/// Number of `u64` bitmask words needed to cover every member of a
/// nonempty word array whose top nonzero word is `top` (0-based).
#[inline]
fn set_words_spanned(words: &[u64]) -> usize {
    words.iter().rposition(|&w| w != 0).map_or(0, |top| top + 1)
}

/// Adaptive set encoding: a one-byte tag selects *sparse* (member count,
/// then that many strictly-ascending excess-one pid bytes — valid since
/// `MAX_N = 256`) or *dense* (`tag - 250` little-endian `u64` bitmask
/// words covering the set's highest member). The canonical minimal-form
/// rule — sparse iff `len ≤ 8·words_spanned`, dense words end in a
/// nonzero word — gives every set exactly one encoding, so decode
/// rejects the other form outright. A full n = 256 set costs 33 bytes
/// (was 1028 under the PR 8-era `u32`-per-member encoding); the empty
/// set costs 1.
impl Wire for crate::ProcessSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        let words = self.as_words();
        let w = set_words_spanned(&words);
        let c = self.len();
        if c <= 8 * w || w == 0 {
            // Sparse (ties go sparse; the empty set is sparse with c = 0).
            debug_assert!(c <= SET_SPARSE_MAX as usize);
            buf.push(c as u8);
            for p in self.iter() {
                buf.push(crate::wire::pack_pid(p));
            }
        } else {
            buf.push(SET_SPARSE_MAX + w as u8);
            for word in &words[..w] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    fn encoded_len(&self) -> usize {
        let w = set_words_spanned(&self.as_words());
        1 + self.len().min(8 * w)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        const WORDS: usize = crate::pid::WORDS;
        let tag = r.byte()?;
        let mut words = [0u64; WORDS];
        if tag <= SET_SPARSE_MAX {
            // Sparse: `tag` excess-one pid bytes, strictly ascending
            // (which also rejects duplicates), decoded straight into
            // the bitmask — no intermediate `Vec<Pid>`.
            let c = tag as usize;
            let bytes = r.take(c)?;
            let mut prev: i32 = -1;
            for &b in bytes {
                if i32::from(b) <= prev {
                    return Err(CodecError::Invalid); // non-ascending / duplicate
                }
                prev = i32::from(b);
                words[b as usize / 64] |= 1u64 << (b % 64);
            }
            // Minimal-form: this many members spread this wide must
            // not have had a cheaper (or equal-cost) dense form.
            let w = set_words_spanned(&words);
            if c > 8 * w {
                return Err(CodecError::Invalid); // should have been dense
            }
        } else {
            let w = (tag - SET_SPARSE_MAX) as usize;
            if w > WORDS {
                return Err(CodecError::Invalid); // reserved tag 255
            }
            for word in &mut words[..w] {
                *word = u64::from_le_bytes(r.take(8)?.try_into().unwrap());
            }
            if words[w - 1] == 0 {
                return Err(CodecError::Invalid); // width not minimal
            }
            let c: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            if c <= 8 * w {
                return Err(CodecError::Invalid); // should have been sparse
            }
        }
        // Every dense bit is in range by construction: the bitmask words
        // exactly cover 1..=MAX_N (compile-time `MAX_N == 64·WORDS`
        // assert in `pid.rs`), and excess-one pid bytes cannot exceed
        // MAX_N either.
        Ok(crate::ProcessSet::from_words(words))
    }
}

/// Encodes a field element as its canonical `u64` representative.
pub fn put_field<F: Field>(x: F, buf: &mut Vec<u8>) {
    x.as_u64().encode(buf);
}

/// Decodes a field element, rejecting non-canonical representatives.
///
/// # Errors
///
/// Returns [`CodecError::Invalid`] if the encoded integer is `≥ F::MODULUS`.
pub fn get_field<F: Field>(r: &mut Reader<'_>) -> Result<F, CodecError> {
    let v = u64::decode(r)?;
    if v >= F::MODULUS {
        return Err(CodecError::Invalid);
    }
    Ok(F::from_u64(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sba_field::{Field, Gf101, Gf61};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encoded();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        assert_eq!(back, v);
        assert_eq!(r.remaining(), 0, "trailing bytes");
        assert_eq!(v.encoded_len(), bytes.len());
    }

    /// A member count the input could just about back buys a bounded
    /// reservation, not `count × size_of::<T>()`; a long frame that
    /// really is there still decodes.
    #[test]
    fn vec_decode_does_not_reserve_on_the_peers_word() {
        assert_eq!(reserve_decoded::<[u64; 4]>(64 << 20).capacity(), 1024);
        assert_eq!(reserve_decoded::<u64>(3).capacity(), 3);
        // 4 MiB of zeros claiming 4 Mi `WireMsg` members: `decode_frame`
        // starts from `reserve_decoded` (1 024 members, not 4 Mi) and
        // fails once the zeros stop spelling a canonical member.
        let mut lie = ((4u32 << 20).to_le_bytes()).to_vec();
        lie.resize(4 + (4 << 20), 0);
        let mut r = Reader::new(&lie);
        assert!(crate::decode_frame::<crate::WireMsg<Gf61>>(&mut r).is_err());
        let long: Vec<u64> = (0..5_000).collect();
        let mut buf = Vec::new();
        crate::encode_frame(&long, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(crate::decode_frame::<u64>(&mut r), Ok(long));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(crate::Pid::all(5).collect::<crate::ProcessSet>());
    }

    #[test]
    fn truncated_inputs_error() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(u32::decode(&mut r).unwrap_err(), CodecError::UnexpectedEnd);
        let mut r = Reader::new(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(u64::decode(&mut r).unwrap_err(), CodecError::UnexpectedEnd);
        let mut r = Reader::new(&[]);
        assert_eq!(
            crate::ProcessSet::decode(&mut r).unwrap_err(),
            CodecError::UnexpectedEnd
        );
    }

    #[test]
    fn invalid_values_rejected() {
        // a member count past the input is a lie, refused before any
        // reservation
        let lie = u32::MAX.to_le_bytes();
        let mut r = Reader::new(&lie);
        assert_eq!(
            crate::decode_frame::<u64>(&mut r).unwrap_err(),
            CodecError::Invalid
        );
        // duplicate entries in a sparse ProcessSet are non-canonical
        // (equal adjacent bytes violate the strictly-ascending rule)
        let mut r = Reader::new(&[2, 0, 0]);
        assert_eq!(
            crate::ProcessSet::decode(&mut r).unwrap_err(),
            CodecError::Invalid
        );
        // ...as are out-of-order members
        let mut r = Reader::new(&[2, 5, 3]);
        assert_eq!(
            crate::ProcessSet::decode(&mut r).unwrap_err(),
            CodecError::Invalid
        );
    }

    #[test]
    fn adaptive_set_form_is_canonical() {
        use crate::{Pid, ProcessSet};
        // Empty set: one sparse tag byte.
        assert_eq!(ProcessSet::new().encoded(), vec![0]);
        // Small sets are sparse: tag = count, then excess-one bytes.
        let s: ProcessSet = [3, 7].into_iter().map(Pid::new).collect();
        assert_eq!(s.encoded(), vec![2, 2, 6]);
        // A full one-word set is dense: 9 sparse bytes lose to tag + 8.
        let full64: ProcessSet = Pid::all(64).collect();
        assert_eq!(full64.encoded().len(), 9);
        assert_eq!(full64.encoded()[0], 251);
        // The tie (8 members in one word) goes sparse.
        let eight: ProcessSet = Pid::all(8).collect();
        assert_eq!(eight.encoded()[0], 8);
        assert_eq!(eight.encoded().len(), 9);
        // Full n = 256: 1 tag + 4 words = 33 bytes (the ISSUE's ~30×
        // cut vs the old 1028-byte u32-per-member form).
        let full: ProcessSet = Pid::all(256).collect();
        assert_eq!(full.encoded().len(), 33);
        round_trip(full);
        round_trip(full64);
        round_trip(eight);
        round_trip(s);
    }

    #[test]
    fn non_minimal_set_encodings_rejected() {
        use crate::{Pid, ProcessSet};
        let reject = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            assert_eq!(
                ProcessSet::decode(&mut r).unwrap_err(),
                CodecError::Invalid,
                "bytes {bytes:?} should be non-canonical"
            );
        };
        // Sparse form of a set that must be dense: 9 members in word 0.
        let mut nine = vec![9u8];
        nine.extend(0..9);
        reject(&nine);
        // Dense form of a set that must be sparse: word 0 with 2 bits.
        let mut dense = vec![251u8];
        dense.extend_from_slice(&0b101u64.to_le_bytes());
        reject(&dense);
        // Dense width not minimal: top word is zero.
        let mut wide = vec![252u8];
        wide.extend_from_slice(&u64::MAX.to_le_bytes());
        wide.extend_from_slice(&0u64.to_le_bytes());
        reject(&wide);
        // Reserved tag 255 (would mean 5 words; MAX_N caps at 4).
        reject(&[255; 40]);
        // The canonical forms of the same sets do decode.
        let mut ok = vec![251u8];
        ok.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&ok);
        assert_eq!(
            ProcessSet::decode(&mut r).unwrap(),
            Pid::all(64).collect::<ProcessSet>()
        );
    }

    #[test]
    fn field_elements_validated() {
        let mut buf = Vec::new();
        put_field(Gf101::from_u64(100), &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(get_field::<Gf101>(&mut r).unwrap(), Gf101::from_u64(100));

        let mut buf = Vec::new();
        101u64.encode(&mut buf); // non-canonical for GF(101)
        let mut r = Reader::new(&buf);
        assert_eq!(get_field::<Gf101>(&mut r).unwrap_err(), CodecError::Invalid);
    }

    proptest! {
        #[test]
        fn u64_round_trip(v in any::<u64>()) {
            round_trip(v);
        }

        #[test]
        fn gf61_round_trip(v in 0u64..<Gf61 as Field>::MODULUS) {
            let x = Gf61::from_u64(v);
            let mut buf = Vec::new();
            put_field(x, &mut buf);
            let mut r = Reader::new(&buf);
            prop_assert_eq!(get_field::<Gf61>(&mut r).unwrap(), x);
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut r = Reader::new(&bytes);
            let _ = u64::decode(&mut r);
            let mut r = Reader::new(&bytes);
            let _ = crate::ProcessSet::decode(&mut r);
            let mut r = Reader::new(&bytes);
            let _ = crate::WireMsg::<Gf61>::decode(&mut r);
        }
    }
}
