//! A length-prefixed TCP transport for per-recipient frames.
//!
//! This is the socket half of the "from simulator to system" path: the
//! same canonical frame bytes the simulator charges
//! ([`encode_frame`] / [`decode_frame`]) shipped over real loopback TCP
//! streams, so protocol processes in different OS threads — or different
//! OS processes entirely — exchange exactly the bytes the byte-complexity
//! experiments account for.
//!
//! Wire layout of one transport frame:
//!
//! ```text
//! [u32 LE payload length][1-byte sender pid, excess-one][frame bytes]
//! ```
//!
//! where the frame bytes are the canonical [`encode_frame`] encoding
//! (`u32` member count + key-delta members). The sender pid rides the
//! transport header because a TCP stream is a point-to-point pipe: the
//! receiver needs the protocol-level origin to route the batch into
//! [`Process::on_batch`](../sba_sim/trait.Process.html) — and a process
//! relaying through a proxy would not be able to rely on the socket's
//! peer address.
//!
//! [`encode_frame`]: crate::encode_frame

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

use crate::{decode_frame, encode_frame, FramedWire, Pid, Reader, MAX_N};

/// Upper bound on one transport frame's payload, rejecting a corrupt or
/// hostile length prefix outright. Generous: the largest legitimate
/// per-recipient batch in the n=256 sweep is a few hundred kilobytes.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// How far [`read_payload`] sizes its buffer ahead of the bytes that
/// have actually arrived: a length prefix is only a claim, so a peer
/// that declares [`MAX_FRAME_PAYLOAD`] and stalls costs this much, not
/// 64 MiB. Ordinary frames are smaller and still take one allocation.
const READ_CHUNK: usize = 64 << 10;

const _: () = assert!(
    (u8::MAX as u32) < MAX_N,
    "every excess-one sender byte names a pid in 1..=MAX_N"
);

/// Writes one transport frame carrying `msgs` from `from`; returns the
/// total bytes written (header + payload).
///
/// An empty `msgs` slice is a legal frame (it decodes to an empty batch);
/// runtimes simply never send one.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<T: FramedWire>(
    w: &mut impl Write,
    from: Pid,
    msgs: &[T],
    scratch: &mut Vec<u8>,
) -> io::Result<usize> {
    scratch.clear();
    // Header placeholder; patched once the payload length is known.
    scratch.extend_from_slice(&[0u8; 4]);
    scratch.push((from.index() - 1) as u8);
    encode_frame(msgs, scratch);
    let payload = scratch.len() - 4;
    assert!(payload <= MAX_FRAME_PAYLOAD, "frame exceeds transport cap");
    scratch[..4].copy_from_slice(&(payload as u32).to_le_bytes());
    w.write_all(scratch)?;
    Ok(scratch.len())
}

/// Reads until `buf` is full, treating clean EOF *before the first byte*
/// as end-of-stream (`Ok(false)`). EOF mid-buffer is an error: the peer
/// died inside a frame.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(mid_frame_eof()),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads a `len`-byte payload into `payload` (cleared first), growing it
/// at most [`READ_CHUNK`] beyond what the stream has delivered.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> io::Result<()> {
    payload.clear();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(filled + (len - filled).min(READ_CHUNK), 0);
        if !read_full(r, &mut payload[filled..])? {
            return Err(mid_frame_eof());
        }
    }
    Ok(())
}

/// Reads one transport frame; `Ok(None)` on clean end-of-stream (the
/// peer shut its write half down at a frame boundary).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for an empty or oversized
/// length prefix, a payload that fails canonical frame decoding, or
/// trailing bytes after the frame; I/O errors from `r` (including EOF
/// mid-frame) propagate. Every sender byte names a pid in `1..=MAX_N`,
/// so the sender is not checked here: binding it to the stream's peer
/// is the reader's job (the socket runtime drops a frame that names
/// another sender).
pub fn read_frame<T: FramedWire>(r: &mut impl Read) -> io::Result<Option<(Pid, Vec<T>)>> {
    let mut header = [0u8; 4];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME_PAYLOAD {
        return Err(invalid("frame length out of range"));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    let from = Pid::new(u32::from(payload[0]) + 1);
    let mut reader = Reader::new(&payload[1..]);
    let msgs = decode_frame(&mut reader).map_err(|e| invalid(&format!("bad frame: {e}")))?;
    if reader.remaining() != 0 {
        return Err(invalid("trailing bytes after frame"));
    }
    Ok(Some((from, msgs)))
}

fn mid_frame_eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame")
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One endpoint of a full TCP mesh: a connected, full-duplex stream to
/// every peer. Streams are `TcpStream`s, so an endpoint can be handed to
/// its own OS thread (or its streams `try_clone`d for a dedicated reader
/// per peer).
pub struct MeshEndpoint {
    me: Pid,
    /// Index `k` is the stream to pid `k+1`; `None` at `me`.
    peers: Vec<Option<TcpStream>>,
}

impl MeshEndpoint {
    /// This endpoint's pid.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// Number of endpoints in the mesh.
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// The stream to `peer`.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is this endpoint itself or out of range.
    pub fn stream(&self, peer: Pid) -> &TcpStream {
        self.peers[(peer.index() - 1) as usize]
            .as_ref()
            .expect("no stream to self")
    }

    /// Independent handles to every peer stream (index `k` is pid
    /// `k+1`, `None` at self) — one per reader thread.
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failures.
    pub fn clone_streams(&self) -> io::Result<Vec<Option<TcpStream>>> {
        self.peers
            .iter()
            .map(|s| s.as_ref().map(TcpStream::try_clone).transpose())
            .collect()
    }

    /// Shuts down both halves of every peer stream (idempotent; errors
    /// ignored — the peer may already be gone). Readers blocked on any
    /// clone of these streams wake with EOF.
    pub fn shutdown_all(&self) {
        for s in self.peers.iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// Builds a full loopback TCP mesh among `n` endpoints: every pair gets
/// one full-duplex `127.0.0.1` connection, `TCP_NODELAY` set. Returns
/// one [`MeshEndpoint`] per pid, in pid order.
///
/// The handshake is a single excess-one pid byte written by the
/// connecting side, so accept order does not matter. Connection setup is
/// single-threaded: `connect` completes against the listener backlog
/// before the accept loop runs.
///
/// # Panics
///
/// Panics unless `2 <= n <= MAX_N`.
///
/// # Errors
///
/// Propagates socket errors (bind/connect/accept).
pub fn loopback_mesh(n: usize) -> io::Result<Vec<MeshEndpoint>> {
    assert!((2..=MAX_N as usize).contains(&n), "mesh size out of range");
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<_>>()?;

    let mut peers: Vec<Vec<Option<TcpStream>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    // Higher pid dials lower pid; the kernel queues the connection (and
    // the hello byte) until the accept pass below.
    for (hi, row) in peers.iter_mut().enumerate().skip(1) {
        for (lo, slot) in row.iter_mut().enumerate().take(hi) {
            let stream = TcpStream::connect(addrs[lo])?;
            stream.set_nodelay(true)?;
            (&stream).write_all(&[hi as u8])?;
            *slot = Some(stream);
        }
    }
    for (lo, listener) in listeners.iter().enumerate() {
        // Expect one inbound connection per higher pid.
        for _ in lo + 1..n {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut hello = [0u8; 1];
            (&stream).read_exact(&mut hello)?;
            let hi = hello[0] as usize;
            if hi <= lo || hi >= n || peers[lo][hi].is_some() {
                return Err(invalid("bad mesh hello"));
            }
            peers[lo][hi] = Some(stream);
        }
    }
    Ok(peers
        .into_iter()
        .enumerate()
        .map(|(k, p)| MeshEndpoint {
            me: Pid::new(k as u32 + 1),
            peers: p,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_is_fully_connected() {
        let mesh = loopback_mesh(4).unwrap();
        assert_eq!(mesh.len(), 4);
        for (k, ep) in mesh.iter().enumerate() {
            assert_eq!(ep.me(), Pid::new(k as u32 + 1));
            assert_eq!(ep.n(), 4);
            for j in 0..4 {
                assert_eq!(ep.peers[j].is_some(), j != k);
            }
        }
    }

    #[test]
    fn frames_cross_a_mesh_stream() {
        let mesh = loopback_mesh(2).unwrap();
        let msgs: Vec<u64> = vec![7, 8, 9];
        let mut scratch = Vec::new();
        let wrote = write_frame(
            &mut mesh[0].stream(Pid::new(2)),
            Pid::new(1),
            &msgs,
            &mut scratch,
        )
        .unwrap();
        // 4-byte length + pid byte + u32 count + three u64s.
        assert_eq!(wrote, 4 + 1 + 4 + 24);
        let (from, got): (Pid, Vec<u64>) = read_frame(&mut mesh[1].stream(Pid::new(1)))
            .unwrap()
            .unwrap();
        assert_eq!(from, Pid::new(1));
        assert_eq!(got, msgs);
    }

    #[test]
    fn clean_shutdown_reads_as_end_of_stream() {
        let mesh = loopback_mesh(2).unwrap();
        mesh[0]
            .stream(Pid::new(2))
            .shutdown(Shutdown::Write)
            .unwrap();
        let got: Option<(Pid, Vec<u64>)> = read_frame(&mut mesh[1].stream(Pid::new(1))).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn top_sender_byte_reads_as_the_last_pid() {
        let mut scratch = Vec::new();
        write_frame(&mut Vec::new(), Pid::new(256), &[7u64], &mut scratch).unwrap();
        assert_eq!(scratch[4], 255);
        let (from, got) = read_frame::<u64>(&mut &scratch[..]).unwrap().unwrap();
        assert_eq!((from, got), (Pid::new(MAX_N), vec![7]));
    }

    /// A length prefix is a claim, not a delivery: a peer that declares the
    /// 64 MiB cap and dies three bytes in costs the reader a bounded buffer,
    /// and reads as a stream that ended mid-frame. A frame larger than one
    /// read chunk still arrives whole.
    #[test]
    fn declared_length_does_not_size_the_read_buffer() {
        use crate::WireMsg;
        use sba_field::Gf61;
        use std::io::ErrorKind;

        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_le_bytes());
        stream.extend_from_slice(&[0, 0xde, 0xad]);
        let err = read_frame::<WireMsg<Gf61>>(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);

        let mut buf = Vec::new();
        let err = read_payload(&mut &stream[4..], MAX_FRAME_PAYLOAD, &mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(
            buf.capacity() <= 1 << 20,
            "a 3-byte stream grew the buffer to {} bytes",
            buf.capacity()
        );

        let big: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        read_payload(&mut &big[..], big.len(), &mut buf).unwrap();
        assert_eq!(buf, big);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mesh = loopback_mesh(2).unwrap();
        let bad = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
        (&mut mesh[0].stream(Pid::new(2))).write_all(&bad).unwrap();
        let err = read_frame::<u64>(&mut mesh[1].stream(Pid::new(1))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
