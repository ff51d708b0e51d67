//! The socket runtime: the shared worker loop over real loopback TCP.
//!
//! The same sans-io [`Process`] state machines and the same worker loop
//! as [`crate::threaded`] — this module only supplies the link. Every
//! group a process emits for a peer is serialized with
//! [`sba_net::tcp::write_frame`] — the canonical per-recipient frame
//! encoding the byte-complexity experiments charge — shipped through
//! the kernel over a full TCP mesh ([`sba_net::tcp::loopback_mesh`]),
//! and decoded on the far side before entering [`Process::on_batch`].
//! [`ThreadedStats::bytes`] therefore reports *real* transport bytes
//! (length prefix and sender header included); a self-send skips the
//! kernel but is charged the same framed size.
//!
//! Topology per process: the worker thread plus one reader thread per
//! peer stream. Readers do nothing but decode frames and forward them
//! to the worker's inbox, so a process that is slow to consume never
//! deadlocks the mesh — the kernel socket buffers are always being
//! drained. A reader binds the sender to the *stream*: the paper's
//! channels are authenticated, so a frame naming any pid but the
//! stream's peer is dropped and counted, never delivered.
//!
//! Shutdown is the shared quiescence protocol; at teardown each
//! endpoint closes its streams (waking its own readers and its peers')
//! and joins its readers, and what they had already forwarded is
//! counted into [`ThreadedStats::dropped`]. A reader that meets a
//! malformed frame stops for good and is counted in
//! [`ThreadedStats::dead_links`].

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use sba_net::tcp::{self, MeshEndpoint};
use sba_net::{frame_len, FramedWire, Pid};

use crate::threaded::{drive, Gone, Group, Link, RunShared, ThreadedStats};
use crate::{Process, SimMsg};

/// Runs each process on its own thread, connected to every peer by a
/// real loopback TCP stream, until all report [`Process::done`] and
/// every in-flight frame member has drained, or `wall_limit` elapses.
/// Returns the processes and run statistics;
/// [`ThreadedStats::bytes`] counts actual transport bytes written.
///
/// # Panics
///
/// Panics unless `procs.len() >= 2` (a mesh needs two endpoints).
///
/// # Errors
///
/// Propagates socket errors from mesh construction; errors on an
/// established stream during the run are not fatal — the affected
/// members are counted in [`ThreadedStats::dropped`].
pub fn run<M, P>(procs: Vec<P>, wall_limit: Duration) -> std::io::Result<(Vec<P>, ThreadedStats)>
where
    M: SimMsg + FramedWire,
    P: Process<M> + 'static,
{
    assert!(
        procs.len() >= 2,
        "socket runtime needs at least two processes"
    );
    let mesh = tcp::loopback_mesh(procs.len())?;
    // Every step that can fail comes before the first thread is spawned.
    let streams = mesh
        .iter()
        .map(MeshEndpoint::clone_streams)
        .collect::<std::io::Result<Vec<_>>>()?;
    let links = (mesh.into_iter().zip(streams))
        .map(|(endpoint, streams)| {
            move |shared: &Arc<RunShared>| TcpLink::open(endpoint, streams, shared)
        })
        .collect();
    Ok(drive(procs, links, wall_limit))
}

/// The TCP link: a group crosses the kernel as one transport frame.
struct TcpLink<M> {
    endpoint: MeshEndpoint,
    /// This endpoint's own inbox, for self-sends.
    loopback: Sender<Group<M>>,
    scratch: Vec<u8>,
    readers: Vec<JoinHandle<()>>,
}

impl<M: SimMsg + FramedWire> TcpLink<M> {
    /// The endpoint's inbox and link, with one reader thread running
    /// per peer stream (`streams[k]` is a handle to pid `k+1`'s).
    fn open(
        endpoint: MeshEndpoint,
        streams: Vec<Option<TcpStream>>,
        shared: &Arc<RunShared>,
    ) -> (Receiver<Group<M>>, Self) {
        let (loopback, inbox) = unbounded();
        let readers = Pid::all(endpoint.n())
            .zip(streams)
            .filter_map(|(peer, stream)| {
                let (stream, inbox, shared) = (stream?, loopback.clone(), Arc::clone(shared));
                Some(std::thread::spawn(move || {
                    read_peer(stream, peer, &inbox, &shared)
                }))
            })
            .collect();
        let link = TcpLink {
            endpoint,
            loopback,
            scratch: Vec::new(),
            readers,
        };
        (inbox, link)
    }
}

impl<M: SimMsg + FramedWire> Link<M> for TcpLink<M> {
    fn ship(&mut self, to: Pid, msgs: &mut Vec<M>) -> Result<u64, Gone> {
        let me = self.endpoint.me();
        if to == me {
            // Charged what a loopback write of the frame would cost.
            let bytes = (5 + frame_len(msgs)) as u64;
            let sent = self.loopback.send((me, std::mem::take(msgs)));
            sent.map(|()| bytes).map_err(|_| Gone)
        } else {
            tcp::write_frame(&mut self.endpoint.stream(to), me, msgs, &mut self.scratch)
                .map(|bytes| bytes as u64)
                // The peer tore its streams down (deadline shutdown).
                .map_err(|_| Gone)
        }
    }

    /// Closes every stream (wakes this endpoint's readers with EOF
    /// *and* errors out any peer still writing to us) and joins the
    /// readers.
    fn close(&mut self) {
        self.endpoint.shutdown_all();
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

/// A reader thread's body: forwards the frames arriving on `stream` —
/// the mesh stream to `peer` — into `inbox` until clean EOF (the peer
/// shut down at a frame boundary), a stream error (deadline teardown)
/// or a malformed frame, after which the stream has no frame boundary
/// left to resume at: the link is dead, and counted. The sender of a
/// frame is the stream it arrived on: a frame naming anyone else is a
/// peer speaking as another process, which would void RB's quorum
/// counting, so it is dropped and its members accounted lost (the
/// writer counted them in flight).
fn read_peer<M: FramedWire>(
    mut stream: impl Read,
    peer: Pid,
    inbox: &Sender<Group<M>>,
    shared: &RunShared,
) {
    loop {
        match tcp::read_frame::<M>(&mut stream) {
            Ok(Some((from, msgs))) if from != peer => shared.lose(msgs.len() as u64),
            Ok(Some((_, msgs))) => {
                if inbox.send((peer, msgs)).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                shared.dead_links.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Ok(None) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    //! The runtime's behaviour is covered by the link conformance suite
    //! in [`crate::threaded`]; what is TCP-only is tested here.

    use std::io::Write;
    use std::net::Shutdown;

    use super::*;

    #[test]
    fn reader_drops_a_frame_that_names_another_sender() {
        let mesh = tcp::loopback_mesh(2).unwrap();
        let (p1, p2) = (Pid::new(1), Pid::new(2));
        // p1 first speaks as p2 (three members), then as itself (two),
        // then shuts its write half down at the frame boundary.
        let mut to_p2 = mesh[0].stream(p2);
        let mut scratch = Vec::new();
        tcp::write_frame(&mut to_p2, p2, &[7u64, 8, 9], &mut scratch).unwrap();
        tcp::write_frame(&mut to_p2, p1, &[1u64, 2], &mut scratch).unwrap();
        to_p2.shutdown(Shutdown::Write).unwrap();
        // The writer's worker loop counted all five in flight.
        let shared = RunShared::default();
        shared.in_flight.store(5, Ordering::SeqCst);

        let (inbox, forwarded) = unbounded();
        read_peer::<u64>(mesh[1].stream(p1), p1, &inbox, &shared);

        assert_eq!(forwarded.try_recv(), Ok((p1, vec![1, 2])));
        assert!(forwarded.try_recv().is_err(), "only the honest frame");
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 3);
        assert_eq!(shared.in_flight.load(Ordering::SeqCst), 2);
        assert_eq!(
            shared.dead_links.load(Ordering::Relaxed),
            0,
            "EOF is teardown"
        );
    }

    #[test]
    fn reader_counts_the_link_a_malformed_frame_kills() {
        let mesh = tcp::loopback_mesh(2).unwrap();
        let (p1, p2) = (Pid::new(1), Pid::new(2));
        // One good frame, then bytes that are no frame: a length prefix
        // far over the transport cap.
        let mut to_p2 = mesh[0].stream(p2);
        tcp::write_frame(&mut to_p2, p1, &[1u64, 2], &mut Vec::new()).unwrap();
        to_p2.write_all(&[0xff; 9]).unwrap();
        to_p2.shutdown(Shutdown::Write).unwrap();
        let shared = RunShared::default();

        let (inbox, forwarded) = unbounded();
        read_peer::<u64>(mesh[1].stream(p1), p1, &inbox, &shared);

        assert_eq!(forwarded.try_recv(), Ok((p1, vec![1, 2])));
        assert!(forwarded.try_recv().is_err(), "nothing after the garbage");
        assert_eq!(shared.dead_links.load(Ordering::Relaxed), 1);
    }
}
