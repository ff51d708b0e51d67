//! The TCP transport carries the *canonical* frame encoding: the bytes
//! that cross a real kernel socket are exactly the bytes the simulator
//! charges — key-delta elision between frame members included.

use std::net::Shutdown;

use sba_field::Gf61;
use sba_net::tcp::{loopback_mesh, read_frame, write_frame};
use sba_net::{frame_len, CoinSlot, Pid, ProcessSet, RbStep, Wire, WireMsg};

fn support(tag: u64, origin: u32) -> WireMsg<Gf61> {
    let mut set = ProcessSet::new();
    set.insert(Pid::new(origin));
    WireMsg::coin_rb(CoinSlot::Support(tag), Pid::new(origin), RbStep::Echo, set)
}

/// A batch shaped like real coin traffic: several members share a tag
/// (and so elide it), with a seam where the tag changes.
fn coin_batch() -> Vec<WireMsg<Gf61>> {
    vec![
        support(5, 1),
        support(5, 2),
        support(5, 3),
        support(9, 3),
        support(9, 1),
    ]
}

#[test]
fn wire_msgs_round_trip_over_a_real_socket() {
    let mesh = loopback_mesh(2).unwrap();
    let batch = coin_batch();
    let mut scratch = Vec::new();
    let wrote = write_frame(
        &mut mesh[0].stream(Pid::new(2)),
        Pid::new(1),
        &batch,
        &mut scratch,
    )
    .unwrap();
    let (from, got): (Pid, Vec<WireMsg<Gf61>>) = read_frame(&mut mesh[1].stream(Pid::new(1)))
        .unwrap()
        .unwrap();
    assert_eq!(from, Pid::new(1));
    assert_eq!(got, batch, "decoded members differ from what was sent");
    // The transport adds exactly its 5-byte header to the charged frame
    // length — socket bytes and simulator bytes are the same currency.
    assert_eq!(wrote, 5 + frame_len(&batch));
}

#[test]
fn elision_survives_the_socket_and_beats_plain_encoding() {
    let batch = coin_batch();
    let plain: usize = batch.iter().map(Wire::encoded_len).sum();
    // Key-delta framing must actually compress this tag-sharing batch
    // (4-byte member count + preludes, minus four elided 8-byte tags).
    assert!(
        frame_len(&batch) < plain,
        "frame {} not smaller than plain {}",
        frame_len(&batch),
        plain
    );

    let mesh = loopback_mesh(2).unwrap();
    let mut scratch = Vec::new();
    write_frame(
        &mut mesh[0].stream(Pid::new(2)),
        Pid::new(1),
        &batch,
        &mut scratch,
    )
    .unwrap();
    let (_, got): (Pid, Vec<WireMsg<Gf61>>) = read_frame(&mut mesh[1].stream(Pid::new(1)))
        .unwrap()
        .unwrap();
    assert_eq!(got, batch);
}

#[test]
fn back_to_back_frames_and_clean_shutdown() {
    let mesh = loopback_mesh(3).unwrap();
    let mut scratch = Vec::new();
    // Two frames from different senders into pid 3's streams, then EOF.
    write_frame(
        &mut mesh[0].stream(Pid::new(3)),
        Pid::new(1),
        &coin_batch(),
        &mut scratch,
    )
    .unwrap();
    write_frame(
        &mut mesh[0].stream(Pid::new(3)),
        Pid::new(1),
        &[support(11, 2)],
        &mut scratch,
    )
    .unwrap();
    mesh[0]
        .stream(Pid::new(3))
        .shutdown(Shutdown::Write)
        .unwrap();

    let mut r = mesh[2].stream(Pid::new(1));
    let first: Option<(Pid, Vec<WireMsg<Gf61>>)> = read_frame(&mut r).unwrap();
    assert_eq!(first.unwrap().1, coin_batch());
    let second: Option<(Pid, Vec<WireMsg<Gf61>>)> = read_frame(&mut r).unwrap();
    assert_eq!(second.unwrap().1, vec![support(11, 2)]);
    let eof: Option<(Pid, Vec<WireMsg<Gf61>>)> = read_frame(&mut r).unwrap();
    assert!(eof.is_none(), "clean shutdown reads as end-of-stream");
}

#[test]
fn corrupt_payload_is_invalid_data_not_a_panic() {
    use std::io::Write as _;
    let mesh = loopback_mesh(2).unwrap();
    // A frame whose payload length lies: 3 bytes, pid byte + 2 bytes of
    // garbage that cannot decode as a canonical frame.
    let mut bad = Vec::new();
    bad.extend_from_slice(&3u32.to_le_bytes());
    bad.extend_from_slice(&[0, 0xde, 0xad]);
    (&mut mesh[0].stream(Pid::new(2))).write_all(&bad).unwrap();
    let err = read_frame::<WireMsg<Gf61>>(&mut mesh[1].stream(Pid::new(1))).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
