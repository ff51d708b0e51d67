//! The system runtimes' shared core: one thread per process, one worker
//! loop, and the link seam the two runtimes differ in.
//!
//! The same sans-io [`Process`] state machines the deterministic
//! simulator drives run here on OS threads, with the OS scheduler
//! supplying a schedule no seed describes. Every thread runs the same
//! loop: park on its inbox, drain everything queued, merge the groups
//! per sender (per-sender FIFO is preserved; interleaving across senders
//! is a legal asynchronous schedule), hand each sender's messages to
//! [`Process::on_batch`], then ship what the process emitted as one
//! group per destination. How a group travels is what a runtime
//! chooses — a private link. This module's [`run`] moves it through the
//! destination's in-process channel and charges its messages'
//! `wire_len`: the control for what framing and the kernel add.
//! [`crate::socket::run`] writes it to a loopback TCP stream as one
//! canonical frame and charges the bytes written.
//!
//! Over the channel link the processes take their batches **in turns**,
//! one at a time run-wide, in an order the OS picks: a step there is
//! pure computation with no transport work to overlap with, and a run
//! that needs every core goes at the pace of whatever else the machine
//! is doing — which a control must not. Over TCP steps run in parallel:
//! encoding, the kernel and the reader threads are worth overlapping.
//!
//! Shutdown is by **quiescence detection**, not by racing channel
//! teardown: a shared in-flight counter is raised by a group's size
//! before the group is shipped and lowered only after the receiving
//! thread has processed it *and* shipped its consequences, so
//! `done == n && in_flight == 0` proves every queue and socket buffer
//! is empty and nobody is mid-delivery. Threads only exit with drained
//! inboxes — or at the wall-clock limit, in which case every
//! undelivered message is counted in [`ThreadedStats::dropped`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use sba_net::{Outbox, Pid};

use crate::{Process, SimMsg};

/// How long a thread parks on its inbox before re-checking the
/// quiescence and deadline conditions.
const POLL: Duration = Duration::from_millis(1);

/// Statistics from a threaded (or socket) run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedStats {
    /// Messages moved between threads (including self-sends).
    pub messages: u64,
    /// Per-sender [`Process::on_batch`] deliveries.
    pub batches: u64,
    /// What the link charged for every shipped group: the sum of
    /// [`Wire::wire_len`](sba_net::Wire::wire_len) for the threaded
    /// runtime, real framed transport bytes for the socket runtime.
    pub bytes: u64,
    /// Messages that were sent but never delivered: groups shipped to
    /// an already-exited peer, frames that named a sender other than
    /// their stream's peer, and queue residue at the wall-clock limit.
    /// Always 0 for an honest run that ends in quiescence.
    pub dropped: u64,
    /// Socket links whose reader stopped on a malformed frame (bad
    /// length, sender byte, encoding or trailing bytes): nothing that
    /// peer sends afterwards arrives. EOF and stream errors are
    /// teardown and not counted. Always 0 over honest peers.
    pub dead_links: u64,
    /// Whether every process reported done before the wall-clock limit.
    pub all_done: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// The counters every worker thread shares; see the module docs for the
/// quiescence protocol they implement.
#[derive(Default)]
pub(crate) struct RunShared {
    /// Processes currently reporting [`Process::done`]. Maintained by
    /// *transition*: a thread adjusts it whenever its process's `done()`
    /// flips in either direction, so a crash-recover process that
    /// un-dones during its outage is subtracted back out instead of
    /// latching the counter high (and ending the run early).
    done: AtomicUsize,
    /// Messages shipped but not yet fully processed by their recipient.
    pub in_flight: AtomicU64,
    messages: AtomicU64,
    batches: AtomicU64,
    bytes: AtomicU64,
    pub dropped: AtomicU64,
    pub dead_links: AtomicU64,
    /// Set once by whichever thread first observes quiescence or the
    /// deadline; every thread exits promptly once it is up.
    shutdown: AtomicBool,
    /// Held for the length of a step over a link whose steps take turns.
    turn: Mutex<()>,
}

impl RunShared {
    /// Syncs a process's `done()` into the shared counter by transition.
    fn sync_done(&self, was: &mut bool, now: bool) {
        if now != *was {
            if now {
                self.done.fetch_add(1, Ordering::SeqCst);
            } else {
                self.done.fetch_sub(1, Ordering::SeqCst);
            }
            *was = now;
        }
    }

    /// Whether the run is globally quiescent: every process done and no
    /// message queued or mid-delivery anywhere.
    fn quiescent(&self, n: usize) -> bool {
        self.done.load(Ordering::SeqCst) == n && self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Accounts `k` in-flight messages that will never be delivered:
    /// every loss is counted, and a lost message must not hold
    /// quiescence detection up.
    pub(crate) fn lose(&self, k: u64) {
        self.dropped.fetch_add(k, Ordering::Relaxed);
        self.in_flight.fetch_sub(k, Ordering::SeqCst);
    }

    fn stats(&self, n: usize, elapsed: Duration) -> ThreadedStats {
        // Whatever is still marked in flight after every thread joined
        // was never delivered (stuck in a queue or a socket buffer when
        // the deadline hit); fold it into the dropped count so every
        // sent message is accounted either delivered or dropped.
        let residue = self.in_flight.swap(0, Ordering::SeqCst);
        ThreadedStats {
            messages: self.messages.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed) + residue,
            dead_links: self.dead_links.load(Ordering::Relaxed),
            all_done: self.done.load(Ordering::SeqCst) == n,
            elapsed,
        }
    }
}

/// Reusable per-pid grouping buffers: messages are bucketed by pid
/// (first-appearance order, per-pid FIFO preserved) and handed out one
/// group per pid — per sender on the way in, per destination on the way
/// out.
struct BatchBuckets<M> {
    buckets: Vec<Vec<M>>,
    order: Vec<usize>,
}

impl<M> BatchBuckets<M> {
    fn new(n: usize) -> Self {
        BatchBuckets {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            order: Vec::with_capacity(n),
        }
    }

    fn bucket(&mut self, pid: Pid) -> &mut Vec<M> {
        let idx = (pid.index() - 1) as usize;
        if self.buckets[idx].is_empty() {
            self.order.push(idx);
        }
        &mut self.buckets[idx]
    }

    /// Hands every staged group to `deliver(pid, msgs)`, clearing the
    /// buckets (whatever capacity `deliver` leaves is retained).
    fn deliver(&mut self, mut deliver: impl FnMut(Pid, &mut Vec<M>)) {
        for &idx in &self.order {
            deliver(Pid::new(idx as u32 + 1), &mut self.buckets[idx]);
            self.buckets[idx].clear();
        }
        self.order.clear();
    }
}

/// One sender's group of messages, as it sits in a worker's inbox.
pub(crate) type Group<M> = (Pid, Vec<M>);

/// The destination of a shipped group has torn down.
pub(crate) struct Gone;

/// What the runtimes differ in: how one process's groups reach their
/// destinations' inboxes, and whether steps over it take turns.
pub(crate) trait Link<M> {
    /// Whether the run's processes take their batches one at a time
    /// instead of in parallel (the module docs say which and why).
    const TURNS: bool = false;

    /// Ships the non-empty group `msgs` to `to` and returns the bytes
    /// it cost; [`Gone`] when the group cannot be delivered any more.
    /// `msgs` may be left in any state (the caller clears it).
    fn ship(&mut self, to: Pid, msgs: &mut Vec<M>) -> Result<u64, Gone>;

    /// Tears the transport down once the worker has stopped receiving;
    /// whatever it still forwards afterwards is residue.
    fn close(&mut self) {}
}

/// The in-process link: a group moves into the destination's inbox.
struct ChannelLink<M> {
    me: Pid,
    /// Index `k` is pid `k+1`'s inbox.
    inboxes: Vec<Sender<Group<M>>>,
}

impl<M: SimMsg> Link<M> for ChannelLink<M> {
    const TURNS: bool = true;

    fn ship(&mut self, to: Pid, msgs: &mut Vec<M>) -> Result<u64, Gone> {
        let bytes = msgs.iter().map(|m| m.wire_len() as u64).sum();
        self.inboxes[(to.index() - 1) as usize]
            .send((self.me, std::mem::take(msgs)))
            .map_err(|_| Gone)?;
        Ok(bytes)
    }
}

/// Runs each process on its own thread until all report
/// [`Process::done`] **and** every in-flight message has been drained,
/// or `wall_limit` elapses; returns the processes (for output
/// inspection) and run statistics. The processes take their batches in
/// turns, one at a time, in an order the OS picks.
///
/// Unlike the simulator this is *not* deterministic — that is the point.
pub fn run<M, P>(procs: Vec<P>, wall_limit: Duration) -> (Vec<P>, ThreadedStats)
where
    M: SimMsg,
    P: Process<M> + 'static,
{
    assert!(
        !procs.is_empty(),
        "threaded runtime needs at least one process"
    );
    let (inboxes, receivers): (Vec<_>, Vec<_>) = procs.iter().map(|_| unbounded()).unzip();
    let links = (receivers.into_iter().zip(Pid::all(procs.len())))
        .map(|(inbox, me)| {
            let inboxes = inboxes.clone();
            move |_: &Arc<RunShared>| (inbox, ChannelLink { me, inboxes })
        })
        .collect();
    drive(procs, links, wall_limit)
}

/// Spawns one thread per process, joins them all and settles the run's
/// accounts. Each thread opens its link with `links[k]` — on the thread
/// itself, so a link's helper threads are that thread's children — and
/// runs the [`worker`] loop over it.
pub(crate) fn drive<M, P, L, F>(
    procs: Vec<P>,
    links: Vec<F>,
    wall_limit: Duration,
) -> (Vec<P>, ThreadedStats)
where
    M: SimMsg,
    P: Process<M> + 'static,
    L: Link<M>,
    F: FnOnce(&Arc<RunShared>) -> (Receiver<Group<M>>, L) + Send + 'static,
{
    let n = procs.len();
    let shared = Arc::new(RunShared::default());
    let started = Instant::now();
    let deadline = started + wall_limit;
    let handles: Vec<_> = (procs.into_iter().zip(links).zip(Pid::all(n)))
        .map(|((proc_, open), pid)| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (inbox, link) = open(&shared);
                worker(pid, n, proc_, inbox, link, &shared, deadline)
            })
        })
        .collect();
    let procs = handles
        .into_iter()
        .map(|h| h.join().expect("process thread panicked"))
        .collect();
    (procs, shared.stats(n, started.elapsed()))
}

/// The worker loop both runtimes run; see the module docs.
fn worker<M, P, L>(
    pid: Pid,
    n: usize,
    mut proc_: P,
    inbox: Receiver<Group<M>>,
    mut link: L,
    shared: &RunShared,
    deadline: Instant,
) -> P
where
    M: SimMsg,
    P: Process<M>,
    L: Link<M>,
{
    // One outbox and two sets of buckets, reused across every delivery.
    let mut out = Outbox::new(pid);
    let mut incoming = BatchBuckets::new(n);
    let mut outgoing = BatchBuckets::new(n);
    let mut was_done = false;

    let mut flush = |out: &mut Outbox<M>| {
        for env in out.drain_iter() {
            outgoing.bucket(env.to).push(env.msg);
        }
        outgoing.deliver(|to, msgs| {
            let k = msgs.len() as u64;
            shared.messages.fetch_add(k, Ordering::Relaxed);
            // In flight *before* the group is visible to its receiver,
            // so in_flight == 0 proves global quiescence.
            shared.in_flight.fetch_add(k, Ordering::SeqCst);
            match link.ship(to, msgs) {
                Ok(bytes) => {
                    shared.bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                // The peer exited (deadline teardown): the group is lost.
                Err(Gone) => shared.lose(k),
            }
        });
    };

    proc_.on_start(&mut out);
    flush(&mut out);
    shared.sync_done(&mut was_done, proc_.done());

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if shared.quiescent(n) || Instant::now() >= deadline {
            shared.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        match inbox.recv_timeout(POLL) {
            Ok(first) => {
                let mut drained = 0u64;
                let queued = std::iter::from_fn(|| inbox.try_recv().ok());
                for (from, mut msgs) in std::iter::once(first).chain(queued) {
                    drained += msgs.len() as u64;
                    incoming.bucket(from).append(&mut msgs);
                }
                incoming.deliver(|from, msgs| {
                    shared.batches.fetch_add(1, Ordering::Relaxed);
                    let turn = L::TURNS.then(|| shared.turn.lock().expect("a step panicked"));
                    proc_.on_batch(from, msgs, &mut out);
                    drop(turn);
                    flush(&mut out);
                });
                shared.sync_done(&mut was_done, proc_.done());
                // Only now are the drained messages fully consumed:
                // their consequences are already counted in flight, so
                // the counter can never dip to 0 with work pending.
                shared.in_flight.fetch_sub(drained, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // Teardown: whatever is still queued here will never be delivered.
    // (Nothing, when shutdown came from quiescence: in_flight == 0 means
    // no inbox anywhere holds a message.)
    link.close();
    let mut residue = 0u64;
    while let Ok((_, msgs)) = inbox.try_recv() {
        residue += msgs.len() as u64;
    }
    shared.lose(residue);
    proc_
}

#[cfg(test)]
mod tests {
    //! The link conformance suite: every case runs against both
    //! runtimes, so what the shared loop promises holds over either
    //! link.

    use super::*;

    type Run<P> = fn(Vec<P>, Duration) -> (Vec<P>, ThreadedStats);

    /// Both runtimes, each with what it charges for a group of one
    /// `u64`: 8 wire bytes over the channel link; a 4-byte length, a pid
    /// byte, a 4-byte member count and the 8 bytes over the TCP link.
    fn runtimes<P: Process<u64> + 'static>() -> [(&'static str, Run<P>, u64); 2] {
        [
            ("threaded", run, 8),
            (
                "socket",
                |procs, wall| crate::socket::run(procs, wall).expect("loopback mesh"),
                17,
            ),
        ]
    }

    const WALL: Duration = Duration::from_secs(10);

    /// Every process greets every other; done after hearing from all.
    struct Greeter {
        me: Pid,
        n: usize,
        heard: std::collections::BTreeSet<Pid>,
        batches_seen: u64,
    }

    impl Process<u64> for Greeter {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for p in Pid::all(self.n) {
                if p != self.me {
                    out.send(p, u64::from(self.me.index()));
                }
            }
        }
        fn on_message(&mut self, from: Pid, _msg: u64, _out: &mut Outbox<u64>) {
            self.heard.insert(from);
        }
        fn on_batch(&mut self, from: Pid, msgs: &mut Vec<u64>, out: &mut Outbox<u64>) {
            self.batches_seen += 1;
            for msg in msgs.drain(..) {
                self.on_message(from, msg, out);
            }
        }
        fn done(&self) -> bool {
            self.heard.len() == self.n - 1
        }
    }

    #[test]
    fn all_greeters_finish_with_exact_counts() {
        let n = 5;
        for (link, run, bytes_per_greeting) in runtimes() {
            let procs: Vec<Greeter> = Pid::all(n)
                .map(|me| Greeter {
                    me,
                    n,
                    heard: Default::default(),
                    batches_seen: 0,
                })
                .collect();
            let (procs, stats) = run(procs, WALL);
            assert!(stats.all_done, "{link}: did not finish: {stats:?}");
            assert!(procs.iter().all(|p| p.done()), "{link}");
            assert_eq!(stats.messages, (n * (n - 1)) as u64, "{link}");
            // Every greeting is the only member of its group.
            assert_eq!(stats.bytes, stats.messages * bytes_per_greeting, "{link}");
            assert_eq!(stats.dropped, 0, "{link}: quiescent run drops nothing");
            // Deliveries arrive via on_batch, and batches can't outnumber
            // messages.
            let batches: u64 = procs.iter().map(|p| p.batches_seen).sum();
            assert_eq!(batches, stats.batches, "{link}");
            assert!(batches >= 1 && batches <= stats.messages, "{link}");
        }
    }

    #[test]
    fn wall_limit_ends_a_stuck_run() {
        /// Never done, never sends: the run must end by the wall limit.
        struct Stuck;
        impl Process<u64> for Stuck {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _from: Pid, _msg: u64, _out: &mut Outbox<u64>) {}
        }
        for (link, run, _) in runtimes() {
            let started = Instant::now();
            let (_, stats) = run(vec![Stuck, Stuck], Duration::from_millis(100));
            assert!(!stats.all_done, "{link}");
            assert!(started.elapsed() < Duration::from_secs(5), "{link}");
        }
    }

    /// A process that is done at start, then un-dones when poked, then
    /// re-dones after a second poke — the crash-recover shape that would
    /// leave a latched done counter permanently overcounted.
    struct Flicker {
        pokes: u64,
    }

    impl Process<u64> for Flicker {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            // p1 pokes p2 twice; p2 starts done, un-dones, re-dones.
            if out.me() == Pid::new(1) {
                out.send(Pid::new(2), 1);
                out.send(Pid::new(2), 2);
            }
        }
        fn on_message(&mut self, _from: Pid, _msg: u64, _out: &mut Outbox<u64>) {
            self.pokes += 1;
        }
        fn done(&self) -> bool {
            // Done at 0 pokes (start), not-done at 1, done again at 2.
            self.pokes != 1
        }
    }

    #[test]
    fn done_regression_is_subtracted_not_latched() {
        for (link, run, _) in runtimes() {
            let procs = vec![Flicker { pokes: 0 }, Flicker { pokes: 0 }];
            let (procs, stats) = run(procs, WALL);
            assert!(stats.all_done, "{link}: must wait out the un-done window");
            assert_eq!(procs[1].pokes, 2, "{link}: both pokes delivered");
            assert_eq!(stats.dropped, 0, "{link}");
        }
    }

    /// In-flight traffic at the moment everyone reports done must still
    /// be drained (delivered or counted), never silently lost.
    struct ChattyDone {
        me: Pid,
        n: usize,
        received: u64,
    }

    impl Process<u64> for ChattyDone {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            // A storm of sends to everyone, but done() is true from the
            // start: teardown must not race these.
            for round in 0..50u64 {
                for p in Pid::all(self.n) {
                    if p != self.me {
                        out.send(p, round);
                    }
                }
            }
        }
        fn on_message(&mut self, _from: Pid, _msg: u64, _out: &mut Outbox<u64>) {
            self.received += 1;
        }
        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    fn in_flight_traffic_drains_before_join() {
        let n = 4;
        for (link, run, _) in runtimes() {
            let procs: Vec<ChattyDone> = Pid::all(n)
                .map(|me| ChattyDone { me, n, received: 0 })
                .collect();
            let (procs, stats) = run(procs, WALL);
            assert!(stats.all_done, "{link}");
            assert_eq!(stats.dropped, 0, "{link}: no message may be lost");
            let received: u64 = procs.iter().map(|p| p.received).sum();
            assert_eq!(received, stats.messages, "{link}: every send delivered");
            assert_eq!(stats.messages, 50 * (n * (n - 1)) as u64, "{link}");
        }
    }

    /// Every process greets every other twice over, and every step
    /// lingers while it counts the steps running beside it.
    struct Lingerer {
        me: Pid,
        n: usize,
        heard: usize,
        running: Arc<AtomicUsize>,
        overlapped: Arc<AtomicBool>,
    }

    impl Process<u64> for Lingerer {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for p in Pid::all(self.n).filter(|&p| p != self.me) {
                out.send(p, 0);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            if self.running.fetch_add(1, Ordering::SeqCst) > 0 {
                self.overlapped.store(true, Ordering::SeqCst);
            }
            std::thread::sleep(Duration::from_millis(2));
            self.running.fetch_sub(1, Ordering::SeqCst);
            self.heard += 1;
            if msg == 0 {
                out.send(from, 1);
            }
        }
        fn done(&self) -> bool {
            self.heard == 2 * (self.n - 1)
        }
    }

    #[test]
    fn steps_take_turns_over_the_channel_link_only() {
        let n = 4;
        for (link, run, _) in runtimes() {
            let (running, overlapped) = Default::default();
            let procs: Vec<Lingerer> = Pid::all(n)
                .map(|me| Lingerer {
                    me,
                    n,
                    heard: 0,
                    running: Arc::clone(&running),
                    overlapped: Arc::clone(&overlapped),
                })
                .collect();
            let (_, stats) = run(procs, WALL);
            assert!(stats.all_done, "{link}");
            // 24 lingering steps on 4 threads: over TCP some run side by
            // side; over channels none may.
            let overlapped = overlapped.load(Ordering::SeqCst);
            assert_eq!(overlapped, link == "socket", "{link}");
        }
    }

    /// Echoes every received value back once; pid 1 seeds a broadcast
    /// that includes itself, exercising the self-send loopback path.
    struct EchoOnce {
        me: Pid,
        n: usize,
        received: u64,
    }

    impl Process<u64> for EchoOnce {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if self.me == Pid::new(1) {
                out.broadcast(Pid::all(self.n), 7);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            self.received += 1;
            if from == Pid::new(1) && self.me != Pid::new(1) {
                out.send(from, msg + 1);
            }
        }
        fn done(&self) -> bool {
            if self.me == Pid::new(1) {
                self.received == self.n as u64
            } else {
                self.received == 1
            }
        }
    }

    #[test]
    fn self_sends_ride_the_loopback_path() {
        let n = 4;
        for (link, run, bytes_per_single) in runtimes() {
            let procs: Vec<EchoOnce> = Pid::all(n)
                .map(|me| EchoOnce { me, n, received: 0 })
                .collect();
            let (procs, stats) = run(procs, WALL);
            assert!(stats.all_done, "{link}: did not finish: {stats:?}");
            // n broadcast deliveries (incl. self) + n-1 echoes back, each
            // a group of one — the self-send charged like any other.
            assert_eq!(stats.messages, (2 * n - 1) as u64, "{link}");
            assert_eq!(stats.bytes, stats.messages * bytes_per_single, "{link}");
            assert_eq!(stats.dropped, 0, "{link}");
            assert_eq!(procs[0].received, n as u64, "{link}");
        }
    }
}
