//! The deterministic discrete-event simulation core.
//!
//! # Batched same-tick delivery
//!
//! A full n=7 SCC run moves ~1.6 × 10⁷ messages and holds ~10⁶ in flight
//! at peak. Scheduling, queueing, and delivering those one by one was ~a
//! quarter of the whole run (PR 3 profile), and the per-message queue
//! entries were the largest block of cold memory in the process. Since
//! PR 4 the unit of scheduling is the **per-recipient batch**: all
//! messages one delivery event sends to the same recipient share a single
//! delay draw, a single queue entry, and a single delivery callback
//! ([`Process::on_batch`]). Message-level metrics (counts, bytes, kinds,
//! latency, trace) are still recorded per member.
//!
//! This is a (mildly) *weaker* adversary than per-message scheduling —
//! the scheduler picks one delivery time per `(event, recipient)` group,
//! so it can no longer interleave two same-event messages to the same
//! recipient with third-party traffic. Any batched schedule is still a
//! legal asynchronous schedule, so protocol correctness properties are
//! unaffected.
//!
//! **Order.** A batch is delivered at its `(at, seq)`: `at` from the
//! group's one delay draw, `seq` in scheduling order. The queue is a
//! calendar of per-tick FIFO buckets: `at` is the bucket and `seq` the
//! position in it, so neither is stored. It is the only queue layout;
//! this module's tests check it pop for pop against a binary heap keyed
//! `(at, seq)`, and `tests/tests/batching.rs` pins full-stack delivery
//! logs recorded while a per-message reference queue still existed
//! beside it.
//!
//! # Batched self-delivery
//!
//! Self-addressed sends model local computation and bypass the
//! scheduler. They are delivered in **generations**: all self-sends a
//! process queues while handling one callback form one generation,
//! delivered in a single [`Process::on_batch`] call (a full n=7 run
//! makes ~10⁷ self-deliveries). Network sends are scheduled **once per
//! event**: the triggering callback and its whole self-delivery fixpoint
//! are one atomic local step, and everything it sends shares one
//! per-recipient grouping pass (one delay draw per recipient). A
//! generation is an atomic local step, so this is still a legal model of
//! local computation. The generation's payloads ride one recycled
//! buffer, and [`Metrics::self_delivery_batches`] counts generations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sba_net::{Envelope, Outbox, Pid};

use crate::{Metrics, Observer, Process, Scheduler, SimMsg};

/// A batch spilled past the calendar window, ordered by `(at, seq)`.
/// Overflow is rare (delays in this workspace are far below the window),
/// so these hold their payloads in a plain `Vec`.
#[derive(Clone)]
struct OverflowBatch<M> {
    at: u64,
    seq: u64,
    sent: u64,
    from: Pid,
    to: Pid,
    msgs: Vec<M>,
}

impl<M> PartialEq for OverflowBatch<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<M> Eq for OverflowBatch<M> {}
impl<M> PartialOrd for OverflowBatch<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for OverflowBatch<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Width of the calendar-queue window: the ring never holds more than
/// this many ticks. Delivery delays in this workspace are tiny (≤ ~1000
/// virtual ticks), so almost every event lands in the ring; anything
/// farther out waits in the overflow heap until the window reaches it.
const CALENDAR_WINDOW: u64 = 4096;

/// One queued batch's header; its `len` members sit, in order, in the
/// bucket's message FIFO. Delivery time is the bucket's tick and `seq`
/// is the header's position in the bucket, so neither is stored.
#[derive(Clone)]
struct Header {
    sent: u64,
    from: Pid,
    to: Pid,
    len: u32,
}

/// One virtual tick's batches: headers and messages in two contiguous
/// FIFOs, pushed at the back and popped from the front in `seq` order.
#[derive(Clone)]
struct Bucket<M> {
    heads: VecDeque<Header>,
    msgs: VecDeque<M>,
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            heads: VecDeque::new(),
            msgs: VecDeque::new(),
        }
    }
}

/// A popped batch header (payloads are drained into the caller's scratch).
struct PoppedBatch {
    at: u64,
    sent: u64,
    from: Pid,
    to: Pid,
    /// Member (message) count.
    len: u32,
}

/// The pending-delivery queue: a calendar of per-tick FIFO buckets.
///
/// Full protocol runs keep *hundreds of thousands* of messages in
/// flight. Batching shares one [`Header`] per `(tick, from, to)` group,
/// and a tick's headers and messages each sit in one contiguous FIFO, so
/// a pop streams through the front bucket and a push appends to one of
/// the few buckets the delay span covers. The ring starts empty and grows
/// only to the live span; a drained bucket's buffers wait in a spare pool
/// for the next tick that opens, so there is no allocator traffic at
/// steady state and retained capacity is bounded by the span.
///
/// Order: deliveries are ordered by `(at, seq)` where `seq` is assigned
/// in push order, so a FIFO bucket per virtual tick reproduces a heap's
/// order exactly (buckets ascend in `at`; each bucket is pushed, hence
/// popped, in ascending `seq`).
///
/// `Clone` deep-copies the ring and the overflow heap — the queue half of
/// a [`Simulation::snapshot`].
#[derive(Clone)]
struct EventQueue<M> {
    /// `ring[i]` holds the batches due at tick `cursor + i`; its length
    /// never exceeds `CALENDAR_WINDOW`.
    ring: VecDeque<Bucket<M>>,
    /// Drained buckets, kept for their buffers' capacity.
    spare: Vec<Bucket<M>>,
    /// Batches beyond the window; migrated into the ring as the cursor
    /// advances.
    overflow: BinaryHeap<Reverse<OverflowBatch<M>>>,
    /// Batches currently in the ring.
    ring_len: usize,
    /// The tick of `ring[0]`; never decreases.
    cursor: u64,
    /// Total batches (ring + overflow).
    len: usize,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            ring: VecDeque::new(),
            spare: Vec::new(),
            overflow: BinaryHeap::new(),
            ring_len: 0,
            cursor: 0,
            len: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a batch to its tick's bucket, opening buckets (from the
    /// spare pool first) up to that tick.
    fn push_bucket(
        &mut self,
        at: u64,
        sent: u64,
        from: Pid,
        to: Pid,
        msgs: impl Iterator<Item = M>,
    ) {
        let i = (at - self.cursor) as usize;
        while self.ring.len() <= i {
            self.ring.push_back(self.spare.pop().unwrap_or_default());
        }
        let bucket = &mut self.ring[i];
        let before = bucket.msgs.len();
        bucket.msgs.extend(msgs);
        let len = (bucket.msgs.len() - before) as u32;
        debug_assert!(len > 0, "empty batches are never scheduled");
        bucket.heads.push_back(Header {
            sent,
            from,
            to,
            len,
        });
        self.ring_len += 1;
    }

    fn push(
        &mut self,
        at: u64,
        seq: u64,
        sent: u64,
        from: Pid,
        to: Pid,
        msgs: impl Iterator<Item = M>,
    ) {
        debug_assert!(at >= self.cursor, "push into the past");
        self.len += 1;
        if at < self.cursor + CALENDAR_WINDOW {
            self.push_bucket(at, sent, from, to, msgs);
        } else {
            self.overflow.push(Reverse(OverflowBatch {
                at,
                seq,
                sent,
                from,
                to,
                msgs: msgs.collect(),
            }));
        }
    }

    /// Moves overflow batches that the advancing window now covers into
    /// their ring buckets. Overflow pops ascend in `(at, seq)`, and any
    /// in-window push to the same bucket has a later `seq`, so bucket
    /// FIFO order is preserved.
    fn migrate(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >= self.cursor + CALENDAR_WINDOW {
                break;
            }
            let Reverse(b) = self.overflow.pop().expect("peeked");
            self.push_bucket(b.at, b.sent, b.from, b.to, b.msgs.into_iter());
        }
    }

    fn pop(&mut self, scratch: &mut Vec<M>) -> Option<PoppedBatch> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Jump the window to the earliest overflow entry. Buckets
            // left in the ring are drained, so they serve any tick.
            self.cursor = self.overflow.peek().expect("len > 0").0.at;
            self.migrate();
        }
        loop {
            if let Some(bucket) = self.ring.front_mut() {
                if let Some(h) = bucket.heads.pop_front() {
                    scratch.extend(bucket.msgs.drain(..h.len as usize));
                    self.ring_len -= 1;
                    self.len -= 1;
                    return Some(PoppedBatch {
                        at: self.cursor,
                        sent: h.sent,
                        from: h.from,
                        to: h.to,
                        len: h.len,
                    });
                }
            }
            // The cursor's bucket is drained: its buffers go to the pool.
            if let Some(drained) = self.ring.pop_front() {
                self.spare.push(drained);
            }
            self.cursor += 1;
            self.migrate();
        }
    }

    /// `(batch header, message)` footprint in bytes — the basis of the
    /// approximate in-flight byte gauge.
    fn slot_sizes() -> (usize, usize) {
        (std::mem::size_of::<Header>(), std::mem::size_of::<M>())
    }
}

/// `(batch header, message)` sizes in bytes of the in-flight queue's
/// bucket FIFOs for message type `M` — the unit costs behind
/// [`Metrics::inflight_peak_bytes`], exposed so the wire-size tests can
/// pin them (every byte here is multiplied by the ~10⁶-message peak
/// in-flight population of a full run).
pub fn queue_slot_sizes<M>() -> (usize, usize) {
    EventQueue::<M>::slot_sizes()
}

/// How a run loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// No deliveries remained in flight.
    pub quiescent: bool,
    /// All processes reported [`Process::done`] (only meaningful for
    /// [`Simulation::run_until_all_done`]).
    pub all_done: bool,
    /// Events processed during this call.
    pub events: u64,
}

/// One recorded delivery (when tracing is enabled). Batched deliveries
/// record one entry per member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual delivery time.
    pub at: u64,
    /// Virtual send time.
    pub sent: u64,
    /// Sender.
    pub from: Pid,
    /// Recipient.
    pub to: Pid,
    /// Message kind label.
    pub kind: &'static str,
}

/// `Simulation::group_of`'s "no open group" mark.
const NO_GROUP: u32 = u32::MAX;

/// An open per-recipient group while one outbox drain is being scheduled.
struct OpenGroup<M> {
    to: Pid,
    at: u64,
    msgs: Vec<M>,
}

/// A deterministic simulation of `n` processes exchanging messages under
/// an adversarial scheduler.
///
/// Process at vector index `k` is `Pid k+1`. Self-addressed envelopes are
/// delivered immediately (a process never waits on its own messages);
/// everything else is scheduled by the adversary — one delay draw per
/// `(event, recipient)` group (see the module docs).
pub struct Simulation<M, P> {
    procs: Vec<P>,
    queue: EventQueue<M>,
    scheduler: Box<dyn Scheduler<M>>,
    metrics: Metrics,
    rng: StdRng,
    now: u64,
    seq: u64,
    started: bool,
    trace: Option<(usize, VecDeque<TraceEntry>)>,
    /// Running fold over every delivered network message when enabled
    /// ([`Simulation::enable_digest`]); `None` keeps the hot path free of
    /// the per-member hashing.
    digest: Option<u64>,
    /// Per-event invariant observer ([`Simulation::set_observer`]);
    /// `None` keeps the hot path at one untaken branch per event.
    observer: Option<Box<dyn Observer<P>>>,
    /// Reusable per-delivery outbox (capacity survives across events).
    outbox: Outbox<M>,
    /// Reusable self-delivery generation buffer: the generation
    /// currently being delivered or collected.
    local_gen: Vec<M>,
    /// Network sends of the event being dispatched, held until its
    /// self-delivery fixpoint completes (one scheduling pass per event).
    held: Vec<Envelope<M>>,
    /// Reusable open-group table for one outbox drain (≤ n entries).
    open: Vec<OpenGroup<M>>,
    /// `group_of[to]` is the index in `open` of recipient `to`'s group
    /// during one drain, else `NO_GROUP` (length `n + 1`, reset after
    /// each drain).
    group_of: Vec<u32>,
    /// Pool of payload buffers recycled through `open`.
    group_bufs: Vec<Vec<M>>,
    /// Reusable batch-payload scratch for [`Simulation::step`].
    batch_scratch: Vec<M>,
    /// Messages currently in flight (excludes self-deliveries).
    inflight_msgs: u64,
    /// Batches currently in flight.
    inflight_batches: u64,
}

impl<M: SimMsg, P: Process<M>> Simulation<M, P> {
    /// Creates a simulation over the given processes (index `k` is pid
    /// `k+1`), scheduler, and seed. The seed fully determines the run
    /// (given deterministic processes).
    pub fn new(procs: Vec<P>, scheduler: Box<dyn Scheduler<M>>, seed: u64) -> Self {
        assert!(!procs.is_empty(), "simulation needs at least one process");
        let n = procs.len();
        Simulation {
            procs,
            queue: EventQueue::new(),
            scheduler,
            metrics: Metrics::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5ba0_5eed),
            now: 0,
            seq: 0,
            started: false,
            trace: None,
            digest: None,
            observer: None,
            outbox: Outbox::new(Pid::new(1)),
            local_gen: Vec::new(),
            held: Vec::new(),
            group_of: vec![NO_GROUP; n + 1],
            open: Vec::new(),
            group_bufs: Vec::new(),
            batch_scratch: Vec::new(),
            inflight_msgs: 0,
            inflight_batches: 0,
        }
    }

    /// Enables delivery tracing with a bounded ring buffer of `capacity`
    /// entries (oldest entries are evicted). Useful when debugging
    /// protocol schedules; off by default because full-stack runs deliver
    /// millions of messages.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace capacity must be positive");
        self.trace = Some((capacity, VecDeque::new()));
    }

    /// The recorded trace (empty unless [`Simulation::enable_trace`]).
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.trace.iter().flat_map(|(_, q)| q.iter())
    }

    /// Enables the run digest: a deterministic hash folded over every
    /// delivered network message (delivery time, send time, sender,
    /// recipient, kind label). Two runs with equal digests delivered the
    /// same messages in the same order at the same times — the cheap
    /// bit-identity witness the record/replay harness stores in its
    /// artifacts. Off by default (it hashes per *member*, which the
    /// benchmarked hot path must not pay).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn enable_digest(&mut self) {
        assert!(!self.started, "enable_digest must precede the first event");
        self.digest = Some(0xcbf2_9ce4_8422_2325);
    }

    /// The current run digest (`None` unless [`Simulation::enable_digest`]
    /// was called before the run).
    pub fn digest(&self) -> Option<u64> {
        self.digest
    }

    /// Installs a per-event [`Observer`]: after every delivered event
    /// (once its outbox is dispatched) the observer sees the clock, the
    /// event counter, and the process table, and its check/violation
    /// counts accumulate into [`Metrics::monitor_checks`] /
    /// [`Metrics::monitor_violations`]. Observers draw nothing from the
    /// RNG and never touch the digest, so observed and unobserved runs
    /// are bit-identical apart from the two monitor counters.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_observer(&mut self, observer: Box<dyn Observer<P>>) {
        assert!(!self.started, "set_observer must precede the first event");
        self.observer = Some(observer);
    }

    /// Swaps the observer mid-run. This exists for snapshots: a
    /// [`Simulation::snapshot`] carries the original's observer as
    /// [`Observer::clone_box`](crate::Observer::clone_box) copied it
    /// (which may share state), and the layer that took the snapshot may
    /// replace it with an isolated copy whose state matches the branch
    /// point. Fresh runs should use [`Simulation::set_observer`], which
    /// insists the observer sees every event.
    pub fn replace_observer(&mut self, observer: Box<dyn Observer<P>>) {
        self.observer = Some(observer);
    }

    /// Forwards a heal event to the scheduler at the current virtual
    /// time (see [`Scheduler::heal_partitions`]): traffic sent from now
    /// on ignores any partition; already-scheduled deliveries keep their
    /// times.
    pub fn heal_partitions(&mut self) {
        let now = self.now;
        self.scheduler.heal_partitions(now);
    }

    /// One digest fold step (an FxHash-style rotate-xor-multiply; the
    /// quality bar is "collisions don't happen by accident", not
    /// cryptography).
    fn digest_mix(h: u64, v: u64) -> u64 {
        (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Immutable access to a process (for assertions and output checks).
    pub fn process(&self, pid: Pid) -> &P {
        &self.procs[(pid.index() - 1) as usize]
    }

    /// Mutable access to a process (for fault injection mid-run).
    pub fn process_mut(&mut self, pid: Pid) -> &mut P {
        &mut self.procs[(pid.index() - 1) as usize]
    }

    /// Iterates over all processes.
    pub fn processes(&self) -> impl Iterator<Item = &P> {
        self.procs.iter()
    }

    /// Whether every process reports done.
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|p| p.done())
    }

    /// Updates the peak-resident gauges after a push.
    fn note_inflight(&mut self) {
        let (entry_b, pay_b) = EventQueue::<M>::slot_sizes();
        self.metrics.inflight_peak_msgs = self.metrics.inflight_peak_msgs.max(self.inflight_msgs);
        self.metrics.inflight_peak_batches = self
            .metrics
            .inflight_peak_batches
            .max(self.inflight_batches);
        let bytes = self.inflight_batches * entry_b as u64 + self.inflight_msgs * pay_b as u64;
        self.metrics.inflight_peak_bytes = self.metrics.inflight_peak_bytes.max(bytes);
    }

    /// Splits one drained outbox: self-sends join the next self-delivery
    /// generation (`local`); network sends accumulate in `held` until
    /// [`Simulation::schedule_held`] schedules the whole event's output
    /// in one pass.
    fn split_outbox(out: &mut Outbox<M>, local: &mut Vec<M>, held: &mut Vec<Envelope<M>>) {
        for env in out.drain_iter() {
            if env.to == env.from {
                local.push(env.msg);
            } else {
                held.push(env);
            }
        }
    }

    /// Schedules every network send one delivery event produced (its
    /// direct sends plus everything its self-delivery fixpoint added):
    /// groups envelopes per recipient, one scheduler draw per group on
    /// the group's first envelope, in first-encounter order.
    fn schedule_held(&mut self, from: Pid, held: &mut Vec<Envelope<M>>) {
        let mut open = std::mem::take(&mut self.open);
        for env in held.drain(..) {
            let to = env.to.index() as usize;
            assert!(
                to >= 1 && to <= self.procs.len(),
                "message addressed to unknown process {to}"
            );
            // Wire bytes are charged in frame form: each message pays
            // its key-delta cost against the previous message in its
            // per-recipient group (`None` = frame head pays the full
            // header).
            match open.get_mut(self.group_of[to] as usize) {
                Some(g) => {
                    self.metrics
                        .record_send(env.msg.kind(), env.msg.framed_wire_len(g.msgs.last()));
                    g.msgs.push(env.msg);
                }
                None => {
                    self.metrics
                        .record_send(env.msg.kind(), env.msg.framed_wire_len(None));
                    let at = self
                        .scheduler
                        .delivery_time(&env, self.now, &mut self.rng)
                        .max(self.now + 1);
                    let mut msgs = self.group_bufs.pop().unwrap_or_default();
                    self.group_of[to] = open.len() as u32;
                    msgs.push(env.msg);
                    open.push(OpenGroup {
                        to: env.to,
                        at,
                        msgs,
                    });
                }
            }
        }
        for g in open.iter_mut() {
            self.seq += 1;
            self.inflight_msgs += g.msgs.len() as u64;
            self.inflight_batches += 1;
            self.metrics.batches_sent += 1;
            self.queue
                .push(g.at, self.seq, self.now, from, g.to, g.msgs.drain(..));
        }
        self.note_inflight();
        for g in open.drain(..) {
            self.group_of[g.to.index() as usize] = NO_GROUP;
            self.group_bufs.push(g.msgs);
        }
        self.open = open;
        // Mirror the strategy's cumulative link counters (loss, partition
        // holds) into the run metrics; a plain struct copy, free for
        // strategies that don't override `link_stats`.
        let stats = self.scheduler.link_stats();
        self.metrics.sched_drops = stats.drops;
        self.metrics.sched_retransmits = stats.retransmits;
        self.metrics.sched_held = stats.held;
    }

    fn dispatch_outbox(&mut self, out: &mut Outbox<M>) {
        // Self-sends are delivered synchronously in generations (see the
        // module docs): everything a process sends itself while handling
        // one callback is delivered back in ONE `on_batch` call. Network
        // sends from the whole event — the triggering callback plus its
        // self-delivery fixpoint — are held and scheduled in one pass at
        // the end, so the event is the unit of scheduling. All buffers
        // are reused across events; the dispatch loop allocates nothing
        // at steady state. Self-sends always target the outbox owner, so
        // a single per-process generation buffer suffices.
        let me = out.me();
        let mut gen = std::mem::take(&mut self.local_gen);
        let mut held = std::mem::take(&mut self.held);
        debug_assert!(gen.is_empty(), "generation buffer leaked");
        debug_assert!(held.is_empty(), "held-send buffer leaked");
        Self::split_outbox(out, &mut gen, &mut held);
        while !gen.is_empty() {
            self.metrics.self_deliveries += gen.len() as u64;
            self.metrics.self_delivery_batches += 1;
            let idx = (me.index() - 1) as usize;
            out.reset(me);
            self.procs[idx].on_batch(me, &mut gen, out);
            gen.clear(); // the contract says drained; be defensive
            Self::split_outbox(out, &mut gen, &mut held);
        }
        self.schedule_held(me, &mut held);
        self.local_gen = gen;
        self.held = held;
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for pid in Pid::all(self.procs.len()) {
            self.act(pid, |p, out| p.on_start(out));
        }
    }

    /// Runs one out-of-band local step at `pid` — a command from outside
    /// the message flow (share a secret, start a coin, inject a raw
    /// message) — and dispatches what `f` sends exactly as a delivery
    /// event's output: self-sends run the self-delivery fixpoint, and the
    /// network sends of the whole step are grouped per recipient,
    /// charged and scheduled in one pass. `on_start` takes this path.
    /// The first call starts the run (every process's `on_start` goes
    /// first).
    pub fn act(&mut self, pid: Pid, f: impl FnOnce(&mut P, &mut Outbox<M>)) {
        self.start_if_needed();
        let k = (pid.index() - 1) as usize;
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new(pid));
        out.reset(pid);
        f(&mut self.procs[k], &mut out);
        self.dispatch_outbox(&mut out);
        self.outbox = out;
    }

    /// Delivers exactly one scheduled batch. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.clear();
        let Some(b) = self.queue.pop(&mut scratch) else {
            // Quiescent: the in-flight gauges must balance exactly (this
            // is what keeps the peak gauges trustworthy).
            debug_assert_eq!(self.inflight_msgs, 0, "in-flight message gauge leaked");
            debug_assert_eq!(self.inflight_batches, 0, "in-flight batch gauge leaked");
            self.batch_scratch = scratch;
            return false;
        };
        self.inflight_msgs -= u64::from(b.len);
        self.inflight_batches -= 1;
        self.now = b.at;
        self.metrics.virtual_time = self.now;
        self.metrics.events += 1;
        self.metrics.messages_delivered += u64::from(b.len);
        self.metrics.record_latency(b.at - b.sent, u64::from(b.len));
        if let Some((cap, q)) = &mut self.trace {
            for msg in &scratch {
                if q.len() == *cap {
                    q.pop_front();
                }
                q.push_back(TraceEntry {
                    at: b.at,
                    sent: b.sent,
                    from: b.from,
                    to: b.to,
                    kind: msg.kind(),
                });
            }
        }
        if let Some(d) = &mut self.digest {
            let mut h = *d;
            for msg in &scratch {
                h = Self::digest_mix(h, b.at);
                h = Self::digest_mix(h, b.sent);
                h = Self::digest_mix(h, u64::from(b.from.index()) << 32 | u64::from(b.to.index()));
                for &byte in msg.kind().as_bytes() {
                    h = Self::digest_mix(h, u64::from(byte));
                }
            }
            *d = h;
        }
        let idx = (b.to.index() - 1) as usize;
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new(b.to));
        out.reset(b.to);
        self.procs[idx].on_batch(b.from, &mut scratch, &mut out);
        scratch.clear(); // the contract says drained; be defensive
        self.batch_scratch = scratch;
        self.dispatch_outbox(&mut out);
        self.outbox = out;
        if let Some(mut obs) = self.observer.take() {
            let stats = obs.after_event(self.now, self.metrics.events, &self.procs);
            self.metrics.monitor_checks += stats.checks;
            self.metrics.monitor_violations += stats.violations;
            self.observer = Some(obs);
        }
        true
    }

    /// Refreshes the process-health gauges ([`Metrics::processes_down`],
    /// [`Metrics::recoveries`]); called whenever a run loop hands control
    /// back so the gauges describe the state "at decision time".
    fn refresh_process_gauges(&mut self) {
        self.metrics.processes_down = self.procs.iter().filter(|p| p.down()).count() as u64;
        self.metrics.recoveries = self.procs.iter().map(|p| p.recoveries()).sum();
    }

    /// Runs until no messages are in flight or `max_events` batch
    /// deliveries happened.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        let start_events = self.metrics.events;
        self.start_if_needed();
        let mut quiescent = false;
        while self.metrics.events - start_events < max_events {
            if !self.step() {
                quiescent = true;
                break;
            }
        }
        self.refresh_process_gauges();
        RunOutcome {
            quiescent,
            all_done: self.all_done(),
            events: self.metrics.events - start_events,
        }
    }

    /// Runs until every process reports [`Process::done`], quiescence, or
    /// the event cap.
    pub fn run_until_all_done(&mut self, max_events: u64) -> RunOutcome {
        let start_events = self.metrics.events;
        self.start_if_needed();
        let outcome = loop {
            if self.all_done() {
                break RunOutcome {
                    quiescent: self.queue.is_empty(),
                    all_done: true,
                    events: self.metrics.events - start_events,
                };
            }
            if self.metrics.events - start_events >= max_events {
                break RunOutcome {
                    quiescent: false,
                    all_done: false,
                    events: self.metrics.events - start_events,
                };
            }
            if !self.step() {
                break RunOutcome {
                    quiescent: true,
                    all_done: self.all_done(),
                    events: self.metrics.events - start_events,
                };
            }
        };
        self.refresh_process_gauges();
        outcome
    }

    /// Runs until `pred` holds (checked after each delivery), quiescence,
    /// or the event cap. Returns whether `pred` held when the loop ended.
    pub fn run_until(&mut self, max_events: u64, mut pred: impl FnMut(&Self) -> bool) -> bool {
        self.start_if_needed();
        let start_events = self.metrics.events;
        let hit = loop {
            if pred(self) {
                break true;
            }
            if self.metrics.events - start_events >= max_events || !self.step() {
                break pred(self);
            }
        };
        self.refresh_process_gauges();
        hit
    }

    /// Replaces the scheduler RNG with a fresh stream derived from
    /// `seed`: the divergence point of a forked run. The extra constant
    /// keeps a fork's stream distinct from a fresh run's even when the
    /// same seed value is reused. Process-internal RNG streams continue
    /// unchanged — the adversary changes, the processes don't.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed ^ 0x5ba0_5eed ^ 0xf0f0_0f0f);
    }

    /// A deep copy of the whole simulation, frozen **mid-flight** —
    /// processes, calendar queue, scheduler, RNG stream, metrics, clocks,
    /// trace and digest — plus the observer as its
    /// [`Observer::clone_box`](crate::Observer::clone_box) copies it
    /// (which may share state; see [`Simulation::replace_observer`]). It
    /// can only be taken between events, which is the only place user
    /// code can call it from. Scratch buffers are rebuilt empty: between
    /// events they hold no state (debug-asserted), only recycled capacity.
    ///
    /// A simulation is a pure function of its seed, so a run can always
    /// be *replayed* by rebuilding it; a snapshot also lets it be
    /// continued from the middle, any number of times:
    ///
    /// - running a snapshot reproduces the original's tail
    ///   bit-identically (the scheduler RNG stream is copied too);
    /// - a snapshot followed by [`Simulation::reseed`] is a *fork*: the
    ///   protocol state at the branch point is identical, but the
    ///   adversary schedules the future differently — "round 3, coin
    ///   revealed, partition heals" style counterfactuals.
    ///
    /// A snapshot nobody steps is a checkpoint: each further snapshot of
    /// it is an independent continuation of the same branch point.
    /// Processes take part through `Clone` (every protocol engine in this
    /// workspace is plain data), schedulers through
    /// [`Scheduler::clone_box`](crate::Scheduler::clone_box) (every
    /// [`SchedLayer`](crate::SchedLayer) stack supports it).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler or the installed observer cannot be
    /// copied (its `clone_box` returned `None`).
    pub fn snapshot(&self) -> Self
    where
        P: Clone,
    {
        debug_assert!(self.local_gen.is_empty(), "snapshot mid-dispatch");
        debug_assert!(self.held.is_empty(), "snapshot mid-dispatch");
        Simulation {
            procs: self.procs.clone(),
            queue: self.queue.clone(),
            scheduler: self
                .scheduler
                .clone_box()
                .expect("this scheduler cannot be snapshotted"),
            metrics: self.metrics.clone(),
            rng: self.rng.clone(),
            now: self.now,
            seq: self.seq,
            started: self.started,
            trace: self.trace.clone(),
            digest: self.digest,
            observer: self
                .observer
                .as_ref()
                .map(|o| o.clone_box().expect("this observer cannot be snapshotted")),
            outbox: Outbox::new(Pid::new(1)),
            local_gen: Vec::new(),
            held: Vec::new(),
            open: Vec::new(),
            group_of: vec![NO_GROUP; self.procs.len() + 1],
            group_bufs: Vec::new(),
            batch_scratch: Vec::new(),
            inflight_msgs: self.inflight_msgs,
            inflight_batches: self.inflight_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedulers, SchedLayer};

    /// Floods `count` pings to every other process on start; counts pongs.
    struct Pinger {
        me: Pid,
        n: usize,
        count: u64,
        got: u64,
    }

    impl Process<u64> for Pinger {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for p in Pid::all(self.n) {
                if p != self.me {
                    for _ in 0..self.count {
                        out.send(p, 0);
                    }
                }
            }
        }
        fn on_message(&mut self, _from: Pid, msg: u64, _out: &mut Outbox<u64>) {
            if msg == 0 {
                self.got += 1;
            }
        }
        fn done(&self) -> bool {
            self.got >= (self.n as u64 - 1) * self.count
        }
    }

    fn pingers(n: usize, count: u64) -> Vec<Box<dyn Process<u64>>> {
        (1..=n)
            .map(|i| {
                Box::new(Pinger {
                    me: Pid::new(i as u32),
                    n,
                    count,
                    got: 0,
                }) as Box<dyn Process<u64>>
            })
            .collect()
    }

    #[test]
    fn all_messages_delivered_eventually() {
        let mut sim = Simulation::new(pingers(4, 3), schedulers::uniform(50), 7);
        let outcome = sim.run_until_all_done(10_000);
        assert!(outcome.all_done);
        assert_eq!(sim.metrics().messages_sent, 4 * 3 * 3);
        assert_eq!(sim.metrics().messages_delivered, 4 * 3 * 3);
    }

    #[test]
    fn same_seed_same_run_different_seed_differs_in_time() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(pingers(5, 5), schedulers::uniform(1000), seed);
            sim.run_to_quiescence(100_000);
            sim.metrics().virtual_time
        };
        assert_eq!(run(3), run(3), "same seed must replay identically");
        // Different seeds almost surely pick different delays somewhere.
        assert!(
            (0..10).any(|s| run(s) != run(s + 100)),
            "scheduler ignored the seed"
        );
    }

    #[test]
    fn self_messages_bypass_scheduler() {
        struct SelfTalker {
            hops: u64,
        }
        impl Process<u64> for SelfTalker {
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                out.send(Pid::new(1), 0);
            }
            fn on_message(&mut self, _from: Pid, msg: u64, out: &mut Outbox<u64>) {
                self.hops = msg + 1;
                if self.hops < 5 {
                    out.send(Pid::new(1), self.hops);
                }
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(SelfTalker { hops: 0 })];
        let mut sim = Simulation::new(procs, schedulers::uniform(10), 1);
        let outcome = sim.run_to_quiescence(100);
        assert!(outcome.quiescent);
        assert_eq!(sim.metrics().messages_sent, 0);
        assert_eq!(sim.metrics().self_deliveries, 5);
        // A chain of single self-sends is 5 generations of one message.
        assert_eq!(sim.metrics().self_delivery_batches, 5);
    }

    /// All self-sends queued while handling one callback form ONE
    /// generation: one `on_batch` call, one scheduling pass.
    #[test]
    fn self_sends_coalesce_into_generations() {
        /// Fans `width` self-sends per generation, `depth` generations
        /// deep.
        struct Fan {
            width: u64,
            depth: u64,
        }
        impl Process<u64> for Fan {
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                for _ in 0..self.width {
                    out.send(Pid::new(1), 1);
                }
            }
            fn on_message(&mut self, _from: Pid, msg: u64, out: &mut Outbox<u64>) {
                if msg < self.depth {
                    out.send(Pid::new(1), msg + 1);
                }
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Fan { width: 4, depth: 3 })];
        let mut sim = Simulation::new(procs, schedulers::uniform(10), 1);
        sim.run_to_quiescence(100);
        let m = sim.metrics();
        // Generation 1: the 4 initial sends. Each delivered message
        // spawns a follow-up until depth 3: generations of 4, 4, 4.
        assert_eq!(m.self_deliveries, 12);
        assert_eq!(m.self_delivery_batches, 3);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Simulation::new(pingers(3, 10), schedulers::uniform(10), 2);
        let hit = sim.run_until(10_000, |s| s.metrics().messages_delivered >= 5);
        assert!(hit);
        assert!(sim.metrics().messages_delivered >= 5);
    }

    #[test]
    fn event_cap_stops_runaway() {
        let mut sim = Simulation::new(pingers(4, 100), schedulers::uniform(10), 2);
        let outcome = sim.run_to_quiescence(7);
        assert!(!outcome.quiescent);
        assert_eq!(outcome.events, 7);
    }

    /// Same-event sends to one recipient share one queue entry; the
    /// gauges see the difference while per-message metrics do not.
    #[test]
    fn batches_coalesce_same_event_same_recipient_sends() {
        let mut sim = Simulation::new(pingers(2, 10), SchedLayer::Fifo.build(), 3);
        sim.run_to_quiescence(100);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 20);
        assert_eq!(m.messages_delivered, 20);
        // Each pinger's 10 sends to the other form exactly one batch.
        assert_eq!(m.batches_sent, 2);
        assert_eq!(m.events, 2);
        assert_eq!(m.inflight_peak_msgs, 20);
        assert_eq!(m.inflight_peak_batches, 2);
        assert!(m.inflight_peak_bytes > 0);
    }

    /// Sends `script` on start (or not at all, when `quiet`); answers a
    /// network message `msg < 100` with `100 + msg`.
    struct Scripted {
        quiet: bool,
        script: Vec<(u32, u64)>,
    }
    impl Process<u64> for Scripted {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if !self.quiet {
                for &(to, msg) in &self.script {
                    out.send(Pid::new(to), msg);
                }
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            if msg < 100 && from != out.me() {
                out.send(from, 100 + msg);
            }
        }
    }

    /// An action's network sends are grouped, charged, scheduled and
    /// digested exactly like the same sends made from `on_start`.
    #[test]
    fn act_schedules_like_on_start() {
        let script = vec![(2, 1), (3, 2), (2, 3), (1, 4), (3, 5), (2, 6)];
        let run = |quiet: bool| {
            let procs: Vec<Box<dyn Process<u64>>> = (0..3)
                .map(|k| {
                    let script = if k == 0 { script.clone() } else { Vec::new() };
                    Box::new(Scripted { quiet, script }) as Box<dyn Process<u64>>
                })
                .collect();
            let mut sim = Simulation::new(procs, schedulers::uniform(20), 9);
            sim.enable_digest();
            sim.enable_trace(64);
            if quiet {
                sim.act(Pid::new(1), |_, out| {
                    for &(to, msg) in &script {
                        out.send(Pid::new(to), msg);
                    }
                });
            }
            assert!(sim.run_to_quiescence(1_000).quiescent);
            let m = sim.metrics().clone();
            let trace: Vec<TraceEntry> = sim.trace().cloned().collect();
            (
                m.messages_sent,
                m.bytes_sent,
                m.batches_sent,
                m.self_deliveries,
                sim.digest(),
                trace,
            )
        };
        let (from_start, from_act) = (run(false), run(true));
        assert_eq!(from_start, from_act);
        // Two recipient groups out, two replies back; one self-delivery.
        assert_eq!((from_act.0, from_act.2, from_act.3), (10, 4, 1));
    }

    /// Self-sends made by an action run the self-delivery fixpoint, and
    /// the network sends that fixpoint makes join the action's one
    /// scheduling pass.
    #[test]
    fn act_runs_the_self_delivery_fixpoint() {
        /// Each self-delivered `k < 3` sends itself `k + 1` and p2 `k`.
        struct Chain;
        impl Process<u64> for Chain {
            fn on_start(&mut self, _: &mut Outbox<u64>) {}
            fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
                if from == out.me() && msg < 3 {
                    out.send(out.me(), msg + 1);
                    out.send(Pid::new(2), msg);
                }
            }
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Chain), Box::new(Chain)];
        let mut sim = Simulation::new(procs, schedulers::uniform(10), 4);
        sim.act(Pid::new(1), |_, out| out.send(Pid::new(1), 0));
        let m = sim.metrics();
        // Generations 0, 1, 2, 3 before anything is delivered.
        assert_eq!((m.self_deliveries, m.self_delivery_batches), (4, 4));
        // The fixpoint's three sends to p2 left as one batch.
        assert_eq!((m.messages_sent, m.batches_sent, m.events), (3, 1, 0));
        sim.run_to_quiescence(100);
        assert_eq!(sim.metrics().messages_delivered, 3);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn unknown_recipient_panics() {
        struct Bad;
        impl Process<u64> for Bad {
            fn on_start(&mut self, out: &mut Outbox<u64>) {
                out.send(Pid::new(9), 0);
            }
            fn on_message(&mut self, _: Pid, _: u64, _: &mut Outbox<u64>) {}
        }
        let procs: Vec<Box<dyn Process<u64>>> = vec![Box::new(Bad)];
        let mut sim = Simulation::new(procs, schedulers::uniform(10), 1);
        sim.run_to_quiescence(10);
    }

    /// A process with internal randomness-free state whose transcript
    /// depends on delivery order: each delivery appends to a rolling fold.
    #[derive(Clone)]
    struct Folder {
        me: Pid,
        n: usize,
        fold: u64,
        sends_left: u64,
    }
    impl Process<u64> for Folder {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for p in Pid::all(self.n) {
                if p != self.me {
                    out.send(p, u64::from(self.me.index()));
                }
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            self.fold = self
                .fold
                .rotate_left(7)
                .wrapping_add(msg.wrapping_mul(31).wrapping_add(u64::from(from.index())));
            if self.sends_left > 0 {
                self.sends_left -= 1;
                out.send(from, self.fold);
            }
        }
    }

    fn folders(n: usize) -> Vec<Folder> {
        (1..=n)
            .map(|i| Folder {
                me: Pid::new(i as u32),
                n,
                fold: 0,
                sends_left: 20,
            })
            .collect()
    }

    #[test]
    fn resume_reproduces_the_original_tail() {
        let mut sim = Simulation::new(folders(4), schedulers::uniform(30), 11);
        sim.enable_digest();
        sim.run_to_quiescence(40);
        let ck = sim.snapshot();
        sim.run_to_quiescence(100_000);
        let mut resumed = ck.snapshot();
        resumed.run_to_quiescence(100_000);
        assert_eq!(sim.digest(), resumed.digest());
        assert_eq!(sim.metrics(), resumed.metrics());
        let a: Vec<u64> = sim.processes().map(|p| p.fold).collect();
        let b: Vec<u64> = resumed.processes().map(|p| p.fold).collect();
        assert_eq!(a, b, "process state must match, not just metrics");
    }

    #[test]
    fn fork_diverges_but_shares_the_prefix() {
        let mut sim = Simulation::new(folders(4), schedulers::uniform(30), 11);
        sim.enable_digest();
        sim.run_to_quiescence(40);
        let ck = sim.snapshot();
        let prefix_digest = sim.digest();
        sim.run_to_quiescence(100_000);

        let mut fork = ck.snapshot();
        fork.reseed(999);
        assert_eq!(fork.digest(), prefix_digest, "branch point state shared");
        fork.run_to_quiescence(100_000);
        // Both branches complete; the schedules (almost surely) differ.
        assert_ne!(sim.digest(), fork.digest(), "divergent tail");
        // A fork of the fork's own branch point is reproducible too.
        let mut fork2 = ck.snapshot();
        fork2.reseed(999);
        fork2.run_to_quiescence(100_000);
        assert_eq!(fork.digest(), fork2.digest(), "same fork seed, same run");
    }

    #[test]
    fn checkpoint_is_reusable_and_independent() {
        let mut sim = Simulation::new(folders(3), SchedLayer::Skewed { max_delay: 9 }.build(), 5);
        sim.enable_digest();
        sim.run_to_quiescence(10);
        let ck = sim.snapshot();
        // Consuming one continuation doesn't disturb the next.
        let mut r1 = ck.snapshot();
        r1.run_to_quiescence(100_000);
        let mut r2 = ck.snapshot();
        r2.run_to_quiescence(100_000);
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(ck.metrics().events, 10);
    }
}

/// The calendar queue against the structure it stands in for: a binary
/// heap keyed `(at, seq)`.
#[cfg(test)]
mod queue_model {
    use proptest::prelude::*;

    use super::*;

    /// `(at, seq, sent, from, to, members in order)` of one batch; the
    /// queue does not hand `seq` back, so the members carry it.
    type Batch = (u64, u64, u64, Pid, Pid, Vec<u64>);

    #[derive(Clone)]
    struct Model {
        queue: EventQueue<u64>,
        heap: BinaryHeap<Reverse<Batch>>,
        /// Delivery time of the last pop: pushes never go behind it.
        now: u64,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, delay: u64, from: Pid, to: Pid, k: u64) {
            self.seq += 1;
            let (at, seq, sent) = (self.now + delay, self.seq, self.now);
            let members: Vec<u64> = (0..k).map(|i| seq * 8 + i).collect();
            self.queue
                .push(at, seq, sent, from, to, members.iter().copied());
            self.heap.push(Reverse((at, seq, sent, from, to, members)));
            assert_eq!(self.queue.len, self.heap.len());
        }

        /// Pops both and compares; `false` once both are empty.
        fn pop(&mut self) -> bool {
            let mut members = Vec::new();
            let got = self.queue.pop(&mut members).map(|b| {
                assert_eq!(b.len as usize, members.len());
                (b.at, members[0] / 8, b.sent, b.from, b.to, members)
            });
            let want = self.heap.pop().map(|Reverse(batch)| batch);
            assert_eq!(got, want);
            assert_eq!(self.queue.len, self.heap.len());
            assert_eq!(self.queue.is_empty(), self.heap.is_empty());
            self.now = want.as_ref().map_or(self.now, |batch| batch.0);
            want.is_some()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, max_shrink_iters: 256 })]

        /// Random pushes — same-tick, in-window, mid-window (a ring of
        /// empty buckets the cursor walks across), at the window's edge
        /// and far beyond it, so buckets, the spare pool, the overflow
        /// heap, `migrate` and the cursor jump all run — interleaved
        /// with pops and snapshots, then drained: every pop is the
        /// heap's, member for member, and the two run empty together. A
        /// snapshot deep-copies the queue mid-drain and drains the
        /// copy to the end against a copy of the heap.
        #[test]
        fn event_queue_pops_like_a_binary_heap(
            ops in proptest::collection::vec(
                (0..8u8, 0..5u8, 0..3 * CALENDAR_WINDOW, 1..5u32, 1..5u32, 1..4u64),
                0..400,
            ),
        ) {
            let mut m = Model {
                queue: EventQueue::new(),
                heap: BinaryHeap::new(),
                now: 0,
                seq: 0,
            };
            for (op, range, raw, from, to, k) in ops {
                match op {
                    0..=2 => {
                        m.pop();
                        continue;
                    }
                    3 => {
                        let mut copy = m.clone();
                        while copy.pop() {}
                        continue;
                    }
                    _ => {}
                }
                let delay = match range {
                    0 | 1 => raw % 8,
                    2 => CALENDAR_WINDOW / 2 + raw % 8,
                    3 => CALENDAR_WINDOW - 4 + raw % 8,
                    _ => raw,
                };
                m.push(delay, Pid::new(from), Pid::new(to), k);
            }
            while m.pop() {}
        }
    }

    /// The spare pool keeps buffers for the live delay span only: 100 k
    /// ticks of traffic with delays of at most 8 never hold more than
    /// `2 · 8 + 1` buckets between the ring and the pool.
    #[test]
    fn retained_buckets_are_bounded_by_the_delay_span() {
        const MAX_DELAY: u64 = 8;
        let mut q = EventQueue::<u64>::new();
        let (mut now, mut seq, mut x) = (0u64, 0u64, 1u64);
        let (a, b) = (Pid::new(1), Pid::new(2));
        let mut scratch = Vec::new();
        // Every pop answers with one push, so four batches stay in flight.
        for _ in 0..4 {
            seq += 1;
            q.push(seq, seq, 0, a, b, [seq].into_iter());
        }
        while now < 100_000 {
            scratch.clear();
            now = q.pop(&mut scratch).expect("traffic never stops").at;
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            seq += 1;
            let at = now + 1 + (x >> 33) % MAX_DELAY;
            q.push(at, seq, now, b, a, (0..1 + x % 3).map(|i| seq + i));
            assert!(
                q.ring.len() + q.spare.len() <= (2 * MAX_DELAY + 1) as usize,
                "{} ring + {} spare buckets at tick {now}",
                q.ring.len(),
                q.spare.len()
            );
        }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::{schedulers, SchedLayer};
    use sba_net::Outbox;

    struct Chat {
        me: Pid,
        hops: u64,
    }
    impl Process<u64> for Chat {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            if self.me == Pid::new(1) {
                out.send(Pid::new(2), 0);
            }
        }
        fn on_message(&mut self, from: Pid, msg: u64, out: &mut Outbox<u64>) {
            self.hops = msg;
            if msg < 6 {
                out.send(from, msg + 1);
            }
        }
    }

    fn chat_pair() -> Vec<Chat> {
        vec![
            Chat {
                me: Pid::new(1),
                hops: 0,
            },
            Chat {
                me: Pid::new(2),
                hops: 0,
            },
        ]
    }

    #[test]
    fn trace_records_deliveries_in_order() {
        let mut sim = Simulation::new(chat_pair(), SchedLayer::Fifo.build(), 1);
        sim.enable_trace(100);
        sim.run_to_quiescence(100);
        let entries: Vec<&TraceEntry> = sim.trace().collect();
        assert_eq!(entries.len(), 7, "7 ping-pong deliveries");
        assert!(entries.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(entries[0].from, Pid::new(1));
        assert_eq!(entries[0].kind, "raw");
    }

    #[test]
    fn trace_ring_buffer_evicts_oldest() {
        let mut sim = Simulation::new(chat_pair(), SchedLayer::Fifo.build(), 1);
        sim.enable_trace(3);
        sim.run_to_quiescence(100);
        let entries: Vec<&TraceEntry> = sim.trace().collect();
        assert_eq!(entries.len(), 3, "capped at capacity");
        // The retained entries are the most recent ones.
        assert!(entries.iter().all(|e| e.at >= 5));
    }

    #[test]
    fn latency_metrics_accumulate() {
        let mut sim = Simulation::new(chat_pair(), schedulers::uniform(5), 2);
        sim.run_to_quiescence(100);
        let m = sim.metrics();
        assert!(m.latency_mean() >= 1.0 && m.latency_mean() <= 5.0);
        assert!(m.latency_max >= 1 && m.latency_max <= 5);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut sim = Simulation::new(chat_pair(), SchedLayer::Fifo.build(), 1);
        sim.run_to_quiescence(100);
        assert_eq!(sim.trace().count(), 0);
    }
}
