//! Tracing from outside the program: a [`Spanned`] wrapper records one
//! span per `on_start` / `on_batch` callback into a preallocated
//! in-memory buffer; aggregation happens after the run.
//!
//! A traced op is a two-level span tree: the *run span* (the runtime's
//! whole run call) and, as its children, the callback spans of every
//! process. All spans of one op share the op's index; each child's
//! parent is that op's run span.

use std::time::Instant;

use sba::net::{Kinded, Outbox, Pid};
use sba::sim::Process;

/// The five traffic families, in reporting order. A message's family is
/// the prefix of its [`Kinded::kind`] label (`"rb/echo"` → `rb`).
pub const FAMILIES: [&str; 5] = ["rb", "mw", "svss", "coin", "aba"];

/// Index into [`FAMILIES`] of a kind label. The five prefixes differ in
/// their first byte, so that byte decides.
pub fn family(kind: &str) -> usize {
    match kind.as_bytes().first() {
        Some(b'r') => 0,
        Some(b'm') => 1,
        Some(b's') => 2,
        Some(b'c') => 3,
        Some(b'a') => 4,
        _ => panic!("message kind {kind:?} belongs to no known family"),
    }
}

/// One callback span. `pid` and the op are implied by the buffer that
/// holds it; an all-zero `fam` marks `on_start`, anything else an
/// `on_batch` whose delivered batch had `fam[i]` messages of family `i`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Start, in nanoseconds since the op's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating at ~4.29 s).
    pub dur_ns: u32,
    /// Kind-family histogram of the delivered batch.
    pub fam: [u32; 5],
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        if self.fam == [0; 5] {
            "on_start"
        } else {
            "on_batch"
        }
    }

    /// Messages in the delivered batch.
    pub fn batch_len(&self) -> u64 {
        self.fam.iter().map(|&c| u64::from(c)).sum()
    }
}

/// How many delivered batches each wrapper keeps as probe input.
const RESERVOIR: usize = 24;

/// A process wrapper that records a span around every callback and
/// keeps a bounded uniform sample (reservoir) of the batches delivered
/// to it, cloned before the inner process consumes them.
pub struct Spanned<P, M> {
    inner: P,
    epoch: Instant,
    spans: Vec<Span>,
    kept: Vec<Vec<M>>,
    seen: u64,
    lcg: u64,
}

impl<P, M> Spanned<P, M> {
    /// Wraps `inner`; span times count from `epoch` (shared by every
    /// process of the op), and the span buffer is preallocated for
    /// `capacity` callbacks.
    pub fn new(inner: P, epoch: Instant, capacity: usize, reservoir_seed: u64) -> Self {
        Spanned {
            inner,
            epoch,
            spans: Vec::with_capacity(capacity),
            kept: Vec::with_capacity(RESERVOIR),
            seen: 0,
            lcg: reservoir_seed | 1,
        }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The recorded spans, in callback order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the sampled batches.
    pub fn take_batches(&mut self) -> Vec<Vec<M>> {
        std::mem::take(&mut self.kept)
    }

    fn now_ns(&self) -> u64 {
        let d = self.epoch.elapsed();
        d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
    }

    fn close(&mut self, start_ns: u64, fam: [u32; 5]) {
        let dur = self.now_ns().saturating_sub(start_ns);
        self.spans.push(Span {
            start_ns,
            dur_ns: u32::try_from(dur).unwrap_or(u32::MAX),
            fam,
        });
    }
}

impl<P, M: Clone + Kinded> Spanned<P, M> {
    /// Histogram of `msgs`, and reservoir-samples the batch (Algorithm
    /// R: batch number `k` replaces a kept one with probability
    /// `RESERVOIR / k`).
    fn observe(&mut self, msgs: &[M]) -> [u32; 5] {
        let mut fam = [0u32; 5];
        for m in msgs {
            fam[family(m.kind())] += 1;
        }
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(msgs.to_vec());
        } else {
            self.lcg = self
                .lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            // Uniform in 0..seen by multiply-shift (no division on the
            // per-callback path).
            let slot = ((u128::from(self.lcg >> 32) * u128::from(self.seen)) >> 32) as u64;
            if (slot as usize) < RESERVOIR {
                self.kept[slot as usize] = msgs.to_vec();
            }
        }
        fam
    }
}

impl<P, M> Process<M> for Spanned<P, M>
where
    P: Process<M>,
    M: Clone + Kinded + Send,
{
    fn on_start(&mut self, out: &mut Outbox<M>) {
        let start = self.now_ns();
        self.inner.on_start(out);
        self.close(start, [0; 5]);
    }

    fn on_message(&mut self, from: Pid, msg: M, out: &mut Outbox<M>) {
        let fam = self.observe(std::slice::from_ref(&msg));
        let start = self.now_ns();
        self.inner.on_message(from, msg, out);
        self.close(start, fam);
    }

    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<M>, out: &mut Outbox<M>) {
        let fam = self.observe(msgs);
        let start = self.now_ns();
        self.inner.on_batch(from, msgs, out);
        self.close(start, fam);
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn down(&self) -> bool {
        self.inner.down()
    }

    fn recoveries(&self) -> u64 {
        self.inner.recoveries()
    }
}

/// Total length of the union of `intervals` (`(start, end)` pairs, any
/// order, overlapping or nested) clipped to `window`.
pub fn covered_ns(window: (u64, u64), intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, window.0);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(window.1);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of a span: its duration minus the part of it that its
/// child spans cover.
pub fn self_ns(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    (span.1 - span.0) - covered_ns(span, children)
}

/// Per-op aggregate of one traced op's span tree.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpSpans {
    /// Duration of the run span.
    pub run_s: f64,
    /// Self time of the run span (the runtime's own work and waiting).
    pub run_self_s: f64,
    /// Sum of the callback spans (inclusive time under the processes).
    pub callback_s: f64,
    /// Number of callback spans.
    pub calls: u64,
    /// Callback time split pro rata by each batch's family histogram;
    /// `on_start` spans are charged to no family.
    pub handle_s: [f64; 5],
}

/// Aggregates one op: `run` is the run span, `procs` the callback spans
/// of each process.
pub fn aggregate<'a>(run: (u64, u64), procs: impl Iterator<Item = &'a [Span]>) -> OpSpans {
    let mut agg = OpSpans {
        run_s: (run.1 - run.0) as f64 / 1e9,
        ..OpSpans::default()
    };
    let mut children = Vec::new();
    for spans in procs {
        for s in spans {
            let dur = f64::from(s.dur_ns) / 1e9;
            agg.callback_s += dur;
            agg.calls += 1;
            let len = s.batch_len();
            if len > 0 {
                for (share, &count) in agg.handle_s.iter_mut().zip(&s.fam) {
                    *share += dur * f64::from(count) / len as f64;
                }
            }
            children.push((s.start_ns, s.start_ns + u64::from(s.dur_ns)));
        }
    }
    agg.run_self_s = self_ns(run, &mut children) as f64 / 1e9;
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_handles_disjoint_overlapping_and_nested() {
        let w = (0, 100);
        assert_eq!(covered_ns(w, &mut []), 0);
        assert_eq!(covered_ns(w, &mut [(10, 20), (30, 40)]), 20);
        // overlapping: [10,30) ∪ [20,50) = [10,50)
        assert_eq!(covered_ns(w, &mut [(20, 50), (10, 30)]), 40);
        // nested: [10,60) swallows [20,30) and [40,60)
        assert_eq!(covered_ns(w, &mut [(20, 30), (10, 60), (40, 60)]), 50);
        // clipped to the parent window on both sides
        assert_eq!(covered_ns((10, 50), &mut [(0, 20), (40, 90)]), 20);
    }

    #[test]
    fn self_time_is_duration_minus_cover() {
        // Two threads busy at once: the parent is idle only outside
        // their union, not by the sum of their durations.
        assert_eq!(self_ns((0, 100), &mut [(10, 60), (30, 80)]), 30);
        assert_eq!(self_ns((0, 100), &mut [(0, 100), (20, 30)]), 0);
        assert_eq!(self_ns((5, 25), &mut []), 20);
    }

    #[test]
    fn aggregate_splits_by_family_and_accounts_for_the_run() {
        let start = Span {
            start_ns: 0,
            dur_ns: 1_000,
            fam: [0; 5],
        };
        let batch = Span {
            start_ns: 2_000,
            dur_ns: 4_000,
            fam: [3, 0, 0, 1, 0],
        };
        assert_eq!(start.name(), "on_start");
        assert_eq!(batch.name(), "on_batch");
        let agg = aggregate((0, 10_000), [&[start, batch][..]].into_iter());
        assert_eq!(agg.calls, 2);
        assert!((agg.callback_s - 5e-6).abs() < 1e-15);
        assert!((agg.handle_s[0] - 3e-6).abs() < 1e-15);
        assert!((agg.handle_s[3] - 1e-6).abs() < 1e-15);
        // self + children = the run span, exactly, when nothing overlaps
        assert!((agg.run_self_s + agg.callback_s - agg.run_s).abs() < 1e-15);
    }

    #[test]
    fn families_cover_every_prefix() {
        for (i, f) in FAMILIES.iter().enumerate() {
            assert_eq!(family(&format!("{f}/x")), i);
        }
    }

    #[derive(Clone)]
    struct K(&'static str);
    impl Kinded for K {
        fn kind(&self) -> &'static str {
            self.0
        }
    }
    /// Swallows its batch, to drive the wrapper alone.
    struct KSink;
    impl Process<K> for KSink {
        fn on_start(&mut self, _out: &mut Outbox<K>) {}
        fn on_message(&mut self, _from: Pid, _msg: K, _out: &mut Outbox<K>) {}
    }

    #[test]
    fn wrapper_records_one_span_per_callback_and_bounds_the_reservoir() {
        let mut w = Spanned::new(KSink, Instant::now(), 8, 7);
        let mut out = Outbox::new(Pid::new(1));
        w.on_start(&mut out);
        for _ in 0..100 {
            let mut batch = vec![K("rb/echo"), K("aba/vote"), K("rb/ready")];
            w.on_batch(Pid::new(2), &mut batch, &mut out);
        }
        assert_eq!(w.spans().len(), 101);
        assert_eq!(w.spans()[0].name(), "on_start");
        assert_eq!(w.spans()[1].fam, [2, 0, 0, 0, 1]);
        assert!(w.spans().windows(2).all(|p| p[0].start_ns <= p[1].start_ns));
        assert_eq!(w.take_batches().len(), RESERVOIR);
    }
}
