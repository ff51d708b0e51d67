//! Run metrics: message, byte, and event accounting.

use sba_net::FastMap;

/// Counters accumulated over a simulation run.
///
/// `per_kind` is keyed by [`Kinded::kind`] labels, giving the per-protocol
/// communication breakdown that experiment E4 reports. It is a hash map
/// (updated on **every** send, so the lookup must not walk a string
/// B-tree); use [`Metrics::per_kind_sorted`] for deterministic reporting
/// order.
///
/// [`Kinded::kind`]: sba_net::Kinded::kind
///
/// `PartialEq` compares every counter (including the per-kind map): two
/// runs with equal metrics made the same sends, deliveries, and timing
/// decisions — the equality the replay-conformance tests assert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Envelopes handed to the scheduler (excludes self-deliveries).
    pub messages_sent: u64,
    /// Total encoded payload bytes of those envelopes.
    pub bytes_sent: u64,
    /// Envelopes delivered to processes (excludes self-deliveries).
    pub messages_delivered: u64,
    /// Self-addressed envelopes (delivered immediately, not scheduled).
    pub self_deliveries: u64,
    /// Self-delivery generations: one per `on_batch` callback on the
    /// self-delivery path (each generation carries ≥ 1 messages).
    pub self_delivery_batches: u64,
    /// Per message-kind `(messages, bytes)` sent.
    pub per_kind: FastMap<&'static str, (u64, u64)>,
    /// Virtual time of the last processed event.
    pub virtual_time: u64,
    /// Total events (batch deliveries) processed by the run loop.
    pub events: u64,
    /// Sum of per-message delivery delays (virtual ticks).
    pub latency_sum: u64,
    /// Maximum observed delivery delay.
    pub latency_max: u64,
    /// Per-recipient same-tick batches handed to the scheduler (each
    /// batch is one queue entry carrying ≥ 1 messages).
    pub batches_sent: u64,
    /// Peak number of messages simultaneously in flight.
    pub inflight_peak_msgs: u64,
    /// Peak number of batches (queue entries) simultaneously in flight.
    pub inflight_peak_batches: u64,
    /// Approximate peak in-flight queue footprint in bytes: live batch
    /// headers plus live messages at their in-bucket sizes
    /// ([`queue_slot_sizes`](crate::queue_slot_sizes)); spare bucket
    /// capacity and heap payloads boxed inside messages are not counted.
    pub inflight_peak_bytes: u64,
    /// Simulated transmission losses reported by the scheduler (see
    /// [`LinkStats::drops`](crate::LinkStats)); each one was recovered by
    /// a retransmission, never a true drop.
    pub sched_drops: u64,
    /// Retransmissions reported by the scheduler.
    pub sched_retransmits: u64,
    /// Sends the scheduler held behind a partition until its heal event.
    pub sched_held: u64,
    /// Processes reporting [`Process::down`](crate::Process::down) when
    /// the run loop last returned — crashed, silent, or mid-outage at
    /// decision time.
    pub processes_down: u64,
    /// Completed crash-recoveries across all processes (see
    /// [`Process::recoveries`](crate::Process::recoveries)).
    pub recoveries: u64,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_latency(&mut self, delay: u64, count: u64) {
        self.latency_sum += delay * count;
        self.latency_max = self.latency_max.max(delay);
    }

    /// Mean delivery delay in virtual ticks (0 if nothing delivered).
    pub fn latency_mean(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.messages_delivered as f64
        }
    }

    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        let e = self.per_kind.entry(kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Messages sent for kinds whose label starts with `prefix`.
    pub fn sent_with_prefix(&self, prefix: &str) -> (u64, u64) {
        self.per_kind
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold((0, 0), |(m, b), (_, &(dm, db))| (m + dm, b + db))
    }

    /// The per-kind breakdown in deterministic (label) order, for reports.
    pub fn per_kind_sorted(&self) -> Vec<(&'static str, (u64, u64))> {
        let mut v: Vec<_> = self.per_kind.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_prefix_query() {
        let mut m = Metrics::new();
        m.record_send("rb/echo", 10);
        m.record_send("rb/ready", 20);
        m.record_send("mw/share", 5);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.bytes_sent, 35);
        assert_eq!(m.sent_with_prefix("rb/"), (2, 30));
        assert_eq!(m.sent_with_prefix("mw/"), (1, 5));
        assert_eq!(m.sent_with_prefix("zzz"), (0, 0));
    }
}
