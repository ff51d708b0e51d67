//! Envelopes and the sans-io outbox.

use crate::Pid;

/// A message in flight: `from → to` carrying `msg`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: Pid,
    /// Recipient.
    pub to: Pid,
    /// Payload.
    pub msg: M,
}

/// Accumulates the messages a state machine wants to send during one step.
///
/// Protocol code calls [`Outbox::send`] / [`Outbox::broadcast`]; the runtime
/// drains the outbox and is responsible for actual delivery. "Broadcast"
/// here is plain best-effort fan-out (one unicast per process, including
/// the sender itself — the paper's protocols count their own messages);
/// *reliable* broadcast is a protocol built on top (`sba-broadcast`).
///
/// # Examples
///
/// ```
/// use sba_net::{Outbox, Pid};
///
/// let mut out = Outbox::new(Pid::new(2));
/// out.send(Pid::new(1), "hello");
/// let sent = out.drain();
/// assert_eq!(sent[0].from, Pid::new(2));
/// assert_eq!(sent[0].to, Pid::new(1));
/// ```
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    me: Pid,
    queue: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    /// Creates an outbox stamping envelopes with sender `me`.
    pub fn new(me: Pid) -> Self {
        Outbox {
            me,
            queue: Vec::new(),
        }
    }

    /// The sender this outbox stamps on envelopes.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// Queues a unicast message.
    pub fn send(&mut self, to: Pid, msg: M) {
        self.queue.push(Envelope {
            from: self.me,
            to,
            msg,
        });
    }

    /// Queues one copy of `msg` to every process in `targets` (including
    /// the sender if present in `targets`).
    pub fn broadcast(&mut self, targets: impl IntoIterator<Item = Pid>, msg: M)
    where
        M: Clone,
    {
        for to in targets {
            self.send(to, msg.clone());
        }
    }

    /// Takes all queued envelopes, leaving the outbox empty.
    pub fn drain(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.queue)
    }

    /// Drains queued envelopes by iterator, **retaining** the queue's
    /// capacity — the allocation-free variant of [`Outbox::drain`] for
    /// runtimes that reuse one outbox across deliveries.
    pub fn drain_iter(&mut self) -> std::vec::Drain<'_, Envelope<M>> {
        self.queue.drain(..)
    }

    /// The envelopes queued after the first `start`, mutably: lets a
    /// sender rewrite what one of its steps queued, in place.
    pub fn tail_mut(&mut self, start: usize) -> &mut [Envelope<M>] {
        &mut self.queue[start..]
    }

    /// Re-arms the outbox for a new sender, clearing any leftover queue
    /// but keeping its capacity.
    pub fn reset(&mut self, me: Pid) {
        self.me = me;
        self.queue.clear();
    }

    /// Number of queued envelopes.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no envelopes are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_drain() {
        let mut out = Outbox::new(Pid::new(1));
        assert!(out.is_empty());
        out.send(Pid::new(2), 5u32);
        out.send(Pid::new(3), 6u32);
        assert_eq!(out.len(), 2);
        let msgs = out.drain();
        assert!(out.is_empty());
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[1].msg, 6);
        assert_eq!(msgs[1].from, Pid::new(1));
    }

    #[test]
    fn broadcast_includes_self() {
        let mut out = Outbox::new(Pid::new(2));
        out.broadcast(Pid::all(3), 9u8);
        let msgs = out.drain();
        assert_eq!(msgs.len(), 3);
        assert!(msgs.iter().any(|e| e.to == Pid::new(2)));
    }
}
