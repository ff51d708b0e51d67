//! Byzantine behaviour as outgoing-message tampering.
//!
//! A corrupted process runs the honest state machine, but a test- or
//! experiment-supplied function may rewrite, multiply, or suppress every
//! message it sends. This captures a large class of Byzantine behaviours
//! (lying dealers, forged reconstruction points, selective silence,
//! equivocation attempts) while keeping the corruption *explicit and
//! auditable* in experiment code.

use sba_net::{Outbox, Pid};

use crate::Process;

/// The tamper function's decision for one outgoing message.
pub enum Tamper<M> {
    /// Send unchanged.
    Keep,
    /// Suppress the message.
    Drop,
    /// Send these messages (to the same recipient) instead.
    Replace(Vec<M>),
}

/// A cloneable tamper function: the closure itself plus the ability to
/// deep-copy it behind the box, which is what lets a corrupted process
/// be snapshotted along with everyone else.
trait CloneTamper<M>: FnMut(Pid, &M) -> Tamper<M> + Send {
    fn clone_box(&self) -> Box<dyn CloneTamper<M>>;
}

impl<M, F> CloneTamper<M> for F
where
    F: FnMut(Pid, &M) -> Tamper<M> + Send + Clone + 'static,
{
    fn clone_box(&self) -> Box<dyn CloneTamper<M>> {
        Box::new(self.clone())
    }
}

/// The boxed tamper function type.
type TamperFn<M> = Box<dyn CloneTamper<M>>;

/// Wraps an honest process with an outgoing-message tamper function.
pub struct TamperProcess<P, M> {
    inner: P,
    tamper: TamperFn<M>,
    /// Reusable scratch outbox for the inner process's raw sends
    /// (allocation-free per delivery event).
    raw: Outbox<M>,
}

impl<P: Clone, M> Clone for TamperProcess<P, M> {
    fn clone(&self) -> Self {
        TamperProcess {
            inner: self.inner.clone(),
            tamper: self.tamper.clone_box(),
            raw: Outbox::new(Pid::new(1)),
        }
    }
}

impl<P, M> TamperProcess<P, M> {
    /// Corrupts `inner` with `tamper`, applied to every outgoing message
    /// (the recipient is the first argument). The closure must be `Clone`
    /// so the corrupted process can still be snapshotted (capture only
    /// cloneable state — all stock tampers do).
    pub fn new(
        inner: P,
        tamper: impl FnMut(Pid, &M) -> Tamper<M> + Send + Clone + 'static,
    ) -> Self {
        TamperProcess {
            inner,
            tamper: Box::new(tamper),
            raw: Outbox::new(Pid::new(1)),
        }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped process, mutably.
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Replaces the tamper function: the process turns (or stops being)
    /// Byzantine from its next step on.
    pub fn set_tamper(
        &mut self,
        tamper: impl FnMut(Pid, &M) -> Tamper<M> + Send + Clone + 'static,
    ) {
        self.tamper = Box::new(tamper);
    }

    /// Runs `f` on the wrapped process and forwards what it sends into
    /// `out` through the tamper function — the path every callback and
    /// every out-of-band action of a corrupted process takes.
    pub fn with_inner(&mut self, out: &mut Outbox<M>, f: impl FnOnce(&mut P, &mut Outbox<M>)) {
        let mut raw = std::mem::replace(&mut self.raw, Outbox::new(out.me()));
        raw.reset(out.me());
        f(&mut self.inner, &mut raw);
        for env in raw.drain_iter() {
            match (self.tamper)(env.to, &env.msg) {
                Tamper::Keep => out.send(env.to, env.msg),
                Tamper::Drop => {}
                Tamper::Replace(list) => {
                    for m in list {
                        out.send(env.to, m);
                    }
                }
            }
        }
        self.raw = raw;
    }
}

impl<P: Process<M>, M: Clone + Send> Process<M> for TamperProcess<P, M> {
    fn on_start(&mut self, out: &mut Outbox<M>) {
        self.with_inner(out, |p, raw| p.on_start(raw));
    }

    fn on_message(&mut self, from: Pid, msg: M, out: &mut Outbox<M>) {
        self.with_inner(out, |p, raw| p.on_message(from, msg, raw));
    }

    fn on_batch(&mut self, from: Pid, msgs: &mut Vec<M>, out: &mut Outbox<M>) {
        // Forward the batch intact (the inner engine keeps its batch
        // amortization); tamper each resulting send as usual.
        self.with_inner(out, |p, raw| p.on_batch(from, msgs, raw));
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedLayer, Simulation};

    struct Flood;
    impl Process<u64> for Flood {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for k in 0..4 {
                out.send(Pid::new(2), k);
            }
        }
        fn on_message(&mut self, _: Pid, _: u64, _: &mut Outbox<u64>) {}
    }

    struct Counter {
        sum: u64,
    }
    impl Process<u64> for Counter {
        fn on_start(&mut self, _: &mut Outbox<u64>) {}
        fn on_message(&mut self, _: Pid, msg: u64, _: &mut Outbox<u64>) {
            self.sum += msg;
        }
    }

    #[test]
    fn tamper_drops_and_rewrites() {
        let tampered = TamperProcess::new(Flood, |_to, &msg: &u64| {
            if msg == 0 {
                Tamper::Drop
            } else if msg == 1 {
                Tamper::Replace(vec![100, 200])
            } else {
                Tamper::Keep
            }
        });
        let procs: Vec<Box<dyn Process<u64>>> =
            vec![Box::new(tampered), Box::new(Counter { sum: 0 })];
        let mut sim = Simulation::new(procs, SchedLayer::Fifo.build(), 1);
        sim.run_to_quiescence(100);
        // Sent: (0 dropped), 1→(100,200), 2, 3  ⇒  sum = 100+200+2+3.
        assert_eq!(sim.metrics().messages_sent, 4);
        assert_eq!(sim.metrics().messages_delivered, 4);
    }
}
