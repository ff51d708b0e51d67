//! The per-process SVSS engine: reliable broadcast + DMM + all MW/SVSS
//! machines.
//!
//! The engine is the deployable unit of this crate: it owns every
//! sub-machine of one process and exposes a message-in/messages-out
//! interface plus an event stream. Layering inside (paper §2–§4):
//!
//! ```text
//!               ┌ scalar (origin, slot) ─ RbMux ───┐ one delivery
//! incoming ─► RB┤                                  ├─► per slot ─► DMM filter ─► MW / SVSS machines
//!               └ vector (origin, seq) ─ Rb, split ┘        │ rules 2+3 (detection) fire
//!                 (relays always run)                       └─ before the delay/discard verdict
//!
//! MW / SVSS machines ─► broadcasts ─► open vector ─(own step boundary)─► one Bracha instance
//! ```
//!
//! # Vector RB: one Bracha instance per (origin, step)
//!
//! The paper's RB (Appendix A) costs `n + 2n²` messages per instance,
//! and the thousands of MW-SVSS sessions of one coin round each
//! broadcast their `ack` / `L` / `M` / `OK` / reconstruct slots from the
//! same origin in the same step. So the unit of broadcast here is the
//! origin's **step**, not the slot: whatever one step of this process
//! broadcasts leaves as *one* Bracha instance keyed `(origin, seq)`,
//! whose payload is the list of `(slot, value)` members
//! ([`sba_net::RbVector`]); acceptance delivers the members one by one,
//! in vector order, down the path a scalar acceptance takes. A step that
//! broadcasts a single value sends the scalar message it always did —
//! same wire kind, same bytes, same `(origin, slot)` instance in the
//! `RbMux` — so only steps that really issue two or more broadcasts
//! pay for a shared payload (the amortisation of Wang, arXiv:1507.06165,
//! and the batching argument of VABA, arXiv:1811.01332). The mechanism —
//! the two instance stores, the open vector, the record below — is the
//! `rb` module's `SvssRb`; this engine decides where a step ends.
//!
//! **Who closes a vector, and when.** Its origin, at its *own step
//! boundary*: the end of the outermost entry point — `share`,
//! `reconstruct`, `mw_*`, `on_batch` — after the DMM rescan that ends
//! every entry point, or the [`SvssEngine::end_step`] of an enclosing
//! layer that held several entry points together as one step (the coin's
//! `start` shares `n` secrets; its `on_batch` pumps every touched
//! session). Never on a receipt, never on a timer, never waiting for
//! anything. That is why the rule adds no dependency the asynchronous
//! model forbids: a step is a process's atomic reaction to one delivery
//! or one local command, everything it sends leaves together when it
//! ends, and a vector holds only what that step itself produced —
//! nothing is held back for a later step, and no step waits for another
//! process. Coalescing a step's broadcasts changes how many instances
//! carry them, not when they leave.
//!
//! **Echo once per slot.** With one instance per slot, "the value `p`
//! broadcast for slot `s`" is well defined because an instance accepts
//! one value. A faulty origin can now put one slot into several
//! instances — two vectors, or a scalar and a vector — with different
//! values, so the paper's WRB rule "echo the first `(s, 1)` of an
//! instance" is lifted to slots: a process echoes an init, scalar or
//! vector, only if it has echoed **no other** instance of that origin
//! containing any of its slots (the `claims` record). Then two
//! instances of one origin that share a slot are never both accepted,
//! anywhere. Acceptance of an instance at any process takes `n − t`
//! readies, at least `n − 2t ≥ t + 1` of them from nonfaulty processes;
//! the first nonfaulty ready was sent on WRB acceptance, i.e. on
//! `n − t` echoes, at least `n − 2t` of them nonfaulty. Were two
//! instances sharing a slot both accepted, their nonfaulty echoers —
//! disjoint, by the rule — would number `2(n − 2t) ≤ n − t`, i.e.
//! `n ≤ 3t`. So per `(origin, slot)` at most one instance ever delivers:
//! no process delivers a slot twice and no two deliver different values.
//! Totality is untouched, because acceptance is not gated by the record:
//! an instance one nonfaulty process accepts, all accept (ready
//! amplification), and each delivers every member. The record is
//! written when an init arrives and when the own vector closes — never
//! on the `n²` echo/ready path — and, like the scalar mux's retired
//! store, holds one entry per `(origin, slot)`; an accepted vector
//! instance itself retires to a unit record.
//!
//! **Non-goal.** The member list is echoed and readied in full. The
//! hash-, Merkle- or erasure-coded broadcasts of the computational
//! literature (the acss-rs slice in SNIPPETS.md echoes a Merkle root
//! and a shard) shrink those relays by leaning on a collision-resistant
//! hash; this paper's setting is information-theoretic — an unbounded
//! adversary — so no digest can stand in for the payload.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sba_broadcast::{Params, RbDelivery};
use sba_field::{Domain, Field};
use sba_net::{FastMap, MwId, Pid, ProcessSet, SlotView, SvssId, Unpacked};

use crate::rb::SvssRb;
use crate::{
    Dmm, Mw, MwIn, MwOut, Reconstructed, SessionKey, Svss, SvssCtx, SvssMsg, SvssOut, SvssPriv,
    SvssRbValue, SvssSlot, Verdict,
};

/// Events reported to the engine's caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvssEvent<F> {
    /// An SVSS share protocol completed.
    ShareCompleted(SvssId),
    /// An SVSS reconstruct produced its output.
    Reconstructed(SvssId, Reconstructed<F>),
    /// A standalone MW-SVSS share completed.
    MwShareCompleted(MwId),
    /// A standalone MW-SVSS reconstruct produced its output.
    MwReconstructed(MwId, Reconstructed<F>),
    /// The DMM added `process` to `D_i` while handling `session` — the
    /// shunning signal (the process itself may never "know" this beyond
    /// the DMM's behaviour).
    Shunned {
        /// The newly detected faulty process.
        process: Pid,
        /// The session whose expectations exposed it.
        session: SvssId,
    },
}

/// A message the DMM told us to buffer.
#[derive(Clone, Debug)]
enum Inner<F> {
    Priv(SvssPriv<F>),
    Deliv {
        slot: SvssSlot,
        origin: Pid,
        value: SvssRbValue<F>,
    },
}

impl<F> Inner<F> {
    fn session_key(&self) -> SessionKey {
        match self {
            Inner::Priv(p) => p.session_key(),
            Inner::Deliv { slot, .. } => slot.session_key(),
        }
    }
}

/// The SVSS scheme for one process: invoke shares/reconstructs, feed it
/// incoming messages, drain outgoing sends and events.
///
/// # Examples
///
/// See the crate-level documentation and `tests/` for full multi-process
/// runs; the engine is driven either by `sba-sim` or by real channels.
#[derive(Clone)]
pub struct SvssEngine<F: Field> {
    me: Pid,
    params: Params,
    rng: StdRng,
    /// The instance-wide evaluation domain, shared with every machine.
    domain: Arc<Domain<F>>,
    /// Reliable broadcast: the scalar and vector instances, the open
    /// vector, the echo-once-per-slot record.
    rb: SvssRb<F>,
    /// Set while an enclosing layer holds several entry points together
    /// as one step ([`SvssEngine::begin_step`]).
    held: bool,
    /// Slot values RB has delivered to this process, whoever's.
    rb_delivered: u64,
    dmm: Dmm<F>,
    /// MW machines, boxed: [`Mw`] is 376 B over `Gf61` (pinned at ≤ 384 by
    /// `tests/state_bytes.rs`), and an inline-value table with thousands
    /// of live machines would drag a cache line per probe step through
    /// the hottest delivery path.
    mw: FastMap<MwId, Box<Mw<F>>>,
    svss: FastMap<SvssId, Svss<F>>,
    mw_completed: BTreeSet<MwId>,
    mw_outputs: FastMap<MwId, Reconstructed<F>>,
    pending: Vec<(Pid, Inner<F>)>,
    pending_version: u64,
    events: Vec<SvssEvent<F>>,
    /// Reusable acceptance buffer for [`SvssEngine::on_batch`] (capacity
    /// survives across deliveries; allocation-free steady state).
    rb_deliveries: Vec<RbDelivery<SvssSlot, SvssRbValue<F>>>,
    /// Reusable one-member batch for [`SvssEngine::on_message`].
    one: Vec<SvssMsg<F>>,
    /// Reusable buffers for one MW / SVSS machine step's outputs (see
    /// [`SvssEngine::drive_mw`]).
    mw_outs: Vec<MwOut<F>>,
    svss_outs: Vec<SvssOut<F>>,
}

impl<F: Field> SvssEngine<F> {
    /// Creates the engine for process `me`. `seed` drives all of this
    /// process's polynomial sampling (determinism for replay).
    pub fn new(me: Pid, params: Params, seed: u64) -> Self {
        let domain = Arc::new(Domain::new(params.n()));
        Self::with_domain(me, params, seed, domain)
    }

    /// Creates the engine with a caller-provided evaluation domain, so an
    /// enclosing layer (e.g. the common coin) can build the domain once
    /// and share it across engines instead of re-deriving it.
    ///
    /// # Panics
    ///
    /// Panics if the domain does not cover `params.n()` points.
    pub fn with_domain(me: Pid, params: Params, seed: u64, domain: Arc<Domain<F>>) -> Self {
        assert!(domain.n() >= params.n(), "domain must cover all processes");
        SvssEngine {
            me,
            params,
            rng: StdRng::seed_from_u64(seed ^ 0x5755_5353),
            domain,
            rb: SvssRb::new(me, params),
            held: false,
            rb_delivered: 0,
            dmm: Dmm::new(me, params.n()),
            mw: FastMap::default(),
            svss: FastMap::default(),
            mw_completed: BTreeSet::new(),
            mw_outputs: FastMap::default(),
            pending: Vec::new(),
            pending_version: 0,
            events: Vec::new(),
            rb_deliveries: Vec::new(),
            one: Vec::new(),
            mw_outs: Vec::new(),
            svss_outs: Vec::new(),
        }
    }

    /// The instance-wide evaluation domain.
    pub fn domain(&self) -> &Arc<Domain<F>> {
        &self.domain
    }

    /// This process's id.
    pub fn me(&self) -> Pid {
        self.me
    }

    /// System parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<SvssEvent<F>> {
        std::mem::take(&mut self.events)
    }

    /// Read access to the DMM (for assertions and experiments).
    pub fn dmm(&self) -> &Dmm<F> {
        &self.dmm
    }

    /// Disables the DMM's detection and filtering — the "no shunning"
    /// ablation of experiment E8. Never use outside experiments.
    pub fn disable_detection(&mut self) {
        self.dmm.disable();
    }

    /// Whether SVSS session `id`'s share completed at this process.
    pub fn share_completed(&self, id: SvssId) -> bool {
        self.svss.get(&id).is_some_and(|s| s.share_completed())
    }

    /// The SVSS output of session `id`, if reconstructed.
    pub fn output(&self, id: SvssId) -> Option<Reconstructed<F>> {
        self.svss.get(&id).and_then(|s| s.output())
    }

    /// The standalone MW output of `id`, if reconstructed.
    pub fn mw_output(&self, id: MwId) -> Option<Reconstructed<F>> {
        self.mw_outputs.get(&id).copied()
    }

    /// Number of live MW machines (memory accounting).
    pub fn mw_machine_count(&self) -> usize {
        self.mw.len()
    }

    /// Live (not yet accepted) RB instances, scalar and vector.
    pub fn rb_live_instances(&self) -> usize {
        self.rb.live_instances()
    }

    /// Peak concurrently-live RB instances (the working set; the two
    /// stores' peaks, summed).
    pub fn rb_live_peak(&self) -> usize {
        self.rb.live_peak()
    }

    /// Retired (accepted and reclaimed) RB instances.
    pub fn rb_retired_instances(&self) -> usize {
        self.rb.retired_instances()
    }

    /// RB instances this process has started as origin: one per step
    /// that broadcast anything.
    pub fn rb_started_instances(&self) -> u64 {
        self.rb.started().0
    }

    /// Slot values those instances carried; over
    /// [`SvssEngine::rb_started_instances`], the amortisation factor of
    /// vector RB.
    pub fn rb_started_members(&self) -> u64 {
        self.rb.started().1
    }

    /// Slot values RB has delivered to this process, from every origin.
    /// Once an honest run is quiescent this equals the sum of every
    /// process's [`SvssEngine::rb_started_members`]: each value an
    /// origin handed to RB arrives exactly once, whatever it rode in.
    pub fn rb_delivered_members(&self) -> u64 {
        self.rb_delivered
    }

    /// Number of DMM-delayed messages currently buffered. In honest runs
    /// this must drain to zero at quiescence (no message left behind).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    // ------------------------------------------------------------------
    // Local commands
    // ------------------------------------------------------------------

    /// Invokes protocol `S` as the dealer of session `id` with `secret`.
    ///
    /// # Panics
    ///
    /// Panics if this process is not `id.dealer()` or already shared `id`.
    pub fn share(&mut self, id: SvssId, secret: F, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        assert_eq!(self.me, id.dealer(), "only the dealer may share");
        self.dmm.session_started(SessionKey::Svss(id));
        self.drive_svss(id, sends, |m, rng, ctx, outs| {
            m.start_share(secret, rng, ctx, outs)
        });
        self.finish(sends);
    }

    /// Invokes protocol `R` for session `id` (begins once `S` completes).
    pub fn reconstruct(&mut self, id: SvssId, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        self.dmm.session_started(SessionKey::Svss(id));
        self.drive_svss(id, sends, |m, _, ctx, outs| m.start_reconstruct(ctx, outs));
        self.finish(sends);
    }

    /// Holds the entry points that follow together as **one step** of
    /// this process: what they broadcast stays in the open vector until
    /// [`SvssEngine::end_step`] closes it. For an enclosing layer whose
    /// own step makes several calls (the coin's `start` shares `n`
    /// secrets); a bare entry point is a step of its own.
    pub fn begin_step(&mut self) {
        debug_assert!(!self.held, "steps do not nest");
        self.held = true;
    }

    /// Ends the step [`SvssEngine::begin_step`] opened and closes its
    /// vector.
    pub fn end_step(&mut self, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        self.held = false;
        self.rb.close(sends);
    }

    /// Invokes a standalone MW-SVSS share as its dealer.
    ///
    /// # Panics
    ///
    /// Panics if this process is not `id.dealer()`.
    pub fn mw_share(&mut self, id: MwId, secret: F, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        self.dmm.session_started(SessionKey::Mw(id));
        self.drive_mw(id, sends, |mw, rng, outs| mw.start_share(secret, rng, outs));
        self.finish(sends);
    }

    /// Provides the moderator input of a standalone MW-SVSS session.
    ///
    /// # Panics
    ///
    /// Panics if this process is not `id.moderator()`.
    pub fn mw_set_moderator_input(
        &mut self,
        id: MwId,
        value: F,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        self.dmm.session_started(SessionKey::Mw(id));
        self.drive_mw(id, sends, |mw, _, outs| mw.set_moderator_input(value, outs));
        self.finish(sends);
    }

    /// Begins the reconstruct protocol of a standalone MW-SVSS session.
    pub fn mw_reconstruct(&mut self, id: MwId, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        self.dmm.session_started(SessionKey::Mw(id));
        self.drive_mw(id, sends, |mw, _, outs| mw.start_reconstruct(outs));
        self.finish(sends);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Feeds one delivered network message: a one-member
    /// [`SvssEngine::on_batch`].
    pub fn on_message(&mut self, from: Pid, msg: SvssMsg<F>, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        let mut one = std::mem::take(&mut self.one);
        one.push(msg);
        self.on_batch(from, &mut one, sends);
        self.one = one;
    }

    /// Feeds a whole same-sender delivery batch (drained from `msgs`),
    /// then runs the delayed-message rescan **once** instead of once per
    /// member. RB members are routed through the mux's batch path, which
    /// amortizes the slot-index probe across consecutive same-slot steps.
    ///
    /// Observationally this produces the same machine state and the same
    /// *set* of sends as feeding the members one at a time; only the
    /// ordering of sends within the batch may differ (RB relays of later
    /// members can precede the machine advances of earlier ones), which is
    /// just another legal asynchronous schedule.
    pub fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<SvssMsg<F>>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        let mut deliveries = std::mem::take(&mut self.rb_deliveries);
        for msg in msgs.drain(..) {
            match msg.unpack() {
                Unpacked::Rb {
                    slot,
                    origin,
                    step,
                    value,
                } => self.rb.on_scalar(from, slot, origin, step, value),
                Unpacked::RbVector {
                    origin,
                    seq,
                    step,
                    members,
                } => {
                    let instance = (origin, seq);
                    self.rb
                        .on_vector(from, instance, step, members, sends, &mut deliveries)
                }
                Unpacked::Priv(p) => {
                    self.deliver_rb(from, &mut deliveries, sends);
                    self.route(from, Inner::Priv(p), sends);
                }
                // Coin and vote RB traffic is routed by the layers above;
                // a copy reaching a bare SVSS engine is foreign and inert.
                Unpacked::CoinRb { .. } | Unpacked::VoteRb { .. } => {}
            }
        }
        self.deliver_rb(from, &mut deliveries, sends);
        self.rb_deliveries = deliveries;
        self.finish(sends);
    }

    /// Lets RB finish routing what the batch has brought so far (the
    /// scalar members ride the mux's batch path), then hands every
    /// acceptance — a scalar instance's value, a vector instance's
    /// members in vector order — to the layers above, one slot at a
    /// time.
    fn deliver_rb(
        &mut self,
        from: Pid,
        deliveries: &mut Vec<RbDelivery<SvssSlot, SvssRbValue<F>>>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        self.rb.flush(from, sends, deliveries);
        for d in deliveries.drain(..) {
            self.handle_rb_delivery(d, sends);
        }
    }

    fn handle_rb_delivery(
        &mut self,
        d: RbDelivery<SvssSlot, SvssRbValue<F>>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        if !self.valid_pid(d.origin) {
            return; // forged origin: no such process
        }
        self.rb_delivered += 1;
        // DMM rules 2/3: detection fires on every reconstruct
        // broadcast, before (and regardless of) the verdict.
        if let (SlotView::MwRecon(mw, poly), SvssRbValue::Value(v)) = (d.tag.view(), &d.value) {
            let log = !self.mw_outputs.contains_key(&mw);
            self.dmm.observe_recon(mw, d.origin, poly, *v, log);
        }
        self.route(
            d.origin,
            Inner::Deliv {
                slot: d.tag,
                origin: d.origin,
                value: d.value,
            },
            sends,
        );
    }

    /// DMM rules 4/5: discard, buffer, or act.
    fn route(&mut self, sender: Pid, inner: Inner<F>, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        // Seeing a session's first message starts participation in it.
        self.dmm.session_started(inner.session_key());
        match self.dmm.verdict(sender, inner.session_key()) {
            Verdict::Discard => {}
            Verdict::Delay => self.pending.push((sender, inner)),
            Verdict::Act => self.process_inner(sender, inner, sends),
        }
    }

    fn process_inner(&mut self, sender: Pid, inner: Inner<F>, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        match inner {
            Inner::Priv(p) => match p {
                SvssPriv::MwDeal { mw, deal } => {
                    let crate::MwDealBody {
                        others,
                        monitor_poly,
                        moderator_poly,
                    } = *deal;
                    // The wire form omits this process's own value (it is
                    // `monitor_poly(me)`, see `MwDealBody`); splice it
                    // back in so the machine sees the full value row.
                    // Field arithmetic is exact, so the spliced value is
                    // bit-identical to what an honest dealer computed. A
                    // body whose `others` length cannot be a valid row is
                    // malformed: treat it as never sent.
                    if others.len() + 1 != self.params.n() {
                        return;
                    }
                    let x = self.domain.point(self.me.as_u64());
                    let mut own = F::ZERO;
                    for &c in monitor_poly.iter().rev() {
                        own = own * x + c;
                    }
                    let mut values = others;
                    values.insert((self.me.index() - 1) as usize, own);
                    self.feed_mw(
                        mw,
                        MwIn::Deal {
                            from: sender,
                            values,
                            monitor_poly,
                            moderator_poly,
                        },
                        sends,
                    )
                }
                SvssPriv::MwPoint { mw, value } => self.feed_mw(
                    mw,
                    MwIn::Point {
                        from: sender,
                        value,
                    },
                    sends,
                ),
                SvssPriv::MwMonitorValue { mw, value } => self.feed_mw(
                    mw,
                    MwIn::MonitorValue {
                        from: sender,
                        value,
                    },
                    sends,
                ),
                SvssPriv::Rows { session, rows } => {
                    self.dmm.session_started(SessionKey::Svss(session));
                    let crate::RowsBody { g, h } = *rows;
                    self.drive_svss(session, sends, |m, _, ctx, outs| {
                        m.on_rows(sender, g, h, ctx, outs)
                    });
                }
            },
            Inner::Deliv {
                slot,
                origin,
                value,
            } => match (slot.view(), value) {
                (SlotView::MwAck(m), SvssRbValue::Unit) => {
                    self.feed_mw(m, MwIn::AckDelivered { origin }, sends)
                }
                (SlotView::MwL(m), SvssRbValue::Set(set)) => {
                    self.feed_mw(m, MwIn::LDelivered { origin, set }, sends)
                }
                (SlotView::MwM(m), SvssRbValue::Set(set)) => {
                    self.feed_mw(m, MwIn::MDelivered { origin, set }, sends)
                }
                (SlotView::MwOk(m), SvssRbValue::Unit) => {
                    self.feed_mw(m, MwIn::OkDelivered { origin }, sends)
                }
                (SlotView::MwRecon(m, poly), SvssRbValue::Value(value)) => self.feed_mw(
                    m,
                    MwIn::ReconDelivered {
                        origin,
                        poly,
                        value,
                    },
                    sends,
                ),
                (SlotView::Gsets(session), SvssRbValue::Gsets(body)) => {
                    self.dmm.session_started(SessionKey::Svss(session));
                    let crate::GsetsBody { g, members } = *body;
                    self.drive_svss(session, sends, |m, _, ctx, outs| {
                        m.on_gsets(origin, g, members, ctx, outs)
                    });
                }
                _ => {} // slot/payload mismatch: malformed, ignore
            },
        }
    }

    fn valid_pid(&self, p: Pid) -> bool {
        (p.index() as usize) <= self.params.n()
    }

    /// Runs one step of MW machine `id` (created on first use) and
    /// handles what it emits. One probe of the machine table per step;
    /// the shared domain is cloned only for a new machine, and the
    /// output buffer is the engine's own (a step nested inside the
    /// handling of another finds it taken and uses a fresh one).
    fn drive_mw(
        &mut self,
        id: MwId,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        step: impl FnOnce(&mut Mw<F>, &mut StdRng, &mut Vec<MwOut<F>>),
    ) {
        let mut outs = std::mem::take(&mut self.mw_outs);
        let (me, params, domain) = (self.me, self.params, &self.domain);
        let machine = self.mw.entry(id).or_insert_with(|| {
            let domain = Arc::clone(domain);
            Box::new(Mw::new(id, me, params.n(), params.t(), domain))
        });
        step(machine, &mut self.rng, &mut outs);
        self.handle_mw_outs(id, &mut outs, sends);
        self.mw_outs = outs;
    }

    /// [`SvssEngine::drive_mw`] for SVSS machine `sid`: one step, with
    /// the MW results it may read, and what it emits handled.
    fn drive_svss(
        &mut self,
        sid: SvssId,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        step: impl FnOnce(&mut Svss<F>, &mut StdRng, &SvssCtx<'_, F>, &mut Vec<SvssOut<F>>),
    ) {
        let mut outs = std::mem::take(&mut self.svss_outs);
        let (me, params, domain) = (self.me, self.params, &self.domain);
        let machine = self
            .svss
            .entry(sid)
            .or_insert_with(|| Svss::new(sid, me, params.n(), params.t(), Arc::clone(domain)));
        let ctx = SvssCtx {
            mw_completed: &self.mw_completed,
            mw_outputs: &self.mw_outputs,
        };
        step(machine, &mut self.rng, &ctx, &mut outs);
        self.handle_svss_outs(sid, &mut outs, sends);
        self.svss_outs = outs;
    }

    fn feed_mw(&mut self, id: MwId, input: MwIn<F>, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        if self.mw_outputs.contains_key(&id) {
            return; // session finished here; late traffic is dead
        }
        if !self.valid_pid(id.dealer())
            || !self.valid_pid(id.moderator())
            || !self.valid_pid(id.row())
            || !self.valid_pid(id.col())
        {
            return; // ids referencing unknown processes: drop
        }
        self.dmm.session_started(SessionKey::Mw(id));
        self.drive_mw(id, sends, |mw, _, outs| mw.on_input(input, outs));
    }

    fn handle_mw_outs(
        &mut self,
        id: MwId,
        outs: &mut Vec<MwOut<F>>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        for o in outs.drain(..) {
            match o {
                MwOut::Send(to, p) => sends.push((to, SvssMsg::private(p))),
                MwOut::Broadcast(slot, value) => self.rb.broadcast(slot, value, sends.len()),
                MwOut::RegisterAck {
                    broadcaster,
                    poly,
                    expected,
                } => self.dmm.register_ack(id, broadcaster, poly, expected),
                MwOut::RegisterDeal {
                    broadcaster,
                    expected,
                } => self.dmm.register_deal(id, broadcaster, expected),
                MwOut::DropDealEntries => self.dmm.drop_deal_entries(id),
                MwOut::ShareCompleted => {
                    self.mw_completed.insert(id);
                    if self.svss.contains_key(&id.parent()) {
                        self.drive_svss(id.parent(), sends, |m, _, ctx, outs| m.advance(ctx, outs));
                    } else {
                        self.events.push(SvssEvent::MwShareCompleted(id));
                    }
                }
                MwOut::Output(v) => {
                    self.mw_outputs.insert(id, v);
                    // Each MW invocation is a VSS session of its own for
                    // →_i purposes; its reconstruct just completed.
                    self.dmm.session_completed(SessionKey::Mw(id));
                    // The machine's work is done (output is retained in
                    // mw_outputs; late broadcasts still match DMM tuples
                    // directly). Dropping it keeps memory polynomial in
                    // the number of *live* sessions, per Theorem 1.
                    self.mw.remove(&id);
                    self.dmm.prune_recon_log(id);
                    if self.svss.contains_key(&id.parent()) {
                        self.drive_svss(id.parent(), sends, |m, _, ctx, outs| m.advance(ctx, outs));
                    } else {
                        self.events.push(SvssEvent::MwReconstructed(id, v));
                    }
                }
            }
        }
    }

    fn handle_svss_outs(
        &mut self,
        sid: SvssId,
        outs: &mut Vec<SvssOut<F>>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        for o in outs.drain(..) {
            match o {
                SvssOut::Send(to, p) => sends.push((to, SvssMsg::private(p))),
                SvssOut::Broadcast(slot, value) => self.rb.broadcast(slot, value, sends.len()),
                SvssOut::StartMwShare { mw, secret } => {
                    self.drive_mw(mw, sends, |m, rng, outs| m.start_share(secret, rng, outs));
                }
                SvssOut::SetMwModeratorInput { mw, value } => {
                    self.drive_mw(mw, sends, |m, _, outs| m.set_moderator_input(value, outs));
                }
                SvssOut::StartMwReconstruct { mw } => {
                    self.drive_mw(mw, sends, |m, _, outs| m.start_reconstruct(outs));
                }
                SvssOut::ShareCompleted => self.events.push(SvssEvent::ShareCompleted(sid)),
                SvssOut::Output(v) => {
                    self.dmm.session_completed(SessionKey::Svss(sid));
                    self.events.push(SvssEvent::Reconstructed(sid, v));
                }
            }
        }
    }

    /// The end of every outermost entry point: re-examines buffered
    /// messages until a fixpoint, reports new shun events, and — unless
    /// an enclosing layer holds the step open — closes the vector. The
    /// rescan is skipped entirely unless some verdict could have changed
    /// since the last pass (DMM version gate) — this keeps per-message
    /// cost flat even with a large delay buffer.
    fn finish(&mut self, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        while self.dmm.version() != self.pending_version && !self.pending.is_empty() {
            self.pending_version = self.dmm.version();
            let pending = std::mem::take(&mut self.pending);
            for (sender, inner) in pending {
                match self.dmm.verdict(sender, inner.session_key()) {
                    Verdict::Discard => {}
                    Verdict::Delay => self.pending.push((sender, inner)),
                    Verdict::Act => self.process_inner(sender, inner, sends),
                }
            }
        }
        self.pending_version = self.dmm.version();
        for (process, session) in self.dmm.take_new_shuns() {
            self.events.push(SvssEvent::Shunned { process, session });
        }
        if !self.held {
            self.rb.close(sends);
        }
    }

    /// Processes this engine currently detects as faulty (`D_i`).
    pub fn detected(&self) -> ProcessSet {
        self.dmm.detected().collect()
    }
}
