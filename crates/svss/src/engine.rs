//! The per-process SVSS engine: reliable broadcast + DMM + all MW/SVSS
//! machines.
//!
//! The engine is the deployable unit of this crate: it owns every
//! sub-machine of one process and exposes a message-in/messages-out
//! interface plus an event stream. Layering inside (paper §2–§4):
//!
//! ```text
//!               ┌ scalar (origin, slot) ─ RbMux ───┐ one delivery
//! incoming ─► RB┤                                  ├─► per slot ─► session lookup ─► DMM filter ─► MW / SVSS machines
//!               └ vector (origin, seq) ─ Rb, split ┘              (MW: one probe) │ rules 2+3 (detection) fire
//!                 (relays always run)                                             └─ before the delay/discard verdict
//!
//! MW / SVSS machines ─► broadcasts ─► open vector ─(own step boundary)─► one Bracha instance
//! ```
//!
//! **One probe per MW delivery.** Two thirds of a full run's messages
//! belong to MW-SVSS sessions, thousands of them live per process. Each
//! is one entry of the engine's MW table, an [`sba_net::Interner`], and
//! a message resolves its session there once: an id naming a process
//! past `n` is dropped before any state exists; the first sight starts
//! the session for the DMM (`→_i` counts from there); a finished session
//! — retired to its output record — lets the DMM observe a reconstruct
//! value and drops the rest; a live one hands its slab index to the
//! machine's step. SVSS sessions keep their own map.
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

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sba_broadcast::{Params, RbDelivery};
use sba_field::{Domain, Field};
use sba_net::{FastMap, Interner, MwId, Pid, ProcessSet, Slot, SlotView, SvssId, Unpacked};

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

/// One MW-SVSS session's live state at this process: the entry every
/// message, command and step of the session resolves to.
#[derive(Clone, Debug, Default)]
pub(crate) struct MwSession<F: Field> {
    /// The machine, built on the session's first step here (a message
    /// can start the session for the DMM, and wait, before that).
    machine: Option<Box<Mw<F>>>,
    /// The share protocol completed at this process.
    pub(crate) completed: bool,
    /// The DMM has been told the session started.
    started: bool,
}

/// What a finished MW-SVSS session leaves behind: its output and whether
/// its share completed here.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MwDone<F> {
    pub(crate) output: Reconstructed<F>,
    pub(crate) completed: bool,
}

/// Every MW-SVSS session a process has seen: the live ones with their
/// machines, the finished ones as [`MwDone`] records.
pub(crate) type MwTable<F> = Interner<MwId, MwSession<F>, MwDone<F>>;

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
    /// MW-SVSS sessions, one interned entry each, resolved once per
    /// delivery. A live entry is the session's flags and its machine,
    /// boxed: [`Mw`] is 376 B over `Gf61` (pinned at ≤ 384 by
    /// `tests/state_bytes.rs`), so inline it would make every slab entry
    /// a dozen cache lines and leave a full machine in each retired
    /// husk, where boxed the slab packs two `(MwId, MwSession)` entries
    /// per line (pinned at 32 B below). An output retires the entry to
    /// its [`MwDone`] record, so a finished session is never rebuilt.
    mws: MwTable<F>,
    /// Machines built and not yet retired.
    mw_machines: usize,
    svss: FastMap<SvssId, Svss<F>>,
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
            mws: Interner::new(),
            mw_machines: 0,
            svss: FastMap::default(),
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
        SvssCtx { mws: &self.mws }.mw_output(id)
    }

    /// Number of live MW machines (memory accounting).
    pub fn mw_machine_count(&self) -> usize {
        self.mw_machines
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
        self.mw_command(id, sends, |mw, rng, outs| mw.start_share(secret, rng, outs));
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
        self.mw_command(id, sends, |mw, _, outs| mw.set_moderator_input(value, outs));
    }

    /// Begins the reconstruct protocol of a standalone MW-SVSS session.
    pub fn mw_reconstruct(&mut self, id: MwId, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        self.mw_command(id, sends, |mw, _, outs| mw.start_reconstruct(outs));
    }

    /// A local command to MW session `id`, as one step: it starts the
    /// session for the DMM; a finished session ignores it.
    fn mw_command(
        &mut self,
        id: MwId,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        step: impl FnOnce(&mut Mw<F>, &mut StdRng, &mut Vec<MwOut<F>>),
    ) {
        if let Some(Slot::Live(idx)) = self.mw_start(id) {
            self.step_mw(id, idx, sends, step);
        }
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

    /// DMM rules 4/5: discard, buffer, or act. Seeing a session's first
    /// message starts participation in it. An MW session is resolved
    /// here once, and the machine's step reuses the slot.
    fn route(&mut self, sender: Pid, inner: Inner<F>, sends: &mut Vec<(Pid, SvssMsg<F>)>) {
        let key = inner.session_key();
        let mw = match key {
            SessionKey::Svss(_) => {
                self.dmm.session_started(key);
                None
            }
            SessionKey::Mw(id) => {
                let Some(at) = self.mw_start(id) else {
                    return; // ids referencing unknown processes: drop
                };
                // DMM rules 2/3: detection fires on every reconstruct
                // broadcast, before (and regardless of) the verdict.
                if let Inner::Deliv {
                    slot,
                    origin,
                    value: SvssRbValue::Value(v),
                } = &inner
                {
                    if let SlotView::MwRecon(_, poly) = slot.view() {
                        let log = matches!(at, Slot::Live(_));
                        self.dmm.observe_recon(id, *origin, poly, *v, log);
                    }
                }
                let Slot::Live(idx) = at else {
                    return; // session finished here; late traffic is dead
                };
                Some(idx)
            }
        };
        match self.dmm.verdict(sender, key) {
            Verdict::Discard => {}
            Verdict::Delay => self.pending.push((sender, inner)),
            Verdict::Act => self.process_inner(sender, inner, mw, sends),
        }
    }

    /// Acts on one message. `mw` is its MW session's live slab index
    /// when [`SvssEngine::route`] has just resolved it; a buffered
    /// message, released later, is resolved again.
    fn process_inner(
        &mut self,
        sender: Pid,
        inner: Inner<F>,
        mw: Option<u32>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        match inner {
            Inner::Priv(p) => match p {
                SvssPriv::MwDeal { mw: id, deal } => {
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
                        id,
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
                SvssPriv::MwPoint { mw: id, value } => self.feed_mw(
                    id,
                    mw,
                    MwIn::Point {
                        from: sender,
                        value,
                    },
                    sends,
                ),
                SvssPriv::MwMonitorValue { mw: id, value } => self.feed_mw(
                    id,
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
                (SlotView::MwAck(id), SvssRbValue::Unit) => {
                    self.feed_mw(id, mw, MwIn::AckDelivered { origin }, sends)
                }
                (SlotView::MwL(id), SvssRbValue::Set(set)) => {
                    self.feed_mw(id, mw, MwIn::LDelivered { origin, set }, sends)
                }
                (SlotView::MwM(id), SvssRbValue::Set(set)) => {
                    self.feed_mw(id, mw, MwIn::MDelivered { origin, set }, sends)
                }
                (SlotView::MwOk(id), SvssRbValue::Unit) => {
                    self.feed_mw(id, mw, MwIn::OkDelivered { origin }, sends)
                }
                (SlotView::MwRecon(id, poly), SvssRbValue::Value(value)) => self.feed_mw(
                    id,
                    mw,
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

    /// Resolves MW session `id`, interning it on first sight. An id
    /// naming a process past `n` is no session: `None`, and nothing —
    /// no entry, no machine, no DMM start — is built for it.
    fn mw_slot(&mut self, id: MwId) -> Option<Slot> {
        let pids = [id.dealer(), id.moderator(), id.row(), id.col()];
        if !pids.into_iter().all(|p| self.valid_pid(p)) {
            return None;
        }
        Some(self.mws.intern(id, MwSession::default))
    }

    /// [`SvssEngine::mw_slot`], starting participation in the session
    /// for the DMM on its first sight here.
    fn mw_start(&mut self, id: MwId) -> Option<Slot> {
        let slot = self.mw_slot(id)?;
        if let Slot::Live(idx) = slot {
            let session = self.mws.live_mut(idx);
            if !session.started {
                session.started = true;
                self.dmm.session_started(SessionKey::Mw(id));
            }
        }
        Some(slot)
    }

    /// Runs one step of MW session `id` — a session's step, not a
    /// delivery's, so the DMM is not told it started — if it is live.
    fn drive_mw(
        &mut self,
        id: MwId,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        step: impl FnOnce(&mut Mw<F>, &mut StdRng, &mut Vec<MwOut<F>>),
    ) {
        if let Some(Slot::Live(idx)) = self.mw_slot(id) {
            self.step_mw(id, idx, sends, step);
        }
    }

    /// Runs one step of the live MW session `id` at slab index `idx`
    /// (its machine is built on its first step) and handles what it
    /// emits. The shared domain is cloned only for a new machine, and the
    /// output buffer is the engine's own (a step nested inside the
    /// handling of another finds it taken and uses a fresh one).
    fn step_mw(
        &mut self,
        id: MwId,
        idx: u32,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
        step: impl FnOnce(&mut Mw<F>, &mut StdRng, &mut Vec<MwOut<F>>),
    ) {
        let mut outs = std::mem::take(&mut self.mw_outs);
        let (me, params, domain) = (self.me, self.params, &self.domain);
        let machine = self.mws.live_mut(idx).machine.get_or_insert_with(|| {
            self.mw_machines += 1;
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
        let ctx = SvssCtx { mws: &self.mws };
        step(machine, &mut self.rng, &ctx, &mut outs);
        self.handle_svss_outs(sid, &mut outs, sends);
        self.svss_outs = outs;
    }

    /// Feeds `input` to MW session `id`, at live slab index `at` when
    /// the caller has it; a released buffered message finds its session
    /// again (routing interned and started it), and a finished one is
    /// dead.
    fn feed_mw(
        &mut self,
        id: MwId,
        at: Option<u32>,
        input: MwIn<F>,
        sends: &mut Vec<(Pid, SvssMsg<F>)>,
    ) {
        let slot = at.map(Slot::Live).or_else(|| self.mws.probe(&id));
        if let Some(Slot::Live(idx)) = slot {
            self.step_mw(id, idx, sends, |mw, _, outs| mw.on_input(input, outs));
        }
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
                    if let Some(Slot::Live(idx)) = self.mws.probe(&id) {
                        self.mws.live_mut(idx).completed = true;
                    }
                    if self.svss.contains_key(&id.parent()) {
                        self.drive_svss(id.parent(), sends, |m, _, ctx, outs| m.advance(ctx, outs));
                    } else {
                        self.events.push(SvssEvent::MwShareCompleted(id));
                    }
                }
                MwOut::Output(output) => {
                    // The machine's work is done: the session retires to
                    // its record (late broadcasts still match DMM tuples
                    // directly). Dropping the machine keeps memory
                    // polynomial in the number of *live* sessions, per
                    // Theorem 1.
                    let Some(Slot::Live(idx)) = self.mws.probe(&id) else {
                        unreachable!("only a live session's machine steps");
                    };
                    let MwSession { completed, .. } = std::mem::take(self.mws.live_mut(idx));
                    self.mw_machines -= 1;
                    self.mws.retire(idx, MwDone { output, completed });
                    // Each MW invocation is a VSS session of its own for
                    // →_i purposes; its reconstruct just completed.
                    self.dmm.session_completed(SessionKey::Mw(id));
                    self.dmm.prune_recon_log(id);
                    if self.svss.contains_key(&id.parent()) {
                        self.drive_svss(id.parent(), sends, |m, _, ctx, outs| m.advance(ctx, outs));
                    } else {
                        self.events.push(SvssEvent::MwReconstructed(id, output));
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
                    Verdict::Act => self.process_inner(sender, inner, None, sends),
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

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;
    use sba_net::{MwDealBody, RbStep, RbVector};

    /// The hot entry: every MW delivery resolves to one of these, so two
    /// share a 64-byte cache line (the boxed machine itself is pinned by
    /// `tests/state_bytes.rs`).
    #[test]
    fn mw_session_entry_size_pinned() {
        let size = std::mem::size_of::<(MwId, MwSession<Gf61>)>();
        assert!(size <= 32, "(MwId, MwSession<Gf61>) is {size} B");
    }

    /// An MW id naming a process past `n` — as dealer, moderator, row or
    /// column — builds nothing: neither a private message of any MW kind
    /// nor an accepted RB value in any MW slot creates a table entry, a
    /// machine or a DMM start. A valid id then does, as a control.
    #[test]
    fn out_of_range_mw_ids_build_no_state() {
        let (n, params) = (4, Params::new(4, 1).unwrap());
        let (me, p) = (Pid::new(1), Pid::new);
        let mut engine = SvssEngine::<Gf61>::new(me, params, 7);
        let parent = SvssId::new(5, p(2));
        let forged = [
            MwId::nested(parent, p(9), p(3), p(2), p(3)),
            MwId::nested(parent, p(2), p(9), p(2), p(3)),
            MwId::nested(parent, p(2), p(3), p(9), p(3)),
            MwId::nested(parent, p(2), p(3), p(2), p(9)),
        ];
        let v = Gf61::from_u64(3);
        let version = engine.dmm().version();
        let mut sends = Vec::new();
        for mw in forged {
            let deal = Box::new(MwDealBody {
                others: vec![v; n - 1],
                monitor_poly: vec![v, v],
                moderator_poly: None,
            });
            for private in [
                SvssPriv::MwDeal { mw, deal },
                SvssPriv::MwPoint { mw, value: v },
                SvssPriv::MwMonitorValue { mw, value: v },
            ] {
                engine.on_message(p(2), SvssMsg::private(private), &mut sends);
            }
        }
        let set: ProcessSet = [p(1), p(2), p(3)].into_iter().collect();
        let mut members: Vec<_> = forged
            .iter()
            .flat_map(|&mw| {
                [
                    (SvssSlot::mw_ack(mw), SvssRbValue::Unit),
                    (SvssSlot::mw_l(mw), SvssRbValue::Set(set)),
                    (SvssSlot::mw_m(mw), SvssRbValue::Set(set)),
                    (SvssSlot::mw_ok(mw), SvssRbValue::Unit),
                    (SvssSlot::mw_recon(mw, me), SvssRbValue::Value(v)),
                ]
            })
            .collect();
        members.sort_by_key(|m| m.0);
        let count = members.len() as u64;
        let vector = RbVector::new(p(2), members);
        for from in [p(2), p(3), p(4)] {
            let ready = SvssMsg::rb_vector(p(2), 1, RbStep::Ready, vector.clone());
            engine.on_message(from, ready, &mut sends);
        }
        assert_eq!(engine.rb_delivered_members(), count, "every slot delivered");
        assert_eq!(engine.mw_machine_count(), 0);
        assert_eq!(engine.mws.live_count() + engine.mws.retired_count(), 0);
        assert_eq!(engine.dmm().version(), version, "no DMM start");
        assert_eq!(engine.pending_len(), 0);
        let private = |(_, m): (Pid, SvssMsg<Gf61>)| matches!(m.unpack(), Unpacked::Priv(_));
        assert!(!sends.drain(..).any(private), "no MW machine stepped");

        let valid = MwId::nested(parent, p(2), p(3), p(2), p(3));
        let point = SvssPriv::MwPoint {
            mw: valid,
            value: v,
        };
        engine.on_message(p(2), SvssMsg::private(point), &mut sends);
        assert_eq!(engine.mw_machine_count(), 1);
        assert_eq!(engine.mws.live_count(), 1);
        assert!(engine.dmm().version() > version);
    }
}
