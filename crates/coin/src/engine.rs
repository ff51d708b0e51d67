//! The per-process SCC engine.
//!
//! # Session store and retirement
//!
//! Every delivered coin message routes into per-session state keyed by
//! the session tag. The sessions live in an [`Interner`] (its module
//! docs explain the recycled slab, the retired store and the fingerprint
//! index): the tag is interned once per delivery batch, and every
//! subsequent access is a direct slab index.
//!
//! **Retirement.** A coin session's input space is finite: `2n` RB slot
//! deliveries (each RB slot delivers exactly once), `n²` SVSS share
//! completions, and the reconstructions this process invokes. Once the
//! coin value has been emitted *and* every one of those inputs has been
//! consumed (all `n` attach sets, all `n` supports, all `n²` shares, all
//! `n·(t+1)` invoked reconstructions resolved), the session is provably
//! inert — no future input can make it send or emit again — so the whole
//! state machine is dropped for a compact `(tag, value)` record and its
//! slab slot is recycled. Late, duplicate, or tampered traffic for a
//! retired session is dropped without resurrecting the slot: RB-level
//! replays die in the mux (all the session's slots are retired there),
//! and stray SVSS events for a retired tag are discarded here. In
//! adversarial runs where a Byzantine process withholds its broadcasts,
//! the gate simply never fires and the session stays live — retirement
//! is a memory optimization, never a behavior change:
//! `tests/tests/coin_adversarial.rs` pins the event streams of an
//! adversarial sweep, first recorded from a store that never retired.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sba_broadcast::{MuxMsg, Params, RbDelivery, RbMux};
use sba_field::{Domain, Field};
use sba_net::{FastMap, Interner, Pid, ProcessSet, Slot, SvssId, Unpacked};
use sba_svss::{Reconstructed, SvssEngine, SvssEvent, SvssMsg};

use crate::{coin_svss_id, decode_coin_svss_id, CoinMsg, CoinSlot};

/// Events reported by the coin engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoinEvent {
    /// Coin session `tag` produced an output at this process.
    Flipped {
        /// The session.
        tag: u64,
        /// The coin value.
        value: bool,
    },
    /// The underlying DMM started shunning `process` (forwarded from the
    /// SVSS layer; at most `t(n−t)` of these per execution, which bounds
    /// the number of coin sessions that may fail to be common).
    Shunned {
        /// The newly shunned process.
        process: Pid,
    },
}

/// Per-session state.
#[derive(Clone, Debug, Default)]
struct CoinSession {
    started: bool,
    /// Dealers whose secret-attached-to-me share completed, arrival order.
    my_dealers: Vec<Pid>,
    attach_broadcast: bool,
    /// Delivered attach sets `T_j`.
    t_sets: FastMap<Pid, ProcessSet>,
    /// Completed SVSS shares of this coin session (any dealer/target).
    completed_shares: BTreeSet<SvssId>,
    /// Accepted ("attached") processes.
    accepted: ProcessSet,
    support_broadcast: bool,
    /// Delivered support sets.
    supports: Vec<(Pid, ProcessSet)>,
    /// Senders of validated supports.
    validated: ProcessSet,
    /// The fixed union of the first `n−t` validated supports.
    b_set: Option<ProcessSet>,
    recon_enabled: bool,
    recon_invoked: BTreeSet<SvssId>,
    /// Reconstructed secrets.
    outputs: FastMap<SvssId, Reconstructed<Gf64Erased>>,
    output: Option<bool>,
}

impl CoinSession {
    /// Whether the session is provably inert (see the module docs): the
    /// coin value is out and every element of its finite input space has
    /// been consumed, so no future input can make it send or emit.
    fn fully_consumed(&self, n: usize, t: usize) -> bool {
        self.output.is_some()
            && self.t_sets.len() == n
            && self.supports.len() == n
            && self.completed_shares.len() == n * n
            && self.recon_invoked.len() == n * (t + 1)
            && self
                .recon_invoked
                .iter()
                .all(|sid| self.outputs.contains_key(sid))
    }
}

// The session state is not generic over F: reconstructed values are
// only ever summed modulo `F::MODULUS`, so they are kept in their
// canonical u64 form.
type Gf64Erased = u64;

/// The shunning common coin for one process.
///
/// Drive it with [`CoinEngine::start`] (by every nonfaulty process that
/// may read the session), [`CoinEngine::enable_reconstruct`] (the agreement
/// layer gates this on its vote lock), and [`CoinEngine::on_message`];
/// collect [`CoinEvent`]s with [`CoinEngine::take_events`].
#[derive(Clone)]
pub struct CoinEngine<F: Field> {
    me: Pid,
    params: Params,
    rng: StdRng,
    svss: SvssEngine<F>,
    mux: RbMux<CoinSlot, ProcessSet>,
    /// The session store; a retired session's record is its coin value.
    sessions: Interner<u64, CoinSession, bool>,
    events: Vec<CoinEvent>,
    /// Reusable batch-routing buffers for [`CoinEngine::on_batch`]
    /// (capacity survives across deliveries; allocation-free steady
    /// state). Note the nested SVSS engine shares the flat wire type, so
    /// its sends go straight into the caller's list — no rewrap buffer.
    rb_run: Vec<MuxMsg<CoinSlot, ProcessSet>>,
    rb_deliveries: Vec<RbDelivery<CoinSlot, ProcessSet>>,
    svss_batch: Vec<SvssMsg<F>>,
    /// Reusable one-member batch for [`CoinEngine::on_message`].
    one: Vec<CoinMsg<F>>,
    /// Touched-session bitset (one bit per live slab slot): the
    /// per-batch session pump marks slots here instead of pushing and
    /// re-sorting tags, so a batch touches each session's bit once.
    touched_bits: Vec<u64>,
    /// Reusable per-batch list of tags to pump, in ascending order.
    touched_tags: Vec<u64>,
    /// Tags pumped since the last retirement sweep.
    pumped: Vec<u64>,
}

impl<F: Field> CoinEngine<F> {
    /// Creates the coin engine for process `me`. The evaluation domain is
    /// built once here and shared with the whole SVSS stack underneath.
    pub fn new(me: Pid, params: Params, seed: u64) -> Self {
        let domain: Arc<Domain<F>> = Arc::new(Domain::new(params.n()));
        CoinEngine {
            me,
            params,
            rng: StdRng::seed_from_u64(seed ^ 0xC014),
            svss: SvssEngine::with_domain(me, params, seed ^ 0x5C0_FFEE, domain),
            mux: RbMux::new(me, params),
            sessions: Interner::new(),
            events: Vec::new(),
            rb_run: Vec::new(),
            rb_deliveries: Vec::new(),
            svss_batch: Vec::new(),
            one: Vec::new(),
            touched_bits: Vec::new(),
            touched_tags: Vec::new(),
            pumped: Vec::new(),
        }
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<CoinEvent> {
        std::mem::take(&mut self.events)
    }

    /// The coin output of session `tag`, if flipped (answered from the
    /// retirement record once the session is retired).
    pub fn output(&self, tag: u64) -> Option<bool> {
        match self.sessions.probe(&tag)? {
            Slot::Live(idx) => self.sessions.live(idx).output,
            Slot::Retired(idx) => Some(*self.sessions.retired(idx)),
        }
    }

    /// Interns `tag`: its slab index, or `None` if the session is
    /// retired.
    fn live_slot(&mut self, tag: u64) -> Option<u32> {
        match self.sessions.intern(tag, CoinSession::default) {
            Slot::Live(idx) => Some(idx),
            Slot::Retired(_) => None,
        }
    }

    /// Read access to the underlying SVSS engine (for experiments).
    pub fn svss(&self) -> &SvssEngine<F> {
        &self.svss
    }

    /// `(live, peak, retired)` RB instance counts summed over this
    /// engine's own mux and the nested SVSS engine's (memory accounting).
    pub fn rb_instance_stats(&self) -> (usize, usize, usize) {
        (
            self.mux.instance_count() + self.svss.rb_live_instances(),
            self.mux.live_peak() + self.svss.rb_live_peak(),
            self.mux.retired_count() + self.svss.rb_retired_instances(),
        )
    }

    /// `(live, peak, retired)` coin-session counts (memory accounting).
    pub fn session_stats(&self) -> (usize, usize, usize) {
        let s = &self.sessions;
        (s.live_count(), s.live_peak(), s.retired_count())
    }

    /// Disables shunning detection (experiment E8 ablation).
    pub fn disable_detection(&mut self) {
        self.svss.disable_detection();
    }

    /// Starts coin session `tag`: deal one random secret per process.
    ///
    /// Every nonfaulty process that may read the session must call this
    /// for it to terminate.
    pub fn start(&mut self, tag: u64, sends: &mut Vec<(Pid, CoinMsg<F>)>) {
        let Some(slot) = self.live_slot(tag) else {
            return; // retired: the session already ran to completion
        };
        let session = self.sessions.live_mut(slot);
        if session.started {
            return;
        }
        session.started = true;
        // One coin entry point is one step of this process: everything
        // the SVSS layer broadcasts under it leaves as one vector.
        self.svss.begin_step();
        for target in Pid::all(self.params.n()) {
            let secret = F::random(&mut self.rng);
            // The SVSS engine emits the shared flat wire type: its sends
            // go straight into the coin layer's send list.
            self.svss
                .share(coin_svss_id(tag, self.me, target), secret, sends);
        }
        self.pump(tag, sends);
        self.svss.end_step(sends);
        self.sweep_retirements();
    }

    /// Allows session `tag` to enter its reconstruct phase. The agreement
    /// layer calls this only after locking its vote for the round, so the
    /// adversary cannot learn the coin before honest votes are cast.
    pub fn enable_reconstruct(&mut self, tag: u64, sends: &mut Vec<(Pid, CoinMsg<F>)>) {
        let Some(slot) = self.live_slot(tag) else {
            return; // retired: reconstruction already resolved
        };
        let session = self.sessions.live_mut(slot);
        if !session.recon_enabled {
            session.recon_enabled = true;
            self.svss.begin_step();
            self.pump(tag, sends);
            self.svss.end_step(sends);
            self.sweep_retirements();
        }
    }

    /// Feeds one delivered message: a one-member [`CoinEngine::on_batch`].
    pub fn on_message(&mut self, from: Pid, msg: CoinMsg<F>, sends: &mut Vec<(Pid, CoinMsg<F>)>) {
        let mut one = std::mem::take(&mut self.one);
        one.push(msg);
        self.on_batch(from, &mut one, sends);
        self.one = one;
    }

    /// Feeds a whole same-sender delivery batch (drained from `msgs`):
    /// SVSS members go through the nested engine's batch path, coin RB
    /// members through the mux's batch path, and the per-session `pump`
    /// fixpoint runs **once per touched session** instead of once per
    /// message — the dominant post-delivery cost in a full run. Touched
    /// sessions are collected in the dense-index bitset (one bit per
    /// live slab slot), so the batch never re-sorts duplicate tags.
    pub fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<CoinMsg<F>>,
        sends: &mut Vec<(Pid, CoinMsg<F>)>,
    ) {
        let mut svss_batch = std::mem::take(&mut self.svss_batch);
        let mut rb_run = std::mem::take(&mut self.rb_run);
        let mut deliveries = std::mem::take(&mut self.rb_deliveries);
        for msg in msgs.drain(..) {
            if msg.wire_kind().is_coin_rb() {
                let Unpacked::CoinRb {
                    slot,
                    origin,
                    step,
                    set,
                } = msg.unpack()
                else {
                    unreachable!("coin RB kinds unpack as CoinRb");
                };
                rb_run.push(MuxMsg::new(slot, origin, step, set));
            } else {
                svss_batch.push(msg);
            }
        }
        self.svss.begin_step();
        if !svss_batch.is_empty() {
            self.svss.on_batch(from, &mut svss_batch, sends);
        }
        self.mux.on_batch_with(
            from,
            rb_run.drain(..),
            sends,
            CoinMsg::coin_rb,
            &mut deliveries,
        );
        for d in deliveries.drain(..) {
            if let Some(slot) = self.absorb_coin_delivery(d) {
                self.touch(slot);
            }
        }
        for tag in self.absorb_svss_events() {
            // The absorb interned the tag; a retired hit is impossible
            // here (absorb drops retired-tag events).
            let Some(Slot::Live(slot)) = self.sessions.probe(&tag) else {
                unreachable!("absorbed tags are interned and live");
            };
            self.touch(slot);
        }
        // `pump` recurses into sessions its own outputs touch, so the
        // scratch must be released before pumping.
        self.svss_batch = svss_batch;
        self.rb_run = rb_run;
        self.rb_deliveries = deliveries;
        let mut tags = std::mem::take(&mut self.touched_tags);
        debug_assert!(tags.is_empty());
        for (w, word) in self.touched_bits.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                tags.push(*self.sessions.key_of_live((w * 64 + b) as u32));
            }
            *word = 0;
        }
        // Pump in ascending tag order, whatever slab slots the sessions
        // landed in.
        tags.sort_unstable();
        for tag in &tags {
            self.pump(*tag, sends);
        }
        tags.clear();
        self.touched_tags = tags;
        self.svss.end_step(sends);
        self.sweep_retirements();
    }

    /// Marks a touched session for the end-of-batch pump.
    fn touch(&mut self, slot: u32) {
        let (w, b) = ((slot / 64) as usize, slot % 64);
        if w >= self.touched_bits.len() {
            self.touched_bits.resize(w + 1, 0);
        }
        self.touched_bits[w] |= 1u64 << b;
    }

    /// Retires every session pumped since the last sweep whose input
    /// space is fully consumed (see the module docs). Called at the end
    /// of every public entry point, after all pumps settle.
    fn sweep_retirements(&mut self) {
        let (n, t) = (self.params.n(), self.params.t());
        let mut pumped = std::mem::take(&mut self.pumped);
        pumped.sort_unstable();
        pumped.dedup();
        for tag in pumped.drain(..) {
            if let Some(Slot::Live(idx)) = self.sessions.probe(&tag) {
                if self.sessions.live(idx).fully_consumed(n, t) {
                    // Drop the whole state machine, keep the value.
                    let value = std::mem::take(self.sessions.live_mut(idx)).output;
                    self.sessions
                        .retire(idx, value.expect("fully consumed sessions have flipped"));
                }
            }
        }
        self.pumped = pumped;
    }

    /// Records one accepted coin-slot broadcast into its session; returns
    /// the touched session's slab slot (or `None` for forged origins and
    /// retired sessions).
    fn absorb_coin_delivery(&mut self, d: RbDelivery<CoinSlot, ProcessSet>) -> Option<u32> {
        if d.origin.index() as usize > self.params.n() {
            return None; // forged origin: no such process
        }
        let slot = self.live_slot(d.tag.coin_tag())?;
        let session = self.sessions.live_mut(slot);
        match d.tag {
            CoinSlot::Attach(_) => {
                // |T_j| must be exactly t+1; malformed sets are
                // ignored (their sender is never accepted).
                if d.value.len() == self.params.t() + 1 {
                    session.t_sets.entry(d.origin).or_insert(d.value);
                }
            }
            CoinSlot::Support(_) => {
                session.supports.push((d.origin, d.value));
            }
        }
        Some(slot)
    }

    /// Pulls SVSS events into coin-session state; returns affected tags.
    fn absorb_svss_events(&mut self) -> Vec<u64> {
        let mut tags = Vec::new();
        for ev in self.svss.take_events() {
            match ev {
                SvssEvent::ShareCompleted(sid) => {
                    let (tag, dealer, target) = decode_coin_svss_id(sid);
                    // A Byzantine dealer can share under arbitrary session
                    // ids; only canonical coin ids may influence sessions.
                    if coin_svss_id(tag, dealer, target) != sid {
                        continue;
                    }
                    let Some(slot) = self.live_slot(tag) else {
                        continue; // retired: the session already ran
                    };
                    let session = self.sessions.live_mut(slot);
                    session.completed_shares.insert(sid);
                    if target == self.me && !session.my_dealers.contains(&sid.dealer()) {
                        session.my_dealers.push(sid.dealer());
                    }
                    tags.push(tag);
                }
                SvssEvent::Reconstructed(sid, value) => {
                    let (tag, dealer, target) = decode_coin_svss_id(sid);
                    if coin_svss_id(tag, dealer, target) != sid {
                        continue;
                    }
                    let Some(slot) = self.live_slot(tag) else {
                        continue; // retired: reconstruction already done
                    };
                    let erased = match value {
                        Reconstructed::Value(v) => Reconstructed::Value(v.as_u64()),
                        Reconstructed::Bottom => Reconstructed::Bottom,
                    };
                    self.sessions.live_mut(slot).outputs.insert(sid, erased);
                    tags.push(tag);
                }
                SvssEvent::Shunned { process, .. } => {
                    self.events.push(CoinEvent::Shunned { process });
                }
                SvssEvent::MwShareCompleted(_) | SvssEvent::MwReconstructed(..) => {}
            }
        }
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// Monotone advancement of one coin session. A retired tag is inert.
    fn pump(&mut self, tag: u64, sends: &mut Vec<(Pid, CoinMsg<F>)>) {
        let n = self.params.n();
        let t = self.params.t();
        let quorum = self.params.quorum();
        // Every step block re-borrows the session by its slab index. The
        // slot stays valid for the whole pump (sessions retire only in
        // `sweep_retirements`, after all pumps).
        let Some(slot) = self.live_slot(tag) else {
            return; // retired: provably inert
        };
        self.pumped.push(tag);

        // Step 2: attach after t+1 dealers completed secrets for me.
        {
            let session = self.sessions.live_mut(slot);
            if !session.attach_broadcast && session.my_dealers.len() > t {
                session.attach_broadcast = true;
                let t_set: ProcessSet = session.my_dealers.iter().take(t + 1).copied().collect();
                self.mux
                    .broadcast_with(CoinSlot::Attach(tag), t_set, sends, CoinMsg::coin_rb);
            }
        }

        // Step 3: acceptance.
        {
            let session = self.sessions.live_mut(slot);
            let mut newly: Vec<Pid> = Vec::new();
            for (&j, t_j) in &session.t_sets {
                if session.accepted.contains(j) {
                    continue;
                }
                let all_done = t_j
                    .iter()
                    .all(|k| session.completed_shares.contains(&coin_svss_id(tag, k, j)));
                if all_done {
                    newly.push(j);
                }
            }
            for j in newly {
                session.accepted.insert(j);
            }
        }

        // Step 4: support broadcast at quorum.
        {
            let session = self.sessions.live_mut(slot);
            if !session.support_broadcast && session.accepted.len() >= quorum {
                session.support_broadcast = true;
                let snapshot = session.accepted;
                self.mux
                    .broadcast_with(CoinSlot::Support(tag), snapshot, sends, CoinMsg::coin_rb);
            }
        }

        // Step 5: validate supports; fix B at n−t validated.
        {
            let session = self.sessions.live_mut(slot);
            let accepted = session.accepted;
            for (l, s_l) in &session.supports {
                if !session.validated.contains(*l) && s_l.is_subset(&accepted) {
                    session.validated.insert(*l);
                }
            }
            if session.b_set.is_none() && session.validated.len() >= quorum {
                let mut b = ProcessSet::new();
                let mut counted = 0usize;
                for (l, s_l) in &session.supports {
                    if session.validated.contains(*l) && counted < quorum {
                        // First occurrence of each validated sender counts.
                        b.extend_from(s_l);
                        counted += 1;
                    }
                }
                session.b_set = Some(b);
            }
        }

        // Step 6: reconstruct secrets of accepted processes (gated).
        {
            let mut to_recon: Vec<SvssId> = Vec::new();
            {
                let session = self.sessions.live_mut(slot);
                if session.recon_enabled {
                    for j in session.accepted.iter() {
                        if let Some(t_j) = session.t_sets.get(&j) {
                            for k in t_j.iter() {
                                let sid = coin_svss_id(tag, k, j);
                                if session.recon_invoked.insert(sid) {
                                    to_recon.push(sid);
                                }
                            }
                        }
                    }
                }
            }
            for sid in to_recon {
                self.svss.reconstruct(sid, sends);
            }
            // Reconstruction may complete synchronously via self-routing.
            let extra_tags = self.absorb_svss_events();
            for extra in extra_tags {
                if extra != tag {
                    self.pump(extra, sends);
                }
            }
        }

        // Step 7: output once every B-member's value is known.
        {
            let session = self.sessions.live_mut(slot);
            if session.output.is_none() && session.recon_enabled {
                if let Some(b) = session.b_set {
                    let mut zero_seen = false;
                    let mut all_known = true;
                    'members: for j in b.iter() {
                        let Some(t_j) = session.t_sets.get(&j) else {
                            all_known = false;
                            break;
                        };
                        let mut sum: u128 = 0;
                        for k in t_j.iter() {
                            match session.outputs.get(&coin_svss_id(tag, k, j)) {
                                Some(Reconstructed::Value(v)) => sum += u128::from(*v),
                                Some(Reconstructed::Bottom) => {
                                    // Binding was broken (shunning case):
                                    // treat the value as nonzero.
                                    continue 'members;
                                }
                                None => {
                                    all_known = false;
                                    break 'members;
                                }
                            }
                        }
                        let v_j = (sum % u128::from(F::MODULUS)) % (n as u128);
                        if v_j == 0 {
                            zero_seen = true;
                        }
                    }
                    if all_known {
                        // Output 0 iff some attached value hit zero.
                        let value = !zero_seen;
                        session.output = Some(value);
                        self.events.push(CoinEvent::Flipped { tag, value });
                    }
                }
            }
        }
    }
}
