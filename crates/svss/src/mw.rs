//! MW-SVSS: moderated weak shunning verifiable secret sharing (paper §3.2).
//!
//! One [`Mw`] value is this process's view of one MW-SVSS invocation.
//! The machine is sans-io: inputs are [`MwIn`] (delivered messages and
//! local commands), outputs are [`MwOut`] (sends, broadcasts, DMM
//! registrations, completion/output events). All conditions are evaluated
//! by a monotone `advance` pass after every input, so message arrival
//! order never matters for the final state.
//!
//! Roles in an invocation with `n` processes, dealer `d`, moderator `m`:
//! every process is a potential *monitor* of its polynomial `f_j` and a
//! *confirmer* for everyone else's; `d` additionally deals, `m` moderates.
//!
//! A run holds tens of thousands of machines, so state lives only while
//! a later step can read it, and is built by the input that first needs
//! it: the dealer's `f_1..f_n` until its `OK` (the master `f` not at
//! all); the points and `f_me` at every index until `L_me` freezes (of
//! `f_me` only `f_me(0)` outlives it); the moderator's table only at the
//! moderator, until `M` freezes; my value row until my reconstruct
//! points are out; reconstruct state from its first input on; `L̂_j`
//! (`⌈n/64⌉` words per monitor), `M̂` and `acks` for the machine's life.

use std::sync::Arc;

use rand::Rng;
use sba_field::{Domain, Field, Poly};
use sba_net::{MwId, Pid, ProcessSet};

use crate::{Reconstructed, SvssPriv, SvssRbValue, SvssSlot};

/// Inputs to the MW-SVSS state machine.
#[derive(Clone, Debug)]
pub enum MwIn<F> {
    /// Private: dealer's share message (step 1 → step 2 trigger).
    Deal {
        /// The sending process (must be the dealer).
        from: Pid,
        /// `f_1(me), …, f_n(me)`.
        values: Vec<F>,
        /// Coefficients of `f_me`.
        monitor_poly: Vec<F>,
        /// Coefficients of `f` (only meaningful for the moderator).
        moderator_poly: Option<Vec<F>>,
    },
    /// Private: a confirmer's value `f̂^from_me` (step 2 → step 3 trigger).
    Point {
        /// The confirming process.
        from: Pid,
        /// The value it claims the dealer gave it for my polynomial.
        value: F,
    },
    /// Private: a monitor's `f̂_from(0)` sent to the moderator (step 4).
    MonitorValue {
        /// The monitor.
        from: Pid,
        /// `f̂_from(0)`.
        value: F,
    },
    /// RB delivery: `ack` from `origin` (step 2).
    AckDelivered {
        /// The acknowledging process.
        origin: Pid,
    },
    /// RB delivery: `L̂_origin` (step 4).
    LDelivered {
        /// The monitor that broadcast its confirmer set.
        origin: Pid,
        /// The set.
        set: ProcessSet,
    },
    /// RB delivery: `M̂` (step 6; only valid from the moderator).
    MDelivered {
        /// The broadcaster (checked against the moderator).
        origin: Pid,
        /// The set.
        set: ProcessSet,
    },
    /// RB delivery: `OK` (step 7; only valid from the dealer).
    OkDelivered {
        /// The broadcaster (checked against the dealer).
        origin: Pid,
    },
    /// RB delivery: reconstruct point — `origin` claims `f_poly(origin) =
    /// value` (reconstruct step 1).
    ReconDelivered {
        /// The broadcasting confirmer.
        origin: Pid,
        /// Whose polynomial the point belongs to.
        poly: Pid,
        /// The value.
        value: F,
    },
}

/// Outputs of the MW-SVSS state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MwOut<F> {
    /// Send a private message.
    Send(Pid, SvssPriv<F>),
    /// Reliably broadcast `value` in `slot`.
    Broadcast(SvssSlot, SvssRbValue<F>),
    /// Register a dealer-side DMM expectation (share step 7).
    RegisterAck {
        /// Expected broadcaster.
        broadcaster: Pid,
        /// Polynomial index the broadcast is about.
        poly: Pid,
        /// Expected value.
        expected: F,
    },
    /// Register a monitor-side DMM expectation (share step 3).
    RegisterDeal {
        /// Expected broadcaster.
        broadcaster: Pid,
        /// Expected value of my polynomial at the broadcaster's index.
        expected: F,
    },
    /// Drop all DEAL expectations for this session (share step 8).
    DropDealEntries,
    /// The share protocol `S′` completed at this process (step 9).
    ShareCompleted,
    /// The reconstruct protocol `R′` produced an output (step 4 of `R′`).
    Output(Reconstructed<F>),
}

/// The dealer's `f_1..f_n`, read once more by step 7 and freed there:
/// empty once `OK` is sent.
#[derive(Clone, Debug)]
struct Dealer<F: Field> {
    polys: Vec<Poly<F>>,
}

/// The moderator's table (steps 5 and 6), freed when `M` freezes.
#[derive(Clone, Debug, Default)]
struct Moderator<F> {
    /// `s′`; `f̂(0)` and `f̂` at every index, once the deal is in; the
    /// first `f̂_j(0)` per monitor `j`, where `valued` has `j`.
    input: Option<F>,
    f0: Option<F>,
    evals: Vec<F>,
    values: Vec<F>,
    valued: ProcessSet,
    m_mine: ProcessSet,
}

/// `R′` state, from the first reconstruct input on.
#[derive(Clone, Debug, Default)]
struct Recon<F> {
    /// All reconstruct points in arrival order: (poly, origin, value).
    points: Vec<(Pid, Pid, F)>,
    /// Recovered constant terms `f̄_l(0)` (the full polynomials are never
    /// needed — only their values at zero feed step 4 of `R′`).
    zeros: Vec<Option<F>>,
    /// Scratch for interpolation point lists (reused across advances).
    scratch: Vec<(u64, F)>,
}

/// The first `L̂_j` per monitor `j` that `seen` has, as `⌈n/64⌉` words
/// (a [`ProcessSet`] spans all `MAX_N`; the sets name only `1..=n`).
#[derive(Clone, Debug, Default)]
struct ConfirmerSets {
    words: Vec<u64>,
    seen: ProcessSet,
}

impl ConfirmerSets {
    fn get(&self, j: Pid, n: usize) -> Option<ProcessSet> {
        if !self.seen.contains(j) {
            return None;
        }
        let (w, at) = (n.div_ceil(64), j.index() as usize - 1);
        let mut words = ProcessSet::new().as_words();
        words[..w].copy_from_slice(&self.words[at * w..(at + 1) * w]);
        Some(ProcessSet::from_words(words))
    }

    fn insert(&mut self, j: Pid, set: ProcessSet, n: usize) {
        let (w, at) = (n.div_ceil(64), j.index() as usize - 1);
        if self.seen.insert(j) {
            self.words.resize(n * w, 0);
            self.words[at * w..(at + 1) * w].copy_from_slice(&set.as_words()[..w]);
        }
    }
}

/// This process's state in one MW-SVSS invocation.
#[derive(Clone, Debug)]
pub struct Mw<F: Field> {
    id: MwId,
    me: Pid,
    n: usize,
    t: usize,
    /// Shared per-instance evaluation domain (points `1..=n`).
    domain: Arc<Domain<F>>,

    dealer: Option<Box<Dealer<F>>>,
    moderator: Option<Box<Moderator<F>>>,
    m_frozen: bool,

    // What the dealer sent me (step 1); `my_f0` is set iff a deal was
    // accepted.
    my_values: Option<Vec<F>>,
    my_f0: Option<F>,
    /// `f_me` at every process index (step 3 re-checks these on every
    /// monotone advance).
    my_evals: Vec<F>,

    // Step 3 state: first point per confirmer, my confirmer set L_me.
    /// First point per confirmer, indexed by `pid − 1`, where `pointed`
    /// has it (per-pid state in this machine is direct-indexed: `advance`
    /// re-probes it on every input, and at `n ≤ MAX_N = 256` a dense
    /// vector beats any hash map).
    points: Vec<F>,
    pointed: ProcessSet,
    l_mine: ProcessSet,
    l_frozen: bool,

    // RB-delivered public state.
    acks: ProcessSet,
    l_hat: ConfirmerSets,
    m_hat: Option<ProcessSet>,
    ok_delivered: bool,

    share_completed: bool,
    dropped_deal: bool,

    // Reconstruct.
    recon_requested: bool,
    recon_sent: bool,
    recon: Option<Box<Recon<F>>>,
    output: Option<Reconstructed<F>>,
}

impl<F: Field> Mw<F> {
    /// Creates this process's view of invocation `id` in an `n`-process
    /// system tolerating `t` faults. `domain` is the instance's shared
    /// evaluation domain and must cover the points `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t`, all ids address processes in `1..=n`, and
    /// the domain covers `n` points.
    pub fn new(id: MwId, me: Pid, n: usize, t: usize, domain: Arc<Domain<F>>) -> Self {
        assert!(n > 3 * t, "MW-SVSS requires n > 3t");
        assert!(me.index() as usize <= n, "process id out of range");
        assert!(
            id.dealer().index() as usize <= n && id.moderator().index() as usize <= n,
            "dealer/moderator out of range"
        );
        assert!(domain.n() >= n, "domain must cover all process indices");
        Mw {
            id,
            me,
            n,
            t,
            domain,
            dealer: None,
            moderator: None,
            m_frozen: false,
            my_values: None,
            my_f0: None,
            my_evals: Vec::new(),
            points: Vec::new(),
            pointed: ProcessSet::new(),
            l_mine: ProcessSet::new(),
            l_frozen: false,
            acks: ProcessSet::new(),
            l_hat: ConfirmerSets::default(),
            m_hat: None,
            ok_delivered: false,
            share_completed: false,
            dropped_deal: false,
            recon_requested: false,
            recon_sent: false,
            recon: None,
            output: None,
        }
    }

    /// Whether the share protocol completed at this process.
    pub fn share_completed(&self) -> bool {
        self.share_completed
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Dense per-pid slot index, `None` for ids outside `1..=n`.
    fn idx(&self, p: Pid) -> Option<usize> {
        let i = p.index() as usize;
        (i <= self.n).then(|| i - 1)
    }

    /// Dealer command (share step 1): pick the polynomials and send the
    /// shares. `secret` is `s = f(0)`.
    ///
    /// # Panics
    ///
    /// Panics if this process is not the dealer or already started.
    pub fn start_share<R: Rng + ?Sized>(
        &mut self,
        secret: F,
        rng: &mut R,
        out: &mut Vec<MwOut<F>>,
    ) {
        assert_eq!(self.me, self.id.dealer(), "only the dealer shares");
        assert!(self.dealer.is_none(), "share started twice");
        let f = Poly::random_with_constant(secret, self.t, rng);
        let fls: Vec<Poly<F>> = (1..=self.n as u64)
            .map(|l| Poly::random_with_constant(f.eval(self.domain.point(l)), self.t, rng))
            .collect();
        for j in Pid::all(self.n) {
            let xj = self.domain.point(j.as_u64());
            // The wire body omits j's own value f_j(j): it is redundant
            // with `monitor_poly` and the recipient splices it back in
            // (see `MwDealBody`).
            let others: Vec<F> = fls
                .iter()
                .enumerate()
                .filter(|&(l, _)| l != (j.index() - 1) as usize)
                .map(|(_, fl)| fl.eval(xj))
                .collect();
            let monitor_poly = fls[(j.index() - 1) as usize].coeffs().to_vec();
            let moderator_poly = if j == self.id.moderator() {
                Some(f.coeffs().to_vec())
            } else {
                None
            };
            out.push(MwOut::Send(
                j,
                SvssPriv::MwDeal {
                    mw: self.id,
                    deal: Box::new(crate::MwDealBody {
                        others,
                        monitor_poly,
                        moderator_poly,
                    }),
                },
            ));
        }
        self.dealer = Some(Box::new(Dealer { polys: fls }));
        self.advance(out);
    }

    /// Moderator command: set the moderator's input `s′` (step 5 gate).
    /// In SVSS this is derived from the moderator's rows; standalone
    /// callers pass it explicitly.
    pub fn set_moderator_input(&mut self, s_prime: F, out: &mut Vec<MwOut<F>>) {
        assert_eq!(self.me, self.id.moderator(), "only the moderator has s′");
        // A frozen `M` was gated on the input, so it is set already.
        if !self.m_frozen {
            let m = self.moderator.get_or_insert_with(Default::default);
            if m.input.is_none() {
                m.input = Some(s_prime);
                self.advance(out);
            }
        }
    }

    /// Command: begin the reconstruct protocol `R′`. If the share has not
    /// completed locally yet, reconstruction starts as soon as it does.
    pub fn start_reconstruct(&mut self, out: &mut Vec<MwOut<F>>) {
        self.recon_requested = true;
        self.advance(out);
    }

    /// Feeds one input into the machine.
    pub fn on_input(&mut self, input: MwIn<F>, out: &mut Vec<MwOut<F>>) {
        match input {
            MwIn::Deal {
                from,
                values,
                monitor_poly,
                moderator_poly,
            } => {
                // Only the dealer's first well-formed deal counts.
                if from != self.id.dealer() || self.my_f0.is_some() {
                    return;
                }
                if values.len() != self.n || monitor_poly.len() > self.t + 1 {
                    return; // malformed: treat as never sent
                }
                let moderating = self.me == self.id.moderator();
                let f_hat = match moderator_poly {
                    Some(c) if moderating && c.len() <= self.t + 1 => Some(Poly::from_coeffs(c)),
                    // Malformed moderator part: drop the whole deal.
                    _ if moderating => return,
                    _ => None,
                };
                let xs = &self.domain.points()[..self.n];
                let poly = Poly::from_coeffs(monitor_poly);
                poly.eval_many(xs, &mut self.my_evals);
                self.my_f0 = Some(poly.constant_term());
                if let Some(f_hat) = f_hat {
                    let m = self.moderator.get_or_insert_with(Default::default);
                    f_hat.eval_many(xs, &mut m.evals);
                    m.f0 = Some(f_hat.constant_term());
                }
                // Step 2: forward each value to its monitor, and ack.
                for l in Pid::all(self.n) {
                    out.push(MwOut::Send(
                        l,
                        SvssPriv::MwPoint {
                            mw: self.id,
                            value: values[(l.index() - 1) as usize],
                        },
                    ));
                }
                self.my_values = Some(values);
                out.push(MwOut::Broadcast(
                    SvssSlot::mw_ack(self.id),
                    SvssRbValue::Unit,
                ));
            }
            MwIn::Point { from, value } => {
                // After `L_me` froze, step 3 reads no point again.
                if let (Some(i), false) = (self.idx(from), self.l_frozen) {
                    if self.pointed.insert(from) {
                        self.points.resize(self.n, F::ZERO);
                        self.points[i] = value;
                    }
                }
            }
            MwIn::MonitorValue { from, value } => {
                if self.me == self.id.moderator() && !self.m_frozen {
                    if let Some(i) = self.idx(from) {
                        let m = self.moderator.get_or_insert_with(Default::default);
                        if m.valued.insert(from) {
                            m.values.resize(self.n, F::ZERO);
                            m.values[i] = value;
                        }
                    }
                }
            }
            MwIn::AckDelivered { origin } => {
                self.acks.insert(origin);
            }
            MwIn::LDelivered { origin, set } => {
                // Sets naming unknown processes are malformed: ignore.
                if set.iter().all(|p| p.index() as usize <= self.n) && self.idx(origin).is_some() {
                    self.l_hat.insert(origin, set, self.n);
                }
            }
            MwIn::MDelivered { origin, set } => {
                if origin == self.id.moderator()
                    && self.m_hat.is_none()
                    && set.iter().all(|p| p.index() as usize <= self.n)
                {
                    self.m_hat = Some(set);
                }
            }
            MwIn::OkDelivered { origin } => {
                if origin == self.id.dealer() {
                    self.ok_delivered = true;
                }
            }
            MwIn::ReconDelivered {
                origin,
                poly,
                value,
            } => {
                if origin.index() as usize <= self.n {
                    let r = self.recon.get_or_insert_with(Default::default);
                    if !r.points.iter().any(|&(p, o, _)| p == poly && o == origin) {
                        r.points.push((poly, origin, value));
                    }
                }
            }
        }
        self.advance(out);
    }

    /// Monotone evaluation of every protocol condition. Safe to call any
    /// number of times; each action fires at most once.
    fn advance(&mut self, out: &mut Vec<MwOut<F>>) {
        self.step3_confirm(out);
        self.step4_monitor(out);
        self.step5_6_moderate(out);
        self.step7_dealer_ok(out);
        self.step8_drop_deal(out);
        self.step9_complete(out);
        self.recon_step1(out);
        self.recon_interpolate(out);
    }

    /// Step 3: on matching point + ack + my polynomial, register the DEAL
    /// expectation and grow `L_me` (until frozen at broadcast time).
    fn step3_confirm(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.l_frozen || self.my_f0.is_none() {
            return;
        }
        for l in Pid::all(self.n) {
            if self.l_mine.contains(l) || !self.acks.contains(l) || !self.pointed.contains(l) {
                continue;
            }
            let i = (l.index() - 1) as usize;
            let expected = self.my_evals[i];
            if self.points[i] == expected {
                self.l_mine.insert(l);
                out.push(MwOut::RegisterDeal {
                    broadcaster: l,
                    expected,
                });
            }
        }
    }

    /// Step 4: freeze and broadcast `L_me`; send `f̂_me(0)` to the moderator.
    fn step4_monitor(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.l_frozen || self.l_mine.len() < self.quorum() {
            return;
        }
        self.l_frozen = true;
        self.points = Vec::new();
        self.my_evals = Vec::new();
        out.push(MwOut::Broadcast(
            SvssSlot::mw_l(self.id),
            SvssRbValue::Set(self.l_mine),
        ));
        let f0 = self.my_f0.expect("L_me nonempty implies a deal");
        out.push(MwOut::Send(
            self.id.moderator(),
            SvssPriv::MwMonitorValue {
                mw: self.id,
                value: f0,
            },
        ));
    }

    /// Steps 5 and 6: the moderator accumulates `M` and broadcasts it.
    fn step5_6_moderate(&mut self, out: &mut Vec<MwOut<F>>) {
        let quorum = self.quorum();
        let Some(m) = &mut self.moderator else {
            return;
        };
        let (Some(f0), Some(s_prime)) = (m.f0, m.input) else {
            return;
        };
        // Step 5 global precondition: the dealer's f must match s′.
        if f0 != s_prime {
            return;
        }
        for j in m.valued.iter() {
            if m.m_mine.contains(j) {
                continue;
            }
            let Some(lj) = self.l_hat.get(j, self.n) else {
                continue;
            };
            let i = (j.index() - 1) as usize;
            if lj.is_subset(&self.acks) && m.values[i] == m.evals[i] {
                m.m_mine.insert(j);
            }
        }
        if m.m_mine.len() >= quorum {
            let m_mine = m.m_mine;
            self.moderator = None;
            self.m_frozen = true;
            out.push(MwOut::Broadcast(
                SvssSlot::mw_m(self.id),
                SvssRbValue::Set(m_mine),
            ));
        }
    }

    /// `M̂`, once it and every `L̂_j` it names are delivered and every
    /// confirmer in those has acked (the gate of steps 7 and 9).
    fn settled_m_hat(&self) -> Option<ProcessSet> {
        let m_hat = self.m_hat?;
        let acked = |j| {
            self.l_hat
                .get(j, self.n)
                .is_some_and(|l| l.is_subset(&self.acks))
        };
        m_hat.iter().all(acked).then_some(m_hat)
    }

    /// Step 7: the dealer validates `M̂` against the public record,
    /// registers its ACK expectations, and broadcasts `OK`.
    fn step7_dealer_ok(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.dealer.as_ref().is_none_or(|d| d.polys.is_empty()) {
            return;
        }
        let (Some(m_hat), Some(dealer)) = (self.settled_m_hat(), &mut self.dealer) else {
            return;
        };
        // All conditions met: register expectations for every (j, l).
        for j in m_hat.iter() {
            let fj = &dealer.polys[(j.index() - 1) as usize];
            let lj = self.l_hat.get(j, self.n).expect("checked above");
            for l in lj.iter() {
                out.push(MwOut::RegisterAck {
                    broadcaster: l,
                    poly: j,
                    expected: fj.eval_at_index(l.as_u64()),
                });
            }
        }
        dealer.polys = Vec::new();
        out.push(MwOut::Broadcast(
            SvssSlot::mw_ok(self.id),
            SvssRbValue::Unit,
        ));
    }

    /// Step 8: if `M̂` excludes me, nobody will reconstruct my polynomial —
    /// drop the DEAL expectations of this session.
    fn step8_drop_deal(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.dropped_deal {
            return;
        }
        let Some(m_hat) = &self.m_hat else {
            return;
        };
        if !m_hat.contains(self.me) {
            self.dropped_deal = true;
            out.push(MwOut::DropDealEntries);
        }
    }

    /// Step 9: completion of `S′`.
    fn step9_complete(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.share_completed || !self.ok_delivered || self.settled_m_hat().is_none() {
            return;
        }
        self.share_completed = true;
        out.push(MwOut::ShareCompleted);
    }

    /// `R′` step 1: broadcast my points for every monitor in `M̂` whose
    /// confirmer set contains me.
    fn recon_step1(&mut self, out: &mut Vec<MwOut<F>>) {
        if !self.recon_requested || self.recon_sent || !self.share_completed {
            return;
        }
        let Some(m_hat) = &self.m_hat else {
            return;
        };
        self.recon_sent = true;
        let Some(values) = self.my_values.take() else {
            return; // dealer never dealt to me; I am in no L̂_l
        };
        for l in m_hat.iter() {
            let in_ll = self
                .l_hat
                .get(l, self.n)
                .is_some_and(|s| s.contains(self.me));
            if in_ll {
                out.push(MwOut::Broadcast(
                    SvssSlot::mw_recon(self.id, l),
                    SvssRbValue::Value(values[(l.index() - 1) as usize]),
                ));
            }
        }
    }

    /// `R′` steps 2–4: recover each `f̄_l(0)` from the first `t+1` valid
    /// points, then fit the degree-`t` polynomial through `{(l, f̄_l(0))}`.
    ///
    /// Only the constant terms are ever needed, so both stages use the
    /// shared [`Domain`]'s barycentric secret recovery: no coefficient
    /// vectors, no field inversions, and the point list reuses one
    /// scratch buffer across advances.
    fn recon_interpolate(&mut self, out: &mut Vec<MwOut<F>>) {
        if self.output.is_some() || !self.recon_sent {
            return;
        }
        let Some(m_hat) = self.m_hat else {
            return;
        };
        let r = self.recon.get_or_insert_with(Default::default);
        r.zeros.resize(self.n, None);
        let mut pts = std::mem::take(&mut r.scratch);
        for l in m_hat.iter() {
            if r.zeros[(l.index() - 1) as usize].is_some() {
                continue;
            }
            let Some(ll) = self.l_hat.get(l, self.n) else {
                continue;
            };
            // K_{me,l}: points from confirmers in L̂_l, in arrival order.
            pts.clear();
            for &(p, o, v) in &r.points {
                if p == l && ll.contains(o) {
                    pts.push((o.as_u64(), v));
                    if pts.len() == self.t + 1 {
                        break;
                    }
                }
            }
            if pts.len() == self.t + 1 {
                let zero = self
                    .domain
                    .interpolate_at_zero(&pts)
                    .expect("confirmer indices are distinct domain points");
                r.zeros[(l.index() - 1) as usize] = Some(zero);
            }
        }
        if m_hat
            .iter()
            .all(|l| r.zeros[(l.index() - 1) as usize].is_some())
        {
            pts.clear();
            pts.extend(m_hat.iter().map(|l| {
                let zero = r.zeros[(l.index() - 1) as usize].expect("checked above");
                (l.as_u64(), zero)
            }));
            let result = match self.domain.interpolate_checked_at_zero(&pts, self.t) {
                Some(secret) => Reconstructed::Value(secret),
                None => Reconstructed::Bottom,
            };
            self.output = Some(result);
            out.push(MwOut::Output(result));
        }
        r.scratch = pts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sba_field::Gf61;

    const N: usize = 4;
    const T: usize = 1;

    fn f(v: u64) -> Gf61 {
        Gf61::from_u64(v)
    }

    fn mw_id() -> MwId {
        MwId::standalone(1, Pid::new(1), Pid::new(2))
    }

    fn machine(me: u32) -> Mw<Gf61> {
        Mw::new(mw_id(), Pid::new(me), N, T, Arc::new(Domain::new(N)))
    }

    /// The dealer's start emits one deal per process (with the master
    /// polynomial only for the moderator) and nothing else.
    #[test]
    fn dealer_start_emits_n_deals() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m = machine(1);
        let mut out = Vec::new();
        m.start_share(f(42), &mut rng, &mut out);
        let deals: Vec<&MwOut<Gf61>> = out
            .iter()
            .filter(|o| matches!(o, MwOut::Send(_, SvssPriv::MwDeal { .. })))
            .collect();
        assert_eq!(deals.len(), N);
        let mut moderator_polys = 0;
        for o in &out {
            if let MwOut::Send(to, SvssPriv::MwDeal { deal, .. }) = o {
                assert_eq!(deal.others.len(), N - 1);
                if deal.moderator_poly.is_some() {
                    assert_eq!(*to, Pid::new(2), "only the moderator gets f");
                    moderator_polys += 1;
                }
            }
        }
        assert_eq!(moderator_polys, 1);
    }

    #[test]
    #[should_panic(expected = "share started twice")]
    fn double_start_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m = machine(1);
        let mut out = Vec::new();
        m.start_share(f(1), &mut rng, &mut out);
        m.start_share(f(2), &mut rng, &mut out);
    }

    #[test]
    #[should_panic(expected = "only the dealer")]
    fn non_dealer_cannot_share() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m = machine(3);
        let mut out = Vec::new();
        m.start_share(f(1), &mut rng, &mut out);
    }

    /// A well-formed deal triggers the step-2 fan-out: one point per
    /// process plus the RB ack.
    #[test]
    fn deal_triggers_points_and_ack() {
        let mut m = machine(3);
        let mut out = Vec::new();
        m.on_input(
            MwIn::Deal {
                from: Pid::new(1),
                values: vec![f(1), f(2), f(3), f(4)],
                monitor_poly: vec![f(9), f(8)],
                moderator_poly: None,
            },
            &mut out,
        );
        let points = out
            .iter()
            .filter(|o| matches!(o, MwOut::Send(_, SvssPriv::MwPoint { .. })))
            .count();
        assert_eq!(points, N);
        assert!(out
            .iter()
            .any(|o| matches!(o, MwOut::Broadcast(s, _) if s.kind() == sba_net::SlotKind::MwAck)));
    }

    /// Deals from anyone but the dealer, malformed deals, and repeat deals
    /// are all inert.
    #[test]
    fn bogus_deals_ignored() {
        let mut m = machine(3);
        let mut out = Vec::new();
        // Wrong sender.
        m.on_input(
            MwIn::Deal {
                from: Pid::new(4),
                values: vec![f(1); N],
                monitor_poly: vec![f(1)],
                moderator_poly: None,
            },
            &mut out,
        );
        assert!(out.is_empty());
        // Wrong value-vector length.
        m.on_input(
            MwIn::Deal {
                from: Pid::new(1),
                values: vec![f(1); N + 2],
                monitor_poly: vec![f(1)],
                moderator_poly: None,
            },
            &mut out,
        );
        assert!(out.is_empty());
        // Monitor polynomial of degree > t.
        m.on_input(
            MwIn::Deal {
                from: Pid::new(1),
                values: vec![f(1); N],
                monitor_poly: vec![f(1); T + 5],
                moderator_poly: None,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }

    /// Step 3: confirmations only count with a matching point AND an ack,
    /// and freeze once L is broadcast.
    #[test]
    fn confirmations_gate_on_point_and_ack() {
        let mut m = machine(3);
        let mut out = Vec::new();
        // Monitor polynomial f_3 with f_3(l) = 7 for all l (constant).
        m.on_input(
            MwIn::Deal {
                from: Pid::new(1),
                values: vec![f(7); N],
                monitor_poly: vec![f(7)],
                moderator_poly: None,
            },
            &mut out,
        );
        out.clear();
        // A matching point without an ack: no DEAL registration yet.
        m.on_input(
            MwIn::Point {
                from: Pid::new(2),
                value: f(7),
            },
            &mut out,
        );
        assert!(!out.iter().any(|o| matches!(o, MwOut::RegisterDeal { .. })));
        // The ack arrives: now the confirmation registers.
        m.on_input(
            MwIn::AckDelivered {
                origin: Pid::new(2),
            },
            &mut out,
        );
        assert!(out.iter().any(|o| matches!(
            o,
            MwOut::RegisterDeal { broadcaster, .. } if *broadcaster == Pid::new(2)
        )));
        // A mismatching point from p4 never registers.
        out.clear();
        m.on_input(
            MwIn::Point {
                from: Pid::new(4),
                value: f(8),
            },
            &mut out,
        );
        m.on_input(
            MwIn::AckDelivered {
                origin: Pid::new(4),
            },
            &mut out,
        );
        assert!(!out.iter().any(|o| matches!(
            o,
            MwOut::RegisterDeal { broadcaster, .. } if *broadcaster == Pid::new(4)
        )));
    }

    /// M̂ from anyone but the moderator and OK from anyone but the dealer
    /// are ignored.
    #[test]
    fn role_checked_broadcasts() {
        let mut m = machine(3);
        let mut out = Vec::new();
        let all: ProcessSet = Pid::all(N).collect();
        m.on_input(
            MwIn::MDelivered {
                origin: Pid::new(4), // not the moderator
                set: all,
            },
            &mut out,
        );
        m.on_input(
            MwIn::OkDelivered {
                origin: Pid::new(4),
            },
            &mut out,
        ); // not dealer
        assert!(!m.share_completed());
        assert!(out.is_empty());
    }

    /// Reconstruct points arriving before the local share completes are
    /// buffered, not lost.
    #[test]
    fn early_recon_points_buffered() {
        let mut m = machine(3);
        let mut out = Vec::new();
        m.on_input(
            MwIn::ReconDelivered {
                origin: Pid::new(2),
                poly: Pid::new(1),
                value: f(5),
            },
            &mut out,
        );
        // No output, no panic; the point is retained for later.
        assert!(out.is_empty());
        assert!(m.output.is_none());
    }

    /// `Mw` as it was before its state became phase-scoped: every role's
    /// state allocated at construction and kept for the machine's whole
    /// life. Kept verbatim as the reference model for
    /// `compact_machine_matches_reference`.
    #[allow(dead_code)]
    mod reference {
        use std::sync::Arc;

        use rand::Rng;
        use sba_field::{Domain, Field, Poly};
        use sba_net::{MwId, Pid, ProcessSet};

        use super::super::{MwIn, MwOut};
        use crate::{Reconstructed, SvssPriv, SvssRbValue, SvssSlot};

        /// This process's state in one MW-SVSS invocation.
        #[derive(Clone, Debug)]
        pub struct Mw<F: Field> {
            id: MwId,
            me: Pid,
            n: usize,
            t: usize,
            /// Shared per-instance evaluation domain (points `1..=n`).
            domain: Arc<Domain<F>>,

            // Dealer-only: the true polynomials f, f_1..f_n.
            dealer_polys: Option<(Poly<F>, Vec<Poly<F>>)>,
            ok_sent: bool,

            // Every process: what the dealer sent me (step 1).
            my_values: Option<Vec<F>>,
            my_poly: Option<Poly<F>>,
            /// `my_poly` evaluated at every process index (computed once; step 3
            /// re-checks these on every monotone advance).
            my_evals: Vec<F>,
            acked: bool,

            // Step 3 state: first point per confirmer, my confirmer set L_me.
            /// First point per confirmer, indexed by `pid - 1` (per-pid state in
            /// this machine is direct-indexed: `advance` re-probes it on every
            /// input, and at `n ≤ MAX_N = 256` a dense vector beats any hash map).
            points: Vec<Option<F>>,
            l_mine: ProcessSet,
            l_frozen: bool,

            // Moderator-only.
            moderator_input: Option<F>,
            moderator_poly: Option<Poly<F>>,
            /// `moderator_poly` evaluated at every process index (computed once).
            moderator_evals: Vec<F>,
            monitor_values: Vec<Option<F>>,
            m_mine: ProcessSet,
            m_frozen: bool,

            // RB-delivered public state.
            acks: ProcessSet,
            l_hat: Vec<Option<ProcessSet>>,
            m_hat: Option<ProcessSet>,
            ok_delivered: bool,

            share_completed: bool,
            dropped_deal: bool,

            // Reconstruct.
            recon_requested: bool,
            recon_sent: bool,
            /// All reconstruct points in arrival order: (poly, origin, value).
            recon_points: Vec<(Pid, Pid, F)>,
            /// Recovered constant terms `f̄_l(0)` (the full polynomials are never
            /// needed — only their values at zero feed step 4 of `R′`).
            recon_zeros: Vec<Option<F>>,
            /// Scratch for interpolation point lists (reused across advances).
            pts_scratch: Vec<(u64, F)>,
            output: Option<Reconstructed<F>>,
            output_emitted: bool,
        }

        impl<F: Field> Mw<F> {
            /// Creates this process's view of invocation `id` in an `n`-process
            /// system tolerating `t` faults. `domain` is the instance's shared
            /// evaluation domain and must cover the points `1..=n`.
            ///
            /// # Panics
            ///
            /// Panics unless `n > 3t`, all ids address processes in `1..=n`, and
            /// the domain covers `n` points.
            pub fn new(id: MwId, me: Pid, n: usize, t: usize, domain: Arc<Domain<F>>) -> Self {
                assert!(n > 3 * t, "MW-SVSS requires n > 3t");
                assert!(me.index() as usize <= n, "process id out of range");
                assert!(
                    id.dealer().index() as usize <= n && id.moderator().index() as usize <= n,
                    "dealer/moderator out of range"
                );
                assert!(domain.n() >= n, "domain must cover all process indices");
                Mw {
                    id,
                    me,
                    n,
                    t,
                    domain,
                    dealer_polys: None,
                    ok_sent: false,
                    my_values: None,
                    my_poly: None,
                    my_evals: Vec::new(),
                    acked: false,
                    points: vec![None; n],
                    l_mine: ProcessSet::new(),
                    l_frozen: false,
                    moderator_input: None,
                    moderator_poly: None,
                    moderator_evals: Vec::new(),
                    monitor_values: vec![None; n],
                    m_mine: ProcessSet::new(),
                    m_frozen: false,
                    acks: ProcessSet::new(),
                    l_hat: vec![None; n],
                    m_hat: None,
                    ok_delivered: false,
                    share_completed: false,
                    dropped_deal: false,
                    recon_requested: false,
                    recon_sent: false,
                    recon_points: Vec::new(),
                    recon_zeros: vec![None; n],
                    pts_scratch: Vec::new(),
                    output: None,
                    output_emitted: false,
                }
            }

            /// The invocation id.
            pub fn id(&self) -> MwId {
                self.id
            }

            /// Whether the share protocol completed at this process.
            pub fn share_completed(&self) -> bool {
                self.share_completed
            }

            /// The reconstruct output, if produced.
            pub fn output(&self) -> Option<Reconstructed<F>> {
                if self.output_emitted {
                    self.output
                } else {
                    None
                }
            }

            fn quorum(&self) -> usize {
                self.n - self.t
            }

            /// Dense per-pid slot index, `None` for ids outside `1..=n`.
            fn idx(&self, p: Pid) -> Option<usize> {
                let i = p.index() as usize;
                (i <= self.n).then(|| i - 1)
            }

            /// Dealer command (share step 1): pick the polynomials and send the
            /// shares. `secret` is `s = f(0)`.
            ///
            /// # Panics
            ///
            /// Panics if this process is not the dealer or already started.
            pub fn start_share<R: Rng + ?Sized>(
                &mut self,
                secret: F,
                rng: &mut R,
                out: &mut Vec<MwOut<F>>,
            ) {
                assert_eq!(self.me, self.id.dealer(), "only the dealer shares");
                assert!(self.dealer_polys.is_none(), "share started twice");
                let f = Poly::random_with_constant(secret, self.t, rng);
                let fls: Vec<Poly<F>> = (1..=self.n as u64)
                    .map(|l| Poly::random_with_constant(f.eval(self.domain.point(l)), self.t, rng))
                    .collect();
                for j in Pid::all(self.n) {
                    let xj = self.domain.point(j.as_u64());
                    // The wire body omits j's own value f_j(j): it is redundant
                    // with `monitor_poly` and the recipient splices it back in
                    // (see `MwDealBody`).
                    let others: Vec<F> = fls
                        .iter()
                        .enumerate()
                        .filter(|&(l, _)| l != (j.index() - 1) as usize)
                        .map(|(_, fl)| fl.eval(xj))
                        .collect();
                    let monitor_poly = fls[(j.index() - 1) as usize].coeffs().to_vec();
                    let moderator_poly = if j == self.id.moderator() {
                        Some(f.coeffs().to_vec())
                    } else {
                        None
                    };
                    out.push(MwOut::Send(
                        j,
                        SvssPriv::MwDeal {
                            mw: self.id,
                            deal: Box::new(crate::MwDealBody {
                                others,
                                monitor_poly,
                                moderator_poly,
                            }),
                        },
                    ));
                }
                self.dealer_polys = Some((f, fls));
                self.advance(out);
            }

            /// Moderator command: set the moderator's input `s′` (step 5 gate).
            /// In SVSS this is derived from the moderator's rows; standalone
            /// callers pass it explicitly.
            pub fn set_moderator_input(&mut self, s_prime: F, out: &mut Vec<MwOut<F>>) {
                assert_eq!(self.me, self.id.moderator(), "only the moderator has s′");
                if self.moderator_input.is_none() {
                    self.moderator_input = Some(s_prime);
                    self.advance(out);
                }
            }

            /// Command: begin the reconstruct protocol `R′`. If the share has not
            /// completed locally yet, reconstruction starts as soon as it does.
            pub fn start_reconstruct(&mut self, out: &mut Vec<MwOut<F>>) {
                self.recon_requested = true;
                self.advance(out);
            }

            /// Feeds one input into the machine.
            pub fn on_input(&mut self, input: MwIn<F>, out: &mut Vec<MwOut<F>>) {
                match input {
                    MwIn::Deal {
                        from,
                        values,
                        monitor_poly,
                        moderator_poly,
                    } => {
                        // Only the dealer's first well-formed deal counts.
                        if from != self.id.dealer() || self.my_values.is_some() {
                            return;
                        }
                        if values.len() != self.n || monitor_poly.len() > self.t + 1 {
                            return; // malformed: treat as never sent
                        }
                        let poly = Poly::from_coeffs(monitor_poly);
                        poly.eval_many(&self.domain.points()[..self.n], &mut self.my_evals);
                        self.my_values = Some(values.clone());
                        self.my_poly = Some(poly);
                        if self.me == self.id.moderator() {
                            match moderator_poly {
                                Some(c) if c.len() <= self.t + 1 => {
                                    let f_hat = Poly::from_coeffs(c);
                                    f_hat.eval_many(
                                        &self.domain.points()[..self.n],
                                        &mut self.moderator_evals,
                                    );
                                    self.moderator_poly = Some(f_hat);
                                }
                                _ => {
                                    // Malformed moderator part: drop the whole deal.
                                    self.my_values = None;
                                    self.my_poly = None;
                                    self.my_evals.clear();
                                    return;
                                }
                            }
                        }
                        // Step 2: forward each value to its monitor, and ack.
                        for l in Pid::all(self.n) {
                            out.push(MwOut::Send(
                                l,
                                SvssPriv::MwPoint {
                                    mw: self.id,
                                    value: values[(l.index() - 1) as usize],
                                },
                            ));
                        }
                        self.acked = true;
                        out.push(MwOut::Broadcast(
                            SvssSlot::mw_ack(self.id),
                            SvssRbValue::Unit,
                        ));
                    }
                    MwIn::Point { from, value } => {
                        if let Some(i) = self.idx(from) {
                            self.points[i].get_or_insert(value);
                        }
                    }
                    MwIn::MonitorValue { from, value } => {
                        if self.me == self.id.moderator() {
                            if let Some(i) = self.idx(from) {
                                self.monitor_values[i].get_or_insert(value);
                            }
                        }
                    }
                    MwIn::AckDelivered { origin } => {
                        self.acks.insert(origin);
                    }
                    MwIn::LDelivered { origin, set } => {
                        // Sets naming unknown processes are malformed: ignore.
                        if set.iter().all(|p| p.index() as usize <= self.n) {
                            if let Some(i) = self.idx(origin) {
                                self.l_hat[i].get_or_insert(set);
                            }
                        }
                    }
                    MwIn::MDelivered { origin, set } => {
                        if origin == self.id.moderator()
                            && self.m_hat.is_none()
                            && set.iter().all(|p| p.index() as usize <= self.n)
                        {
                            self.m_hat = Some(set);
                        }
                    }
                    MwIn::OkDelivered { origin } => {
                        if origin == self.id.dealer() {
                            self.ok_delivered = true;
                        }
                    }
                    MwIn::ReconDelivered {
                        origin,
                        poly,
                        value,
                    } => {
                        if origin.index() as usize <= self.n
                            && !self
                                .recon_points
                                .iter()
                                .any(|&(p, o, _)| p == poly && o == origin)
                        {
                            self.recon_points.push((poly, origin, value));
                        }
                    }
                }
                self.advance(out);
            }

            /// Monotone evaluation of every protocol condition. Safe to call any
            /// number of times; each action fires at most once.
            fn advance(&mut self, out: &mut Vec<MwOut<F>>) {
                self.step3_confirm(out);
                self.step4_monitor(out);
                self.step5_6_moderate(out);
                self.step7_dealer_ok(out);
                self.step8_drop_deal(out);
                self.step9_complete(out);
                self.recon_step1(out);
                self.recon_interpolate(out);
            }

            /// Step 3: on matching point + ack + my polynomial, register the DEAL
            /// expectation and grow `L_me` (until frozen at broadcast time).
            fn step3_confirm(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.l_frozen || self.my_poly.is_none() {
                    return;
                }
                for l in Pid::all(self.n) {
                    if self.l_mine.contains(l) || !self.acks.contains(l) {
                        continue;
                    }
                    let Some(point) = self.points[(l.index() - 1) as usize] else {
                        continue;
                    };
                    let expected = self.my_evals[(l.index() - 1) as usize];
                    if point == expected {
                        self.l_mine.insert(l);
                        out.push(MwOut::RegisterDeal {
                            broadcaster: l,
                            expected,
                        });
                    }
                }
            }

            /// Step 4: freeze and broadcast `L_me`; send `f̂_me(0)` to the moderator.
            fn step4_monitor(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.l_frozen || self.l_mine.len() < self.quorum() {
                    return;
                }
                self.l_frozen = true;
                out.push(MwOut::Broadcast(
                    SvssSlot::mw_l(self.id),
                    SvssRbValue::Set(self.l_mine),
                ));
                let f0 = self
                    .my_poly
                    .as_ref()
                    .expect("L_me nonempty implies my_poly present")
                    .constant_term();
                out.push(MwOut::Send(
                    self.id.moderator(),
                    SvssPriv::MwMonitorValue {
                        mw: self.id,
                        value: f0,
                    },
                ));
            }

            /// Steps 5 and 6: the moderator accumulates `M` and broadcasts it.
            fn step5_6_moderate(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.me != self.id.moderator() || self.m_frozen {
                    return;
                }
                let (Some(f_hat), Some(s_prime)) = (&self.moderator_poly, self.moderator_input)
                else {
                    return;
                };
                // Step 5 global precondition: the dealer's f must match s′.
                if f_hat.constant_term() != s_prime {
                    return;
                }
                for j in Pid::all(self.n) {
                    if self.m_mine.contains(j) {
                        continue;
                    }
                    let Some(mv) = self.monitor_values[(j.index() - 1) as usize] else {
                        continue;
                    };
                    let Some(lj) = &self.l_hat[(j.index() - 1) as usize] else {
                        continue;
                    };
                    let all_acked = lj.is_subset(&self.acks);
                    if all_acked && mv == self.moderator_evals[(j.index() - 1) as usize] {
                        self.m_mine.insert(j);
                    }
                }
                if self.m_mine.len() >= self.quorum() {
                    self.m_frozen = true;
                    out.push(MwOut::Broadcast(
                        SvssSlot::mw_m(self.id),
                        SvssRbValue::Set(self.m_mine),
                    ));
                }
            }

            /// Step 7: the dealer validates `M̂` against the public record,
            /// registers its ACK expectations, and broadcasts `OK`.
            fn step7_dealer_ok(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.me != self.id.dealer() || self.ok_sent {
                    return;
                }
                let Some((_, fls)) = &self.dealer_polys else {
                    return;
                };
                let Some(m_hat) = &self.m_hat else {
                    return;
                };
                for j in m_hat.iter() {
                    let Some(lj) = &self.l_hat[(j.index() - 1) as usize] else {
                        return;
                    };
                    if !lj.is_subset(&self.acks) {
                        return;
                    }
                }
                // All conditions met: register expectations for every (j, l).
                for j in m_hat.iter() {
                    let fj = &fls[(j.index() - 1) as usize];
                    let lj = self.l_hat[(j.index() - 1) as usize].expect("checked above");
                    for l in lj.iter() {
                        out.push(MwOut::RegisterAck {
                            broadcaster: l,
                            poly: j,
                            expected: fj.eval_at_index(l.as_u64()),
                        });
                    }
                }
                self.ok_sent = true;
                out.push(MwOut::Broadcast(
                    SvssSlot::mw_ok(self.id),
                    SvssRbValue::Unit,
                ));
            }

            /// Step 8: if `M̂` excludes me, nobody will reconstruct my polynomial —
            /// drop the DEAL expectations of this session.
            fn step8_drop_deal(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.dropped_deal {
                    return;
                }
                let Some(m_hat) = &self.m_hat else {
                    return;
                };
                if !m_hat.contains(self.me) {
                    self.dropped_deal = true;
                    out.push(MwOut::DropDealEntries);
                }
            }

            /// Step 9: completion of `S′`.
            fn step9_complete(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.share_completed || !self.ok_delivered {
                    return;
                }
                let Some(m_hat) = &self.m_hat else {
                    return;
                };
                for l in m_hat.iter() {
                    let Some(ll) = &self.l_hat[(l.index() - 1) as usize] else {
                        return;
                    };
                    if !ll.is_subset(&self.acks) {
                        return;
                    }
                }
                self.share_completed = true;
                out.push(MwOut::ShareCompleted);
            }

            /// `R′` step 1: broadcast my points for every monitor in `M̂` whose
            /// confirmer set contains me.
            fn recon_step1(&mut self, out: &mut Vec<MwOut<F>>) {
                if !self.recon_requested || self.recon_sent || !self.share_completed {
                    return;
                }
                let Some(m_hat) = &self.m_hat else {
                    return;
                };
                self.recon_sent = true;
                let Some(values) = &self.my_values else {
                    return; // dealer never dealt to me; I am in no L̂_l
                };
                for l in m_hat.iter() {
                    let in_ll =
                        self.l_hat[(l.index() - 1) as usize].is_some_and(|s| s.contains(self.me));
                    if in_ll {
                        out.push(MwOut::Broadcast(
                            SvssSlot::mw_recon(self.id, l),
                            SvssRbValue::Value(values[(l.index() - 1) as usize]),
                        ));
                    }
                }
            }

            /// `R′` steps 2–4: recover each `f̄_l(0)` from the first `t+1` valid
            /// points, then fit the degree-`t` polynomial through `{(l, f̄_l(0))}`.
            ///
            /// Only the constant terms are ever needed, so both stages use the
            /// shared [`Domain`]'s barycentric secret recovery: no coefficient
            /// vectors, no field inversions, and the point list reuses one
            /// scratch buffer across advances.
            fn recon_interpolate(&mut self, out: &mut Vec<MwOut<F>>) {
                if self.output_emitted || !self.recon_sent {
                    return;
                }
                let Some(m_hat) = self.m_hat else {
                    return;
                };
                let mut pts = std::mem::take(&mut self.pts_scratch);
                for l in m_hat.iter() {
                    if self.recon_zeros[(l.index() - 1) as usize].is_some() {
                        continue;
                    }
                    let Some(ll) = &self.l_hat[(l.index() - 1) as usize] else {
                        continue;
                    };
                    // K_{me,l}: points from confirmers in L̂_l, in arrival order.
                    pts.clear();
                    for &(p, o, v) in &self.recon_points {
                        if p == l && ll.contains(o) {
                            pts.push((o.as_u64(), v));
                            if pts.len() == self.t + 1 {
                                break;
                            }
                        }
                    }
                    if pts.len() == self.t + 1 {
                        let zero = self
                            .domain
                            .interpolate_at_zero(&pts)
                            .expect("confirmer indices are distinct domain points");
                        self.recon_zeros[(l.index() - 1) as usize] = Some(zero);
                    }
                }
                if m_hat
                    .iter()
                    .all(|l| self.recon_zeros[(l.index() - 1) as usize].is_some())
                {
                    pts.clear();
                    pts.extend(m_hat.iter().map(|l| {
                        let zero =
                            self.recon_zeros[(l.index() - 1) as usize].expect("checked above");
                        (l.as_u64(), zero)
                    }));
                    let result = match self.domain.interpolate_checked_at_zero(&pts, self.t) {
                        Some(secret) => Reconstructed::Value(secret),
                        None => Reconstructed::Bottom,
                    };
                    self.output = Some(result);
                    self.output_emitted = true;
                    out.push(MwOut::Output(result));
                }
                self.pts_scratch = pts;
            }
        }
    }

    /// One input of an oracle stream: a local command or a delivery.
    #[derive(Clone, Debug)]
    enum Step {
        /// The dealer's `start_share(secret)`, its randomness seeded.
        Share(Gf61, u64),
        ModeratorInput(Gf61),
        Reconstruct,
        In(MwIn<Gf61>),
    }

    /// A random input stream for process `me` of invocation `id` in an
    /// `n`-process system: an honest dealer's deal and the traffic an
    /// honest run would bring, with lies, duplicates, out-of-range ids
    /// and malformed deals mixed in, in a seed-drawn order.
    fn oracle_stream(n: usize, me: Pid, id: MwId, seed: u64) -> Vec<Step> {
        use rand::{Rng, RngCore};

        let t = (n - 1) / 3;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let secret = f(rng.gen_range(0..1000u64));
        let deal_seed = rng.next_u64();
        // The dealer's true polynomials, read off what it deals.
        let domain = Arc::new(Domain::new(n));
        let mut dealer = reference::Mw::new(id, id.dealer(), n, t, Arc::clone(&domain));
        let mut dealt = Vec::new();
        let mut deal_rng = rand::rngs::StdRng::seed_from_u64(deal_seed);
        dealer.start_share(secret, &mut deal_rng, &mut dealt);
        let mut deals = Vec::new();
        for o in dealt {
            if let MwOut::Send(_, SvssPriv::MwDeal { deal, .. }) = o {
                deals.push(*deal);
            }
        }
        let polys: Vec<Poly<Gf61>> = deals
            .iter()
            .map(|d| Poly::from_coeffs(d.monitor_poly.clone()))
            .collect();
        let at = |l: Pid, x: Pid| polys[(l.index() - 1) as usize].eval_at_index(x.as_u64());
        // The full value row of process j (the engine's splice).
        let row = |j: Pid| -> Vec<Gf61> { Pid::all(n).map(|l| at(l, j)).collect() };
        let lie = |rng: &mut rand::rngs::StdRng, v: Gf61| {
            if rng.gen_range(0..8u32) == 0 {
                v + f(1)
            } else {
                v
            }
        };
        let outsider = Pid::new(n as u32 + 1);
        let other = |p: Pid| Pid::new(p.index() % n as u32 + 1);
        let mine = &deals[(me.index() - 1) as usize];
        let deal = |from: Pid, values: Vec<Gf61>, monitor_poly: Vec<Gf61>, moderator_poly| {
            Step::In(MwIn::Deal {
                from,
                values,
                monitor_poly,
                moderator_poly,
            })
        };

        let mut steps = Vec::new();
        if me == id.dealer() {
            steps.push(Step::Share(secret, deal_seed));
        }
        let good = deal(
            id.dealer(),
            row(me),
            mine.monitor_poly.clone(),
            mine.moderator_poly.clone(),
        );
        steps.push(good.clone());
        // Malformed and repeated deals.
        for _ in 0..rng.gen_range(0..4u32) {
            let mut values = row(me);
            let mut monitor_poly = mine.monitor_poly.clone();
            let mut moderator_poly = mine.moderator_poly.clone();
            let mut from = id.dealer();
            match rng.gen_range(0..6u32) {
                0 => from = other(id.dealer()),
                1 => values.push(f(3)),
                2 => values.truncate(n - 1),
                3 => monitor_poly.extend([f(1); 2]),
                4 => {
                    moderator_poly = match moderator_poly {
                        Some(_) => None,
                        None => Some(vec![f(1); t + 2]),
                    }
                }
                _ => values[0] += f(1), // a second, different deal
            }
            steps.push(deal(from, values, monitor_poly, moderator_poly));
        }
        if rng.gen_range(0..4u32) == 0 {
            steps.push(good);
        }
        // Step 2 and 4 traffic of every process: its point for my
        // polynomial, its ack, its L̂, and its f̂_j(0) to the moderator.
        let acked: Vec<Pid> = Pid::all(n)
            .filter(|_| rng.gen_range(0..6u32) != 0)
            .collect();
        for j in Pid::all(n).chain([outsider]) {
            let copies = if rng.gen_range(0..5u32) == 0 { 2 } else { 1 };
            for _ in 0..copies {
                let value = if j == outsider { f(0) } else { at(me, j) };
                let value = lie(&mut rng, value);
                steps.push(Step::In(MwIn::Point { from: j, value }));
                steps.push(Step::In(MwIn::AckDelivered { origin: j }));
                let mut set: ProcessSet = acked
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_range(0..6u32) != 0)
                    .collect();
                if rng.gen_range(0..10u32) == 0 {
                    set.insert(if rng.gen_range(0..2u32) == 0 {
                        outsider
                    } else {
                        j
                    });
                }
                steps.push(Step::In(MwIn::LDelivered { origin: j, set }));
                let value = if j == outsider {
                    f(0)
                } else {
                    polys[(j.index() - 1) as usize].constant_term()
                };
                let value = lie(&mut rng, value);
                steps.push(Step::In(MwIn::MonitorValue { from: j, value }));
            }
        }
        steps.retain(
            |s| !matches!(s, Step::In(MwIn::AckDelivered { origin }) if !acked.contains(origin)),
        );
        // The moderator's input, M̂ (also from an impostor, and twice),
        // and OK (also from a non-dealer).
        if me == id.moderator() {
            for _ in 0..rng.gen_range(1..3u32) {
                let s = lie(&mut rng, secret);
                steps.push(Step::ModeratorInput(s));
            }
        }
        for from in [id.moderator(), other(id.moderator()), id.moderator()] {
            let set: ProcessSet = Pid::all(n)
                .filter(|_| rng.gen_range(0..5u32) != 0)
                .collect();
            steps.push(Step::In(MwIn::MDelivered { origin: from, set }));
        }
        steps.push(Step::In(MwIn::OkDelivered {
            origin: id.dealer(),
        }));
        steps.push(Step::In(MwIn::OkDelivered {
            origin: other(id.dealer()),
        }));
        // Reconstruct points for every polynomial, from every process.
        for l in Pid::all(n) {
            for o in Pid::all(n).chain([outsider]) {
                if rng.gen_range(0..5u32) != 0 {
                    let value = if o == outsider { f(0) } else { at(l, o) };
                    let value = lie(&mut rng, value);
                    steps.push(Step::In(MwIn::ReconDelivered {
                        origin: o,
                        poly: l,
                        value,
                    }));
                }
            }
        }
        // Seed-drawn order (the dealer's own start comes first), then
        // one or two reconstruct commands at random positions.
        let from = usize::from(me == id.dealer());
        for i in (from + 1..steps.len()).rev() {
            let j = rng.gen_range(from..i + 1);
            steps.swap(i, j);
        }
        for _ in 0..rng.gen_range(1..3u32) {
            let at = rng.gen_range(from..steps.len() + 1);
            steps.insert(at, Step::Reconstruct);
        }
        steps
    }

    /// Feeds `steps` to the reference and the compact machine side by
    /// side, comparing what each emits and reports after every input.
    /// Returns whether the share completed and an output was produced.
    fn compare_with_reference(n: usize, me: Pid, id: MwId, steps: &[Step]) -> (bool, bool) {
        let t = (n - 1) / 3;
        let domain = Arc::new(Domain::new(n));
        let mut old = reference::Mw::new(id, me, n, t, Arc::clone(&domain));
        let mut new = Mw::new(id, me, n, t, domain);
        let (mut old_out, mut new_out) = (Vec::new(), Vec::new());
        for (k, step) in steps.iter().enumerate() {
            match step {
                Step::Share(secret, seed) => {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                    old.start_share(*secret, &mut rng, &mut old_out);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                    new.start_share(*secret, &mut rng, &mut new_out);
                }
                Step::ModeratorInput(s) => {
                    old.set_moderator_input(*s, &mut old_out);
                    new.set_moderator_input(*s, &mut new_out);
                }
                Step::Reconstruct => {
                    old.start_reconstruct(&mut old_out);
                    new.start_reconstruct(&mut new_out);
                }
                Step::In(input) => {
                    old.on_input(input.clone(), &mut old_out);
                    new.on_input(input.clone(), &mut new_out);
                }
            }
            assert_eq!(new_out, old_out, "outputs differ after step {k}: {step:?}");
            assert_eq!(new.share_completed(), old.share_completed(), "step {k}");
            assert_eq!(new.output, old.output(), "step {k}");
            old_out.clear();
            new_out.clear();
        }
        (new.share_completed(), new.output.is_some())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The machine against its reference model: every role (dealer,
        /// moderator, both, neither) at n = 4 and n = 7, over random
        /// streams with malformed deals, points before the deal and after
        /// `L` freezes, duplicate and impostor `L`/`M`/`OK` deliveries,
        /// early reconstruct points and `start_reconstruct` anywhere.
        #[test]
        fn compact_machine_matches_reference(
            big in proptest::prelude::any::<bool>(),
            roles in (1u32..=7, 1u32..=7, 1u32..=7),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = if big { 7 } else { 4 };
            let pid = |i: u32| Pid::new((i - 1) % n as u32 + 1);
            let (me, dealer, moderator) = (pid(roles.0), pid(roles.1), pid(roles.2));
            let id = MwId::standalone(seed % 5, dealer, moderator);
            compare_with_reference(n, me, id, &oracle_stream(n, me, id, seed));
        }
    }

    /// The oracle streams reach every phase: over a fixed seed range most
    /// complete the share and many reconstruct, in every role.
    #[test]
    fn oracle_streams_reach_completion_and_output() {
        let n = 7;
        let (mut completed, mut output) = (0, 0);
        for seed in 0..64u64 {
            let me = Pid::new((seed % 7) as u32 + 1);
            let id = MwId::standalone(seed, Pid::new(1 + (seed / 7 % 7) as u32), Pid::new(2));
            let (c, o) = compare_with_reference(n, me, id, &oracle_stream(n, me, id, seed));
            completed += usize::from(c);
            output += usize::from(o);
        }
        assert!(
            completed >= 32,
            "{completed}/64 streams completed the share"
        );
        assert!(output >= 16, "{output}/64 streams produced an output");
    }
}
