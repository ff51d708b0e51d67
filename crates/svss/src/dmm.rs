//! DMM — the Detection and Message Management protocol (paper §3.3).
//!
//! One DMM instance runs per process, for the lifetime of the SVSS scheme,
//! concurrently with all VSS invocations. It maintains:
//!
//! - `D_i`: processes known faulty — all their messages are **discarded**;
//! - `ACK_i`: dealer-side expectations `(broadcaster j, poly l, session, x)`
//!   — "j must eventually RB `f_l(j) = x` in that session's reconstruct";
//! - `DEAL_i`: monitor-side expectations `(broadcaster j, session, x)` —
//!   "j must eventually RB `f_i(j) = x`";
//! - the session partial order `→_i` (completed-before-started), driving
//!   the **delay** rule: messages from `j` in a later session wait while
//!   an expectation on `j` from an earlier session is outstanding.
//!
//! A mismatch between an expectation and the actual broadcast puts the
//! broadcaster in `D_i` *silently* — this is the paper's shunning: the
//! process acts on its detection without necessarily ever knowing the
//! detected process is faulty.
//!
//! # Layout
//!
//! The paper keeps `ACK_i` and `DEAL_i` per VSS session, and so does
//! this module: everything that is about one MW-SVSS invocation — its
//! ACK and DEAL expectations, the reconstruct broadcasts seen so far,
//! and how many expectations are open on each broadcaster — sits in one
//! `Session` record, found by a single probe on the `MwId`. Inside the
//! record the tables are arrays indexed by process id (`n` rows, or
//! `n × n` cells for the two tables keyed by a broadcaster and a
//! polynomial), allocated when first written. A record is created by the
//! first registration or logged broadcast and removed when it holds
//! nothing, so every operation costs what its own session holds — at
//! most `n` entries, `n²` at the dealer — however many sessions the run
//! has.
//! The `n` rows (16 bytes each) live as long as the record; the two
//! `n × n` tables only where written: `ACK_i` at the session's dealer,
//! the reconstruct log until the session's own output prunes it.
//!
//! What a *verdict* reads is kept across sessions instead: `D_i`, the
//! session order, and per broadcaster the completed sessions that still
//! hold an expectation on it (`debt`).

use std::collections::BTreeSet;

use sba_field::Field;
use sba_net::{FastMap, MwId, Pid, SvssId};

pub use sba_net::SessionKey;

/// What to do with an incoming message, per the DMM rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Sender is in `D_i`: drop the message permanently (rule 4).
    Discard,
    /// An earlier-session expectation on the sender is outstanding:
    /// buffer the message and retry later (rule 5).
    Delay,
    /// Pass the message to the VSS protocol (rule 5, final clause).
    Act,
}

// `SessionKey` (a VSS session for the purposes of the `→_i` order —
// either one MW-SVSS invocation or one enclosing SVSS session) moved to
// `sba-net` with the flat wire format; re-exported above for source
// compatibility.

/// What one MW session holds about one broadcaster.
#[derive(Clone, Copy, Debug)]
struct Row<F> {
    /// The `DEAL_i` expectation — the value of `f_me` at the broadcaster
    /// — when `has_deal` says one stands.
    deal: F,
    has_deal: bool,
    /// Outstanding expectations of this session (ACK and DEAL) naming
    /// the broadcaster.
    open: u32,
}

/// A session's two `n × n` tables. A cell `(b − 1)·n + (l − 1)` is about
/// broadcaster `b` and polynomial `l`.
#[derive(Clone, Debug, Default)]
struct Cells<F> {
    /// `ACK_i` cells, written by the session's dealer only. Empty until
    /// the first registration.
    ack: Vec<Option<F>>,
    /// The reconstruct broadcasts seen, by cell. Expectations registered
    /// *after* a broadcast arrived are checked against this log, making
    /// rules 2 and 3 order-independent. Empty until the first logged
    /// broadcast.
    log: Vec<Option<F>>,
}

/// One MW session's part of `ACK_i` and `DEAL_i`, and its reconstruct
/// log.
#[derive(Clone, Debug)]
struct Session<F> {
    /// Indexed by broadcaster (`pid − 1`).
    rows: Vec<Row<F>>,
    /// Only at the session's dealer or while broadcasts are logged.
    cells: Option<Box<Cells<F>>>,
    /// Expectations in `rows` and `cells.ack`.
    outstanding: u32,
    /// Entries in `cells.log`.
    logged: u32,
}

impl<F: Field> Session<F> {
    fn new(n: usize) -> Self {
        let row = Row {
            deal: F::ZERO,
            has_deal: false,
            open: 0,
        };
        Session {
            rows: vec![row; n],
            cells: None,
            outstanding: 0,
            logged: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.outstanding == 0 && self.logged == 0
    }
}

/// Records that completed session `mw` no longer holds anything on
/// `broadcaster`.
fn clear_debt(debt: &mut FastMap<Pid, FastMap<MwId, u64>>, broadcaster: Pid, mw: MwId) {
    if let Some(d) = debt.get_mut(&broadcaster) {
        d.remove(&mw);
        if d.is_empty() {
            debt.remove(&broadcaster);
        }
    }
}

/// The per-process DMM state.
#[derive(Clone, Debug)]
pub struct Dmm<F> {
    me: Pid,
    n: usize,
    /// When false, detection and filtering are inert (experiment E8's
    /// ablation): no process is ever detected, delayed, or discarded.
    enabled: bool,
    /// `D_i`: known-faulty processes.
    d: BTreeSet<Pid>,
    /// Every MW session that currently holds an expectation or a logged
    /// broadcast.
    sessions: FastMap<MwId, Session<F>>,
    /// `|ACK_i|`, `|DEAL_i|` and the number of logged broadcasts, summed
    /// over `sessions`.
    acks: usize,
    deals: usize,
    logged: usize,
    /// Logical clock for the `→_i` order.
    epoch: u64,
    started: FastMap<SessionKey, u64>,
    completed: FastMap<SessionKey, u64>,
    /// For each broadcaster: sessions that *completed* with expectations
    /// still open (the only ones that can delay), with completion epoch —
    /// the index that makes the delay rule O(per-sender debt) per message.
    debt: FastMap<Pid, FastMap<MwId, u64>>,
    /// Bumped whenever a verdict could change (tuple resolved, `D_i`
    /// grown, session order extended); lets callers skip re-filtering
    /// buffered messages when nothing moved.
    version: u64,
    /// Processes newly added to `D_i`, with the session that exposed them;
    /// drained by the engine for shun-event reporting.
    new_shuns: Vec<(Pid, SvssId)>,
}

impl<F: Field> Dmm<F> {
    /// Creates the DMM for process `me` in a system of `n` processes.
    pub fn new(me: Pid, n: usize) -> Self {
        Dmm {
            me,
            n,
            enabled: true,
            d: BTreeSet::new(),
            sessions: FastMap::default(),
            acks: 0,
            deals: 0,
            logged: 0,
            epoch: 0,
            started: FastMap::default(),
            completed: FastMap::default(),
            debt: FastMap::default(),
            version: 0,
            new_shuns: Vec::new(),
        }
    }

    /// Monotone counter bumped whenever any verdict could have changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The cell about `broadcaster` and `poly` (in row `cell / n`), if
    /// both are among the `n` processes.
    fn cell(&self, broadcaster: Pid, poly: Pid) -> Option<usize> {
        let row = |p: Pid| (p.index() as usize <= self.n).then(|| p.index() as usize - 1);
        Some(row(broadcaster)? * self.n + row(poly)?)
    }

    /// Whether `p` is in `D_i`.
    pub fn is_detected(&self, p: Pid) -> bool {
        self.d.contains(&p)
    }

    /// Outstanding expectation counts `(|ACK_i|, |DEAL_i|)` (for tests and
    /// liveness assertions).
    pub fn expectation_counts(&self) -> (usize, usize) {
        (self.acks, self.deals)
    }

    /// Drains newly detected processes (with the session that exposed them).
    pub fn take_new_shuns(&mut self) -> Vec<(Pid, SvssId)> {
        std::mem::take(&mut self.new_shuns)
    }

    /// Records that this process began participating in `session`'s share
    /// protocol. Idempotent.
    pub fn session_started(&mut self, session: SessionKey) {
        if !self.started.contains_key(&session) {
            self.epoch += 1;
            self.started.insert(session, self.epoch);
            self.version += 1;
        }
    }

    /// Records that this process completed `session`'s reconstruct
    /// protocol. Idempotent.
    pub fn session_completed(&mut self, session: SessionKey) {
        if !self.completed.contains_key(&session) {
            self.epoch += 1;
            self.completed.insert(session, self.epoch);
            self.version += 1;
            // Any still-open expectations of this session become debt.
            let SessionKey::Mw(mw) = session else {
                return;
            };
            let Some(s) = self.sessions.get(&mw) else {
                return;
            };
            for (row, broadcaster) in s.rows.iter().zip(Pid::all(self.n)) {
                if row.open > 0 {
                    self.debt
                        .entry(broadcaster)
                        .or_default()
                        .insert(mw, self.epoch);
                }
            }
        }
    }

    /// Disables detection and filtering (ablation experiments only).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    fn shun(&mut self, p: Pid, session: SvssId) {
        if !self.enabled {
            return;
        }
        if p != self.me && self.d.insert(p) {
            self.new_shuns.push((p, session));
            self.version += 1;
        }
    }

    /// Registers the expectation that `broadcaster` RBs `expected` for
    /// `cell` in `mw`'s reconstruct; `put` stores it in the session
    /// record and returns the one it replaced. If that broadcast already
    /// arrived, the check is applied immediately. Returns whether a new
    /// expectation now stands (registering the same one again only
    /// replaces its value).
    fn register(
        &mut self,
        mw: MwId,
        broadcaster: Pid,
        cell: usize,
        expected: F,
        put: impl FnOnce(&mut Session<F>, F) -> Option<F>,
    ) -> bool {
        let seen = self
            .sessions
            .get(&mw)
            .and_then(|s| *s.cells.as_ref()?.log.get(cell)?);
        if let Some(value) = seen {
            if value != expected {
                self.shun(broadcaster, mw.parent());
            }
            return false;
        }
        let n = self.n;
        let s = self.sessions.entry(mw).or_insert_with(|| Session::new(n));
        if put(s, expected).is_some() {
            return false;
        }
        s.rows[cell / n].open += 1;
        s.outstanding += 1;
        if let Some(&epoch) = self.completed.get(&SessionKey::Mw(mw)) {
            self.debt.entry(broadcaster).or_default().insert(mw, epoch);
        }
        true
    }

    /// Registers a dealer-side expectation (share step 7): `broadcaster`
    /// must RB `f_poly(broadcaster) = expected` during `mw`'s reconstruct.
    ///
    /// If that broadcast already arrived, the check is applied immediately.
    /// An expectation naming a process outside `1..=n` is vacuous (no such
    /// broadcast is ever delivered) and is not kept.
    pub fn register_ack(&mut self, mw: MwId, broadcaster: Pid, poly: Pid, expected: F) {
        let Some(cell) = self.cell(broadcaster, poly) else {
            return;
        };
        let cells = self.n * self.n;
        let fresh = self.register(mw, broadcaster, cell, expected, |s, x| {
            let ack = &mut s.cells.get_or_insert_with(Default::default).ack;
            ack.resize(cells, None);
            ack[cell].replace(x)
        });
        self.acks += usize::from(fresh);
    }

    /// Registers a monitor-side expectation (share step 3): `broadcaster`
    /// must RB `f_me(broadcaster) = expected` during `mw`'s reconstruct.
    /// The notes on [`Dmm::register_ack`] apply.
    pub fn register_deal(&mut self, mw: MwId, broadcaster: Pid, expected: F) {
        let Some(cell) = self.cell(broadcaster, self.me) else {
            return;
        };
        let b = cell / self.n;
        let fresh = self.register(mw, broadcaster, cell, expected, |s, x| {
            let row = &mut s.rows[b];
            let old = row.has_deal.then_some(row.deal);
            (row.deal, row.has_deal) = (x, true);
            old
        });
        self.deals += usize::from(fresh);
    }

    /// Drops the reconstruct-broadcast log of one MW session. Safe once
    /// the session produced its local output: no new expectations can be
    /// registered after the share phase, so the log (which only exists to
    /// check *late-registered* expectations against *earlier* broadcasts)
    /// is dead weight from then on. Late broadcasts still match live
    /// tuples directly.
    pub fn prune_recon_log(&mut self, mw: MwId) {
        let Some(s) = self.sessions.get_mut(&mw) else {
            return;
        };
        self.logged -= s.logged as usize;
        s.logged = 0;
        s.cells.take_if(|c| c.ack.is_empty());
        if let Some(cells) = &mut s.cells {
            cells.log = Vec::new();
        }
        if s.is_empty() {
            self.sessions.remove(&mw);
        }
    }

    /// Number of retained reconstruct-log entries (memory accounting).
    pub fn recon_log_len(&self) -> usize {
        self.logged
    }

    /// Drops all `DEAL` expectations for session `mw` (share step 8: this
    /// process is not in `M̂`, so nobody will broadcast its polynomial).
    pub fn drop_deal_entries(&mut self, mw: MwId) {
        let Some(s) = self.sessions.get_mut(&mw) else {
            return;
        };
        for (row, broadcaster) in s.rows.iter_mut().zip(Pid::all(self.n)) {
            if std::mem::take(&mut row.has_deal) {
                self.deals -= 1;
                s.outstanding -= 1;
                row.open -= 1;
                if row.open == 0 {
                    clear_debt(&mut self.debt, broadcaster, mw);
                    self.version += 1;
                }
            }
        }
        if s.is_empty() {
            self.sessions.remove(&mw);
        }
    }

    /// Observes a reconstruct broadcast: `origin` RB'd "`f_poly(origin) =
    /// value`" in session `mw`. Applies DMM rules 2 and 3 (match → remove
    /// expectation; mismatch → `D_i`).
    ///
    /// Must be called for **every** such delivery, before the verdict
    /// check — detection is unconditional. `log` should be false once the
    /// session already produced its local output (no new expectations can
    /// appear, so remembering the broadcast would be dead weight).
    pub fn observe_recon(&mut self, mw: MwId, origin: Pid, poly: Pid, value: F, log: bool) {
        // A broadcast naming a process outside `1..=n` matches no
        // expectation, present or future.
        let Some(cell) = self.cell(origin, poly) else {
            return;
        };
        let b = cell / self.n;
        let s = if log {
            let n = self.n;
            self.sessions.entry(mw).or_insert_with(|| Session::new(n))
        } else {
            match self.sessions.get_mut(&mw) {
                Some(s) => s,
                None => return,
            }
        };
        if log {
            let cells = self.n * self.n;
            let log = &mut s.cells.get_or_insert_with(Default::default).log;
            log.resize(cells, None);
            // First delivery per slot wins; RB guarantees all nonfaulty see
            // the same one.
            if log[cell].is_none() {
                log[cell] = Some(value);
                s.logged += 1;
                self.logged += 1;
            }
        }
        let mut resolved = 0;
        let mut contradicted = false;
        // Rules 2 and 3 on one expectation: the expected value clears
        // it, any other is evidence against the broadcaster.
        let mut check = |expectation: &mut Option<F>, total: &mut usize| match *expectation {
            Some(expected) if expected == value => {
                *expectation = None;
                *total -= 1;
                resolved += 1;
            }
            Some(_) => contradicted = true,
            None => {}
        };
        if self.me == mw.dealer() {
            if let Some(expectation) = s.cells.as_mut().and_then(|c| c.ack.get_mut(cell)) {
                check(expectation, &mut self.acks);
            }
        }
        if poly == self.me {
            let row = &mut s.rows[b];
            let mut deal = row.has_deal.then_some(row.deal);
            check(&mut deal, &mut self.deals);
            row.has_deal = deal.is_some();
        }
        if resolved > 0 {
            s.outstanding -= resolved;
            s.rows[b].open -= resolved;
            if s.rows[b].open == 0 {
                clear_debt(&mut self.debt, origin, mw);
                self.version += 1;
            }
        }
        if s.is_empty() {
            self.sessions.remove(&mw);
        }
        if contradicted {
            self.shun(origin, mw.parent());
        }
    }

    /// The filter (rules 4 and 5): what to do with a message from `sender`
    /// belonging to `session`.
    pub fn verdict(&self, sender: Pid, session: SessionKey) -> Verdict {
        if !self.enabled {
            return Verdict::Act;
        }
        if self.d.contains(&sender) {
            return Verdict::Discard;
        }
        // Only sessions that completed with open expectations can delay;
        // those are exactly the sender's debt entries.
        let Some(debts) = self.debt.get(&sender) else {
            return Verdict::Act;
        };
        let Some(&started) = self.started.get(&session) else {
            return Verdict::Act;
        };
        if debts.values().any(|&completed| completed < started) {
            Verdict::Delay
        } else {
            Verdict::Act
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sba_field::Gf61;

    fn f(v: u64) -> Gf61 {
        Gf61::from_u64(v)
    }

    fn session(tag: u64, dealer: u32) -> SvssId {
        SvssId::new(tag, Pid::new(dealer))
    }

    fn mw(parent: SvssId) -> MwId {
        MwId::nested(parent, Pid::new(1), Pid::new(2), Pid::new(1), Pid::new(2))
    }

    impl<F: Field> Dmm<F> {
        /// The `→_i` order: `a` precedes `b` iff this process completed
        /// `a`'s reconstruct before starting `b`'s share.
        fn precedes(&self, a: SessionKey, b: SessionKey) -> bool {
            match (self.completed.get(&a), self.started.get(&b)) {
                (Some(ca), Some(sb)) => ca < sb,
                _ => false,
            }
        }
    }

    #[test]
    fn matching_broadcast_clears_expectation() {
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4); // me == dealer of m
        dmm.register_ack(m, Pid::new(3), Pid::new(2), f(7));
        assert_eq!(dmm.expectation_counts(), (1, 0));
        dmm.observe_recon(m, Pid::new(3), Pid::new(2), f(7), true);
        assert_eq!(dmm.expectation_counts(), (0, 0));
        assert!(!dmm.is_detected(Pid::new(3)));
    }

    #[test]
    fn mismatched_broadcast_detects_faulty() {
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.register_ack(m, Pid::new(3), Pid::new(2), f(7));
        dmm.observe_recon(m, Pid::new(3), Pid::new(2), f(8), true);
        assert!(dmm.is_detected(Pid::new(3)));
        assert_eq!(
            dmm.verdict(Pid::new(3), SessionKey::Svss(session(2, 2))),
            Verdict::Discard
        );
        let shuns = dmm.take_new_shuns();
        assert_eq!(shuns, vec![(Pid::new(3), s)]);
        assert!(dmm.take_new_shuns().is_empty(), "shun reported once");
    }

    #[test]
    fn expectation_after_broadcast_still_checked() {
        // Rule 2/3 must be order-independent: the broadcast can arrive
        // before the dealer registers its expectation.
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.observe_recon(m, Pid::new(3), Pid::new(2), f(9), true);
        dmm.register_ack(m, Pid::new(3), Pid::new(2), f(7)); // mismatch
        assert!(dmm.is_detected(Pid::new(3)));

        let mut dmm2: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm2.observe_recon(m, Pid::new(3), Pid::new(2), f(7), true);
        dmm2.register_ack(m, Pid::new(3), Pid::new(2), f(7)); // match
        assert!(!dmm2.is_detected(Pid::new(3)));
        assert_eq!(dmm2.expectation_counts(), (0, 0));
    }

    #[test]
    fn deal_expectations_keyed_on_my_polynomial() {
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(4), 4); // me = monitor p4
        dmm.register_deal(m, Pid::new(2), f(5));
        // A broadcast about someone else's polynomial must not match.
        dmm.observe_recon(m, Pid::new(2), Pid::new(3), f(99), true);
        assert_eq!(dmm.expectation_counts(), (0, 1));
        // The broadcast about my polynomial with the right value clears it.
        dmm.observe_recon(m, Pid::new(2), Pid::new(4), f(5), true);
        assert_eq!(dmm.expectation_counts(), (0, 0));
    }

    #[test]
    fn delay_applies_only_to_later_sessions() {
        let s1 = session(1, 1);
        let s2 = session(2, 2);
        let s3 = session(3, 3);
        let m1 = mw(s1);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.session_started(SessionKey::Mw(m1));
        dmm.register_ack(m1, Pid::new(3), Pid::new(2), f(7));
        // The MW invocation's reconstruct completes with the expectation
        // still open (that is the shunning scenario).
        dmm.session_completed(SessionKey::Mw(m1));
        dmm.session_started(SessionKey::Svss(s2));
        // m1 →me s2, expectation from m1 outstanding on p3: delay p3 in s2.
        assert_eq!(
            dmm.verdict(Pid::new(3), SessionKey::Svss(s2)),
            Verdict::Delay
        );
        // Other senders unaffected.
        assert_eq!(dmm.verdict(Pid::new(2), SessionKey::Svss(s2)), Verdict::Act);
        // Sessions not ordered after m1 are unaffected (s3 never started).
        assert_eq!(dmm.verdict(Pid::new(3), SessionKey::Svss(s3)), Verdict::Act);
        // m1 itself: not ordered after itself.
        assert_eq!(dmm.verdict(Pid::new(3), SessionKey::Mw(m1)), Verdict::Act);
        // Once the expectation resolves, the delay lifts.
        dmm.observe_recon(m1, Pid::new(3), Pid::new(2), f(7), true);
        assert_eq!(dmm.verdict(Pid::new(3), SessionKey::Svss(s2)), Verdict::Act);
    }

    /// The round-2 liveness regression behind the SessionKey design: a
    /// never-reconstructed MW invocation leaves expectations open forever,
    /// and they must NOT delay later sessions.
    #[test]
    fn unreconstructed_mw_session_never_blocks() {
        let s1 = session(1, 1);
        let m1 = mw(s1);
        let s2 = session(2, 1);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.session_started(SessionKey::Mw(m1));
        dmm.register_ack(m1, Pid::new(3), Pid::new(2), f(7));
        // The enclosing SVSS session completes, but m1's own reconstruct
        // was never invoked (its pair fell outside Ĝ).
        dmm.session_started(SessionKey::Svss(s1));
        dmm.session_completed(SessionKey::Svss(s1));
        dmm.session_started(SessionKey::Svss(s2));
        assert_eq!(dmm.verdict(Pid::new(3), SessionKey::Svss(s2)), Verdict::Act);
    }

    #[test]
    fn step8_drops_deal_entries() {
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(4), 4);
        dmm.register_deal(m, Pid::new(2), f(5));
        dmm.register_deal(m, Pid::new(3), f(6));
        let other = mw(session(9, 1));
        dmm.register_deal(other, Pid::new(2), f(1));
        dmm.drop_deal_entries(m);
        assert_eq!(dmm.expectation_counts(), (0, 1));
    }

    #[test]
    fn ordering_is_completed_before_started() {
        let s1 = session(1, 1);
        let s2 = session(2, 2);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.session_started(SessionKey::Svss(s1));
        dmm.session_started(SessionKey::Svss(s2)); // concurrent
        dmm.session_completed(SessionKey::Svss(s1));
        assert!(
            !dmm.precedes(SessionKey::Svss(s1), SessionKey::Svss(s2)),
            "s2 started before s1 completed"
        );
        let s3 = session(3, 3);
        dmm.session_started(SessionKey::Svss(s3));
        assert!(dmm.precedes(SessionKey::Svss(s1), SessionKey::Svss(s3)));
        assert!(!dmm.precedes(SessionKey::Svss(s3), SessionKey::Svss(s1)));
        // Idempotence: re-registering must not bump epochs.
        dmm.session_started(SessionKey::Svss(s3));
        dmm.session_completed(SessionKey::Svss(s1));
        assert!(dmm.precedes(SessionKey::Svss(s1), SessionKey::Svss(s3)));
    }

    #[test]
    fn never_shuns_self() {
        let s = session(1, 1);
        let m = mw(s);
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(3), 4);
        // An inconsistent dealer could try to frame us; self-shun is a bug.
        dmm.register_deal(m, Pid::new(3), f(1));
        dmm.observe_recon(m, Pid::new(3), Pid::new(3), f(2), true);
        assert!(!dmm.is_detected(Pid::new(3)));
    }

    /// Processes that do not exist cannot be expected to broadcast and
    /// their broadcasts match nothing: all of it is ignored, none of it
    /// indexes a row.
    #[test]
    fn pids_outside_the_system_are_ignored() {
        let m = mw(session(1, 1));
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        for outsider in [Pid::new(5), Pid::new(100_000)] {
            dmm.register_ack(m, outsider, Pid::new(2), f(1));
            dmm.register_ack(m, Pid::new(2), outsider, f(1));
            dmm.register_deal(m, outsider, f(1));
            dmm.observe_recon(m, outsider, Pid::new(2), f(1), true);
            dmm.observe_recon(m, Pid::new(2), outsider, f(1), true);
        }
        assert_eq!(dmm.expectation_counts(), (0, 0));
        assert_eq!(dmm.recon_log_len(), 0);
        assert!(dmm.d.is_empty());
    }

    /// Registering the same expectation again replaces its value and
    /// opens nothing new: one matching broadcast settles it.
    #[test]
    fn repeated_registration_is_one_expectation() {
        let m = mw(session(1, 1));
        let s2 = SessionKey::Svss(session(2, 2));
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(1), 4);
        dmm.register_ack(m, Pid::new(3), Pid::new(2), f(7));
        dmm.register_ack(m, Pid::new(3), Pid::new(2), f(8));
        assert_eq!(dmm.expectation_counts(), (1, 0));
        dmm.session_completed(SessionKey::Mw(m));
        dmm.session_started(s2);
        assert_eq!(dmm.verdict(Pid::new(3), s2), Verdict::Delay);
        dmm.observe_recon(m, Pid::new(3), Pid::new(2), f(8), false);
        assert_eq!(dmm.expectation_counts(), (0, 0));
        assert_eq!(dmm.verdict(Pid::new(3), s2), Verdict::Act);
    }

    /// Scaling guard: what one session's step-8 drop, completion and log
    /// prune cost must not depend on how many other sessions hold
    /// expectations. With run-wide tables each of the 20 000 rounds
    /// below scanned all 140 000 entries (~10⁹–10¹⁰ steps); with
    /// per-session records the whole test is ~10⁵ steps.
    #[test]
    fn per_session_cost_is_independent_of_other_sessions() {
        const SESSIONS: u64 = 20_000;
        let n = 7;
        let started = std::time::Instant::now();
        let mut dmm: Dmm<Gf61> = Dmm::new(Pid::new(4), n);
        let ids: Vec<MwId> = (0..SESSIONS).map(|tag| mw(session(tag, 1))).collect();
        for &m in &ids {
            for b in Pid::all(n) {
                dmm.register_deal(m, b, f(5));
            }
        }
        assert_eq!(dmm.expectation_counts(), (0, SESSIONS as usize * n));
        for &m in &ids {
            dmm.drop_deal_entries(m);
            dmm.session_completed(SessionKey::Mw(m));
            dmm.prune_recon_log(m);
        }
        assert_eq!(dmm.expectation_counts(), (0, 0));
        assert!(dmm.sessions.is_empty(), "emptied records are removed");
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "took {elapsed:?}"
        );
    }

    /// The DMM as it was before the per-session records: five run-wide
    /// tables keyed by `(MwId, …)`, three of them scanned in full by
    /// `drop_deal_entries`, `prune_recon_log` and `session_completed`.
    /// Kept verbatim as the reference model for
    /// `session_records_match_flat_tables`.
    mod flat {
        use super::super::{SessionKey, Verdict};
        use sba_field::Field;
        use sba_net::{FastMap, MwId, Pid, SvssId};
        use std::collections::BTreeSet;

        pub struct FlatDmm<F> {
            me: Pid,
            d: BTreeSet<Pid>,
            ack: FastMap<(MwId, Pid, Pid), F>,
            deal: FastMap<(MwId, Pid), F>,
            epoch: u64,
            started: FastMap<SessionKey, u64>,
            completed: FastMap<SessionKey, u64>,
            recon_log: FastMap<(MwId, Pid, Pid), F>,
            open: FastMap<(MwId, Pid), usize>,
            debt: FastMap<Pid, FastMap<MwId, u64>>,
            new_shuns: Vec<(Pid, SvssId)>,
        }

        impl<F: Field> FlatDmm<F> {
            pub fn new(me: Pid) -> Self {
                FlatDmm {
                    me,
                    d: BTreeSet::new(),
                    ack: FastMap::default(),
                    deal: FastMap::default(),
                    epoch: 0,
                    started: FastMap::default(),
                    completed: FastMap::default(),
                    recon_log: FastMap::default(),
                    open: FastMap::default(),
                    debt: FastMap::default(),
                    new_shuns: Vec::new(),
                }
            }

            fn open_inc(&mut self, mw: MwId, broadcaster: Pid) {
                *self.open.entry((mw, broadcaster)).or_insert(0) += 1;
                if let Some(&epoch) = self.completed.get(&SessionKey::Mw(mw)) {
                    self.debt.entry(broadcaster).or_default().insert(mw, epoch);
                }
            }

            fn open_dec(&mut self, mw: MwId, broadcaster: Pid, by: usize) {
                let remove = match self.open.get_mut(&(mw, broadcaster)) {
                    Some(c) => {
                        *c = c.saturating_sub(by);
                        *c == 0
                    }
                    None => false,
                };
                if remove {
                    self.open.remove(&(mw, broadcaster));
                    if let Some(d) = self.debt.get_mut(&broadcaster) {
                        d.remove(&mw);
                        if d.is_empty() {
                            self.debt.remove(&broadcaster);
                        }
                    }
                }
            }

            pub fn detected(&self) -> impl Iterator<Item = Pid> + '_ {
                self.d.iter().copied()
            }

            pub fn expectation_counts(&self) -> (usize, usize) {
                (self.ack.len(), self.deal.len())
            }

            pub fn take_new_shuns(&mut self) -> Vec<(Pid, SvssId)> {
                std::mem::take(&mut self.new_shuns)
            }

            pub fn session_started(&mut self, session: SessionKey) {
                if !self.started.contains_key(&session) {
                    self.epoch += 1;
                    self.started.insert(session, self.epoch);
                }
            }

            pub fn session_completed(&mut self, session: SessionKey) {
                if !self.completed.contains_key(&session) {
                    self.epoch += 1;
                    self.completed.insert(session, self.epoch);
                    if let SessionKey::Mw(mw) = session {
                        let epoch = self.epoch;
                        let debtors: Vec<Pid> = self
                            .open
                            .keys()
                            .filter(|&&(m, _)| m == mw)
                            .map(|&(_, b)| b)
                            .collect();
                        for b in debtors {
                            self.debt.entry(b).or_default().insert(mw, epoch);
                        }
                    }
                }
            }

            fn shun(&mut self, p: Pid, session: SvssId) {
                if p != self.me && self.d.insert(p) {
                    self.new_shuns.push((p, session));
                }
            }

            pub fn register_ack(&mut self, mw: MwId, broadcaster: Pid, poly: Pid, expected: F) {
                match self.recon_log.get(&(mw, broadcaster, poly)) {
                    Some(&v) if v == expected => {}
                    Some(_) => self.shun(broadcaster, mw.parent()),
                    None => {
                        self.ack.insert((mw, broadcaster, poly), expected);
                        self.open_inc(mw, broadcaster);
                    }
                }
            }

            pub fn register_deal(&mut self, mw: MwId, broadcaster: Pid, expected: F) {
                match self.recon_log.get(&(mw, broadcaster, self.me)) {
                    Some(&v) if v == expected => {}
                    Some(_) => self.shun(broadcaster, mw.parent()),
                    None => {
                        self.deal.insert((mw, broadcaster), expected);
                        self.open_inc(mw, broadcaster);
                    }
                }
            }

            pub fn prune_recon_log(&mut self, mw: MwId) {
                self.recon_log.retain(|&(m, _, _), _| m != mw);
            }

            pub fn recon_log_len(&self) -> usize {
                self.recon_log.len()
            }

            pub fn drop_deal_entries(&mut self, mw: MwId) {
                let dropped: Vec<Pid> = self
                    .deal
                    .keys()
                    .filter(|&&(m, _)| m == mw)
                    .map(|&(_, b)| b)
                    .collect();
                self.deal.retain(|&(m, _), _| m != mw);
                for b in dropped {
                    self.open_dec(mw, b, 1);
                }
            }

            pub fn observe_recon(&mut self, mw: MwId, origin: Pid, poly: Pid, value: F, log: bool) {
                if log {
                    self.recon_log.entry((mw, origin, poly)).or_insert(value);
                }
                if self.me == mw.dealer() {
                    if let Some(&expected) = self.ack.get(&(mw, origin, poly)) {
                        if expected == value {
                            self.ack.remove(&(mw, origin, poly));
                            self.open_dec(mw, origin, 1);
                        } else {
                            self.shun(origin, mw.parent());
                        }
                    }
                }
                if poly == self.me {
                    if let Some(&expected) = self.deal.get(&(mw, origin)) {
                        if expected == value {
                            self.deal.remove(&(mw, origin));
                            self.open_dec(mw, origin, 1);
                        } else {
                            self.shun(origin, mw.parent());
                        }
                    }
                }
            }

            pub fn verdict(&self, sender: Pid, session: SessionKey) -> Verdict {
                if self.d.contains(&sender) {
                    return Verdict::Discard;
                }
                let Some(debts) = self.debt.get(&sender) else {
                    return Verdict::Act;
                };
                let Some(&started) = self.started.get(&session) else {
                    return Verdict::Act;
                };
                if debts.values().any(|&completed| completed < started) {
                    Verdict::Delay
                } else {
                    Verdict::Act
                }
            }
        }
    }

    proptest! {
        /// Random interleavings of every DMM operation over four MW
        /// sessions (two dealt by this process) and an SVSS session:
        /// after every step the per-session records agree with the old
        /// run-wide tables on everything a caller can observe. Values are
        /// drawn from {0, 1, 2} so that matches, contradictions,
        /// broadcasts before their expectation and late registrations
        /// all occur; an expectation is registered once, as the MW
        /// machines do (the old tables leaked an open count otherwise).
        #[test]
        fn session_records_match_flat_tables(
            me in 1u32..=4,
            ops in proptest::collection::vec(
                (0u8..7, 0usize..4, 1u32..=4, 1u32..=4, 0u64..3, 0u8..2),
                0..120,
            ),
        ) {
            let n = 4;
            let me = Pid::new(me);
            let parent = session(1, 1);
            let mws: Vec<MwId> = [(1, 2), (1, 3), (2, 1), (3, 4)]
                .iter()
                .map(|&(d, m)| {
                    MwId::nested(parent, Pid::new(d), Pid::new(m), Pid::new(d), Pid::new(m))
                })
                .collect();
            let mut keys: Vec<SessionKey> = mws.iter().map(|&m| SessionKey::Mw(m)).collect();
            keys.push(SessionKey::Svss(parent));
            let mut new: Dmm<Gf61> = Dmm::new(me, n);
            let mut old: flat::FlatDmm<Gf61> = flat::FlatDmm::new(me);
            let mut registered = BTreeSet::new();
            for (op, which, a, b, v, flag) in ops {
                let (m, a, b, v) = (mws[which], Pid::new(a), Pid::new(b), f(v));
                let key = keys[(which + usize::from(flag)) % keys.len()];
                match op {
                    0 if registered.insert((m, a, Some(b))) => {
                        new.register_ack(m, a, b, v);
                        old.register_ack(m, a, b, v);
                    }
                    1 if registered.insert((m, a, None)) => {
                        new.register_deal(m, a, v);
                        old.register_deal(m, a, v);
                    }
                    2 => {
                        new.observe_recon(m, a, b, v, flag == 0);
                        old.observe_recon(m, a, b, v, flag == 0);
                    }
                    3 => {
                        new.drop_deal_entries(m);
                        old.drop_deal_entries(m);
                    }
                    4 => {
                        new.prune_recon_log(m);
                        old.prune_recon_log(m);
                    }
                    5 => {
                        new.session_started(key);
                        old.session_started(key);
                    }
                    6 => {
                        new.session_completed(key);
                        old.session_completed(key);
                    }
                    _ => {}
                }
                for sender in Pid::all(n) {
                    for &k in &keys {
                        prop_assert_eq!(new.verdict(sender, k), old.verdict(sender, k));
                    }
                }
                prop_assert_eq!(
                    new.d.iter().copied().collect::<Vec<_>>(),
                    old.detected().collect::<Vec<_>>()
                );
                prop_assert_eq!(new.take_new_shuns(), old.take_new_shuns());
                prop_assert_eq!(new.expectation_counts(), old.expectation_counts());
                prop_assert_eq!(new.recon_log_len(), old.recon_log_len());
            }
        }
    }
}
