//! SVSS: shunning verifiable secret sharing (paper §4).
//!
//! The dealer shares a degree-`t` bivariate polynomial `f(x, y)` with
//! `f(0,0) = s`. Process `j` holds the row `g_j(y) = f(j, y)` and column
//! `h_j(x) = f(x, j)`, and every unordered pair `{j, l}` commits to the
//! matrix entries `f(l, j)` and `f(j, l)` through **four** MW-SVSS
//! invocations (each of `j`, `l` acting once as dealer and once as
//! moderator for each entry). Reconstruction stitches rows and columns
//! back together, ignoring processes whose entries are inconsistent.
//!
//! The [`Svss`] machine holds per-session state; MW-SVSS sub-machines are
//! owned by the engine and exposed to this machine read-only through
//! [`SvssCtx`] (share completion and outputs, read from the engine's MW
//! session table), which makes the conditions here monotone
//! re-evaluations, immune to event ordering.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sba_field::{BiPoly, Domain, Field, Poly};
use sba_net::{MwId, Pid, ProcessSet, Slot, SvssId};

use crate::engine::MwTable;
use crate::{Reconstructed, SvssPriv, SvssRbValue, SvssSlot};

/// The four MW-SVSS invocations of the unordered pair `{a, b}` inside
/// `parent` (paper §4 step 2): each of `a`, `b` deals both matrix entries
/// `f(b, a)` and `f(a, b)` with the other moderating.
pub fn pair_mw_ids(parent: SvssId, a: Pid, b: Pid) -> [MwId; 4] {
    [
        MwId::nested(parent, a, b, b, a), // dealer a, entry f(b, a)
        MwId::nested(parent, a, b, a, b), // dealer a, entry f(a, b)
        MwId::nested(parent, b, a, b, a), // dealer b, entry f(b, a)
        MwId::nested(parent, b, a, a, b), // dealer b, entry f(a, b)
    ]
}

/// Read-only view of MW-SVSS progress, provided by the engine: both
/// answers come from its one MW session table, where a live session
/// holds its share-completed flag and a finished one its record.
pub struct SvssCtx<'a, F: Field> {
    pub(crate) mws: &'a MwTable<F>,
}

impl<F: Field> SvssCtx<'_, F> {
    /// Whether MW session `id`'s share protocol completed at this
    /// process.
    pub fn mw_completed(&self, id: MwId) -> bool {
        match self.mws.probe(&id) {
            Some(Slot::Live(idx)) => self.mws.live(idx).completed,
            Some(Slot::Retired(idx)) => self.mws.retired(idx).completed,
            None => false,
        }
    }

    /// MW session `id`'s reconstruct output at this process, if any.
    pub fn mw_output(&self, id: MwId) -> Option<Reconstructed<F>> {
        match self.mws.probe(&id)? {
            Slot::Retired(idx) => Some(self.mws.retired(idx).output),
            Slot::Live(_) => None,
        }
    }
}

/// Outputs of the SVSS state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SvssOut<F> {
    /// Send a private message.
    Send(Pid, SvssPriv<F>),
    /// Reliably broadcast `value` in `slot`.
    Broadcast(SvssSlot, SvssRbValue<F>),
    /// Start an MW-SVSS share as dealer with the given secret.
    StartMwShare {
        /// The sub-invocation.
        mw: MwId,
        /// The matrix entry to commit.
        secret: F,
    },
    /// Provide the moderator input `s′` to an MW-SVSS sub-invocation.
    SetMwModeratorInput {
        /// The sub-invocation.
        mw: MwId,
        /// The expected entry value.
        value: F,
    },
    /// Begin the reconstruct protocol of an MW-SVSS sub-invocation.
    StartMwReconstruct {
        /// The sub-invocation.
        mw: MwId,
    },
    /// Protocol `S` completed at this process (step 6).
    ShareCompleted,
    /// Protocol `R` produced an output (step 3 of `R`).
    Output(Reconstructed<F>),
}

/// This process's state in one SVSS session.
#[derive(Clone, Debug)]
pub struct Svss<F: Field> {
    id: SvssId,
    me: Pid,
    n: usize,
    t: usize,
    /// Shared per-instance evaluation domain (points `1..=n`).
    domain: Arc<Domain<F>>,

    // Dealer-only.
    started_deal: bool,
    /// Dealer bookkeeping: pairs all four of whose MW shares completed.
    g_sets: BTreeMap<Pid, ProcessSet>,
    g_broadcast: bool,

    // Every process.
    my_row: Option<Poly<F>>,
    my_col: Option<Poly<F>>,
    mw_roles_started: bool,
    g_hat: Option<(ProcessSet, BTreeMap<Pid, ProcessSet>)>,
    share_completed: bool,
    recon_requested: bool,
    recon_started: bool,
    output_emitted: bool,
    output: Option<Reconstructed<F>>,
}

impl<F: Field> Svss<F> {
    /// Creates this process's view of SVSS session `id`. `domain` is the
    /// instance's shared evaluation domain covering the points `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and the domain covers `n` points.
    pub fn new(id: SvssId, me: Pid, n: usize, t: usize, domain: Arc<Domain<F>>) -> Self {
        assert!(n > 3 * t, "SVSS requires n > 3t");
        assert!(domain.n() >= n, "domain must cover all process indices");
        Svss {
            id,
            me,
            n,
            t,
            domain,
            started_deal: false,
            g_sets: BTreeMap::new(),
            g_broadcast: false,
            my_row: None,
            my_col: None,
            mw_roles_started: false,
            g_hat: None,
            share_completed: false,
            recon_requested: false,
            recon_started: false,
            output_emitted: false,
            output: None,
        }
    }

    /// The session id.
    pub fn id(&self) -> SvssId {
        self.id
    }

    /// Whether protocol `S` completed at this process.
    pub fn share_completed(&self) -> bool {
        self.share_completed
    }

    /// The reconstruct output, if any.
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

    /// Dealer command (share step 1): sample the bivariate polynomial and
    /// send each process its row and column.
    ///
    /// # Panics
    ///
    /// Panics if this process is not the dealer or the share started.
    pub fn start_share<R: rand::Rng + ?Sized>(
        &mut self,
        secret: F,
        rng: &mut R,
        ctx: &SvssCtx<'_, F>,
        out: &mut Vec<SvssOut<F>>,
    ) {
        assert_eq!(self.me, self.id.dealer(), "only the dealer shares");
        assert!(!self.started_deal, "share started twice");
        self.started_deal = true;
        let f = BiPoly::random_with_secret(secret, self.t, rng);
        for j in Pid::all(self.n) {
            out.push(SvssOut::Send(
                j,
                SvssPriv::Rows {
                    session: self.id,
                    rows: Box::new(crate::RowsBody {
                        g: f.row(j.as_u64()).coeffs().to_vec(),
                        h: f.col(j.as_u64()).coeffs().to_vec(),
                    }),
                },
            ));
        }
        self.advance(ctx, out);
    }

    /// Command: begin protocol `R`. Starts once the share completes.
    pub fn start_reconstruct(&mut self, ctx: &SvssCtx<'_, F>, out: &mut Vec<SvssOut<F>>) {
        self.recon_requested = true;
        self.advance(ctx, out);
    }

    /// Input: the dealer's `Rows` message (share step 2 trigger).
    pub fn on_rows(
        &mut self,
        from: Pid,
        g: Vec<F>,
        h: Vec<F>,
        ctx: &SvssCtx<'_, F>,
        out: &mut Vec<SvssOut<F>>,
    ) {
        if from != self.id.dealer() || self.my_row.is_some() {
            return;
        }
        if g.len() > self.t + 1 || h.len() > self.t + 1 {
            return; // wrong degree: treat as never sent
        }
        self.my_row = Some(Poly::from_coeffs(g));
        self.my_col = Some(Poly::from_coeffs(h));
        self.start_mw_roles(out);
        self.advance(ctx, out);
    }

    /// Input: the dealer's `G` sets broadcast (share step 5).
    pub fn on_gsets(
        &mut self,
        origin: Pid,
        g: ProcessSet,
        members: Vec<(Pid, ProcessSet)>,
        ctx: &SvssCtx<'_, F>,
        out: &mut Vec<SvssOut<F>>,
    ) {
        if origin != self.id.dealer() || self.g_hat.is_some() {
            return;
        }
        if !self.validate_gsets(&g, &members) {
            return;
        }
        self.g_hat = Some((g, members.into_iter().collect()));
        self.advance(ctx, out);
    }

    fn validate_gsets(&self, g: &ProcessSet, members: &[(Pid, ProcessSet)]) -> bool {
        if g.len() < self.quorum() || members.len() != g.len() {
            return false;
        }
        let keys: ProcessSet = members.iter().map(|&(j, _)| j).collect();
        if keys != *g {
            return false;
        }
        for (j, gj) in members {
            // Canonical form requires self-inclusion (see dealer_track_g).
            if gj.len() < self.quorum() || !gj.contains(*j) {
                return false;
            }
            if gj.iter().any(|l| l.index() as usize > self.n) {
                return false;
            }
        }
        !g.iter().any(|j| j.index() as usize > self.n)
    }

    /// Step 2: upon having rows, take the dealer and moderator roles in
    /// the four invocations per peer.
    fn start_mw_roles(&mut self, out: &mut Vec<SvssOut<F>>) {
        if self.mw_roles_started {
            return;
        }
        self.mw_roles_started = true;
        let row = self.my_row.clone().expect("rows present");
        let col = self.my_col.clone().expect("rows present");
        for l in Pid::all(self.n) {
            if l == self.me {
                continue;
            }
            let h_l = col.eval_at_index(l.as_u64()); // f(l, me)
            let g_l = row.eval_at_index(l.as_u64()); // f(me, l)
            out.push(SvssOut::StartMwShare {
                mw: MwId::nested(self.id, self.me, l, l, self.me),
                secret: h_l,
            });
            out.push(SvssOut::StartMwShare {
                mw: MwId::nested(self.id, self.me, l, self.me, l),
                secret: g_l,
            });
            out.push(SvssOut::SetMwModeratorInput {
                mw: MwId::nested(self.id, l, self.me, l, self.me),
                value: h_l,
            });
            out.push(SvssOut::SetMwModeratorInput {
                mw: MwId::nested(self.id, l, self.me, self.me, l),
                value: g_l,
            });
        }
    }

    /// Monotone re-evaluation of all conditions; the engine calls this
    /// after every relevant MW event.
    pub fn advance(&mut self, ctx: &SvssCtx<'_, F>, out: &mut Vec<SvssOut<F>>) {
        self.dealer_track_g(ctx, out);
        self.check_share_complete(ctx, out);
        self.maybe_start_recon(out);
        self.try_output(ctx, out);
    }

    /// Steps 3–5 (dealer): track pair completions, build `G_j`/`G`, and
    /// broadcast the snapshot at quorum.
    fn dealer_track_g(&mut self, ctx: &SvssCtx<'_, F>, out: &mut Vec<SvssOut<F>>) {
        if self.me != self.id.dealer() || self.g_broadcast || !self.started_deal {
            return;
        }
        for a in Pid::all(self.n) {
            for b in Pid::all(self.n) {
                if b.index() <= a.index() {
                    continue;
                }
                if self.g_sets.get(&a).is_some_and(|s| s.contains(b)) {
                    continue;
                }
                let done = pair_mw_ids(self.id, a, b)
                    .iter()
                    .all(|&id| ctx.mw_completed(id));
                if done {
                    // G_j includes j itself: a process trivially agrees
                    // with its own entries. Without self-inclusion,
                    // |G_j| could never exceed n−t−1 when the t faulty
                    // processes stay silent, and the paper's Validity of
                    // Termination proof ("eventually |G_l| ≥ n−t") could
                    // not go through.
                    let sa = self.g_sets.entry(a).or_default();
                    sa.insert(a);
                    sa.insert(b);
                    let sb = self.g_sets.entry(b).or_default();
                    sb.insert(b);
                    sb.insert(a);
                }
            }
        }
        let quorum = self.quorum();
        let g: ProcessSet = self
            .g_sets
            .iter()
            .filter(|(_, s)| s.len() >= quorum)
            .map(|(&j, _)| j)
            .collect();
        if g.len() >= quorum {
            self.g_broadcast = true;
            let members: Vec<(Pid, ProcessSet)> = g.iter().map(|j| (j, self.g_sets[&j])).collect();
            out.push(SvssOut::Broadcast(
                SvssSlot::gsets(self.id),
                SvssRbValue::Gsets(Box::new(crate::GsetsBody { g, members })),
            ));
        }
    }

    /// The MW invocations required by `Ĝ` (dedup'd across pairs).
    fn required_mw_ids(&self) -> Option<BTreeSet<MwId>> {
        let (g, members) = self.g_hat.as_ref()?;
        let mut ids = BTreeSet::new();
        for j in g.iter() {
            for l in members[&j].iter() {
                if l == j {
                    continue; // self-entry: no MW sessions of a pair {j, j}
                }
                for id in pair_mw_ids(self.id, j, l) {
                    ids.insert(id);
                }
            }
        }
        Some(ids)
    }

    /// Step 6: completion.
    fn check_share_complete(&mut self, ctx: &SvssCtx<'_, F>, out: &mut Vec<SvssOut<F>>) {
        if self.share_completed {
            return;
        }
        let Some(required) = self.required_mw_ids() else {
            return;
        };
        if required.iter().all(|&id| ctx.mw_completed(id)) {
            self.share_completed = true;
            out.push(SvssOut::ShareCompleted);
        }
    }

    /// `R` step 1: reconstruct every relevant MW invocation.
    fn maybe_start_recon(&mut self, out: &mut Vec<SvssOut<F>>) {
        if !self.recon_requested || self.recon_started || !self.share_completed {
            return;
        }
        self.recon_started = true;
        for mw in self.required_mw_ids().expect("share completed implies Ĝ") {
            out.push(SvssOut::StartMwReconstruct { mw });
        }
    }

    /// `R` steps 2–3: the ignore set `I`, row/column consistency, and the
    /// bivariate fit.
    fn try_output(&mut self, ctx: &SvssCtx<'_, F>, out: &mut Vec<SvssOut<F>>) {
        if self.output_emitted || !self.recon_started {
            return;
        }
        let Some(required) = self.required_mw_ids() else {
            return;
        };
        if !required.iter().all(|&id| ctx.mw_output(id).is_some()) {
            return;
        }
        let output = |id| ctx.mw_output(id).expect("every required output is in");
        let (g, members) = self.g_hat.as_ref().expect("recon implies Ĝ");
        // Step 2: build the ignore set I.
        let mut survivors: Vec<(Pid, Poly<F>, Poly<F>)> = Vec::new();
        let mut row_pts: Vec<(u64, F)> = Vec::new();
        let mut col_pts: Vec<(u64, F)> = Vec::new();
        'candidates: for k in g.iter() {
            let gk = &members[&k];
            row_pts.clear();
            col_pts.clear();
            for l in gk.iter().filter(|&l| l != k) {
                // r_{k,k,l}: dealer k, entry f(k, l); r_{k,l,k}: dealer k,
                // entry f(l, k). Moderator is l in both.
                let r_kkl = output(MwId::nested(self.id, k, l, k, l));
                let r_klk = output(MwId::nested(self.id, k, l, l, k));
                let (Reconstructed::Value(vg), Reconstructed::Value(vh)) = (r_kkl, r_klk) else {
                    continue 'candidates; // k ∈ I: a ⊥ among its entries
                };
                row_pts.push((l.as_u64(), vg));
                col_pts.push((l.as_u64(), vh));
            }
            let Some(g_k) = self.domain.interpolate_checked(&row_pts, self.t) else {
                continue; // k ∈ I: row points not degree-t consistent
            };
            let Some(h_k) = self.domain.interpolate_checked(&col_pts, self.t) else {
                continue; // k ∈ I: column points not degree-t consistent
            };
            survivors.push((k, g_k, h_k));
        }
        let result = self.fit_bivariate(&survivors);
        self.output = Some(result);
        self.output_emitted = true;
        out.push(SvssOut::Output(result));
    }

    /// Step 3 of `R` on the surviving rows/columns.
    fn fit_bivariate(&self, survivors: &[(Pid, Poly<F>, Poly<F>)]) -> Reconstructed<F> {
        if survivors.len() < self.t + 1 {
            return Reconstructed::Bottom; // no unique bivariate polynomial
        }
        // Pairwise cross-consistency: h_k(l) must equal g_l(k).
        for (k, _, h_k) in survivors {
            for (l, g_l, _) in survivors {
                if h_k.eval_at_index(l.as_u64()) != g_l.eval_at_index(k.as_u64()) {
                    return Reconstructed::Bottom;
                }
            }
        }
        let rows: Vec<(u64, Poly<F>)> = survivors
            .iter()
            .take(self.t + 1)
            .map(|(k, g_k, _)| (k.as_u64(), g_k.clone()))
            .collect();
        let Some(fbar) = BiPoly::interpolate_rows(self.t, &rows) else {
            return Reconstructed::Bottom;
        };
        // Uniqueness over the whole grid: every surviving row and column
        // must lie on f̄ (agreement at ≥ t+1 grid points forces equality).
        for (k, g_k, h_k) in survivors {
            if &fbar.row(k.as_u64()) != g_k || &fbar.col(k.as_u64()) != h_k {
                return Reconstructed::Bottom;
            }
        }
        Reconstructed::Value(fbar.secret())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sba_field::Gf61;

    fn dom() -> Arc<Domain<Gf61>> {
        Arc::new(Domain::new(4))
    }

    fn p(i: u32) -> Pid {
        Pid::new(i)
    }

    fn sid() -> SvssId {
        SvssId::new(1, p(1))
    }

    #[test]
    fn pair_ids_symmetric_and_distinct() {
        let a = pair_mw_ids(sid(), p(2), p(3));
        let b = pair_mw_ids(sid(), p(3), p(2));
        let mut sa: Vec<MwId> = a.to_vec();
        let mut sb: Vec<MwId> = b.to_vec();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "pair ids must not depend on argument order");
        sa.dedup();
        assert_eq!(sa.len(), 4, "four distinct invocations per pair");
    }

    #[test]
    fn pair_ids_cover_both_entries_and_roles() {
        let ids = pair_mw_ids(sid(), p(2), p(3));
        // Each of p2, p3 deals twice; both entries (2,3) and (3,2) appear
        // twice (once per dealer).
        let dealers: Vec<u32> = ids.iter().map(|i| i.dealer().index()).collect();
        assert_eq!(dealers.iter().filter(|&&d| d == 2).count(), 2);
        assert_eq!(dealers.iter().filter(|&&d| d == 3).count(), 2);
        for id in &ids {
            assert_ne!(id.dealer(), id.moderator());
            let entry = (id.row().index(), id.col().index());
            assert!(entry == (2, 3) || entry == (3, 2));
        }
    }

    fn gsets_with(quorum_self: bool) -> (ProcessSet, Vec<(Pid, ProcessSet)>) {
        let g: ProcessSet = Pid::all(3).collect();
        let members: Vec<(Pid, ProcessSet)> = Pid::all(3)
            .map(|j| {
                let mut s: ProcessSet = Pid::all(3).collect();
                if !quorum_self {
                    s.remove(j);
                }
                (j, s)
            })
            .collect();
        (g, members)
    }

    #[test]
    fn gsets_validation_rules() {
        let m: Svss<Gf61> = Svss::new(sid(), p(2), 4, 1, dom());
        // Canonical sets (with self-inclusion) validate.
        let (g, members) = gsets_with(true);
        assert!(m.validate_gsets(&g, &members));
        // Missing self-inclusion is non-canonical.
        let (g, members) = gsets_with(false);
        assert!(!m.validate_gsets(&g, &members));
        // Undersized G fails.
        let g_small: ProcessSet = Pid::all(2).collect();
        let members_small: Vec<(Pid, ProcessSet)> =
            Pid::all(2).map(|j| (j, Pid::all(3).collect())).collect();
        assert!(!m.validate_gsets(&g_small, &members_small));
        // Key/G mismatch fails.
        let (g, mut members) = gsets_with(true);
        members.pop();
        assert!(!m.validate_gsets(&g, &members));
        // Out-of-range pid fails.
        let (g, mut members) = gsets_with(true);
        members[0].1.insert(Pid::new(9));
        assert!(!m.validate_gsets(&g, &members));
    }

    #[test]
    fn required_ids_skip_self_entries() {
        let mut m: Svss<Gf61> = Svss::new(sid(), p(2), 4, 1, dom());
        let (g, members) = gsets_with(true);
        m.g_hat = Some((g, members.into_iter().collect()));
        let ids = m.required_mw_ids().unwrap();
        for id in &ids {
            assert_ne!(id.dealer(), id.moderator(), "no {{j, j}} sessions");
        }
        // Pairs {1,2},{1,3},{2,3} × 4 invocations = 12 distinct ids.
        assert_eq!(ids.len(), 12);
    }
}
