//! The round lemma behind the unread-coin skip (the `node` module doc),
//! checked on `RoundState` alone: if one receiver decides `v` in round
//! `r`, every receiver decides or adopts `v`, and in round `r+1` nothing
//! but `v` can validate at any of them, so no one reaches `UseCoin`.
//!
//! Round `r` is taken as round 1, where every report is valid (the
//! lemma reads only round `r`'s votes). Its pools are RB-consistent: one
//! value per origin and phase, the same at every receiver. Honest origins
//! derive their candidate and vote from their own delivery order; up to
//! `t` Byzantine origins send arbitrary values; every receiver has its
//! own interleaving of all `3n` messages. Round-`r+1` pools are arbitrary
//! per receiver, not even RB-consistent. Validity is monotone in both
//! rounds' pools, so judging the full pools covers every prefix a
//! receiver passes through.

use proptest::collection::vec;
use proptest::prelude::*;
use sba_aba::{RoundOutcome, RoundState};
use sba_net::Pid;

const MAX_N: usize = 13;

/// One round's broadcast values, indexed by origin − 1.
#[derive(Default)]
struct Pools {
    reports: Vec<bool>,
    candidates: Vec<bool>,
    votes: Vec<Option<bool>>,
}

/// A receiver's interleaving of `(phase, origin index)` over all `3n`
/// messages: a Fisher–Yates shuffle driven by SplitMix64 from `seed`.
fn interleaving(n: usize, mut seed: u64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> =
        (0..3).flat_map(|ph| (0..n).map(move |j| (ph, j))).collect();
    for i in (1..order.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    order
}

/// A round-1 receiver after taking, in `order`, every message of the
/// phases below `phases`, revalidating after each delivery (so its
/// validation order follows its delivery order).
fn receive(
    order: &[(usize, usize)],
    phases: usize,
    pools: &Pools,
    n: usize,
    t: usize,
) -> RoundState {
    let mut r = RoundState::new();
    for &(phase, j) in order.iter().filter(|&&(ph, _)| ph < phases) {
        let from = Pid::new(j as u32 + 1);
        match phase {
            0 => r.deliver_a(from, pools.reports[j]),
            1 => r.deliver_b(from, pools.candidates[j]),
            _ => r.deliver_c(from, pools.votes[j]),
        }
        r.revalidate(None, n, t);
    }
    r
}

fn byzantine_vote(b: u8) -> Option<bool> {
    [Some(false), Some(true), None][usize::from(b % 3)]
}

/// Runs round `r` to completion at every receiver. Honest origins send
/// `inputs` and then what their own state yields; Byzantine ones send
/// `byz_values`.
fn run_round(
    n: usize,
    t: usize,
    byzantine: &[bool],
    inputs: &[bool],
    byz_values: &[(bool, bool, u8)],
    orders: &[Vec<(usize, usize)>],
) -> Vec<RoundState> {
    let mut pools = Pools {
        reports: (0..n)
            .map(|j| {
                if byzantine[j] {
                    byz_values[j].0
                } else {
                    inputs[j]
                }
            })
            .collect(),
        ..Pools::default()
    };
    pools.candidates = (0..n)
        .map(|j| match byzantine[j] {
            true => byz_values[j].1,
            false => receive(&orders[j], 1, &pools, n, t)
                .candidate_bit(n, t)
                .expect("n reports"),
        })
        .collect();
    pools.votes = (0..n)
        .map(|j| match byzantine[j] {
            true => byzantine_vote(byz_values[j].2),
            false => receive(&orders[j], 2, &pools, n, t)
                .vote(n, t)
                .expect("every honest candidate validates"),
        })
        .collect();
    orders.iter().map(|o| receive(o, 3, &pools, n, t)).collect()
}

/// A round-`r+1` message relative to `v`: mostly `v`, sometimes `¬v`,
/// `⊥` (votes only) or never delivered (`None`).
fn bit_msg(b: u8, v: bool) -> Option<bool> {
    match b {
        0..=191 => Some(v),
        192..=223 => Some(!v),
        _ => None,
    }
}

fn vote_msg(b: u8, v: bool) -> Option<Option<bool>> {
    match b {
        0..=191 => Some(Some(v)),
        192..=215 => Some(Some(!v)),
        216..=239 => Some(None),
        _ => None,
    }
}

/// Judges arbitrary round-`r+1` pools at a receiver whose round `r` is
/// `prev`: only `v` may validate, and the outcome is `None` or
/// `Decide(v)`. Returns the outcome.
fn next_round(
    prev: &RoundState,
    msgs: &[(u8, u8, u8)],
    v: bool,
    n: usize,
    t: usize,
) -> Result<Option<RoundOutcome>, String> {
    let mut r = RoundState::new();
    for (j, &(a, b, c)) in msgs.iter().enumerate().take(n) {
        let from = Pid::new(j as u32 + 1);
        if let Some(x) = bit_msg(a, v) {
            r.deliver_a(from, x);
        }
        if let Some(x) = bit_msg(b, v) {
            r.deliver_b(from, x);
        }
        if let Some(x) = vote_msg(c, v) {
            r.deliver_c(from, x);
        }
    }
    while r.revalidate(Some(prev), n, t) {}
    let (reports, candidates, votes) = (r.valid_reports(), r.valid_candidates(), r.valid_votes());
    prop_assert!(reports.iter().all(|&(_, x)| x == v), "reports {reports:?}");
    prop_assert!(
        candidates.iter().all(|&(_, x)| x == v),
        "candidates {candidates:?}"
    );
    prop_assert!(votes.iter().all(|&(_, x)| x == Some(v)), "votes {votes:?}");
    let outcome = r.compute_outcome(n, t);
    prop_assert!(
        outcome.is_none() || outcome == Some(RoundOutcome::Decide(v)),
        "round r+1 outcome {outcome:?} after a decision on {v}"
    );
    Ok(outcome)
}

/// The receivers' round-`r` outcomes, and the value one of them decided.
fn decided(states: &[RoundState], n: usize, t: usize) -> (Vec<Option<RoundOutcome>>, Option<bool>) {
    let outcomes: Vec<_> = states.iter().map(|s| s.compute_outcome(n, t)).collect();
    let v = outcomes.iter().find_map(|o| match o {
        Some(RoundOutcome::Decide(v)) => Some(*v),
        _ => None,
    });
    (outcomes, v)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn a_decision_forces_the_next_round_to_decide_it(
        n_pick in 0usize..4,
        (byz_count, byz_offset) in (0usize..=4, 0usize..MAX_N),
        (base, bias) in (any::<bool>(), 0u8..128),
        input_bytes in vec(any::<u8>(), MAX_N),
        byz_values in vec((any::<bool>(), any::<bool>(), any::<u8>()), MAX_N),
        order_seeds in vec(any::<u64>(), MAX_N),
        next in vec((any::<u8>(), any::<u8>(), any::<u8>()), MAX_N * MAX_N),
    ) {
        let n = [4, 7, 10, 13][n_pick];
        let t = (n - 1) / 3;
        let byzantine: Vec<bool> =
            (0..n).map(|j| (j + n - byz_offset % n) % n < byz_count.min(t)).collect();
        // `bias` flips honest inputs away from `base`: near 0 the inputs
        // are (nearly) unanimous and round r usually decides.
        let inputs: Vec<bool> =
            input_bytes[..n].iter().map(|&b| base ^ (b < bias)).collect();
        let orders: Vec<_> = order_seeds[..n].iter().map(|&s| interleaving(n, s)).collect();
        let states = run_round(n, t, &byzantine, &inputs, &byz_values, &orders);

        let (outcomes, v) = decided(&states, n, t);
        let Some(v) = v else {
            return Ok(());
        };
        for (i, o) in outcomes.iter().enumerate() {
            prop_assert!(
                matches!(o, Some(RoundOutcome::Decide(x) | RoundOutcome::Adopt(x)) if *x == v),
                "receiver {} has {o:?} beside a decision on {v}", i + 1
            );
        }
        for (i, prev) in states.iter().enumerate() {
            next_round(prev, &next[i * MAX_N..][..n], v, n, t)?;
        }
    }
}

/// The property above is not vacuous: unanimous honest inputs under `t`
/// Byzantine origins decide in round `r`, and unanimous round-`r+1`
/// pools decide again.
#[test]
fn unanimous_rounds_decide_twice() {
    for n in [4, 7, 10, 13] {
        let t = (n - 1) / 3;
        let byzantine: Vec<bool> = (0..n).map(|j| j < t).collect();
        let byz_values = vec![(false, false, 0); n];
        let orders: Vec<_> = (0..n as u64).map(|s| interleaving(n, s)).collect();
        let states = run_round(n, t, &byzantine, &vec![true; n], &byz_values, &orders);
        let (_, v) = decided(&states, n, t);
        assert_eq!(v, Some(true), "n = {n}");
        for prev in &states {
            let outcome = next_round(prev, &vec![(0, 0, 0); n], true, n, t).expect("lemma holds");
            assert_eq!(outcome, Some(RoundOutcome::Decide(true)), "n = {n}");
        }
    }
}
