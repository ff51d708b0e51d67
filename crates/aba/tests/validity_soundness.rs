//! Soundness of the validation predicates (the liveness half of the
//! validated-vote design): whatever an honest process produces from *its*
//! first `n−t` valid messages must validate at every other process whose
//! pool (eventually) contains those messages. If this ever failed, honest
//! messages could be rejected forever and rounds would deadlock.

use proptest::prelude::*;
use sba_aba::RoundState;
use sba_net::Pid;

/// Builds a round with the given reports delivered and validated
/// (round 1, so reports are unconditionally valid).
fn round_with_reports(reports: &[(u32, bool)], n: usize, t: usize) -> RoundState {
    let mut r = RoundState::new();
    for &(i, v) in reports {
        r.deliver_a(Pid::new(i), v);
    }
    r.revalidate(None, n, t);
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The candidate bit an honest sender derives from its first n−t valid
    /// reports is a valid candidate value at any receiver holding a
    /// superset of those reports.
    #[test]
    fn honest_candidate_always_validates(
        bits in proptest::collection::vec(any::<bool>(), 7),
        sender_order in proptest::sample::subsequence((1u32..=7).collect::<Vec<_>>(), 5),
    ) {
        let (n, t) = (7usize, 2usize);
        // Sender saw n−t = 5 reports (sender_order), receiver saw all 7.
        let sender_reports: Vec<(u32, bool)> = sender_order
            .iter()
            .map(|&i| (i, bits[(i - 1) as usize]))
            .collect();
        let sender_round = round_with_reports(&sender_reports, n, t);
        let candidate = sender_round
            .candidate_bit(n, t)
            .expect("n−t valid reports present");

        let all_reports: Vec<(u32, bool)> =
            (1u32..=7).map(|i| (i, bits[(i - 1) as usize])).collect();
        let mut receiver_round = round_with_reports(&all_reports, n, t);
        // The receiver judges the sender's candidate message.
        receiver_round.deliver_b(Pid::new(sender_order[0]), candidate);
        receiver_round.revalidate(None, n, t);
        prop_assert_eq!(
            receiver_round.valid_candidates().len(),
            1,
            "honest candidate {} rejected; sender sample {:?}, bits {:?}",
            candidate,
            sender_order,
            bits
        );
    }

    /// The vote an honest sender derives from its first n−t valid
    /// candidates validates at any receiver with a superset candidate pool.
    #[test]
    fn honest_vote_always_validates(
        report_bits in proptest::collection::vec(any::<bool>(), 7),
        cand_senders in proptest::sample::subsequence((1u32..=7).collect::<Vec<_>>(), 5),
    ) {
        let (n, t) = (7usize, 2usize);
        let all_reports: Vec<(u32, bool)> =
            (1u32..=7).map(|i| (i, report_bits[(i - 1) as usize])).collect();

        // Every process derives its candidate from the full report pool
        // (a legal n−t sample exists inside it for whatever wins).
        let mut base = round_with_reports(&all_reports, n, t);
        let candidate = base.candidate_bit(n, t).expect("reports present");
        for &i in &cand_senders {
            base.deliver_b(Pid::new(i), candidate);
        }
        base.revalidate(None, n, t);
        prop_assume!(base.valid_candidates().len() >= n - t);
        let vote = base.vote(n, t).expect("n−t valid candidates");

        // A receiver with the same pools must accept the vote message.
        let mut receiver = base.clone();
        receiver.deliver_c(Pid::new(cand_senders[0]), vote);
        receiver.revalidate(None, n, t);
        prop_assert_eq!(
            receiver.valid_votes().len(),
            1,
            "honest vote {:?} rejected",
            vote
        );
    }
}

#[test]
fn candidate_of_tied_sample_is_true_and_validates() {
    // n = 4, t = 1: a 3-sample cannot tie, but a receiver judging a
    // candidate against a 2/2 split pool exercises the tie arithmetic.
    let (n, t) = (4usize, 1usize);
    let reports = [(1u32, true), (2, true), (3, false), (4, false)];
    let mut r = round_with_reports(&reports, n, t);
    // Both candidate values are producible from some 3-subsample:
    // {1,2,3} → majority true; {3,4,1} → tie? no: 1 true 2 false → false.
    r.deliver_b(Pid::new(1), true);
    r.deliver_b(Pid::new(2), false);
    r.revalidate(None, n, t);
    assert_eq!(r.valid_candidates().len(), 2, "both splits are producible");
}
