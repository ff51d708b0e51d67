//! Property-based integration tests: random seeds, inputs, delays, and
//! fault placements — agreement, validity, and the shunning bound must
//! hold for every generated case.

use proptest::prelude::*;
use sba::{Cluster, ClusterConfig, Pid, Role};

proptest! {
    // Each case is a full multi-process protocol run; keep the count
    // moderate and the cases small.
    #![proptest_config(ProptestConfig {
        cases: 8,
        max_shrink_iters: 0,
    })]

    /// Agreement + termination for arbitrary seeds/inputs/delays at n=4.
    ///
    /// Slow tier (8 full cluster runs): `cargo test -- --ignored` or
    /// `--include-ignored`. `agreement_random_fault` below stays in tier 1
    /// and covers agreement plus the shunning bound under random faults.
    #[test]
    #[ignore = "slow tier: 8 randomized cluster runs, ~13s in debug"]
    fn agreement_random_inputs(
        seed in 0u64..1_000_000,
        bits in proptest::collection::vec(any::<bool>(), 4),
        max_delay in 1u64..40,
    ) {
        let config = ClusterConfig::new(4, 1).seed(seed).max_delay(max_delay);
        let inputs: Vec<Option<bool>> = bits.iter().copied().map(Some).collect();
        let mut cluster = Cluster::new(config, &inputs);
        let report = cluster.run(80_000_000);
        prop_assert!(report.terminated, "no termination");
        prop_assert!(report.agreement(), "disagreement");
        // Validity: if inputs were unanimous, the decision matches.
        if bits.iter().all(|&b| b == bits[0]) {
            for d in report.decisions.iter().flatten() {
                prop_assert_eq!(*d, bits[0]);
            }
        }
    }

    /// Same with one randomly-chosen corrupted process.
    #[test]
    fn agreement_random_fault(
        seed in 0u64..1_000_000,
        bits in proptest::collection::vec(any::<bool>(), 4),
        victim in 1u32..=4,
        fault_kind in 0u8..4,
    ) {
        let fault = match fault_kind {
            0 => Role::Silent,
            1 => Role::Crash { after: seed % 3000 },
            2 => Role::LyingShares { delta: 1 + seed % 11 },
            _ => Role::FlippedVotes,
        };
        let config = ClusterConfig::new(4, 1)
            .seed(seed)
            .fault(Pid::new(victim), fault);
        let inputs: Vec<Option<bool>> = bits.iter().copied().map(Some).collect();
        let mut cluster = Cluster::new(config, &inputs);
        let report = cluster.run(80_000_000);
        prop_assert!(report.terminated, "no termination under fault");
        prop_assert!(report.agreement(), "disagreement under fault");
        // Shunning bound: distinct pairs ≤ t(n−t) = 3.
        let mut pairs = report.shun_pairs.clone();
        pairs.sort();
        pairs.dedup();
        prop_assert!(pairs.len() <= 3);
        // Only the corrupted process is ever shunned.
        for (_, shunned) in pairs {
            prop_assert_eq!(shunned, Pid::new(victim));
        }
    }
}
