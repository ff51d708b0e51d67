//! SCC property tests (paper Definition 2): termination, common-value
//! probability bounds, reconstruct gating, and fault tolerance.

use sba::broadcast::Params;
use sba::field::Gf61;
use sba::harness::CoinNet;
use sba::net::Pid;

/// Termination + Correctness margins: across seeds, every process outputs;
/// both all-0 and all-1 runs occur with healthy frequency.
///
/// Slow tier (40 full coin runs): `cargo test -- --ignored` or
/// `--include-ignored`.
#[test]
#[ignore = "slow tier: 40-seed statistical sweep, ~20s in debug"]
fn coin_terminates_and_both_values_occur() {
    let mut all_zero = 0;
    let mut all_one = 0;
    let mut common = 0;
    const RUNS: u64 = 40;
    for seed in 0..RUNS {
        let params = Params::new(4, 1).unwrap();
        let mut net = CoinNet::<Gf61>::new(params, seed * 7 + 1);
        net.flip_all(1);
        let outs = net.outputs(1);
        assert!(
            outs.iter().all(Option::is_some),
            "seed {seed}: coin did not terminate: {outs:?}"
        );
        let vals: Vec<bool> = outs.into_iter().flatten().collect();
        if vals.iter().all(|&v| v == vals[0]) {
            common += 1;
            if vals[0] {
                all_one += 1;
            } else {
                all_zero += 1;
            }
        }
        assert!(net.shun_pairs().is_empty(), "honest run must not shun");
    }
    // Lemma 4 bounds are ≥ 1/4 each; leave generous slack for 40 samples.
    assert!(all_zero >= 4, "all-zero runs too rare: {all_zero}/{RUNS}");
    assert!(all_one >= 4, "all-one runs too rare: {all_one}/{RUNS}");
    assert!(
        common >= RUNS as i32 as usize * 3 / 4,
        "common outcomes too rare: {common}/{RUNS}"
    );
}

/// The coin tolerates `t` silent processes.
#[test]
fn coin_with_silent_fault() {
    for seed in 0..6 {
        let params = Params::new(4, 1).unwrap();
        let mut net = CoinNet::<Gf61>::new(params, 100 + seed);
        net.silence(Pid::new(4));
        net.flip_all(1);
        let outs = net.outputs(1);
        assert!(
            outs.iter().all(Option::is_some),
            "seed {seed}: coin with silent fault did not terminate: {outs:?}"
        );
    }
}

/// Reconstruct gating: no output before `enable_reconstruct`, output after.
#[test]
fn reconstruct_gating() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 5);
    net.act_all(|e, sends| e.start(3, sends));
    net.run();
    assert!(
        net.outputs(3).iter().all(Option::is_none),
        "no process may learn the coin before the vote lock"
    );
    net.act_all(|e, sends| e.enable_reconstruct(3, sends));
    net.run();
    assert!(net.outputs(3).iter().all(Option::is_some));
}

/// Determinism: identical seeds give identical outcomes.
#[test]
fn coin_is_replayable() {
    let run = |seed: u64| {
        let params = Params::new(4, 1).unwrap();
        let mut net = CoinNet::<Gf61>::new(params, seed);
        net.flip_all(1);
        net.outputs(1)
    };
    assert_eq!(run(9), run(9));
}

/// Two sequential coin sessions on the same engines (the agreement layer's
/// usage pattern).
#[test]
fn sequential_sessions() {
    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 77);
    for tag in 1..=2u64 {
        net.flip_all(tag);
        assert!(
            net.outputs(tag).iter().all(Option::is_some),
            "session {tag} did not terminate"
        );
    }
}

/// Larger system: n = 7, t = 2, two silent.
///
/// Slow tier: `cargo test -- --ignored` or `--include-ignored`.
#[test]
#[ignore = "slow tier: n=7 coin run, ~16s in debug"]
fn coin_n7_with_two_silent() {
    let params = Params::new(7, 2).unwrap();
    let mut net = CoinNet::<Gf61>::new(params, 13);
    net.silence(Pid::new(6));
    net.silence(Pid::new(7));
    net.flip_all(1);
    assert!(net.outputs(1).iter().all(Option::is_some));
}

/// The coin is field-generic: a full session over the tiny field GF(101)
/// (|F| = 101 > n, satisfying the paper's field-size requirement).
#[test]
fn coin_over_small_field() {
    use sba::field::Gf101;

    let params = Params::new(4, 1).unwrap();
    let mut net = CoinNet::<Gf101>::new(params, 3);
    net.flip_all(1);
    for (p, out) in Pid::all(4).zip(net.outputs(1)) {
        assert!(out.is_some(), "{p} did not flip over GF(101)");
    }
}
