//! SVSS property tests (paper §2.1, §4): Validity of Termination,
//! Termination, Validity, Binding, and shunning — across seeds, fault
//! patterns, and Byzantine dealers.

use sba::broadcast::Params;
use sba::field::{Field, Gf101, Gf61};
use sba::harness::SvssNet;
use sba::net::{Pid, SvssId};
use sba::sim::Process;
use sba::svss::{Reconstructed, RowsBody, SvssMsg, SvssPriv};
use sba::Role;

fn f(v: u64) -> Gf61 {
    Gf61::from_u64(v)
}

/// Validity of Termination + Validity + Termination, fault-free, across
/// seeds and system sizes.
#[test]
fn honest_dealer_full_stack() {
    for (n, t) in [(4usize, 1usize), (7, 2)] {
        for seed in 0..4 {
            let params = Params::new(n, t).unwrap();
            let mut net = SvssNet::<Gf61>::new(params, seed);
            let sid = SvssId::new(1, Pid::new(1));
            net.share(sid, f(500 + seed));
            net.run();
            assert!(net.all_shares_completed(sid), "n={n} seed={seed}");
            net.reconstruct_all(sid);
            net.run();
            for (p, out) in net.outputs(sid) {
                assert_eq!(
                    out.and_then(Reconstructed::value),
                    Some(f(500 + seed)),
                    "n={n} seed={seed} {p}"
                );
            }
            assert!(net.shun_pairs().is_empty());
        }
    }
}

/// Validity with the maximum number of *silent* faulty processes: the
/// quorum math must carry an honest dealer through.
#[test]
fn honest_dealer_with_max_silent_faults() {
    for (n, t, silent) in [(4usize, 1usize, vec![4u32]), (7, 2, vec![6, 7])] {
        let params = Params::new(n, t).unwrap();
        let mut net = SvssNet::<Gf61>::new(params, 17);
        for &s in &silent {
            net.corrupt(Pid::new(s), Role::Silent);
        }
        let sid = SvssId::new(1, Pid::new(1));
        net.share(sid, f(321));
        net.run();
        assert!(
            net.all_shares_completed(sid),
            "n={n}: share must complete despite {} silent",
            silent.len()
        );
        net.reconstruct_all(sid);
        net.run();
        for (p, out) in net.outputs(sid) {
            assert_eq!(
                out.and_then(Reconstructed::value),
                Some(f(321)),
                "n={n} {p}"
            );
        }
    }
}

/// A Byzantine SVSS dealer that hands out inconsistent rows: honest
/// processes must never disagree on non-⊥ outputs unless someone shuns a
/// new faulty process (Binding).
#[test]
fn inconsistent_rows_dealer_binding() {
    for seed in 0..12 {
        let params = Params::new(4, 1).unwrap();
        let mut net = SvssNet::<Gf61>::new(params, seed);
        let dealer = Pid::new(1);
        let sid = SvssId::new(1, dealer);
        // The dealer corrupts the rows it sends to p3: g and h shifted.
        net.set_tamper(dealer, |to, msg| {
            if to != Pid::new(3) {
                return None;
            }
            match msg.clone().unpack() {
                sba::net::Unpacked::Priv(SvssPriv::Rows { session, rows }) => {
                    let bump = |v: &[Gf61]| -> Vec<Gf61> {
                        let mut v = v.to_vec();
                        if let Some(c) = v.first_mut() {
                            *c += Gf61::from_u64(5);
                        }
                        v
                    };
                    Some(SvssMsg::private(SvssPriv::Rows {
                        session,
                        rows: Box::new(RowsBody {
                            g: bump(&rows.g),
                            h: bump(&rows.h),
                        }),
                    }))
                }
                _ => None,
            }
        });
        net.share(sid, f(42));
        net.run();
        net.reconstruct_all(sid);
        net.run();

        // Binding: among honest p2, p3, p4, all non-⊥ outputs must agree
        // — or a shun pair names the dealer.
        let outs: Vec<Option<Gf61>> = [2u32, 3, 4]
            .iter()
            .filter_map(|&i| net.engine(Pid::new(i)).output(sid))
            .map(Reconstructed::value)
            .collect();
        let non_bottom: Vec<Gf61> = outs.iter().flatten().copied().collect();
        let all_agree = non_bottom.windows(2).all(|w| w[0] == w[1]);
        assert!(
            all_agree || !net.shun_pairs().is_empty(),
            "seed {seed}: disagreement {outs:?} without shunning"
        );
    }
}

/// With inconsistent rows, the corrupted pair's MW moderation blocks: the
/// pair {3, l} sessions cannot complete unless values match, so G excludes
/// the conflict and the share still completes with a consistent grid.
#[test]
fn moderation_excludes_conflicting_pairs() {
    let params = Params::new(7, 2).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 23);
    let dealer = Pid::new(1);
    let sid = SvssId::new(1, dealer);
    net.set_tamper(dealer, |to, msg| {
        if to != Pid::new(3) {
            return None;
        }
        match msg.clone().unpack() {
            sba::net::Unpacked::Priv(SvssPriv::Rows { session, rows }) => {
                let bump = |v: &[Gf61]| -> Vec<Gf61> {
                    let mut v = v.to_vec();
                    if let Some(c) = v.first_mut() {
                        *c += Gf61::from_u64(5);
                    }
                    v
                };
                Some(SvssMsg::private(SvssPriv::Rows {
                    session,
                    rows: Box::new(RowsBody {
                        g: bump(&rows.g),
                        h: bump(&rows.h),
                    }),
                }))
            }
            _ => None,
        }
    });
    net.share(sid, f(42));
    net.run();
    // n = 7, t = 2: even with p3's pairs broken, 6 processes can form G.
    assert!(net.all_shares_completed(sid));
    net.reconstruct_all(sid);
    net.run();
    // All honest processes output the true secret: the corrupted rows
    // never made it into the committed grid.
    for (p, out) in net.outputs(sid) {
        if p == dealer || p == Pid::new(3) {
            continue;
        }
        assert_eq!(out.and_then(Reconstructed::value), Some(f(42)), "{p}");
    }
}

/// Hiding sanity: no output events before reconstruct is invoked.
#[test]
fn no_premature_outputs() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 3);
    let sid = SvssId::new(1, Pid::new(2));
    net.share(sid, f(777));
    net.run();
    for p in Pid::all(4) {
        assert!(net.engine(p).output(sid).is_none());
    }
}

/// Concurrent sessions from different dealers do not interfere.
#[test]
fn concurrent_sessions_isolated() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 8);
    let s1 = SvssId::new(1, Pid::new(1));
    let s2 = SvssId::new(1, Pid::new(2));
    let s3 = SvssId::new(2, Pid::new(1)); // same dealer, second session
    net.share(s1, f(10));
    net.share(s2, f(20));
    net.share(s3, f(30));
    net.run();
    for sid in [s1, s2, s3] {
        assert!(net.all_shares_completed(sid));
        net.reconstruct_all(sid);
    }
    net.run();
    for (sid, want) in [(s1, 10u64), (s2, 20), (s3, 30)] {
        for (p, out) in net.outputs(sid) {
            assert_eq!(out.and_then(Reconstructed::value), Some(f(want)), "{p}");
        }
    }
}

/// The whole stack is field-generic: a run over the tiny field GF(101).
#[test]
fn works_over_small_field() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf101>::new(params, 5);
    let sid = SvssId::new(1, Pid::new(4));
    net.share(sid, Gf101::from_u64(77));
    net.run();
    net.reconstruct_all(sid);
    net.run();
    for (p, out) in net.outputs(sid) {
        assert_eq!(
            out.and_then(Reconstructed::value),
            Some(Gf101::from_u64(77)),
            "{p}"
        );
    }
}

/// Session ordering sanity for the DMM: a dealer that already completed a
/// session can immediately run another one.
#[test]
fn sequential_sessions_chain() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 2);
    for round in 1..=3u64 {
        let sid = SvssId::new(round, Pid::new(1));
        net.share(sid, f(round * 100));
        net.run();
        net.reconstruct_all(sid);
        net.run();
        for (p, out) in net.outputs(sid) {
            assert_eq!(
                out.and_then(Reconstructed::value),
                Some(f(round * 100)),
                "round {round} {p}"
            );
        }
    }
}

/// A crash fault in an SVSS run, as in a cluster: p4 stops after 40
/// deliveries, in the middle of the share; the other three still
/// complete and reconstruct the secret.
#[test]
fn crashed_process_does_not_block_a_share() {
    let params = Params::new(4, 1).unwrap();
    let p4 = Pid::new(4);
    let mut net = SvssNet::<Gf61>::new(params, 9);
    net.corrupt(p4, Role::Crash { after: 40 });
    let sid = SvssId::new(1, Pid::new(1));
    net.share(sid, f(55));
    net.run();
    assert!(net.sim().process(p4).down(), "p4 crashed mid-share");
    assert!(!net.engine(p4).share_completed(sid));
    assert!(net.all_shares_completed(sid), "p1..p3 complete");
    net.reconstruct_all(sid);
    net.run();
    let outputs = net.outputs(sid);
    assert_eq!(outputs.len(), 3, "the crashed p4 outputs nothing");
    for (p, out) in outputs {
        assert_eq!(out.and_then(Reconstructed::value), Some(f(55)), "{p}");
    }
}

/// A snapshot of an SVSS run in the middle of a share is a checkpoint:
/// running the copy reproduces the original's digest, deliveries and
/// outputs.
#[test]
fn snapshot_mid_share_replays_the_original() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 12);
    net.sim_mut().enable_digest();
    let sid = SvssId::new(1, Pid::new(1));
    net.share(sid, f(77));
    net.sim_mut()
        .run_until(u64::MAX, |sim| sim.metrics().events >= 100);
    assert!(!net.all_shares_completed(sid), "the share is still running");
    let mut copy = net.snapshot();
    let finish = |net: &mut SvssNet<Gf61>| {
        net.run();
        net.reconstruct_all(sid);
        net.run();
        (net.digest(), net.delivered(), net.outputs(sid))
    };
    let original = finish(&mut net);
    assert_eq!(finish(&mut copy), original);
    for (p, out) in original.2 {
        assert_eq!(out.and_then(Reconstructed::value), Some(f(77)), "{p}");
    }
}
