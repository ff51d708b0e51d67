//! Reproduction of the paper's **Example 1** (§3.3): with `n = 4`,
//! `t = 1`, dealer `p2` faulty and moderator `p1`, two nonfaulty processes
//! complete an MW-SVSS invocation with *different* values — and only
//! afterwards does a nonfaulty process shun the faulty dealer.
//!
//! Construction, following the paper's schedule:
//! - `p4` is delayed throughout, so `L_1 = L_2 = L_3 = M = {1, 2, 3}`;
//! - `p2` (the faulty dealer) behaves honestly in the share phase, but
//!   forges its reconstruction points for polynomials `f_1` (+2δ) and
//!   `f_2` (+δ), keeping `f_3`'s point honest — `p3` holds a DEAL
//!   expectation only about its own `f_3`, so it detects nothing;
//! - `p3` accepts points from `{2, 3}` first: each forged `+Δ` at `x = 2`
//!   shifts the constant term by `+3Δ`, so `p3` sees `f̄_1(0), f̄_2(0),
//!   f̄_3(0)` shifted by `(6δ, 3δ, 0)` — still collinear — and outputs
//!   `s + 9δ`;
//! - `p1` accepts points from `{1, 3}` first and outputs the true `s`;
//! - when `p2`'s forged `f_1` point finally reaches `p1`, it contradicts
//!   `p1`'s DEAL expectation and `p1` shuns `p2` — after both completed.

use sba::broadcast::Params;
use sba::field::{Field, Gf61};
use sba::harness::SvssNet;
use sba::net::{MwId, Pid, WireKind};
use sba::svss::{forge_recon_points, Reconstructed, SvssMsg};

fn f(v: u64) -> Gf61 {
    Gf61::from_u64(v)
}

/// Is this a Ready message of `origin`'s reconstruct points? (Its `n`
/// points leave in one step, so they ride one vector — the only vector
/// `origin` broadcasts in the reconstruct phase.)
fn is_recon_ready_from(msg: &SvssMsg<Gf61>, origin: Pid) -> bool {
    msg.wire_kind() == WireKind::VecReady && msg.origin() == Some(origin)
}

#[test]
fn example_1_divergent_outputs_then_shunning() {
    let params = Params::new(4, 1).unwrap();
    let mut net = SvssNet::<Gf61>::new(params, 1);
    let (p1, p2, p3, p4) = (Pid::new(1), Pid::new(2), Pid::new(3), Pid::new(4));
    let id = MwId::standalone(1, p2, p1); // dealer 2, moderator 1
    let secret = f(1000);
    let delta = 7u64;

    // p2: honest share; forged reconstruct points for f_1 (+2δ) and
    // f_2 (+δ); honest point for f_3.
    net.set_tamper(p2, move |_to, msg| {
        let shift = |poly: Pid| match poly.index() {
            1 => Some(f(2 * delta)),
            2 => Some(f(delta)),
            _ => None,
        };
        forge_recon_points(msg, shift)
    });

    net.mw_share(id, secret);
    net.mw_set_moderator_input(id, secret);
    // Share phase entirely without p4: L and M sets become {1, 2, 3}.
    net.deliver_matching(move |from, to, _| from != p4 && to != p4);

    // All of 1, 2, 3 completed the share; start reconstruction.
    net.mw_reconstruct_all(id);

    // Reconstruct schedule: p3 must accept p2's points first, p1 must
    // accept p1+p3's points first. RB acceptance fires on the last Ready,
    // so hold back: Ready(origin=p1) → p3, Ready(origin=p2) → p1, and
    // still everything touching p4.
    net.deliver_matching(move |from, to, msg| {
        if from == p4 || to == p4 {
            return false;
        }
        if to == p3 && is_recon_ready_from(msg, p1) {
            return false;
        }
        if to == p1 && is_recon_ready_from(msg, p2) {
            return false;
        }
        true
    });

    // Divergence: both nonfaulty processes completed reconstruction with
    // different values, and nobody has detected anything yet.
    let out1 = net.engine(p1).mw_output(id).expect("p1 must output");
    let out3 = net.engine(p3).mw_output(id).expect("p3 must output");
    assert_eq!(out1, Reconstructed::Value(secret), "p1 reconstructs s");
    assert_eq!(
        out3,
        Reconstructed::Value(secret + f(9 * delta)),
        "p3 reconstructs the shifted value s + 9δ"
    );
    assert!(
        net.shun_pairs().is_empty(),
        "divergence happens before any detection: {:?}",
        net.shun_pairs()
    );

    // Release everything: p2's forged f_1 point reaches p1, contradicting
    // p1's DEAL expectation about its own polynomial — p1 shuns p2.
    net.run();
    assert!(
        net.shun_pairs().contains(&(p1, p2)),
        "p1 must shun p2 after the fact: {:?}",
        net.shun_pairs()
    );
    // p3's only expectation (about f_3) was satisfied: p3 never detects.
    assert!(
        !net.shun_pairs().contains(&(p3, p2)),
        "p3 had no violated expectation: {:?}",
        net.shun_pairs()
    );
}
