//! The invariant monitor on SVSS and coin runs. The checker is a field
//! of every `Node`, so it rides any engine; these runs have no
//! proposals, so what it checks there is the shunning half. A forger
//! that the honest processes shun is no violation. A process that keeps
//! its honest role while forging makes every shun of it an
//! `honest-pair-shun`.

use sba::field::{Field, Gf61};
use sba::harness::{CoinNet, Engine, SvssNet};
use sba::net::{Pid, SvssId};
use sba::svss::forge_recon_points;
use sba::{Net, Params, Role};

const DELTA: u64 = 5;

/// p4 forges every reconstruction point it sends: by its role
/// (`by_role`), or while keeping [`Role::Honest`] by a tamper. Then the
/// monitor is enabled.
fn forging_p4<E: Engine<Field = Gf61>>(net: &mut Net<E>, by_role: bool) {
    let p4 = Pid::new(4);
    if by_role {
        net.corrupt(p4, Role::LyingShares { delta: DELTA });
    } else {
        net.set_tamper(p4, |_, msg| {
            forge_recon_points(msg, |_| Some(Gf61::from_u64(DELTA)))
        });
    }
    net.enable_monitor();
}

/// What the monitor must have found in a finished run whose p4 forged
/// (see [`forging_p4`]): the honest processes shunned p4 and only p4;
/// a liar's shunning is no violation, a tampering honest p4's is one
/// `honest-pair-shun` per shun of it.
fn assert_findings<E: Engine>(net: &Net<E>, by_role: bool) {
    let p4 = Pid::new(4);
    let report = net.monitor_report().expect("monitored");
    let mut shuns = net.shun_pairs();
    shuns.retain(|&(shunner, _)| shunner != p4);
    assert!(!shuns.is_empty(), "nobody shunned the forger");
    assert!(shuns.iter().all(|&(_, bad)| bad == p4), "{shuns:?}");
    assert!(report.checks > 0 && report.checks.is_multiple_of(4));
    if by_role {
        assert!(report.ok(), "{:?}", report.violations);
        return;
    }
    assert_eq!(report.violations_total, shuns.len() as u64);
    for v in &report.violations {
        assert_eq!(v.invariant, "honest-pair-shun");
        assert!(v.detail.ends_with("shunned honest p4"), "{}", v.detail);
    }
}

#[test]
fn the_monitor_checks_svss_shuns() {
    let params = Params::new(4, 1).unwrap();
    let sid = SvssId::new(1, Pid::new(1));
    for by_role in [true, false] {
        let mut net = SvssNet::<Gf61>::new(params, 2);
        forging_p4(&mut net, by_role);
        net.share(sid, Gf61::from_u64(123_456_789));
        net.run();
        net.reconstruct_all(sid);
        net.run();
        assert_findings(&net, by_role);
    }
}

#[test]
fn the_monitor_checks_coin_shuns() {
    let params = Params::new(4, 1).unwrap();
    for by_role in [true, false] {
        let mut net = CoinNet::<Gf61>::new(params, 23);
        forging_p4(&mut net, by_role);
        net.flip_all(1);
        assert_findings(&net, by_role);
    }
}
