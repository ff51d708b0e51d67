//! Shunning verifiable secret sharing, stand-alone: share a secret among
//! four processes, reconstruct it, then watch a forging process get
//! shunned.
//!
//! ```sh
//! cargo run -p sba-examples --example secret_sharing
//! ```

use sba::field::{Field, Gf61};
use sba::harness::SvssNet;
use sba::{Params, Pid, Role, SvssId};

fn main() {
    let params = Params::new(4, 1).unwrap();

    // --- Honest run -----------------------------------------------------
    let mut net = SvssNet::<Gf61>::new(params, 1);
    let session = SvssId::new(1, Pid::new(1));
    let secret = Gf61::from_u64(123_456_789);
    println!("p1 shares secret {secret} ...");
    net.share(session, secret);
    net.run();
    println!(
        "share completed everywhere: {}",
        net.all_shares_completed(session)
    );

    net.reconstruct_all(session);
    net.run();
    for (p, out) in net.outputs(session) {
        println!("  {p} reconstructs {:?}", out.unwrap().value().unwrap());
    }

    // --- A forging confirmer gets shunned -------------------------------
    println!("\nnow p4 forges every reconstruction point it broadcasts ...");
    let mut net = SvssNet::<Gf61>::new(params, 2);
    net.corrupt(Pid::new(4), Role::LyingShares { delta: 1 });
    let session = SvssId::new(1, Pid::new(1));
    net.share(session, secret);
    net.run();
    net.reconstruct_all(session);
    net.run();
    for (p, out) in net.outputs(session) {
        if p == Pid::new(4) {
            continue;
        }
        println!("  {p} reconstructs {:?}", out.map(|o| o.value()));
    }
    for (shunner, shunned) in net.shun_pairs() {
        println!("  shunning: {shunner} now permanently ignores {shunned}");
    }
    println!("(the forger can break at most t(n−t) sessions, ever)");
}
