//! The shunning common coin: flip it many times and tabulate how often
//! all processes see the same value (Lemma 4 promises ≥ 1/4 per side).
//!
//! ```sh
//! cargo run -p sba-examples --example common_coin
//! ```

use sba::field::Gf61;
use sba::harness::CoinNet;
use sba::Params;

fn main() {
    let params = Params::new(4, 1).unwrap();
    let sessions = 30u64;
    let mut all_zero = 0;
    let mut all_one = 0;
    let mut mixed = 0;

    for tag in 1..=sessions {
        // A fresh four-process system per session, on the simulator.
        let mut net = CoinNet::<Gf61>::new(params, tag * 1009);
        net.flip_all(tag);
        let outs: Vec<bool> = net.outputs(tag).into_iter().map(Option::unwrap).collect();
        let zeros = outs.iter().filter(|&&v| !v).count();
        match zeros {
            0 => all_one += 1,
            4 => all_zero += 1,
            _ => mixed += 1,
        }
        println!(
            "session {tag:>2}: {}",
            outs.iter()
                .map(|&v| if v { '1' } else { '0' })
                .collect::<String>()
        );
    }

    println!("\nover {sessions} sessions:");
    println!("  all-zero : {all_zero}  (paper promises ≥ 1/4 in expectation)");
    println!("  all-one  : {all_one}  (paper promises ≥ 1/4 in expectation)");
    println!("  mixed    : {mixed}  (allowed by the SCC correctness clause)");
}
