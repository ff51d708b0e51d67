//! Quickstart: four processes reach Byzantine agreement on a bit.
//!
//! ```sh
//! cargo run -p sba-examples --example quickstart
//! ```

use sba::{Cluster, ClusterConfig};

fn main() {
    // n = 4 processes, tolerating t = 1 Byzantine fault (n > 3t).
    let config = ClusterConfig::new(4, 1).seed(2026);

    // Processes propose conflicting bits — the common coin breaks the tie.
    let inputs = [Some(true), Some(false), Some(true), Some(false)];
    let mut cluster = Cluster::new(config, &inputs);

    // Opt-in runtime safety: agreement, validity, and the shunning
    // invariants are re-checked after every step a process takes.
    cluster.enable_monitor();

    let report = cluster.run(20_000_000);

    assert!(report.terminated, "almost-sure termination");
    assert!(report.agreement(), "agreement");
    println!("decision       : {:?}", report.decisions[0].unwrap());
    println!("max round      : {}", report.max_round);
    println!("messages sent  : {}", report.messages);
    println!("bytes sent     : {}", report.bytes);
    println!("virtual time   : {}", report.metrics.virtual_time);
    let monitor = cluster.monitor_report().expect("monitor enabled");
    println!(
        "monitor        : {} invariant checks, {} violations",
        monitor.checks, monitor.violations_total
    );
    // Same-tick batching: the simulator coalesces every message one event
    // sends to one recipient into a single scheduled delivery.
    println!(
        "batches sent   : {} ({:.1} msgs/batch)",
        report.metrics.batches_sent,
        report.messages as f64 / report.metrics.batches_sent.max(1) as f64
    );
    println!(
        "peak in flight : {} msgs in {} batches (~{:.1} KB queue)",
        report.metrics.inflight_peak_msgs,
        report.metrics.inflight_peak_batches,
        report.metrics.inflight_peak_bytes as f64 / 1e3
    );
    // Self-delivery batching: local fixpoints run one `on_batch` call
    // per generation instead of one callback per self-message.
    println!(
        "self-delivery  : {} msgs in {} generations ({:.1} msgs/gen)",
        report.metrics.self_deliveries,
        report.metrics.self_delivery_batches,
        report.metrics.self_deliveries as f64 / report.metrics.self_delivery_batches.max(1) as f64
    );
    println!();
    println!("message breakdown by protocol step:");
    for (kind, (count, bytes)) in report.metrics.per_kind_sorted() {
        println!("  {kind:<16} {count:>8} msgs {bytes:>10} bytes");
    }
}
