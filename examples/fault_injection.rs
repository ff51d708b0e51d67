//! Agreement under active Byzantine faults, each expressed as a
//! declarative [`ScenarioPlan`] fault plan: who misbehaves (roles), how
//! the network adversary schedules (layers), and what changes mid-run
//! (timed events) — with the invariant monitor re-checking safety after
//! every delivered message.
//!
//! ```sh
//! cargo run -p sba-examples --example fault_injection
//! ```

use sba::{Action, Pid, PlanEvent, Role, ScenarioPlan, SchedLayer, Trigger};

fn run(plan: ScenarioPlan) {
    println!("=== {} ===", plan.name);
    let mut cluster = plan.build();
    let report = cluster.run(40_000_000);

    assert!(report.terminated, "termination under faults");
    assert!(report.agreement(), "agreement under faults");
    let monitor = cluster.monitor_report().expect("monitor enabled");
    assert!(
        monitor.ok(),
        "invariant violation: {:?}",
        monitor.violations
    );
    println!(
        "  decision  : {:?}",
        report.decisions.iter().flatten().next().unwrap()
    );
    println!("  max round : {}", report.max_round);
    println!("  messages  : {}", report.messages);
    println!(
        "  monitor   : {} checks, {} violations",
        monitor.checks, monitor.violations_total
    );
    if report.shun_pairs.is_empty() {
        println!("  shunning  : none needed");
    }
    for (shunner, shunned) in &report.shun_pairs {
        println!("  shunning  : {shunner} → {shunned}");
    }
    println!();
}

/// One statically-faulted process over the benign baseline plan.
fn faulted(name: &str, seed: u64, role: Role) -> ScenarioPlan {
    ScenarioPlan {
        roles: vec![(Pid::new(4), role)],
        monitor: true,
        ..ScenarioPlan::new(name, 4, 1, seed)
    }
}

fn main() {
    run(faulted("fail-silent p4", 11, Role::Silent));
    run(faulted(
        "p4 crashes after 2000 deliveries",
        12,
        Role::Crash { after: 2000 },
    ));
    run(faulted(
        "p4 forges reconstruction points (Example-1 attack, repeated)",
        13,
        Role::LyingShares { delta: 7 },
    ));
    run(faulted("p4 flips every vote bit", 14, Role::FlippedVotes));

    // Compound plans are one literal too: a partition that would outlive
    // the run, healed by a timed event, then a crash once voting reaches
    // round 2 — things a per-process role alone cannot express.
    run(ScenarioPlan {
        layers: vec![SchedLayer::WindowPartition {
            group_a: vec![Pid::new(1), Pid::new(2)],
            from: 30,
            until: 5_000,
            base: 6,
        }],
        events: vec![
            PlanEvent {
                at: Trigger::AtDelivery(95_000),
                action: Action::HealPartitions,
            },
            PlanEvent {
                at: Trigger::AtRound(2),
                action: Action::Crash {
                    p: Pid::new(4),
                    down_for: Some(600),
                },
            },
        ],
        monitor: true,
        ..ScenarioPlan::new("partition heals mid-run, then p4 crashes", 4, 1, 7)
    });
}
