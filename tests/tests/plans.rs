//! Property tests for the [`ScenarioPlan`] fault-plan DSL: any
//! generated plan must survive the flat key/value artifact encoding
//! (`to_kv` → `from_kv` is the identity) and, once rebuilt, drive a
//! bit-identical cluster — the digest of a bounded run from the
//! decoded plan equals the original's. That is the property the whole
//! record/replay/fork-corpus pipeline rests on: an artifact carries its
//! full environment, not an approximation of it.

use proptest::prelude::*;
use sba::{Action, Pid, PlanCoin, PlanEvent, Role, ScenarioPlan, SchedLayer, Trigger};

/// Decodes a bitmask into an ascending pid group over `1..=n`,
/// guaranteeing at least one member (the encoding stores groups as
/// bitmasks, decoded ascending — generating them ascending keeps the
/// equality check honest rather than canonicalizing on the way back).
fn group_from_mask(mask: u32, n: usize) -> Vec<Pid> {
    let picked: Vec<Pid> = (1..=n as u32)
        .filter(|i| mask & (1 << (i - 1)) != 0)
        .map(Pid::new)
        .collect();
    if picked.is_empty() {
        vec![Pid::new(1)]
    } else {
        picked
    }
}

/// One scheduler layer from raw generated integers, respecting every
/// constructor's argument contract (positive delays, window >= 2, ...).
fn layer_from(kind: u8, a: u64, b: u64, c: u64, mask: u32, n: usize) -> SchedLayer {
    match kind % 9 {
        0 => SchedLayer::Uniform {
            max_delay: 1 + a % 40,
        },
        1 => SchedLayer::Fifo,
        2 => SchedLayer::HealedPartition {
            group_a: group_from_mask(mask, n),
            heal_at: a % 3000,
            base: 1 + b % 10,
        },
        3 => SchedLayer::LossRetransmit {
            loss_permille: (a % 500) as u32,
            rto: 1 + b % 100,
            max_retries: (c % 4) as u32,
            base: 1 + c % 10,
        },
        4 => SchedLayer::Rushing {
            target: Pid::new(1 + (a % n as u64) as u32),
            window: 2 + b % 50,
        },
        5 => {
            let base = 1 + a % 10;
            SchedLayer::HeavyTail {
                base,
                cap: base + b % 1000,
            }
        }
        6 => {
            let from = a % 1000;
            SchedLayer::WindowPartition {
                group_a: group_from_mask(mask, n),
                from,
                until: from + 1 + b % 3000,
                base: 1 + c % 10,
            }
        }
        7 => SchedLayer::Skewed {
            max_delay: 1 + a % 40,
        },
        _ => SchedLayer::Lagged {
            slow: group_from_mask(mask, n),
            base: 1 + a % 10,
            factor: 1 + b % 20,
        },
    }
}

/// One non-honest role from raw generated integers.
fn role_from(kind: u8, a: u64, b: u64) -> Role {
    match kind % 6 {
        0 => Role::Silent,
        1 => Role::Crash { after: a % 2000 },
        2 => Role::CrashRecover {
            after: a % 2000,
            down_for: 1 + b % 2000,
        },
        3 => Role::LyingShares { delta: 1 + a % 50 },
        4 => Role::FlippedVotes,
        _ => Role::Equivocating,
    }
}

/// Assembles a structurally valid plan: at most `t` fault slots are
/// spent across static roles and mid-run Crash/Corrupt events, event
/// targets stay distinct and initially honest, so building and running
/// the plan cannot trip the cluster's fault-budget or honesty asserts.
#[allow(clippy::too_many_arguments)]
fn plan_from(
    n: usize,
    seed: u64,
    oracle: bool,
    monitor: bool,
    role_cfg: Option<(u8, u8, u64, u64)>,
    layer_cfgs: Vec<(u8, u64, u64, u64, u32)>,
    event_cfgs: Vec<(u8, u64, u8, u64)>,
) -> ScenarioPlan {
    let t = (n - 1) / 3;
    let mut fault_slots = t;
    let mut faulted: Vec<Pid> = Vec::new();
    let mut roles = Vec::new();
    if let Some((pid_raw, kind, a, b)) = role_cfg {
        if fault_slots > 0 {
            let p = Pid::new(1 + u32::from(pid_raw) % n as u32);
            roles.push((p, role_from(kind, a, b)));
            faulted.push(p);
            fault_slots -= 1;
        }
    }
    let layers: Vec<SchedLayer> = layer_cfgs
        .into_iter()
        .map(|(kind, a, b, c, mask)| layer_from(kind, a, b, c, mask, n))
        .collect();
    let mut events = Vec::new();
    for (trig_kind, arg, action_kind, x) in event_cfgs {
        let at = match trig_kind % 3 {
            0 => Trigger::AtTime(arg % 2000),
            1 => Trigger::AtDelivery(arg % 50_000),
            _ => Trigger::AtRound(1 + (arg % 3) as u32),
        };
        // A mid-run Crash/Corrupt needs a fault slot and a fresh,
        // initially-honest target; otherwise fall back to the only
        // always-legal action.
        let target = (1..=n as u32).map(Pid::new).find(|p| !faulted.contains(p));
        let action = match (action_kind % 3, target) {
            (1, Some(p)) if fault_slots > 0 => {
                fault_slots -= 1;
                faulted.push(p);
                Action::Crash {
                    p,
                    down_for: if x % 5 == 0 { None } else { Some(1 + x % 1000) },
                }
            }
            (2, Some(p)) if fault_slots > 0 => {
                fault_slots -= 1;
                faulted.push(p);
                Action::Corrupt {
                    p,
                    role: Role::FlippedVotes,
                }
            }
            _ => Action::HealPartitions,
        };
        events.push(PlanEvent { at, action });
    }
    ScenarioPlan {
        name: "generated".to_string(),
        n,
        t,
        seed,
        coin: if oracle {
            PlanCoin::Oracle { seed }
        } else {
            PlanCoin::Scc
        },
        roles,
        layers,
        events,
        monitor,
    }
}

proptest! {
    // Each case builds and partially runs two full clusters; keep the
    // count moderate.
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
    })]

    /// to_kv → from_kv is the identity on generated plans, and the
    /// decoded plan rebuilds a cluster whose (budget-bounded) run is
    /// bit-identical to the original's.
    #[test]
    fn generated_plans_round_trip_and_rebuild_bit_identically(
        n in 4usize..=7,
        seed in 0u64..1_000_000,
        oracle in any::<bool>(),
        monitor in any::<bool>(),
        role_cfg in proptest::option::of((any::<u8>(), any::<u8>(), any::<u64>(), any::<u64>())),
        layer_cfgs in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
            1..=3,
        ),
        event_cfgs in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u8>(), any::<u64>()),
            0..=2,
        ),
    ) {
        let plan = plan_from(n, seed, oracle, monitor, role_cfg, layer_cfgs, event_cfgs);
        let kv = plan.to_kv();
        let decoded = ScenarioPlan::from_kv(&plan.name, &kv)
            .expect("every encoded plan must decode");
        prop_assert_eq!(&decoded, &plan, "kv round-trip changed the plan");

        let mut original = plan.build();
        original.advance_until(1_500, |_| false);
        let mut rebuilt = decoded.build();
        rebuilt.advance_until(1_500, |_| false);
        prop_assert_eq!(
            original.digest(),
            rebuilt.digest(),
            "decoded plan rebuilt a different run"
        );
        prop_assert_eq!(
            original.sim().metrics(),
            rebuilt.sim().metrics(),
            "decoded plan rebuilt different metrics"
        );
    }
}
