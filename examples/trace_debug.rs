//! Protocol observability: run a reliable broadcast with delivery tracing
//! enabled and print the message-flow timeline — the tool you reach for
//! when a schedule misbehaves.
//!
//! The broadcast runs the way the SVSS engine runs one: an `RbMux` over
//! SVSS slots whose messages travel as the stack's wire messages. Its
//! one value is a reconstruct point, so the trace labels each step
//! `rb/init`, `rb/echo` or `rb/ready`.
//!
//! ```sh
//! cargo run -p sba-examples --example trace_debug
//! ```

use sba::broadcast::{MuxMsg, RbDelivery, RbMux};
use sba::field::{Field, Gf61};
use sba::net::{MwId, Outbox, Pid, SlotView, Unpacked};
use sba::sim::{Process, SchedLayer, Simulation};
use sba::svss::{SvssMsg, SvssRbValue, SvssSlot};
use sba::Params;

type Msg = SvssMsg<Gf61>;
type Value = SvssRbValue<Gf61>;

/// The slot of tag `tag`: the reconstruct-point slot of MW session `tag`.
fn slot(tag: u32) -> SvssSlot {
    let mw = MwId::standalone(u64::from(tag), Pid::new(1), Pid::new(2));
    SvssSlot::mw_recon(mw, Pid::new(1))
}

/// Broadcasts one value (p1 only) and records deliveries.
struct Node {
    mux: RbMux<SvssSlot, Value>,
    is_dealer: bool,
    delivered: Vec<RbDelivery<SvssSlot, Value>>,
}

impl Process<Msg> for Node {
    fn on_start(&mut self, out: &mut Outbox<Msg>) {
        if self.is_dealer {
            let mut sends = Vec::new();
            let value = SvssRbValue::Value(Gf61::from_u64(42));
            self.mux.broadcast_with(slot(1), value, &mut sends, Msg::rb);
            for (to, m) in sends {
                out.send(to, m);
            }
        }
    }
    fn on_message(&mut self, from: Pid, msg: Msg, out: &mut Outbox<Msg>) {
        let Unpacked::Rb {
            slot,
            origin,
            step,
            value,
        } = msg.unpack()
        else {
            unreachable!("only the broadcast's own steps are sent");
        };
        let mut sends = Vec::new();
        let routed = [MuxMsg::new(slot, origin, step, value)];
        self.mux
            .on_batch_with(from, routed, &mut sends, Msg::rb, &mut self.delivered);
        for (to, m) in sends {
            out.send(to, m);
        }
    }
    fn done(&self) -> bool {
        !self.delivered.is_empty()
    }
}

fn main() {
    let params = Params::new(4, 1).unwrap();
    let procs: Vec<Node> = (1..=4u32)
        .map(|i| Node {
            mux: RbMux::new(Pid::new(i), params),
            is_dealer: i == 1,
            delivered: Vec::new(),
        })
        .collect();
    let mut sim = Simulation::new(procs, SchedLayer::Skewed { max_delay: 8 }.build(), 5);
    sim.enable_trace(256);
    let outcome = sim.run_until_all_done(100_000);
    assert!(outcome.all_done);

    println!("Bracha reliable broadcast, n=4, skewed link delays.");
    println!("One line per network delivery: time, link, protocol step.\n");
    println!("{:>5}  {:>5}  {:<10} step", "sent", "recv", "link");
    for e in sim.trace() {
        println!(
            "{:>5}  {:>5}  {:<10} {}",
            e.sent,
            e.at,
            format!("{}→{}", e.from, e.to),
            e.kind
        );
    }
    let m = sim.metrics();
    println!(
        "\n{} messages, mean delivery delay {:.1} ticks (max {}), done at t={}.",
        m.messages_sent,
        m.latency_mean(),
        m.latency_max,
        m.virtual_time
    );
    println!("Deliveries per process:");
    for i in 1..=4u32 {
        let n = sim.process(Pid::new(i));
        let accepted: Vec<_> = n
            .delivered
            .iter()
            .map(|d| match (d.tag.view(), &d.value) {
                (SlotView::MwRecon(mw, _), SvssRbValue::Value(v)) => {
                    (d.origin.index(), mw.parent().tag(), v.as_u64())
                }
                _ => unreachable!("the one broadcast is a reconstruct point"),
            })
            .collect();
        println!("  p{i}: accepted {accepted:?}");
    }
}
