//! Memory per MW-SVSS machine, pinned: one moderated n = 7 share runs
//! to completion under a counting allocator, and the machines' live heap
//! is what the test binary holds beyond what it held before them. The
//! pinned SCC run holds tens of thousands of these machines, so their
//! size is most of its memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use rand::SeedableRng;
use sba_field::{Domain, Field, Gf61};
use sba_net::{MwId, Pid, SlotView};
use sba_svss::{Mw, MwIn, MwOut, SvssPriv, SvssRbValue};

/// The system allocator, counting the bytes it has handed out and not
/// yet taken back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both calls are forwarded unchanged to `System` under the
// caller's own contract; the counter only observes them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 7;
const T: usize = 2;

/// What `from`'s machine emitted, as the inputs it becomes at each
/// recipient: private messages go to one process, and a broadcast is
/// delivered to all (reliable broadcast itself is not under test).
fn route(
    from: Pid,
    out: MwOut<Gf61>,
    domain: &Domain<Gf61>,
    queue: &mut VecDeque<(Pid, MwIn<Gf61>)>,
) {
    match out {
        MwOut::Send(to, SvssPriv::MwDeal { deal, .. }) => {
            // The engine's splice: the wire body omits `to`'s own value.
            let own = sba_field::Poly::from_coeffs(deal.monitor_poly.clone())
                .eval(domain.point(to.as_u64()));
            let mut values = deal.others;
            values.insert((to.index() - 1) as usize, own);
            let input = MwIn::Deal {
                from,
                values,
                monitor_poly: deal.monitor_poly,
                moderator_poly: deal.moderator_poly,
            };
            queue.push_back((to, input));
        }
        MwOut::Send(to, SvssPriv::MwPoint { value, .. }) => {
            queue.push_back((to, MwIn::Point { from, value }));
        }
        MwOut::Send(to, SvssPriv::MwMonitorValue { value, .. }) => {
            queue.push_back((to, MwIn::MonitorValue { from, value }));
        }
        MwOut::Broadcast(slot, value) => {
            for to in Pid::all(N) {
                let input = match (slot.view(), &value) {
                    (SlotView::MwAck(_), _) => MwIn::AckDelivered { origin: from },
                    (SlotView::MwL(_), SvssRbValue::Set(set)) => MwIn::LDelivered {
                        origin: from,
                        set: *set,
                    },
                    (SlotView::MwM(_), SvssRbValue::Set(set)) => MwIn::MDelivered {
                        origin: from,
                        set: *set,
                    },
                    (SlotView::MwOk(_), _) => MwIn::OkDelivered { origin: from },
                    other => panic!("a share broadcasts no {other:?}"),
                };
                queue.push_back((to, input));
            }
        }
        _ => {}
    }
}

#[test]
fn mw_machine_bytes_are_pinned() {
    let size = std::mem::size_of::<Mw<Gf61>>();
    assert!(size <= 384, "size_of::<Mw<Gf61>>() = {size} B");

    let domain = Arc::new(Domain::<Gf61>::new(N));
    let id = MwId::standalone(1, Pid::new(1), Pid::new(2));
    let secret = Gf61::from_u64(42);
    let before = LIVE.load(Relaxed);
    let mut machines: Vec<Box<Mw<Gf61>>> = Pid::all(N)
        .map(|p| Box::new(Mw::new(id, p, N, T, Arc::clone(&domain))))
        .collect();
    {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut queue = VecDeque::new();
        let mut outs = Vec::new();
        machines[0].start_share(secret, &mut rng, &mut outs);
        for o in outs.drain(..) {
            route(Pid::new(1), o, &domain, &mut queue);
        }
        machines[1].set_moderator_input(secret, &mut outs);
        for o in outs.drain(..) {
            route(Pid::new(2), o, &domain, &mut queue);
        }
        while let Some((to, input)) = queue.pop_front() {
            machines[(to.index() - 1) as usize].on_input(input, &mut outs);
            for o in outs.drain(..) {
                route(to, o, &domain, &mut queue);
            }
        }
    }
    assert!(
        machines.iter().all(|m| m.share_completed()),
        "the share completes at every process"
    );
    let per_machine = (LIVE.load(Relaxed) - before) / N;
    assert!(
        per_machine <= 700,
        "{per_machine} B of live heap per completed MW machine"
    );
}
