//! The five workloads: input generation from the seed, one op run
//! untraced or traced, and the per-op correctness checks.
//!
//! An **op** is one agreement instance that every honest process has
//! decided and halted on (for `sim_mwshare_n97`: one MW-SVSS share
//! session completed at every process). Everything here reaches the
//! system through `sba`'s public API only.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sba::field::Domain;
use sba::net::{MwId, Outbox};
use sba::scenario::{ScenarioPlan, Zoo};
use sba::sim::threaded::ThreadedStats;
use sba::sim::{schedulers, Metrics, Process, Scheduler, SimMsg, Simulation};
use sba::svss::SvssMsg;
use sba::{
    run_plan, AbaMsg, ClusterProcess, Field, Gf61, Params, Pid, RuntimeKind, SvssEngine, SvssEvent,
};

use crate::span::{aggregate, OpSpans, Span, Spanned, FAMILIES};

/// The cluster's wire message.
pub type Msg = AbaMsg<Gf61>;

/// Event budget of one simulated op (a run that hits it has failed).
const SIM_EVENT_LIMIT: u64 = 4_000_000_000;
/// Wall-clock budget of one system-runtime op.
const RUNTIME_WALL_LIMIT: Duration = Duration::from_secs(30);

/// What a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulator, full SCC agreement, every repetition the same seed.
    SimScc,
    /// Simulator, full SCC agreement with one Byzantine or crashing
    /// process, op `i` on seed `seed + i`.
    SimSccFaults,
    /// Simulator, one moderated MW-SVSS share session, every
    /// repetition the same seed.
    SimMwShare,
    /// A system runtime through `run_plan`, op `i` on seed `seed + i`.
    Runtime(RuntimeKind),
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name used on the command line and in every result.
    pub name: &'static str,
    /// Why this workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Default `--seed`.
    pub seed: u64,
    /// A seed kept out of development, for later claims.
    pub held_out_seed: u64,
    /// Processes.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// What it runs.
    pub kind: Kind,
    /// Ops of a `--quick` run.
    pub quick_ops: u64,
    /// A legacy gauge this workload reproduces: `(seed, msgs_per_op)`.
    pub legacy_pin: Option<(u64, u64)>,
    /// Callback spans to preallocate per process of a traced op.
    span_capacity: usize,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_scc_n7",
        why: "n=7 full-SCC agreement in the simulator: every layer works in its paper proportions; the run whose drift the ROADMAP wants attributed",
        seed: 15,
        held_out_seed: 9_015,
        n: 7,
        t: 2,
        kind: Kind::SimScc,
        quick_ops: 1,
        // `scc_larger_system.messages` of `BENCH_4.json` … `BENCH_9.json`.
        legacy_pin: Some((15, 8_049_900)),
        span_capacity: 1 << 15,
    },
    Workload {
        name: "sim_mwshare_n97",
        why: "n=97 MW-SVSS share: multi-word sets, set codec, RbMux slabs and a deep queue dominate while coin and aba idle, so a coin/aba change must not show here",
        seed: 15,
        held_out_seed: 9_097,
        n: 97,
        t: 32,
        kind: Kind::SimMwShare,
        quick_ops: 1,
        legacy_pin: None,
        span_capacity: 1 << 16,
    },
    Workload {
        name: "socket_scc_n4",
        why: "n=4 SCC over loopback TCP: the only workload where frames are encoded, cross the kernel and are decoded, with reader threads and quiescence on the path",
        seed: 100,
        held_out_seed: 9_100,
        n: 4,
        t: 1,
        kind: Kind::Runtime(RuntimeKind::Socket),
        quick_ops: 10,
        legacy_pin: None,
        span_capacity: 1 << 12,
    },
    Workload {
        name: "threaded_scc_n4",
        why: "the same plan over in-process channels, codec and TCP bypassed: the control for socket_scc_n4, where a codec or transport gain must not show",
        seed: 100,
        held_out_seed: 9_100,
        n: 4,
        t: 1,
        kind: Kind::Runtime(RuntimeKind::Threaded),
        quick_ops: 10,
        legacy_pin: None,
        span_capacity: 1 << 12,
    },
    Workload {
        name: "sim_scc_n4_faults",
        why: "n=4 SCC with a lying, equivocating, vote-flipping, silent or crash-recovering process: detection, shunning, forged points and multi-round ABA carry the load",
        seed: 1,
        held_out_seed: 9_001,
        n: 4,
        t: 1,
        kind: Kind::SimSccFaults,
        quick_ops: 10,
        legacy_pin: None,
        span_capacity: 1 << 14,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own input generator (the program under
/// test never sees it, only the inputs it produces).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated inputs of one cluster op.
#[derive(Clone, Debug)]
pub struct ClusterOp {
    /// The plan (n, t, seed, coin, roles); the simulator runs its
    /// `cluster_config()`, the system runtimes run it through
    /// `run_plan`.
    pub plan: ScenarioPlan,
    /// Proposal of each process.
    pub inputs: Vec<Option<bool>>,
    /// The bit every honest process must decide, when the inputs force
    /// one.
    pub pin: Option<bool>,
}

impl Workload {
    /// The inputs of op `i` of a run on `seed`.
    pub fn cluster_op(&self, seed: u64, i: u64) -> ClusterOp {
        let n = self.n;
        match self.kind {
            Kind::SimScc => {
                // Split inputs that still pin the run's shape: with two
                // dissenters among seven, every n−t = 5 reports carry a
                // 3:2 majority for the same bit, so every candidate and
                // vote equals it and round 1 decides — no seed draws a
                // two-round, twice-as-long op. Who dissents, and the
                // bit, come from the seed.
                let bit = splitmix(seed) & 1 == 0;
                let a = (splitmix(seed ^ 0xA) % n as u64) as usize;
                let b = (a + 1 + (splitmix(seed ^ 0xB) % (n as u64 - 1)) as usize) % n;
                let inputs = (0..n).map(|k| Some((k == a || k == b) != bit)).collect();
                ClusterOp {
                    plan: ScenarioPlan::new(self.name, n, self.t, seed),
                    inputs,
                    pin: Some(bit),
                }
            }
            Kind::SimSccFaults => {
                let op_seed = seed.wrapping_add(i);
                let bad = Pid::new((i % n as u64) as u32 + 1);
                let role = match i % 5 {
                    0 => sba::Role::LyingShares { delta: 1 },
                    1 => sba::Role::Equivocating,
                    2 => sba::Role::FlippedVotes,
                    3 => sba::Role::Silent,
                    _ => sba::Role::CrashRecover {
                        after: 300,
                        down_for: 500,
                    },
                };
                let bit = splitmix(op_seed) & 1 == 0;
                let split = (i / 5).is_multiple_of(2);
                let inputs: Vec<Option<bool>> = (0..n)
                    .map(|k| Some(if split { (k % 2 == 0) == bit } else { bit }))
                    .collect();
                let mut plan = ScenarioPlan::new(self.name, n, self.t, op_seed);
                plan.roles.push((bad, role));
                // Validity pins the decision when every process that is
                // expected to decide proposed the same bit.
                let crash_only = matches!(plan.roles[0].1, sba::Role::CrashRecover { .. });
                let mut deciders = (0..n)
                    .filter(|&k| crash_only || Pid::new(k as u32 + 1) != bad)
                    .map(|k| inputs[k]);
                let first = deciders.next().flatten();
                let pin = first.filter(|_| deciders.all(|v| v == first));
                ClusterOp { plan, inputs, pin }
            }
            Kind::Runtime(_) => {
                let op_seed = seed.wrapping_add(i);
                let bit = splitmix(op_seed) & 1 == 0;
                ClusterOp {
                    plan: Zoo::Benign.plan(n, self.t, op_seed),
                    inputs: vec![Some(bit); n],
                    pin: Some(bit),
                }
            }
            Kind::SimMwShare => unreachable!("the MW share op has no cluster inputs"),
        }
    }
}

/// What the benchmark needs to know about one finished op.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// Why the op failed, if it did. A failed op counts in `failed` and
    /// is excluded from every median.
    pub failure: Option<String>,
    /// Time to build the op's world before its clock starts.
    pub setup_s: f64,
    /// Wall time from start of run to every honest process decided and
    /// the run ended.
    pub op_s: f64,
    /// Messages sent.
    pub msgs: u64,
    /// Wire bytes sent.
    pub bytes: u64,
    /// What must repeat exactly across repetitions of one seed.
    pub fingerprint: Vec<u64>,
    /// Per-layer values of this op (traced ops only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Batches captured by the span wrappers (traced ops only).
    pub batches: Batches,
    /// Leading callback spans `(pid, span)`, for the trace file.
    pub sample_spans: Vec<(u32, Span)>,
    /// Run-span aggregate (traced ops only).
    pub spans: Option<OpSpans>,
}

/// Delivered batches sampled by the span wrappers: probe input.
#[derive(Clone, Debug, Default)]
pub enum Batches {
    /// Untraced op: nothing captured.
    #[default]
    None,
    /// Batches of cluster messages.
    Cluster(Vec<Vec<Msg>>),
    /// Batches of SVSS messages (`sim_mwshare_n97`).
    Svss(Vec<Vec<SvssMsg<Gf61>>>),
}

/// How many leading spans per process go to the trace file.
const SAMPLE_SPANS_PER_PROC: usize = 64;

/// One finished simulator run.
struct SimRun<M, P> {
    sim: Simulation<M, P>,
    all_done: bool,
    setup_s: f64,
    /// Run span, in nanoseconds since the epoch.
    run: (u64, u64),
}

/// Builds the simulation (the caller built `procs` after taking
/// `epoch`, so set-up covers both) and runs it until every process is
/// done.
fn run_sim<M: SimMsg, P: Process<M>>(
    epoch: Instant,
    procs: Vec<P>,
    scheduler: Box<dyn Scheduler<M>>,
    seed: u64,
) -> SimRun<M, P> {
    let mut sim = Simulation::new(procs, scheduler, seed);
    let start = epoch.elapsed();
    let outcome = sim.run_until_all_done(SIM_EVENT_LIMIT);
    let end = epoch.elapsed();
    SimRun {
        sim,
        all_done: outcome.all_done,
        setup_s: start.as_secs_f64(),
        run: (start.as_nanos() as u64, end.as_nanos() as u64),
    }
}

fn wrap<P, M>(procs: Vec<P>, epoch: Instant, capacity: usize, seed: u64) -> Vec<Spanned<P, M>> {
    procs
        .into_iter()
        .enumerate()
        .map(|(k, p)| Spanned::new(p, epoch, capacity, splitmix(seed ^ k as u64)))
        .collect()
}

/// Folds the simulator's `Metrics` into the op: end-to-end counts
/// always, the `sim.*` / `traffic.*` ledger rows for traced ops.
fn absorb_metrics(op: &mut Op, m: &Metrics, traced: bool) {
    op.msgs = m.messages_sent;
    op.bytes = m.bytes_sent;
    op.fingerprint
        .extend([m.messages_sent, m.bytes_sent, m.virtual_time]);
    if !traced {
        return;
    }
    let l = &mut op.layers;
    l.insert("sim.events", m.events as f64);
    l.insert("sim.batches", m.batches_sent as f64);
    l.insert(
        "sim.msgs_per_batch",
        m.messages_sent as f64 / m.batches_sent.max(1) as f64,
    );
    l.insert("sim.self_delivery_batches", m.self_delivery_batches as f64);
    l.insert("sim.peak_inflight_msgs", m.inflight_peak_msgs as f64);
    l.insert("sim.peak_inflight_bytes", m.inflight_peak_bytes as f64);
    l.insert("sim.op_vticks", m.virtual_time as f64);
    const MSGS: [&str; 5] = [
        "traffic.rb.msgs",
        "traffic.mw.msgs",
        "traffic.svss.msgs",
        "traffic.coin.msgs",
        "traffic.aba.msgs",
    ];
    const BYTES: [&str; 5] = [
        "traffic.rb.bytes",
        "traffic.mw.bytes",
        "traffic.svss.bytes",
        "traffic.coin.bytes",
        "traffic.aba.bytes",
    ];
    for (k, family) in FAMILIES.iter().enumerate() {
        let (msgs, bytes) = m.sent_with_prefix(&format!("{family}/"));
        l.insert(MSGS[k], msgs as f64);
        l.insert(BYTES[k], bytes as f64);
    }
}

/// Folds a traced op's span tree into the op. `under` names the layer
/// the callbacks enter (`aba` for clusters, `svss` for the MW share).
fn absorb_spans<P, M>(
    op: &mut Op,
    run: (u64, u64),
    procs: &[&Spanned<P, M>],
    under: [&'static str; 3],
    sim: bool,
) {
    let agg = aggregate(run, procs.iter().map(|p| p.spans()));
    let l = &mut op.layers;
    l.insert(under[0], agg.callback_s);
    l.insert(under[1], agg.calls as f64);
    l.insert(under[2], agg.callback_s * 1e9 / agg.calls.max(1) as f64);
    const HANDLE: [&str; 5] = [
        "handle.rb.s",
        "handle.mw.s",
        "handle.svss.s",
        "handle.coin.s",
        "handle.aba.s",
    ];
    for (name, s) in HANDLE.iter().zip(agg.handle_s) {
        l.insert(name, s);
    }
    l.insert("trace.spans", (agg.calls + 1) as f64);
    if sim {
        l.insert("sim.self_s", agg.run_self_s);
        l.insert(
            "sim.self_ns_per_msg",
            agg.run_self_s * 1e9 / op.msgs.max(1) as f64,
        );
    }
    for (k, p) in procs.iter().enumerate() {
        let head = p.spans().iter().take(SAMPLE_SPANS_PER_PROC);
        op.sample_spans.extend(head.map(|s| (k as u32 + 1, *s)));
    }
    op.spans = Some(agg);
}

/// Reads decisions, rounds, shun pairs and engine gauges off a finished
/// cluster's process table and checks the op's outcome.
fn inspect_cluster<'a>(
    op: &mut Op,
    spec: &ClusterOp,
    procs: impl Iterator<Item = &'a ClusterProcess>,
    traced: bool,
) {
    let faulty: Vec<Pid> = spec.plan.roles.iter().map(|(p, _)| *p).collect();
    let (mut rounds_max, mut shuns) = (0u32, 0u64);
    let (mut sessions, mut rb_peak, mut rb_retired, mut mw_machines) = (0, 0, 0, 0);
    let mut decided: Option<bool> = None;
    let mut failure: Option<String> = None;
    let mut fail = |why: String| {
        failure.get_or_insert(why);
    };
    for (k, p) in procs.enumerate() {
        let pid = Pid::new(k as u32 + 1);
        if let Some(coin) = p.node().and_then(|node| node.coin()) {
            let (live, _, gone) = coin.session_stats();
            sessions += live + gone;
            let (_, peak, retired) = coin.rb_instance_stats();
            rb_peak += peak;
            rb_retired += retired;
            mw_machines += coin.svss().mw_machine_count();
        }
        if !p.is_honest() {
            continue;
        }
        let node = p.node().expect("an honest process has a node");
        let decision = node.decision(0);
        op.fingerprint.push(match decision {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        match decision {
            None => fail(format!("{pid:?} did not decide")),
            Some(d) => {
                if *decided.get_or_insert(d) != d {
                    fail(format!("agreement violated at {pid:?}"));
                }
                if spec.pin.is_some_and(|pin| pin != d) {
                    fail(format!("{pid:?} decided {d} against the pinned bit"));
                }
            }
        }
        rounds_max = rounds_max.max(node.decision_round(0).unwrap_or(0));
        for ev in p.events().unwrap_or(&[]) {
            if let sba::AbaEvent::Shunned { process } = ev {
                shuns += 1;
                if !faulty.contains(process) {
                    fail(format!("{pid:?} shunned honest {process:?}"));
                }
            }
        }
    }
    if op.failure.is_none() {
        op.failure = failure;
    }
    if traced {
        let l = &mut op.layers;
        l.insert("aba.rounds_mean", f64::from(rounds_max));
        l.insert("aba.rounds_max", f64::from(rounds_max));
        l.insert("svss.shun_pairs", shuns as f64);
        l.insert("coin.sessions", sessions as f64);
        l.insert("coin.rb_live_peak", rb_peak as f64);
        l.insert("coin.rb_retired", rb_retired as f64);
        l.insert("svss.mw_machines", mw_machines as f64);
    }
}

/// One simulated cluster op (`sim_scc_n7`, `sim_scc_n4_faults`).
fn sim_cluster_op(w: &Workload, spec: &ClusterOp, traced: bool) -> Op {
    let mut op = Op::default();
    let seed = spec.plan.seed;
    let epoch = Instant::now();
    // The plan's one layer is `Cluster::new`'s scheduler: uniform virtual
    // delays of up to 20 ticks. No real delay is injected anywhere.
    let scheduler = spec.plan.layers[0].build();
    let (procs, _) = spec.plan.cluster_config().processes(&spec.inputs);
    if traced {
        let procs = wrap::<_, Msg>(procs, epoch, w.span_capacity, seed);
        let mut run = run_sim(epoch, procs, scheduler, seed);
        finish_sim(&mut op, &run, true);
        inspect_cluster(&mut op, spec, run.sim.processes().map(Spanned::inner), true);
        let under = ["aba.inclusive_s", "aba.calls", "aba.ns_per_call"];
        let spanned: Vec<_> = run.sim.processes().collect();
        absorb_spans(&mut op, run.run, &spanned, under, true);
        op.batches = Batches::Cluster(
            Pid::all(w.n)
                .flat_map(|p| run.sim.process_mut(p).take_batches())
                .collect(),
        );
    } else {
        let run = run_sim(epoch, procs, scheduler, seed);
        finish_sim(&mut op, &run, false);
        inspect_cluster(&mut op, spec, run.sim.processes(), false);
    }
    op
}

/// The part of a simulated op's bookkeeping that does not depend on the
/// process type.
fn finish_sim<M: SimMsg, P: Process<M>>(op: &mut Op, run: &SimRun<M, P>, traced: bool) {
    op.setup_s = run.setup_s;
    op.op_s = (run.run.1 - run.run.0) as f64 / 1e9;
    if !run.all_done {
        op.failure = Some("not every process finished within the event limit".into());
    }
    absorb_metrics(op, run.sim.metrics(), traced);
}

/// One process of the MW share workload: an `SvssEngine` driven as a
/// simulator process through a single moderated MW-SVSS share session
/// (dealer p1, moderator p2) — experiment e13's unit workload.
struct MwShareProc {
    engine: SvssEngine<Gf61>,
    id: MwId,
    secret: Gf61,
    sends: Vec<(Pid, SvssMsg<Gf61>)>,
    completed: bool,
    shunned: u64,
}

impl MwShareProc {
    fn flush(&mut self, out: &mut Outbox<SvssMsg<Gf61>>) {
        for (to, m) in self.sends.drain(..) {
            out.send(to, m);
        }
        for ev in self.engine.take_events() {
            match ev {
                SvssEvent::MwShareCompleted(id) if id == self.id => self.completed = true,
                SvssEvent::Shunned { .. } => self.shunned += 1,
                _ => {}
            }
        }
    }
}

impl Process<SvssMsg<Gf61>> for MwShareProc {
    fn on_start(&mut self, out: &mut Outbox<SvssMsg<Gf61>>) {
        if self.engine.me() == self.id.dealer() {
            self.engine.mw_share(self.id, self.secret, &mut self.sends);
        }
        if self.engine.me() == self.id.moderator() {
            self.engine
                .mw_set_moderator_input(self.id, self.secret, &mut self.sends);
        }
        self.flush(out);
    }

    fn on_message(&mut self, from: Pid, msg: SvssMsg<Gf61>, out: &mut Outbox<SvssMsg<Gf61>>) {
        self.engine.on_message(from, msg, &mut self.sends);
        self.flush(out);
    }

    fn on_batch(
        &mut self,
        from: Pid,
        msgs: &mut Vec<SvssMsg<Gf61>>,
        out: &mut Outbox<SvssMsg<Gf61>>,
    ) {
        self.engine.on_batch(from, msgs, &mut self.sends);
        self.flush(out);
    }

    fn done(&self) -> bool {
        self.completed
    }
}

/// The process table of one MW share op.
fn mwshare_procs(w: &Workload, seed: u64) -> Vec<MwShareProc> {
    let params = Params::new(w.n, w.t).expect("n > 3t");
    let id = MwId::standalone(1, Pid::new(1), Pid::new(2));
    let secret = Gf61::from_u64(splitmix(seed) >> 4);
    // One shared domain, as the coin engine shares one per process: the
    // per-engine difference tables are O(n²) to build.
    let domain: Arc<Domain<Gf61>> = Arc::new(Domain::new(w.n));
    Pid::all(w.n)
        .map(|p| MwShareProc {
            engine: SvssEngine::with_domain(
                p,
                params,
                seed ^ (u64::from(p.index()) << 32),
                Arc::clone(&domain),
            ),
            id,
            secret,
            sends: Vec::new(),
            completed: false,
            shunned: 0,
        })
        .collect()
}

/// One MW share op (`sim_mwshare_n97`).
fn sim_mwshare_op(w: &Workload, seed: u64, traced: bool) -> Op {
    let mut op = Op::default();
    let epoch = Instant::now();
    let procs = mwshare_procs(w, seed);
    let scheduler = schedulers::uniform(8);
    let flag_shunned = |op: &mut Op, shunned: bool| {
        if shunned && op.failure.is_none() {
            op.failure = Some("an honest process was shunned".into());
        }
    };
    if traced {
        let procs = wrap::<_, SvssMsg<Gf61>>(procs, epoch, w.span_capacity, seed);
        let mut run = run_sim(epoch, procs, scheduler, seed);
        finish_sim(&mut op, &run, true);
        let under = ["svss.inclusive_s", "svss.calls", "svss.ns_per_call"];
        let spanned: Vec<_> = run.sim.processes().collect();
        absorb_spans(&mut op, run.run, &spanned, under, true);
        let engines = run.sim.processes().map(|p| &p.inner().engine);
        let mw: usize = engines.map(SvssEngine::mw_machine_count).sum();
        op.layers.insert("svss.mw_machines", mw as f64);
        op.batches = Batches::Svss(
            Pid::all(w.n)
                .flat_map(|p| run.sim.process_mut(p).take_batches())
                .collect(),
        );
        flag_shunned(&mut op, run.sim.processes().any(|p| p.inner().shunned > 0));
    } else {
        let run = run_sim(epoch, procs, scheduler, seed);
        finish_sim(&mut op, &run, false);
        flag_shunned(&mut op, run.sim.processes().any(|p| p.shunned > 0));
    }
    op
}

/// Folds `ThreadedStats` into the op and checks the run ended cleanly.
/// `wall_s` runs from before the process table was built to the return
/// of the runtime's run call; what `elapsed` does not cover of it is the
/// table, the channels or the loopback mesh: the op's set-up.
fn absorb_stats(op: &mut Op, stats: &ThreadedStats, wall_s: f64) {
    op.op_s = stats.elapsed.as_secs_f64();
    op.setup_s = wall_s - op.op_s;
    op.msgs = stats.messages;
    op.bytes = stats.bytes;
    if !stats.all_done {
        op.failure = Some("not every process finished within the wall limit".into());
    } else if stats.dropped > 0 {
        op.failure = Some(format!("{} messages dropped", stats.dropped));
    }
}

/// Hands a process table to a system runtime.
fn run_runtime<P: Process<Msg> + 'static>(
    kind: RuntimeKind,
    procs: Vec<P>,
) -> Result<(Vec<P>, ThreadedStats), String> {
    match kind {
        RuntimeKind::Threaded => Ok(sba::sim::threaded::run(procs, RUNTIME_WALL_LIMIT)),
        RuntimeKind::Socket => sba::sim::socket::run(procs, RUNTIME_WALL_LIMIT)
            .map_err(|e| format!("socket set-up failed: {e}")),
    }
}

/// One system-runtime op (`socket_scc_n4`, `threaded_scc_n4`): the
/// plan's process table handed to the runtime directly, wrapped in spans
/// or not, and checked when the run has ended. `run_plan` builds the
/// same table but keeps it (and its per-batch decision watch) to itself,
/// so it is the run's cross-check ([`Workload::watched_op`]), not the
/// timed path: traced and untraced ops must differ in the span wrapper
/// alone, and the finished world must be dropped outside `setup_s`.
fn runtime_op(w: &Workload, kind: RuntimeKind, spec: &ClusterOp, traced: bool) -> Op {
    let mut op = Op::default();
    let epoch = Instant::now();
    let (procs, _) = spec.plan.cluster_config().processes(&spec.inputs);
    if !traced {
        match run_runtime(kind, procs) {
            Ok((procs, stats)) => {
                absorb_stats(&mut op, &stats, epoch.elapsed().as_secs_f64());
                inspect_cluster(&mut op, spec, procs.iter(), false);
            }
            Err(why) => op.failure = Some(why),
        }
        return op;
    }
    let procs = wrap::<_, Msg>(procs, epoch, w.span_capacity, spec.plan.seed);
    let result = run_runtime(kind, procs);
    let end = epoch.elapsed();
    let (mut procs, stats) = match result {
        Ok(done) => done,
        Err(why) => {
            op.failure = Some(why);
            return op;
        }
    };
    absorb_stats(&mut op, &stats, end.as_secs_f64());
    inspect_cluster(&mut op, spec, procs.iter().map(Spanned::inner), true);
    // The run span is the runtime's own clock: it starts after the
    // socket mesh is built and ends when every thread has joined.
    let run_end = end.as_nanos() as u64;
    let run = (
        run_end.saturating_sub(stats.elapsed.as_nanos() as u64),
        run_end,
    );
    let under = ["aba.inclusive_s", "aba.calls", "aba.ns_per_call"];
    absorb_spans(
        &mut op,
        run,
        &procs.iter().collect::<Vec<_>>(),
        under,
        false,
    );
    let agg = op.spans.expect("absorb_spans sets the aggregate");
    let l = &mut op.layers;
    l.insert("runtime.batches", stats.batches as f64);
    l.insert(
        "runtime.msgs_per_batch",
        stats.messages as f64 / stats.batches.max(1) as f64,
    );
    l.insert("runtime.dropped", stats.dropped as f64);
    l.insert(
        "runtime.busy_share",
        agg.callback_s / (agg.run_s * w.n as f64),
    );
    op.batches = Batches::Cluster(procs.iter_mut().flat_map(Spanned::take_batches).collect());
    op
}

impl Workload {
    /// Runs op `i` of a run on `seed`, traced or not.
    pub fn run_op(&self, seed: u64, i: u64, traced: bool) -> Op {
        match self.kind {
            Kind::SimScc | Kind::SimSccFaults => {
                sim_cluster_op(self, &self.cluster_op(seed, i), traced)
            }
            Kind::SimMwShare => sim_mwshare_op(self, seed, traced),
            Kind::Runtime(kind) => runtime_op(self, kind, &self.cluster_op(seed, i), traced),
        }
    }

    /// The cross-check of a runtime workload: op 0 of a run on `seed`
    /// once more through `run_plan`, whose decision watch re-checks
    /// agreement, decision stability and validity after every delivered
    /// batch (the timed ops check at their end). `Ok` carries the number
    /// of checks the watch made; `None` for the simulator workloads.
    pub fn watched_op(&self, seed: u64) -> Option<Result<u64, String>> {
        let Kind::Runtime(kind) = self.kind else {
            return None;
        };
        let spec = self.cluster_op(seed, 0);
        let checked = run_plan(kind, &spec.plan, &spec.inputs, RUNTIME_WALL_LIMIT)
            .map_err(|e| format!("socket set-up failed: {e}"))
            .and_then(|report| {
                let pinned = report
                    .decisions
                    .iter()
                    .flatten()
                    .all(|&d| Some(d) == spec.pin);
                if !report.stats.all_done || report.stats.dropped > 0 {
                    Err("the watched op did not end cleanly".into())
                } else if !report.ok() {
                    Err(format!(
                        "the decision watch saw {} violations",
                        report.violations_total
                    ))
                } else if !(report.all_decided() && report.agreement() && pinned) {
                    Err("the watched op broke agreement or validity".into())
                } else {
                    Ok(report.checks)
                }
            });
        Some(checked)
    }

    /// Whether repetitions of one run repeat one seed (and so must be
    /// bit-identical).
    pub fn repeats_one_seed(&self) -> bool {
        matches!(self.kind, Kind::SimScc | Kind::SimMwShare)
    }

    /// Whether the workload runs in the deterministic simulator.
    pub fn is_sim(&self) -> bool {
        !matches!(self.kind, Kind::Runtime(_))
    }
}
