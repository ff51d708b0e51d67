//! Layer probes: each layer measured alone, from outside, at the
//! workload's own size and on the workload's own captured traffic.
//!
//! A probe reports what a layer costs per unit of its work; the traced
//! pass reports how much of that work an op does. Probes run after the
//! traced ops and never feed an end-to-end number.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use sba::broadcast::{MuxMsg, RbMux};
use sba::coin::{CoinEngine, CoinMsg};
use sba::field::{Domain, Poly};
use sba::net::tcp;
use sba::net::{
    decode_frame, encode_frame, frame_len, FramedWire, Kinded, Outbox, ProcessSet, Reader, SvssId,
    Wire,
};
use sba::scenario::PlanCoin;
use sba::sim::Process;
use sba::svss::harness::SvssNet;
use sba::{run_plan, Cluster, CoinMode, Field, Gf61, OracleCoin, Params, Pid, Reconstructed};

use crate::span::Spanned;
use crate::stats::median;
use crate::workloads::{Batches, Kind, Workload};

/// The probes' output: per-layer metric name → value.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Median nanoseconds per call of `f`: calibrates a repeat count so one
/// sample lasts about a millisecond, then samples until `budget` is
/// spent (at least three samples).
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1) as u64;
    let reps = (1_000_000 / once).clamp(1, 1_000_000);
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&samples)
}

/// A process that does nothing and leaves its batch where it is: what is
/// left of a callback through [`Spanned`] is the wrapper.
struct Idle;

impl<M> Process<M> for Idle {
    fn on_start(&mut self, _out: &mut Outbox<M>) {}
    fn on_message(&mut self, _from: Pid, _msg: M, _out: &mut Outbox<M>) {}
    fn on_batch(&mut self, _from: Pid, _msgs: &mut Vec<M>, _out: &mut Outbox<M>) {}
}

/// Callbacks one sample of the wrapper probe makes.
const WRAPPER_PROBE_CALLS: usize = 1 << 16;

/// `trace.self_ns_per_span`: the span wrapper around [`Idle`], fed the
/// captured batches. The part of a callback the wrapper's own span does
/// not cover — the kind histogram, the reservoir, the clock reads' outer
/// halves, the record — is what tracing books to the run span's self
/// time. Measured warm, back to back, so a lower bound of what the same
/// work costs between two protocol callbacks.
fn trace_wrapper<M: Clone + Kinded + Send>(out: &mut Ledger, batches: &[Vec<M>], reps: usize) {
    let mut batches: Vec<Vec<M>> = batches.iter().filter(|b| !b.is_empty()).cloned().collect();
    if batches.is_empty() {
        return;
    }
    let rounds = WRAPPER_PROBE_CALLS.div_ceil(batches.len());
    let calls = rounds * batches.len();
    let (from, mut outbox) = (Pid::new(2), Outbox::new(Pid::new(1)));
    let mut outside_ns = Vec::new();
    for rep in 0..reps {
        let mut wrapper = Spanned::new(Idle, Instant::now(), calls, rep as u64);
        let start = Instant::now();
        for _ in 0..rounds {
            for b in &mut batches {
                wrapper.on_batch(from, black_box(b), &mut outbox);
            }
        }
        let total = start.elapsed().as_nanos() as f64;
        let inside: f64 = wrapper.spans().iter().map(|s| f64::from(s.dur_ns)).sum();
        outside_ns.push((total - inside) / calls as f64);
    }
    out.insert("trace.self_ns_per_span", median(&outside_ns));
}

/// `net.*` frame probes over the captured batches. `codec` adds the
/// encode/decode timings (the socket workload's path); `pricing` the
/// `frame_len` timing (charged on every simulated or socket send).
fn net_frames<M: FramedWire + Clone>(
    out: &mut Ledger,
    batches: &[Vec<M>],
    budget: Duration,
    pricing: bool,
    codec: bool,
) -> Result<(), String> {
    let msgs: usize = batches.iter().map(Vec::len).sum();
    if msgs == 0 {
        return Ok(());
    }
    let bytes: usize = batches.iter().map(|b| frame_len(b)).sum();
    out.insert("net.bytes_per_msg", bytes as f64 / msgs as f64);
    out.insert("net.msgs_per_frame", msgs as f64 / batches.len() as f64);
    if pricing {
        let ns = ns_per_call(budget, || {
            for b in batches {
                black_box(frame_len(black_box(b)));
            }
        });
        out.insert("net.frame_len_ns_per_msg", ns / msgs as f64);
    }
    if codec {
        let mut buf = Vec::new();
        let ns = ns_per_call(budget, || {
            for b in batches {
                buf.clear();
                encode_frame(black_box(b), &mut buf);
                black_box(&buf);
            }
        });
        out.insert("net.encode_ns_per_msg", ns / msgs as f64);
        let mut encoded = Vec::new();
        for b in batches {
            let mut frame = Vec::new();
            encode_frame(b, &mut frame);
            if frame.len() != frame_len(b) {
                return Err("frame_len disagrees with encode_frame".into());
            }
            encoded.push((frame, b.len()));
        }
        let mut bad = false;
        let ns = ns_per_call(budget, || {
            for (frame, len) in &encoded {
                let decoded = decode_frame::<M>(&mut Reader::new(black_box(frame)));
                bad |= decoded.map_or(true, |d| d.len() != *len);
            }
        });
        if bad {
            return Err("a captured frame did not decode to its own length".into());
        }
        out.insert("net.decode_ns_per_msg", ns / msgs as f64);
    }
    Ok(())
}

/// `net.set_*`: the `ProcessSet` codec at the workload's n, averaged
/// over a sparse set (t+1 members spread over 1..=n) and the full set.
fn net_sets(out: &mut Ledger, n: usize, t: usize, budget: Duration) -> Result<(), String> {
    let stride = (n / (t + 1)).max(1);
    let sparse: ProcessSet = (0..=t).map(|k| Pid::new((k * stride + 1) as u32)).collect();
    let full: ProcessSet = Pid::all(n).collect();
    let (mut enc, mut dec) = (0.0, 0.0);
    for set in [sparse, full] {
        let bytes = set.encoded();
        if ProcessSet::decode(&mut Reader::new(&bytes)) != Ok(set) {
            return Err("a ProcessSet did not round-trip".into());
        }
        let mut buf = Vec::new();
        enc += ns_per_call(budget, || {
            buf.clear();
            black_box(&set).encode(&mut buf);
            black_box(&buf);
        });
        dec += ns_per_call(budget, || {
            black_box(ProcessSet::decode(&mut Reader::new(black_box(&bytes))).ok());
        });
    }
    out.insert("net.set_encode_ns", enc / 2.0);
    out.insert("net.set_decode_ns", dec / 2.0);
    Ok(())
}

/// Frames above this size stay out of the TCP probe: it writes and then
/// reads on one thread, so a frame must fit the loopback socket buffers.
const TCP_PROBE_MAX_FRAME: usize = 32 << 10;

/// `net.tcp.*`: captured frames written with `write_frame` on one end
/// of a two-endpoint loopback mesh and read with `read_frame` on the
/// other.
fn net_tcp<M: FramedWire + Clone>(
    out: &mut Ledger,
    batches: &[Vec<M>],
    budget: Duration,
) -> Result<(), String> {
    let frames: Vec<&Vec<M>> = batches
        .iter()
        .filter(|b| !b.is_empty() && frame_len(b) <= TCP_PROBE_MAX_FRAME)
        .collect();
    if frames.is_empty() {
        return Ok(());
    }
    let mesh = tcp::loopback_mesh(2).map_err(|e| format!("loopback mesh: {e}"))?;
    let (p1, p2) = (Pid::new(1), Pid::new(2));
    let mut scratch = Vec::new();
    let (mut bytes, mut writes, mut bad) = (0usize, 0usize, false);
    let ns = ns_per_call(budget, || {
        for b in &frames {
            match tcp::write_frame(&mut mesh[0].stream(p2), p1, b, &mut scratch) {
                Ok(written) => {
                    bytes += written;
                    writes += 1;
                }
                Err(_) => bad = true,
            }
            let got = tcp::read_frame::<M>(&mut mesh[1].stream(p1));
            bad |=
                !matches!(got, Ok(Some((from, ref msgs))) if from == p1 && msgs.len() == b.len());
        }
    });
    for end in &mesh {
        end.shutdown_all();
    }
    if bad {
        return Err("a frame did not survive the loopback round trip".into());
    }
    out.insert(
        "net.tcp.roundtrip_us_per_frame",
        ns / 1e3 / frames.len() as f64,
    );
    out.insert("net.tcp.bytes_per_frame", bytes as f64 / writes as f64);
    Ok(())
}

/// `field.*`: `Domain` calls at the workload's t, on a degree-t
/// polynomial with seed-derived coefficients.
fn field(out: &mut Ledger, n: usize, t: usize, seed: u64, budget: Duration) -> Result<(), String> {
    let start = Instant::now();
    let domain: Domain<Gf61> = Domain::new(n);
    out.insert("field.domain_new_us", start.elapsed().as_secs_f64() * 1e6);
    let coeffs = (0..=t as u64).map(|k| Gf61::from_u64(seed.wrapping_mul(2 * k + 3) >> 3));
    let poly = Poly::from_coeffs(coeffs.collect());
    let pts = |count: usize| -> Vec<(u64, Gf61)> {
        (1..=count as u64)
            .map(|i| (i, poly.eval_at_index(i)))
            .collect()
    };
    let exact = pts(t + 1);
    let redundant = pts((2 * (t + 1)).min(n));
    let secret = poly.constant_term();
    if domain.interpolate_at_zero(&exact) != Ok(secret)
        || domain.interpolate_checked_at_zero(&redundant, t) != Some(secret)
        || domain.interpolate(&exact).map(|p| p.constant_term()) != Ok(secret)
    {
        return Err("Domain interpolation lost the secret".into());
    }
    out.insert(
        "field.interpolate_ns",
        ns_per_call(budget, || {
            black_box(domain.interpolate(black_box(&exact)).ok());
        }),
    );
    out.insert(
        "field.interpolate_at_zero_ns",
        ns_per_call(budget, || {
            black_box(domain.interpolate_at_zero(black_box(&exact)).ok());
        }),
    );
    out.insert(
        "field.checked_at_zero_ns",
        ns_per_call(budget, || {
            black_box(domain.interpolate_checked_at_zero(black_box(&redundant), t));
        }),
    );
    out.insert(
        "field.eval_ns",
        ns_per_call(budget, || {
            black_box(black_box(&poly).eval(Gf61::from_u64(9)));
        }),
    );
    Ok(())
}

/// Messages the broadcast probe aims to route per repetition.
const BROADCAST_PROBE_MSGS: usize = 60_000;

/// `broadcast.*`: n `RbMux`es; up to eight origins each broadcast k
/// values at once, and the FIFO queue is driven until every process has
/// accepted every value.
fn broadcast(out: &mut Ledger, n: usize, t: usize, reps: usize) -> Result<(), String> {
    let params = Params::new(n, t).expect("n > 3t");
    let origins = n.min(8);
    let per_value = 2 * n * n + n;
    let k = (BROADCAST_PROBE_MSGS / (origins * per_value)).max(1) as u32;
    let (mut ns_per_msg, mut per_accept, mut live_peak) = (Vec::new(), 0.0, 0);
    for _ in 0..reps {
        let mut muxes: Vec<RbMux<u32, u64>> = Pid::all(n).map(|p| RbMux::new(p, params)).collect();
        let mut queue: VecDeque<(Pid, Pid, MuxMsg<u32, u64>)> = VecDeque::new();
        let mut sends = Vec::new();
        let (mut msgs, mut accepts) = (0u64, 0u64);
        let start = Instant::now();
        for (o, mux) in muxes.iter_mut().enumerate().take(origins) {
            let from = Pid::new(o as u32 + 1);
            for tag in 0..k {
                mux.broadcast(tag, u64::from(tag) * 31 + o as u64, &mut sends);
            }
            queue.extend(sends.drain(..).map(|(to, m)| (from, to, m)));
        }
        while let Some((from, to, msg)) = queue.pop_front() {
            msgs += 1;
            let mux = &mut muxes[(to.index() - 1) as usize];
            if let Some(d) = mux.on_message(from, msg, &mut sends) {
                accepts += 1;
                if d.value != u64::from(d.tag) * 31 + u64::from(d.origin.index() - 1) {
                    return Err("an RbMux accepted a value nobody broadcast".into());
                }
            }
            queue.extend(sends.drain(..).map(|(dest, m)| (to, dest, m)));
        }
        let elapsed = start.elapsed();
        if accepts != (origins * n) as u64 * u64::from(k) {
            return Err(format!("RbMux accepted {accepts} values, not every one"));
        }
        ns_per_msg.push(elapsed.as_nanos() as f64 / msgs as f64);
        per_accept = msgs as f64 / accepts as f64;
        live_peak = muxes.iter().map(RbMux::live_peak).max().unwrap_or(0);
    }
    out.insert("broadcast.ns_per_msg", median(&ns_per_msg));
    out.insert("broadcast.msgs_per_accept", per_accept);
    out.insert("broadcast.live_peak", live_peak as f64);
    Ok(())
}

/// `svss.*` probe: one SVSS share then reconstruct over `SvssNet`.
fn svss(out: &mut Ledger, n: usize, t: usize, seed: u64, reps: usize) -> Result<(), String> {
    let params = Params::new(n, t).expect("n > 3t");
    let (mut share_us, mut recon_us, mut share_msgs) = (Vec::new(), Vec::new(), 0);
    for rep in 0..reps as u64 {
        let mut net: SvssNet<Gf61> = SvssNet::new(params, seed.wrapping_add(rep));
        let id = SvssId::new(1, Pid::new(1));
        let secret = Gf61::from_u64(seed >> 4);
        let start = Instant::now();
        net.share(id, secret);
        net.run();
        share_us.push(start.elapsed().as_secs_f64() * 1e6);
        share_msgs = net.delivered();
        if !net.all_shares_completed(id) {
            return Err("an SVSS share did not complete".into());
        }
        let start = Instant::now();
        net.reconstruct_all(id);
        net.run();
        recon_us.push(start.elapsed().as_secs_f64() * 1e6);
        let wrong = |(_, got): &(Pid, Option<Reconstructed<Gf61>>)| {
            *got != Some(Reconstructed::Value(secret))
        };
        if net.outputs(id).iter().any(wrong) {
            return Err("an SVSS reconstruct lost the secret".into());
        }
    }
    out.insert("svss.share_us", median(&share_us));
    out.insert("svss.reconstruct_us", median(&recon_us));
    out.insert("svss.msgs_per_share", share_msgs as f64);
    Ok(())
}

/// `coin.*` probe: one flip over directly driven `CoinEngine`s and a
/// FIFO queue — the coin without the simulator or the agreement layer.
fn coin(out: &mut Ledger, n: usize, t: usize, seed: u64, reps: usize) -> Result<(), String> {
    let params = Params::new(n, t).expect("n > 3t");
    let (mut flip_ms, mut ns_per_msg, mut msgs) = (Vec::new(), Vec::new(), 0u64);
    for rep in 0..reps as u64 {
        let mut engines: Vec<CoinEngine<Gf61>> = Pid::all(n)
            .map(|p| {
                CoinEngine::new(
                    p,
                    params,
                    seed.wrapping_add(rep) ^ (u64::from(p.index()) << 40),
                )
            })
            .collect();
        let mut queue: VecDeque<(Pid, Pid, CoinMsg<Gf61>)> = VecDeque::new();
        let mut sends = Vec::new();
        msgs = 0;
        let start = Instant::now();
        for enable in [false, true] {
            for (k, engine) in engines.iter_mut().enumerate() {
                if enable {
                    engine.enable_reconstruct(1, &mut sends);
                } else {
                    engine.start(1, &mut sends);
                }
                let from = Pid::new(k as u32 + 1);
                queue.extend(sends.drain(..).map(|(to, m)| (from, to, m)));
            }
            while let Some((from, to, msg)) = queue.pop_front() {
                msgs += 1;
                engines[(to.index() - 1) as usize].on_message(from, msg, &mut sends);
                queue.extend(sends.drain(..).map(|(dest, m)| (to, dest, m)));
            }
        }
        let elapsed = start.elapsed();
        if engines.iter().any(|e| e.output(1).is_none()) {
            return Err("a coin engine produced no output".into());
        }
        flip_ms.push(elapsed.as_secs_f64() * 1e3);
        ns_per_msg.push(elapsed.as_nanos() as f64 / msgs as f64);
    }
    out.insert("coin.flip_ms", median(&flip_ms));
    out.insert("coin.msgs_per_flip", msgs as f64);
    out.insert("coin.ns_per_msg", median(&ns_per_msg));
    Ok(())
}

/// `aba.oracle_*` probe: the workload's own op with the SCC coin
/// replaced by a perfect oracle — ABA rounds and vote RB alone. The
/// difference to `op_s` is the coin's share.
fn aba_oracle(out: &mut Ledger, w: &Workload, seed: u64, reps: usize) -> Result<(), String> {
    let (mut op_ms, mut msgs) = (Vec::new(), 0u64);
    for rep in 0..reps as u64 {
        let mut spec = w.cluster_op(seed, rep);
        let start = Instant::now();
        if let Kind::Runtime(kind) = w.kind {
            spec.plan.coin = PlanCoin::Oracle { seed: 42 };
            let wall = Duration::from_secs(30);
            let report = run_plan(kind, &spec.plan, &spec.inputs, wall)
                .map_err(|e| format!("socket set-up failed: {e}"))?;
            if !(report.stats.all_done && report.ok() && report.agreement()) {
                return Err("the oracle-coin op failed".into());
            }
            op_ms.push(report.stats.elapsed.as_secs_f64() * 1e3);
            msgs = report.stats.messages;
        } else {
            let config = spec
                .plan
                .cluster_config()
                .mode(CoinMode::Oracle(OracleCoin::new(42, 0)));
            let mut cluster = Cluster::new(config, &spec.inputs);
            let built = start.elapsed();
            let report = cluster.run(100_000_000);
            if !(report.terminated && report.agreement()) {
                return Err("the oracle-coin op failed".into());
            }
            op_ms.push((start.elapsed() - built).as_secs_f64() * 1e3);
            msgs = report.messages;
        }
    }
    out.insert("aba.oracle_op_ms", median(&op_ms));
    out.insert("aba.oracle_msgs_per_op", msgs as f64);
    Ok(())
}

/// Runs every probe that applies to `w` (the README's ledger says which
/// and why) on the batches its traced ops captured.
///
/// # Errors
///
/// Returns the first probe whose output failed its own check.
pub fn run(w: &Workload, seed: u64, batches: &Batches, quick: bool) -> Result<Ledger, String> {
    let mut out = Ledger::new();
    let budget = Duration::from_millis(if quick { 3 } else { 40 });
    let reps = if quick { 1 } else { 5 };
    let socket = w.kind == Kind::Runtime(sba::RuntimeKind::Socket);
    // `frame_len` prices every simulated send and every socket frame;
    // the threaded runtime prices messages one by one and never frames.
    let pricing = w.is_sim() || socket;
    match batches {
        Batches::Cluster(b) => {
            trace_wrapper(&mut out, b, reps);
            net_frames(&mut out, b, budget, pricing, socket)?;
            if socket {
                net_tcp(&mut out, b, budget)?;
            }
        }
        Batches::Svss(b) => {
            trace_wrapper(&mut out, b, reps);
            net_frames(&mut out, b, budget, pricing, false)?;
        }
        Batches::None => {}
    }
    net_sets(&mut out, w.n, w.t, budget)?;
    field(&mut out, w.n, w.t, seed, budget)?;
    broadcast(&mut out, w.n, w.t, reps)?;
    if w.kind != Kind::SimMwShare {
        svss(&mut out, w.n, w.t, seed, reps)?;
        // One flip at n=7 is an op's worth of work (~4 s): once is all
        // a run can afford.
        coin(&mut out, w.n, w.t, seed, if w.n > 4 { 1 } else { reps })?;
        aba_oracle(&mut out, w, seed, reps)?;
    }
    Ok(out)
}
