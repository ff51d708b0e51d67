//! One benchmark run: a closed loop of ops on one workload for a fixed
//! time, one client, the next op starting when the previous one has
//! fully ended. Untraced runs give the end-to-end metrics; traced runs
//! alternate untraced and traced ops, then run the layer probes, and
//! give the per-layer metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::span::FAMILIES;
use crate::stats::{highest_supported_permille, median, percentile, quartiles};
use crate::workloads::{Batches, Op, Workload};

/// Settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Smoke mode: a fixed, small number of ops and short probes.
    pub quick: bool,
}

/// The outcome of one run, as the last line of standard output reports
/// it.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every op's output passed its checks and every cross-check held.
    pub correct: bool,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed (see `Op::failure`).
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes (failures, cross-checks, quartiles).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, unit, value)| {
            let entry = [
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ];
            (name, Json::obj(entry))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Ops of one run, split by how they ran.
#[derive(Default)]
struct Loop {
    untraced: Vec<Op>,
    traced: Vec<Op>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    notes: Vec<String>,
}

/// The closed loop. A traced run takes its ops in pairs on the same
/// inputs, one untraced and one traced (which goes first alternates),
/// so the two sides differ in nothing but the span wrapper.
fn closed_loop(w: &Workload, args: &RunArgs) -> Loop {
    let mut l = Loop::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut first: Option<Vec<u64>> = None;
    loop {
        let i = l.attempted;
        let more = if args.quick {
            i < w.quick_ops
        } else {
            start.elapsed() < budget
        };
        if !more {
            break;
        }
        // A quick run of a heavy workload is its one traced op.
        let lone = args.quick && w.quick_ops == 1;
        let traced = args.trace && (lone || (i % 2 == 1) != (i / 2 % 2 == 1));
        let input = if args.trace && !lone { i / 2 } else { i };
        let mut op = w.run_op(args.seed, input, traced);
        l.attempted += 1;
        if op.failure.is_none() && w.repeats_one_seed() {
            match &first {
                None => first = Some(op.fingerprint.clone()),
                Some(f) if *f != op.fingerprint => {
                    op.failure = Some("repetition of one seed is not bit-identical".into());
                }
                Some(_) => {}
            }
        }
        if let Some(why) = &op.failure {
            l.failed += 1;
            l.notes.push(format!("op {i} failed: {why}"));
            continue;
        }
        if traced {
            // Probe input comes from the last traced op and the trace
            // file's raw spans from the first: drop the rest.
            if let Some(prev) = l.traced.last_mut() {
                prev.batches = Batches::None;
                op.sample_spans.clear();
            }
            l.traced.push(op);
        } else {
            l.untraced.push(op);
        }
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn samples(ops: &[Op], f: impl Fn(&Op) -> f64) -> Vec<f64> {
    ops.iter().map(f).collect()
}

fn describe(notes: &mut Vec<String>, name: &str, unit: &str, values: &[f64]) {
    let (q1, q2, q3) = quartiles(values);
    let mut line = format!(
        "{name}: median {q2} {unit} (q1 {q1}, q3 {q3}, {} samples)",
        values.len()
    );
    if let Some(p) = highest_supported_permille(values.len()).filter(|&p| p >= 900) {
        line += &format!(", p{} {}", p as f64 / 10.0, percentile(values, p));
    }
    notes.push(line);
}

/// End-to-end metrics of an untraced run.
fn end_to_end(l: &mut Loop) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let ops = &l.untraced;
    if ops.is_empty() {
        return m;
    }
    let op_s = samples(ops, |o| o.op_s);
    let msgs = samples(ops, |o| o.msgs as f64);
    let bytes = samples(ops, |o| o.bytes as f64);
    let setup = samples(ops, |o| o.setup_s);
    // Ops ÷ the loop's wall: per-op set-up and teardown included.
    m.insert("ops_per_s", ops.len() as f64 / l.wall_s);
    m.insert("op_s", median(&op_s));
    m.insert("msgs_per_op", median(&msgs));
    m.insert("bytes_per_op", median(&bytes));
    m.insert("setup_s", median(&setup));
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb", rss);
    }
    describe(&mut l.notes, "op_s", "s", &op_s);
    describe(&mut l.notes, "setup_s", "s", &setup);
    describe(&mut l.notes, "msgs_per_op", "count", &msgs);
    describe(&mut l.notes, "bytes_per_op", "bytes", &bytes);
    m
}

/// Per-layer metrics of a traced run: each per-op value reduced over
/// the traced ops (median, except where a mean or a maximum is the
/// point), plus the probes.
fn per_layer(
    w: &Workload,
    args: &RunArgs,
    l: &mut Loop,
    correct: &mut bool,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    if l.traced.is_empty() {
        return m;
    }
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in &l.traced {
        for (&name, &value) in &op.layers {
            per_op.entry(name).or_default().push(value);
        }
    }
    for (name, values) in per_op {
        let reduced = match name {
            // Rare events and additive ledgers: a median would hide a
            // two-round op's coin traffic behind the one-round majority.
            "aba.rounds_mean" | "svss.shun_pairs" => mean(&values),
            _ if name.starts_with("traffic.") => mean(&values),
            "aba.rounds_max" | "runtime.dropped" => values.iter().copied().fold(0.0, f64::max),
            _ => median(&values),
        };
        m.insert(name, reduced);
    }
    m.insert("trace.ops", l.traced.len() as f64);
    let traced_op_s = samples(&l.traced, |o| o.op_s);
    describe(&mut l.notes, "traced op_s", "s", &traced_op_s);
    if !l.untraced.is_empty() {
        let untraced_op_s = samples(&l.untraced, |o| o.op_s);
        describe(&mut l.notes, "untraced op_s", "s", &untraced_op_s);
        let overhead = median(&traced_op_s) / median(&untraced_op_s) - 1.0;
        m.insert("trace.overhead_share", overhead);
    }
    if !w.is_sim() {
        // Every op of this pass, traced or not: the tail needs the
        // samples, and tracing moves a runtime op by less than its
        // own spread.
        let mut all = samples(&l.traced, |o| o.op_s);
        all.extend(samples(&l.untraced, |o| o.op_s));
        if all.len() >= 100 {
            m.insert("runtime.op_s_p90", percentile(&all, 900));
        }
    }
    // The probes eat the batches of the last traced op (any op's sample
    // is as good; the last one is the one still warm).
    let batches = l
        .traced
        .last_mut()
        .map(|op| std::mem::take(&mut op.batches))
        .unwrap_or(Batches::None);
    match probes::run(w, args.seed, &batches, args.quick) {
        Ok(ledger) => {
            // What tracing adds to the run span's self time: every span
            // but the run span itself is one wrapper callback.
            let callbacks = m.get("trace.spans").map_or(0.0, |spans| spans - 1.0);
            let ns = ledger.get("trace.self_ns_per_span").copied().unwrap_or(0.0);
            m.insert("trace.self_overhead_s", callbacks * ns / 1e9);
            m.extend(ledger);
        }
        Err(why) => {
            *correct = false;
            l.notes.push(format!("probe failed: {why}"));
        }
    }
    m
}

/// The trace file of a traced run: per-op span aggregates and the
/// leading raw spans of the first traced op.
fn trace_json(
    w: &Workload,
    args: &RunArgs,
    l: &Loop,
    layers: &BTreeMap<&'static str, f64>,
) -> Json {
    let ops = l.traced.iter().enumerate().map(|(k, op)| {
        let a = op.spans.unwrap_or_default();
        let handle = FAMILIES
            .iter()
            .zip(a.handle_s)
            .map(|(f, s)| (*f, Json::Num(s)));
        Json::obj([
            ("op", Json::Num(k as f64)),
            ("run_s", Json::Num(a.run_s)),
            ("run_self_s", Json::Num(a.run_self_s)),
            ("callback_s", Json::Num(a.callback_s)),
            ("calls", Json::Num(a.calls as f64)),
            ("handle_s", Json::obj(handle)),
        ])
    });
    let spans = l.traced.first().into_iter().flat_map(|op| {
        op.sample_spans.iter().map(|(pid, s)| {
            let fam = FAMILIES
                .iter()
                .zip(s.fam)
                .map(|(f, c)| (*f, Json::Num(f64::from(c))));
            Json::obj([
                ("name", Json::Str(s.name().into())),
                ("op", Json::Num(0.0)),
                ("parent", Json::Str("run".into())),
                ("pid", Json::Num(f64::from(*pid))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("dur_ns", Json::Num(f64::from(s.dur_ns))),
                ("batch_len", Json::Num(s.batch_len() as f64)),
                ("families", Json::obj(fam)),
            ])
        })
    });
    Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("ops", Json::Arr(ops.collect())),
        ("leading_spans_of_op_0", Json::Arr(spans.collect())),
        (
            "per_layer",
            Json::obj(layers.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
    ])
}

/// Runs `w` once. A traced run also writes `out/trace_<workload>.json`
/// under `out_dir` (best effort: the numbers are in the result anyway).
pub fn run(w: &Workload, args: &RunArgs, out_dir: &std::path::Path) -> RunResult {
    let mut l = closed_loop(w, args);
    let mut correct = l.failed == 0 && l.attempted > 0;
    let values = if args.trace {
        let layers = per_layer(w, args, &mut l, &mut correct);
        let file = out_dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(out_dir).and_then(|()| {
            std::fs::write(&file, format!("{:#}\n", trace_json(w, args, &l, &layers)))
        });
        if let Err(e) = written {
            l.notes
                .push(format!("could not write {}: {e}", file.display()));
        }
        layers
    } else {
        end_to_end(&mut l)
    };
    match w.watched_op(args.seed) {
        None => {}
        Some(Ok(checks)) => l.notes.push(format!(
            "cross-check: op 0 under run_plan's decision watch: {checks} checks, no violation"
        )),
        Some(Err(why)) => {
            correct = false;
            l.notes
                .push(format!("cross-check: op 0 under run_plan: {why}"));
        }
    }
    if let Some((_, pinned)) = w.legacy_pin.filter(|pin| !args.trace && pin.0 == args.seed) {
        let got = values.get("msgs_per_op").copied();
        let ok = got == Some(pinned as f64);
        correct &= ok;
        l.notes.push(format!(
            "cross-check: msgs_per_op at seed {} = {got:?}, legacy pin {pinned}: {}",
            args.seed,
            if ok { "equal" } else { "DIFFERENT" }
        ));
    }
    // Every metric of the table, in table order. A per-layer metric that
    // does not apply to this workload reads 0; an end-to-end metric is
    // missing only if no op completed.
    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in &table {
        match values.get(name) {
            Some(&v) => metrics.push((name, unit, v)),
            None if args.trace => metrics.push((name, unit, 0.0)),
            None => {
                correct = false;
                l.notes.push(format!("{name} is missing: no op completed"));
            }
        }
    }
    for name in values.keys().filter(|k| !table.iter().any(|m| m.0 == **k)) {
        correct = false;
        l.notes
            .push(format!("emitted metric {name} is not in the table"));
    }
    RunResult {
        correct,
        attempted: l.attempted,
        failed: l.failed,
        metrics,
        notes: l.notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    /// One quick traced run: the untraced path, the traced path and
    /// every probe that applies, with every outcome checked.
    fn quick(name: &str) -> BTreeMap<&'static str, f64> {
        let w = find(name).expect("a workload of the table");
        let args = RunArgs {
            seed: w.seed,
            seconds: 0.0,
            trace: true,
            quick: true,
        };
        let out = crate::package_dir()
            .join("out")
            .join(format!("test-{name}"));
        let result = run(w, &args, &out);
        assert!(result.correct, "{name}: {:?}", result.notes);
        assert_eq!(result.failed, 0);
        assert_eq!(result.attempted, w.quick_ops);
        let trace = std::fs::read_to_string(out.join(format!("trace_{name}.json"))).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
        let trace = Json::parse(&trace).expect("the trace file is JSON");
        assert!(!trace
            .get("leading_spans_of_op_0")
            .unwrap()
            .items()
            .is_empty());
        let emitted: Vec<&str> = result.metrics.iter().map(|m| m.0).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(emitted, table, "every per-layer metric, in table order");
        result.metrics.iter().map(|&(k, _, v)| (k, v)).collect()
    }

    fn positive(m: &BTreeMap<&'static str, f64>, names: &[&str]) {
        for name in names {
            assert!(m[name] > 0.0, "{name} = {}", m[name]);
        }
    }

    fn zero(m: &BTreeMap<&'static str, f64>, names: &[&str]) {
        for name in names {
            assert_eq!(m[name], 0.0, "{name}");
        }
    }

    const SIM: [&str; 4] = [
        "sim.self_s",
        "sim.events",
        "sim.op_vticks",
        "traffic.rb.msgs",
    ];
    const TCP: [&str; 4] = [
        "net.tcp.roundtrip_us_per_frame",
        "net.tcp.bytes_per_frame",
        "net.encode_ns_per_msg",
        "net.decode_ns_per_msg",
    ];
    const PROBES: [&str; 9] = [
        "trace.self_ns_per_span",
        "trace.self_overhead_s",
        "net.set_decode_ns",
        "field.interpolate_ns",
        "field.domain_new_us",
        "broadcast.ns_per_msg",
        "net.bytes_per_msg",
        "net.msgs_per_frame",
        "trace.spans",
    ];
    const SCC_PROBES: [&str; 5] = [
        "svss.share_us",
        "svss.reconstruct_us",
        "coin.flip_ms",
        "aba.oracle_op_ms",
        "aba.inclusive_s",
    ];

    #[test]
    fn quick_sim_scc_n7() {
        let m = quick("sim_scc_n7");
        positive(&m, &SIM);
        positive(&m, &PROBES);
        positive(&m, &SCC_PROBES);
        positive(
            &m,
            &["net.frame_len_ns_per_msg", "handle.rb.s", "coin.sessions"],
        );
        zero(&m, &TCP);
        zero(
            &m,
            &["svss.shun_pairs", "runtime.batches", "svss.inclusive_s"],
        );
        assert_eq!(m["aba.rounds_max"], 1.0, "the inputs pin a one-round op");
    }

    #[test]
    fn quick_sim_mwshare_n97() {
        let m = quick("sim_mwshare_n97");
        positive(&m, &SIM);
        positive(&m, &PROBES);
        positive(
            &m,
            &["svss.inclusive_s", "svss.mw_machines", "traffic.mw.msgs"],
        );
        // The layer separation the workload exists for: coin and aba idle.
        zero(
            &m,
            &["traffic.coin.msgs", "traffic.aba.msgs", "aba.inclusive_s"],
        );
        zero(&m, &["coin.flip_ms", "aba.oracle_op_ms", "svss.share_us"]);
        zero(&m, &TCP);
    }

    #[test]
    fn quick_socket_scc_n4() {
        let m = quick("socket_scc_n4");
        positive(&m, &TCP);
        positive(&m, &PROBES);
        positive(&m, &SCC_PROBES);
        positive(
            &m,
            &[
                "runtime.batches",
                "runtime.busy_share",
                "net.frame_len_ns_per_msg",
            ],
        );
        zero(
            &m,
            &[
                "sim.self_s",
                "sim.events",
                "runtime.dropped",
                "svss.shun_pairs",
            ],
        );
    }

    #[test]
    fn quick_threaded_scc_n4() {
        let m = quick("threaded_scc_n4");
        positive(&m, &PROBES);
        positive(&m, &SCC_PROBES);
        positive(&m, &["runtime.batches", "runtime.busy_share"]);
        // The control: no codec, no TCP, no frame pricing on this path.
        zero(&m, &TCP);
        zero(
            &m,
            &["net.frame_len_ns_per_msg", "sim.self_s", "runtime.dropped"],
        );
    }

    #[test]
    fn quick_sim_scc_n4_faults() {
        let m = quick("sim_scc_n4_faults");
        positive(&m, &SIM);
        positive(&m, &PROBES);
        positive(&m, &SCC_PROBES);
        // Op 0 is a lying dealer under split inputs: it gets shunned.
        positive(&m, &["svss.shun_pairs"]);
        zero(&m, &TCP);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("op_s", "s", 1.25)],
            notes: Vec::new(),
        };
        let line = result.to_json().to_string();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
