//! The metric tables: every name the benchmark may emit, with its unit,
//! its better-direction and (end-to-end only) its regression bound.
//! `BENCHMARK.json` is generated from these tables (`benchmark
//! manifest`) and a test keeps the checked-in file equal to them.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: `(name, unit, better, bound)`. `bound` is the
/// share of the parent's median by which the metric may worsen before a
/// change counts as a regression.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, reported by every workload from untraced
/// runs. A bound has to hold for the noisiest workload: ten runs on ten
/// seeds spread (interquartile ÷ median) up to 16 % in wall time and
/// 9 % in peak memory on the shared 2-core box, whose speed drifts over
/// minutes, and 2 % in messages and bytes, which vary only with the
/// seed — so the timing and memory bounds sit at the contract's cap and
/// the count bounds at 0.10 (see the README's baseline table).
pub const END_TO_END: [EndToEnd; 6] = [
    ("op_s", "s", Lower, 0.25),
    ("ops_per_s", "1/s", Higher, 0.25),
    ("msgs_per_op", "count", Lower, 0.10),
    ("bytes_per_op", "bytes", Lower, 0.10),
    ("peak_rss_mb", "MiB", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported by every workload from the traced
/// pass and the layer probes. A metric that does not apply to a
/// workload reads 0 there (the README's ledger says which apply where).
pub const PER_LAYER: [PerLayer; 72] = [
    // sim: the simulator's own work, from the run span and `Metrics`.
    ("sim.self_s", "s", Lower),
    ("sim.self_ns_per_msg", "ns", Lower),
    ("sim.events", "count", Lower),
    ("sim.batches", "count", Lower),
    ("sim.msgs_per_batch", "count", Higher),
    ("sim.self_delivery_batches", "count", Lower),
    ("sim.peak_inflight_msgs", "count", Lower),
    ("sim.peak_inflight_bytes", "bytes", Lower),
    ("sim.op_vticks", "ticks", Lower),
    // Callback spans: everything under the process.
    ("aba.inclusive_s", "s", Lower),
    ("aba.calls", "count", Lower),
    ("aba.ns_per_call", "ns", Lower),
    ("svss.inclusive_s", "s", Lower),
    ("svss.calls", "count", Lower),
    ("svss.ns_per_call", "ns", Lower),
    // Callback time split pro rata by the batch's kind family.
    ("handle.rb.s", "s", Lower),
    ("handle.mw.s", "s", Lower),
    ("handle.svss.s", "s", Lower),
    ("handle.coin.s", "s", Lower),
    ("handle.aba.s", "s", Lower),
    // Traffic by kind family, from `Metrics::per_kind`.
    ("traffic.rb.msgs", "count", Lower),
    ("traffic.rb.bytes", "bytes", Lower),
    ("traffic.mw.msgs", "count", Lower),
    ("traffic.mw.bytes", "bytes", Lower),
    ("traffic.svss.msgs", "count", Lower),
    ("traffic.svss.bytes", "bytes", Lower),
    ("traffic.coin.msgs", "count", Lower),
    ("traffic.coin.bytes", "bytes", Lower),
    ("traffic.aba.msgs", "count", Lower),
    ("traffic.aba.bytes", "bytes", Lower),
    // Protocol state after the run.
    ("aba.rounds_mean", "count", Lower),
    ("aba.rounds_max", "count", Lower),
    ("coin.sessions", "count", Lower),
    ("coin.rb_live_peak", "count", Lower),
    ("coin.rb_retired", "count", Lower),
    ("svss.mw_machines", "count", Lower),
    ("svss.shun_pairs", "count", Lower),
    // net probes over the workload's captured batches.
    ("net.frame_len_ns_per_msg", "ns", Lower),
    ("net.encode_ns_per_msg", "ns", Lower),
    ("net.decode_ns_per_msg", "ns", Lower),
    ("net.bytes_per_msg", "bytes", Lower),
    ("net.msgs_per_frame", "count", Higher),
    ("net.set_decode_ns", "ns", Lower),
    ("net.set_encode_ns", "ns", Lower),
    ("net.tcp.roundtrip_us_per_frame", "us", Lower),
    ("net.tcp.bytes_per_frame", "bytes", Lower),
    // field probes at the workload's t.
    ("field.interpolate_ns", "ns", Lower),
    ("field.interpolate_at_zero_ns", "ns", Lower),
    ("field.checked_at_zero_ns", "ns", Lower),
    ("field.eval_ns", "ns", Lower),
    ("field.domain_new_us", "us", Lower),
    // broadcast probe: RbMuxes driven FIFO to acceptance.
    ("broadcast.ns_per_msg", "ns", Lower),
    ("broadcast.msgs_per_accept", "count", Lower),
    ("broadcast.live_peak", "count", Lower),
    // svss probe: one share + reconstruct over `SvssNet`.
    ("svss.share_us", "us", Lower),
    ("svss.reconstruct_us", "us", Lower),
    ("svss.msgs_per_share", "count", Lower),
    // coin probe: one flip over directly driven `CoinEngine`s.
    ("coin.flip_ms", "ms", Lower),
    ("coin.msgs_per_flip", "count", Lower),
    ("coin.ns_per_msg", "ns", Lower),
    // aba probe: the same cluster with the oracle coin.
    ("aba.oracle_op_ms", "ms", Lower),
    ("aba.oracle_msgs_per_op", "count", Lower),
    // System runtimes, from `ThreadedStats` and the spans.
    ("runtime.batches", "count", Lower),
    ("runtime.msgs_per_batch", "count", Higher),
    ("runtime.dropped", "count", Lower),
    ("runtime.busy_share", "ratio", Higher),
    ("runtime.op_s_p90", "s", Lower),
    // Validity of the ledger itself; the `self` pair is the wrapper
    // probe: what a span costs outside its own interval.
    ("trace.overhead_share", "ratio", Lower),
    ("trace.self_ns_per_span", "ns", Lower),
    ("trace.self_overhead_s", "s", Lower),
    ("trace.spans", "count", Lower),
    ("trace.ops", "count", Higher),
];

/// Whether `name` obeys the contract's charset: starts with a letter or
/// digit, then at most 64 of `[A-Za-z0-9_.-]` in all.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    (1..=64).contains(&b.len())
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` obeys the contract's charset: at most 16 of
/// `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let b = unit.as_bytes();
    (1..=16).contains(&b.len())
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn charset_rules() {
        for ok in [
            "op_s",
            "net.tcp.roundtrip_us_per_frame",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "MiB", "%", "ns"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "virtual ticks", "µs", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_obey_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit, _, bound) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (name, unit, _) in PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
