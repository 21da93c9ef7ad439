//! The names, units, directions and regression bounds of every metric and
//! workload: the one place they are written down. `BENCHMARK.json` is
//! printed from here (`li-perf manifest`); a run fails if what it measured
//! differs from these lists in either direction, and `--smoke` fails if
//! `BENCHMARK.json` differs from what is printed here.

use std::fmt::Write as _;

use crate::stack::LINEUP;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "store_read",
        "index lineup in a store on a DRAM-like device, uniform gets then an insert tail: search kernels and index crates are most of each op",
    ),
    (
        "store_mixed",
        "served store in-process, Zipfian 50/40/10 get/update/insert over many checkpoint cycles: li-nvm, heap, WAL and checkpoints do the work",
    ),
    (
        "wire_closed",
        "li-server on loopback, 4 closed-loop clients, 80/20 GET/PUT, no checkpoint in the window: thread hops, per-response writes and li-proto dominate",
    ),
    (
        "wire_pipelined",
        "same server, one connection with 32 requests in flight: hand-offs amortise, so queue wait, write batching and group commit matter",
    ),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics have one; per-layer metrics do not.
    pub bound: Option<f64>,
}

/// One measured metric as a run prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 where that does not apply).
    pub samples: u64,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// The end-to-end metrics, which every workload reports on every run.
///
/// One bound serves all four workloads, so the noisiest sets it, and a
/// bound is to be three times the ten-seed spread (quartile distance over
/// median) seen, capped at 0.25. The host's speed drifts by a tenth and
/// more within the twenty minutes ten seeds take, so the timings spread by
/// 3-10 %, hence the cap. `write_amp` spreads by up to 0.9 % (`store_mixed`:
/// how many checkpoints fall into the window), `index_bytes_per_key` by
/// what ten seeds' key sets differ by, under 0.1 % (see `perf/README.md`).
/// The p99s are per-layer (`workload.*_p99_us`): they spread by 11-23 %.
pub fn end_to_end() -> Vec<Def> {
    [
        ("setup_s", "s", LOWER, 0.25),
        ("ops_per_s", "1/s", HIGHER, 0.25),
        ("get_p50_us", "us", LOWER, 0.25),
        ("put_p50_us", "us", LOWER, 0.25),
        ("write_amp", "ratio", LOWER, 0.05),
        ("index_bytes_per_key", "B", LOWER, 0.01),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    })
    .collect()
}

/// The per-layer metrics of the traced run, layer by layer.
pub fn per_layer() -> Vec<Def> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        out.push(Def { name, unit, better, bound: None });
    };
    // li-core::search
    for name in ["lower_bound_ns", "lower_bound_kv_ns"] {
        add(format!("search.{name}"), "ns", LOWER);
    }
    for w in ["w16", "w128", "w1024"] {
        add(format!("search.bounded_ns.{w}"), "ns", LOWER);
    }
    add("search.exponential_ns".into(), "ns", LOWER);
    add("search.interpolation_ns".into(), "ns", LOWER);
    // index crates through lip::AnyIndex
    for (metric, unit) in [
        ("get_ns", "ns"),
        ("insert_ns", "ns"),
        ("range100_ns", "ns"),
        ("bytes_per_key", "B"),
        ("build_s", "s"),
    ] {
        for (_, kind) in LINEUP {
            add(format!("index.{metric}.{kind}"), unit, LOWER);
        }
    }
    // li-core::shard
    for c in ["c1", "c8", "c64"] {
        add(format!("shard.get_ns.{c}"), "ns", LOWER);
    }
    add("shard.insert_ns.c8".into(), "ns", LOWER);
    add("shard.hop_ns".into(), "ns", LOWER);
    add("shard.lock_waits_per_kop".into(), "count", LOWER);
    // li-nvm
    add("nvm.read_ns.b256".into(), "ns", LOWER);
    add("nvm.persist_ns.b256".into(), "ns", LOWER);
    add("nvm.read_blocks_per_get".into(), "count", LOWER);
    add("nvm.write_bytes_per_put".into(), "B", LOWER);
    add("nvm.flushes_per_put".into(), "count", LOWER);
    add("nvm.fences_per_put".into(), "count", LOWER);
    // li-viper store
    for op in ["get_ns", "put_update_ns", "put_insert_ns"] {
        for dev in ["dram", "optane"] {
            add(format!("store.{op}.{dev}"), "ns", LOWER);
        }
    }
    add("store.scan100_ns.optane".into(), "ns", LOWER);
    add("store.nvm_bytes_per_key".into(), "B", LOWER);
    // li-viper WAL and checkpoints
    add("wal.put_update_ns".into(), "ns", LOWER);
    add("wal.overhead_ns".into(), "ns", LOWER);
    add("wal.appends_per_commit".into(), "ratio", HIGHER);
    add("ckpt.write_s".into(), "s", LOWER);
    add("ckpt.count".into(), "count", LOWER);
    add("ckpt.stall_share".into(), "ratio", LOWER);
    // li-viper recovery
    add("recover.replay_s".into(), "s", LOWER);
    add("recover.rescan_s".into(), "s", LOWER);
    add("recover.replayed".into(), "count", LOWER);
    // li-proto
    for name in ["encode_req_ns", "decode_req_ns", "encode_resp_ns", "decode_resp_ns"] {
        add(format!("proto.{name}"), "ns", LOWER);
    }
    // li-server
    add("server.execute_get_ns".into(), "ns", LOWER);
    add("server.execute_put_ns".into(), "ns", LOWER);
    add("server.rtt_p50_us.c1".into(), "us", LOWER);
    add("server.null_rtt_us".into(), "us", LOWER);
    add("server.edge_p50_us".into(), "us", LOWER);
    add("server.queue_wait_p50_us".into(), "us", LOWER);
    add("server.get_p999_us".into(), "us", LOWER);
    add("server.shed_share".into(), "ratio", LOWER);
    add("server.disconnects".into(), "count", LOWER);
    add("server.max_rate_get_only".into(), "1/s", HIGHER);
    add("server.max_rate_ok".into(), "1/s", HIGHER);
    add("server.open_p50_us.r15k".into(), "us", LOWER);
    add("server.open_p99_us.r15k".into(), "us", LOWER);
    // li-telemetry
    add("telemetry.on_get_ns".into(), "ns", LOWER);
    add("telemetry.off_get_ns".into(), "ns", LOWER);
    add("telemetry.overhead_share".into(), "ratio", LOWER);
    // the traced workload's own tails: p99 moves with where the host ran
    // the threads that second, by more than any bound the contract allows
    add("workload.get_p99_us".into(), "us", LOWER);
    add("workload.put_p99_us".into(), "us", LOWER);
    // harness
    add("harness.timer_ns".into(), "ns", LOWER);
    add("harness.send_late_p99_us".into(), "us", LOWER);
    add("harness.trace_overhead_share".into(), "ratio", LOWER);
    add("harness.ladder_residual_share".into(), "ratio", LOWER);
    out
}

/// `BENCHMARK.json`, as the benchmark contract prescribes it.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, d) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better,
            d.bound.expect("end-to-end metrics are bounded")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name, d.unit, d.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| (*n).to_string()));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(end_to_end().iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(manifest().len() < 64 * 1024);
    }
}
