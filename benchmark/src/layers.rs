//! Names of the per-layer metrics. Layers carry the names of the repo's
//! crates and modules; every span here is recorded by the benchmark's own
//! files around calls into that layer's public functions.

/// The root span of one traced repetition. Its self time is what no layer
/// span covers; it is not a per-layer metric.
pub const REP: &str = "bench.rep";

pub const ZIPF_BUILD: &str = "workload.zipf_build";
pub const ZIPF_SAMPLE: &str = "workload.zipf_sample";
pub const DHT_SERVE_BATCH: &str = "apps.dht.serve_batch";
pub const DHT_STEP: &str = "apps.dht.step";
pub const PUBSUB_PUBLISH: &str = "apps.pubsub.publish_batch";
pub const PUBSUB_FETCH: &str = "apps.pubsub.fetch";
pub const ADV_OBSERVE_BLOCK: &str = "adversary.observe_block";
pub const ADV_CHURN_NEXT: &str = "adversary.churn_next";
pub const ALG2: &str = "core.sampling.alg2";
pub const ALG1: &str = "core.sampling.alg1";
pub const APPLY_CHURN: &str = "core.reconfig.apply_churn";
pub const RECONFIGURE: &str = "core.reconfig.reconfigure";
pub const HGRAPH_BUILD: &str = "graphs.hgraph_build";
pub const IS_CONNECTED: &str = "graphs.is_connected";
pub const DOS_SNAPSHOT: &str = "core.dos.snapshot";
pub const HEALING_STEP: &str = "core.healing.step";
pub const NET_ADD_NODE: &str = "simnet.add_node";
pub const NET_STEP: &str = "simnet.step";
pub const XL_PARITY_STEP: &str = "simnet-xl.parity.step";
pub const XL_FAST_STEP: &str = "simnet-xl.fast.step";
pub const CLUSTER_RUN: &str = "node.cluster.run";
pub const REPLAY: &str = "core.nodert.replay";
pub const REMOTE_PLAN: &str = "adversary.remote.plan";

/// Every layer span: each yields `.calls`, `.busy_s`, `.allocs_per_call`.
pub const SPANS: [&str; 23] = [
    ZIPF_BUILD,
    ZIPF_SAMPLE,
    DHT_SERVE_BATCH,
    DHT_STEP,
    PUBSUB_PUBLISH,
    PUBSUB_FETCH,
    ADV_OBSERVE_BLOCK,
    ADV_CHURN_NEXT,
    ALG2,
    ALG1,
    APPLY_CHURN,
    RECONFIGURE,
    HGRAPH_BUILD,
    IS_CONNECTED,
    DOS_SNAPSHOT,
    HEALING_STEP,
    NET_ADD_NODE,
    NET_STEP,
    XL_PARITY_STEP,
    XL_FAST_STEP,
    CLUSTER_RUN,
    REPLAY,
    REMOTE_PLAN,
];

/// Spans called many times per repetition from a loop the benchmark owns:
/// these also yield `.p50_ms` and `.p95_ms` of the call duration.
pub const LOOP_SPANS: [&str; 8] = [
    DHT_SERVE_BATCH,
    PUBSUB_PUBLISH,
    PUBSUB_FETCH,
    ADV_OBSERVE_BLOCK,
    ALG2,
    RECONFIGURE,
    HEALING_STEP,
    NET_STEP,
];

/// Per-layer values that are not span totals, with their units.
pub const SCALARS: [(&str, &str); 25] = [
    ("workload.engine_other_s", "s"),
    ("apps.dht.msgs_per_op", "count"),
    ("apps.dht.op_p50_rounds", "rounds"),
    ("apps.dht.op_p99_rounds", "rounds"),
    ("apps.dht.bits_per_op", "bits"),
    ("apps.pubsub.reads_per_fetch", "count"),
    ("adversary.blocked_per_round", "count"),
    ("adversary.block_growth", "ratio"),
    ("core.sampling.phase_s", "s"),
    ("core.reconfig.phase_s", "s"),
    ("core.reconfig.rounds_per_epoch", "rounds"),
    ("core.healing.phase_s", "s"),
    ("core.monitor.phase_s", "s"),
    ("core.healing.evictions", "count"),
    ("core.healing.retries", "count"),
    ("simnet.deliver_s", "s"),
    ("simnet.compute_s", "s"),
    ("simnet.send_s", "s"),
    ("simnet.msgs_per_round", "count"),
    ("simnet.bits_per_node_round", "bits"),
    ("node.wire.encode_ns", "ns"),
    ("node.wire.decode_ns", "ns"),
    ("node.wire.bytes_per_frame", "bytes"),
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// A name as `BENCHMARK.json` allows it: starts with a letter or digit, at
/// most 64 letters, digits, `_`, `.` and `-`.
pub fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Every per-layer metric name with its unit, in a stable order: exactly
/// the `per_layer` list of `BENCHMARK.json`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        out.push((format!("{span}.calls"), "count"));
        out.push((format!("{span}.busy_s"), "s"));
        out.push((format!("{span}.allocs_per_call"), "count"));
        if LOOP_SPANS.contains(&span) {
            out.push((format!("{span}.p50_ms"), "ms"));
            out.push((format!("{span}.p95_ms"), "ms"));
        }
    }
    for (name, unit) in SCALARS {
        out.push((name.to_string(), unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_fit_the_contract() {
        let names = per_layer_names();
        assert!(names.len() <= 128, "{} per-layer names", names.len());
        for (i, (name, unit)) in names.iter().enumerate() {
            assert!(name_ok(name), "{name}");
            assert!(unit.len() <= 16);
            assert!(names[..i].iter().all(|(o, _)| o != name), "duplicate {name}");
        }
        for s in LOOP_SPANS {
            assert!(SPANS.contains(&s));
        }
    }

    #[test]
    fn names_follow_the_contract() {
        assert!(name_ok("core.sampling.alg2.busy_s"));
        assert!(name_ok("simnet-xl.fast.step.calls"));
        assert!(!name_ok(""));
        assert!(!name_ok(".leading"));
        assert!(!name_ok("has space"));
        assert!(!name_ok(&"x".repeat(65)));
    }
}
