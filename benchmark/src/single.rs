//! One run of one workload in this process: the unit the driver invokes.
//!
//! Untraced (`--trace 0`): one discarded warm-up repetition, then timed
//! repetitions until `--seconds` have passed, every one rebuilt from the
//! same seed. Timings are reported as the lower quartile over repetitions
//! (the median and maximum sit beside it in the detail line): on a shared
//! host a noisy neighbour only ever adds time, so the faster repetitions
//! are the steadier estimate of what the code costs.
//!
//! Traced (`--trace 1`): untraced reference repetitions, then repetitions
//! through the benchmark-owned mirror loops with spans and the allocation
//! counter on. Only per-layer metrics come from here.

use crate::harness::{
    self, lower_quartile, median, number_or_null, number_or_zero, quantile, LayerMetrics, Rep,
};
use crate::layers;
use crate::trace::{self, aggregate, LayerStat};
use crate::workloads::{Size, TraceCtx, Workload};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest timed repetitions a result may rest on.
const MIN_REPS: usize = 5;
/// Repetitions whose spans are written to the trace file.
const TRACE_FILE_REPS: u32 = 2;

pub struct RunArgs<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    /// Directory for `trace-<workload>.json`.
    pub out_dir: &'a Path,
}

/// What a run hands back: the driver's one-line result and a detail
/// document (digest, sample counts, spread, model quantities, host facts).
pub struct RunOutput {
    pub result: Value,
    pub detail: Value,
}

/// Fewest repetitions a run makes, however short its time budget.
fn min_reps(size: Size, traced: bool) -> usize {
    match (size, traced) {
        (Size::Smoke, _) => 2,
        (Size::Full, true) => 3,
        (Size::Full, false) => MIN_REPS,
    }
}

/// The fields every detail document starts with.
fn detail_head(args: &RunArgs, problems: Vec<String>) -> serde_json::Map {
    let w = args.workload;
    let Value::Object(head) = json!({
        "workload": w.name,
        "work_unit": w.unit,
        "seed": args.seed,
        "trace": u64::from(args.traced),
        "size": format!("{:?}", args.size).to_lowercase(),
        "network": if w.name == "cluster_rounds" { "loopback" } else { "none (simulated)" },
        "problems": problems,
        "host": harness::host_facts(),
    }) else {
        unreachable!("json! of a map is an object")
    };
    head
}

fn with_head(mut head: serde_json::Map, rest: Value) -> Value {
    if let Value::Object(rest) = rest {
        head.extend(rest);
    }
    Value::Object(head)
}

fn spread(values: &[f64]) -> Value {
    json!({
        "lower_quartile": lower_quartile(values),
        "median": median(values),
        "max": quantile(values, 1.0),
        "samples": values.len() as u64,
    })
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

pub fn run(args: &RunArgs) -> RunOutput {
    if args.traced {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> RunOutput {
    let w = args.workload;
    let mut problems: Vec<String> = Vec::new();
    let warm = (w.run)(args.size, args.seed);
    if let Err(e) = (w.verify)(args.size, args.seed, &warm) {
        problems.push(e);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Peak resident set of each repetition on its own: the high-water mark
    // is reset before a repetition and read after it. A whole-process peak
    // would grow with the number of repetitions that fit into the budget.
    let mut rss_mb: Vec<f64> = Vec::new();
    while reps.len() < min_reps(args.size, false) || start.elapsed() < budget {
        let reset = harness::reset_peak_rss();
        reps.push((w.run)(args.size, args.seed));
        if reset {
            rss_mb.extend(harness::peak_rss_mb());
        }
    }
    if rss_mb.is_empty() {
        // No per-repetition reset here: fall back to the process's peak.
        rss_mb.extend(harness::peak_rss_mb());
    }

    for (i, r) in reps.iter().enumerate() {
        if r.digest != warm.digest || r.work != warm.work || r.failed != warm.failed {
            problems.push(format!(
                "repetition {i} diverged: digest {} work {} failed {} vs warm-up {} {} {}",
                hex(r.digest),
                r.work,
                r.failed,
                hex(warm.digest),
                warm.work,
                warm.failed
            ));
            break;
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.work).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} {} failed", w.unit));
    }
    let correct = problems.is_empty();

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let metrics = json!({
        "setup_s": metric(lower_quartile(&setup_s), "s"),
        "work_per_s": metric(warm.work as f64 / lower_quartile(&run_s), "work/s"),
        "peak_rss_mb": metric(median(&rss_mb), "MB"),
        "served_ratio": metric(1.0 - failed as f64 / attempted.max(1) as f64, "ratio"),
    });
    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    let detail = with_head(
        detail_head(args, problems),
        json!({
            "digest": hex(warm.digest),
            "work_per_rep": warm.work,
            "rep_s": spread(&run_s),
            "setup_s": spread(&setup_s),
            "peak_rss_mb": spread(&rss_mb),
            "model_p50_rounds": number_or_null(warm.model.p50_rounds),
            "model_p99_rounds": number_or_null(warm.model.p99_rounds),
            "model_bits_per_work": number_or_null(warm.model.bits_per_work),
        }),
    );
    RunOutput { result, detail }
}

/// Per-layer metrics from the recorded spans and scalars. `reps` is the
/// number of traced repetitions the spans cover; span totals are per
/// repetition.
pub fn layer_metrics(
    agg: &BTreeMap<&'static str, LayerStat>,
    reps: usize,
    scalars: &[(&str, f64)],
) -> LayerMetrics {
    let reps_f = reps.max(1) as f64;
    let mut out = LayerMetrics::new();
    for span in layers::SPANS {
        let stat = agg.get(span);
        let calls = stat.map_or(0, |s| s.calls);
        out.insert(format!("{span}.calls"), Some(calls as f64 / reps_f));
        out.insert(
            format!("{span}.busy_s"),
            Some(stat.map_or(0.0, |s| s.busy_ns as f64 / 1e9 / reps_f)),
        );
        out.insert(
            format!("{span}.allocs_per_call"),
            stat.filter(|_| calls > 0).map(|s| s.allocs as f64 / calls as f64),
        );
        if layers::LOOP_SPANS.contains(&span) {
            let ms: Option<Vec<f64>> = stat
                .filter(|_| calls > 0)
                .map(|s| s.durations_ns.iter().map(|&d| d as f64 / 1e6).collect());
            out.insert(format!("{span}.p50_ms"), ms.as_deref().map(median));
            out.insert(format!("{span}.p95_ms"), ms.as_deref().map(harness::p95));
        }
    }
    for (name, _) in layers::SCALARS {
        out.insert(name.to_string(), None);
    }
    for &(name, value) in scalars {
        let slot = out.get_mut(name).unwrap_or_else(|| panic!("scalar {name} is not declared"));
        *slot = Some(value);
    }
    out
}

/// Mean seconds of one traced repetition, and how many of them layer
/// spans cover, from the root spans.
fn wall_and_covered(agg: &BTreeMap<&'static str, LayerStat>) -> (f64, f64) {
    let Some(root) = agg.get(layers::REP) else { return (0.0, 0.0) };
    let per_rep = |ns: u64| ns as f64 / 1e9 / root.calls.max(1) as f64;
    let wall_ns: u64 = root.durations_ns.iter().sum();
    (per_rep(wall_ns), per_rep(wall_ns.saturating_sub(root.busy_ns)))
}

fn run_traced(args: &RunArgs) -> RunOutput {
    let w = args.workload;
    let mut problems: Vec<String> = Vec::new();

    // Untraced reference: a warm-up, then two repetitions whose mean wall
    // time is the base of the overhead ratio.
    let warm = (w.run)(args.size, args.seed);
    let refs: Vec<Rep> = (0..2).map(|_| (w.run)(args.size, args.seed)).collect();
    let untraced_wall = refs.iter().map(|r| r.setup_s + r.run_s).sum::<f64>() / refs.len() as f64;
    let untraced_run = refs.iter().map(|r| r.run_s).sum::<f64>() / refs.len() as f64;

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut ctx = TraceCtx::new();
    let mut reps: Vec<Rep> = Vec::new();
    trace::set_alloc_counting(true);
    while reps.len() < min_reps(args.size, true) || start.elapsed() < budget {
        ctx.begin_rep(reps.len() as u32);
        reps.push((w.traced)(args.size, args.seed, &mut ctx));
    }
    trace::set_alloc_counting(false);

    let expect = if w.mirror_exact { warm.digest } else { reps[0].digest };
    if let Some(r) = reps.iter().find(|r| r.digest != expect) {
        problems.push(format!("traced digest {} differs from {}", hex(r.digest), hex(expect)));
    }
    let attempted: u64 = reps.iter().map(|r| r.work).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} {} failed", w.unit));
    }
    let correct = problems.is_empty();

    let spans = ctx.tracer.spans();
    let agg = aggregate(spans);
    let (traced_wall, covered) = wall_and_covered(&agg);
    let mut scalars: Vec<(&str, f64)> = ctx.scalar_means().into_iter().collect();
    scalars.push(("trace.coverage", covered / traced_wall));
    scalars.push(("telemetry.overhead_ratio", traced_wall / untraced_wall));
    if w.unit == "ops" {
        // What the program's own loop spends outside the calls the mirror
        // can see: a remainder, and a noisy one.
        scalars.push(("workload.engine_other_s", untraced_run - covered));
        let m = &warm.model;
        for (name, v) in [
            ("apps.dht.op_p50_rounds", m.p50_rounds),
            ("apps.dht.op_p99_rounds", m.p99_rounds),
            ("apps.dht.bits_per_op", m.bits_per_work),
        ] {
            if let Some(v) = v {
                scalars.push((name, v));
            }
        }
    }
    let layer = layer_metrics(&agg, reps.len(), &scalars);

    let mut metrics = serde_json::Map::new();
    let mut document = serde_json::Map::new();
    for (name, unit) in layers::per_layer_names() {
        let v = layer[&name];
        metrics.insert(name.clone(), metric(number_or_zero(v), unit));
        document.insert(name, number_or_null(v));
    }
    // A layer's share: its busy time over the traced repetition's wall.
    // Spans recorded outside the root span are extra work, not a share.
    let outside: Vec<&str> = spans.iter().filter(|s| s.parent.is_none()).map(|s| s.name).collect();
    let mut share = serde_json::Map::new();
    for span in layers::SPANS {
        let busy = layer[&format!("{span}.busy_s")].unwrap_or(0.0);
        if busy > 0.0 && !outside.contains(&span) {
            share.insert(span.to_string(), Value::from(busy / traced_wall));
        }
    }

    let kept = spans.iter().filter(|s| s.rep < TRACE_FILE_REPS);
    let trace_path = args.out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(args.out_dir).and_then(|_| {
        let text = serde_json::to_string(&trace::spans_to_json(w.name, kept))
            .expect("span document serializes");
        std::fs::write(&trace_path, text)
    });
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let result = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    let detail = with_head(
        detail_head(args, problems),
        json!({
            "digest": hex(reps[0].digest),
            "traced_reps": reps.len() as u64,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "per_layer": Value::Object(document),
            "share_of_wall": Value::Object(share),
            "trace_file": trace_path.display().to_string(),
        }),
    );
    RunOutput { result, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 0, allocs: 0 }
    }

    #[test]
    fn layer_metrics_name_every_per_layer_metric_once() {
        let spans = vec![
            span(layers::REP, 0, 1_000_000, None),
            span(layers::NET_STEP, 100_000, 600_000, Some(0)),
            span(layers::NET_STEP, 600_000, 900_000, Some(0)),
        ];
        let agg = aggregate(&spans);
        let m = layer_metrics(&agg, 1, &[("trace.coverage", 0.8)]);
        let names: Vec<String> = layers::per_layer_names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(m.len(), names.len());
        assert!(names.iter().all(|n| m.contains_key(n)));

        assert_eq!(m["simnet.step.calls"], Some(2.0));
        assert_eq!(m["simnet.step.busy_s"], Some(0.0008));
        assert_eq!(m["simnet.step.p50_ms"], Some(0.4));
        assert_eq!(m["trace.coverage"], Some(0.8));
        // A layer the workload never called: zero calls and time, but no
        // made-up per-call or percentile value.
        assert_eq!(m["apps.dht.step.calls"], Some(0.0));
        assert_eq!(m["apps.dht.step.busy_s"], Some(0.0));
        assert_eq!(m["apps.dht.step.allocs_per_call"], None);
        assert_eq!(m["apps.dht.serve_batch.p95_ms"], None);
        assert_eq!(m["node.wire.encode_ns"], None);

        let (wall, covered) = wall_and_covered(&agg);
        assert!((wall - 0.001).abs() < 1e-12);
        assert!((covered - 0.0008).abs() < 1e-12);
    }
}
