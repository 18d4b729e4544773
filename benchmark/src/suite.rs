//! Modes that span workloads: `all` (every workload, each in a process of
//! its own so `VmHWM` is per workload), `check` (smoke sizes plus manifest
//! consistency) and `compare` (two `all` documents within the bounds?).

use crate::layers;
use crate::workloads::{self, Size, Workload};
use crate::Options;
use serde_json::{json, Map, Value};
use std::process::{Command, Stdio};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("work_per_s", "work/s"), ("peak_rss_mb", "MB"), ("served_ratio", "ratio")];

/// Run one workload in a child process; returns its detail and result.
fn spawn(
    opts: &Options,
    w: &Workload,
    traced: bool,
    seconds: f64,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("cannot start {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or_else(|| format!("{} printed nothing", w.name))?;
    let detail = lines.next().ok_or_else(|| format!("{} printed no detail line", w.name))?;
    let parse = |s: &str| serde_json::from_str(s).map_err(|e| format!("{}: {e}", w.name));
    let detail = parse(detail)?.get("detail").cloned().ok_or("detail line has no `detail`")?;
    Ok((detail, parse(result)?))
}

/// Run every workload (or the one named), each in a process of its own,
/// and print one document; false if any correctness check failed.
pub fn all(opts: &Options) -> Result<bool, String> {
    let seconds = opts.seconds.unwrap_or(DEFAULT_SECONDS);
    let selected: Vec<&Workload> = match &opts.workload {
        None => workloads::ALL.iter().collect(),
        Some(name) => {
            vec![workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?]
        }
    };
    let mut rows = Map::new();
    let mut all_correct = true;
    let mut host = Value::Null;
    for w in selected {
        eprintln!("[benchmark] {} ...", w.name);
        let (detail, result) = spawn(opts, w, false, seconds)?;
        let correct = result.get("correct").and_then(Value::as_bool).unwrap_or(false);
        host = detail.get("host").cloned().unwrap_or(Value::Null);
        let mut row = Map::new();
        row.insert("correct".into(), Value::from(correct));
        for key in ["attempted", "failed"] {
            row.insert(key.into(), result.get(key).cloned().unwrap_or(Value::Null));
        }
        row.insert("end_to_end".into(), result.get("metrics").cloned().unwrap_or(Value::Null));
        row.insert("detail".into(), detail);
        all_correct &= correct;
        if opts.traced {
            eprintln!("[benchmark] {} (traced) ...", w.name);
            let (mut detail, result) = spawn(opts, w, true, seconds)?;
            let ok = result.get("correct").and_then(Value::as_bool).unwrap_or(false);
            row.insert("traced_correct".into(), Value::from(ok));
            if let Value::Object(d) = &mut detail {
                row.insert("per_layer".into(), d.remove("per_layer").unwrap_or(Value::Null));
            }
            row.insert("traced_detail".into(), detail);
            all_correct &= ok;
        }
        rows.insert(w.name.to_string(), Value::Object(row));
    }
    let doc = json!({
        // This benchmark defines a yardstick; it claims no gain.
        "claim": Value::Null,
        "seed": opts.seed,
        "seconds": seconds,
        "size": format!("{:?}", opts.size).to_lowercase(),
        "host": host,
        "workloads": Value::Object(rows),
    });
    println!("{}", serde_json::to_string_pretty(&doc).expect("document serializes"));
    if !all_correct {
        eprintln!("[benchmark] a correctness check failed; see `problems` in the document");
    }
    Ok(all_correct)
}

fn load(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn manifest_list<'a>(manifest: &'a Value, key: &str) -> Result<&'a Vec<Value>, String> {
    manifest.get(key).and_then(Value::as_array).ok_or(format!("manifest has no `{key}` list"))
}

/// `(name, <field>)` of every entry of one of the manifest's lists.
fn manifest_pairs(
    manifest: &Value,
    key: &str,
    field: &str,
) -> Result<Vec<(String, String)>, String> {
    let text = |e: &Value, f: &str| e.get(f).and_then(Value::as_str).unwrap_or("").to_string();
    Ok(manifest_list(manifest, key)?.iter().map(|e| (text(e, "name"), text(e, field))).collect())
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs.iter().map(|&(a, b)| (a.to_string(), b.to_string())).collect()
}

/// Compare what the manifest declares with what the code emits.
fn manifest_problems(manifest: &Value) -> Result<Vec<String>, String> {
    let whys: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
    let per_layer = layers::per_layer_names();
    let per_layer: Vec<(&str, &str)> = per_layer.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    let lists = [
        ("workloads", "why", owned(&whys)),
        ("end_to_end", "unit", owned(&END_TO_END)),
        ("per_layer", "unit", owned(&per_layer)),
    ];
    let mut problems = Vec::new();
    for (key, field, coded) in lists {
        let declared = manifest_pairs(manifest, key, field)?;
        if declared != coded {
            let missing: Vec<_> = coded.iter().filter(|c| !declared.contains(c)).collect();
            let extra: Vec<_> = declared.iter().filter(|d| !coded.contains(d)).collect();
            problems.push(format!(
                "manifest `{key}` differs from the code: missing {missing:?}, extra {extra:?} \
                 (or the order differs)"
            ));
        }
        for (name, _) in &declared {
            if !layers::name_ok(name) {
                problems.push(format!("`{name}` is not a valid name"));
            }
        }
    }
    Ok(problems)
}

/// One result line against the metric list it must carry.
fn result_problems(what: &str, result: &Value, expected: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(obj) = result.as_object() else { return vec![format!("{what}: not an object")] };
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        problems.push(format!("{what}: result keys are {keys:?}"));
    }
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        problems.push(format!("{what}: correctness gate failed"));
    }
    if result.get("attempted").and_then(Value::as_u64).unwrap_or(0) < 1 {
        problems.push(format!("{what}: nothing attempted"));
    }
    let empty = Map::new();
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap_or(&empty);
    for (name, unit) in expected {
        match metrics.get(name) {
            None => problems.push(format!("{what}: metric {name} is missing")),
            Some(m) => {
                let finite = m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite);
                if !finite {
                    problems.push(format!("{what}: metric {name} is not a finite number"));
                }
                if m.get("unit").and_then(Value::as_str) != Some(unit.as_str()) {
                    problems.push(format!("{what}: metric {name} does not carry unit {unit}"));
                }
            }
        }
    }
    for name in metrics.keys() {
        if !expected.iter().any(|(n, _)| n == name) {
            problems.push(format!("{what}: unexpected metric {name}"));
        }
    }
    problems
}

/// Smoke sizes: every workload and every metric the manifest names shows up
/// exactly once with a finite number, and the correctness gate passes.
pub fn check(opts: &Options) -> Result<bool, String> {
    let manifest = load(&opts.manifest)?;
    let mut problems = manifest_problems(&manifest)?;
    let end_to_end = manifest_pairs(&manifest, "end_to_end", "unit")?;
    let per_layer = manifest_pairs(&manifest, "per_layer", "unit")?;
    let smoke = Options { size: Size::Smoke, workload: None, ..opts.clone() };
    for (name, _) in manifest_pairs(&manifest, "workloads", "why")? {
        let Some(w) = workloads::by_name(&name) else {
            problems.push(format!("manifest workload {name} does not exist"));
            continue;
        };
        for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let what = format!("{name} --trace {}", u8::from(traced));
            match spawn(&smoke, w, traced, 0.0) {
                Ok((_, result)) => problems.extend(result_problems(&what, &result, expected)),
                Err(e) => problems.push(format!("{what}: {e}")),
            }
        }
    }
    for p in &problems {
        eprintln!("[check] {p}");
    }
    if problems.is_empty() {
        eprintln!(
            "[check] ok: {} workloads, {} end-to-end and {} per-layer metrics",
            workloads::ALL.len(),
            end_to_end.len(),
            per_layer.len()
        );
    }
    Ok(problems.is_empty())
}

/// Two `all` documents of the same code, line by line: every end-to-end
/// metric of `b` within its bound of `a`'s value, and every simulated
/// quantity (digest, `model_*`, failures) identical. Repetition counts
/// depend on the clock and are not compared.
fn compare_docs(manifest: &Value, a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let mut lines = Vec::new();
    let mut ok = true;
    for (w, _) in manifest_pairs(manifest, "workloads", "why")? {
        let row = |doc: &Value| doc.get("workloads").and_then(|ws| ws.get(&w)).cloned();
        let (Some(ra), Some(rb)) = (row(a), row(b)) else {
            lines.push(format!("{w}: missing from a document"));
            ok = false;
            continue;
        };
        for e in manifest_list(manifest, "end_to_end")? {
            let name = e.get("name").and_then(Value::as_str).unwrap_or("");
            let bound = e.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let value = |r: &Value| {
                r.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&ra), value(&rb)) else {
                lines.push(format!("{w} {name}: missing"));
                ok = false;
                continue;
            };
            let diff = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "ok" } else { "DIFFERS" };
            lines.push(format!(
                "{w:<18} {name:<14} {va:>16.6} {vb:>16.6}  {:>6.2}% of {:>4.0}%  {verdict}",
                diff * 100.0,
                bound * 100.0
            ));
            ok &= diff <= bound;
        }
        if ra.get("failed") != rb.get("failed") {
            lines.push(format!("{w}: `failed` differs"));
            ok = false;
        }
        for key in ["digest", "model_p50_rounds", "model_p99_rounds", "model_bits_per_work"] {
            let field = |r: &Value| r.get("detail").and_then(|d| d.get(key)).cloned();
            if field(&ra) != field(&rb) {
                lines.push(format!(
                    "{w}: simulated `{key}` differs: {:?} vs {:?}",
                    field(&ra),
                    field(&rb)
                ));
                ok = false;
            }
        }
    }
    Ok((lines, ok))
}

pub fn compare(opts: &Options) -> Result<bool, String> {
    let [a, b] = opts.positional.as_slice() else {
        return Err("compare takes two documents written by `all`".into());
    };
    let (lines, ok) = compare_docs(&load(&opts.manifest)?, &load(a.as_ref())?, &load(b.as_ref())?)?;
    for line in lines {
        println!("{line}");
    }
    println!("{}", if ok { "repeat: within bounds" } else { "repeat: OUT OF BOUNDS" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Vec<(String, String)> {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    fn good_result() -> Value {
        let mut metrics = Map::new();
        for (n, u) in END_TO_END {
            metrics.insert(n.to_string(), json!({ "value": 1.5, "unit": u }));
        }
        json!({ "correct": true, "attempted": 10u64, "failed": 0u64, "metrics": Value::Object(metrics) })
    }

    #[test]
    fn a_well_formed_result_passes() {
        assert_eq!(result_problems("w", &good_result(), &expected()), Vec::<String>::new());
    }

    #[test]
    fn missing_null_extra_and_failed_results_are_reported() {
        let mut r = good_result();
        let Value::Object(obj) = &mut r else { unreachable!() };
        obj.insert("correct".into(), Value::from(false));
        let Some(Value::Object(metrics)) = obj.get_mut("metrics") else { unreachable!() };
        metrics.remove("setup_s");
        metrics.insert("work_per_s".into(), json!({ "value": Value::Null, "unit": "work/s" }));
        metrics.insert("surprise".into(), json!({ "value": 1.0, "unit": "s" }));
        let problems = result_problems("w", &r, &expected());
        let has = |needle: &str| problems.iter().any(|p| p.contains(needle));
        assert!(has("correctness gate failed"));
        assert!(has("setup_s is missing"));
        assert!(has("work_per_s is not a finite number"));
        assert!(has("unexpected metric surprise"));
    }

    fn doc(work_per_s: f64, digest: &str) -> Value {
        json!({ "workloads": json!({ "w": json!({
            "failed": 0u64,
            "end_to_end": json!({ "work_per_s": json!({ "value": work_per_s, "unit": "work/s" }) }),
            "detail": json!({ "digest": digest }),
        }) }) })
    }

    #[test]
    fn compare_applies_the_bound_and_wants_identical_digests() {
        let manifest = json!({
            "workloads": vec![json!({ "name": "w", "why": "x" })],
            "end_to_end": vec![json!({ "name": "work_per_s", "unit": "work/s", "bound": 0.1 })],
        });
        let verdict = |a: &Value, b: &Value| compare_docs(&manifest, a, b).unwrap().1;
        assert!(verdict(&doc(100.0, "0x1"), &doc(109.0, "0x1")));
        assert!(verdict(&doc(100.0, "0x1"), &doc(91.0, "0x1")));
        assert!(!verdict(&doc(100.0, "0x1"), &doc(111.0, "0x1")));
        assert!(!verdict(&doc(100.0, "0x1"), &doc(100.0, "0x2")));
        assert!(!verdict(&doc(100.0, "0x1"), &json!({ "workloads": json!({}) })));
    }
}
