//! The `--smoke` run: every metric `BENCHMARK.json` names is printed, no
//! answer is wrong, and the traced run's NDJSON passes the `seqavf-obs`
//! validator.

use std::process::Command;

use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// The `name`s of a `BENCHMARK.json` list.
fn names(list: &str) -> Vec<String> {
    match benchmark_json().get(list) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{list} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {list} list: {other:?}"),
    }
}

/// Runs the smoke benchmark; returns the result line of every workload.
fn smoke(extra: &[&str]) -> Vec<Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_seqavf-benchmark"))
        .args(["--smoke", "--seconds", "1", "--seed", "7"])
        .args(extra)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(results.len(), 4, "one result per workload:\n{stdout}");
    for r in &results {
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        assert_eq!(r.get("failed"), Some(&Value::Num("0".into())), "{stdout}");
    }
    results
}

fn assert_reports(results: &[Value], list: &str) {
    for name in names(list) {
        for r in results {
            let metric = r.get("metrics").and_then(|m| m.get(&name));
            assert!(metric.is_some(), "{list} metric {name} missing from {r:?}");
        }
    }
}

#[test]
fn smoke_run_reports_every_end_to_end_metric_correctly() {
    assert_reports(&smoke(&[]), "end_to_end");
}

#[test]
fn traced_smoke_run_reports_every_layer_and_a_valid_trace() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.ndjson");
    let results = smoke(&["--trace-out", trace.to_str().expect("UTF-8 path")]);
    assert_reports(&results, "per_layer");
    let text = std::fs::read_to_string(&trace).expect("the trace was written");
    let stats = seqavf_obs::validate_trace(&text).expect("the trace validates");
    assert!(stats.spans > 0);
    for root in ["\"bench.op\"", "\"serve.handle\"", "\"serve.update\""] {
        assert!(text.contains(root), "no {root} span in the trace");
    }
}
