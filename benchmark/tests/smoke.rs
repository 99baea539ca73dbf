//! Runs the whole suite at `--smoke` scale, untraced and traced, and
//! holds the printed names against `BENCHMARK.json`. (That the file is
//! the table in `src/spec.rs` is a unit test there.)

use pge_obs::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn names(spec: &Json, key: &str) -> BTreeSet<String> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_suite_prints_exactly_the_names_in_benchmark_json() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let spec_text =
        std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let spec = parse(&spec_text).expect("BENCHMARK.json is JSON");
    let exe = env!("CARGO_BIN_EXE_pge-benchmark");

    let mut stdout = String::new();
    for trace in ["0", "1"] {
        let out = Command::new(exe)
            .args(["run", "--smoke", "--trace", trace])
            .current_dir(root)
            .output()
            .expect("run smoke suite");
        stdout.push_str(&String::from_utf8_lossy(&out.stdout));
        assert!(
            out.status.success(),
            "smoke suite (--trace {trace}) failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let mut workloads = BTreeSet::new();
    let mut metrics = BTreeSet::new();
    let mut results = 0;
    for line in stdout.lines() {
        if let Some(w) = line.strip_prefix("# workload ") {
            workloads.insert(w.to_string());
        } else if let Some(rest) = line.strip_prefix("metric ") {
            metrics.insert(
                rest.split_whitespace()
                    .next()
                    .expect("metric name")
                    .to_string(),
            );
        } else if line.starts_with('{') {
            let r = parse(line).expect("result line is JSON");
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{line}");
            assert!(r
                .get("attempted")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0));
            results += 1;
        }
    }
    assert_eq!(workloads, names(&spec, "workloads"));
    assert_eq!(
        results,
        2 * workloads.len(),
        "one result per workload and mode"
    );
    let mut expected = names(&spec, "end_to_end");
    expected.extend(names(&spec, "per_layer"));
    assert_eq!(metrics, expected);
    for n in workloads.iter().chain(&metrics) {
        assert!(
            n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
            "name {n} uses a character outside letters, digits, _ . -"
        );
    }
    for w in &workloads {
        let trace = root.join("benchmark/out").join(format!("trace-{w}.jsonl"));
        let text =
            std::fs::read_to_string(&trace).unwrap_or_else(|e| panic!("{}: {e}", trace.display()));
        let first = parse(text.lines().next().expect("a span")).expect("span is JSON");
        for key in ["name", "start_ns", "end_ns", "parent", "op", "self_ns"] {
            assert!(first.get(key).is_some(), "span lacks {key}");
        }
    }
}
