//! Self-test of the benchmark: a shortened run of every workload must
//! finish correct and print exactly the metrics `BENCHMARK.json` names,
//! and a deliberately corrupted answer must be caught.
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml`

use std::process::Command;

/// Runs the benchmark from the repository root; returns the last stdout
/// line (the result object).
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_grain-perfbench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn smoke(workload: &str, trace: &str) -> String {
    run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ])
}

/// The `"name"` values of one section of `BENCHMARK.json` (sections are
/// `workloads`, `end_to_end`, `per_layer`, in that order).
fn names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &spec[start..];
    let end = ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""]
        .iter()
        .filter_map(|s| rest[1..].find(s).map(|i| i + 1))
        .min()
        .unwrap_or(rest.len());
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, \"")
        .map(|m| m.trim_start_matches('"'))
        .map(|m| m[..m.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn every_workload_finishes_a_smoke_run_with_every_metric() {
    let end_to_end = names("end_to_end");
    assert_eq!(end_to_end.len(), 7);
    for workload in names("workloads") {
        let result = smoke(&workload, "0");
        assert!(
            result.starts_with("{\"correct\": true,"),
            "{workload}: {result}"
        );
        assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
        assert_eq!(metric_names(&result), end_to_end, "{workload}");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let result = smoke("warm_budget_sweep", "1");
    assert!(result.starts_with("{\"correct\": true,"), "{result}");
    assert_eq!(metric_names(&result), names("per_layer"));
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    let result = run(&[
        "--workload",
        "warm_budget_sweep",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--corrupt-one-answer",
    ]);
    assert!(result.starts_with("{\"correct\": false,"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
}
