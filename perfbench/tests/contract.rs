//! The benchmark's own contract: its metric names, `BENCHMARK.json`, the
//! metrics each workload must emit, the correctness gate, and the
//! command line's fail-closed behaviour.
//!
//! Workloads run at `Size::Tiny` here, a few seconds in all.

use perfbench::cli::{parse, Args};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::run::{run, Outcome};
use perfbench::workloads::{Size, Workload};
use perfbench::{out_dir, Scratch};
use std::process::Command;
use std::time::Instant;

fn tiny_run(workload: Workload, trace: bool, inject_mismatch: bool) -> Outcome {
    let args = Args {
        workload,
        seed: 3,
        seconds: 1,
        trace,
    };
    let scratch = Scratch::new().expect("scratch directory");
    run(
        &args,
        Size::Tiny,
        Instant::now(),
        scratch.path(),
        inject_mismatch,
    )
}

/// The `"name"` values listed under `key` in `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} key"));
    let body = &json[start..];
    let end = body.find(']').expect("list closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalogued_metrics_and_workloads() {
    let path = perfbench::bench_dir().join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let names = |metrics: &[perfbench::metrics::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(listed_names(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(listed_names(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed_names(&json, "workloads"), workloads);
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{} is not [A-Za-z0-9_.-]+", m.name);
        let entry = json
            .find(&format!("\"name\": \"{}\"", m.name))
            .expect("listed");
        let tail = &json[entry..];
        let entry = &tail[..tail.find('}').expect("entry closes")];
        assert!(
            entry.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "unit of {}",
            m.name
        );
        assert!(
            entry.contains(&format!("\"better\": \"{}\"", m.better.as_str())),
            "{}",
            m.name
        );
    }
}

#[test]
fn every_workload_emits_its_metrics_and_agrees_with_its_traced_run() {
    for workload in Workload::ALL {
        let plain = tiny_run(workload, false, false);
        assert!(plain.correct, "{}:\n{}", workload.name(), plain.record);
        assert!(plain.checks.attempted() > 0 && plain.checks.failed() == 0);
        for m in END_TO_END {
            let v = plain
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            assert!(*v > 0.0, "{} on {} is {v}", m.name, workload.name());
        }

        let traced = tiny_run(workload, true, false);
        assert!(traced.correct, "{}:\n{}", workload.name(), traced.record);
        assert_eq!(
            traced.fingerprint, plain.fingerprint,
            "traced vs untraced fingerprint"
        );
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let unmeasured: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.workloads.contains(&workload) && traced.metrics[m.name] <= 0.0)
            .map(|m| m.name)
            .collect();
        assert!(
            unmeasured.is_empty(),
            "{}: {unmeasured:?} not measured",
            workload.name()
        );
        assert!(traced
            .record
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": true"));
    }
}

#[test]
fn an_injected_oracle_mismatch_fails_the_gate() {
    let outcome = tiny_run(Workload::AuditBatch, false, true);
    assert!(!outcome.correct);
    assert!(outcome.checks.failed() > 0);
    assert!(outcome.checks.error_ratio() > 0.0);
    assert!(outcome.record.contains("oracle mismatch"));
    assert!(outcome
        .record
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
}

#[test]
fn a_rejected_command_line_exits_2_and_writes_nothing() {
    let cases = [
        "--workload bogus --seed 1 --seconds 5 --trace 0",
        "--workload audit_batch --seed -1 --seconds 5 --trace 0",
        "--workload audit_batch --seed 1 --seconds 5 --trace 9",
    ];
    // Records and scratch directories only ever appear in `out/`; the
    // scratch ones belong to runs of this test process.
    let records = || -> Vec<String> {
        let entries = std::fs::read_dir(out_dir()).into_iter().flatten().flatten();
        let mut names: Vec<String> = entries
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| !n.starts_with("tmp-"))
            .collect();
        names.sort();
        names
    };
    for case in cases {
        assert!(parse(case.split_whitespace()).is_err());
        let before = records();
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(case.split_whitespace())
            .output()
            .expect("runs the binary");
        assert_eq!(out.status.code(), Some(2), "{case}");
        assert!(out.stdout.is_empty(), "{case}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("perfbench: error:"));
        assert_eq!(records(), before, "{case}");
    }
}
