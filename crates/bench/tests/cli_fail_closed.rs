//! The `experiments` binary fails closed: a rejected command line writes
//! nothing, and `--verify` never rewrites the goldens it checks.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory unique to this test process and `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cn-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn dir_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn unknown_id_exits_2_and_writes_nothing() {
    let dir = scratch_dir("bogus-id");
    let rejected: [&[&str]; 3] =
        [&["bogus_id"], &["--quick", "fig1", "bogus_id"], &["--verify", "all", "nope"]];
    for args in rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown experiment id"),
            "args {args:?}: stderr names the rejected id"
        );
        assert!(out.stdout.is_empty(), "args {args:?}: no experiment ran");
        assert!(!dir.join("results").exists(), "args {args:?}: results/ created");
        assert!(!dir.join("BENCH_pipeline.json").exists(), "args {args:?}: BENCH written");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "args {args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_reports_drift_and_leaves_the_golden_untouched() {
    let dir = scratch_dir("verify-drift");
    std::fs::create_dir_all(dir.join("results")).expect("create results/");
    let stale = "stale golden\n";
    std::fs::write(dir.join("results/fig1.txt"), stale).expect("write stale golden");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--verify", "fig1"])
        .current_dir(&dir)
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(3), "drift must fail the run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig1 output differs"));
    assert_eq!(std::fs::read_to_string(dir.join("results/fig1.txt")).expect("golden"), stale);
    assert_eq!(dir_entries(&dir.join("results")), ["fig1.txt"], "no temporary files left");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_cn_workers_exits_2_and_writes_nothing() {
    let dir = scratch_dir("bad-workers");
    for value in ["l6", "0", "65", "", "-1", "1.5", "16x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", "fig1"])
            .env("CN_WORKERS", value)
            .current_dir(&dir)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "CN_WORKERS={value:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("invalid CN_WORKERS"),
            "CN_WORKERS={value:?}: stderr names the rejected variable"
        );
        assert!(out.stdout.is_empty(), "CN_WORKERS={value:?}: no experiment ran");
        assert!(!dir.join("results").exists(), "CN_WORKERS={value:?}: results/ created");
        assert!(!dir.join("BENCH_pipeline.json").exists(), "CN_WORKERS={value:?}: BENCH written");
        assert_eq!(dir_entries(&dir), Vec::<String>::new(), "CN_WORKERS={value:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
