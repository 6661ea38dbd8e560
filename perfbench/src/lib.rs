//! # perfbench — end-to-end and per-layer benchmark
//!
//! Drives the public APIs of `cn-sim`, `cn-data`, `cn-core` and
//! `cn-stats` on three workloads (see `README.md` in this directory),
//! checks every exact verdict against an oracle, and prints every metric
//! by name with its unit. The last line of a run is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod trace;
pub mod verdict;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's own directory (where `Cargo.toml` sits).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where records and scratch files go: `out/` in the benchmark's own
/// directory, and nowhere else.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A scratch directory under [`out_dir`], unique within this machine's
/// process table, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates a fresh scratch directory.
    pub fn new() -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes `contents` to `path` atomically: a temporary file in the same
/// directory, flushed and synced, then renamed over `path`.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}
