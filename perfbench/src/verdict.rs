//! Oracle checks and run fingerprints.
//!
//! Every exact verdict a pass produces is compared against an oracle
//! (the batch audit, a plain replay, or the first pass of the run), and
//! every comparison counts as one attempt. Fingerprints condense each
//! verdict into a SHA-256d that can be compared across runs and commits
//! from the printed record alone.

use cn_chain::{sha256d, BlockHash, Hash256};
use cn_core::AuditReport;
use std::fmt::Display;

/// Attempted and failed oracle checks over a run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    inject_mismatch: bool,
    failures: Vec<String>,
}

impl Checks {
    /// A fresh tally. With `inject_mismatch`, every report comparison
    /// runs against a deliberately altered expectation, so each one fails
    /// — the way to show that the gate can fire.
    pub fn new(inject_mismatch: bool) -> Checks {
        Checks {
            inject_mismatch,
            ..Checks::default()
        }
    }

    /// Compares a verdict against its oracle.
    pub fn same_report(&mut self, label: &str, actual: &AuditReport, expected: &AuditReport) {
        let ok = if self.inject_mismatch {
            let mut altered = expected.clone();
            altered.config.alpha = f64::from_bits(altered.config.alpha.to_bits() ^ 1);
            *actual == altered
        } else {
            actual == expected
        };
        self.record(label, ok);
    }

    /// Records a check whose outcome the caller computed.
    pub fn record(&mut self, label: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("oracle mismatch: {label}"));
        }
    }

    /// Records a verdict that could not be produced at all.
    pub fn error(&mut self, label: &str, err: impl Display) {
        self.attempted += 1;
        self.failed += 1;
        self.failures
            .push(format!("unexpected error: {label}: {err}"));
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// One line per failure, in the order they happened.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One verdict's fingerprint: SHA-256d over its rendered report, the
/// chain tip hash it was taken at, and the snapshot count behind it.
pub fn verdict_fingerprint(report: &AuditReport, tip: &BlockHash, snapshots: u64) -> Hash256 {
    let mut material = report.render().into_bytes();
    material.extend_from_slice(tip.0.as_bytes());
    material.extend_from_slice(&snapshots.to_le_bytes());
    sha256d(&material)
}

/// A labelled verdict of one pass, with its fingerprint.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Which verdict (dataset, world, fleet size, …).
    pub label: String,
    /// The exact report.
    pub report: AuditReport,
    /// Its fingerprint.
    pub fingerprint: Hash256,
}

impl Verdict {
    /// Fingerprints `report` taken at `tip` over `snapshots` snapshots.
    pub fn new(label: String, report: AuditReport, tip: &BlockHash, snapshots: u64) -> Verdict {
        let fingerprint = verdict_fingerprint(&report, tip, snapshots);
        Verdict {
            label,
            report,
            fingerprint,
        }
    }
}

/// The run fingerprint: SHA-256d over every verdict fingerprint of a
/// pass, in order, plus any extra pass outputs (pair counts, log sizes).
pub fn run_fingerprint(verdicts: &[Verdict], extra: &str) -> Hash256 {
    let mut material = Vec::with_capacity(verdicts.len() * 32 + extra.len());
    for v in verdicts {
        material.extend_from_slice(v.fingerprint.as_bytes());
    }
    material.extend_from_slice(extra.as_bytes());
    sha256d(&material)
}
