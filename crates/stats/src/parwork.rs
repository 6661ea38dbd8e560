//! Deterministic fork-join parallelism on `std::thread::scope`.
//!
//! The harness and auditor must be byte-for-byte reproducible at any
//! worker count, so this layer enforces one discipline everywhere it is
//! used: **work items are independent, and results are joined in input
//! order** regardless of which worker computed them or when it finished.
//! A caller that needs an order-sensitive fold performs it serially over
//! the joined vector — the parallel region only ever computes pure
//! per-item values (the "deterministic join" contract, see DESIGN.md §8).
//!
//! No work-stealing runtime and no new dependencies: workers are scoped
//! threads pulling indices off a shared atomic claim counter, which gives
//! dynamic load balancing for skewed item costs while the index-addressed
//! join keeps the output identical to the serial loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the detected worker count (used by the
/// CI dual-run gate to force 1-worker and N-worker runs on the same box).
pub const WORKERS_ENV: &str = "CN_WORKERS";

/// The widest pool a `CN_WORKERS` value may ask for.
pub const MAX_WORKERS: usize = 64;

/// Why a worker-count value was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkersError {
    /// The value is not a decimal integer (as given, lossily decoded).
    NotAnInteger(String),
    /// The value is zero: a pool needs at least one worker.
    Zero,
    /// The value exceeds [`MAX_WORKERS`].
    TooMany(usize),
}

impl std::fmt::Display for WorkersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkersError::NotAnInteger(v) => write!(f, "{v:?} is not an integer"),
            WorkersError::Zero => write!(f, "0 workers; the minimum is 1"),
            WorkersError::TooMany(n) => write!(f, "{n} workers; the maximum is {MAX_WORKERS}"),
        }
    }
}

impl std::error::Error for WorkersError {}

/// Parses a worker count in `1..=MAX_WORKERS`, ignoring surrounding
/// whitespace.
fn parse_workers(value: &str) -> Result<usize, WorkersError> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(WorkersError::Zero),
        Ok(n) if n > MAX_WORKERS => Err(WorkersError::TooMany(n)),
        Ok(n) => Ok(n),
        Err(_) => Err(WorkersError::NotAnInteger(value.to_string())),
    }
}

/// The `CN_WORKERS` override: `Ok(None)` when unset, the parsed width when
/// valid, and the rejection otherwise. A binary that must not silently run
/// at another width than asked checks this before any work.
pub fn workers_from_env() -> Result<Option<usize>, WorkersError> {
    match std::env::var(WORKERS_ENV) {
        Ok(v) => parse_workers(&v).map(Some),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(WorkersError::NotAnInteger(v.to_string_lossy().into_owned()))
        }
    }
}

/// A fixed-width fork-join pool descriptor.
///
/// `Pool` is a plain value (no threads are retained between calls); each
/// `map` opens a `std::thread::scope`, runs, and joins. A pool of width 1
/// never spawns and is exactly the serial loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool sized from `CN_WORKERS` if set (clamped to `1..=64`), else
    /// from [`std::thread::available_parallelism`]. A value that is not an
    /// integer falls back to the detected width; see [`workers_from_env`]
    /// for the checked reading.
    pub fn auto() -> Pool {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = match workers_from_env() {
            Ok(Some(n)) => n,
            Ok(None) | Err(WorkersError::NotAnInteger(_)) => detected,
            Err(WorkersError::Zero) => 1,
            Err(WorkersError::TooMany(_)) => MAX_WORKERS,
        };
        Pool { workers }
    }

    /// A pool of exactly `workers` workers (minimum 1).
    pub fn with_workers(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// A serial pool (width 1); `map` degenerates to the plain loop.
    pub fn serial() -> Pool {
        Pool { workers: 1 }
    }

    /// The pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns results in **input order**.
    ///
    /// `f` must be a pure function of its item (plus shared read-only
    /// state); the join is index-addressed, so the output is byte-identical
    /// to `items.iter().map(f).collect()` at any worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let width = self.workers.min(n.max(1));
        if width <= 1 {
            return items.iter().map(&f).collect();
        }

        let next = AtomicUsize::new(0);
        let shards: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(&items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("parwork worker panicked")).collect()
        });

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in shards.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for w in [1, 2, 3, 8] {
            let out = Pool::with_workers(w).map(&items, |&x| x * 3 + 1);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expect, "workers={w}");
        }
    }

    #[test]
    fn map_matches_serial_for_skewed_costs() {
        let items: Vec<usize> = (0..64).collect();
        let work = |&i: &usize| {
            // Skew: later items spin longer, so claim order != finish order.
            let mut acc = i as u64;
            for k in 0..(i * 500) as u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        };
        let serial = Pool::serial().map(&items, work);
        let parallel = Pool::with_workers(7).map(&items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: [u8; 0] = [];
        assert!(Pool::with_workers(8).map(&empty, |&b| b).is_empty());
        assert_eq!(Pool::with_workers(8).map(&[7u8], |&b| b * 2), vec![14]);
    }

    #[test]
    fn parse_workers_accepts_one_to_max_and_rejects_the_rest() {
        assert_eq!(parse_workers("1"), Ok(1));
        assert_eq!(parse_workers(" 16\n"), Ok(16));
        assert_eq!(parse_workers("64"), Ok(MAX_WORKERS));
        assert_eq!(parse_workers("0"), Err(WorkersError::Zero));
        assert_eq!(parse_workers("65"), Err(WorkersError::TooMany(65)));
        for bad in ["l6", "", " ", "-1", "1.5", "16x", "99999999999999999999999"] {
            assert_eq!(parse_workers(bad), Err(WorkersError::NotAnInteger(bad.to_string())));
        }
    }

    #[test]
    fn width_clamps_to_item_count() {
        // More workers than items must not deadlock or drop items.
        let out = Pool::with_workers(16).map(&[1u8, 2], |&b| b);
        assert_eq!(out, vec![1, 2]);
    }
}
