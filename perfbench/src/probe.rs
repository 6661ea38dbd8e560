//! Process probes read from `/proc/self`: CPU time, and peak resident
//! set size per phase.
//!
//! `VmHWM` only ever rises within a process, so a per-phase peak needs a
//! reset first: writing `5` to `/proc/self/clear_refs` sets `VmHWM` back
//! to the current RSS. When the kernel refuses a reset, the metric it
//! would have bounded is reported as unavailable with the reason, never
//! as a stale process-wide peak.

use std::fs;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread,
/// living and exited), as `getrusage(RUSAGE_SELF)` accounts them.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed utime/stime in /proc/self/stat".to_string())
    };
    Ok(tick()? + tick()?)
}

/// CPU seconds the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the `steal` column of `/proc/stat`, all CPUs).
/// Printed per pass, to tell load elsewhere from a slow pass.
pub fn steal_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/stat").map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    stat.lines()
        .next()
        .filter(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map(|t| t as f64 / USER_HZ)
        .ok_or_else(|| "no steal column in /proc/stat".to_string())
}

/// Per-phase peak-RSS probe. Constructed once per run; construction
/// fails (with the reason) when the peak cannot be reset.
#[derive(Clone, Copy, Debug)]
pub struct RssProbe(());

impl RssProbe {
    /// Checks that the peak can be reset and read on this system.
    pub fn new() -> Result<RssProbe, String> {
        let probe = RssProbe(());
        probe.reset()?;
        probe.peak_mb()?;
        Ok(probe)
    }

    /// Starts a phase: hands the allocator's free pages back to the
    /// kernel, then resets `VmHWM` to the current RSS. Without the first
    /// step a phase would start from whatever the allocator kept after an
    /// earlier phase's peak, not from the memory still in use.
    pub fn reset(&self) -> Result<(), String> {
        release_free_heap();
        fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("peak-RSS reset refused (/proc/self/clear_refs): {e}"))
    }

    /// Peak RSS since the last reset, in MB (10^6 bytes).
    pub fn peak_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .map(|kb| kb as f64 * 1024.0 / 1e6)
            .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
    }
}

/// Returns free heap pages to the kernel (glibc's `malloc_trim`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is safe to call from any thread at
    // any time; Rust's global allocator on this target is glibc malloc.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators keep their own policy; phases then start from the
/// allocator's retained pages.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds().unwrap() > before, "{x}");
    }

    #[test]
    fn reset_drops_the_peak_back_to_current_use() {
        let Ok(probe) = RssProbe::new() else { return };
        let big: Vec<u8> = vec![1; 64 << 20];
        std::hint::black_box(&big);
        let with_big = probe.peak_mb().unwrap();
        drop(big);
        probe.reset().unwrap();
        assert!(probe.peak_mb().unwrap() < with_big - 30.0);
    }
}
