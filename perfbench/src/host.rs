//! Run fingerprint and host-noise diagnostics, read from `/proc` and the
//! checkout itself (no subprocesses).
//!
//! A noisy run and a regression look alike in one number; the steal time of
//! the virtual CPUs and this process's run-queue wait tell them apart.

use std::path::Path;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, resolved from `.git`
/// by hand; `"unknown"` when the directory is not a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters that say how much the host, not the program, cost a run: CPU
/// time stolen from every virtual CPU (`/proc/stat`) and the time this
/// process's threads waited on a run queue (`/proc/self/task/*/schedstat`).
/// Wait is summed over the threads alive at both ends of the window (the
/// main thread and the server's threads); short-lived worker threads of a
/// parallel map are not seen.
#[derive(Debug, Clone, Default)]
pub struct HostCounters {
    steal_ticks: u64,
    rq_wait_ns: Vec<(u64, u64)>,
}

impl HostCounters {
    /// Reads the counters now.
    pub fn read() -> HostCounters {
        HostCounters {
            steal_ticks: steal_ticks(),
            rq_wait_ns: rq_wait_per_thread(),
        }
    }

    /// Milliseconds stolen and waited since `earlier`.
    pub fn since(&self, earlier: &HostCounters) -> (f64, f64) {
        // USER_HZ is 100 on every Linux ABI this runs on.
        let steal_ms = self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 * 10.0;
        let wait_ns: u64 = self
            .rq_wait_ns
            .iter()
            .filter_map(|&(tid, now)| {
                earlier
                    .rq_wait_ns
                    .iter()
                    .find(|&&(t, _)| t == tid)
                    .map(|&(_, then)| now.saturating_sub(then))
            })
            .sum();
        (steal_ms, wait_ns as f64 / 1e6)
    }
}

fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn rq_wait_per_thread() -> Vec<(u64, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            let wait = stat.split_whitespace().nth(1)?.parse().ok()?;
            Some((tid, wait))
        })
        .collect()
}
