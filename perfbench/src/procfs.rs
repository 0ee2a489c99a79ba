//! Process-level readings from `/proc/self`: CPU time, peak resident
//! set, context switches, thread count. Linux only; every reader returns
//! zero where `/proc` is absent, and the run then fails its
//! "metrics are never zero" check instead of reporting a made-up number.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture it supports; reading it
/// properly needs `sysconf`, i.e. libc, which this package does not
/// link.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by all threads of this process,
/// threads that already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which utime and stime are the
    // 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_S
}

fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") / 1024.0
}

/// Voluntary + involuntary context switches summed over the threads
/// alive right now (the kernel keeps these per thread), and that thread
/// count.
pub fn ctx_switches_and_threads() -> (f64, f64) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0.0, 0.0);
    };
    let (mut switches, mut threads) = (0.0, 0.0);
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        threads += 1.0;
        switches += status_field(&status, "voluntary_ctxt_switches:")
            + status_field(&status, "nonvoluntary_ctxt_switches:");
    }
    (switches, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), 2048.0);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 7.0);
        assert_eq!(status_field(status, "missing:"), 0.0);
    }

    #[test]
    fn live_process_has_memory_and_a_thread() {
        assert!(peak_rss_mib() > 0.0);
        assert!(ctx_switches_and_threads().1 >= 1.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
