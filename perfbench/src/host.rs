//! What the benchmark reads about the host and its processes: CPU time
//! and peak memory from `/proc`, CPU affinity, the last-level cache size
//! from sysfs, and a streaming-copy bandwidth probe.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. Linux
/// fixes `USER_HZ` at 100 on every architecture it exposes to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of process `pid`, all threads, in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest`
    // starts at field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ * 1e3)
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`: time the hypervisor ran someone else while this guest
/// wanted the CPU, and all time.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A `key:   value` line of `/proc/<pid>/status`.
fn status_field(pid: u32, key: &str) -> Option<String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let v = status_field(pid, "VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPUs process `pid` may run on, as the kernel lists them
/// (`Cpus_allowed_list`, e.g. `0-1`), and how many that is.
pub fn affinity(pid: u32) -> (String, usize) {
    let list = status_field(pid, "Cpus_allowed_list").unwrap_or_default();
    let count = list
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(r.parse::<usize>().is_ok()),
        })
        .sum();
    (list, count)
}

/// Size in bytes of the highest-level unified or data cache of CPU 0,
/// from sysfs; `None` when sysfs does not say.
pub fn last_level_cache_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().ok().map(|v| v << 20)
        } else {
            size.parse::<usize>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Result of the streaming-copy probe.
#[derive(Debug, Clone, Copy)]
pub struct StreamProbe {
    /// Bytes moved per second (one read and one write per element), in
    /// GB/s (10^9 bytes), median of the repetitions.
    pub gbps: f64,
    /// Combined size of the two arrays, in MiB.
    pub footprint_mb: f64,
    /// The last-level cache the footprint was sized against, in MiB.
    pub llc_mb: f64,
}

/// Copies one `f64` array into another, both together at least four
/// times the last-level cache, and reports the median bandwidth of
/// `reps` copies. Counts 16 bytes per element (8 read, 8 written); a
/// write-allocate cache moves 8 more that this does not count.
pub fn stream_probe(reps: usize) -> StreamProbe {
    const FALLBACK_LLC: usize = 32 << 20;
    let llc = last_level_cache_bytes().unwrap_or(FALLBACK_LLC);
    let elems = (4 * llc).div_ceil(2 * std::mem::size_of::<f64>());
    let src: Vec<f64> = (0..elems).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; elems];
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        let s = t.elapsed().as_secs_f64();
        rates.push((16 * elems) as f64 / s / 1e9);
    }
    StreamProbe {
        gbps: crate::stats::median(&rates),
        footprint_mb: (16 * elems) as f64 / (1 << 20) as f64,
        llc_mb: llc as f64 / (1 << 20) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some());
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        let (list, count) = affinity(pid);
        assert!(!list.is_empty() && count >= 1, "{list:?}");
    }
}
