//! Peak-RSS sampling for the scaling tables.
//!
//! Timings alone do not tell the paper-scale story: the operator's *working
//! set* grows with the graph, so the nodes × threads table records the
//! process's peak resident set next to each row's timings. Linux exposes the high-water mark as `VmHWM` in
//! `/proc/self/status`; a privileged writer can reset it between
//! measurements through `/proc/self/clear_refs`.
//!
//! Both reads are best-effort: on platforms without procfs (or when
//! `clear_refs` is not writable, as in unprivileged containers) the
//! functions return `None` / `false` and the benchmark reports `0` for the
//! RSS columns rather than failing the run.

use std::fs;

/// The process's peak resident set size (`VmHWM`), in kilobytes, or
/// `None` when `/proc/self/status` is unavailable or unparseable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status)
}

/// Attempts to reset the peak-RSS high-water mark by writing `5` to
/// `/proc/self/clear_refs` (see `proc(5)`). Returns whether the write
/// succeeded; failure is normal in unprivileged containers, in which case
/// [`peak_rss_kb`] keeps reporting the process-lifetime peak.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Extracts the `VmHWM` value (kB) from `/proc/self/status` text.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tceps\nVmPeak:\t  123 kB\nVmHWM:\t   4567 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4567));
        assert_eq!(parse_vm_hwm_kb("Name:\tceps\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn live_reading_is_plausible_on_linux() {
        // On Linux the reading must exist and exceed a trivially small
        // floor (any Rust test binary maps megabytes). Elsewhere `None`
        // is the contract.
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("procfs should expose VmHWM on linux");
            assert!(kb > 1024, "implausibly small peak RSS: {kb} kB");
        } else {
            assert_eq!(peak_rss_kb(), None);
        }
    }

    #[test]
    fn reset_is_best_effort() {
        // Whether or not the container lets us write clear_refs, the call
        // must not panic and VmHWM must stay readable afterwards.
        let _ = reset_peak_rss();
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().is_some());
        }
    }
}
