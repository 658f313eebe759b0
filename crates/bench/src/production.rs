//! Peak resident memory of the running process. The end-to-end benchmark
//! (`benchmark/src/sys.rs`) reads every `peak_mem_mb` through this
//! function, so it stays here until the benchmark carries its own copy.

/// Reads the process resident high-water mark (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
