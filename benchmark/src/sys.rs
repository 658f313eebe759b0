//! Host facts: peak resident memory, parallelism, source revision.

use seqavf_bench::production::peak_rss_kb;

/// This process's peak resident set (`VmHWM`) in MiB, when readable.
pub fn peak_rss_mib() -> Option<f64> {
    match peak_rss_kb() {
        0 => None,
        kib => Some(kib as f64 / 1024.0),
    }
}

/// Resets this process's `VmHWM` to its current resident set, so a later
/// [`peak_rss_mib`] covers only what follows. Best effort.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `git rev-parse HEAD` of the working directory, when it is a git
/// checkout. The search stops at the working directory's parent, so an
/// unrelated repository above it is never reported.
pub fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
