//! Process memory as the kernel accounts it.

/// A `kB` field of `/proc/self/status` in MiB (`VmHWM` is the peak
/// resident set, `VmRSS` the current one).
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':')?.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}
