//! Order statistics over timing samples, and the host facts printed with
//! every result.

/// Nearest-rank quantile `q ∈ (0, 1]` of `samples` (NaN when empty), and
/// how many samples lie strictly beyond its rank.
pub fn quantile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Median (nearest rank; NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
