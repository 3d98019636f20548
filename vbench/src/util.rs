//! Percentiles, process accounting and the metric table.

use std::fs;
use std::time::Duration;

/// Linear-interpolation percentile of `values` (sorted in place), `p` in
/// 0..=100. Zero for an empty sample.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean, zero for an empty sample.
pub fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Milliseconds in a duration, fractional.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, fractional.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` (fixed at 100 on
/// Linux).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU of process `pid` (all threads), milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLOCK_TICKS * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// End-to-end metrics (reported with `--trace 0`), name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_sps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_scenario", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (reported with `--trace 1`), name and unit.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("server.overhead_p50_ms", "ms"),
    ("server.overhead_tail_ms", "ms"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_tail_ms", "ms"),
    ("server.solve_p50_ms", "ms"),
    ("engine.parse_us", "us"),
    ("engine.encode_us", "us"),
    ("engine.hit_frac", "frac"),
    ("engine.warm_frac", "frac"),
    ("engine.hit_us", "us"),
    ("engine.disk_load_us", "us"),
    ("engine.flush_us_per_entry", "us"),
    ("core.build_us", "us"),
    ("core.coupled_ms", "ms"),
    ("core.coupling_iterations", "count"),
    ("pdn.solve_ms", "ms"),
    ("pdn.self_ms", "ms"),
    ("pdn.unknowns", "count"),
    ("sparse.amg_setup_ms", "ms"),
    ("sparse.krylov_ms", "ms"),
    ("sparse.iterations", "count"),
    ("sparse.fallbacks", "count"),
    ("sparse.mixed_frac", "frac"),
    ("em.lifetimes_ms", "ms"),
    ("em.groups", "count"),
    ("em.us_per_group", "us"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("invalid_answers", "count"),
];

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
