//! Small statistics helpers and process measurements.

use std::time::{Duration, Instant};

/// The median of `values` (the mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The `p`th percentile (nearest rank) of `values`, and how many samples
/// lie strictly beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The percentile every workload reports as its latency tail. Higher
/// ones swing with the host's scheduling noise from run to run; every
/// workload's run of the configured length leaves far more than ten
/// samples beyond this one.
const TAIL_PCT: f64 = 90.0;

/// A latency tail: the [`TAIL_PCT`] percentile, which must leave at least
/// ten samples beyond it. When a short run leaves fewer, the highest
/// whole percentile that still does is used instead (the maximum, for
/// fewer than eleven samples). Returns (value, percentile).
pub fn tail(values: &[f64]) -> (f64, f64) {
    tail_at(values, TAIL_PCT)
}

fn tail_at(values: &[f64], p: f64) -> (f64, f64) {
    let (value, beyond) = percentile(values, p);
    if beyond >= 10 {
        return (value, p);
    }
    let mut q = p.floor();
    while q >= 1.0 {
        let (value, beyond) = percentile(values, q);
        if beyond >= 10 {
            return (value, q);
        }
        q -= 1.0;
    }
    (percentile(values, 100.0).0, 100.0)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its value and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The process's peak resident set size in MiB (`VmHWM`), or the current
/// one where the peak is not reported.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status.lines().find_map(|line| {
            let rest = line.strip_prefix(key)?;
            let kib: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kib / 1024.0)
        })
    };
    field("VmHWM:")
        .or_else(|| field("VmRSS:"))
        .unwrap_or(f64::NAN)
}

/// FNV-1a 64-bit digest of `bytes` (pins result documents that have no
/// committed copy).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), (90.0, 10));
        assert_eq!(tail(&values), (90.0, 90.0));
        // p95 leaves only five beyond, so the tail falls back to p90.
        assert_eq!(tail_at(&values, 95.0), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 2.0]), (2.0, 100.0));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
