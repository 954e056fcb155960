//! Shared latency/staleness report formatting for the serving tiers.
//!
//! `pbdmm serve` (in-process) and `pbdmm load` (over the wire) measure the
//! same things — per-update submit→completion latency, snapshot read
//! throughput, and snapshot staleness against the highest acknowledged
//! epoch — and must print **byte-identical report formats** so the two runs
//! diff cleanly and the wire overhead is the only difference. This module
//! is the single implementation both print through; change a format here
//! and both commands (and the tests that grep their output) move together.

/// The value at quantile `p` (0.0–1.0) of an ascending-sorted sample set,
/// by nearest-rank on the rounded index. Empty input reports 0 — a report
/// line for "no samples" beats a panic mid-summary.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// `"{count} updates in {ms} ms -> {rate} updates/s"` — the throughput
/// summary both serving tiers lead with (each under its own label prefix).
pub fn throughput_summary(count: u64, seconds: f64) -> String {
    format!(
        "{count} updates in {:.1} ms -> {:.0} updates/s",
        seconds * 1e3,
        count as f64 / seconds.max(1e-9)
    )
}

/// `"p50 {x} us, p99 {y} us, max {z} us"` over ascending-sorted
/// submit→completion latencies in µs. Print it under a `ticket latency:`
/// prefix.
pub fn latency_summary(sorted_us: &[f64]) -> String {
    format!(
        "p50 {:.0} us, p99 {:.0} us, max {:.0} us",
        percentile(sorted_us, 0.50),
        percentile(sorted_us, 0.99),
        percentile(sorted_us, 1.0)
    )
}

/// The full `reads:` line body: snapshot-query count, read throughput, and
/// the failed-query count that must stay 0. `context` names the read tier
/// (`"4 readers"` in-process, `"4 connections"` over the wire).
pub fn reads_summary(reads: u64, seconds: f64, context: &str, failed: u64) -> String {
    format!(
        "{reads} snapshot queries in {:.1} ms -> {:.0} reads/s ({context}, failed queries: {failed})",
        seconds * 1e3,
        reads as f64 / seconds.max(1e-9)
    )
}

/// The full `snapshot staleness:` line body over ascending-sorted samples
/// of (acknowledged epoch − observed epoch).
pub fn staleness_summary(sorted: &[f64]) -> String {
    format!(
        "p50 {:.0}, p99 {:.0}, max {:.0} updates behind acknowledged",
        percentile(sorted, 0.50),
        percentile(sorted, 0.99),
        percentile(sorted, 1.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_total() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.50), 51.0); // round(99 * 0.5) = 50
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summaries_are_stable_formats() {
        // These exact shapes are what serve/load print and what the CLI
        // tests (and CI greps) match against — lock them down.
        assert_eq!(
            throughput_summary(1000, 0.5),
            "1000 updates in 500.0 ms -> 2000 updates/s"
        );
        assert_eq!(
            latency_summary(&[1.0, 2.0, 100.0]),
            "p50 2 us, p99 100 us, max 100 us"
        );
        assert_eq!(
            reads_summary(10, 0.01, "2 readers", 0),
            "10 snapshot queries in 10.0 ms -> 1000 reads/s (2 readers, failed queries: 0)"
        );
        assert_eq!(
            staleness_summary(&[0.0, 0.0, 3.0]),
            "p50 0, p99 3, max 3 updates behind acknowledged"
        );
    }
}
