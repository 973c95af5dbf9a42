//! The benchmark's own arithmetic: medians, quartiles, the tail
//! percentile rule, per-record normalisation and metric-name checks.

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `total / records`, or 0 when no record completed: a workload that
/// finished nothing reports zero cost per record rather than a
/// non-number (JSON has no NaN or infinity).
pub fn per_record(total: f64, records: u64) -> f64 {
    if records == 0 {
        0.0
    } else {
        total / records as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The percentiles a timing may be reported at, highest first, in parts
/// per ten thousand (integers, so rank arithmetic is exact), with their
/// metric-name suffixes.
pub const PERCENTILES: [(u64, &str); 5] = [
    (9_999, "p9999"),
    (9_990, "p999"),
    (9_900, "p99"),
    (9_000, "p90"),
    (5_000, "p50"),
];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of [`PERCENTILES`] that has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<(u64, &'static str)> {
    PERCENTILES
        .into_iter()
        .find(|&(per_myriad, _)| n > 0 && n - 1 - rank_index(per_myriad, n) >= TAIL_SAMPLES)
}

/// 0-based index of the nearest-rank percentile `per_myriad` / 100 in
/// `n > 0` sorted samples.
fn rank_index(per_myriad: u64, n: usize) -> usize {
    let rank = (per_myriad * n as u64).div_ceil(10_000) as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `per_myriad` / 100 of `values`; 0 for no
/// values.
pub fn percentile(values: &[f64], per_myriad: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(per_myriad, sorted.len())]
}

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_record_of_zero_records_is_zero() {
        assert_eq!(per_record(12.5, 0), 0.0);
        assert_eq!(per_record(0.0, 0), 0.0);
        assert_eq!(per_record(12.5, 5), 2.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let suffix = |n| tail_percentile(n).map(|p| p.1);
        // Small counts: 20 samples put exactly 10 beyond the median.
        assert_eq!(suffix(0), None);
        assert_eq!(suffix(10), None);
        assert_eq!(suffix(19), None);
        assert_eq!(suffix(20), Some("p50"));
        assert_eq!(suffix(99), Some("p50"));
        assert_eq!(suffix(100), Some("p90"));
        assert_eq!(suffix(999), Some("p90"));
        assert_eq!(suffix(1_000), Some("p99"));
        // Large counts: p99.9 needs 10,000 samples, p99.99 100,000.
        assert_eq!(suffix(9_999), Some("p99"));
        assert_eq!(suffix(10_000), Some("p999"));
        assert_eq!(suffix(12_000), Some("p999"));
        assert_eq!(suffix(99_999), Some("p999"));
        assert_eq!(suffix(100_000), Some("p9999"));
        assert_eq!(suffix(1_000_000), Some("p9999"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 5_000), 500.0);
        assert_eq!(percentile(&values, 9_990), 999.0);
        assert_eq!(percentile(&values, 10_000), 1000.0);
        assert_eq!(percentile(&[7.0], 9_990), 7.0);
        assert_eq!(percentile(&[], 5_000), 0.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for good in [
            "records_per_s",
            "webgen.resolve_us_per_record",
            "browser.visit_us_p999",
            "trace.overhead_share",
            "a-b.c_d9",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_leading",
            ".leading",
            "has space",
            "slash/name",
            "percent%",
            "ümlaut",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
