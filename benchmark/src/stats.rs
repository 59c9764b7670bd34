//! Order statistics the way the benchmark reports them. Percentiles are
//! given in permille (`P50 = 500`) so that ranks are exact integers.

pub const P50: u32 = 500;
pub const P95: u32 = 950;
pub const P99: u32 = 990;

/// The percentiles a tail is reported at, ascending.
pub const TAIL_PERMILLES: [u32; 4] = [900, P95, P99, 999];

/// Nearest rank: the smallest 1-based rank with at least `permille`/1000
/// of `n` samples at or below it.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice. `None` when empty.
pub fn percentile<T: Copy>(sorted: &[T], permille: u32) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), permille) - 1])
}

/// The highest of [`TAIL_PERMILLES`] with at least ten samples beyond it;
/// a percentile above that is read off fewer than ten values and does not
/// repeat. `None` when even the lowest has fewer.
pub fn supported_permille(samples: usize) -> Option<u32> {
    TAIL_PERMILLES
        .iter()
        .copied()
        .rfind(|&p| samples > 0 && samples - rank(samples, p) >= 10)
}

/// Sorts in place and returns the nearest-rank percentile, 0 when empty.
pub fn percentile_of(values: &mut [u64], permille: u32) -> u64 {
    values.sort_unstable();
    percentile(values, permille).unwrap_or(0)
}

/// Median of unsorted floats (mean of the middle two when even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), Some(50));
        assert_eq!(percentile(&v, 900), Some(90));
        assert_eq!(percentile(&v, P99), Some(99));
        assert_eq!(percentile(&v, 1000), Some(100));
        assert_eq!(percentile(&v, 0), Some(1));
        assert_eq!(percentile(&[10, 20, 30], P50), Some(20));
        assert_eq!(percentile(&[10, 20, 30, 40], P50), Some(20));
        assert_eq!(percentile(&[10, 20, 30, 40], 510), Some(30));
        assert_eq!(percentile(&[7], 999), Some(7));
        assert_eq!(percentile::<u64>(&[], P50), None);
    }

    #[test]
    fn ten_samples_beyond() {
        assert_eq!(supported_permille(0), None);
        assert_eq!(supported_permille(99), None);
        assert_eq!(supported_permille(100), Some(900));
        assert_eq!(supported_permille(199), Some(900));
        assert_eq!(supported_permille(200), Some(P95));
        assert_eq!(supported_permille(1_000), Some(P99));
        assert_eq!(supported_permille(9_999), Some(P99));
        assert_eq!(supported_permille(10_000), Some(999));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
