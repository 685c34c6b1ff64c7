//! Order statistics over per-op samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest nearest-rank percentile
/// that still has at least ten samples beyond it. Below 20 samples that
/// percentile would lie under the median, so the median is reported
/// instead. Returns `(value, percentile)`.
pub fn tail(xs: &[f64]) -> Option<(f64, u32)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return median(xs).map(|m| (m, 50));
    }
    // Rank n - 10 (1-based) leaves exactly ten samples above it.
    let rank = n - 10;
    Some((v[rank - 1], (100 * rank / n) as u32))
}

/// The `q`-quantile of a power-of-two bucket histogram given as
/// `(lo, hi, count)` rows in ascending order, interpolated linearly
/// inside the bucket that holds it. `None` for an empty histogram.
pub fn histogram_quantile(rows: &[(u64, u64, u64)], q: f64) -> Option<f64> {
    let total: u64 = rows.iter().map(|r| r.2).sum();
    if total == 0 {
        return None;
    }
    let target = q * total as f64;
    let mut below = 0u64;
    for &(lo, hi, count) in rows {
        if (below + count) as f64 >= target {
            // The open-ended last bucket has no upper edge to spread over.
            let width = if hi == u64::MAX {
                0.0
            } else {
                (hi - lo) as f64
            };
            let frac = (target - below as f64) / count as f64;
            return Some(lo as f64 + width * frac);
        }
        below += count;
    }
    rows.last().map(|r| r.0 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // Rank 30 of 40 leaves samples 31..=40 above it.
        assert_eq!(tail(&xs), Some((30.0, 75)));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&few), Some((5.0, 50)));
    }

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        // Two samples in [4, 8), two in [8, 16): the median sits at the
        // top edge of the first bucket.
        let rows = [(4, 8, 2), (8, 16, 2)];
        assert_eq!(histogram_quantile(&rows, 0.5), Some(8.0));
        assert_eq!(histogram_quantile(&[], 0.5), None);
    }
}
