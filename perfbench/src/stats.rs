//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`, so
//! every reported value is a measured sample, never an interpolation.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it is
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // Work in parts per million so that 99.9 % of 1000 is exactly 999
    // rather than 999.000...1 rounded up to 1000.
    let ppm = (p * 10_000.0).round() as u128;
    let r = (ppm * n as u128).div_ceil(1_000_000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, as
/// `(percentile, value, samples beyond)`. `None` when even the median
/// has fewer than ten samples above it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let r = rank(p, n);
        let beyond = n - r;
        (beyond >= TAIL_MIN_BEYOND).then(|| (p, sorted[r - 1], beyond))
    })
}

/// Fewest samples a slice of [`quietest_slice_percentile`] holds.
pub const SLICE_MIN: usize = 500;
/// Most slices [`quietest_slice_percentile`] cuts a run into.
pub const SLICE_MAX: usize = 20;

/// Percentile `p` of a run's quietest stretch: the run's samples (in send
/// order) are cut into consecutive slices and the lowest of the slices'
/// nearest-rank percentiles is reported. Runs too short for two slices of
/// [`SLICE_MIN`] get the plain percentile; long runs get up to
/// [`SLICE_MAX`] slices. A shared host's busy spells stall the whole
/// machine for milliseconds at a time and can cover all but one or two
/// slices of a run, and then the median slice read three to six times the
/// quiet value; the quietest slice shows the program, not the host.
pub fn quietest_slice_percentile(in_order: &[f64], p: f64) -> f64 {
    slice_percentiles(in_order, p)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Each slice's nearest-rank percentile `p` (see [`quietest_slice_percentile`]).
fn slice_percentiles(in_order: &[f64], p: f64) -> Vec<f64> {
    let slices = (in_order.len() / SLICE_MIN).clamp(1, SLICE_MAX);
    (0..slices)
        .map(|k| {
            let lo = k * in_order.len() / slices;
            let hi = (k + 1) * in_order.len() / slices;
            percentile_of(&in_order[lo..hi], p)
        })
        .collect()
}

/// `min / median / max` of the slice percentiles, in ms, for reports.
pub fn slice_spread(in_order: &[f64], p: f64) -> String {
    let per_slice = slice_percentiles(in_order, p);
    let min = per_slice.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_slice.iter().copied().fold(0.0, f64::max);
    format!(
        "{min:.4} / {:.4} / {max:.4} ms over {} slices",
        median(&per_slice),
        per_slice.len()
    )
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile_of(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "rank is clamped to 1");
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Exact products do not round up a rank.
        assert_eq!(rank(99.9, 1000), 999);
        assert_eq!(rank(99.0, 100), 99);
        assert_eq!(rank(50.0, 3), 2);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_of(&[], 50.0), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 7.0]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990 and exactly 10 beyond; p99.9
        // has only 1 beyond.
        let v = ramp(1000);
        assert_eq!(tail(&v), Some((99.0, 990.0, 10)));
        // 999 samples: p99 has rank 990 and 9 beyond, so p90 is the tail.
        let v = ramp(999);
        let (p, x, beyond) = tail(&v).unwrap();
        assert_eq!((p, x, beyond), (90.0, 900.0, 99));
        // 10 000 samples reach p99.9 (rank 9990, 10 beyond).
        let v = ramp(10_000);
        assert_eq!(tail(&v), Some((99.9, 9990.0, 10)));
        // 100 000 reach p99.99.
        assert_eq!(tail(&ramp(100_000)).unwrap().0, 99.99);
    }

    #[test]
    fn slices_report_the_quietest_slice() {
        // Short runs: the plain percentile.
        let v = ramp(999);
        assert_eq!(quietest_slice_percentile(&v, 90.0), percentile(&v, 90.0));
        // 3 slices of 500: a spell covering all but the middle slice does
        // not move the result.
        let mut v = vec![50.0; 1500];
        for x in &mut v[500..1000] {
            *x = 1.0;
        }
        assert_eq!(quietest_slice_percentile(&v, 90.0), 1.0);
        assert_eq!(percentile_of(&v, 90.0), 50.0);
        // Never more than SLICE_MAX slices: on a falling ramp the quietest
        // slice is the last of SLICE_MAX.
        let mut v = ramp(SLICE_MIN * SLICE_MAX * 3);
        v.reverse();
        let slice = v.len() / SLICE_MAX;
        let want = percentile_of(&v[(SLICE_MAX - 1) * slice..], 50.0);
        assert_eq!(quietest_slice_percentile(&v, 50.0), want);
    }

    #[test]
    fn tail_of_tiny_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None, "median of 19 has 9 beyond");
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0, 10)));
    }
}
