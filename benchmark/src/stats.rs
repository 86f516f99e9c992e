//! Order statistics used by the benchmark: percentiles, the segment-median
//! rate and the quartile spread the acceptance rule is stated in.

/// Sorts in place and returns the slice (NaN-free inputs only).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// Percentile `q` in `[0, 1]` of an ascending slice, by linear
/// interpolation between the two closest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(mut values: Vec<f64>) -> f64 {
    percentile(sorted(&mut values), 0.5)
}

/// Bounds of `segments` equal-count consecutive runs of `n` samples. Samples
/// past the last full segment are left out; with fewer samples than
/// segments the whole run is one segment.
fn segment_bounds(n: usize, segments: usize) -> Vec<(usize, usize)> {
    match n / segments.max(1) {
        0 => vec![(0, n)],
        per => (0..segments).map(|k| (k * per, (k + 1) * per)).collect(),
    }
}

/// Work rate of each segment. `done_s[i]` is the time window `i` completed,
/// `start_s` the time the first one was submitted and `per_window` the work
/// units each window stands for.
pub fn segment_rates(done_s: &[f64], start_s: f64, per_window: f64, segments: usize) -> Vec<f64> {
    segment_bounds(done_s.len(), segments)
        .into_iter()
        .filter(|(lo, hi)| hi > lo)
        .map(|(lo, hi)| {
            let from = if lo == 0 { start_s } else { done_s[lo - 1] };
            (hi - lo) as f64 * per_window / (done_s[hi - 1] - from).max(f64::MIN_POSITIVE)
        })
        .collect()
}

/// Percentile `q` of each segment of `samples` (in the order they were
/// taken).
pub fn segment_percentiles(samples: &[f64], q: f64, segments: usize) -> Vec<f64> {
    segment_bounds(samples.len(), segments)
        .into_iter()
        .map(|(lo, hi)| percentile(sorted(&mut samples[lo..hi].to_vec()), q))
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    let data = sorted(&mut data);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the spread the
/// benchmark's acceptance rule compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values.to_vec());
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // 10 windows, 5 segments of 2; one segment is ten times slower.
        let mut done = Vec::new();
        let mut t = 0.0;
        for i in 0..10 {
            t += if i == 4 || i == 5 { 10.0 } else { 1.0 };
            done.push(t);
        }
        // Regular segments: 2 windows * 100 items / 2 s = 100 items/s.
        assert_eq!(segment_rates(&done, 0.0, 100.0, 5), vec![100.0, 100.0, 10.0, 100.0, 100.0]);
        assert_eq!(median(segment_rates(&done, 0.0, 100.0, 5)), 100.0);
        // The remainder past the last full segment is left out.
        done.push(t + 1000.0);
        assert_eq!(median(segment_rates(&done, 0.0, 100.0, 5)), 100.0);
        // Fewer windows than segments: the run is one segment.
        assert_eq!(segment_rates(&[2.0, 4.0], 0.0, 100.0, 5), vec![50.0]);
        assert!(segment_rates(&[], 0.0, 100.0, 5).is_empty());
    }

    #[test]
    fn segment_percentiles_keep_a_burst_inside_its_segment() {
        // 20 samples, 5 segments of 4; a burst of slow windows in one.
        let mut latencies = vec![1.0; 20];
        latencies[9] = 50.0;
        latencies[10] = 60.0;
        let p95 = segment_percentiles(&latencies, 0.95, 5);
        assert_eq!(p95.len(), 5);
        assert_eq!(median(p95), 1.0);
        assert_eq!(median(segment_percentiles(&[3.0, 1.0], 0.5, 5)), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
