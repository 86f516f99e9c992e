//! Log-bucketed, constant-memory latency histogram.
//!
//! Values (milliseconds by convention, but any positive unit works) are
//! binned into geometrically spaced buckets with `SCALE` buckets per
//! octave: bucket `i` covers `[2^((i-OFFSET)/SCALE), 2^((i-OFFSET+1)/SCALE))`.
//! Recording is a single relaxed `fetch_add` on the bucket plus atomic
//! min/max/sum maintenance — no locks, no allocation, safe from any number
//! of threads concurrently. Percentile lookup walks the fixed bucket
//! array and returns the geometric midpoint of the bucket holding the
//! nearest-rank sample, clamped into the exact observed `[min, max]` range,
//! so the relative error is provably at most [`Histogram::REL_ERROR`]
//! (and zero for single-sample summaries, which the engine's JSON pins).

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets per octave (power of two). 16 gives a bucket width ratio of
/// `γ = 2^(1/16) ≈ 1.0443` and a midpoint relative error of
/// `√γ - 1 ≈ 2.19%`.
const SCALE: i64 = 16;

/// Index shift so the representable range starts at `2^-20` (≈ 1 ns when
/// recording milliseconds). `OFFSET = 20 * SCALE + 1`; index 0 is the
/// dedicated non-positive-value bucket.
const OFFSET: i64 = 20 * SCALE + 1;

/// Total bucket count: index 0 (non-positive) plus exponents
/// `-20*SCALE ..= 22*SCALE` — the top bucket (≈ `2^22` ms ≈ 70 min)
/// absorbs anything larger.
const NBUCKETS: usize = (OFFSET + 22 * SCALE + 1) as usize;

/// A fixed-size log-bucketed histogram with atomic buckets.
///
/// Memory is constant (`NBUCKETS` = 674 atomic words ≈ 5.4 KB) regardless
/// of how many samples are recorded, unlike the `Vec<f64>`-retaining
/// summaries it replaces.
pub struct Histogram {
    buckets: Box<[AtomicU64; NBUCKETS]>,
    count: AtomicU64,
    /// Exact running sum, stored as `f64::to_bits`.
    sum_bits: AtomicU64,
    /// Exact observed minimum, `f64::to_bits` (`+inf` when empty).
    min_bits: AtomicU64,
    /// Exact observed maximum, `f64::to_bits` (`-inf` when empty).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Upper bound on the relative error of [`Histogram::quantile`] for
    /// values inside the representable range: the returned geometric
    /// bucket midpoint is at most a half-bucket away from the true sample,
    /// i.e. a factor of `γ^(1/2) = 2^(1/32)`, so
    /// `REL_ERROR = 2^(1/32) - 1 ≈ 2.19%` (verified by a unit test and a
    /// property test against exact nearest-rank percentiles).
    pub const REL_ERROR: f64 = 0.021_897_148_654_116_6;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array from a vec.
        let buckets: Vec<AtomicU64> = (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NBUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("bucket count");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Bucket index for a value.
    fn index(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let i = (value.log2() * SCALE as f64).floor() as i64 + OFFSET;
        i.clamp(1, NBUCKETS as i64 - 1) as usize
    }

    /// Geometric midpoint of bucket `i` — the representative value returned
    /// by quantile lookup (before the `[min, max]` clamp).
    fn representative(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        (2f64).powf((i as f64 - OFFSET as f64 + 0.5) / SCALE as f64)
    }

    /// Exclusive upper bound of bucket `i` (Prometheus `le` boundary).
    pub fn upper_bound(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        if i >= NBUCKETS - 1 {
            return f64::INFINITY;
        }
        (2f64).powf((i as f64 + 1.0 - OFFSET as f64) / SCALE as f64)
    }

    /// Records one sample. Lock-free; callable concurrently from any
    /// thread (engine lanes, forked partition threads).
    pub fn record(&self, value: f64) {
        self.buckets[Self::index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, value);
        atomic_f64_fold(&self.min_bits, value, f64::min);
        atomic_f64_fold(&self.max_bits, value, f64::max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact observed minimum (`NaN` when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Exact observed maximum (`NaN` when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Nearest-rank quantile, `q ∈ [0, 1]` (`NaN` when empty).
    ///
    /// Uses the same nearest-rank convention as the exact summaries it
    /// replaces (`rank = round(q * (count - 1))`), returns the geometric
    /// midpoint of the bucket containing that rank and clamps into the
    /// exact `[min, max]`, so single-sample summaries are exact and the
    /// relative error is at most [`Histogram::REL_ERROR`] otherwise.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * (count - 1) as f64).round() as u64;
        // The extreme ranks are tracked exactly — return them as such.
        if rank == 0 {
            return self.min();
        }
        if rank == count - 1 {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > rank {
                return Self::representative(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Visits `(upper_bound, cumulative_count)` for every non-empty bucket
    /// in ascending order — the Prometheus cumulative-bucket view.
    pub fn for_each_nonempty_bucket(&self, mut f: impl FnMut(f64, u64)) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cumulative += c;
            f(Self::upper_bound(i), cumulative);
        }
    }
}

/// CAS-loop `+=` on an `f64` stored as bits.
fn atomic_f64_add(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + value).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// CAS-loop fold (min/max) on an `f64` stored as bits.
fn atomic_f64_fold(cell: &AtomicU64, value: f64, fold: fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let folded = fold(f64::from_bits(current), value);
        if folded.to_bits() == current {
            return;
        }
        match cell.compare_exchange_weak(
            current,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The exact nearest-rank percentile the histogram approximates.
    fn exact_quantile(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn rel_error_const_matches_derivation() {
        let derived = (2f64).powf(1.0 / 32.0) - 1.0;
        assert!((derived - Histogram::REL_ERROR).abs() < 1e-12, "{derived}");
    }

    #[test]
    fn empty_histogram_is_nan() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
    }

    #[test]
    fn single_sample_summaries_are_exact() {
        let h = Histogram::new();
        h.record(2.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.0), 2.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.99), 2.0);
        assert_eq!(h.quantile(1.0), 2.0);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 2.0);
    }

    #[test]
    fn non_positive_values_land_in_the_zero_bucket() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-3.5);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), -3.5);
    }

    #[test]
    fn min_max_clamp_keeps_extreme_quantiles_exact() {
        let h = Histogram::new();
        for v in [1.0, 5.0, 25.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 25.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 + 0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 7999.5);
        let expected_sum: f64 = (0..8000).map(|i| i as f64 + 0.5).sum();
        assert!((h.sum() - expected_sum).abs() < 1e-6 * expected_sum);
    }

    proptest! {
        /// The documented error bound holds against exact nearest-rank
        /// percentiles for arbitrary positive samples and quantiles.
        #[test]
        fn quantiles_stay_within_the_error_bound(
            samples in proptest::collection::vec(1u32..2_000_000u32, 1..200),
            q_milli in 0u32..=1000u32,
        ) {
            let h = Histogram::new();
            // Spread raw integers over ~9 decades by squaring into f64.
            let samples: Vec<f64> =
                samples.iter().map(|&v| (v as f64) * (v as f64) * 1e-6).collect();
            for &v in &samples {
                h.record(v);
            }
            let q = q_milli as f64 / 1000.0;
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q);
            // Tiny absolute epsilon on top covers float boundary jitter in
            // bucket assignment.
            let tolerance = exact * Histogram::REL_ERROR + 1e-9;
            prop_assert!(
                (approx - exact).abs() <= tolerance,
                "q={q} exact={exact} approx={approx} tolerance={tolerance}"
            );
        }
    }
}
