//! Log-bucketed histograms.
//!
//! The hot path records into power-of-two buckets with one
//! `leading_zeros` and one saturating add — no floating point, no
//! allocation. Bucket `i` holds values `v` with `2^(i-1) <= v < 2^i`
//! (bucket 0 holds `v == 0`), so 65 buckets cover the full `u64` range.

/// Number of buckets (value 0, plus one per bit position).
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a value.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of a bucket.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] = self.buckets[Self::bucket_of(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 for an empty histogram). The one floating-point
    /// computation, off the record path.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Index of the highest non-empty bucket, if any sample was recorded.
    pub fn last_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// An approximate quantile: the **lower bound** of the log2 bucket
    /// containing the `q`-th percentile sample (`q` in 0..=100).
    ///
    /// This is *not* the percentile itself — the true value lies
    /// anywhere in `[bucket_lo(i), 2 * bucket_lo(i))`, so the result
    /// can undershoot by up to 2×. Reports must label it as a bound
    /// (`p50_lo`, `p99_lo`), never as `p50`/`p99`.
    pub fn quantile_lo(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count.saturating_mul(q.min(100))).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lo(i);
            }
        }
        Self::bucket_lo(BUCKETS - 1)
    }

    /// Merges another histogram into this one: bucket-wise saturating
    /// add, plus the combined count/sum/max. Merging the histograms of K
    /// disjoint sample streams is bit-for-bit identical to recording all
    /// K streams into one histogram, which is what lets per-worker
    /// registries fold into one batch document.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Serializes as a compact JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let last = self.last_bucket().map(|i| i + 1).unwrap_or(0);
        let mut s = String::with_capacity(64);
        let _ = write!(
            s,
            "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
            self.count, self.sum, self.max
        );
        for (i, b) in self.buckets[..last].iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{b}");
        }
        s.push_str("]}");
        s
    }

    /// Rebuilds a histogram from its JSON object.
    pub(crate) fn read(at: &crate::run::At<'_>) -> Result<LogHistogram, crate::run::DocError> {
        let buckets = at.get("buckets")?;
        let counts = buckets.list(crate::run::At::u64)?;
        if counts.len() > BUCKETS {
            return Err(buckets.err("more than 65 buckets"));
        }
        let mut h = LogHistogram::new();
        h.count = at.u64_at("count")?;
        h.sum = at.u64_at("sum")?;
        h.max = at.u64_at("max")?;
        h.buckets[..counts.len()].copy_from_slice(&counts);
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_powers_land_in_distinct_buckets() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_match_indexing() {
        for i in 1..BUCKETS {
            let lo = LogHistogram::bucket_lo(i);
            assert_eq!(LogHistogram::bucket_of(lo), i);
            if lo > 1 {
                assert_eq!(LogHistogram::bucket_of(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 1, 7, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1009);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 201.8).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
    }

    #[test]
    fn quantiles_are_bucket_lower_bounds() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert_eq!(h.quantile_lo(50), 8);
        assert_eq!(h.quantile_lo(99), 65536);
    }

    #[test]
    fn merge_equals_recording_one_combined_stream() {
        let first = [0u64, 3, 3, 900, 12];
        let second = [1u64, 7, u64::MAX, 12];
        let mut combined = LogHistogram::new();
        for v in first.iter().chain(second.iter()) {
            combined.record(*v);
        }
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        first.iter().for_each(|v| a.record(*v));
        second.iter().for_each(|v| b.record(*v));
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram is the identity.
        a.merge(&LogHistogram::new());
        assert_eq!(a, combined);
    }

    #[test]
    fn json_round_trips() {
        let mut h = LogHistogram::new();
        for v in [3, 900, 0, 12] {
            h.record(v);
        }
        let j = h.to_json();
        let v = crate::json::parse(&j).unwrap();
        assert_eq!(LogHistogram::read(&crate::run::At::root(&v)), Ok(h));
    }

    #[test]
    fn empty_histogram_serializes_compactly() {
        let h = LogHistogram::new();
        assert_eq!(h.to_json(), "{\"count\":0,\"sum\":0,\"max\":0,\"buckets\":[]}");
        let v = crate::json::parse(&h.to_json()).unwrap();
        assert_eq!(LogHistogram::read(&crate::run::At::root(&v)), Ok(h));
    }
}
