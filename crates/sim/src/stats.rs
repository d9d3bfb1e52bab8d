//! The fixed-bucket duration histogram the run report profiles guest
//! operation latencies with.

use crate::time::SimDuration;

/// Fixed-bucket histogram over durations, for interrupt-delay profiles.
///
/// Every run report carries one, and most record nothing or a narrow
/// band of latencies, so counts are stored only up to the highest
/// bucket a sample fell into: an empty histogram owns no heap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DurationHistogram {
    bucket_width: SimDuration,
    bucket_count: usize,
    /// Counts of buckets `0..=highest hit`; the last entry is never
    /// zero, so equal counts mean equal vectors.
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl DurationHistogram {
    /// Creates a histogram with `buckets` buckets of `bucket_width` each;
    /// samples beyond the last bucket are counted in an overflow bin.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero or `buckets` is zero.
    pub fn new(bucket_width: SimDuration, buckets: usize) -> Self {
        assert!(bucket_width.as_nanos() > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        DurationHistogram {
            bucket_width,
            bucket_count: buckets,
            buckets: Vec::new(),
            overflow: 0,
            total: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, d: SimDuration) {
        match usize::try_from(d.as_nanos() / self.bucket_width.as_nanos()) {
            Ok(idx) if idx < self.bucket_count => {
                if idx >= self.buckets.len() {
                    self.buckets.resize(idx + 1, 0);
                }
                self.buckets[idx] += 1;
            }
            _ => self.overflow += 1,
        }
        self.total += 1;
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bucket_count()`.
    pub fn bucket(&self, i: usize) -> u64 {
        assert!(i < self.bucket_count, "bucket {i} out of range");
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Number of regular buckets.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count
    }

    /// Samples that fell beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The smallest duration `d` such that at least `q` (0..=1) of samples
    /// are `<= d`, resolved to bucket granularity. Returns `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.bucket_width * (i as u64 + 1));
            }
        }
        Some(SimDuration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = DurationHistogram::new(SimDuration::from_micros(10), 4);
        h.record(SimDuration::from_micros(5)); // bucket 0
        h.record(SimDuration::from_micros(15)); // bucket 1
        h.record(SimDuration::from_micros(39)); // bucket 3
        h.record(SimDuration::from_micros(40)); // overflow
        assert_eq!(h.total(), 4);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 0);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = DurationHistogram::new(SimDuration::from_micros(1), 100);
        for i in 0..100 {
            h.record(SimDuration::from_micros(i));
        }
        let median = h.quantile(0.5).unwrap();
        assert_eq!(median, SimDuration::from_micros(50));
        assert!(h.quantile(1.0).unwrap() <= SimDuration::from_micros(100));
    }

    #[test]
    fn storage_follows_the_highest_bucket_hit() {
        let mut h = DurationHistogram::new(SimDuration::from_millis(1), 64);
        assert_eq!(h.buckets.capacity(), 0, "an empty histogram owns no heap");
        assert_eq!((h.bucket_count(), h.bucket(63)), (64, 0));
        h.record(SimDuration::from_millis(26));
        assert_eq!(h.buckets.len(), 27);
        assert_eq!((h.bucket(26), h.bucket(27), h.bucket(63)), (1, 0, 0));
        // Equality is of counts, whatever order they arrived in.
        let mut other = DurationHistogram::new(SimDuration::from_millis(1), 64);
        assert_ne!(h, other);
        other.record(SimDuration::from_millis(3));
        other.record(SimDuration::from_millis(26));
        h.record(SimDuration::from_millis(3));
        assert_eq!(h, other);
        // The overflow bin and the quantile walk are unchanged.
        h.record(SimDuration::from_millis(64));
        assert_eq!((h.overflow(), h.total(), h.buckets.len()), (1, 3, 27));
        assert_eq!(h.quantile(0.5), Some(SimDuration::from_millis(27)));
        assert_eq!(h.quantile(1.0), Some(SimDuration::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_index_is_still_bounded() {
        DurationHistogram::new(SimDuration::from_millis(1), 4).bucket(4);
    }

    #[test]
    fn histogram_empty_quantile() {
        let h = DurationHistogram::new(SimDuration::from_micros(1), 4);
        assert!(h.quantile(0.5).is_none());
    }
}
