//! Log-linear bucket latency histogram.
//!
//! The value domain is `u64` (nanoseconds by convention). Buckets are
//! HdrHistogram-style log-linear: values below [`SUB`] get exact unit
//! buckets; above that, each power-of-two octave is split into [`SUB`]
//! linear sub-buckets, bounding relative error by `1 / SUB` (6.25%).
//! Quantile estimates therefore land inside the bucket that holds the
//! exact sorted-sample quantile — "error bounded by bucket width".
//!
//! Recording is wait-free: one relaxed `fetch_add` on a bucket plus
//! relaxed `fetch_add`/`fetch_max`/`fetch_min` for the moment counters,
//! spread over a small number of stripes so concurrent workers do not
//! share cache lines. All allocation happens in [`Histogram::new`];
//! `record` never allocates.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sub-bucket resolution bits: each octave splits into `2^SUB_BITS`
/// linear buckets.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (and the width of the exact region).
pub const SUB: usize = 1 << SUB_BITS;
/// Values are clamped to `2^MAX_EXP - 1` (~4.9 hours in nanoseconds).
pub const MAX_EXP: u32 = 44;
/// Total bucket count for one stripe.
pub const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS) as usize * SUB;

/// Number of independently-updated stripes; merged on snapshot.
const STRIPES: usize = 8;

/// Maps a value to its bucket index. Monotone in `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let v = v.min((1u64 << MAX_EXP) - 1);
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        (exp - SUB_BITS) as usize * SUB + SUB + sub
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `idx`.
#[inline]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    debug_assert!(idx < BUCKETS);
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let exp = (idx - SUB) as u32 / SUB as u32 + SUB_BITS;
        let sub = ((idx - SUB) % SUB) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + sub * width;
        (lo, lo + width - 1)
    }
}

/// One stripe of buckets plus its moment counters.
struct Stripe {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Stripe {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

// Each thread picks a stripe once (round-robin at first use) and sticks
// with it. The cell is const-initialised: no lazy allocation on the
// recording path.
thread_local! {
    static STRIPE_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn stripe_id() -> usize {
    STRIPE_ID.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            c.set(v);
            v
        }
    })
}

/// Concurrent log-linear histogram. Cheap to record into from many
/// threads; snapshot merges the stripes.
pub struct Histogram {
    stripes: Box<[Stripe]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Allocates the full bucket matrix up front; the only allocating
    /// call on this type.
    pub fn new() -> Self {
        Histogram { stripes: (0..STRIPES).map(|_| Stripe::new()).collect() }
    }

    /// Records one observation. Wait-free, never allocates.
    #[inline]
    pub fn record(&self, value: u64) {
        let s = &self.stripes[stripe_id()];
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.min.fetch_min(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at the clamp).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Starts timing: the clock is read once now, and the elapsed
    /// nanoseconds are recorded when the guard drops. Never allocates.
    #[inline]
    pub fn timer(&self) -> Timer<'_> {
        Timer { hist: self, started: Instant::now() }
    }

    /// Merges all stripes into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<(u16, u64)> = Vec::new();
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut dense = [0u64; BUCKETS];
        for s in self.stripes.iter() {
            for (i, b) in s.buckets.iter().enumerate() {
                dense[i] += b.load(Ordering::Relaxed);
            }
            count += s.count.load(Ordering::Relaxed);
            sum = sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            min = min.min(s.min.load(Ordering::Relaxed));
            max = max.max(s.max.load(Ordering::Relaxed));
        }
        for (i, &c) in dense.iter().enumerate() {
            if c != 0 {
                buckets.push((i as u16, c));
            }
        }
        if count == 0 {
            min = 0;
        }
        HistogramSnapshot { count, sum, min, max, buckets }
    }
}

/// A running measurement from [`Histogram::timer`]; records its
/// elapsed time into the histogram when dropped.
#[must_use = "the timer records when it drops; an unbound timer measures nothing"]
pub struct Timer<'a> {
    hist: &'a Histogram,
    started: Instant,
}

impl Drop for Timer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.hist.record_duration(self.started.elapsed());
    }
}

/// Point-in-time, mergeable view of a [`Histogram`]: sparse nonzero
/// buckets plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, sorted by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Quantile estimate for `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the rank-`ceil(q * count)` sample, clamped to
    /// the exact observed `[min, max]`. Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                // `min` sits in the first nonzero bucket and `max` in the
                // last, so this clamp cannot leave the selected bucket.
                let (_lo, hi) = bucket_bounds(idx as usize);
                return hi.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`; equivalent to having recorded both
    /// sets of observations into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u16, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.buckets.len() || b < other.buckets.len() {
            match (self.buckets.get(a), other.buckets.get(b)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) => {
                    if ia == ib {
                        merged.push((ia, ca + cb));
                        a += 1;
                        b += 1;
                    } else if ia < ib {
                        merged.push((ia, ca));
                        a += 1;
                    } else {
                        merged.push((ib, cb));
                        b += 1;
                    }
                }
                (Some(&p), None) => {
                    merged.push(p);
                    a += 1;
                }
                (None, Some(&p)) => {
                    merged.push(p);
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index must be monotone at v={v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} outside bucket [{lo}, {hi}]");
        }
        // Spot-check the large end and the clamp.
        for v in [1u64 << 30, (1 << 40) + 12345, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            let (lo, hi) = bucket_bounds(i);
            let clamped = v.min((1 << MAX_EXP) - 1);
            assert!(lo <= clamped && clamped <= hi);
        }
    }

    #[test]
    fn relative_error_is_bounded_by_sub_resolution() {
        for v in [100u64, 1_000, 65_537, 1 << 20, (1 << 33) + 7] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = (hi - lo + 1) as f64;
            assert!(width / lo.max(1) as f64 <= 1.0 / SUB as f64 + 1e-9);
        }
    }

    #[test]
    fn quantiles_track_exact_samples() {
        let h = Histogram::new();
        let vals: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 500_000).collect();
        for &v in &vals {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, vals.len() as u64);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(snap.min, sorted[0]);
        assert_eq!(snap.max, *sorted.last().unwrap());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                est >= lo && est <= hi,
                "q={q}: est {est} outside exact sample's bucket [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 80_000);
    }

    #[test]
    fn merge_equals_union() {
        let (a, b, c) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..5_000u64 {
            let v = i * i % 1_000_003;
            c.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, c.snapshot());
    }

    #[test]
    fn timer_feeds_histogram() {
        let h = Histogram::new();
        {
            let _t = h.timer();
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 1_000_000, "slept 1ms, recorded {}ns", snap.max);
    }
}
