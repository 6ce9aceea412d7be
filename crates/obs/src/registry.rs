//! Metric handles and the registry that owns them.
//!
//! Registration is the only allocating operation: it takes a lock, interns
//! the handle, and returns an `Arc` the caller keeps. Recording through a
//! handle is a single relaxed atomic op. Reads (snapshot / render) merge
//! histogram stripes and clone names — they are off the hot path by design.

use crate::hist::{Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a free-standing counter (prefer registry registration).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (resident frames, queue depth, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a free-standing gauge (prefer registry registration).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Replaces the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct Inner {
    counters: Vec<(&'static str, Arc<Counter>)>,
    gauges: Vec<(&'static str, Arc<Gauge>)>,
    histograms: Vec<(&'static str, Arc<Histogram>)>,
}

/// A set of named metrics. Registration is idempotent by name: asking
/// twice for `"wal_commits_total"` yields the same `Arc`.
///
/// Most code uses the process-wide [`global`] registry; the server also
/// keeps a private registry per listener so its counters reset with each
/// server instance.
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        MetricsRegistry {
            inner: Mutex::new(Inner {
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            }),
        }
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Allocates only on the creating call.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name, Arc::clone(&c)));
        c
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.push((name, Arc::clone(&g)));
        g
    }

    /// Returns the histogram registered under `name`, creating (and
    /// preallocating all buckets for) it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        inner.histograms.push((name, Arc::clone(&h)));
        h
    }

    /// Point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut snap = MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.to_string(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.to_string(), g.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.to_string(), h.snapshot()))
                .collect(),
        };
        drop(inner);
        snap.sort();
        snap
    }
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-wide registry. Subsystems below the server (storage, scout,
/// core query pipeline) register here once at construction time.
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Owned, transportable view of a registry (or a merge of several).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` histogram pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Wire-format version emitted by [`MetricsSnapshot::encode_into`].
pub const SNAPSHOT_VERSION: u16 = 1;

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The payload ended before the structure it promised.
    Truncated,
    /// The version field is newer than this build understands.
    UnsupportedVersion(u16),
    /// A metric name was not valid UTF-8.
    BadName,
    /// Trailing bytes after the final histogram.
    TrailingBytes(usize),
}

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDecodeError::Truncated => write!(f, "metrics snapshot truncated"),
            SnapshotDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported metrics snapshot version {v}")
            }
            SnapshotDecodeError::BadName => write!(f, "metric name is not valid UTF-8"),
            SnapshotDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after metrics snapshot")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        let end = self.at.checked_add(n).ok_or(SnapshotDecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotDecodeError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn name(&mut self) -> Result<String, SnapshotDecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotDecodeError::BadName)
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

impl MetricsSnapshot {
    fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Folds `other` into `self`. Same-named counters sum, gauges take
    /// `other`'s level, histograms merge; new names are inserted sorted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.gauges[i].1 = *v,
                Err(i) => self.gauges.insert(i, (name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Appends the versioned binary encoding to `out`.
    ///
    /// Layout (all little-endian): `u16 version`, then three sections
    /// (counters, gauges, histograms), each `u32 n` followed by `n`
    /// entries. Entries carry `u16 name_len + name bytes`; histogram
    /// entries add `count/sum/min/max` and sparse `(u16 bucket, u64 n)`
    /// pairs.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, v) in &self.counters {
            put_name(out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (name, v) in &self.gauges {
            put_name(out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (name, h) in &self.histograms {
            put_name(out, name);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.min.to_le_bytes());
            out.extend_from_slice(&h.max.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for (idx, c) in &h.buckets {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    /// Decodes a payload produced by [`encode_into`](Self::encode_into),
    /// rejecting truncation, version skew, and trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<MetricsSnapshot, SnapshotDecodeError> {
        let mut cur = Cur { buf, at: 0 };
        let version = cur.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotDecodeError::UnsupportedVersion(version));
        }
        let n = cur.u32()? as usize;
        let mut counters = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = cur.name()?;
            counters.push((name, cur.u64()?));
        }
        let n = cur.u32()? as usize;
        let mut gauges = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = cur.name()?;
            gauges.push((name, cur.u64()? as i64));
        }
        let n = cur.u32()? as usize;
        let mut histograms = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let name = cur.name()?;
            let count = cur.u64()?;
            let sum = cur.u64()?;
            let min = cur.u64()?;
            let max = cur.u64()?;
            let nb = cur.u32()? as usize;
            let mut buckets = Vec::with_capacity(nb.min(4096));
            for _ in 0..nb {
                let idx = cur.u16()?;
                buckets.push((idx, cur.u64()?));
            }
            histograms.push((name, HistogramSnapshot { count, sum, min, max, buckets }));
        }
        if cur.at != buf.len() {
            return Err(SnapshotDecodeError::TrailingBytes(buf.len() - cur.at));
        }
        Ok(MetricsSnapshot { counters, gauges, histograms })
    }

    /// Prometheus-style text exposition. Counters and gauges render as
    /// single samples; histograms render as summaries with `quantile`
    /// labels plus `_sum`, `_count`, and `_max` samples. Every family is
    /// prefixed `neurospatial_`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE neurospatial_{name} counter");
            let _ = writeln!(out, "neurospatial_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE neurospatial_{name} gauge");
            let _ = writeln!(out, "neurospatial_{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE neurospatial_{name} summary");
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                let _ =
                    writeln!(out, "neurospatial_{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "neurospatial_{name}_sum {}", h.sum);
            let _ = writeln!(out, "neurospatial_{name}_count {}", h.count);
            let _ = writeln!(out, "neurospatial_{name}_max {}", h.max);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&r.histogram("h_ns"), &r.histogram("h_ns")));
        assert!(Arc::ptr_eq(&r.gauge("g"), &r.gauge("g")));
    }

    #[test]
    fn snapshot_roundtrips_through_wire_format() {
        let r = MetricsRegistry::new();
        r.counter("b_total").add(7);
        r.counter("a_total").add(3);
        r.gauge("level").set(-4);
        let h = r.histogram("lat_ns");
        for v in [10u64, 100, 1000, 123_456] {
            h.record(v);
        }
        let snap = r.snapshot();
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        let back = MetricsSnapshot::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.counter("a_total"), Some(3));
        assert_eq!(back.gauge("level"), Some(-4));
        assert_eq!(back.histogram("lat_ns").unwrap().count, 4);

        // Truncation at every prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(MetricsSnapshot::decode(&bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        bytes.push(0);
        assert_eq!(MetricsSnapshot::decode(&bytes), Err(SnapshotDecodeError::TrailingBytes(1)));
    }

    #[test]
    fn merge_sums_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("shared_total").add(2);
        b.counter("shared_total").add(5);
        b.counter("only_b_total").add(1);
        a.histogram("h_ns").record(50);
        b.histogram("h_ns").record(5_000);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("shared_total"), Some(7));
        assert_eq!(snap.counter("only_b_total"), Some(1));
        let h = snap.histogram("h_ns").unwrap();
        assert_eq!((h.count, h.min, h.max), (2, 50, 5_000));
    }

    #[test]
    fn render_text_exposes_families() {
        let r = MetricsRegistry::new();
        r.counter("requests_total").add(9);
        r.histogram("latency_ns").record(1500);
        let text = r.snapshot().render_text();
        assert!(text.contains("# TYPE neurospatial_requests_total counter"));
        assert!(text.contains("neurospatial_requests_total 9"));
        assert!(text.contains("neurospatial_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("neurospatial_latency_ns_count 1"));
    }
}
