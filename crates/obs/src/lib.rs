//! `neurospatial-obs`: zero-allocation metrics and latency timing for
//! the neurospatial stack.
//!
//! Three primitives, hand-rolled on `std` (the build is offline):
//!
//! * **Counters and gauges** — relaxed atomics behind `Arc` handles,
//!   registered by name in a [`MetricsRegistry`].
//! * **[`Histogram`]** — log-linear buckets (16 sub-buckets per octave,
//!   ≤ 6.25% relative error) with per-thread stripes, yielding
//!   p50/p90/p99/p99.9 and exact min/max, mergeable across workers via
//!   [`HistogramSnapshot::merge`].
//! * **[`Timer`]** — an RAII guard from [`Histogram::timer`] that reads
//!   the clock once when it opens and records the elapsed nanoseconds
//!   into its histogram when it drops.
//!
//! The allocation discipline is strict: registration (startup) allocates;
//! recording is one-to-five relaxed atomic ops and never allocates, so
//! instrumented hot paths keep their 0 allocs/request guarantee. Reads —
//! [`MetricsRegistry::snapshot`], [`MetricsSnapshot::render_text`], the
//! binary wire codec — allocate freely because they run off the hot path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;

pub use hist::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, Timer, BUCKETS, MAX_EXP, SUB,
    SUB_BITS,
};
pub use registry::{
    global, Counter, Gauge, MetricsRegistry, MetricsSnapshot, SnapshotDecodeError, SNAPSHOT_VERSION,
};
