//! `neurospatial-obs`: zero-allocation metrics and tracing for the
//! neurospatial stack.
//!
//! Three primitives, hand-rolled on `std` (the build is offline):
//!
//! * **Counters and gauges** — relaxed atomics behind `Arc` handles,
//!   registered by name in a [`MetricsRegistry`].
//! * **[`Histogram`]** — log-linear buckets (16 sub-buckets per octave,
//!   ≤ 6.25% relative error) with per-thread stripes, yielding
//!   p50/p90/p99/p99.9 and exact min/max, mergeable across workers via
//!   [`HistogramSnapshot::merge`].
//! * **Spans** — [`span!`] RAII guards writing into a fixed per-thread
//!   ring buffer, attributing request time to pipeline
//!   [`Stage`]s (decode → admission → traversal → page I/O →
//!   WAL commit → encode).
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
mod span;

pub use hist::{
    bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS, MAX_EXP, SUB, SUB_BITS,
};
pub use registry::{
    global, Counter, Gauge, MetricsRegistry, MetricsSnapshot, SnapshotDecodeError, SNAPSHOT_VERSION,
};
pub use span::{
    clear_spans, now_ns, recent_spans, span, span_timed, with_recent_spans, Span, SpanEvent, Stage,
    RING_CAPACITY,
};
