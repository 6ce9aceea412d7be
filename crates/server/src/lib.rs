//! # neurospatial-server
//!
//! The network front end for [`neurospatial`]: a TCP query service
//! whose wire protocol mirrors the [`neurospatial::Query`] builder —
//! range / knn / touching / along-path requests with population,
//! filter-id and limit pushdown, count-only aggregation, `EXPLAIN`
//! plans and per-tenant `STATS` — over compact length-prefixed binary
//! frames (see [`protocol`] for the layout).
//!
//! The serving model ([`server`]) is an acceptor plus a fixed pool of
//! worker threads, each holding one connection and one persistent
//! [`neurospatial::QuerySession`]: steady-state range/count/knn
//! requests are served with **zero heap allocations** end to end.
//! Overload is handled by admission control — a bounded hand-off queue
//! with `BUSY` fast-reject — so shedding costs microseconds instead of
//! building latency cliffs. [`client`] is the matching blocking client.
//!
//! ```
//! use neurospatial::prelude::*;
//! use neurospatial_server::{serve_with, Client, FilterRegistry, ServerConfig};
//! use neurospatial_server::protocol::QueryDescView;
//!
//! let circuit = CircuitBuilder::new(11).neurons(8).build();
//! let db = NeuroDb::builder().circuit(&circuit).build().expect("valid");
//! let filters = FilterRegistry::new();
//! let region = Aabb::cube(circuit.bounds().center(), 30.0);
//!
//! let served = serve_with(&db, &filters, &ServerConfig::default(), |handle| {
//!     let mut client = Client::connect(handle.addr()).expect("connect");
//!     let mut out = Vec::new();
//!     let stats =
//!         client.range(&QueryDescView::default(), &region, &mut out).expect("range");
//!     assert_eq!(out.len() as u64, stats.results);
//!     out.len()
//! })
//! .expect("bind");
//! assert_eq!(served, db.query().range(region).collect().expect("ok").segments.len());
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{retry_request, retry_write, Client, ClientError, RetryPolicy};
pub use protocol::{
    HealthReport, PlanWire, ProtocolError, QueryDesc, Request, Response, TenantTotals, WalWire,
    WalkSummary, WriteAckWire,
};
pub use server::{
    serve_with, FilterRegistry, ServerConfig, ServerHandle, ServerMetrics, ServerPredicate,
};
