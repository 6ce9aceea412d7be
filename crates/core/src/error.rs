//! Typed errors for the `neurospatial` facade.
//!
//! The original facade panicked (or silently returned empty results) on
//! misuse; every fallible public operation now reports a [`NeuroError`]
//! instead, so downstream services can surface precise diagnostics.

use neurospatial_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong constructing or querying a [`crate::NeuroDb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeuroError {
    /// A backend name was neither `flat` nor `sharded:flat`.
    UnknownBackend { given: String, known: Vec<String> },
    /// A population name does not exist in this database.
    UnknownPopulation { given: String, known: Vec<String> },
    /// An operation needed at least `needed` populations.
    TooFewPopulations { found: usize, needed: usize },
    /// The builder was finalised without a data source (`circuit` or
    /// `segments`). An *empty* segment list is valid; providing nothing
    /// at all is almost always a bug.
    MissingSegments,
    /// The requested operation needs one page space to walk: a
    /// monolithic, frozen FLAT index, in memory or paged. `backend` names
    /// what the database has (`sharded:flat` for a sharded one).
    WalkthroughUnsupported { backend: String },
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// The on-disk page store failed: I/O, corruption, truncation or a
    /// foreign/incompatible file. Raised by the paged (out-of-core) FLAT
    /// index when opening or reading a page file.
    Storage(StorageError),
    /// The query touched pages quarantined after permanent media
    /// failures, and partial results were not requested. The database
    /// keeps serving everything else; opt in with
    /// [`allow_partial`](crate::query::RangeQuery::allow_partial) to get
    /// the surviving results labeled via `stats.pages_quarantined`.
    DegradedResult {
        /// The quarantined pages the query needed, ascending.
        pages: Vec<u64>,
    },
    /// A write (`insert_segment` / `remove_segment`) was issued against
    /// a database opened without [`durable`](crate::NeuroDbBuilder::durable)
    /// mode. Frozen databases are immutable by construction.
    WriteUnsupported,
    /// A write was validated and refused *before* anything was appended
    /// to the WAL: duplicate insert id, removal of an unknown id, or
    /// non-finite geometry. Nothing was acknowledged and nothing needs
    /// to be retried — the request itself is invalid.
    WriteRejected {
        /// Human-readable reason naming the offending op.
        reason: String,
    },
}

impl fmt::Display for NeuroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuroError::UnknownBackend { given, known } => {
                write!(f, "unknown index backend '{given}' (known: {})", known.join(", "))
            }
            NeuroError::UnknownPopulation { given, known } => {
                write!(f, "unknown population '{given}' (known: {})", known.join(", "))
            }
            NeuroError::TooFewPopulations { found, needed } => {
                write!(f, "operation needs {needed} populations, database has {found}")
            }
            NeuroError::MissingSegments => {
                write!(f, "builder finalised without segments; call .circuit() or .segments()")
            }
            NeuroError::WalkthroughUnsupported { backend } => {
                write!(f, "walkthroughs need a monolithic 'flat' index, database uses '{backend}'")
            }
            NeuroError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            NeuroError::Storage(e) => write!(f, "page store failure: {e}"),
            NeuroError::DegradedResult { pages } => write!(
                f,
                "degraded: query needs quarantined page(s) {pages:?}; \
                 retry with allow_partial to accept labeled partial results"
            ),
            NeuroError::WriteUnsupported => {
                write!(f, "writes need a durable database; open with .durable(path)")
            }
            NeuroError::WriteRejected { reason } => {
                write!(f, "write rejected (nothing was logged): {reason}")
            }
        }
    }
}

impl Error for NeuroError {}

impl From<StorageError> for NeuroError {
    fn from(e: StorageError) -> Self {
        match e {
            // A quarantine refusal is a *degradation* signal, not a raw
            // storage fault: the caller can re-run with partial results.
            StorageError::Quarantined { pages } => NeuroError::DegradedResult { pages },
            other => NeuroError::Storage(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = NeuroError::UnknownBackend {
            given: "btree".into(),
            known: vec!["flat".into(), "sharded:flat".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("btree") && msg.contains("flat"));

        let e = NeuroError::WalkthroughUnsupported { backend: "sharded:flat".into() };
        assert!(e.to_string().contains("sharded:flat"));
    }

    #[test]
    fn storage_errors_convert_and_describe() {
        let e: NeuroError = StorageError::BadVersion(9).into();
        assert_eq!(e, NeuroError::Storage(StorageError::BadVersion(9)));
        let msg = e.to_string();
        assert!(msg.contains("page store") && msg.contains('9'), "{msg}");
    }
}
