//! # gisolap-stream
//!
//! Streaming ingestion for the Moving-Object Fact Table.
//!
//! The paper's MOFT is a static table aggregated after the fact; this
//! crate is the maintenance layer that keeps Time-hierarchy aggregates
//! fresh while `(Oid, t, x, y)` records arrive continuously and out of
//! order (in the spirit of Gómez, Kuijpers & Vaisman's continuous
//! aggregation of moving-object data):
//!
//! * [`StreamIngest`] is the front door: it accepts out-of-order record
//!   batches, buffers them per time **partition** against a configurable
//!   **watermark** (`max event time seen − lateness`), and routes records
//!   older than the sealed frontier to a counted dead-letter sink.
//! * Once the watermark passes a partition's end, the partition is sealed
//!   into an immutable [`Segment`]: records sorted by `(Oid, t)` and
//!   deduplicated, with bbox + per-object range summaries and per-hour
//!   [`Partial`](gisolap_olap::agg::Partial) aggregates of both
//!   coordinate measures.
//! * Sealed partials merge into a [`DeltaCube`], so a hour/day/month
//!   rollup is answered by folding sealed partials plus a scan of only
//!   the **live tail** (still-buffered partitions) — never a full-table
//!   rescan.
//! * [`StreamIngest::snapshot`] produces an owned [`StreamSnapshot`]
//!   (a `Moft` assembled by k-way merging the sorted segment runs, plus
//!   the cube and segment metadata) that the `gisolap-core` query
//!   engines consume directly.
//!
//! ## Determinism
//!
//! Stream-ingested and batch-built results are **bit-identical** for all
//! five AGG functions because every path reduces to the same canonical
//! computation: partitions are hour-aligned, so each hour granule lives
//! wholly inside one segment (or the tail); within an hour, values are
//! accumulated in `(Oid, t)`-sorted order — a function of the record
//! *multiset*, not of arrival order; and coarser granules fold hour
//! partials in ascending hour order, with tail hours strictly after all
//! sealed hours.
//!
//! ## Observability
//!
//! [`StreamIngest::stats`] exposes the five ingest counters (also
//! seeded into the query engines' stats by the `from_snapshot`
//! constructors); [`StreamIngest::set_traced`] turns on `segment-seal`
//! span collection (one span per sealed partition, with a
//! `partial-merge` child describing the cube absorb), and
//! `MetricsRegistry::fill(&stats, …)` publishes everything in
//! Prometheus form. See `OBSERVABILITY.md` for
//! the full reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod ingest;
pub mod segment;

pub use config::{GeoResolver, StreamConfig};
pub use delta::{
    fold_rollup, hour_in_window, AbsorbOutcome, CellPartial, DeltaCube, GroupKey, Measure,
    RollupQuery, RollupRow,
};
pub use ingest::{
    IngestReport, IngestStats, ReplayOp, ReplayReport, StreamIngest, StreamSnapshot, TailState,
};
pub use segment::{EncodedRecords, Segment, SegmentMeta};

use gisolap_olap::time::TimeLevel;
use gisolap_traj::TrajError;

/// Errors raised by the streaming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The configuration is invalid (message explains why).
    BadConfig(String),
    /// Rollups need a level at least as coarse as one hour; `TimeId` and
    /// `Minute` granules are finer than the partials kept per segment.
    UnsupportedLevel(TimeLevel),
    /// Segment parts handed to [`Segment::from_parts`] /
    /// [`Segment::merged`] or a restored tail state violate a canonical
    /// invariant (message explains which).
    BadSegment(String),
    /// An underlying MOFT operation failed.
    Traj(TrajError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadConfig(msg) => write!(f, "bad stream config: {msg}"),
            StreamError::UnsupportedLevel(level) => {
                write!(f, "rollup level {level:?} is finer than the hour partials")
            }
            StreamError::BadSegment(msg) => write!(f, "bad segment parts: {msg}"),
            StreamError::Traj(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TrajError> for StreamError {
    fn from(e: TrajError) -> StreamError {
        StreamError::Traj(e)
    }
}

/// Result alias for streaming operations.
pub type Result<T> = std::result::Result<T, StreamError>;
