//! # gisolap-store
//!
//! Durable, dependency-free persistence for the streaming MOFT pipeline
//! (`gisolap-stream`). Everything the paper's pre-aggregation model
//! keeps in memory — sealed hour-aligned
//! [`Segment`](gisolap_stream::Segment)s, their per-hour
//! partial aggregates, the watermark and the live tail — survives a
//! process crash and is rebuilt **bit-identically** on recovery:
//!
//! * [`codec`] — a length-prefixed, CRC32-checksummed binary codec with
//!   a versioned header for segments, checkpoints, manifests and WAL
//!   frames. Floats are serialized as IEEE-754 bits, so round-trips are
//!   exact.
//! * [`messages`](mod@messages) — the [`messages!`] declaration every
//!   wire message and file payload layout is written in: one table per
//!   family emits the type, its encoder and its decoder.
//! * [`framing`] — the wire-side plumbing shared by every protocol
//!   built on those frames (replication, serving, sharding):
//!   wire-attributed corruption errors and the capped socket message
//!   envelope.
//! * [`wal`] — a write-ahead log of ingest operations
//!   ([`ReplayOp`](gisolap_stream::ReplayOp)s) with a configurable
//!   fsync policy ([`SyncPolicy`]). A torn or truncated tail frame is
//!   detected by checksum and cleanly dropped, never a panic.
//! * [`store`] — the [`SegmentStore`]: a segment directory with an
//!   atomic manifest (write-temp + rename), `flush`/`recover` APIs, a
//!   tail-state checkpoint, and compaction that merges adjacent sealed
//!   segment files while preserving `DeltaCube` merge semantics.
//!   [`DurableIngest`] bundles a store with a
//!   [`StreamIngest`](gisolap_stream::StreamIngest) so every accepted
//!   batch is logged before it is applied.
//! * [`vfs`] — the filesystem seam: [`RealFs`] for production,
//!   [`FailpointFs`] for fault injection (crash after byte *N* of the
//!   cumulative write stream, torn writes included), which drives the
//!   crash-recovery property tests in `tests/tests/store_recovery.rs`.
//!
//! ## Recovery protocol
//!
//! `MANIFEST` is the root of trust, replaced only by atomic rename. It
//! names the sealed segment files, the current checkpoint (the
//! [`TailState`](gisolap_stream::TailState) at the last flush) and the
//! current WAL generation. Recovery loads the segments, restores the
//! checkpointed tail, replays the WAL's surviving entries through the
//! **normal ingest path** (`StreamIngest::recover`) and truncates any
//! torn tail — converging to exactly the state an uninterrupted run
//! reaches after the same durable operation prefix. A flush writes
//! segments + checkpoint + a fresh WAL generation first, publishes the
//! manifest last, then deletes the old generation: a crash anywhere in
//! between leaves either the old or the new state fully intact, so no
//! operation is ever applied twice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod framing;
pub mod messages;
pub mod store;
pub mod vfs;
pub mod wal;

pub use store::{
    CompactionReport, DurableIngest, FlushReport, RecoveryReport, SegmentStore, StoreConfig,
    StoreStats, WalFetch,
};
pub use vfs::{AppendFile, FailpointFs, RealFs, ScratchDir, Vfs};
pub use wal::SyncPolicy;

use gisolap_stream::StreamError;

/// Errors raised by the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed (includes injected
    /// failpoint crashes).
    Io(std::io::Error),
    /// A file failed structural validation — bad magic, bad version, a
    /// checksum mismatch outside the tolerated WAL tail, or inconsistent
    /// decoded contents. Detected, never undefined behavior.
    Corrupt {
        /// The offending file (relative to the store directory).
        file: String,
        /// What was wrong.
        detail: String,
    },
    /// The store configuration or usage is invalid (message explains).
    BadConfig(String),
    /// An underlying streaming-pipeline operation failed.
    Stream(StreamError),
    /// A WAL scan started from a cursor that does not match the file's
    /// first entry — the reader's position is stale (e.g. a replication
    /// cursor older than a rotated log), not the file corrupt. Recover
    /// by restarting from a snapshot, not by discarding the file.
    StaleCursor {
        /// The WAL file scanned.
        file: String,
        /// The sequence number the scan expected first.
        expected: u64,
        /// The sequence number the file actually starts with.
        found: u64,
    },
    /// A WAL file jumped sequence numbers *between* entries: frames are
    /// individually checksum-valid but not contiguous, which only a
    /// corrupted or truncated-and-rewritten log can produce.
    SequenceGap {
        /// The WAL file scanned.
        file: String,
        /// The sequence number expected next.
        expected: u64,
        /// The sequence number found instead.
        found: u64,
    },
    /// The addressed node is no longer the leader for its shard — a
    /// newer epoch has been fenced in. Recover by re-reading the shard
    /// manifest and retrying against the current leader, or by degrading
    /// to a lag-bounded follower read.
    NotLeader {
        /// The epoch the deposed node last held.
        held: u64,
    },
    /// An operation carried an epoch older than the one its target has
    /// already seen — a deposed leader's write, rejected so two leaders
    /// can never both apply. Recover exactly as for [`Self::NotLeader`].
    StaleEpoch {
        /// The epoch the operation carried.
        held: u64,
        /// The newer epoch the target has already adopted.
        current: u64,
    },
    /// A per-shard operation failed inside a cluster; names the shard
    /// directory so multi-store errors stay attributable.
    Shard {
        /// The shard's directory (relative to the cluster root).
        dir: String,
        /// The underlying failure.
        source: Box<StoreError>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { file, detail } => {
                write!(f, "corrupt store file {file:?}: {detail}")
            }
            StoreError::BadConfig(msg) => write!(f, "bad store config: {msg}"),
            StoreError::Stream(e) => write!(f, "{e}"),
            StoreError::StaleCursor {
                file,
                expected,
                found,
            } => write!(
                f,
                "stale WAL cursor for {file:?}: expected to start at seq {expected}, file starts at {found}"
            ),
            StoreError::SequenceGap {
                file,
                expected,
                found,
            } => write!(
                f,
                "WAL sequence gap in {file:?}: expected {expected}, found {found}"
            ),
            StoreError::NotLeader { held } => write!(
                f,
                "not the leader: epoch {held} has been fenced; re-read the manifest and retry"
            ),
            StoreError::StaleEpoch { held, current } => write!(
                f,
                "stale epoch {held}: a leader at epoch {current} has superseded it"
            ),
            StoreError::Shard { dir, source } => {
                write!(f, "shard {dir:?}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Stream(e) => Some(e),
            StoreError::Shard { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<StreamError> for StoreError {
    fn from(e: StreamError) -> StoreError {
        StoreError::Stream(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

pub(crate) fn corrupt(file: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: file.to_string(),
        detail: detail.into(),
    }
}
