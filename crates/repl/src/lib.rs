//! # gisolap-repl
//!
//! WAL-shipping replication for the durable MOFT pipeline
//! (`gisolap-store`): a [`Leader`] publishes write-ahead-log frames and
//! snapshot generations from a
//! [`DurableIngest`](gisolap_store::DurableIngest), and a [`Follower`]
//! tails them through a pluggable [`Transport`], applying entries via
//! the **normal ingest path** so replica state converges bit-identically
//! to the leader's (`DESIGN.md` §5.1).
//!
//! * [`wire`] — the request/reply codec, built on the store codec's
//!   CRC32 frames. The reply head and every shipped WAL entry carry
//!   independent checksums, so a corrupted frame is flagged and dropped,
//!   never applied, and mangled sequence metadata can never drive lag
//!   accounting.
//! * [`leader`] — serves `Frames` requests from the store's retained +
//!   live WAL generations
//!   ([`SegmentStore::wal_entries_since`](gisolap_store::SegmentStore::wal_entries_since)),
//!   answering `Compacted` when the follower's cursor predates
//!   retention, and `Snapshot` with a full state transfer.
//! * [`transport`] — the [`Transport`] seam: [`DirectTransport`] for
//!   in-process leaders, and [`FaultTransport`], a deterministic
//!   fault-injection decorator (drops, duplicates, reorders, bit flips,
//!   truncations, multi-request partitions) that drives the replication
//!   property tests in `tests/tests/repl_faults.rs`.
//! * [`follower`] — the replica: a cursor of the next sequence number to
//!   apply, bounded exponential backoff with deterministic jitter,
//!   resumable catch-up, idempotent re-application (duplicates skipped,
//!   gaps refetched, snapshots never rewind), automatic snapshot
//!   fallback when the leader compacted past the cursor, and
//!   **lag-bounded reads**: queries carrying a staleness bound degrade
//!   to an explicit [`LagBounded::Stale`] instead of silently serving
//!   old data.
//!
//! ## Epoch fencing
//!
//! Every reply carries the leader's **epoch** — the monotonically
//! increasing term a failover controller appoints leaders under
//! (`DESIGN.md` §5.3). A [`Leader`] built with an [`EpochFence`] refuses
//! writes and replication service with
//! [`StoreError`](gisolap_store::StoreError)`::StaleEpoch` once the
//! fence moves past its epoch, and answers `NotLeader` to any request
//! proving a newer epoch exists. A [`Follower`] adopts the highest
//! epoch it has seen and drops lower-epoch replies, so two leaders can
//! never both extend a replica's history. [`Follower::promote`] turns a
//! durable replica into the shard's next leader; [`Follower::retarget`]
//! repoints survivors at it.
//!
//! ## Convergence contract
//!
//! Replay determinism (`StreamIngest::restore`/`recover`) makes the
//! follower's cube a pure function of the applied entry prefix, so after
//! any fault schedule a follower that reaches `cursor == leader_next`
//! holds **bit-identical** state: every rollup, every aggregate float,
//! every tail counter matches the leader exactly. Durable followers
//! write their own WAL as they apply, so a crash mid-catch-up recovers
//! to the durable prefix and resumes — never double-applying, because
//! the local sequence number *is* the replication cursor.
//!
//! Errors reuse [`gisolap_store::StoreError`]; transport-level failures
//! are retried internally and surface only as counters
//! ([`ReplStats`]) and backoff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follower;
pub mod leader;
pub mod transport;
pub mod wire;

pub use follower::{Follower, FollowerConfig, Lag, LagBounded, PollOutcome, ReplStats};
pub use leader::{EpochFence, Leader, LeaderStats};
pub use transport::{
    DirectTransport, FaultConfig, FaultStats, FaultTransport, Transport, TransportError,
};
pub use wire::{FrameBatch, Reply, ReplyHead, Request, SnapshotTransfer};
