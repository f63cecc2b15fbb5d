//! The replication leader: a [`DurableIngest`] that answers follower
//! requests from its retained + live WAL generations.

use crate::wire::{self, ReplyHead, Request, SnapshotTransfer};
use gisolap_obs::counters;
use gisolap_store::{DurableIngest, Result, StoreError, WalFetch};
use gisolap_stream::{IngestReport, RollupQuery, RollupRow};
use gisolap_traj::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared per-shard epoch cell a lease controller fences deposed
/// leaders with: promotion stores the new epoch here, and every leader
/// holding the same fence refuses writes once the cell exceeds the
/// epoch it was appointed under. One fence per shard, shared by every
/// leader the shard has ever had.
pub type EpochFence = Arc<AtomicU64>;

counters! {
    /// Counters for leader-side replication work.
    pub struct LeaderStats["gisolap_repl_leader_", "Replication leader counter."] {
        /// Requests decoded and answered (any reply type).
        requests,
        /// WAL entries shipped in frames replies.
        frames_shipped,
        /// `Compacted` replies (follower cursor predates WAL retention).
        compacted_replies,
        /// Full snapshot transfers served.
        snapshots_shipped,
        /// Requests rejected as structurally corrupt.
        bad_requests,
        /// Operations refused because this leader's epoch was fenced (a
        /// newer leader exists) or a request proved a newer epoch.
        fenced_rejections,
    }
}

/// A durable pipeline that doubles as a replication source. Writes go
/// through the usual [`DurableIngest`] front door (so they are
/// WAL-logged before they are applied); [`Leader::handle`] serves the
/// wire protocol to any number of followers.
///
/// To let followers tail across WAL rotations, open the underlying
/// store with
/// [`StoreConfig::retain_wal_generations`](gisolap_store::StoreConfig::retain_wal_generations)
/// `> 0` (`GISOLAP_REPL_RETAIN_WALS`); with retention off, any follower
/// that
/// falls behind a flush is answered `Compacted` and falls back to a
/// snapshot transfer.
pub struct Leader {
    ingest: DurableIngest,
    /// The epoch this leader was appointed under.
    epoch: u64,
    /// The shard's shared fence; `None` for standalone leaders (manual
    /// replica sets without a lease controller), which never fence.
    fence: Option<EpochFence>,
    stats: LeaderStats,
}

impl std::fmt::Debug for Leader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leader")
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Leader {
    /// Wraps a durable pipeline as a replication source at epoch 0 with
    /// no fence — the standalone configuration every pre-elasticity
    /// caller gets.
    pub fn new(ingest: DurableIngest) -> Leader {
        Leader::with_epoch(ingest, 0, None)
    }

    /// Wraps a durable pipeline as a replication source appointed at
    /// `epoch`. When `fence` is given and its cell ever exceeds
    /// `epoch`, every write and every served request is refused with
    /// [`StoreError::StaleEpoch`] — a deposed leader can go on
    /// *reading* its local store, but can never extend or ship history.
    pub fn with_epoch(ingest: DurableIngest, epoch: u64, fence: Option<EpochFence>) -> Leader {
        Leader {
            ingest,
            epoch,
            fence,
            stats: LeaderStats::default(),
        }
    }

    /// The epoch this leader was appointed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Errs with [`StoreError::StaleEpoch`] when the shared fence has
    /// moved past this leader's epoch.
    fn check_fence(&mut self) -> Result<()> {
        if let Some(fence) = &self.fence {
            let current = fence.load(Ordering::SeqCst);
            if current > self.epoch {
                self.stats.fenced_rejections += 1;
                return Err(StoreError::StaleEpoch {
                    held: self.epoch,
                    current,
                });
            }
        }
        Ok(())
    }

    /// Answers one follower request. Structural damage in the request is
    /// an error (counted in [`LeaderStats::bad_requests`]); the
    /// transport layer decides how to surface it. A fenced leader
    /// refuses every request ([`StoreError::StaleEpoch`]), and a
    /// request whose epoch exceeds this leader's proves a newer leader
    /// exists — answered [`StoreError::NotLeader`], which also counts
    /// as a fenced rejection.
    ///
    /// Sync before ship: a reply that hands out WAL entries, or a
    /// snapshot of the live tail, first fsyncs any unsynced WAL append
    /// ([`DurableIngest::sync_wal`]). Otherwise a power cut could take
    /// from the leader a write a follower already holds, and the
    /// leader's next writes would reuse its sequence numbers — a
    /// follower past them would skip the new writes and answer wrong,
    /// not stale. Under [`SyncPolicy::Always`](gisolap_store::SyncPolicy)
    /// there is never anything to sync.
    pub fn handle(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let req = match wire::read_request(request) {
            Ok(r) => r,
            Err(e) => {
                self.stats.bad_requests += 1;
                return Err(e);
            }
        };
        self.check_fence()?;
        self.stats.requests += 1;
        match req {
            Request::Frames {
                from_seq,
                max,
                epoch,
            } => {
                if epoch > self.epoch {
                    self.stats.fenced_rejections += 1;
                    return Err(StoreError::NotLeader { held: self.epoch });
                }
                // A cursor *ahead* of the leader means the follower
                // replicated from a different (or reset) leader; serve a
                // snapshot so it re-seeds instead of erroring forever.
                if from_seq > self.ingest.next_seq() {
                    self.stats.snapshots_shipped += 1;
                    return self.encode_snapshot();
                }
                match self.ingest.wal_entries_since(from_seq, max)? {
                    WalFetch::Entries(entries) => {
                        if !entries.is_empty() {
                            self.ingest.sync_wal()?;
                        }
                        self.stats.frames_shipped += entries.len() as u64;
                        wire::encode_frames_reply(
                            self.epoch,
                            &entries,
                            self.ingest.next_seq(),
                            self.ingest.store().retained_from(),
                        )
                    }
                    WalFetch::Compacted { retained_from } => {
                        self.stats.compacted_replies += 1;
                        Ok(ReplyHead::Compacted {
                            epoch: self.epoch,
                            retained_from,
                            leader_next_seq: self.ingest.next_seq(),
                        }
                        .encode())
                    }
                }
            }
            Request::Snapshot => {
                self.stats.snapshots_shipped += 1;
                self.encode_snapshot()
            }
        }
    }

    /// A snapshot of the live pipeline, tail included — so the WAL is
    /// synced first.
    fn encode_snapshot(&mut self) -> Result<Vec<u8>> {
        self.ingest.sync_wal()?;
        let pipeline = self.ingest.pipeline();
        let cfg = self.ingest.store().stream_config();
        let transfer = SnapshotTransfer {
            epoch: self.epoch,
            lateness_seconds: cfg.lateness_seconds,
            segment_seconds: cfg.segment_seconds,
            next_seq: self.ingest.next_seq(),
            segments: pipeline.segments().to_vec(),
            tail: pipeline.tail_state(),
        };
        Ok(ReplyHead::Snapshot(transfer).encode())
    }

    /// Logs and applies a batch ([`DurableIngest::ingest`]); refused
    /// with [`StoreError::StaleEpoch`] once fenced.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<IngestReport> {
        self.check_fence()?;
        self.ingest.ingest(batch)
    }

    /// Logs and applies a close ([`DurableIngest::finish`]); refused
    /// with [`StoreError::StaleEpoch`] once fenced.
    pub fn finish(&mut self) -> Result<u64> {
        self.check_fence()?;
        self.ingest.finish()
    }

    /// Flushes the underlying store ([`DurableIngest::flush`]).
    pub fn flush(&mut self) -> Result<gisolap_store::FlushReport> {
        self.ingest.flush()
    }

    /// Compacts the underlying store ([`DurableIngest::compact`]).
    pub fn compact(&mut self) -> Result<gisolap_store::CompactionReport> {
        self.ingest.compact()
    }

    /// The sequence number the next appended entry will get.
    pub fn next_seq(&self) -> u64 {
        self.ingest.next_seq()
    }

    /// Answers a rollup from the live pipeline.
    pub fn rollup(&self, q: &RollupQuery) -> Result<Vec<RollupRow>> {
        self.ingest.rollup(q)
    }

    /// The live pipeline, refused with [`StoreError::StaleEpoch`] once
    /// this leader is fenced — the read a coordinator pinned to leader
    /// handles, and a server answering a shard fetch, must use, so a
    /// deposed leader's (possibly forked-behind) cells never reach a
    /// gather.
    pub fn pipeline_fenced(&mut self) -> Result<&gisolap_stream::StreamIngest> {
        self.check_fence()?;
        Ok(self.ingest.pipeline())
    }

    /// Leader-side replication counters.
    pub fn stats(&self) -> LeaderStats {
        self.stats
    }

    /// The wrapped durable pipeline (read-only).
    pub fn durable(&self) -> &DurableIngest {
        &self.ingest
    }

    /// Unwraps the leader back into its pipeline.
    pub fn into_inner(self) -> DurableIngest {
        self.ingest
    }
}
