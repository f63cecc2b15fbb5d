//! The replica: tails a leader's WAL through a [`Transport`], applies
//! entries through the normal ingest path, and serves reads with an
//! explicit staleness contract.

use crate::leader::{EpochFence, Leader};
use crate::transport::Transport;
use crate::wire::{self, Reply, Request, SnapshotTransfer};
use gisolap_obs::config as obs_config;
use gisolap_obs::{counters, MetricsRegistry, Span, Tracer};
use gisolap_store::{DurableIngest, FlushReport, Result, StoreConfig, StoreError, Vfs};
use gisolap_stream::{
    GeoResolver, ReplayOp, RollupQuery, RollupRow, StreamConfig, StreamIngest, StreamSnapshot,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Tuning knobs for a [`Follower`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerConfig {
    /// Staleness bound in sequence numbers for lag-bounded reads
    /// (`GISOLAP_REPL_MAX_LAG_SEQS`); `None` = unbounded.
    pub max_lag_seqs: Option<u64>,
    /// Staleness bound in milliseconds since last leader contact for
    /// lag-bounded reads; `None` = unbounded.
    pub max_lag_ms: Option<u64>,
    /// Base retry backoff in milliseconds (`GISOLAP_REPL_BACKOFF_MS`).
    /// Doubles per consecutive failure, capped at
    /// [`FollowerConfig::backoff_max_ms`], jittered to `[raw/2, raw]`.
    /// `0` disables sleeping (tests).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_max_ms: u64,
    /// Max WAL entries requested per poll.
    pub max_batch: u32,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
    /// Collect `repl-poll` span trees.
    pub traced: bool,
}

impl Default for FollowerConfig {
    fn default() -> FollowerConfig {
        FollowerConfig {
            max_lag_seqs: None,
            max_lag_ms: None,
            backoff_base_ms: 10,
            backoff_max_ms: 1000,
            max_batch: 512,
            jitter_seed: 0,
            traced: false,
        }
    }
}

impl FollowerConfig {
    /// Reads the `GISOLAP_REPL_*` environment flags, falling back to the
    /// defaults.
    pub fn from_env() -> FollowerConfig {
        let defaults = FollowerConfig::default();
        FollowerConfig {
            max_lag_seqs: obs_config::REPL_MAX_LAG_SEQS.parse_u64(),
            backoff_base_ms: obs_config::REPL_BACKOFF_MS
                .parse_u64()
                .unwrap_or(defaults.backoff_base_ms),
            ..defaults
        }
    }
}

/// How far behind the leader a follower is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lag {
    /// Entries not yet applied, per the last leader contact. `None`
    /// until the follower has heard from the leader at least once.
    pub seqs: Option<u64>,
    /// Milliseconds since the last successful leader contact. `None`
    /// until the first contact.
    pub millis: Option<u64>,
}

/// A lag-bounded read: either a fresh value within the configured
/// staleness bounds, or an explicit refusal carrying the lag — the
/// follower never silently serves data it knows is too old.
#[derive(Debug, Clone, PartialEq)]
pub enum LagBounded<T> {
    /// The read is within bounds.
    Fresh {
        /// The query result.
        value: T,
        /// Lag at read time (within bounds).
        lag: Lag,
    },
    /// The read exceeds a configured bound; no value is served.
    Stale {
        /// Lag at read time (out of bounds, or leader never contacted).
        lag: Lag,
    },
}

/// What one [`Follower::poll`] round accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// Applied this many entries from a frames reply (0 = caught up or
    /// duplicate-only).
    Applied(u64),
    /// Installed a full snapshot and repositioned the cursor.
    Snapshot,
    /// The round failed (transport error, corrupt reply, gap); the
    /// follower backed off and will retry.
    Retry,
}

counters! {
    /// Counters for follower-side replication work.
    pub struct ReplStats["gisolap_repl_", "Replication follower counter."] {
        /// Poll rounds attempted.
        polls,
        /// WAL entries applied.
        entries_applied,
        /// Records inside applied batch entries.
        records_applied,
        /// Entries (or stale snapshots) skipped because the cursor had
        /// already passed them — the idempotence guard.
        duplicates_skipped,
        /// Rounds abandoned because a shipped entry jumped past the cursor.
        seq_gaps,
        /// Shipped WAL frames flagged corrupt (checksum/decode) and dropped.
        corrupt_frames,
        /// Replies whose head failed structural validation.
        corrupt_replies,
        /// Exchanges that failed at the transport layer.
        transport_errors,
        /// Backoffs performed (every failed round counts one).
        retries,
        /// Successful rounds that ended a failure streak.
        reconnects,
        /// `Compacted` replies received (cursor predates leader retention).
        snapshot_fallbacks,
        /// Full snapshots installed.
        snapshots_installed,
        /// Replies dropped because they carried an epoch below the highest
        /// this follower has seen — a deposed leader still answering.
        stale_epoch_rejections,
    }
}

/// The replica's applied state: the same pipeline types the leader
/// runs, so reads and convergence checks share every code path.
enum State {
    /// In-memory replica (read replica, no local durability).
    Memory(Box<StreamIngest>),
    /// Durable replica: applies through its own [`DurableIngest`], so
    /// its local WAL sequence *is* the replication cursor and a crash
    /// mid-catch-up recovers to the durable prefix without ever
    /// double-applying. Boxed: it dwarfs the memory variant.
    Durable(Box<DurableIngest>),
}

/// Where a durable follower keeps its store.
struct DurableHome {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    store_config: StoreConfig,
}

/// A fault-tolerant read replica. Create one with [`Follower::memory`]
/// or [`Follower::durable`], then drive [`Follower::poll`] /
/// [`Follower::sync`]; read through [`Follower::rollup_bounded`] for
/// the staleness contract or [`Follower::rollup`] for best-effort.
///
/// A fresh follower bootstraps itself with a snapshot transfer on the
/// first successful poll; from then on it tails WAL frames, falling
/// back to a snapshot only when the leader compacted past its cursor.
pub struct Follower<T> {
    transport: T,
    config: FollowerConfig,
    resolver: Option<GeoResolver>,
    state: Option<State>,
    durable_home: Option<DurableHome>,
    /// Next sequence number to apply.
    cursor: u64,
    /// Highest leader epoch seen in any reply. Adopted monotonically:
    /// replies below it are a deposed leader's and are dropped, so a
    /// follower straddling a failover never applies forked history.
    epoch: u64,
    /// Highest `leader_next_seq` heard (monotonic: stale duplicate
    /// replies can repeat old values but never lower this).
    leader_next: u64,
    /// Whether any leader reply has ever been decoded.
    synced: bool,
    last_contact: Option<Instant>,
    /// Consecutive failed rounds (drives backoff).
    failures: u32,
    rng: SmallRng,
    stats: ReplStats,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl<T> std::fmt::Debug for Follower<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Follower")
            .field("cursor", &self.cursor)
            .field("epoch", &self.epoch)
            .field("leader_next", &self.leader_next)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<T: Transport> Follower<T> {
    fn new(
        transport: T,
        resolver: Option<GeoResolver>,
        config: FollowerConfig,
        state: Option<State>,
        durable_home: Option<DurableHome>,
        cursor: u64,
    ) -> Follower<T> {
        let tracer = Tracer::default();
        tracer.set_enabled(config.traced);
        Follower {
            transport,
            config,
            resolver,
            state,
            durable_home,
            cursor,
            epoch: 0,
            leader_next: 0,
            synced: false,
            last_contact: None,
            failures: 0,
            rng: SmallRng::seed_from_u64(config.jitter_seed),
            stats: ReplStats::default(),
            tracer,
            spans: Vec::new(),
        }
    }

    /// An in-memory read replica. It holds no state until its first
    /// successful poll bootstraps it from a leader snapshot (which also
    /// carries the leader's stream configuration).
    pub fn memory(
        transport: T,
        resolver: Option<GeoResolver>,
        config: FollowerConfig,
    ) -> Follower<T> {
        Follower::new(transport, resolver, config, None, None, 0)
    }

    /// A durable replica homed at `dir`. If `dir` already holds a store
    /// (a previous run's — possibly one that crashed mid-apply), it is
    /// recovered and catch-up resumes from the durable prefix;
    /// otherwise the follower bootstraps from a leader snapshot on the
    /// first successful poll.
    pub fn durable(
        transport: T,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        store_config: StoreConfig,
        resolver: Option<GeoResolver>,
        config: FollowerConfig,
    ) -> Result<Follower<T>> {
        let home = DurableHome {
            vfs: vfs.clone(),
            dir: dir.to_path_buf(),
            store_config,
        };
        if vfs.exists(&dir.join(gisolap_store::store::MANIFEST_NAME)) {
            let (durable, _report) =
                DurableIngest::recover(vfs, dir, store_config, resolver.clone())?;
            let cursor = durable.next_seq();
            Ok(Follower::new(
                transport,
                resolver,
                config,
                Some(State::Durable(Box::new(durable))),
                Some(home),
                cursor,
            ))
        } else {
            Ok(Follower::new(
                transport,
                resolver,
                config,
                None,
                Some(home),
                0,
            ))
        }
    }

    /// One replication round: request the next WAL batch (or a
    /// bootstrap snapshot), apply what arrives, back off on failure.
    /// Only local apply/install errors are returned; transport and
    /// corruption failures surface as [`PollOutcome::Retry`] plus
    /// counters.
    pub fn poll(&mut self) -> Result<PollOutcome> {
        self.stats.polls += 1;
        let traced = self.tracer.enabled();
        let t0 = Instant::now();
        let mut children = Vec::new();
        let outcome = self.poll_inner(traced, &mut children);
        if traced {
            self.spans.push(Span {
                name: "repl-poll",
                duration_ns: elapsed_ns(t0),
                counters: Vec::new(),
                children,
            });
        }
        outcome
    }

    fn poll_inner(&mut self, traced: bool, children: &mut Vec<Span>) -> Result<PollOutcome> {
        let request = if self.state.is_none() {
            Request::Snapshot
        } else {
            Request::Frames {
                from_seq: self.cursor,
                max: self.config.max_batch,
                epoch: self.epoch,
            }
        };
        let reply = match self.fetch(&request, traced, children) {
            Some(r) => r,
            None => return Ok(PollOutcome::Retry),
        };
        match reply {
            Reply::Frames(batch) => {
                self.note_contact(batch.leader_next_seq);
                self.stats.corrupt_frames += batch.corrupt_frames;
                if self.state.is_none() {
                    // A frames reply while bootstrapping (a stale
                    // duplicate): nothing to apply it to yet.
                    self.note_failure();
                    return Ok(PollOutcome::Retry);
                }
                let corrupt = batch.corrupt_frames > 0;
                let t0 = Instant::now();
                let mut applied = 0u64;
                let mut gap = false;
                for (seq, op) in batch.entries {
                    if seq < self.cursor {
                        self.stats.duplicates_skipped += 1;
                        continue;
                    }
                    if seq > self.cursor {
                        // A hole (reordered or dropped frame): applying
                        // would corrupt the replica. Stop; the next
                        // round refetches from the cursor.
                        self.stats.seq_gaps += 1;
                        gap = true;
                        break;
                    }
                    self.apply_op(op)?;
                    self.cursor += 1;
                    self.stats.entries_applied += 1;
                    applied += 1;
                }
                if traced && applied > 0 {
                    children.push(Span {
                        name: "repl-apply",
                        duration_ns: elapsed_ns(t0),
                        counters: vec![("entries_applied", applied)],
                        children: Vec::new(),
                    });
                }
                if applied > 0 || (!gap && !corrupt) {
                    self.note_success();
                    Ok(PollOutcome::Applied(applied))
                } else {
                    self.note_failure();
                    Ok(PollOutcome::Retry)
                }
            }
            Reply::Compacted {
                leader_next_seq, ..
            } => {
                self.note_contact(leader_next_seq);
                if self.state.is_none() {
                    // Stale duplicate during bootstrap; the snapshot
                    // request repeats next round anyway.
                    self.note_failure();
                    return Ok(PollOutcome::Retry);
                }
                // The leader compacted past our cursor: tailgating is
                // impossible, fall back to a full snapshot now.
                self.stats.snapshot_fallbacks += 1;
                match self.fetch(&Request::Snapshot, traced, children) {
                    Some(Reply::Snapshot(snap)) => self.maybe_install(snap, traced, children),
                    Some(_) => {
                        // Wrong reply type (stale duplicate).
                        self.note_failure();
                        Ok(PollOutcome::Retry)
                    }
                    None => Ok(PollOutcome::Retry),
                }
            }
            Reply::Snapshot(snap) => {
                self.note_contact(snap.next_seq);
                self.maybe_install(snap, traced, children)
            }
        }
    }

    /// One exchange + decode. `None` means the round failed (already
    /// counted and backed off).
    fn fetch(
        &mut self,
        request: &Request,
        traced: bool,
        children: &mut Vec<Span>,
    ) -> Option<Reply> {
        let bytes = request.encode();
        let t0 = Instant::now();
        let raw = match self.transport.exchange(&bytes) {
            Ok(r) => r,
            Err(_) => {
                self.stats.transport_errors += 1;
                self.note_failure();
                return None;
            }
        };
        let reply = match wire::decode_reply(&raw) {
            Ok(r) => r,
            Err(_) => {
                self.stats.corrupt_replies += 1;
                self.note_failure();
                return None;
            }
        };
        // Epoch gate: a reply below the highest epoch seen is a deposed
        // leader's — drop it before any of its contents (cursor, frames,
        // snapshot) can touch the replica. Higher epochs are adopted.
        let reply_epoch = match &reply {
            Reply::Frames(batch) => batch.epoch,
            Reply::Compacted { epoch, .. } => *epoch,
            Reply::Snapshot(snap) => snap.epoch,
        };
        if reply_epoch < self.epoch {
            self.stats.stale_epoch_rejections += 1;
            self.note_failure();
            return None;
        }
        self.epoch = reply_epoch;
        if traced {
            children.push(Span {
                name: "repl-fetch",
                duration_ns: elapsed_ns(t0),
                counters: vec![("reply_bytes", raw.len() as u64)],
                children: Vec::new(),
            });
        }
        Some(reply)
    }

    /// Installs a snapshot unless it would rewind the cursor: a stale
    /// duplicated snapshot reply must never undo applied entries
    /// (no-double-apply).
    fn maybe_install(
        &mut self,
        snap: SnapshotTransfer,
        traced: bool,
        children: &mut Vec<Span>,
    ) -> Result<PollOutcome> {
        if self.state.is_some() && snap.next_seq <= self.cursor {
            self.stats.duplicates_skipped += 1;
            self.note_success();
            return Ok(PollOutcome::Applied(0));
        }
        let t0 = Instant::now();
        let stream_config = StreamConfig::new(snap.lateness_seconds, snap.segment_seconds)
            .map_err(StoreError::Stream)?;
        let segments = snap.segments.len() as u64;
        let state = match &self.durable_home {
            None => State::Memory(Box::new(
                StreamIngest::restore(
                    stream_config,
                    self.resolver.clone(),
                    snap.segments,
                    snap.tail,
                )
                .map_err(StoreError::Stream)?,
            )),
            Some(home) => State::Durable(Box::new(DurableIngest::install_snapshot(
                home.vfs.clone(),
                &home.dir,
                stream_config,
                home.store_config,
                self.resolver.clone(),
                snap.segments,
                snap.tail,
                snap.next_seq,
            )?)),
        };
        self.state = Some(state);
        self.cursor = snap.next_seq;
        self.stats.snapshots_installed += 1;
        self.note_success();
        if traced {
            children.push(Span {
                name: "repl-snapshot-install",
                duration_ns: elapsed_ns(t0),
                counters: vec![("segments", segments)],
                children: Vec::new(),
            });
        }
        Ok(PollOutcome::Snapshot)
    }

    fn apply_op(&mut self, op: ReplayOp) -> Result<()> {
        match (&mut self.state, op) {
            (Some(State::Memory(ingest)), ReplayOp::Batch(batch)) => {
                self.stats.records_applied += batch.len() as u64;
                ingest.ingest(&batch);
            }
            (Some(State::Memory(ingest)), ReplayOp::Finish) => {
                ingest.finish();
            }
            (Some(State::Durable(durable)), ReplayOp::Batch(batch)) => {
                self.stats.records_applied += batch.len() as u64;
                durable.ingest(&batch)?;
            }
            (Some(State::Durable(durable)), ReplayOp::Finish) => {
                durable.finish()?;
            }
            (None, _) => {
                return Err(StoreError::BadConfig(
                    "follower applied before bootstrap".to_string(),
                ))
            }
        }
        Ok(())
    }

    fn note_contact(&mut self, leader_next: u64) {
        self.leader_next = self.leader_next.max(leader_next);
        self.synced = true;
        self.last_contact = Some(Instant::now());
    }

    fn note_success(&mut self) {
        if self.failures > 0 {
            self.stats.reconnects += 1;
            self.failures = 0;
        }
    }

    /// Bounded exponential backoff with deterministic jitter:
    /// `min(max, base << failures)` drawn down to `[raw/2, raw]`.
    fn note_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        self.stats.retries += 1;
        let shift = u32::min(self.failures - 1, 16);
        let raw = self
            .config
            .backoff_base_ms
            .saturating_mul(1u64 << shift)
            .min(self.config.backoff_max_ms);
        if raw > 0 {
            let jittered = self.rng.gen_range(raw / 2..=raw);
            std::thread::sleep(Duration::from_millis(jittered));
        }
    }

    /// Polls until caught up or `max_polls` rounds elapse. Returns the
    /// total entries applied; check [`Follower::caught_up`] to see
    /// whether the budget sufficed.
    pub fn sync(&mut self, max_polls: u64) -> Result<u64> {
        let mut applied = 0;
        for _ in 0..max_polls {
            if let PollOutcome::Applied(n) = self.poll()? {
                applied += n;
            }
            if self.caught_up() {
                break;
            }
        }
        Ok(applied)
    }

    /// Whether the follower has applied everything the leader had at
    /// last contact.
    pub fn caught_up(&self) -> bool {
        self.state.is_some() && self.synced && self.cursor >= self.leader_next
    }

    /// The follower's current lag.
    pub fn lag(&self) -> Lag {
        Lag {
            seqs: if self.synced {
                Some(self.leader_next.saturating_sub(self.cursor))
            } else {
                None
            },
            millis: self
                .last_contact
                .map(|t| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)),
        }
    }

    fn out_of_bounds(&self, lag: &Lag) -> bool {
        if let Some(bound) = self.config.max_lag_seqs {
            match lag.seqs {
                None => return true,
                Some(s) if s > bound => return true,
                _ => {}
            }
        }
        if let Some(bound) = self.config.max_lag_ms {
            match lag.millis {
                None => return true,
                Some(m) if m > bound => return true,
                _ => {}
            }
        }
        false
    }

    /// Answers a rollup **only if** the follower is within its
    /// configured staleness bounds; otherwise returns
    /// [`LagBounded::Stale`] with the measured lag. A follower that has
    /// never heard from its leader is always stale under any bound.
    pub fn rollup_bounded(&self, q: &RollupQuery) -> Result<LagBounded<Vec<RollupRow>>> {
        let lag = self.lag();
        if self.out_of_bounds(&lag) {
            return Ok(LagBounded::Stale { lag });
        }
        Ok(LagBounded::Fresh {
            value: self.rollup(q)?,
            lag,
        })
    }

    /// Wraps any follower-derived `value` in the staleness contract:
    /// [`LagBounded::Fresh`] while the follower is within its configured
    /// bounds, [`LagBounded::Stale`] (value discarded) otherwise. This
    /// is the same gate [`Follower::rollup_bounded`] applies, exposed so
    /// consumers that compute their own reads off
    /// [`Follower::pipeline`] — standing-query evaluators, engines over
    /// snapshots — surface lag identically instead of silently serving
    /// old data.
    pub fn bounded<V>(&self, value: V) -> LagBounded<V> {
        let lag = self.lag();
        if self.out_of_bounds(&lag) {
            return LagBounded::Stale { lag };
        }
        LagBounded::Fresh { value, lag }
    }

    /// Answers a rollup best-effort, regardless of lag.
    pub fn rollup(&self, q: &RollupQuery) -> Result<Vec<RollupRow>> {
        match &self.state {
            Some(State::Memory(ingest)) => ingest.rollup(q).map_err(StoreError::Stream),
            Some(State::Durable(durable)) => durable.rollup(q),
            None => Err(StoreError::BadConfig(
                "follower has not bootstrapped from its leader yet".to_string(),
            )),
        }
    }

    /// Freezes the replica into an owned [`StreamSnapshot`] — the same
    /// structure the `gisolap-core` query engines consume, so a replica
    /// can back an engine exactly like the leader can.
    pub fn snapshot(&self) -> Result<StreamSnapshot> {
        match &self.state {
            Some(State::Memory(ingest)) => ingest.snapshot().map_err(StoreError::Stream),
            Some(State::Durable(durable)) => durable.snapshot(),
            None => Err(StoreError::BadConfig(
                "follower has not bootstrapped from its leader yet".to_string(),
            )),
        }
    }

    /// Flushes a durable replica's local store. Errors on in-memory
    /// followers.
    pub fn flush(&mut self) -> Result<FlushReport> {
        match &mut self.state {
            Some(State::Durable(durable)) => durable.flush(),
            Some(State::Memory(_)) => Err(StoreError::BadConfig(
                "in-memory follower has no store to flush".to_string(),
            )),
            None => Err(StoreError::BadConfig(
                "follower has not bootstrapped from its leader yet".to_string(),
            )),
        }
    }

    /// The replica's live pipeline, once bootstrapped.
    pub fn pipeline(&self) -> Option<&StreamIngest> {
        match &self.state {
            Some(State::Memory(ingest)) => Some(ingest),
            Some(State::Durable(durable)) => Some(durable.pipeline()),
            None => None,
        }
    }

    /// Next sequence number the follower will apply.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Highest leader epoch this follower has seen in any reply.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the follower currently violates a configured staleness
    /// bound — the same gate every `*_bounded` read applies, exposed so
    /// failover controllers can probe health without running a query.
    pub fn stale(&self) -> bool {
        self.out_of_bounds(&self.lag())
    }

    /// Repoints the follower at a different leader (same shard, new
    /// address) after a failover. Cursor, epoch and applied state are
    /// kept — WAL sequence numbers and epochs are properties of the
    /// shard's history, not of any one leader — but contact bookkeeping
    /// resets: the follower counts as unsynced until the new leader
    /// answers.
    pub fn retarget(&mut self, transport: T) {
        self.transport = transport;
        self.synced = false;
        self.last_contact = None;
        self.failures = 0;
    }

    /// Consumes a **durable** follower and promotes it into a
    /// replication [`Leader`] appointed at `epoch` — the failover step
    /// once the old leader's lease lapses. The follower's local WAL
    /// cursor carries over as the leader's next sequence number, so
    /// sibling replicas keep tailing the promoted store through the
    /// normal cursor/snapshot paths without a reseed. An in-memory
    /// follower has nothing durable to lead from and is refused.
    pub fn promote(self, epoch: u64, fence: Option<EpochFence>) -> Result<Leader> {
        match self.state {
            Some(State::Durable(durable)) => Ok(Leader::with_epoch(*durable, epoch, fence)),
            Some(State::Memory(_)) => Err(StoreError::BadConfig(
                "in-memory follower cannot be promoted to leader: it has no durable store \
                 (open it with Follower::durable)"
                    .to_string(),
            )),
            None => Err(StoreError::BadConfig(
                "follower has not bootstrapped from its leader yet".to_string(),
            )),
        }
    }

    /// The transport the follower polls through (e.g. to read
    /// [`FaultTransport`](crate::FaultTransport) injection counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Follower-side replication counters.
    pub fn stats(&self) -> ReplStats {
        self.stats
    }

    /// Collected `repl-poll` span trees (when traced).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Switches span collection.
    pub fn set_traced(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Publishes follower counters plus the `gisolap_repl_lag_seqs`
    /// gauge (once the leader has been contacted).
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        registry.fill(&self.stats, &[]);
        if let Some(seqs) = self.lag().seqs {
            registry.set_gauge(
                "gisolap_repl_lag_seqs",
                "Follower sequence lag behind its leader at last contact.",
                &[],
                seqs as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leader::Leader;
    use crate::transport::{DirectTransport, FaultConfig, FaultTransport};
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_store::{RealFs, ScratchDir, SyncPolicy};
    use gisolap_stream::Measure;
    use gisolap_traj::{ObjectId, Record};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    fn test_config() -> FollowerConfig {
        FollowerConfig {
            backoff_base_ms: 0, // never sleep in tests
            ..FollowerConfig::default()
        }
    }

    fn store_config(retain: usize) -> StoreConfig {
        StoreConfig {
            sync: SyncPolicy::Never,
            retain_wal_generations: retain,
            ..StoreConfig::default()
        }
    }

    /// A leader on a scratch store plus a transport to it.
    fn leader_fixture(dir: &ScratchDir, retain: usize) -> (Arc<Mutex<Leader>>, DirectTransport) {
        leader_fixture_at(dir, retain, 0)
    }

    /// [`leader_fixture`] appointed at a specific epoch.
    fn leader_fixture_at(
        dir: &ScratchDir,
        retain: usize,
        epoch: u64,
    ) -> (Arc<Mutex<Leader>>, DirectTransport) {
        let durable = DurableIngest::create(
            Arc::new(RealFs),
            dir.path(),
            StreamConfig::new(0, 3600).unwrap(),
            store_config(retain),
            None,
        )
        .unwrap();
        let leader = Arc::new(Mutex::new(Leader::with_epoch(durable, epoch, None)));
        let transport = DirectTransport::new(leader.clone());
        (leader, transport)
    }

    fn hourly_rollup(level: TimeLevel, f: AggFn) -> RollupQuery {
        RollupQuery {
            level,
            measure: Measure::X,
            f,
            between: None,
        }
    }

    /// Leader and follower answer every rollup identically, bit for bit.
    fn assert_converged<T: Transport>(leader: &Arc<Mutex<Leader>>, follower: &Follower<T>) {
        assert!(follower.caught_up(), "follower not caught up: {follower:?}");
        let leader = leader.lock().unwrap();
        for level in [TimeLevel::Hour, TimeLevel::Day] {
            for f in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
                let q = hourly_rollup(level, f);
                let a = leader.rollup(&q).unwrap();
                let b = follower.rollup(&q).unwrap();
                assert_eq!(a.len(), b.len(), "{level:?}/{f:?} row count");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.granule, y.granule);
                    assert_eq!(x.geo, y.geo);
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "{level:?}/{f:?} value mismatch at granule {}",
                        x.granule
                    );
                }
            }
        }
    }

    #[test]
    fn memory_follower_bootstraps_and_tails() {
        let dir = ScratchDir::new("repl-tail");
        let (leader, transport) = leader_fixture(&dir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 2.0), rec(2, 5000, 3.0, 4.0)])
            .unwrap();

        let mut f = Follower::memory(transport, None, test_config());
        assert!(!f.caught_up());
        assert!(f
            .rollup(&hourly_rollup(TimeLevel::Hour, AggFn::Count))
            .is_err());

        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        assert_eq!(f.stats().snapshots_installed, 1);

        // New writes arrive by WAL tailing, not another snapshot.
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 9000, 5.0, 6.0), rec(3, 9100, 7.0, 8.0)])
            .unwrap();
        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        assert_eq!(f.stats().snapshots_installed, 1);
        assert!(f.stats().entries_applied >= 1);
        assert_eq!(f.lag().seqs, Some(0));
    }

    #[test]
    fn follower_survives_leader_flush_with_retention() {
        let dir = ScratchDir::new("repl-retain");
        let (leader, transport) = leader_fixture(&dir, 4);
        let mut f = Follower::memory(transport, None, test_config());
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        f.sync(16).unwrap();

        // Flush rotates the WAL; retention keeps the retired file so the
        // follower can still tail across the rotation.
        for i in 0..3 {
            leader
                .lock()
                .unwrap()
                .ingest(&[rec(1, 8000 + i * 4000, i as f64, 1.0)])
                .unwrap();
            leader.lock().unwrap().flush().unwrap();
        }
        f.sync(32).unwrap();
        assert_converged(&leader, &f);
        assert_eq!(f.stats().snapshot_fallbacks, 0, "tailed, not snapshotted");
    }

    #[test]
    fn compaction_past_cursor_falls_back_to_snapshot() {
        let dir = ScratchDir::new("repl-compacted");
        // retain = 0: every flush discards the retired WAL.
        let (leader, transport) = leader_fixture(&dir, 0);
        let mut f = Follower::memory(transport, None, test_config());
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        f.sync(16).unwrap();
        let installs_before = f.stats().snapshots_installed;

        leader
            .lock()
            .unwrap()
            .ingest(&[rec(2, 8000, 2.0, 2.0)])
            .unwrap();
        leader.lock().unwrap().flush().unwrap(); // cursor now predates the WAL
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(3, 12000, 3.0, 3.0)])
            .unwrap();

        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        assert!(f.stats().snapshot_fallbacks >= 1);
        assert_eq!(f.stats().snapshots_installed, installs_before + 1);
    }

    #[test]
    fn lag_bounded_reads_degrade_to_stale() {
        let dir = ScratchDir::new("repl-lag");
        let (leader, transport) = leader_fixture(&dir, 2);
        let config = FollowerConfig {
            max_lag_seqs: Some(0),
            ..test_config()
        };
        let mut f = Follower::memory(transport, None, config);
        let q = hourly_rollup(TimeLevel::Hour, AggFn::Count);

        // Never synced: stale with unknown lag.
        match f.rollup_bounded(&q).unwrap() {
            LagBounded::Stale { lag } => assert_eq!(lag.seqs, None),
            other => panic!("expected stale, got {other:?}"),
        }

        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        f.sync(16).unwrap();
        match f.rollup_bounded(&q).unwrap() {
            LagBounded::Fresh { lag, .. } => assert_eq!(lag.seqs, Some(0)),
            other => panic!("expected fresh, got {other:?}"),
        }

        // The leader advances; the follower knows only after contact.
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(2, 200, 2.0, 2.0)])
            .unwrap();
        let mut probe = f; // poll once to learn the new high-water mark,
        probe.poll().unwrap(); // which applies too — so make the leader move again
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(3, 300, 3.0, 3.0)])
            .unwrap();
        probe.poll().unwrap(); // hears leader_next yet applies in the same round
        assert!(probe.caught_up());
        match probe.rollup_bounded(&q).unwrap() {
            LagBounded::Fresh { lag, .. } => assert_eq!(lag.seqs, Some(0)),
            other => panic!("expected fresh, got {other:?}"),
        }
    }

    #[test]
    fn stale_read_when_leader_unreachable() {
        let dir = ScratchDir::new("repl-partition-stale");
        let (leader, transport) = leader_fixture(&dir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        // Partition the link permanently after catch-up.
        let mut faulty = FaultTransport::new(
            transport,
            FaultConfig {
                ..FaultConfig::default()
            },
        );
        let config = FollowerConfig {
            max_lag_ms: Some(0), // any elapsed time since contact is stale
            ..test_config()
        };
        // Sync while the link is clean.
        let mut f = Follower::memory(&mut faulty, None, config);
        f.sync(16).unwrap();
        assert!(f.caught_up());
        std::thread::sleep(Duration::from_millis(5));
        let q = hourly_rollup(TimeLevel::Hour, AggFn::Count);
        match f.rollup_bounded(&q).unwrap() {
            LagBounded::Stale { lag } => assert!(lag.millis.unwrap_or(0) > 0),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn retries_and_reconnects_are_counted() {
        let dir = ScratchDir::new("repl-retry");
        let (leader, transport) = leader_fixture(&dir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        let mut faulty = FaultTransport::new(
            transport,
            FaultConfig {
                drop_permille: 400,
                seed: 11,
                ..FaultConfig::default()
            },
        );
        let mut f = Follower::memory(&mut faulty, None, test_config());
        for round in 0..15i64 {
            leader
                .lock()
                .unwrap()
                .ingest(&[rec(1, 100 + round * 600, round as f64, 1.0)])
                .unwrap();
            f.sync(64).unwrap();
        }
        assert_converged(&leader, &f);
        let s = f.stats();
        assert!(s.transport_errors > 0, "40% drop never fired: {s:?}");
        assert_eq!(
            s.retries,
            s.transport_errors + s.corrupt_replies + s.seq_gaps
        );
        assert!(s.reconnects >= 1);
    }

    #[test]
    fn durable_follower_persists_and_recovers() {
        let ldir = ScratchDir::new("repl-dur-leader");
        let fdir = ScratchDir::new("repl-dur-follower");
        let (leader, transport) = leader_fixture(&ldir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 2.0), rec(2, 5000, 3.0, 4.0)])
            .unwrap();

        let vfs: Arc<dyn Vfs> = Arc::new(RealFs);
        let mut f = Follower::durable(
            transport.clone(),
            vfs.clone(),
            fdir.path(),
            store_config(0),
            None,
            test_config(),
        )
        .unwrap();
        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        let cursor = f.cursor();
        drop(f);

        // More leader writes while the follower is down.
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(3, 9000, 5.0, 5.0)])
            .unwrap();

        // Restart from disk: resumes at the durable cursor, no snapshot.
        let mut f = Follower::durable(
            transport,
            vfs,
            fdir.path(),
            store_config(0),
            None,
            test_config(),
        )
        .unwrap();
        assert_eq!(f.cursor(), cursor);
        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        assert_eq!(
            f.stats().snapshots_installed,
            0,
            "tailed from durable cursor"
        );
    }

    #[test]
    fn duplicate_replies_never_double_apply() {
        let dir = ScratchDir::new("repl-dup");
        let (leader, transport) = leader_fixture(&dir, 2);
        let mut faulty = FaultTransport::new(
            transport,
            FaultConfig {
                duplicate_permille: 500,
                seed: 3,
                ..FaultConfig::default()
            },
        );
        let mut f = Follower::memory(&mut faulty, None, test_config());
        for round in 0..10i64 {
            leader
                .lock()
                .unwrap()
                .ingest(&[rec(1, 100 + round * 600, round as f64, 1.0)])
                .unwrap();
            f.sync(32).unwrap();
        }
        assert_converged(&leader, &f);
        // Convergence *is* the no-double-apply proof (a double-applied
        // batch would shift Count/Sum), but check the counter moved too.
        assert!(f.stats().duplicates_skipped > 0 || f.stats().snapshots_installed == 1);
    }

    #[test]
    fn replies_below_the_adopted_epoch_are_dropped() {
        /// Switches between a live leader link and a replayed reply, so
        /// one follower can see both a fenced exchange and a delayed
        /// stale reply (a frame from before the failover arriving after
        /// the epoch bump).
        enum TestLink {
            Direct(DirectTransport),
            Canned(Vec<u8>),
        }
        impl Transport for TestLink {
            fn exchange(
                &mut self,
                request: &[u8],
            ) -> std::result::Result<Vec<u8>, crate::transport::TransportError> {
                match self {
                    TestLink::Direct(t) => t.exchange(request),
                    TestLink::Canned(bytes) => Ok(bytes.clone()),
                }
            }
        }

        let adir = ScratchDir::new("repl-epoch-a");
        let bdir = ScratchDir::new("repl-epoch-b");
        let (leader_a, transport_a) = leader_fixture_at(&adir, 2, 2);
        leader_a
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 2.0)])
            .unwrap();
        let mut f = Follower::memory(TestLink::Direct(transport_a.clone()), None, test_config());
        f.sync(16).unwrap();
        assert_eq!(f.epoch(), 2, "follower adopts the leader's epoch");
        assert_converged(&leader_a, &f);

        // A deposed leader (lower epoch) with a forked history.
        let (leader_b, transport_b) = leader_fixture_at(&bdir, 2, 1);
        leader_b
            .lock()
            .unwrap()
            .ingest(&[rec(9, 100, 99.0, 99.0)])
            .unwrap();

        // Leg 1: a genuine epoch-1 reply (captured from the deposed
        // leader, which still answers requests at its own epoch) keeps
        // arriving — the follower's reply gate drops every copy before
        // any of its contents can touch the replica.
        let stale_reply = leader_b
            .lock()
            .unwrap()
            .handle(
                &Request::Frames {
                    from_seq: 0,
                    max: 16,
                    epoch: 1,
                }
                .encode(),
            )
            .unwrap();
        f.retarget(TestLink::Canned(stale_reply));
        let applied_before = f.stats().entries_applied;
        for _ in 0..4 {
            assert_eq!(f.poll().unwrap(), PollOutcome::Retry);
        }
        let s = f.stats();
        assert_eq!(s.stale_epoch_rejections, 4);
        assert_eq!(
            s.entries_applied, applied_before,
            "no forked history applied"
        );
        assert_eq!(f.epoch(), 2, "epoch never lowers");

        // Leg 2: polling the deposed leader directly — the follower's
        // higher request epoch proves a newer leader exists, so leader B
        // fences itself instead of answering at all.
        f.retarget(TestLink::Direct(transport_b));
        for _ in 0..2 {
            assert_eq!(f.poll().unwrap(), PollOutcome::Retry);
        }
        assert_eq!(leader_b.lock().unwrap().stats().fenced_rejections, 2);
        assert_eq!(f.stats().entries_applied, applied_before);
        assert_eq!(f.epoch(), 2);

        // Rejoining the live leader converges as if nothing happened.
        f.retarget(TestLink::Direct(transport_a));
        f.sync(16).unwrap();
        assert_converged(&leader_a, &f);
    }

    #[test]
    fn durable_follower_promotes_to_leader() {
        let ldir = ScratchDir::new("repl-promote-leader");
        let fdir = ScratchDir::new("repl-promote-follower");
        let (leader, transport) = leader_fixture(&ldir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 2.0), rec(2, 5000, 3.0, 4.0)])
            .unwrap();
        let mut f = Follower::durable(
            transport,
            Arc::new(RealFs),
            fdir.path(),
            store_config(2),
            None,
            test_config(),
        )
        .unwrap();
        f.sync(16).unwrap();
        assert_converged(&leader, &f);
        let cursor = f.cursor();

        // Promotion: the follower's store becomes the shard's new leader
        // at a bumped epoch, cursor intact, and keeps accepting writes.
        let fence: EpochFence = Arc::new(AtomicU64::new(1));
        let mut promoted = f.promote(1, Some(fence.clone())).unwrap();
        assert_eq!(promoted.epoch(), 1);
        assert_eq!(promoted.next_seq(), cursor, "WAL cursor carries over");
        promoted.ingest(&[rec(3, 9000, 5.0, 6.0)]).unwrap();

        // Once the fence moves past it, the promoted leader is deposed
        // in turn and refuses writes.
        fence.store(2, Ordering::SeqCst);
        match promoted.ingest(&[rec(4, 9100, 7.0, 8.0)]) {
            Err(StoreError::StaleEpoch {
                held: 1,
                current: 2,
            }) => {}
            other => panic!("expected StaleEpoch, got {other:?}"),
        }
    }

    #[test]
    fn memory_follower_refuses_promotion() {
        let dir = ScratchDir::new("repl-promote-memory");
        let (leader, transport) = leader_fixture(&dir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        let mut f = Follower::memory(transport, None, test_config());
        f.sync(16).unwrap();
        match f.promote(1, None) {
            Err(StoreError::BadConfig(msg)) => {
                assert!(msg.contains("in-memory"), "unhelpful message: {msg}")
            }
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn follower_config_from_env_reads_flags() {
        std::env::set_var("GISOLAP_REPL_MAX_LAG_SEQS", "7");
        std::env::set_var("GISOLAP_REPL_BACKOFF_MS", "3");
        let cfg = FollowerConfig::from_env();
        assert_eq!(cfg.max_lag_seqs, Some(7));
        assert_eq!(cfg.backoff_base_ms, 3);
        std::env::remove_var("GISOLAP_REPL_MAX_LAG_SEQS");
        std::env::remove_var("GISOLAP_REPL_BACKOFF_MS");
        let cfg = FollowerConfig::from_env();
        assert_eq!(cfg.max_lag_seqs, None);
        assert_eq!(cfg.backoff_base_ms, 10);
    }

    #[test]
    fn spans_and_metrics_are_published() {
        let dir = ScratchDir::new("repl-obs");
        let (leader, transport) = leader_fixture(&dir, 2);
        leader
            .lock()
            .unwrap()
            .ingest(&[rec(1, 100, 1.0, 1.0)])
            .unwrap();
        let mut f = Follower::memory(
            transport,
            None,
            FollowerConfig {
                traced: true,
                ..test_config()
            },
        );
        f.sync(16).unwrap();
        let spans = f.spans();
        assert!(!spans.is_empty());
        assert!(spans.iter().all(|s| s.name == "repl-poll"));
        let children: Vec<&str> = spans
            .iter()
            .flat_map(|s| s.children.iter().map(|c| c.name))
            .collect();
        assert!(children.contains(&"repl-fetch"));
        assert!(children.contains(&"repl-snapshot-install"));

        let mut reg = MetricsRegistry::new();
        f.fill_metrics(&mut reg);
        let text = reg.render_prometheus();
        assert!(text.contains("gisolap_repl_polls_total"));
        assert!(text.contains("gisolap_repl_lag_seqs"));
        let mut reg = MetricsRegistry::new();
        reg.fill(&leader.lock().unwrap().stats(), &[]);
        assert!(reg
            .render_prometheus()
            .contains("gisolap_repl_leader_requests_total"));
    }
}
