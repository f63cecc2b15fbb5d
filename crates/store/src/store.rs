//! The segment directory: an atomic `MANIFEST` as root of trust, sealed
//! segment files, a tail-state checkpoint, the rotating WAL, and the
//! flush / recover / compact state machine. [`DurableIngest`] bundles a
//! [`SegmentStore`] with a [`StreamIngest`] so every mutating operation
//! is write-ahead logged before it is applied.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gisolap_obs::{counters, Span, Tracer};
use gisolap_stream::{
    GeoResolver, IngestReport, IngestStats, ReplayOp, ReplayReport, RollupQuery, RollupRow,
    Segment, StreamConfig, StreamIngest, StreamSnapshot, TailState,
};
use gisolap_traj::Record;

use crate::codec::{
    self, check_header, read_single_frame, Enc, FileKind, Manifest, SegmentEntry, TailDelta,
};
use crate::vfs::Vfs;
use crate::wal::{self, SyncPolicy, Wal};
use crate::{corrupt, Result, StoreError};

/// The manifest file name inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

fn wal_name(gen: u64) -> String {
    format!("wal-{gen}.log")
}

fn ck_name(gen: u64) -> String {
    format!("ck-{gen}.ck")
}

fn ckd_name(gen: u64) -> String {
    format!("ckd-{gen}.ckd")
}

fn seg_name(lo: i64, hi: i64) -> String {
    format!("seg-{lo}-{hi}.seg")
}

/// Delta checkpoints a flush may chain onto one full checkpoint before
/// the next flush is forced to rewrite the whole tail.
const MAX_CHECKPOINT_DELTAS: usize = 4;

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Tuning knobs for a [`SegmentStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// WAL fsync policy (`GISOLAP_STORE_SYNC`).
    pub sync: SyncPolicy,
    /// When a flush leaves at least this many sealed segment files, they
    /// are compacted into one; `0` (the default) disables
    /// auto-compaction.
    pub compact_min_segments: usize,
    /// Retired WAL generations a flush keeps on disk instead of deleting
    /// (`GISOLAP_REPL_RETAIN_WALS`). A replication leader serves
    /// [`SegmentStore::wal_entries_since`] from these, so followers can
    /// tail across rotations; `0` (the default) deletes retired WALs at
    /// the flush commit point, forcing lagging followers onto the
    /// snapshot-transfer path.
    pub retain_wal_generations: usize,
    /// Collect `wal-append` / `segment-flush` / `recover-replay` spans.
    pub traced: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            sync: SyncPolicy::Always,
            compact_min_segments: 0,
            retain_wal_generations: 0,
            traced: false,
        }
    }
}

impl StoreConfig {
    /// The default configuration with two fields read from the
    /// environment: `sync` from [`gisolap_obs::config::STORE_SYNC`] and
    /// `retain_wal_generations` from
    /// [`gisolap_obs::config::REPL_RETAIN_WALS`]. Unset or unparsable
    /// values fall back to the defaults.
    pub fn from_env() -> StoreConfig {
        let defaults = StoreConfig::default();
        StoreConfig {
            sync: gisolap_obs::config::STORE_SYNC
                .raw()
                .and_then(|v| SyncPolicy::parse(&v))
                .unwrap_or(defaults.sync),
            retain_wal_generations: gisolap_obs::config::REPL_RETAIN_WALS
                .parse_u64()
                .map_or(defaults.retain_wal_generations, |v| v as usize),
            ..defaults
        }
    }
}

counters! {
    /// Cumulative durable-store counters, published as
    /// `gisolap_store_<field>_total`.
    pub struct StoreStats["gisolap_store_", "Durable segment store counter."] {
        /// WAL entries appended (batches + finishes).
        wal_appends,
        /// Records inside appended batch entries.
        wal_records,
        /// Frame bytes appended to the WAL.
        wal_bytes,
        /// Fsyncs issued by the WAL policy.
        wal_syncs,
        /// Segment files written by flushes.
        segments_flushed,
        /// Bytes written by flushes (segments + checkpoint + manifest).
        flush_bytes,
        /// Full checkpoints written.
        checkpoints,
        /// Delta checkpoints written (incremental flushes that diffed the
        /// tail against the previous checkpoint instead of rewriting it).
        delta_checkpoints,
        /// Successful recoveries performed.
        recoveries,
        /// WAL entries replayed during recovery.
        wal_entries_replayed,
        /// Records replayed from WAL batches during recovery.
        wal_records_replayed,
        /// Torn WAL tail bytes dropped by recovery.
        wal_truncated_bytes,
        /// Compaction passes run.
        compactions,
        /// Segment files merged away by compaction.
        segments_compacted,
        /// Times recovery detected (and contained) torn or corrupt bytes.
        corruption_detected,
    }
}

/// What one [`SegmentStore::flush`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Newly written segment files.
    pub segments_written: u64,
    /// Records inside those segments.
    pub records_flushed: u64,
    /// Bytes written (segments + checkpoint + new WAL header + manifest).
    pub bytes_written: u64,
    /// The WAL generation this flush retired.
    pub wal_generation_retired: u64,
    /// The auto-compaction this flush triggered, if any.
    pub compaction: Option<CompactionReport>,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segment files before the pass.
    pub files_before: u64,
    /// Segment files after the pass (1, or `files_before` if skipped).
    pub files_after: u64,
    /// Total segment-file bytes before.
    pub bytes_before: u64,
    /// Total segment-file bytes after.
    pub bytes_after: u64,
}

/// What [`SegmentStore::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segment files loaded from the manifest.
    pub segments_loaded: u64,
    /// Whether a checkpoint existed (false on a never-flushed store).
    pub checkpoint_loaded: bool,
    /// Complete WAL entries replayed through the ingest path.
    pub wal_entries_replayed: u64,
    /// Records replayed from WAL batch entries.
    pub wal_records_replayed: u64,
    /// Torn tail bytes dropped from the WAL.
    pub wal_bytes_truncated: u64,
    /// The sequence number the next WAL append will get.
    pub next_seq: u64,
    /// The summed ingest reports of the replay.
    pub replay: ReplayReport,
}

/// A retired WAL generation kept on disk for replication catch-up.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RetainedWal {
    /// Sequence number of this generation's first entry.
    start_seq: u64,
    /// File name, relative to the store directory.
    file: String,
}

/// What [`SegmentStore::wal_entries_since`] produced for a cursor.
#[derive(Debug)]
pub enum WalFetch {
    /// Every entry with `seq >= cursor`, contiguous and ascending
    /// (empty when the cursor equals the next sequence number).
    Entries(Vec<wal::WalEntry>),
    /// The cursor predates every retained WAL generation: the entries
    /// are gone, the reader must fall back to a snapshot transfer.
    Compacted {
        /// The oldest sequence number still servable from WAL files.
        retained_from: u64,
    },
}

/// Writes a `kind` file whose one frame holds what `encode` writes.
fn write_file(
    vfs: &dyn Vfs,
    path: &Path,
    kind: FileKind,
    encode: impl FnOnce(&mut Enc),
    sync: bool,
) -> Result<u64> {
    let mut e = Enc::file(kind);
    encode(&mut e);
    let bytes = e.into_framed();
    let len = bytes.len() as u64;
    vfs.write_atomic(path, &bytes, sync)?;
    Ok(len)
}

/// Reads a one-frame `kind` file and decodes its CRC-checked payload,
/// borrowed from the read buffer.
fn read_file<T>(
    vfs: &dyn Vfs,
    dir: &Path,
    name: &str,
    kind: FileKind,
    decode: impl FnOnce(&[u8]) -> Result<T>,
) -> Result<T> {
    let bytes = vfs.read(&dir.join(name))?;
    decode(read_single_frame(check_header(&bytes, kind, name)?, name)?)
}

/// Opens one manifest segment entry (its records stay encoded until
/// first touched), validating its partition against the manifest.
fn open_segment_entry(vfs: &dyn Vfs, dir: &Path, entry: &SegmentEntry) -> Result<Segment> {
    let seg = codec::open_segment(vfs.read(&dir.join(&entry.file))?, &entry.file)?;
    if seg.partition() != entry.lo {
        return Err(corrupt(
            &entry.file,
            format!(
                "segment partition {} disagrees with manifest entry {}..={}",
                seg.partition(),
                entry.lo,
                entry.hi
            ),
        ));
    }
    Ok(seg)
}

/// The durable half of the pipeline: a directory of store files plus the
/// open WAL. It persists state produced by a [`StreamIngest`] but holds
/// no pipeline state itself; [`DurableIngest`] pairs the two.
pub struct SegmentStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    stream_config: StreamConfig,
    config: StoreConfig,
    generation: u64,
    wal: Wal,
    segments: Vec<SegmentEntry>,
    /// First sequence number the current WAL generation may hold (what
    /// the on-disk manifest records).
    wal_start_seq: u64,
    /// Retired-but-retained WAL generations (oldest first), kept for
    /// replication catch-up when `retain_wal_generations > 0`. Each
    /// entry's sequence range is `[start_seq, next entry's start_seq)`.
    retained_wals: Vec<RetainedWal>,
    /// Highest partition index already persisted in a segment file.
    flushed_hi: i64,
    checkpoint: Option<String>,
    /// Delta files chained onto `checkpoint`, oldest first; folding them
    /// over the base reproduces the tail at the last flush.
    checkpoint_deltas: Vec<String>,
    /// The tail state the last flush made durable (base + deltas) —
    /// the diff base for the next delta checkpoint.
    last_tail: Option<TailState>,
    stats: StoreStats,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("segments", &self.segments.len())
            .finish()
    }
}

impl SegmentStore {
    /// Initializes an empty store in `dir` (created if absent). Fails
    /// with [`StoreError::BadConfig`] if a manifest already exists —
    /// use [`SegmentStore::recover`] (or [`DurableIngest::open`]) then.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stream_config: StreamConfig,
        config: StoreConfig,
    ) -> Result<SegmentStore> {
        stream_config.validate().map_err(StoreError::Stream)?;
        vfs.create_dir_all(dir)?;
        if vfs.exists(&dir.join(MANIFEST_NAME)) {
            return Err(StoreError::BadConfig(format!(
                "{} already holds a store; recover it instead of creating",
                dir.display()
            )));
        }
        let wal = Wal::create(vfs.clone(), &dir.join(wal_name(0)), 0, config.sync)?;
        let manifest = Manifest {
            gen: 0,
            lateness_seconds: stream_config.lateness_seconds,
            segment_seconds: stream_config.segment_seconds,
            segments: Vec::new(),
            checkpoint: None,
            checkpoint_deltas: Vec::new(),
            wal: wal_name(0),
            wal_start_seq: 0,
        };
        write_file(
            vfs.as_ref(),
            &dir.join(MANIFEST_NAME),
            FileKind::Manifest,
            |e| manifest.encode_to(e),
            true,
        )?;
        let tracer = Tracer::default();
        tracer.set_enabled(config.traced);
        Ok(SegmentStore {
            vfs,
            dir: dir.to_path_buf(),
            stream_config,
            config,
            generation: 0,
            wal,
            segments: Vec::new(),
            wal_start_seq: 0,
            retained_wals: Vec::new(),
            flushed_hi: i64::MIN,
            checkpoint: None,
            checkpoint_deltas: Vec::new(),
            last_tail: None,
            stats: StoreStats::default(),
            tracer,
            spans: Vec::new(),
        })
    }

    /// Recovers a store from `dir`: loads the manifest, the segment
    /// files and the checkpoint, replays the WAL's surviving entries
    /// through the normal ingest path, truncates any torn tail, and
    /// reopens the WAL for appending. Returns the store, the recovered
    /// pipeline and a report. `resolver` must be the same geometry
    /// resolver the original pipeline used (resolvers are code, not
    /// data).
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: StoreConfig,
        resolver: Option<GeoResolver>,
    ) -> Result<(SegmentStore, StreamIngest, RecoveryReport)> {
        let t0 = Instant::now();
        let manifest = read_file(vfs.as_ref(), dir, MANIFEST_NAME, FileKind::Manifest, |p| {
            codec::decode_manifest(p, MANIFEST_NAME)
        })?;
        let stream_config = StreamConfig::new(manifest.lateness_seconds, manifest.segment_seconds)
            .map_err(StoreError::Stream)?;

        // Segments, ascending (the manifest decoder already validated
        // order and disjointness), opened in manifest order: read, CRC
        // and canonical-order checks per file, the first failure
        // returned. Their records are decoded on first touch.
        let segments = manifest
            .segments
            .iter()
            .map(|entry| open_segment_entry(vfs.as_ref(), dir, entry))
            .collect::<Result<Vec<_>>>()?;

        // Checkpoint: the tail state at the last flush — the full base
        // folded through any chained delta checkpoints, oldest first.
        // A never-flushed store has neither checkpoint nor segments.
        let tail = match &manifest.checkpoint {
            Some(name) => {
                let mut tail = read_file(vfs.as_ref(), dir, name, FileKind::Checkpoint, |p| {
                    codec::decode_tail(p, name)
                })?;
                for dname in &manifest.checkpoint_deltas {
                    read_file(vfs.as_ref(), dir, dname, FileKind::CheckpointDelta, |p| {
                        codec::decode_tail_delta(p, dname)
                    })?
                    .apply(&mut tail);
                }
                tail
            }
            None => {
                if !segments.is_empty() {
                    return Err(corrupt(
                        MANIFEST_NAME,
                        "manifest names segments but no checkpoint",
                    ));
                }
                gisolap_stream::TailState {
                    max_event_time: None,
                    sealed_before: i64::MIN,
                    records_ingested: 0,
                    segments_sealed: 0,
                    dead_letters: Vec::new(),
                    buffers: Vec::new(),
                }
            }
        };
        let last_tail = manifest.checkpoint.as_ref().map(|_| tail.clone());

        // WAL: everything durable since that flush.
        let wal_path = dir.join(&manifest.wal);
        let scan = wal::scan(vfs.as_ref(), &wal_path, manifest.wal_start_seq)?;
        let entries = scan.entries.len() as u64;
        let replayed_records: u64 = (scan.entries.iter())
            .map(|e| match &e.op {
                ReplayOp::Batch(b) => b.len() as u64,
                ReplayOp::Finish => 0,
            })
            .sum();
        let segments_loaded = segments.len() as u64;
        let checkpoint_loaded = manifest.checkpoint.is_some();
        // The scanned ops move into replay; reopening needs only counts.
        let ops = scan.entries.into_iter().map(|e| e.op);
        let (ingest, replay) = StreamIngest::recover(stream_config, resolver, segments, tail, ops)
            .map_err(StoreError::Stream)?;

        let wal = Wal::reopen(
            vfs.clone(),
            &wal_path,
            scan.valid_bytes,
            scan.truncated_bytes,
            manifest.wal_start_seq + entries,
            config.sync,
        )?;

        let report = RecoveryReport {
            segments_loaded,
            checkpoint_loaded,
            wal_entries_replayed: entries,
            wal_records_replayed: replayed_records,
            wal_bytes_truncated: scan.truncated_bytes,
            next_seq: wal.next_seq(),
            replay,
        };

        let stats = StoreStats {
            recoveries: 1,
            wal_entries_replayed: report.wal_entries_replayed,
            wal_records_replayed: report.wal_records_replayed,
            wal_truncated_bytes: report.wal_bytes_truncated,
            corruption_detected: u64::from(report.wal_bytes_truncated > 0),
            ..StoreStats::default()
        };

        let flushed_hi = manifest
            .segments
            .iter()
            .map(|e| e.hi)
            .max()
            .unwrap_or(i64::MIN);
        let tracer = Tracer::default();
        tracer.set_enabled(config.traced);
        let mut spans = Vec::new();
        if tracer.enabled() {
            spans.push(Span {
                name: "recover-replay",
                duration_ns: elapsed_ns(t0),
                counters: vec![
                    ("segments_loaded", report.segments_loaded),
                    ("wal_entries_replayed", report.wal_entries_replayed),
                    ("wal_records_replayed", report.wal_records_replayed),
                    ("wal_truncated_bytes", report.wal_bytes_truncated),
                ],
                children: Vec::new(),
            });
        }

        let store = SegmentStore {
            vfs,
            dir: dir.to_path_buf(),
            stream_config,
            config,
            generation: manifest.gen,
            wal,
            segments: manifest.segments,
            wal_start_seq: manifest.wal_start_seq,
            // Pre-crash retained generations are orphan files the
            // manifest never names; recovery starts the retention window
            // fresh, so followers older than this WAL must snapshot.
            retained_wals: Vec::new(),
            flushed_hi,
            checkpoint: manifest.checkpoint,
            checkpoint_deltas: manifest.checkpoint_deltas,
            last_tail,
            stats,
            tracer,
            spans,
        };
        Ok((store, ingest, report))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stream configuration this store persists.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream_config
    }

    /// Point-in-time store counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Spans collected while tracing (`wal-append`, `segment-flush`,
    /// `recover-replay`), in order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Switches store span collection on or off.
    pub fn set_traced(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Appends one entry of `records` records to the WAL (fsync per
    /// policy), `encode` writing the payload for its sequence number
    /// ([`Wal::append`]). Must be called **before** the operation is
    /// applied to the pipeline.
    pub(crate) fn wal_append(
        &mut self,
        records: u64,
        encode: impl FnOnce(&mut Enc, u64),
    ) -> Result<u64> {
        let t0 = Instant::now();
        let bytes_before = self.wal.bytes_written;
        let syncs_before = self.wal.syncs;
        let seq = self.wal.append(encode)?;
        let bytes = self.wal.bytes_written - bytes_before;
        self.stats.wal_appends += 1;
        self.stats.wal_records += records;
        self.stats.wal_bytes += bytes;
        self.stats.wal_syncs += self.wal.syncs - syncs_before;
        if self.tracer.enabled() {
            self.spans.push(Span {
                name: "wal-append",
                duration_ns: elapsed_ns(t0),
                counters: vec![("wal_records", records), ("wal_bytes", bytes)],
                children: Vec::new(),
            });
        }
        Ok(seq)
    }

    /// Fsyncs the live WAL if any append is still unsynced — a no-op
    /// under [`SyncPolicy::Always`]. A replication leader calls this
    /// before it ships entries or a snapshot, so no follower ever holds
    /// a write a power cut could take from the leader.
    pub fn sync_wal(&mut self) -> Result<()> {
        let syncs_before = self.wal.syncs;
        self.wal.sync()?;
        self.stats.wal_syncs += self.wal.syncs - syncs_before;
        Ok(())
    }

    /// The sequence number the next WAL append will get — the
    /// replication high-water mark.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The oldest sequence number still servable from WAL files (the
    /// first retained generation's start, or the live WAL's start when
    /// nothing is retained). Cursors below this must snapshot.
    pub fn retained_from(&self) -> u64 {
        self.retained_wals
            .first()
            .map(|r| r.start_seq)
            .unwrap_or(self.wal_start_seq)
    }

    /// Reads every WAL entry with `seq >= from_seq`, walking retained
    /// generations (oldest first) and then the live WAL — the leader
    /// half of WAL-shipping replication. Returns
    /// [`WalFetch::Compacted`] when the cursor predates the retention
    /// window, and caps the result at `max` entries (`u32::MAX` for
    /// unbounded).
    pub fn wal_entries_since(&self, from_seq: u64, max: u32) -> Result<WalFetch> {
        let next_seq = self.wal.next_seq();
        if from_seq > next_seq {
            return Err(StoreError::BadConfig(format!(
                "replication cursor {from_seq} is ahead of the leader's next seq {next_seq}"
            )));
        }
        let retained_from = self.retained_from();
        if from_seq < retained_from {
            return Ok(WalFetch::Compacted { retained_from });
        }
        // (start_seq, file) of every generation that can hold entries,
        // oldest first; each generation ends where the next one starts.
        let mut files: Vec<(u64, String)> = self
            .retained_wals
            .iter()
            .map(|r| (r.start_seq, r.file.clone()))
            .collect();
        files.push((self.wal_start_seq, wal_name(self.generation)));

        let mut entries = Vec::new();
        for (i, (start, file)) in files.iter().enumerate() {
            let end = files.get(i + 1).map(|(s, _)| *s).unwrap_or(next_seq);
            if end <= from_seq {
                // This generation lies entirely below the cursor.
                continue;
            }
            let scan = wal::scan(self.vfs.as_ref(), &self.dir.join(file), *start)?;
            for e in scan.entries {
                if e.seq >= from_seq {
                    entries.push(e);
                    if entries.len() as u64 >= max as u64 {
                        return Ok(WalFetch::Entries(entries));
                    }
                }
            }
        }
        Ok(WalFetch::Entries(entries))
    }

    /// Makes `ingest`'s current state durable and rotates the WAL:
    ///
    /// 1. writes every sealed segment not yet on disk;
    /// 2. writes a fresh checkpoint of the tail state;
    /// 3. creates the next WAL generation;
    /// 4. **publishes the new manifest atomically** — the commit point;
    /// 5. deletes the previous generation's WAL and checkpoint.
    ///
    /// A crash before step 4 leaves the old manifest pointing at the old
    /// WAL/checkpoint (new files are invisible orphans); a crash after
    /// it leaves the new state complete. Either way recovery sees
    /// exactly one consistent generation, so no operation is ever
    /// applied twice.
    pub fn flush(&mut self, ingest: &StreamIngest) -> Result<FlushReport> {
        let t0 = Instant::now();
        let mut report = FlushReport {
            wal_generation_retired: self.generation,
            ..FlushReport::default()
        };
        let mut new_entries = Vec::new();
        for seg in ingest.segments() {
            let p = seg.partition();
            if p <= self.flushed_hi {
                continue;
            }
            let name = seg_name(p, p);
            let bytes = write_file(
                self.vfs.as_ref(),
                &self.dir.join(&name),
                FileKind::Segment,
                |e| codec::enc_segment(e, seg),
                true,
            )?;
            report.segments_written += 1;
            report.records_flushed += seg.meta().records as u64;
            report.bytes_written += bytes;
            new_entries.push(SegmentEntry {
                lo: p,
                hi: p,
                file: name,
            });
        }

        let next_gen = self.generation + 1;
        let tail = ingest.tail_state();
        // Incremental checkpoint: when a full base exists and the delta
        // chain has room, persist only the diff against the last flushed
        // tail instead of rewriting the whole tail state. The chain is
        // bounded, so recovery folds at most `MAX_CHECKPOINT_DELTAS`
        // files over one base.
        let write_delta = self.checkpoint.is_some()
            && self.last_tail.is_some()
            && self.checkpoint_deltas.len() < MAX_CHECKPOINT_DELTAS;
        let (ck, deltas) = if write_delta {
            let base = self.last_tail.as_ref().expect("checked above");
            let name = ckd_name(next_gen);
            report.bytes_written += write_file(
                self.vfs.as_ref(),
                &self.dir.join(&name),
                FileKind::CheckpointDelta,
                |e| TailDelta::diff(base, &tail).encode_to(e),
                true,
            )?;
            let mut chain = self.checkpoint_deltas.clone();
            chain.push(name);
            (self.checkpoint.clone().expect("checked above"), chain)
        } else {
            let ck = ck_name(next_gen);
            report.bytes_written += write_file(
                self.vfs.as_ref(),
                &self.dir.join(&ck),
                FileKind::Checkpoint,
                |e| codec::enc_tail(e, &tail),
                true,
            )?;
            (ck, Vec::new())
        };

        let next_seq = self.wal.next_seq();
        let new_wal = Wal::create(
            self.vfs.clone(),
            &self.dir.join(wal_name(next_gen)),
            next_seq,
            self.config.sync,
        )?;
        report.bytes_written += codec::HEADER_LEN as u64;

        let mut entries = self.segments.clone();
        entries.extend(new_entries);
        let manifest = Manifest {
            gen: next_gen,
            lateness_seconds: self.stream_config.lateness_seconds,
            segment_seconds: self.stream_config.segment_seconds,
            segments: entries.clone(),
            checkpoint: Some(ck.clone()),
            checkpoint_deltas: deltas.clone(),
            wal: wal_name(next_gen),
            wal_start_seq: next_seq,
        };
        report.bytes_written += write_file(
            self.vfs.as_ref(),
            &self.dir.join(MANIFEST_NAME),
            FileKind::Manifest,
            |e| manifest.encode_to(e),
            true,
        )?;

        // Commit point passed: retire the old generation. With a
        // retention window the retired WAL file stays on disk (unnamed
        // by the manifest, so invisible to recovery) and keeps serving
        // replication catch-up reads until it ages out.
        let old_wal = std::mem::replace(&mut self.wal, new_wal);
        if self.config.retain_wal_generations > 0 {
            drop(old_wal); // close the handle; the file stays
            self.retained_wals.push(RetainedWal {
                start_seq: self.wal_start_seq,
                file: wal_name(self.generation),
            });
            while self.retained_wals.len() > self.config.retain_wal_generations {
                let aged = self.retained_wals.remove(0);
                self.vfs.remove_file(&self.dir.join(aged.file))?;
            }
        } else {
            old_wal.delete()?;
        }
        if write_delta {
            // The base checkpoint and earlier deltas are still
            // referenced by the chain: delete nothing.
            self.stats.delta_checkpoints += 1;
        } else {
            // A full checkpoint supersedes the old base and its whole
            // delta chain.
            if let Some(old_ck) = self.checkpoint.take() {
                self.vfs.remove_file(&self.dir.join(old_ck))?;
            }
            for old in self.checkpoint_deltas.drain(..) {
                self.vfs.remove_file(&self.dir.join(old))?;
            }
            self.stats.checkpoints += 1;
        }
        self.generation = next_gen;
        self.checkpoint = Some(ck);
        self.checkpoint_deltas = deltas;
        self.last_tail = Some(tail);
        self.segments = entries;
        self.wal_start_seq = next_seq;
        self.flushed_hi = self.segments.iter().map(|e| e.hi).max().unwrap_or(i64::MIN);

        self.stats.segments_flushed += report.segments_written;
        self.stats.flush_bytes += report.bytes_written;
        if self.tracer.enabled() {
            self.spans.push(Span {
                name: "segment-flush",
                duration_ns: elapsed_ns(t0),
                counters: vec![
                    ("segments_flushed", report.segments_written),
                    ("records_flushed", report.records_flushed),
                    ("flush_bytes", report.bytes_written),
                ],
                children: Vec::new(),
            });
        }

        if self.config.compact_min_segments > 0
            && self.segments.len() >= self.config.compact_min_segments
        {
            report.compaction = Some(self.compact()?);
        }
        Ok(report)
    }

    /// Merges every sealed segment file into one, preserving `DeltaCube`
    /// merge semantics exactly: hour-aligned partitions make partial
    /// keys disjoint across segments, so the merged file's partial list
    /// is the ascending concatenation of the originals and absorbing it
    /// on recovery reproduces the same cube cells *and* merge counter.
    /// Publishes the updated manifest before deleting the old files; a
    /// no-op (files_after == files_before) below two files.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        let mut rep = CompactionReport {
            files_before: self.segments.len() as u64,
            files_after: self.segments.len() as u64,
            ..CompactionReport::default()
        };
        if self.segments.len() < 2 {
            return Ok(rep);
        }
        let mut parts = Vec::with_capacity(self.segments.len());
        for entry in &self.segments {
            let bytes = self.vfs.read(&self.dir.join(&entry.file))?;
            rep.bytes_before += bytes.len() as u64;
            parts.push(codec::open_segment(bytes, &entry.file)?);
        }
        let merged = Segment::merged(&parts).map_err(StoreError::Stream)?;
        let lo = self.segments.first().expect("len >= 2").lo;
        let hi = self.segments.last().expect("len >= 2").hi;
        let name = seg_name(lo, hi);
        rep.bytes_after = write_file(
            self.vfs.as_ref(),
            &self.dir.join(&name),
            FileKind::Segment,
            |e| codec::enc_segment(e, &merged),
            true,
        )?;

        let new_entries = vec![SegmentEntry { lo, hi, file: name }];
        // Compaction does not touch the WAL or checkpoint: the manifest
        // is republished with only the segment list changed.
        let manifest = Manifest {
            gen: self.generation,
            lateness_seconds: self.stream_config.lateness_seconds,
            segment_seconds: self.stream_config.segment_seconds,
            segments: new_entries.clone(),
            checkpoint: self.checkpoint.clone(),
            checkpoint_deltas: self.checkpoint_deltas.clone(),
            wal: wal_name(self.generation),
            wal_start_seq: self.wal_start_seq,
        };
        write_file(
            self.vfs.as_ref(),
            &self.dir.join(MANIFEST_NAME),
            FileKind::Manifest,
            |e| manifest.encode_to(e),
            true,
        )?;

        let old = std::mem::replace(&mut self.segments, new_entries);
        for entry in &old {
            self.vfs.remove_file(&self.dir.join(&entry.file))?;
        }
        rep.files_after = 1;
        self.stats.compactions += 1;
        self.stats.segments_compacted += rep.files_before;
        Ok(rep)
    }

    /// Seeds a durable store in `dir` from a transferred snapshot —
    /// the replication fallback when a follower's cursor predates the
    /// leader's retention window. Writes the segments, a checkpoint of
    /// `tail`, a fresh WAL starting at `next_seq`, then publishes the
    /// manifest atomically (the commit point, exactly like a flush).
    /// Installing over an existing store bumps its generation so file
    /// names never collide; superseded files become unreferenced
    /// orphans, invisible to recovery. Returns the store plus the
    /// restored pipeline, positioned to apply the leader's entry
    /// `next_seq` next.
    #[allow(clippy::too_many_arguments)]
    pub fn install_snapshot(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stream_config: StreamConfig,
        config: StoreConfig,
        resolver: Option<GeoResolver>,
        segments: Vec<Segment>,
        tail: TailState,
        next_seq: u64,
    ) -> Result<(SegmentStore, StreamIngest)> {
        stream_config.validate().map_err(StoreError::Stream)?;
        vfs.create_dir_all(dir)?;
        let next_gen = if vfs.exists(&dir.join(MANIFEST_NAME)) {
            read_file(vfs.as_ref(), dir, MANIFEST_NAME, FileKind::Manifest, |p| {
                codec::decode_manifest(p, MANIFEST_NAME)
            })?
            .gen + 1
        } else {
            0
        };

        let mut entries = Vec::with_capacity(segments.len());
        for seg in &segments {
            let lo = seg.partition();
            let hi = if seg.records().is_empty() {
                lo
            } else {
                lo.max(seg.meta().last.0.div_euclid(stream_config.segment_seconds))
            };
            let name = seg_name(lo, hi);
            write_file(
                vfs.as_ref(),
                &dir.join(&name),
                FileKind::Segment,
                |e| codec::enc_segment(e, seg),
                true,
            )?;
            entries.push(SegmentEntry { lo, hi, file: name });
        }

        let ck = ck_name(next_gen);
        write_file(
            vfs.as_ref(),
            &dir.join(&ck),
            FileKind::Checkpoint,
            |e| codec::enc_tail(e, &tail),
            true,
        )?;
        let wal = Wal::create(
            vfs.clone(),
            &dir.join(wal_name(next_gen)),
            next_seq,
            config.sync,
        )?;
        let manifest = Manifest {
            gen: next_gen,
            lateness_seconds: stream_config.lateness_seconds,
            segment_seconds: stream_config.segment_seconds,
            segments: entries.clone(),
            checkpoint: Some(ck.clone()),
            checkpoint_deltas: Vec::new(),
            wal: wal_name(next_gen),
            wal_start_seq: next_seq,
        };
        write_file(
            vfs.as_ref(),
            &dir.join(MANIFEST_NAME),
            FileKind::Manifest,
            |e| manifest.encode_to(e),
            true,
        )?;

        let last_tail = Some(tail.clone());
        let ingest = StreamIngest::restore(stream_config, resolver, segments, tail)
            .map_err(StoreError::Stream)?;
        let flushed_hi = entries.iter().map(|e| e.hi).max().unwrap_or(i64::MIN);
        let tracer = Tracer::default();
        tracer.set_enabled(config.traced);
        let store = SegmentStore {
            vfs,
            dir: dir.to_path_buf(),
            stream_config,
            config,
            generation: next_gen,
            wal,
            segments: entries,
            wal_start_seq: next_seq,
            retained_wals: Vec::new(),
            flushed_hi,
            checkpoint: Some(ck),
            checkpoint_deltas: Vec::new(),
            last_tail,
            stats: StoreStats::default(),
            tracer,
            spans: Vec::new(),
        };
        Ok((store, ingest))
    }
}

/// A [`StreamIngest`] whose every mutating call is write-ahead logged:
/// the durable front door. Create one with [`DurableIngest::open`]
/// (create-or-recover), feed it batches, [`DurableIngest::flush`] to
/// seal durability checkpoints, and after a crash `open` converges to
/// exactly the pre-crash durable state.
pub struct DurableIngest {
    ingest: StreamIngest,
    store: SegmentStore,
}

impl std::fmt::Debug for DurableIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableIngest")
            .field("store", &self.store)
            .finish()
    }
}

impl DurableIngest {
    /// Initializes a fresh durable pipeline in `dir`.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stream_config: StreamConfig,
        store_config: StoreConfig,
        resolver: Option<GeoResolver>,
    ) -> Result<DurableIngest> {
        let store = SegmentStore::create(vfs, dir, stream_config, store_config)?;
        let mut ingest = StreamIngest::new(stream_config).map_err(StoreError::Stream)?;
        if let Some(r) = resolver {
            ingest = ingest.with_resolver(r);
        }
        Ok(DurableIngest { ingest, store })
    }

    /// Recovers a durable pipeline from `dir` (the stream configuration
    /// is read from the manifest).
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        store_config: StoreConfig,
        resolver: Option<GeoResolver>,
    ) -> Result<(DurableIngest, RecoveryReport)> {
        let (store, ingest, report) = SegmentStore::recover(vfs, dir, store_config, resolver)?;
        Ok((DurableIngest { ingest, store }, report))
    }

    /// Create-or-recover: recovers when `dir` holds a manifest, creates
    /// otherwise. The recovery report is `None` on the create path.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stream_config: StreamConfig,
        store_config: StoreConfig,
        resolver: Option<GeoResolver>,
    ) -> Result<(DurableIngest, Option<RecoveryReport>)> {
        if vfs.exists(&dir.join(MANIFEST_NAME)) {
            let (d, report) = DurableIngest::recover(vfs, dir, store_config, resolver)?;
            if *d.store.stream_config() != stream_config {
                return Err(StoreError::BadConfig(format!(
                    "stored stream config {:?} differs from requested {:?}",
                    d.store.stream_config(),
                    stream_config
                )));
            }
            Ok((d, Some(report)))
        } else {
            let d = DurableIngest::create(vfs, dir, stream_config, store_config, resolver)?;
            Ok((d, None))
        }
    }

    /// Logs the batch to the WAL, encoded from the borrowed slice, then
    /// applies it. On a WAL error the batch is **not** applied: memory
    /// never runs ahead of the log.
    pub fn ingest(&mut self, batch: &[Record]) -> Result<IngestReport> {
        let records = batch.len() as u64;
        (self.store).wal_append(records, |e, seq| codec::enc_wal_batch(e, seq, batch))?;
        Ok(self.ingest.ingest(batch))
    }

    /// Logs the close, then seals every buffered partition. Replay
    /// reproduces the close, so records arriving after it dead-letter
    /// identically on both paths.
    pub fn finish(&mut self) -> Result<u64> {
        (self.store).wal_append(0, |e, seq| codec::enc_wal_entry(e, seq, &ReplayOp::Finish))?;
        Ok(self.ingest.finish())
    }

    /// Seeds a durable pipeline in `dir` from a transferred snapshot
    /// ([`SegmentStore::install_snapshot`]): the replication fallback
    /// path for followers too far behind to tail the WAL.
    #[allow(clippy::too_many_arguments)]
    pub fn install_snapshot(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        stream_config: StreamConfig,
        store_config: StoreConfig,
        resolver: Option<GeoResolver>,
        segments: Vec<Segment>,
        tail: TailState,
        next_seq: u64,
    ) -> Result<DurableIngest> {
        let (store, ingest) = SegmentStore::install_snapshot(
            vfs,
            dir,
            stream_config,
            store_config,
            resolver,
            segments,
            tail,
            next_seq,
        )?;
        Ok(DurableIngest { ingest, store })
    }

    /// Persists the current state and rotates the WAL
    /// ([`SegmentStore::flush`]).
    pub fn flush(&mut self) -> Result<FlushReport> {
        self.store.flush(&self.ingest)
    }

    /// The sequence number the next WAL append will get
    /// ([`SegmentStore::next_seq`]).
    pub fn next_seq(&self) -> u64 {
        self.store.next_seq()
    }

    /// Fsyncs any unsynced WAL append ([`SegmentStore::sync_wal`]).
    pub fn sync_wal(&mut self) -> Result<()> {
        self.store.sync_wal()
    }

    /// WAL entries with `seq >= from_seq`
    /// ([`SegmentStore::wal_entries_since`]).
    pub fn wal_entries_since(&self, from_seq: u64, max: u32) -> Result<WalFetch> {
        self.store.wal_entries_since(from_seq, max)
    }

    /// Compacts the on-disk segment files ([`SegmentStore::compact`]).
    pub fn compact(&mut self) -> Result<CompactionReport> {
        self.store.compact()
    }

    /// Answers a rollup from the live pipeline.
    pub fn rollup(&self, q: &RollupQuery) -> Result<Vec<RollupRow>> {
        self.ingest.rollup(q).map_err(StoreError::Stream)
    }

    /// Every `(hour, geo)` partial cell the live pipeline holds,
    /// ascending by key ([`StreamIngest::extract_partials`]) — the
    /// scatter unit of sharded evaluation.
    pub fn extract_partials(&self) -> Vec<(gisolap_stream::GroupKey, gisolap_stream::CellPartial)> {
        self.ingest.extract_partials()
    }

    /// Freezes the live pipeline into an owned snapshot.
    pub fn snapshot(&self) -> Result<StreamSnapshot> {
        self.ingest.snapshot().map_err(StoreError::Stream)
    }

    /// Ingest counters of the live pipeline.
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest.stats()
    }

    /// Store counters.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The wrapped pipeline (read-only).
    pub fn pipeline(&self) -> &StreamIngest {
        &self.ingest
    }

    /// The wrapped store (read-only).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Switches span collection on both halves.
    pub fn set_traced(&self, on: bool) {
        self.ingest.set_traced(on);
        self.store.set_traced(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{RealFs, ScratchDir};
    use gisolap_obs::MetricsRegistry;
    use gisolap_olap::agg::AggFn;
    use gisolap_olap::time::{TimeId, TimeLevel};
    use gisolap_stream::Measure;
    use gisolap_traj::ObjectId;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(RealFs)
    }

    fn cfg() -> StreamConfig {
        StreamConfig {
            lateness_seconds: 0,
            segment_seconds: 3600,
        }
    }

    /// Batches spanning four hours; sealing happens as the watermark
    /// moves through them.
    fn batches() -> Vec<Vec<Record>> {
        vec![
            vec![rec(1, 100, 1.0, 10.0), rec(2, 200, 2.0, 20.0)],
            vec![rec(1, 3700, 3.0, 30.0), rec(1, 50, 4.0, 40.0)],
            vec![rec(2, 7300, 5.0, 50.0), rec(3, 7400, 6.0, 60.0)],
            vec![rec(3, 11000, 7.0, 70.0)],
        ]
    }

    fn assert_same_state(a: &StreamIngest, b: &StreamIngest) {
        assert_eq!(a.watermark(), b.watermark());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.dead_letters(), b.dead_letters());
        assert_eq!(a.tail_records(), b.tail_records());
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
        assert_eq!(a.rollup(&q).unwrap(), b.rollup(&q).unwrap());
        assert_eq!(
            a.snapshot().unwrap().moft().records(),
            b.snapshot().unwrap().moft().records()
        );
    }

    #[test]
    fn create_ingest_recover_without_flush_replays_wal() {
        let dir = ScratchDir::new("store-wal-only");
        let mut d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        let mut reference = StreamIngest::new(cfg()).unwrap();
        for b in batches() {
            d.ingest(&b).unwrap();
            reference.ingest(&b);
        }
        drop(d); // crash without any flush: WAL is everything

        let (r, report) =
            DurableIngest::recover(vfs(), dir.path(), StoreConfig::default(), None).unwrap();
        assert!(!report.checkpoint_loaded);
        assert_eq!(report.segments_loaded, 0);
        assert_eq!(report.wal_entries_replayed, 4);
        assert_eq!(report.wal_records_replayed, 7);
        assert_same_state(r.pipeline(), &reference);
    }

    #[test]
    fn flush_then_recover_uses_checkpoint_and_short_wal() {
        let dir = ScratchDir::new("store-flush");
        let mut d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        let mut reference = StreamIngest::new(cfg()).unwrap();
        let all = batches();
        for b in &all[..3] {
            d.ingest(b).unwrap();
            reference.ingest(b);
        }
        let flush = d.flush().unwrap();
        assert!(flush.segments_written >= 2);
        // Post-flush traffic lands in the new WAL generation.
        d.ingest(&all[3]).unwrap();
        reference.ingest(&all[3]);
        d.finish().unwrap();
        reference.finish();
        drop(d);

        let (r, report) =
            DurableIngest::recover(vfs(), dir.path(), StoreConfig::default(), None).unwrap();
        assert!(report.checkpoint_loaded);
        assert!(report.segments_loaded >= 2);
        // Only the post-flush batch + finish are in the WAL.
        assert_eq!(report.wal_entries_replayed, 2);
        assert_eq!(report.wal_records_replayed, 1);
        assert_same_state(r.pipeline(), &reference);

        // Recovered pipelines keep working: a too-late record dead-letters
        // exactly like on the reference (finish was replayed).
        let mut r = r;
        let mut reference = reference;
        let late = r.ingest(&[rec(9, 100, 0.0, 0.0)]).unwrap();
        assert_eq!((late.accepted, late.late), (0, 1));
        reference.ingest(&[rec(9, 100, 0.0, 0.0)]);
        assert_same_state(r.pipeline(), &reference);
    }

    #[test]
    fn double_flush_is_idempotent_on_segments() {
        let dir = ScratchDir::new("store-reflush");
        let mut d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        for b in batches() {
            d.ingest(&b).unwrap();
        }
        let f1 = d.flush().unwrap();
        assert!(f1.segments_written > 0);
        let f2 = d.flush().unwrap();
        // Nothing new sealed: the second flush rotates the WAL but
        // rewrites no segment.
        assert_eq!(f2.segments_written, 0);
        assert_eq!(d.store().segments.len(), f1.segments_written as usize);
    }

    #[test]
    fn compaction_preserves_recovered_state_bitwise() {
        let dir = ScratchDir::new("store-compact");
        let mut d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        let mut reference = StreamIngest::new(cfg()).unwrap();
        for b in batches() {
            d.ingest(&b).unwrap();
            reference.ingest(&b);
        }
        d.finish().unwrap();
        reference.finish();
        d.flush().unwrap();
        let files_before = d.store().segments.len();
        assert!(files_before >= 2);
        let rep = d.compact().unwrap();
        assert_eq!(rep.files_before as usize, files_before);
        assert_eq!(rep.files_after, 1);
        assert_eq!(d.store().segments.len(), 1);
        drop(d);

        let (r, report) =
            DurableIngest::recover(vfs(), dir.path(), StoreConfig::default(), None).unwrap();
        assert_eq!(report.segments_loaded, 1);
        // Cube cells, merge counter, stats and MOFT all match the
        // uncompacted reference exactly.
        assert_same_state(r.pipeline(), &reference);
        assert_eq!(
            r.pipeline().stats().segments_sealed,
            reference.stats().segments_sealed
        );
    }

    #[test]
    fn auto_compaction_triggers_from_config() {
        let dir = ScratchDir::new("store-autocompact");
        let config = StoreConfig {
            compact_min_segments: 2,
            ..StoreConfig::default()
        };
        let mut d = DurableIngest::create(vfs(), dir.path(), cfg(), config, None).unwrap();
        for b in batches() {
            d.ingest(&b).unwrap();
        }
        d.finish().unwrap();
        let flush = d.flush().unwrap();
        let compaction = flush.compaction.expect("threshold reached");
        assert!(compaction.files_before >= 2);
        assert_eq!(compaction.files_after, 1);
        assert_eq!(d.store().segments.len(), 1);
    }

    #[test]
    fn open_creates_then_recovers_and_checks_config() {
        let dir = ScratchDir::new("store-open");
        let (mut d, report) =
            DurableIngest::open(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        assert!(report.is_none());
        d.ingest(&batches()[0]).unwrap();
        drop(d);

        let (d, report) =
            DurableIngest::open(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        assert!(report.is_some());
        assert_eq!(d.ingest_stats().records_ingested, 2);

        // A different stream config is rejected, not silently adopted.
        let other = StreamConfig {
            lateness_seconds: 999,
            segment_seconds: 3600,
        };
        drop(d);
        assert!(matches!(
            DurableIngest::open(vfs(), dir.path(), other, StoreConfig::default(), None),
            Err(StoreError::BadConfig(_))
        ));
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = ScratchDir::new("store-exists");
        let d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        drop(d);
        assert!(matches!(
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None),
            Err(StoreError::BadConfig(_))
        ));
    }

    #[test]
    fn stats_spans_and_metrics() {
        let dir = ScratchDir::new("store-obs");
        let mut d =
            DurableIngest::create(vfs(), dir.path(), cfg(), StoreConfig::default(), None).unwrap();
        d.set_traced(true);
        for b in batches() {
            d.ingest(&b).unwrap();
        }
        d.finish().unwrap();
        d.flush().unwrap();
        let stats = d.store_stats();
        assert_eq!(stats.wal_appends, 5); // 4 batches + finish
        assert_eq!(stats.wal_records, 7);
        assert_eq!(stats.wal_syncs, 5); // SyncPolicy::Always
        assert!(stats.wal_bytes > 0);
        assert_eq!(stats.checkpoints, 1);
        assert!(stats.segments_flushed >= 3);

        let names: Vec<&str> = d.store().spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|n| **n == "wal-append").count(), 5);
        assert_eq!(names.iter().filter(|n| **n == "segment-flush").count(), 1);

        let mut registry = MetricsRegistry::new();
        registry.fill(&stats, &[]);
        let text = registry.render_prometheus();
        assert!(
            text.contains("gisolap_store_wal_appends_total 5\n"),
            "{text}"
        );
        assert!(
            text.contains("gisolap_store_checkpoints_total 1\n"),
            "{text}"
        );
        drop(d);

        let (r, _) = DurableIngest::recover(
            vfs(),
            dir.path(),
            StoreConfig {
                traced: true,
                ..StoreConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(r.store_stats().recoveries, 1);
        assert_eq!(r.store().spans()[0].name, "recover-replay");
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn delta_checkpoints_fold_on_recovery() {
        let dir = ScratchDir::new("store-deltas");
        let config = StoreConfig::default();
        let mut d = DurableIngest::create(vfs(), dir.path(), cfg(), config, None).unwrap();
        let mut reference = StreamIngest::new(cfg()).unwrap();
        let mut all = batches();
        all.push(vec![rec(2, 14600, 8.0, 80.0)]);
        all.push(vec![rec(1, 18200, 9.0, 90.0)]);
        let chain = MAX_CHECKPOINT_DELTAS;
        // Flush after each of the first `1 + chain` batches: the first
        // writes the full base, the rest chain deltas onto it.
        for b in &all[..=chain] {
            d.ingest(b).unwrap();
            reference.ingest(b);
            d.flush().unwrap();
        }
        let stats = d.store_stats();
        assert_eq!(
            (stats.checkpoints, stats.delta_checkpoints),
            (1, chain as u64)
        );
        let names = file_names(dir.path());
        assert!(names.iter().any(|n| n == "ck-1.ck"), "{names:?}");
        for generation in 2..=chain + 1 {
            let delta = format!("ckd-{generation}.ckd");
            assert!(names.contains(&delta), "{names:?}");
        }

        // Post-flush traffic lands in the WAL only.
        d.ingest(&all[chain + 1]).unwrap();
        reference.ingest(&all[chain + 1]);
        drop(d); // crash with a full delta chain plus a WAL tail

        let (mut r, report) = DurableIngest::recover(vfs(), dir.path(), config, None).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.wal_entries_replayed, 1);
        assert_same_state(r.pipeline(), &reference);

        // The chain is at capacity, so the next flush forces a full
        // checkpoint and garbage-collects the base and every delta.
        r.flush().unwrap();
        assert_eq!(r.store_stats().checkpoints, 1);
        assert_eq!(r.store_stats().delta_checkpoints, 0);
        let names = file_names(dir.path());
        assert!(
            !names.iter().any(|n| n.ends_with(".ckd") || n == "ck-1.ck"),
            "{names:?}"
        );
        drop(r);
        // (Not assert_same_state: the earlier rollup bumped the
        // reference's tail_records_scanned counter.)
        let (r, _) = DurableIngest::recover(vfs(), dir.path(), config, None).unwrap();
        let q = RollupQuery::new(TimeLevel::Hour, Measure::X, AggFn::Sum);
        assert_eq!(r.rollup(&q).unwrap(), reference.rollup(&q).unwrap());
        assert_eq!(
            r.pipeline().snapshot().unwrap().moft().records(),
            reference.snapshot().unwrap().moft().records()
        );
    }

    #[test]
    fn store_config_from_env_defaults() {
        // No env vars set in the test harness by default: the documented
        // fallbacks apply.
        let c = StoreConfig::from_env();
        assert_eq!(c.compact_min_segments, 0);
        assert!(matches!(
            c.sync,
            SyncPolicy::Always | SyncPolicy::EveryN(_) | SyncPolicy::Never
        ));
    }
}
