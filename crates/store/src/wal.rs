//! The write-ahead log: one CRC-framed [`ReplayOp`] per accepted ingest
//! call, appended **before** the operation is applied in memory. A
//! crash mid-append leaves a torn tail frame that the reader detects by
//! length/checksum and drops cleanly — the log is valid up to the last
//! complete frame, never corrupt-and-trusted.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gisolap_stream::ReplayOp;

use crate::codec::{
    check_header, decode_wal_entry, header, read_frame, Enc, FileKind, FrameRead, HEADER_LEN,
};
use crate::vfs::{AppendFile, Vfs};
use crate::Result;

/// When WAL appends are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every append (maximum durability, the default).
    Always,
    /// Fsync after every `n` appends (bounded data-loss window).
    EveryN(u32),
    /// Never fsync from the WAL path; only flushes sync (fastest, loses
    /// the OS buffer on power cut — still crash-*consistent*).
    Never,
}

impl SyncPolicy {
    /// Parses the `GISOLAP_STORE_SYNC` flag value: `always`, `never`, or
    /// a positive integer meaning every-N.
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s.trim() {
            "" | "always" => Some(SyncPolicy::Always),
            "never" => Some(SyncPolicy::Never),
            n => n
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .map(SyncPolicy::EveryN),
        }
    }
}

/// One decoded WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// Monotonic sequence number (global across generations).
    pub seq: u64,
    /// The logged operation.
    pub op: ReplayOp,
}

/// The result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Complete, checksum-valid entries in order.
    pub entries: Vec<WalEntry>,
    /// File length that holds valid frames (header included).
    pub valid_bytes: u64,
    /// Bytes after `valid_bytes` — a torn tail to truncate (0 if clean).
    pub truncated_bytes: u64,
}

/// Scans a WAL file, tolerating a torn tail. A missing file reads as an
/// empty log; a bad header is hard corruption. Sequence checking
/// distinguishes two failure shapes:
///
/// * the **first** entry not matching `start_seq` is
///   [`StoreError::StaleCursor`](crate::StoreError::StaleCursor) — the
///   reader's position is wrong (e.g. a replication cursor that
///   predates this rotated generation), and the right response is to
///   re-seek or fall back to a snapshot;
/// * a jump **between** entries is
///   [`StoreError::SequenceGap`](crate::StoreError::SequenceGap) —
///   frames are checksum-valid but non-contiguous, which is real
///   corruption.
pub fn scan(vfs: &dyn Vfs, path: &Path, start_seq: u64) -> Result<WalScan> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("wal")
        .to_string();
    if !vfs.exists(path) {
        return Ok(WalScan {
            entries: Vec::new(),
            valid_bytes: 0,
            truncated_bytes: 0,
        });
    }
    let bytes = vfs.read(path)?;
    if bytes.len() < HEADER_LEN {
        // The file was created but the header write itself tore.
        return Ok(WalScan {
            entries: Vec::new(),
            valid_bytes: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    let mut rest = check_header(&bytes, FileKind::Wal, &name)?;
    let mut entries = Vec::new();
    let mut next_seq = start_seq;
    loop {
        let before = rest.len();
        match read_frame(rest) {
            FrameRead::End => break,
            FrameRead::Torn { .. } => {
                // Valid up to here; the tail is torn.
                let valid = (bytes.len() - before) as u64;
                return Ok(WalScan {
                    entries,
                    valid_bytes: valid,
                    truncated_bytes: before as u64,
                });
            }
            FrameRead::Ok { payload, rest: r } => {
                let (seq, op) = match decode_wal_entry(payload, &name) {
                    Ok(e) => e,
                    Err(_) => {
                        // A checksum-valid frame that does not decode is
                        // treated like a torn tail: stop trusting here.
                        let valid = (bytes.len() - before) as u64;
                        return Ok(WalScan {
                            entries,
                            valid_bytes: valid,
                            truncated_bytes: before as u64,
                        });
                    }
                };
                if seq != next_seq {
                    return Err(if entries.is_empty() {
                        crate::StoreError::StaleCursor {
                            file: name,
                            expected: next_seq,
                            found: seq,
                        }
                    } else {
                        crate::StoreError::SequenceGap {
                            file: name,
                            expected: next_seq,
                            found: seq,
                        }
                    });
                }
                next_seq += 1;
                entries.push(WalEntry { seq, op });
                rest = r;
            }
        }
    }
    Ok(WalScan {
        entries,
        valid_bytes: bytes.len() as u64,
        truncated_bytes: 0,
    })
}

/// An open, append-mode WAL.
pub(crate) struct Wal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn AppendFile>,
    next_seq: u64,
    policy: SyncPolicy,
    appends_since_sync: u32,
    /// Every entry below this sequence number is fsynced; the ones from
    /// here to `next_seq` a power cut may still lose.
    synced_seq: u64,
    /// Payload+frame bytes appended through this handle.
    pub bytes_written: u64,
    /// Fsyncs issued through this handle.
    pub syncs: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Wal {
    /// Creates a fresh WAL file at `path` (header only) and opens it for
    /// appending. The header is written atomically so a crash during
    /// creation leaves no half-header file at `path`.
    pub fn create(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        start_seq: u64,
        policy: SyncPolicy,
    ) -> Result<Wal> {
        vfs.write_atomic(path, &header(FileKind::Wal), policy != SyncPolicy::Never)?;
        let file = vfs.open_append(path)?;
        Ok(Wal {
            vfs,
            path: path.to_path_buf(),
            file,
            next_seq: start_seq,
            policy,
            appends_since_sync: 0,
            synced_seq: start_seq,
            bytes_written: 0,
            syncs: 0,
        })
    }

    /// Reopens an existing WAL for appending after recovery scanned it:
    /// `valid_bytes` and `truncated_bytes` are the scan's, and `next_seq`
    /// is its start plus the entries it found. Any torn tail beyond
    /// `valid_bytes` is truncated away first so new frames start on a
    /// clean boundary.
    pub fn reopen(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        valid_bytes: u64,
        truncated_bytes: u64,
        next_seq: u64,
        policy: SyncPolicy,
    ) -> Result<Wal> {
        if !vfs.exists(path) || valid_bytes < HEADER_LEN as u64 {
            // Never created, or its header tore: start it over.
            return Wal::create(vfs, path, next_seq, policy);
        }
        if truncated_bytes > 0 {
            vfs.truncate(path, valid_bytes)?;
        }
        let file = vfs.open_append(path)?;
        Ok(Wal {
            vfs,
            path: path.to_path_buf(),
            file,
            next_seq,
            policy,
            appends_since_sync: 0,
            // What the scan found may sit unsynced in the page cache (a
            // process crash keeps it, a power cut need not): only
            // `Always` vouches for it.
            synced_seq: if policy == SyncPolicy::Always {
                next_seq
            } else {
                0
            },
            bytes_written: 0,
            syncs: 0,
        })
    }

    /// The sequence number the next append gets.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one entry, fsyncing per the policy: `encode` writes the
    /// payload for the entry's sequence number
    /// ([`crate::codec::enc_wal_entry`]) straight into its frame.
    /// Returns the sequence number.
    pub fn append(&mut self, encode: impl FnOnce(&mut Enc, u64)) -> Result<u64> {
        let seq = self.next_seq;
        let mut e = Enc::framed();
        encode(&mut e, seq);
        let f = e.into_framed();
        self.file.append(&f)?;
        self.bytes_written += f.len() as u64;
        self.next_seq += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                if self.appends_since_sync >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Fsyncs every entry appended so far; does nothing when none is
    /// unsynced (always the case under [`SyncPolicy::Always`]).
    pub fn sync(&mut self) -> Result<()> {
        if self.synced_seq == self.next_seq {
            return Ok(());
        }
        self.file.sync()?;
        self.syncs += 1;
        self.appends_since_sync = 0;
        self.synced_seq = self.next_seq;
        Ok(())
    }

    /// Deletes this WAL's file (after a flush rotated to a new
    /// generation).
    pub fn delete(self) -> Result<()> {
        let Wal {
            vfs, path, file, ..
        } = self;
        drop(file);
        vfs.remove_file(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::vfs::{RealFs, ScratchDir};
    use gisolap_olap::time::TimeId;
    use gisolap_traj::{ObjectId, Record};

    fn rec(oid: u64, t: i64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x: 1.5,
            y: -2.5,
        }
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(RealFs)
    }

    fn append(wal: &mut Wal, op: &ReplayOp) -> Result<u64> {
        wal.append(|e, seq| codec::enc_wal_entry(e, seq, op))
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = ScratchDir::new("wal");
        let path = dir.path().join("wal-0.log");
        let mut wal = Wal::create(vfs(), &path, 7, SyncPolicy::Always).unwrap();
        let ops = [
            ReplayOp::Batch(vec![rec(1, 10), rec(2, 20)]),
            ReplayOp::Finish,
            ReplayOp::Batch(vec![]),
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(append(&mut wal, op).unwrap(), 7 + i as u64);
        }
        assert_eq!(wal.syncs, 3);
        drop(wal);

        let s = scan(&RealFs, &path, 7).unwrap();
        assert_eq!(s.truncated_bytes, 0);
        assert_eq!(s.entries.len(), 3);
        for (i, e) in s.entries.iter().enumerate() {
            assert_eq!(e.seq, 7 + i as u64);
            assert_eq!(e.op, ops[i]);
        }
    }

    #[test]
    fn scan_drops_torn_tail_and_reopen_truncates() {
        let dir = ScratchDir::new("wal-torn");
        let path = dir.path().join("wal-0.log");
        let mut wal = Wal::create(vfs(), &path, 0, SyncPolicy::Never).unwrap();
        append(&mut wal, &ReplayOp::Batch(vec![rec(1, 1)])).unwrap();
        append(&mut wal, &ReplayOp::Batch(vec![rec(2, 2)])).unwrap();
        drop(wal);

        // Tear the last frame by chopping 3 bytes.
        let full = RealFs.read(&path).unwrap();
        RealFs.truncate(&path, full.len() as u64 - 3).unwrap();

        let s = scan(&RealFs, &path, 0).unwrap();
        assert_eq!(s.entries.len(), 1);
        assert!(s.truncated_bytes > 0);
        assert_eq!(s.valid_bytes + s.truncated_bytes, full.len() as u64 - 3);

        // Reopen truncates the tail and continues at seq 1.
        let mut wal = Wal::reopen(
            vfs(),
            &path,
            s.valid_bytes,
            s.truncated_bytes,
            1,
            SyncPolicy::Always,
        )
        .unwrap();
        assert_eq!(wal.next_seq(), 1);
        append(&mut wal, &ReplayOp::Finish).unwrap();
        drop(wal);
        let s = scan(&RealFs, &path, 0).unwrap();
        assert_eq!(s.truncated_bytes, 0);
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[1].op, ReplayOp::Finish);
    }

    #[test]
    fn missing_file_scans_empty() {
        let dir = ScratchDir::new("wal-none");
        let s = scan(&RealFs, &dir.path().join("nope.log"), 0).unwrap();
        assert!(s.entries.is_empty());
        assert_eq!(s.valid_bytes, 0);
    }

    #[test]
    fn start_seq_mismatch_is_stale_cursor_not_corruption() {
        let dir = ScratchDir::new("wal-seq");
        let path = dir.path().join("wal-0.log");
        let mut wal = Wal::create(vfs(), &path, 5, SyncPolicy::Always).unwrap();
        append(&mut wal, &ReplayOp::Finish).unwrap();
        drop(wal);
        // Scanning a rotated log from an older cursor is a recoverable
        // position error (snapshot fallback), not file corruption.
        match scan(&RealFs, &path, 0) {
            Err(crate::StoreError::StaleCursor {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (0, 5));
            }
            other => panic!("expected StaleCursor, got {other:?}"),
        }
        // The matching cursor scans cleanly.
        assert_eq!(scan(&RealFs, &path, 5).unwrap().entries.len(), 1);
    }

    #[test]
    fn interior_jump_is_sequence_gap() {
        let dir = ScratchDir::new("wal-gap");
        let path = dir.path().join("wal-0.log");
        // Hand-build a log whose frames skip a sequence number: 0 then 2.
        let mut bytes = header(FileKind::Wal);
        bytes.extend_from_slice(&codec::frame(&codec::encode_wal_entry(
            0,
            &ReplayOp::Finish,
        )));
        bytes.extend_from_slice(&codec::frame(&codec::encode_wal_entry(
            2,
            &ReplayOp::Finish,
        )));
        RealFs.write_atomic(&path, &bytes, false).unwrap();
        match scan(&RealFs, &path, 0) {
            Err(crate::StoreError::SequenceGap {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (1, 2));
            }
            other => panic!("expected SequenceGap, got {other:?}"),
        }
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let dir = ScratchDir::new("wal-n");
        let path = dir.path().join("wal-0.log");
        let mut wal = Wal::create(vfs(), &path, 0, SyncPolicy::EveryN(2)).unwrap();
        for _ in 0..5 {
            append(&mut wal, &ReplayOp::Finish).unwrap();
        }
        assert_eq!(wal.syncs, 2); // after the 2nd and 4th appends
                                  // An explicit sync covers the 5th; a second one has nothing to do.
        wal.sync().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.syncs, 3);
        // It also restarts the every-N count.
        append(&mut wal, &ReplayOp::Finish).unwrap();
        assert_eq!(wal.syncs, 3);
        append(&mut wal, &ReplayOp::Finish).unwrap();
        assert_eq!(wal.syncs, 4);
    }

    #[test]
    fn sync_policy_parse() {
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse(""), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Some(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("16"), Some(SyncPolicy::EveryN(16)));
        assert_eq!(SyncPolicy::parse("0"), None);
        assert_eq!(SyncPolicy::parse("nope"), None);
    }
}
