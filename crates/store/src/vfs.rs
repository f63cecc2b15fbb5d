//! The filesystem seam: a small [`Vfs`] trait with a production
//! implementation ([`RealFs`]) and a fault-injecting wrapper
//! ([`FailpointFs`]) that crashes the "process" after a configurable
//! number of bytes have been written — mid-file, leaving a torn prefix
//! — so recovery can be property-tested against every possible crash
//! point.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use crate::Result;

/// An open append-only file handle. `Sync` so stores holding one can
/// be shared immutably across threads (all methods take `&mut self`, so
/// the bound costs implementations nothing beyond not using
/// `Cell`-style interior mutability).
pub trait AppendFile: Send + Sync {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Flushes written bytes to durable storage (fsync).
    fn sync(&mut self) -> Result<()>;
}

/// The filesystem operations the store needs, behind a trait so fault
/// injection can sit between the store and the OS.
pub trait Vfs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Writes `bytes` to `path` atomically: write `<path>.tmp`, sync if
    /// asked, rename over `path`, sync the parent directory. Readers
    /// never observe a half-written file at `path`.
    fn write_atomic(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()>;
    /// Opens (creating if absent) `path` for appending.
    fn open_append(&self, path: &Path) -> Result<Box<dyn AppendFile>>;
    /// Removes a file; missing files are not an error.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Truncates the file at `path` to `len` bytes (drops a torn tail).
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;
    /// Atomically renames `from` to `to` (same filesystem; replaces an
    /// existing `to`). The rebalance swap leans on this being a single
    /// metadata operation — either the old name resolves or the new one.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Removes a directory tree; a missing directory is not an error
    /// (GC retries must be idempotent).
    fn remove_dir_all(&self, path: &Path) -> Result<()>;
}

// --- RealFs -----------------------------------------------------------

/// The production [`Vfs`]: `std::fs` with atomic-rename writes.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn sync_parent_dir(path: &Path) {
    // Durability of the rename itself; best-effort because some
    // filesystems refuse to fsync directories.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

struct RealAppend {
    file: fs::File,
}

impl AppendFile for RealAppend {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            if sync {
                f.sync_data()?;
            }
        }
        fs::rename(&tmp, path)?;
        if sync {
            sync_parent_dir(path);
        }
        Ok(())
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn AppendFile>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealAppend { file }))
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        fs::create_dir_all(path)?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        fs::rename(from, to)?;
        sync_parent_dir(to);
        Ok(())
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        match fs::remove_dir_all(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

// --- FailpointFs ------------------------------------------------------

#[derive(Debug)]
struct FailState {
    /// The configured budget, for [`FailpointFs::bytes_consumed`].
    initial: i64,
    /// Bytes of write budget remaining before the injected crash.
    budget: AtomicI64,
    /// Set once the budget is exhausted; all later operations fail.
    crashed: AtomicBool,
}

/// A [`Vfs`] that forwards to [`RealFs`] until a cumulative
/// write-byte budget is exhausted, then "crashes": the write in flight
/// is torn (only the prefix that fit the budget reaches disk, and an
/// atomic write never renames its temp file), and every subsequent
/// operation fails. What remains on disk is exactly what a **process
/// crash** at that byte would leave: every byte written before the
/// failpoint survives, synced or not. A power cut may also lose writes
/// that were never fsynced, which this file system does not model.
#[derive(Debug, Clone)]
pub struct FailpointFs {
    inner: RealFs,
    state: Arc<FailState>,
}

fn crash_err() -> crate::StoreError {
    std::io::Error::other("failpoint: injected crash").into()
}

impl FailpointFs {
    /// A fault-injecting filesystem that crashes after `budget_bytes`
    /// written (across all files, in call order).
    pub fn new(budget_bytes: u64) -> FailpointFs {
        let initial = budget_bytes.min(i64::MAX as u64) as i64;
        FailpointFs {
            inner: RealFs,
            state: Arc::new(FailState {
                initial,
                budget: AtomicI64::new(initial),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Write bytes charged against the budget so far. On an uncrashed
    /// run this is exactly the bytes written — a dry run with a huge
    /// budget uses it to size the crash points of later runs.
    pub fn bytes_consumed(&self) -> u64 {
        (self.state.initial - self.state.budget.load(Ordering::SeqCst)).max(0) as u64
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed() {
            return Err(crash_err());
        }
        Ok(())
    }

    /// Consumes budget for a write of `len` bytes. Returns how many of
    /// them may reach disk; fewer than `len` means the crash fires on
    /// this write.
    fn consume(&self, len: usize) -> usize {
        let len_i = len as i64;
        let before = self.state.budget.fetch_sub(len_i, Ordering::SeqCst);
        if before >= len_i {
            return len;
        }
        self.state.crashed.store(true, Ordering::SeqCst);
        before.max(0) as usize
    }
}

struct FailpointAppend {
    inner: Box<dyn AppendFile>,
    fs: FailpointFs,
}

impl AppendFile for FailpointAppend {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.fs.check_alive()?;
        let allowed = self.fs.consume(bytes.len());
        if allowed < bytes.len() {
            // Torn write: the prefix lands, then the crash.
            self.inner.append(&bytes[..allowed])?;
            return Err(crash_err());
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.fs.check_alive()?;
        self.inner.sync()
    }
}

impl Vfs for FailpointFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8], sync: bool) -> Result<()> {
        self.check_alive()?;
        let allowed = self.consume(bytes.len());
        if allowed < bytes.len() {
            // The temp file gets the torn prefix but is never renamed
            // into place — exactly what a crash before rename leaves.
            let _ = self
                .inner
                .write_atomic(&tmp_path(path), &bytes[..allowed], false);
            return Err(crash_err());
        }
        self.inner.write_atomic(path, bytes, sync)
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn AppendFile>> {
        self.check_alive()?;
        Ok(Box::new(FailpointAppend {
            inner: self.inner.open_append(path)?,
            fs: self.clone(),
        }))
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.check_alive()?;
        self.inner.truncate(path, len)
    }

    // Renames and tree removals are metadata operations: gated on the
    // crash flag but not charged against the byte budget, so crash
    // points stay driven by written bytes alone.
    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.check_alive()?;
        self.inner.rename(from, to)
    }

    fn remove_dir_all(&self, path: &Path) -> Result<()> {
        self.check_alive()?;
        self.inner.remove_dir_all(path)
    }
}

// --- ScratchDir -------------------------------------------------------

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique temporary directory removed on drop — keeps tests and
/// benches from needing an external tempdir crate.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(tag: &str) -> ScratchDir {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("gisolap-{tag}-{}-{seq}", std::process::id()));
        fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_fs_atomic_write_and_append() {
        let dir = ScratchDir::new("vfs");
        let fs = RealFs;
        let p = dir.path().join("a.bin");
        fs.write_atomic(&p, b"hello", true).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello");
        // Overwrite atomically.
        fs.write_atomic(&p, b"world!", false).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"world!");

        let q = dir.path().join("log");
        let mut f = fs.open_append(&q).unwrap();
        f.append(b"ab").unwrap();
        f.append(b"cd").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(fs.read(&q).unwrap(), b"abcd");
        fs.truncate(&q, 3).unwrap();
        assert_eq!(fs.read(&q).unwrap(), b"abc");

        fs.remove_file(&q).unwrap();
        assert!(!fs.exists(&q));
        // Removing a missing file is fine.
        fs.remove_file(&q).unwrap();
    }

    #[test]
    fn real_fs_rename_and_remove_dir_all() {
        let dir = ScratchDir::new("vfs-mv");
        let fs = RealFs;
        let a = dir.path().join("a");
        let b = dir.path().join("b");
        fs.create_dir_all(&a).unwrap();
        fs.write_atomic(&a.join("f.bin"), b"data", false).unwrap();
        fs.rename(&a, &b).unwrap();
        assert!(!fs.exists(&a));
        assert_eq!(fs.read(&b.join("f.bin")).unwrap(), b"data");
        fs.remove_dir_all(&b).unwrap();
        assert!(!fs.exists(&b));
        // Removing a missing tree is fine.
        fs.remove_dir_all(&b).unwrap();
    }

    #[test]
    fn failpoint_gates_rename_on_crash_without_charging_budget() {
        let dir = ScratchDir::new("vfs-fp-mv");
        let fp = FailpointFs::new(4);
        let a = dir.path().join("a");
        let b = dir.path().join("b");
        fp.create_dir_all(&a).unwrap();
        // Renames consume no budget...
        fp.rename(&a, &b).unwrap();
        assert_eq!(fp.bytes_consumed(), 0);
        // ...but stop working once the crash fires.
        assert!(fp.write_atomic(&b.join("x"), b"12345", false).is_err());
        assert!(fp.crashed());
        assert!(fp.rename(&b, &a).is_err());
        assert!(fp.remove_dir_all(&b).is_err());
    }

    #[test]
    fn failpoint_tears_append_at_budget() {
        let dir = ScratchDir::new("vfs-fp");
        let fp = FailpointFs::new(5);
        let p = dir.path().join("log");
        let mut f = fp.open_append(&p).unwrap();
        f.append(b"abc").unwrap(); // 3 of 5
        assert!(f.append(b"defg").is_err()); // tears after 2 more bytes
        assert!(fp.crashed());
        // Everything after the crash fails.
        assert!(f.append(b"x").is_err());
        assert!(fp.read(&p).is_err());
        // The torn prefix is on disk.
        assert_eq!(RealFs.read(&p).unwrap(), b"abcde");
    }

    #[test]
    fn failpoint_atomic_write_never_publishes_torn_file() {
        let dir = ScratchDir::new("vfs-fp2");
        let fp = FailpointFs::new(3);
        let p = dir.path().join("MANIFEST");
        assert!(fp.write_atomic(&p, b"manifest-bytes", true).is_err());
        // The destination never appeared; only the temp file holds the
        // torn prefix.
        assert!(!RealFs.exists(&p));
        assert_eq!(RealFs.read(&tmp_path(&p)).unwrap(), b"man");
    }

    #[test]
    fn failpoint_zero_budget_crashes_immediately() {
        let dir = ScratchDir::new("vfs-fp3");
        let fp = FailpointFs::new(0);
        let p = dir.path().join("x");
        assert!(fp.write_atomic(&p, b"a", false).is_err());
        assert!(fp.crashed());
        assert!(!RealFs.exists(&p));
    }
}
