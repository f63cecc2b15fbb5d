//! The on-disk binary codec: CRC32-checksummed, length-prefixed frames
//! under a versioned header, little-endian throughout.
//!
//! ## File layout
//!
//! ```text
//! header := MAGIC (8 bytes, "GSLPSTOR") | kind (u8) | version (u16 LE)
//! frame  := len (u32 LE, payload bytes) | payload | crc32(payload) (u32 LE)
//! file   := header frame*
//! ```
//!
//! Segment, checkpoint and manifest files hold exactly one frame; a WAL
//! file holds one frame per logged operation. Floats are serialized as
//! IEEE-754 bit patterns ([`f64::to_bits`]), so every round-trip is
//! **bit-identical** — including the `Partial` sums whose exact values
//! the stream-vs-batch equivalence properties pin down.
//!
//! ## Field formats
//!
//! This module is the only owner of how a *field* is laid out, on disk
//! and on every wire protocol built over these frames:
//!
//! ```text
//! f64      := to_bits (u64 LE)                     // Enc::f64 / Dec::f64
//! opt(T)   := 0u8 | 1u8 T                          // Enc::opt / Dec::opt
//! seq(T)   := count (u64 LE) T*                    // Enc::seq / Dec::seq
//! ```
//!
//! plus the `TimeLevel`/`AggFn`/`Measure` code tables and the shared
//! `Option<geo>`, `BBox`, `RollupQuery`, `RollupRow` and cell codecs
//! below. [`Dec::opt`] rejects any flag byte but 0/1 and [`Dec::count`]
//! (which [`Dec::seq`] applies) rejects a declared count the remaining
//! bytes cannot hold *before* allocating, so a hostile length can never
//! drive an allocation ahead of the bytes actually received.
//!
//! ## Message layouts
//!
//! Every message — each protocol's requests and replies, the shard
//! manifest and rebalance journal, this store's manifest and delta
//! checkpoint — is declared once with [`messages!`](crate::messages!),
//! which emits its type, encoder and decoder from one table of tags and
//! fields over these field codecs. Encoders write straight into one CRC
//! frame ([`Enc::framed`], [`Enc::file`]). Three layouts stay written
//! out here, each for the reason beside it: the segment payload, the
//! WAL entry and the full checkpoint (plus the replication frames-reply
//! trailer in `gisolap-repl`).

use gisolap_geom::BBox;
use gisolap_olap::agg::{AggFn, Partial};
use gisolap_olap::time::{TimeId, TimeLevel};
use gisolap_stream::{
    CellPartial, EncodedRecords, GroupKey, Measure, ReplayOp, RollupQuery, RollupRow, Segment,
    TailState,
};
use gisolap_traj::{ObjectId, Record};

use crate::{corrupt, Result};

/// File magic, first 8 bytes of every store file.
pub(crate) const MAGIC: [u8; 8] = *b"GSLPSTOR";

/// On-disk format version, bumped on any incompatible layout change.
/// Version 2 added delta checkpoints (`FileKind::CheckpointDelta`,
/// `Manifest::checkpoint_deltas`) and a zone map in every segment file.
/// Version 3 has no zone map: a segment is partition, records, partial
/// cells. [`check_header`] refuses every other version, so v2 files do
/// not open (no upgrade path).
pub(crate) const FORMAT_VERSION: u16 = 3;

/// Header length in bytes: magic + kind + version.
pub(crate) const HEADER_LEN: usize = 8 + 1 + 2;

/// Frames larger than this are rejected as corrupt before allocation.
const MAX_FRAME: u32 = 1 << 30;

/// What a store file contains (header byte 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FileKind {
    /// One sealed segment (records + partials).
    Segment = 1,
    /// The write-ahead log of ingest operations.
    Wal = 2,
    /// The manifest (root of trust).
    Manifest = 3,
    /// A checkpointed tail state.
    Checkpoint = 4,
    /// A shard-cluster membership manifest (partitioner spec).
    ShardManifest = 5,
    /// A delta checkpoint: tail-state changes since the previous
    /// checkpoint (full or delta) in the manifest's chain.
    CheckpointDelta = 6,
    /// A staged-rebalance journal: the assignment a shard cluster is
    /// moving between (`gisolap-shard`'s elastic handoff).
    RebalanceJournal = 7,
}

impl FileKind {
    fn from_u8(b: u8) -> Option<FileKind> {
        match b {
            1 => Some(FileKind::Segment),
            2 => Some(FileKind::Wal),
            3 => Some(FileKind::Manifest),
            4 => Some(FileKind::Checkpoint),
            5 => Some(FileKind::ShardManifest),
            6 => Some(FileKind::CheckpointDelta),
            7 => Some(FileKind::RebalanceJournal),
            _ => None,
        }
    }
}

// --- CRC32 (IEEE 802.3, reflected) -----------------------------------

/// The IEEE polynomial, reflected (bit 31 is `x^0`).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-
/// time table; table *j* advances a byte seen *j* positions earlier
/// through the remaining width, so sixteen lookups retire sixteen bytes
/// with no serial dependency between them.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The IEEE CRC32 of `bytes` (the checksum every frame carries).
///
/// Frames of at least [`CRC_LANE_MIN_BYTES`] are split into four
/// contiguous quarters whose CRCs run as four independent chains in one
/// loop, so their table lookups overlap instead of waiting on each
/// other; the lanes are then joined by shifting each partial register
/// over the next quarter's length in GF(2) (zlib's `crc32_combine`).
/// The result is the same IEEE CRC32 the serial loop computes.
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < CRC_LANE_MIN_BYTES {
        return !crc32_serial(!0, bytes);
    }
    // Four lanes of `q` bytes (a multiple of 16); the < 64-byte rest
    // runs serially after the join.
    let q = bytes.len() / 64 * 16;
    let (lanes, rest) = bytes.split_at(4 * q);
    let (a, b) = lanes.split_at(2 * q);
    let ((a0, a1), (b0, b1)) = (a.split_at(q), b.split_at(q));
    let mut r = [!0u32, 0, 0, 0];
    for (((w, x), y), z) in (a0.chunks_exact(16))
        .zip(a1.chunks_exact(16))
        .zip(b0.chunks_exact(16))
        .zip(b1.chunks_exact(16))
    {
        r[0] = crc32_step16(r[0], w);
        r[1] = crc32_step16(r[1], x);
        r[2] = crc32_step16(r[2], y);
        r[3] = crc32_step16(r[3], z);
    }
    // The register is linear in its input: the register over `A ‖ B`
    // is the register over `A` fed |B| zero bytes, xor the register
    // over `B` from zero.
    let shift = x8n_mod_p(q as u64);
    let joined = r[1..]
        .iter()
        .fold(r[0], |c, &lane| gf2_mul(shift, c) ^ lane);
    !crc32_serial(joined, rest)
}

/// Frames shorter than this run the serial loop; longer ones split
/// into four lanes (the join costs about what 300 serial bytes do).
pub const CRC_LANE_MIN_BYTES: usize = 4096;

/// Advances the CRC register `c` (`!0` at a frame's start) over
/// `bytes`, sixteen bytes per step.
fn crc32_serial(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        c = crc32_step16(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Retires one 16-byte `chunk`: folds the register into its first word,
/// then one independent lookup per table.
#[inline(always)]
fn crc32_step16(c: u32, chunk: &[u8]) -> u32 {
    let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
    let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
    let d = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
    let e = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
    CRC_TABLES[15][(a & 0xFF) as usize]
        ^ CRC_TABLES[14][((a >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[13][((a >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[12][(a >> 24) as usize]
        ^ CRC_TABLES[11][(b & 0xFF) as usize]
        ^ CRC_TABLES[10][((b >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[9][((b >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[8][(b >> 24) as usize]
        ^ CRC_TABLES[7][(d & 0xFF) as usize]
        ^ CRC_TABLES[6][((d >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((d >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(d >> 24) as usize]
        ^ CRC_TABLES[3][(e & 0xFF) as usize]
        ^ CRC_TABLES[2][((e >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((e >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(e >> 24) as usize]
}

/// `a · b` modulo the CRC polynomial, both in the reflected bit order
/// the register uses (bit 31 is `x^0`).
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `X2N[k]` is `x^(2^k)` modulo the CRC polynomial.
static X2N: [u32; 64] = {
    let mut t = [0u32; 64];
    t[0] = 1 << 30; // x^1
    let mut k = 1;
    while k < 64 {
        t[k] = gf2_mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8·n)` modulo the CRC polynomial: the operator that feeds `n`
/// zero bytes through the register.
fn x8n_mod_p(mut n: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
                            // A byte is x^8 = x^(2^3); a slice's n < 2^61 keeps k below 64.
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = gf2_mul(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

// --- primitive encode/decode -----------------------------------------

/// An append-only little-endian byte sink, optionally building one CRC
/// frame in place: [`Enc::framed`] reserves the frame's length prefix and
/// [`Enc::into_framed`] patches it and appends the checksum, so a payload
/// is never copied into a second, framed buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// Offset of the open frame's length prefix.
    frame_at: Option<usize>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty encoder with room for `bytes` before it reallocates.
    pub fn with_capacity(bytes: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(bytes),
            frame_at: None,
        }
    }

    /// An encoder whose bytes become one frame's payload.
    pub fn framed() -> Enc {
        let mut e = Enc::with_capacity(64);
        e.begin_frame();
        e
    }

    /// An encoder for a whole store file: `kind`'s header, then one
    /// frame holding what is encoded next.
    pub fn file(kind: FileKind) -> Enc {
        let mut e = Enc {
            buf: header(kind),
            frame_at: None,
        };
        e.begin_frame();
        e
    }

    /// Opens a frame here: reserves its `u32` length prefix.
    pub fn begin_frame(&mut self) {
        debug_assert!(self.frame_at.is_none(), "frames do not nest");
        self.frame_at = Some(self.buf.len());
        self.buf.extend_from_slice(&[0; 4]);
    }

    /// Closes the open frame: patches its length prefix and appends the
    /// CRC32 of its payload.
    pub fn end_frame(&mut self) {
        let at = self.frame_at.take().expect("end_frame without begin_frame");
        let payload = &self.buf[at + 4..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(payload).to_le_bytes();
        self.buf[at..at + 4].copy_from_slice(&len);
        self.buf.extend_from_slice(&crc);
    }

    /// Closes the open frame ([`Enc::end_frame`]) and returns the bytes.
    pub fn into_framed(mut self) -> Vec<u8> {
        self.end_frame();
        self.buf
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for `bytes` more, plus a frame's 4-byte checksum, so a
    /// presized payload's closing [`Enc::end_frame`] never reallocates.
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes + 4);
    }

    /// Appends what `item` encodes behind a `u32` byte-length prefix
    /// (the form [`Dec::bytes`] reads), encoded in place.
    pub fn sized(&mut self, item: impl FnOnce(&mut Enc)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        item(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact, NaN
    /// payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an optional field: flag byte `0`, or `1` then the item.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, item: impl FnOnce(&mut Enc, T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                item(self, v);
            }
        }
    }

    /// Appends a sequence: `u64` count, then every item.
    #[inline]
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Enc, &T)) {
        self.u64(items.len() as u64);
        for it in items {
            item(self, it);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// A bounds-checked little-endian byte reader; every error names the
/// file being decoded.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    file: &'a str,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, attributing errors to `file`.
    pub fn new(buf: &'a [u8], file: &'a str) -> Dec<'a> {
        Dec { buf, pos: 0, file }
    }

    /// The label errors are attributed to.
    pub fn label(&self) -> &'a str {
        self.file
    }

    /// A [`StoreError::Corrupt`](crate::StoreError::Corrupt) attributed
    /// to this decoder's label.
    pub fn corrupt(&self, detail: impl Into<String>) -> crate::StoreError {
        corrupt(self.file, detail)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes, or errors naming the file.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(
                self.file,
                format!("truncated: needed {n} bytes, had {}", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional field written by [`Enc::opt`]; any flag byte
    /// other than 0 or 1 is corruption (`what` names the field).
    #[inline]
    pub fn opt<T>(
        &mut self,
        what: &str,
        item: impl FnOnce(&mut Dec<'a>) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => item(self).map(Some),
            flag => Err(corrupt(self.file, format!("bad {what} flag {flag}"))),
        }
    }

    /// The one plausibility guard for declared counts: `declared` items
    /// of at least `min_item_bytes` each must fit the bytes not yet
    /// consumed, else the header is lying. Callers allocate for the
    /// returned count only, so capacity never runs ahead of
    /// [`Dec::remaining`].
    pub fn count(&self, declared: u64, min_item_bytes: usize, noun: &str) -> Result<usize> {
        let fit = self.remaining() / min_item_bytes.max(1);
        if declared > fit as u64 {
            return Err(corrupt(
                self.file,
                format!(
                    "declares {declared} {noun} but only {} bytes remain",
                    self.remaining()
                ),
            ));
        }
        Ok(declared as usize)
    }

    /// Reads a sequence written by [`Enc::seq`]: the `u64` count passes
    /// [`Dec::count`] before anything is allocated.
    #[inline]
    pub fn seq<T>(
        &mut self,
        noun: &str,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Dec<'a>) -> Result<T>,
    ) -> Result<Vec<T>> {
        let declared = self.u64()?;
        let n = self.count(declared, min_item_bytes, noun)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(self.file, "string is not valid UTF-8"))
    }

    /// Reads a `u32`-length-prefixed byte run (pairs with [`Enc::bytes`]).
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Asserts every byte was consumed (trailing garbage is corruption).
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(corrupt(
                self.file,
                format!("{} trailing bytes after payload", self.remaining()),
            ));
        }
        Ok(())
    }
}

// --- header and frames -----------------------------------------------

/// Renders a file header for `kind` at the current format version.
pub fn header(kind: FileKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(kind as u8);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Validates a file header, returning the bytes after it.
pub fn check_header<'a>(bytes: &'a [u8], kind: FileKind, file: &str) -> Result<&'a [u8]> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(file, "shorter than the file header"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt(file, "bad magic"));
    }
    let got_kind = FileKind::from_u8(bytes[8])
        .ok_or_else(|| corrupt(file, format!("unknown file kind {}", bytes[8])))?;
    if got_kind != kind {
        return Err(corrupt(
            file,
            format!("file kind is {got_kind:?}, expected {kind:?}"),
        ));
    }
    let version = u16::from_le_bytes([bytes[9], bytes[10]]);
    if version != FORMAT_VERSION {
        return Err(corrupt(
            file,
            format!("format version {version}, this build reads {FORMAT_VERSION}"),
        ));
    }
    Ok(&bytes[HEADER_LEN..])
}

/// Wraps a payload in a `len | payload | crc32` frame (the
/// [`Enc::framed`] path, for bytes encoded elsewhere).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::with_capacity(payload.len() + 8);
    e.begin_frame();
    e.buf.extend_from_slice(payload);
    e.into_framed()
}

/// How reading one frame from a byte stream ended.
pub enum FrameRead<'a> {
    /// A complete, checksum-valid frame; `rest` follows it.
    Ok {
        /// The verified payload.
        payload: &'a [u8],
        /// Bytes after the frame.
        rest: &'a [u8],
    },
    /// The stream ends exactly here — no frame started.
    End,
    /// The bytes start a frame that is short, oversized or fails its
    /// checksum: a torn write (or genuine corruption). `valid_up_to_here`
    /// callers treat it as end-of-log; strict callers raise `Corrupt`.
    Torn {
        /// What was wrong, for reports.
        detail: String,
    },
}

/// Reads one frame from `bytes` (already past the header).
pub fn read_frame<'a>(bytes: &'a [u8]) -> FrameRead<'a> {
    if bytes.is_empty() {
        return FrameRead::End;
    }
    if bytes.len() < 4 {
        return FrameRead::Torn {
            detail: "torn length prefix".to_string(),
        };
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_FRAME {
        return FrameRead::Torn {
            detail: format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        };
    }
    let need = 4 + len as usize + 4;
    if bytes.len() < need {
        return FrameRead::Torn {
            detail: format!("torn frame: needed {need} bytes, had {}", bytes.len()),
        };
    }
    let payload = &bytes[4..4 + len as usize];
    let stored = u32::from_le_bytes(bytes[4 + len as usize..need].try_into().unwrap());
    if crc32(payload) != stored {
        return FrameRead::Torn {
            detail: "frame checksum mismatch".to_string(),
        };
    }
    FrameRead::Ok {
        payload,
        rest: &bytes[need..],
    }
}

/// Reads the single frame a store file body or a wire message holds,
/// strictly: a missing or torn frame and trailing bytes are `Corrupt`,
/// attributed to `label` (a file name or a wire label such as
/// `"repl-wire"`).
pub fn read_single_frame<'a>(bytes: &'a [u8], label: &str) -> Result<&'a [u8]> {
    match read_frame(bytes) {
        FrameRead::Ok { payload, rest } => {
            if !rest.is_empty() {
                return Err(corrupt(
                    label,
                    format!("{} bytes after the frame", rest.len()),
                ));
            }
            Ok(payload)
        }
        FrameRead::End => Err(corrupt(label, "missing frame")),
        FrameRead::Torn { detail } => Err(corrupt(label, detail)),
    }
}

// --- code tables -------------------------------------------------------

/// Appends a Time-dimension level's wire code.
pub fn enc_level(e: &mut Enc, level: &TimeLevel) {
    e.u8(match level {
        TimeLevel::TimeId => 0,
        TimeLevel::Minute => 1,
        TimeLevel::Hour => 2,
        TimeLevel::Day => 3,
        TimeLevel::Month => 4,
        TimeLevel::Year => 5,
        TimeLevel::TimeOfDayLevel => 6,
        TimeLevel::DayOfWeekLevel => 7,
        TimeLevel::TypeOfDayLevel => 8,
        TimeLevel::All => 9,
    })
}

/// Reads a Time-dimension level code.
pub fn dec_level(d: &mut Dec<'_>) -> Result<TimeLevel> {
    Ok(match d.u8()? {
        0 => TimeLevel::TimeId,
        1 => TimeLevel::Minute,
        2 => TimeLevel::Hour,
        3 => TimeLevel::Day,
        4 => TimeLevel::Month,
        5 => TimeLevel::Year,
        6 => TimeLevel::TimeOfDayLevel,
        7 => TimeLevel::DayOfWeekLevel,
        8 => TimeLevel::TypeOfDayLevel,
        9 => TimeLevel::All,
        c => return Err(corrupt(d.file, format!("unknown time level code {c}"))),
    })
}

/// Appends an aggregate function's wire code (`AGG` of Definition 7).
pub fn enc_agg(e: &mut Enc, f: &AggFn) {
    e.u8(match f {
        AggFn::Min => 0,
        AggFn::Max => 1,
        AggFn::Count => 2,
        AggFn::Sum => 3,
        AggFn::Avg => 4,
    })
}

/// Reads an aggregate-function code.
pub fn dec_agg(d: &mut Dec<'_>) -> Result<AggFn> {
    Ok(match d.u8()? {
        0 => AggFn::Min,
        1 => AggFn::Max,
        2 => AggFn::Count,
        3 => AggFn::Sum,
        4 => AggFn::Avg,
        c => return Err(corrupt(d.file, format!("unknown aggregate code {c}"))),
    })
}

/// Appends a measure's wire code.
pub fn enc_measure(e: &mut Enc, m: &Measure) {
    e.u8(match m {
        Measure::X => 0,
        Measure::Y => 1,
    })
}

/// Reads a measure code.
pub fn dec_measure(d: &mut Dec<'_>) -> Result<Measure> {
    Ok(match d.u8()? {
        0 => Measure::X,
        1 => Measure::Y,
        c => return Err(corrupt(d.file, format!("unknown measure code {c}"))),
    })
}

// --- shared value codecs ----------------------------------------------

/// Appends an optional geometry id (the `geo` of a group key or row).
#[inline]
pub(crate) fn enc_geo(e: &mut Enc, geo: Option<u32>) {
    e.opt(geo, |e, g| e.u32(g));
}

/// Reads an optional geometry id.
#[inline]
pub(crate) fn dec_geo(d: &mut Dec<'_>) -> Result<Option<u32>> {
    d.opt("geo", |d| d.u32())
}

/// Appends a box as four bit-exact floats: min x, min y, max x, max y.
pub fn enc_bbox(e: &mut Enc, b: &BBox) {
    e.f64(b.min_x);
    e.f64(b.min_y);
    e.f64(b.max_x);
    e.f64(b.max_y);
}

/// Reads a box, verbatim: an inverted box is the legal empty box, so
/// any ordering constraint is the caller's to check.
pub fn dec_bbox(d: &mut Dec<'_>) -> Result<BBox> {
    Ok(BBox {
        min_x: d.f64()?,
        min_y: d.f64()?,
        max_x: d.f64()?,
        max_y: d.f64()?,
    })
}

/// Appends a rollup query: level, measure, aggregate, optional window.
pub fn enc_rollup_query(e: &mut Enc, query: &RollupQuery) {
    enc_level(e, &query.level);
    enc_measure(e, &query.measure);
    enc_agg(e, &query.f);
    e.opt(query.between, |e, (a, b)| {
        e.i64(a.0);
        e.i64(b.0);
    });
}

/// Reads a rollup query.
pub fn dec_rollup_query(d: &mut Dec<'_>) -> Result<RollupQuery> {
    Ok(RollupQuery {
        level: dec_level(d)?,
        measure: dec_measure(d)?,
        f: dec_agg(d)?,
        between: d.opt("between", |d| Ok((TimeId(d.i64()?), TimeId(d.i64()?))))?,
    })
}

/// Wire cost of one rollup row without its geo id: granule, geo flag,
/// value bits — the plausibility bound for declared row counts.
const ROW_MIN_BYTES: usize = 8 + 1 + 8;

/// Largest wire cost of one rollup row (geo id present) — what
/// [`encode_rows`] pre-sizes the buffer with.
pub const ROW_MAX_BYTES: usize = ROW_MIN_BYTES + 4;

/// Appends rollup rows `(granule, geo, value)`, values bit-exact. Rows
/// replies run to hundreds of KB, so the buffer is sized once from the
/// count.
pub fn encode_rows(e: &mut Enc, rows: &[RollupRow]) {
    e.reserve(8 + rows.len() * ROW_MAX_BYTES);
    e.seq(rows, |e, row| {
        e.i64(row.granule);
        enc_geo(e, row.geo);
        e.f64(row.value);
    });
}

/// Reads rollup rows written by [`encode_rows`].
pub fn decode_rows(d: &mut Dec<'_>) -> Result<Vec<RollupRow>> {
    d.seq("rows", ROW_MIN_BYTES, |d| {
        Ok(RollupRow {
            granule: d.i64()?,
            geo: dec_geo(d)?,
            value: d.f64()?,
        })
    })
}

// --- records, partials, cells ----------------------------------------

fn enc_records(e: &mut Enc, records: &[Record]) {
    e.seq(records, |e, r| {
        e.u64(r.oid.0);
        e.i64(r.t.0);
        e.f64(r.x);
        e.f64(r.y);
    });
}

/// Wire width of one record: oid, t, x, y.
const RECORD_BYTES: usize = 32;

fn dec_records(d: &mut Dec<'_>) -> Result<Vec<Record>> {
    let bytes = take_records(d)?;
    Ok(decode_record_run(bytes))
}

/// Takes a record run's count and its fixed-width records in one
/// bounds check, undecoded.
fn take_records<'a>(d: &mut Dec<'a>) -> Result<&'a [u8]> {
    let declared = d.u64()?;
    let n = d.count(declared, RECORD_BYTES, "records")?;
    d.take(n * RECORD_BYTES)
}

/// Decodes a run of whole records, one 32-byte chunk each — the
/// recovery hot loop.
fn decode_record_run(bytes: &[u8]) -> Vec<Record> {
    bytes
        .chunks_exact(RECORD_BYTES)
        .map(|c| Record {
            oid: ObjectId(u64::from_le_bytes(c[0..8].try_into().unwrap())),
            t: TimeId(i64::from_le_bytes(c[8..16].try_into().unwrap())),
            x: f64::from_bits(u64::from_le_bytes(c[16..24].try_into().unwrap())),
            y: f64::from_bits(u64::from_le_bytes(c[24..32].try_into().unwrap())),
        })
        .collect()
}

/// Checks a record run strictly ascending by `(oid, t)` on its raw
/// bytes, reading 16 of each record's 32.
fn check_record_order(bytes: &[u8], file: &str) -> Result<()> {
    let key = |c: &[u8]| {
        (
            u64::from_le_bytes(c[0..8].try_into().unwrap()),
            i64::from_le_bytes(c[8..16].try_into().unwrap()),
        )
    };
    let mut chunks = bytes.chunks_exact(RECORD_BYTES).map(key);
    let Some(mut prev) = chunks.next() else {
        return Ok(());
    };
    for (i, next) in chunks.enumerate() {
        if prev >= next {
            return Err(corrupt(
                file,
                format!(
                    "invalid segment parts: records not strictly (oid, t)-sorted at index {}",
                    i + 1
                ),
            ));
        }
        prev = next;
    }
    Ok(())
}

fn enc_partial(e: &mut Enc, p: &Partial) {
    e.u64(p.count());
    e.f64(p.sum());
    e.f64(p.min());
    e.f64(p.max());
}

fn dec_partial(d: &mut Dec<'_>) -> Result<Partial> {
    let count = d.u64()?;
    let sum = d.f64()?;
    let min = d.f64()?;
    let max = d.f64()?;
    Ok(Partial::from_raw(count, sum, min, max))
}

/// Wire cost of one `(hour, geo)` cell without its geo id: hour, geo
/// flag, two 32-byte partials.
const CELL_MIN_BYTES: usize = 8 + 1 + 2 * 32;

/// Largest wire cost of one cell (geo id present) — what
/// [`encode_cells`] pre-sizes the buffer with.
pub const CELL_MAX_BYTES: usize = CELL_MIN_BYTES + 4;

fn dec_cell(d: &mut Dec<'_>) -> Result<(GroupKey, CellPartial)> {
    let hour = d.i64()?;
    // Window masks and rollups compute `hour * 3600`; no record's hour
    // overflows that, so one that does can only be hostile or corrupt.
    if hour.checked_mul(3600).is_none() {
        return Err(corrupt(d.file, format!("cell hour {hour} out of range")));
    }
    let geo = dec_geo(d)?;
    let x = dec_partial(d)?;
    let y = dec_partial(d)?;
    Ok(((hour, geo), CellPartial { x, y }))
}

/// Encodes a batch of `(key, cell)` partials into `e` — a segment's
/// partial cells on disk and the scatter payload of the sharding wire.
/// Keys travel in the given order (the coordinator relies on
/// ascending-key extraction for its canonical merge order). The buffer
/// is sized once from the count.
pub fn encode_cells(e: &mut Enc, cells: &[(GroupKey, CellPartial)]) {
    e.reserve(8 + cells.len() * CELL_MAX_BYTES);
    e.seq(cells, |e, (key, cell)| {
        e.i64(key.0);
        enc_geo(e, key.1);
        enc_partial(e, &cell.x);
        enc_partial(e, &cell.y);
    });
}

/// Decodes a batch of `(key, cell)` partials written by
/// [`encode_cells`].
pub fn decode_cells(d: &mut Dec<'_>) -> Result<Vec<(GroupKey, CellPartial)>> {
    d.seq("cells", CELL_MIN_BYTES, dec_cell)
}

// --- segment ----------------------------------------------------------

// The segment payload stays hand-written: its records are fixed-width,
// so open checks them on the raw bytes and decodes them only when the
// segment is first touched ([`open_segment`]).

/// Encodes a sealed segment as one frame payload: partition, canonical
/// records, partial cells. The summary and per-object index are
/// *derived* data and are re-derived on decode, so they never drift from
/// the records.
pub fn encode_segment(seg: &Segment) -> Vec<u8> {
    let mut e = Enc::new();
    enc_segment(&mut e, seg);
    e.into_bytes()
}

/// Appends [`encode_segment`]'s payload to `e`.
pub fn enc_segment(e: &mut Enc, seg: &Segment) {
    e.i64(seg.partition());
    enc_records(e, seg.records());
    encode_cells(e, seg.partials());
}

/// Decodes a segment payload, re-deriving and validating the canonical
/// structure via [`Segment::from_parts`].
pub fn decode_segment(payload: &[u8], file: &str) -> Result<Segment> {
    let mut d = Dec::new(payload, file);
    let partition = d.i64()?;
    let records = dec_records(&mut d)?;
    let partials = decode_cells(&mut d)?;
    d.finish()?;
    Segment::from_parts(partition, records, partials)
        .map_err(|e| corrupt(file, format!("invalid segment parts: {e}")))
}

/// Opens a segment file read whole (`bytes`, header included) without
/// decoding its records: checks the header and the frame's CRC, checks
/// the records strictly ascending by `(oid, t)` on their raw bytes and
/// decodes the partial cells. The record section stays in `bytes`
/// (the cells' bytes are cut off) inside the returned segment, which
/// decodes it on first touch ([`Segment::from_encoded`]). Every file
/// [`decode_segment`] refuses, this refuses too.
pub fn open_segment(mut bytes: Vec<u8>, file: &str) -> Result<Segment> {
    let payload = read_single_frame(check_header(&bytes, FileKind::Segment, file)?, file)?;
    let mut d = Dec::new(payload, file);
    let partition = d.i64()?;
    let records = take_records(&mut d)?;
    check_record_order(records, file)?;
    let partials = decode_cells(&mut d)?;
    d.finish()?;
    // The record run follows the header, the frame's length prefix, the
    // partition and the count.
    let start = HEADER_LEN + 4 + 8 + 8;
    let end = start + records.len();
    bytes.truncate(end);
    bytes.shrink_to_fit();
    let records = EncodedRecords::new(bytes, start..end, decode_record_run);
    Segment::from_encoded(partition, records, partials)
        .map_err(|e| corrupt(file, format!("invalid segment parts: {e}")))
}

// --- checkpoint (TailState) ------------------------------------------

/// Open partition buffers: `(partition, records)` pairs. Each costs at
/// least its partition and its record count.
fn enc_buffers(e: &mut Enc, buffers: &[(i64, Vec<Record>)]) {
    e.seq(buffers, |e, (partition, records)| {
        e.i64(*partition);
        enc_records(e, records);
    });
}

fn dec_buffers(d: &mut Dec<'_>) -> Result<Vec<(i64, Vec<Record>)>> {
    d.seq("buffers", 16, |d| Ok((d.i64()?, dec_records(d)?)))
}

/// Encodes a checkpointed [`TailState`] as one frame payload.
/// (`TailState` is the stream crate's, so no declaration here can emit
/// it; its codec is written out.)
pub fn encode_tail(tail: &TailState) -> Vec<u8> {
    let mut e = Enc::new();
    enc_tail(&mut e, tail);
    e.into_bytes()
}

/// Appends [`encode_tail`]'s payload to `e`.
pub fn enc_tail(e: &mut Enc, tail: &TailState) {
    enc_watermark(e, &tail.max_event_time);
    e.i64(tail.sealed_before);
    e.u64(tail.records_ingested);
    e.u64(tail.segments_sealed);
    enc_records(e, &tail.dead_letters);
    enc_buffers(e, &tail.buffers);
}

fn enc_watermark(e: &mut Enc, t: &Option<TimeId>) {
    e.opt(*t, |e, t| e.i64(t.0));
}

fn dec_watermark(d: &mut Dec<'_>) -> Result<Option<TimeId>> {
    d.opt("watermark", |d| Ok(TimeId(d.i64()?)))
}

/// Decodes a checkpoint payload.
pub fn decode_tail(payload: &[u8], file: &str) -> Result<TailState> {
    let mut d = Dec::new(payload, file);
    let max_event_time = dec_watermark(&mut d)?;
    let sealed_before = d.i64()?;
    let records_ingested = d.u64()?;
    let segments_sealed = d.u64()?;
    let dead_letters = dec_records(&mut d)?;
    let buffers = dec_buffers(&mut d)?;
    d.finish()?;
    Ok(TailState {
        max_event_time,
        sealed_before,
        records_ingested,
        segments_sealed,
        dead_letters,
        buffers,
    })
}

// --- delta checkpoint -------------------------------------------------

crate::messages! {
    /// Tail-state changes since the previous checkpoint in a manifest's
    /// chain — what a flush writes instead of a full checkpoint while the
    /// chain stays under the store's bound of four deltas per full
    /// checkpoint.
    ///
    /// A delta exploits the tail's update pattern: scalars are cheap,
    /// `dead_letters` is append-only (only the suffix travels), and open
    /// partition buffers either grow, appear, or seal away (changed buffers
    /// travel whole; sealed ones travel as removal keys). Applying the
    /// chain onto the base checkpoint with [`TailDelta::apply`] reproduces
    /// the flushed [`TailState`] exactly.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct TailDelta {
        /// The watermark source after this delta.
        max_event_time: Option<TimeId> = [enc_watermark, dec_watermark],
        /// Seal horizon after this delta.
        sealed_before: i64 = i64,
        /// Cumulative accepted records after this delta.
        records_ingested: u64 = u64,
        /// Cumulative sealed segments after this delta.
        segments_sealed: u64 = u64,
        /// Dead letters appended since the previous checkpoint.
        new_dead_letters: Vec<Record> = [enc_records, dec_records],
        /// Full contents of partitions that changed or appeared, ascending.
        changed_buffers: Vec<(i64, Vec<Record>)> = [enc_buffers, dec_buffers],
        /// Partitions that sealed away since the previous checkpoint,
        /// ascending.
        removed_buffers: Vec<i64> = (seq "removed buffers" 8, i64),
    }
}

impl TailDelta {
    /// The delta turning `base` into `next` (both full tail states).
    pub(crate) fn diff(base: &TailState, next: &TailState) -> TailDelta {
        let new_dead_letters = next.dead_letters[base.dead_letters.len()..].to_vec();
        let changed_buffers = next
            .buffers
            .iter()
            .filter(|(p, records)| {
                base.buffers
                    .iter()
                    .find(|(bp, _)| bp == p)
                    .map_or(true, |(_, b)| b != records)
            })
            .cloned()
            .collect();
        let removed_buffers = base
            .buffers
            .iter()
            .map(|&(p, _)| p)
            .filter(|p| !next.buffers.iter().any(|(np, _)| np == p))
            .collect();
        TailDelta {
            max_event_time: next.max_event_time,
            sealed_before: next.sealed_before,
            records_ingested: next.records_ingested,
            segments_sealed: next.segments_sealed,
            new_dead_letters,
            changed_buffers,
            removed_buffers,
        }
    }

    /// Applies this delta to `tail` in place.
    pub fn apply(&self, tail: &mut TailState) {
        tail.max_event_time = self.max_event_time;
        tail.sealed_before = self.sealed_before;
        tail.records_ingested = self.records_ingested;
        tail.segments_sealed = self.segments_sealed;
        tail.dead_letters.extend_from_slice(&self.new_dead_letters);
        tail.buffers
            .retain(|(p, _)| !self.removed_buffers.contains(p));
        for (p, records) in &self.changed_buffers {
            match tail.buffers.iter_mut().find(|(bp, _)| bp == p) {
                Some((_, b)) => *b = records.clone(),
                None => tail.buffers.push((*p, records.clone())),
            }
        }
        tail.buffers.sort_by_key(|&(p, _)| p);
    }
}

/// Decodes a delta-checkpoint payload.
pub fn decode_tail_delta(payload: &[u8], file: &str) -> Result<TailDelta> {
    TailDelta::decode(payload, file)
}

// --- WAL entries ------------------------------------------------------

// The WAL entry stays hand-written: a batch is encoded from the
// borrowed records, where a declared `ReplayOp` field would need the
// batch cloned into an owned op on every ingest.

/// Encodes one WAL frame payload: sequence number + operation.
pub fn encode_wal_entry(seq: u64, op: &ReplayOp) -> Vec<u8> {
    let mut e = Enc::new();
    enc_wal_entry(&mut e, seq, op);
    e.into_bytes()
}

/// Appends [`encode_wal_entry`]'s payload to `e`.
pub fn enc_wal_entry(e: &mut Enc, seq: u64, op: &ReplayOp) {
    match op {
        ReplayOp::Batch(records) => enc_wal_batch(e, seq, records),
        ReplayOp::Finish => {
            e.u64(seq);
            e.u8(1);
        }
    }
}

/// [`enc_wal_entry`] of `ReplayOp::Batch(records)`, encoded from the
/// borrowed batch.
pub(crate) fn enc_wal_batch(e: &mut Enc, seq: u64, records: &[Record]) {
    e.reserve(17 + 32 * records.len());
    e.u64(seq);
    e.u8(0);
    enc_records(e, records);
}

/// Decodes one WAL frame payload into `(seq, op)`.
pub fn decode_wal_entry(payload: &[u8], file: &str) -> Result<(u64, ReplayOp)> {
    let mut d = Dec::new(payload, file);
    let seq = d.u64()?;
    let op = match d.u8()? {
        0 => ReplayOp::Batch(dec_records(&mut d)?),
        1 => ReplayOp::Finish,
        tag => return Err(corrupt(file, format!("bad WAL op tag {tag}"))),
    };
    d.finish()?;
    Ok((seq, op))
}

// --- manifest ---------------------------------------------------------

crate::messages! {
    /// One sealed segment file the manifest references.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SegmentEntry {
        /// First partition index covered.
        lo: i64 = i64,
        /// Last partition index covered (`== lo` until compaction merges).
        hi: i64 = i64,
        /// File name, relative to the store directory.
        file: String = str,
    }
}

crate::messages! {
    /// The decoded manifest: the root of trust naming every live file.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Manifest {
        /// WAL/checkpoint generation counter.
        gen: u64 = u64,
        /// Stream configuration the persisted pipeline runs under.
        lateness_seconds: i64 = i64,
        /// Stream partition width (seconds).
        segment_seconds: i64 = i64,
        /// Sealed segment files, ascending by `lo`.
        segments: Vec<SegmentEntry> = (seq "segments" 8 + 8 + 4, (msg SegmentEntry)),
        /// The current *base* (full) checkpoint file, if a flush has
        /// happened.
        checkpoint: Option<String> = (opt "checkpoint" str),
        /// Delta-checkpoint files applied on top of `checkpoint`, in chain
        /// order (oldest first). Empty when the last flush wrote a full
        /// checkpoint.
        checkpoint_deltas: Vec<String> = (seq "checkpoint deltas" 4, str),
        /// The current WAL file.
        wal: String = str,
        /// Sequence number of the first entry the current WAL may hold.
        wal_start_seq: u64 = u64,
    }
    check |m, d| if m.segments.windows(2).any(|w| w[0].hi >= w[1].lo) {
        Err(d.corrupt("segment entries overlap or are unsorted"))
    } else if m.checkpoint.is_none() && !m.checkpoint_deltas.is_empty() {
        Err(d.corrupt("delta chain without a base checkpoint"))
    } else {
        Ok(())
    };
}

/// Decodes a manifest payload.
pub fn decode_manifest(payload: &[u8], file: &str) -> Result<Manifest> {
    Manifest::decode(payload, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(oid: u64, t: i64, x: f64, y: f64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x,
            y,
        }
    }

    /// The unframed payload `encode` writes.
    fn payload(encode: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        encode(&mut e);
        e.into_bytes()
    }

    #[test]
    fn framing_in_place_matches_frame() {
        let mut e = Enc::framed();
        e.u64(7);
        e.str("seven");
        let inner = payload(|e| {
            e.u64(7);
            e.str("seven");
        });
        assert_eq!(e.into_framed(), frame(&inner));

        let mut e = Enc::file(FileKind::Manifest);
        e.u8(1);
        let mut want = header(FileKind::Manifest);
        want.extend_from_slice(&frame(&[1]));
        assert_eq!(e.into_framed(), want);

        let sized = payload(|e| e.sized(|e| e.str("ab")));
        assert_eq!(sized, payload(|e| e.bytes(&payload(|e| e.str("ab")))));
    }

    #[test]
    fn single_frame_strictness() {
        let framed = frame(b"payload");
        assert_eq!(read_single_frame(&framed, "w").unwrap(), b"payload");

        let mut trailing = framed.clone();
        trailing.push(0);
        let err = read_single_frame(&trailing, "w").unwrap_err();
        assert!(err.to_string().contains("1 bytes after the frame"), "{err}");

        let err = read_single_frame(&[], "w").unwrap_err();
        assert!(err.to_string().contains("missing frame"), "{err}");

        let err = read_single_frame(&framed[..framed.len() - 2], "w").unwrap_err();
        assert!(err.to_string().contains("torn frame"), "{err}");
        assert!(err.to_string().contains("\"w\""), "{err}");
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_level_aggregate_and_measure_code_roundtrips() {
        let one = |code: &dyn Fn(&mut Enc)| payload(code);
        for level in [
            TimeLevel::TimeId,
            TimeLevel::Minute,
            TimeLevel::Hour,
            TimeLevel::Day,
            TimeLevel::Month,
            TimeLevel::Year,
            TimeLevel::TimeOfDayLevel,
            TimeLevel::DayOfWeekLevel,
            TimeLevel::TypeOfDayLevel,
            TimeLevel::All,
        ] {
            let bytes = one(&|e| enc_level(e, &level));
            assert_eq!(dec_level(&mut Dec::new(&bytes, "t")).unwrap(), level);
        }
        for f in [AggFn::Min, AggFn::Max, AggFn::Count, AggFn::Sum, AggFn::Avg] {
            let bytes = one(&|e| enc_agg(e, &f));
            assert_eq!(dec_agg(&mut Dec::new(&bytes, "t")).unwrap(), f);
        }
        for m in [Measure::X, Measure::Y] {
            let bytes = one(&|e| enc_measure(e, &m));
            assert_eq!(dec_measure(&mut Dec::new(&bytes, "t")).unwrap(), m);
        }
        assert!(dec_level(&mut Dec::new(&[10], "t")).is_err());
        assert!(dec_agg(&mut Dec::new(&[5], "t")).is_err());
        assert!(dec_measure(&mut Dec::new(&[2], "t")).is_err());
    }

    #[test]
    fn optional_box_roundtrips() {
        for region in [None, Some(BBox::new(0.5, -1.5, 3.25, 0.75))] {
            let mut e = Enc::new();
            e.opt(region.as_ref(), enc_bbox);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes, "t");
            assert_eq!(d.opt("region", dec_bbox).unwrap(), region);
            d.finish().unwrap();
        }
        // An inverted (empty) box is data, not a decode panic.
        let mut e = Enc::new();
        enc_bbox(&mut e, &BBox::empty());
        let bytes = e.into_bytes();
        assert!(dec_bbox(&mut Dec::new(&bytes, "t")).unwrap().is_empty());
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let f = frame(b"hello");
        match read_frame(&f) {
            FrameRead::Ok { payload, rest } => {
                assert_eq!(payload, b"hello");
                assert!(rest.is_empty());
            }
            _ => panic!("expected Ok"),
        }
        // Chop one byte off: torn.
        assert!(matches!(
            read_frame(&f[..f.len() - 1]),
            FrameRead::Torn { .. }
        ));
        // Flip a payload bit: checksum catches it.
        let mut bad = f.clone();
        bad[5] ^= 0x01;
        assert!(matches!(read_frame(&bad), FrameRead::Torn { .. }));
    }

    #[test]
    fn header_rejects_wrong_kind_and_version() {
        let h = header(FileKind::Wal);
        assert!(check_header(&h, FileKind::Wal, "t").is_ok());
        assert!(check_header(&h, FileKind::Segment, "t").is_err());
        let mut old = h.clone();
        old[9] = 0xFF;
        assert!(check_header(&old, FileKind::Wal, "t").is_err());
        // Version 2 files (segments with a baked zone map) are refused.
        old[9..11].copy_from_slice(&2u16.to_le_bytes());
        let err = check_header(&old, FileKind::Wal, "t").unwrap_err();
        assert!(err.to_string().contains("format version 2"), "{err}");
    }

    #[test]
    fn segment_roundtrip_is_bit_identical() {
        let raw = vec![
            rec(2, 100, 5.25, -5.5),
            rec(1, 50, 0.1, 0.2),
            rec(1, 10, 1.0, 1.0),
        ];
        let mut ingest =
            gisolap_stream::StreamIngest::new(gisolap_stream::StreamConfig::new(0, 3600).unwrap())
                .unwrap();
        ingest.ingest(&raw);
        ingest.finish();
        let seg = &ingest.segments()[0];
        let decoded = decode_segment(&encode_segment(seg), "t").unwrap();
        assert_eq!(decoded.meta(), seg.meta());
        assert_eq!(decoded.records(), seg.records());
        assert_eq!(decoded.partials(), seg.partials());
    }

    #[test]
    fn wal_entry_and_tail_roundtrip() {
        let op = ReplayOp::Batch(vec![rec(1, 7, 2.0, 3.0)]);
        let (seq, got) = decode_wal_entry(&encode_wal_entry(42, &op), "t").unwrap();
        assert_eq!(seq, 42);
        assert_eq!(got, op);
        let (seq, got) = decode_wal_entry(&encode_wal_entry(43, &ReplayOp::Finish), "t").unwrap();
        assert_eq!((seq, got), (43, ReplayOp::Finish));

        let tail = TailState {
            max_event_time: Some(TimeId(99)),
            sealed_before: -3,
            records_ingested: 17,
            segments_sealed: 2,
            dead_letters: vec![rec(9, -50, 0.0, 0.0)],
            buffers: vec![(0, vec![rec(1, 7, 2.0, 3.0), rec(1, 7, 4.0, 5.0)])],
        };
        assert_eq!(decode_tail(&encode_tail(&tail), "t").unwrap(), tail);
    }

    #[test]
    fn manifest_roundtrip_and_overlap_check() {
        let m = Manifest {
            gen: 3,
            lateness_seconds: 300,
            segment_seconds: 3600,
            segments: vec![
                SegmentEntry {
                    lo: -1,
                    hi: 0,
                    file: "seg--1-0.seg".to_string(),
                },
                SegmentEntry {
                    lo: 2,
                    hi: 2,
                    file: "seg-2-2.seg".to_string(),
                },
            ],
            checkpoint: Some("ck-3.ck".to_string()),
            checkpoint_deltas: vec!["ckd-4.ckd".to_string(), "ckd-5.ckd".to_string()],
            wal: "wal-3.log".to_string(),
            wal_start_seq: 12,
        };
        let bytes = |m: &Manifest| payload(|e| m.encode_to(e));
        assert_eq!(decode_manifest(&bytes(&m), "t").unwrap(), m);

        let mut bad = m.clone();
        bad.segments[1].lo = 0;
        let err = decode_manifest(&bytes(&bad), "t").unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");

        // A delta chain without a base checkpoint is corruption.
        let mut orphaned = m.clone();
        orphaned.checkpoint = None;
        let err = decode_manifest(&bytes(&orphaned), "t").unwrap_err();
        assert!(err.to_string().contains("without a base"), "{err}");
    }

    #[test]
    fn tail_delta_diff_apply_roundtrip() {
        let base = TailState {
            max_event_time: Some(TimeId(50)),
            sealed_before: 0,
            records_ingested: 3,
            segments_sealed: 0,
            dead_letters: vec![rec(9, -50, 0.0, 0.0)],
            buffers: vec![
                (0, vec![rec(1, 7, 2.0, 3.0)]),
                (1, vec![rec(1, 3700, 4.0, 5.0)]),
            ],
        };
        let next = TailState {
            max_event_time: Some(TimeId(7300)),
            sealed_before: 1,
            records_ingested: 6,
            segments_sealed: 1,
            dead_letters: vec![rec(9, -50, 0.0, 0.0), rec(8, -1, 1.0, 1.0)],
            buffers: vec![
                // Partition 0 sealed away; 1 grew; 2 appeared.
                (1, vec![rec(1, 3700, 4.0, 5.0), rec(2, 3800, 6.0, 7.0)]),
                (2, vec![rec(3, 7300, 8.0, 9.0)]),
            ],
        };
        let delta = TailDelta::diff(&base, &next);
        assert_eq!(delta.removed_buffers, vec![0]);
        assert_eq!(delta.changed_buffers.len(), 2);
        assert_eq!(delta.new_dead_letters.len(), 1);

        // Wire round-trip is exact.
        let decoded = decode_tail_delta(&payload(|e| delta.encode_to(e)), "t").unwrap();
        assert_eq!(decoded, delta);

        // Applying the decoded delta onto the base reproduces `next`.
        let mut rebuilt = base.clone();
        decoded.apply(&mut rebuilt);
        assert_eq!(rebuilt, next);
    }

    #[test]
    fn tail_delta_of_identical_states_is_small() {
        let tail = TailState {
            max_event_time: None,
            sealed_before: i64::MIN,
            records_ingested: 0,
            segments_sealed: 0,
            dead_letters: Vec::new(),
            buffers: vec![(0, vec![rec(1, 7, 2.0, 3.0)])],
        };
        let delta = TailDelta::diff(&tail, &tail);
        assert!(delta.new_dead_letters.is_empty());
        assert!(delta.changed_buffers.is_empty());
        assert!(delta.removed_buffers.is_empty());
        let mut rebuilt = tail.clone();
        delta.apply(&mut rebuilt);
        assert_eq!(rebuilt, tail);
    }
}
