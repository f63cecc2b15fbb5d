//! The replication wire format, built on the store codec's CRC32
//! frames so every corruption the transport can inject is *detected*,
//! never silently applied.
//!
//! ```text
//! request          := frame(tag … fields)          // one CRC frame
//! frames reply     := frame(head) wal_frame*       // head CRC-protected,
//!                                                  // one CRC per entry
//! compacted reply  := frame(head)
//! snapshot reply   := frame(everything)            // one CRC for all
//! ```
//!
//! WAL entries ship as the exact on-disk framing
//! (`len | payload | crc32`), so a follower validates each entry
//! independently: a byte flip or truncation inside one entry flags that
//! entry corrupt without poisoning the ones before it, and the reply
//! head (sequence metadata, counts) carries its own checksum so lag
//! accounting can never be driven by mangled bytes.

use gisolap_store::codec::{
    decode_segment, decode_tail, decode_wal_entry, encode_segment, encode_tail, encode_wal_entry,
    frame, read_frame, Dec, Enc, FrameRead,
};
use gisolap_store::framing::{self, decode_single_frame};
use gisolap_store::wal::WalEntry;
use gisolap_store::{Result, StoreError};
use gisolap_stream::{ReplayOp, Segment, TailState};

/// Attribution label for wire-level decode errors.
const WIRE: &str = "repl-wire";

fn wire_corrupt(detail: impl Into<String>) -> StoreError {
    framing::wire_corrupt(WIRE, detail)
}

/// What a follower asks its leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// WAL entries from `from_seq` onward, at most `max` of them.
    Frames {
        /// The follower's cursor: first sequence number it still needs.
        from_seq: u64,
        /// Entry cap per reply (`u32::MAX` for unbounded).
        max: u32,
        /// Highest leader epoch the follower has seen. A leader served
        /// a request carrying an epoch above its own has been deposed
        /// and must answer [`StoreError::NotLeader`] instead of frames
        /// — the request itself fences it.
        epoch: u64,
    },
    /// A full state transfer (segments + tail + high-water mark).
    Snapshot,
}

const REQ_FRAMES: u8 = 1;
const REQ_SNAPSHOT: u8 = 2;
const REPLY_FRAMES: u8 = 1;
const REPLY_COMPACTED: u8 = 2;
const REPLY_SNAPSHOT: u8 = 3;

/// Encodes a request as one CRC frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    match req {
        Request::Frames {
            from_seq,
            max,
            epoch,
        } => {
            e.u8(REQ_FRAMES);
            e.u64(*from_seq);
            e.u32(*max);
            e.u64(*epoch);
        }
        Request::Snapshot => e.u8(REQ_SNAPSHOT),
    }
    frame(&e.into_bytes())
}

/// Decodes a request (leader side). Any structural damage is
/// [`StoreError::Corrupt`]; the leader reports it and serves nothing.
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    let payload = decode_single_frame(bytes, WIRE, "request")?;
    let mut d = Dec::new(payload, WIRE);
    let req = match d.u8()? {
        REQ_FRAMES => Request::Frames {
            from_seq: d.u64()?,
            max: d.u32()?,
            epoch: d.u64()?,
        },
        REQ_SNAPSHOT => Request::Snapshot,
        tag => return Err(wire_corrupt(format!("unknown request tag {tag}"))),
    };
    d.finish()?;
    Ok(req)
}

/// A decoded batch of WAL entries from a frames reply. Individually
/// corrupt entries are *counted and dropped* (with everything after
/// them, since a damaged stream cannot be resynchronized mid-reply);
/// the entries that survive are checksum-valid.
#[derive(Debug)]
pub struct FrameBatch {
    /// The epoch the answering leader holds; followers reject batches
    /// below the highest epoch they have seen (a deposed leader's
    /// writes), and adopt higher ones.
    pub epoch: u64,
    /// Checksum-valid `(seq, op)` entries, in shipped order.
    pub entries: Vec<(u64, ReplayOp)>,
    /// Entries flagged corrupt (torn, flipped, or undecodable).
    pub corrupt_frames: u64,
    /// The leader's next sequence number at reply time (lag source).
    pub leader_next_seq: u64,
    /// Oldest sequence number the leader can still serve from WALs.
    pub retained_from: u64,
}

/// A decoded full state transfer.
#[derive(Debug)]
pub struct SnapshotTransfer {
    /// The epoch the answering leader holds (same fencing rules as
    /// [`FrameBatch::epoch`]).
    pub epoch: u64,
    /// Stream lateness bound the leader runs under.
    pub lateness_seconds: i64,
    /// Stream partition width the leader runs under.
    pub segment_seconds: i64,
    /// Sealed segments, ascending by partition.
    pub segments: Vec<Segment>,
    /// The leader's tail state at transfer time.
    pub tail: TailState,
    /// First sequence number *after* the snapshot: the follower's new
    /// cursor.
    pub next_seq: u64,
}

/// What a leader reply decodes to.
#[derive(Debug)]
pub enum Reply {
    /// WAL entries (possibly empty when the follower is caught up).
    Frames(FrameBatch),
    /// The cursor predates retention; a snapshot transfer is needed.
    Compacted {
        /// The epoch the answering leader holds.
        epoch: u64,
        /// Oldest sequence number still servable from WAL files.
        retained_from: u64,
        /// The leader's next sequence number.
        leader_next_seq: u64,
    },
    /// A full state transfer.
    Snapshot(SnapshotTransfer),
}

/// The smallest framed WAL entry on the wire: 4-byte length prefix +
/// minimal payload (8-byte seq, 1-byte op tag) + 4-byte CRC. Any head
/// declaring more entries than `remaining / MIN_ENTRY_FRAME` is lying.
const MIN_ENTRY_FRAME: usize = 4 + 9 + 4;

/// The smallest length-prefixed segment inside a snapshot reply: 4-byte
/// prefix + partition + two empty sequences (records, cells) — exactly
/// what an empty segment costs, so no legitimate reply is refused.
const MIN_SEGMENT_BYTES: usize = 4 + 8 + 2 * 8;

/// The head's count field for a batch of `len` entries, or an error
/// when `len` exceeds `u32::MAX` (the old code did `len as u32` here,
/// silently truncating oversized batches into a corrupt frame). Bigger
/// batches must be chunked into multiple replies.
fn batch_count(len: usize) -> Result<u32> {
    u32::try_from(len).map_err(|_| {
        StoreError::BadConfig(format!(
            "frames reply batch of {len} entries exceeds the u32 count field; chunk it"
        ))
    })
}

/// Encodes a frames reply: CRC-framed head, then one on-disk-format
/// frame per WAL entry. Fails (rather than silently truncating the
/// count) when the batch exceeds `u32::MAX` entries.
pub fn encode_frames_reply(
    epoch: u64,
    entries: &[WalEntry],
    leader_next_seq: u64,
    retained_from: u64,
) -> Result<Vec<u8>> {
    let count = batch_count(entries.len())?;
    let mut head = Enc::new();
    head.u8(REPLY_FRAMES);
    head.u64(epoch);
    head.u32(count);
    head.u64(leader_next_seq);
    head.u64(retained_from);
    let mut out = frame(&head.into_bytes());
    for entry in entries {
        out.extend_from_slice(&frame(&encode_wal_entry(entry.seq, &entry.op)));
    }
    Ok(out)
}

/// Encodes a compacted reply (cursor older than retention).
pub fn encode_compacted_reply(epoch: u64, retained_from: u64, leader_next_seq: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REPLY_COMPACTED);
    e.u64(epoch);
    e.u64(retained_from);
    e.u64(leader_next_seq);
    frame(&e.into_bytes())
}

/// Encodes a snapshot reply as one frame, so a single checksum covers
/// the entire transferred state.
pub fn encode_snapshot_reply(
    epoch: u64,
    segments: &[Segment],
    tail: &TailState,
    lateness_seconds: i64,
    segment_seconds: i64,
    next_seq: u64,
) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(REPLY_SNAPSHOT);
    e.u64(epoch);
    e.i64(lateness_seconds);
    e.i64(segment_seconds);
    e.u64(next_seq);
    e.u32(segments.len() as u32);
    for seg in segments {
        e.bytes(&encode_segment(seg));
    }
    e.bytes(&encode_tail(tail));
    frame(&e.into_bytes())
}

/// Decodes a reply (follower side). The head frame must be intact
/// (damage there is an error — retry); damage *inside* a frames reply
/// is tolerated per entry and surfaced via
/// [`FrameBatch::corrupt_frames`].
pub fn decode_reply(bytes: &[u8]) -> Result<Reply> {
    let (payload, mut rest) = match read_frame(bytes) {
        FrameRead::Ok { payload, rest } => (payload, rest),
        FrameRead::End => return Err(wire_corrupt("empty reply")),
        FrameRead::Torn { detail } => {
            return Err(wire_corrupt(format!("torn reply head: {detail}")))
        }
    };
    let mut d = Dec::new(payload, WIRE);
    match d.u8()? {
        REPLY_FRAMES => {
            let epoch = d.u64()?;
            let count = u64::from(d.u32()?);
            let leader_next_seq = d.u64()?;
            let retained_from = d.u64()?;
            d.finish()?;
            // A head declaring more entries than the bytes after it
            // could frame is structural damage (a lying head), not a
            // truncated tail.
            let count = Dec::new(rest, WIRE).count(count, MIN_ENTRY_FRAME, "entries")?;
            let mut entries = Vec::with_capacity(count);
            let mut corrupt_frames = 0u64;
            for _ in 0..count {
                match read_frame(rest) {
                    FrameRead::Ok { payload, rest: r } => {
                        match decode_wal_entry(payload, WIRE) {
                            Ok((seq, op)) => entries.push((seq, op)),
                            Err(_) => {
                                corrupt_frames += 1;
                                break;
                            }
                        }
                        rest = r;
                    }
                    // Announced entries that never arrived intact: the
                    // stream is damaged from here on.
                    FrameRead::End | FrameRead::Torn { .. } => {
                        corrupt_frames += 1;
                        break;
                    }
                }
            }
            Ok(Reply::Frames(FrameBatch {
                epoch,
                entries,
                corrupt_frames,
                leader_next_seq,
                retained_from,
            }))
        }
        REPLY_COMPACTED => {
            let epoch = d.u64()?;
            let retained_from = d.u64()?;
            let leader_next_seq = d.u64()?;
            d.finish()?;
            Ok(Reply::Compacted {
                epoch,
                retained_from,
                leader_next_seq,
            })
        }
        REPLY_SNAPSHOT => {
            let epoch = d.u64()?;
            let lateness_seconds = d.i64()?;
            let segment_seconds = d.i64()?;
            let next_seq = d.u64()?;
            let n = u64::from(d.u32()?);
            let n = d.count(n, MIN_SEGMENT_BYTES, "segments")?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push(decode_segment(d.bytes()?, WIRE)?);
            }
            let tail = decode_tail(d.bytes()?, WIRE)?;
            d.finish()?;
            Ok(Reply::Snapshot(SnapshotTransfer {
                epoch,
                lateness_seconds,
                segment_seconds,
                segments,
                tail,
                next_seq,
            }))
        }
        tag => Err(wire_corrupt(format!("unknown reply tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::time::TimeId;
    use gisolap_traj::{ObjectId, Record};

    fn rec(oid: u64, t: i64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x: 1.0,
            y: 2.0,
        }
    }

    fn entries() -> Vec<WalEntry> {
        vec![
            WalEntry {
                seq: 4,
                op: ReplayOp::Batch(vec![rec(1, 10), rec(2, 20)]),
            },
            WalEntry {
                seq: 5,
                op: ReplayOp::Finish,
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Frames {
                from_seq: 42,
                max: 7,
                epoch: 3,
            },
            Request::Snapshot,
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        assert!(decode_request(b"junk").is_err());
    }

    #[test]
    fn frames_reply_roundtrip() {
        let bytes = encode_frames_reply(11, &entries(), 6, 2).unwrap();
        match decode_reply(&bytes).unwrap() {
            Reply::Frames(b) => {
                assert_eq!(b.epoch, 11);
                assert_eq!(b.entries.len(), 2);
                assert_eq!(b.entries[0].0, 4);
                assert_eq!(b.entries[1].1, ReplayOp::Finish);
                assert_eq!(b.corrupt_frames, 0);
                assert_eq!((b.leader_next_seq, b.retained_from), (6, 2));
            }
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn flipped_entry_is_flagged_not_applied() {
        let mut bytes = encode_frames_reply(11, &entries(), 6, 2).unwrap();
        // Flip a byte inside the *second* WAL frame's payload: the first
        // entry must survive, the second must be flagged.
        let idx = bytes.len() - 3;
        bytes[idx] ^= 0x40;
        match decode_reply(&bytes).unwrap() {
            Reply::Frames(b) => {
                assert_eq!(b.entries.len(), 1);
                assert_eq!(b.corrupt_frames, 1);
            }
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn flipped_head_is_an_error() {
        let mut bytes = encode_frames_reply(11, &entries(), 6, 2).unwrap();
        bytes[5] ^= 0x01; // inside the head frame payload
        assert!(decode_reply(&bytes).is_err());
    }

    #[test]
    fn truncated_reply_flags_missing_entries() {
        let bytes = encode_frames_reply(11, &entries(), 6, 2).unwrap();
        let cut = &bytes[..bytes.len() - 10];
        match decode_reply(cut).unwrap() {
            Reply::Frames(b) => {
                assert_eq!(b.entries.len(), 1);
                assert_eq!(b.corrupt_frames, 1);
            }
            other => panic!("expected frames, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_roundtrip_and_flip_detection() {
        let mut ingest =
            gisolap_stream::StreamIngest::new(gisolap_stream::StreamConfig::new(0, 3600).unwrap())
                .unwrap();
        ingest.ingest(&[rec(1, 100), rec(2, 4000), rec(1, 8000)]);
        let bytes = encode_snapshot_reply(4, ingest.segments(), &ingest.tail_state(), 0, 3600, 9);
        match decode_reply(&bytes).unwrap() {
            Reply::Snapshot(s) => {
                assert_eq!(s.epoch, 4);
                assert_eq!(s.segments.len(), ingest.segments().len());
                assert_eq!(s.tail, ingest.tail_state());
                assert_eq!(s.next_seq, 9);
                assert_eq!((s.lateness_seconds, s.segment_seconds), (0, 3600));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // A single flipped byte anywhere fails the envelope checksum.
        for idx in [10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x80;
            assert!(decode_reply(&bad).is_err(), "flip at {idx} undetected");
        }
    }

    #[test]
    fn compacted_roundtrip() {
        match decode_reply(&encode_compacted_reply(2, 17, 99)).unwrap() {
            Reply::Compacted {
                epoch,
                retained_from,
                leader_next_seq,
            } => assert_eq!((epoch, retained_from, leader_next_seq), (2, 17, 99)),
            other => panic!("expected compacted, got {other:?}"),
        }
    }

    /// The u32 boundary of the head's count field: the largest batch
    /// that fits encodes, one more is an explicit error instead of the
    /// old silent `len as u32` wrap-around.
    #[test]
    fn batch_count_guards_the_u32_boundary() {
        assert_eq!(batch_count(0).unwrap(), 0);
        assert_eq!(batch_count(u32::MAX as usize).unwrap(), u32::MAX);
        let err = batch_count(u32::MAX as usize + 1).unwrap_err();
        assert!(
            matches!(&err, StoreError::BadConfig(msg) if msg.contains("4294967296")),
            "want BadConfig naming the batch size, got {err:?}"
        );
    }

    /// A CRC-valid head whose declared entry count cannot fit the bytes
    /// that follow fails fast with a distinct error (no loop over
    /// millions of phantom entries).
    #[test]
    fn implausible_frames_count_fails_fast() {
        let mut head = Enc::new();
        head.u8(REPLY_FRAMES);
        head.u64(1); // epoch
        head.u32(1_000_000);
        head.u64(9);
        head.u64(0);
        let bytes = frame(&head.into_bytes());
        let err = decode_reply(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("declares 1000000 entries"),
            "want the fail-fast count error, got {err}"
        );
    }

    /// Same for snapshots: a declared segment count larger than the
    /// remaining payload could hold is rejected before any allocation.
    #[test]
    fn implausible_snapshot_segment_count_fails_fast() {
        let mut e = Enc::new();
        e.u8(REPLY_SNAPSHOT);
        e.u64(1); // epoch
        e.i64(0);
        e.i64(3600);
        e.u64(5);
        e.u32(u32::MAX);
        let bytes = frame(&e.into_bytes());
        let err = decode_reply(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("declares 4294967295 segments"),
            "want the fail-fast segment-count error, got {err}"
        );
    }

    /// A snapshot reply `(epoch 1, lateness 0, 3600 s segments, next
    /// seq 5)` over `segments`, declaring `declared` of them.
    fn snapshot_declaring(declared: u32, segments: &[Segment], tail: &TailState) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(REPLY_SNAPSHOT);
        e.u64(1);
        e.i64(0);
        e.i64(3600);
        e.u64(5);
        e.u32(declared);
        for seg in segments {
            e.bytes(&encode_segment(seg));
        }
        e.bytes(&encode_tail(tail));
        frame(&e.into_bytes())
    }

    /// The bound is what an empty segment costs on the wire: a reply of
    /// nothing but empty segments decodes, however many there are, and
    /// declaring more segments than were sent is refused.
    #[test]
    fn snapshot_of_empty_segments_sits_at_the_bound() {
        let empty: Vec<Segment> = (0..64)
            .map(|p| Segment::from_parts(p, Vec::new(), Vec::new()).unwrap())
            .collect();
        assert_eq!(4 + encode_segment(&empty[0]).len(), MIN_SEGMENT_BYTES);
        let tail = TailState {
            max_event_time: None,
            sealed_before: 64,
            records_ingested: 0,
            segments_sealed: 64,
            dead_letters: Vec::new(),
            buffers: Vec::new(),
        };
        let bytes = snapshot_declaring(64, &empty, &tail);
        assert_eq!(bytes, encode_snapshot_reply(1, &empty, &tail, 0, 3600, 5));
        match decode_reply(&bytes).unwrap() {
            Reply::Snapshot(s) => {
                assert_eq!(s.segments.len(), 64);
                assert!(s.segments.iter().all(|seg| seg.records().is_empty()));
                assert_eq!(s.tail, tail);
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // One more declared segment reads the tail as a segment and
        // then finds no tail; two more cannot fit the bytes at all.
        assert!(decode_reply(&snapshot_declaring(65, &empty, &tail)).is_err());
        let err = decode_reply(&snapshot_declaring(66, &empty, &tail)).unwrap_err();
        assert!(err.to_string().contains("declares 66 segments"), "{err}");
    }

    mod decode_proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Truncating a valid frames reply anywhere never panics:
            /// it either fails cleanly or yields a prefix of the
            /// entries with the missing ones flagged.
            #[test]
            fn truncated_frames_reply_decodes_or_errors(cut in 0usize..200) {
                let bytes = encode_frames_reply(11, &entries(), 6, 2).unwrap();
                let cut = cut.min(bytes.len());
                match decode_reply(&bytes[..bytes.len() - cut]) {
                    Ok(Reply::Frames(b)) => {
                        prop_assert!(b.entries.len() <= 2);
                        if cut > 0 {
                            prop_assert!(
                                b.entries.len() < 2 || b.corrupt_frames == 0
                            );
                        }
                    }
                    Ok(other) => prop_assert!(false, "wrong reply type {other:?}"),
                    Err(_) => {} // torn head / implausible count: fine
                }
            }

            /// Overwriting the head's count with an arbitrary value
            /// (CRC re-stamped, modelling a hostile sender) never
            /// panics and never loops: huge counts are rejected up
            /// front, plausible ones decode with missing entries
            /// flagged.
            #[test]
            fn oversized_declared_count_is_rejected(count in 3u32..u32::MAX) {
                let mut head = Enc::new();
                head.u8(REPLY_FRAMES);
                head.u64(11); // epoch
                head.u32(count);
                head.u64(6);
                head.u64(2);
                let mut bytes = frame(&head.into_bytes());
                let tail = encode_frames_reply(11, &entries(), 6, 2).unwrap();
                // Keep the 2 genuine entry frames, swap in our head.
                let entry_frames = match read_frame(&tail) {
                    FrameRead::Ok { rest, .. } => rest,
                    _ => panic!("valid reply must start with a head frame"),
                };
                bytes.extend_from_slice(entry_frames);
                match decode_reply(&bytes) {
                    Ok(Reply::Frames(b)) => {
                        // Plausible-but-wrong count: entries decode,
                        // the shortfall is flagged.
                        prop_assert_eq!(b.entries.len(), 2);
                        prop_assert_eq!(b.corrupt_frames, 1);
                    }
                    Ok(other) => prop_assert!(false, "wrong reply type {other:?}"),
                    Err(e) => prop_assert!(
                        e.to_string().contains("declares"),
                        "want the fail-fast error, got {}", e
                    ),
                }
            }

            /// Random byte flips anywhere in a snapshot reply are
            /// always *detected* — decode never panics and never
            /// returns a silently different snapshot.
            #[test]
            fn flipped_snapshot_bytes_never_pass(idx in 0usize..500, bit in 0u8..8) {
                let mut ingest = gisolap_stream::StreamIngest::new(
                    gisolap_stream::StreamConfig::new(0, 3600).unwrap(),
                )
                .unwrap();
                ingest.ingest(&[rec(1, 100), rec(2, 4000)]);
                let mut bytes =
                    encode_snapshot_reply(4, ingest.segments(), &ingest.tail_state(), 0, 3600, 9);
                let idx = idx % bytes.len();
                bytes[idx] ^= 1 << bit;
                prop_assert!(decode_reply(&bytes).is_err());
            }
        }
    }
}
