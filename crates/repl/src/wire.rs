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
//! Requests and reply heads are declared once with
//! `gisolap_store::messages!`. WAL entries ship as the exact on-disk
//! framing (`len | payload | crc32`), so a follower validates each entry
//! independently: a byte flip or truncation inside one entry flags that
//! entry corrupt without poisoning the ones before it, and the reply
//! head (sequence metadata, counts) carries its own checksum so lag
//! accounting can never be driven by mangled bytes. That trailer of
//! per-entry frames is the one layout written out by hand here.

use gisolap_store::codec::{
    decode_segment, decode_tail, decode_wal_entry, enc_segment, enc_tail, enc_wal_entry,
    read_frame, read_single_frame, Dec, Enc, FrameRead,
};
use gisolap_store::framing;
use gisolap_store::wal::WalEntry;
use gisolap_store::{messages, Result, StoreError};
use gisolap_stream::{ReplayOp, Segment, TailState};

/// Attribution label for wire-level decode errors.
const WIRE: &str = "repl-wire";

fn wire_corrupt(detail: impl Into<String>) -> StoreError {
    framing::wire_corrupt(WIRE, detail)
}

messages! {
    /// What a follower asks its leader.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Request ["request tag"] {
        /// WAL entries from `from_seq` onward, at most `max` of them.
        1 => Frames {
            /// The follower's cursor: first sequence number it still needs.
            from_seq: u64 = u64,
            /// Entry cap per reply (`u32::MAX` for unbounded).
            max: u32 = u32,
            /// Highest leader epoch the follower has seen. A leader served
            /// a request carrying an epoch above its own has been deposed
            /// and must answer [`StoreError::NotLeader`] instead of frames
            /// — the request itself fences it.
            epoch: u64 = u64,
        },
        /// A full state transfer (segments + tail + high-water mark).
        2 => Snapshot,
    }
}

/// Decodes a request frame (leader side), strictly. Any structural
/// damage is [`StoreError::Corrupt`]; the leader reports it and serves
/// nothing.
pub(crate) fn read_request(bytes: &[u8]) -> Result<Request> {
    Request::decode(read_single_frame(bytes, WIRE)?, WIRE)
}

/// The smallest framed WAL entry on the wire: 4-byte length prefix +
/// minimal payload (8-byte seq, 1-byte op tag) + 4-byte CRC. Any head
/// declaring more entries than `remaining / MIN_ENTRY_FRAME` is lying.
const MIN_ENTRY_FRAME: usize = 4 + 9 + 4;

/// The smallest length-prefixed segment inside a snapshot reply: 4-byte
/// prefix + partition + two empty sequences (records, cells) — exactly
/// what an empty segment costs, so no legitimate reply is refused.
const MIN_SEGMENT_BYTES: usize = 4 + 8 + 2 * 8;

/// Segments as a `u32` count, then each segment payload behind its
/// `u32` byte length.
fn enc_segments(e: &mut Enc, segments: &[Segment]) {
    e.u32(segments.len() as u32);
    for seg in segments {
        e.sized(|e| enc_segment(e, seg));
    }
}

fn dec_segments(d: &mut Dec<'_>) -> Result<Vec<Segment>> {
    let n = u64::from(d.u32()?);
    let n = d.count(n, MIN_SEGMENT_BYTES, "segments")?;
    let label = d.label();
    (0..n).map(|_| decode_segment(d.bytes()?, label)).collect()
}

/// The tail-state payload behind its `u32` byte length.
fn enc_tail_bytes(e: &mut Enc, tail: &TailState) {
    e.sized(|e| enc_tail(e, tail));
}

fn dec_tail_bytes(d: &mut Dec<'_>) -> Result<TailState> {
    let label = d.label();
    decode_tail(d.bytes()?, label)
}

messages! {
    /// A decoded full state transfer.
    #[derive(Debug)]
    pub struct SnapshotTransfer {
        /// The epoch the answering leader holds (same fencing rules as
        /// [`FrameBatch::epoch`]).
        epoch: u64 = u64,
        /// Stream lateness bound the leader runs under.
        lateness_seconds: i64 = i64,
        /// Stream partition width the leader runs under.
        segment_seconds: i64 = i64,
        /// First sequence number *after* the snapshot: the follower's new
        /// cursor.
        next_seq: u64 = u64,
        /// Sealed segments, ascending by partition.
        segments: Vec<Segment> = [enc_segments, dec_segments],
        /// The leader's tail state at transfer time.
        tail: TailState = [enc_tail_bytes, dec_tail_bytes],
    }
}

messages! {
    /// The CRC-framed head every leader reply opens with. A `Frames`
    /// head is followed by `count` WAL entries in frames of their own;
    /// the other two heads are the whole reply.
    #[derive(Debug)]
    pub enum ReplyHead ["reply tag"] {
        /// WAL entries follow the head.
        1 => Frames {
            /// The epoch the answering leader holds.
            epoch: u64 = u64,
            /// Entries that follow the head.
            count: u32 = u32,
            /// The leader's next sequence number at reply time.
            leader_next_seq: u64 = u64,
            /// Oldest sequence number the leader can still serve from WALs.
            retained_from: u64 = u64,
        },
        /// The cursor predates retention; a snapshot transfer is needed.
        2 => Compacted {
            /// The epoch the answering leader holds.
            epoch: u64 = u64,
            /// Oldest sequence number still servable from WAL files.
            retained_from: u64 = u64,
            /// The leader's next sequence number.
            leader_next_seq: u64 = u64,
        },
        /// A full state transfer, one checksum for all of it.
        3 => Snapshot(transfer: SnapshotTransfer = (msg SnapshotTransfer)),
    }
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

/// Encodes a frames reply: the CRC-framed head, then one on-disk-format
/// frame per WAL entry, all in one buffer. Fails (rather than silently
/// truncating the count) when the batch exceeds `u32::MAX` entries.
pub fn encode_frames_reply(
    epoch: u64,
    entries: &[WalEntry],
    leader_next_seq: u64,
    retained_from: u64,
) -> Result<Vec<u8>> {
    let head = ReplyHead::Frames {
        epoch,
        count: batch_count(entries.len())?,
        leader_next_seq,
        retained_from,
    };
    let mut e = Enc::framed();
    head.encode_to(&mut e);
    e.end_frame();
    for entry in entries {
        e.begin_frame();
        enc_wal_entry(&mut e, entry.seq, &entry.op);
        e.end_frame();
    }
    Ok(e.into_bytes())
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
    let (epoch, count, leader_next_seq, retained_from) = match ReplyHead::decode(payload, WIRE)? {
        ReplyHead::Frames {
            epoch,
            count,
            leader_next_seq,
            retained_from,
        } => (epoch, count, leader_next_seq, retained_from),
        ReplyHead::Compacted {
            epoch,
            retained_from,
            leader_next_seq,
        } => {
            return Ok(Reply::Compacted {
                epoch,
                retained_from,
                leader_next_seq,
            })
        }
        ReplyHead::Snapshot(transfer) => return Ok(Reply::Snapshot(transfer)),
    };
    // A head declaring more entries than the bytes after it could frame
    // is structural damage (a lying head), not a truncated tail.
    let count = Dec::new(rest, WIRE).count(count.into(), MIN_ENTRY_FRAME, "entries")?;
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
            // Announced entries that never arrived intact: the stream
            // is damaged from here on.
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

#[cfg(test)]
mod tests {
    use super::*;
    use gisolap_olap::time::TimeId;
    use gisolap_store::codec::{encode_segment, encode_tail};
    use gisolap_traj::{ObjectId, Record};

    fn rec(oid: u64, t: i64) -> Record {
        Record {
            oid: ObjectId(oid),
            t: TimeId(t),
            x: 1.0,
            y: 2.0,
        }
    }

    fn snapshot_reply(
        epoch: u64,
        segments: &[Segment],
        tail: &TailState,
        lateness_seconds: i64,
        segment_seconds: i64,
        next_seq: u64,
    ) -> Vec<u8> {
        ReplyHead::Snapshot(SnapshotTransfer {
            epoch,
            lateness_seconds,
            segment_seconds,
            next_seq,
            segments: segments.to_vec(),
            tail: tail.clone(),
        })
        .encode()
    }

    fn frames_head(count: u32) -> Vec<u8> {
        ReplyHead::Frames {
            epoch: 11,
            count,
            leader_next_seq: 6,
            retained_from: 2,
        }
        .encode()
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
            assert_eq!(read_request(&req.encode()).unwrap(), req);
        }
        assert!(read_request(b"junk").is_err());
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
        let bytes = snapshot_reply(4, ingest.segments(), &ingest.tail_state(), 0, 3600, 9);
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
        let head = ReplyHead::Compacted {
            epoch: 2,
            retained_from: 17,
            leader_next_seq: 99,
        };
        match decode_reply(&head.encode()).unwrap() {
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
        let err = decode_reply(&frames_head(1_000_000)).unwrap_err();
        assert!(
            err.to_string().contains("declares 1000000 entries"),
            "want the fail-fast count error, got {err}"
        );
    }

    /// Same for snapshots: a declared segment count larger than the
    /// remaining payload could hold is rejected before any allocation.
    #[test]
    fn implausible_snapshot_segment_count_fails_fast() {
        let mut e = Enc::framed();
        e.u8(ReplyHead::TAGS[2]); // snapshot
        e.u64(1); // epoch
        e.i64(0);
        e.i64(3600);
        e.u64(5);
        e.u32(u32::MAX);
        let bytes = e.into_framed();
        let err = decode_reply(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("declares 4294967295 segments"),
            "want the fail-fast segment-count error, got {err}"
        );
    }

    /// A snapshot reply `(epoch 1, lateness 0, 3600 s segments, next
    /// seq 5)` over `segments`, declaring `declared` of them.
    fn snapshot_declaring(declared: u32, segments: &[Segment], tail: &TailState) -> Vec<u8> {
        let mut e = Enc::framed();
        e.u8(ReplyHead::TAGS[2]); // snapshot
        e.u64(1);
        e.i64(0);
        e.i64(3600);
        e.u64(5);
        e.u32(declared);
        for seg in segments {
            e.bytes(&encode_segment(seg));
        }
        e.bytes(&encode_tail(tail));
        e.into_framed()
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
        assert_eq!(bytes, snapshot_reply(1, &empty, &tail, 0, 3600, 5));
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
                let mut bytes = frames_head(count);
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
                    snapshot_reply(4, ingest.segments(), &ingest.tail_state(), 0, 3600, 9);
                let idx = idx % bytes.len();
                bytes[idx] ^= 1 << bit;
                prop_assert!(decode_reply(&bytes).is_err());
            }
        }
    }
}
