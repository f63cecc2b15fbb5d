//! Shared wire-framing plumbing for every protocol built on the store
//! codec's CRC32 frames — replication (`gisolap-repl`), serving
//! (`gisolap-serve`) and sharding (`gisolap-shard`) all speak
//! "one message = one `frame()`", and all need the same three pieces:
//!
//! * [`wire_corrupt`] — a [`StoreError::Corrupt`] attributed to a wire
//!   label instead of a file;
//! * [`decode_single_frame`] — the strict single-frame decode (exactly
//!   one frame, no trailing bytes, torn/empty mapped to `Corrupt`);
//! * [`read_message`] / [`write_message`] — the socket envelope: a
//!   capped length prefix ([`MAX_MESSAGE`]) so a mangled prefix can
//!   never drive a multi-gigabyte allocation, CRC checked before any
//!   payload byte is trusted.
//!
//! Before this module the single-frame decode and the corrupt-error
//! construction were duplicated per protocol crate; new wire formats
//! should build on these helpers instead of copying them again.

use std::io::{self, Read, Write};

use crate::codec::{crc32, read_frame, FrameRead};
use crate::{Result, StoreError};

/// Largest message a socket peer accepts: mirrors the codec's frame
/// cap, so a corrupt length prefix is rejected before allocation.
pub const MAX_MESSAGE: u32 = 1 << 30;

/// A [`StoreError::Corrupt`] attributed to the wire `label` (e.g.
/// `"repl-wire"`) rather than an on-disk file.
pub fn wire_corrupt(label: &str, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: label.to_string(),
        detail: detail.into(),
    }
}

/// Decodes `bytes` as exactly one CRC frame and returns its payload.
///
/// `what` names the message kind in error details (e.g. `"request"`):
/// trailing bytes after the frame, an empty input and a torn frame are
/// all [`StoreError::Corrupt`] attributed to `label`.
pub fn decode_single_frame<'a>(bytes: &'a [u8], label: &str, what: &str) -> Result<&'a [u8]> {
    match read_frame(bytes) {
        FrameRead::Ok { payload, rest: [] } => Ok(payload),
        FrameRead::Ok { .. } => Err(wire_corrupt(
            label,
            format!("trailing bytes after {what} frame"),
        )),
        FrameRead::End => Err(wire_corrupt(label, format!("empty {what}"))),
        FrameRead::Torn { detail } => Err(wire_corrupt(label, format!("torn {what}: {detail}"))),
    }
}

/// Writes one framed message to the socket.
pub fn write_message(w: &mut impl Write, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

/// Reads one framed message off the socket and returns its CRC-checked
/// payload. `Ok(None)` is clean end-of-stream (peer closed between
/// messages); a length prefix beyond [`MAX_MESSAGE`] or a checksum
/// mismatch is `InvalidData`, a stream that ends mid-frame
/// `UnexpectedEof`.
///
/// The length prefix is not trusted with memory: the one buffer grows
/// with the bytes that actually arrive, so a peer that announces
/// [`MAX_MESSAGE`] and sends nothing costs a few KB, not a gigabyte.
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_MESSAGE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message length {len} exceeds the {MAX_MESSAGE}-byte cap"),
        ));
    }
    let len = len as usize;
    let mut buf = Vec::new();
    r.by_ref().take(len as u64 + 4).read_to_end(&mut buf)?;
    if buf.len() < len + 4 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("torn message: needed {} bytes, had {}", len + 4, buf.len()),
        ));
    }
    let stored = u32::from_le_bytes(buf[len..].try_into().expect("4 checksum bytes"));
    buf.truncate(len);
    if crc32(&buf) != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "torn message: frame checksum mismatch",
        ));
    }
    Ok(Some(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::frame;

    #[test]
    fn single_frame_strictness() {
        let framed = frame(b"payload");
        assert_eq!(
            decode_single_frame(&framed, "w", "request").unwrap(),
            b"payload"
        );

        let mut trailing = framed.clone();
        trailing.push(0);
        let err = decode_single_frame(&trailing, "w", "request").unwrap_err();
        assert!(
            err.to_string()
                .contains("trailing bytes after request frame"),
            "{err}"
        );

        let err = decode_single_frame(&[], "w", "reply").unwrap_err();
        assert!(err.to_string().contains("empty reply"), "{err}");

        let err = decode_single_frame(&framed[..framed.len() - 2], "w", "reply").unwrap_err();
        assert!(err.to_string().contains("torn reply"), "{err}");
    }

    #[test]
    fn wire_corrupt_names_the_label() {
        let err = wire_corrupt("shard-wire", "bad tag");
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, "shard-wire");
                assert_eq!(detail, "bad tag");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn message_roundtrip_and_caps() {
        let framed = frame(b"hello");
        let got = read_message(&mut framed.as_slice()).unwrap().unwrap();
        assert_eq!(got, b"hello");
        assert!(read_message(&mut [].as_slice()).unwrap().is_none());

        let mut oversized = (MAX_MESSAGE + 1).to_le_bytes().to_vec();
        oversized.extend_from_slice(&[0; 16]);
        let err = read_message(&mut oversized.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut out = Vec::new();
        write_message(&mut out, &framed).unwrap();
        assert_eq!(out, framed);
    }

    /// Records the largest buffer any single `read` call was handed.
    struct CountingReader<'a> {
        bytes: &'a [u8],
        largest_request: usize,
    }

    impl Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_request = self.largest_request.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn announced_length_is_not_allocated_before_bytes_arrive() {
        // A peer announces the largest legal message, then goes away.
        let prefix = MAX_MESSAGE.to_le_bytes();
        let mut r = CountingReader {
            bytes: &prefix,
            largest_request: 0,
        };
        let err = read_message(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            r.largest_request <= 64 * 1024,
            "read_message asked for {} bytes on the strength of the prefix alone",
            r.largest_request
        );

        // A flipped payload bit is still caught in place.
        let mut framed = frame(b"hello");
        framed[5] ^= 1;
        let err = read_message(&mut framed.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
