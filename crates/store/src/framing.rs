//! Shared wire-framing plumbing for every protocol built on the store
//! codec's CRC32 frames — replication (`gisolap-repl`), serving
//! (`gisolap-serve`) and sharding (`gisolap-shard`) all speak
//! "one message = one frame", and share:
//!
//! * [`wire_corrupt`] — a [`StoreError::Corrupt`] attributed to a wire
//!   label instead of a file;
//! * [`read_message`] / [`write_message`] — the socket envelope: a
//!   capped length prefix ([`MAX_MESSAGE`]) so a mangled prefix can
//!   never drive a multi-gigabyte allocation, CRC checked before any
//!   payload byte is trusted.
//!
//! The strict single-frame decode is the codec's
//! [`read_single_frame`](crate::codec::read_single_frame), the same for
//! files and wire messages.

use std::io::{self, Read, Write};

use crate::codec::crc32;
use crate::StoreError;

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
