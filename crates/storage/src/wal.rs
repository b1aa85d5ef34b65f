//! Write-ahead-log record codec.
//!
//! The log is a byte stream of self-describing records:
//!
//! ```text
//! [len u32][crc u32][kind u8][txn u64][lsn u64][kind-specific payload]
//! ```
//!
//! `len` counts the bytes after the `crc` field; `crc` covers exactly
//! those bytes. A crash can cut the stream anywhere — recovery walks
//! records from the front and stops at the first one whose length
//! overruns the remaining bytes or whose checksum fails: that is the
//! torn tail, and everything before it is exactly the durable prefix.

use ceh_types::{crc32, Error, PageId, Result};

/// Fixed prefix of every record: `len` + `crc`.
pub const REC_PREFIX: usize = 8;
/// Fixed body header: `kind` + `txn` + `lsn`.
pub const REC_HEADER: usize = 1 + 8 + 8;

const KIND_PAGE_WRITE: u8 = 1;
const KIND_ALLOC: u8 = 2;
const KIND_DEALLOC: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Redo image: the page's complete post-write contents.
    PageWrite {
        /// Transaction the write belongs to.
        txn: u64,
        /// Log sequence number of the write.
        lsn: u64,
        /// The page written.
        page: PageId,
        /// The full page image.
        bytes: Vec<u8>,
    },
    /// The page was allocated.
    Alloc {
        /// Transaction the allocation belongs to.
        txn: u64,
        /// Log sequence number.
        lsn: u64,
        /// The page allocated.
        page: PageId,
    },
    /// The page was deallocated.
    Dealloc {
        /// Transaction the deallocation belongs to.
        txn: u64,
        /// Log sequence number.
        lsn: u64,
        /// The page freed.
        page: PageId,
    },
    /// The transaction's durability point: all of its records are to be
    /// replayed iff this record made it to the durable log.
    Commit {
        /// The committing transaction.
        txn: u64,
        /// Log sequence number.
        lsn: u64,
    },
}

impl WalRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::PageWrite { txn, .. }
            | WalRecord::Alloc { txn, .. }
            | WalRecord::Dealloc { txn, .. }
            | WalRecord::Commit { txn, .. } => *txn,
        }
    }

    /// The record's log sequence number.
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::PageWrite { lsn, .. }
            | WalRecord::Alloc { lsn, .. }
            | WalRecord::Dealloc { lsn, .. }
            | WalRecord::Commit { lsn, .. } => *lsn,
        }
    }

    /// Append the record's encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(REC_HEADER + 16);
        let (kind, txn, lsn) = match self {
            WalRecord::PageWrite { txn, lsn, .. } => (KIND_PAGE_WRITE, *txn, *lsn),
            WalRecord::Alloc { txn, lsn, .. } => (KIND_ALLOC, *txn, *lsn),
            WalRecord::Dealloc { txn, lsn, .. } => (KIND_DEALLOC, *txn, *lsn),
            WalRecord::Commit { txn, lsn } => (KIND_COMMIT, *txn, *lsn),
        };
        body.push(kind);
        body.extend_from_slice(&txn.to_le_bytes());
        body.extend_from_slice(&lsn.to_le_bytes());
        match self {
            WalRecord::PageWrite { page, bytes, .. } => {
                body.extend_from_slice(&page.0.to_le_bytes());
                body.extend_from_slice(bytes);
            }
            WalRecord::Alloc { page, .. } | WalRecord::Dealloc { page, .. } => {
                body.extend_from_slice(&page.0.to_le_bytes());
            }
            WalRecord::Commit { .. } => {}
        }
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }

    /// Decode one record starting at `bytes[offset..]`. Returns the
    /// record and the offset just past it, or `None` when the remaining
    /// bytes are not a whole, checksum-valid record (the torn tail).
    pub fn decode_at(bytes: &[u8], offset: usize) -> Option<(WalRecord, usize)> {
        let rest = bytes.get(offset..)?;
        if rest.len() < REC_PREFIX {
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("slice len")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("slice len"));
        if len < REC_HEADER || rest.len() < REC_PREFIX + len {
            return None;
        }
        let body = &rest[REC_PREFIX..REC_PREFIX + len];
        if crc32(body) != crc {
            return None;
        }
        let kind = body[0];
        let txn = u64::from_le_bytes(body[1..9].try_into().expect("slice len"));
        let lsn = u64::from_le_bytes(body[9..17].try_into().expect("slice len"));
        let payload = &body[REC_HEADER..];
        let page_of = |p: &[u8]| -> Option<PageId> {
            Some(PageId(u64::from_le_bytes(p.get(0..8)?.try_into().ok()?)))
        };
        let rec = match kind {
            KIND_PAGE_WRITE => WalRecord::PageWrite {
                txn,
                lsn,
                page: page_of(payload)?,
                bytes: payload.get(8..)?.to_vec(),
            },
            KIND_ALLOC => WalRecord::Alloc {
                txn,
                lsn,
                page: page_of(payload)?,
            },
            KIND_DEALLOC => WalRecord::Dealloc {
                txn,
                lsn,
                page: page_of(payload)?,
            },
            KIND_COMMIT => WalRecord::Commit { txn, lsn },
            _ => return None,
        };
        Some((rec, offset + REC_PREFIX + len))
    }
}

/// Parse a durable log: every whole, checksum-valid record from the
/// front, plus whether a torn tail (trailing bytes that do not form a
/// valid record) was cut off.
pub fn parse_wal(bytes: &[u8]) -> (Vec<WalRecord>, bool) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        match WalRecord::decode_at(bytes, off) {
            Some((rec, next)) => {
                records.push(rec);
                off = next;
            }
            None => return (records, true),
        }
    }
    (records, false)
}

/// Validate that a page image decodes sanely for use as a redo target:
/// the payload must be exactly `page_size` bytes.
pub fn check_redo_image(rec: &WalRecord, page_size: usize) -> Result<()> {
    if let WalRecord::PageWrite { bytes, page, .. } = rec {
        if bytes.len() != page_size {
            return Err(Error::Corrupt(format!(
                "WAL redo image for {page} is {} bytes, page size is {page_size}",
                bytes.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The checksum guarding every record: the classic CRC-32/IEEE
        // check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip() {
        let recs = vec![
            WalRecord::Alloc {
                txn: 1,
                lsn: 10,
                page: PageId(3),
            },
            WalRecord::PageWrite {
                txn: 1,
                lsn: 11,
                page: PageId(3),
                bytes: vec![0xAB; 64],
            },
            WalRecord::Dealloc {
                txn: 1,
                lsn: 12,
                page: PageId(2),
            },
            WalRecord::Commit { txn: 1, lsn: 13 },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            r.encode_into(&mut buf);
        }
        let (parsed, torn) = parse_wal(&buf);
        assert!(!torn);
        assert_eq!(parsed, recs);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut buf = Vec::new();
        WalRecord::Commit { txn: 7, lsn: 1 }.encode_into(&mut buf);
        let whole = buf.len();
        WalRecord::PageWrite {
            txn: 8,
            lsn: 2,
            page: PageId(0),
            bytes: vec![1; 32],
        }
        .encode_into(&mut buf);
        // Cut the second record anywhere (at least one stray byte must
        // remain for there to be a tail): the first still parses.
        for cut in whole + 1..buf.len() {
            let (parsed, torn) = parse_wal(&buf[..cut]);
            assert_eq!(parsed.len(), 1, "cut at {cut}");
            assert!(torn, "cut at {cut} must flag the tail");
        }
        let (parsed, torn) = parse_wal(&buf);
        assert_eq!(parsed.len(), 2);
        assert!(!torn);
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut buf = Vec::new();
        WalRecord::Commit { txn: 7, lsn: 1 }.encode_into(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF; // flip a body byte: crc mismatch
        let (parsed, torn) = parse_wal(&buf);
        assert!(parsed.is_empty());
        assert!(torn);
    }
}
