//! PGECAT01: a streaming, checksummed binary catalog of raw triples.
//!
//! Paper-scale datagen (750k products, ~5M triples) cannot hold the
//! catalog in memory, and TSV round-trips every field through UTF-8
//! line parsing on the hot path. PGECAT01 is the compact alternative:
//! a 64-byte header followed by length-prefixed records,
//!
//! ```text
//! header (little-endian):
//!   0..8    magic  "PGECAT01"
//!   8..12   u32    version (1)
//!   12..16  u32    reserved, zero
//!   16..24  u64    generator seed (provenance; catalogs are seeded
//!                  and reproducible byte for byte)
//!   24..32  u64    product count
//!   32..40  u64    triple count
//!   40..48  u64    body length in bytes
//!   48..52  u32    CRC-32 of the body
//!   52..56  u32    CRC-32 of header bytes 0..52
//!   56..64  zero
//! record:
//!   u16 title_len, u16 attr_len, u16 value_len, then the raw UTF-8
//!   bytes of title, attribute and value
//! ```
//!
//! The writer streams records through a [`pge_tensor::Crc32`] into a
//! [`Commit`] and patches the header on [`CatalogWriter::finish`] —
//! the commit point, exactly like the PGEBIN02 writer. The reader verifies the
//! whole body CRC at open (a tampered or truncated blob is rejected
//! with a typed error before any record is served) and then iterates
//! records from any byte offset, which is what lets a bulk scan
//! resume mid-catalog.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pge_tensor::Crc32;

use crate::commit::Commit;
use crate::StoreError;

/// Magic bytes opening every PGECAT01 file.
pub const CAT_MAGIC: &[u8; 8] = b"PGECAT01";
const CAT_VERSION: u32 = 1;
const CAT_HEADER_LEN: u64 = 64;

/// Counts and checksums reported by a finished write.
#[derive(Clone, Copy, Debug)]
pub struct CatalogSummary {
    pub products: u64,
    pub triples: u64,
    pub body_len: u64,
    pub body_crc: u32,
}

/// Streaming PGECAT01 writer.
pub struct CatalogWriter {
    file: Commit,
    seed: u64,
    crc: Crc32,
    body_len: u64,
    products: u64,
    triples: u64,
}

impl CatalogWriter {
    /// Start a new catalog that replaces `path` only at [`finish`](Self::finish).
    pub fn create(path: &Path, seed: u64) -> io::Result<CatalogWriter> {
        let mut file = Commit::create(path)?;
        file.write_all(&[0u8; CAT_HEADER_LEN as usize])?;
        Ok(CatalogWriter {
            file,
            seed,
            crc: Crc32::new(),
            body_len: 0,
            products: 0,
            triples: 0,
        })
    }

    /// Count one product. (Products are implicit in the triple stream
    /// — the header count is provenance, not structure.)
    pub fn note_product(&mut self) {
        self.products += 1;
    }

    /// Append one `(title, attribute, value)` triple.
    ///
    /// Fields must be tab- and newline-free (scan output embeds them
    /// in TSV lines verbatim) and under 64 KiB each.
    pub fn add_triple(&mut self, title: &str, attr: &str, value: &str) -> io::Result<()> {
        for (what, s) in [("title", title), ("attribute", attr), ("value", value)] {
            if s.len() > u16::MAX as usize {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{what} exceeds 64 KiB"),
                ));
            }
            if s.bytes().any(|b| b == b'\t' || b == b'\n' || b == b'\r') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{what} contains a tab or newline"),
                ));
            }
        }
        let mut head = [0u8; 6];
        head[0..2].copy_from_slice(&(title.len() as u16).to_le_bytes());
        head[2..4].copy_from_slice(&(attr.len() as u16).to_le_bytes());
        head[4..6].copy_from_slice(&(value.len() as u16).to_le_bytes());
        for part in [
            &head[..],
            title.as_bytes(),
            attr.as_bytes(),
            value.as_bytes(),
        ] {
            self.crc.update(part);
            self.body_len += part.len() as u64;
            self.file.write_all(part)?;
        }
        self.triples += 1;
        Ok(())
    }

    /// Seal the catalog: write the header and commit the file over
    /// the path. Not valid until this returns `Ok`.
    pub fn finish(mut self) -> io::Result<CatalogSummary> {
        let body_crc = self.crc.finish();
        let mut header = [0u8; CAT_HEADER_LEN as usize];
        header[0..8].copy_from_slice(CAT_MAGIC);
        header[8..12].copy_from_slice(&CAT_VERSION.to_le_bytes());
        header[16..24].copy_from_slice(&self.seed.to_le_bytes());
        header[24..32].copy_from_slice(&self.products.to_le_bytes());
        header[32..40].copy_from_slice(&self.triples.to_le_bytes());
        header[40..48].copy_from_slice(&self.body_len.to_le_bytes());
        header[48..52].copy_from_slice(&body_crc.to_le_bytes());
        let hcrc = pge_tensor::crc32(&header[0..52]);
        header[52..56].copy_from_slice(&hcrc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.finish()?;
        Ok(CatalogSummary {
            products: self.products,
            triples: self.triples,
            body_len: self.body_len,
            body_crc,
        })
    }
}

/// An opened, fully-verified PGECAT01 catalog.
#[derive(Clone, Debug)]
pub struct CatalogReader {
    path: PathBuf,
    seed: u64,
    products: u64,
    triples: u64,
    body_len: u64,
}

/// One decoded catalog record, carrying the same position coordinates
/// as a TSV [`RawTriple`] (1-based record number plus the absolute
/// byte offset of the record) so scan checkpoints work identically
/// over both input formats.
///
/// [`RawTriple`]: https://no-link/pge-graph
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogRecord {
    pub line: u64,
    pub offset: u64,
    pub title: String,
    pub attr: String,
    pub value: String,
}

impl CatalogReader {
    /// Open a catalog, verifying the header and the full body CRC.
    ///
    /// The CRC pass streams through the file with a fixed buffer —
    /// open cost is one sequential read (page-cache warm for the
    /// scan that follows), not a resident copy.
    pub fn open(path: &Path) -> Result<CatalogReader, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < CAT_HEADER_LEN {
            return Err(StoreError::UnknownFormat { magic: [0; 8] });
        }
        let mut header = [0u8; CAT_HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if &header[0..8] != CAT_MAGIC {
            return Err(StoreError::UnknownFormat {
                magic: header[0..8].try_into().unwrap(),
            });
        }
        if crate::format::read_u32(&header, 52) != pge_tensor::crc32(&header[0..52]) {
            return Err(StoreError::Corrupt("catalog header CRC mismatch".into()));
        }
        let version = crate::format::read_u32(&header, 8);
        if version != CAT_VERSION {
            return Err(StoreError::Parse(format!(
                "unsupported PGECAT01 version {version}"
            )));
        }
        let seed = crate::format::read_u64(&header, 16);
        let products = crate::format::read_u64(&header, 24);
        let triples = crate::format::read_u64(&header, 32);
        let body_len = crate::format::read_u64(&header, 40);
        if CAT_HEADER_LEN + body_len != file_len {
            return Err(StoreError::Corrupt(format!(
                "catalog body is {} bytes on disk, header declares {body_len}",
                file_len - CAT_HEADER_LEN
            )));
        }
        let mut crc = Crc32::new();
        let mut buf = vec![0u8; 1 << 20];
        let mut left = body_len;
        while left > 0 {
            let n = (left as usize).min(buf.len());
            file.read_exact(&mut buf[..n])?;
            crc.update(&buf[..n]);
            left -= n as u64;
        }
        if crc.finish() != crate::format::read_u32(&header, 48) {
            return Err(StoreError::Corrupt(
                "catalog body CRC mismatch (tampered or corrupt)".into(),
            ));
        }
        Ok(CatalogReader {
            path: path.to_path_buf(),
            seed,
            products,
            triples,
            body_len,
        })
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn products(&self) -> u64 {
        self.products
    }

    pub fn triples(&self) -> u64 {
        self.triples
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total file length (header + body) — the scan manifest records
    /// it to pin resumes to the same input.
    pub fn file_len(&self) -> u64 {
        CAT_HEADER_LEN + self.body_len
    }

    /// Iterate records from the beginning.
    pub fn records(&self) -> io::Result<CatalogRecords> {
        self.records_from(0, CAT_HEADER_LEN)
    }

    /// Iterate records from a resume position: `lines_done` records
    /// already consumed, next record starting at absolute `offset`.
    pub fn records_from(&self, lines_done: u64, offset: u64) -> io::Result<CatalogRecords> {
        let mut file = BufReader::with_capacity(1 << 16, File::open(&self.path)?);
        file.seek(SeekFrom::Start(offset))?;
        Ok(CatalogRecords {
            file,
            offset,
            line: lines_done,
            end: CAT_HEADER_LEN + self.body_len,
        })
    }
}

/// Streaming record iterator (see [`CatalogReader::records_from`]).
pub struct CatalogRecords {
    file: BufReader<File>,
    offset: u64,
    line: u64,
    end: u64,
}

impl CatalogRecords {
    fn read_record(&mut self) -> Result<CatalogRecord, StoreError> {
        let start = self.offset;
        let mut head = [0u8; 6];
        self.file.read_exact(&mut head)?;
        let tl = u16::from_le_bytes(head[0..2].try_into().unwrap()) as usize;
        let al = u16::from_le_bytes(head[2..4].try_into().unwrap()) as usize;
        let vl = u16::from_le_bytes(head[4..6].try_into().unwrap()) as usize;
        let total = 6 + tl + al + vl;
        if start + total as u64 > self.end {
            return Err(StoreError::Corrupt(format!(
                "catalog record at offset {start} runs past the body"
            )));
        }
        let mut bytes = vec![0u8; tl + al + vl];
        self.file.read_exact(&mut bytes)?;
        let title = std::str::from_utf8(&bytes[..tl])
            .map_err(|_| StoreError::Corrupt(format!("catalog title at {start} is not UTF-8")))?
            .to_string();
        let attr = std::str::from_utf8(&bytes[tl..tl + al])
            .map_err(|_| StoreError::Corrupt(format!("catalog attr at {start} is not UTF-8")))?
            .to_string();
        let value = std::str::from_utf8(&bytes[tl + al..])
            .map_err(|_| StoreError::Corrupt(format!("catalog value at {start} is not UTF-8")))?
            .to_string();
        self.offset += total as u64;
        self.line += 1;
        Ok(CatalogRecord {
            line: self.line,
            offset: start,
            title,
            attr,
            value,
        })
    }

    /// Position of the next unread record (absolute byte offset).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Records consumed so far (counting any resume baseline).
    pub fn lines_done(&self) -> u64 {
        self.line
    }

    /// True once the body is exhausted. Uses the buffered reader's
    /// own fill state so a clean EOF is distinguished from a short
    /// record.
    fn at_end(&mut self) -> bool {
        self.offset >= self.end || matches!(self.file.fill_buf(), Ok(b) if b.is_empty())
    }
}

impl Iterator for CatalogRecords {
    type Item = Result<CatalogRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.at_end() {
            return None;
        }
        Some(self.read_record())
    }
}
