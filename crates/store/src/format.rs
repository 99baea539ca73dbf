//! The PGEBIN02 container layout and its streaming writer.
//!
//! PGEBIN02 is a sectioned, checksummed, mmap-friendly container:
//!
//! ```text
//! offset 0, 64 bytes, little-endian throughout:
//!   0..8    magic  "PGEBIN02"
//!   8..12   u32    format version (currently 1)
//!   12..16  u32    section count
//!   16..24  u64    index offset          (section table + name strtab)
//!   24..32  u64    index length in bytes
//!   32..40  u64    total file length
//!   40..44  u32    CRC-32 of the index region
//!   44..48  u32    CRC-32 of header bytes 0..44
//!   48..64  zero padding
//! sections: each starts on a 64-byte boundary, zero-padded between
//! index:    one 48-byte entry per section, then the name string table
//! ```
//!
//! Section table entry (48 bytes):
//!
//! ```text
//!   0..4    u32  name offset (relative to strtab start)
//!   4..8    u32  name length
//!   8..9    u8   kind: 0 = opaque bytes, 1 = packed f32 LE
//!   9..12   zero padding
//!   12..20  u64  rows   (f32 sections: logical matrix shape)
//!   20..28  u64  cols
//!   28..36  u64  absolute file offset of the section payload
//!   36..44  u64  payload length in bytes
//!   44..48  u32  CRC-32 of the payload
//! ```
//!
//! The guarantees that make the format servable in place:
//! every section payload starts 64-byte aligned (so `&[u8] -> &[f32]`
//! casts are valid on any target and rows stay cache-line aligned),
//! f32 payloads are raw IEEE-754 little-endian with no framing (a row
//! is `cols * 4` contiguous bytes), and every payload carries its own
//! CRC-32 so corruption is pinned to a named section instead of a
//! whole-file failure.

use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use pge_tensor::Crc32;

use crate::commit::Commit;

/// Magic bytes opening every PGEBIN02 file.
pub const MAGIC2: &[u8; 8] = b"PGEBIN02";
/// Current format version.
pub const VERSION: u32 = 1;
/// Section payload alignment. 64 keeps rows cache-line aligned and is
/// a multiple of `align_of::<f32>()` on every supported target.
pub const SECTION_ALIGN: u64 = 64;
/// Fixed header size.
pub const HEADER_LEN: u64 = 64;
/// Size of one section-table entry.
pub const ENTRY_LEN: usize = 48;

/// What a section payload contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SectionKind {
    /// Opaque bytes (string tables, indexes, embedded text headers).
    Bytes,
    /// Packed little-endian f32s, shaped `rows x cols`.
    F32,
}

impl SectionKind {
    pub(crate) fn code(self) -> u8 {
        match self {
            SectionKind::Bytes => 0,
            SectionKind::F32 => 1,
        }
    }

    pub(crate) fn from_code(c: u8) -> Option<SectionKind> {
        match c {
            0 => Some(SectionKind::Bytes),
            1 => Some(SectionKind::F32),
            _ => None,
        }
    }
}

/// One parsed section-table entry.
#[derive(Clone, Debug)]
pub struct SectionMeta {
    pub name: String,
    pub kind: SectionKind,
    pub rows: u64,
    pub cols: u64,
    pub offset: u64,
    pub len: u64,
    pub crc32: u32,
}

struct PendingSection {
    name: String,
    kind: SectionKind,
    rows: u64,
    cols: u64,
    offset: u64,
    len: u64,
    crc: Crc32,
}

/// Streaming PGEBIN02 writer.
///
/// Sections are written front to back without buffering payloads in
/// memory — a multi-hundred-MB embedding bank streams straight to
/// disk. The index and header are written by [`finish`], which is the
/// commit point: the file is written through a [`Commit`], so a
/// crashed writer leaves only a `.tmp` sibling and the path keeps the
/// snapshot it held.
///
/// [`finish`]: SnapshotWriter::finish
pub struct SnapshotWriter {
    file: Commit,
    pos: u64,
    done: Vec<PendingSection>,
    open: Option<PendingSection>,
}

impl SnapshotWriter {
    /// Start a new snapshot that replaces `path` only at [`finish`](Self::finish).
    pub fn create(path: &Path) -> io::Result<SnapshotWriter> {
        let mut file = Commit::create(path)?;
        // Header placeholder; patched by finish().
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(SnapshotWriter {
            file,
            pos: HEADER_LEN,
            done: Vec::new(),
            open: None,
        })
    }

    /// Begin a section. For [`SectionKind::F32`] the payload length
    /// is validated against `rows * cols * 4` at [`end_section`];
    /// byte sections may pass `rows`/`cols` of 0.
    ///
    /// [`end_section`]: SnapshotWriter::end_section
    pub fn begin_section(
        &mut self,
        name: &str,
        kind: SectionKind,
        rows: u64,
        cols: u64,
    ) -> io::Result<()> {
        assert!(self.open.is_none(), "previous section not ended");
        if self.done.iter().any(|s| s.name == name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate section name {name:?}"),
            ));
        }
        self.pad_to_alignment()?;
        self.open = Some(PendingSection {
            name: name.to_string(),
            kind,
            rows,
            cols,
            offset: self.pos,
            len: 0,
            crc: Crc32::new(),
        });
        Ok(())
    }

    /// Append payload bytes to the open section.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let s = self.open.as_mut().expect("no open section");
        s.crc.update(bytes);
        s.len += bytes.len() as u64;
        self.pos += bytes.len() as u64;
        self.file.write_all(bytes)
    }

    /// Append f32s to the open section as packed little-endian bytes.
    pub fn write_f32s(&mut self, vals: &[f32]) -> io::Result<()> {
        // Chunked through a small stack buffer so a huge row set never
        // needs a second in-memory copy.
        let mut buf = [0u8; 4096];
        for chunk in vals.chunks(buf.len() / 4) {
            let n = chunk.len() * 4;
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.write(&buf[..n])?;
        }
        Ok(())
    }

    /// Close the open section, sealing its CRC.
    pub fn end_section(&mut self) -> io::Result<()> {
        let s = self.open.take().expect("no open section");
        if s.kind == SectionKind::F32 && s.len != s.rows * s.cols * 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "f32 section {:?}: wrote {} bytes, shape {}x{} needs {}",
                    s.name,
                    s.len,
                    s.rows,
                    s.cols,
                    s.rows * s.cols * 4
                ),
            ));
        }
        self.done.push(s);
        Ok(())
    }

    /// Convenience: a whole byte section in one call.
    pub fn add_bytes(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.begin_section(name, SectionKind::Bytes, 0, 0)?;
        self.write(data)?;
        self.end_section()
    }

    /// Convenience: a whole f32 section in one call.
    pub fn add_f32s(&mut self, name: &str, rows: u64, cols: u64, vals: &[f32]) -> io::Result<()> {
        self.begin_section(name, SectionKind::F32, rows, cols)?;
        self.write_f32s(vals)?;
        self.end_section()
    }

    /// Write the index, patch the header, and commit the file over
    /// the path. The snapshot is not valid until this returns `Ok`.
    pub fn finish(mut self) -> io::Result<()> {
        assert!(self.open.is_none(), "open section at finish");
        self.pad_to_alignment()?;
        let index_off = self.pos;

        // Section table, then the name string table.
        let mut strtab: Vec<u8> = Vec::new();
        let mut index: Vec<u8> = Vec::with_capacity(self.done.len() * ENTRY_LEN);
        for s in &self.done {
            let name_off = strtab.len() as u32;
            strtab.extend_from_slice(s.name.as_bytes());
            index.extend_from_slice(&name_off.to_le_bytes());
            index.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
            index.push(s.kind.code());
            index.extend_from_slice(&[0u8; 3]);
            index.extend_from_slice(&s.rows.to_le_bytes());
            index.extend_from_slice(&s.cols.to_le_bytes());
            index.extend_from_slice(&s.offset.to_le_bytes());
            index.extend_from_slice(&s.len.to_le_bytes());
            index.extend_from_slice(&s.crc.finish().to_le_bytes());
        }
        index.extend_from_slice(&strtab);
        self.file.write_all(&index)?;
        let file_len = index_off + index.len() as u64;

        let mut header = [0u8; HEADER_LEN as usize];
        header[0..8].copy_from_slice(MAGIC2);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(self.done.len() as u32).to_le_bytes());
        header[16..24].copy_from_slice(&index_off.to_le_bytes());
        header[24..32].copy_from_slice(&(index.len() as u64).to_le_bytes());
        header[32..40].copy_from_slice(&file_len.to_le_bytes());
        header[40..44].copy_from_slice(&pge_tensor::crc32(&index).to_le_bytes());
        let hcrc = pge_tensor::crc32(&header[0..44]);
        header[44..48].copy_from_slice(&hcrc.to_le_bytes());

        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.finish()
    }

    fn pad_to_alignment(&mut self) -> io::Result<()> {
        let rem = self.pos % SECTION_ALIGN;
        if rem != 0 {
            let pad = (SECTION_ALIGN - rem) as usize;
            self.file.write_all(&[0u8; SECTION_ALIGN as usize][..pad])?;
            self.pos += pad as u64;
        }
        Ok(())
    }
}

pub(crate) fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

pub(crate) fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}
