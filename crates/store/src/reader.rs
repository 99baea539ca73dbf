//! Opening and serving PGEBIN02 snapshots.
//!
//! [`Snapshot::open`] validates the whole file up front — header CRC,
//! index CRC, and every section CRC — then serves section payloads as
//! borrowed slices for the life of the snapshot. Crucially, the
//! validation pass streams through the *file descriptor* with a small
//! buffer rather than touching the mapping: reading through `read(2)`
//! warms the kernel page cache without growing this process's
//! resident set, so opening a 200 MB snapshot costs kilobytes of RSS
//! and later row accesses fault pages in on demand.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::format::{
    read_u32, read_u64, SectionKind, SectionMeta, ENTRY_LEN, HEADER_LEN, MAGIC2, SECTION_ALIGN,
    VERSION,
};
use crate::mmap::{FileBytes, Mmap, MmapMode};
use crate::StoreError;

/// A validated, open PGEBIN02 snapshot.
pub struct Snapshot {
    bytes: FileBytes,
    sections: Vec<SectionMeta>,
    path: PathBuf,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("path", &self.path)
            .field("sections", &self.sections.len())
            .field("mapped", &self.bytes.is_mapped())
            .finish()
    }
}

/// A borrowed view of one section's payload.
#[derive(Clone, Copy)]
pub struct Section<'a> {
    pub meta: &'a SectionMeta,
    pub bytes: &'a [u8],
}

impl<'a> Section<'a> {
    /// The payload as packed f32s. Valid only for
    /// [`SectionKind::F32`] sections; alignment is guaranteed by the
    /// 64-byte section alignment plus the aligned heap fallback.
    pub fn as_f32s(&self) -> Result<&'a [f32], StoreError> {
        if self.meta.kind != SectionKind::F32 {
            return Err(StoreError::WrongKind {
                name: self.meta.name.clone(),
            });
        }
        let ptr = self.bytes.as_ptr();
        // Both backings give at least 8-byte base alignment and every
        // payload starts on a 64-byte file offset, but keep the check:
        // a violation here must never become UB.
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<f32>())
            || !self.bytes.len().is_multiple_of(4)
        {
            return Err(StoreError::Corrupt(format!(
                "section {:?} payload is not f32-aligned",
                self.meta.name
            )));
        }
        // Safety: checked alignment and length; f32 has no invalid
        // bit patterns; the target is little-endian (asserted at
        // compile time in lib.rs) so the on-disk LE bytes are the
        // in-memory representation.
        Ok(unsafe { std::slice::from_raw_parts(ptr as *const f32, self.bytes.len() / 4) })
    }
}

impl Snapshot {
    /// Open and fully validate a snapshot.
    pub fn open(path: &Path, mode: MmapMode) -> Result<Snapshot, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            let mut found = [0u8; 8];
            let n = file.read(&mut found)?;
            return Err(StoreError::UnknownFormat {
                magic: if n >= 8 { found } else { [0; 8] },
            });
        }
        file.read_exact(&mut header)?;
        if &header[0..8] != MAGIC2 {
            return Err(StoreError::UnknownFormat {
                magic: header[0..8].try_into().unwrap(),
            });
        }
        if read_u32(&header, 44) != pge_tensor::crc32(&header[0..44]) {
            return Err(StoreError::Corrupt("header CRC mismatch".into()));
        }
        let version = read_u32(&header, 8);
        if version != VERSION {
            return Err(StoreError::Parse(format!(
                "unsupported PGEBIN02 version {version}"
            )));
        }
        let n_sections = read_u32(&header, 12) as usize;
        let index_off = read_u64(&header, 16);
        let index_len = read_u64(&header, 24);
        let declared_len = read_u64(&header, 32);
        if declared_len != file_len {
            return Err(StoreError::Corrupt(format!(
                "file is {file_len} bytes but header declares {declared_len} (truncated?)"
            )));
        }
        if index_off
            .checked_add(index_len)
            .map(|end| end > file_len)
            .unwrap_or(true)
            || index_off < HEADER_LEN
        {
            return Err(StoreError::Corrupt("index region out of bounds".into()));
        }

        // Index: read, CRC, parse.
        let mut index = vec![0u8; index_len as usize];
        file.seek(SeekFrom::Start(index_off))?;
        file.read_exact(&mut index)?;
        if pge_tensor::crc32(&index) != read_u32(&header, 40) {
            return Err(StoreError::Corrupt("index CRC mismatch".into()));
        }
        let sections = parse_index(&index, n_sections, index_off)?;

        // Per-section CRC, streamed through the fd (see module doc).
        let mut buf = vec![0u8; 1 << 20];
        for s in &sections {
            let mut crc = pge_tensor::Crc32::new();
            file.seek(SeekFrom::Start(s.offset))?;
            let mut left = s.len as usize;
            while left > 0 {
                let n = left.min(buf.len());
                file.read_exact(&mut buf[..n])?;
                crc.update(&buf[..n]);
                left -= n;
            }
            if crc.finish() != s.crc32 {
                return Err(StoreError::Corrupt(format!(
                    "section {:?} CRC mismatch",
                    s.name
                )));
            }
        }
        drop(buf);

        let bytes = match mode {
            MmapMode::Off => FileBytes::Heap(read_aligned(&mut file, file_len as usize)?),
            MmapMode::On => FileBytes::Mapped(
                Mmap::map(&file, file_len as usize).map_err(StoreError::MmapFailed)?,
            ),
            MmapMode::Auto => match Mmap::map(&file, file_len as usize) {
                Ok(m) => FileBytes::Mapped(m),
                Err(_) => FileBytes::Heap(read_aligned(&mut file, file_len as usize)?),
            },
        };
        // Snapshot access is point lookups (bank rows, param
        // sections); without this, kernel fault-around makes the
        // whole file resident on a warm page cache and the RSS bound
        // the store exists for is lost.
        bytes.advise_random(0, file_len as usize);

        Ok(Snapshot {
            bytes,
            sections,
            path: path.to_path_buf(),
        })
    }

    /// Whether rows are served from a mapping (vs a heap copy).
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// The whole file's bytes (mapped or heap-backed).
    pub fn file_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// All section descriptors, in file order.
    pub fn sections(&self) -> &[SectionMeta] {
        &self.sections
    }

    /// Look up a section by name.
    pub fn get(&self, name: &str) -> Option<Section<'_>> {
        let meta = self.sections.iter().find(|s| s.name == name)?;
        let b = self.bytes.as_slice();
        Some(Section {
            meta,
            bytes: &b[meta.offset as usize..(meta.offset + meta.len) as usize],
        })
    }

    /// Look up a section that must exist.
    pub fn section(&self, name: &str) -> Result<Section<'_>, StoreError> {
        self.get(name)
            .ok_or_else(|| StoreError::MissingSection(name.to_string()))
    }

    /// Evict the resident pages of one section (no-op when heap-backed
    /// — heap copies are the caller's memory budget by choice).
    pub fn evict_section(&self, name: &str) {
        if let Some(meta) = self.sections.iter().find(|s| s.name == name) {
            self.bytes
                .advise_dontneed(meta.offset as usize, meta.len as usize);
        }
    }

    /// Evict every resident page of the mapping (no-op when
    /// heap-backed). Loaders call this after copying what they need
    /// to the heap, so the pages their sequential reads faulted in
    /// don't stay resident for the process's lifetime.
    pub fn evict_resident(&self) {
        self.bytes.advise_dontneed(0, usize::MAX);
    }
}

fn parse_index(
    index: &[u8],
    n_sections: usize,
    index_off: u64,
) -> Result<Vec<SectionMeta>, StoreError> {
    let table_len = n_sections
        .checked_mul(ENTRY_LEN)
        .ok_or_else(|| StoreError::Corrupt("section count overflow".into()))?;
    if table_len > index.len() {
        return Err(StoreError::Corrupt("section table exceeds index".into()));
    }
    let strtab = &index[table_len..];
    let mut out = Vec::with_capacity(n_sections);
    for i in 0..n_sections {
        let e = &index[i * ENTRY_LEN..(i + 1) * ENTRY_LEN];
        let name_off = read_u32(e, 0) as usize;
        let name_len = read_u32(e, 4) as usize;
        let name = strtab
            .get(name_off..name_off + name_len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| StoreError::Corrupt(format!("bad name in section entry {i}")))?
            .to_string();
        let kind = SectionKind::from_code(e[8])
            .ok_or_else(|| StoreError::Parse(format!("section {name:?}: unknown kind {}", e[8])))?;
        let rows = read_u64(e, 12);
        let cols = read_u64(e, 20);
        let offset = read_u64(e, 28);
        let len = read_u64(e, 36);
        let crc32 = read_u32(e, 44);
        if !offset.is_multiple_of(SECTION_ALIGN) {
            return Err(StoreError::Corrupt(format!(
                "section {name:?} is not {SECTION_ALIGN}-byte aligned"
            )));
        }
        if offset
            .checked_add(len)
            .map(|end| end > index_off)
            .unwrap_or(true)
            || offset < HEADER_LEN
        {
            return Err(StoreError::Corrupt(format!(
                "section {name:?} payload out of bounds"
            )));
        }
        if kind == SectionKind::F32
            && rows
                .checked_mul(cols)
                .and_then(|c| c.checked_mul(4))
                .map(|need| need != len)
                .unwrap_or(true)
        {
            return Err(StoreError::Corrupt(format!(
                "section {name:?}: shape {rows}x{cols} disagrees with {len} bytes"
            )));
        }
        out.push(SectionMeta {
            name,
            kind,
            rows,
            cols,
            offset,
            len,
            crc32,
        });
    }
    Ok(out)
}

/// Read the whole file into an 8-byte-aligned heap buffer, so f32
/// reinterpretation stays valid on the heap fallback path too.
fn read_aligned(file: &mut File, len: usize) -> Result<crate::mmap::AlignedBuf, StoreError> {
    file.seek(SeekFrom::Start(0))?;
    let mut buf = crate::mmap::AlignedBuf::zeroed(len);
    file.read_exact(buf.as_mut_slice())?;
    Ok(buf)
}

/// Peek a file's leading magic bytes without reading the rest —
/// input routing for readers that accept several file formats.
pub fn peek_magic(path: &Path) -> io::Result<[u8; 8]> {
    let mut f = File::open(path)?;
    let mut magic = [0u8; 8];
    let mut got = 0;
    while got < 8 {
        let n = f.read(&mut magic[got..])?;
        if n == 0 {
            break;
        }
        got += n;
    }
    Ok(magic)
}
