//! Minimal memory-mapping layer over direct `mmap(2)` FFI.
//!
//! The build environment has no crates.io access, so instead of the
//! `memmap2` crate this module declares the three syscall wrappers it
//! needs (`mmap`, `munmap`, `madvise`) and wraps them in a safe,
//! read-only [`Mmap`] type. Mappings are always `PROT_READ` +
//! `MAP_PRIVATE`: the store never writes through a mapping, so a
//! shared snapshot file can back any number of concurrent readers
//! while the kernel keeps a single copy of every clean page.
//!
//! [`MmapMode`] is the user-facing `--mmap {auto,on,off}` knob: `on`
//! fails loudly when mapping is impossible, `off` forces the
//! heap-backed fallback, and `auto` (the default) tries the mapping
//! and silently falls back to heap on any error.

use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;

// Linux syscall constants, from <sys/mman.h>. Only the ones the
// store uses; values are stable ABI on every Linux architecture the
// workspace targets (x86_64, aarch64).
const PROT_READ: i32 = 0x1;
const MAP_PRIVATE: i32 = 0x02;
const MADV_DONTNEED: i32 = 4;
const MADV_RANDOM: i32 = 1;

const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
}

/// How a snapshot file should be backed in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MmapMode {
    /// Try to map; fall back to a heap read on any failure.
    #[default]
    Auto,
    /// Map or fail: an error opening the mapping is surfaced.
    On,
    /// Never map: always read the file into a heap buffer.
    Off,
}

impl MmapMode {
    /// Parse the CLI spelling (`auto` / `on` / `off`).
    pub fn parse(s: &str) -> Option<MmapMode> {
        match s {
            "auto" => Some(MmapMode::Auto),
            "on" => Some(MmapMode::On),
            "off" => Some(MmapMode::Off),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            MmapMode::Auto => "auto",
            MmapMode::On => "on",
            MmapMode::Off => "off",
        }
    }
}

/// A read-only, private, file-backed memory mapping.
///
/// The mapping lives until drop; pages come in on demand and are
/// reclaimable by the kernel at any time, which is what keeps resident
/// memory decoupled from file size.
pub struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// The mapping is immutable for its whole lifetime (PROT_READ and the
// store never calls mprotect), so shared references from any thread
// are fine, as is dropping on a different thread.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `len` bytes of `file` read-only from offset 0.
    ///
    /// `len == 0` is rejected (Linux `mmap` errors on zero length);
    /// callers handle empty files on the heap path.
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot mmap an empty file",
            ));
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == MAP_FAILED || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[u8] {
        // Safety: ptr is a live PROT_READ mapping of exactly `len`
        // bytes, valid until drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Tell the kernel a byte range is accessed at random.
    ///
    /// This disables readahead *and* the fault-around optimization
    /// that maps in ~16 neighboring page-cache pages per fault.
    /// Without it, point lookups into a freshly written (fully
    /// cached) snapshot fault in whole neighborhoods and the
    /// process's RSS creeps toward the file size no matter how
    /// eagerly the bank evicts — the accounting only sees the bytes
    /// it asked for, not what the kernel mapped alongside them.
    pub fn advise_random(&self, offset: usize, len: usize) {
        self.advise(offset, len, MADV_RANDOM);
    }

    /// Drop the resident pages of a byte range.
    ///
    /// For a clean private file-backed mapping this releases the
    /// process's resident pages without losing data: the next access
    /// refaults from the page cache (or disk). This is the eviction
    /// primitive that bounds scan/serve RSS while scoring off a
    /// snapshot much larger than memory budget.
    pub fn advise_dontneed(&self, offset: usize, len: usize) {
        self.advise(offset, len, MADV_DONTNEED);
    }

    fn advise(&self, offset: usize, len: usize, advice: i32) {
        if offset >= self.len || len == 0 {
            return;
        }
        let page = page_size();
        // madvise wants a page-aligned start; round the start *down*
        // and the end up (clamped to the mapping) so the requested
        // range is fully covered.
        let start = (offset / page) * page;
        let end = (offset + len.min(self.len - offset)).div_ceil(page) * page;
        let end = end.min(self.len.div_ceil(page) * page);
        // Advice is best-effort by contract: a failure (e.g. a kernel
        // without the advice) only costs memory, never correctness.
        unsafe {
            madvise(self.ptr.add(start), end - start, advice);
        }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

/// The system page size, fetched once.
pub fn page_size() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PAGE: AtomicUsize = AtomicUsize::new(0);
    let cached = PAGE.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const _SC_PAGESIZE: i32 = 30;
    let sz = unsafe { sysconf(_SC_PAGESIZE) };
    let sz = if sz > 0 { sz as usize } else { 4096 };
    PAGE.store(sz, Ordering::Relaxed);
    sz
}

/// A heap byte buffer with 8-byte base alignment, so sections read
/// into it can be reinterpreted as `&[f32]` exactly like mapped ones
/// (a plain `Vec<u8>` only guarantees 1-byte alignment).
pub struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    pub fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        // Safety: words holds at least `len` initialized bytes and
        // u64 -> u8 loosens alignment.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

/// File bytes, either mapped in place or owned on the heap — the two
/// backing strategies behind [`MmapMode`].
pub enum FileBytes {
    Mapped(Mmap),
    Heap(AlignedBuf),
}

impl FileBytes {
    pub fn as_slice(&self) -> &[u8] {
        match self {
            FileBytes::Mapped(m) => m.as_slice(),
            FileBytes::Heap(v) => v.as_slice(),
        }
    }

    pub fn is_mapped(&self) -> bool {
        matches!(self, FileBytes::Mapped(_))
    }

    /// Evict the resident pages of a byte range (no-op on heap).
    pub fn advise_dontneed(&self, offset: usize, len: usize) {
        if let FileBytes::Mapped(m) = self {
            m.advise_dontneed(offset, len);
        }
    }

    /// Mark a byte range random-access (no-op on heap). See
    /// [`Mmap::advise_random`].
    pub fn advise_random(&self, offset: usize, len: usize) {
        if let FileBytes::Mapped(m) = self {
            m.advise_random(offset, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn map_reads_file_contents() {
        let dir = std::env::temp_dir().join("pge-store-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map_reads.bin");
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&data)
            .unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let m = Mmap::map(&f, data.len()).unwrap();
        assert_eq!(m.as_slice(), &data[..]);
        // Eviction must not change observable contents.
        m.advise_dontneed(0, m.len());
        assert_eq!(m.as_slice(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_map_is_rejected() {
        let dir = std::env::temp_dir().join("pge-store-mmap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        assert!(Mmap::map(&f, 0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mode_parses_cli_spellings() {
        assert_eq!(MmapMode::parse("auto"), Some(MmapMode::Auto));
        assert_eq!(MmapMode::parse("on"), Some(MmapMode::On));
        assert_eq!(MmapMode::parse("off"), Some(MmapMode::Off));
        assert_eq!(MmapMode::parse("maybe"), None);
        assert_eq!(MmapMode::On.as_str(), "on");
    }
}
