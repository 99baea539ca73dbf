//! Out-of-core embedding banks: precomputed entity vectors served in
//! place from a PGEBIN02 snapshot.
//!
//! The PGE model is inductive — any string can be embedded through
//! the text encoder — but at catalog scale almost every string a scan
//! or serving replica sees is one of the catalog's known entities
//! (titles and attribute values). A bank stores those vectors
//! precomputed, as three snapshot sections:
//!
//! * `bank.index` — one 16-byte entry per key, sorted by 64-bit
//!   FNV-1a hash (ties broken by key bytes): `u64 hash`,
//!   `u32 key_off`, `u32 key_len`. The entry's position *is* the row
//!   number, so the index carries no row field.
//! * `bank.keys` — the key strings, concatenated.
//! * `bank.rows` — `n x dim` packed f32 LE vectors, 64-byte aligned,
//!   row `i` belonging to index entry `i`.
//!
//! Rows are written as the exact bit pattern the encoder produced, so
//! a bank hit is bit-identical to recomputing the embedding — mmap
//! and heap backings can never disagree on a score.
//!
//! When the snapshot is mapped, the index is copied to the heap at
//! open (16 bytes per key — an eighth of a dim-32 row table) while
//! keys and rows are served off the map. The bank tracks a
//! page-granular estimate of the bytes its lookups have faulted in
//! and drops the row and key sections' resident pages
//! (`MADV_DONTNEED`) every time the estimate crosses a budget, which
//! is what keeps a full-catalog scan's RSS a small fraction of the
//! table size. The mapping itself is advised `MADV_RANDOM` at open
//! so kernel fault-around cannot make pages resident behind the
//! accounting's back.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::format::{SectionKind, SnapshotWriter};
use crate::reader::Snapshot;
use crate::StoreError;
use pge_tensor::{fnv1a, FNV_OFFSET};

/// Section names of a bank inside a PGEBIN02 snapshot.
pub const SEC_INDEX: &str = "bank.index";
pub const SEC_KEYS: &str = "bank.keys";
pub const SEC_ROWS: &str = "bank.rows";

const ENTRY: usize = 16;

/// Default touched-bytes budget between page evictions (32 MiB).
pub const DEFAULT_RESIDENT_BUDGET: u64 = 32 << 20;

/// 64-bit FNV-1a — the bank's key hash. Stable across platforms and
/// versions by construction; part of the on-disk format.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// A read-only embedding bank over an open snapshot.
pub struct EmbeddingBank {
    snap: Arc<Snapshot>,
    dim: usize,
    n: usize,
    // Resolved byte ranges into the snapshot, validated at open so
    // the lookup hot path can slice without re-finding sections.
    rows_off: usize,
    rows_len: usize,
    /// Heap copy of `bank.index` — resident by design (16 bytes per
    /// key); see the open path for why it is not served off the map.
    index: Vec<u8>,
    keys_off: usize,
    keys_len: usize,
    /// Estimated row bytes touched since the last eviction.
    touched: AtomicU64,
    budget: u64,
    evictions: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for EmbeddingBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingBank")
            .field("entries", &self.n)
            .field("dim", &self.dim)
            .field("mapped", &self.snap.is_mapped())
            .finish()
    }
}

impl EmbeddingBank {
    /// Open the bank stored in `snap`, if any.
    ///
    /// Returns `Ok(None)` when the snapshot has no bank sections (a
    /// plain model snapshot); bank sections that exist but are
    /// malformed are an error.
    pub fn open(
        snap: Arc<Snapshot>,
        resident_budget: u64,
    ) -> Result<Option<EmbeddingBank>, StoreError> {
        if snap.get(SEC_ROWS).is_none() {
            return Ok(None);
        }
        let rows = snap.section(SEC_ROWS)?;
        let index = snap.section(SEC_INDEX)?;
        let keys = snap.section(SEC_KEYS)?;
        if rows.meta.kind != SectionKind::F32 {
            return Err(StoreError::WrongKind {
                name: SEC_ROWS.into(),
            });
        }
        let n = rows.meta.rows as usize;
        let dim = rows.meta.cols as usize;
        if dim == 0 && n != 0 {
            return Err(StoreError::Corrupt("bank has zero-dim rows".into()));
        }
        if index.bytes.len() != n * ENTRY {
            return Err(StoreError::Corrupt(format!(
                "bank.index holds {} bytes for {} rows",
                index.bytes.len(),
                n
            )));
        }
        // The index is deliberately heap-resident — 16 bytes per key,
        // an eighth of a dim-32 row table. Binary search probes it
        // all over; served from the mapping, every lookup would fault
        // a fresh path of pages and the refault storm after each
        // eviction is exactly the RSS creep the budget exists to
        // stop. Keys and rows stay out-of-core: one or two pages per
        // lookup, evictable without thrash. Copy in slabs, evicting
        // the mapped pages behind the copy, so open itself never
        // holds more than a slab of the section resident.
        let mut index_heap = Vec::with_capacity(index.bytes.len());
        if snap.is_mapped() && resident_budget > 0 {
            let slab = ((resident_budget / 2) as usize).max(1 << 20);
            for chunk in index.bytes.chunks(slab) {
                index_heap.extend_from_slice(chunk);
                snap.evict_section(SEC_INDEX);
            }
        } else {
            index_heap.extend_from_slice(index.bytes);
        }

        // Validate every index entry once, so lookups can slice keys
        // unchecked-by-construction (still bounds-checked slices).
        // The walk is sequential over the whole key section; on a
        // mapped snapshot, evict the pages it faults in every
        // budget's worth so the open itself respects the RSS bound
        // (the pages refault cleanly from the page cache).
        let mut walked = 0u64;
        let kb = keys.bytes.len();
        let mut prev: Option<(u64, &[u8])> = None;
        for i in 0..n {
            let e = &index_heap[i * ENTRY..(i + 1) * ENTRY];
            let h = u64::from_le_bytes(e[0..8].try_into().unwrap());
            let off = u32::from_le_bytes(e[8..12].try_into().unwrap()) as usize;
            let len = u32::from_le_bytes(e[12..16].try_into().unwrap()) as usize;
            let key = keys
                .bytes
                .get(off..off + len)
                .ok_or_else(|| StoreError::Corrupt(format!("bank key {i} out of bounds ({kb})")))?;
            if fnv64(key) != h {
                return Err(StoreError::Corrupt(format!("bank key {i} hash mismatch")));
            }
            if let Some((ph, pk)) = prev {
                if (ph, pk) >= (h, key) {
                    return Err(StoreError::Corrupt(format!("bank index unsorted at {i}")));
                }
            }
            prev = Some((h, key));
            // Evicting mid-walk is fine for `prev`: the borrowed key
            // bytes refault from the page cache with identical
            // content.
            if resident_budget > 0 && snap.is_mapped() {
                walked += len as u64;
                if walked >= resident_budget {
                    snap.evict_section(SEC_KEYS);
                    walked = 0;
                }
            }
        }
        let rows_off = rows.meta.offset as usize;
        let rows_len = rows.meta.len as usize;
        let keys_off = keys.meta.offset as usize;
        let keys_len = keys.meta.len as usize;
        Ok(Some(EmbeddingBank {
            snap,
            dim,
            n,
            rows_off,
            rows_len,
            index: index_heap,
            keys_off,
            keys_len,
            touched: AtomicU64::new(0),
            budget: resident_budget,
            evictions: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }))
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether rows are served from a file mapping.
    pub fn is_mapped(&self) -> bool {
        self.snap.is_mapped()
    }

    /// Total size of the row table in bytes — what a heap load of the
    /// full table would allocate.
    pub fn table_bytes(&self) -> u64 {
        self.rows_len as u64
    }

    /// How many times the resident budget forced a page eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` since open.
    pub fn hit_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn file(&self) -> &[u8] {
        // Lifetime note: the returned slice borrows `self`, and the
        // Arc keeps the snapshot (mapping or heap buffer) alive at
        // least that long.
        self.snap.file_bytes()
    }

    /// The precomputed vector for `key`, if the bank holds it.
    ///
    /// The returned slice points straight into the snapshot backing —
    /// a mapped bank serves it from the page cache with no copy.
    pub fn lookup(&self, key: &str) -> Option<&[f32]> {
        let kb = key.as_bytes();
        let h = fnv64(kb);
        let file = self.file();
        let index = &self.index[..];
        let keys = &file[self.keys_off..self.keys_off + self.keys_len];

        let entry_hash = |i: usize| -> u64 {
            u64::from_le_bytes(index[i * ENTRY..i * ENTRY + 8].try_into().unwrap())
        };
        // Binary search for the first entry with this hash.
        let (mut lo, mut hi) = (0usize, self.n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if entry_hash(mid) < h {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Walk the (nearly always length-1) run of equal hashes.
        let mut i = lo;
        while i < self.n && entry_hash(i) == h {
            let e = &index[i * ENTRY..(i + 1) * ENTRY];
            let off = u32::from_le_bytes(e[8..12].try_into().unwrap()) as usize;
            let len = u32::from_le_bytes(e[12..16].try_into().unwrap()) as usize;
            if &keys[off..off + len] == kb {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.note_touch();
                let rows = self.rows_f32s();
                return Some(&rows[i * self.dim..(i + 1) * self.dim]);
            }
            i += 1;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // A miss still faulted index and key pages on the way down.
        self.note_touch();
        None
    }

    fn rows_f32s(&self) -> &[f32] {
        let b = &self.file()[self.rows_off..self.rows_off + self.rows_len];
        debug_assert_eq!(b.as_ptr() as usize % std::mem::align_of::<f32>(), 0);
        // Safety: alignment and shape validated at Snapshot::open /
        // bank open; little-endian target asserted at compile time.
        unsafe { std::slice::from_raw_parts(b.as_ptr() as *const f32, b.len() / 4) }
    }

    /// Account one lookup; evict the bank's resident pages when the
    /// touched estimate crosses the budget.
    ///
    /// Residency is page-granular, not row-granular: one random row
    /// touch makes a whole page resident, and the binary search
    /// faults index and key pages on the way. So each lookup is
    /// charged a few pages — an over-count for clustered access,
    /// which only makes eviction more eager, the conservative
    /// direction for an RSS bound.
    fn note_touch(&self) {
        if self.budget == 0 || !self.snap.is_mapped() {
            return;
        }
        // A lookup faults one row page and one or two key pages, but
        // the kernel's fault-around maps up to a 64 KiB cluster of
        // already-cached neighbors per fault — and unlike readahead,
        // fault-around ignores `MADV_RANDOM`. On a warm page cache
        // (a snapshot written moments ago) every fault really does
        // cost a full cluster of residency, so that is what each
        // lookup is charged: under-counting here is exactly how RSS
        // creeps to the file size between evictions.
        const FAULT_AROUND_BYTES: u64 = 64 << 10;
        let touch_bytes = 2 * FAULT_AROUND_BYTES.max(crate::mmap::page_size() as u64);
        // Claim evictions by *subtracting* whole budget multiples,
        // retrying on contention. The old scheme
        // (`compare_exchange(t, 0)` after the add) had two races
        // under concurrent lookups: a CAS that lost to a neighboring
        // add simply skipped the eviction (the counter sailed past
        // the budget and RSS kept growing), and a CAS that won
        // discarded the over-budget residual, silently forgetting
        // bytes other lookups had already charged. The subtract loop
        // keeps both: every budget's worth of charges is claimed by
        // exactly one lookup (one `madvise` pass per claim, however
        // many multiples it covers), and the remainder stays in the
        // counter for the next window — so across any interleaving,
        // `evictions == floor(total_charged / budget)`.
        let mut cur = self.touched.fetch_add(touch_bytes, Ordering::Relaxed) + touch_bytes;
        while cur >= self.budget {
            let units = cur / self.budget;
            match self.touched.compare_exchange(
                cur,
                cur % self.budget,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.snap.evict_section(SEC_ROWS);
                    self.snap.evict_section(SEC_KEYS);
                    self.evictions.fetch_add(units, Ordering::Relaxed);
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }

    fn evict_sections(&self) {
        // Not `bank.index` — lookups serve it from the heap copy.
        self.snap.evict_section(SEC_ROWS);
        self.snap.evict_section(SEC_KEYS);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop all resident bank pages now (e.g. after a scan shard
    /// commits). No-op for heap-backed banks.
    pub fn evict_resident(&self) {
        if self.snap.is_mapped() {
            // `swap`, not `store`: atomically claim whatever has been
            // charged so a concurrent lookup's add is either folded
            // into this reset or lands cleanly in the fresh window —
            // a plain store could overwrite an add that arrived
            // between the decision to reset and the reset itself.
            self.touched.swap(0, Ordering::Relaxed);
            self.evict_sections();
        }
    }
}

/// Collects the distinct keys of a bank, then streams the three bank
/// sections into a [`SnapshotWriter`], embedding each key exactly
/// once via the caller's closure.
#[derive(Default)]
pub struct BankBuilder {
    keys: HashSet<String>,
}

impl BankBuilder {
    pub fn new() -> BankBuilder {
        BankBuilder::default()
    }

    /// Register a key (deduplicated).
    pub fn add(&mut self, key: &str) {
        if !self.keys.contains(key) {
            self.keys.insert(key.to_string());
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Write `bank.index`, `bank.keys` and `bank.rows` into `w`.
    ///
    /// `embed` is called once per key, in index order, and must fill
    /// `out` with exactly `dim` values; rows stream straight to disk
    /// so the full table never lives in memory.
    pub fn write_sections(
        self,
        w: &mut SnapshotWriter,
        dim: usize,
        mut embed: impl FnMut(&str, &mut Vec<f32>),
    ) -> io::Result<()> {
        let mut keys: Vec<String> = self.keys.into_iter().collect();
        // Index order: (hash, key) — the sort the reader's binary
        // search and its open-time validation both rely on.
        keys.sort_by(|a, b| {
            (fnv64(a.as_bytes()), a.as_bytes()).cmp(&(fnv64(b.as_bytes()), b.as_bytes()))
        });
        let n = keys.len() as u64;

        w.begin_section(SEC_INDEX, SectionKind::Bytes, n, 0)?;
        let mut key_off = 0u64;
        for k in &keys {
            if key_off + k.len() as u64 > u32::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "bank key table exceeds 4 GiB",
                ));
            }
            let mut e = [0u8; ENTRY];
            e[0..8].copy_from_slice(&fnv64(k.as_bytes()).to_le_bytes());
            e[8..12].copy_from_slice(&(key_off as u32).to_le_bytes());
            e[12..16].copy_from_slice(&(k.len() as u32).to_le_bytes());
            w.write(&e)?;
            key_off += k.len() as u64;
        }
        w.end_section()?;

        w.begin_section(SEC_KEYS, SectionKind::Bytes, n, 0)?;
        for k in &keys {
            w.write(k.as_bytes())?;
        }
        w.end_section()?;

        w.begin_section(SEC_ROWS, SectionKind::F32, n, dim as u64)?;
        let mut row = Vec::with_capacity(dim);
        for k in &keys {
            row.clear();
            embed(k, &mut row);
            assert_eq!(row.len(), dim, "embed closure produced a wrong-size row");
            w.write_f32s(&row)?;
        }
        w.end_section()
    }
}
