//! pge-store — the out-of-core storage layer under the PGE stack.
//!
//! Three pieces, all zero-dependency (direct `mmap(2)` FFI instead of
//! a mapping crate, matching the workspace's vendored-only policy):
//!
//! * **PGEBIN02** ([`mod@format`], [`reader`]): a sectioned snapshot
//!   container — fixed header, 64-byte-aligned raw f32 LE sections,
//!   per-section CRC-32, name string table — designed to be memory-
//!   mapped and read in place. [`Snapshot`] validates everything at
//!   open and serves sections as borrowed `&[f32]` rows.
//! * **Embedding banks** ([`bank`]): precomputed entity vectors with
//!   a hash-sorted key index, served straight off the page cache with
//!   budgeted `MADV_DONTNEED` eviction so scan/serve RSS stays far
//!   below the table size.
//! * **PGECAT01** ([`catalog`]): a streaming binary catalog of raw
//!   triples for paper-scale datagen and bulk scans, with whole-body
//!   CRC verification at open.
//!
//! Heap fallbacks exist for every mapped path (`--mmap off`), and the
//! two backings are bit-identical by construction: rows on disk are
//! the exact bit patterns the encoder produced.

// In-place `&[u8] -> &[f32]` reads assume the on-disk little-endian
// layout is the in-memory one. Every supported target is LE; make a
// port to a BE target a compile error instead of silent corruption.
#[cfg(target_endian = "big")]
compile_error!("pge-store serves PGEBIN02 sections in place and requires a little-endian target");

pub mod bank;
pub mod catalog;
pub mod format;
pub mod mmap;
pub mod reader;

pub use bank::{BankBuilder, EmbeddingBank, DEFAULT_RESIDENT_BUDGET};
pub use catalog::{
    CatalogReader, CatalogRecord, CatalogRecords, CatalogSummary, CatalogWriter, CAT_MAGIC,
};
pub use format::{SectionKind, SnapshotWriter, MAGIC2};
pub use mmap::{page_size, MmapMode};
pub use reader::{peek_magic, Snapshot};

use std::fmt;
use std::io;

/// Typed errors for every store operation.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with a magic this store knows.
    UnknownFormat {
        magic: [u8; 8],
    },
    /// Structurally valid framing but failed CRC / bounds checks.
    Corrupt(String),
    /// Recognized format, unsupported contents (e.g. future version).
    Parse(String),
    /// `--mmap on` was requested and the mapping failed.
    MmapFailed(io::Error),
    /// A required section is absent from the snapshot.
    MissingSection(String),
    /// A section exists but has the wrong kind for the request.
    WrongKind {
        name: String,
    },
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownFormat { magic } => {
                write!(f, "unknown snapshot format (leading bytes {magic:02x?})")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt store file: {m}"),
            StoreError::Parse(m) => write!(f, "unsupported store file: {m}"),
            StoreError::MmapFailed(e) => {
                write!(f, "mmap failed (and --mmap on forbids fallback): {e}")
            }
            StoreError::MissingSection(n) => write!(f, "snapshot is missing section {n:?}"),
            StoreError::WrongKind { name } => {
                write!(f, "section {name:?} has the wrong kind for this access")
            }
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) | StoreError::MmapFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pge-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_sample_snapshot(path: &std::path::Path) {
        let mut w = SnapshotWriter::create(path).unwrap();
        w.add_bytes("meta", b"hello snapshot").unwrap();
        let vals: Vec<f32> = (0..96).map(|i| (i as f32) * 0.25 - 3.0).collect();
        w.add_f32s("rows", 12, 8, &vals).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_mapped_and_heap_agree() {
        let path = tmp("roundtrip.pgebin2");
        write_sample_snapshot(&path);
        for mode in [MmapMode::Auto, MmapMode::On, MmapMode::Off] {
            let s = Snapshot::open(&path, mode).unwrap();
            assert_eq!(s.section("meta").unwrap().bytes, b"hello snapshot");
            let rows = s.section("rows").unwrap();
            assert_eq!((rows.meta.rows, rows.meta.cols), (12, 8));
            let f = rows.as_f32s().unwrap();
            assert_eq!(f.len(), 96);
            assert_eq!(f[5].to_bits(), ((5.0f32) * 0.25 - 3.0).to_bits());
            if mode == MmapMode::On {
                assert!(s.is_mapped());
            }
            if mode == MmapMode::Off {
                assert!(!s.is_mapped());
            }
        }
        // Mapped and heap reads must be bitwise identical.
        let a = Snapshot::open(&path, MmapMode::On).unwrap();
        let b = Snapshot::open(&path, MmapMode::Off).unwrap();
        assert_eq!(
            a.section("rows").unwrap().bytes,
            b.section("rows").unwrap().bytes
        );
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let path = tmp("aligned.pgebin2");
        write_sample_snapshot(&path);
        let s = Snapshot::open(&path, MmapMode::Auto).unwrap();
        for m in s.sections() {
            assert_eq!(m.offset % 64, 0, "section {:?} misaligned", m.name);
        }
    }

    #[test]
    fn wrong_magic_is_unknown_format() {
        let path = tmp("nonsense.bin");
        std::fs::write(&path, b"NOTPGE00 some other file entirely").unwrap();
        match Snapshot::open(&path, MmapMode::Auto) {
            Err(StoreError::UnknownFormat { magic }) => assert_eq!(&magic, b"NOTPGE00"),
            other => panic!("expected UnknownFormat, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_bit_is_rejected_with_section_name() {
        let path = tmp("tampered.pgebin2");
        write_sample_snapshot(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the rows payload (after header+meta).
        let s = Snapshot::open(&path, MmapMode::Off).unwrap();
        let off = s
            .sections()
            .iter()
            .find(|m| m.name == "rows")
            .unwrap()
            .offset as usize;
        drop(s);
        bytes[off + 17] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match Snapshot::open(&path, MmapMode::Off) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("rows"), "message: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let path = tmp("truncated.pgebin2");
        write_sample_snapshot(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            Snapshot::open(&path, MmapMode::Auto),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn bank_roundtrip_lookup_and_bit_identity() {
        let path = tmp("bank.pgebin2");
        let keys = [
            "spicy tortilla chips",
            "sweet honey granola",
            "flavor",
            "honey",
            "spicy queso",
        ];
        let dim = 8;
        // A deterministic fake "encoder": hash-derived rows.
        let embed = |k: &str, out: &mut Vec<f32>| {
            let h = bank::fnv64(k.as_bytes());
            out.extend((0..dim).map(|i| ((h >> (i * 7)) & 0xff) as f32 / 17.0));
        };
        let mut w = SnapshotWriter::create(&path).unwrap();
        let mut b = BankBuilder::new();
        for k in keys {
            b.add(k);
            b.add(k); // dedupe
        }
        assert_eq!(b.len(), keys.len());
        b.write_sections(&mut w, dim, embed).unwrap();
        w.finish().unwrap();

        for mode in [MmapMode::On, MmapMode::Off] {
            let snap = Arc::new(Snapshot::open(&path, mode).unwrap());
            // 64-byte budget = two dim-8 rows: forces evictions mid-test.
            let bank = EmbeddingBank::open(snap, 64).unwrap().expect("bank");
            assert_eq!(bank.len(), keys.len());
            assert_eq!(bank.dim(), dim);
            for k in keys {
                let mut want = Vec::new();
                embed(k, &mut want);
                let got = bank.lookup(k).expect("hit");
                assert_eq!(
                    got.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "row for {k:?} must be bit-identical (mode {mode:?})"
                );
            }
            assert!(bank.lookup("never seen").is_none());
            // Tiny budget above forces evictions on the mapped path;
            // contents must be unaffected.
            if mode == MmapMode::On {
                assert!(bank.evictions() > 0);
                assert!(bank.lookup(keys[0]).is_some());
            }
            let (hits, misses) = bank.hit_stats();
            assert_eq!(hits, keys.len() as u64 + u64::from(mode == MmapMode::On));
            assert_eq!(misses, 1);
        }
    }

    #[test]
    fn bank_eviction_accounting_is_exact_under_concurrency() {
        // Regression: the touched-bytes counter used to be reset with
        // a racy `compare_exchange(t, 0)` — concurrent lookups could
        // lose the CAS (skipping evictions entirely) or win it and
        // discard the over-budget residual. The subtract-claim scheme
        // must satisfy `evictions == floor(total_charged / budget)`
        // exactly, for any interleaving.
        let path = tmp("bank-concurrent.pgebin2");
        let dim = 8;
        let keys: Vec<String> = (0..32).map(|i| format!("entity {i}")).collect();
        let embed = |k: &str, out: &mut Vec<f32>| {
            let h = bank::fnv64(k.as_bytes());
            out.extend((0..dim).map(|i| ((h >> (i * 5)) & 0xff) as f32 / 13.0));
        };
        let mut w = SnapshotWriter::create(&path).unwrap();
        let mut b = BankBuilder::new();
        for k in &keys {
            b.add(k);
        }
        b.write_sections(&mut w, dim, embed).unwrap();
        w.finish().unwrap();

        let snap = Arc::new(Snapshot::open(&path, MmapMode::On).unwrap());
        assert!(snap.is_mapped(), "test requires the mapped path");
        // The same per-lookup charge note_touch computes.
        let touch_bytes = 2 * (64u64 << 10).max(page_size() as u64);
        // A budget that doesn't divide evenly into charges, so the
        // residual bookkeeping actually matters.
        let budget = 5 * touch_bytes + touch_bytes / 2;
        let bank = EmbeddingBank::open(snap, budget).unwrap().expect("bank");

        let threads = 8;
        let lookups = 250usize;
        std::thread::scope(|s| {
            for t in 0..threads {
                let bank = &bank;
                let keys = &keys;
                s.spawn(move || {
                    for j in 0..lookups {
                        if j % 4 == 0 {
                            assert!(bank.lookup("no such entity").is_none());
                        } else {
                            let k = &keys[(t * lookups + j) % keys.len()];
                            assert!(bank.lookup(k).is_some(), "missing {k}");
                        }
                    }
                });
            }
        });

        let total_charged = threads as u64 * lookups as u64 * touch_bytes;
        assert_eq!(
            bank.evictions(),
            total_charged / budget,
            "every budget's worth of charged bytes must evict exactly once \
             (total {total_charged}, budget {budget})"
        );
        let (hits, misses) = bank.hit_stats();
        assert_eq!(hits + misses, (threads * lookups) as u64);
        // Explicit eviction claims whatever is pending and counts once.
        let before = bank.evictions();
        bank.evict_resident();
        assert_eq!(bank.evictions(), before + 1);
    }

    #[test]
    fn snapshot_without_bank_opens_as_none() {
        let path = tmp("nobank.pgebin2");
        write_sample_snapshot(&path);
        let snap = Arc::new(Snapshot::open(&path, MmapMode::Off).unwrap());
        assert!(EmbeddingBank::open(snap, 0).unwrap().is_none());
    }

    #[test]
    fn catalog_roundtrip_and_resume() {
        let path = tmp("catalog.bin");
        let mut w = CatalogWriter::create(&path, 13).unwrap();
        for i in 0..100 {
            w.note_product();
            w.add_triple(
                &format!("product {i}"),
                "flavor",
                &format!("taste {}", i % 7),
            )
            .unwrap();
            w.add_triple(&format!("product {i}"), "brand", "acme")
                .unwrap();
        }
        let sum = w.finish().unwrap();
        assert_eq!((sum.products, sum.triples), (100, 200));

        let r = CatalogReader::open(&path).unwrap();
        assert_eq!((r.seed(), r.products(), r.triples()), (13, 100, 200));
        let all: Vec<_> = r.records().unwrap().map(|x| x.unwrap()).collect();
        assert_eq!(all.len(), 200);
        assert_eq!(all[0].line, 1);
        assert_eq!(all[3].title, "product 1");
        assert_eq!(all[3].attr, "brand");
        assert_eq!(all[3].value, "acme");

        // Resume from the middle using the iterator's own position.
        let mut it = r.records().unwrap();
        for _ in 0..77 {
            it.next().unwrap().unwrap();
        }
        let resumed: Vec<_> = r
            .records_from(it.lines_done(), it.offset())
            .unwrap()
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(resumed.len(), 123);
        assert_eq!(resumed[0], all[77]);
        assert_eq!(resumed.last(), all.last());
    }

    #[test]
    fn tampered_catalog_is_rejected() {
        let path = tmp("catalog-tampered.bin");
        let mut w = CatalogWriter::create(&path, 1).unwrap();
        w.add_triple("a product", "flavor", "mild").unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match CatalogReader::open(&path) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("CRC"), "message: {m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Truncation is also typed.
        std::fs::write(&path, &bytes[..n - 3]).unwrap();
        assert!(matches!(
            CatalogReader::open(&path),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn catalog_rejects_fields_with_tabs() {
        let path = tmp("catalog-tabs.bin");
        let mut w = CatalogWriter::create(&path, 1).unwrap();
        assert!(w.add_triple("bad\ttitle", "flavor", "mild").is_err());
        assert!(w.add_triple("ok", "flavor", "bad\nvalue").is_err());
        assert!(w.add_triple("ok", "flavor", "mild").is_ok());
    }
}
