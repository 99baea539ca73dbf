//! Out-of-core scans: PGECAT01 catalog input and mmap-backed model
//! snapshots.
//!
//! * a binary catalog scan produces byte-identical shards to a TSV
//!   scan of the same triples — the input format never leaks into the
//!   scored output;
//! * the scan CRC matrix gains a `--mmap` axis: shard + quarantine
//!   bytes are identical whether the model is the in-memory trained
//!   one, a PGEBIN02 snapshot served off a mapping, or the same
//!   snapshot copied to the heap — with the precomputed embedding
//!   bank active on the snapshot paths;
//! * a scan killed under a mapped model and resumed under a heap copy
//!   (and vice versa) still reproduces the uninterrupted output byte
//!   for byte.

use pge_core::{load_model_auto_path, train_pge, write_model_sections, PgeConfig, PgeModel};
use pge_datagen::{generate_catalog, stream_catalog, CatalogConfig};
use pge_graph::Dataset;
use pge_scan::{scan, shard_file_name, Manifest, ScanConfig, QUARANTINE_FILE};
use pge_store::{BankBuilder, CatalogReader, CatalogWriter, MmapMode, SnapshotWriter};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

struct World {
    dataset: Dataset,
    model: PgeModel,
    /// PGECAT01 blob of a small streamed catalog.
    catalog: PathBuf,
    /// The same records as raw TSV lines.
    tsv: PathBuf,
    /// PGEBIN02 snapshot: model params + an embedding bank covering
    /// every distinct catalog title and value.
    snapshot: PathBuf,
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pge-scan-ooc-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let cfg = CatalogConfig {
            products: 80,
            labeled: 20,
            seed: 23,
            ..CatalogConfig::tiny()
        };
        let dataset = generate_catalog(&cfg);
        let model = train_pge(
            &dataset,
            &PgeConfig {
                epochs: 1,
                ..PgeConfig::tiny()
            },
        )
        .model;

        // Stream a sibling catalog (same lexicon, so every attribute
        // is known to the model) to a PGECAT01 blob.
        let catalog = temp_path("input.catalog.bin");
        let mut w = CatalogWriter::create(&catalog, 29).expect("create catalog");
        let stream_cfg = CatalogConfig {
            products: 60,
            seed: 29,
            ..CatalogConfig::tiny()
        };
        stream_catalog(&stream_cfg, &mut w).expect("stream catalog");
        w.finish().expect("finish catalog");

        // Mirror the records as TSV, and collect bank keys.
        let tsv = temp_path("input.tsv");
        let reader = CatalogReader::open(&catalog).expect("reopen catalog");
        let mut bank = BankBuilder::new();
        {
            let mut out = std::io::BufWriter::new(fs::File::create(&tsv).expect("create tsv"));
            for rec in reader.records().expect("records") {
                let rec = rec.expect("valid record");
                writeln!(out, "{}\t{}\t{}", rec.title, rec.attr, rec.value).unwrap();
                bank.add(&rec.title);
                bank.add(&rec.value);
            }
        }
        assert!(bank.len() > 60, "bank must cover titles and values");

        // Model + bank in one PGEBIN02 snapshot, rows being the exact
        // bit patterns the encoder produces.
        let snapshot = temp_path("model.pgebin2");
        let mut sw = SnapshotWriter::create(&snapshot).expect("create snapshot");
        write_model_sections(&model, &mut sw).expect("model sections");
        bank.write_sections(&mut sw, model.dim(), |key, row| {
            row.extend_from_slice(&model.embed_text_uncached(key));
        })
        .expect("bank sections");
        sw.finish().expect("finish snapshot");

        World {
            dataset,
            model,
            catalog,
            tsv,
            snapshot,
        }
    })
}

fn full_output(out_dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let manifest = Manifest::load(out_dir).unwrap().expect("manifest exists");
    let mut shards = Vec::new();
    for (i, s) in manifest.shards.iter().enumerate() {
        assert_eq!(s.file, shard_file_name(i));
        shards.extend_from_slice(&fs::read(out_dir.join(&s.file)).unwrap());
    }
    let quarantine = fs::read(out_dir.join(QUARANTINE_FILE)).unwrap_or_default();
    (shards, quarantine)
}

fn run_scan(model: &PgeModel, input: &Path, dir: &Path, jobs: usize) -> (Vec<u8>, Vec<u8>) {
    let mut c = ScanConfig::new(dir);
    c.jobs = jobs;
    c.chunk_size = 16;
    c.shard_chunks = 2;
    let outcome = scan(model, 0.0, input, &c).unwrap();
    assert!(outcome.done);
    assert_eq!(
        outcome.quarantined, 0,
        "catalog rows must all score (known attributes)"
    );
    let out = full_output(dir);
    fs::remove_dir_all(dir).unwrap();
    out
}

/// The input format never leaks into the scored output: a PGECAT01
/// scan and a TSV scan of the same records commit identical shard
/// bytes.
#[test]
fn catalog_scan_matches_tsv_scan() {
    let w = world();
    let from_catalog = run_scan(&w.model, &w.catalog, &temp_path("fmt-cat"), 2);
    let from_tsv = run_scan(&w.model, &w.tsv, &temp_path("fmt-tsv"), 2);
    assert!(!from_catalog.0.is_empty());
    assert_eq!(from_catalog, from_tsv);
}

/// The CRC matrix's `--mmap` axis: backing ∈ {in-memory trained,
/// mapped snapshot, heap snapshot} × jobs ∈ {1, 4} all commit
/// identical bytes. The snapshot backings serve title/value vectors
/// from the precomputed embedding bank; bank rows are the encoder's
/// exact bit patterns, so even the bank-vs-encoder flip is invisible
/// in the output.
#[test]
fn output_identical_across_mmap_axis() {
    let w = world();
    let mapped =
        load_model_auto_path(&w.snapshot, &w.dataset.graph, MmapMode::On, u64::MAX).unwrap();
    let heap =
        load_model_auto_path(&w.snapshot, &w.dataset.graph, MmapMode::Off, u64::MAX).unwrap();
    assert!(mapped.bank().is_some_and(|b| b.is_mapped()));
    assert!(heap.bank().is_some_and(|b| !b.is_mapped()));

    let mut baseline: Option<(Vec<u8>, Vec<u8>)> = None;
    for (name, model) in [
        ("inmem", &w.model),
        ("mmap-on", &mapped),
        ("mmap-off", &heap),
    ] {
        for jobs in [1usize, 4] {
            let dir = temp_path(&format!("axis-{name}-j{jobs}"));
            let out = run_scan(model, &w.catalog, &dir, jobs);
            match &baseline {
                None => baseline = Some(out),
                Some(base) => {
                    assert_eq!(&out, base, "backing={name} jobs={jobs} diverged")
                }
            }
        }
    }
    // The mapped scan actually used the bank.
    let (hits, _) = mapped.bank().unwrap().hit_stats();
    assert!(hits > 0, "mapped scan should hit the embedding bank");
}

/// Kill + resume across a backing flip: the first shard committed
/// under a mapped model, the rest under a heap copy (and the reverse)
/// — byte-identical to an uninterrupted scan either way.
#[test]
fn resume_across_backing_flip_is_byte_identical() {
    let w = world();
    let graph = &w.dataset.graph;
    let baseline = run_scan(&w.model, &w.catalog, &temp_path("flip-base"), 2);

    for (first_mode, second_mode) in [(MmapMode::On, MmapMode::Off), (MmapMode::Off, MmapMode::On)]
    {
        let dir = temp_path(&format!("flip-{first_mode:?}-{second_mode:?}"));
        let first_model = load_model_auto_path(&w.snapshot, graph, first_mode, u64::MAX).unwrap();
        let mut c = ScanConfig::new(&dir);
        c.jobs = 2;
        c.chunk_size = 16;
        c.shard_chunks = 2;
        c.max_shards = Some(1);
        let first = scan(&first_model, 0.0, &w.catalog, &c).unwrap();
        assert!(!first.done, "max_shards=1 must stop early");
        drop(first_model);

        let second_model = load_model_auto_path(&w.snapshot, graph, second_mode, u64::MAX).unwrap();
        let mut c = ScanConfig::new(&dir);
        c.jobs = 4;
        c.chunk_size = 16;
        c.shard_chunks = 2;
        c.resume = true;
        let second = scan(&second_model, 0.0, &w.catalog, &c).unwrap();
        assert!(second.done);
        assert!(second.resumed_rows > 0);
        assert_eq!(
            full_output(&dir),
            baseline,
            "kill under {first_mode:?} + resume under {second_mode:?} diverged"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
