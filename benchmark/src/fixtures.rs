//! Seeded fixtures: everything a workload reads is generated here
//! from `--seed`, rebuilt on every run and never cached. The program
//! under test only ever sees these generated inputs.

use crate::spans::Recorder;
use pge_core::{train_pge, write_model_sections, Detector, PgeConfig, PgeModel};
use pge_datagen::{generate_catalog, stream_catalog, CatalogConfig};
use pge_eval::{average_precision, Scored};
use pge_graph::{Dataset, Triple};
use pge_store::{BankBuilder, CatalogReader, CatalogWriter, SnapshotWriter};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Sizes of everything the suite builds and how often it repeats.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
    /// Products in the scanned catalog (~9.4 triples each).
    pub catalog_products: usize,
    /// Products whose requests the gateway generator cycles through.
    pub gateway_products: usize,
    /// Products / epochs of the sample model the scans and the
    /// gateway score with (as in `catalog_probe`).
    pub sample_products: usize,
    pub sample_epochs: usize,
    /// The `train` workload's dataset and schedule.
    pub train_products: usize,
    pub train_labeled: usize,
    pub train_epochs: usize,
    /// Fewest measured passes whatever `--seconds` says.
    pub min_passes: usize,
    /// Scan output rows checked against the offline oracle.
    pub oracle_rows: usize,
    /// Every n-th gateway response is checked against the oracle.
    pub oracle_every: usize,
    /// Prefix of the workload's inputs the per-layer replays use.
    pub replay_rows: usize,
    pub replay_requests: usize,
    pub replay_epochs: usize,
    /// Resident budget of the mapped bank in `scan_bank`.
    pub resident_mib: u64,
}

impl Scale {
    /// The issue's scales. The contract's cap on the whole acceptance
    /// run shortens the measured phase (fewer passes), not these.
    pub fn full() -> Scale {
        Scale {
            smoke: false,
            catalog_products: 300_000,
            gateway_products: 20_000,
            sample_products: 800,
            sample_epochs: 4,
            train_products: 3000,
            train_labeled: 2400,
            train_epochs: 8,
            min_passes: 2,
            oracle_rows: 2000,
            oracle_every: 50,
            replay_rows: 200_000,
            replay_requests: 20_000,
            replay_epochs: 2,
            resident_mib: 16,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            smoke: true,
            catalog_products: 15_000,
            gateway_products: 3000,
            sample_products: 300,
            sample_epochs: 2,
            train_products: 300,
            train_labeled: 200,
            train_epochs: 4,
            min_passes: 1,
            oracle_rows: 500,
            oracle_every: 50,
            replay_rows: 20_000,
            replay_requests: 2000,
            replay_epochs: 1,
            resident_mib: 1,
        }
    }

    /// Whether a measured phase that has finished `done` passes in
    /// `elapsed` of its `seconds` starts another: yes while the next
    /// pass would end nearer to `seconds` than the last one did, so a
    /// phase lasts about what was asked for, whatever a pass takes.
    pub fn another_pass(&self, done: usize, elapsed: f64, seconds: f64) -> bool {
        done < self.min_passes || elapsed + 0.5 * elapsed / done as f64 <= seconds
    }

    pub fn pick(smoke: bool) -> Scale {
        if smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

/// Seeds derived from the one `--seed`, so it is the only source of
/// variation: the catalog takes it as is, the labeled dataset and the
/// training RNG take these.
pub fn dataset_seed(seed: u64) -> u64 {
    seed ^ 0x5a17
}

pub fn train_seed(seed: u64) -> u64 {
    seed ^ 0x7ea1
}

/// The labeled dataset the sample model trains on. Children rebuild
/// it from the same knobs to get the identical vocabulary and graph.
pub fn sample_dataset(scale: &Scale, seed: u64) -> Dataset {
    generate_catalog(&CatalogConfig {
        products: scale.sample_products,
        labeled: scale.sample_products / 3,
        seed: dataset_seed(seed),
        ..CatalogConfig::default()
    })
}

pub fn sample_config(scale: &Scale, seed: u64) -> PgeConfig {
    PgeConfig {
        epochs: scale.sample_epochs,
        seed: train_seed(seed),
        ..PgeConfig::default()
    }
}

/// The `train` workload's dataset.
pub fn train_dataset(scale: &Scale, seed: u64) -> Dataset {
    generate_catalog(&CatalogConfig {
        products: scale.train_products,
        labeled: scale.train_labeled,
        seed: dataset_seed(seed),
        ..CatalogConfig::default()
    })
}

pub fn train_config(seed: u64, epochs: usize, threads: usize) -> PgeConfig {
    PgeConfig {
        epochs,
        threads,
        seed: train_seed(seed),
        ..PgeConfig::default()
    }
}

pub const CATALOG_BLOB: &str = "catalog.bin";
pub const CATALOG_TSV: &str = "catalog.tsv";
pub const MODEL_HEAP: &str = "model-heap.pgebin";
pub const MODEL_BANK: &str = "model-bank.pgebin";

/// Which files a workload's set-up has to produce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Need {
    /// Blob + TSV dump + bank-less snapshot.
    ScanEncode,
    /// Blob + bank-less snapshot + snapshot with bank.
    ScanBank,
    /// Blob (request source) + bank-less snapshot.
    Gateway,
}

/// What one fixture build produced and how long its steps took.
pub struct Built {
    pub total_s: f64,
    /// `(4 epochs × train triples) / train_pge wall seconds` of the
    /// sample-model training this build ran.
    pub sample_triples_per_s: f64,
    pub threshold: f32,
    /// PR-AUC of the sample model on its held-out split.
    pub pr_auc: f32,
    pub catalog_triples: u64,
    pub bank_keys: usize,
    /// Seconds inside `BankBuilder::write_sections` (embedding every
    /// key with `embed_text_uncached`); 0 without a bank.
    pub embed_s: f64,
}

fn write_snapshot(path: &Path, model: &PgeModel) -> Result<(), String> {
    let mut sw = SnapshotWriter::create(path).map_err(|e| format!("create snapshot: {e}"))?;
    write_model_sections(model, &mut sw).map_err(|e| format!("write model: {e}"))?;
    sw.finish().map_err(|e| format!("finish snapshot: {e}"))
}

/// Build every file `need` names into `dir`, timing the whole build
/// (and, through `rec`, its steps).
pub fn build(
    dir: &Path,
    need: Need,
    scale: &Scale,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    std::fs::create_dir_all(dir).map_err(|e| io("create fixture dir", e))?;
    let whole = rec.begin("setup.fixtures", 0);

    let blob = dir.join(CATALOG_BLOB);
    let products = if need == Need::Gateway {
        scale.gateway_products
    } else {
        scale.catalog_products
    };
    let s = rec.begin("datagen.stream_catalog", 0);
    let mut writer = CatalogWriter::create(&blob, seed).map_err(|e| io("create catalog", e))?;
    let stats = stream_catalog(
        &CatalogConfig {
            products,
            seed,
            ..CatalogConfig::default()
        },
        &mut writer,
    )
    .map_err(|e| io("stream catalog", e))?;
    writer.finish().map_err(|e| io("finish catalog", e))?;
    rec.end(s, 1);

    if need == Need::ScanEncode {
        let s = rec.begin("setup.tsv_dump", 0);
        let reader = CatalogReader::open(&blob).map_err(|e| format!("open catalog: {e}"))?;
        let file = std::fs::File::create(dir.join(CATALOG_TSV)).map_err(|e| io("create tsv", e))?;
        let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
        for record in reader.records().map_err(|e| io("read catalog", e))? {
            let r = record.map_err(|e| format!("catalog record: {e}"))?;
            writeln!(w, "{}\t{}\t{}", r.title, r.attr, r.value).map_err(|e| io("write tsv", e))?;
        }
        w.flush().map_err(|e| io("flush tsv", e))?;
        rec.end(s, stats.triples);
    }

    let data = sample_dataset(scale, seed);
    let s = rec.begin("core.train_pge", 0);
    let trained = train_pge(&data, &sample_config(scale, seed));
    let train_s = rec.end(s, 1);
    let det = Detector::fit(&trained.model, &data.graph, &data.valid);
    let threshold = det.threshold;
    let pr_auc = pr_auc(&det, &data);
    write_snapshot(&dir.join(MODEL_HEAP), &trained.model)?;

    let (mut bank_keys, mut embed_s) = (0, 0.0);
    if need == Need::ScanBank {
        let s = rec.begin("store.bank_collect", 0);
        let reader = CatalogReader::open(&blob).map_err(|e| format!("open catalog: {e}"))?;
        let mut builder = BankBuilder::new();
        for record in reader.records().map_err(|e| io("read catalog", e))? {
            let r = record.map_err(|e| format!("catalog record: {e}"))?;
            builder.add(&r.title);
            builder.add(&r.value);
        }
        bank_keys = builder.len();
        rec.end(s, stats.triples);
        let mut sw =
            SnapshotWriter::create(&dir.join(MODEL_BANK)).map_err(|e| io("create snapshot", e))?;
        write_model_sections(&trained.model, &mut sw).map_err(|e| format!("write model: {e}"))?;
        let s = rec.begin("store.bank_write_sections", 0);
        builder
            .write_sections(&mut sw, trained.model.dim(), |key, row| {
                row.extend_from_slice(&trained.model.embed_text_uncached(key));
            })
            .map_err(|e| io("write bank", e))?;
        embed_s = rec.end(s, bank_keys as u64);
        sw.finish().map_err(|e| io("finish snapshot", e))?;
    }

    let total_s = rec.end(whole, 1);
    Ok(Built {
        total_s,
        sample_triples_per_s: (scale.sample_epochs * data.train.len()) as f64 / train_s,
        threshold,
        pr_auc,
        catalog_triples: stats.triples,
        bank_keys,
        embed_s,
    })
}

/// The test split scored by `det` for PR-AUC: incorrect triples are
/// the positives, and low plausibility ranks first.
pub fn test_scored(det: &Detector<PgeModel>, data: &Dataset) -> Vec<Scored> {
    let triples: Vec<Triple> = data.test.iter().map(|lt| lt.triple).collect();
    det.scores(&data.graph, &triples)
        .iter()
        .zip(&data.test)
        .map(|(&s, lt)| Scored::new(-s, !lt.correct))
        .collect()
}

pub fn pr_auc(det: &Detector<PgeModel>, data: &Dataset) -> f32 {
    average_precision(&test_scored(det, data))
}

/// `benchmark/out/<name>` under the checkout the command runs in.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}
