//! # pge-scan — checkpointed streaming bulk scan
//!
//! Offline, catalog-scale error detection: stream a raw TSV triple
//! file (`title \t attribute \t value` per line) through a trained
//! PGE model and write sharded, CRC-stamped score files plus a
//! quarantine of unparseable rows — with a durable checkpoint after
//! every shard so a killed scan resumes where it left off and still
//! produces **byte-identical** output to an uninterrupted run.
//!
//! This is the offline half of the deployment story; `pge serve`
//! ([`pge-gateway`], online, latency-bound micro-batching) is the
//! other. Both reuse
//! the same [`pge_core`] scoring path and sharded embedding cache, so
//! a score computed by a bulk scan and one computed by the service
//! agree bit-for-bit.
//!
//! ```no_run
//! use pge_scan::{scan, ScanConfig};
//! # fn demo(model: &pge_core::PgeModel) -> Result<(), pge_scan::ScanError> {
//! let mut cfg = ScanConfig::new("scan-out");
//! cfg.jobs = 8;
//! let outcome = scan(model, -2.0, std::path::Path::new("catalog.tsv"), &cfg)?;
//! println!("{} rows, {} flagged", outcome.rows_total, outcome.errors_total);
//! // ... kill + rerun with cfg.resume = true picks up at the last shard.
//! # Ok(()) }
//! ```
//!
//! [`pge-gateway`]: ../pge_gateway/index.html

pub mod checkpoint;
pub mod pipeline;

pub use checkpoint::{shard_file_name, Manifest, ShardEntry, MANIFEST_FILE, QUARANTINE_FILE};
pub use pipeline::{scan, scan_with_tracer, ScanConfig, ScanError, ScanOutcome};
