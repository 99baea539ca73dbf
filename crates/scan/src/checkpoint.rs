//! The durable checkpoint manifest a bulk scan commits after every
//! shard.
//!
//! `checkpoint.json` lives in the scan's output directory and is
//! rewritten through [`pge_store::Commit`] (temp file, fsync, rename)
//! each time a shard becomes durable. It records exactly how far the scan
//! has progressed — input byte offset, line count, quarantine byte
//! length — plus a CRC-32 per committed shard, so a killed scan can
//! resume from the last durable shard, verify that nothing on disk
//! rotted in between, and produce byte-identical output to a run that
//! was never interrupted.

use crate::pipeline::ScanError;
use pge_obs::json::{parse, Json};
use pge_store::Commit;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Manifest file name inside the scan output directory.
pub const MANIFEST_FILE: &str = "checkpoint.json";

/// Quarantine file name inside the scan output directory.
pub const QUARANTINE_FILE: &str = "quarantine.tsv";

/// Name of the `i`-th output shard.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:04}.tsv")
}

/// One committed (durable, CRC-stamped) output shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    pub file: String,
    /// Scored rows in this shard.
    pub rows: u64,
    /// Rows flagged as errors in this shard.
    pub errors: u64,
    /// File length in bytes.
    pub bytes: u64,
    /// CRC-32 of the file contents.
    pub crc32: u32,
}

/// Scan progress as of the last committed shard.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Rows per chunk — shard boundaries depend on it, so a resumed
    /// scan must use the identical value.
    pub chunk_size: usize,
    /// Chunks per shard; same resume constraint as `chunk_size`.
    pub shard_chunks: usize,
    /// Bit pattern of the `is_error` threshold: the classification in
    /// already-committed shards depends on it exactly.
    pub threshold_bits: u32,
    /// Total input length in bytes when the scan started; a resumed
    /// scan refuses an input file whose size changed.
    pub input_len: u64,
    /// Input bytes consumed through the last committed shard.
    pub input_bytes: u64,
    /// Input lines consumed through the last committed shard.
    pub lines_done: u64,
    /// Quarantined lines through the last committed shard.
    pub quarantined: u64,
    /// Quarantine file length at the last commit; a resume truncates
    /// the file back to this, dropping un-checkpointed tail writes.
    pub quarantine_bytes: u64,
    /// True once the whole input has been scanned.
    pub done: bool,
    pub shards: Vec<ShardEntry>,
}

impl Manifest {
    pub fn fresh(chunk_size: usize, shard_chunks: usize, threshold: f32, input_len: u64) -> Self {
        Manifest {
            chunk_size,
            shard_chunks,
            threshold_bits: threshold.to_bits(),
            input_len,
            input_bytes: 0,
            lines_done: 0,
            quarantined: 0,
            quarantine_bytes: 0,
            done: false,
            shards: Vec::new(),
        }
    }

    /// Rows scored across all committed shards.
    pub fn rows_total(&self) -> u64 {
        self.shards.iter().map(|s| s.rows).sum()
    }

    /// Rows flagged as errors across all committed shards.
    pub fn errors_total(&self) -> u64 {
        self.shards.iter().map(|s| s.errors).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            ("chunk_size".into(), Json::Num(self.chunk_size as f64)),
            ("shard_chunks".into(), Json::Num(self.shard_chunks as f64)),
            (
                "threshold_bits".into(),
                Json::Str(format!("{:08x}", self.threshold_bits)),
            ),
            ("input_len".into(), Json::Num(self.input_len as f64)),
            ("input_bytes".into(), Json::Num(self.input_bytes as f64)),
            ("lines_done".into(), Json::Num(self.lines_done as f64)),
            ("quarantined".into(), Json::Num(self.quarantined as f64)),
            (
                "quarantine_bytes".into(),
                Json::Num(self.quarantine_bytes as f64),
            ),
            ("done".into(), Json::Bool(self.done)),
            (
                "shards".into(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("file".into(), Json::Str(s.file.clone())),
                                ("rows".into(), Json::Num(s.rows as f64)),
                                ("errors".into(), Json::Num(s.errors as f64)),
                                ("bytes".into(), Json::Num(s.bytes as f64)),
                                ("crc32".into(), Json::Str(format!("{:08x}", s.crc32))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Manifest, ScanError> {
        let corrupt = |m: String| ScanError::Corrupt(m);
        let num = |k: &str| -> Result<u64, ScanError> {
            v.get(k)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| corrupt(format!("checkpoint missing numeric field {k:?}")))
        };
        let hex = |j: Option<&Json>, what: &str| -> Result<u32, ScanError> {
            j.and_then(Json::as_str)
                .and_then(|s| u32::from_str_radix(s, 16).ok())
                .ok_or_else(|| corrupt(format!("checkpoint missing hex field {what:?}")))
        };
        if num("version")? != 1 {
            return Err(corrupt("unsupported checkpoint version".into()));
        }
        let shards = v
            .get("shards")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("checkpoint missing shards array".into()))?
            .iter()
            .map(|s| {
                Ok(ShardEntry {
                    file: s
                        .get("file")
                        .and_then(Json::as_str)
                        .ok_or_else(|| corrupt("shard entry missing file".into()))?
                        .to_string(),
                    rows: s.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    errors: s.get("errors").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    bytes: s
                        .get("bytes")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| corrupt("shard entry missing bytes".into()))?
                        as u64,
                    crc32: hex(s.get("crc32"), "shard crc32")?,
                })
            })
            .collect::<Result<Vec<_>, ScanError>>()?;
        Ok(Manifest {
            chunk_size: num("chunk_size")? as usize,
            shard_chunks: num("shard_chunks")? as usize,
            threshold_bits: hex(v.get("threshold_bits"), "threshold_bits")?,
            input_len: num("input_len")?,
            input_bytes: num("input_bytes")?,
            lines_done: num("lines_done")?,
            quarantined: num("quarantined")?,
            quarantine_bytes: num("quarantine_bytes")?,
            done: v.get("done").and_then(Json::as_bool).unwrap_or(false),
            shards,
        })
    }

    /// Load the manifest from `out_dir`, or `None` when no checkpoint
    /// exists (a fresh directory).
    pub fn load(out_dir: &Path) -> Result<Option<Manifest>, ScanError> {
        let path = out_dir.join(MANIFEST_FILE);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ScanError::io(format!("read {}", path.display()), e)),
        };
        let json = parse(&text)
            .map_err(|e| ScanError::Corrupt(format!("unparseable checkpoint manifest: {e}")))?;
        Manifest::from_json(&json).map(Some)
    }

    /// Durably replace the manifest in `out_dir`. A kill at any point
    /// leaves either the previous manifest or this one — never a torn
    /// file.
    pub fn store(&self, out_dir: &Path) -> Result<(), ScanError> {
        let path = out_dir.join(MANIFEST_FILE);
        let write = || -> std::io::Result<()> {
            let mut f = Commit::create(&path)?;
            writeln!(f, "{}", self.to_json())?;
            f.finish()
        };
        write().map_err(|e| ScanError::io(format!("write {}", path.display()), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::fresh(128, 4, -2.5, 10_000);
        m.input_bytes = 4_096;
        m.lines_done = 520;
        m.quarantined = 3;
        m.quarantine_bytes = 210;
        m.shards.push(ShardEntry {
            file: shard_file_name(0),
            rows: 512,
            errors: 17,
            bytes: 9_999,
            crc32: 0xdead_beef,
        });
        m
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let m = sample();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.threshold_bits, (-2.5f32).to_bits());
        assert_eq!(back.rows_total(), 512);
        assert_eq!(back.errors_total(), 17);
    }

    #[test]
    fn store_then_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("pge-scan-ckpt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().expect("manifest exists");
        assert_eq!(back, m);
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_manifest_is_none_and_garbage_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("pge-scan-ckpt-miss-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        fs::write(dir.join(MANIFEST_FILE), "not json at all").unwrap();
        assert!(matches!(Manifest::load(&dir), Err(ScanError::Corrupt(_))));
        fs::write(dir.join(MANIFEST_FILE), r#"{"version":2,"shards":[]}"#).unwrap();
        assert!(Manifest::load(&dir).is_err(), "future versions rejected");
        fs::remove_dir_all(&dir).unwrap();
    }
}
