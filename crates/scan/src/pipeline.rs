//! The streaming scan pipeline: reader → worker pool → ordered
//! committer.
//!
//! One reader thread streams the input line-at-a-time
//! ([`pge_graph::RawTripleReader`]) into fixed-size chunks; a pool of
//! `jobs` workers scores chunks through a [`CachedModel`] (sharing one
//! sharded [`EmbeddingCache`]); the committer (the calling thread)
//! restores chunk order, appends rows to the current shard, routes
//! malformed and unknown-attribute lines to the quarantine file, and
//! after every `shard_chunks` chunks commits the shard through
//! [`pge_store::Commit`] and rewrites the checkpoint manifest the same
//! way.
//!
//! **Determinism.** Scoring is a pure function of the row text (cache
//! hits return byte-identical vectors), chunk boundaries depend only
//! on `chunk_size`, and the committer writes chunks strictly in input
//! order — so the concatenated shard output is byte-identical for any
//! `jobs`, and a killed scan resumed from its last durable shard
//! reproduces exactly what an uninterrupted run would have written.
//!
//! **Parallelism.** Each worker owns a bounded private queue and the
//! reader deals chunks round-robin (`idx % jobs`), so chunk handoff
//! never serializes the pool. (The first cut shared one
//! `Mutex<Receiver>` across workers; on top of recv contention it
//! made every handoff a lock round-trip, and the scaling curve was
//! flat. A per-worker [`WorkerLedger`] now records busy time and
//! chunk counts per worker precisely so that regression class is
//! visible: spans around the scoring loop include blocked-on-channel
//! time and cannot distinguish a serialized pool from a busy one.)
//!
//! **Bounded memory.** Worker queues hold 2 chunks each and the done
//! channel `2 × jobs`, and the committer's reorder buffer cannot
//! exceed the number of in-flight chunks, so peak memory is
//! `O(jobs × chunk_size × row size)` regardless of input size.

use crate::checkpoint::{shard_file_name, Manifest, ShardEntry, MANIFEST_FILE, QUARANTINE_FILE};
use pge_core::{CachedModel, EmbeddingCache, PgeModel, ScoreScratch};
use pge_graph::{RawTriple, RawTripleError, RawTripleReader};
use pge_obs::{span, Stage, Tracer, WorkerLedger};
use pge_store::{CatalogReader, CatalogRecords, Commit, StoreError, CAT_MAGIC};
use pge_tensor::Crc32;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::time::Instant;

/// Bulk-scan failures.
#[derive(Debug)]
pub enum ScanError {
    /// An I/O failure, with the operation that hit it.
    Io(String, io::Error),
    /// On-disk state (checkpoint, shard) failed validation.
    Corrupt(String),
    /// The requested scan is inconsistent with the existing
    /// checkpoint (different knobs, changed input, missing --resume).
    Mismatch(String),
}

impl ScanError {
    pub(crate) fn io(context: String, e: io::Error) -> Self {
        ScanError::Io(context, e)
    }
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(ctx, e) => write!(f, "{ctx}: {e}"),
            ScanError::Corrupt(m) => write!(f, "corrupt scan state: {m}"),
            ScanError::Mismatch(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Knobs of a bulk scan.
#[derive(Clone, Debug)]
pub struct ScanConfig {
    /// Output directory: shards, quarantine, and the checkpoint
    /// manifest all live here.
    pub out_dir: PathBuf,
    /// Worker threads scoring chunks; 0 = auto (available
    /// parallelism, capped at 8 like the offline detector).
    pub jobs: usize,
    /// Rows per chunk (the unit of work handed to one worker).
    pub chunk_size: usize,
    /// Chunks per output shard (the unit of durability). A resumed
    /// scan must reuse the original `chunk_size` and `shard_chunks`.
    pub shard_chunks: usize,
    /// Embedding-cache capacity shared by all workers.
    pub cache_cap: usize,
    /// Continue from an existing checkpoint instead of insisting on a
    /// clean output directory.
    pub resume: bool,
    /// Commit at most this many shards, then stop as if killed —
    /// the ops/test hook behind the kill-and-resume guarantees.
    pub max_shards: Option<u64>,
}

impl ScanConfig {
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        ScanConfig {
            out_dir: out_dir.into(),
            jobs: 0,
            chunk_size: 2048,
            shard_chunks: 16,
            cache_cap: 65_536,
            resume: false,
            max_shards: None,
        }
    }

    /// The worker count a scan with this config will actually use:
    /// `jobs` when explicit, otherwise
    /// [`pge_core::default_scoring_threads`]. Lets callers log the
    /// resolved value up front instead of echoing the `0 = auto`
    /// sentinel.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            pge_core::default_scoring_threads()
        }
    }
}

/// What a [`scan`] invocation accomplished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScanOutcome {
    /// Rows scored by *this* invocation.
    pub rows_scanned: u64,
    /// Rows scored across all invocations (committed shards).
    pub rows_total: u64,
    /// Rows flagged as errors by this invocation.
    pub errors_flagged: u64,
    /// Rows flagged as errors across all committed shards.
    pub errors_total: u64,
    /// Lines quarantined by this invocation.
    pub quarantined: u64,
    /// Lines quarantined across all invocations.
    pub quarantined_total: u64,
    /// Shards committed by this invocation.
    pub shards_committed: u64,
    /// Shards on disk in total.
    pub shards_total: u64,
    /// Rows skipped because a checkpoint already covered them.
    pub resumed_rows: u64,
    /// True when the whole input has been scanned (false after a
    /// `max_shards` stop).
    pub done: bool,
    pub elapsed_sec: f64,
    /// This invocation's scored rows per second.
    pub rows_per_sec: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Worker threads actually used (resolved from `ScanConfig::jobs`;
    /// 0 on the nothing-to-do path).
    pub jobs: usize,
    /// `std::thread::available_parallelism()` on this host — what
    /// `jobs = 0` auto-detection saw, recorded so bench JSON reports
    /// the true core count instead of a guess.
    pub host_cpus: usize,
    /// Active compute kernel (`"scalar"` or `"simd"`).
    pub kernel: String,
    /// Per-worker busy seconds (time actively scoring chunks,
    /// excluding channel waits), in worker order.
    pub worker_busy_sec: Vec<f64>,
    /// Per-worker chunks processed, in worker order.
    pub worker_chunks: Vec<u64>,
    /// Σ worker busy time / wall time: ~1.0 means the pool did one
    /// core's worth of concurrent scoring no matter how many workers
    /// it had — the signature of the serialized-handoff bug.
    pub effective_parallelism: f64,
}

/// A chunk of parsed input on its way to the workers.
struct Chunk {
    idx: u64,
    rows: Vec<RawTriple>,
    bad: Vec<RawTripleError>,
    /// Reader position after this chunk's last line — what the
    /// checkpoint records when the covering shard commits.
    end_line: u64,
    end_offset: u64,
    /// Flight-recorder trace ID following this chunk through
    /// read → score → commit.
    trace: u64,
    /// When the reader produced the chunk; the trace's epoch.
    born: Instant,
}

/// A chunk after scoring: `None` = the attribute is unknown to the
/// model (no relation vector), which quarantines the row.
struct ScoredChunk {
    idx: u64,
    rows: Vec<(RawTriple, Option<f32>)>,
    bad: Vec<RawTripleError>,
    end_line: u64,
    end_offset: u64,
    trace: u64,
    born: Instant,
}

/// An output shard being accumulated, not yet durable.
struct ShardInProgress {
    file: Commit,
    crc: Crc32,
    bytes: u64,
    rows: u64,
    errors: u64,
    chunks: usize,
}

/// The ordered writer: quarantine sink, current shard, checkpoint.
struct Committer<'a> {
    out_dir: &'a Path,
    manifest: Manifest,
    threshold: f32,
    quarantine: File,
    q_bytes: u64,
    /// `q_bytes` as of the last commit: the quarantine file is only
    /// fsynced when it actually grew (the common case is zero
    /// quarantined lines, where the fsync was pure per-shard latency).
    q_synced_bytes: u64,
    q_lines: u64,
    cur: Option<ShardInProgress>,
    /// Reader position covered by everything appended so far.
    pos: (u64, u64),
    /// This invocation's tallies.
    new_rows: u64,
    new_errors: u64,
    new_quarantined: u64,
    new_shards: u64,
    line_buf: String,
}

impl<'a> Committer<'a> {
    fn shard(&mut self) -> Result<&mut ShardInProgress, ScanError> {
        if self.cur.is_none() {
            let path = self
                .out_dir
                .join(shard_file_name(self.manifest.shards.len()));
            // 256 KiB batches ~2k scored rows per write syscall;
            // the stock 8 KiB buffer paid one every ~70 rows.
            let file = Commit::with_capacity(256 << 10, &path)
                .map_err(|e| ScanError::io(format!("create {}.tmp", path.display()), e))?;
            self.cur = Some(ShardInProgress {
                file,
                crc: Crc32::new(),
                bytes: 0,
                rows: 0,
                errors: 0,
                chunks: 0,
            });
        }
        Ok(self.cur.as_mut().unwrap())
    }

    fn quarantine_line(
        &mut self,
        line: usize,
        offset: u64,
        reason: &str,
        raw: &str,
    ) -> Result<(), ScanError> {
        self.line_buf.clear();
        use std::fmt::Write as _;
        let _ = writeln!(self.line_buf, "{line}\t{offset}\t{reason}\t{raw}");
        self.quarantine
            .write_all(self.line_buf.as_bytes())
            .map_err(|e| ScanError::io("append quarantine".into(), e))?;
        self.q_bytes += self.line_buf.len() as u64;
        self.q_lines += 1;
        self.new_quarantined += 1;
        Ok(())
    }

    /// Append one scored chunk: shard rows in input order, malformed
    /// and unknown-attribute lines merged into the quarantine by line
    /// number.
    fn append_chunk(&mut self, c: ScoredChunk) -> Result<(), ScanError> {
        let _s = span("scan.write");
        let threshold = self.threshold;
        let mut bad = c.bad.into_iter().peekable();
        for (t, score) in c.rows {
            while bad.peek().is_some_and(|b| b.line < t.line) {
                let b = bad.next().unwrap();
                self.quarantine_line(b.line, b.offset, &b.reason, &b.raw)?;
            }
            match score {
                Some(p) => {
                    let is_error = p.is_nan() || p <= threshold;
                    self.line_buf.clear();
                    use std::fmt::Write as _;
                    let _ = writeln!(self.line_buf, "{}\t{}\t{}", t.text(), p, u8::from(is_error));
                    let line = std::mem::take(&mut self.line_buf);
                    let sp = self.shard()?;
                    sp.crc.update(line.as_bytes());
                    sp.bytes += line.len() as u64;
                    sp.rows += 1;
                    sp.errors += u64::from(is_error);
                    let res = sp.file.write_all(line.as_bytes());
                    self.line_buf = line;
                    res.map_err(|e| ScanError::io("append shard".into(), e))?;
                    self.new_rows += 1;
                    self.new_errors += u64::from(is_error);
                }
                None => {
                    let reason = format!("unknown attribute {:?}", t.attr());
                    self.quarantine_line(t.line, t.offset, &reason, t.text())?;
                }
            }
        }
        for b in bad {
            self.quarantine_line(b.line, b.offset, &b.reason, &b.raw)?;
        }
        self.pos = (c.end_line, c.end_offset);
        // Even a chunk with zero scorable rows advances the shard's
        // chunk count: shard boundaries must depend only on the input,
        // never on how many rows survived parsing.
        self.shard()?.chunks += 1;
        Ok(())
    }

    /// True when the current shard holds `shard_chunks` chunks.
    fn shard_full(&self) -> bool {
        self.cur
            .as_ref()
            .is_some_and(|s| s.chunks >= self.manifest.shard_chunks)
    }

    /// Make the current shard durable and checkpoint: commit the
    /// shard, fsync the quarantine, commit the manifest.
    fn commit(&mut self) -> Result<(), ScanError> {
        let Some(sp) = self.cur.take() else {
            return Ok(());
        };
        let _s = span("scan.commit");
        let name = shard_file_name(self.manifest.shards.len());
        sp.file
            .finish()
            .map_err(|e| ScanError::io(format!("commit {name}"), e))?;
        if self.q_bytes != self.q_synced_bytes {
            self.quarantine
                .sync_all()
                .map_err(|e| ScanError::io("fsync quarantine".into(), e))?;
            self.q_synced_bytes = self.q_bytes;
        }
        self.manifest.shards.push(ShardEntry {
            file: name,
            rows: sp.rows,
            errors: sp.errors,
            bytes: sp.bytes,
            crc32: sp.crc.finish(),
        });
        self.manifest.lines_done = self.pos.0;
        self.manifest.input_bytes = self.pos.1;
        self.manifest.quarantined = self.q_lines;
        self.manifest.quarantine_bytes = self.q_bytes;
        self.manifest.store(self.out_dir)?;
        self.new_shards += 1;
        Ok(())
    }

    /// Commit any partial shard and mark the scan complete.
    fn finalize(&mut self) -> Result<(), ScanError> {
        self.commit()?;
        self.manifest.done = true;
        // Trailing blank/comment lines can advance the reader past
        // the last committed chunk; record the final position.
        self.manifest.lines_done = self.manifest.lines_done.max(self.pos.0);
        self.manifest.input_bytes = self.manifest.input_bytes.max(self.pos.1);
        self.manifest.store(self.out_dir)
    }
}

/// Validate an existing checkpoint against this invocation and the
/// on-disk shards, returning the manifest to resume from.
fn validate_resume(
    m: Manifest,
    cfg: &ScanConfig,
    threshold: f32,
    input_len: u64,
) -> Result<Manifest, ScanError> {
    let want = |what: &str, a: String, b: String| {
        Err(ScanError::Mismatch(format!(
            "cannot resume: {what} differs from the checkpoint (checkpoint {a}, requested {b}); \
             rerun with the original settings or start a fresh --out-dir"
        )))
    };
    if m.chunk_size != cfg.chunk_size {
        return want(
            "--chunk-size",
            m.chunk_size.to_string(),
            cfg.chunk_size.to_string(),
        );
    }
    if m.shard_chunks != cfg.shard_chunks {
        return want(
            "--shard-chunks",
            m.shard_chunks.to_string(),
            cfg.shard_chunks.to_string(),
        );
    }
    if m.threshold_bits != threshold.to_bits() {
        return want(
            "threshold",
            f32::from_bits(m.threshold_bits).to_string(),
            threshold.to_string(),
        );
    }
    if m.input_len != input_len {
        return Err(ScanError::Mismatch(format!(
            "cannot resume: input file length changed ({} -> {input_len} bytes); \
             the checkpoint no longer describes this input",
            m.input_len
        )));
    }
    for s in &m.shards {
        let path = cfg.out_dir.join(&s.file);
        let bytes = fs::read(&path)
            .map_err(|e| ScanError::io(format!("read committed shard {}", path.display()), e))?;
        if bytes.len() as u64 != s.bytes {
            return Err(ScanError::Corrupt(format!(
                "shard {} is {} bytes, checkpoint says {}",
                s.file,
                bytes.len(),
                s.bytes
            )));
        }
        let crc = pge_tensor::crc32(&bytes);
        if crc != s.crc32 {
            return Err(ScanError::Corrupt(format!(
                "shard {} CRC-32 mismatch (file {crc:08x}, checkpoint {:08x})",
                s.file, s.crc32
            )));
        }
    }
    Ok(m)
}

/// Remove stray `*.tmp` files (a kill mid-shard or mid-manifest-write
/// leaves one; it is not durable state).
fn remove_stale_tmp(out_dir: &Path) -> Result<(), ScanError> {
    let entries = fs::read_dir(out_dir)
        .map_err(|e| ScanError::io(format!("list {}", out_dir.display()), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| ScanError::io("list out-dir".into(), e))?;
        if entry.path().extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(entry.path())
                .map_err(|e| ScanError::io("remove stale tmp".into(), e))?;
        }
    }
    Ok(())
}

/// The scan's input stream: raw TSV lines or a binary PGECAT01
/// catalog, sniffed by magic. Both yield [`RawTriple`] rows with
/// (line, byte-offset) resume positions, so the chunker, workers,
/// committer, and checkpoint manifest are format-agnostic — a resumed
/// catalog scan is byte-identical to an uninterrupted one exactly
/// like a resumed TSV scan.
enum TripleSource {
    Tsv(RawTripleReader<BufReader<File>>),
    Catalog(CatalogRecords),
}

impl TripleSource {
    /// Open `input` positioned at a resume point (`lines_done` rows
    /// already consumed, the next row starting at byte `offset`; 0/0
    /// means the beginning). Opening a catalog verifies its whole-body
    /// CRC before any record is served.
    fn open(input: &Path, lines_done: u64, offset: u64) -> Result<TripleSource, ScanError> {
        let is_catalog = matches!(pge_store::peek_magic(input), Ok(m) if &m == CAT_MAGIC);
        if is_catalog {
            let reader = CatalogReader::open(input).map_err(|e| match e {
                StoreError::Io(io) => ScanError::io(format!("open {}", input.display()), io),
                other => ScanError::Corrupt(format!("catalog {}: {other}", input.display())),
            })?;
            let records = if offset == 0 {
                reader.records()
            } else {
                reader.records_from(lines_done, offset)
            }
            .map_err(|e| ScanError::io(format!("open {}", input.display()), e))?;
            Ok(TripleSource::Catalog(records))
        } else {
            let mut f = File::open(input)
                .map_err(|e| ScanError::io(format!("open {}", input.display()), e))?;
            f.seek(SeekFrom::Start(offset))
                .map_err(|e| ScanError::io("seek input".into(), e))?;
            Ok(TripleSource::Tsv(RawTripleReader::with_position(
                BufReader::with_capacity(256 << 10, f),
                lines_done as usize,
                offset,
            )))
        }
    }

    fn next_row(&mut self) -> Option<Result<RawTriple, RawTripleError>> {
        match self {
            TripleSource::Tsv(r) => r.next(),
            TripleSource::Catalog(r) => {
                let rec = match r.next()? {
                    Ok(rec) => rec,
                    // Catalog framing is length-prefixed: a bad record
                    // cannot be skipped, so surface it as a fatal read
                    // failure (the scan aborts) rather than data to
                    // quarantine.
                    Err(e) => {
                        return Some(Err(RawTripleError {
                            line: r.lines_done() as usize + 1,
                            offset: r.offset(),
                            reason: format!("read error: {e}"),
                            raw: String::new(),
                        }))
                    }
                };
                Some(RawTriple::from_fields(
                    rec.line as usize,
                    rec.offset,
                    &rec.title,
                    &rec.attr,
                    &rec.value,
                ))
            }
        }
    }

    /// Rows consumed so far (the committer's checkpoint position).
    fn lines_done(&self) -> u64 {
        match self {
            TripleSource::Tsv(r) => r.lines_done() as u64,
            TripleSource::Catalog(r) => r.lines_done(),
        }
    }

    /// Byte offset of the next unread row.
    fn offset(&self) -> u64 {
        match self {
            TripleSource::Tsv(r) => r.offset(),
            TripleSource::Catalog(r) => r.offset(),
        }
    }
}

/// Run a bulk scan of `input` (raw `title \t attr \t value` lines or
/// a binary PGECAT01 catalog, auto-detected by magic), scoring every
/// row with `model` and classifying against `threshold`, writing
/// sharded output + quarantine + checkpoint into `cfg.out_dir`. See
/// the module docs for the determinism and memory guarantees.
pub fn scan(
    model: &PgeModel,
    threshold: f32,
    input: &Path,
    cfg: &ScanConfig,
) -> Result<ScanOutcome, ScanError> {
    // Callers that don't care about per-chunk traces get a private
    // tracer; its retained set is simply dropped with it.
    let tracer = Tracer::default();
    scan_with_tracer(model, threshold, input, cfg, &tracer)
}

/// [`scan`], but recording every chunk's read → score → commit
/// timeline into `tracer`'s flight recorder. Chunks whose end-to-end
/// latency exceeds the tracer's threshold land in its retained set,
/// which the CLI dumps into the runlog as `trace` events.
pub fn scan_with_tracer(
    model: &PgeModel,
    threshold: f32,
    input: &Path,
    cfg: &ScanConfig,
    tracer: &Tracer,
) -> Result<ScanOutcome, ScanError> {
    let started = Instant::now();
    fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| ScanError::io(format!("create {}", cfg.out_dir.display()), e))?;
    let input_len = fs::metadata(input)
        .map_err(|e| ScanError::io(format!("stat {}", input.display()), e))?
        .len();

    let existing = Manifest::load(&cfg.out_dir)?;
    let manifest = match (cfg.resume, existing) {
        (false, Some(_)) => {
            return Err(ScanError::Mismatch(format!(
                "{} already contains {MANIFEST_FILE}; pass resume to continue it \
                 or point the scan at a clean directory",
                cfg.out_dir.display()
            )))
        }
        (true, Some(m)) => validate_resume(m, cfg, threshold, input_len)?,
        (_, None) => Manifest::fresh(cfg.chunk_size, cfg.shard_chunks, threshold, input_len),
    };
    remove_stale_tmp(&cfg.out_dir)?;

    let resumed_rows = manifest.rows_total();
    if manifest.done {
        // Nothing to do; report the durable totals.
        return Ok(ScanOutcome {
            rows_total: manifest.rows_total(),
            errors_total: manifest.errors_total(),
            quarantined_total: manifest.quarantined,
            shards_total: manifest.shards.len() as u64,
            resumed_rows,
            done: true,
            elapsed_sec: started.elapsed().as_secs_f64(),
            ..ScanOutcome::default()
        });
    }

    // Quarantine: drop any tail written after the last checkpoint,
    // then append.
    let q_path = cfg.out_dir.join(QUARANTINE_FILE);
    let quarantine = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&q_path)
        .map_err(|e| ScanError::io(format!("open {}", q_path.display()), e))?;
    let q_len = quarantine
        .metadata()
        .map_err(|e| ScanError::io("stat quarantine".into(), e))?
        .len();
    if q_len < manifest.quarantine_bytes {
        return Err(ScanError::Corrupt(format!(
            "quarantine file is {q_len} bytes, checkpoint says {}",
            manifest.quarantine_bytes
        )));
    }
    quarantine
        .set_len(manifest.quarantine_bytes)
        .map_err(|e| ScanError::io("truncate quarantine".into(), e))?;
    let mut quarantine = quarantine;
    quarantine
        .seek(SeekFrom::End(0))
        .map_err(|e| ScanError::io("seek quarantine".into(), e))?;

    // Input, positioned just past the last committed shard.
    let reader = TripleSource::open(input, manifest.lines_done, manifest.input_bytes)?;

    let jobs = cfg.resolved_jobs();
    let cache = EmbeddingCache::new(cfg.cache_cap);
    let cached = CachedModel::new(model, &cache);
    let reg = pge_obs::global();
    let rows_ctr = reg.counter("pge_scan_rows_total", "Rows scored by bulk scans");
    let quar_ctr = reg.counter(
        "pge_scan_quarantined_total",
        "Input lines quarantined by bulk scans",
    );
    let shard_ctr = reg.counter(
        "pge_scan_shards_total",
        "Output shards committed by bulk scans",
    );
    let flagged_ctr = reg.counter(
        "pge_scan_errors_flagged_total",
        "Rows flagged as errors by bulk scans",
    );

    let mut committer = Committer {
        out_dir: &cfg.out_dir,
        threshold,
        q_bytes: manifest.quarantine_bytes,
        q_synced_bytes: manifest.quarantine_bytes,
        q_lines: manifest.quarantined,
        pos: (manifest.lines_done, manifest.input_bytes),
        manifest,
        quarantine,
        cur: None,
        new_rows: 0,
        new_errors: 0,
        new_quarantined: 0,
        new_shards: 0,
        line_buf: String::new(),
    };

    let stop = AtomicBool::new(false);
    let chunk_size = cfg.chunk_size;
    let max_shards = cfg.max_shards;

    // One bounded queue per worker, dealt round-robin by chunk index:
    // chunk handoff involves no shared lock and no shared receiver, so
    // workers never take turns pulling work. (The previous design — a
    // single sync_channel behind a Mutex<Receiver> — serialized the
    // pool on the handoff path and flattened the scaling curve.)
    let (work_txs, work_rxs): (Vec<_>, Vec<_>) =
        (0..jobs).map(|_| sync_channel::<Chunk>(2)).unzip();
    // Deep enough that workers ride through a shard commit (flush +
    // fsync + manifest rewrite, ~10ms) without stalling: with only
    // 2×jobs chunks of headroom the whole pipeline paused behind every
    // commit on a busy box.
    let (done_tx, done_rx) = sync_channel::<ScoredChunk>((jobs * 2).max(8));
    let ledger = WorkerLedger::new(jobs);

    let run = std::thread::scope(|s| -> Result<bool, ScanError> {
        for (worker, work_rx) in work_rxs.into_iter().enumerate() {
            let done_tx = done_tx.clone();
            let cached = &cached;
            let ledger = &ledger;
            s.spawn(move || {
                // Reusable embedding buffers: the >90%-hit cache path
                // is allocation-free through the scratch API.
                let mut scratch = ScoreScratch::default();
                // Loop ends when the reader drops this worker's queue.
                while let Ok(chunk) = work_rx.recv() {
                    let _sp = span("scan.score");
                    tracer.record(chunk.trace, Stage::ChunkScore, chunk.rows.len() as u64);
                    let busy_start = Instant::now();
                    let rows = chunk
                        .rows
                        .into_iter()
                        .map(|t| {
                            let score = cached.score_text_triple_scratch(
                                t.title(),
                                t.attr(),
                                t.value(),
                                &mut scratch,
                            );
                            (t, score)
                        })
                        .collect();
                    // Busy time covers scoring only; the send below can
                    // block on committer backpressure, which is idle
                    // time for this worker.
                    ledger.record(worker, busy_start.elapsed());
                    let scored = ScoredChunk {
                        idx: chunk.idx,
                        rows,
                        bad: chunk.bad,
                        end_line: chunk.end_line,
                        end_offset: chunk.end_offset,
                        trace: chunk.trace,
                        born: chunk.born,
                    };
                    if done_tx.send(scored).is_err() {
                        break; // committer stopped early
                    }
                }
            });
        }
        drop(done_tx);

        let stop_ref = &stop;
        let reader_handle = s.spawn(move || -> Result<(), ScanError> {
            let mut reader = reader;
            let work_txs = work_txs;
            let mut idx = 0u64;
            loop {
                if stop_ref.load(Ordering::Relaxed) {
                    return Ok(());
                }
                let _sp = span("scan.read");
                let mut rows = Vec::with_capacity(chunk_size.min(8192));
                let mut bad = Vec::new();
                let mut eof = false;
                while rows.len() < chunk_size {
                    match reader.next_row() {
                        Some(Ok(t)) => rows.push(t),
                        Some(Err(e)) if e.is_read_failure() => {
                            return Err(ScanError::Io(
                                format!("read input at line {}", e.line),
                                io::Error::other(e.reason),
                            ));
                        }
                        Some(Err(e)) => bad.push(e),
                        None => {
                            eof = true;
                            break;
                        }
                    }
                }
                if !rows.is_empty() || !bad.is_empty() {
                    let trace = tracer.begin();
                    tracer.record(trace, Stage::ChunkRead, rows.len() as u64);
                    let chunk = Chunk {
                        idx,
                        rows,
                        bad,
                        end_line: reader.lines_done(),
                        end_offset: reader.offset(),
                        trace,
                        born: Instant::now(),
                    };
                    let target = (idx % jobs as u64) as usize;
                    idx += 1;
                    if work_txs[target].send(chunk).is_err() {
                        return Ok(()); // workers gone: early stop
                    }
                }
                if eof {
                    return Ok(());
                }
            }
        });

        let result = drive_committer(&mut committer, done_rx, max_shards, &stop, tracer);
        let reader_result = reader_handle
            .join()
            .unwrap_or_else(|_| Err(ScanError::Corrupt("reader thread panicked".into())));
        let stopped_early = result?;
        reader_result?;
        Ok(stopped_early)
    });
    let stopped_early = run?;

    if !stopped_early {
        committer.finalize()?;
    }

    rows_ctr.add(committer.new_rows);
    quar_ctr.add(committer.new_quarantined);
    shard_ctr.add(committer.new_shards);
    flagged_ctr.add(committer.new_errors);

    let elapsed = started.elapsed().as_secs_f64();
    let wall = started.elapsed();
    let worker_stats = ledger.stats();
    Ok(ScanOutcome {
        rows_scanned: committer.new_rows,
        rows_total: committer.manifest.rows_total(),
        errors_flagged: committer.new_errors,
        errors_total: committer.manifest.errors_total(),
        quarantined: committer.new_quarantined,
        quarantined_total: committer.q_lines,
        shards_committed: committer.new_shards,
        shards_total: committer.manifest.shards.len() as u64,
        resumed_rows,
        done: !stopped_early,
        elapsed_sec: elapsed,
        rows_per_sec: if elapsed > 0.0 {
            committer.new_rows as f64 / elapsed
        } else {
            0.0
        },
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        jobs,
        host_cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        kernel: pge_tensor::active_kernel().name().to_string(),
        worker_busy_sec: worker_stats.iter().map(|s| s.busy.as_secs_f64()).collect(),
        worker_chunks: worker_stats.iter().map(|s| s.chunks).collect(),
        effective_parallelism: ledger.effective_parallelism(wall),
    })
}

/// Consume scored chunks in input order, committing shards as they
/// fill. Returns `Ok(true)` when the scan stopped early (reached
/// `max_shards`), `Ok(false)` when every chunk was written.
fn drive_committer(
    committer: &mut Committer<'_>,
    done_rx: Receiver<ScoredChunk>,
    max_shards: Option<u64>,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Result<bool, ScanError> {
    let mut pending: BTreeMap<u64, ScoredChunk> = BTreeMap::new();
    let mut next_idx = 0u64;
    let mut stopped = false;
    let mut failure: Option<ScanError> = None;
    for scored in done_rx.iter() {
        if stopped {
            continue; // drain so blocked workers can exit
        }
        pending.insert(scored.idx, scored);
        while let Some(c) = pending.remove(&next_idx) {
            next_idx += 1;
            // The commit event is stamped when ordered write-out
            // begins, so score → chunk_commit covers scoring plus
            // reorder-buffer wait; the trace finishes once the chunk's
            // rows (and any covering shard commit) are durable-ordered.
            let (trace, born) = (c.trace, c.born);
            tracer.record(trace, Stage::ChunkCommit, c.rows.len() as u64);
            let step = || -> Result<bool, ScanError> {
                // returns true to stop early
                committer.append_chunk(c)?;
                if committer.shard_full() {
                    committer.commit()?;
                    if max_shards.is_some_and(|m| committer.new_shards >= m) {
                        return Ok(true);
                    }
                }
                Ok(false)
            };
            match step() {
                Ok(false) => {
                    tracer.finish(trace, born.elapsed(), false);
                }
                Ok(true) => {
                    tracer.finish(trace, born.elapsed(), false);
                    stop.store(true, Ordering::Relaxed);
                    stopped = true;
                    pending.clear();
                    break;
                }
                Err(e) => {
                    tracer.finish(trace, born.elapsed(), true);
                    stop.store(true, Ordering::Relaxed);
                    stopped = true;
                    failure = Some(e);
                    pending.clear();
                    break;
                }
            }
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(stopped)
}
