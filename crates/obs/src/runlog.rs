//! `RunLog` — a JSONL sink for structured run events.
//!
//! Every line is one self-describing JSON object with an `event` tag
//! and a wall-clock `ts_ms`. The schema (guarded by CI and the golden
//! fixture under `tests/fixtures/`):
//!
//! * `manifest` — who/what/when: command kind, seed, git revision,
//!   crate version, and the flattened config;
//! * `epoch` — per-epoch training telemetry: mean loss, throughput,
//!   negative-sampling stats, and (noise-aware runs only) the
//!   confidence-score distribution with its polarization fraction —
//!   the direct Eq. 6 diagnostic;
//! * `eval` — PR AUC, the chosen threshold, validation accuracy;
//! * `gateway` — a serving snapshot at shutdown (counters, latency
//!   quantiles, routing skew) and one record per model hot-swap;
//! * `scan` — a bulk-scan snapshot: rows scored, shards committed,
//!   quarantine counts, throughput;
//! * `checkpoint`, `ingest` — trainer checkpoints and incremental
//!   delta windows;
//! * `trace` — a tail-sampled request, chunk or epoch waterfall;
//! * `spans` — accumulated span timings (see [`mod@crate::span`]).
//!
//! Events append; one file can hold a whole train → eval → serve
//! pipeline and `pge report` will summarize all of it. Logs written
//! before `pge serve` ran the gateway also hold `serve` snapshots,
//! which `pge report` still renders.

use crate::json::Json;
use crate::manifest::{git_rev, peak_rss_bytes, unix_time_ms};
use crate::span::span_snapshot;
use std::fs::OpenOptions;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Confidence-score distribution of one epoch (Eq. 4–6 diagnostics).
#[derive(Clone, Debug, PartialEq)]
pub struct ConfidenceTelemetry {
    pub mean: f32,
    /// Fraction of C in `[0, 0.1] ∪ [0.9, 1]` — how polarized the
    /// scores are. The noise-aware objective should drive this up.
    pub polarized_frac: f32,
    /// Fraction of C below 0.5 (triples effectively marked down).
    pub marked_down_frac: f32,
    /// Uniform-bin histogram of C over `[0, 1]`.
    pub hist: Vec<u64>,
}

/// Telemetry for one training epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochTelemetry {
    pub epoch: usize,
    pub mean_loss: f32,
    /// Training triples visited this epoch.
    pub triples: usize,
    /// Negative samples drawn this epoch.
    pub negatives: usize,
    pub secs: f64,
    pub triples_per_sec: f64,
    /// Worker threads the trainer ran with this epoch.
    pub threads: usize,
    /// Per-worker busy fraction (busy seconds / epoch seconds), one
    /// entry per worker. Empty when the trainer ran a serial path
    /// (e.g. the BERT encoder) or the epoch took no measurable time.
    pub worker_utilization: Vec<f64>,
    /// `None` when the noise-aware mechanism is off.
    pub confidence: Option<ConfidenceTelemetry>,
}

/// Telemetry for one evaluation pass.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalTelemetry {
    /// `None` when no labeled test split was scored.
    pub pr_auc: Option<f64>,
    pub threshold: f64,
    pub valid_accuracy: f64,
    pub test_triples: usize,
}

fn base(event: &str) -> Vec<(String, Json)> {
    vec![
        ("event".into(), Json::Str(event.into())),
        ("ts_ms".into(), Json::Num(unix_time_ms() as f64)),
    ]
}

/// The run manifest: stamps what ran, from which source revision,
/// with which knobs. `config` is flattened key → value.
pub fn manifest_event(kind: &str, seed: u64, config: &[(String, String)]) -> Json {
    let mut pairs = base("manifest");
    pairs.push(("kind".into(), Json::Str(kind.into())));
    pairs.push(("seed".into(), Json::Num(seed as f64)));
    pairs.push(("git_rev".into(), git_rev().map_or(Json::Null, Json::Str)));
    pairs.push((
        "version".into(),
        Json::Str(env!("CARGO_PKG_VERSION").into()),
    ));
    // RSS high-water mark at manifest time (post data load); the
    // closing spans event records the end-of-run peak.
    pairs.push((
        "peak_rss_bytes".into(),
        peak_rss_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
    ));
    pairs.push((
        "config".into(),
        Json::Obj(
            config
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

pub fn epoch_event(t: &EpochTelemetry) -> Json {
    let mut pairs = base("epoch");
    pairs.push(("epoch".into(), Json::Num(t.epoch as f64)));
    pairs.push(("mean_loss".into(), Json::Num(t.mean_loss as f64)));
    pairs.push(("triples".into(), Json::Num(t.triples as f64)));
    pairs.push(("negatives".into(), Json::Num(t.negatives as f64)));
    pairs.push(("secs".into(), Json::Num(t.secs)));
    pairs.push(("triples_per_sec".into(), Json::Num(t.triples_per_sec)));
    pairs.push(("threads".into(), Json::Num(t.threads as f64)));
    if !t.worker_utilization.is_empty() {
        pairs.push((
            "worker_utilization".into(),
            Json::Arr(t.worker_utilization.iter().map(|&u| Json::Num(u)).collect()),
        ));
    }
    if let Some(c) = &t.confidence {
        pairs.push((
            "confidence".into(),
            Json::Obj(vec![
                ("mean".into(), Json::Num(c.mean as f64)),
                ("polarized_frac".into(), Json::Num(c.polarized_frac as f64)),
                (
                    "marked_down_frac".into(),
                    Json::Num(c.marked_down_frac as f64),
                ),
                (
                    "hist".into(),
                    Json::Arr(c.hist.iter().map(|&n| Json::Num(n as f64)).collect()),
                ),
            ]),
        ));
    }
    Json::Obj(pairs)
}

pub fn eval_event(t: &EvalTelemetry) -> Json {
    let mut pairs = base("eval");
    pairs.push(("pr_auc".into(), t.pr_auc.map_or(Json::Null, Json::Num)));
    pairs.push(("threshold".into(), Json::Num(t.threshold)));
    pairs.push(("valid_accuracy".into(), Json::Num(t.valid_accuracy)));
    pairs.push(("test_triples".into(), Json::Num(t.test_triples as f64)));
    Json::Obj(pairs)
}

/// A record of counter pairs under the event name `kind`:
///
/// * `checkpoint` — one per epoch-boundary checkpoint write
///   (`[("epoch", 3.0), ("bytes", 81920.0), ("write_secs", s)]`), plus
///   one `[("resumed_from", k)]` at the start of a resumed run, so
///   `pge report` can show resume provenance;
/// * `ingest` — one per incremental delta window, e.g. `[("window",
///   3.0), ("added", 120.0), ("retracted", 8.0), ("mean_loss", 0.4),
///   ("push_version", 5.0)]` (`push_version` is -1 when the window was
///   not pushed to a gateway);
/// * `gateway` — the shutdown snapshot (`[("requests_total", 5.0e4),
///   ("routing_skew", 1.08)]`) or one `[("swap", 1.0), ("version",
///   2.0)]` per model hot-swap;
/// * `scan` — a bulk-scan snapshot, e.g. `[("rows_total", 1.0e6),
///   ("shards_total", 31.0)]`.
pub fn stats_event(kind: &str, stats: &[(&str, f64)]) -> Json {
    let mut pairs = base(kind);
    for (k, v) in stats {
        pairs.push((k.to_string(), Json::Num(*v)));
    }
    Json::Obj(pairs)
}

/// One tail-sampled trace (see [`crate::trace`]): the trace ID as a
/// 16-hex-digit string (u64s don't survive a JSON f64 round trip),
/// end-to-end latency, the error flag, and the per-stage event list
/// with timestamps relative to the first event. `pge trace` renders
/// these as waterfalls.
pub fn trace_event(t: &crate::trace::RetainedTrace) -> Json {
    let t0 = t.events.first().map_or(0, |e| e.t_nanos);
    let mut pairs = base("trace");
    pairs.push(("trace_id".into(), Json::Str(format!("{:016x}", t.trace_id))));
    pairs.push(("total_ms".into(), Json::Num(t.total_nanos as f64 / 1.0e6)));
    pairs.push(("error".into(), Json::Bool(t.error)));
    pairs.push((
        "stages".into(),
        Json::Arr(
            t.events
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("stage".into(), Json::Str(e.stage.name().into())),
                        ("arg".into(), Json::Num(e.arg as f64)),
                        (
                            "t_ms".into(),
                            Json::Num(e.t_nanos.saturating_sub(t0) as f64 / 1.0e6),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// Snapshot of all span accumulators (see [`crate::span_snapshot`]).
pub fn spans_event() -> Json {
    let mut pairs = base("spans");
    // Every command writes one spans event on exit, making this the
    // end-of-run RSS peak `pge report` surfaces.
    pairs.push((
        "peak_rss_bytes".into(),
        peak_rss_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
    ));
    pairs.push((
        "spans".into(),
        Json::Arr(
            span_snapshot()
                .into_iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("path".into(), Json::Str(s.path)),
                        ("count".into(), Json::Num(s.count as f64)),
                        ("total_secs".into(), Json::Num(s.total_secs)),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

/// A thread-safe JSONL event sink. Writes are line-buffered and
/// flushed per event, so a crashed run keeps every completed epoch.
pub struct RunLog {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl RunLog {
    /// Open `path` for appending (created if missing) — successive
    /// commands can log into one pipeline file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<RunLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(RunLog::to_writer(BufWriter::new(file)))
    }

    /// Log into any writer (tests, in-memory buffers).
    pub fn to_writer(w: impl Write + Send + 'static) -> RunLog {
        RunLog {
            sink: Mutex::new(Box::new(w)),
        }
    }

    /// Append one event as a single JSON line. I/O errors are
    /// reported but non-fatal: telemetry must never kill a run.
    pub fn write(&self, event: &Json) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if writeln!(sink, "{event}")
            .and_then(|()| sink.flush())
            .is_err()
        {
            eprintln!("runlog: write failed; event dropped");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write handle into a shared buffer the test can inspect.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn contents(b: &SharedBuf) -> String {
        String::from_utf8(b.0.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn events_are_one_valid_json_line_each() {
        let buf = SharedBuf::default();
        let log = RunLog::to_writer(buf.clone());
        log.write(&manifest_event(
            "train",
            13,
            &[("epochs".into(), "6".into())],
        ));
        log.write(&epoch_event(&EpochTelemetry {
            epoch: 0,
            mean_loss: 1.5,
            triples: 100,
            negatives: 300,
            secs: 0.5,
            triples_per_sec: 200.0,
            threads: 4,
            worker_utilization: vec![0.9, 0.85, 0.88, 0.8],
            confidence: Some(ConfidenceTelemetry {
                mean: 0.875,
                polarized_frac: 0.75,
                marked_down_frac: 0.0625,
                hist: vec![1, 0, 9],
            }),
        }));
        let text = contents(&buf);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let manifest = parse(lines[0]).unwrap();
        assert_eq!(manifest.get("event").unwrap().as_str(), Some("manifest"));
        assert_eq!(manifest.get("seed").unwrap().as_f64(), Some(13.0));
        assert_eq!(
            manifest
                .get("config")
                .unwrap()
                .get("epochs")
                .unwrap()
                .as_str(),
            Some("6")
        );
        let epoch = parse(lines[1]).unwrap();
        assert_eq!(epoch.get("mean_loss").unwrap().as_f64(), Some(1.5));
        let conf = epoch.get("confidence").unwrap();
        assert_eq!(conf.get("polarized_frac").unwrap().as_f64(), Some(0.75));
    }

    #[test]
    fn hostile_config_strings_stay_single_line() {
        let buf = SharedBuf::default();
        let log = RunLog::to_writer(buf.clone());
        let nasty = "line1\nline2\t\"quoted\\\" — naïve 😀";
        log.write(&manifest_event(
            "train",
            1,
            &[("data".into(), nasty.into())],
        ));
        let text = contents(&buf);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "newlines must be escaped: {text:?}");
        let back = parse(lines[0]).unwrap();
        assert_eq!(
            back.get("config").unwrap().get("data").unwrap().as_str(),
            Some(nasty)
        );
    }

    #[test]
    fn confidence_absent_when_noise_aware_off() {
        let buf = SharedBuf::default();
        let log = RunLog::to_writer(buf.clone());
        log.write(&epoch_event(&EpochTelemetry {
            epoch: 0,
            mean_loss: 1.0,
            triples: 10,
            negatives: 30,
            secs: 0.1,
            triples_per_sec: 100.0,
            threads: 1,
            worker_utilization: Vec::new(),
            confidence: None,
        }));
        let line = contents(&buf);
        assert!(!line.contains("confidence"), "{line}");
        assert!(parse(line.trim()).unwrap().get("confidence").is_none());
    }

    #[test]
    fn eval_and_gateway_events_round_trip() {
        let buf = SharedBuf::default();
        let log = RunLog::to_writer(buf.clone());
        log.write(&eval_event(&EvalTelemetry {
            pr_auc: Some(0.91),
            threshold: -3.25,
            valid_accuracy: 0.95,
            test_triples: 40,
        }));
        log.write(&stats_event(
            "gateway",
            &[("requests_total", 12.0), ("p99_ms", 8.5)],
        ));
        let text = contents(&buf);
        let lines: Vec<&str> = text.lines().collect();
        let eval = parse(lines[0]).unwrap();
        assert_eq!(eval.get("pr_auc").unwrap().as_f64(), Some(0.91));
        assert_eq!(eval.get("threshold").unwrap().as_f64(), Some(-3.25));
        let gateway = parse(lines[1]).unwrap();
        assert_eq!(gateway.get("event").unwrap().as_str(), Some("gateway"));
        assert_eq!(gateway.get("p99_ms").unwrap().as_f64(), Some(8.5));
    }
}
