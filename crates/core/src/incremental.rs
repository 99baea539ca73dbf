//! Streaming incremental training: `pge train --incremental`.
//!
//! A catalog churns; retraining from scratch on every batch of edits
//! wastes almost all of its work re-learning what the model already
//! knows. This module warm-starts from a trainer checkpoint (the full
//! trainer state: parameters, Adam moments, confidence table, backend
//! aux state) and ingests a delta stream window by window:
//!
//! 1. apply the window's adds/retractions to the dataset
//!    ([`pge_graph::apply_window`]) and extend the model's token
//!    caches over the grown graph;
//! 2. fine-tune a few epochs over **only the touched rows** (the
//!    window's live adds), continuing the global Adam step so moment
//!    bias correction stays exact;
//! 3. write a durable window checkpoint (`incremental.ckpt`, kept
//!    next to — never on top of — the base run's `trainer.ckpt`);
//! 4. emit a fresh `PGEBIN02` snapshot for the window and optionally
//!    push it to a running gateway via `POST /admin/reload` with
//!    bounded retry/backoff ([`push_snapshot`]).
//!
//! # Exact resume
//!
//! Kill+resume is byte-identical at any window boundary and any
//! `--threads`: every random stream is a pure function of
//! `(seed, epoch-id, index)`, fine-tune epochs use epoch ids disjoint
//! from the base run's (`cfg.epochs + window * epochs_per_window +
//! e`), and confidence updates apply in fixed lane order. The window
//! checkpoint stores [`pge_graph::stream_fingerprint`] over the
//! ingested prefix, so resuming against an edited or truncated delta
//! stream is a typed [`PersistError::Mismatch`], not silent
//! corruption.
//!
//! Retracted train entries stay **positional** (confidence tables and
//! sampling streams index by position): they are masked out of
//! training and their confidence is pinned to zero, which also
//! removes them from every future loss term.

use crate::checkpoint::{
    config_hash, data_fingerprint, Checkpoint, CheckpointOptions, TrainerState, CHECKPOINT_FILE,
};
use crate::confidence::ConfidenceStore;
use crate::encoder::{EncoderKind, TextEncoder};
use crate::model::PgeModel;
use crate::persist::{save_model_store, PersistError};
use crate::trainer::{
    resolve_threads, run_lanes, shuffle_seed, BatchCtx, Lane, LaneScratch, PgeConfig, GRAD_LANES,
};
use pge_graph::{apply_window, stream_fingerprint, Dataset, DeltaWindow, NegativeSampler};
use pge_nn::AdamHparams;
use pge_obs::{ingest_event, RunLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the incremental window checkpoint, stored in the same
/// directory as (but never overwriting) the base `trainer.ckpt`.
pub const INCREMENTAL_CHECKPOINT_FILE: &str = "incremental.ckpt";

/// Knobs of an incremental ingest run, on top of the base
/// [`PgeConfig`] (which must match the warm-start checkpoint exactly,
/// `--threads` excepted).
#[derive(Clone, Debug)]
pub struct IncrementalConfig {
    /// Fine-tune epochs over each window's touched rows.
    pub epochs_per_window: usize,
    /// Directory receiving one `window-{k}.pgebin` snapshot per
    /// ingested window (per-window files: a gateway may still be
    /// serving the previous one off its mapping).
    pub snapshot_dir: PathBuf,
    /// Gateway address (`host:port`) to push each window's snapshot
    /// to via `POST /admin/reload`; `None` disables pushing.
    pub push: Option<String>,
    /// Bounded retry budget per push (connect errors, 409 busy, and
    /// 503 retryable reload failures all consume attempts).
    pub push_attempts: usize,
    /// Base backoff between push attempts; doubles per retry, capped
    /// at two seconds.
    pub push_backoff_ms: u64,
}

impl IncrementalConfig {
    pub fn new(snapshot_dir: impl Into<PathBuf>) -> IncrementalConfig {
        IncrementalConfig {
            epochs_per_window: 2,
            snapshot_dir: snapshot_dir.into(),
            push: None,
            push_attempts: 5,
            push_backoff_ms: 50,
        }
    }
}

/// Outcome of one snapshot push: which window, which file, the
/// gateway's new snapshot generation, and how many attempts it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushReport {
    /// Ingest window the snapshot belongs to (filled by the ingest
    /// loop; [`push_snapshot`] itself returns it as 0).
    pub window: usize,
    pub snapshot: PathBuf,
    /// Snapshot generation the gateway reported after the swap.
    pub version: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
}

/// The result of an incremental ingest run.
#[derive(Debug)]
pub struct IncrementalOutcome {
    pub model: PgeModel,
    /// Confidence table over the *evolved* train split (retracted
    /// entries pinned to zero).
    pub confidence: ConfidenceStore,
    /// The dataset after every ingested window (grown graph, extended
    /// train split).
    pub dataset: Dataset,
    /// Live mask over `dataset.train` (false = retracted).
    pub live: Vec<bool>,
    /// Windows ingested across the whole run (including ones replayed
    /// from the resume checkpoint).
    pub windows_done: usize,
    /// Mean fine-tune loss per window ingested *by this process*.
    pub window_losses: Vec<f32>,
    /// Snapshot file per window ingested by this process.
    pub snapshots: Vec<PathBuf>,
    /// One report per successful gateway push.
    pub pushes: Vec<PushReport>,
    pub train_secs: f64,
}

/// Ingest `windows` on top of `base`, warm-starting from the
/// checkpoint in `ckpt.dir`.
///
/// * Fresh runs (`ckpt.resume == false`) warm-start from the base
///   run's `trainer.ckpt` and ingest from window 0.
/// * Resumed runs load `incremental.ckpt` when present (continuing
///   after its `windows_done`), falling back to `trainer.ckpt` when a
///   kill landed before the first window checkpoint.
/// * `ckpt.stop_after = Some(k)` simulates a kill once `k` windows
///   total have been ingested and checkpointed (tests and CI).
///
/// Rejected with a typed error: a config/corpus mismatch against the
/// checkpoint, a different `--confidence` backend, or a delta stream
/// whose ingested prefix does not fingerprint-match the checkpoint.
pub fn train_incremental(
    base: &Dataset,
    windows: &[DeltaWindow],
    cfg: &PgeConfig,
    inc: &IncrementalConfig,
    ckpt: &CheckpointOptions,
    log: Option<&RunLog>,
) -> Result<IncrementalOutcome, PersistError> {
    let start = Instant::now();
    if cfg.encoder == EncoderKind::Bert {
        return Err(PersistError::UnsupportedEncoder);
    }
    let cfg_hash = config_hash(cfg);
    let base_fp = data_fingerprint(base);

    // Warm start: the incremental checkpoint when resuming past one,
    // otherwise the base trainer checkpoint.
    let inc_ckpt = ckpt.dir.join(INCREMENTAL_CHECKPOINT_FILE);
    let loaded = if ckpt.resume && inc_ckpt.exists() {
        Checkpoint::load(&inc_ckpt)?
    } else {
        Checkpoint::load(&ckpt.dir.join(CHECKPOINT_FILE))?
    };
    let state = &loaded.state;
    state.verify_backend(cfg.confidence.name())?;
    state.verify(cfg_hash, base_fp)?;
    if state.windows_done > windows.len() {
        return Err(PersistError::Mismatch(format!(
            "checkpoint has ingested {} delta windows but the stream only provides {} — \
             point --deltas at the stream the run was started with",
            state.windows_done,
            windows.len()
        )));
    }
    // Replay the already-ingested prefix to rebuild the evolved
    // dataset, then prove it is the same prefix the checkpoint saw.
    let mut dataset = base.clone();
    let mut live = vec![true; dataset.train.len()];
    for w in &windows[..state.windows_done] {
        apply_window(&mut dataset, &mut live, w);
    }
    // (The base checkpoint stores delta_fingerprint = 0 with zero
    // windows ingested; there is no prefix to verify until an
    // incremental checkpoint exists.)
    let prefix_fp = stream_fingerprint(&windows[..state.windows_done]);
    if state.windows_done > 0 && prefix_fp != state.delta_fingerprint {
        return Err(PersistError::Mismatch(format!(
            "checkpoint ingested a delta-stream prefix with fingerprint {:016x} but this \
             stream's first {} windows fingerprint to {prefix_fp:016x}; the stream was \
             edited or replaced — resume with the original delta file",
            state.delta_fingerprint, state.windows_done
        )));
    }

    // The restored model's token caches already cover the replayed
    // graph: `restore_model` rebuilds them from the graph we just
    // evolved.
    let mut model = loaded.restore_model(&dataset.graph)?;
    let ent_dim = model.encoder.out_dim();
    let mut confidence =
        ConfidenceStore::new(dataset.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    confidence
        .restore_scores(&state.confidence)
        .map_err(PersistError::Mismatch)?;
    let mut updater = cfg
        .confidence
        .make_updater(dataset.graph.num_attrs(), ent_dim);
    updater
        .restore_aux(&state.aux)
        .map_err(PersistError::Mismatch)?;

    let hp = AdamHparams::with_lr(cfg.lr);
    let k = cfg.negatives.max(1);
    let workers = resolve_threads(cfg.threads);
    let mut lanes: Vec<Lane> = {
        let TextEncoder::Cnn(enc) = &model.encoder else {
            unreachable!("Bert rejected above")
        };
        Lane::buffers(enc, model.scorer.rel_dim(ent_dim))
    };
    let mut scratch: Vec<LaneScratch> = (0..workers).map(|_| LaneScratch::default()).collect();
    let mut step = state.step;
    let mut epoch_losses = state.epoch_losses.clone();
    let mut windows_done = state.windows_done;
    let mut window_losses = Vec::new();
    let mut snapshots = Vec::new();
    let mut pushes = Vec::new();

    for (w, window) in windows.iter().enumerate().skip(state.windows_done) {
        let window_start = Instant::now();
        let applied = apply_window(&mut dataset, &mut live, window);
        model.extend_token_caches(&dataset.graph);
        while confidence.len() < dataset.train.len() {
            confidence.push_default();
        }
        for &i in &applied.retracted {
            confidence.set(i, 0.0);
        }
        // The graph grew: rebuild the sampler so fresh values are
        // drawable as corruptions.
        let sampler = NegativeSampler::new(&dataset.graph, cfg.sampling);
        // Touched rows = this window's adds still live at its end (an
        // add retracted within the same window never trains).
        let touched: Vec<usize> = applied.added.iter().copied().filter(|&i| live[i]).collect();

        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut order = touched.clone();
        for e in 0..inc.epochs_per_window {
            // Disjoint from every base-run epoch id, pure in
            // (window, e): a resumed run regenerates the exact
            // shuffle and sampling streams.
            let epoch_id = cfg.epochs + w * inc.epochs_per_window + e;
            order.copy_from_slice(&touched);
            let mut shuffle_rng = StdRng::seed_from_u64(shuffle_seed(cfg.seed, epoch_id));
            for i in (1..order.len()).rev() {
                order.swap(i, shuffle_rng.gen_range(0..=i));
            }
            for batch in order.chunks(cfg.batch.max(1)) {
                step += 1;
                {
                    let TextEncoder::Cnn(enc) = &model.encoder else {
                        unreachable!()
                    };
                    let ctx = BatchCtx {
                        enc,
                        relations: &model.relations,
                        scorer: model.scorer,
                        title_tokens: &model.title_tokens,
                        value_tokens: &model.value_tokens,
                        train: &dataset.train,
                        sampler: &sampler,
                        confidence: &confidence,
                        // The base run is past warmup by construction;
                        // confidence adapts from the first window.
                        confidence_active: cfg.noise_aware,
                        capture_contrast: cfg.noise_aware && updater.wants_contrast(),
                        k,
                        epoch: epoch_id,
                        seed: cfg.seed,
                    };
                    let per_worker = GRAD_LANES.div_ceil(workers);
                    if workers == 1 {
                        run_lanes(&ctx, batch, &mut lanes, 0, &mut scratch[0]);
                    } else {
                        std::thread::scope(|s| {
                            let handles: Vec<_> = lanes
                                .chunks_mut(per_worker)
                                .zip(&mut scratch)
                                .enumerate()
                                .map(|(wk, (chunk, scratch))| {
                                    let ctx = &ctx;
                                    s.spawn(move || {
                                        run_lanes(ctx, batch, chunk, wk * per_worker, scratch)
                                    })
                                })
                                .collect();
                            for h in handles {
                                h.join().expect("incremental worker panicked");
                            }
                        });
                    }
                }
                // Fixed lane-order reduction — thread-count invariant.
                let PgeModel {
                    encoder, relations, ..
                } = &mut model;
                let TextEncoder::Cnn(enc) = encoder else {
                    unreachable!()
                };
                for lane in &mut lanes {
                    enc.apply_grads(&mut lane.grads);
                    relations.apply_sparse_grads(&mut lane.rel);
                    for sig in lane.conf.drain(..) {
                        updater.apply(&mut confidence, sig);
                    }
                    loss_sum += lane.loss_sum;
                    loss_n += lane.loss_n;
                    lane.loss_sum = 0.0;
                    lane.loss_n = 0;
                    lane.negs = 0;
                }
                model.encoder.adam_step(&hp, step);
                model.relations.adam_step(&hp, step);
            }
        }
        let mean_loss = if loss_n == 0 {
            0.0
        } else {
            (loss_sum / loss_n as f64) as f32
        };
        epoch_losses.push(mean_loss);
        window_losses.push(mean_loss);

        // Snapshot first, checkpoint second: a kill between the two
        // re-ingests this window on resume (bit-identical by
        // determinism) and rewrites the identical snapshot.
        std::fs::create_dir_all(&inc.snapshot_dir)
            .map_err(|e| PersistError::Io(format!("create {}: {e}", inc.snapshot_dir.display())))?;
        let snap_path = inc.snapshot_dir.join(format!("window-{w}.pgebin"));
        save_model_store(&model, &snap_path)?;
        snapshots.push(snap_path.clone());

        let st = TrainerState {
            epochs_done: state.epochs_done,
            step,
            config_hash: cfg_hash,
            data_fingerprint: base_fp,
            backend: cfg.confidence.name().to_string(),
            delta_fingerprint: stream_fingerprint(&windows[..=w]),
            windows_done: w + 1,
            epoch_losses: epoch_losses.clone(),
            confidence: confidence.scores().to_vec(),
            aux: updater.aux_state(),
        };
        st.store(&model, &inc_ckpt)?;
        windows_done = w + 1;

        let mut push_version = -1.0f64;
        if let Some(addr) = &inc.push {
            let mut report =
                push_snapshot(addr, &snap_path, inc.push_attempts, inc.push_backoff_ms)
                    .map_err(|e| PersistError::Io(format!("push window {w} to {addr}: {e}")))?;
            report.window = w;
            push_version = report.version as f64;
            pushes.push(report);
        }
        if let Some(log) = log {
            log.write(&ingest_event(&[
                ("window", w as f64),
                ("added", applied.added.len() as f64),
                ("retracted", applied.retracted.len() as f64),
                ("missed_retractions", applied.missed_retractions as f64),
                ("train_len", dataset.train.len() as f64),
                ("mean_loss", mean_loss as f64),
                ("secs", window_start.elapsed().as_secs_f64()),
                ("push_version", push_version),
            ]));
        }
        // Simulated kill at a window boundary (the checkpoint is on
        // disk; the process "dies" here).
        if ckpt.stop_after == Some(w + 1) {
            break;
        }
    }

    Ok(IncrementalOutcome {
        model,
        confidence,
        dataset,
        live,
        windows_done,
        window_losses,
        snapshots,
        pushes,
        train_secs: start.elapsed().as_secs_f64(),
    })
}

/// Minimal JSON string escape for the reload request body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One push attempt: POST the reload, read the full response, return
/// `(status, body)`.
fn push_once(addr: &str, snapshot: &Path) -> Result<(u16, String), String> {
    let body = format!(
        "{{\"path\": \"{}\"}}",
        json_escape(&snapshot.to_string_lossy())
    );
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let req = format!(
        "POST /admin/reload HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("read response: {e}"))?;
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "malformed response: {:?}",
                resp.lines().next().unwrap_or("")
            )
        })?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Push a snapshot to a gateway's `POST /admin/reload` with bounded
/// retry/backoff.
///
/// Retried (consuming one attempt each): connection/transport errors,
/// `409` (another reload in flight), and `503` (the gateway classed
/// the failure retryable — e.g. the snapshot's CRC check raced a
/// writer that had not patched the header yet). Any other non-200 is
/// a hard error. The backoff doubles per retry from
/// `backoff_ms`, capped at two seconds.
///
/// On success the returned [`PushReport`] carries the gateway's new
/// snapshot generation (`window` is left 0 for the caller to fill).
pub fn push_snapshot(
    addr: &str,
    snapshot: &Path,
    attempts: usize,
    backoff_ms: u64,
) -> Result<PushReport, String> {
    let attempts = attempts.max(1);
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        match push_once(addr, snapshot) {
            Ok((200, body)) => {
                // The gateway answers {"swapped": true, "version": N}.
                let version = body
                    .split("\"version\":")
                    .nth(1)
                    .map(|rest| {
                        rest.trim_start()
                            .chars()
                            .take_while(|c| {
                                c.is_ascii_digit() || matches!(c, '.' | 'e' | '+' | '-')
                            })
                            .collect::<String>()
                    })
                    .and_then(|n| n.parse::<f64>().ok())
                    .ok_or_else(|| format!("reload succeeded but no version in body {body:?}"))?;
                return Ok(PushReport {
                    window: 0,
                    snapshot: snapshot.to_path_buf(),
                    version: version as u64,
                    attempts: attempt,
                });
            }
            Ok((status @ (409 | 503), body)) => {
                last_err = format!("gateway answered {status}: {}", body.trim());
            }
            Ok((status, body)) => {
                return Err(format!("gateway answered {status}: {}", body.trim()));
            }
            Err(e) => last_err = e,
        }
        if attempt < attempts {
            let backoff = (backoff_ms << (attempt - 1)).min(2_000);
            std::thread::sleep(Duration::from_millis(backoff));
        }
    }
    Err(format!(
        "{attempts} attempts exhausted; last error: {last_err}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_pge_resumable;
    use pge_graph::{DeltaOp, ProductGraph, TripleDelta};
    use std::net::TcpListener;

    fn tiny_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..24 {
            let (flavor, word) = if i % 2 == 0 {
                ("spicy", "hot")
            } else {
                ("sweet", "honey")
            };
            let title = format!("brand{i} {word} {flavor} snack chips {i}");
            train.push(g.add_fact(&title, "flavor", flavor));
        }
        Dataset::new(g, train, vec![], vec![])
    }

    fn tiny_cfg() -> PgeConfig {
        PgeConfig {
            epochs: 3,
            confidence_warmup: 1,
            ..PgeConfig::tiny()
        }
    }

    fn d(op: DeltaOp, t: &str, a: &str, v: &str) -> TripleDelta {
        TripleDelta {
            op,
            title: t.into(),
            attr: a.into(),
            value: v.into(),
        }
    }

    fn sample_windows() -> Vec<DeltaWindow> {
        vec![
            DeltaWindow {
                index: 0,
                ops: vec![
                    d(DeltaOp::Add, "newbrand hot spicy snack", "flavor", "spicy"),
                    d(
                        DeltaOp::Add,
                        "newbrand honey sweet snack",
                        "flavor",
                        "sweet",
                    ),
                    d(
                        DeltaOp::Retract,
                        "brand0 hot spicy snack chips 0",
                        "flavor",
                        "spicy",
                    ),
                ],
            },
            DeltaWindow {
                index: 1,
                ops: vec![d(
                    DeltaOp::Add,
                    "latebrand honey sweet wafer",
                    "flavor",
                    "sweet",
                )],
            },
        ]
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pge-incr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Base checkpoint in `dir` for warm starts.
    fn base_checkpoint(base: &Dataset, cfg: &PgeConfig, dir: &Path) {
        train_pge_resumable(base, cfg, None, Some(&CheckpointOptions::new(dir))).unwrap();
    }

    #[test]
    fn ingests_windows_and_checkpoints_each() {
        let base = tiny_dataset();
        let cfg = tiny_cfg();
        let dir = scratch_dir("ingest");
        base_checkpoint(&base, &cfg, &dir);
        let inc = IncrementalConfig::new(dir.join("snaps"));
        let out = train_incremental(
            &base,
            &sample_windows(),
            &cfg,
            &inc,
            &CheckpointOptions::new(&dir),
            None,
        )
        .unwrap();
        assert_eq!(out.windows_done, 2);
        assert_eq!(out.dataset.train.len(), base.train.len() + 3);
        assert_eq!(out.confidence.len(), out.dataset.train.len());
        // The retracted entry is masked and zero-confidence.
        assert!(!out.live[0]);
        assert_eq!(out.confidence.get(0), 0.0);
        for p in &out.snapshots {
            assert!(p.exists(), "missing snapshot {}", p.display());
        }
        let st = Checkpoint::load(&dir.join(INCREMENTAL_CHECKPOINT_FILE))
            .unwrap()
            .state;
        assert_eq!(st.windows_done, 2);
        assert_eq!(st.delta_fingerprint, stream_fingerprint(&sample_windows()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_start_requires_a_base_checkpoint() {
        let base = tiny_dataset();
        let dir = scratch_dir("nobase");
        let inc = IncrementalConfig::new(dir.join("snaps"));
        let err = train_incremental(
            &base,
            &sample_windows(),
            &tiny_cfg(),
            &inc,
            &CheckpointOptions::new(&dir),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edited_delta_stream_is_rejected_on_resume() {
        let base = tiny_dataset();
        let cfg = tiny_cfg();
        let dir = scratch_dir("editstream");
        base_checkpoint(&base, &cfg, &dir);
        let inc = IncrementalConfig::new(dir.join("snaps"));
        // Ingest window 0, simulate a kill.
        let mut stop = CheckpointOptions::new(&dir);
        stop.stop_after = Some(1);
        train_incremental(&base, &sample_windows(), &cfg, &inc, &stop, None).unwrap();
        // Resume against a stream whose ingested prefix was edited.
        let mut edited = sample_windows();
        edited[0].ops[0].value = "salty".into();
        let err = train_incremental(
            &base,
            &edited,
            &cfg,
            &inc,
            &CheckpointOptions::resume(&dir),
            None,
        )
        .unwrap_err();
        match err {
            PersistError::Mismatch(msg) => assert!(msg.contains("delta-stream"), "{msg}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        // And a truncated stream (fewer windows than ingested).
        let err = train_incremental(
            &base,
            &sample_windows()[..0],
            &cfg,
            &inc,
            &CheckpointOptions::resume(&dir),
            None,
        )
        .unwrap_err();
        match err {
            PersistError::Mismatch(msg) => assert!(msg.contains("windows"), "{msg}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn push_snapshot_retries_busy_then_succeeds() {
        // A gateway stand-in: answers 503 (retryable), then 409
        // (busy), then 200 with a version.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let responses = [
                "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 26\r\nConnection: close\r\n\r\n{\"error\": \"snapshot torn\"}",
                "HTTP/1.1 409 Conflict\r\nContent-Length: 20\r\nConnection: close\r\n\r\n{\"error\": \"reload\"}\n",
                "HTTP/1.1 200 OK\r\nContent-Length: 35\r\nConnection: close\r\n\r\n{\"swapped\": true, \"version\": 7}\n\n\n\n",
            ];
            for resp in responses {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let report = push_snapshot(&addr, Path::new("/tmp/some snap.pgebin"), 5, 1).unwrap();
        assert_eq!(report.version, 7);
        assert_eq!(report.attempts, 3);
        server.join().unwrap();
    }

    #[test]
    fn push_snapshot_gives_up_after_bounded_attempts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                s.write_all(
                    b"HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                )
                .unwrap();
            }
        });
        let err = push_snapshot(&addr, Path::new("/tmp/x.pgebin"), 2, 1).unwrap_err();
        assert!(err.contains("2 attempts exhausted"), "{err}");
        assert!(err.contains("409"), "{err}");
        server.join().unwrap();
        // A hard error (404) does not consume retries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            )
            .unwrap();
        });
        let err = push_snapshot(&addr, Path::new("/tmp/x.pgebin"), 5, 1).unwrap_err();
        assert!(err.contains("404"), "{err}");
        server.join().unwrap();
    }
}
