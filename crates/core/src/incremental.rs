//! Streaming incremental training: `pge train --incremental`.
//!
//! [`train_incremental`] warm-starts from a trainer checkpoint and
//! runs one phase of the trainer's driver per delta window: apply the
//! window, fine-tune over the rows it added, write the window's
//! snapshot and `incremental.ckpt` (next to, never on top of, the base
//! run's `trainer.ckpt`), and hand the snapshot to the caller
//! ([`train_incremental_with`]). Kill+resume is byte-identical at any
//! window boundary and any `--threads`; an edited or truncated delta
//! stream, or a window adding a fact under an attribute the model has
//! no relation for, is a typed [`PersistError::Mismatch`]. DESIGN.md
//! §16 has the rules.

use crate::checkpoint::{config_hash, data_fingerprint, CheckpointOptions, CHECKPOINT_FILE};
use crate::confidence::ConfidenceStore;
use crate::model::PgeModel;
use crate::persist::PersistError;
use crate::trainer::{load_checkpoint, run_phases, PgeConfig, Phase, Start, Workers};
use pge_graph::{apply_window, stream_fingerprint, Dataset, DeltaOp, DeltaWindow};
use pge_obs::RunLog;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;

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
}

impl IncrementalConfig {
    pub fn new(snapshot_dir: impl Into<PathBuf>) -> IncrementalConfig {
        IncrementalConfig {
            epochs_per_window: 2,
            snapshot_dir: snapshot_dir.into(),
        }
    }
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
/// checkpoint, a different `--confidence` backend, a delta stream
/// whose ingested prefix does not fingerprint-match the checkpoint,
/// or a window that adds a fact under an attribute the base model was
/// not trained on.
pub fn train_incremental(
    base: &Dataset,
    windows: &[DeltaWindow],
    cfg: &PgeConfig,
    inc: &IncrementalConfig,
    ckpt: &CheckpointOptions,
    log: Option<&RunLog>,
) -> Result<IncrementalOutcome, PersistError> {
    train_incremental_with(base, windows, cfg, inc, ckpt, log, &mut |_, _| Ok(None))
}

/// A per-window callback: `(window, snapshot path)` in, the generation
/// the snapshot was published under, if any, out.
pub type OnWindow<'a> = dyn FnMut(usize, &Path) -> Result<Option<u64>, PersistError> + 'a;

/// [`train_incremental`], calling `on_window(w, snapshot)` once per
/// window this process ingests, after the window's snapshot and
/// checkpoint are on disk and before its `ingest` runlog event. The
/// callback may publish the snapshot; the generation it returns is
/// recorded as the event's `push_version` (-1 for `None`), and an
/// error stops the run with the checkpoint kept.
pub fn train_incremental_with(
    base: &Dataset,
    windows: &[DeltaWindow],
    cfg: &PgeConfig,
    inc: &IncrementalConfig,
    ckpt: &CheckpointOptions,
    log: Option<&RunLog>,
    on_window: &mut OnWindow,
) -> Result<IncrementalOutcome, PersistError> {
    let started = Instant::now();
    let fingerprints = (config_hash(cfg), data_fingerprint(base));
    // Warm start: the incremental checkpoint when resuming past one,
    // otherwise the base trainer checkpoint.
    let inc_ckpt = ckpt.dir.join(INCREMENTAL_CHECKPOINT_FILE);
    let file = if ckpt.resume && inc_ckpt.exists() {
        inc_ckpt.clone()
    } else {
        ckpt.dir.join(CHECKPOINT_FILE)
    };
    let (model, state) = load_checkpoint(&file, cfg, fingerprints, log.filter(|_| ckpt.resume))?;
    // The base checkpoint has ingested nothing and stores fingerprint
    // 0; an incremental one must match this stream's prefix.
    let done = state.windows_done;
    let prefix = windows.get(..done).map(stream_fingerprint);
    if done > 0 && prefix != Some(state.delta_fingerprint) {
        return Err(PersistError::Mismatch(format!(
            "checkpoint has ingested {done} delta windows with fingerprint {:016x}, which \
             this stream of {} windows does not start with; the delta-stream was edited, \
             truncated or replaced — resume with the original delta file",
            state.delta_fingerprint,
            windows.len()
        )));
    }
    let unseen = windows.iter().find_map(|w| {
        w.ops
            .iter()
            .find(|d| d.op == DeltaOp::Add && model.lookup_attr(&d.attr).is_none())
            .map(|d| (w.index, &d.attr))
    });
    if let Some((index, attr)) = unseen {
        return Err(PersistError::Mismatch(format!(
            "delta window {index} adds a fact under attribute {attr:?}, which the base model \
             has no relation for; relations are learned in training — retrain on a corpus \
             that has it"
        )));
    }
    // Replay the ingested prefix, then one phase per window over the
    // rows it adds. The base run is past warmup by construction, so
    // confidence adapts from the first window.
    let mut dataset = base.clone();
    let mut live = vec![true; dataset.train.len()];
    for w in &windows[..done] {
        apply_window(&mut dataset, &mut live, w);
    }
    let phases = windows.iter().enumerate().skip(done).map(|(w, window)| {
        let first = cfg.epochs + w * inc.epochs_per_window;
        Phase {
            n: w,
            window: Some((window, stream_fingerprint(&windows[..=w]))),
            epochs: first..first + inc.epochs_per_window,
            confidence_active: cfg.noise_aware,
            checkpoint: Some(inc_ckpt.clone()),
            snapshot: Some(inc.snapshot_dir.join(format!("window-{w}.pgebin"))),
        }
    });
    let start = Start {
        dataset: Cow::Owned(dataset),
        live,
        workers: Workers::new(&model, cfg.threads),
        model,
        resumed: Some(state),
        fingerprints,
        started,
    };
    let (trained, dataset, live) = run_phases(start, phases, cfg, log, ckpt.stop_after, on_window)?;
    let windows_done = done + trained.telemetry.len();
    Ok(IncrementalOutcome {
        model: trained.model,
        confidence: trained.confidence,
        dataset: dataset.into_owned(),
        live,
        windows_done,
        window_losses: trained.telemetry.iter().map(|t| t.mean_loss).collect(),
        train_secs: trained.train_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::trainer::train_pge_resumable;
    use pge_graph::{DeltaOp, ProductGraph, TripleDelta};

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
        for w in 0..2 {
            let p = inc.snapshot_dir.join(format!("window-{w}.pgebin"));
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

    /// Relations are closed-world: a window adding a fact under an
    /// attribute the base model never saw used to index past the
    /// relation table inside the training step.
    #[test]
    fn unseen_attribute_is_rejected_before_any_window_trains() {
        let base = tiny_dataset();
        let cfg = tiny_cfg();
        let dir = scratch_dir("unseen-attr");
        base_checkpoint(&base, &cfg, &dir);
        let inc = IncrementalConfig::new(dir.join("snaps"));
        let mut windows = sample_windows();
        windows[1]
            .ops
            .push(d(DeltaOp::Add, "latebrand honey wafer", "brand", "acme"));
        let err = train_incremental(
            &base,
            &windows,
            &cfg,
            &inc,
            &CheckpointOptions::new(&dir),
            None,
        )
        .unwrap_err();
        match err {
            PersistError::Mismatch(msg) => {
                assert!(
                    msg.contains("window 1") && msg.contains("\"brand\""),
                    "{msg}"
                )
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
        assert!(!inc.snapshot_dir.exists());
        assert!(!dir.join(INCREMENTAL_CHECKPOINT_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
