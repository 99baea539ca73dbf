//! Kill-at-every-epoch-boundary resume fuzz, and the snapshot
//! round trip of every way a model can come to exist.
//!
//! For every epoch k, a run checkpointed at k and resumed must finish
//! with bit-identical parameters and confidence table to an
//! uninterrupted run — at `threads` 1 and 4, and even when the kill
//! and the resume use *different* thread counts. Tampered checkpoints
//! and mismatched corpora must be rejected with typed errors.

mod common;

use common::{param_bits, scratch_dir, tiny_dataset, windows};
use pge_core::{
    load_model_auto_path, save_model_store, train_incremental, train_pge_resumable,
    CheckpointOptions, Detector, IncrementalConfig, PersistError, PgeConfig, PgeModel, TrainedPge,
    CHECKPOINT_FILE,
};
use pge_graph::Dataset;
use pge_store::{MmapMode, Snapshot};
use std::path::Path;

fn cfg(threads: usize) -> PgeConfig {
    PgeConfig {
        epochs: 4,
        threads,
        // Noise-aware on, warmup mid-run, so the fuzz also proves the
        // confidence table survives the checkpoint bit-exactly.
        noise_aware: true,
        confidence_warmup: 1,
        ..PgeConfig::tiny()
    }
}

fn fingerprint(out: &TrainedPge) -> (Vec<u32>, Vec<u32>) {
    (
        param_bits(&out.model),
        out.confidence
            .scores()
            .iter()
            .map(|c| c.to_bits())
            .collect(),
    )
}

#[test]
fn kill_at_every_epoch_resumes_bit_identically() {
    let d = tiny_dataset();
    for threads in [1, 4] {
        let cfg = cfg(threads);
        let baseline = fingerprint(&train_pge_resumable(&d, &cfg, None, None).unwrap());
        for kill_after in 1..cfg.epochs {
            let dir = scratch_dir(&format!("t{threads}k{kill_after}"));
            let mut opts = CheckpointOptions::new(&dir);
            opts.stop_after = Some(kill_after);
            let killed = train_pge_resumable(&d, &cfg, None, Some(&opts)).unwrap();
            assert_eq!(
                killed.epoch_losses.len(),
                kill_after,
                "stop_after must halt at the boundary"
            );
            let resumed =
                train_pge_resumable(&d, &cfg, None, Some(&CheckpointOptions::resume(&dir)))
                    .unwrap();
            let got = fingerprint(&resumed);
            assert_eq!(
                got.0, baseline.0,
                "threads={threads} kill_after={kill_after}: model diverged"
            );
            assert_eq!(
                got.1, baseline.1,
                "threads={threads} kill_after={kill_after}: confidence diverged"
            );
            assert_eq!(resumed.epoch_losses.len(), cfg.epochs);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn resume_may_change_thread_count() {
    let d = tiny_dataset();
    let baseline = fingerprint(&train_pge_resumable(&d, &cfg(1), None, None).unwrap());
    for (kill_threads, resume_threads) in [(1, 4), (4, 1)] {
        let dir = scratch_dir(&format!("x{kill_threads}{resume_threads}"));
        let mut opts = CheckpointOptions::new(&dir);
        opts.stop_after = Some(2);
        train_pge_resumable(&d, &cfg(kill_threads), None, Some(&opts)).unwrap();
        let resumed = train_pge_resumable(
            &d,
            &cfg(resume_threads),
            None,
            Some(&CheckpointOptions::resume(&dir)),
        )
        .unwrap();
        assert_eq!(
            fingerprint(&resumed),
            baseline,
            "kill at --threads {kill_threads}, resume at --threads {resume_threads}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn tampered_checkpoint_is_rejected() {
    let d = tiny_dataset();
    let dir = scratch_dir("tamper");
    let mut opts = CheckpointOptions::new(&dir);
    opts.stop_after = Some(1);
    train_pge_resumable(&d, &cfg(1), None, Some(&opts)).unwrap();
    let path = dir.join(CHECKPOINT_FILE);
    // Flip a bit in the middle of one section's payload.
    let ix = Snapshot::open(&path, MmapMode::Off)
        .unwrap()
        .section("ckpt.adam_m.0")
        .map(|s| s.meta.offset + s.meta.len / 2)
        .unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[ix as usize] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    match train_pge_resumable(&d, &cfg(1), None, Some(&CheckpointOptions::resume(&dir))) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("CRC") && msg.contains("ckpt.adam_m.0"),
                "{msg}"
            )
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| "TrainedPge")),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_corpus_and_config_are_rejected() {
    let d = tiny_dataset();
    let dir = scratch_dir("mismatch");
    let mut opts = CheckpointOptions::new(&dir);
    opts.stop_after = Some(1);
    train_pge_resumable(&d, &cfg(1), None, Some(&opts)).unwrap();

    // Same config, different corpus → corpus-fingerprint rejection.
    let mut other = tiny_dataset();
    other.graph.add_fact("brandX cola drink", "flavor", "cola");
    match train_pge_resumable(
        &other,
        &cfg(1),
        None,
        Some(&CheckpointOptions::resume(&dir)),
    ) {
        Err(PersistError::Mismatch(msg)) => assert!(msg.contains("corpus"), "{msg}"),
        other => panic!("expected Mismatch, got {:?}", other.map(|_| "TrainedPge")),
    }

    // Same corpus, different config (lr) → config-hash rejection.
    let other_cfg = PgeConfig { lr: 0.5, ..cfg(1) };
    match train_pge_resumable(&d, &other_cfg, None, Some(&CheckpointOptions::resume(&dir))) {
        Err(PersistError::Mismatch(msg)) => assert!(msg.contains("config"), "{msg}"),
        other => panic!("expected Mismatch, got {:?}", other.map(|_| "TrainedPge")),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_without_checkpoint_is_a_clear_error() {
    let d = tiny_dataset();
    let dir = scratch_dir("absent");
    match train_pge_resumable(&d, &cfg(1), None, Some(&CheckpointOptions::resume(&dir))) {
        Err(PersistError::Io(msg)) => assert!(msg.contains("no training checkpoint"), "{msg}"),
        other => panic!("expected Io, got {:?}", other.map(|_| "TrainedPge")),
    }
}

/// A model after incremental window 1: a base run checkpointed in
/// `dir`, then the first two delta windows ingested on top of it.
/// Returns the model with the dataset it grew.
fn incremental_window_1(base: &Dataset, dir: &Path) -> (PgeModel, Dataset) {
    let opts = CheckpointOptions::new(dir);
    train_pge_resumable(base, &cfg(1), None, Some(&opts)).unwrap();
    let inc = IncrementalConfig::new(dir.join("snapshots"));
    let out = train_incremental(base, &windows()[..2], &cfg(1), &inc, &opts, None).unwrap();
    assert_eq!(out.windows_done, 2);
    (out.model, out.dataset)
}

/// One row per provenance × backing: the model is saved with
/// `save_model_store`, reloaded with `load_model_auto_path`, and must
/// score every train triple bit-identically to the in-memory model.
#[test]
fn snapshot_round_trip_scores_bit_identically_for_every_provenance() {
    let d = tiny_dataset();
    let dir = scratch_dir("rows");
    let fresh = train_pge_resumable(&d, &cfg(4), None, None).unwrap().model;
    let resumed = {
        let ckpt = dir.join("killed");
        let mut opts = CheckpointOptions::new(&ckpt);
        opts.stop_after = Some(1);
        train_pge_resumable(&d, &cfg(4), None, Some(&opts)).unwrap();
        train_pge_resumable(&d, &cfg(1), None, Some(&CheckpointOptions::resume(&ckpt)))
            .unwrap()
            .model
    };
    let (incremental, grown) = incremental_window_1(&d, &dir.join("incremental"));
    let rows = [
        ("fresh", fresh, &d),
        ("killed at 4 threads, resumed at 1", resumed, &d),
        ("incremental window 1", incremental, &grown),
    ];
    let score_bits = |model: &PgeModel, data: &Dataset| -> Vec<u32> {
        let det = Detector::fit(model, &data.graph, &[]);
        let scores = det.scores(&data.graph, &data.train);
        scores.iter().map(|s| s.to_bits()).collect()
    };
    let path = dir.join("model.pgebin");
    for (provenance, model, data) in rows {
        save_model_store(&model, &path).unwrap();
        for mode in [MmapMode::On, MmapMode::Off] {
            let loaded = load_model_auto_path(&path, &data.graph, mode, 0).unwrap();
            assert_eq!(
                score_bits(&loaded, data),
                score_bits(&model, data),
                "{provenance}, {mode:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
