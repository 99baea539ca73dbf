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
    load_model_auto_path, save_model_store, train_incremental, train_pge_resumable, CachedModel,
    CheckpointOptions, Detector, EmbeddingCache, IncrementalConfig, PersistError, PgeConfig,
    PgeModel, ScoreScratch, TrainedPge, CHECKPOINT_FILE,
};
use pge_graph::{Dataset, Triple};
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

/// The bits of every scoring door on `data.train`, door by door:
/// offline detection, the uncached oracle on the graph's strings, and
/// the cached door with the cache off and on. Each cached row reuses
/// one scratch across all triples, cold pass then warm.
fn door_bits(model: &PgeModel, data: &Dataset) -> Vec<(String, Vec<u32>)> {
    let g = &data.graph;
    let text = |t: &Triple| {
        (
            g.title(t.product),
            g.attr_name(t.attr),
            g.value_text(t.value),
        )
    };
    let bits = |scores: Vec<f32>| scores.iter().map(|s| s.to_bits()).collect::<Vec<u32>>();
    let mut doors = vec![
        (
            "Detector::scores".to_string(),
            bits(Detector::fit(model, g, &[]).scores(g, &data.train)),
        ),
        (
            "PgeModel::score_text_triple".to_string(),
            bits(
                data.train
                    .iter()
                    .map(|t| {
                        let (title, attr, value) = text(t);
                        model.score_text_triple(title, attr, value).unwrap()
                    })
                    .collect(),
            ),
        ),
    ];
    for cap in [0, 4096] {
        let cache = EmbeddingCache::new(cap);
        let cm = CachedModel::new(model, &cache);
        let mut scratch = ScoreScratch::default();
        for pass in ["cold", "warm"] {
            let scores = data
                .train
                .iter()
                .map(|t| {
                    let (title, attr, value) = text(t);
                    cm.score_text_triple_scratch(title, attr, value, &mut scratch)
                        .unwrap()
                })
                .collect();
            doors.push((
                format!("CachedModel::score_text_triple_scratch cap {cap}, {pass}"),
                bits(scores),
            ));
        }
    }
    doors
}

/// One row per provenance × backing: the model is saved with
/// `save_model_store`, reloaded with `load_model_auto_path`, and every
/// scoring door of both the reloaded and the in-memory model must give
/// the in-memory model's `Detector::scores` bits on every train triple.
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
    let path = dir.join("model.pgebin");
    for (provenance, model, data) in rows {
        let in_memory = door_bits(&model, data);
        let want = &in_memory[0].1;
        assert_eq!(want.len(), data.train.len());
        for (door, got) in &in_memory {
            assert_eq!(got, want, "{provenance}, in memory: {door}");
        }
        save_model_store(&model, &path).unwrap();
        for mode in [MmapMode::On, MmapMode::Off] {
            let loaded = load_model_auto_path(&path, &data.graph, mode, 0).unwrap();
            for (door, got) in door_bits(&loaded, data) {
                assert_eq!(&got, want, "{provenance}, {mode:?}: {door}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
