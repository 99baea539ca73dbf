//! Kill-at-every-window-boundary resume fuzz for `train --incremental`.
//!
//! For every window boundary k, an ingest killed after k windows and
//! resumed must finish with bit-identical parameters and confidence
//! table to an uninterrupted ingest — at `threads` 1 and 4,
//! and when the kill and the resume use *different* thread counts.
//! Per-window PGEBIN02 snapshots must also be byte-identical between
//! the killed+resumed and uninterrupted runs. A checkpoint written
//! under one confidence backend must be rejected by a resume under the
//! other.

mod common;

use common::{param_bits, scratch_dir, tiny_dataset, windows};
use pge_core::{
    train_incremental, train_pge_resumable, CheckpointOptions, ConfidenceBackend,
    IncrementalConfig, IncrementalOutcome, PersistError, PgeConfig, CHECKPOINT_FILE,
};
use pge_graph::Dataset;
use std::path::Path;

fn cfg(threads: usize) -> PgeConfig {
    PgeConfig {
        epochs: 3,
        threads,
        noise_aware: true,
        confidence_warmup: 1,
        ..PgeConfig::tiny()
    }
}

/// Write the base run's checkpoint into `dir` (the state every ingest
/// warm-starts from).
fn seed_base_checkpoint(base: &Dataset, cfg: &PgeConfig, dir: &Path) {
    train_pge_resumable(base, cfg, None, Some(&CheckpointOptions::new(dir))).unwrap();
}

fn fingerprint(o: &IncrementalOutcome) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
    (
        param_bits(&o.model),
        o.confidence.scores().iter().map(|c| c.to_bits()).collect(),
        o.live.clone(),
    )
}

fn run(
    base: &Dataset,
    cfg: &PgeConfig,
    dir: &Path,
    resume: bool,
    stop_after: Option<usize>,
) -> Result<IncrementalOutcome, PersistError> {
    let mut opts = if resume {
        CheckpointOptions::resume(dir)
    } else {
        CheckpointOptions::new(dir)
    };
    opts.stop_after = stop_after;
    let inc = IncrementalConfig::new(dir.join("snapshots"));
    train_incremental(base, &windows(), cfg, &inc, &opts, None)
}

#[test]
fn kill_at_every_window_resumes_bit_identically() {
    let base = tiny_dataset();
    let n_windows = windows().len();
    for threads in [1, 4] {
        let cfg = cfg(threads);
        let base_dir = scratch_dir(&format!("base-t{threads}"));
        seed_base_checkpoint(&base, &cfg, &base_dir);

        let full_dir = scratch_dir(&format!("full-t{threads}"));
        std::fs::create_dir_all(&full_dir).unwrap();
        std::fs::copy(
            base_dir.join(CHECKPOINT_FILE),
            full_dir.join(CHECKPOINT_FILE),
        )
        .unwrap();
        let uninterrupted = run(&base, &cfg, &full_dir, false, None).unwrap();
        assert_eq!(uninterrupted.windows_done, n_windows);
        let baseline = fingerprint(&uninterrupted);

        for kill_after in 1..n_windows {
            let dir = scratch_dir(&format!("t{threads}k{kill_after}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::copy(base_dir.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_FILE)).unwrap();

            let killed = run(&base, &cfg, &dir, false, Some(kill_after)).unwrap();
            assert_eq!(
                killed.windows_done, kill_after,
                "stop_after must halt at the window boundary"
            );

            let resumed = run(&base, &cfg, &dir, true, None).unwrap();
            assert_eq!(resumed.windows_done, n_windows);
            let got = fingerprint(&resumed);
            assert_eq!(
                got.0, baseline.0,
                "threads={threads} kill_after={kill_after}: model diverged"
            );
            assert_eq!(
                got.1, baseline.1,
                "threads={threads} kill_after={kill_after}: confidence diverged"
            );
            assert_eq!(
                got.2, baseline.2,
                "threads={threads} kill_after={kill_after}: live mask diverged"
            );
            // Per-window snapshots byte-match the uninterrupted run's.
            for w in 0..n_windows {
                let name = format!("window-{w}.pgebin");
                let a = std::fs::read(full_dir.join("snapshots").join(&name)).unwrap();
                let b = std::fs::read(dir.join("snapshots").join(&name)).unwrap();
                assert_eq!(
                    a, b,
                    "threads={threads} kill_after={kill_after}: snapshot {name} diverged"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&base_dir).unwrap();
        std::fs::remove_dir_all(&full_dir).unwrap();
    }
}

#[test]
fn resume_may_change_thread_count() {
    let base = tiny_dataset();
    let base_dir = scratch_dir("xbase");
    seed_base_checkpoint(&base, &cfg(1), &base_dir);

    let full_dir = scratch_dir("xfull");
    std::fs::create_dir_all(&full_dir).unwrap();
    std::fs::copy(
        base_dir.join(CHECKPOINT_FILE),
        full_dir.join(CHECKPOINT_FILE),
    )
    .unwrap();
    let baseline = fingerprint(&run(&base, &cfg(1), &full_dir, false, None).unwrap());

    for (kill_threads, resume_threads) in [(1, 4), (4, 1)] {
        let dir = scratch_dir(&format!("x{kill_threads}{resume_threads}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(base_dir.join(CHECKPOINT_FILE), dir.join(CHECKPOINT_FILE)).unwrap();
        run(&base, &cfg(kill_threads), &dir, false, Some(1)).unwrap();
        let resumed = run(&base, &cfg(resume_threads), &dir, true, None).unwrap();
        assert_eq!(
            fingerprint(&resumed),
            baseline,
            "kill at --threads {kill_threads}, resume at --threads {resume_threads}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base_dir).unwrap();
    std::fs::remove_dir_all(&full_dir).unwrap();
}

#[test]
fn backend_mismatch_is_rejected() {
    let base = tiny_dataset();
    let dir = scratch_dir("backend");
    // Base checkpoint written under the default Eq. 6 backend …
    seed_base_checkpoint(&base, &cfg(1), &dir);
    // … must reject an ingest under the contrastive backend: its
    // confidence table was produced by a different update rule.
    let cca = PgeConfig {
        confidence: ConfidenceBackend::Cca,
        ..cfg(1)
    };
    match run(&base, &cca, &dir, false, None) {
        Err(PersistError::Mismatch(msg)) => {
            assert!(
                msg.contains("config") || msg.contains("backend"),
                "unexpected message: {msg}"
            );
        }
        other => panic!(
            "expected Mismatch, got {:?}",
            other.map(|_| "IncrementalOutcome")
        ),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
