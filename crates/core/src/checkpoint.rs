//! Crash-safe training checkpoints with bit-identical resume.
//!
//! A killed `pge train` run used to lose everything: the model, the
//! Adam moments, and every learned confidence score C(t,a,v). This
//! module snapshots the *full* trainer state at each epoch boundary —
//! model parameters, per-parameter Adam first/second moments and the
//! global step counter, the confidence table of the noise-aware
//! mechanism, the completed-epoch counter, and the per-epoch loss
//! history — so a resumed run continues exactly where the killed one
//! stopped and produces a **bit-identical final model** to a run that
//! was never interrupted, at any `--threads`.
//!
//! A checkpoint is a PGEBIN02 snapshot (see `pge-store`): the model's
//! own sections ([`write_model_sections`]) plus
//!
//! * `ckpt.meta` — layout version, config hash, corpus fingerprint,
//!   delta fingerprint, windows and epochs done, Adam step, and the
//!   confidence backend's name;
//! * `ckpt.losses` — the mean loss of every completed epoch;
//! * `ckpt.adam_m.{i}` / `ckpt.adam_v.{i}` — the Adam moments of
//!   `model.param.{i}`;
//! * `ckpt.confidence` — the confidence table, positional over the
//!   train split;
//! * `ckpt.aux` — the confidence backend's auxiliary state.
//!
//! Every section carries its own CRC, so corruption is reported
//! against a named section. The writer commits through
//! [`pge_store::Commit`] (`{file}.tmp`, fsync, rename), so a kill at
//! any instant leaves either the previous checkpoint or the new one —
//! never a torn file.
//!
//! Two fingerprints are stored and verified on resume:
//!
//! * a **config hash** over every training-relevant knob of
//!   [`PgeConfig`] *except* `threads` (the gradient-lane design makes
//!   results thread-count-invariant, so resuming with a different
//!   worker count is explicitly allowed);
//! * a **data fingerprint** over the product graph and the training
//!   split — titles, attribute names, value texts, and the train
//!   triples in order. Confidence scores and shuffle streams are
//!   positional, so resuming against a different corpus would silently
//!   mis-assign both; it is rejected with a clear error instead.

use crate::model::PgeModel;
use crate::persist::{
    io_err, model_from_snapshot, model_params, store_err, write_model_sections, PersistError,
};
use crate::trainer::PgeConfig;
use pge_graph::Dataset;
use pge_store::{MmapMode, Snapshot, SnapshotWriter, StoreError};
use pge_tensor::fnv1a_str;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Crate-visible: the trainer's bit-pin test hashes through this path.
pub(crate) use pge_tensor::{fnv1a, FNV_OFFSET};

/// File name of the trainer checkpoint inside the checkpoint
/// directory.
pub const CHECKPOINT_FILE: &str = "trainer.ckpt";

/// Layout version of the `ckpt.meta` section.
const META_VERSION: u32 = 1;
/// Bytes of `ckpt.meta` before the backend name.
const META_FIXED: usize = 52;

/// Where (and whether) the trainer checkpoints, plus the kill switch
/// used by tests and CI to simulate a crash at an epoch boundary.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Directory the checkpoint file lives in (created if missing).
    pub dir: PathBuf,
    /// Load and continue from the directory's checkpoint instead of
    /// starting fresh. Missing checkpoint → error.
    pub resume: bool,
    /// Stop training (as a simulated kill) once this many epochs have
    /// completed and been checkpointed. `None` runs to the end.
    pub stop_after: Option<usize>,
}

impl CheckpointOptions {
    /// Checkpoint into `dir`, starting training from scratch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: false,
            stop_after: None,
        }
    }

    /// Resume from the checkpoint in `dir` and keep checkpointing
    /// there.
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: true,
            stop_after: None,
        }
    }
}

/// Everything the trainer needs to continue a run bit-identically,
/// apart from the model and its Adam moments: those are written from
/// the live model by [`TrainerState::store`] and rebuilt by
/// [`Checkpoint::restore_model`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainerState {
    /// Epochs fully completed (and reflected in the parameters).
    pub epochs_done: usize,
    /// Global Adam step count (bias correction depends on it).
    pub step: u64,
    /// Hash of the training config (minus `threads`); see
    /// [`config_hash`].
    pub config_hash: u64,
    /// Fingerprint of graph + train split; see [`data_fingerprint`].
    pub data_fingerprint: u64,
    /// Name of the confidence backend that produced the confidence
    /// table. Stored redundantly with its [`config_hash`] contribution
    /// so a backend mismatch rejects with a *specific* message instead
    /// of the generic config one.
    pub backend: String,
    /// Fingerprint of the delta windows already ingested by an
    /// incremental run (0 for plain training); see
    /// `pge_graph::delta::stream_fingerprint`.
    pub delta_fingerprint: u64,
    /// Ingest windows fully completed by an incremental run (0 for
    /// plain training).
    pub windows_done: usize,
    /// Mean loss of every completed epoch, so a resumed run reports
    /// the full history.
    pub epoch_losses: Vec<f32>,
    /// The confidence table C(t,a,v), positional over the train split.
    pub confidence: Vec<f32>,
    /// Auxiliary confidence-backend state (the CCA neighbor cache;
    /// empty for the Eq. 6 backend).
    pub aux: Vec<f32>,
}

/// A checkpoint read back from disk: its [`TrainerState`], plus the
/// open snapshot the model is rebuilt from once the caller has
/// verified the state.
pub struct Checkpoint {
    pub state: TrainerState,
    snap: Arc<Snapshot>,
}

fn fnv_u64(h: u64, x: u64) -> u64 {
    fnv1a(h, &x.to_le_bytes())
}

/// Hash every training-relevant field of the config **except**
/// `threads`: thread count only decides who computes a gradient lane,
/// never the result, so a checkpoint taken at `--threads 8` resumes
/// legally at `--threads 1` (and vice versa).
pub fn config_hash(cfg: &PgeConfig) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, cfg.dim as u64);
    h = fnv_u64(h, cfg.word_dim as u64);
    h = fnv_u64(h, cfg.widths.len() as u64);
    for &w in &cfg.widths {
        h = fnv_u64(h, w as u64);
    }
    h = fnv_u64(h, cfg.filters_per_width as u64);
    h = fnv_u64(h, cfg.max_len as u64);
    // The retired encoder knob's slot: every checkpoint on disk hashed
    // the CNN's name here.
    h = fnv1a_str(h, "CNN");
    h = fnv1a_str(h, cfg.score.name());
    h = fnv_u64(h, cfg.gamma.to_bits() as u64);
    h = fnv_u64(h, cfg.epochs as u64);
    h = fnv_u64(h, cfg.batch as u64);
    h = fnv_u64(h, cfg.negatives as u64);
    h = fnv_u64(h, cfg.lr.to_bits() as u64);
    h = fnv_u64(
        h,
        matches!(cfg.sampling, pge_graph::SamplingMode::PerAttribute) as u64,
    );
    h = fnv_u64(h, cfg.noise_aware as u64);
    h = fnv_u64(h, cfg.alpha.to_bits() as u64);
    h = fnv_u64(h, cfg.beta.to_bits() as u64);
    h = fnv_u64(h, cfg.confidence_lr.to_bits() as u64);
    h = fnv_u64(h, cfg.confidence_warmup as u64);
    h = fnv1a_str(h, cfg.confidence.name());
    h = fnv_u64(h, cfg.word2vec_epochs as u64);
    h = fnv_u64(h, cfg.rotate_phase_init as u64);
    h = fnv_u64(h, cfg.seed);
    h
}

/// Fingerprint the corpus the checkpoint was trained against: the
/// graph's entity texts and the train split in order. Confidence
/// scores, shuffle streams, and negative-sampling streams are all
/// positional over this data, so any change invalidates a resume.
pub fn data_fingerprint(dataset: &Dataset) -> u64 {
    let g = &dataset.graph;
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, g.num_products() as u64);
    h = fnv_u64(h, g.num_attrs() as u64);
    h = fnv_u64(h, g.num_values() as u64);
    for i in 0..g.num_products() {
        h = fnv1a_str(h, g.title(pge_graph::ProductId(i as u32)));
    }
    for i in 0..g.num_attrs() {
        h = fnv1a_str(h, g.attr_name(pge_graph::AttrId(i as u16)));
    }
    for i in 0..g.num_values() {
        h = fnv1a_str(h, g.value_text(pge_graph::ValueId(i as u32)));
    }
    h = fnv_u64(h, dataset.train.len() as u64);
    for t in &dataset.train {
        h = fnv_u64(h, t.product.0 as u64);
        h = fnv_u64(h, t.attr.0 as u64);
        h = fnv_u64(h, t.value.0 as u64);
    }
    h
}

impl TrainerState {
    /// Reject a checkpoint taken under a different confidence
    /// backend, config or corpus. The backend is checked *first* (it
    /// also feeds the config hash): warm-starting from a table
    /// produced by another update rule would silently blend two
    /// incompatible confidence semantics, so it gets its own specific
    /// error.
    pub fn verify(
        &self,
        backend: &str,
        config_hash: u64,
        data_fingerprint: u64,
    ) -> Result<(), PersistError> {
        if self.backend != backend {
            return Err(PersistError::Mismatch(format!(
                "checkpoint confidence table was trained with the {:?} backend \
                 but this run selected --confidence {backend:?}; the two update \
                 rules are not interchangeable — warm-start from a checkpoint \
                 trained with the same backend",
                self.backend
            )));
        }
        if self.config_hash != config_hash {
            return Err(PersistError::Mismatch(format!(
                "checkpoint was written by a run with different training config \
                 (hash {:016x}, this run {:016x}); resume with the original flags \
                 (--threads may differ, everything else must match)",
                self.config_hash, config_hash
            )));
        }
        if self.data_fingerprint != data_fingerprint {
            return Err(PersistError::Mismatch(format!(
                "checkpoint was trained against a different corpus \
                 (fingerprint {:016x}, this dataset {:016x}); confidence scores and \
                 sampling streams are positional, so resuming would corrupt training — \
                 point --data at the original file",
                self.data_fingerprint, data_fingerprint
            )));
        }
        Ok(())
    }

    fn meta_bytes(&self) -> Vec<u8> {
        let mut b = META_VERSION.to_le_bytes().to_vec();
        for x in [
            self.config_hash,
            self.data_fingerprint,
            self.delta_fingerprint,
            self.windows_done as u64,
            self.epochs_done as u64,
            self.step,
        ] {
            b.extend_from_slice(&x.to_le_bytes());
        }
        b.extend_from_slice(self.backend.as_bytes());
        b
    }

    /// Durably replace the checkpoint at `path` (its directory is
    /// created if missing) with this state plus `model`'s parameters
    /// and Adam moments. Gradients are zero at an epoch boundary (every
    /// batch applies and clears them), so parameters + moments + step
    /// are the complete optimizer state. Returns the checkpoint size
    /// in bytes.
    pub fn store(&self, model: &PgeModel, path: &Path) -> Result<u64, PersistError> {
        let io = |what: &str, e: std::io::Error| {
            PersistError::Io(format!("{what} {}: {e}", path.display()))
        };
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| io("create the directory of", e))?;
        }
        let mut w = SnapshotWriter::create(path).map_err(|e| io("create", e))?;
        write_model_sections(model, &mut w)?;
        let row = |w: &mut SnapshotWriter, name: &str, xs: &[f32]| {
            w.add_f32s(name, 1, xs.len() as u64, xs).map_err(io_err)
        };
        w.add_bytes("ckpt.meta", &self.meta_bytes())
            .map_err(io_err)?;
        row(&mut w, "ckpt.losses", &self.epoch_losses)?;
        let mut clone = model.clone();
        for (i, p) in model_params(&mut clone).iter().enumerate() {
            let (m, v) = p.adam_state();
            row(&mut w, &format!("ckpt.adam_m.{i}"), m.as_slice())?;
            row(&mut w, &format!("ckpt.adam_v.{i}"), v.as_slice())?;
        }
        row(&mut w, "ckpt.confidence", &self.confidence)?;
        row(&mut w, "ckpt.aux", &self.aux)?;
        w.finish().map_err(|e| io("write", e))?;
        Ok(fs::metadata(path).map_err(|e| io("stat", e))?.len())
    }
}

impl Checkpoint {
    /// Open and validate the checkpoint at `path` (heap-backed: it is
    /// read once). A missing file is an error — resume was requested,
    /// so silently starting over would discard the caller's intent.
    pub fn load(path: &Path) -> Result<Checkpoint, PersistError> {
        let snap = Snapshot::open(path, MmapMode::Off).map_err(|e| match e {
            StoreError::Io(e) if e.kind() == std::io::ErrorKind::NotFound => {
                PersistError::Io(format!(
                    "no training checkpoint at {} — run without --resume first",
                    path.display()
                ))
            }
            e => store_err(e),
        })?;
        let meta = snap.section("ckpt.meta").map_err(store_err)?.bytes;
        if meta.len() < META_FIXED {
            return Err(PersistError::Corrupt(format!(
                "ckpt.meta is {} bytes, at least {META_FIXED} expected",
                meta.len()
            )));
        }
        let version = u32::from_le_bytes(meta[..4].try_into().unwrap());
        if version != META_VERSION {
            return Err(PersistError::Parse(format!(
                "ckpt.meta layout {version}, this build reads {META_VERSION}"
            )));
        }
        let u64_at = |at: usize| u64::from_le_bytes(meta[at..at + 8].try_into().unwrap());
        let backend = std::str::from_utf8(&meta[META_FIXED..])
            .map_err(|_| PersistError::Corrupt("ckpt.meta backend name is not UTF-8".into()))?;
        let f32s = |name: &str| -> Result<Vec<f32>, PersistError> {
            let sec = snap.section(name).map_err(store_err)?;
            Ok(sec.as_f32s().map_err(store_err)?.to_vec())
        };
        let state = TrainerState {
            config_hash: u64_at(4),
            data_fingerprint: u64_at(12),
            delta_fingerprint: u64_at(20),
            windows_done: u64_at(28) as usize,
            epochs_done: u64_at(36) as usize,
            step: u64_at(44),
            backend: backend.to_string(),
            epoch_losses: f32s("ckpt.losses")?,
            confidence: f32s("ckpt.confidence")?,
            aux: f32s("ckpt.aux")?,
        };
        Ok(Checkpoint {
            state,
            snap: Arc::new(snap),
        })
    }

    /// Rebuild the model exactly as checkpointed — parameters, then
    /// the Adam moments of every one.
    pub fn restore_model(&self) -> Result<PgeModel, PersistError> {
        let mut model = model_from_snapshot(&self.snap, 0)?;
        for (i, p) in model_params(&mut model).into_iter().enumerate() {
            let (m, v) = p.adam_state_mut();
            for (name, dst) in [
                (format!("ckpt.adam_m.{i}"), m),
                (format!("ckpt.adam_v.{i}"), v),
            ] {
                let src = self.snap.section(&name).map_err(store_err)?;
                let src = src.as_f32s().map_err(store_err)?;
                if src.len() != dst.len() {
                    return Err(PersistError::Corrupt(format!(
                        "{name} has {} values for a {}x{} parameter",
                        src.len(),
                        dst.rows(),
                        dst.cols()
                    )));
                }
                dst.as_mut_slice().copy_from_slice(src);
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_pge, PgeConfig};
    use pge_graph::{Dataset, ProductGraph};

    fn tiny_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..20 {
            let flavor = if i % 2 == 0 { "spicy" } else { "sweet" };
            train.push(g.add_fact(&format!("brand{i} {flavor} chips {i}"), "flavor", flavor));
        }
        Dataset::new(g, train, vec![], vec![])
    }

    fn sample_state() -> (TrainerState, PgeModel, Dataset) {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            epochs: 2,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        let state = TrainerState {
            epochs_done: 2,
            step: 7,
            config_hash: config_hash(&cfg),
            data_fingerprint: data_fingerprint(&d),
            backend: cfg.confidence.name().to_string(),
            delta_fingerprint: 0,
            windows_done: 0,
            epoch_losses: out.epoch_losses,
            confidence: out.confidence.scores().to_vec(),
            aux: Vec::new(),
        };
        (state, out.model, d)
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("pge-train-ckpt-{}", std::process::id()))
            .join(name)
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let (state, model, _) = sample_state();
        let (path, again) = (tmp("round-trip.ckpt"), tmp("round-trip-again.ckpt"));
        state.store(&model, &path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.state, state);
        // Re-storing what was loaded is byte-stable.
        let restored = back.restore_model().unwrap();
        back.state.store(&restored, &again).unwrap();
        assert_eq!(std::fs::read(path).unwrap(), std::fs::read(again).unwrap());
    }

    #[test]
    fn restore_model_reinstalls_parameters_and_moments() {
        let (state, mut model, _) = sample_state();
        let path = tmp("restore.ckpt");
        state.store(&model, &path).unwrap();
        let ck = Checkpoint::load(&path).unwrap();
        let bits = |m: &mut PgeModel| -> Vec<[Vec<u32>; 3]> {
            let bits = |x: &pge_tensor::Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect();
            model_params(m)
                .iter()
                .map(|p| {
                    [
                        bits(&p.value),
                        bits(p.adam_state().0),
                        bits(p.adam_state().1),
                    ]
                })
                .collect()
        };
        let want = bits(&mut model);
        // Training leaves the moments nonzero, so an all-zero restore
        // would be a silent bug.
        assert!(want.iter().any(|[_, m, _]| m.iter().any(|&x| x != 0)));
        assert_eq!(bits(&mut ck.restore_model().unwrap()), want);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let (state, model, _) = sample_state();
        let path = tmp("flips.ckpt");
        state.store(&model, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let bad = tmp("flips-bad.ckpt");
        for cut in [0, 3, 9, 20, 64, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&bad, &bytes[..cut]).unwrap();
            assert!(
                Checkpoint::load(&bad).is_err(),
                "truncation at {cut} must not load"
            );
        }
        // A flip inside any section is pinned to that section.
        let sections = Snapshot::open(&path, MmapMode::Off)
            .unwrap()
            .sections()
            .to_vec();
        for sec in sections.iter().filter(|s| s.len > 0) {
            let mut flipped = bytes.clone();
            flipped[(sec.offset + sec.len / 2) as usize] ^= 0x40;
            std::fs::write(&bad, &flipped).unwrap();
            match Checkpoint::load(&bad).map(|c| c.state) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains("CRC") && msg.contains(&sec.name), "{msg}")
                }
                other => panic!("flip in {}: expected CRC failure, got {other:?}", sec.name),
            }
        }
    }

    #[test]
    fn verify_rejects_config_and_corpus_mismatches() {
        let (state, _, d) = sample_state();
        let cfg = PgeConfig {
            epochs: 2,
            ..PgeConfig::tiny()
        };
        let backend = cfg.confidence.name();
        state
            .verify(backend, config_hash(&cfg), data_fingerprint(&d))
            .unwrap();
        let other_cfg = PgeConfig {
            epochs: 2,
            lr: 0.123,
            ..PgeConfig::tiny()
        };
        assert!(matches!(
            state.verify(backend, config_hash(&other_cfg), data_fingerprint(&d)),
            Err(PersistError::Mismatch(_))
        ));
        let mut other_data = tiny_dataset();
        other_data
            .graph
            .add_fact("new brand cola", "flavor", "cola");
        assert!(matches!(
            state.verify(backend, config_hash(&cfg), data_fingerprint(&other_data)),
            Err(PersistError::Mismatch(_))
        ));
    }

    #[test]
    fn config_hash_ignores_threads_but_not_other_knobs() {
        let base = PgeConfig::tiny();
        let h = config_hash(&base);
        assert_eq!(
            h,
            config_hash(&PgeConfig {
                threads: 7,
                ..PgeConfig::tiny()
            }),
            "threads must not affect the hash — resume may change it"
        );
        for other in [
            PgeConfig {
                seed: 99,
                ..PgeConfig::tiny()
            },
            PgeConfig {
                epochs: 3,
                ..PgeConfig::tiny()
            },
            PgeConfig {
                noise_aware: false,
                ..PgeConfig::tiny()
            },
            PgeConfig {
                sampling: pge_graph::SamplingMode::PerAttribute,
                ..PgeConfig::tiny()
            },
            PgeConfig {
                confidence: crate::confidence::ConfidenceBackend::Cca,
                ..PgeConfig::tiny()
            },
        ] {
            assert_ne!(h, config_hash(&other), "{other:?}");
        }
    }

    /// Every `trainer.ckpt` and `incremental.ckpt` on disk stores one of
    /// these hashes; a refactor of `PgeConfig` that moves them makes
    /// every existing checkpoint unresumable.
    #[test]
    fn config_hash_is_pinned() {
        assert_eq!(
            (
                config_hash(&PgeConfig::tiny()),
                config_hash(&PgeConfig::default())
            ),
            (2542152382436456462, 7710850642906468762)
        );
    }

    #[test]
    fn verify_backend_rejects_cross_backend_warm_start() {
        let (state, _, _) = sample_state();
        assert_eq!(state.backend, "pge");
        let (cfg_hash, data_fp) = (state.config_hash, state.data_fingerprint);
        state.verify("pge", cfg_hash, data_fp).unwrap();
        // The backend is named even though the config hash matches.
        match state.verify("cca", cfg_hash, data_fp) {
            Err(PersistError::Mismatch(msg)) => {
                assert!(msg.contains("pge") && msg.contains("cca"), "{msg}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn incremental_metadata_round_trips() {
        let (mut state, model, _) = sample_state();
        state.delta_fingerprint = 0xdead_beef_1234_5678;
        state.windows_done = 3;
        state.aux = vec![0.5, -1.25, 7.0];
        state.store(&model, &tmp("incremental.ckpt")).unwrap();
        assert_eq!(
            Checkpoint::load(&tmp("incremental.ckpt")).unwrap().state,
            state
        );
    }

    #[test]
    fn data_fingerprint_tracks_text_and_split() {
        let d = tiny_dataset();
        let fp = data_fingerprint(&d);
        assert_eq!(fp, data_fingerprint(&tiny_dataset()), "deterministic");
        let mut fewer = tiny_dataset();
        fewer.train.pop();
        assert_ne!(fp, data_fingerprint(&fewer));
        let mut renamed = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..20 {
            let flavor = if i % 2 == 0 { "spicy" } else { "sweet" };
            // One title differs by a single character.
            let brand = if i == 7 { "brand7x" } else { "brand" };
            train.push(renamed.add_fact(
                &format!("{brand}{i} {flavor} chips {i}"),
                "flavor",
                flavor,
            ));
        }
        let renamed = Dataset::new(renamed, train, vec![], vec![]);
        assert_ne!(fp, data_fingerprint(&renamed));
    }

    #[test]
    fn store_and_load_round_trip_atomically() {
        let (state, model, _) = sample_state();
        let dir = std::env::temp_dir().join(format!("pge-train-ckpt-dir-{}", std::process::id()));
        let path = dir.join(CHECKPOINT_FILE);
        let bytes = state.store(&model, &path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        assert_eq!(Checkpoint::load(&path).unwrap().state, state);
        // A missing checkpoint is a clear error, not a silent restart.
        match Checkpoint::load(&dir.join("absent.ckpt")) {
            Err(PersistError::Io(msg)) => assert!(msg.contains("no training checkpoint")),
            other => panic!("expected Io error, got {:?}", other.map(|c| c.state)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
