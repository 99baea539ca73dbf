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
//! The on-disk format follows the `PGEBIN01` pattern established by
//! model snapshots and `pge-scan` checkpoints: a `PGECKPT1` magic, a
//! little-endian CRC-32 over the payload, then the payload. The file
//! is replaced atomically (temp file, fsync, rename), so a kill at any
//! instant leaves either the previous checkpoint or the new one —
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

use crate::confidence::ConfidenceStore;
use crate::model::PgeModel;
use crate::persist::{load_model_binary, save_model_binary, PersistError};
use crate::trainer::PgeConfig;
use pge_graph::{Dataset, ProductGraph};
use pge_nn::gradcheck::HasParams;
use std::fs;
use std::path::{Path, PathBuf};

/// Leading magic of the trainer-state checkpoint format.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PGECKPT1";

/// File name of the trainer checkpoint inside the checkpoint
/// directory.
pub const CHECKPOINT_FILE: &str = "trainer.ckpt";

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

/// The Adam moment estimates of one parameter tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct MomentRecord {
    pub rows: usize,
    pub cols: usize,
    /// First-moment estimate, row-major.
    pub m: Vec<f32>,
    /// Second-moment estimate, row-major.
    pub v: Vec<f32>,
}

/// Everything the trainer needs to continue a run bit-identically:
/// captured at an epoch boundary, written durably, verified on load.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainerState {
    /// Epochs fully completed (and reflected in the snapshot).
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
    /// Complete `PGEBIN01` model snapshot (parameters only).
    pub model_snapshot: Vec<u8>,
    /// Adam moments per parameter, in `HasParams` order with the
    /// relation table last — the same order the snapshot uses.
    pub moments: Vec<MomentRecord>,
    /// The confidence table C(t,a,v), positional over the train split.
    pub confidence: Vec<f32>,
    /// Auxiliary confidence-backend state (the CCA neighbor cache;
    /// empty for the Eq. 6 backend).
    pub aux: Vec<f32>,
}

/// FNV-1a 64-bit, the workspace's zero-dependency stable hash.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_u64(h: u64, x: u64) -> u64 {
    fnv1a(h, &x.to_le_bytes())
}

fn fnv_str(h: u64, s: &str) -> u64 {
    // Length-prefixed so "ab","c" and "a","bc" hash differently.
    fnv1a(fnv_u64(h, s.len() as u64), s.as_bytes())
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
    h = fnv_str(h, cfg.encoder.name());
    h = fnv_str(h, cfg.score.name());
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
    h = fnv_str(h, cfg.confidence.name());
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
        h = fnv_str(h, g.title(pge_graph::ProductId(i as u32)));
    }
    for i in 0..g.num_attrs() {
        h = fnv_str(h, g.attr_name(pge_graph::AttrId(i as u16)));
    }
    for i in 0..g.num_values() {
        h = fnv_str(h, g.value_text(pge_graph::ValueId(i as u32)));
    }
    h = fnv_u64(h, dataset.train.len() as u64);
    for t in &dataset.train {
        h = fnv_u64(h, t.product.0 as u64);
        h = fnv_u64(h, t.attr.0 as u64);
        h = fnv_u64(h, t.value.0 as u64);
    }
    h
}

/// A forward-only cursor over the checkpoint payload; every read is
/// bounds-checked so truncation surfaces as `Corrupt`, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PersistError::Corrupt(format!("checkpoint truncated in {what}")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize, what: &str) -> Result<Vec<f32>, PersistError> {
        let raw = self.take(
            n.checked_mul(4).ok_or_else(|| {
                PersistError::Corrupt(format!("checkpoint length overflow in {what}"))
            })?,
            what,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

fn push_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

impl TrainerState {
    /// Snapshot the live trainer at an epoch boundary. Gradients are
    /// guaranteed zero there (every batch applies and clears them), so
    /// parameters + moments + step are the complete optimizer state.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        model: &PgeModel,
        confidence: &ConfidenceStore,
        epochs_done: usize,
        step: u64,
        config_hash: u64,
        data_fingerprint: u64,
        epoch_losses: &[f32],
        backend: &str,
        aux: &[f32],
    ) -> Result<TrainerState, PersistError> {
        let model_snapshot = save_model_binary(model)?;
        let mut clone = model.clone();
        let mut params = clone.encoder.params_mut();
        params.push(clone.relations.param_mut());
        let moments = params
            .iter()
            .map(|p| {
                let (m, v) = p.adam_state();
                MomentRecord {
                    rows: p.value.rows(),
                    cols: p.value.cols(),
                    m: m.as_slice().to_vec(),
                    v: v.as_slice().to_vec(),
                }
            })
            .collect();
        Ok(TrainerState {
            epochs_done,
            step,
            config_hash,
            data_fingerprint,
            backend: backend.to_string(),
            delta_fingerprint: 0,
            windows_done: 0,
            epoch_losses: epoch_losses.to_vec(),
            model_snapshot,
            moments,
            confidence: confidence.scores().to_vec(),
            aux: aux.to_vec(),
        })
    }

    /// Reject a checkpoint taken under a different config or corpus.
    /// The confidence backend is checked *first* (it also feeds the
    /// config hash): warm-starting from a table produced by another
    /// update rule would silently blend two incompatible confidence
    /// semantics, so it gets its own specific error.
    pub fn verify(&self, config_hash: u64, data_fingerprint: u64) -> Result<(), PersistError> {
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

    /// Reject a checkpoint whose confidence table was produced by a
    /// different `--confidence` backend. Run before [`Self::verify`]
    /// so the caller gets the specific story, not the generic
    /// config-hash one.
    pub fn verify_backend(&self, backend: &str) -> Result<(), PersistError> {
        if self.backend != backend {
            return Err(PersistError::Mismatch(format!(
                "checkpoint confidence table was trained with the {:?} backend \
                 but this run selected --confidence {backend:?}; the two update \
                 rules are not interchangeable — warm-start from a checkpoint \
                 trained with the same backend",
                self.backend
            )));
        }
        Ok(())
    }

    /// Rebuild the model exactly as checkpointed: load the embedded
    /// `PGEBIN01` snapshot (CRC-verified) and install the Adam moments
    /// back into every parameter.
    pub fn restore_model(&self, graph: &ProductGraph) -> Result<PgeModel, PersistError> {
        let mut model = load_model_binary(&self.model_snapshot, graph)?;
        {
            let mut params = model.encoder.params_mut();
            params.push(model.relations.param_mut());
            if params.len() != self.moments.len() {
                return Err(PersistError::Corrupt(format!(
                    "checkpoint has {} moment records for {} parameters",
                    self.moments.len(),
                    params.len()
                )));
            }
            for (p, rec) in params.iter_mut().zip(&self.moments) {
                if rec.rows != p.value.rows() || rec.cols != p.value.cols() {
                    return Err(PersistError::Corrupt(format!(
                        "moment shape {}x{} does not match parameter {}x{}",
                        rec.rows,
                        rec.cols,
                        p.value.rows(),
                        p.value.cols()
                    )));
                }
                let (m, v) = p.adam_state_mut();
                m.as_mut_slice().copy_from_slice(&rec.m);
                v.as_mut_slice().copy_from_slice(&rec.v);
            }
        }
        Ok(model)
    }

    /// Serialize: `PGECKPT1`, CRC-32 of the payload, payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(self.model_snapshot.len() * 3 + 64);
        p.extend_from_slice(&2u32.to_le_bytes()); // version
        p.extend_from_slice(&self.config_hash.to_le_bytes());
        p.extend_from_slice(&self.data_fingerprint.to_le_bytes());
        p.extend_from_slice(&(self.backend.len() as u32).to_le_bytes());
        p.extend_from_slice(self.backend.as_bytes());
        p.extend_from_slice(&self.delta_fingerprint.to_le_bytes());
        p.extend_from_slice(&(self.windows_done as u32).to_le_bytes());
        p.extend_from_slice(&(self.epochs_done as u32).to_le_bytes());
        p.extend_from_slice(&self.step.to_le_bytes());
        p.extend_from_slice(&(self.epoch_losses.len() as u32).to_le_bytes());
        push_f32s(&mut p, &self.epoch_losses);
        p.extend_from_slice(&(self.model_snapshot.len() as u32).to_le_bytes());
        p.extend_from_slice(&self.model_snapshot);
        p.extend_from_slice(&(self.moments.len() as u32).to_le_bytes());
        for rec in &self.moments {
            p.extend_from_slice(&(rec.rows as u32).to_le_bytes());
            p.extend_from_slice(&(rec.cols as u32).to_le_bytes());
            push_f32s(&mut p, &rec.m);
            push_f32s(&mut p, &rec.v);
        }
        p.extend_from_slice(&(self.confidence.len() as u32).to_le_bytes());
        push_f32s(&mut p, &self.confidence);
        p.extend_from_slice(&(self.aux.len() as u32).to_le_bytes());
        push_f32s(&mut p, &self.aux);
        let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + 4 + p.len());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&pge_tensor::crc32(&p).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Deserialize, verifying the CRC-32 before trusting a byte.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainerState, PersistError> {
        let corrupt = |m: &str| PersistError::Corrupt(m.to_string());
        let rest = bytes
            .strip_prefix(&CHECKPOINT_MAGIC[..])
            .ok_or_else(|| corrupt("missing PGECKPT1 magic"))?;
        if rest.len() < 4 {
            return Err(corrupt("checkpoint truncated before checksum"));
        }
        let (crc_bytes, payload) = rest.split_at(4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = pge_tensor::crc32(payload);
        if stored != computed {
            return Err(PersistError::Corrupt(format!(
                "checkpoint CRC-32 mismatch (stored {stored:08x}, computed {computed:08x}) — \
                 the file is truncated or bit-flipped; restart training from scratch \
                 or restore the checkpoint from backup"
            )));
        }
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        if c.u32("version")? != 2 {
            return Err(corrupt("unsupported checkpoint version"));
        }
        let config_hash = c.u64("config hash")?;
        let data_fingerprint = c.u64("data fingerprint")?;
        let backend_len = c.u32("backend name length")? as usize;
        if backend_len > 64 {
            return Err(corrupt("implausible backend name length"));
        }
        let backend = std::str::from_utf8(c.take(backend_len, "backend name")?)
            .map_err(|_| corrupt("backend name is not UTF-8"))?
            .to_string();
        let delta_fingerprint = c.u64("delta fingerprint")?;
        let windows_done = c.u32("window counter")? as usize;
        let epochs_done = c.u32("epoch counter")? as usize;
        let step = c.u64("step counter")?;
        let n_losses = c.u32("loss count")? as usize;
        let epoch_losses = c.f32s(n_losses, "loss history")?;
        let snap_len = c.u32("snapshot length")? as usize;
        let model_snapshot = c.take(snap_len, "model snapshot")?.to_vec();
        let n_params = c.u32("parameter count")? as usize;
        let mut moments = Vec::with_capacity(n_params.min(1024));
        for _ in 0..n_params {
            let rows = c.u32("moment rows")? as usize;
            let cols = c.u32("moment cols")? as usize;
            let n = rows
                .checked_mul(cols)
                .ok_or_else(|| corrupt("moment shape overflow"))?;
            let m = c.f32s(n, "first moments")?;
            let v = c.f32s(n, "second moments")?;
            moments.push(MomentRecord { rows, cols, m, v });
        }
        let n_conf = c.u32("confidence count")? as usize;
        let confidence = c.f32s(n_conf, "confidence table")?;
        let n_aux = c.u32("aux count")? as usize;
        let aux = c.f32s(n_aux, "backend aux state")?;
        if c.pos != payload.len() {
            return Err(corrupt("trailing bytes after backend aux state"));
        }
        Ok(TrainerState {
            epochs_done,
            step,
            config_hash,
            data_fingerprint,
            backend,
            delta_fingerprint,
            windows_done,
            epoch_losses,
            model_snapshot,
            moments,
            confidence,
            aux,
        })
    }

    /// Durably replace the checkpoint in `dir` (created if missing):
    /// temp file, fsync, rename. Returns the checkpoint size in bytes.
    pub fn store(&self, dir: &Path) -> Result<u64, PersistError> {
        self.store_as(dir, CHECKPOINT_FILE)
    }

    /// [`Self::store`] under an explicit file name — the incremental
    /// trainer keeps its window checkpoints next to (not on top of)
    /// the base run's `trainer.ckpt`.
    pub fn store_as(&self, dir: &Path, file: &str) -> Result<u64, PersistError> {
        let io = |what: &str, e: std::io::Error| PersistError::Io(format!("{what}: {e}"));
        fs::create_dir_all(dir).map_err(|e| io(&format!("create {}", dir.display()), e))?;
        let bytes = self.to_bytes();
        let tmp = dir.join(format!("{file}.tmp"));
        let final_path = dir.join(file);
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &final_path)
        };
        write().map_err(|e| io(&format!("write {}", final_path.display()), e))?;
        Ok(bytes.len() as u64)
    }

    /// Load the checkpoint from `dir`. A missing file is an error —
    /// resume was requested, so silently starting over would discard
    /// the caller's intent.
    pub fn load(dir: &Path) -> Result<TrainerState, PersistError> {
        TrainerState::load_as(dir, CHECKPOINT_FILE)
    }

    /// [`Self::load`] under an explicit file name.
    pub fn load_as(dir: &Path, file: &str) -> Result<TrainerState, PersistError> {
        let path = dir.join(file);
        let bytes = fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                PersistError::Io(format!(
                    "no training checkpoint at {} — run without --resume first",
                    path.display()
                ))
            } else {
                PersistError::Io(format!("read {}: {e}", path.display()))
            }
        })?;
        TrainerState::from_bytes(&bytes)
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

    fn sample_state() -> (TrainerState, Dataset) {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            epochs: 2,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        let state = TrainerState::capture(
            &out.model,
            &out.confidence,
            2,
            7,
            config_hash(&cfg),
            data_fingerprint(&d),
            &out.epoch_losses,
            cfg.confidence.name(),
            &[],
        )
        .unwrap();
        (state, d)
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let (state, _) = sample_state();
        let bytes = state.to_bytes();
        let back = TrainerState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        // Re-serialization is byte-stable.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restore_model_reinstalls_parameters_and_moments() {
        let (state, d) = sample_state();
        let restored = state.restore_model(&d.graph).unwrap();
        let reloaded = save_model_binary(&restored).unwrap();
        assert_eq!(reloaded, state.model_snapshot);
        // Moments survived the round trip (training leaves them
        // nonzero, so an all-zero restore would be a silent bug).
        let mut clone = restored.clone();
        let mut params = clone.encoder.params_mut();
        params.push(clone.relations.param_mut());
        let some_nonzero = params.iter().any(|p| {
            let (m, _) = p.adam_state();
            m.as_slice().iter().any(|&x| x != 0.0)
        });
        assert!(some_nonzero, "restored moments are all zero");
        for (p, rec) in params.iter().zip(&state.moments) {
            let (m, v) = p.adam_state();
            assert_eq!(m.as_slice(), &rec.m[..]);
            assert_eq!(v.as_slice(), &rec.v[..]);
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let (state, _) = sample_state();
        let bytes = state.to_bytes();
        for cut in [0, 3, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TrainerState::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not load"
            );
        }
        for ix in [12, bytes.len() / 3, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[ix] ^= 0x40;
            match TrainerState::from_bytes(&bad) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains("CRC-32"), "flip at {ix}: {msg}")
                }
                other => panic!("flip at {ix}: expected CRC failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn verify_rejects_config_and_corpus_mismatches() {
        let (state, d) = sample_state();
        let cfg = PgeConfig {
            epochs: 2,
            ..PgeConfig::tiny()
        };
        state
            .verify(config_hash(&cfg), data_fingerprint(&d))
            .unwrap();
        let other_cfg = PgeConfig {
            epochs: 2,
            lr: 0.123,
            ..PgeConfig::tiny()
        };
        assert!(matches!(
            state.verify(config_hash(&other_cfg), data_fingerprint(&d)),
            Err(PersistError::Mismatch(_))
        ));
        let mut other_data = tiny_dataset();
        other_data
            .graph
            .add_fact("new brand cola", "flavor", "cola");
        assert!(matches!(
            state.verify(config_hash(&cfg), data_fingerprint(&other_data)),
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

    #[test]
    fn verify_backend_rejects_cross_backend_warm_start() {
        let (state, _) = sample_state();
        assert_eq!(state.backend, "pge");
        state.verify_backend("pge").unwrap();
        match state.verify_backend("cca") {
            Err(PersistError::Mismatch(msg)) => {
                assert!(msg.contains("pge") && msg.contains("cca"), "{msg}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn incremental_metadata_round_trips() {
        let (mut state, _) = sample_state();
        state.delta_fingerprint = 0xdead_beef_1234_5678;
        state.windows_done = 3;
        state.aux = vec![0.5, -1.25, 7.0];
        let back = TrainerState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.delta_fingerprint, 0xdead_beef_1234_5678);
        assert_eq!(back.windows_done, 3);
        assert_eq!(back.aux, vec![0.5, -1.25, 7.0]);
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
        let (state, _) = sample_state();
        let dir = std::env::temp_dir().join(format!("pge-train-ckpt-{}", std::process::id()));
        let bytes = state.store(&dir).unwrap();
        assert!(bytes > 0);
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists());
        let back = TrainerState::load(&dir).unwrap();
        assert_eq!(back, state);
        // A missing checkpoint is a clear error, not a silent restart.
        let empty =
            std::env::temp_dir().join(format!("pge-train-ckpt-none-{}", std::process::id()));
        match TrainerState::load(&empty) {
            Err(PersistError::Io(msg)) => assert!(msg.contains("no training checkpoint")),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
