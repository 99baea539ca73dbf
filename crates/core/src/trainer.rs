//! End-to-end PGE training (§3 of the paper).
//!
//! Pipeline: build the training corpus → pre-train word2vec vectors →
//! assemble the text encoder + relation table → minibatch Adam over
//! the negative-sampling objective (Eq. 3), weighted per-triple by the
//! learnable confidence scores of the noise-aware mechanism (Eq. 6).
//!
//! # Deterministic data parallelism
//!
//! Every minibatch, here and in the incremental trainer, is one
//! `step`. It splits the batch across [`GRAD_LANES`] fixed *virtual
//! lanes*: batch position `p` always belongs to lane `p % GRAD_LANES`,
//! each lane accumulates encoder and relation gradients into its own
//! buffer, and the buffers are reduced in lane order before the single
//! Adam step. A step is two jobs on the run's worker pool: workers
//! claim lanes from a shared counter until none is left, then each
//! folds and Adam-steps a disjoint share of the parameters, adding the
//! lanes to every element in lane order. The thread count therefore
//! decides only *who* computes a lane or an element, never which lane
//! a triple lands in or the order of the floating-point reduction — a
//! run with `threads = 8` is bit-identical to `threads = 1` at the
//! same seed. Negative sampling draws from a per-triple RNG stream
//! (seeded from `(seed, epoch, dataset index)`), which keeps the drawn
//! corruptions independent of the partition as well.

use crate::checkpoint::{
    config_hash, data_fingerprint, Checkpoint, CheckpointOptions, TrainerState, CHECKPOINT_FILE,
};
use crate::confidence::{ConfidenceBackend, ConfidenceSignal, ConfidenceStore, ConfidenceUpdater};
use crate::corpus::{build_corpus, TokenizedGraph};
use crate::encoder::TextEncoder;
use crate::incremental::OnWindow;
use crate::model::PgeModel;
use crate::persist::{save_model_store, PersistError};
use crate::pool::Pool;
use crate::score::{ScoreKind, Scorer};
use parking_lot::Mutex;
use pge_graph::{apply_window, Dataset, DeltaWindow, NegativeSampler, SamplingMode, Triple};
use pge_nn::conv::CnnEncCache;
use pge_nn::{AdamHparams, CnnConfig, CnnGrads, Embedding, SparseRowGrads};
use pge_obs::{
    epoch_event, global_tracer, span, splitmix64, stats_event, EpochTelemetry, RunLog, Stage,
};
use pge_tensor::ops;
use pge_text::word2vec::{train_word2vec, Word2VecConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bins of the per-epoch confidence histogram in the run log.
const CONFIDENCE_HIST_BINS: usize = 10;

/// Number of fixed gradient lanes the data-parallel trainer splits a
/// minibatch across. Results are bit-identical for any worker count
/// from 1 to `GRAD_LANES` because the triple → lane assignment and the
/// lane reduction order depend only on this constant, never on the
/// thread count (which is capped here).
pub const GRAD_LANES: usize = 32;

/// Resolve a requested thread count into the workers a run uses:
/// `0` means one per cpu ([`std::thread::available_parallelism`]);
/// everything is clamped to `1..=GRAD_LANES` and to the cpu count,
/// since no bit depends on the count and workers past the cpu count
/// only wait on each other.
pub fn resolve_threads(requested: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if requested == 0 {
        cpus
    } else {
        requested.min(cpus)
    };
    n.clamp(1, GRAD_LANES)
}

/// Seed of the private RNG stream for one training triple in one
/// epoch. Keyed by the triple's *dataset index* (not its batch
/// position), so negative sampling is independent of both the shuffle
/// and the lane/thread partition.
pub(crate) fn triple_stream_seed(seed: u64, epoch: usize, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(epoch as u64)) ^ index as u64)
}

/// Write `items` into `order` in epoch `epoch`'s visit order: a
/// Fisher–Yates shuffle from a stream pure in `(seed, epoch)` — unlike
/// one RNG threaded across epochs — so a resumed run regenerates epoch
/// k's order without replaying epochs `0..k` and without serializing
/// any RNG state. The domain constant (`"SHUF"`) keeps this stream
/// disjoint from `triple_stream_seed`'s. Every PGE trainer visits
/// its triples in this order, PGE(BERT) in `pge-baselines` included.
pub fn shuffle_into(
    order: &mut [usize],
    items: impl IntoIterator<Item = usize>,
    seed: u64,
    epoch: usize,
) {
    for (slot, item) in order.iter_mut().zip(items) {
        *slot = item;
    }
    let stream = splitmix64(splitmix64(seed ^ 0x5348_5546) ^ epoch as u64);
    let mut rng = StdRng::seed_from_u64(stream);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
}

/// All the knobs of a PGE training run.
#[derive(Clone, Debug)]
pub struct PgeConfig {
    /// Entity-embedding dimension (even; complex scorers halve it).
    pub dim: usize,
    /// Word-embedding dimension for the CNN encoder.
    pub word_dim: usize,
    /// CNN filter widths (paper sweeps {1,2,3,4} across three CNNs).
    pub widths: Vec<usize>,
    /// Feature maps per filter width.
    pub filters_per_width: usize,
    /// Max tokens per text.
    pub max_len: usize,
    /// Scoring function (paper evaluates TransE and RotatE).
    pub score: ScoreKind,
    /// Margin γ for the distance scorers.
    pub gamma: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size (one Adam step per batch).
    pub batch: usize,
    /// Negative samples per positive (|N(t,a,v)| in Eq. 3).
    pub negatives: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Negative-sampling mode.
    pub sampling: SamplingMode,
    /// Enable the noise-aware mechanism (§3.3).
    pub noise_aware: bool,
    /// Sparsity price α of Eq. (4).
    pub alpha: f32,
    /// Polarization strength β of Eq. (6).
    pub beta: f32,
    /// SGD step for confidence updates.
    pub confidence_lr: f32,
    /// Epochs before confidence updates begin (the embeddings must
    /// carry signal before triple losses mean anything).
    pub confidence_warmup: usize,
    /// Which confidence-update rule to use (`--confidence {pge,cca}`).
    /// `Pge` is the paper's Eq. (6) SGD step, bit-identical to the
    /// historical hard-coded path; `Cca` adapts confidence via
    /// contrastive similarity against cached neighbor embeddings.
    pub confidence: ConfidenceBackend,
    /// word2vec pre-training epochs (0 disables pre-training).
    pub word2vec_epochs: usize,
    /// Initialize RotatE relation phases uniform in ±π (the RotatE
    /// paper's own scheme) instead of Xavier. Diverse initial
    /// rotations help on relation-rich KGs (many relations must
    /// differentiate), while near-identity rotations win on catalogs
    /// with a handful of attributes — tune per dataset like the
    /// paper's grid search does.
    pub rotate_phase_init: bool,
    /// Worker threads for data-parallel training: `0` = auto-detect
    /// (`available_parallelism`), otherwise clamped to
    /// `1..=GRAD_LANES` and to the cpu count. Any value yields
    /// bit-identical results at a given seed (see the module docs);
    /// only wall-clock time changes.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PgeConfig {
    fn default() -> Self {
        PgeConfig {
            dim: 32,
            word_dim: 32,
            widths: vec![1, 2, 3],
            filters_per_width: 16,
            max_len: 20,
            score: ScoreKind::RotatE,
            gamma: 6.0,
            epochs: 12,
            batch: 128,
            negatives: 4,
            lr: 3e-3,
            sampling: SamplingMode::GlobalUniform,
            noise_aware: true,
            alpha: 1.2,
            beta: 0.05,
            confidence_lr: 0.03,
            confidence_warmup: 3,
            confidence: ConfidenceBackend::Pge,
            word2vec_epochs: 2,
            rotate_phase_init: false,
            threads: 0,
            seed: 13,
        }
    }
}

impl PgeConfig {
    /// Small/fast config for tests.
    pub fn tiny() -> Self {
        PgeConfig {
            dim: 16,
            word_dim: 16,
            widths: vec![1, 2],
            filters_per_width: 8,
            max_len: 14,
            epochs: 6,
            batch: 64,
            negatives: 3,
            word2vec_epochs: 1,
            ..Default::default()
        }
    }

    /// Label like `PGE(CNN)-RotatE` used in the paper's tables.
    pub fn label(&self) -> String {
        let base = format!("PGE(CNN)-{}", self.score.name());
        if self.noise_aware {
            base
        } else {
            format!("{base} w/o noise-aware")
        }
    }
}

/// The output of a training run.
pub struct TrainedPge {
    pub model: PgeModel,
    /// Final per-training-triple confidence scores (Fig. 5 material).
    pub confidence: ConfidenceStore,
    /// Wall-clock training time in seconds (Table 5 material).
    pub train_secs: f64,
    /// Mean triple loss per epoch (diagnostics; must trend down).
    pub epoch_losses: Vec<f32>,
    /// Full per-epoch telemetry (superset of `epoch_losses`): loss,
    /// throughput, negative-sampling stats, and — on noise-aware runs
    /// — the confidence distribution with its polarization fraction.
    pub telemetry: Vec<EpochTelemetry>,
}

/// Accumulation state of one gradient lane: detached encoder and
/// relation gradients plus the scalar per-lane bookkeeping. Allocated
/// once and reused across every batch of the run.
struct Lane {
    grads: CnnGrads,
    rel: SparseRowGrads,
    /// Deferred confidence signals; safe to apply after the batch
    /// because each index occurs at most once per epoch, so updates to
    /// distinct indices commute (the CCA neighbor cache is applied in
    /// fixed lane order, which is also thread-count invariant).
    conf: Vec<ConfidenceSignal>,
    loss_sum: f64,
    loss_n: usize,
    negs: usize,
}

/// One worker's buffers, allocated once per run and reused by every
/// batch: an encode cache each for the title, the value and the
/// negative being scored, the scorer's gradient vectors, and the
/// worker's compute seconds since the last [`Workers::take_totals`].
#[derive(Default)]
struct LaneScratch {
    title: CnnEncCache,
    value: CnnEncCache,
    neg: CnnEncCache,
    dh: Vec<f32>,
    dr: Vec<f32>,
    dv: Vec<f32>,
    f_negs: Vec<f32>,
    busy: f64,
}

/// Loss, negative-sample and busy-time totals of the steps since the
/// last [`Workers::take_totals`].
#[derive(Default)]
pub(crate) struct Totals {
    pub(crate) loss_sum: f64,
    pub(crate) loss_n: usize,
    pub(crate) negs: usize,
    /// Compute seconds per worker.
    pub(crate) busy: Vec<f64>,
}

impl Totals {
    /// Mean triple loss (0 when no triple trained).
    pub(crate) fn mean_loss(&self) -> f32 {
        if self.loss_n == 0 {
            0.0
        } else {
            (self.loss_sum / self.loss_n as f64) as f32
        }
    }
}

/// What [`step`] reuses across a whole run: the [`GRAD_LANES`]
/// gradient lanes, one scratch per worker, the running totals, and the
/// worker pool. The pool's threads live as long as this value, and
/// dropping it joins them.
pub(crate) struct Workers {
    lanes: Vec<Mutex<Lane>>,
    scratch: Vec<Mutex<LaneScratch>>,
    totals: Totals,
    pool: Pool,
}

impl Workers {
    /// Buffers and threads for training `model` on
    /// [`resolve_threads`]`(threads)` workers, the calling thread
    /// included.
    pub(crate) fn new(model: &PgeModel, threads: usize) -> Workers {
        Workers::exactly(model, resolve_threads(threads))
    }

    /// [`Workers::new`] on exactly `workers` workers, however many cpus
    /// there are.
    pub(crate) fn exactly(model: &PgeModel, workers: usize) -> Workers {
        let rel_dim = model.scorer.rel_dim(model.dim());
        Workers {
            lanes: (0..GRAD_LANES)
                .map(|_| {
                    Mutex::new(Lane {
                        grads: model.encoder.grad_buffer(),
                        rel: SparseRowGrads::new(rel_dim),
                        conf: Vec::new(),
                        loss_sum: 0.0,
                        loss_n: 0,
                        negs: 0,
                    })
                })
                .collect(),
            scratch: (0..workers).map(|_| Mutex::default()).collect(),
            totals: Totals::default(),
            pool: Pool::new(workers),
        }
    }

    /// Workers per step, the calling thread included.
    pub(crate) fn count(&self) -> usize {
        self.pool.workers()
    }

    /// The totals so far; the next step counts from zero.
    pub(crate) fn take_totals(&mut self) -> Totals {
        let busy = self
            .scratch
            .iter_mut()
            .map(|s| std::mem::take(&mut s.get_mut().busy))
            .collect();
        Totals {
            busy,
            ..std::mem::take(&mut self.totals)
        }
    }
}

/// What every step of one epoch reads and none updates.
pub(crate) struct EpochCtx<'a> {
    pub(crate) train: &'a [Triple],
    /// Token ids of every title and value `train` refers to.
    pub(crate) tokens: &'a TokenizedGraph,
    pub(crate) sampler: &'a NegativeSampler,
    pub(crate) hp: AdamHparams,
    /// Weight triples by their confidence and emit confidence signals.
    pub(crate) confidence_active: bool,
    /// Negatives per positive.
    pub(crate) k: usize,
    /// Epoch id keying every sampling stream.
    pub(crate) id: usize,
    pub(crate) seed: u64,
}

/// Shared read-only context of one batch — everything a worker needs,
/// behind `Sync` references.
struct BatchCtx<'a> {
    model: &'a PgeModel,
    confidence: &'a ConfidenceStore,
    /// Capture the contrastive extras (InfoNCE win probability + the
    /// value embedding) into each confidence signal — only the CCA
    /// backend pays for this.
    capture_contrast: bool,
    epoch: &'a EpochCtx<'a>,
}

/// Accumulate lane `l` of one batch — batch positions `≡ l (mod
/// GRAD_LANES)` — into `lane`, after clearing what the previous batch
/// left there. Nothing here mutates shared state, so workers run lanes
/// concurrently against the same `BatchCtx`.
fn run_lane(ctx: &BatchCtx, batch: &[usize], lane: &mut Lane, l: usize, scratch: &mut LaneScratch) {
    let BatchCtx {
        model,
        confidence,
        capture_contrast,
        epoch,
    } = *ctx;
    let (enc, scorer) = (&model.encoder, model.scorer);
    let ent_dim = model.dim();
    let LaneScratch {
        title,
        value,
        neg,
        dh,
        dr,
        dv,
        f_negs,
        ..
    } = scratch;
    dh.resize(ent_dim, 0.0);
    dr.resize(scorer.rel_dim(ent_dim), 0.0);
    dv.resize(ent_dim, 0.0);
    lane.grads.clear();
    lane.rel.clear();
    for p in (l..batch.len()).step_by(GRAD_LANES) {
        let i = batch[p];
        let triple = epoch.train[i];
        // Private RNG stream per (triple, epoch): negative draws do
        // not depend on which lane or thread runs this triple.
        let mut trng = StdRng::seed_from_u64(triple_stream_seed(epoch.seed, epoch.id, i));
        let negs = epoch.sampler.sample(&mut trng, &triple, epoch.k);
        if negs.is_empty() {
            continue;
        }
        enc.forward_into(&epoch.tokens.titles[triple.product.0 as usize], title);
        enc.forward_into(&epoch.tokens.values[triple.value.0 as usize], value);
        let (e_t, e_v) = (title.embedding(), value.embedding());
        let r = model.relations.row(triple.attr.0 as u32);
        let f_pos = scorer.score(e_t, r, e_v);
        lane.negs += negs.len();
        // Loss bookkeeping (Eq. 3 per-triple term).
        let mut l_i = -ops::log_sigmoid(f_pos);
        let w = if epoch.confidence_active {
            confidence.get(i)
        } else {
            1.0
        };
        dh.fill(0.0);
        dr.fill(0.0);
        if w > 0.0 {
            // Positive term: dL/df⁺ = −σ(−f⁺).
            dv.fill(0.0);
            let df_pos = -w * ops::sigmoid(-f_pos);
            scorer.backward(e_t, r, e_v, df_pos, dh, dr, dv);
            enc.backward_into(value, dv, &mut lane.grads);
        }
        let inv_k = 1.0 / negs.len() as f32;
        f_negs.clear();
        for &n in &negs {
            enc.forward_into(&epoch.tokens.values[n.0 as usize], neg);
            let e_n = neg.embedding();
            let f_neg = scorer.score(e_t, r, e_n);
            l_i += -inv_k * ops::log_sigmoid(-f_neg);
            if capture_contrast {
                f_negs.push(f_neg);
            }
            if w > 0.0 {
                // Negative term: dL/df⁻ = σ(f⁻)/k.
                dv.fill(0.0);
                let df_neg = w * inv_k * ops::sigmoid(f_neg);
                scorer.backward(e_t, r, e_n, df_neg, dh, dr, dv);
                enc.backward_into(neg, dv, &mut lane.grads);
            }
        }
        if w > 0.0 {
            enc.backward_into(title, dh, &mut lane.grads);
            lane.rel.add_row(triple.attr.0 as usize, dr);
        }
        if epoch.confidence_active {
            let (contrast, value_emb) = if capture_contrast {
                (info_nce(f_pos, f_negs), e_v.to_vec())
            } else {
                (0.0, Vec::new())
            };
            lane.conf.push(ConfidenceSignal {
                index: i,
                triple_loss: l_i,
                contrast,
                attr: triple.attr.0,
                value_emb,
            });
        }
        lane.loss_sum += l_i as f64;
        lane.loss_n += 1;
    }
}

/// One minibatch of Eq. (3)/(6), as two jobs on the worker pool.
/// First the workers claim lanes from a shared counter and run
/// [`run_lane`] against the read-only model. Then the calling thread
/// applies the confidence signals and adds the loss totals in lane
/// order, and every worker folds the lanes into its disjoint share of
/// the encoder and relation parameters and takes Adam step `t` on it;
/// each element adds lanes 0..[`GRAD_LANES`] in order, so no bit
/// depends on the thread count. Each worker's busy seconds add to
/// `workers`' totals.
pub(crate) fn step(
    model: &mut PgeModel,
    confidence: &mut ConfidenceStore,
    updater: &mut dyn ConfidenceUpdater,
    epoch: &EpochCtx,
    batch: &[usize],
    t: u64,
    workers: &mut Workers,
) {
    let Workers {
        lanes,
        scratch,
        totals,
        pool,
    } = workers;
    let ctx = BatchCtx {
        model,
        confidence,
        capture_contrast: epoch.confidence_active && updater.wants_contrast(),
        epoch,
    };
    let next = AtomicUsize::new(0);
    pool.run(&|w| {
        let t0 = Instant::now();
        let mut scratch = scratch[w].lock();
        loop {
            let l = next.fetch_add(1, Ordering::Relaxed);
            if l >= GRAD_LANES {
                break;
            }
            run_lane(&ctx, batch, &mut lanes[l].lock(), l, &mut scratch);
        }
        scratch.busy += t0.elapsed().as_secs_f64();
    });

    let t0 = Instant::now();
    for lane in lanes.iter_mut().map(Mutex::get_mut) {
        for sig in lane.conf.drain(..) {
            updater.apply(confidence, sig);
        }
        totals.loss_sum += lane.loss_sum;
        totals.loss_n += lane.loss_n;
        totals.negs += lane.negs;
        lane.loss_sum = 0.0;
        lane.loss_n = 0;
        lane.negs = 0;
    }
    let lanes: Vec<&Lane> = lanes.iter_mut().map(|l| &*l.get_mut()).collect();
    let grads: Vec<&CnnGrads> = lanes.iter().map(|l| &l.grads).collect();
    let PgeModel {
        encoder, relations, ..
    } = model;
    let parts = pool.workers();
    let shares: Vec<_> = encoder
        .split_step(&grads, parts)
        .into_iter()
        .zip(relations.split_step(lanes.iter().map(|l| &l.rel), parts))
        .map(Mutex::new)
        .collect();
    scratch[0].get_mut().busy += t0.elapsed().as_secs_f64();
    pool.run(&|w| {
        let t0 = Instant::now();
        let (enc, rel) = &mut *shares[w].lock();
        enc.fold_adam_step(&grads, &epoch.hp, t);
        rel.fold_adam_step(lanes.iter().map(|l| &l.rel), &epoch.hp, t);
        scratch[w].lock().busy += t0.elapsed().as_secs_f64();
    });
}

/// InfoNCE win probability of the positive score against its sampled
/// negatives: `exp(f⁺) / (exp(f⁺) + Σ exp(f⁻))`, computed with the
/// usual max-shift for stability. The contrastive evidence the CCA
/// confidence backend consumes.
fn info_nce(f_pos: f32, f_negs: &[f32]) -> f32 {
    let m = f_negs.iter().copied().fold(f_pos, f32::max);
    let pos = (f_pos - m).exp();
    let denom: f32 = pos + f_negs.iter().map(|&f| (f - m).exp()).sum::<f32>();
    pos / denom.max(1e-12)
}

/// Train PGE on a dataset's training split.
pub fn train_pge(dataset: &Dataset, cfg: &PgeConfig) -> TrainedPge {
    train_pge_with_log(dataset, cfg, None)
}

/// [`train_pge`], streaming each epoch's telemetry into `log` as it
/// completes (so a killed run keeps every finished epoch).
pub fn train_pge_with_log(dataset: &Dataset, cfg: &PgeConfig, log: Option<&RunLog>) -> TrainedPge {
    train_pge_resumable(dataset, cfg, log, None)
        .expect("training without checkpointing cannot hit a persistence error")
}

/// [`train_pge_with_log`] with crash-safe epoch-boundary checkpoints.
///
/// With `ckpt = Some(opts)`, the full trainer state — model
/// parameters, Adam moments, the global step, the confidence table,
/// and the loss history — is written atomically to
/// `opts.dir/trainer.ckpt` after every epoch, and `opts.resume`
/// continues from the directory's checkpoint instead of initializing
/// from scratch. Because every random stream is a pure function of
/// `(seed, epoch, index)` (negative sampling) or `(seed, epoch)` (the
/// shuffle), a resumed run is **bit-identical** to an uninterrupted
/// one at any `--threads`.
///
/// Errors: a missing/corrupt/tampered checkpoint, a checkpoint from a
/// different config or corpus ([`TrainerState::verify`]), or a
/// checkpoint-directory I/O failure.
pub fn train_pge_resumable(
    dataset: &Dataset,
    cfg: &PgeConfig,
    log: Option<&RunLog>,
    ckpt: Option<&CheckpointOptions>,
) -> Result<TrainedPge, PersistError> {
    train_on(dataset, cfg, log, ckpt, Workers::new)
}

/// [`train_pge_resumable`] on the pool `workers(model, cfg.threads)`
/// builds: one phase per epoch over every row.
pub(crate) fn train_on(
    dataset: &Dataset,
    cfg: &PgeConfig,
    log: Option<&RunLog>,
    ckpt: Option<&CheckpointOptions>,
    workers: fn(&PgeModel, usize) -> Workers,
) -> Result<TrainedPge, PersistError> {
    let started = Instant::now();
    let file = ckpt.map(|opts| opts.dir.join(CHECKPOINT_FILE));
    let fingerprints = ckpt.map_or((0, 0), |_| (config_hash(cfg), data_fingerprint(dataset)));
    // A resume restores the parameters and moments verbatim; the
    // snapshot embeds the vocabulary, so the corpus pass is skipped.
    let (model, resumed) = match (ckpt, &file) {
        (Some(opts), Some(file)) if opts.resume => {
            let (model, state) = load_checkpoint(file, cfg, fingerprints, log)?;
            (model, Some(state))
        }
        _ => (init_model(dataset, cfg), None),
    };
    let first = resumed.as_ref().map_or(0, |s| s.epochs_done);
    let phases = (first..cfg.epochs).map(|epoch| Phase {
        n: epoch,
        window: None,
        epochs: epoch..epoch + 1,
        confidence_active: cfg.noise_aware && epoch >= cfg.confidence_warmup,
        checkpoint: file.clone(),
        snapshot: None,
    });
    let start = Start {
        live: vec![true; dataset.train.len()],
        dataset: Cow::Borrowed(dataset),
        workers: workers(&model, cfg.threads),
        model,
        resumed,
        fingerprints,
        started,
    };
    let stop_after = ckpt.and_then(|opts| opts.stop_after);
    let (trained, ..) = run_phases(start, phases, cfg, log, stop_after, &mut |_, _| Ok(None))?;
    Ok(trained)
}

/// A fresh model (§3.1): the corpus, word2vec-initialised word
/// vectors, the CNN encoder and the relation table.
fn init_model(dataset: &Dataset, cfg: &PgeConfig) -> PgeModel {
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let corpus = {
        let _s = span("train.corpus");
        build_corpus(graph, &dataset.train)
    };
    let vectors = if cfg.word2vec_epochs > 0 {
        let _s = span("train.word2vec");
        train_word2vec(
            &corpus.vocab,
            &corpus.sentences,
            &Word2VecConfig {
                dim: cfg.word_dim,
                epochs: cfg.word2vec_epochs,
                seed: cfg.seed ^ 0x5eed,
                ..Default::default()
            },
        )
    } else {
        pge_tensor::init::embedding(&mut rng, corpus.vocab.len(), cfg.word_dim)
    };
    let encoder = TextEncoder::cnn(
        &mut rng,
        CnnConfig {
            vocab: corpus.vocab.len(),
            word_dim: cfg.word_dim,
            widths: cfg.widths.clone(),
            filters_per_width: cfg.filters_per_width,
            out_dim: cfg.dim,
            max_len: cfg.max_len,
        },
        Embedding::from_matrix(vectors),
    );
    let scorer = Scorer::new(cfg.score, cfg.gamma);
    let ent_dim = encoder.out_dim();
    // The paper: "we use randomly initialized learnable vectors to
    // represent relations". See `PgeConfig::rotate_phase_init` for the
    // RotatE-specific choice between Xavier and ±π phases.
    let relations = if cfg.score == ScoreKind::RotatE && cfg.rotate_phase_init {
        Embedding::new_phases(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(ent_dim))
    } else {
        Embedding::new_xavier(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(ent_dim))
    };
    PgeModel::new(
        corpus.vocab,
        encoder,
        relations,
        scorer,
        graph.attr_names().to_vec(),
    )
}

/// The model and trainer state of the checkpoint at `file`, once
/// [`TrainerState::verify`] accepts them for this config and corpus.
/// A resume logs where it continues from.
pub(crate) fn load_checkpoint(
    file: &Path,
    cfg: &PgeConfig,
    (cfg_hash, data_fp): (u64, u64),
    log: Option<&RunLog>,
) -> Result<(PgeModel, TrainerState), PersistError> {
    let ck = Checkpoint::load(file)?;
    ck.state.verify(cfg.confidence.name(), cfg_hash, data_fp)?;
    if let Some(log) = log {
        let from = ck.state.epochs_done as f64;
        log.write(&stats_event("checkpoint", &[("resumed_from", from)]));
    }
    Ok((ck.restore_model()?, ck.state))
}

/// One phase of a run: apply `window`, if any, train over the
/// `epochs` ids and record one loss, then write the snapshot and the
/// checkpoint.
pub(crate) struct Phase<'w> {
    /// The epoch of full training or the window of an ingest: the
    /// checkpoint records `n + 1` of them done, and `stop_after`
    /// counts them.
    pub(crate) n: usize,
    /// A delta window and the stream fingerprint through it. The phase
    /// trains the window's adds still live at its end, or every row
    /// when it has no window.
    pub(crate) window: Option<(&'w DeltaWindow, u64)>,
    pub(crate) epochs: Range<usize>,
    /// Weight triples by their confidence and update it (Eq. 6).
    pub(crate) confidence_active: bool,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) snapshot: Option<PathBuf>,
}

/// What a run of phases starts from: the dataset with every ingested
/// window applied and its live mask, the model and its worker pool,
/// the checkpointed state it continues, the config hash and data
/// fingerprint its checkpoints record, and when the run began.
pub(crate) struct Start<'d> {
    pub(crate) dataset: Cow<'d, Dataset>,
    pub(crate) live: Vec<bool>,
    pub(crate) model: PgeModel,
    pub(crate) workers: Workers,
    pub(crate) resumed: Option<TrainerState>,
    pub(crate) fingerprints: (u64, u64),
    pub(crate) started: Instant,
}

/// The one training driver. It runs `phases` in order, one [`step`]
/// per minibatch, and returns the trained model with this process's
/// telemetry, the dataset and its live mask. Each phase is one
/// flight-recorder trace and logs an `epoch` event; its snapshot goes
/// to `on_snapshot` once the checkpoint is down, and the generation
/// that returns is its `ingest` event's `push_version`. The run ends
/// after `stop_after` phases, a simulated kill.
pub(crate) fn run_phases<'d, 'w>(
    start: Start<'d>,
    phases: impl Iterator<Item = Phase<'w>>,
    cfg: &PgeConfig,
    log: Option<&RunLog>,
    stop_after: Option<usize>,
    on_snapshot: &mut OnWindow,
) -> Result<(TrainedPge, Cow<'d, Dataset>, Vec<bool>), PersistError> {
    let Start {
        mut dataset,
        mut live,
        mut model,
        mut workers,
        resumed,
        fingerprints: (config_hash, data_fingerprint),
        started,
    } = start;
    let mut tokens = TokenizedGraph::new(&model.vocab, &dataset.graph);
    let mut sampler = NegativeSampler::new(&dataset.graph, cfg.sampling);
    let mut confidence =
        ConfidenceStore::new(dataset.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    let mut updater = cfg
        .confidence
        .make_updater(dataset.graph.num_attrs(), model.dim());
    let mut state = match resumed {
        Some(state) => {
            confidence
                .restore_scores(&state.confidence)
                .map_err(PersistError::Mismatch)?;
            updater
                .restore_aux(&state.aux)
                .map_err(PersistError::Mismatch)?;
            state
        }
        None => TrainerState {
            config_hash,
            data_fingerprint,
            backend: cfg.confidence.name().to_string(),
            ..TrainerState::default()
        },
    };
    let batch = cfg.batch.max(1);
    let (mut order, mut telemetry) = (Vec::new(), Vec::new());
    let tracer = global_tracer();
    for phase in phases {
        let _phase_span = span("train.epoch");
        let phase_start = Instant::now();
        let trace = tracer.begin();
        tracer.record(trace, Stage::EpochStart, phase.epochs.start as u64);
        let applied = phase.window.map(|(window, _)| {
            let applied = apply_window(dataset.to_mut(), &mut live, window);
            tokens.extend(&model.vocab, &dataset.graph);
            while confidence.len() < dataset.train.len() {
                confidence.push_default();
            }
            for &i in &applied.retracted {
                confidence.set(i, 0.0);
            }
            // Fresh values must be drawable as corruptions.
            sampler = NegativeSampler::new(&dataset.graph, cfg.sampling);
            applied
        });
        // A window trains its adds still live at its end; a phase
        // without one trains every row, shuffled from `0..`: a row
        // list built per phase raised the `train` workload's peak RSS
        // by ~2 MiB.
        let touched: Option<Vec<usize>> = applied
            .as_ref()
            .map(|a| a.added.iter().copied().filter(|&i| live[i]).collect());
        order.resize(touched.as_ref().map_or(dataset.train.len(), Vec::len), 0);
        for epoch in phase.epochs.clone() {
            tracer.record(trace, Stage::EpochShuffle, order.len() as u64);
            match &touched {
                Some(rows) => shuffle_into(&mut order, rows.iter().copied(), cfg.seed, epoch),
                None => shuffle_into(&mut order, 0.., cfg.seed, epoch),
            }
            let ctx = EpochCtx {
                train: &dataset.train,
                tokens: &tokens,
                sampler: &sampler,
                hp: AdamHparams::with_lr(cfg.lr),
                confidence_active: phase.confidence_active,
                k: cfg.negatives.max(1),
                id: epoch,
                seed: cfg.seed,
            };
            tracer.record(trace, Stage::EpochBatches, order.chunks(batch).len() as u64);
            for batch in order.chunks(batch) {
                state.step += 1;
                step(
                    &mut model,
                    &mut confidence,
                    updater.as_mut(),
                    &ctx,
                    batch,
                    state.step,
                    &mut workers,
                );
            }
        }
        let totals = workers.take_totals();
        let mean_loss = totals.mean_loss();
        state.epoch_losses.push(mean_loss);
        let secs = phase_start.elapsed().as_secs_f64();
        let t = EpochTelemetry {
            epoch: phase.epochs.start,
            mean_loss,
            triples: totals.loss_n,
            negatives: totals.negs,
            secs,
            triples_per_sec: if secs > 0.0 {
                totals.loss_n as f64 / secs
            } else {
                0.0
            },
            threads: workers.count(),
            worker_utilization: if secs > 0.0 {
                totals.busy.iter().map(|b| b / secs).collect()
            } else {
                Vec::new()
            },
            confidence: cfg
                .noise_aware
                .then(|| confidence.telemetry(CONFIDENCE_HIST_BINS)),
        };
        if let Some(log) = log {
            log.write(&epoch_event(&t));
        }
        telemetry.push(t);

        // Snapshot first, checkpoint second: a kill between the two
        // redoes the phase on resume (bit-identical by determinism)
        // and rewrites the identical snapshot.
        if let Some(path) = &phase.snapshot {
            let dir = path.parent().unwrap_or(Path::new("."));
            std::fs::create_dir_all(dir)
                .map_err(|e| PersistError::Io(format!("create {}: {e}", dir.display())))?;
            save_model_store(&model, path)?;
        }
        match phase.window {
            Some((_, fingerprint)) => {
                state.windows_done = phase.n + 1;
                state.delta_fingerprint = fingerprint;
            }
            None => state.epochs_done = phase.n + 1,
        }
        let mut written = None;
        if let Some(file) = &phase.checkpoint {
            let write_start = Instant::now();
            tracer.record(trace, Stage::EpochCheckpoint, (phase.n + 1) as u64);
            let _s = span("train.checkpoint");
            state.confidence = confidence.scores().to_vec();
            state.aux = updater.aux_state();
            let bytes = state.store(&model, file)? as f64;
            let write_secs = write_start.elapsed().as_secs_f64();
            written = Some([
                ("epoch", (phase.n + 1) as f64),
                ("bytes", bytes),
                ("write_secs", write_secs),
            ]);
        }
        let push_version = match &phase.snapshot {
            Some(path) => on_snapshot(phase.n, path)?.map_or(-1.0, |v| v as f64),
            None => -1.0,
        };
        // A window reports in its `ingest` event, an epoch in its
        // `checkpoint` event.
        match (log, &applied, written) {
            (Some(log), Some(applied), _) => log.write(&stats_event(
                "ingest",
                &[
                    ("window", phase.n as f64),
                    ("added", applied.added.len() as f64),
                    ("retracted", applied.retracted.len() as f64),
                    ("missed_retractions", applied.missed_retractions as f64),
                    ("train_len", dataset.train.len() as f64),
                    ("mean_loss", mean_loss as f64),
                    ("secs", phase_start.elapsed().as_secs_f64()),
                    ("push_version", push_version),
                ],
            )),
            (Some(log), None, Some(written)) => log.write(&stats_event("checkpoint", &written)),
            _ => {}
        }
        tracer.finish(trace, phase_start.elapsed(), false);
        if stop_after == Some(phase.n + 1) {
            break;
        }
    }
    let trained = TrainedPge {
        model,
        confidence,
        train_secs: started.elapsed().as_secs_f64(),
        epoch_losses: state.epoch_losses,
        telemetry,
    };
    Ok((trained, dataset, live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorDetector;
    use pge_graph::{Dataset, LabeledTriple, ProductGraph, Triple};

    /// Tiny two-cluster catalog: spicy products have pepper
    /// ingredients, sweet products have sugar ingredients.
    fn tiny_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..30 {
            let (flavor, ing, word) = if i % 2 == 0 {
                ("spicy", "cayenne pepper", "hot")
            } else {
                ("sweet", "cane sugar", "honey")
            };
            let title = format!("brand{i} {word} {flavor} snack chips {i}");
            train.push(g.add_fact(&title, "flavor", flavor));
            train.push(g.add_fact(&title, "ingredient", ing));
        }
        // Labeled: held-out products with correct and swapped flavors.
        let mut valid = Vec::new();
        let mut test = Vec::new();
        for i in 0..10 {
            let (flavor, wrong, ing, word) = if i % 2 == 0 {
                ("spicy", "sweet", "cayenne pepper", "hot")
            } else {
                ("sweet", "spicy", "cane sugar", "honey")
            };
            let title = format!("testbrand{i} {word} {flavor} snack chips");
            let pid = g.intern_product(&title);
            let fattr = g.intern_attr("flavor");
            let iattr = g.intern_attr("ingredient");
            let good = Triple::new(pid, fattr, g.intern_value(flavor));
            let bad = Triple::new(pid, fattr, g.intern_value(wrong));
            let ing_t = Triple::new(pid, iattr, g.intern_value(ing));
            g.add_triple(ing_t);
            train.push(ing_t);
            let (lt_good, lt_bad) = (
                LabeledTriple {
                    triple: good,
                    correct: true,
                },
                LabeledTriple {
                    triple: bad,
                    correct: false,
                },
            );
            if i < 4 {
                valid.push(lt_good);
                valid.push(lt_bad);
            } else {
                test.push(lt_good);
                test.push(lt_bad);
            }
        }
        Dataset::new(g, train, valid, test)
    }

    #[test]
    fn loss_decreases_over_training() {
        let d = tiny_dataset();
        let out = train_pge(&d, &PgeConfig::tiny());
        let first = out.epoch_losses.first().copied().unwrap();
        let last = out.epoch_losses.last().copied().unwrap();
        assert!(
            last < first * 0.9,
            "loss did not decrease: {:?}",
            out.epoch_losses
        );
    }

    #[test]
    fn learns_to_separate_correct_from_swapped() {
        let d = tiny_dataset();
        // Per-attribute negatives make "the other flavor" a frequent
        // corruption, which this tiny dataset needs to separate the
        // two flavors per-title within few epochs; the bumped learning
        // rate gets the margin clear of noise in that budget.
        let cfg = PgeConfig {
            epochs: 30,
            lr: 1e-2,
            sampling: SamplingMode::PerAttribute,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        let mut good = 0.0;
        let mut bad = 0.0;
        for lt in &d.test {
            let f = out.model.plausibility(&d.graph, &lt.triple);
            if lt.correct {
                good += f;
            } else {
                bad += f;
            }
        }
        let n = (d.test.len() / 2) as f32;
        assert!(
            good / n > bad / n,
            "mean f(correct)={} should exceed mean f(wrong)={}",
            good / n,
            bad / n
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let d = tiny_dataset();
        let a = train_pge(&d, &PgeConfig::tiny());
        let b = train_pge(&d, &PgeConfig::tiny());
        let t = d.test[0].triple;
        assert_eq!(
            a.model.plausibility(&d.graph, &t),
            b.model.plausibility(&d.graph, &t)
        );
    }

    /// [`train_pge`] on exactly `cfg.threads` workers, however many
    /// cpus the host has.
    fn train_exactly(d: &Dataset, cfg: &PgeConfig) -> TrainedPge {
        train_on(d, cfg, None, None, Workers::exactly).unwrap()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The fixed-lane partition and fixed-order reduction make
        // results *bit-identical* for any worker count at the same
        // seed: 3 workers split lanes and shares unevenly, and 32 is
        // one lane per worker.
        let d = tiny_dataset();
        let score_all = |out: &TrainedPge| -> Vec<f32> {
            d.test
                .iter()
                .map(|lt| out.model.plausibility(&d.graph, &lt.triple))
                .collect()
        };
        let cfg = |threads| PgeConfig {
            threads,
            ..PgeConfig::tiny()
        };
        let base = train_exactly(&d, &cfg(1));
        for threads in [2, 3, 8, GRAD_LANES] {
            let out = train_exactly(&d, &cfg(threads));
            assert_eq!(score_all(&base), score_all(&out), "threads={threads}");
            assert_eq!(
                base.epoch_losses, out.epoch_losses,
                "losses diverged at threads={threads}"
            );
            assert_eq!(
                base.confidence.scores(),
                out.confidence.scores(),
                "confidences diverged at threads={threads}"
            );
        }
    }

    /// Epoch-loss bit patterns and parameter hash of `PgeConfig::tiny()`
    /// on `tiny_dataset()`, recorded before the encoder was made
    /// allocation-free and tiled. An encoder or kernel change that
    /// moves one bit of training output fails here.
    const GOLDEN_LOSSES: [u32; 6] = [
        1081727284, 1079818558, 1078221859, 1076782821, 1075369997, 1074066375,
    ];
    const GOLDEN_PARAM_HASH: u64 = 0x3098_928a_7ab8_a067;

    #[test]
    fn training_bits_are_pinned_under_both_kernels() {
        use pge_nn::gradcheck::HasParams;
        use pge_tensor::{set_kernel, Kernel};
        let d = tiny_dataset();
        for kernel in [Kernel::Scalar, Kernel::Simd] {
            set_kernel(Some(kernel));
            let mut out = train_pge(&d, &PgeConfig::tiny());
            set_kernel(None);
            let losses: Vec<u32> = out.epoch_losses.iter().map(|l| l.to_bits()).collect();
            let mut h = crate::checkpoint::FNV_OFFSET;
            let model = &mut out.model;
            for p in model.encoder.params_mut() {
                for x in p.value.as_slice() {
                    h = crate::checkpoint::fnv1a(h, &x.to_bits().to_le_bytes());
                }
            }
            for x in model.relations.table().as_slice() {
                h = crate::checkpoint::fnv1a(h, &x.to_bits().to_le_bytes());
            }
            eprintln!("{kernel:?}: losses {losses:?} hash {h:#018x}");
            assert_eq!(losses, GOLDEN_LOSSES, "epoch losses moved under {kernel:?}");
            assert_eq!(h, GOLDEN_PARAM_HASH, "parameters moved under {kernel:?}");
        }
    }

    #[test]
    fn telemetry_reports_threads_and_worker_utilization() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            threads: 2,
            ..PgeConfig::tiny()
        };
        let out = train_exactly(&d, &cfg);
        for t in &out.telemetry {
            assert_eq!(t.threads, 2);
            assert_eq!(t.worker_utilization.len(), 2);
            assert!(t.worker_utilization.iter().all(|&u| u >= 0.0));
        }
    }

    #[test]
    fn resolve_threads_clamps_to_lane_count() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(GRAD_LANES + 50), GRAD_LANES.min(cpus));
        assert_eq!(resolve_threads(0), GRAD_LANES.min(cpus));
    }

    #[test]
    fn transe_variant_trains_too() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            score: ScoreKind::TransE,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert!(out.epoch_losses.last().unwrap() < out.epoch_losses.first().unwrap());
    }

    #[test]
    fn noise_aware_flags_injected_noise() {
        let mut d = tiny_dataset();
        // Corrupt 20% of training triples.
        let mut rng = StdRng::seed_from_u64(99);
        let (noisy, clean) = pge_graph::inject_noise(&d.graph, &d.train, 0.2, &mut rng);
        d.train = noisy;
        d.train_clean = clean;
        let cfg = PgeConfig {
            epochs: 14,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        // Mean confidence of clean triples should exceed noisy ones.
        let (mut c_clean, mut n_clean, mut c_noisy, mut n_noisy) = (0.0, 0, 0.0, 0);
        for (i, &is_clean) in d.train_clean.iter().enumerate() {
            if is_clean {
                c_clean += out.confidence.get(i);
                n_clean += 1;
            } else {
                c_noisy += out.confidence.get(i);
                n_noisy += 1;
            }
        }
        let mean_clean = c_clean / n_clean as f32;
        let mean_noisy = c_noisy / n_noisy as f32;
        assert!(
            mean_clean > mean_noisy,
            "clean {mean_clean} vs noisy {mean_noisy}"
        );
    }

    #[test]
    fn telemetry_tracks_confidence_polarization() {
        let mut d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(99);
        let (noisy, clean) = pge_graph::inject_noise(&d.graph, &d.train, 0.2, &mut rng);
        d.train = noisy;
        d.train_clean = clean;
        // A stronger β than the defaults so re-polarization completes
        // within the test's epoch budget (the dynamic, not the speed,
        // is what's under test).
        let cfg = PgeConfig {
            epochs: 20,
            beta: 0.3,
            confidence_lr: 0.1,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert_eq!(out.telemetry.len(), cfg.epochs);
        for (i, t) in out.telemetry.iter().enumerate() {
            assert_eq!(t.epoch, i);
            assert_eq!(t.mean_loss, out.epoch_losses[i]);
            assert!(t.triples > 0 && t.negatives >= t.triples);
            let conf = t.confidence.as_ref().expect("noise-aware run");
            assert_eq!(conf.hist.iter().sum::<u64>() as usize, d.train.len());
        }
        // During warmup every C sits at its 1.0 init → fully polarized.
        let frac = |e: usize| out.telemetry[e].confidence.as_ref().unwrap().polarized_frac;
        for e in 0..cfg.confidence_warmup {
            assert_eq!(frac(e), 1.0, "epoch {e} is pre-activation");
        }
        // Activation moves scores off the pole; by the end the β term
        // has re-polarized most of them (the Eq. 6 dynamic).
        let post: Vec<f32> = (cfg.confidence_warmup..cfg.epochs).map(frac).collect();
        let dip = post.iter().copied().fold(f32::INFINITY, f32::min);
        let last = *post.last().unwrap();
        assert!(dip < 1.0, "confidence never left the pole: {post:?}");
        assert!(
            last > dip && last > 0.5,
            "polarization did not recover: dip {dip}, last {last}, trend {post:?}"
        );
    }

    #[test]
    fn telemetry_confidence_absent_without_noise_aware() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            noise_aware: false,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert_eq!(out.telemetry.len(), cfg.epochs);
        assert!(out.telemetry.iter().all(|t| t.confidence.is_none()));
    }

    #[test]
    fn train_with_log_streams_epoch_events() {
        use pge_obs::json::parse;
        use std::io;
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Buf {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let d = tiny_dataset();
        let buf = Buf::default();
        let log = RunLog::to_writer(buf.clone());
        let cfg = PgeConfig::tiny();
        let out = train_pge_with_log(&d, &cfg, Some(&log));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), cfg.epochs);
        for (i, line) in lines.iter().enumerate() {
            let e = parse(line).unwrap();
            assert_eq!(e.get("event").unwrap().as_str(), Some("epoch"));
            assert_eq!(e.get("epoch").unwrap().as_f64(), Some(i as f64));
            assert_eq!(
                e.get("mean_loss").unwrap().as_f64(),
                Some(out.epoch_losses[i] as f64)
            );
        }
    }

    #[test]
    fn without_noise_aware_confidences_stay_one() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            noise_aware: false,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert!(out.confidence.scores().iter().all(|&c| c == 1.0));
    }

    #[test]
    fn cca_backend_trains_and_is_thread_invariant() {
        let mut d = tiny_dataset();
        let mut rng = StdRng::seed_from_u64(99);
        let (noisy, clean) = pge_graph::inject_noise(&d.graph, &d.train, 0.2, &mut rng);
        d.train = noisy;
        d.train_clean = clean;
        let cfg = |threads| PgeConfig {
            confidence: ConfidenceBackend::Cca,
            threads,
            ..PgeConfig::tiny()
        };
        let base = train_exactly(&d, &cfg(1));
        // Scores moved off the all-ones init and stayed in range.
        assert!(base.confidence.scores().iter().any(|&c| c < 1.0));
        assert!(base
            .confidence
            .scores()
            .iter()
            .all(|&c| (0.0..=1.0).contains(&c)));
        // The CCA rule is applied in lane order → thread invariant.
        for threads in [2, 8] {
            let out = train_exactly(&d, &cfg(threads));
            assert_eq!(
                base.confidence.scores(),
                out.confidence.scores(),
                "cca confidences diverged at threads={threads}"
            );
            assert_eq!(base.epoch_losses, out.epoch_losses);
        }
        // And it is a genuinely different rule from Eq. 6.
        let pge = train_pge(&d, &PgeConfig::tiny());
        assert_ne!(pge.confidence.scores(), base.confidence.scores());
    }

    #[test]
    fn config_labels() {
        assert_eq!(PgeConfig::default().label(), "PGE(CNN)-RotatE");
        let t = PgeConfig {
            score: ScoreKind::TransE,
            noise_aware: false,
            ..Default::default()
        };
        assert_eq!(t.label(), "PGE(CNN)-TransE w/o noise-aware");
    }

    #[test]
    fn records_train_time() {
        let d = tiny_dataset();
        let out = train_pge(&d, &PgeConfig::tiny());
        assert!(out.train_secs > 0.0);
    }

    #[test]
    fn all_score_kinds_train() {
        let d = tiny_dataset();
        for score in [
            ScoreKind::TransE,
            ScoreKind::RotatE,
            ScoreKind::DistMult,
            ScoreKind::ComplEx,
        ] {
            let cfg = PgeConfig {
                score,
                epochs: 2,
                ..PgeConfig::tiny()
            };
            let out = train_pge(&d, &cfg);
            assert!(
                out.model
                    .plausibility(&d.graph, &d.test[0].triple)
                    .is_finite(),
                "{score:?}"
            );
        }
    }

    #[test]
    fn empty_training_set_does_not_panic() {
        let mut d = tiny_dataset();
        d.train.clear();
        d.train_clean.clear();
        let out = train_pge(&d, &PgeConfig::tiny());
        assert_eq!(out.confidence.len(), 0);
        // Scores remain finite: untrained encoder on unk-only vocab.
        assert!(out
            .model
            .plausibility(&d.graph, &d.test[0].triple)
            .is_finite());
    }

    #[test]
    fn per_attribute_sampling_config_works() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            sampling: SamplingMode::PerAttribute,
            epochs: 2,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert!(out.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn word2vec_disabled_still_trains() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            word2vec_epochs: 0,
            epochs: 3,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        assert!(out.epoch_losses.last().unwrap() < out.epoch_losses.first().unwrap());
    }
}
