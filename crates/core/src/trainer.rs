//! End-to-end PGE training (§3 of the paper).
//!
//! Pipeline: build the training corpus → pre-train word2vec vectors →
//! assemble the text encoder + relation table → minibatch Adam over
//! the negative-sampling objective (Eq. 3), weighted per-triple by the
//! learnable confidence scores of the noise-aware mechanism (Eq. 6).
//!
//! # Deterministic data parallelism
//!
//! With the CNN encoder, each minibatch is split across
//! [`GRAD_LANES`] fixed *virtual lanes*: batch position `p` always
//! belongs to lane `p % GRAD_LANES`, each lane accumulates encoder and
//! relation gradients into its own buffer, and the buffers are reduced
//! in lane order before the single Adam step. Worker threads own
//! contiguous lane ranges, so the thread count decides only *who*
//! computes a lane, never which lane a triple lands in or the order of
//! the floating-point reduction — a run with `threads = 8` is
//! bit-identical to `threads = 1` at the same seed. Negative sampling
//! draws from a per-triple RNG stream (seeded from `(seed, epoch,
//! dataset index)`), which keeps the drawn corruptions independent of
//! the partition as well. The BERT-style encoder keeps the legacy
//! serial loop (its backward pass still mutates inline gradients) and
//! ignores `threads`.

use crate::checkpoint::{
    config_hash, data_fingerprint, Checkpoint, CheckpointOptions, TrainerState, CHECKPOINT_FILE,
};
use crate::confidence::{ConfidenceBackend, ConfidenceSignal, ConfidenceStore, ConfidenceUpdater};
use crate::encoder::{EncoderKind, TextEncoder};
use crate::model::PgeModel;
use crate::persist::PersistError;
use crate::score::{ScoreKind, Scorer};
use pge_graph::{Dataset, NegativeSampler, SamplingMode, Triple};
use pge_nn::conv::CnnEncCache;
use pge_nn::{
    AdamHparams, CnnConfig, Embedding, SparseRowGrads, TextCnnEncoder, TransformerConfig,
};
use pge_obs::{checkpoint_event, epoch_event, global_tracer, span, EpochTelemetry, RunLog, Stage};
use pge_tensor::ops;
use pge_text::word2vec::{train_word2vec, Word2VecConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Bins of the per-epoch confidence histogram in the run log.
const CONFIDENCE_HIST_BINS: usize = 10;

/// Number of fixed gradient lanes the data-parallel trainer splits a
/// minibatch across. Results are bit-identical for any worker count
/// from 1 to `GRAD_LANES` because the triple → lane assignment and the
/// lane reduction order depend only on this constant, never on the
/// thread count (which is capped here).
pub const GRAD_LANES: usize = 32;

/// Resolve a requested thread count: `0` means auto-detect from
/// [`std::thread::available_parallelism`]; everything is clamped to
/// `1..=GRAD_LANES`.
pub fn resolve_threads(requested: usize) -> usize {
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    n.clamp(1, GRAD_LANES)
}

/// SplitMix64 finalizer — decorrelates nearby seed inputs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the private RNG stream for one training triple in one
/// epoch. Keyed by the triple's *dataset index* (not its batch
/// position), so negative sampling is independent of both the shuffle
/// and the lane/thread partition.
pub(crate) fn triple_stream_seed(seed: u64, epoch: usize, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(epoch as u64)) ^ index as u64)
}

/// Seed of the epoch's Fisher–Yates shuffle stream. Pure in
/// `(seed, epoch)` — unlike one RNG threaded across epochs — so a
/// resumed run regenerates epoch k's permutation without replaying
/// epochs `0..k` and without serializing any RNG state. The domain
/// constant (`"SHUF"`) keeps this stream disjoint from
/// [`triple_stream_seed`]'s.
pub(crate) fn shuffle_seed(seed: u64, epoch: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0x5348_5546) ^ epoch as u64)
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
    /// Text encoder: CNN (paper's choice) or BERT-style.
    pub encoder: EncoderKind,
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
    /// `1..=GRAD_LANES`. Any value yields bit-identical results at a
    /// given seed (see the module docs); only wall-clock time changes.
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
            encoder: EncoderKind::Cnn,
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
        let base = format!("PGE({})-{}", self.encoder.name(), self.score.name());
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
pub(crate) struct Lane {
    pub(crate) grads: pge_nn::CnnGrads,
    pub(crate) rel: SparseRowGrads,
    /// Deferred confidence signals; safe to apply after the batch
    /// because each index occurs at most once per epoch, so updates to
    /// distinct indices commute (the CCA neighbor cache is applied in
    /// fixed lane order, which is also thread-count invariant).
    pub(crate) conf: Vec<ConfidenceSignal>,
    pub(crate) loss_sum: f64,
    pub(crate) loss_n: usize,
    pub(crate) negs: usize,
}

impl Lane {
    /// A full set of `GRAD_LANES` fresh lanes for `enc`.
    pub(crate) fn buffers(enc: &TextCnnEncoder, rel_dim: usize) -> Vec<Lane> {
        (0..GRAD_LANES)
            .map(|_| Lane {
                grads: enc.grad_buffer(),
                rel: SparseRowGrads::new(rel_dim),
                conf: Vec::new(),
                loss_sum: 0.0,
                loss_n: 0,
                negs: 0,
            })
            .collect()
    }
}

/// Shared read-only context of one batch — everything a worker needs,
/// behind `Sync` references.
pub(crate) struct BatchCtx<'a> {
    pub(crate) enc: &'a TextCnnEncoder,
    pub(crate) relations: &'a Embedding,
    pub(crate) scorer: Scorer,
    pub(crate) title_tokens: &'a [Vec<u32>],
    pub(crate) value_tokens: &'a [Vec<u32>],
    pub(crate) train: &'a [Triple],
    pub(crate) sampler: &'a NegativeSampler,
    pub(crate) confidence: &'a ConfidenceStore,
    pub(crate) confidence_active: bool,
    /// Capture the contrastive extras (InfoNCE win probability + the
    /// value embedding) into each confidence signal — only the CCA
    /// backend pays for this.
    pub(crate) capture_contrast: bool,
    pub(crate) k: usize,
    pub(crate) epoch: usize,
    pub(crate) seed: u64,
}

/// One worker's buffers, allocated once per run and reused by every
/// batch: an encode cache each for the title, the value and the
/// negative being scored, and the scorer's gradient vectors.
#[derive(Default)]
pub(crate) struct LaneScratch {
    title: CnnEncCache,
    value: CnnEncCache,
    neg: CnnEncCache,
    dh: Vec<f32>,
    dr: Vec<f32>,
    dv: Vec<f32>,
    f_negs: Vec<f32>,
}

/// Process this worker's lanes for one batch: lane `first_lane + j`
/// (for `lanes[j]`) owns batch positions `≡ lane (mod GRAD_LANES)`.
/// Pure accumulation — nothing here mutates shared state, so workers
/// run concurrently against the same `BatchCtx`.
pub(crate) fn run_lanes(
    ctx: &BatchCtx,
    batch: &[usize],
    lanes: &mut [Lane],
    first_lane: usize,
    scratch: &mut LaneScratch,
) {
    let ent_dim = ctx.enc.out_dim();
    let LaneScratch {
        title,
        value,
        neg,
        dh,
        dr,
        dv,
        f_negs,
    } = scratch;
    dh.resize(ent_dim, 0.0);
    dr.resize(ctx.scorer.rel_dim(ent_dim), 0.0);
    dv.resize(ent_dim, 0.0);
    for (j, lane) in lanes.iter_mut().enumerate() {
        for p in (first_lane + j..batch.len()).step_by(GRAD_LANES) {
            let i = batch[p];
            let triple = ctx.train[i];
            // Private RNG stream per (triple, epoch): negative draws
            // do not depend on which lane or thread runs this triple.
            let mut trng = StdRng::seed_from_u64(triple_stream_seed(ctx.seed, ctx.epoch, i));
            let negs = ctx.sampler.sample(&mut trng, &triple, ctx.k);
            if negs.is_empty() {
                continue;
            }
            ctx.enc
                .forward_into(&ctx.title_tokens[triple.product.0 as usize], title);
            ctx.enc
                .forward_into(&ctx.value_tokens[triple.value.0 as usize], value);
            let (e_t, e_v) = (title.embedding(), value.embedding());
            let r = ctx.relations.row(triple.attr.0 as u32);
            let f_pos = ctx.scorer.score(e_t, r, e_v);
            lane.negs += negs.len();
            // Loss bookkeeping (Eq. 3 per-triple term).
            let mut l_i = -ops::log_sigmoid(f_pos);
            let w = if ctx.confidence_active {
                ctx.confidence.get(i)
            } else {
                1.0
            };
            dh.fill(0.0);
            dr.fill(0.0);
            if w > 0.0 {
                // Positive term: dL/df⁺ = −σ(−f⁺).
                dv.fill(0.0);
                let df_pos = -w * ops::sigmoid(-f_pos);
                ctx.scorer.backward(e_t, r, e_v, df_pos, dh, dr, dv);
                ctx.enc.backward_into(value, dv, &mut lane.grads);
            }
            let inv_k = 1.0 / negs.len() as f32;
            f_negs.clear();
            for &n in &negs {
                ctx.enc.forward_into(&ctx.value_tokens[n.0 as usize], neg);
                let e_n = neg.embedding();
                let f_neg = ctx.scorer.score(e_t, r, e_n);
                l_i += -inv_k * ops::log_sigmoid(-f_neg);
                if ctx.capture_contrast {
                    f_negs.push(f_neg);
                }
                if w > 0.0 {
                    // Negative term: dL/df⁻ = σ(f⁻)/k.
                    dv.fill(0.0);
                    let df_neg = w * inv_k * ops::sigmoid(f_neg);
                    ctx.scorer.backward(e_t, r, e_n, df_neg, dh, dr, dv);
                    ctx.enc.backward_into(neg, dv, &mut lane.grads);
                }
            }
            if w > 0.0 {
                ctx.enc.backward_into(title, dh, &mut lane.grads);
                lane.rel.add_row(triple.attr.0 as usize, dr);
            }
            if ctx.confidence_active {
                let (contrast, value_emb) = if ctx.capture_contrast {
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
}

/// InfoNCE win probability of the positive score against its sampled
/// negatives: `exp(f⁺) / (exp(f⁺) + Σ exp(f⁻))`, computed with the
/// usual max-shift for stability. The contrastive evidence the CCA
/// confidence backend consumes.
pub(crate) fn info_nce(f_pos: f32, f_negs: &[f32]) -> f32 {
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
/// different config or corpus ([`TrainerState::verify`]), a
/// checkpoint-directory I/O failure, or checkpointing a BERT-encoder
/// run (the BERT variant is not persistable).
pub fn train_pge_resumable(
    dataset: &Dataset,
    cfg: &PgeConfig,
    log: Option<&RunLog>,
    ckpt: Option<&CheckpointOptions>,
) -> Result<TrainedPge, PersistError> {
    let start = Instant::now();
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    if ckpt.is_some() && cfg.encoder == EncoderKind::Bert {
        return Err(PersistError::UnsupportedEncoder);
    }
    let (cfg_hash, data_fp) = if ckpt.is_some() {
        (config_hash(cfg), data_fingerprint(dataset))
    } else {
        (0, 0)
    };
    let resumed = match ckpt {
        Some(opts) if opts.resume => {
            let ck = Checkpoint::load(&opts.dir.join(CHECKPOINT_FILE))?;
            ck.state.verify_backend(cfg.confidence.name())?;
            ck.state.verify(cfg_hash, data_fp)?;
            if let Some(log) = log {
                log.write(&checkpoint_event(&[(
                    "resumed_from",
                    ck.state.epochs_done as f64,
                )]));
            }
            Some(ck)
        }
        _ => None,
    };

    // 1. Corpus + word2vec initialization (§3.1) — or, on resume, the
    // checkpointed parameters and moments verbatim. The snapshot
    // embeds the vocabulary, so the corpus pass is skipped entirely.
    let scorer = Scorer::new(cfg.score, cfg.gamma);
    let mut model = match &resumed {
        Some(ck) => ck.restore_model(graph)?,
        None => {
            let corpus = {
                let _s = span("train.corpus");
                crate::corpus::build_corpus(graph, &dataset.train)
            };
            let encoder = match cfg.encoder {
                EncoderKind::Cnn => {
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
                    TextEncoder::cnn(
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
                    )
                }
                EncoderKind::Bert => TextEncoder::bert(
                    &mut rng,
                    TransformerConfig {
                        vocab: corpus.vocab.len(),
                        // The BERT-style encoder's width doubles as the
                        // entity dimension ([CLS] state is the
                        // representation).
                        dim: cfg.dim.max(16),
                        heads: 4,
                        layers: 4,
                        ffn_dim: cfg.dim.max(16) * 4,
                        max_len: cfg.max_len.max(8),
                    },
                ),
            };
            let ent_dim = encoder.out_dim();
            // The paper: "we use randomly initialized learnable vectors
            // to represent relations". See
            // `PgeConfig::rotate_phase_init` for the RotatE-specific
            // choice between Xavier and ±π phases.
            let relations = if cfg.score == ScoreKind::RotatE && cfg.rotate_phase_init {
                Embedding::new_phases(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(ent_dim))
            } else {
                Embedding::new_xavier(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(ent_dim))
            };
            PgeModel::new(corpus.vocab, encoder, relations, scorer, graph)
        }
    };
    let ent_dim = model.encoder.out_dim();

    // 2. Negative sampler + confidence store + backend updater.
    let sampler = NegativeSampler::new(graph, cfg.sampling);
    let mut confidence =
        ConfidenceStore::new(dataset.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    let mut updater: Box<dyn ConfidenceUpdater> =
        cfg.confidence.make_updater(graph.num_attrs(), ent_dim);
    let resumed = resumed.map(|ck| ck.state);
    if let Some(state) = &resumed {
        confidence
            .restore_scores(&state.confidence)
            .map_err(PersistError::Mismatch)?;
        updater
            .restore_aux(&state.aux)
            .map_err(PersistError::Mismatch)?;
    }

    // 3. Minibatch Adam over Eq. (3)/(6).
    let hp = AdamHparams::with_lr(cfg.lr);
    let k = cfg.negatives.max(1);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    let mut step: u64 = resumed.as_ref().map_or(0, |s| s.step);
    let start_epoch = resumed.as_ref().map_or(0, |s| s.epochs_done);
    let mut epoch_losses = resumed.as_ref().map_or_else(
        || Vec::with_capacity(cfg.epochs),
        |s| s.epoch_losses.clone(),
    );
    let mut telemetry = Vec::with_capacity(cfg.epochs);
    let is_cnn = matches!(model.encoder, TextEncoder::Cnn(_));
    let workers = if is_cnn {
        resolve_threads(cfg.threads)
    } else {
        1
    };
    // Lane buffers (CNN path only), allocated once and reused.
    let mut lanes: Vec<Lane> = if is_cnn {
        let TextEncoder::Cnn(enc) = &model.encoder else {
            unreachable!()
        };
        Lane::buffers(enc, model.scorer.rel_dim(ent_dim))
    } else {
        Vec::new()
    };
    let mut worker_busy = vec![0.0f64; workers];
    let mut scratch: Vec<LaneScratch> = (0..workers).map(|_| LaneScratch::default()).collect();
    // Legacy serial scratch (BERT path).
    let mut dh = vec![0.0f32; ent_dim];
    let mut dr = vec![0.0f32; model.scorer.rel_dim(ent_dim)];
    let mut dv = vec![0.0f32; ent_dim];
    // Each epoch is one trace in the process-wide flight recorder:
    // its shuffle / batch / checkpoint phases become stage events, so
    // a stalled epoch shows up in `pge trace` with the slow phase
    // attributed.
    let tracer = global_tracer();
    for epoch in start_epoch..cfg.epochs {
        let _epoch_span = span("train.epoch");
        let epoch_start = Instant::now();
        let trace = tracer.begin();
        tracer.record(trace, Stage::EpochStart, epoch as u64);
        worker_busy.iter_mut().for_each(|b| *b = 0.0);
        // Fisher–Yates shuffle over a fresh identity permutation, from
        // a per-`(seed, epoch)` stream: epoch k's visit order is the
        // same whether the run started at epoch 0 or resumed from a
        // checkpoint, and no RNG state survives the epoch.
        tracer.record(trace, Stage::EpochShuffle, order.len() as u64);
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = i;
        }
        let mut shuffle_rng = StdRng::seed_from_u64(shuffle_seed(cfg.seed, epoch));
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle_rng.gen_range(0..=i));
        }
        let confidence_active = cfg.noise_aware && epoch >= cfg.confidence_warmup;
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0usize;
        let mut negs_drawn = 0usize;
        tracer.record(
            trace,
            Stage::EpochBatches,
            order.chunks(cfg.batch.max(1)).len() as u64,
        );
        for batch in order.chunks(cfg.batch.max(1)) {
            step += 1;
            if is_cnn {
                // Fan out: workers accumulate into their lanes against
                // a shared read-only model.
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
                        confidence_active,
                        capture_contrast: confidence_active && updater.wants_contrast(),
                        k,
                        epoch,
                        seed: cfg.seed,
                    };
                    let per_worker = GRAD_LANES.div_ceil(workers);
                    if workers == 1 {
                        let t0 = Instant::now();
                        run_lanes(&ctx, batch, &mut lanes, 0, &mut scratch[0]);
                        worker_busy[0] += t0.elapsed().as_secs_f64();
                    } else {
                        std::thread::scope(|s| {
                            let handles: Vec<_> = lanes
                                .chunks_mut(per_worker)
                                .zip(&mut scratch)
                                .enumerate()
                                .map(|(w, (chunk, scratch))| {
                                    let ctx = &ctx;
                                    s.spawn(move || {
                                        let t0 = Instant::now();
                                        run_lanes(ctx, batch, chunk, w * per_worker, scratch);
                                        (w, t0.elapsed().as_secs_f64())
                                    })
                                })
                                .collect();
                            for h in handles {
                                let (w, busy) = h.join().expect("training worker panicked");
                                worker_busy[w] += busy;
                            }
                        });
                    }
                }
                // Reduce in fixed lane order — independent of the
                // thread count — then take the single Adam step.
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
                    negs_drawn += lane.negs;
                    lane.loss_sum = 0.0;
                    lane.loss_n = 0;
                    lane.negs = 0;
                }
            } else {
                // Legacy serial path: the BERT backward pass still
                // mutates inline parameter gradients.
                for &i in batch {
                    let triple = dataset.train[i];
                    let title_tokens = &model.title_tokens[triple.product.0 as usize];
                    let value_tokens = &model.value_tokens[triple.value.0 as usize];
                    let (e_t, cache_t) = model.encoder.forward(title_tokens);
                    let (e_v, cache_v) = model.encoder.forward(value_tokens);
                    let r = model.relations.row(triple.attr.0 as u32).to_vec();
                    let f_pos = model.scorer.score(&e_t, &r, &e_v);

                    let negs = sampler.sample(&mut rng, &triple, k);
                    if negs.is_empty() {
                        continue;
                    }
                    negs_drawn += negs.len();
                    let capture_contrast = confidence_active && updater.wants_contrast();
                    let mut f_negs: Vec<f32> = Vec::new();
                    // Loss bookkeeping (Eq. 3 per-triple term).
                    let mut l_i = -ops::log_sigmoid(f_pos);
                    let w = if confidence_active {
                        confidence.get(i)
                    } else {
                        1.0
                    };

                    dh.iter_mut().for_each(|x| *x = 0.0);
                    dr.iter_mut().for_each(|x| *x = 0.0);
                    if w > 0.0 {
                        // Positive term: dL/df⁺ = −σ(−f⁺).
                        dv.iter_mut().for_each(|x| *x = 0.0);
                        let df_pos = -w * ops::sigmoid(-f_pos);
                        model
                            .scorer
                            .backward(&e_t, &r, &e_v, df_pos, &mut dh, &mut dr, &mut dv);
                        model.encoder.backward(&cache_v, &dv);
                    }
                    let inv_k = 1.0 / negs.len() as f32;
                    for &neg in &negs {
                        let neg_tokens = &model.value_tokens[neg.0 as usize];
                        let (e_n, cache_n) = model.encoder.forward(neg_tokens);
                        let f_neg = model.scorer.score(&e_t, &r, &e_n);
                        l_i += -inv_k * ops::log_sigmoid(-f_neg);
                        if capture_contrast {
                            f_negs.push(f_neg);
                        }
                        if w > 0.0 {
                            // Negative term: dL/df⁻ = σ(f⁻)/k.
                            dv.iter_mut().for_each(|x| *x = 0.0);
                            let df_neg = w * inv_k * ops::sigmoid(f_neg);
                            model
                                .scorer
                                .backward(&e_t, &r, &e_n, df_neg, &mut dh, &mut dr, &mut dv);
                            model.encoder.backward(&cache_n, &dv);
                        }
                    }
                    if w > 0.0 {
                        model.encoder.backward(&cache_t, &dh);
                        model.relations.accumulate_grad(triple.attr.0 as u32, &dr);
                    }
                    if confidence_active {
                        let (contrast, value_emb) = if capture_contrast {
                            (info_nce(f_pos, &f_negs), e_v.clone())
                        } else {
                            (0.0, Vec::new())
                        };
                        updater.apply(
                            &mut confidence,
                            ConfidenceSignal {
                                index: i,
                                triple_loss: l_i,
                                contrast,
                                attr: triple.attr.0,
                                value_emb,
                            },
                        );
                    }
                    loss_sum += l_i as f64;
                    loss_n += 1;
                }
            }
            model.encoder.adam_step(&hp, step);
            model.relations.adam_step(&hp, step);
        }
        epoch_losses.push(if loss_n == 0 {
            0.0
        } else {
            (loss_sum / loss_n as f64) as f32
        });
        let secs = epoch_start.elapsed().as_secs_f64();
        let t = EpochTelemetry {
            epoch,
            mean_loss: *epoch_losses.last().unwrap(),
            triples: loss_n,
            negatives: negs_drawn,
            secs,
            triples_per_sec: if secs > 0.0 {
                loss_n as f64 / secs
            } else {
                0.0
            },
            threads: workers,
            worker_utilization: if is_cnn && secs > 0.0 {
                worker_busy.iter().map(|b| b / secs).collect()
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

        if let Some(opts) = ckpt {
            let write_start = Instant::now();
            tracer.record(trace, Stage::EpochCheckpoint, (epoch + 1) as u64);
            let bytes = {
                let _s = span("train.checkpoint");
                let state = TrainerState {
                    epochs_done: epoch + 1,
                    step,
                    config_hash: cfg_hash,
                    data_fingerprint: data_fp,
                    backend: cfg.confidence.name().to_string(),
                    delta_fingerprint: 0,
                    windows_done: 0,
                    epoch_losses: epoch_losses.clone(),
                    confidence: confidence.scores().to_vec(),
                    aux: updater.aux_state(),
                };
                state.store(&model, &opts.dir.join(CHECKPOINT_FILE))?
            };
            if let Some(log) = log {
                log.write(&checkpoint_event(&[
                    ("epoch", (epoch + 1) as f64),
                    ("bytes", bytes as f64),
                    ("write_secs", write_start.elapsed().as_secs_f64()),
                ]));
            }
            // Simulated kill for resume tests and CI: the checkpoint
            // is on disk, the process "dies" here.
            if opts.stop_after == Some(epoch + 1) {
                tracer.finish(trace, epoch_start.elapsed(), false);
                break;
            }
        }
        tracer.finish(trace, epoch_start.elapsed(), false);
    }

    Ok(TrainedPge {
        model,
        confidence,
        train_secs: start.elapsed().as_secs_f64(),
        epoch_losses,
        telemetry,
    })
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

    #[test]
    fn thread_count_does_not_change_results() {
        // The tentpole guarantee: the fixed-lane partition and
        // fixed-order reduction make results *bit-identical* for any
        // worker count at the same seed.
        let d = tiny_dataset();
        let score_all = |out: &TrainedPge| -> Vec<f32> {
            d.test
                .iter()
                .map(|lt| out.model.plausibility(&d.graph, &lt.triple))
                .collect()
        };
        let base = train_pge(
            &d,
            &PgeConfig {
                threads: 1,
                ..PgeConfig::tiny()
            },
        );
        for threads in [2, 8] {
            let out = train_pge(
                &d,
                &PgeConfig {
                    threads,
                    ..PgeConfig::tiny()
                },
            );
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
        let out = train_pge(&d, &cfg);
        for t in &out.telemetry {
            assert_eq!(t.threads, 2);
            assert_eq!(t.worker_utilization.len(), 2);
            assert!(t.worker_utilization.iter().all(|&u| u >= 0.0));
        }
    }

    #[test]
    fn resolve_threads_clamps_to_lane_count() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(GRAD_LANES + 50), GRAD_LANES);
        assert!(resolve_threads(0) >= 1, "auto-detect must give >= 1");
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
        let base = train_pge(&d, &cfg(1));
        // Scores moved off the all-ones init and stayed in range.
        assert!(base.confidence.scores().iter().any(|&c| c < 1.0));
        assert!(base
            .confidence
            .scores()
            .iter()
            .all(|&c| (0.0..=1.0).contains(&c)));
        // The CCA rule is applied in lane order → thread invariant.
        for threads in [2, 8] {
            let out = train_pge(&d, &cfg(threads));
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
    fn bert_encoder_variant_trains() {
        let d = tiny_dataset();
        let cfg = PgeConfig {
            encoder: EncoderKind::Bert,
            epochs: 2,
            dim: 16,
            ..PgeConfig::tiny()
        };
        let out = train_pge(&d, &cfg);
        let f = out.model.plausibility(&d.graph, &d.test[0].triple);
        assert!(f.is_finite());
        assert_eq!(out.model.encoder().kind(), EncoderKind::Bert);
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
