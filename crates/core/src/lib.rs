//! PGE: robust product-graph embedding learning for error detection.
//!
//! This crate implements the paper's contribution end to end:
//!
//! * [`score`] — KG-embedding scoring functions `f_a(t, v)` (TransE,
//!   RotatE, DistMult, ComplEx) with analytic gradients;
//! * [`encoder`] — the text encoder, the CNN of the paper's Fig. 4
//!   (PGE(BERT), Table 5's cost contrast, is a `pge-baselines` method);
//! * [`model`] — [`model::PgeModel`]: text-based entity
//!   representations projected into the triple structure, plus
//!   learnable relation embeddings (Fig. 3);
//! * [`confidence`] — the noise-aware mechanism of §3.3: a learnable
//!   confidence score per training triple with the relaxed
//!   polarization objective of Eq. (6);
//! * [`trainer`] — the end-to-end training loop: word2vec
//!   initialization, negative sampling (Eq. 3), noise-aware weighting
//!   (Eq. 6), Adam;
//! * [`detector`] — scoring, validation-threshold classification
//!   (§4.2), and error ranking, with multi-threaded inference;
//! * [`api`] — the [`api::ErrorDetector`] trait every method
//!   (PGE and all baselines) implements, so the evaluation harness
//!   treats them uniformly.

pub mod api;
pub mod cache;
pub mod checkpoint;
pub mod confidence;
pub mod corpus;
pub mod detector;
pub mod encoder;
pub mod incremental;
pub mod model;
pub mod persist;
mod pool;
pub mod score;
pub mod trainer;

pub use api::ErrorDetector;
pub use cache::{CachedModel, EmbeddingCache, ScoreScratch};
pub use checkpoint::{
    config_hash, data_fingerprint, Checkpoint, CheckpointOptions, TrainerState, CHECKPOINT_FILE,
};
pub use confidence::{ConfidenceBackend, ConfidenceSignal, ConfidenceStore, ConfidenceUpdater};
pub use detector::Detector;
pub use encoder::TextEncoder;
pub use incremental::{
    train_incremental, train_incremental_with, IncrementalConfig, IncrementalOutcome, OnWindow,
    INCREMENTAL_CHECKPOINT_FILE,
};
pub use model::PgeModel;
pub use persist::{
    load_model_auto_path, model_from_snapshot, save_model_store, write_model_sections, PersistError,
};
pub use score::{PreparedRelation, ScoreKind, Scorer};
pub use trainer::{
    resolve_threads, train_pge, train_pge_resumable, train_pge_with_log, PgeConfig, TrainedPge,
    GRAD_LANES,
};
