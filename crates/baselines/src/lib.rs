//! The paper's baseline suite (§4.2, "Compared Methods").
//!
//! | Family | Methods | Module |
//! |---|---|---|
//! | Structure-based KG embedding | TransE, DistMult, ComplEx, RotatE | [`kge`] |
//! | Noise-aware KG embedding | CKRL | [`ckrl`] |
//! | NLP-based | LSTM, Transformer | [`nlp`] |
//! | Text + KG joint embedding | DKRL, SSP | [`dkrl`], [`ssp`] |
//! | Extraction-enriched | RotatE+ (OpenTag-lite → RotatE) | [`opentag`] |
//! | Ensemble | Union of Transformer and PGE | [`union`] |
//! | Encoder-cost contrast (Table 5) | PGE(BERT) | [`pge_bert`] |
//!
//! Every model implements [`pge_core::ErrorDetector`], so the bench
//! harness evaluates all of them through one code path.

pub mod ckrl;
pub mod dkrl;
pub mod kge;
pub mod nlp;
pub mod opentag;
pub mod pge_bert;
pub mod ssp;
pub mod union;

pub use ckrl::{train_ckrl, CkrlConfig, CkrlModel};
pub use dkrl::{train_dkrl, DkrlConfig, DkrlModel};
pub use kge::{train_kge, KgeConfig, KgeModel};
pub use nlp::{train_nlp, NlpArch, NlpConfig, NlpModel};
pub use opentag::{extract_attributes, train_rotate_plus, OpenTagLexicon};
pub use pge_bert::{train_pge_bert, PgeBertModel};
pub use ssp::{train_ssp, SspConfig, SspModel};
pub use union::Union;
