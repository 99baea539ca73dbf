//! Evaluation metrics and report formatting for error detection.
//!
//! The paper evaluates with PR AUC and R@P=x, with *incorrect triples*
//! as the positive (retrieved) class. [`pr`] implements the curve
//! machinery, [`hist`] the confidence-score histograms of Fig. 5, and
//! [`report`] the fixed-width table printer used by the `repro`
//! harness. The validation-accuracy threshold of §4.2 is fitted by
//! `pge_core::Detector::fit`.

pub mod hist;
pub mod pr;
pub mod report;

pub use hist::{AtomicHistogram, Histogram};
pub use pr::{average_precision, pr_curve, recall_at_precision, Scored};
pub use report::Table;
