//! Benchmark harness regenerating every table and figure of the PGE
//! paper's evaluation (§4).
//!
//! * [`scale`] — one knob rescaling both datasets and training
//!   budgets; the defaults are laptop-sized, the paper's shapes hold.
//! * [`methods`] — the method zoo: constructors for every row of
//!   Tables 3/4 behind one interface.
//! * [`experiments`] — one function per table/figure, each returning a
//!   rendered report plus structured numbers.
//!
//! The `repro` binary dispatches to these.

pub mod ablations;
pub mod experiments;
pub mod methods;
pub mod scale;

pub use ablations::ablations;
pub use experiments::*;
pub use methods::{pge_config, train_method, Method, TrainedMethod};
pub use scale::Scale;
