//! `pge-serve` — the pieces of online error detection that sit below
//! the serving tier (`pge-gateway`):
//!
//! * [`http`] — HTTP/1.1 framing over byte buffers, pipelining
//!   included;
//! * [`queue`] — the bounded job queue whose overflow is shed with
//!   `503 Retry-After`;
//! * [`items`] — the `/v1/score` contract: decode a body into
//!   [`ScoreItem`]s, score them through the cached door
//!   `CachedModel::score_text_triple_scratch` ([`score_items`]), and
//!   render the answer ([`render_scores`]);
//! * [`signal`] — SIGINT/SIGTERM shutdown and SIGHUP reload flags for
//!   the CLI.
//!
//! See `DESIGN.md` ("Serving architecture") for the full picture.

pub mod http;
pub mod items;
pub mod queue;
pub mod signal;

pub use items::{render_scores, score_items, ItemScore, ScoreItem};
pub use queue::{BoundedQueue, PushError};
pub use signal::{
    install_handlers, request_reload, request_shutdown, shutdown_requested, take_reload_request,
};
