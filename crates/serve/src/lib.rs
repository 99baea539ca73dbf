//! `pge-serve` — an online error-detection service.
//!
//! Wraps a trained [`pge_core::PgeModel`] in a small threaded HTTP
//! server:
//!
//! * `POST /v1/score` — score a JSON array of `{title, attr, value}`
//!   triples; each answer carries the plausibility and the `is_error`
//!   verdict under the fitted threshold;
//! * `GET /healthz` — liveness;
//! * `GET /metrics` — Prometheus text: request/batch/reject counters,
//!   embedding-cache hits/misses, and a request-latency histogram.
//!
//! Requests flow through a bounded queue (overflow is shed with
//! `503 Retry-After`) into a worker pool that drains micro-batches.
//! Each worker scores every job through [`score_items`], the loop the
//! gateway's replicas share: the cached door
//! `CachedModel::score_text_triple_scratch`, with a sharded LRU
//! embedding cache in front of the text encoder. See `DESIGN.md`
//! ("Serving architecture") for the full picture.

pub mod http;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod signal;

pub use metrics::Metrics;
pub use queue::{BoundedQueue, PushError};
pub use server::{
    render_scores, score_items, start, ItemScore, ScoreItem, ServeConfig, ServerHandle,
};
pub use signal::{
    install_handlers, request_reload, request_shutdown, shutdown_requested, take_reload_request,
};
