//! `pge-gateway` — an async sharded serving tier in front of the PGE
//! error-detection model.
//!
//! Where `pge-serve` is a thread-per-connection server, the gateway
//! is built for fleets of keep-alive clients: a single epoll event
//! loop (direct FFI, no runtime) multiplexes thousands of
//! connections, parses HTTP/1.1 incrementally — pipelining included —
//! and fans scoring work out to N replicas picked by consistent hash
//! of the subject title:
//!
//! * **cache affinity** — the same title always routes to the same
//!   replica, so each replica's LRU embedding-cache shard stays hot
//!   for its slice of the catalog and shards never duplicate entries;
//! * **zero-downtime hot-swap** — `POST /admin/reload` (or SIGHUP via
//!   the `pge gateway` CLI) loads a CRC-validated snapshot off the
//!   event loop and atomically swaps each replica's model + cache +
//!   threshold; in-flight batches finish on the snapshot they started
//!   with, so no request is ever dropped or failed by a swap;
//! * **graceful drain** — shutdown stops accepting, completes every
//!   admitted request, and flushes every response before exiting.
//!
//! Scoring is bit-identical to offline [`pge_core::Detector`] scores
//! at any replica count: routing only decides *where* a triple is
//! scored, and the pure text → embedding path makes *where*
//! irrelevant to the result.
//!
//! Endpoints: `POST /v1/score` (same contract as `pge-serve`),
//! `GET /healthz`, `GET /metrics`, `GET /admin/version`,
//! `POST /admin/reload`. [`client`] is the other end of the reload:
//! it pushes a snapshot to a running gateway.
//!
//! Linux-only: the event loop speaks `epoll(7)` directly.

pub mod client;
pub mod conn;
pub mod epoll;
pub mod metrics;
pub mod replica;
pub mod ring;
pub mod server;

pub use metrics::GatewayMetrics;
pub use replica::{ModelState, Replica};
pub use ring::HashRing;
pub use server::{start, GatewayConfig, GatewayHandle};
