//! `pge-obs` — unified observability for the PGE stack.
//!
//! Zero-dependency building blocks shared by training, evaluation,
//! serving, and benchmarking:
//!
//! * [`registry`] — a [`MetricsRegistry`] of named counters, gauges,
//!   and histograms with a Prometheus text renderer;
//! * [`hist`] — the lock-free [`AtomicHistogram`] (moved here from
//!   `pge-eval`, which re-exports it);
//! * [`mod@span`] — hierarchical [`span`](span()) timers with near-zero
//!   cost while disabled;
//! * [`trace`] — the always-on per-request flight recorder
//!   ([`Tracer`]): a lock-free event ring plus tail-based sampling of
//!   slow/errored traces, rendered by `pge trace`;
//! * [`runlog`] — the [`RunLog`] JSONL event sink and the typed
//!   events it records (run manifest, per-epoch training telemetry
//!   with the Eq. 6 confidence-polarization diagnostic, eval results,
//!   serving snapshots, span totals);
//! * [`report`] — the `pge report` renderer over a run log;
//! * [`json`] — the shared JSON parser/serializer (the `/v1/score`
//!   wire protocol decodes and renders through it);
//! * [`manifest`] — wall-clock and git-revision stamps.
//!
//! Metric naming convention: `pge_<subsystem>_<name>{_unit}` — see
//! DESIGN.md §11 for the full schema.

pub mod hist;
pub mod json;
pub mod manifest;
pub mod registry;
pub mod report;
pub mod runlog;
pub mod span;
pub mod trace;
pub mod worker;

pub use hist::AtomicHistogram;
pub use manifest::{current_rss_bytes, git_rev, peak_rss_bytes, unix_time_ms};
pub use registry::{global, validate_exposition, Counter, Gauge, MetricsRegistry};
pub use report::{render_report, render_traces, sparkline};
pub use runlog::{
    epoch_event, eval_event, manifest_event, spans_event, stats_event, trace_event,
    ConfidenceTelemetry, EpochTelemetry, EvalTelemetry, RunLog,
};
pub use span::{
    reset_spans, set_spans_enabled, span, span_snapshot, spans_enabled, SpanGuard, SpanRecord,
};
pub use trace::{
    global_tracer, FlightRecorder, RetainedTrace, Stage, TraceEvent, TraceIdGen, Tracer,
};
pub use worker::{WorkerLedger, WorkerStats};
