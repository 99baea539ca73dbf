//! Service metrics on the shared `pge-obs` registry.
//!
//! Every counter/gauge/histogram is registered in a per-server
//! [`MetricsRegistry`] (servers in one process — e.g. tests — must
//! not share state) and rendered by the registry's Prometheus text
//! renderer. The pre-registry metric names are load-bearing
//! (dashboards scrape them): `/metrics` output must stay a superset
//! of them — see `legacy_names_still_exposed`.
//!
//! New in the per-stage latency breakdown (all histograms, seconds):
//!
//! * `pge_serve_stage_queue_wait_seconds` — enqueue → worker pickup;
//! * `pge_serve_stage_encode_seconds` — one encoder forward pass
//!   (observed per embedding-cache miss; hits skip the encoder);
//! * `pge_serve_stage_score_seconds` — scoring one micro-batch
//!   (includes encode time for any misses inside the batch).

use pge_core::EmbeddingCache;
use pge_obs::{AtomicHistogram, Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

pub struct Metrics {
    registry: MetricsRegistry,
    /// Accepted `POST /v1/score` requests (excludes rejects).
    pub requests_total: Arc<Counter>,
    /// Triples scored.
    pub items_total: Arc<Counter>,
    /// Micro-batches drained by workers.
    pub batches_total: Arc<Counter>,
    /// Requests shed with 503 (queue full).
    pub rejected_total: Arc<Counter>,
    /// Requests refused with 4xx (malformed).
    pub bad_requests_total: Arc<Counter>,
    /// End-to-end request latency (enqueue → reply ready), seconds.
    pub latency: Arc<AtomicHistogram>,
    /// Stage: enqueue → worker pickup, per job.
    pub stage_queue_wait: Arc<AtomicHistogram>,
    /// Stage: one encoder forward pass, per cache miss.
    pub stage_encode: Arc<AtomicHistogram>,
    /// Stage: micro-batch scoring, per batch.
    pub stage_score: Arc<AtomicHistogram>,
    // Mirrored from the EmbeddingCache's own atomics at render time.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_resident: Arc<Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        let r = MetricsRegistry::new();
        // 100µs … ~6.5s in ×2 steps.
        let latency_bounds = || {
            let mut v = Vec::with_capacity(16);
            let mut b = 1e-4;
            for _ in 0..16 {
                v.push(b);
                b *= 2.0;
            }
            v
        };
        // Stages start finer: 10µs … ~0.65s.
        let stage_bounds = || {
            let mut v = Vec::with_capacity(16);
            let mut b = 1e-5;
            for _ in 0..16 {
                v.push(b);
                b *= 2.0;
            }
            v
        };
        Metrics {
            requests_total: r.counter("pge_score_requests_total", "Accepted scoring requests."),
            items_total: r.counter("pge_score_items_total", "Triples scored."),
            batches_total: r.counter("pge_score_batches_total", "Micro-batches executed."),
            rejected_total: r.counter(
                "pge_score_rejected_total",
                "Requests shed with 503 because the queue was full.",
            ),
            bad_requests_total: r.counter(
                "pge_bad_requests_total",
                "Malformed requests refused with 4xx.",
            ),
            latency: r.histogram(
                "pge_request_latency_seconds",
                "Request latency from enqueue to scored reply.",
                latency_bounds(),
            ),
            stage_queue_wait: r.histogram(
                "pge_serve_stage_queue_wait_seconds",
                "Time a request waits in the bounded queue before a worker picks it up.",
                stage_bounds(),
            ),
            stage_encode: r.histogram(
                "pge_serve_stage_encode_seconds",
                "One text-encoder forward pass (observed on embedding-cache misses).",
                stage_bounds(),
            ),
            stage_score: r.histogram(
                "pge_serve_stage_score_seconds",
                "Scoring one micro-batch (includes encode time for misses in the batch).",
                stage_bounds(),
            ),
            cache_hits: r.counter("pge_cache_hits_total", "Embedding cache hits."),
            cache_misses: r.counter("pge_cache_misses_total", "Embedding cache misses."),
            cache_resident: r.gauge("pge_cache_resident", "Embeddings currently cached."),
            registry: r,
        }
    }
}

impl Metrics {
    /// Render the Prometheus text format (version 0.0.4), mirroring
    /// the cache's own counters into the registry first.
    pub fn render(&self, cache: &EmbeddingCache) -> String {
        self.cache_hits.set(cache.hits());
        self.cache_misses.set(cache.misses());
        self.cache_resident.set(cache.len() as f64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prometheus_text() {
        let m = Metrics::default();
        m.requests_total.inc();
        m.items_total.add(7);
        m.latency.observe(0.002);
        let cache = EmbeddingCache::new(8);
        cache.get_or_compute("x", || vec![0.0]);
        cache.get_or_compute("x", || vec![0.0]);
        let text = m.render(&cache);
        assert!(text.contains("pge_score_requests_total 1"), "{text}");
        assert!(text.contains("pge_score_items_total 7"));
        assert!(text.contains("pge_cache_hits_total 1"));
        assert!(text.contains("pge_cache_misses_total 1"));
        assert!(text.contains("pge_cache_resident 1"));
        assert!(text.contains("pge_request_latency_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        // Buckets are cumulative: every bucket after 0.002 reports 1.
        assert!(text.contains("le=\"0.0002\"} 0"));
        assert!(text.contains("le=\"0.0032\"} 1"));
    }

    /// Compat guard: the registry migration must keep `/metrics` a
    /// superset of every pre-migration metric name, with unchanged
    /// types. Removing or renaming any of these breaks scrapers.
    #[test]
    fn legacy_names_still_exposed() {
        let m = Metrics::default();
        let text = m.render(&EmbeddingCache::new(4));
        for (name, kind) in [
            ("pge_score_requests_total", "counter"),
            ("pge_score_items_total", "counter"),
            ("pge_score_batches_total", "counter"),
            ("pge_score_rejected_total", "counter"),
            ("pge_bad_requests_total", "counter"),
            ("pge_cache_hits_total", "counter"),
            ("pge_cache_misses_total", "counter"),
            ("pge_cache_resident", "gauge"),
            ("pge_request_latency_seconds", "histogram"),
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} {kind}")),
                "missing legacy metric {name} ({kind}) in:\n{text}"
            );
        }
    }

    #[test]
    fn stage_histograms_exposed() {
        let m = Metrics::default();
        m.stage_queue_wait.observe(0.001);
        m.stage_encode.observe(0.01);
        m.stage_score.observe(0.02);
        let text = m.render(&EmbeddingCache::new(4));
        for name in [
            "pge_serve_stage_queue_wait_seconds",
            "pge_serve_stage_encode_seconds",
            "pge_serve_stage_score_seconds",
        ] {
            assert!(
                text.contains(&format!("# TYPE {name} histogram")),
                "missing stage metric {name} in:\n{text}"
            );
            assert!(text.contains(&format!("{name}_count 1")), "{name} count");
        }
    }
}
