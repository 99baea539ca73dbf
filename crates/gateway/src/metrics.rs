//! Gateway metrics on the shared `pge-obs` registry.
//!
//! Everything the soak and the dashboards need to see a sharded tier
//! behaving: per-replica queue depth and routing counts (skew shows
//! up as one replica's `routed_total` running hot), hot-swap events
//! and the live model version, and per-stage latency histograms
//! (queue wait → score → total) so a p99 regression can be pinned to
//! a stage.

use pge_obs::{AtomicHistogram, Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

/// Per-replica instruments. The registry has no label support, so
/// replicas register indexed metric names
/// (`pge_gateway_replica_0_routed_total`, ...).
pub struct ReplicaMetrics {
    /// Requests routed to this replica (consistent-hash pick).
    pub routed_total: Arc<Counter>,
    /// Jobs sitting in this replica's queue right now.
    pub queue_depth: Arc<Gauge>,
    /// Mirrored from the replica's current embedding-cache shard at
    /// render time (resets on hot-swap: a fresh model gets a fresh
    /// cache).
    pub cache_hits: Arc<Gauge>,
    pub cache_misses: Arc<Gauge>,
}

pub struct GatewayMetrics {
    registry: MetricsRegistry,
    /// Connections currently registered with the event loop.
    pub connections: Arc<Gauge>,
    /// Connections accepted over the gateway's lifetime.
    pub accepted_total: Arc<Counter>,
    /// Requests parsed off connections (all endpoints).
    pub requests_total: Arc<Counter>,
    /// Responses written back (should converge to requests_total).
    pub responses_total: Arc<Counter>,
    /// Scoring requests shed with 503 (replica queue full).
    pub rejected_total: Arc<Counter>,
    /// Malformed requests answered with 4xx.
    pub bad_requests_total: Arc<Counter>,
    /// Completed model hot-swaps.
    pub swaps_total: Arc<Counter>,
    /// Version of the model snapshot currently serving.
    pub model_version: Arc<Gauge>,
    /// Scoring request latency: dispatch → completion applied.
    pub latency: Arc<AtomicHistogram>,
    /// Stage: dispatch → replica worker pickup.
    pub stage_queue_wait: Arc<AtomicHistogram>,
    /// Stage: scoring one job on the replica worker.
    pub stage_score: Arc<AtomicHistogram>,
    pub replicas: Vec<ReplicaMetrics>,
}

impl GatewayMetrics {
    pub fn new(replicas: usize) -> Self {
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
        let stage_bounds = || {
            let mut v = Vec::with_capacity(16);
            let mut b = 1e-5;
            for _ in 0..16 {
                v.push(b);
                b *= 2.0;
            }
            v
        };
        let per_replica = (0..replicas)
            .map(|i| ReplicaMetrics {
                routed_total: r.counter(
                    &format!("pge_gateway_replica_{i}_routed_total"),
                    "Scoring requests routed to this replica.",
                ),
                queue_depth: r.gauge(
                    &format!("pge_gateway_replica_{i}_queue_depth"),
                    "Jobs currently queued on this replica.",
                ),
                cache_hits: r.gauge(
                    &format!("pge_gateway_replica_{i}_cache_hits"),
                    "Embedding-cache hits of the replica's current model state.",
                ),
                cache_misses: r.gauge(
                    &format!("pge_gateway_replica_{i}_cache_misses"),
                    "Embedding-cache misses of the replica's current model state.",
                ),
            })
            .collect();
        GatewayMetrics {
            connections: r.gauge(
                "pge_gateway_connections",
                "Connections registered with the event loop.",
            ),
            accepted_total: r.counter(
                "pge_gateway_accepted_total",
                "Connections accepted since start.",
            ),
            requests_total: r.counter(
                "pge_gateway_requests_total",
                "Requests parsed off connections.",
            ),
            responses_total: r.counter(
                "pge_gateway_responses_total",
                "Responses written back to connections.",
            ),
            rejected_total: r.counter(
                "pge_gateway_rejected_total",
                "Scoring requests shed with 503 because a replica queue was full.",
            ),
            bad_requests_total: r.counter(
                "pge_gateway_bad_requests_total",
                "Malformed requests answered with 4xx.",
            ),
            swaps_total: r.counter(
                "pge_gateway_swaps_total",
                "Completed zero-downtime model hot-swaps.",
            ),
            model_version: r.gauge(
                "pge_gateway_model_version",
                "Version of the snapshot currently serving (increments per swap).",
            ),
            latency: r.histogram(
                "pge_gateway_request_latency_seconds",
                "Scoring latency from dispatch to completion.",
                latency_bounds(),
            ),
            stage_queue_wait: r.histogram(
                "pge_gateway_stage_queue_wait_seconds",
                "Time a job waits in a replica queue before its worker picks it up.",
                stage_bounds(),
            ),
            stage_score: r.histogram(
                "pge_gateway_stage_score_seconds",
                "Scoring one job on a replica worker.",
                stage_bounds(),
            ),
            replicas: per_replica,
            registry: r,
        }
    }

    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Routing skew: max over replicas of routed / mean routed (1.0 =
    /// perfectly even; reported in run logs and the soak bench).
    pub fn routing_skew(&self) -> f64 {
        let counts: Vec<f64> = self
            .replicas
            .iter()
            .map(|r| r.routed_total.get() as f64)
            .collect();
        let total: f64 = counts.iter().sum();
        if total == 0.0 || counts.is_empty() {
            return 1.0;
        }
        let mean = total / counts.len() as f64;
        counts.iter().fold(0.0f64, |m, &c| m.max(c)) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_gateway_metrics() {
        let m = GatewayMetrics::new(2);
        m.requests_total.inc();
        m.replicas[0].routed_total.inc();
        m.replicas[1].queue_depth.set(3.0);
        m.latency.observe(0.002);
        let text = m.render();
        for name in [
            "pge_gateway_connections",
            "pge_gateway_accepted_total",
            "pge_gateway_requests_total",
            "pge_gateway_responses_total",
            "pge_gateway_rejected_total",
            "pge_gateway_bad_requests_total",
            "pge_gateway_swaps_total",
            "pge_gateway_model_version",
            "pge_gateway_request_latency_seconds",
            "pge_gateway_stage_queue_wait_seconds",
            "pge_gateway_stage_score_seconds",
            "pge_gateway_replica_0_routed_total",
            "pge_gateway_replica_1_queue_depth",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn routing_skew_reflects_imbalance() {
        let m = GatewayMetrics::new(2);
        assert_eq!(m.routing_skew(), 1.0, "no traffic yet");
        m.replicas[0].routed_total.add(30);
        m.replicas[1].routed_total.add(10);
        // max 30 / mean 20 = 1.5
        assert!((m.routing_skew() - 1.5).abs() < 1e-9);
    }
}
