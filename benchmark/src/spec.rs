//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo
//! root is this table written out; a unit test fails when the two
//! drift apart.

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 42;
/// Reserved for confirming a claimed gain on inputs that were not
/// used while the change was written; never tune against it.
pub const CONFIRM_SEED: u64 = 7;
/// Length of one run's measured phase, as `BENCHMARK.json` records it.
pub const RUN_SECONDS: u64 = 24;

/// `pr_auc` of the `train` workload at full scale on the two reserved
/// seeds, as first recorded. A change that moves quality on purpose
/// updates these in a benchmark-only change.
const PR_AUC_RECORDED: &[(u64, f64)] = &[(DEFAULT_SEED, 0.8756), (CONFIRM_SEED, 0.9027)];
/// Every other seed: the 50 seeds tried in sizing read 0.8455-0.9420.
const PR_AUC_FLOOR: f64 = 0.80;

/// The lowest `pr_auc` a full-scale `train` run on `seed` may read:
/// the recorded value less the metric's absolute bound on a reserved
/// seed, the sizing floor elsewhere.
pub fn pr_auc_floor(seed: u64) -> f64 {
    let Some(Bound::Abs(bound)) = metric("pr_auc").and_then(|m| m.bound) else {
        unreachable!("pr_auc carries an absolute bound");
    };
    PR_AUC_RECORDED
        .iter()
        .find(|(s, _)| *s == seed)
        .map_or(PR_AUC_FLOOR, |(_, recorded)| recorded - bound)
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scan_encode",
        why: "raw-TSV bulk scan, bank-less heap model: every new title is tokenised and CNN-encoded and the 65k-entry LRU evicts all the time; text, nn, tensor and core::cache work, the store does none",
    },
    Workload {
        name: "scan_bank",
        why: "same rows as a PGECAT01 blob, mapped snapshot with embedding bank under a 16 MiB resident budget, jobs 1: text to vector is a page-cache lookup, the encoder idles, reader, committer and store dominate",
    },
    Workload {
        name: "gateway_products",
        why: "in-process gateway, one request per product (~9.4 triples), cold titles; closed loop then open loop at a fixed rate from one generator thread: http, json, queue, ring, replica, event loop",
    },
    Workload {
        name: "train",
        why: "train_pge then Detector::fit and Detector::scores: sampler, forward, backward, lane reduce, Adam, confidence update; the only workload on the training path, and passes must agree bit for bit",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// Amount by which `now` is worse than `base` (negative when it
    /// is better), in the metric's own unit.
    fn worse_abs(self, base: f64, now: f64) -> f64 {
        match self {
            Better::Higher => base - now,
            Better::Lower => now - base,
        }
    }
}

/// How much worse a metric may read before it counts as a regression.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Bound {
    /// A share of the base value.
    Rel(f64),
    /// A distance in the metric's own unit.
    Abs(f64),
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None` for per-layer metrics.
    pub bound: Option<Bound>,
    /// Workloads whose path the metric is on. Elsewhere the traced
    /// result prints 0 for it, because the contract wants every name on
    /// every workload; on these it has to be measured.
    pub on: &'static [&'static str],
}

impl Metric {
    pub fn is_on(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }

    /// `(how much worse now is than base, the most it may be)`, both
    /// as shares of `base` or both in the metric's unit.
    pub fn worse(&self, base: f64, now: f64) -> Option<(f64, f64)> {
        let abs = self.better.worse_abs(base, now);
        match self.bound? {
            Bound::Rel(b) if base != 0.0 => Some((abs / base.abs(), b)),
            Bound::Rel(b) => Some((0.0, b)),
            Bound::Abs(b) => Some((abs, b)),
        }
    }
}

const SCAN_ENCODE: &str = "scan_encode";
const SCAN_BANK: &str = "scan_bank";
const GATEWAY: &str = "gateway_products";
const TRAIN: &str = "train";

const ALL: &[&str] = &[SCAN_ENCODE, SCAN_BANK, GATEWAY, TRAIN];
const SCANS: &[&str] = &[SCAN_ENCODE, SCAN_BANK];
const ENCODE: &[&str] = &[SCAN_ENCODE];
const BANK: &[&str] = &[SCAN_BANK];
const GW: &[&str] = &[GATEWAY];
const TR: &[&str] = &[TRAIN];

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

use Better::{Higher, Lower};
use Bound::{Abs, Rel};

/// The end-to-end metrics that have a reading on every workload, which
/// is what the builder's contract asks of `end_to_end` in
/// `BENCHMARK.json`. `rows_per_s` is the workload's own throughput:
/// rows scanned, triples scored through the gateway's closed loop
/// (`rps` x items per request), or training triples visited
/// (`triples_per_s`).
///
/// The contract accepts a bound only if the metric's spread over ten
/// seeds stays within it, and asks for a third of it. In four sets of
/// ten runs per workload on the 2-cpu host this was sized on, the
/// fastest pass spread 4-18 % (the median pass 7-25 %) and peak memory
/// 1-7 %, so the issue's 10 % would have the driver refuse the
/// benchmark; tighten these on a quieter host. The contract gives
/// set-up time the largest bound.
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Lower, Rel(0.25), ALL),
    gated("rows_per_s", "rows/s", Higher, Rel(0.25), ALL),
    gated("peak_rss_mib", "MiB", Lower, Rel(0.15), ALL),
];

/// The end-to-end metrics one workload alone can read. Every untraced
/// run prints them and `check` gates those that carry a bound;
/// `BENCHMARK.json` has to list them under `per_layer`, since its
/// `end_to_end` names must be measurable on every workload. The two
/// latencies are demoted as the issue rules for a metric that does
/// not repeat: within a set of ten runs the windowed closed-loop p99
/// spread 15-29 % and the open-loop p50 17-48 %.
pub const WORKLOAD_END_TO_END: &[Metric] = &[
    gated("rps", "req/s", Higher, Rel(0.25), GW),
    layer("closed_p99_ms", "ms", Lower, GW),
    layer("open_p50_ms", "ms", Lower, GW),
    gated("triples_per_s", "triples/s", Higher, Rel(0.25), TR),
    gated("pr_auc", "ratio", Higher, Abs(0.005), TR),
];

/// Single-layer measurements, taken in the traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("graph.tsv_parse_ns_per_row", "ns", Lower, ENCODE),
    layer("store.catalog_read_ns_per_row", "ns", Lower, BANK),
    layer("store.bank_lookup_ns_per_key", "ns", Lower, BANK),
    layer("store.bank_hit_rate", "ratio", Higher, BANK),
    layer("store.bank_evictions", "count", Lower, BANK),
    layer("store.snapshot_open_ms", "ms", Lower, BANK),
    layer("core.model_load_ms", "ms", Lower, SCANS),
    layer("store.embed_keys_per_s", "keys/s", Higher, BANK),
    layer("text.tokenize_ns_per_string", "ns", Lower, ENCODE),
    layer("core.embed_ns_per_string", "ns", Lower, ENCODE),
    layer("nn.cnn_infer_ns_per_string", "ns", Lower, ENCODE),
    layer("tensor.gemv_ns_per_call", "ns", Lower, ENCODE),
    layer("tensor.dot_ns_per_call", "ns", Lower, ENCODE),
    layer("core.cache_hit_ns_per_lookup", "ns", Lower, SCANS),
    layer("core.cache_miss_insert_ns", "ns", Lower, SCANS),
    layer("core.cache_hit_rate", "ratio", Higher, SCANS),
    layer("core.score_hit_ns_per_row", "ns", Lower, SCANS),
    layer("core.scorer_ns_per_call", "ns", Lower, SCANS),
    layer("scan.worker_busy_share", "ratio", Higher, SCANS),
    layer("scan.effective_parallelism", "ratio", Higher, SCANS),
    layer("scan.unattributed_share", "ratio", Lower, SCANS),
    layer("scan.jobs1_rows_per_s", "rows/s", Higher, SCANS),
    layer("scan.scaling_ratio", "ratio", Higher, SCANS),
    layer("gateway.closed_p50_ms", "ms", Lower, GW),
    layer("serve.http_parse_ns_per_req", "ns", Lower, GW),
    layer("serve.json_parse_ns_per_req", "ns", Lower, GW),
    layer("serve.queue_push_pop_ns", "ns", Lower, GW),
    layer("gateway.ring_route_ns", "ns", Lower, GW),
    layer("gateway.score_items_ns_per_item", "ns", Lower, GW),
    layer("gateway.render_ns_per_req", "ns", Lower, GW),
    layer("gateway.unattributed_share", "ratio", Lower, GW),
    layer("gateway.batch_size_mean", "count", Higher, GW),
    layer("gateway.queue_wait_p99_ms", "ms", Lower, GW),
    layer("gateway.cache_hit_rate", "ratio", Higher, GW),
    layer("gateway.routing_skew", "ratio", Lower, GW),
    layer("gateway.open_p99_ms_r2000", "ms", Lower, GW),
    layer("gateway.open_p99_ms_r4000", "ms", Lower, GW),
    layer("gateway.open_p99_ms_r6000", "ms", Lower, GW),
    layer("gateway.open_failed_share_r2000", "ratio", Lower, GW),
    layer("gateway.open_failed_share_r4000", "ratio", Lower, GW),
    layer("gateway.open_failed_share_r6000", "ratio", Lower, GW),
    layer("gateway.rate_at_slo", "req/s", Higher, GW),
    layer("gateway.gen_late_p99_ms", "ms", Lower, GW),
    layer("graph.neg_sample_ns_per_triple", "ns", Lower, TR),
    layer("nn.cnn_forward_ns_per_text", "ns", Lower, TR),
    layer("nn.cnn_backward_ns_per_text", "ns", Lower, TR),
    layer("core.score_backward_ns_per_call", "ns", Lower, TR),
    layer("nn.adam_step_ms", "ms", Lower, TR),
    layer("core.confidence_update_ns_per_triple", "ns", Lower, TR),
    layer("text.word2vec_s", "s", Lower, TR),
    layer("core.worker_utilization_mean", "ratio", Higher, TR),
    layer("core.epoch_s_median", "s", Lower, TR),
    layer("core.train_scaling_ratio", "ratio", Higher, TR),
    layer("core.detect_triples_per_s", "triples/s", Higher, TR),
    layer("eval.pr_auc_ms", "ms", Lower, TR),
    layer("obs.trace_overhead_pct", "%", Lower, ALL),
];

/// Every metric a workload may report, by name.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(WORKLOAD_END_TO_END)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_obs::json::Json;

    /// `BENCHMARK.json`'s form of a metric. Only the `end_to_end` entries
    /// carry a bound there, and it is always a share.
    fn metric_json(m: &Metric, with_bound: bool) -> Json {
        let better = match m.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        let mut pairs = vec![
            ("name".to_string(), Json::Str(m.name.into())),
            ("unit".to_string(), Json::Str(m.unit.into())),
            ("better".to_string(), Json::Str(better.into())),
        ];
        if let (true, Some(Bound::Rel(b))) = (with_bound, m.bound) {
            pairs.push(("bound".to_string(), Json::Num(b)));
        }
        Json::Obj(pairs)
    }

    /// The contents of `BENCHMARK.json`.
    fn benchmark_json() -> Json {
        let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).into())).collect());
        Json::Obj(vec![
            (
                "command".into(),
                strs(&[
                    "cargo",
                    "run",
                    "--release",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]),
            ),
            ("paths".into(), strs(&["benchmark"])),
            ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(w.name.into())),
                                ("why".into(), Json::Str(w.why.into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end".into(),
                Json::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
            ),
            (
                "per_layer".into(),
                Json::Arr(
                    WORKLOAD_END_TO_END
                        .iter()
                        .chain(PER_LAYER)
                        .map(|m| metric_json(m, false))
                        .collect(),
                ),
            ),
        ])
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&(WORKLOAD_END_TO_END.len() + PER_LAYER.len())));
        let all = || {
            END_TO_END
                .iter()
                .chain(WORKLOAD_END_TO_END)
                .chain(PER_LAYER)
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(all().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in all() {
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(!m.on.is_empty(), "{} is measured nowhere", m.name);
            for w in m.on {
                assert!(workload(w).is_some(), "{} names workload {w}", m.name);
            }
        }
        for m in END_TO_END {
            // The contract reads every one of these on every workload
            // and takes bounds as shares of at most a quarter.
            assert_eq!(m.on.len(), WORKLOADS.len(), "{}", m.name);
            assert!(
                matches!(m.bound, Some(Bound::Rel(b)) if b > 0.0 && b <= 0.25),
                "{}",
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        let file = pge_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(file.to_string(), benchmark_json().to_string());
    }

    #[test]
    fn worse_is_a_share_or_a_distance() {
        let rows = metric("rows_per_s").unwrap();
        let (worse, bound) = rows.worse(1000.0, 880.0).unwrap();
        assert!((worse - 0.12).abs() < 1e-12 && bound == 0.25);
        let auc = metric("pr_auc").unwrap();
        let (worse, bound) = auc.worse(0.9063, 0.9000).unwrap();
        assert!((worse - 0.0063).abs() < 1e-12 && bound == 0.005);
        let rss = metric("peak_rss_mib").unwrap();
        assert!(rss.worse(50.0, 45.0).unwrap().0 < 0.0);
        assert!(metric("scan.scaling_ratio")
            .unwrap()
            .worse(1.0, 0.5)
            .is_none());
    }
}
