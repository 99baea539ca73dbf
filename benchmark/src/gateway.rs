//! The `gateway_products` workload: the online path. One request is
//! one product's triples, titles are distinct and arrive in catalog
//! order (cold for the per-replica LRU), and the server is the
//! in-process `pge_gateway::start` with its default configuration.

use crate::fixtures::{self, Scale};
use crate::layers::{self, per_call_ns, Row};
use crate::loadgen::{Generator, Mode, Requests, Stage};
use crate::manifest;
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::stats::{fastest, median};
use crate::ChildArgs;
use pge_core::{load_model_auto_path, PgeModel};
use pge_gateway::{
    replica::render_scores, start, GatewayConfig, GatewayHandle, HashRing, ModelState,
};
use pge_obs::json::{parse, Json};
use pge_serve::{http, BoundedQueue, ScoreItem};
use pge_store::{CatalogReader, MmapMode};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Generator threads and connections; the contract allows no more
/// of either than the host has processors.
const CONNS: usize = 2;
const CLOSED_DEPTH: usize = 8;
const OPEN_RATE: f64 = 2000.0;
const LADDER: [u32; 3] = [2000, 4000, 6000];
/// Latency limit on the windowed p99 for `gateway.rate_at_slo`.
const SLO_P99_MS: f64 = 10.0;

/// Request bytes for every product of the blob, and the rows of the
/// products whose responses the oracle will check.
fn build_requests(
    blob: &Path,
    oracle_every: usize,
) -> Result<(Requests, HashMap<u32, Vec<Row>>), String> {
    let reader = CatalogReader::open(blob).map_err(|e| format!("open catalog: {e}"))?;
    let mut reqs = Requests {
        bytes: Vec::new(),
        spans: Vec::new(),
        items: Vec::new(),
    };
    let mut oracle = HashMap::new();
    let mut group: Vec<Row> = Vec::new();
    let mut emit = |group: &mut Vec<Row>| {
        if group.is_empty() {
            return;
        }
        let body = Json::Arr(
            group
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("title".into(), Json::Str(r.title.clone())),
                        ("attr".into(), Json::Str(r.attr.clone())),
                        ("value".into(), Json::Str(r.value.clone())),
                    ])
                })
                .collect(),
        )
        .to_string();
        let start = reqs.bytes.len() as u32;
        reqs.bytes.extend_from_slice(
            format!(
                "POST /v1/score HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        reqs.bytes.extend_from_slice(body.as_bytes());
        let product = reqs.spans.len() as u32;
        reqs.spans.push((start, reqs.bytes.len() as u32));
        reqs.items.push(group.len() as u32);
        if (product as usize).is_multiple_of(oracle_every) {
            oracle.insert(product, std::mem::take(group));
        } else {
            group.clear();
        }
    };
    for rec in reader.records().map_err(|e| format!("read catalog: {e}"))? {
        let r = rec.map_err(|e| format!("catalog record: {e}"))?;
        if group.last().is_some_and(|g| g.title != r.title) {
            emit(&mut group);
        }
        group.push(Row {
            title: r.title,
            attr: r.attr,
            value: r.value,
        });
    }
    emit(&mut group);
    Ok((reqs, oracle))
}

/// Compare kept responses with `PgeModel::score_text_triple` on the
/// heap model: each plausibility, read back through the JSON round
/// trip as f32, must carry the oracle's exact bits.
fn check_oracle(
    stages: &[&Stage],
    rows: &HashMap<u32, Vec<Row>>,
    model: &PgeModel,
    o: &mut Outcome,
) {
    let mut checked = 0u64;
    for (product, body) in stages.iter().flat_map(|s| &s.samples) {
        checked += 1;
        let want = &rows[product];
        let got = std::str::from_utf8(body).ok().and_then(|t| parse(t).ok());
        let got = got.as_ref().and_then(Json::as_array);
        let ok = got.is_some_and(|items| {
            items.len() == want.len()
                && items.iter().zip(want).all(|(item, r)| {
                    let served = item
                        .get("plausibility")
                        .and_then(Json::as_f64)
                        .map(|p| p as f32);
                    let offline = model.score_text_triple(&r.title, &r.attr, &r.value);
                    matches!((served, offline), (Some(a), Some(b)) if a.to_bits() == b.to_bits())
                })
        });
        if !ok {
            o.fail(
                1,
                format!("oracle: response for product {product} differs from offline scores"),
            );
        }
    }
    o.info_num("oracle.responses_checked", checked as f64);
}

struct Server {
    handle: GatewayHandle,
    /// The heap model the gateway serves, kept for the oracle.
    model: PgeModel,
}

fn start_server(args: &ChildArgs, scale: &Scale) -> Result<Server, String> {
    let data = fixtures::sample_dataset(scale, args.seed);
    let model = load_model_auto_path(
        &args.dir.join(fixtures::MODEL_HEAP),
        &data.graph,
        MmapMode::Off,
        0,
    )
    .map_err(|e| format!("load model: {e}"))?;
    let handle = start(
        model.clone(),
        data.graph.clone(),
        Vec::new(),
        args.threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            ..GatewayConfig::default()
        },
    )
    .map_err(|e| format!("start gateway: {e}"))?;
    Ok(Server { handle, model })
}

/// A sample from the gateway's Prometheus text.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Upper bound (seconds) of the first histogram bucket that holds
/// quantile `q`, from `<name>_bucket{le="..."}` lines.
fn prom_quantile(text: &str, name: &str, q: f64) -> f64 {
    let total = prom(text, &format!("{name}_count"));
    let prefix = format!("{name}_bucket{{le=\"");
    for l in text.lines() {
        let Some(rest) = l.strip_prefix(&prefix) else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"} ") else {
            continue;
        };
        if count.trim().parse::<f64>().is_ok_and(|c| c >= q * total) {
            return le.parse().unwrap_or(f64::INFINITY);
        }
    }
    0.0
}

pub fn child(args: &ChildArgs) -> Result<Outcome, String> {
    let scale = Scale::pick(args.smoke);
    let mut rec = Recorder::new(false);
    let mut o = Outcome::default();
    let io = |e: std::io::Error| format!("load generator: {e}");

    // Set-up, child half: model load, request build, gateway start.
    let blob = args.dir.join(fixtures::CATALOG_BLOB);
    let s = rec.begin("setup.gateway", 0);
    let server = start_server(args, &scale)?;
    let (reqs, oracle_rows) = build_requests(&blob, scale.oracle_every)?;
    o.put_value("setup_child_s", rec.end(s, 1));
    o.info_num(
        "request_bytes_mean",
        reqs.bytes.len() as f64 / reqs.len() as f64,
    );
    o.info_num(
        "items_per_request_mean",
        reqs.items.iter().sum::<u32>() as f64 / reqs.len() as f64,
    );
    o.info_num("generator_threads", 1.0);
    o.info_num("generator_connections", CONNS as f64);

    let mut gen = Generator::connect(server.handle.local_addr(), CONNS, &reqs, scale.oracle_every)
        .map_err(io)?;
    // Let the connections, worker threads and allocator settle.
    gen.run(
        Mode::Closed {
            depth: CLOSED_DEPTH,
        },
        0.3,
        0,
        &mut rec,
    )
    .map_err(io)?;

    // Measured phase: closed loop, then open loop at a fixed rate.
    // A traced run halves both and repeats them under the recorder.
    // Windows are whole seconds, so no stage is shorter than one.
    let stage_s = (args.seconds / if args.trace { 4.0 } else { 2.0 }).max(1.0);
    let closed = gen
        .run(
            Mode::Closed {
                depth: CLOSED_DEPTH,
            },
            stage_s,
            1,
            &mut rec,
        )
        .map_err(io)?;
    // Memory at bounded concurrency. The open loop's high-water mark
    // depends on how long the host stalls and how big the burst after
    // it is, so it goes into the manifest, not into the metric.
    o.put_value("peak_rss_mib", manifest::peak_rss_mib());
    let open = gen
        .run(Mode::Open { rate: OPEN_RATE }, stage_s, 2, &mut rec)
        .map_err(io)?;
    let mut all: Vec<Stage> = Vec::new();
    let mut traced_rps = 0.0;
    let mut batch_mean = 0.0;
    if args.trace {
        // The program's own span registry counts micro-batches; the
        // scored-job counter comes from its metrics text.
        let jobs_before = prom(
            &server.handle.metrics_text(),
            "pge_gateway_stage_score_seconds_count",
        );
        pge_obs::reset_spans();
        pge_obs::set_spans_enabled(true);
        rec.set_on(true);
        let c = gen
            .run(
                Mode::Closed {
                    depth: CLOSED_DEPTH,
                },
                stage_s,
                3,
                &mut rec,
            )
            .map_err(io)?;
        let p = gen
            .run(Mode::Open { rate: OPEN_RATE }, stage_s, 4, &mut rec)
            .map_err(io)?;
        rec.set_on(false);
        pge_obs::set_spans_enabled(false);
        let jobs = prom(
            &server.handle.metrics_text(),
            "pge_gateway_stage_score_seconds_count",
        ) - jobs_before;
        let batches = pge_obs::span_snapshot()
            .iter()
            .filter(|r| r.path.ends_with("gateway.batch"))
            .map(|r| r.count)
            .sum::<u64>();
        batch_mean = jobs / batches.max(1) as f64;
        traced_rps = fastest(&c.window_rps());
        all.push(c);
        all.push(p);
    }
    // What a client of the gateway sees: capacity and tail at bounded
    // concurrency, and the typical latency at a fixed arrival rate.
    o.put_fastest("rows_per_s", &closed.window_items_per_s());
    o.put_fastest("rps", &closed.window_rps());
    o.put_samples("closed_p99_ms", &closed.window_percentile(0.99));
    if open.valid() {
        o.put_samples("open_p50_ms", &open.window_percentile(0.5));
    }
    o.info_num("peak_rss_after_open_mib", manifest::peak_rss_mib());
    o.info_num("open.invalid_windows", open.invalid_windows() as f64);
    o.info_num("open.gen_late_p99_ms", open.late_p99_ms());

    if args.trace {
        o.put_samples("gateway.closed_p50_ms", &closed.window_percentile(0.5));
        o.put_value("gateway.gen_late_p99_ms", open.late_p99_ms());
        let base = fastest(&closed.window_rps());
        o.put_value("obs.trace_overhead_pct", (base - traced_rps) / base * 100.0);
        o.put_value("gateway.batch_size_mean", batch_mean);

        // Open-loop ladder: not part of the gate, and its failures are
        // reported as shares, not as failed operations.
        let mut rate_at_slo = 0.0;
        for (i, rate) in LADDER.iter().enumerate() {
            match gen.run(
                Mode::Open { rate: *rate as f64 },
                stage_s,
                5 + i as u64,
                &mut rec,
            ) {
                Ok(st) => {
                    let p99 = median(&st.window_percentile(0.99));
                    o.put_value(&format!("gateway.open_p99_ms_r{rate}"), p99);
                    o.put_value(
                        &format!("gateway.open_failed_share_r{rate}"),
                        st.failed_share(),
                    );
                    let no_backlog = (st.backlog_at_end as f64) <= *rate as f64 * 0.01 + 16.0;
                    if !st.valid() {
                        o.notes.push(format!(
                            "ladder stage {rate} req/s invalid: the generator ran late in {} of {} windows",
                            st.invalid_windows(),
                            st.windows.len()
                        ));
                    } else if st.failed == 0 && no_backlog && p99 <= SLO_P99_MS {
                        rate_at_slo = *rate as f64;
                    }
                    o.info_num(
                        &format!("ladder.r{rate}.backlog_at_end"),
                        st.backlog_at_end as f64,
                    );
                    o.info_num(&format!("ladder.r{rate}.late_p99_ms"), st.late_p99_ms());
                }
                Err(e) => {
                    // The server stopped answering: every later stage
                    // would run on broken connections.
                    o.notes.push(format!("ladder stopped at {rate} req/s: {e}"));
                    o.put_value(&format!("gateway.open_failed_share_r{rate}"), 1.0);
                    break;
                }
            }
        }
        o.put_value("gateway.rate_at_slo", rate_at_slo);

        let text = server.handle.metrics_text();
        o.put_value(
            "gateway.queue_wait_p99_ms",
            prom_quantile(&text, "pge_gateway_stage_queue_wait_seconds", 0.99) * 1e3,
        );
        let (mut hits, mut misses) = (0.0, 0.0);
        for i in 0..GatewayConfig::default().replicas {
            hits += prom(&text, &format!("pge_gateway_replica_{i}_cache_hits"));
            misses += prom(&text, &format!("pge_gateway_replica_{i}_cache_misses"));
        }
        o.put_value("gateway.cache_hit_rate", hits / (hits + misses).max(1.0));
        o.put_value("gateway.routing_skew", server.handle.routing_skew());
        if prom(&text, "pge_gateway_rejected_total") > 0.0 {
            o.notes
                .push("the gateway shed load with 503 during this run".into());
        }
    }
    drop(gen);
    let Server { handle, model } = server;
    handle.shutdown();

    // Measured stages only: every request is an operation; non-200,
    // unanswered and mis-scored ones fail. A window the generator
    // itself ran late in says nothing about the server: its latencies
    // are withheld, and a stage with mostly such windows is flagged
    // invalid, not counted as slow or as failed.
    all.push(closed);
    all.push(open);
    for st in &all {
        o.attempted += st.sent;
        if st.failed > 0 {
            o.fail(
                st.failed,
                format!("{:?}: {} requests failed", st.mode, st.failed),
            );
        }
        if !st.valid() {
            o.notes.push(format!(
                "{:?} invalid: the generator ran late in {} of {} windows",
                st.mode,
                st.invalid_windows(),
                st.windows.len()
            ));
        }
    }
    check_oracle(
        &all.iter().collect::<Vec<_>>(),
        &oracle_rows,
        &model,
        &mut o,
    );

    if args.trace {
        rec.set_on(true);
        let rps = o.get("rps").unwrap_or(0.0);
        layer_metrics(args, &scale, &model, &reqs, rps, &mut rec, &mut o);
        let path = fixtures::out_dir().join(format!("trace-{}.jsonl", args.workload));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
        o.info_num("trace.spans", rec.len() as f64);
    }
    Ok(o)
}

/// Replay a prefix of the requests through the gateway's public
/// layer functions, one layer at a time.
fn layer_metrics(
    args: &ChildArgs,
    scale: &Scale,
    model: &PgeModel,
    reqs: &Requests,
    rps: f64,
    rec: &mut Recorder,
    o: &mut Outcome,
) {
    let n = scale.replay_requests.min(reqs.len());
    let mut parsed = Vec::with_capacity(n);
    let ns_http = per_call_ns(rec, "serve.http_try_parse_request", n, |i| {
        if let Ok(Some((req, _))) = http::try_parse_request(black_box(reqs.get(i))) {
            parsed.push(req);
        }
    });
    o.put_value("serve.http_parse_ns_per_req", ns_http);
    if parsed.len() != n {
        return o.fail(1, "replay: a generated request did not parse".into());
    }
    let bodies: Vec<&str> = parsed
        .iter()
        .map(|r| std::str::from_utf8(&r.body).unwrap_or(""))
        .collect();
    let mut docs = Vec::with_capacity(n);
    let ns_json = per_call_ns(rec, "obs.json_parse", n, |i| {
        docs.push(parse(black_box(bodies[i])));
    });
    o.put_value("serve.json_parse_ns_per_req", ns_json);

    let items: Vec<Vec<ScoreItem>> = docs
        .iter()
        .map(|d| {
            let field =
                |it: &Json, k: &str| it.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            d.as_ref()
                .ok()
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|it| ScoreItem {
                    title: field(it, "title"),
                    attr: field(it, "attr"),
                    value: field(it, "value"),
                })
                .collect()
        })
        .collect();
    let total_items: usize = items.iter().map(Vec::len).sum();

    let cfg = GatewayConfig::default();
    let ring = HashRing::new(cfg.replicas as u32, cfg.vnodes);
    let mut sink = 0u32;
    let ns_route = per_call_ns(rec, "gateway.ring_route", n, |i| {
        sink += ring.route(black_box(&items[i][0].title));
    });
    black_box(sink);
    o.put_value("gateway.ring_route_ns", ns_route);

    let queue: BoundedQueue<u64> = BoundedQueue::new(cfg.queue_cap);
    let mut popped = Vec::with_capacity(cfg.max_batch);
    let ns_queue = per_call_ns(rec, "serve.queue_push_pop", 100 * layers::BATCH, |i| {
        let _ = queue.try_push(i as u64);
        if i % cfg.max_batch == cfg.max_batch - 1 {
            popped.clear();
            queue.pop_batch(cfg.max_batch, &mut popped);
        }
    });
    o.put_value("serve.queue_push_pop_ns", ns_queue);

    let state = ModelState::new(Arc::new(model.clone()), args.threshold, cfg.cache_cap, 0);
    let mut scored = Vec::with_capacity(n);
    let ns_score = per_call_ns(rec, "gateway.score_items", n, |i| {
        scored.push(state.score_items(black_box(&items[i])));
    });
    o.put_value(
        "gateway.score_items_ns_per_item",
        ns_score * n as f64 / total_items.max(1) as f64,
    );

    let mut bytes = 0usize;
    let ns_render = per_call_ns(rec, "gateway.render", n, |i| {
        let body = render_scores(black_box(&scored[i]));
        bytes += http::render_response(200, "application/json", &[], body.as_bytes(), true).len();
    });
    black_box(bytes);
    o.put_value("gateway.render_ns_per_req", ns_render);

    // Share of one request's wall time at closed-loop capacity that
    // the replayed layers do not explain (event loop, wake pipe,
    // buffer handling); negative when loop and replicas overlap more.
    let layers_ns = ns_http + ns_json + ns_route + ns_queue + ns_score + ns_render;
    if rps > 0.0 {
        o.put_value("gateway.unattributed_share", 1.0 - layers_ns / (1e9 / rps));
    }
    o.info_num("gateway.layers_ns_per_req", layers_ns);
}
