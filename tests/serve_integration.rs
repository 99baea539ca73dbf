//! Integration tests for `pge-serve`: a real server on an ephemeral
//! port, spoken to over TCP with a hand-rolled HTTP/1.1 client.
//!
//! The central claim under test is the serving consistency invariant:
//! scores answered online — through the queue, micro-batcher, worker
//! pool, and embedding cache — are bit-identical to offline
//! [`Detector::scores`] on the same triples.

use pge::core::{train_pge, Detector, PgeConfig, PgeModel};
use pge::datagen::{generate_catalog, CatalogConfig};
use pge::graph::Dataset;
use pge::obs::json::{self, Json};
use pge::serve::{start, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Train a tiny model and fit its detection threshold. Quality is
/// irrelevant here — determinism is what the tests lean on.
fn tiny_setup() -> (Dataset, PgeModel, f32) {
    let data = generate_catalog(&CatalogConfig {
        products: 120,
        labeled: 40,
        seed: 17,
        ..CatalogConfig::tiny()
    });
    let trained = train_pge(
        &data,
        &PgeConfig {
            epochs: 2,
            ..PgeConfig::tiny()
        },
    );
    let threshold = Detector::fit(&trained.model, &data.graph, &data.valid).threshold;
    (data, trained.model, threshold)
}

fn serve_tiny(cfg: ServeConfig) -> (Dataset, f32, Vec<f32>, ServerHandle) {
    let (data, model, threshold) = tiny_setup();
    let offline = {
        let det = Detector::fit(&model, &data.graph, &data.valid);
        let triples: Vec<_> = data.test.iter().map(|lt| lt.triple).collect();
        det.scores(&data.graph, &triples)
    };
    let handle = start(model, threshold, cfg).expect("bind ephemeral port");
    (data, threshold, offline, handle)
}

/// Send one request and read the full response (the request always
/// carries `Connection: close`, so EOF delimits it).
fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
    let raw = format!(
        "POST /v1/score HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    roundtrip(addr, &raw)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

/// JSON request body scoring `data.test[range]` as free text.
fn body_for(data: &Dataset, indices: &[usize]) -> String {
    Json::Arr(
        indices
            .iter()
            .map(|&i| {
                let t = data.test[i].triple;
                Json::Obj(vec![
                    (
                        "title".into(),
                        Json::Str(data.graph.title(t.product).into()),
                    ),
                    (
                        "attr".into(),
                        Json::Str(data.graph.attr_name(t.attr).into()),
                    ),
                    (
                        "value".into(),
                        Json::Str(data.graph.value_text(t.value).into()),
                    ),
                ])
            })
            .collect(),
    )
    .to_string()
}

/// Parse a scoring response into (plausibility, is_error) pairs.
fn parse_scores(body: &str) -> Vec<(Option<f32>, Option<bool>)> {
    let parsed = json::parse(body).expect("response parses");
    parsed
        .as_array()
        .expect("response is an array")
        .iter()
        .map(|o| {
            (
                o.get("plausibility")
                    .and_then(Json::as_f64)
                    .map(|f| f as f32),
                o.get("is_error").and_then(Json::as_bool),
            )
        })
        .collect()
}

#[test]
fn eight_concurrent_clients_match_offline_scores_bit_for_bit() {
    let (data, threshold, offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let indices: Vec<usize> = (0..data.test.len()).collect();
    let body = body_for(&data, &indices);

    // Eight clients fire the full test split simultaneously; batches
    // will interleave items from several jobs and the cache warms
    // mid-flight — none of which may change a single bit.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let (status, resp) = post_score(addr, &body);
                assert_eq!(status, 200, "body: {resp}");
                let scores = parse_scores(&resp);
                assert_eq!(scores.len(), offline.len());
                for (i, ((p, e), want)) in scores.iter().zip(&offline).enumerate() {
                    let got = p.expect("known attribute scores");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "triple {i}: served {got} != offline {want}"
                    );
                    assert_eq!(*e, Some(got <= threshold));
                }
            });
        }
    });

    // Eight identical requests → later ones must have hit the cache,
    // and the wire-visible metrics must say so.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let hits: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("pge_cache_hits_total "))
        .expect("pge_cache_hits_total exported")
        .trim()
        .parse()
        .expect("counter is integral");
    assert!(
        hits > 0,
        "no cache hits after identical requests:\n{metrics}"
    );
    assert!(metrics.contains("pge_score_requests_total 8"));
    handle.shutdown();
}

#[test]
fn golden_request_response_round_trip() {
    let (data, threshold, offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    // One known triple and one with an attribute the model never saw.
    let t = data.test[0].triple;
    let request = Json::Arr(vec![
        Json::Obj(vec![
            (
                "title".into(),
                Json::Str(data.graph.title(t.product).into()),
            ),
            (
                "attr".into(),
                Json::Str(data.graph.attr_name(t.attr).into()),
            ),
            (
                "value".into(),
                Json::Str(data.graph.value_text(t.value).into()),
            ),
        ]),
        Json::Obj(vec![
            ("title".into(), Json::Str("acme widget".into())),
            ("attr".into(), Json::Str("no-such-attribute".into())),
            ("value".into(), Json::Str("blue".into())),
        ]),
    ])
    .to_string();

    let (status, body) = post_score(addr, &request);
    assert_eq!(status, 200, "body: {body}");
    let golden = Json::Arr(vec![
        Json::Obj(vec![
            ("plausibility".into(), Json::Num(offline[0] as f64)),
            ("is_error".into(), Json::Bool(offline[0] <= threshold)),
        ]),
        Json::Obj(vec![
            ("plausibility".into(), Json::Null),
            ("is_error".into(), Json::Null),
            ("detail".into(), Json::Str("unknown attribute".into())),
        ]),
    ])
    .to_string();
    assert_eq!(body, golden);

    // An empty batch is a successful no-op.
    let (status, body) = post_score(addr, "[]");
    assert_eq!(status, 200);
    assert_eq!(body, "[]");
    handle.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_5xx() {
    let (_data, _threshold, _offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    for bad in [
        "{not json",
        "{\"title\": \"a\"}",                    // object, not array
        "[{\"title\": \"a\", \"attr\": \"b\"}]", // missing value
        "[{\"title\": 3, \"attr\": \"b\", \"value\": \"c\"}]", // non-string field
    ] {
        let (status, body) = post_score(addr, bad);
        assert_eq!(status, 400, "payload {bad:?} got body {body}");
        assert!(body.contains("error"), "no error field in {body}");
    }

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = get(addr, "/v1/score");
    assert_eq!(status, 405, "wrong method must be 405");
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn metrics_expose_stage_latency_breakdown() {
    let (data, _threshold, _offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let (status, _) = post_score(addr, &body_for(&data, &[0, 1, 2]));
    assert_eq!(status, 200);

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    // Legacy names survive the registry migration...
    for name in [
        "pge_score_requests_total",
        "pge_cache_hits_total",
        "pge_request_latency_seconds_count",
    ] {
        assert!(metrics.contains(name), "missing {name} in:\n{metrics}");
    }
    // ...and the per-stage breakdown rides along. A scored request
    // passes through every stage except encode-on-hit, so each stage
    // histogram must have observations (the batch had misses too:
    // a fresh cache).
    for name in [
        "pge_serve_stage_queue_wait_seconds",
        "pge_serve_stage_encode_seconds",
        "pge_serve_stage_score_seconds",
    ] {
        let count_line = metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
            .unwrap_or_else(|| panic!("missing {name}_count in:\n{metrics}"));
        let count: u64 = count_line.trim().parse().expect("count parses");
        assert!(count > 0, "{name} recorded nothing");
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_admitted_request() {
    let (data, _threshold, _offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    // Ten clients write one request each; nobody reads yet, so the
    // responses are still queued or in flight when shutdown starts.
    let clients: Vec<TcpStream> = (0..10)
        .map(|c| {
            let mut s = TcpStream::connect(addr).expect("connect");
            let body = body_for(&data, &[c % data.test.len()]);
            let raw = format!(
                "POST /v1/score HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                body.len(),
                body
            );
            s.write_all(raw.as_bytes()).expect("send");
            s
        })
        .collect();

    // Wait until the server has admitted all ten into the queue, then
    // shut down while they are being scored and written back.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let admitted: u64 = handle
            .metrics_text()
            .lines()
            .find_map(|l| l.strip_prefix("pge_score_requests_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if admitted >= 10 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server admitted only {admitted} of 10 requests"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let reader = std::thread::spawn(move || {
        clients
            .into_iter()
            .enumerate()
            .map(|(c, mut s)| {
                let mut response = String::new();
                s.read_to_string(&mut response).expect("read");
                assert!(
                    !response.is_empty(),
                    "client {c}: connection cut without a response"
                );
                let status: u16 = response
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("client {c}: bad response {response:?}"));
                status
            })
            .collect::<Vec<u16>>()
    });
    handle.shutdown();
    for (c, status) in reader.join().expect("reader").into_iter().enumerate() {
        assert!(
            status == 200 || status == 503,
            "client {c}: admitted request answered with {status}"
        );
    }
}

#[test]
fn runlog_records_manifest_and_serve_snapshot() {
    let dir = std::env::temp_dir().join(format!("pge-serve-runlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("serve.jsonl");
    let (data, _threshold, _offline, handle) = serve_tiny(ServeConfig {
        addr: "127.0.0.1:0".into(),
        runlog_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let (status, _) = post_score(addr, &body_for(&data, &[0, 1]));
    assert_eq!(status, 200);
    handle.shutdown();

    let text = std::fs::read_to_string(&path).expect("runlog written");
    let events: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("valid JSON line"))
        .collect();
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).map(String::from);
    assert_eq!(kind(&events[0]).as_deref(), Some("manifest"));
    assert_eq!(
        events[0].get("kind").and_then(Json::as_str),
        Some("serve"),
        "manifest kind"
    );
    let snapshot = events
        .iter()
        .find(|e| kind(e).as_deref() == Some("serve"))
        .expect("serve snapshot event");
    let n = |k: &str| snapshot.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(n("requests_total"), 1.0);
    assert_eq!(n("items_total"), 2.0);
    assert!(n("latency_p99_ms") >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}
