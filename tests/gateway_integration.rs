//! Integration tests for `pge-gateway`: a real epoll gateway on an
//! ephemeral port, spoken to over keep-alive TCP with a hand-rolled
//! pipelining HTTP/1.1 client.
//!
//! The claims under test:
//!
//! * **sharding is invisible** — scores served through consistent-hash
//!   routing are bit-identical to offline [`Detector::scores`] at
//!   every replica count;
//! * **hot-swap is zero-downtime** — requests racing a model swap all
//!   succeed, and every answer bit-matches one of the two snapshots,
//!   with hundreds of keep-alive connections in the epoll set;
//! * **pipelined responses come back in request order**;
//! * **graceful shutdown** answers every admitted request;
//! * **the `/v1/score` contract holds byte for byte** at one replica,
//!   the shape `pge serve --replicas 1` runs: golden body, empty
//!   batch, malformed bodies answered 400, run-log records;
//! * **a pipelined backlog drains in linear time**;
//! * **a corrupt or retired-format snapshot is rejected** and the old
//!   model keeps serving;
//! * **a stalled replica is observable** — tail sampling retains its
//!   requests and attributes the delay to queue time on that replica.

use pge::core::{
    save_model_store, train_incremental_with, train_pge, train_pge_resumable, CheckpointOptions,
    Detector, IncrementalConfig, PersistError, PgeConfig, PgeModel,
};
use pge::datagen::{generate_catalog, CatalogConfig};
use pge::gateway::client::push_snapshot;
use pge::gateway::{start, GatewayConfig, GatewayHandle};
use pge::graph::{Dataset, DeltaOp, DeltaWindow, TripleDelta};
use pge::obs::json::{self, Json};
use pge::obs::Stage;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn tiny_data() -> Dataset {
    generate_catalog(&CatalogConfig {
        products: 120,
        labeled: 40,
        seed: 17,
        ..CatalogConfig::tiny()
    })
}

/// Train a tiny model with `epochs` epochs; different epoch counts
/// give deterministically different weights (snapshot A vs B).
fn tiny_model(data: &Dataset, epochs: usize) -> (PgeModel, f32) {
    let trained = train_pge(
        data,
        &PgeConfig {
            epochs,
            ..PgeConfig::tiny()
        },
    );
    let threshold = Detector::fit(&trained.model, &data.graph, &data.valid).threshold;
    (trained.model, threshold)
}

/// Offline reference scores for the whole test split.
fn offline_scores(data: &Dataset, model: &PgeModel) -> Vec<f32> {
    let det = Detector::fit(model, &data.graph, &data.valid);
    let triples: Vec<_> = data.test.iter().map(|lt| lt.triple).collect();
    det.scores(&data.graph, &triples)
}

fn gateway(data: &Dataset, model: PgeModel, threshold: f32, cfg: GatewayConfig) -> GatewayHandle {
    start(
        model,
        data.graph.clone(),
        data.valid.clone(),
        threshold,
        cfg,
    )
    .expect("bind ephemeral port")
}

fn score_request(body: &str, keep_alive: bool) -> String {
    format!(
        "POST /v1/score HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}{}\r\n\r\n{}",
        body.len(),
        if keep_alive {
            ""
        } else {
            "\r\nconnection: close"
        },
        body
    )
}

/// Read exactly one HTTP response off a keep-alive stream, carrying
/// leftover bytes (from pipelined responses) across calls in `buf`.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Option<(u16, String)> {
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad status line in {head:?}"));
            let clen: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.trim()
                        .eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .expect("response has content-length");
            let total = head_end + 4 + clen;
            if buf.len() >= total {
                let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
                buf.drain(..total);
                return Some((status, body));
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// One request on a fresh connection (`Connection: close`).
fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut buf = Vec::new();
    read_one_response(&mut stream, &mut buf).expect("response before EOF")
}

fn post_score(addr: SocketAddr, body: &str) -> (u16, String) {
    roundtrip(addr, &score_request(body, false))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
    )
}

/// JSON body scoring `data.test[i]` for each index, as free text.
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

fn parse_plausibilities(body: &str) -> Vec<f32> {
    json::parse(body)
        .expect("response parses")
        .as_array()
        .expect("response is an array")
        .iter()
        .map(|o| {
            o.get("plausibility")
                .and_then(Json::as_f64)
                .expect("known attribute scores") as f32
        })
        .collect()
}

/// Poll the wire-visible metrics until `metric` reaches `target`.
fn await_counter(handle: &GatewayHandle, metric: &str, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = handle.metrics_text();
        let v: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{metric} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if v >= target {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{metric} stuck at {v}, want {target}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn served_scores_bit_identical_to_offline_at_every_replica_count() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let offline = offline_scores(&data, &model);
    for replicas in [1usize, 2, 4] {
        let handle = gateway(
            &data,
            model.clone(),
            threshold,
            GatewayConfig {
                addr: "127.0.0.1:0".into(),
                replicas,
                ..GatewayConfig::default()
            },
        );
        let addr = handle.local_addr();

        // Per-triple requests: distinct titles spread across replicas
        // (each scored by whichever replica the ring picks), so this
        // exercises the sharding, not just one worker.
        for (i, want) in offline.iter().enumerate() {
            let (status, body) = post_score(addr, &body_for(&data, &[i]));
            assert_eq!(status, 200, "replicas={replicas} body: {body}");
            let got = parse_plausibilities(&body)[0];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "replicas={replicas} triple {i}: served {got} != offline {want}"
            );
        }

        // One batch with every triple routes by the first title; the
        // scores must still be the offline ones, in order.
        let indices: Vec<usize> = (0..data.test.len()).collect();
        let (status, body) = post_score(addr, &body_for(&data, &indices));
        assert_eq!(status, 200);
        let got = parse_plausibilities(&body);
        assert_eq!(got.len(), offline.len());
        for (g, w) in got.iter().zip(&offline) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        if replicas > 1 {
            // The ring must actually have spread the per-triple
            // requests over several replicas.
            let text = handle.metrics_text();
            let routed_replicas = (0..replicas)
                .filter(|i| {
                    text.lines()
                        .find_map(|l| {
                            l.strip_prefix(&format!("pge_gateway_replica_{i}_routed_total "))
                        })
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .is_some_and(|v| v > 0)
                })
                .count();
            assert!(
                routed_replicas > 1,
                "replicas={replicas} but traffic hit only {routed_replicas}:\n{text}"
            );
        }
        handle.shutdown();
    }
}

/// A gateway over the tiny model at one replica, the shape `pge
/// serve` runs with `--replicas 1`.
fn one_replica(data: &Dataset, runlog_path: Option<String>) -> (Vec<f32>, f32, GatewayHandle) {
    let (model, threshold) = tiny_model(data, 2);
    let offline = offline_scores(data, &model);
    let handle = gateway(
        data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 1,
            runlog_path,
            ..GatewayConfig::default()
        },
    );
    (offline, threshold, handle)
}

#[test]
fn golden_request_response_round_trip() {
    let data = tiny_data();
    let (offline, threshold, handle) = one_replica(&data, None);
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
    let data = tiny_data();
    let (_offline, _threshold, handle) = one_replica(&data, None);
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
    handle.shutdown();
}

#[test]
fn runlog_records_manifest_and_gateway_snapshot() {
    let dir = std::env::temp_dir().join(format!("pge-gw-runlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("gateway.jsonl");
    let data = tiny_data();
    let (_offline, _threshold, handle) =
        one_replica(&data, Some(path.to_string_lossy().into_owned()));
    let (status, _) = post_score(handle.local_addr(), &body_for(&data, &[0, 1]));
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
        Some("gateway"),
        "manifest kind"
    );
    let snapshot = events
        .iter()
        .find(|e| kind(e).as_deref() == Some("gateway") && e.get("requests_total").is_some())
        .expect("gateway shutdown snapshot");
    let n = |k: &str| snapshot.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    assert_eq!(n("requests_total"), 1.0);
    assert_eq!(n("responses_total"), 1.0);
    assert!(n("latency_p99_ms") >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Write a pipelined pair of single-triple requests on every
/// connection before reading anything back, so hundreds of sockets are
/// readable in the epoll set at once. Every answer must be a 200 that
/// bit-matches `want`, in request order.
fn pipelined_pair_on_each(conns: &mut [(TcpStream, Vec<u8>)], data: &Dataset, want: &[f32]) {
    let n = data.test.len();
    for (k, (stream, _)) in conns.iter_mut().enumerate() {
        let pair = [k % n, (k + 1) % n]
            .map(|i| score_request(&body_for(data, &[i]), true))
            .concat();
        stream.write_all(pair.as_bytes()).expect("send pair");
    }
    for (k, (stream, buf)) in conns.iter_mut().enumerate() {
        for i in [k % n, (k + 1) % n] {
            let (status, resp) = read_one_response(stream, buf)
                .unwrap_or_else(|| panic!("connection {k} dropped with a request in flight"));
            assert_eq!(status, 200, "connection {k} triple {i}: {resp}");
            assert_eq!(
                parse_plausibilities(&resp)[0].to_bits(),
                want[i].to_bits(),
                "connection {k} triple {i} not served by the current snapshot"
            );
        }
    }
}

#[test]
fn concurrent_hot_swap_never_drops_a_request_and_scores_stay_exact() {
    let data = tiny_data();
    let (model_a, thr_a) = tiny_model(&data, 2);
    let (model_b, thr_b) = tiny_model(&data, 3);
    let offline_a = offline_scores(&data, &model_a);
    let offline_b = offline_scores(&data, &model_b);
    assert!(
        offline_a
            .iter()
            .zip(&offline_b)
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "snapshots A and B must score differently for the test to bite"
    );

    let handle = gateway(
        &data,
        model_a,
        thr_a,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            // Room for the 512 requests the idle connections pipeline
            // at once; shedding is not what this test is about.
            queue_cap: 1024,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();
    let n = data.test.len();

    // 256 keep-alive connections sit in the event loop's epoll set
    // through every swap below: one pipelined pair each before the
    // first swap, one after the last.
    let mut idle: Vec<(TcpStream, Vec<u8>)> = (0..256)
        .map(|_| (TcpStream::connect(addr).expect("connect"), Vec::new()))
        .collect();
    pipelined_pair_on_each(&mut idle, &data, &offline_a);

    std::thread::scope(|scope| {
        // Four clients hammer keep-alive connections while the main
        // thread swaps A→B→A→B. Every response must be a 200 whose
        // score bit-matches snapshot A or snapshot B — never a blend,
        // an error, or a dropped connection.
        for c in 0..4 {
            let (data, offline_a, offline_b) = (&data, &offline_a, &offline_b);
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut buf = Vec::new();
                for round in 0..30 {
                    let i = (c * 7 + round) % n;
                    let body = body_for(data, &[i]);
                    stream
                        .write_all(score_request(&body, true).as_bytes())
                        .expect("send");
                    let (status, resp) = read_one_response(&mut stream, &mut buf)
                        .expect("gateway must never drop a request mid-swap");
                    assert_eq!(status, 200, "client {c} round {round}: {resp}");
                    let got = parse_plausibilities(&resp)[0];
                    assert!(
                        got.to_bits() == offline_a[i].to_bits()
                            || got.to_bits() == offline_b[i].to_bits(),
                        "client {c} round {round}: {got} matches neither snapshot"
                    );
                }
            });
        }
        for swap in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            if swap % 2 == 0 {
                handle.swap_model(model_b.clone(), thr_b);
            } else {
                let (model_a, thr_a) = tiny_model(&data, 2);
                handle.swap_model(model_a, thr_a);
            }
        }
    });

    assert_eq!(handle.version(), 4, "four swaps completed");
    // The last swap installed a retrained A on cold caches: the old
    // connections must be answered by it, not by a stale B.
    pipelined_pair_on_each(&mut idle, &data, &offline_a);
    let text = handle.metrics_text();
    assert!(text.contains("pge_gateway_swaps_total 4"), "{text}");
    handle.shutdown();
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let offline = offline_scores(&data, &model);
    let handle = gateway(
        &data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();

    // Six single-triple requests written back-to-back before reading
    // anything: different triples route to different replicas, so
    // completions can finish out of order — the wire order must not.
    let k = 6.min(data.test.len());
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut pipelined = String::new();
    for i in 0..k {
        pipelined.push_str(&score_request(&body_for(&data, &[i]), true));
    }
    stream.write_all(pipelined.as_bytes()).expect("send");

    let mut buf = Vec::new();
    for (i, want) in offline.iter().take(k).enumerate() {
        let (status, body) = read_one_response(&mut stream, &mut buf).expect("pipelined response");
        assert_eq!(status, 200);
        let got = parse_plausibilities(&body)[0];
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pipelined slot {i} answered out of order"
        );
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_admitted_request() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let handle = gateway(
        &data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();

    // Twelve clients write one request each, but nobody reads yet.
    let clients: Vec<TcpStream> = (0..12)
        .map(|c| {
            let mut s = TcpStream::connect(addr).expect("connect");
            let body = body_for(&data, &[c % data.test.len()]);
            s.write_all(score_request(&body, false).as_bytes())
                .expect("send");
            s
        })
        .collect();

    // Wait until the gateway has parsed all twelve, then shut down
    // while their responses are still being scored/flushed.
    await_counter(&handle, "pge_gateway_requests_total", 12);
    let reader = std::thread::spawn(move || {
        clients
            .into_iter()
            .map(|mut s| {
                let mut buf = Vec::new();
                read_one_response(&mut s, &mut buf)
            })
            .collect::<Vec<_>>()
    });
    handle.shutdown();

    let responses = reader.join().expect("reader");
    for (c, resp) in responses.iter().enumerate() {
        let (status, body) = resp
            .as_ref()
            .unwrap_or_else(|| panic!("client {c}: connection cut without a response"));
        assert!(
            *status == 200 || *status == 503,
            "client {c}: unexpected status {status}: {body}"
        );
    }
    // New connections are refused after shutdown.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be gone after shutdown"
    );
}

/// Hot-swap of a mapped PGEBIN02 snapshot through the admin endpoint
/// serves bit-identical scores; a corrupt snapshot and one in a retired
/// format are rejected with the old model left serving.
#[test]
fn reload_swaps_snapshot_and_rejects_corrupt_one() {
    let data = tiny_data();
    let (model_a, thr_a) = tiny_model(&data, 2);
    let (model_b, _thr_b) = tiny_model(&data, 3);
    let offline_b = offline_scores(&data, &model_b);

    let dir = std::env::temp_dir().join(format!("pge-gw-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let good = dir.join("model-b.pgebin");
    save_model_store(&model_b, &good).expect("snapshot B");

    let handle = gateway(
        &data,
        model_a,
        thr_a,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            mmap: pge::store::MmapMode::On,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();
    let reload = |path: &std::path::Path| {
        let body = format!(
            "{{\"path\": {}}}",
            Json::Str(path.to_string_lossy().into_owned())
        );
        roundtrip(
            addr,
            &format!(
                "POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    };

    // Reload snapshot B through the admin endpoint.
    let (status, resp) = reload(&good);
    assert_eq!(status, 200, "reload failed: {resp}");
    let parsed = json::parse(&resp).expect("reload response parses");
    assert_eq!(parsed.get("version").and_then(Json::as_f64), Some(1.0));
    assert_eq!(handle.version(), 1);

    // Served scores now bit-match offline snapshot B (the reload
    // refits the threshold on the same validation split Detector::fit
    // uses, so the full detector state converged too).
    for (i, want) in offline_b.iter().enumerate().take(10) {
        let (status, body) = post_score(addr, &body_for(&data, &[i]));
        assert_eq!(status, 200);
        let got = parse_plausibilities(&body)[0];
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "triple {i} not served by snapshot B after reload"
        );
    }

    // A corrupt snapshot is rejected with a retryable 503 (a CRC
    // failure is indistinguishable from a snapshot still being
    // written). A file in a retired format can never load, so it is a
    // 500 that says not to retry. Either way the serving model and
    // version are untouched.
    let mut corrupt = std::fs::read(&good).expect("read");
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff; // flip a payload bit: CRC must catch it
    let mut retired = b"PGEBIN01".to_vec();
    retired.extend_from_slice(&corrupt[8..]);
    for (name, bytes, status, retryable) in [
        ("corrupt.pgebin", corrupt, 503, true),
        ("retired.pgebin", retired, 500, false),
    ] {
        let bad = dir.join(name);
        std::fs::write(&bad, &bytes).expect("write");
        let (got, resp) = reload(&bad);
        assert_eq!(got, status, "{name} must be rejected: {resp}");
        assert!(
            resp.contains(&format!("\"retryable\":{retryable}")),
            "{name}: {resp}"
        );
        // SIGHUP's code path refuses it too.
        assert!(handle.reload_from_path(&bad.to_string_lossy()).is_err());
        assert_eq!(
            handle.version(),
            1,
            "failed reload must not bump the version"
        );
        let (status, body) = post_score(addr, &body_for(&data, &[0]));
        assert_eq!(status, 200);
        assert_eq!(
            parse_plausibilities(&body)[0].to_bits(),
            offline_b[0].to_bits(),
            "old model must keep serving after a rejected reload"
        );
    }

    // Reload with no path configured and no body is a client error.
    let raw =
        "POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
    let (status, _) = roundtrip(addr, raw);
    assert_eq!(status, 422);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A reload pointed at a PGEBIN02 snapshot that is still being
/// written (truncated prefix on disk) answers a retryable 503, leaves
/// `reload_busy` clear so the retry is admitted, and the retry against
/// the completed file swaps cleanly. The stack's own writers commit
/// by rename, so a torn snapshot reaches a reload only from outside
/// the program (a copy in progress, a full disk); it stays a
/// retryable answer, not a fatal one. The client retries on
/// one keep-alive connection the moment each answer is read, 67
/// times per cut: `reload_busy` must be clear by then, never a 409.
#[test]
fn reload_of_partially_written_snapshot_is_retryable() {
    let data = tiny_data();
    let (model_a, thr_a) = tiny_model(&data, 2);
    let (model_b, _thr_b) = tiny_model(&data, 3);

    let dir = std::env::temp_dir().join(format!("pge-gw-partial-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let good = dir.join("model-b.pgebin2");
    save_model_store(&model_b, &good).expect("snapshot B");
    let full = std::fs::read(&good).expect("read");

    let handle = gateway(
        &data,
        model_a,
        thr_a,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();

    let body = format!(
        "{{\"path\": {}}}",
        Json::Str(good.to_string_lossy().into_owned())
    );
    let raw = format!(
        "POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    let mut reload = || {
        stream.write_all(raw.as_bytes()).expect("send");
        read_one_response(&mut stream, &mut buf).expect("reload answered before EOF")
    };

    // Truncate at several cut points a concurrent writer could be
    // caught at: mid-header, mid-section, just short of the footer.
    for cut in [8, full.len() / 3, full.len() - 4] {
        std::fs::write(&good, &full[..cut]).expect("write partial");
        for attempt in 0..67 {
            let (status, resp) = reload();
            assert_eq!(
                status, 503,
                "cut at {cut}, attempt {attempt}: partial snapshot must be retryable, got {resp}"
            );
            assert!(resp.contains("\"retryable\":true"), "cut at {cut}: {resp}");
            assert_eq!(handle.version(), 0, "partial snapshot must not swap");
        }
    }

    // The writer finishes; the retry that a 503 invites now succeeds.
    std::fs::write(&good, &full).expect("write complete");
    let (status, resp) = reload();
    assert_eq!(status, 200, "completed snapshot must reload: {resp}");
    assert_eq!(handle.version(), 1);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end streaming ingest: a gateway serves live traffic while
/// `train_incremental_with` fine-tunes on delta windows and its
/// per-window callback pushes each window's snapshot through
/// `POST /admin/reload` (`pge_gateway::client::push_snapshot`). Every push must
/// swap (version advances once per window) and every scoring request
/// racing the swaps must succeed — zero failed requests mid-ingest.
#[test]
fn mid_ingest_push_hot_swaps_with_zero_failed_requests() {
    let data = tiny_data();
    let cfg = PgeConfig {
        epochs: 2,
        confidence_warmup: 1,
        ..PgeConfig::tiny()
    };
    let dir = std::env::temp_dir().join(format!("pge-gw-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trained =
        train_pge_resumable(&data, &cfg, None, Some(&CheckpointOptions::new(&dir))).unwrap();
    let threshold = Detector::fit(&trained.model, &data.graph, &data.valid).threshold;
    let handle = gateway(
        &data,
        trained.model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();

    // Live traffic racing the ingest: one client scoring in a loop
    // until the ingest finishes. Every response must be a 200.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scorer = {
        let stop = stop.clone();
        let data = tiny_data();
        std::thread::spawn(move || {
            let mut statuses = Vec::new();
            let mut i = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = post_score(addr, &body_for(&data, &[i % data.test.len()]));
                assert!(!body.is_empty());
                statuses.push(status);
                i += 1;
            }
            statuses
        })
    };

    let d = |op, title: &str, attr: &str, value: &str| TripleDelta {
        op,
        title: title.into(),
        attr: attr.into(),
        value: value.into(),
    };
    let windows = vec![
        DeltaWindow {
            index: 0,
            ops: vec![
                d(
                    DeltaOp::Add,
                    "Drift Farms Spicy Salsa, 12 oz",
                    "flavor",
                    "spicy",
                ),
                d(
                    DeltaOp::Add,
                    "Drift Farms Spicy Salsa, 12 oz",
                    "ingredient",
                    "cayenne pepper",
                ),
            ],
        },
        DeltaWindow {
            index: 1,
            ops: vec![d(
                DeltaOp::Add,
                "Drift Farms Sweet Tea, 16 oz",
                "flavor",
                "sweet",
            )],
        },
    ];
    let mut pushes = Vec::new();
    let outcome = train_incremental_with(
        &data,
        &windows,
        &cfg,
        &IncrementalConfig::new(dir.join("snapshots")),
        &CheckpointOptions::new(&dir),
        None,
        &mut |w, snapshot| {
            let report = push_snapshot(&addr.to_string(), snapshot, 5, 50)
                .map_err(|e| PersistError::Io(format!("push window {w}: {e}")))?;
            pushes.push((w, report.version));
            Ok(Some(report.version))
        },
    )
    .expect("ingest with push");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let statuses = scorer.join().expect("scorer thread");

    assert_eq!(outcome.windows_done, windows.len());
    assert_eq!(pushes.len(), windows.len(), "every window pushes");
    for (i, &(w, version)) in pushes.iter().enumerate() {
        assert_eq!(w, i);
        assert_eq!(version, w as u64 + 1, "each push swaps exactly once");
    }
    assert_eq!(handle.version(), windows.len() as u64);
    assert!(
        !statuses.is_empty(),
        "scorer must have raced the ingest at least once"
    );
    let failed = statuses.iter().filter(|s| **s != 200).count();
    assert_eq!(
        failed,
        0,
        "{failed} of {} scoring requests failed mid-ingest",
        statuses.len()
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_replica_surfaces_in_tail_sampled_traces_as_queue_time() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let handle = gateway(
        &data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 2,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();
    let n = data.test.len();

    // Healthy pass: nothing stalled. The slowest client-observed
    // round trip bounds the non-stall latency, so the excess a
    // stalled request shows over it is attributable to the fault.
    let mut healthy = Duration::ZERO;
    for i in 0..n {
        let t0 = Instant::now();
        let (status, _) = post_score(addr, &body_for(&data, &[i]));
        assert_eq!(status, 200);
        healthy = healthy.max(t0.elapsed());
    }

    // Retain only traces slower than anything the healthy pass
    // produced, then stall replica 0 by 50 ms per batch and replay
    // the same traffic. Titles routed to replica 0 cross the
    // threshold; titles routed to replica 1 must not.
    let stall = Duration::from_millis(50);
    handle.set_trace_threshold(healthy.max(Duration::from_millis(40)));
    handle.set_replica_stall(0, stall);
    for i in 0..n {
        let (status, _) = post_score(addr, &body_for(&data, &[i]));
        assert_eq!(status, 200);
    }

    let retained = handle.retained_traces(usize::MAX);
    assert!(
        !retained.is_empty(),
        "stalled replica produced no tail-sampled traces"
    );
    for t in &retained {
        let route = t
            .events
            .iter()
            .find(|e| e.stage == Stage::Route)
            .expect("retained trace has a route event");
        assert_eq!(
            route.arg, 0,
            "only the stalled replica may appear in the slow set: {t:?}"
        );
        let queued = t
            .stage_durations()
            .into_iter()
            .find_map(|(s, d)| (s == Stage::QueueAdmit).then_some(d))
            .expect("retained trace has a queue_admit stage");
        // The injected delay lands between queue admit and dequeue,
        // so >=90% of both the stall itself and the excess over the
        // healthy bound must be attributed to queue time.
        assert!(
            queued as u128 * 10 >= stall.as_nanos() * 9,
            "queue stage {queued} ns < 90% of the {stall:?} stall: {t:?}"
        );
        let excess = t.total_nanos.saturating_sub(healthy.as_nanos() as u64);
        assert!(
            queued as u128 * 10 >= excess as u128 * 9,
            "queue stage {queued} ns < 90% of {excess} ns excess: {t:?}"
        );
    }

    // The same traces are live on the wire: /debug/trace serves the
    // retained set newest-first as JSON waterfalls.
    let (status, body) = get(addr, "/debug/trace?n=64");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).expect("debug trace parses");
    let served = parsed.as_array().expect("debug trace is an array");
    assert_eq!(served.len(), retained.len());
    let slowest = retained
        .iter()
        .max_by_key(|t| t.total_nanos)
        .expect("non-empty");
    assert!(
        body.contains(&format!("{:016x}", slowest.trace_id)),
        "slowest trace id missing from /debug/trace: {body}"
    );
    assert!(body.contains("\"stage\":\"queue_admit\""), "{body}");

    handle.shutdown();
}

#[test]
fn health_version_metrics_and_errors_speak_http() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let handle = gateway(
        &data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 3,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = get(addr, "/admin/version");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).expect("version parses");
    assert_eq!(parsed.get("version").and_then(Json::as_f64), Some(0.0));
    assert_eq!(parsed.get("replicas").and_then(Json::as_f64), Some(3.0));

    let (status, _) = get(addr, "/v1/score");
    assert_eq!(status, 405);
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, body) = post_score(addr, "{not json");
    assert_eq!(status, 400, "{body}");

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for name in [
        "pge_gateway_requests_total",
        "pge_gateway_responses_total",
        "pge_gateway_bad_requests_total 1",
        "pge_gateway_replica_2_routed_total",
        "pge_gateway_model_version 0",
    ] {
        assert!(metrics.contains(name), "missing {name} in:\n{metrics}");
    }
    handle.shutdown();
}

/// Time until the last of `n` pipelined single-triple requests on one
/// keep-alive connection is answered. A writer thread sends while this
/// thread reads, so the gateway sees a backlog as deep as the socket
/// buffers allow. Every answer must be a 200 or a shed 503.
fn pipelined_backlog_time(addr: SocketAddr, data: &Dataset, n: usize) -> Duration {
    let m = data.test.len();
    let bodies: Vec<String> = (0..m)
        .map(|i| score_request(&body_for(data, &[i]), true))
        .collect();
    let raw: Vec<u8> = (0..n).flat_map(|i| bodies[i % m].bytes()).collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let t0 = Instant::now();
    let sender = std::thread::spawn(move || writer.write_all(&raw).expect("send backlog"));
    let mut buf = Vec::new();
    for k in 0..n {
        let (status, body) = read_one_response(&mut stream, &mut buf)
            .unwrap_or_else(|| panic!("connection dropped at response {k} of {n}"));
        assert!(
            status == 200 || status == 503,
            "response {k}: {status} {body}"
        );
    }
    let elapsed = t0.elapsed();
    sender.join().expect("writer");
    elapsed
}

/// A backlog of pipelined requests on one connection drains in time
/// linear in its depth: the loop thread must pay O(1) per request in
/// its read buffer and, once a backlog makes completions slow enough
/// to be tail-sampled, in the trace ring. Best of three, interleaved
/// so a busy moment hits both sizes.
#[test]
fn pipelined_backlog_drains_in_linear_time() {
    let data = tiny_data();
    let (model, threshold) = tiny_model(&data, 2);
    let handle = gateway(
        &data,
        model,
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 1,
            ..GatewayConfig::default()
        },
    );
    let addr = handle.local_addr();
    let (small, large) = (1_000usize, 16_000usize);
    let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        t_small = t_small.min(pipelined_backlog_time(addr, &data, small));
        t_large = t_large.min(pipelined_backlog_time(addr, &data, large));
    }
    let bound = t_small * (8 * large / small) as u32;
    assert!(
        t_large <= bound,
        "{large} pipelined requests took {t_large:?}, over 8x linear from {small} ({t_small:?})"
    );
    handle.shutdown();
}
