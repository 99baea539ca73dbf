//! Integration test for the shutdown drain of `pge serve`: the gateway
//! at one replica (`pge serve --replicas 1`) on an ephemeral port,
//! spoken to with `Connection: close` requests whose responses are
//! delimited by EOF.
//!
//! Sharded serving, hot-swap, pipelining and the `/v1/score` contract
//! are covered in `gateway_integration.rs`.

use pge::core::{train_pge, Detector, PgeConfig};
use pge::datagen::{generate_catalog, CatalogConfig};
use pge::gateway::{start, GatewayConfig};
use pge::graph::Dataset;
use pge::obs::json::Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// JSON request body scoring `data.test[indices]` as free text.
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

#[test]
fn graceful_shutdown_answers_every_admitted_request() {
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
    let handle = start(
        trained.model,
        data.graph.clone(),
        data.valid.clone(),
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            replicas: 1,
            ..GatewayConfig::default()
        },
    )
    .expect("bind ephemeral port");
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

    // Wait until the gateway has admitted all ten, then shut down
    // while they are being scored and written back.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let admitted: u64 = handle
            .metrics_text()
            .lines()
            .find_map(|l| l.strip_prefix("pge_gateway_requests_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if admitted >= 10 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gateway admitted only {admitted} of 10 requests"
        );
        std::thread::sleep(Duration::from_millis(5));
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
                response
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("client {c}: bad response {response:?}"))
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
