//! Mutation fuzz for the HTTP/1.1 decoder, `http::try_parse_request`.
//!
//! Generated requests, one at a time and pipelined, must parse back
//! whole, and every strict prefix of one must ask for more bytes. The
//! same requests are then mutated with the shared byte mutator (flips,
//! truncations, inserted line breaks, headers and tokens). On any
//! input the decoder must not panic, and each request it yields must
//! consume at most the buffer and carry exactly `content-length` body
//! bytes. The tier-1 runs take 2,000 cases; the ignored runs take
//! 100,000:
//!
//! ```sh
//! cargo test --release -p pge-serve --test http_fuzz -- --include-ignored
//! ```

#[path = "../../obs/tests/mutator/mod.rs"]
mod mutator;

use pge_serve::http::try_parse_request;
use proptest::prelude::*;

/// One well-formed request: its bytes, method, path and body.
#[derive(Debug, Clone)]
struct Generated {
    raw: Vec<u8>,
    method: &'static str,
    path: &'static str,
    body: Vec<u8>,
}

/// Header value text: no line breaks, since those end the line.
fn arb_value() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..40, 0..12).prop_map(|v| {
        v.into_iter()
            .map(|x| match x {
                0..=25 => char::from(b'a' + x),
                26..=35 => char::from(b'0' + x - 26),
                36 => ' ',
                37 => ',',
                38 => ':',
                _ => 'é',
            })
            .collect()
    })
}

fn arb_request() -> impl Strategy<Value = Generated> {
    const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
    const PATHS: [&str; 5] = [
        "/v1/score",
        "/healthz",
        "/metrics",
        "/admin/reload",
        "/debug/trace?n=2",
    ];
    const NAMES: [&str; 5] = [
        "Host",
        "Connection",
        "Accept",
        "content-type",
        "X-Request-Id",
    ];
    const LENGTH_NAMES: [&str; 3] = ["Content-Length", "content-length", "CONTENT-LENGTH"];
    (
        (
            0..METHODS.len(),
            0..PATHS.len(),
            any::<bool>(),
            any::<bool>(),
        ),
        prop::collection::vec((0..NAMES.len(), arb_value()), 0..4),
        (0u8..4, 0..LENGTH_NAMES.len()),
        prop::collection::vec(any::<u8>(), 0..48),
        any::<u32>(),
    )
        .prop_map(
            |((m, p, http11, crlf), headers, (length, name), body, at)| {
                let eol = if crlf { "\r\n" } else { "\n" };
                let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
                let mut lines = vec![format!("{} {} {version}", METHODS[m], PATHS[p])];
                lines.extend(headers.iter().map(|(n, v)| format!("{}: {v}", NAMES[*n])));
                // A body needs its length; an empty one may still state
                // it. The header goes anywhere among the others.
                if !body.is_empty() || length == 0 {
                    let at = 1 + at as usize % lines.len();
                    let header = format!("{}: {}", LENGTH_NAMES[name], body.len());
                    lines.insert(at, header);
                }
                let mut raw = Vec::new();
                for line in &lines {
                    raw.extend_from_slice(line.as_bytes());
                    raw.extend_from_slice(eol.as_bytes());
                }
                raw.extend_from_slice(eol.as_bytes());
                raw.extend_from_slice(&body);
                Generated {
                    raw,
                    method: METHODS[m],
                    path: PATHS[p],
                    body,
                }
            },
        )
}

fn arb_pipeline() -> impl Strategy<Value = Vec<Generated>> {
    prop::collection::vec(arb_request(), 1..4)
}

fn concat(requests: &[Generated]) -> Vec<u8> {
    requests
        .iter()
        .flat_map(|r| r.raw.iter().copied())
        .collect()
}

/// Whole requests parse back one after another, and no strict prefix
/// of one is taken for a request.
fn check_valid(requests: &[Generated]) {
    for r in requests {
        for cut in 0..r.raw.len() {
            let prefix = &r.raw[..cut];
            assert!(
                matches!(try_parse_request(prefix), Ok(None)),
                "prefix {:?}",
                String::from_utf8_lossy(prefix)
            );
        }
    }
    let buf = concat(requests);
    let mut rest = &buf[..];
    for r in requests {
        let (req, consumed) = match try_parse_request(rest) {
            Ok(Some(parsed)) => parsed,
            other => panic!("{other:?} on {:?}", String::from_utf8_lossy(&r.raw)),
        };
        assert_eq!(consumed, r.raw.len());
        assert_eq!((req.method.as_str(), req.path.as_str()), (r.method, r.path));
        assert_eq!(req.body, r.body);
        rest = &rest[consumed..];
    }
    assert!(rest.is_empty());
}

fn mutate(buf: Vec<u8>, mutations: &[(u8, u32, u8)]) -> Vec<u8> {
    const BREAKS: [&str; 5] = ["\r\n", "\n", "\r", "\r\n\r\n", "\n\n"];
    // Each header starts its own line wherever it lands in the head.
    const HEADERS: [&str; 8] = [
        "\r\nContent-Length: 3\r\n",
        "\r\ncontent-length: 0\r\n",
        "\r\nContent-Length: 18446744073709551616\r\n",
        "\r\nContent-Length: -1\r\n",
        "\r\nContent-Length: 4194305\r\n",
        "\r\nTransfer-Encoding: chunked\r\n",
        "\r\nConnection: close\r\n",
        "\r\n: \r\n",
    ];
    const TOKENS: [&str; 7] = [
        " ",
        ":",
        "HTTP/1.1",
        "GET / HTTP/1.1\r\n\r\n",
        "é",
        "\u{fffd}",
        "\t",
    ];
    mutator::mutate(buf, mutations, &[&BREAKS, &HEADERS, &TOKENS])
}

/// Drain `buf` as the event loop does: parse, drop what was consumed,
/// repeat until the decoder wants more bytes or refuses.
fn check_mutated(requests: &[Generated], mutations: &[(u8, u32, u8)]) {
    let buf = mutate(concat(requests), mutations);
    let mut rest = &buf[..];
    while let Ok(Some((req, consumed))) = try_parse_request(rest) {
        assert!(
            consumed > 0 && consumed <= rest.len(),
            "{consumed} of {}",
            rest.len()
        );
        let length = req
            .header("content-length")
            .map_or(0, |v| v.parse::<usize>().unwrap());
        assert_eq!(req.body.len(), length);
        rest = &rest[consumed..];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    #[test]
    fn generated_requests_parse_whole_and_never_early(requests in arb_pipeline()) {
        check_valid(&requests);
    }

    #[test]
    fn mutated_requests_never_panic_or_overrun(requests in arb_pipeline(),
                                              mutations in mutator::arb_mutations(5)) {
        check_mutated(&requests, &mutations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]
    #[test]
    #[ignore = "100,000 cases; run with --include-ignored"]
    fn generated_requests_parse_whole_and_never_early_100k(requests in arb_pipeline()) {
        check_valid(&requests);
    }

    #[test]
    #[ignore = "100,000 cases; run with --include-ignored"]
    fn mutated_requests_never_panic_or_overrun_100k(requests in arb_pipeline(),
                                                   mutations in mutator::arb_mutations(5)) {
        check_mutated(&requests, &mutations);
    }
}

#[test]
fn mutations_reach_every_outcome() {
    // The fuzz is only as good as its mix: mutated pipelines must
    // still yield requests, stop for more bytes, and be refused for
    // several different reasons.
    let mut rng = proptest::test_runner::TestRng::for_test("http_fuzz::mix");
    let (mut parsed, mut partial) = (0, 0);
    let mut reasons = std::collections::BTreeSet::new();
    for _ in 0..1000 {
        let requests = arb_pipeline().generate(&mut rng);
        let buf = mutate(
            concat(&requests),
            &mutator::arb_mutations(5).generate(&mut rng),
        );
        let mut rest = &buf[..];
        loop {
            match try_parse_request(rest) {
                Ok(Some((_, consumed))) => {
                    parsed += 1;
                    rest = &rest[consumed..];
                }
                Ok(None) => {
                    partial += 1;
                    break;
                }
                Err(e) => {
                    reasons.insert(e.reason);
                    break;
                }
            }
        }
    }
    assert!(
        parsed >= 500 && partial >= 100,
        "parsed {parsed}, partial {partial}"
    );
    assert!(reasons.len() >= 6, "{reasons:?}");
}
