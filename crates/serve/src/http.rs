//! Minimal HTTP/1.1 framing over byte buffers.
//!
//! Enough of RFC 9112 for a JSON API behind a trusted load balancer:
//! request line + headers + `Content-Length` bodies, keep-alive, and
//! hard limits on head and body size. No chunked transfer coding
//! (`411 Length Required` is returned when a body has no length).
//!
//! [`try_parse_request`] parses incrementally, over whatever bytes a
//! non-blocking socket has delivered so far (the `pge-gateway` event
//! loop). It either yields a complete request plus the number of bytes
//! consumed, reports that more bytes are needed, or rejects malformed
//! framing — so pipelined requests parse straight out of a
//! connection's read buffer. [`render_response`] frames the answer
//! into an owned buffer.
//!
//! `Connection` headers are matched token-wise and case-insensitively
//! (`Close`, `keep-alive, Upgrade`, ...); unknown tokens are ignored
//! per RFC 9110 §7.6.1.

use std::io::Write;

pub const MAX_HEAD_BYTES: usize = 16 * 1024;
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Malformed framing: the connection should be dropped after
/// `status` is sent.
#[derive(Debug)]
pub struct ReadError {
    pub status: u16,
    pub reason: &'static str,
}

fn bad(status: u16, reason: &'static str) -> ReadError {
    ReadError { status, reason }
}

/// Parse `GET /path HTTP/1.1` into (method, path, is_http11).
fn parse_request_line(line: &str) -> Result<(String, String, bool), ReadError> {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(bad(400, "malformed request line"));
    }
    Ok((method, path, version == "HTTP/1.1"))
}

/// Parse one `Name: value` header line (already newline-trimmed).
fn parse_header_line(h: &str) -> Result<(String, String), ReadError> {
    let Some((k, v)) = h.split_once(':') else {
        return Err(bad(400, "malformed header"));
    };
    Ok((k.trim().to_string(), v.trim().to_string()))
}

/// Token-wise, case-insensitive `Connection` header interpretation.
/// `close` wins over `keep-alive` when both appear; unknown tokens
/// (`Upgrade`, garbage) are ignored. Returns `None` when the header
/// carries no recognized token, leaving the HTTP-version default.
fn connection_disposition(value: &str) -> Option<bool> {
    let mut keep = None;
    for token in value.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            return Some(false);
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            keep = Some(true);
        }
    }
    keep
}

/// Assemble a bodyless [`Request`] from parsed head parts and decide
/// how many body bytes must follow.
fn finish_head(
    method: String,
    path: String,
    http11: bool,
    headers: Vec<(String, String)>,
) -> Result<(Request, usize), ReadError> {
    let mut req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
        keep_alive: http11,
    };
    if let Some(ka) = req.header("connection").and_then(connection_disposition) {
        req.keep_alive = ka;
    }
    if req.header("transfer-encoding").is_some() {
        return Err(bad(411, "chunked bodies unsupported"));
    }
    let len = match req.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| bad(400, "bad content-length"))?,
        None => 0,
    };
    if len > MAX_BODY_BYTES {
        return Err(bad(413, "body too large"));
    }
    Ok((req, len))
}

/// Try to parse one request from the front of `buf` without blocking.
///
/// * `Ok(Some((req, consumed)))` — a complete request; the caller
///   should drain `consumed` bytes and may call again immediately
///   (pipelining).
/// * `Ok(None)` — the buffer holds only a prefix; read more bytes.
/// * `Err(_)` — malformed framing; send the error status and close.
///
/// Lines end at `\n`, an optional preceding `\r` is trimmed, and an
/// empty line ends the head.
pub fn try_parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, ReadError> {
    let mut pos = 0usize;
    let mut lines: Vec<&[u8]> = Vec::new();
    let head_end = loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // No complete line yet; bound how much head we will buffer.
            if buf.len() > MAX_HEAD_BYTES {
                return Err(bad(431, "headers too large"));
            }
            return Ok(None);
        };
        let mut line = &buf[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        pos += nl + 1;
        if pos > MAX_HEAD_BYTES {
            return Err(bad(431, "headers too large"));
        }
        if line.is_empty() {
            if lines.is_empty() {
                return Err(bad(400, "malformed request line"));
            }
            break pos;
        }
        lines.push(line);
    };

    let text = |raw: &[u8]| -> Result<String, ReadError> {
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| bad(400, "non-UTF-8 request head"))
    };
    let (method, path, http11) = parse_request_line(&text(lines[0])?)?;
    let mut headers = Vec::with_capacity(lines.len() - 1);
    for raw in &lines[1..] {
        headers.push(parse_header_line(&text(raw)?)?);
    }

    let (mut req, len) = finish_head(method, path, http11, headers)?;
    if buf.len() < head_end + len {
        return Ok(None);
    }
    req.body = buf[head_end..head_end + len].to_vec();
    Ok(Some((req, head_end + len)))
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render a response to an owned byte buffer; responses queue in a
/// per-connection write buffer.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: {connection}\r\n",
        status_reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        let _ = write!(out, "{k}: {v}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete request that must use every byte of `raw`.
    fn req(raw: &str) -> Result<Request, ReadError> {
        try_parse_request(raw.as_bytes()).map(|parsed| {
            let (r, consumed) = parsed.expect("a complete request");
            assert_eq!(consumed, raw.len());
            r
        })
    }

    #[test]
    fn parses_get() {
        let r = req("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = req("POST /v1/score HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.body, b"abcd");
        assert_eq!(r.header("Content-Length"), Some("4"));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = req("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        // HTTP/1.0 defaults to close.
        let r = req("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn connection_tokens_are_case_insensitive() {
        let r = req("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "`Close` must match token-wise");
        let r = req("GET / HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n").unwrap();
        assert!(r.keep_alive, "`Keep-Alive` must be recognized in a list");
    }

    #[test]
    fn connection_garbage_tokens_are_ignored() {
        // `closed` is NOT the `close` token; the old substring match
        // would have closed this keep-alive connection.
        let r = req("GET / HTTP/1.1\r\nConnection: closed\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = req("GET / HTTP/1.0\r\nConnection: xkeep-alivex\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "garbage token leaves the HTTP/1.0 default");
        // close wins over keep-alive when both appear.
        let r = req("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn malformed_request_line_is_400() {
        for raw in [
            "GARBAGE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "\r\n",
        ] {
            match req(raw) {
                Err(ReadError { status: 400, .. }) => {}
                other => panic!("{raw:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(req(&raw), Err(ReadError { status: 413, .. })));
    }

    #[test]
    fn chunked_is_rejected() {
        let raw = "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        assert!(matches!(req(raw), Err(ReadError { status: 411, .. })));
    }

    #[test]
    fn incremental_parse_needs_more_bytes() {
        let full = b"POST /v1/score HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        for cut in 0..full.len() {
            match try_parse_request(&full[..cut]) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
        let (r, consumed) = try_parse_request(full).unwrap().unwrap();
        assert_eq!(consumed, full.len());
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn incremental_parse_pipelined_pair() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/score HTTP/1.1\r\ncontent-length: 2\r\n\r\nokTRAILING";
        let (first, used) = try_parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        let (second, used2) = try_parse_request(&raw[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/v1/score");
        assert_eq!(second.body, b"ok");
        assert_eq!(&raw[used + used2..], b"TRAILING");
    }

    #[test]
    fn incremental_parse_rejects_malformed() {
        // An endless head with no newline must not buffer forever.
        let runaway = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            try_parse_request(&runaway),
            Err(ReadError { status: 431, .. })
        ));
    }

    #[test]
    fn response_framing() {
        let out = render_response(503, "text/plain", &[("retry-after", "1")], b"busy", false);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain\r\n\
             content-length: 4\r\nconnection: close\r\nretry-after: 1\r\n\r\nbusy"
        );
    }
}
