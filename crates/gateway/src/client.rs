//! The publishing side of hot-swap: push a model snapshot to a running
//! gateway's `POST /admin/reload`, with bounded retry and backoff.
//! `pge train --incremental --push HOST:PORT` calls [`push_snapshot`]
//! once per ingested window.

use pge_obs::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Outcome of one snapshot push: the gateway's new snapshot
/// generation, and how many attempts it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PushReport {
    /// Snapshot generation the gateway reported after the swap.
    pub version: u64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: usize,
}

/// One push attempt: POST the reload, read the full response, return
/// `(status, body)`.
fn push_once(addr: &str, snapshot: &Path) -> Result<(u16, String), String> {
    let body = Json::Obj(vec![(
        "path".into(),
        Json::Str(snapshot.to_string_lossy().into_owned()),
    )])
    .to_string();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let req = format!(
        "POST /admin/reload HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    stream
        .read_to_string(&mut resp)
        .map_err(|e| format!("read response: {e}"))?;
    let status: u16 = resp
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "malformed response: {:?}",
                resp.lines().next().unwrap_or("")
            )
        })?;
    let body = resp
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Push a snapshot to a gateway's `POST /admin/reload` with bounded
/// retry/backoff.
///
/// Retried (consuming one attempt each): connection/transport errors,
/// `409` (another reload in flight), and `503` (the gateway classed
/// the failure retryable — e.g. the snapshot is torn, copied in from
/// outside and not yet whole). Any other non-200 is
/// a hard error. The backoff doubles per retry from
/// `backoff_ms`, capped at two seconds.
///
/// On success the returned [`PushReport`] carries the gateway's new
/// snapshot generation.
pub fn push_snapshot(
    addr: &str,
    snapshot: &Path,
    attempts: usize,
    backoff_ms: u64,
) -> Result<PushReport, String> {
    let attempts = attempts.max(1);
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        match push_once(addr, snapshot) {
            Ok((200, body)) => {
                // The gateway answers {"swapped": true, "version": N}.
                let version = json::parse(&body)
                    .ok()
                    .and_then(|j| j.get("version").and_then(Json::as_f64))
                    .ok_or_else(|| format!("reload succeeded but no version in body {body:?}"))?;
                return Ok(PushReport {
                    version: version as u64,
                    attempts: attempt,
                });
            }
            Ok((status @ (409 | 503), body)) => {
                last_err = format!("gateway answered {status}: {}", body.trim());
            }
            Ok((status, body)) => {
                return Err(format!("gateway answered {status}: {}", body.trim()));
            }
            Err(e) => last_err = e,
        }
        if attempt < attempts {
            let backoff = (backoff_ms << (attempt - 1)).min(2_000);
            std::thread::sleep(Duration::from_millis(backoff));
        }
    }
    Err(format!(
        "{attempts} attempts exhausted; last error: {last_err}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn push_snapshot_retries_busy_then_succeeds() {
        // A gateway stand-in: answers 503 (retryable), then 409
        // (busy), then 200 with a version.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let responses = [
                "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 26\r\nConnection: close\r\n\r\n{\"error\": \"snapshot torn\"}",
                "HTTP/1.1 409 Conflict\r\nContent-Length: 20\r\nConnection: close\r\n\r\n{\"error\": \"reload\"}\n",
                "HTTP/1.1 200 OK\r\nContent-Length: 35\r\nConnection: close\r\n\r\n{\"swapped\": true, \"version\": 7}\n\n\n\n",
            ];
            for resp in responses {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let report = push_snapshot(&addr, Path::new("/tmp/some snap.pgebin"), 5, 1).unwrap();
        assert_eq!(report.version, 7);
        assert_eq!(report.attempts, 3);
        server.join().unwrap();
    }

    #[test]
    fn push_snapshot_gives_up_after_bounded_attempts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                s.write_all(
                    b"HTTP/1.1 409 Conflict\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                )
                .unwrap();
            }
        });
        let err = push_snapshot(&addr, Path::new("/tmp/x.pgebin"), 2, 1).unwrap_err();
        assert!(err.contains("2 attempts exhausted"), "{err}");
        assert!(err.contains("409"), "{err}");
        server.join().unwrap();
        // A hard error (404) does not consume retries.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = s.read(&mut buf);
            s.write_all(
                b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
            )
            .unwrap();
        });
        let err = push_snapshot(&addr, Path::new("/tmp/x.pgebin"), 5, 1).unwrap_err();
        assert!(err.contains("404"), "{err}");
        server.join().unwrap();
    }
}
