//! The gateway load generator: one thread, two keep-alive
//! connections, non-blocking sockets, prebuilt request bytes and
//! cursor buffers (nothing is drained from the front per request).
//!
//! Closed loop: a fixed number of requests in flight per connection,
//! the next one sent when a response completes — capacity at bounded
//! concurrency. Open loop: request `k` is due at `start + k / rate`
//! whatever the server does, and its latency counts from that due
//! time, so a stall is charged to every request it delays. The
//! generator reports how late it picked requests up itself; a 1-s
//! window in which that lateness is large is invalid, not slow, and a
//! stage is invalid when more than half of its windows are.

use crate::spans::Recorder;
use crate::stats::percentile;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest the generator sleeps when it has nothing to do.
const MAX_SLEEP: Duration = Duration::from_micros(100);
/// A window whose own lateness p99 exceeds this is invalid.
const LATE_LIMIT_MS: f64 = 1.0;
/// How long a stage waits for outstanding responses before it counts
/// them as unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);
const RBUF: usize = 256 << 10;

/// Every request of the workload, prebuilt into one buffer.
pub struct Requests {
    pub bytes: Vec<u8>,
    /// `(start, end)` of request `i` in `bytes`.
    pub spans: Vec<(u32, u32)>,
    /// Items (triples) request `i` carries.
    pub items: Vec<u32>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let (s, e) = self.spans[i];
        &self.bytes[s as usize..e as usize]
    }
}

struct Pending {
    /// Request number within the generator's life.
    k: u64,
    product: u32,
    /// Send time (closed loop) or due time (open loop).
    t_ref: Instant,
    /// How long after `t_ref` the generator picked it up (open loop).
    late_ms: f64,
    sent: usize,
}

struct Conn {
    stream: TcpStream,
    /// Assigned, not yet fully written; the front one may be partial.
    queue: VecDeque<Pending>,
    /// Fully written, awaiting responses in order.
    inflight: VecDeque<Pending>,
    rbuf: Vec<u8>,
    head: usize,
    tail: usize,
}

/// One parsed response head.
struct Head {
    status: u16,
    head_len: usize,
    body_len: usize,
}

fn parse_head(buf: &[u8]) -> Option<Result<Head, ()>> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = &buf[..end];
    let mut lines = head.split(|&b| b == b'\n');
    let status = lines
        .next()
        .and_then(|l| l.get(9..12))
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse::<u16>().ok());
    let mut body_len = None;
    for l in lines {
        const NAME: &[u8] = b"content-length:";
        if l.len() > NAME.len() && l[..NAME.len()].eq_ignore_ascii_case(NAME) {
            body_len = std::str::from_utf8(&l[NAME.len()..])
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok());
        }
    }
    Some(match (status, body_len) {
        (Some(status), Some(body_len)) => Ok(Head {
            status,
            head_len: end + 4,
            body_len,
        }),
        _ => Err(()),
    })
}

/// How a stage paces itself.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// `depth` requests in flight per connection.
    Closed { depth: usize },
    /// A fixed schedule of `rate` requests per second.
    Open { rate: f64 },
}

/// The responses that completed in one whole second of stage time.
#[derive(Clone, Default)]
pub struct Window {
    pub latency_ms: Vec<f64>,
    pub items: u64,
    /// Generator lateness of the same requests (open loop only).
    late_ms: Vec<f64>,
}

impl Window {
    /// The generator kept its schedule for these requests, so their
    /// latencies are about the server. One host stall of 75 ms spoils
    /// the second it falls in, not the stage.
    fn valid(&self) -> bool {
        self.late_ms.is_empty() || percentile(&self.late_ms, 0.99) <= LATE_LIMIT_MS
    }
}

/// What one stage measured.
pub struct Stage {
    pub mode: Mode,
    pub sent: u64,
    pub answered: u64,
    /// Non-200, malformed or unanswered.
    pub failed: u64,
    pub items_answered: u64,
    pub windows: Vec<Window>,
    /// Generator lateness of every open-loop request, ms.
    pub late_ms: Vec<f64>,
    /// Requests assigned or in flight when the schedule ended.
    pub backlog_at_end: u64,
    /// `(product, response body)` of every response picked for the oracle.
    pub samples: Vec<(u32, Vec<u8>)>,
}

impl Stage {
    pub fn window_rps(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.latency_ms.len() as f64)
            .collect()
    }

    pub fn window_items_per_s(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.items as f64).collect()
    }

    /// Latency percentile `q` of every valid window.
    pub fn window_percentile(&self, q: f64) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| w.valid() && !w.latency_ms.is_empty())
            .map(|w| percentile(&w.latency_ms, q))
            .collect()
    }

    pub fn late_p99_ms(&self) -> f64 {
        percentile(&self.late_ms, 0.99)
    }

    pub fn invalid_windows(&self) -> usize {
        self.windows.iter().filter(|w| !w.valid()).count()
    }

    /// The generator kept its own schedule in at least half the
    /// windows, so the medians over those are about the server.
    pub fn valid(&self) -> bool {
        2 * self.invalid_windows() <= self.windows.len()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.sent.max(1) as f64
    }
}

pub struct Generator<'a> {
    reqs: &'a Requests,
    conns: Vec<Conn>,
    /// Next request number; request `k` carries product `k % len`.
    next: u64,
    /// Every n-th product's responses are kept for the oracle.
    sample_every: u32,
}

impl<'a> Generator<'a> {
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        reqs: &'a Requests,
        sample_every: usize,
    ) -> std::io::Result<Generator<'a>> {
        let conns = (0..conns)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    queue: VecDeque::new(),
                    inflight: VecDeque::new(),
                    rbuf: vec![0; RBUF],
                    head: 0,
                    tail: 0,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Generator {
            reqs,
            conns,
            next: 0,
            sample_every: sample_every.max(1) as u32,
        })
    }

    fn assign(&mut self, conn: usize, t_ref: Instant, late_ms: f64) {
        let product = (self.next % self.reqs.len() as u64) as u32;
        self.conns[conn].queue.push_back(Pending {
            k: self.next,
            product,
            t_ref,
            late_ms,
            sent: 0,
        });
        self.next += 1;
    }

    /// Write as much of each connection's queue as the socket takes.
    fn flush(&mut self, closed: bool) -> std::io::Result<bool> {
        let mut progress = false;
        for c in &mut self.conns {
            while let Some(p) = c.queue.front_mut() {
                let req = self.reqs.get(p.product as usize);
                if closed && p.sent == 0 {
                    // Closed-loop latency runs from the first byte sent.
                    p.t_ref = Instant::now();
                }
                match c.stream.write(&req[p.sent..]) {
                    Ok(n) => {
                        progress |= n > 0;
                        p.sent += n;
                        if p.sent == req.len() {
                            let p = c.queue.pop_front().expect("front exists");
                            c.inflight.push_back(p);
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(progress)
    }

    /// Read what has arrived and complete every whole response.
    fn drain(
        &mut self,
        start: Instant,
        stage: &mut Stage,
        rec: &mut Recorder,
    ) -> std::io::Result<bool> {
        let open = matches!(stage.mode, Mode::Open { .. });
        let mut progress = false;
        for c in &mut self.conns {
            // Read until the socket is dry, completing whole responses
            // every time the buffer fills so a burst cannot overrun it.
            let mut dry = false;
            while !dry {
                while !dry && c.tail < c.rbuf.len() {
                    match c.stream.read(&mut c.rbuf[c.tail..]) {
                        Ok(0) => {
                            return Err(std::io::Error::other("gateway closed the connection"))
                        }
                        Ok(n) => {
                            c.tail += n;
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => dry = true,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                while let Some(head) = parse_head(&c.rbuf[c.head..c.tail]) {
                    let Ok(head) = head else {
                        return Err(std::io::Error::other("malformed response head"));
                    };
                    let total = head.head_len + head.body_len;
                    if c.tail - c.head < total {
                        break;
                    }
                    let now = Instant::now();
                    let Some(p) = c.inflight.pop_front() else {
                        return Err(std::io::Error::other("response without a request"));
                    };
                    let body = &c.rbuf[c.head + head.head_len..c.head + total];
                    stage.answered += 1;
                    rec.record("gateway.request", p.k, p.t_ref, now);
                    if head.status == 200 {
                        let items = self.reqs.items[p.product as usize] as u64;
                        stage.items_answered += items;
                        let w = now.duration_since(start).as_secs_f64() as usize;
                        if let Some(w) = stage.windows.get_mut(w) {
                            let ms = now.duration_since(p.t_ref).as_secs_f64() * 1e3;
                            w.latency_ms.push(ms);
                            w.items += items;
                            if open {
                                w.late_ms.push(p.late_ms);
                            }
                        }
                        if p.product.is_multiple_of(self.sample_every) {
                            stage.samples.push((p.product, body.to_vec()));
                        }
                    } else {
                        stage.failed += 1;
                    }
                    c.head += total;
                    if c.head == c.tail {
                        c.head = 0;
                        c.tail = 0;
                    }
                }
                if c.head > 0 && c.tail == c.rbuf.len() {
                    // Out of room: move the unparsed tail to the front
                    // (once per 256 KiB, not once per response).
                    c.rbuf.copy_within(c.head..c.tail, 0);
                    c.tail -= c.head;
                    c.head = 0;
                } else if c.tail == c.rbuf.len() {
                    return Err(std::io::Error::other(
                        "response larger than the read buffer",
                    ));
                }
            }
        }
        Ok(progress)
    }

    fn outstanding(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| (c.queue.len() + c.inflight.len()) as u64)
            .sum()
    }

    /// Run one stage for `seconds`, then wait for what is outstanding.
    /// With the recorder on, every answered request becomes a span.
    pub fn run(
        &mut self,
        mode: Mode,
        seconds: f64,
        op: u64,
        rec: &mut Recorder,
    ) -> std::io::Result<Stage> {
        let full_windows = seconds.floor() as usize;
        let mut stage = Stage {
            mode,
            sent: 0,
            answered: 0,
            failed: 0,
            items_answered: 0,
            windows: vec![Window::default(); full_windows],
            late_ms: Vec::new(),
            backlog_at_end: 0,
            samples: Vec::new(),
        };
        let span = rec.begin(
            match mode {
                Mode::Closed { .. } => "loadgen.closed_stage",
                Mode::Open { .. } => "loadgen.open_stage",
            },
            op,
        );
        let first = self.next;
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let n_conns = self.conns.len();
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let mut progress = false;
            let mut next_due = None;
            match mode {
                Mode::Closed { depth } => {
                    for i in 0..n_conns {
                        while self.conns[i].queue.len() + self.conns[i].inflight.len() < depth {
                            self.assign(i, now, 0.0);
                            progress = true;
                        }
                    }
                }
                Mode::Open { rate } => loop {
                    let k = self.next - first;
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    if due > now {
                        next_due = Some(due);
                        break;
                    }
                    let late_ms = now.duration_since(due).as_secs_f64() * 1e3;
                    stage.late_ms.push(late_ms);
                    self.assign((k % n_conns as u64) as usize, due, late_ms);
                    progress = true;
                },
            }
            progress |= self.flush(matches!(mode, Mode::Closed { .. }))?;
            progress |= self.drain(start, &mut stage, rec)?;
            if !progress {
                let nap = next_due.map_or(MAX_SLEEP, |d| {
                    d.saturating_duration_since(Instant::now()).min(MAX_SLEEP)
                });
                std::thread::sleep(nap);
            }
        }
        stage.sent = self.next - first;
        stage.backlog_at_end = self.outstanding();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.outstanding() > 0 && Instant::now() < deadline {
            let mut progress = self.flush(false)?;
            progress |= self.drain(start, &mut stage, rec)?;
            if !progress {
                std::thread::sleep(MAX_SLEEP);
            }
        }
        let unanswered = self.outstanding();
        stage.failed += unanswered;
        rec.end(span, stage.answered);
        if unanswered > 0 {
            // The connections are out of step with the server now.
            return Err(std::io::Error::other(format!(
                "{unanswered} requests unanswered {DRAIN_TIMEOUT:?} after the stage"
            )));
        }
        Ok(stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_head() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 12\r\n\r\n[1,2,3,4,5]\n";
        let h = parse_head(raw).unwrap().unwrap();
        assert_eq!((h.status, h.body_len), (200, 12));
        assert_eq!(&raw[h.head_len..h.head_len + h.body_len], b"[1,2,3,4,5]\n");
        assert!(parse_head(b"HTTP/1.1 200 OK\r\ncontent-le").is_none());
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").unwrap().is_err());
    }
}
