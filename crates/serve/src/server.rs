//! The serving pipeline: accept loop → bounded queue → scoring
//! workers, with an embedding cache shared by all workers.
//!
//! ```text
//!   TcpListener ──accept──▶ connection threads (parse HTTP + JSON)
//!        │                        │ try_push (never blocks; full → 503)
//!        │                  BoundedQueue<Job>
//!        │                        │ pop_batch (micro-batching)
//!        ▼                        ▼
//!   stop flag              scoring workers ──▶ score_items
//!                                 │      (score_text_triple_scratch)
//!                                 │                  │
//!                                 │            EmbeddingCache
//!                                 └─ reply channels back to conns
//! ```
//!
//! Consistency: the cache is keyed by exact entity text and the
//! encoder is a pure function of that text, so served scores are
//! bit-identical to offline [`pge_core::Detector`] scores regardless
//! of cache hits, evictions, or batch boundaries.

use crate::http::{self, ReadError, Request};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use pge_core::{CachedModel, EmbeddingCache, PgeModel, ScoreScratch};
use pge_obs::json::{self, Json};
use pge_obs::trace::{DEFAULT_RETAIN_CAP, DEFAULT_RING_CAPACITY, DEFAULT_SLOW_MS};
use pge_obs::{manifest_event, serve_event, trace_event, RetainedTrace, RunLog, Stage, Tracer};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 = ephemeral).
    pub addr: String,
    /// Scoring worker threads draining the queue.
    pub workers: usize,
    /// Embedding cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Bounded queue capacity in requests; overflow is shed with 503.
    pub queue_cap: usize,
    /// Maximum requests per micro-batch.
    pub max_batch: usize,
    /// Append run-log events (manifest at start, serving snapshot at
    /// shutdown) to this JSONL file. `None` disables run logging.
    pub runlog_path: Option<String>,
    /// Completed scoring requests at least this slow (or errored) are
    /// promoted into the retained trace set served by
    /// `GET /debug/trace` and dumped to the run log on shutdown.
    pub trace_slow: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            cache_cap: 4096,
            queue_cap: 256,
            max_batch: 32,
            runlog_path: None,
            trace_slow: Duration::from_millis(DEFAULT_SLOW_MS),
        }
    }
}

/// One triple to score, as raw text.
#[derive(Debug, Clone)]
pub struct ScoreItem {
    pub title: String,
    pub attr: String,
    pub value: String,
}

impl ScoreItem {
    /// Decode a `/v1/score` body: a JSON array of `{title, attr,
    /// value}` objects with string fields. Both serving tiers decode
    /// through here; `Err` is the message of their 400 response.
    pub fn parse_batch(body: &[u8]) -> Result<Vec<ScoreItem>, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let parsed = json::parse(text).map_err(|e| e.to_string())?;
        let raw_items = parsed
            .as_array()
            .ok_or_else(|| "expected a JSON array of {title, attr, value}".to_string())?;
        raw_items
            .iter()
            .enumerate()
            .map(|(i, it)| {
                let field = |k: &str| it.get(k).and_then(Json::as_str).map(str::to_string);
                match (field("title"), field("attr"), field("value")) {
                    (Some(title), Some(attr), Some(value)) => Ok(ScoreItem { title, attr, value }),
                    _ => Err(format!(
                        "item {i}: expected string fields title, attr, value"
                    )),
                }
            })
            .collect()
    }
}

/// Outcome for one item. `None` fields mean the attribute was unknown
/// to the model (no relation vector exists to score against).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemScore {
    pub plausibility: Option<f32>,
    pub is_error: Option<bool>,
}

/// Score `items` through the cached door, flagging plausibility ≤
/// `threshold` as an error; both serving tiers answer `/v1/score`
/// with this.
pub fn score_items(
    cm: &CachedModel,
    items: &[ScoreItem],
    threshold: f32,
    scratch: &mut ScoreScratch,
) -> Vec<ItemScore> {
    items
        .iter()
        .map(|it| {
            let p = cm.score_text_triple_scratch(&it.title, &it.attr, &it.value, scratch);
            ItemScore {
                plausibility: p,
                is_error: p.map(|p| p <= threshold),
            }
        })
        .collect()
}

/// Render scores as the `/v1/score` response body, the same JSON
/// shape from both serving tiers so clients cannot tell which scored
/// them.
pub fn render_scores(scores: &[ItemScore]) -> String {
    Json::Arr(
        scores
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    (
                        "plausibility".to_string(),
                        s.plausibility.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "is_error".to_string(),
                        s.is_error.map_or(Json::Null, Json::Bool),
                    ),
                ];
                if s.plausibility.is_none() {
                    pairs.push(("detail".to_string(), Json::Str("unknown attribute".into())));
                }
                Json::Obj(pairs)
            })
            .collect(),
    )
    .to_string()
}

struct Job {
    items: Vec<ScoreItem>,
    reply: mpsc::SyncSender<Vec<ItemScore>>,
    enqueued: Instant,
    /// Flight-recorder trace ID (see [`pge_obs::trace`]).
    trace: u64,
}

struct Shared {
    model: PgeModel,
    /// Plausibility ≤ threshold classifies as error.
    threshold: f32,
    cache: EmbeddingCache,
    metrics: Metrics,
    queue: BoundedQueue<Job>,
    /// Requests admitted to the queue whose response has not yet been
    /// written back to the socket; shutdown drains this to zero so no
    /// accepted request is ever dropped.
    in_flight: AtomicUsize,
    stop: AtomicBool,
    cfg: ServeConfig,
    runlog: Option<RunLog>,
    /// The always-on flight recorder + tail-sampled retained set.
    tracer: Tracer,
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.render(&self.shared.cache)
    }

    /// The `n` most recent tail-sampled traces, newest first — the
    /// same data `GET /debug/trace?n=K` serves.
    pub fn retained_traces(&self, n: usize) -> Vec<RetainedTrace> {
        self.shared.tracer.retained(n)
    }

    /// Change the slow-trace retention threshold at runtime.
    pub fn set_trace_threshold(&self, d: Duration) {
        self.shared.tracer.set_threshold(d);
    }

    /// Graceful shutdown: stop accepting, drain queued requests, join
    /// the workers, and wait until every admitted request's response
    /// has been written back — no accepted request is dropped.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // New pushes now fail; whatever is queued still gets scored.
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers have replied to every queued job; give the
        // connection threads (detached) time to flush those replies
        // onto their sockets. Deadline-bounded so a wedged peer
        // cannot hold shutdown hostage.
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(log) = &self.shared.runlog {
            let m = &self.shared.metrics;
            let ms = |q: f64| m.latency.quantile(q).unwrap_or(0.0) * 1e3;
            log.write(&serve_event(&[
                ("requests_total", m.requests_total.get() as f64),
                ("items_total", m.items_total.get() as f64),
                ("batches_total", m.batches_total.get() as f64),
                ("rejected_total", m.rejected_total.get() as f64),
                ("bad_requests_total", m.bad_requests_total.get() as f64),
                ("cache_hits", self.shared.cache.hits() as f64),
                ("cache_misses", self.shared.cache.misses() as f64),
                ("latency_p50_ms", ms(0.5)),
                ("latency_p99_ms", ms(0.99)),
            ]));
            // Dump the tail-sampled traces, oldest first, for
            // `pge trace` to replay offline.
            let mut kept = self.shared.tracer.retained(usize::MAX);
            kept.reverse();
            for t in &kept {
                log.write(&trace_event(t));
            }
        }
    }
}

/// Start serving `model` with the given fitted `threshold`. Returns
/// once the listener is bound.
pub fn start(model: PgeModel, threshold: f32, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let cache = EmbeddingCache::new(cfg.cache_cap);
    let metrics = Metrics::default();
    cache.install_encode_histogram(metrics.stage_encode.clone());

    let runlog = match &cfg.runlog_path {
        Some(path) => {
            let log = RunLog::create(path)?;
            log.write(&manifest_event(
                "serve",
                0,
                &[
                    ("addr".into(), addr.to_string()),
                    ("workers".into(), cfg.workers.to_string()),
                    ("cache_cap".into(), cfg.cache_cap.to_string()),
                    ("queue_cap".into(), cfg.queue_cap.to_string()),
                    ("max_batch".into(), cfg.max_batch.to_string()),
                ],
            ));
            Some(log)
        }
        None => None,
    };

    let shared = Arc::new(Shared {
        model,
        threshold,
        cache,
        metrics,
        queue: BoundedQueue::new(cfg.queue_cap.max(1)),
        in_flight: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        tracer: Tracer::new(DEFAULT_RING_CAPACITY, 0, cfg.trace_slow, DEFAULT_RETAIN_CAP),
        cfg: cfg.clone(),
        runlog,
    });

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("pge-score-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("pge-accept".into())
            .spawn(move || accept_loop(listener, &shared))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                // Connection threads are detached; they exit when the
                // peer closes, on idle timeout, or at shutdown.
                let _ = std::thread::Builder::new()
                    .name("pge-conn".into())
                    .spawn(move || connection_loop(stream, &shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                let keep_alive = req.keep_alive && !shared.stop.load(Ordering::SeqCst);
                if respond(&mut writer, shared, &req, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Bad { status, reason }) => {
                shared.metrics.bad_requests_total.inc();
                let body = error_json(reason);
                let _ = http::write_response(
                    &mut writer,
                    status,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                );
                return;
            }
            Err(ReadError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle keep-alive connection: hang up at shutdown,
                // otherwise keep waiting.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

fn error_json(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))]).to_string()
}

fn respond(w: &mut impl Write, shared: &Shared, req: &Request, keep_alive: bool) -> io::Result<()> {
    // The HTTP parser keeps the query string in the path; split it
    // off so `/debug/trace?n=5` dispatches on the bare path.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => http::write_response(w, 200, "text/plain", &[], b"ok\n", keep_alive),
        ("GET", "/metrics") => {
            let body = shared.metrics.render(&shared.cache);
            http::write_response(
                w,
                200,
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
                keep_alive,
            )
        }
        ("GET", "/debug/trace") => {
            let n = query
                .into_iter()
                .flat_map(|q| q.split('&'))
                .find_map(|kv| kv.strip_prefix("n="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(16);
            let body =
                Json::Arr(shared.tracer.retained(n).iter().map(trace_event).collect()).to_string();
            http::write_response(w, 200, "application/json", &[], body.as_bytes(), keep_alive)
        }
        ("POST", "/v1/score") => {
            let (status, extra, body, admitted) = handle_score(shared, &req.body);
            let extra: Vec<(&str, &str)> = extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let res = http::write_response(
                w,
                status,
                "application/json",
                &extra,
                body.as_bytes(),
                keep_alive,
            );
            // The response for an admitted request is on the wire (or
            // the peer is gone); either way it is no longer owed.
            if admitted {
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            res
        }
        (_, "/healthz" | "/metrics" | "/v1/score" | "/debug/trace") => http::write_response(
            w,
            405,
            "application/json",
            &[],
            error_json("method not allowed").as_bytes(),
            keep_alive,
        ),
        _ => http::write_response(
            w,
            404,
            "application/json",
            &[],
            error_json("no such endpoint").as_bytes(),
            keep_alive,
        ),
    }
}

type ExtraHeaders = Vec<(&'static str, String)>;

/// Returns `(status, extra headers, body, admitted)`; `admitted` is
/// true when the request entered the scoring queue and is being
/// tracked by the in-flight drain counter.
fn handle_score(shared: &Shared, body: &[u8]) -> (u16, ExtraHeaders, String, bool) {
    let bad = |msg: &str| {
        shared.metrics.bad_requests_total.inc();
        (400, Vec::new(), error_json(msg), false)
    };
    let items = match ScoreItem::parse_batch(body) {
        Ok(items) => items,
        Err(msg) => return bad(&msg),
    };
    if items.is_empty() {
        shared.metrics.requests_total.inc();
        return (200, Vec::new(), "[]".to_string(), false);
    }

    // The traced inference path starts here: one splitmix64 trace ID
    // follows the request through queue → worker → reply.
    let trace = shared.tracer.begin();
    let enqueued = Instant::now();
    shared
        .tracer
        .record(trace, Stage::Accept, items.len() as u64);
    shared
        .tracer
        .record(trace, Stage::QueueAdmit, shared.queue.len() as u64);
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job {
        items,
        reply: tx,
        enqueued,
        trace,
    };
    // Count before pushing: a worker may drain the job and a racing
    // shutdown observe in_flight before this thread resumes.
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if let Err((_job, e)) = shared.queue.try_push(job) {
        debug_assert!(matches!(e, PushError::Full | PushError::Closed));
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.rejected_total.inc();
        // A shed request is an errored trace: always retained.
        shared.tracer.record(trace, Stage::Error, 503);
        shared.tracer.finish(trace, enqueued.elapsed(), true);
        return (
            503,
            vec![("retry-after", "1".to_string())],
            error_json("scoring queue full, retry later"),
            false,
        );
    }
    shared.metrics.requests_total.inc();
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(scores) => {
            let body = render_scores(&scores);
            shared
                .tracer
                .record(trace, Stage::WriteBack, body.len() as u64);
            shared.tracer.finish(trace, enqueued.elapsed(), false);
            (200, Vec::new(), body, true)
        }
        Err(_) => {
            shared.tracer.record(trace, Stage::Error, 500);
            shared.tracer.finish(trace, enqueued.elapsed(), true);
            (500, Vec::new(), error_json("scoring timed out"), true)
        }
    }
}

fn worker_loop(shared: &Shared) {
    let cm = CachedModel::new(&shared.model, &shared.cache);
    let mut scratch = ScoreScratch::default();
    let mut jobs: Vec<Job> = Vec::new();
    while shared.queue.pop_batch(shared.cfg.max_batch, &mut jobs) {
        shared.metrics.batches_total.inc();
        for job in &jobs {
            // Queue wait: enqueue → this worker picking the job up.
            shared.tracer.record(job.trace, Stage::Dequeue, 0);
            shared
                .metrics
                .stage_queue_wait
                .observe(job.enqueued.elapsed().as_secs_f64());
            shared
                .tracer
                .record(job.trace, Stage::BatchAssemble, jobs.len() as u64);
            // Cache hit/miss deltas are skipped here on purpose: the
            // cache is shared across workers, so per-job deltas would
            // misattribute concurrent activity (the gateway's
            // one-worker-per-replica traces carry them instead).
            shared
                .tracer
                .record(job.trace, Stage::Score, job.items.len() as u64);
        }

        // Score time covers the whole micro-batch; encoder forwards on
        // cache misses happen inside it and are additionally broken
        // out in `stage_encode` via the cache's histogram hook.
        let score_start = Instant::now();
        let results: Vec<Vec<ItemScore>> = jobs
            .iter()
            .map(|j| score_items(&cm, &j.items, shared.threshold, &mut scratch))
            .collect();
        shared
            .metrics
            .stage_score
            .observe(score_start.elapsed().as_secs_f64());

        let total_items: usize = jobs.iter().map(|j| j.items.len()).sum();
        shared.metrics.items_total.add(total_items as u64);
        for (job, result) in jobs.drain(..).zip(results) {
            shared
                .metrics
                .latency
                .observe(job.enqueued.elapsed().as_secs_f64());
            // The receiver may have timed out and gone; that's fine.
            let _ = job.reply.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_batch_decodes_items_in_order() {
        let body = r#"[{"title":"Mint Chips é","attr":"flavor","value":"mint"},
                       {"value":"x","attr":"brand","title":"t","extra":1}]"#;
        let items = ScoreItem::parse_batch(body.as_bytes()).unwrap();
        let triples: Vec<_> = items
            .iter()
            .map(|it| (it.title.as_str(), it.attr.as_str(), it.value.as_str()))
            .collect();
        assert_eq!(
            triples,
            [("Mint Chips é", "flavor", "mint"), ("t", "brand", "x")]
        );
        assert!(ScoreItem::parse_batch(b"[]").unwrap().is_empty());
    }

    #[test]
    fn parse_batch_error_wording_is_pinned() {
        // Both tiers answer these verbatim in their 400 bodies.
        for (body, message) in [
            (&b"[\xff]"[..], "body is not UTF-8"),
            (b"[{", "invalid JSON at byte 2: expected '\"'"),
            (
                br#"{"title":"t"}"#,
                "expected a JSON array of {title, attr, value}",
            ),
            (
                br#"[{"title":"t","attr":"a","value":"v"},{"title":"t","attr":"a","value":1}]"#,
                "item 1: expected string fields title, attr, value",
            ),
        ] {
            assert_eq!(ScoreItem::parse_batch(body).unwrap_err(), message);
        }
    }
}
