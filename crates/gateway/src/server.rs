//! The gateway front end: one epoll event loop fanning requests out
//! to scoring replicas and writing pipelined responses back in order.
//!
//! ```text
//!   TcpListener ─▶ epoll event loop (single thread, non-blocking)
//!        │            │ parse HTTP incrementally, route by
//!        │            │ consistent hash of the subject title
//!        │            ▼
//!        │     replica queues (bounded; overflow → 503)
//!        │       r0      r1      r2 ...
//!        │        │       │       │   one worker each, own
//!        │        ▼       ▼       ▼   model Arc + cache shard
//!        │     completion sink ──wake pipe──▶ event loop
//!        │                                    (ordered write-back)
//!        └─ admin: /admin/reload, SIGHUP ─▶ reload thread
//!                  (load snapshot off-loop, swap per replica)
//! ```
//!
//! The event loop never blocks on a socket, a model, or the disk:
//! scoring runs on replica workers, snapshot loading on a dedicated
//! reload thread, and both hand results back through the completion
//! sink plus a wake pipe. Shutdown drains: the listener is
//! deregistered, buffered requests finish, and the loop exits only
//! once every admitted request's response is on the wire (or a
//! deadline expires).

use crate::conn::Conn;
use crate::epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::metrics::GatewayMetrics;
use crate::replica::{worker_loop, Completion, CompletionSink, Job, ModelState, Replica};
use crate::ring::HashRing;
use pge_core::{load_model_auto_path, Detector, PersistError, PgeModel};
use pge_graph::{LabeledTriple, ProductGraph};
use pge_obs::json::{self, Json};
use pge_obs::trace::{DEFAULT_RETAIN_CAP, DEFAULT_RING_CAPACITY, DEFAULT_SLOW_MS};
use pge_obs::{
    manifest_event, spans_event, stats_event, trace_event, RetainedTrace, RunLog, Stage, Tracer,
};
use pge_serve::http::{self, ReadError};
use pge_serve::ScoreItem;
use pge_store::{MmapMode, DEFAULT_RESIDENT_BUDGET};
use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address (port 0 = ephemeral).
    pub addr: String,
    /// Scoring replicas; each owns a queue, a worker, and a cache
    /// shard.
    pub replicas: usize,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Embedding-cache capacity per replica (0 disables caching).
    pub cache_cap: usize,
    /// Per-replica queue capacity; overflow is shed with 503.
    pub queue_cap: usize,
    /// Maximum jobs per worker micro-batch.
    pub max_batch: usize,
    /// Snapshot to (re)load on SIGHUP or a body-less
    /// `POST /admin/reload`.
    pub model_path: Option<String>,
    /// Backing for reloaded PGEBIN02 snapshots: mapped (rows served
    /// off the page cache) or a heap copy. Ignored by the other
    /// formats.
    pub mmap: MmapMode,
    /// Append run-log events here; `None` disables run logging.
    pub runlog_path: Option<String>,
    /// Longest the drain phase may take before remaining connections
    /// are cut.
    pub drain_timeout: Duration,
    /// Completed scoring requests at least this slow (or errored) are
    /// promoted into the retained trace set served by
    /// `GET /debug/trace` and dumped to the run log on shutdown.
    pub trace_slow: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7900".into(),
            replicas: 2,
            vnodes: HashRing::DEFAULT_VNODES,
            cache_cap: 4096,
            queue_cap: 256,
            max_batch: 32,
            model_path: None,
            mmap: MmapMode::Auto,
            runlog_path: None,
            drain_timeout: Duration::from_secs(30),
            trace_slow: Duration::from_millis(DEFAULT_SLOW_MS),
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;

struct Shared {
    replicas: Vec<Arc<Replica>>,
    ring: HashRing,
    metrics: GatewayMetrics,
    sink: Arc<CompletionSink>,
    /// Current snapshot generation (0 at start, +1 per swap).
    version: AtomicU64,
    /// A reload is in progress; concurrent reloads answer 409.
    reload_busy: AtomicBool,
    /// Shutdown requested: stop accepting, drain, exit.
    stop: AtomicBool,
    /// The event loop has entered its drain phase (responses render
    /// `Connection: close`).
    draining: AtomicBool,
    graph: ProductGraph,
    valid: Vec<LabeledTriple>,
    cfg: GatewayConfig,
    runlog: Option<RunLog>,
    /// The always-on flight recorder + tail-sampled retained set.
    tracer: Tracer,
}

/// A failed reload, classified for the caller: `retryable` marks
/// transient states (snapshot mid-write → truncated payload or bad
/// CRC) where the client should back off and resend, versus hard
/// errors (missing file, graph mismatch) that retrying won't fix.
#[derive(Debug)]
struct ReloadError {
    msg: String,
    retryable: bool,
}

/// Clears `reload_busy` when dropped, so the busy flag cannot leak on
/// any exit path — early return, load error, or a panic unwinding the
/// reload thread. Without this a panicked reload left the gateway
/// answering 409 to every subsequent reload forever.
struct ReloadGuard {
    shared: Arc<Shared>,
}

impl ReloadGuard {
    /// Claim the reload slot; `None` when a reload is already running.
    fn acquire(shared: &Arc<Shared>) -> Option<Self> {
        if shared.reload_busy.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(Self {
            shared: shared.clone(),
        })
    }
}

impl Drop for ReloadGuard {
    fn drop(&mut self) {
        self.shared.reload_busy.store(false, Ordering::SeqCst);
    }
}

impl Shared {
    /// Install `model` (with `threshold`) on every replica. Each gets
    /// a fresh cache — cached vectors are a function of the weights.
    fn swap_model(&self, model: Arc<PgeModel>, threshold: f32) -> u64 {
        let v = self.version.fetch_add(1, Ordering::SeqCst) + 1;
        for r in &self.replicas {
            r.swap(ModelState::new(
                model.clone(),
                threshold,
                self.cfg.cache_cap,
                v,
            ));
        }
        self.metrics.swaps_total.inc();
        self.metrics.model_version.set(v as f64);
        if let Some(log) = &self.runlog {
            log.write(&stats_event(
                "gateway",
                &[("swap", 1.0), ("version", v as f64)],
            ));
        }
        v
    }

    /// Load a PGEBIN02 snapshot from disk and swap it in. Runs on a
    /// reload thread, never on the event loop. A failed load leaves
    /// the serving model untouched.
    fn reload_from_path(&self, path: &str) -> Result<u64, ReloadError> {
        // Opened through the store (honoring cfg.mmap), so a
        // hot-swapped model with an embedding bank keeps serving rows
        // off the page cache.
        let model = load_model_auto_path(
            std::path::Path::new(path),
            &self.graph,
            self.cfg.mmap,
            DEFAULT_RESIDENT_BUDGET,
        )
        .map_err(|e| ReloadError {
            // A snapshot the pusher is still writing reads as a bad
            // magic/CRC or truncated payload; the next attempt, after
            // the writer finishes, will see the complete file. A
            // retired format (`Parse`) never will.
            retryable: matches!(e, PersistError::Corrupt(_) | PersistError::UnknownFormat(_)),
            msg: format!("load {path}: {e}"),
        })?;
        // Refit the decision threshold on the validation split; with
        // no split available the current threshold carries over.
        let threshold = if self.valid.is_empty() {
            self.replicas[0].current().threshold
        } else {
            Detector::fit(&model, &self.graph, &self.valid).threshold
        };
        Ok(self.swap_model(Arc::new(model), threshold))
    }

    fn metrics_text(&self) -> String {
        for (i, r) in self.replicas.iter().enumerate() {
            let st = r.current();
            self.metrics.replicas[i]
                .cache_hits
                .set(st.cache.hits() as f64);
            self.metrics.replicas[i]
                .cache_misses
                .set(st.cache.misses() as f64);
            self.metrics.replicas[i]
                .queue_depth
                .set(r.queue.len() as f64);
        }
        self.metrics.render()
    }
}

/// A running gateway; dropping the handle does NOT stop it — call
/// [`GatewayHandle::shutdown`].
pub struct GatewayHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl GatewayHandle {
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Current snapshot generation.
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::SeqCst)
    }

    /// Max-over-mean routed share across replicas (1.0 = even).
    pub fn routing_skew(&self) -> f64 {
        self.shared.metrics.routing_skew()
    }

    /// Hot-swap to an in-memory model (tests and embedding callers);
    /// returns the new version.
    pub fn swap_model(&self, model: PgeModel, threshold: f32) -> u64 {
        self.shared.swap_model(Arc::new(model), threshold)
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

    /// Fault injection (tests and latency drills): stall replica
    /// `ix`'s worker by `d` before each batch. The delay must show up
    /// in retained traces as queue time on that replica.
    pub fn set_replica_stall(&self, ix: usize, d: Duration) {
        if let Some(r) = self.shared.replicas.get(ix) {
            r.set_stall(d);
        }
    }

    /// Hot-swap from a snapshot file, refitting the threshold on the
    /// validation split the gateway was started with. The same path
    /// `POST /admin/reload` and SIGHUP take.
    pub fn reload_from_path(&self, path: &str) -> Result<u64, String> {
        let Some(_guard) = ReloadGuard::acquire(&self.shared) else {
            return Err("reload already in progress".into());
        };
        self.shared.reload_from_path(path).map_err(|e| e.msg)
    }

    /// Graceful shutdown: stop accepting, finish every admitted
    /// request, flush every response, then tear down the replicas.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.sink.wake.notify();
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        // The drained loop closed the queues; workers exit once empty.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(log) = &self.shared.runlog {
            let m = &self.shared.metrics;
            let ms = |q: f64| m.latency.quantile(q).unwrap_or(0.0) * 1e3;
            log.write(&stats_event(
                "gateway",
                &[
                    ("requests_total", m.requests_total.get() as f64),
                    ("responses_total", m.responses_total.get() as f64),
                    ("rejected_total", m.rejected_total.get() as f64),
                    ("bad_requests_total", m.bad_requests_total.get() as f64),
                    ("accepted_total", m.accepted_total.get() as f64),
                    ("swaps_total", m.swaps_total.get() as f64),
                    ("model_version", m.model_version.get()),
                    ("routing_skew", m.routing_skew()),
                    ("latency_p50_ms", ms(0.5)),
                    ("latency_p99_ms", ms(0.99)),
                ],
            ));
            // Tail-sampled traces, oldest first, then the span totals
            // the gateway accumulated (event loop, batches, swaps) so
            // `pge report` stops skipping the gateway entirely.
            let mut kept = self.shared.tracer.retained(usize::MAX);
            kept.reverse();
            for t in &kept {
                log.write(&trace_event(t));
            }
            log.write(&spans_event());
        }
    }
}

/// Start the gateway serving `model` (decision threshold `threshold`)
/// over `graph`. `valid` is kept for threshold refits on reload; pass
/// an empty slice to carry the threshold across swaps unchanged.
/// Returns once the listener is bound.
pub fn start(
    model: PgeModel,
    graph: ProductGraph,
    valid: Vec<LabeledTriple>,
    threshold: f32,
    cfg: GatewayConfig,
) -> io::Result<GatewayHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let n_replicas = cfg.replicas.max(1);
    let metrics = GatewayMetrics::new(n_replicas);
    let model = Arc::new(model);
    let replicas: Vec<Arc<Replica>> = (0..n_replicas)
        .map(|_| {
            Arc::new(Replica::new(
                ModelState::new(model.clone(), threshold, cfg.cache_cap, 0),
                cfg.queue_cap,
            ))
        })
        .collect();

    let runlog = match &cfg.runlog_path {
        Some(path) => {
            // With a run log the shutdown snapshot includes span
            // totals; make sure they actually accumulate.
            pge_obs::set_spans_enabled(true);
            let log = RunLog::create(path)?;
            log.write(&manifest_event(
                "gateway",
                0,
                &[
                    ("addr".into(), addr.to_string()),
                    ("replicas".into(), n_replicas.to_string()),
                    ("vnodes".into(), cfg.vnodes.to_string()),
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
        ring: HashRing::new(n_replicas as u32, cfg.vnodes.max(1)),
        replicas,
        metrics,
        sink: Arc::new(CompletionSink::new()?),
        version: AtomicU64::new(0),
        reload_busy: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        graph,
        valid,
        // Trace IDs are deterministic under the fixed seed; the ring
        // is always on.
        tracer: Tracer::new(DEFAULT_RING_CAPACITY, 0, cfg.trace_slow, DEFAULT_RETAIN_CAP),
        cfg: cfg.clone(),
        runlog,
    });

    let workers = (0..n_replicas)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("pge-gw-replica-{i}"))
                .spawn(move || {
                    worker_loop(
                        i,
                        &shared.replicas[i],
                        &shared.sink,
                        &shared.metrics,
                        &shared.tracer,
                        shared.cfg.max_batch,
                    )
                })
                .expect("spawn replica worker")
        })
        .collect();

    let event_loop = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("pge-gw-loop".into())
            .spawn(move || run_event_loop(listener, &shared))
            .expect("spawn event loop")
    };

    Ok(GatewayHandle {
        addr,
        shared,
        event_loop: Some(event_loop),
        workers,
    })
}

fn error_json(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))]).to_string()
}

/// Queue a rendered response on the connection, in sequence order.
fn respond_inline(
    conn: &mut Conn,
    seq: u64,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    shared: &Shared,
) {
    let keep_alive = conn.response_keep_alive(seq) && !shared.draining.load(Ordering::SeqCst);
    conn.complete(
        seq,
        http::render_response(status, content_type, extra, body, keep_alive),
    );
    shared.metrics.responses_total.inc();
}

/// Route one parsed request: answer inline, hand to a replica, or
/// kick off a reload thread.
fn dispatch(conn: &mut Conn, token: u64, seq: u64, req: http::Request, shared: &Arc<Shared>) {
    let inline_json = |conn: &mut Conn, status: u16, body: &str| {
        respond_inline(
            conn,
            seq,
            status,
            "application/json",
            &[],
            body.as_bytes(),
            shared,
        );
    };
    // The HTTP parser keeps the query string in the path; split it
    // off so `/debug/trace?n=5` dispatches on the bare path.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            respond_inline(conn, seq, 200, "text/plain", &[], b"ok\n", shared);
        }
        ("GET", "/metrics") => {
            let body = shared.metrics_text();
            respond_inline(
                conn,
                seq,
                200,
                "text/plain; version=0.0.4",
                &[],
                body.as_bytes(),
                shared,
            );
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
            inline_json(conn, 200, &body);
        }
        ("GET", "/admin/version") => {
            let body = Json::Obj(vec![
                (
                    "version".into(),
                    Json::Num(shared.version.load(Ordering::SeqCst) as f64),
                ),
                ("replicas".into(), Json::Num(shared.replicas.len() as f64)),
            ])
            .to_string();
            inline_json(conn, 200, &body);
        }
        ("POST", "/v1/score") => {
            let items = match ScoreItem::parse_batch(&req.body) {
                Ok(items) => items,
                Err(msg) => {
                    shared.metrics.bad_requests_total.inc();
                    inline_json(conn, 400, &error_json(&msg));
                    return;
                }
            };
            if items.is_empty() {
                inline_json(conn, 200, "[]");
                return;
            }
            // The traced inference path starts here: one splitmix64
            // trace ID follows the request through route → queue →
            // worker → write-back.
            let trace = shared.tracer.begin();
            let enqueued = Instant::now();
            shared.tracer.record(trace, Stage::Accept, token);
            // Cache affinity: route by the subject title so repeat
            // titles land on the replica whose cache already holds
            // their embedding.
            let r = shared.ring.route(&items[0].title) as usize;
            shared.tracer.record(trace, Stage::Route, r as u64);
            conn.pending += 1;
            let replica = &shared.replicas[r];
            shared
                .tracer
                .record(trace, Stage::QueueAdmit, replica.queue.len() as u64);
            let job = Job {
                conn: token,
                seq,
                items,
                enqueued,
                trace,
            };
            if replica.queue.try_push(job).is_err() {
                conn.pending -= 1;
                shared.metrics.rejected_total.inc();
                // A shed request is an errored trace: always retained.
                shared.tracer.record(trace, Stage::Error, 503);
                shared.tracer.finish(trace, enqueued.elapsed(), true);
                let body = error_json("scoring queue full, retry later");
                respond_inline(
                    conn,
                    seq,
                    503,
                    "application/json",
                    &[("retry-after", "1")],
                    body.as_bytes(),
                    shared,
                );
            } else {
                shared.metrics.replicas[r].routed_total.inc();
                shared.metrics.replicas[r]
                    .queue_depth
                    .set(replica.queue.len() as f64);
            }
        }
        ("POST", "/admin/reload") => {
            // Optional body {"path": "..."} overrides the configured
            // snapshot path.
            let body_path = (!req.body.is_empty())
                .then(|| {
                    std::str::from_utf8(&req.body)
                        .ok()
                        .and_then(|t| json::parse(t).ok())
                        .and_then(|j| j.get("path").and_then(Json::as_str).map(str::to_string))
                })
                .flatten();
            let Some(path) = body_path.or_else(|| shared.cfg.model_path.clone()) else {
                shared.metrics.bad_requests_total.inc();
                inline_json(
                    conn,
                    422,
                    &error_json("no snapshot path: send {\"path\": ...} or start with --model"),
                );
                return;
            };
            let Some(guard) = ReloadGuard::acquire(shared) else {
                inline_json(conn, 409, &error_json("reload already in progress"));
                return;
            };
            conn.pending += 1;
            let shared = shared.clone();
            let enqueued = Instant::now();
            // Snapshot loading (disk + CRC + threshold refit) happens
            // on its own thread; the event loop keeps serving and the
            // answer comes back through the completion sink. The guard
            // rides along so `reload_busy` clears even if the load
            // panics; a failed spawn drops it right here.
            let spawned = std::thread::Builder::new()
                .name("pge-gw-reload".into())
                .spawn(move || {
                    let loaded = shared.reload_from_path(&path);
                    // Released before the answer is published: a client
                    // that retries the instant it reads a 503 must not
                    // find `reload_busy` still set and get a 409.
                    drop(guard);
                    let (status, body) = match loaded {
                        Ok(v) => (
                            200,
                            Json::Obj(vec![
                                ("swapped".into(), Json::Bool(true)),
                                ("version".into(), Json::Num(v as f64)),
                            ])
                            .to_string(),
                        ),
                        // 503 + retryable: the snapshot is likely
                        // still being written; clients back off and
                        // resend. Hard failures are 500 and say so.
                        Err(e) => (
                            if e.retryable { 503 } else { 500 },
                            Json::Obj(vec![
                                ("error".into(), Json::Str(e.msg)),
                                ("retryable".into(), Json::Bool(e.retryable)),
                            ])
                            .to_string(),
                        ),
                    };
                    shared.sink.push_all([Completion {
                        conn: token,
                        seq,
                        status,
                        body,
                        enqueued,
                        trace: 0,
                    }]);
                });
            if spawned.is_err() {
                conn.pending -= 1;
                inline_json(conn, 500, &error_json("could not spawn reload thread"));
            }
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/score" | "/admin/reload" | "/admin/version"
            | "/debug/trace",
        ) => {
            inline_json(conn, 405, &error_json("method not allowed"));
        }
        _ => {
            inline_json(conn, 404, &error_json("no such endpoint"));
        }
    }
}

/// Parse every complete pipelined request sitting in the read buffer.
///
/// Requests parse from a cursor and the buffer drains once at the
/// end, so a backlog of N pipelined requests costs the loop thread
/// O(N) byte moves, not O(N²).
fn parse_buffered(conn: &mut Conn, token: u64, shared: &Arc<Shared>) {
    let mut consumed = 0;
    while conn.close_after.is_none() {
        match http::try_parse_request(&conn.rbuf[consumed..]) {
            Ok(Some((req, n))) => {
                consumed += n;
                let seq = conn.claim_seq();
                shared.metrics.requests_total.inc();
                if !req.keep_alive {
                    conn.close_after = Some(seq);
                }
                dispatch(conn, token, seq, req, shared);
            }
            Ok(None) => break,
            Err(ReadError { status, reason }) => {
                shared.metrics.bad_requests_total.inc();
                let seq = conn.claim_seq();
                // Malformed framing poisons everything after it on
                // the stream: answer, then close.
                conn.close_after = Some(seq);
                consumed = conn.rbuf.len();
                respond_inline(
                    conn,
                    seq,
                    status,
                    "application/json",
                    &[],
                    error_json(reason).as_bytes(),
                    shared,
                );
                break;
            }
        }
    }
    conn.rbuf.drain(..consumed);
}

/// Non-blocking read into the connection buffer, then parse.
fn read_and_parse(conn: &mut Conn, token: u64, shared: &Arc<Shared>) -> Result<(), ()> {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    parse_buffered(conn, token, shared);
    Ok(())
}

/// Write as much of the pending response bytes as the socket accepts,
/// draining what was written once at the end.
fn flush(conn: &mut Conn) -> Result<(), ()> {
    let mut written = 0;
    let result = loop {
        if written == conn.wbuf.len() {
            break Ok(());
        }
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => break Err(()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break Err(()),
        }
    };
    conn.wbuf.drain(..written);
    result
}

/// Post-event bookkeeping for one connection: opportunistic flush,
/// close check, epoll interest reconciliation. Returns `true` when
/// the connection should be closed.
fn settle(conn: &mut Conn, token: u64, epoll: &Epoll, draining: bool) -> bool {
    if conn.wants_write() && flush(conn).is_err() {
        return true;
    }
    if conn.should_close() {
        return true;
    }
    let reads = !(draining || conn.peer_closed || conn.close_after.is_some());
    let want = if reads { EPOLLIN | EPOLLRDHUP } else { 0 }
        | if conn.wants_write() { EPOLLOUT } else { 0 };
    if want != conn.interest {
        if epoll.modify(conn.stream.as_raw_fd(), want, token).is_err() {
            return true;
        }
        conn.interest = want;
    }
    false
}

fn run_event_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let epoll = Epoll::new().expect("epoll_create1");
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .expect("register listener");
    epoll
        .add(shared.sink.wake.read_fd(), EPOLLIN, TOKEN_WAKE)
        .expect("register wake pipe");

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![Event::default(); 1024];
    let mut completions: Vec<Completion> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        let n = epoll.wait(&mut events, 100).expect("epoll_wait");
        touched.clear();
        for ev in &events[..n] {
            let (token, ready) = (ev.token(), ev.readiness());
            match token {
                TOKEN_LISTENER => {
                    if draining {
                        continue;
                    }
                    loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let _ = stream.set_nonblocking(true);
                                let _ = stream.set_nodelay(true);
                                let token = next_token;
                                next_token += 1;
                                let mut conn = Conn::new(stream);
                                let interest = EPOLLIN | EPOLLRDHUP;
                                if epoll.add(conn.stream.as_raw_fd(), interest, token).is_err() {
                                    continue; // fd exhausted; drop it
                                }
                                conn.interest = interest;
                                conns.insert(token, conn);
                                shared.metrics.accepted_total.inc();
                                shared.metrics.connections.set(conns.len() as f64);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                TOKEN_WAKE => shared.sink.wake.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut drop_now = ready & (EPOLLERR | EPOLLHUP) != 0;
                    if !drop_now && ready & EPOLLRDHUP != 0 {
                        conn.peer_closed = true;
                    }
                    if !drop_now && !draining && ready & (EPOLLIN | EPOLLRDHUP) != 0 {
                        drop_now = read_and_parse(conn, token, shared).is_err();
                    }
                    if !drop_now && ready & EPOLLOUT != 0 {
                        drop_now = flush(conn).is_err();
                    }
                    if drop_now {
                        let conn = conns.remove(&token).expect("present");
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        shared.metrics.connections.set(conns.len() as f64);
                    } else {
                        touched.push(token);
                    }
                }
            }
        }

        // Apply completions from replica workers and reload threads.
        // Drained every iteration so a wake race can never strand one.
        shared.sink.drain_into(&mut completions);
        for c in completions.drain(..) {
            // The connection may have died while its job was queued;
            // the completion is then simply dropped.
            let Some(conn) = conns.get_mut(&c.conn) else {
                continue;
            };
            let total = c.enqueued.elapsed();
            shared.metrics.latency.observe(total.as_secs_f64());
            // Completion is the one point where end-to-end latency is
            // known — the tail-sampling keep/drop decision lives here.
            if c.trace != 0 {
                shared
                    .tracer
                    .record(c.trace, Stage::WriteBack, c.body.len() as u64);
                shared.tracer.finish(c.trace, total, c.status >= 500);
            }
            conn.pending -= 1;
            let keep_alive = conn.response_keep_alive(c.seq) && !draining;
            conn.complete(
                c.seq,
                http::render_response(
                    c.status,
                    "application/json",
                    &[],
                    c.body.as_bytes(),
                    keep_alive,
                ),
            );
            shared.metrics.responses_total.inc();
            touched.push(c.conn);
        }

        // Entering drain: deregister the listener, finish what is
        // buffered, and flip every response to `Connection: close`.
        if !draining && shared.stop.load(Ordering::SeqCst) {
            draining = true;
            shared.draining.store(true, Ordering::SeqCst);
            drain_deadline = Instant::now() + shared.cfg.drain_timeout;
            let _ = epoll.delete(listener.as_raw_fd());
            // Requests already buffered still count as accepted work.
            for (&token, conn) in conns.iter_mut() {
                parse_buffered(conn, token, shared);
                touched.push(token);
            }
        }

        // Settle every connection something happened to.
        touched.sort_unstable();
        touched.dedup();
        for &token in &touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if settle(conn, token, &epoll, draining) {
                let conn = conns.remove(&token).expect("present");
                let _ = epoll.delete(conn.stream.as_raw_fd());
                shared.metrics.connections.set(conns.len() as f64);
            }
        }

        if draining {
            let settled = conns.values().all(Conn::is_settled);
            if settled || Instant::now() >= drain_deadline {
                break;
            }
        }
    }

    // Every admitted request is answered (or the deadline hit);
    // closing the queues lets the replica workers exit.
    for r in &shared.replicas {
        r.queue.close();
    }
    shared.metrics.connections.set(0.0);
}
