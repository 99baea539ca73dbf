//! Scoring replicas: per-replica model state, bounded job queue, and
//! the worker loop that scores micro-batches and posts completions
//! back to the event loop.
//!
//! Hot-swap protocol: each replica holds its current [`ModelState`]
//! behind an `RwLock<Arc<_>>`. Workers clone the `Arc` once per
//! micro-batch, so a swap never stalls or fails an in-flight request
//! — jobs already picked up finish on the snapshot they started
//! with, and the next batch sees the new one. A worker idle for
//! `IDLE_RELEASE` holds no state. The embedding cache lives *inside*
//! the state and is replaced with it: cached vectors are a function of
//! the model weights, so a swapped model must start from a cold cache
//! or it would serve stale embeddings.

use crate::epoll::WakePipe;
use crate::metrics::GatewayMetrics;
use parking_lot::{Mutex, RwLock};
use pge_core::{CachedModel, EmbeddingCache, PgeModel, ScoreScratch};
use pge_obs::{span, Stage, Tracer};
use pge_serve::queue::BoundedQueue;
pub use pge_serve::render_scores;
use pge_serve::{score_items, ItemScore, ScoreItem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a replica needs to answer a scoring request, swapped as
/// one unit. The model is shared across replicas via `Arc` (weights
/// are immutable); the cache shard is per replica, so each replica
/// stays hot for exactly the slice of the catalog the ring routes to
/// it.
pub struct ModelState {
    pub model: Arc<PgeModel>,
    /// Plausibility ≤ threshold classifies as error.
    pub threshold: f32,
    pub cache: EmbeddingCache,
    /// Snapshot generation: 0 at start, +1 per completed swap.
    pub version: u64,
}

impl ModelState {
    pub fn new(model: Arc<PgeModel>, threshold: f32, cache_cap: usize, version: u64) -> Self {
        ModelState {
            model,
            threshold,
            cache: EmbeddingCache::new(cache_cap),
            version,
        }
    }

    /// Score a request's items through the replica's cache, in a
    /// session of their own. Identical math to offline
    /// `Detector::scores`: the cache is keyed by exact text and the
    /// encoder is pure, so served plausibilities are bit-identical to
    /// scoring the same triples offline. [`worker_loop`] scores through
    /// the same [`score_items`] but keeps its session across jobs.
    pub fn score_items(&self, items: &[ScoreItem]) -> Vec<ItemScore> {
        let cm = CachedModel::new(&self.model, &self.cache);
        score_items(&cm, items, self.threshold, &mut ScoreScratch::default())
    }
}

/// One scoring request in flight: which connection and pipeline slot
/// it answers, and what to score.
pub struct Job {
    /// Event-loop connection token.
    pub conn: u64,
    /// Pipeline sequence within the connection (responses must be
    /// written back in this order).
    pub seq: u64,
    pub items: Vec<ScoreItem>,
    pub enqueued: Instant,
    /// Flight-recorder trace ID (0 = untraced).
    pub trace: u64,
}

/// A finished job on its way back to the event loop.
pub struct Completion {
    pub conn: u64,
    pub seq: u64,
    pub status: u16,
    pub body: String,
    pub enqueued: Instant,
    /// Flight-recorder trace ID (0 = untraced, e.g. admin reloads).
    pub trace: u64,
}

/// Where workers (and reload threads) deposit completions; the event
/// loop drains it after a wake-pipe poke.
pub struct CompletionSink {
    done: Mutex<Vec<Completion>>,
    pub wake: WakePipe,
}

impl CompletionSink {
    pub fn new() -> std::io::Result<CompletionSink> {
        Ok(CompletionSink {
            done: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
        })
    }

    /// Deposit completions and wake the event loop once.
    pub fn push_all(&self, completions: impl IntoIterator<Item = Completion>) {
        let mut done = self.done.lock();
        done.extend(completions);
        drop(done);
        self.wake.notify();
    }

    /// Take everything deposited so far.
    pub fn drain_into(&self, out: &mut Vec<Completion>) {
        out.append(&mut self.done.lock());
    }
}

/// One scoring replica: its hot-swappable state and its job queue.
pub struct Replica {
    pub state: RwLock<Arc<ModelState>>,
    pub queue: BoundedQueue<Job>,
    /// Fault injection for tests and latency drills: the worker
    /// sleeps this long before each batch (0 = off). The delay lands
    /// between a job's `queue_admit` and `dequeue` trace events, so
    /// an injected stall must surface in the slow-trace waterfall as
    /// queue time on this replica.
    pub stall_nanos: AtomicU64,
}

impl Replica {
    pub fn new(state: ModelState, queue_cap: usize) -> Self {
        Replica {
            state: RwLock::new(Arc::new(state)),
            queue: BoundedQueue::new(queue_cap.max(1)),
            stall_nanos: AtomicU64::new(0),
        }
    }

    /// The current state (an `Arc` clone; cheap).
    pub fn current(&self) -> Arc<ModelState> {
        self.state.read().clone()
    }

    /// Atomically install a new state. In-flight batches keep the old
    /// `Arc` until they finish.
    pub fn swap(&self, state: ModelState) {
        let _swap_span = span("gateway.swap");
        *self.state.write() = Arc::new(state);
    }

    /// Set the fault-injection stall applied before each batch.
    pub fn set_stall(&self, d: Duration) {
        self.stall_nanos
            .store(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// How long an idle worker keeps its session before it lets the state
/// go. Under load the next job comes well within it.
const IDLE_RELEASE: Duration = Duration::from_millis(10);

/// Worker loop for replica `ix`: drain micro-batches, score each job
/// against the state current at batch start, post completions, poke
/// the event loop. Exits when the queue is closed and empty.
///
/// The worker keeps one [`ScoreScratch`] (title memo and encoder
/// buffers) for its whole life. A session — a [`ModelState`] and its
/// [`CachedModel`] (prepared relations and attribute index) — lasts
/// while batches keep coming on one state. It ends when a batch
/// starts on a new state, and when no job has come for
/// `IDLE_RELEASE`: the worker then waits holding no state, so a
/// swapped-out model and cache are freed also on a replica that gets
/// no more traffic. A new session has a new memo tag, so nothing
/// memoized crosses a swap.
pub fn worker_loop(
    ix: usize,
    replica: &Replica,
    sink: &CompletionSink,
    metrics: &GatewayMetrics,
    tracer: &Tracer,
    max_batch: usize,
) {
    let rm = &metrics.replicas[ix];
    let max_batch = max_batch.max(1);
    let mut jobs: Vec<Job> = Vec::new();
    let mut out: Vec<Completion> = Vec::new();
    let mut scratch = ScoreScratch::default();
    // Open the span of the batch just taken into `jobs`.
    let begin = || {
        let batch_span = span("gateway.batch");
        // Fault injection: the stall runs before any job's `dequeue`
        // event is recorded, so the traced timeline charges it to
        // queue time on this replica.
        let stall = replica.stall_nanos.load(Ordering::Relaxed);
        if stall > 0 {
            std::thread::sleep(Duration::from_nanos(stall));
        }
        rm.queue_depth.set(replica.queue.len() as f64);
        batch_span
    };
    let mut batch = replica.queue.pop_batch(max_batch, &mut jobs).then(begin);
    while let Some(first_span) = batch {
        batch = {
            // The swap boundary: state is pinned for this whole batch,
            // and for the batches after it that find it still current.
            let state = replica.current();
            let session = CachedModel::new(&state.model, &state.cache);
            let mut batch_span = first_span;
            loop {
                let batch_size = jobs.len() as u64;
                for job in jobs.drain(..) {
                    tracer.record(job.trace, Stage::Dequeue, ix as u64);
                    metrics
                        .stage_queue_wait
                        .observe(job.enqueued.elapsed().as_secs_f64());
                    tracer.record(job.trace, Stage::BatchAssemble, batch_size);
                    let (h0, m0) = (state.cache.hits(), state.cache.misses());
                    tracer.record(job.trace, Stage::Score, job.items.len() as u64);
                    let score_start = Instant::now();
                    let scores = score_items(&session, &job.items, state.threshold, &mut scratch);
                    metrics
                        .stage_score
                        .observe(score_start.elapsed().as_secs_f64());
                    // One worker per replica, so the cache deltas are
                    // exactly this job's activity; every miss was one
                    // encode.
                    let misses = state.cache.misses().saturating_sub(m0);
                    tracer.record(
                        job.trace,
                        Stage::CacheHit,
                        state.cache.hits().saturating_sub(h0),
                    );
                    tracer.record(job.trace, Stage::CacheMiss, misses);
                    tracer.record(job.trace, Stage::Encode, misses);
                    out.push(Completion {
                        conn: job.conn,
                        seq: job.seq,
                        status: 200,
                        body: render_scores(&scores),
                        enqueued: job.enqueued,
                        trace: job.trace,
                    });
                }
                sink.push_all(out.drain(..));
                drop(batch_span);
                match replica
                    .queue
                    .pop_batch_for(max_batch, &mut jobs, IDLE_RELEASE)
                {
                    Some(true) => {
                        batch_span = begin();
                        if !Arc::ptr_eq(&replica.current(), &state) {
                            break Some(batch_span);
                        }
                    }
                    // Idle, or closed and empty.
                    _ => break None,
                }
            }
        };
        // The session ended idle: wait for work holding no state.
        if batch.is_none() {
            batch = replica.queue.pop_batch(max_batch, &mut jobs).then(begin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_obs::json::Json;

    #[test]
    fn render_matches_serve_shape() {
        let scores = vec![
            ItemScore {
                plausibility: Some(-1.5),
                is_error: Some(true),
            },
            ItemScore {
                plausibility: None,
                is_error: None,
            },
        ];
        let body = render_scores(&scores);
        let parsed = pge_obs::json::parse(&body).unwrap();
        let arr = parsed.as_array().unwrap();
        assert_eq!(arr[0].get("plausibility").unwrap().as_f64(), Some(-1.5));
        assert_eq!(arr[0].get("is_error").unwrap().as_bool(), Some(true));
        assert!(arr[0].get("detail").is_none());
        assert!(matches!(arr[1].get("plausibility"), Some(Json::Null)));
        assert_eq!(
            arr[1].get("detail").unwrap().as_str(),
            Some("unknown attribute")
        );
    }

    #[test]
    fn worker_session_never_crosses_a_swap() {
        use pge_core::{train_pge, PgeConfig};
        use pge_datagen::{generate_catalog, CatalogConfig};

        let data = generate_catalog(&CatalogConfig {
            products: 40,
            labeled: 10,
            seed: 17,
            ..CatalogConfig::tiny()
        });
        let train = |epochs| {
            let cfg = PgeConfig {
                epochs,
                ..PgeConfig::tiny()
            };
            Arc::new(train_pge(&data, &cfg).model)
        };
        let (a, b) = (train(1), train(2));
        // One product's triples: every job shares its title, so a memo
        // or a prepared relation kept past the swap would score a job
        // with the other model's vectors.
        let g = &data.graph;
        let product = g.triples()[0].product;
        let triples: Vec<ScoreItem> = g
            .triples()
            .iter()
            .filter(|t| t.product == product)
            .map(|t| ScoreItem {
                title: g.title(t.product).to_string(),
                attr: g.attr_name(t.attr).to_string(),
                value: g.value_text(t.value).to_string(),
            })
            .collect();
        assert!(triples.len() >= 2, "the test needs two attributes");
        let bits = |model: &PgeModel, it: &ScoreItem| {
            model
                .score_text_triple(&it.title, &it.attr, &it.value)
                .unwrap()
                .to_bits()
        };
        assert_ne!(bits(&a, &triples[0]), bits(&b, &triples[0]));

        let replica = Replica::new(ModelState::new(a.clone(), 0.0, 64, 0), 16);
        let sink = CompletionSink::new().unwrap();
        let metrics = GatewayMetrics::new(1);
        let tracer = Tracer::default();
        // Submit one job per triple, then wait for all their answers.
        let run = |first_seq: u64| -> Vec<Completion> {
            for (i, it) in triples.iter().enumerate() {
                let job = Job {
                    conn: 0,
                    seq: first_seq + i as u64,
                    items: vec![it.clone()],
                    enqueued: Instant::now(),
                    trace: 0,
                };
                assert!(replica.queue.try_push(job).is_ok());
            }
            let (mut done, start) = (Vec::new(), Instant::now());
            while done.len() < triples.len() {
                assert!(start.elapsed() < Duration::from_secs(30), "worker stalled");
                std::thread::sleep(Duration::from_millis(1));
                sink.drain_into(&mut done);
            }
            done.sort_by_key(|c| c.seq);
            done
        };
        let check = |model: &PgeModel, done: &[Completion]| {
            for (c, it) in done.iter().zip(&triples) {
                let body = pge_obs::json::parse(&c.body).unwrap();
                let served = body.as_array().unwrap()[0]
                    .get("plausibility")
                    .and_then(Json::as_f64)
                    .unwrap() as f32;
                assert_eq!(served.to_bits(), bits(model, it), "{}", it.attr);
            }
        };
        // Closing the queue ends the worker, also when a check fails.
        struct CloseOnDrop<'a>(&'a Replica);
        impl Drop for CloseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.queue.close();
            }
        }
        std::thread::scope(|s| {
            s.spawn(|| worker_loop(0, &replica, &sink, &metrics, &tracer, 4));
            let _close = CloseOnDrop(&replica);
            check(&a, &run(0));
            let old = Arc::downgrade(&replica.current());
            replica.swap(ModelState::new(b.clone(), 0.0, 64, 1));
            // An idle worker lets its state go: the swapped-out one is
            // freed with no further traffic.
            let start = Instant::now();
            while old.strong_count() > 0 {
                assert!(start.elapsed() < Duration::from_secs(30), "old state kept");
                std::thread::sleep(Duration::from_millis(1));
            }
            check(&b, &run(100));
            replica.swap(ModelState::new(a.clone(), 0.0, 64, 2));
            check(&a, &run(200));
        });
    }

    #[test]
    fn completion_sink_wakes_and_drains() {
        let sink = CompletionSink::new().unwrap();
        sink.push_all([Completion {
            conn: 3,
            seq: 0,
            status: 200,
            body: "[]".into(),
            enqueued: Instant::now(),
            trace: 0,
        }]);
        let mut out = Vec::new();
        sink.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].conn, 3);
        // Drained sink yields nothing further.
        sink.drain_into(&mut out);
        assert_eq!(out.len(), 1);
    }
}
