//! `trace` — an always-on flight recorder with tail-based sampling.
//!
//! Aggregate histograms (see [`crate::registry`]) answer "how slow is
//! the p99"; they cannot answer "*why* was request `7f3a…` slow".
//! This module records a typed event per pipeline stage into a
//! lock-free, fixed-capacity ring buffer — cheap enough to leave on
//! in production — and promotes just the interesting traces (slower
//! than a threshold, or errored) into a bounded retained set that
//! `GET /debug/trace` and `pge trace` can replay as per-stage
//! waterfalls.
//!
//! Design:
//!
//! * **Ring buffer** ([`FlightRecorder`]) — `capacity` pre-allocated
//!   slots (rounded up to a power of two) of four `AtomicU64`s each.
//!   A writer claims a slot with one `fetch_add` on the write cursor
//!   and publishes through a per-slot seqlock whose version is
//!   derived from the ticket, so readers detect both torn writes and
//!   wraparound overwrites. No allocation, no locks, no syscalls on
//!   the hot path.
//! * **Trace IDs** ([`TraceIdGen`]) — a splitmix64 stream over an
//!   atomic counter: unique per request, deterministic under a fixed
//!   seed, and cheap (one `fetch_add` + 5 ALU ops).
//! * **Tail sampling** ([`Tracer::finish`]) — completion is the only
//!   point where end-to-end latency is known, so that is where the
//!   keep/drop decision happens. Kept traces are reassembled from the
//!   ring (an O(capacity) scan, paid only for slow requests) into
//!   [`RetainedTrace`]s in a bounded FIFO.
//!
//! The same recorder covers the gateway's request path, the scan
//! chunk pipeline, and the trainer's epoch phases — one
//! mechanism for online, batch, and training workloads.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Monotonic nanoseconds since the first call in this process.
/// Shared by every recorder so events from different subsystems
/// order consistently within one process.
pub fn clock_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// splitmix64 finalizer — the standard 64-bit bit mixer.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A lock-free generator of unique 64-bit trace IDs: a splitmix64
/// stream over an atomic counter. Under a fixed seed the sequence of
/// IDs is deterministic; ID 0 is reserved as "no trace" and never
/// produced.
pub struct TraceIdGen {
    state: AtomicU64,
}

impl TraceIdGen {
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen {
            state: AtomicU64::new(seed),
        }
    }

    /// The next trace ID — unique for the first 2^64 draws.
    pub fn next_id(&self) -> u64 {
        loop {
            let s = self
                .state
                .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
            let id = splitmix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
            if id != 0 {
                return id;
            }
        }
    }
}

/// One pipeline stage a trace event can mark. The discriminant is
/// packed into the ring slot, so variants are explicitly numbered and
/// must never be reused for a different meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    // Online request path (gateway + serve).
    Accept = 1,
    Route = 2,
    QueueAdmit = 3,
    Dequeue = 4,
    BatchAssemble = 5,
    CacheHit = 6,
    CacheMiss = 7,
    Encode = 8,
    Score = 9,
    WriteBack = 10,
    // Bulk-scan chunk pipeline.
    ChunkRead = 11,
    ChunkScore = 12,
    ChunkCommit = 13,
    // Trainer epoch phases.
    EpochStart = 14,
    EpochShuffle = 15,
    EpochBatches = 16,
    EpochCheckpoint = 17,
    // Terminal error marker (arg = subsystem-specific code).
    Error = 18,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Route => "route",
            Stage::QueueAdmit => "queue_admit",
            Stage::Dequeue => "dequeue",
            Stage::BatchAssemble => "batch_assemble",
            Stage::CacheHit => "cache_hit",
            Stage::CacheMiss => "cache_miss",
            Stage::Encode => "encode",
            Stage::Score => "score",
            Stage::WriteBack => "write_back",
            Stage::ChunkRead => "chunk_read",
            Stage::ChunkScore => "chunk_score",
            Stage::ChunkCommit => "chunk_commit",
            Stage::EpochStart => "epoch_start",
            Stage::EpochShuffle => "epoch_shuffle",
            Stage::EpochBatches => "epoch_batches",
            Stage::EpochCheckpoint => "epoch_checkpoint",
            Stage::Error => "error",
        }
    }

    pub fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            1 => Stage::Accept,
            2 => Stage::Route,
            3 => Stage::QueueAdmit,
            4 => Stage::Dequeue,
            5 => Stage::BatchAssemble,
            6 => Stage::CacheHit,
            7 => Stage::CacheMiss,
            8 => Stage::Encode,
            9 => Stage::Score,
            10 => Stage::WriteBack,
            11 => Stage::ChunkRead,
            12 => Stage::ChunkScore,
            13 => Stage::ChunkCommit,
            14 => Stage::EpochStart,
            15 => Stage::EpochShuffle,
            16 => Stage::EpochBatches,
            17 => Stage::EpochCheckpoint,
            18 => Stage::Error,
            _ => return None,
        })
    }

    /// Parse the wire name back (inverse of [`Stage::name`]).
    pub fn from_name(name: &str) -> Option<Stage> {
        (1u8..=18)
            .map(|v| Stage::from_u8(v).unwrap())
            .find(|s| s.name() == name)
    }
}

/// One recorded event, as read back out of the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub trace_id: u64,
    pub stage: Stage,
    /// Stage-specific argument: replica index for `route`/`dequeue`,
    /// batch size for `batch_assemble`, cache-hit count for
    /// `cache_hit`, row count for the chunk stages, epoch number for
    /// the trainer phases.
    pub arg: u64,
    /// [`clock_nanos`] timestamp.
    pub t_nanos: u64,
}

/// One ring slot: a seqlock version plus the packed event.
///
/// `version` encodes the claiming ticket (`2*ticket+1` while the
/// write is in flight, `2*ticket+2` once published; `0` = never
/// written). Because tickets are globally ordered by the write
/// cursor, two writers that land on the same slot across a
/// wraparound resolve deterministically: the later ticket wins and
/// the earlier writer drops its (by then overwritten anyway) event.
struct Slot {
    version: AtomicU64,
    trace_id: AtomicU64,
    /// `stage as u64` in the top byte, `arg` in the low 56 bits.
    meta: AtomicU64,
    t_nanos: AtomicU64,
}

const ARG_MASK: u64 = (1 << 56) - 1;

/// The lock-free, fixed-capacity event ring. See the module docs.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: usize,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2). All memory is allocated here; the
    /// hot path never allocates.
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                version: AtomicU64::new(0),
                trace_id: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                t_nanos: AtomicU64::new(0),
            })
            .collect();
        FlightRecorder {
            slots,
            mask: cap - 1,
            cursor: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free: one `fetch_add` to claim a slot,
    /// four relaxed stores to fill it, one release store to publish.
    /// The spin below only triggers when the ring wraps around onto a
    /// slot whose previous write is still in flight — impossible in
    /// steady state when `capacity >> writer count`.
    pub fn record(&self, trace_id: u64, stage: Stage, arg: u64) {
        self.record_at(trace_id, stage, arg, clock_nanos());
    }

    /// [`FlightRecorder::record`] with an explicit timestamp (tests).
    pub fn record_at(&self, trace_id: u64, stage: Stage, arg: u64, t_nanos: u64) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        let writing = ticket.wrapping_mul(2).wrapping_add(1);
        let published = writing.wrapping_add(1);
        // Claim the slot's seqlock. A version at or past `published`
        // means a wrapped-around later ticket already owns this slot:
        // our event is the oldest in the ring, so dropping it is
        // exactly the ring's eviction policy.
        loop {
            let v = slot.version.load(Ordering::Acquire);
            if v >= published {
                return;
            }
            if v & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if slot
                .version
                .compare_exchange_weak(v, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.meta
            .store(((stage as u64) << 56) | (arg & ARG_MASK), Ordering::Relaxed);
        slot.t_nanos.store(t_nanos, Ordering::Relaxed);
        slot.version.store(published, Ordering::Release);
    }

    /// Read every stable event currently in the ring, oldest first.
    /// Slots mid-write or torn by a concurrent overwrite are skipped,
    /// never misread — the seqlock version is checked on both sides
    /// of the field reads.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.collect(|_| true)
    }

    /// All stable events carrying `trace_id`, oldest first. The id is
    /// matched during the slot walk, so only the trace's own events
    /// are copied and sorted: tail sampling calls this on the serving
    /// thread for every slow completion.
    pub fn events_for(&self, trace_id: u64) -> Vec<TraceEvent> {
        self.collect(|id| id == trace_id)
    }

    /// The stable events whose trace id passes `keep`, stably sorted
    /// by timestamp (ties keep slot order).
    fn collect(&self, keep: impl Fn(u64) -> bool) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 & 1 == 1 {
                continue;
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            if !keep(trace_id) {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let t_nanos = slot.t_nanos.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // overwritten while reading
            }
            let Some(stage) = Stage::from_u8((meta >> 56) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                trace_id,
                stage,
                arg: meta & ARG_MASK,
                t_nanos,
            });
        }
        out.sort_by_key(|e| e.t_nanos);
        out
    }
}

/// A completed trace promoted out of the ring by tail sampling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetainedTrace {
    pub trace_id: u64,
    /// End-to-end latency as reported by the caller at completion.
    pub total_nanos: u64,
    pub error: bool,
    /// The trace's events as recovered from the ring, oldest first.
    /// May be truncated if the ring wrapped past part of the trace.
    pub events: Vec<TraceEvent>,
}

impl RetainedTrace {
    /// Per-stage wall time: the gap from each event to the next
    /// (the last stage gets the remainder of `total_nanos`, clamped
    /// at zero). This is what the waterfall renders.
    pub fn stage_durations(&self) -> Vec<(Stage, u64)> {
        let mut out = Vec::with_capacity(self.events.len());
        for (i, e) in self.events.iter().enumerate() {
            let next = self.events.get(i + 1).map(|n| n.t_nanos);
            let end = next.unwrap_or_else(|| {
                self.events
                    .first()
                    .map(|f| f.t_nanos.saturating_add(self.total_nanos))
                    .unwrap_or(e.t_nanos)
            });
            out.push((e.stage, end.saturating_sub(e.t_nanos)));
        }
        out
    }
}

/// The full tracing bundle one server (or one scan/train run) owns:
/// ID generator + flight recorder + the tail-sampled retained set.
pub struct Tracer {
    ids: TraceIdGen,
    recorder: FlightRecorder,
    threshold_nanos: AtomicU64,
    retained: Mutex<std::collections::VecDeque<RetainedTrace>>,
    retain_cap: usize,
    retained_total: AtomicU64,
}

/// Default slow-trace threshold when none is configured.
pub const DEFAULT_SLOW_MS: u64 = 25;
/// Default retained-set bound.
pub const DEFAULT_RETAIN_CAP: usize = 64;
/// Default ring capacity (slots).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

impl Default for Tracer {
    /// A tracer with the default ring capacity, seed 0, the default
    /// slow threshold, and the default retained-set bound.
    fn default() -> Tracer {
        Tracer::new(
            DEFAULT_RING_CAPACITY,
            0,
            Duration::from_millis(DEFAULT_SLOW_MS),
            DEFAULT_RETAIN_CAP,
        )
    }
}

impl Tracer {
    /// `capacity` ring slots, IDs seeded with `seed`, retaining up to
    /// `retain_cap` traces slower than `threshold` (or errored).
    pub fn new(capacity: usize, seed: u64, threshold: Duration, retain_cap: usize) -> Tracer {
        Tracer {
            ids: TraceIdGen::new(seed),
            recorder: FlightRecorder::new(capacity),
            threshold_nanos: AtomicU64::new(threshold.as_nanos() as u64),
            retained: Mutex::new(std::collections::VecDeque::new()),
            retain_cap: retain_cap.max(1),
            retained_total: AtomicU64::new(0),
        }
    }

    /// Start a new trace: returns its ID (no event is recorded — the
    /// caller marks the first stage, usually [`Stage::Accept`]).
    pub fn begin(&self) -> u64 {
        self.ids.next_id()
    }

    /// Record one stage event. Hot-path cost: see
    /// [`FlightRecorder::record`].
    #[inline]
    pub fn record(&self, trace_id: u64, stage: Stage, arg: u64) {
        self.recorder.record(trace_id, stage, arg);
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    pub fn set_threshold(&self, threshold: Duration) {
        self.threshold_nanos
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn threshold(&self) -> Duration {
        Duration::from_nanos(self.threshold_nanos.load(Ordering::Relaxed))
    }

    /// Traces promoted into the retained set over the tracer's life
    /// (some may have since been evicted by the FIFO bound).
    pub fn retained_total(&self) -> u64 {
        self.retained_total.load(Ordering::Relaxed)
    }

    /// Complete a trace. If it was slow (>= threshold) or errored,
    /// reassemble its events from the ring and retain it; otherwise
    /// its ring slots just age out. Returns whether it was retained.
    pub fn finish(&self, trace_id: u64, total: Duration, error: bool) -> bool {
        let total_nanos = total.as_nanos() as u64;
        if !error && total_nanos < self.threshold_nanos.load(Ordering::Relaxed) {
            return false;
        }
        let events = self.recorder.events_for(trace_id);
        let trace = RetainedTrace {
            trace_id,
            total_nanos,
            error,
            events,
        };
        let mut q = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.retain_cap {
            q.pop_front();
        }
        q.push_back(trace);
        self.retained_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The most recent `n` retained traces, newest first.
    pub fn retained(&self, n: usize) -> Vec<RetainedTrace> {
        let q = self.retained.lock().unwrap_or_else(|e| e.into_inner());
        q.iter().rev().take(n).cloned().collect()
    }
}

/// The process-wide tracer, for code with no natural place to hang an
/// instance (the trainer's epoch phases, one-shot CLI paths). Servers
/// construct their own [`Tracer`] instead so tests can isolate them.
pub fn global_tracer() -> &'static Tracer {
    static GLOBAL: std::sync::OnceLock<Tracer> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Tracer::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn trace_ids_are_unique_and_deterministic() {
        let g = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..100_000).map(|_| g.next_id()).collect();
        let set: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len(), "duplicate trace IDs");
        assert!(!set.contains(&0), "0 is reserved");
        // Deterministic under the same seed, distinct under another.
        let g2 = TraceIdGen::new(42);
        assert!(ids.iter().all(|&id| id == g2.next_id()));
        assert_ne!(TraceIdGen::new(43).next_id(), ids[0]);
    }

    #[test]
    fn trace_ids_unique_across_threads() {
        let g = Arc::new(TraceIdGen::new(7));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || (0..10_000).map(|_| g.next_id()).collect::<Vec<u64>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id:#x} across threads");
            }
        }
        assert_eq!(all.len(), 80_000);
    }

    #[test]
    fn ring_records_and_reads_back() {
        let r = FlightRecorder::new(8);
        r.record_at(11, Stage::Accept, 0, 100);
        r.record_at(11, Stage::Route, 2, 200);
        r.record_at(12, Stage::Accept, 0, 150);
        let events = r.events_for(11);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::Accept);
        assert_eq!(events[1].stage, Stage::Route);
        assert_eq!(events[1].arg, 2);
        assert_eq!(r.events_for(12).len(), 1);
        assert_eq!(r.recorded(), 3);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record_at(100 + i, Stage::Score, i, i);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4, "ring holds exactly capacity events");
        let args: Vec<u64> = snap.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![6, 7, 8, 9], "oldest evicted first");
    }

    #[test]
    fn ring_wraparound_correct_under_concurrent_writers() {
        // 8 writers hammer a deliberately tiny ring so wraparound is
        // constant; every stable snapshot entry must be internally
        // consistent (trace_id, stage, arg, timestamp all from the
        // same logical write).
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 20_000;
        let r = Arc::new(FlightRecorder::new(64));
        let stop = Arc::new(AtomicU64::new(0));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        for e in r.snapshot() {
                            // Writer w encodes: trace_id = (w<<32)|i,
                            // arg = i, t_nanos = (w<<32)|i. A torn
                            // read mixes fields from two writes and
                            // breaks the invariants.
                            let w = e.trace_id >> 32;
                            let i = e.trace_id & 0xffff_ffff;
                            assert!(w < WRITERS, "torn trace_id {:#x}", e.trace_id);
                            assert!(i < PER_WRITER);
                            assert_eq!(e.arg, i, "arg torn from trace_id");
                            assert_eq!(e.t_nanos, e.trace_id, "timestamp torn");
                            assert_eq!(e.stage, Stage::Score);
                            checked += 1;
                        }
                    }
                    checked
                })
            })
            .collect();

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let id = (w << 32) | i;
                        r.record_at(id, Stage::Score, i, id);
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        let checked: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(checked > 0, "readers validated no events");

        // Quiescent ring: exactly `capacity` stable slots remain and
        // the cursor saw every write.
        assert_eq!(r.recorded(), WRITERS * PER_WRITER);
        assert_eq!(r.snapshot().len(), r.capacity());
    }

    #[test]
    fn tail_sampling_retains_slow_and_errored_only() {
        let t = Tracer::new(256, 1, Duration::from_millis(10), 4);
        // Fast + clean: dropped.
        let fast = t.begin();
        t.record(fast, Stage::Accept, 0);
        assert!(!t.finish(fast, Duration::from_millis(1), false));
        // Slow: retained with its events.
        let slow = t.begin();
        t.record(slow, Stage::Accept, 0);
        t.record(slow, Stage::Score, 3);
        assert!(t.finish(slow, Duration::from_millis(50), false));
        // Errored but fast: retained.
        let err = t.begin();
        t.record(err, Stage::Error, 7);
        assert!(t.finish(err, Duration::from_millis(1), true));

        let kept = t.retained(10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].trace_id, err, "newest first");
        assert!(kept[0].error);
        assert_eq!(kept[1].trace_id, slow);
        assert_eq!(kept[1].events.len(), 2);
        assert_eq!(kept[1].events[1].stage, Stage::Score);
        assert_eq!(t.retained_total(), 2);
    }

    #[test]
    fn retained_set_is_bounded_fifo() {
        let t = Tracer::new(64, 9, Duration::from_nanos(0), 3);
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                let id = t.begin();
                t.record(id, Stage::Accept, 0);
                t.finish(id, Duration::from_millis(1), false);
                id
            })
            .collect();
        let kept = t.retained(10);
        assert_eq!(kept.len(), 3, "bounded at retain_cap");
        let kept_ids: Vec<u64> = kept.iter().map(|k| k.trace_id).collect();
        assert_eq!(kept_ids, vec![ids[4], ids[3], ids[2]], "oldest evicted");
        assert_eq!(t.retained_total(), 5);
    }

    #[test]
    fn stage_durations_attribute_gaps() {
        let tr = RetainedTrace {
            trace_id: 1,
            total_nanos: 1_000,
            error: false,
            events: vec![
                TraceEvent {
                    trace_id: 1,
                    stage: Stage::Accept,
                    arg: 0,
                    t_nanos: 100,
                },
                TraceEvent {
                    trace_id: 1,
                    stage: Stage::Score,
                    arg: 0,
                    t_nanos: 400,
                },
            ],
        };
        let d = tr.stage_durations();
        assert_eq!(d[0], (Stage::Accept, 300));
        // Last stage gets the remainder up to start + total.
        assert_eq!(d[1], (Stage::Score, 700));
    }

    #[test]
    fn stage_names_round_trip() {
        for v in 1u8..=18 {
            let s = Stage::from_u8(v).unwrap();
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        assert_eq!(Stage::from_u8(0), None);
        assert_eq!(Stage::from_u8(19), None);
        assert_eq!(Stage::from_name("bogus"), None);
    }
}
