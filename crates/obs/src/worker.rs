//! Per-worker busy/idle accounting for worker-pool pipelines.
//!
//! The span machinery ([`mod@crate::span`]) times *code paths*, but a
//! span around a worker's scoring loop silently includes the time the
//! worker spends blocked on channel handoff — which is exactly how
//! the scan pipeline's serialization bug (every worker pulling from
//! one `Mutex<Receiver>`) stayed invisible: total "score" time looked
//! healthy while workers took turns running. A [`WorkerLedger`]
//! separates the two by charging only the time a worker actively
//! processes one unit of work; everything else within the pipeline's
//! wall window is idle (waiting for work, for downstream capacity, or
//! for the pool to finish).
//!
//! Cheap enough to stay always-on: one `Instant` pair and two relaxed
//! atomic adds per chunk, on a path that processes thousands of rows
//! per chunk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Busy-time ledger shared by the workers of one pipeline run.
#[derive(Debug)]
pub struct WorkerLedger {
    slots: Vec<Slot>,
}

#[derive(Debug, Default)]
struct Slot {
    busy_nanos: AtomicU64,
    chunks: AtomicU64,
}

/// Snapshot of one worker's accumulated activity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerStats {
    /// Time spent actively processing work units.
    pub busy: Duration,
    /// Work units completed.
    pub chunks: u64,
}

impl WorkerLedger {
    /// A ledger for `n` workers (indices `0..n`).
    pub fn new(n: usize) -> Self {
        WorkerLedger {
            slots: (0..n).map(|_| Slot::default()).collect(),
        }
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Charge `busy` processing time for one completed work unit to
    /// worker `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn record(&self, idx: usize, busy: Duration) {
        let slot = &self.slots[idx];
        slot.busy_nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        slot.chunks.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-worker snapshot, in worker order.
    pub fn stats(&self) -> Vec<WorkerStats> {
        self.slots
            .iter()
            .map(|s| WorkerStats {
                busy: Duration::from_nanos(s.busy_nanos.load(Ordering::Relaxed)),
                chunks: s.chunks.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Total busy time across all workers.
    pub fn total_busy(&self) -> Duration {
        self.stats().iter().map(|s| s.busy).sum()
    }

    /// Effective parallelism over a wall-clock window: total busy
    /// time divided by the window. 1.0 means the pool did one core's
    /// worth of concurrent work — the signature of a serialized pool
    /// regardless of its worker count.
    pub fn effective_parallelism(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            return 0.0;
        }
        self.total_busy().as_secs_f64() / wall.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_worker() {
        let l = WorkerLedger::new(3);
        l.record(0, Duration::from_millis(5));
        l.record(0, Duration::from_millis(7));
        l.record(2, Duration::from_millis(11));
        let s = l.stats();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].chunks, 2);
        assert_eq!(s[0].busy, Duration::from_millis(12));
        assert_eq!(s[1].chunks, 0);
        assert_eq!(s[1].busy, Duration::ZERO);
        assert_eq!(s[2].chunks, 1);
        assert_eq!(l.total_busy(), Duration::from_millis(23));
    }

    #[test]
    fn effective_parallelism_ratio() {
        let l = WorkerLedger::new(4);
        for i in 0..4 {
            l.record(i, Duration::from_millis(250));
        }
        let p = l.effective_parallelism(Duration::from_millis(500));
        assert!((p - 2.0).abs() < 1e-9, "p={p}");
        assert_eq!(l.effective_parallelism(Duration::ZERO), 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let l = WorkerLedger::new(8);
        std::thread::scope(|sc| {
            for w in 0..8 {
                let l = &l;
                sc.spawn(move || {
                    for _ in 0..1000 {
                        l.record(w, Duration::from_nanos(1000));
                    }
                });
            }
        });
        for s in l.stats() {
            assert_eq!(s.chunks, 1000);
            assert_eq!(s.busy, Duration::from_micros(1000));
        }
    }
}
