//! Bounded MPMC job queue with batch draining.
//!
//! Producers (the gateway's event loop) never block: `try_push` fails
//! fast when the queue is at capacity so the caller can shed load with
//! a `503 Retry-After`. Consumers (replica workers) block in
//! `pop_batch`, which drains up to a whole micro-batch per wakeup —
//! the batching lever that amortizes per-request overhead.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    cap: usize,
}

/// Why `try_push` returned the item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError {
    Full,
    Closed,
}

impl<T> BoundedQueue<T> {
    /// # Panics
    /// Panics when `cap` is 0 — a zero-capacity queue can never
    /// accept work.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            cap,
        }
    }

    /// Enqueue without blocking; on failure the item comes back to
    /// the caller (it owns a reply channel that must not be dropped
    /// silently).
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut g = self.inner.lock();
        if g.closed {
            return Err((item, PushError::Closed));
        }
        if g.items.len() >= self.cap {
            return Err((item, PushError::Full));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until at least one item is available (or the queue is
    /// closed and drained), then move up to `max` items into `out`.
    /// Returns `false` when the queue is closed and empty — the
    /// consumer should exit.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let mut g = self.inner.lock();
        loop {
            if !g.items.is_empty() {
                self.take(&mut g, max, out);
                return true;
            }
            if g.closed {
                return false;
            }
            self.not_empty.wait_for(&mut g, Duration::from_millis(100));
        }
    }

    /// [`BoundedQueue::pop_batch`] that waits at most `wait`: `None`
    /// when no item came in that time.
    pub fn pop_batch_for(&self, max: usize, out: &mut Vec<T>, wait: Duration) -> Option<bool> {
        let deadline = Instant::now() + wait;
        let mut g = self.inner.lock();
        loop {
            if !g.items.is_empty() {
                self.take(&mut g, max, out);
                return Some(true);
            }
            if g.closed {
                return Some(false);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.not_empty.wait_for(&mut g, left);
        }
    }

    /// Move up to `max` (at least one) of the queued items into `out`.
    fn take(&self, g: &mut Inner<T>, max: usize, out: &mut Vec<T>) {
        let n = max.max(1).min(g.items.len());
        out.extend(g.items.drain(..n));
        // More work may remain for sibling workers.
        if !g.items.is_empty() {
            self.not_empty.notify_one();
        }
    }

    /// Close the queue: new pushes fail, consumers drain what's left
    /// and then see `false` from `pop_batch`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn push_pop_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(3, &mut out));
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        assert!(q.pop_batch(10, &mut out));
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn pop_batch_for_gives_up_when_nothing_comes() {
        let q = BoundedQueue::new(4);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_for(4, &mut out, Duration::ZERO), None);
        assert_eq!(q.pop_batch_for(4, &mut out, Duration::from_millis(5)), None);
        q.try_push(7).unwrap();
        assert_eq!(q.pop_batch_for(4, &mut out, Duration::ZERO), Some(true));
        assert_eq!(out, vec![7]);
        q.close();
        assert_eq!(q.pop_batch_for(4, &mut out, Duration::ZERO), Some(false));
    }

    #[test]
    fn overflow_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        let (item, err) = q.try_push("c").unwrap_err();
        assert_eq!((item, err), ("c", PushError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2).unwrap_err().1, PushError::Closed);
        let mut out = Vec::new();
        assert!(q.pop_batch(4, &mut out));
        assert_eq!(out, vec![1]);
        out.clear();
        assert!(!q.pop_batch(4, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn consumers_wake_on_push_and_close() {
        let q = std::sync::Arc::new(BoundedQueue::new(16));
        let consumed = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            let consumed = consumed.clone();
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                while q.pop_batch(4, &mut out) {
                    consumed.fetch_add(out.len(), Ordering::SeqCst);
                    out.clear();
                }
            }));
        }
        for i in 0..50 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        // Let consumers drain, then close so they exit.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::SeqCst), 50);
    }
}
