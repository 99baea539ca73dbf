//! Bounded MPMC job queue with batch draining.
//!
//! Producers (the gateway's event loop) never block: `try_push` fails
//! fast when the queue is at capacity so the caller can shed load with
//! a `503 Retry-After`. Consumers (replica workers) block in
//! `pop_batch`, which drains up to a whole micro-batch per wakeup —
//! the batching lever that amortizes per-request overhead.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Duration;

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
                let n = max.max(1).min(g.items.len());
                out.extend(g.items.drain(..n));
                // More work may remain for sibling workers.
                if !g.items.is_empty() {
                    self.not_empty.notify_one();
                }
                return true;
            }
            if g.closed {
                return false;
            }
            self.not_empty.wait_for(&mut g, Duration::from_millis(100));
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
