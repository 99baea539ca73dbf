//! Lightweight hierarchical span timers.
//!
//! ```no_run
//! pge_obs::set_spans_enabled(true);
//! {
//!     let _outer = pge_obs::span("train.epoch");
//!     let _inner = pge_obs::span("negatives"); // records as train.epoch.negatives
//! }
//! for s in pge_obs::span_snapshot() {
//!     println!("{} x{} {:.3}s", s.path, s.count, s.total_secs);
//! }
//! ```
//!
//! Spans are **disabled by default**: [`span`] then costs one relaxed
//! atomic load and returns an inert guard — no clock read, no
//! thread-local access, no allocation — so instrumentation can stay in
//! hot paths permanently. When enabled (the CLI flips the switch when
//! `--runlog` is given), each guard reads the clock twice and folds
//! its duration into a global per-path accumulator; nesting is tracked
//! per thread, so worker pools produce sensible hierarchies.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off process-wide.
pub fn set_spans_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn spans_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// Names of the spans currently open on this thread.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct SpanStat {
    count: AtomicU64,
    total_nanos: AtomicU64,
}

fn stats() -> &'static RwLock<HashMap<String, Arc<SpanStat>>> {
    static STATS: OnceLock<RwLock<HashMap<String, Arc<SpanStat>>>> = OnceLock::new();
    STATS.get_or_init(Default::default)
}

/// One accumulated span path in a [`span_snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Dotted hierarchical path, e.g. `train.epoch.negatives`.
    pub path: String,
    pub count: u64,
    pub total_secs: f64,
}

/// Accumulated totals for every span path seen so far, sorted by
/// path.
pub fn span_snapshot() -> Vec<SpanRecord> {
    let map = stats().read().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<SpanRecord> = map
        .iter()
        .map(|(path, s)| SpanRecord {
            path: path.clone(),
            count: s.count.load(Ordering::Relaxed),
            total_secs: s.total_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        })
        .collect();
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Drop all accumulated span stats (test isolation, run boundaries).
pub fn reset_spans() {
    stats().write().unwrap_or_else(|e| e.into_inner()).clear();
}

fn record(path: String, nanos: u64) {
    let map = stats().read().unwrap_or_else(|e| e.into_inner());
    if let Some(s) = map.get(&path) {
        s.count.fetch_add(1, Ordering::Relaxed);
        s.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        return;
    }
    drop(map);
    let mut map = stats().write().unwrap_or_else(|e| e.into_inner());
    let s = map.entry(path).or_default();
    s.count.fetch_add(1, Ordering::Relaxed);
    s.total_nanos.fetch_add(nanos, Ordering::Relaxed);
}

/// Guard returned by [`span`]; records on drop.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Open a span named `name`. The recorded path is the dotted chain of
/// the spans open on this thread, so `span("epoch")` inside
/// `span("train")` records as `train.epoch`.
pub fn span(name: &'static str) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join(".");
            stack.pop();
            path
        });
        record(path, nanos);
    }
}

/// `span!("train.epoch")` — sugar for [`span`] that binds the guard to
/// a hidden local so the span covers the rest of the enclosing block.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        let _pge_obs_span_guard = $crate::span($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Span state is process-global; serialize the tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_spans();
        set_spans_enabled(false);
        {
            let _g = span("never");
        }
        assert!(span_snapshot().is_empty());
    }

    #[test]
    fn nested_spans_build_dotted_paths() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_spans();
        set_spans_enabled(true);
        {
            let _a = span("train");
            {
                let _b = span("epoch");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = span("epoch");
            }
        }
        set_spans_enabled(false);
        let snap = span_snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["train", "train.epoch"]);
        let epoch = &snap[1];
        assert_eq!(epoch.count, 2);
        assert!(epoch.total_secs >= 0.002, "{}", epoch.total_secs);
        assert!(snap[0].total_secs >= epoch.total_secs);
    }

    #[test]
    fn threads_keep_independent_stacks() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_spans();
        set_spans_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span("worker");
                    let _h = span("step");
                });
            }
        });
        set_spans_enabled(false);
        let snap = span_snapshot();
        let get = |p: &str| snap.iter().find(|r| r.path == p).map(|r| r.count);
        assert_eq!(get("worker"), Some(4));
        assert_eq!(get("worker.step"), Some(4));
    }

    #[test]
    fn macro_scopes_to_enclosing_block() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_spans();
        set_spans_enabled(true);
        {
            crate::span!("outer");
            crate::span!("inner");
        }
        set_spans_enabled(false);
        let snap = span_snapshot();
        let paths: Vec<&str> = snap.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer.inner"]);
    }
}
