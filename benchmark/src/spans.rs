//! The benchmark's own span recorder.
//!
//! Spans are taken from outside the program, around calls into each
//! crate's public functions; nothing under `crates/` is instrumented.
//! A span covering a batch of calls too short to time one by one
//! (a 10 ns dot product) carries the number of calls it covered.
//! Spans stay in memory and are written out once, at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Operation id: pass, stage, or batch number within the workload.
    op: u64,
    calls: u64,
}

/// An open span. Timing works whether or not the recorder is on, so
/// untraced and traced runs share one measuring path.
pub struct Open {
    started: Instant,
    idx: Option<u32>,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off mid-run (the traced run measures its
    /// end-to-end pass both ways to price the recorder itself).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let started = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: started.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                op,
                calls: 1,
            });
            self.stack.push(idx);
            idx
        });
        Open { started, idx }
    }

    /// Close `open`, which covered `calls` calls; returns its seconds.
    pub fn end(&mut self, open: Open, calls: u64) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            let span = &mut self.spans[idx as usize];
            span.end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            span.calls = calls;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// Add a span that is already over and may overlap its siblings
    /// (a pipelined request); its parent is the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
            calls: 1,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write one JSON object per span. `self_ns` is the span's
    /// duration minus the part its direct children cover.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"calls\":{},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.calls,
                dur.saturating_sub(child_ns[i])
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_times_but_stores_nothing() {
        let mut r = Recorder::new(false);
        let o = r.begin("x", 0);
        assert!(r.end(o, 1) >= 0.0);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(inner, 3);
        r.end(outer, 1);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-test-{}.jsonl", std::process::id()));
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<_> = text
            .lines()
            .map(|l| pge_obs::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].get("parent").map(|p| p.to_string()),
            Some("null".into())
        );
        assert_eq!(lines[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(lines[1].get("calls").and_then(|p| p.as_f64()), Some(3.0));
        let dur = |j: &pge_obs::json::Json| {
            j.get("end_ns").unwrap().as_f64().unwrap()
                - j.get("start_ns").unwrap().as_f64().unwrap()
        };
        let self_outer = lines[0].get("self_ns").unwrap().as_f64().unwrap();
        assert_eq!(self_outer, dur(&lines[0]) - dur(&lines[1]));
    }
}
