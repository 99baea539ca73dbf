//! Streaming triple deltas: the incremental-training input format.
//!
//! A catalog churns as adds, updates, and retractions; `pge train
//! --incremental` consumes them as a *delta stream* — a plain-text
//! file of ingest windows, each holding `op \t title \t attr \t value`
//! lines (an update is a retract followed by an add of the same
//! `(title, attr)` with the new value):
//!
//! ```text
//! #pge-delta v1
//! #window 0 2
//! add\tbrand9 spicy chips\tflavor\tspicy
//! retract\tbrand3 cola drink\tflavor\tcola
//! #window 1 1
//! add\tbrand3 cola drink\tflavor\tvanilla
//! ```
//!
//! Window boundaries are the unit of everything downstream: the
//! incremental trainer fine-tunes, checkpoints, snapshots, and pushes
//! once per window, and kill+resume is exact at any window boundary.
//! [`stream_fingerprint`] hashes a window prefix so a resumed run can
//! prove it is replaying the same stream the checkpoint ingested.

use crate::dataset::Dataset;
use crate::store::Triple;
use pge_tensor::{fnv1a, fnv1a_str, FNV_OFFSET};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// What a delta line does to the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// A new `(title, attr, value)` training fact.
    Add,
    /// An existing training fact is withdrawn.
    Retract,
}

impl DeltaOp {
    pub fn name(&self) -> &'static str {
        match self {
            DeltaOp::Add => "add",
            DeltaOp::Retract => "retract",
        }
    }
}

/// One delta line: an op over a raw-text triple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TripleDelta {
    pub op: DeltaOp,
    pub title: String,
    pub attr: String,
    pub value: String,
}

/// One ingest window of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaWindow {
    /// Position in the stream (windows are numbered 0..).
    pub index: usize,
    pub ops: Vec<TripleDelta>,
}

/// Serialization/parse failures of the delta format.
#[derive(Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A field contained a tab or newline and cannot be serialized.
    Unencodable(String),
    /// Parse failure with a 1-based line number and message.
    Parse(usize, String),
    Io(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Unencodable(s) => write!(f, "string contains tab/newline: {s:?}"),
            DeltaError::Parse(line, msg) => write!(f, "delta parse error at line {line}: {msg}"),
            DeltaError::Io(msg) => write!(f, "delta I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {}

fn check(s: &str) -> Result<&str, DeltaError> {
    if s.contains('\t') || s.contains('\n') {
        Err(DeltaError::Unencodable(s.to_string()))
    } else {
        Ok(s)
    }
}

/// Magic first line of a delta stream.
pub const DELTA_HEADER: &str = "#pge-delta v1";

/// Write a delta stream. Windows keep their own indices, which must be
/// consecutive from 0 (the reader enforces this too — a truncated or
/// spliced stream must not pass silently).
pub fn write_delta_stream(windows: &[DeltaWindow], mut w: impl Write) -> Result<(), DeltaError> {
    let io = |e: std::io::Error| DeltaError::Io(e.to_string());
    writeln!(w, "{DELTA_HEADER}").map_err(io)?;
    for (k, win) in windows.iter().enumerate() {
        if win.index != k {
            return Err(DeltaError::Unencodable(format!(
                "window {k} carries index {} — windows must be consecutive from 0",
                win.index
            )));
        }
        writeln!(w, "#window {} {}", win.index, win.ops.len()).map_err(io)?;
        for d in &win.ops {
            writeln!(
                w,
                "{}\t{}\t{}\t{}",
                d.op.name(),
                check(&d.title)?,
                check(&d.attr)?,
                check(&d.value)?
            )
            .map_err(io)?;
        }
    }
    Ok(())
}

/// Read a whole delta stream. Windows are modest (a few percent of a
/// catalog each), so buffering one stream is fine; the per-window
/// ingest loop downstream is what must never buffer the catalog.
pub fn read_delta_stream(r: impl BufRead) -> Result<Vec<DeltaWindow>, DeltaError> {
    let mut windows: Vec<DeltaWindow> = Vec::new();
    let mut expected_ops: usize = 0;
    let mut saw_header = false;
    for (ln0, line) in r.lines().enumerate() {
        let ln = ln0 + 1;
        let line = line.map_err(|e| DeltaError::Io(format!("line {ln}: {e}")))?;
        let line = line.trim_end_matches('\r');
        if !saw_header {
            if line != DELTA_HEADER {
                return Err(DeltaError::Parse(
                    ln,
                    format!("expected {DELTA_HEADER:?}, got {line:?}"),
                ));
            }
            saw_header = true;
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#window ") {
            if let Some(w) = windows.last() {
                if w.ops.len() != expected_ops {
                    return Err(DeltaError::Parse(
                        ln,
                        format!(
                            "window {} declared {expected_ops} ops but has {}",
                            w.index,
                            w.ops.len()
                        ),
                    ));
                }
            }
            let mut parts = rest.split_whitespace();
            let index: usize = parts
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| DeltaError::Parse(ln, "bad window index".into()))?;
            let count: usize = parts
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| DeltaError::Parse(ln, "bad window op count".into()))?;
            if index != windows.len() {
                return Err(DeltaError::Parse(
                    ln,
                    format!("expected window {}, got {index}", windows.len()),
                ));
            }
            expected_ops = count;
            windows.push(DeltaWindow {
                index,
                ops: Vec::with_capacity(count),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // comment
        }
        let win = windows
            .last_mut()
            .ok_or_else(|| DeltaError::Parse(ln, "delta line before any #window".into()))?;
        let mut f = line.split('\t');
        let (op, title, attr, value) = match (f.next(), f.next(), f.next(), f.next(), f.next()) {
            (Some(op), Some(t), Some(a), Some(v), None) => (op, t, a, v),
            _ => {
                return Err(DeltaError::Parse(
                    ln,
                    format!(
                        "expected 4 tab-separated fields, got {}",
                        line.split('\t').count()
                    ),
                ))
            }
        };
        let op = match op {
            "add" => DeltaOp::Add,
            "retract" => DeltaOp::Retract,
            other => return Err(DeltaError::Parse(ln, format!("unknown op {other:?}"))),
        };
        if [title, attr, value].iter().any(|s| s.trim().is_empty()) {
            return Err(DeltaError::Parse(ln, "empty field".into()));
        }
        win.ops.push(TripleDelta {
            op,
            title: title.to_string(),
            attr: attr.to_string(),
            value: value.to_string(),
        });
    }
    if !saw_header {
        return Err(DeltaError::Parse(0, "empty delta stream".into()));
    }
    if let Some(w) = windows.last() {
        if w.ops.len() != expected_ops {
            return Err(DeltaError::Parse(
                0,
                format!(
                    "stream truncated: window {} declared {expected_ops} ops but has {}",
                    w.index,
                    w.ops.len()
                ),
            ));
        }
    }
    Ok(windows)
}

/// Fold one window into a running fingerprint.
pub fn window_fingerprint(mut h: u64, w: &DeltaWindow) -> u64 {
    h = fnv1a(h, &(w.index as u64).to_le_bytes());
    h = fnv1a(h, &(w.ops.len() as u64).to_le_bytes());
    for d in &w.ops {
        h = fnv1a_str(h, d.op.name());
        h = fnv1a_str(h, &d.title);
        h = fnv1a_str(h, &d.attr);
        h = fnv1a_str(h, &d.value);
    }
    h
}

/// Fingerprint of a window prefix: the value an incremental checkpoint
/// stores after ingesting `windows`, verified against the stream on
/// resume.
pub fn stream_fingerprint(windows: &[DeltaWindow]) -> u64 {
    windows.iter().fold(FNV_OFFSET, window_fingerprint)
}

/// The train-split effect of applying one window to a dataset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedWindow {
    /// Train indices appended by this window's adds.
    pub added: Vec<usize>,
    /// Train indices withdrawn by this window's retractions — the
    /// entries stay in place (confidence tables and RNG streams are
    /// positional) but must be excluded from training and pinned to
    /// zero confidence.
    pub retracted: Vec<usize>,
    /// Retractions that matched no live train triple (already
    /// retracted, or never present) — counted, not fatal: a stream
    /// replayed against a drifted catalog may race its own updates.
    pub missed_retractions: usize,
}

/// Apply one delta window to a dataset's graph and train split.
///
/// Adds intern their strings (growing the graph) and append to
/// `train`; retractions mark the *last* live matching train entry. The
/// graph's triple list keeps retracted edges (ids are positional and
/// historical edges are harmless to negative sampling); `live` tracks
/// which train entries are currently trainable and must be the same
/// length as `dataset.train` (it is extended alongside).
pub fn apply_window(
    dataset: &mut Dataset,
    live: &mut Vec<bool>,
    window: &DeltaWindow,
) -> AppliedWindow {
    assert_eq!(
        live.len(),
        dataset.train.len(),
        "live mask out of sync with train split"
    );
    // Index live train entries by ids for retraction lookup.
    let mut by_ids: HashMap<(u32, u16, u32), Vec<usize>> = HashMap::new();
    for (i, t) in dataset.train.iter().enumerate() {
        if live[i] {
            by_ids
                .entry((t.product.0, t.attr.0, t.value.0))
                .or_default()
                .push(i);
        }
    }
    let mut out = AppliedWindow::default();
    for d in &window.ops {
        match d.op {
            DeltaOp::Add => {
                let t: Triple = dataset.graph.add_fact(&d.title, &d.attr, &d.value);
                let i = dataset.train.len();
                dataset.train.push(t);
                dataset.train_clean.push(true);
                live.push(true);
                by_ids
                    .entry((t.product.0, t.attr.0, t.value.0))
                    .or_default()
                    .push(i);
                out.added.push(i);
            }
            DeltaOp::Retract => {
                let p = dataset.graph.intern_product(&d.title);
                let a = dataset.graph.intern_attr(&d.attr);
                let v = dataset.graph.intern_value(&d.value);
                match by_ids.get_mut(&(p.0, a.0, v.0)).and_then(|ix| ix.pop()) {
                    Some(i) => {
                        live[i] = false;
                        out.retracted.push(i);
                    }
                    None => out.missed_retractions += 1,
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ProductGraph;

    fn d(op: DeltaOp, t: &str, a: &str, v: &str) -> TripleDelta {
        TripleDelta {
            op,
            title: t.into(),
            attr: a.into(),
            value: v.into(),
        }
    }

    fn sample_stream() -> Vec<DeltaWindow> {
        vec![
            DeltaWindow {
                index: 0,
                ops: vec![
                    d(DeltaOp::Add, "brand9 spicy chips", "flavor", "spicy"),
                    d(DeltaOp::Retract, "brand3 cola drink", "flavor", "cola"),
                ],
            },
            DeltaWindow {
                index: 1,
                ops: vec![d(DeltaOp::Add, "brand3 cola drink", "flavor", "vanilla")],
            },
        ]
    }

    #[test]
    fn round_trips_through_text() {
        let windows = sample_stream();
        let mut buf = Vec::new();
        write_delta_stream(&windows, &mut buf).unwrap();
        let back = read_delta_stream(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, windows);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(read_delta_stream(&b""[..]).is_err());
        assert!(read_delta_stream(&b"#pge-delta v2\n"[..]).is_err());
        let bad_op = b"#pge-delta v1\n#window 0 1\nmorph\ta\tb\tc\n";
        assert!(matches!(
            read_delta_stream(&bad_op[..]),
            Err(DeltaError::Parse(3, _))
        ));
        let wrong_count = b"#pge-delta v1\n#window 0 2\nadd\ta\tb\tc\n";
        assert!(read_delta_stream(&wrong_count[..]).is_err());
        let out_of_order = b"#pge-delta v1\n#window 1 0\n";
        assert!(read_delta_stream(&out_of_order[..]).is_err());
        let orphan = b"#pge-delta v1\nadd\ta\tb\tc\n";
        assert!(read_delta_stream(&orphan[..]).is_err());
        let mut buf = Vec::new();
        let mut w = sample_stream();
        w[1].index = 5;
        assert!(write_delta_stream(&w, &mut buf).is_err());
    }

    #[test]
    fn fingerprint_tracks_prefix_and_content() {
        let windows = sample_stream();
        let fp1 = stream_fingerprint(&windows[..1]);
        let fp2 = stream_fingerprint(&windows);
        assert_ne!(fp1, fp2, "prefix length matters");
        assert_eq!(fp2, stream_fingerprint(&sample_stream()), "deterministic");
        let mut edited = sample_stream();
        edited[1].ops[0].value = "cherry".into();
        assert_ne!(fp2, stream_fingerprint(&edited), "content matters");
        let mut swapped = sample_stream();
        swapped[0].ops[0].op = DeltaOp::Retract;
        assert_ne!(fp2, stream_fingerprint(&swapped), "op kind matters");
    }

    #[test]
    fn apply_window_grows_and_retracts() {
        let mut g = ProductGraph::new();
        let t0 = g.add_fact("brand3 cola drink", "flavor", "cola");
        let t1 = g.add_fact("brand4 lime drink", "flavor", "lime");
        let mut ds = Dataset::new(g, vec![t0, t1], vec![], vec![]);
        let mut live = vec![true; ds.train.len()];
        let windows = sample_stream();

        let a0 = apply_window(&mut ds, &mut live, &windows[0]);
        assert_eq!(a0.added, vec![2], "one add appended at index 2");
        assert_eq!(a0.retracted, vec![0], "the cola fact is withdrawn");
        assert_eq!(a0.missed_retractions, 0);
        assert_eq!(ds.train.len(), 3);
        assert_eq!(live, vec![false, true, true]);

        let a1 = apply_window(&mut ds, &mut live, &windows[1]);
        assert_eq!(a1.added, vec![3]);
        assert_eq!(ds.graph.value_text(ds.train[3].value), "vanilla");
        // The same title resolves to the same interned product id.
        assert_eq!(ds.train[3].product, ds.train[0].product);

        // Retracting something already gone is counted, not fatal.
        let again = DeltaWindow {
            index: 2,
            ops: vec![d(DeltaOp::Retract, "brand3 cola drink", "flavor", "cola")],
        };
        let a2 = apply_window(&mut ds, &mut live, &again);
        assert_eq!(a2.missed_retractions, 1);
        assert!(a2.retracted.is_empty());
    }
}
