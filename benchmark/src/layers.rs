//! Per-layer replays shared by the scan and gateway workloads: a
//! fixed prefix of the workload's own strings pushed through one
//! public function at a time, from outside the program.

use crate::outcome::Outcome;
use crate::spans::Recorder;
use pge_core::{CachedModel, EmbeddingCache, PgeModel, ScoreScratch};
use pge_tensor::kernels;
use pge_text::tokenize_each;
use std::hint::black_box;

/// Calls covered by one span when a single call is too short to time.
pub const BATCH: usize = 1024;

/// Run `f(i)` for `i in 0..n` under batch spans named `name`;
/// returns nanoseconds per call.
pub fn per_call_ns(
    rec: &mut Recorder,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let mut secs = 0.0;
    let mut start = 0;
    while start < n {
        let end = (start + BATCH).min(n);
        let s = rec.begin(name, (start / BATCH) as u64);
        for i in start..end {
            f(i);
        }
        secs += rec.end(s, (end - start) as u64);
        start = end;
    }
    secs * 1e9 / n as f64
}

/// One `title, attr, value` row of the workload's input.
pub struct Row {
    pub title: String,
    pub attr: String,
    pub value: String,
}

/// Distinct titles and values of `rows`, in first-seen order.
pub fn distinct_strings(rows: &[Row]) -> Vec<&str> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in rows {
        for s in [r.title.as_str(), r.value.as_str()] {
            if seen.insert(s) {
                out.push(s);
            }
        }
    }
    out
}

/// tokenise → embed → CNN infer → raw kernels, over `strings`.
pub fn replay_text_stack(
    model: &PgeModel,
    strings: &[&str],
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let n = strings.len();
    let mut tokens = 0usize;
    let ns = per_call_ns(rec, "text.tokenize_each", n, |i| {
        tokenize_each(black_box(strings[i]), |t| tokens += t.len());
    });
    black_box(tokens);
    out.put_value("text.tokenize_ns_per_string", ns);

    let mut sink = 0.0f32;
    let ns = per_call_ns(rec, "core.embed_text_uncached", n, |i| {
        sink += model.embed_text_uncached(black_box(strings[i]))[0];
    });
    out.put_value("core.embed_ns_per_string", ns);

    let ids: Vec<Vec<u32>> = strings
        .iter()
        .map(|s| {
            let mut v = Vec::with_capacity(16);
            tokenize_each(s, |t| v.push(model.vocab.get_or_unk(t)));
            v
        })
        .collect();
    let enc = model.encoder();
    let ns = per_call_ns(rec, "nn.encoder_infer", n, |i| {
        sink += enc.infer(black_box(&ids[i]))[0];
    });
    out.put_value("nn.cnn_infer_ns_per_string", ns);
    let mean_len = ids.iter().map(Vec::len).sum::<usize>() as f64 / n.max(1) as f64;
    out.info_num("replay.mean_tokens_per_string", mean_len);
    out.info_num(
        "nn.flops_per_mean_string",
        enc.flops(mean_len.round() as usize) as f64,
    );

    // Raw kernels at the default config's hottest shape: the widest
    // convolution scores 16 filters against a 3 × 32 window per
    // position. Operation and byte counts are computed, not measured.
    const ROWS: usize = 16;
    const COLS: usize = 96;
    let w: Vec<f32> = (0..ROWS * COLS).map(|i| (i % 13) as f32 * 0.01).collect();
    let x: Vec<f32> = (0..COLS).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut y = vec![0.0f32; ROWS];
    let calls = 200 * BATCH;
    let ns = per_call_ns(rec, "tensor.gemv", calls, |_| {
        kernels::gemv(black_box(&w), black_box(&x), &mut y);
        sink += y[0];
    });
    out.put_value("tensor.gemv_ns_per_call", ns);
    let ns = per_call_ns(rec, "tensor.dot", calls, |_| {
        sink += kernels::dot(black_box(&w[..COLS]), black_box(&x));
    });
    out.put_value("tensor.dot_ns_per_call", ns);
    black_box(sink);
    out.info_str("tensor.kernel", kernels::active_kernel().name());
    out.info_str("tensor.gemv_shape", &format!("{ROWS}x{COLS}"));
    out.info_num("tensor.gemv_flops_per_call", (2 * ROWS * COLS) as f64);
    out.info_num(
        "tensor.gemv_bytes_per_call",
        (4 * (ROWS * COLS + COLS + ROWS)) as f64,
    );
    out.info_num("tensor.dot_flops_per_call", (2 * COLS) as f64);
    out.info_num("tensor.dot_bytes_per_call", (4 * 2 * COLS) as f64);
}

/// The LRU in isolation: hits on a warm cache, and miss + insert on a
/// full one (so every insert pays its share of batch eviction). The
/// encoder is kept out by handing `copy_or_compute` a ready vector.
pub fn replay_cache(model: &PgeModel, strings: &[&str], rec: &mut Recorder, out: &mut Outcome) {
    let n = strings.len().min(32 * BATCH);
    let strings = &strings[..n];
    let row = vec![0.5f32; model.dim()];

    let warm = EmbeddingCache::new(2 * n.max(1));
    let mut buf = Vec::new();
    for s in strings {
        warm.copy_or_compute(s, &mut buf, || row.clone());
    }
    let mut sink = 0.0f32;
    let ns = per_call_ns(rec, "core.cache_with_cached", n, |i| {
        sink += warm
            .with_cached(black_box(strings[i]), |v| v[0])
            .unwrap_or(0.0);
    });
    out.put_value("core.cache_hit_ns_per_lookup", ns);

    let cap = (n / 8).max(16);
    let full = EmbeddingCache::new(cap);
    for s in &strings[..cap.min(n)] {
        full.copy_or_compute(s, &mut buf, || row.clone());
    }
    let cold = &strings[cap.min(n)..];
    let ns = per_call_ns(rec, "core.cache_copy_or_compute", cold.len(), |i| {
        full.copy_or_compute(black_box(cold[i]), &mut buf, || row.clone());
        sink += buf[0];
    });
    out.put_value("core.cache_miss_insert_ns", ns);
    black_box(sink);
}

/// The floor under either provider: a row whose embeddings are both
/// cached, and the relation scorer alone.
pub fn replay_scoring(model: &PgeModel, rows: &[Row], rec: &mut Recorder, out: &mut Outcome) {
    let cache = EmbeddingCache::new(4 * rows.len().max(1));
    let cm = CachedModel::new(model, &cache);
    let mut scratch = ScoreScratch::default();
    let mut sink = 0.0f32;
    for r in rows {
        sink += cm
            .score_text_triple_scratch(&r.title, &r.attr, &r.value, &mut scratch)
            .unwrap_or(0.0);
    }
    let before = cache.misses();
    let ns = per_call_ns(rec, "core.score_text_triple_scratch", rows.len(), |i| {
        let r = &rows[i];
        sink += cm
            .score_text_triple_scratch(&r.title, &r.attr, &r.value, &mut scratch)
            .unwrap_or(0.0);
    });
    out.put_value("core.score_hit_ns_per_row", ns);
    if cache.misses() != before {
        out.fail(1, "score replay was meant to be all hits".into());
    }

    let scorer = model.scorer();
    let prepared: Vec<_> = (0..model.attr_names().len())
        .map(|i| scorer.prepare(model.relation(pge_graph::AttrId(i as u16))))
        .collect();
    let h = model.embed_text_uncached(rows.first().map_or("a", |r| r.title.as_str()));
    let v = model.embed_text_uncached(rows.first().map_or("b", |r| r.value.as_str()));
    let ns = per_call_ns(rec, "core.prepared_relation_score", 200 * BATCH, |i| {
        sink += prepared[i % prepared.len()].score(black_box(&h), black_box(&v));
    });
    out.put_value("core.scorer_ns_per_call", ns);
    black_box(sink);
}
