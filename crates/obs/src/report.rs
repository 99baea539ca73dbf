//! `pge report` — turn a JSONL run log into a human-readable summary:
//! loss-curve sparkline, confidence-polarization trend, eval metrics,
//! incremental-ingest windows, serving latency quantiles, and the
//! hottest spans.

use crate::json::{parse, Json};
use std::fmt::Write as _;

const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a Unicode block sparkline (empty input → "").
pub fn sparkline(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '·';
            }
            if hi <= lo {
                return TICKS[3];
            }
            let t = (v - lo) / (hi - lo);
            TICKS[((t * (TICKS.len() - 1) as f64).round() as usize).min(TICKS.len() - 1)]
        })
        .collect()
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

/// Summarize a whole run log. Lines that fail to parse are counted
/// and reported, not fatal — a truncated tail (crashed run) must not
/// hide the epochs that did complete.
pub fn render_report(jsonl: &str) -> Result<String, String> {
    let mut manifests: Vec<Json> = Vec::new();
    let mut epochs: Vec<Json> = Vec::new();
    let mut evals: Vec<Json> = Vec::new();
    let mut serves: Vec<Json> = Vec::new();
    let mut gateways: Vec<Json> = Vec::new();
    let mut scans: Vec<Json> = Vec::new();
    let mut checkpoints: Vec<Json> = Vec::new();
    let mut ingests: Vec<Json> = Vec::new();
    let mut spans: Vec<Json> = Vec::new();
    let mut traces: Vec<Json> = Vec::new();
    let mut bad_lines = 0usize;
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = parse(line) else {
            bad_lines += 1;
            continue;
        };
        match v.get("event").and_then(Json::as_str) {
            Some("manifest") => manifests.push(v),
            Some("epoch") => epochs.push(v),
            Some("eval") => evals.push(v),
            Some("serve") => serves.push(v),
            Some("gateway") => gateways.push(v),
            Some("scan") => scans.push(v),
            Some("checkpoint") => checkpoints.push(v),
            Some("ingest") => ingests.push(v),
            Some("spans") => spans.push(v),
            Some("trace") => traces.push(v),
            _ => bad_lines += 1,
        }
    }
    if manifests.is_empty()
        && epochs.is_empty()
        && evals.is_empty()
        && serves.is_empty()
        && gateways.is_empty()
        && scans.is_empty()
        && checkpoints.is_empty()
        && ingests.is_empty()
        && traces.is_empty()
    {
        return Err("no recognizable run-log events".into());
    }

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "pge run report");
    let _ = writeln!(w, "==============");
    for m in &manifests {
        let kind = m.get("kind").and_then(Json::as_str).unwrap_or("?");
        let seed = num(m, "seed").unwrap_or(f64::NAN);
        let rev = m
            .get("git_rev")
            .and_then(Json::as_str)
            .map(|r| r.chars().take(10).collect::<String>())
            .unwrap_or_else(|| "unknown".into());
        let _ = writeln!(w, "run: {kind}  seed {seed}  git {rev}");
        if let Some(Json::Obj(pairs)) = m.get("config") {
            for (k, v) in pairs {
                if let Json::Str(s) = v {
                    let _ = writeln!(w, "  {k} = {s}");
                }
            }
        }
    }

    if !epochs.is_empty() {
        let losses: Vec<f64> = epochs.iter().filter_map(|e| num(e, "mean_loss")).collect();
        let tput: Vec<f64> = epochs
            .iter()
            .filter_map(|e| num(e, "triples_per_sec"))
            .collect();
        let _ = writeln!(w, "\ntraining: {} epochs", epochs.len());
        if let (Some(first), Some(last)) = (losses.first(), losses.last()) {
            let _ = writeln!(
                w,
                "  loss   {first:.4} -> {last:.4}   {}",
                sparkline(&losses)
            );
        }
        if !tput.is_empty() {
            let mean = tput.iter().sum::<f64>() / tput.len() as f64;
            let _ = writeln!(w, "  speed  {mean:.0} triples/s mean");
        }
        // Data-parallel runs log their thread count and per-worker
        // busy fractions; summarize the last epoch's view.
        if let Some(threads) = epochs.last().and_then(|e| num(e, "threads")) {
            if threads > 1.0 {
                let util: Vec<f64> = epochs
                    .last()
                    .and_then(|e| e.get("worker_utilization"))
                    .and_then(Json::as_array)
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
                if util.is_empty() {
                    let _ = writeln!(w, "  workers {threads:.0}");
                } else {
                    let mean_u = util.iter().sum::<f64>() / util.len() as f64;
                    let _ = writeln!(
                        w,
                        "  workers {threads:.0}, mean utilization {:.0}%",
                        mean_u * 100.0
                    );
                }
            }
        }
        let polar: Vec<f64> = epochs
            .iter()
            .filter_map(|e| e.get("confidence").and_then(|c| num(c, "polarized_frac")))
            .collect();
        if let (Some(first), Some(last)) = (polar.first(), polar.last()) {
            let _ = writeln!(
                w,
                "  confidence polarization {first:.3} -> {last:.3}   {}",
                sparkline(&polar)
            );
        } else {
            let _ = writeln!(w, "  confidence: noise-aware mechanism off");
        }
        if let Some(md) = epochs
            .last()
            .and_then(|e| e.get("confidence").and_then(|c| num(c, "marked_down_frac")))
        {
            let _ = writeln!(w, "  marked down {:.1}% of training triples", md * 100.0);
        }
    }

    // Trainer-checkpoint provenance: where this run resumed from, and
    // how far its own checkpoints reach.
    if !checkpoints.is_empty() {
        if let Some(from) = checkpoints.iter().find_map(|c| num(c, "resumed_from")) {
            let _ = writeln!(w, "\ncheckpoint: resumed from epoch {from:.0}");
        }
        let writes: Vec<&Json> = checkpoints
            .iter()
            .filter(|c| num(c, "epoch").is_some())
            .collect();
        if let Some(last) = writes.last() {
            let _ = writeln!(
                w,
                "\ncheckpoint: {} written (through epoch {:.0}, {:.0} KiB each)",
                writes.len(),
                num(last, "epoch").unwrap_or(0.0),
                num(last, "bytes").unwrap_or(0.0) / 1024.0
            );
        }
    }

    // Incremental ingest: one record per delta window.
    if let Some(last) = ingests.last() {
        let total = |k: &str| ingests.iter().filter_map(|e| num(e, k)).sum::<f64>();
        let _ = writeln!(
            w,
            "\nincremental: {} windows, {} added, {} retracted",
            ingests.len(),
            total("added"),
            total("retracted")
        );
        if let Some(loss) = num(last, "mean_loss") {
            let _ = writeln!(w, "  last window mean loss {loss:.4}");
        }
        // `push_version` is -1 for a window that was not pushed.
        let pushed: Vec<String> = ingests
            .iter()
            .filter_map(|e| num(e, "push_version"))
            .filter(|&v| v >= 0.0)
            .map(|v| v.to_string())
            .collect();
        if pushed.is_empty() {
            let _ = writeln!(w, "  not pushed to a gateway");
        } else {
            let _ = writeln!(w, "  pushed generations {}", pushed.join(", "));
        }
    }

    for e in &evals {
        let _ = write!(w, "\neval: ");
        match num(e, "pr_auc") {
            Some(auc) => {
                let _ = write!(w, "PR AUC {auc:.3}  ");
            }
            None => {
                let _ = write!(w, "PR AUC n/a  ");
            }
        }
        let _ = writeln!(
            w,
            "threshold {:.3}  valid acc {:.3}  ({} test triples)",
            num(e, "threshold").unwrap_or(f64::NAN),
            num(e, "valid_accuracy").unwrap_or(f64::NAN),
            num(e, "test_triples").unwrap_or(0.0)
        );
    }

    // `serve` snapshots come from logs written before `pge serve` ran
    // the gateway; they still render.
    for s in &serves {
        let _ = writeln!(
            w,
            "\nserve: {} requests, {} items, {} batches, {} rejected",
            num(s, "requests_total").unwrap_or(0.0),
            num(s, "items_total").unwrap_or(0.0),
            num(s, "batches_total").unwrap_or(0.0),
            num(s, "rejected_total").unwrap_or(0.0),
        );
        if let (Some(p50), Some(p99)) = (num(s, "latency_p50_ms"), num(s, "latency_p99_ms")) {
            let _ = writeln!(w, "  latency p50 {p50:.2} ms  p99 {p99:.2} ms");
        }
        if let (Some(h), Some(m)) = (num(s, "cache_hits"), num(s, "cache_misses")) {
            let rate = if h + m > 0.0 {
                h / (h + m) * 100.0
            } else {
                0.0
            };
            let _ = writeln!(w, "  cache hit rate {rate:.1}%  ({h} hits / {m} misses)");
        }
    }

    // Gateway events come in two flavors: one record per model
    // hot-swap (has "swap") and a shutdown snapshot with the
    // counters. Summarize the snapshot; fold the swap trail in.
    let swap_records = gateways.iter().filter(|g| num(g, "swap").is_some()).count();
    for g in gateways
        .iter()
        .filter(|g| num(g, "requests_total").is_some())
    {
        let _ = writeln!(
            w,
            "\ngateway: {} requests, {} responses, {} rejected, {} malformed",
            num(g, "requests_total").unwrap_or(0.0),
            num(g, "responses_total").unwrap_or(0.0),
            num(g, "rejected_total").unwrap_or(0.0),
            num(g, "bad_requests_total").unwrap_or(0.0),
        );
        if let (Some(p50), Some(p99)) = (num(g, "latency_p50_ms"), num(g, "latency_p99_ms")) {
            let _ = writeln!(w, "  latency p50 {p50:.2} ms  p99 {p99:.2} ms");
        }
        if let Some(skew) = num(g, "routing_skew") {
            let _ = writeln!(w, "  routing skew {skew:.2} (max/mean routed per replica)");
        }
        let swaps = num(g, "swaps_total").unwrap_or(swap_records as f64);
        if swaps > 0.0 {
            let _ = writeln!(
                w,
                "  {swaps} model hot-swaps (serving version {})",
                num(g, "model_version").unwrap_or(0.0)
            );
        }
        if let Some(conns) = num(g, "accepted_total") {
            let _ = writeln!(w, "  {conns} connections accepted");
        }
    }
    // Swap trail without a shutdown snapshot (e.g. a still-running
    // gateway's log): still worth a line.
    if swap_records > 0 && !gateways.iter().any(|g| num(g, "requests_total").is_some()) {
        let latest = gateways
            .iter()
            .filter_map(|g| num(g, "version"))
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            w,
            "\ngateway: {swap_records} model hot-swaps (serving version {latest})"
        );
    }

    for s in &scans {
        let _ = writeln!(
            w,
            "\nscan: {} rows in {} shards, {} flagged, {} quarantined",
            num(s, "rows_total").unwrap_or(0.0),
            num(s, "shards_total").unwrap_or(0.0),
            num(s, "errors_total").unwrap_or(0.0),
            num(s, "quarantined_total").unwrap_or(0.0),
        );
        if let Some(rps) = num(s, "rows_per_sec") {
            let _ = writeln!(w, "  throughput {rps:.0} rows/s");
        }
        if let Some(resumed) = num(s, "resumed_rows") {
            if resumed > 0.0 {
                let _ = writeln!(w, "  resumed past {resumed} already-scanned rows");
            }
        }
        if let (Some(h), Some(m)) = (num(s, "cache_hits"), num(s, "cache_misses")) {
            let rate = if h + m > 0.0 {
                h / (h + m) * 100.0
            } else {
                0.0
            };
            let _ = writeln!(w, "  cache hit rate {rate:.1}%  ({h} hits / {m} misses)");
        }
    }

    // Memory: the largest RSS high-water mark any event recorded
    // (manifests carry the post-load value, spans events the
    // end-of-run one).
    let peak_rss = manifests
        .iter()
        .chain(spans.iter())
        .filter_map(|ev| num(ev, "peak_rss_bytes"))
        .fold(0.0f64, f64::max);
    if peak_rss > 0.0 {
        let _ = writeln!(w, "\npeak rss: {:.1} MB", peak_rss / 1e6);
    }

    // Merge every spans event: each command in a shared pipeline file
    // (train, then detect, then serve) snapshots its own process.
    let mut merged: std::collections::BTreeMap<String, (f64, f64)> =
        std::collections::BTreeMap::new();
    for ev in &spans {
        if let Some(Json::Arr(items)) = ev.get("spans") {
            for s in items {
                let (Some(path), Some(count), Some(total)) = (
                    s.get("path").and_then(Json::as_str),
                    num(s, "count"),
                    num(s, "total_secs"),
                ) else {
                    continue;
                };
                let e = merged.entry(path.to_string()).or_insert((0.0, 0.0));
                e.0 += count;
                e.1 += total;
            }
        }
    }
    if !merged.is_empty() {
        let mut rows: Vec<(String, f64, f64)> =
            merged.into_iter().map(|(p, (c, t))| (p, c, t)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        let _ = writeln!(w, "\nspans (by total time):");
        for (path, count, total) in rows.iter().take(10) {
            let _ = writeln!(w, "  {total:>9.3}s  x{count:<6} {path}");
        }
    }

    // Tail-sampled traces get a one-line pointer here; the full
    // per-stage waterfalls live in `pge trace` (render_traces).
    if !traces.is_empty() {
        let errors = traces
            .iter()
            .filter(|t| t.get("error").and_then(Json::as_bool) == Some(true))
            .count();
        let slowest = traces
            .iter()
            .filter_map(|t| num(t, "total_ms"))
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            w,
            "\ntraces: {} retained ({errors} errored, slowest {slowest:.2} ms) — `pge trace <log>` for waterfalls",
            traces.len()
        );
    }

    if bad_lines > 0 {
        let _ = writeln!(w, "\n({bad_lines} unrecognized/corrupt lines skipped)");
    }
    Ok(out)
}

/// `pge trace` — render every tail-sampled `trace` event in a run log
/// as a per-stage waterfall: one row per recorded stage with its
/// offset, duration, and a proportional bar. Traces render newest
/// last (the order they were retained in).
pub fn render_traces(jsonl: &str) -> Result<String, String> {
    const BAR_WIDTH: f64 = 32.0;
    let mut traces: Vec<Json> = Vec::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        if let Ok(v) = parse(line) {
            if v.get("event").and_then(Json::as_str) == Some("trace") {
                traces.push(v);
            }
        }
    }
    if traces.is_empty() {
        return Err("no trace events in log (nothing was slow enough to retain?)".into());
    }

    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "pge trace report — {} retained traces", traces.len());
    let _ = writeln!(w, "=====================================");
    let totals: Vec<f64> = traces.iter().filter_map(|t| num(t, "total_ms")).collect();
    if totals.len() > 1 {
        let _ = writeln!(w, "retained totals (ms): {}", sparkline(&totals));
    }
    for t in &traces {
        let id = t.get("trace_id").and_then(Json::as_str).unwrap_or("?");
        let total = num(t, "total_ms").unwrap_or(f64::NAN);
        let errored = t.get("error").and_then(Json::as_bool) == Some(true);
        let _ = writeln!(
            w,
            "\ntrace {id}  total {total:.2} ms{}",
            if errored { "  [ERROR]" } else { "" }
        );
        let stages: Vec<&Json> = t
            .get("stages")
            .and_then(Json::as_array)
            .map(|a| a.iter().collect())
            .unwrap_or_default();
        if stages.is_empty() {
            let _ = writeln!(w, "  (no stage events survived in the ring)");
            continue;
        }
        let scale = if total.is_finite() && total > 0.0 {
            total
        } else {
            1.0
        };
        for (i, s) in stages.iter().enumerate() {
            let name = s.get("stage").and_then(Json::as_str).unwrap_or("?");
            let start = num(s, "t_ms").unwrap_or(0.0);
            // Stage duration: gap to the next event; the last stage
            // runs to the end of the trace.
            let end = stages
                .get(i + 1)
                .and_then(|n| num(n, "t_ms"))
                .unwrap_or(total.max(start));
            let dur = (end - start).max(0.0);
            let arg = num(s, "arg").unwrap_or(0.0);
            let offset = ((start / scale) * BAR_WIDTH).round() as usize;
            let width = (((dur / scale) * BAR_WIDTH).round() as usize).max(1);
            let _ = writeln!(
                w,
                "  {name:<16} +{start:>8.2} ms  {dur:>8.2} ms  {}{}  (arg {arg})",
                " ".repeat(offset.min(BAR_WIDTH as usize)),
                "█".repeat(width.min(BAR_WIDTH as usize + 1)),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runlog::{
        epoch_event, eval_event, manifest_event, stats_event, ConfidenceTelemetry, EpochTelemetry,
        EvalTelemetry,
    };

    fn sample_log() -> String {
        let mut lines = Vec::new();
        lines.push(manifest_event("train", 13, &[("epochs".into(), "3".into())]).to_string());
        for (i, loss) in [1.5, 0.9, 0.4].iter().enumerate() {
            lines.push(
                epoch_event(&EpochTelemetry {
                    epoch: i,
                    mean_loss: *loss,
                    triples: 100,
                    negatives: 300,
                    secs: 0.5,
                    triples_per_sec: 200.0,
                    threads: 4,
                    worker_utilization: vec![0.95, 0.9, 0.92, 0.88],
                    confidence: Some(ConfidenceTelemetry {
                        mean: 0.9,
                        polarized_frac: 0.5 + 0.1 * i as f32,
                        marked_down_frac: 0.05,
                        hist: vec![5, 0, 95],
                    }),
                })
                .to_string(),
            );
        }
        lines.push(
            eval_event(&EvalTelemetry {
                pr_auc: Some(0.91),
                threshold: -3.2,
                valid_accuracy: 0.95,
                test_triples: 40,
            })
            .to_string(),
        );
        // A serving snapshot as logs from the retired serve tier hold it.
        lines.push(
            concat!(
                r#"{"event":"serve","ts_ms":1,"requests_total":120,"items_total":480,"#,
                r#""batches_total":30,"rejected_total":0,"latency_p50_ms":2.1,"#,
                r#""latency_p99_ms":8.4,"cache_hits":400,"cache_misses":80}"#
            )
            .to_string(),
        );
        lines.join("\n") + "\n"
    }

    #[test]
    fn renders_all_sections() {
        let report = render_report(&sample_log()).unwrap();
        assert!(report.contains("pge run report"), "{report}");
        assert!(report.contains("run: train  seed 13"));
        assert!(report.contains("training: 3 epochs"));
        assert!(report.contains("loss   1.5000 -> 0.4000"));
        assert!(report.contains("confidence polarization 0.500 -> 0.700"));
        assert!(
            report.contains("workers 4, mean utilization 91%"),
            "{report}"
        );
        assert!(report.contains("PR AUC 0.910"));
        assert!(report.contains("serve: 120 requests"));
        assert!(report.contains("p99 8.40 ms"));
        assert!(report.contains("cache hit rate 83.3%"));
    }

    #[test]
    fn gateway_events_render_their_own_section() {
        let mut log = String::new();
        for v in [1.0, 2.0] {
            log.push_str(&stats_event("gateway", &[("swap", 1.0), ("version", v)]).to_string());
            log.push('\n');
        }
        log.push_str(
            &stats_event(
                "gateway",
                &[
                    ("requests_total", 50_000.0),
                    ("responses_total", 50_000.0),
                    ("rejected_total", 12.0),
                    ("bad_requests_total", 3.0),
                    ("accepted_total", 10_000.0),
                    ("swaps_total", 2.0),
                    ("model_version", 2.0),
                    ("routing_skew", 1.08),
                    ("latency_p50_ms", 1.4),
                    ("latency_p99_ms", 9.7),
                ],
            )
            .to_string(),
        );
        log.push('\n');
        let report = render_report(&log).unwrap();
        assert!(
            report.contains("gateway: 50000 requests, 50000 responses, 12 rejected, 3 malformed"),
            "{report}"
        );
        assert!(
            report.contains("latency p50 1.40 ms  p99 9.70 ms"),
            "{report}"
        );
        assert!(report.contains("routing skew 1.08"), "{report}");
        assert!(
            report.contains("2 model hot-swaps (serving version 2)"),
            "{report}"
        );
        assert!(report.contains("10000 connections accepted"), "{report}");

        // Swap trail alone (gateway still running) renders too.
        let only_swaps = stats_event("gateway", &[("swap", 1.0), ("version", 3.0)]).to_string();
        let report = render_report(&only_swaps).unwrap();
        assert!(
            report.contains("gateway: 1 model hot-swaps (serving version 3)"),
            "{report}"
        );
    }

    #[test]
    fn ingest_events_render_an_incremental_section() {
        let log: String = [
            (0.0, 40.0, 5.0, 0.61, -1.0),
            (1.0, 38.0, 9.0, 0.55, 4.0),
            (2.0, 41.0, 7.0, 0.52, 5.0),
        ]
        .iter()
        .map(|&(window, added, retracted, loss, push)| {
            stats_event(
                "ingest",
                &[
                    ("window", window),
                    ("added", added),
                    ("retracted", retracted),
                    ("missed_retractions", 0.0),
                    ("train_len", 900.0),
                    ("mean_loss", loss),
                    ("secs", 0.2),
                    ("push_version", push),
                ],
            )
            .to_string()
                + "\n"
        })
        .collect();
        let report = render_report(&log).unwrap();
        assert!(
            report.contains("incremental: 3 windows, 119 added, 21 retracted"),
            "{report}"
        );
        assert!(report.contains("last window mean loss 0.5200"), "{report}");
        assert!(report.contains("pushed generations 4, 5"), "{report}");
        assert!(!report.contains("corrupt"), "{report}");
    }

    #[test]
    fn scan_events_render_their_own_section() {
        let log = stats_event(
            "scan",
            &[
                ("rows_total", 1_000_000.0),
                ("shards_total", 31.0),
                ("errors_total", 52_110.0),
                ("quarantined_total", 7.0),
                ("rows_per_sec", 84_211.0),
                ("resumed_rows", 65_536.0),
                ("cache_hits", 900.0),
                ("cache_misses", 100.0),
            ],
        )
        .to_string();
        let report = render_report(&log).unwrap();
        assert!(
            report.contains("scan: 1000000 rows in 31 shards, 52110 flagged, 7 quarantined"),
            "{report}"
        );
        assert!(report.contains("throughput 84211 rows/s"), "{report}");
        assert!(
            report.contains("resumed past 65536 already-scanned rows"),
            "{report}"
        );
        assert!(report.contains("cache hit rate 90.0%"), "{report}");
    }

    #[test]
    fn checkpoint_events_render_provenance() {
        let mut log = sample_log();
        log.push_str(&stats_event("checkpoint", &[("resumed_from", 2.0)]).to_string());
        log.push('\n');
        for epoch in [3.0, 4.0] {
            log.push_str(
                &stats_event(
                    "checkpoint",
                    &[("epoch", epoch), ("bytes", 81920.0), ("write_secs", 0.004)],
                )
                .to_string(),
            );
            log.push('\n');
        }
        let report = render_report(&log).unwrap();
        assert!(
            report.contains("checkpoint: resumed from epoch 2"),
            "{report}"
        );
        assert!(
            report.contains("checkpoint: 2 written (through epoch 4, 80 KiB each)"),
            "{report}"
        );
        // A checkpoint-only log is still a recognizable run log.
        let only = stats_event("checkpoint", &[("epoch", 1.0), ("bytes", 1024.0)]).to_string();
        assert!(render_report(&only).is_ok());
    }

    #[test]
    fn spans_from_multiple_commands_are_merged() {
        // Two processes snapshotting into one pipeline file: the
        // report must show both, summing any shared paths.
        let log = concat!(
            r#"{"event":"manifest","ts_ms":1,"kind":"train","seed":1,"git_rev":null,"version":"0","config":{}}"#,
            "\n",
            r#"{"event":"spans","ts_ms":2,"spans":[{"path":"train.epoch","count":3,"total_secs":2.5}]}"#,
            "\n",
            r#"{"event":"spans","ts_ms":3,"spans":[{"path":"detect.score","count":2,"total_secs":0.5},{"path":"train.epoch","count":1,"total_secs":0.5}]}"#,
            "\n"
        );
        let report = render_report(log).unwrap();
        assert!(report.contains("train.epoch"), "{report}");
        assert!(report.contains("detect.score"), "{report}");
        assert!(report.contains("3.000s  x4"), "{report}");
    }

    #[test]
    fn corrupt_tail_is_skipped_not_fatal() {
        let log = sample_log() + "{\"event\":\"epoch\",\"mean_lo";
        let report = render_report(&log).unwrap();
        assert!(report.contains("1 unrecognized/corrupt lines skipped"));
        assert!(report.contains("training: 3 epochs"));
    }

    #[test]
    fn empty_log_is_an_error() {
        assert!(render_report("").is_err());
        assert!(render_report("not json\n").is_err());
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▄▄");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[f64::NAN, 1.0]).chars().next(), Some('·'));
    }
}
