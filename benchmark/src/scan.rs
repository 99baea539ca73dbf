//! The two bulk-scan workloads. Same pipeline, opposite providers:
//! `scan_encode` turns text into vectors with the CNN behind the LRU,
//! `scan_bank` looks them up in the mapped bank.

use crate::fixtures::{self, Scale};
use crate::layers::{self, Row};
use crate::manifest;
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::stats::fastest;
use crate::ChildArgs;
use pge_core::{load_model_auto_path, PgeModel};
use pge_graph::RawTripleReader;
use pge_scan::{scan, shard_file_name, Manifest, ScanConfig, ScanOutcome};
use pge_store::{CatalogReader, MmapMode, Snapshot};
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Pass {
    wall_s: f64,
    outcome: ScanOutcome,
    crcs: Vec<u32>,
}

impl Pass {
    fn rows_per_s(&self) -> f64 {
        self.outcome.rows_total as f64 / self.wall_s
    }
}

struct Scanner<'a> {
    model: &'a PgeModel,
    threshold: f32,
    input: PathBuf,
    dir: &'a Path,
    next: u64,
}

impl Scanner<'_> {
    fn out_dir(&self, pass: u64) -> PathBuf {
        self.dir.join(format!("scan-out-{pass}"))
    }

    /// One pass into a fresh out-dir. Pass 0's output stays for the
    /// oracle; later ones are deleted outside the timed region.
    fn pass(&mut self, jobs: usize, rec: &mut Recorder) -> Result<Pass, String> {
        let idx = self.next;
        self.next += 1;
        let out = self.out_dir(idx);
        let _ = std::fs::remove_dir_all(&out);
        let mut cfg = ScanConfig::new(&out);
        cfg.jobs = jobs;
        let s = rec.begin("scan.scan", idx);
        let outcome = scan(self.model, self.threshold, &self.input, &cfg)
            .map_err(|e| format!("scan pass {idx}: {e}"))?;
        let wall_s = rec.end(s, 1);
        let crcs = Manifest::load(&out)
            .map_err(|e| format!("load manifest: {e}"))?
            .ok_or("scan left no manifest")?
            .shards
            .iter()
            .map(|s| s.crc32)
            .collect();
        if idx != 0 {
            let _ = std::fs::remove_dir_all(&out);
        }
        Ok(Pass {
            wall_s,
            outcome,
            crcs,
        })
    }
}

/// Check `sample` evenly spaced rows of pass 0's shards against
/// `PgeModel::score_text_triple` on the bank-less heap model: the
/// printed f32 must parse back to the oracle's exact bits.
fn check_oracle(out_dir: &Path, total_rows: u64, sample: usize, heap: &PgeModel, o: &mut Outcome) {
    let manifest = match Manifest::load(out_dir) {
        Ok(Some(m)) => m,
        _ => return o.fail(1, "oracle: pass 0 manifest missing".into()),
    };
    let step = (total_rows / sample.max(1) as u64).max(1);
    let mut row_no = 0u64;
    let mut checked = 0u64;
    for i in 0..manifest.shards.len() {
        let path = out_dir.join(shard_file_name(i));
        let Ok(file) = std::fs::File::open(&path) else {
            return o.fail(1, format!("oracle: cannot open {}", path.display()));
        };
        for line in BufReader::with_capacity(1 << 20, file).lines() {
            let due = row_no.is_multiple_of(step);
            row_no += 1;
            if !due {
                continue;
            }
            let Ok(line) = line else {
                return o.fail(1, "oracle: unreadable shard line".into());
            };
            checked += 1;
            let f: Vec<&str> = line.split('\t').collect();
            let got = (f.len() == 5).then(|| f[3].parse::<f32>().ok()).flatten();
            let want = (f.len() == 5)
                .then(|| heap.score_text_triple(f[0], f[1], f[2]))
                .flatten();
            match (got, want) {
                (Some(g), Some(w)) if g.to_bits() == w.to_bits() => {}
                _ => o.fail(
                    1,
                    format!("oracle: row {row_no} scored {got:?}, offline {want:?}"),
                ),
            }
        }
    }
    o.attempted += checked;
    o.info_num("oracle.rows_checked", checked as f64);
    if row_no != total_rows {
        o.fail(
            1,
            format!("oracle: shards hold {row_no} rows, scan reported {total_rows}"),
        );
    }
}

fn read_prefix_tsv(path: &Path, n: usize, rec: &mut Recorder) -> Result<(Vec<Row>, f64), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open tsv: {e}"))?;
    let reader = RawTripleReader::new(BufReader::with_capacity(256 << 10, file));
    let mut rows = Vec::with_capacity(n);
    let s = rec.begin("graph.raw_triple_reader", 0);
    let t0 = Instant::now();
    let mut parsed = Vec::with_capacity(n);
    for r in reader.take(n) {
        parsed.push(r.map_err(|e| format!("tsv row: {}", e.reason))?);
    }
    let ns = t0.elapsed().as_nanos() as f64 / parsed.len().max(1) as f64;
    rec.end(s, parsed.len() as u64);
    for t in &parsed {
        rows.push(Row {
            title: t.title().into(),
            attr: t.attr().into(),
            value: t.value().into(),
        });
    }
    Ok((rows, ns))
}

fn read_prefix_blob(path: &Path, n: usize, rec: &mut Recorder) -> Result<(Vec<Row>, f64), String> {
    let reader = CatalogReader::open(path).map_err(|e| format!("open catalog: {e}"))?;
    let s = rec.begin("store.catalog_records", 0);
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(n);
    for r in reader
        .records()
        .map_err(|e| format!("read catalog: {e}"))?
        .take(n)
    {
        let r = r.map_err(|e| format!("catalog record: {e}"))?;
        rows.push(Row {
            title: r.title,
            attr: r.attr,
            value: r.value,
        });
    }
    let ns = t0.elapsed().as_nanos() as f64 / rows.len().max(1) as f64;
    rec.end(s, rows.len() as u64);
    Ok((rows, ns))
}

pub fn child(args: &ChildArgs) -> Result<Outcome, String> {
    let scale = Scale::pick(args.smoke);
    let bank = args.workload == "scan_bank";
    let mut rec = Recorder::new(false);
    let mut o = Outcome::default();

    // Set-up, child half: rebuild the sample graph and load the model.
    let (model_file, mode, budget, input) = if bank {
        (
            fixtures::MODEL_BANK,
            MmapMode::On,
            scale.resident_mib << 20,
            fixtures::CATALOG_BLOB,
        )
    } else {
        (
            fixtures::MODEL_HEAP,
            MmapMode::Off,
            0,
            fixtures::CATALOG_TSV,
        )
    };
    let s = rec.begin("core.load_model_auto_path", 0);
    let data = fixtures::sample_dataset(&scale, args.seed);
    let model = load_model_auto_path(&args.dir.join(model_file), &data.graph, mode, budget)
        .map_err(|e| format!("load model: {e}"))?;
    let load_s = rec.end(s, 1);
    o.put_value("setup_child_s", load_s);
    if args.trace {
        o.put_value("core.model_load_ms", load_s * 1e3);
    }
    if bank && !model.bank().is_some_and(|b| b.is_mapped()) {
        return Err("scan_bank needs a mapped bank".into());
    }

    let mut scanner = Scanner {
        model: &model,
        threshold: args.threshold,
        input: args.dir.join(input),
        dir: &args.dir,
        next: 0,
    };
    let jobs = if bank { 1 } else { 0 };

    // Measured phase. A traced run alternates passes with the recorder
    // off and on, which prices the recorder against the same drift.
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while scale.another_pass(
        passes.len() + traced.len(),
        t0.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        passes.push(scanner.pass(jobs, &mut rec)?);
        if args.trace {
            rec.set_on(true);
            traced.push(scanner.pass(jobs, &mut rec)?);
            rec.set_on(false);
        }
    }
    o.put_value("peak_rss_mib", manifest::peak_rss_mib());

    let rates: Vec<f64> = passes.iter().map(Pass::rows_per_s).collect();
    o.put_fastest("rows_per_s", &rates);
    o.info_num("passes", passes.len() as f64);
    o.info_num("rows_per_pass", passes[0].outcome.rows_total as f64);
    o.info_num("jobs_resolved", passes[0].outcome.jobs as f64);
    for p in passes.iter().chain(&traced) {
        o.attempted += p.outcome.rows_total + p.outcome.quarantined_total;
        if p.outcome.quarantined_total > 0 {
            o.fail(
                p.outcome.quarantined_total,
                format!("{} rows quarantined", p.outcome.quarantined_total),
            );
        }
        if !p.outcome.done || p.crcs != passes[0].crcs {
            o.fail(1, "a pass's shard CRC list differs from pass 0's".into());
        }
    }

    if args.trace {
        rec.set_on(true);
        let traced_rate = fastest(&traced.iter().map(Pass::rows_per_s).collect::<Vec<_>>());
        let base = fastest(&rates);
        o.put_value(
            "obs.trace_overhead_pct",
            (base - traced_rate) / base * 100.0,
        );
        layer_metrics(
            args,
            &scale,
            &model,
            &passes,
            &mut scanner,
            &mut rec,
            &mut o,
        )?;
    }

    // Oracle last: it loads a second model, which must not show in
    // the peak RSS read above.
    let loaded;
    let heap = if bank {
        loaded = load_model_auto_path(
            &args.dir.join(fixtures::MODEL_HEAP),
            &data.graph,
            MmapMode::Off,
            0,
        )
        .map_err(|e| format!("load oracle model: {e}"))?;
        &loaded
    } else {
        &model
    };
    check_oracle(
        &scanner.out_dir(0),
        passes[0].outcome.rows_total,
        scale.oracle_rows,
        heap,
        &mut o,
    );

    if args.trace {
        let path = fixtures::out_dir().join(format!("trace-{}.jsonl", args.workload));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
        o.info_num("trace.spans", rec.len() as f64);
    }
    Ok(o)
}

/// Everything the traced run adds: pipeline ratios from the public
/// outcome struct, one pass at the other `jobs` setting, and the
/// layer replays over the input's prefix.
fn layer_metrics(
    args: &ChildArgs,
    scale: &Scale,
    model: &PgeModel,
    passes: &[Pass],
    scanner: &mut Scanner,
    rec: &mut Recorder,
    o: &mut Outcome,
) -> Result<(), String> {
    let bank = args.workload == "scan_bank";
    let of = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    o.put_samples(
        "scan.worker_busy_share",
        &of(&|p| {
            let busy: f64 = p.outcome.worker_busy_sec.iter().sum();
            busy / (p.outcome.jobs.max(1) as f64 * p.outcome.elapsed_sec)
        }),
    );
    o.put_samples(
        "scan.effective_parallelism",
        &of(&|p| p.outcome.effective_parallelism),
    );
    o.put_samples(
        "core.cache_hit_rate",
        &of(&|p| {
            let (h, m) = (p.outcome.cache_hits as f64, p.outcome.cache_misses as f64);
            h / (h + m).max(1.0)
        }),
    );
    let misses_per_row =
        passes[0].outcome.cache_misses as f64 / passes[0].outcome.rows_total as f64;

    // One extra pass at the other setting: jobs 1 against auto.
    let measured = fastest(&of(&Pass::rows_per_s));
    let other = scanner.pass(if bank { 0 } else { 1 }, rec)?;
    o.attempted += other.outcome.rows_total;
    if other.crcs != passes[0].crcs {
        o.fail(1, "shard CRCs depend on --jobs".into());
    }
    let (auto, jobs1) = if bank {
        (other.rows_per_s(), measured)
    } else {
        (measured, other.rows_per_s())
    };
    o.put_value("scan.jobs1_rows_per_s", jobs1);
    o.put_value("scan.scaling_ratio", auto / jobs1);

    let (rows, read_ns) = if bank {
        read_prefix_blob(&scanner.input, scale.replay_rows, rec)?
    } else {
        read_prefix_tsv(&scanner.input, scale.replay_rows, rec)?
    };
    o.put_value(
        if bank {
            "store.catalog_read_ns_per_row"
        } else {
            "graph.tsv_parse_ns_per_row"
        },
        read_ns,
    );
    let strings = layers::distinct_strings(&rows);
    o.info_num("replay.rows", rows.len() as f64);
    o.info_num("replay.distinct_strings", strings.len() as f64);
    layers::replay_cache(model, &strings, rec, o);
    layers::replay_scoring(model, &rows, rec, o);

    let provider_ns = if bank {
        let b = model.bank().expect("checked at load");
        // The passes' own counters, read before the replay adds to them.
        let (hits, misses) = b.hit_stats();
        o.put_value(
            "store.bank_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        o.put_value("store.bank_evictions", b.evictions() as f64);
        let mut sink = 0.0f32;
        let ns = layers::per_call_ns(rec, "store.bank_lookup", strings.len(), |i| {
            sink += b.lookup(strings[i]).map_or(0.0, |r| r[0]);
        });
        std::hint::black_box(sink);
        o.put_value("store.bank_lookup_ns_per_key", ns);
        o.info_num(
            "store.bank_table_mib",
            b.table_bytes() as f64 / (1 << 20) as f64,
        );

        let path = args.dir.join(fixtures::MODEL_BANK);
        let mut open_ms = Vec::new();
        for rep in 0..3 {
            let s = rec.begin("store.snapshot_open", rep);
            let snap = Snapshot::open(&path, MmapMode::On).map_err(|e| format!("open: {e}"))?;
            open_ms.push(rec.end(s, 1) * 1e3);
            drop(snap);
        }
        o.put_samples("store.snapshot_open_ms", &open_ms);
        ns
    } else {
        layers::replay_text_stack(model, &strings[..strings.len().min(20_000)], rec, o);
        o.get("core.embed_ns_per_string").unwrap_or(0.0)
    };

    // Share of a jobs-1 row's wall time the replayed layers do not
    // explain (queues, commit, fsync); negative when the reader,
    // worker and committer threads overlap more than that.
    let layers_ns = read_ns
        + misses_per_row * (provider_ns + o.get("core.cache_miss_insert_ns").unwrap_or(0.0))
        + o.get("core.score_hit_ns_per_row").unwrap_or(0.0);
    o.put_value("scan.unattributed_share", 1.0 - layers_ns / (1e9 / jobs1));
    o.info_num("scan.layers_ns_per_row", layers_ns);
    o.info_num("scan.encodes_per_row", misses_per_row);
    Ok(())
}
