//! `pge` — command-line error detection for product catalogs.
//!
//! ```text
//! pge generate --kind catalog|fb --out data.tsv [--products N] [--seed N]
//!              [--scan-out raw.tsv]
//!              [--count N --catalog-out catalog.bin]
//! pge train    --data data.tsv --out model.pge [--epochs N] [--score transe|rotate]
//!              [--threads N] [--checkpoint DIR | --resume DIR]
//!              [--stop-after N] [--runlog run.jsonl]
//! pge embed    --data data.tsv --model model.pge --catalog catalog.bin
//!              --out bank.pge [--mmap auto|on|off]
//! pge detect   --data data.tsv --model model.pge [--top N] [--runlog run.jsonl]
//! pge eval     --data data.tsv --model model.pge [--runlog run.jsonl]
//! pge serve    --data data.tsv --model model.pge [--addr HOST:PORT] [--replicas N]
//!              [--vnodes N] [--cache-cap N] [--queue-cap N] [--max-batch N]
//!              [--no-cache] [--trace-slow MS] [--mmap auto|on|off] [--runlog run.jsonl]
//! pge scan     --data data.tsv --model model.pge --input raw.tsv|catalog.bin
//!              --out-dir DIR
//!              [--jobs N] [--chunk-size N] [--shard-chunks N] [--cache-cap N]
//!              [--resume] [--max-shards N] [--mmap auto|on|off]
//!              [--runlog run.jsonl]
//! pge report   run.jsonl
//! pge trace    run.jsonl
//! pge check-metrics metrics.txt
//! ```
//!
//! `generate` writes a synthetic labeled dataset; `train` fits
//! PGE(CNN) on its training split and saves the model; `detect` ranks
//! the dataset's test triples by suspicion; `eval` reports PR AUC,
//! R@P, and thresholded accuracy; `serve` (alias `gateway`) answers
//! scoring requests over HTTP through the sharded gateway (see
//! `pge-gateway`): replicas behind a consistent-hash ring, hot-swap
//! on SIGHUP or `POST /admin/reload`, graceful drain on SIGTERM;
//! `scan` streams a raw
//! `title \t attr \t value` file through the model and writes sharded
//! scores with a checkpoint after every shard (see `pge-scan`) —
//! killed scans rerun with `--resume` and produce byte-identical
//! output.
//!
//! Models save as memory-mappable PGEBIN02 snapshots (sectioned,
//! 64-byte aligned, per-section CRC — see `pge-store`); `--mmap`
//! controls whether a command serves one straight off the page cache
//! (`on`), copies it to the heap (`off`), or maps it with a heap
//! fallback (`auto`, the default).
//!
//! `generate --count N --catalog-out catalog.bin` streams a
//! paper-scale seeded catalog (750k products ≈ 5M triples) to a
//! compact CRC-guarded binary blob without ever holding it in
//! memory; `pge scan` consumes it directly. `pge embed` pre-computes
//! an embedding bank for every distinct catalog string and writes it
//! into the model's snapshot, so scan/serve score out-of-core.
//!
//! `train --checkpoint DIR` writes the full trainer state (model,
//! Adam moments, confidence table) atomically to `DIR/trainer.ckpt`,
//! itself a PGEBIN02 file,
//! after every epoch; a killed run continues with `--resume DIR` and
//! finishes **bit-identical** to an uninterrupted run, at any
//! `--threads`. Resuming against a different dataset or config is
//! rejected by fingerprint. `--stop-after N` halts after N epochs
//! (with the checkpoint on disk) to simulate a kill in tests/CI.
//!
//! `train --threads N` splits every minibatch across N worker
//! threads, at most one per cpu (default: the machine's available
//! parallelism). Results are bit-identical for any thread count at a
//! fixed seed — see DESIGN.md on gradient-lane reduction.
//!
//! `--runlog` appends structured JSONL telemetry (run manifest,
//! per-epoch training records, eval results, serving snapshots, span
//! timings) to the given file; successive commands can share one file
//! and `pge report` summarizes it.

use pge::core::{
    load_model_auto_path, resolve_threads, save_model_store, train_incremental_with,
    train_pge_resumable, write_model_sections, CheckpointOptions, ConfidenceBackend, Detector,
    IncrementalConfig, PersistError, PgeConfig, PgeModel, ScoreKind,
};
use pge::datagen::{
    generate_catalog, generate_drift, generate_fbkg, stream_catalog, write_drift_eval,
    CatalogConfig, DriftConfig, FbkgConfig,
};
use pge::eval::{average_precision, recall_at_precision, Scored};
use pge::gateway::client::push_snapshot;
use pge::gateway::GatewayConfig;
use pge::graph::tsv::{from_tsv, to_tsv, write_raw_triples};
use pge::graph::{read_delta_stream, write_delta_stream, Dataset, ProductGraph, Triple};
use pge::obs::{
    eval_event, global_tracer, manifest_event, render_report, render_traces, set_spans_enabled,
    spans_event, stats_event, trace_event, validate_exposition, EvalTelemetry, RunLog, Tracer,
};
use pge::scan::ScanConfig;
use pge::store::{
    BankBuilder, CatalogReader, CatalogWriter, MmapMode, SnapshotWriter, DEFAULT_RESIDENT_BUDGET,
};
use std::collections::HashMap;
use std::path::Path;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  pge generate --kind catalog|fb --out data.tsv [--products N] [--seed N] [--scan-out raw.tsv]\n               \
         [--count N --catalog-out catalog.bin]   (streamed paper-scale binary catalog)\n               \
         [--drift-out deltas.tsv --drift-windows N --drift-ops N --drift-seed N\n                \
         --drift-eval-out eval.tsv]   (seeded churn scenario for incremental training)\n  \
         pge train    --data data.tsv --out model.pge [--epochs N] [--score transe|rotate]\n               \
         [--threads N] [--checkpoint DIR | --resume DIR] [--stop-after N]\n               \
         [--confidence pge|cca] [--runlog run.jsonl]\n               \
         [--incremental --deltas deltas.tsv --window-epochs N --snapshot-dir DIR\n                \
         --push HOST:PORT]   (warm-start from --checkpoint, ingest delta windows)\n  \
         pge embed    --data data.tsv --model model.pge --catalog catalog.bin --out bank.pge\n               \
         [--mmap auto|on|off]   (write model + precomputed embedding bank snapshot)\n  \
         pge detect   --data data.tsv --model model.pge [--top N] [--mmap auto|on|off] [--runlog run.jsonl]\n  \
         pge eval     --data data.tsv --model model.pge [--mmap auto|on|off] [--runlog run.jsonl]\n  \
         pge scan     --data data.tsv --model model.pge --input raw.tsv|catalog.bin --out-dir DIR\n               \
         [--jobs N] [--chunk-size N] [--shard-chunks N] [--cache-cap N]\n               \
         [--resume] [--max-shards N] [--mmap auto|on|off] [--runlog run.jsonl]\n  \
         pge serve    --data data.tsv --model model.pge [--addr HOST:PORT] [--replicas N]\n               \
         [--vnodes N] [--cache-cap N] [--queue-cap N] [--max-batch N] [--no-cache]\n               \
         [--trace-slow MS] [--mmap auto|on|off] [--runlog run.jsonl]   (SIGHUP hot-swaps --model from disk;\n               \
         `pge gateway` is the same command)\n  \
         pge report   run.jsonl\n  \
         pge trace    run.jsonl        (per-stage waterfalls of retained slow traces)\n  \
         pge check-metrics metrics.txt (lint a scraped /metrics exposition)"
    );
    exit(2)
}

/// Open the `--runlog` sink if requested, enabling span timers for
/// the rest of the process (they stay disabled — near-zero cost —
/// otherwise).
fn open_runlog(path: Option<String>) -> Option<RunLog> {
    let path = path?;
    let log = RunLog::create(&path).unwrap_or_else(|e| {
        eprintln!("cannot open runlog {path}: {e}");
        exit(1)
    });
    set_spans_enabled(true);
    Some(log)
}

/// Parse `--flag value` pairs. A flag followed by another flag (or by
/// the end of the arguments) is boolean and maps to `"true"` — so
/// `--no-cache` works with or without an explicit value.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let name = arg
            .strip_prefix("--")
            .filter(|n| !n.is_empty())
            .ok_or_else(|| format!("unexpected argument '{arg}'"))?;
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                flags.insert(name.to_string(), v.clone());
                i += 2;
            }
            _ => {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        }
    }
    Ok(flags)
}

/// Parse `--mmap auto|on|off` (default `auto`: map PGEBIN02
/// snapshots when possible, fall back to a heap copy).
fn parse_mmap(flags: &HashMap<String, String>) -> MmapMode {
    match flags.get("mmap").map(String::as_str) {
        None => MmapMode::Auto,
        Some(s) => MmapMode::parse(s).unwrap_or_else(|| {
            eprintln!("invalid --mmap '{s}' (expected auto, on, or off)");
            exit(2)
        }),
    }
}

/// Read a PGEBIN02 model snapshot; `mode` picks its backing.
fn load_model_file(path: &str, graph: &ProductGraph, mode: MmapMode) -> PgeModel {
    load_model_auto_path(Path::new(path), graph, mode, DEFAULT_RESIDENT_BUDGET).unwrap_or_else(
        |e| {
            eprintln!("cannot load model {path}: {e}");
            exit(1)
        },
    )
}

fn save_model_file(model: &PgeModel, path: &str) {
    save_model_store(model, Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
}

fn load_dataset(path: &str) -> Dataset {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    from_tsv(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    // `report`, `trace`, and `check-metrics` take a positional path,
    // which parse_flags rejects.
    if cmd == "report" || cmd == "trace" || cmd == "check-metrics" {
        let [_, path] = args.as_slice() else { usage() };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        let rendered = match cmd.as_str() {
            "report" => render_report(&text),
            "trace" => render_traces(&text),
            // CI lints a scraped /metrics body for well-formed
            // Prometheus text exposition.
            _ => validate_exposition(&text).map(|()| {
                let families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
                format!("{path}: OK ({families} metric families)\n")
            }),
        };
        match rendered {
            Ok(out) => print!("{out}"),
            Err(e) => {
                eprintln!("cannot summarize {path}: {e}");
                exit(1)
            }
        }
        return;
    }
    let flags = parse_flags(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let get = |k: &str| flags.get(k).cloned();
    let require = |k: &str| {
        get(k).unwrap_or_else(|| {
            eprintln!("missing --{k}");
            usage()
        })
    };

    match cmd.as_str() {
        "generate" => {
            let seed: u64 = get("seed").and_then(|s| s.parse().ok()).unwrap_or(42);
            // Paper-scale path: stream a seeded catalog straight to a
            // binary PGECAT01 blob — constant memory at any --count.
            if let Some(cat_out) = get("catalog-out") {
                if matches!(get("kind").as_deref(), Some(k) if k != "catalog") {
                    eprintln!("--catalog-out only streams --kind catalog");
                    exit(2);
                }
                let count: usize = get("count").and_then(|s| s.parse().ok()).unwrap_or(750_000);
                let cfg = CatalogConfig {
                    products: count,
                    seed,
                    ..CatalogConfig::default()
                };
                let mut w = CatalogWriter::create(Path::new(&cat_out), seed).unwrap_or_else(|e| {
                    eprintln!("cannot create {cat_out}: {e}");
                    exit(1)
                });
                let stats = stream_catalog(&cfg, &mut w).unwrap_or_else(|e| {
                    eprintln!("cannot write {cat_out}: {e}");
                    exit(1)
                });
                let summary = w.finish().unwrap_or_else(|e| {
                    eprintln!("cannot finish {cat_out}: {e}");
                    exit(1)
                });
                println!(
                    "wrote {cat_out}: {} products, {} triples ({:.1} MB, seed {seed})",
                    stats.products,
                    stats.triples,
                    summary.body_len as f64 / 1e6
                );
                // `--catalog-out` alone is a complete invocation; add
                // `--out` to also emit a labeled TSV training sample.
                if get("out").is_none() {
                    return;
                }
            }
            let kind = get("kind").unwrap_or_else(|| "catalog".into());
            let out = require("out");
            // Kept for `--drift-out`: churned products must come from
            // the same sampler knobs as the base catalog.
            let mut catalog_cfg = None;
            let dataset = match kind.as_str() {
                "catalog" => {
                    let products: usize =
                        get("products").and_then(|s| s.parse().ok()).unwrap_or(1000);
                    let cfg = CatalogConfig {
                        products,
                        labeled: products / 3,
                        seed,
                        ..CatalogConfig::default()
                    };
                    let d = generate_catalog(&cfg);
                    catalog_cfg = Some(cfg);
                    d
                }
                "fb" => generate_fbkg(&FbkgConfig {
                    seed,
                    ..FbkgConfig::default()
                }),
                _ => usage(),
            };
            let text = to_tsv(&dataset).expect("generated datasets serialize");
            std::fs::write(&out, text).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            // A raw triple dump (`title \t attr \t value`, no labels)
            // is the input format `pge scan` consumes.
            if let Some(scan_out) = get("scan-out") {
                let file = std::fs::File::create(&scan_out).unwrap_or_else(|e| {
                    eprintln!("cannot write {scan_out}: {e}");
                    exit(1)
                });
                let n = write_raw_triples(&dataset, std::io::BufWriter::new(file)).unwrap_or_else(
                    |e| {
                        eprintln!("cannot write {scan_out}: {e}");
                        exit(1)
                    },
                );
                println!("wrote {scan_out}: {n} raw triples for bulk scanning");
            }
            // A seeded churn scenario over the freshly generated
            // catalog: a delta stream for `train --incremental` plus
            // its per-window labeled eval set. Uses its own RNG — the
            // catalog (and the golden PGECAT01 CRC) is unaffected.
            if let Some(drift_out) = get("drift-out") {
                let Some(cat_cfg) = &catalog_cfg else {
                    eprintln!("--drift-out requires --kind catalog");
                    exit(2)
                };
                let windows = get("drift-windows")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(4);
                let ops: usize = get("drift-ops").and_then(|s| s.parse().ok()).unwrap_or(40);
                let dcfg = DriftConfig {
                    windows,
                    adds_per_window: ops,
                    updates_per_window: ops / 2,
                    retracts_per_window: ops / 4,
                    seed: get("drift-seed")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(seed),
                    ..DriftConfig::default()
                };
                let scenario = generate_drift(&dataset, cat_cfg, &dcfg);
                let file = std::fs::File::create(&drift_out).unwrap_or_else(|e| {
                    eprintln!("cannot write {drift_out}: {e}");
                    exit(1)
                });
                write_delta_stream(&scenario.windows, std::io::BufWriter::new(file))
                    .unwrap_or_else(|e| {
                        eprintln!("cannot write {drift_out}: {e}");
                        exit(1)
                    });
                let eval_out = get("drift-eval-out").unwrap_or_else(|| format!("{drift_out}.eval"));
                let file = std::fs::File::create(&eval_out).unwrap_or_else(|e| {
                    eprintln!("cannot write {eval_out}: {e}");
                    exit(1)
                });
                write_drift_eval(&scenario.eval, std::io::BufWriter::new(file)).unwrap_or_else(
                    |e| {
                        eprintln!("cannot write {eval_out}: {e}");
                        exit(1)
                    },
                );
                let ops_total: usize = scenario.windows.iter().map(|w| w.ops.len()).sum();
                println!(
                    "wrote {drift_out}: {} windows, {ops_total} delta ops; {eval_out}: {} labeled eval triples",
                    scenario.windows.len(),
                    scenario.eval.len()
                );
            }
            let s = dataset.stats();
            println!(
                "wrote {out}: {} products, {} values, {} train / {} valid / {} test triples",
                s.products, s.values, s.train, s.valid, s.test
            );
        }
        "train" => {
            let data_path = require("data");
            let data = load_dataset(&data_path);
            let out = require("out");
            let cfg = PgeConfig {
                epochs: get("epochs").and_then(|s| s.parse().ok()).unwrap_or(12),
                score: match get("score").as_deref() {
                    Some("transe") => ScoreKind::TransE,
                    _ => ScoreKind::RotatE,
                },
                // 0 = auto (available parallelism); recorded resolved
                // in the manifest below so runs are reproducible.
                threads: get("threads").and_then(|s| s.parse().ok()).unwrap_or(0),
                confidence: match get("confidence") {
                    Some(s) => ConfidenceBackend::parse(&s).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        exit(2)
                    }),
                    None => ConfidenceBackend::default(),
                },
                ..PgeConfig::default()
            };
            let ckpt = match (get("resume"), get("checkpoint")) {
                (Some(dir), _) => Some(CheckpointOptions::resume(dir)),
                (None, Some(dir)) => Some(CheckpointOptions::new(dir)),
                (None, None) => None,
            }
            .map(|mut opts| {
                opts.stop_after = get("stop-after").and_then(|s| s.parse().ok());
                opts
            });
            let log = open_runlog(get("runlog"));
            // Streaming ingest: warm-start from the base checkpoint,
            // fine-tune per delta window, snapshot + optionally push
            // each window to a gateway. Resumable like full training.
            let model = if flags.contains_key("incremental") {
                let deltas_path = require("deltas");
                let Some(ckpt) = ckpt else {
                    eprintln!("--incremental needs --checkpoint DIR (the base run's checkpoint; add --resume to continue a killed ingest)");
                    exit(2)
                };
                let file = std::fs::File::open(&deltas_path).unwrap_or_else(|e| {
                    eprintln!("cannot read {deltas_path}: {e}");
                    exit(1)
                });
                let windows =
                    read_delta_stream(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                        eprintln!("cannot parse {deltas_path}: {e}");
                        exit(1)
                    });
                let snapshot_dir =
                    get("snapshot-dir").unwrap_or_else(|| format!("{out}.snapshots"));
                let mut inc = IncrementalConfig::new(std::path::PathBuf::from(snapshot_dir));
                if let Some(n) = get("window-epochs").and_then(|s| s.parse().ok()) {
                    inc.epochs_per_window = n;
                }
                let push = get("push");
                let push_attempts = get("push-attempts")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(5);
                let push_backoff_ms = get("push-backoff-ms")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(50);
                if let Some(log) = &log {
                    log.write(&manifest_event(
                        "train-incremental",
                        cfg.seed,
                        &[
                            ("data".into(), data_path.clone()),
                            ("deltas".into(), deltas_path.clone()),
                            ("out".into(), out.clone()),
                            ("windows".into(), windows.len().to_string()),
                            ("window_epochs".into(), inc.epochs_per_window.to_string()),
                            ("confidence".into(), cfg.confidence.name().into()),
                            ("threads".into(), resolve_threads(cfg.threads).to_string()),
                            ("push".into(), push.clone().unwrap_or_else(|| "none".into())),
                        ],
                    ));
                }
                println!(
                    "incremental ingest of {} windows from {deltas_path} ({} backend, {} threads) ...",
                    windows.len(),
                    cfg.confidence.name(),
                    resolve_threads(cfg.threads)
                );
                // Each window's snapshot goes to the gateway once it
                // and the window checkpoint are on disk.
                let mut push_window = |w: usize, snapshot: &Path| {
                    let Some(addr) = &push else { return Ok(None) };
                    let p = push_snapshot(addr, snapshot, push_attempts, push_backoff_ms)
                        .map_err(|e| PersistError::Io(format!("push window {w} to {addr}: {e}")))?;
                    println!(
                        "window {w} pushed -> gateway version {} ({} attempt{})",
                        p.version,
                        p.attempts,
                        if p.attempts == 1 { "" } else { "s" }
                    );
                    Ok(Some(p.version))
                };
                let outcome = train_incremental_with(
                    &data,
                    &windows,
                    &cfg,
                    &inc,
                    &ckpt,
                    log.as_ref(),
                    &mut push_window,
                )
                .unwrap_or_else(|e| {
                    eprintln!("incremental training failed: {e}");
                    exit(1)
                });
                println!(
                    "ingested {} of {} windows in {:.1}s ({} train triples now)",
                    outcome.windows_done,
                    windows.len(),
                    outcome.train_secs,
                    outcome.dataset.train.len()
                );
                if outcome.windows_done < windows.len() {
                    println!("stopped early (checkpoint retained; continue with --resume)");
                }
                outcome.model
            } else {
                if let Some(log) = &log {
                    log.write(&manifest_event(
                        "train",
                        cfg.seed,
                        &[
                            ("data".into(), data_path.clone()),
                            ("out".into(), out.clone()),
                            ("label".into(), cfg.label()),
                            ("epochs".into(), cfg.epochs.to_string()),
                            ("batch".into(), cfg.batch.to_string()),
                            ("negatives".into(), cfg.negatives.to_string()),
                            ("noise_aware".into(), cfg.noise_aware.to_string()),
                            ("threads".into(), resolve_threads(cfg.threads).to_string()),
                            ("train_triples".into(), data.train.len().to_string()),
                            (
                                "checkpoint".into(),
                                ckpt.as_ref()
                                    .map_or("none".into(), |o| o.dir.display().to_string()),
                            ),
                            (
                                "resume".into(),
                                ckpt.as_ref().is_some_and(|o| o.resume).to_string(),
                            ),
                        ],
                    ));
                }
                println!(
                    "training {} on {} triples ({} threads) ...",
                    cfg.label(),
                    data.train.len(),
                    resolve_threads(cfg.threads)
                );
                if let Some(opts) = &ckpt {
                    println!(
                        "{} epoch-boundary checkpoints in {}",
                        if opts.resume {
                            "resuming from"
                        } else {
                            "writing"
                        },
                        opts.dir.display()
                    );
                }
                let trained = train_pge_resumable(&data, &cfg, log.as_ref(), ckpt.as_ref())
                    .unwrap_or_else(|e| {
                        eprintln!("training failed: {e}");
                        exit(1)
                    });
                println!(
                    "done in {:.1}s (loss {:.3} -> {:.3})",
                    trained.train_secs,
                    trained.epoch_losses.first().unwrap_or(&0.0),
                    trained.epoch_losses.last().unwrap_or(&0.0)
                );
                if trained.epoch_losses.len() < cfg.epochs {
                    println!(
                        "stopped after {} of {} epochs (checkpoint retained; continue with --resume)",
                        trained.epoch_losses.len(),
                        cfg.epochs
                    );
                }
                trained.model
            };
            save_model_file(&model, &out);
            if let Some(log) = &log {
                // Epoch traces retained by the trainer's flight
                // recorder, oldest first, for `pge trace`.
                for t in global_tracer().retained(usize::MAX).iter().rev() {
                    log.write(&trace_event(t));
                }
                log.write(&spans_event());
            }
            println!("model saved to {out}");
        }
        "embed" => {
            let data = load_dataset(&require("data"));
            let model_path = require("model");
            let model = load_model_file(&model_path, &data.graph, parse_mmap(&flags));
            let catalog_path = require("catalog");
            let out = require("out");
            let reader = CatalogReader::open(Path::new(&catalog_path)).unwrap_or_else(|e| {
                eprintln!("cannot open catalog {catalog_path}: {e}");
                exit(1)
            });
            println!(
                "collecting keys from {catalog_path} ({} products, {} triples) ...",
                reader.products(),
                reader.triples()
            );
            let mut builder = BankBuilder::new();
            let records = reader.records().unwrap_or_else(|e| {
                eprintln!("cannot read catalog {catalog_path}: {e}");
                exit(1)
            });
            for rec in records {
                let rec = rec.unwrap_or_else(|e| {
                    eprintln!("catalog read failed: {e}");
                    exit(1)
                });
                builder.add(&rec.title);
                builder.add(&rec.value);
            }
            let n_keys = builder.len();
            println!(
                "embedding {n_keys} distinct strings (dim {}) ...",
                model.dim()
            );
            let mut w = SnapshotWriter::create(Path::new(&out)).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            });
            write_model_sections(&model, &mut w).unwrap_or_else(|e| {
                eprintln!("cannot write model sections: {e}");
                exit(1)
            });
            let mut done = 0usize;
            builder
                .write_sections(&mut w, model.dim(), |key, row| {
                    row.extend_from_slice(&model.embed_text_uncached(key));
                    done += 1;
                    if done.is_multiple_of(100_000) {
                        println!("  {done}/{n_keys} rows");
                    }
                })
                .unwrap_or_else(|e| {
                    eprintln!("cannot write bank sections: {e}");
                    exit(1)
                });
            w.finish().unwrap_or_else(|e| {
                eprintln!("cannot finish {out}: {e}");
                exit(1)
            });
            let table_mb = (n_keys * model.dim() * 4) as f64 / 1e6;
            println!("wrote {out}: model + {n_keys}-row embedding bank ({table_mb:.1} MB of rows)");
        }
        "detect" => {
            let data = load_dataset(&require("data"));
            let model = load_model_file(&require("model"), &data.graph, parse_mmap(&flags));
            let top: usize = get("top").and_then(|s| s.parse().ok()).unwrap_or(20);
            let log = open_runlog(get("runlog"));
            if let Some(log) = &log {
                log.write(&manifest_event(
                    "detect",
                    0,
                    &[
                        ("top".into(), top.to_string()),
                        ("test_triples".into(), data.test.len().to_string()),
                    ],
                ));
            }
            let det = Detector::fit(&model, &data.graph, &data.valid);
            println!(
                "threshold {:.3} (validation accuracy {:.3})",
                det.threshold, det.valid_accuracy
            );
            let triples: Vec<Triple> = data.test.iter().map(|lt| lt.triple).collect();
            let order = det.rank_errors(&data.graph, &triples);
            println!("top {top} suspicious test triples:");
            for &ix in order.iter().take(top) {
                let t = triples[ix];
                println!(
                    "  {} | {} | {}",
                    data.graph.title(t.product),
                    data.graph.attr_name(t.attr),
                    data.graph.value_text(t.value)
                );
            }
            if let Some(log) = &log {
                log.write(&eval_event(&EvalTelemetry {
                    pr_auc: None,
                    threshold: det.threshold as f64,
                    valid_accuracy: det.valid_accuracy as f64,
                    test_triples: data.test.len(),
                }));
                log.write(&spans_event());
            }
        }
        "eval" => {
            let data = load_dataset(&require("data"));
            let model = load_model_file(&require("model"), &data.graph, parse_mmap(&flags));
            let log = open_runlog(get("runlog"));
            if let Some(log) = &log {
                log.write(&manifest_event(
                    "eval",
                    0,
                    &[("test_triples".into(), data.test.len().to_string())],
                ));
            }
            let det = Detector::fit(&model, &data.graph, &data.valid);
            let triples: Vec<Triple> = data.test.iter().map(|lt| lt.triple).collect();
            let scores = det.scores(&data.graph, &triples);
            let scored: Vec<Scored> = scores
                .iter()
                .zip(&data.test)
                .map(|(&f, lt)| Scored::new(-f, !lt.correct))
                .collect();
            let pr_auc = average_precision(&scored);
            println!("test triples: {}", data.test.len());
            println!("PR AUC:   {pr_auc:.3}");
            for p in [0.7, 0.8, 0.9] {
                println!("R@P={p}:  {:.3}", recall_at_precision(&scored, p));
            }
            println!("accuracy: {:.3}", det.accuracy(&data.graph, &data.test));
            if let Some(log) = &log {
                log.write(&eval_event(&EvalTelemetry {
                    pr_auc: Some(pr_auc as f64),
                    threshold: det.threshold as f64,
                    valid_accuracy: det.valid_accuracy as f64,
                    test_triples: data.test.len(),
                }));
                log.write(&spans_event());
            }
        }
        "serve" | "gateway" => {
            // `serve --threads` meant workers sharing one cache; replicas
            // each own a cache shard, so the flag has no equivalent, and
            // unknown flags are otherwise ignored silently.
            if cmd == "serve" && flags.contains_key("threads") {
                eprintln!(
                    "pge serve runs the gateway: --threads is gone, size it with --replicas N"
                );
                exit(2);
            }
            let model_path = require("model");
            let data = load_dataset(&require("data"));
            let model = load_model_file(&model_path, &data.graph, parse_mmap(&flags));
            let det = Detector::fit(&model, &data.graph, &data.valid);
            let threshold = det.threshold;
            println!(
                "threshold {:.3} (validation accuracy {:.3})",
                det.threshold, det.valid_accuracy
            );
            let parsed =
                |k: &str, default: usize| get(k).and_then(|s| s.parse().ok()).unwrap_or(default);
            let defaults = GatewayConfig::default();
            let cfg = GatewayConfig {
                addr: get("addr").unwrap_or(defaults.addr),
                replicas: parsed("replicas", defaults.replicas).max(1),
                vnodes: parsed("vnodes", defaults.vnodes).max(1),
                cache_cap: if flags.contains_key("no-cache") {
                    0
                } else {
                    parsed("cache-cap", defaults.cache_cap)
                },
                queue_cap: parsed("queue-cap", defaults.queue_cap).max(1),
                max_batch: parsed("max-batch", defaults.max_batch).max(1),
                trace_slow: get("trace-slow")
                    .and_then(|s| s.parse().ok())
                    .map_or(defaults.trace_slow, std::time::Duration::from_millis),
                model_path: Some(model_path.clone()),
                mmap: parse_mmap(&flags),
                runlog_path: get("runlog"),
                ..defaults
            };
            let replicas = cfg.replicas;
            let valid = data.valid.clone();
            let handle = pge::gateway::start(model, data.graph, valid, threshold, cfg)
                .unwrap_or_else(|e| {
                    eprintln!("cannot start gateway: {e}");
                    exit(1)
                });
            pge::serve::install_handlers();
            println!(
                "serving on http://{} ({replicas} replicas) — SIGHUP to hot-swap {model_path}, ctrl-c to stop",
                handle.local_addr()
            );
            while !pge::serve::shutdown_requested() {
                if pge::serve::take_reload_request() {
                    match handle.reload_from_path(&model_path) {
                        Ok(v) => println!("hot-swapped {model_path} (version {v})"),
                        Err(e) => eprintln!("reload failed, old model keeps serving: {e}"),
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            println!("shutting down, draining in-flight requests ...");
            handle.shutdown();
        }
        "scan" => {
            let data = load_dataset(&require("data"));
            let model = load_model_file(&require("model"), &data.graph, parse_mmap(&flags));
            let input = require("input");
            let out_dir = require("out-dir");
            let det = Detector::fit(&model, &data.graph, &data.valid);
            println!(
                "threshold {:.3} (validation accuracy {:.3})",
                det.threshold, det.valid_accuracy
            );
            let parsed =
                |k: &str, default: usize| get(k).and_then(|s| s.parse().ok()).unwrap_or(default);
            let mut cfg = ScanConfig::new(&out_dir);
            cfg.jobs = parsed("jobs", 0);
            cfg.chunk_size = parsed("chunk-size", cfg.chunk_size).max(1);
            cfg.shard_chunks = parsed("shard-chunks", cfg.shard_chunks).max(1);
            cfg.cache_cap = parsed("cache-cap", cfg.cache_cap);
            cfg.resume = flags.contains_key("resume");
            cfg.max_shards = get("max-shards").and_then(|s| s.parse().ok());
            let log = open_runlog(get("runlog"));
            if let Some(log) = &log {
                log.write(&manifest_event(
                    "scan",
                    0,
                    &[
                        ("input".into(), input.clone()),
                        ("out_dir".into(), out_dir.clone()),
                        ("jobs".into(), cfg.resolved_jobs().to_string()),
                        ("jobs_requested".into(), cfg.jobs.to_string()),
                        (
                            "host_cpus".into(),
                            std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(1)
                                .to_string(),
                        ),
                        ("kernel".into(), pge::tensor::active_kernel().name().into()),
                        ("chunk_size".into(), cfg.chunk_size.to_string()),
                        ("shard_chunks".into(), cfg.shard_chunks.to_string()),
                        ("resume".into(), cfg.resume.to_string()),
                        ("threshold".into(), det.threshold.to_string()),
                    ],
                ));
            }
            let tracer = Tracer::default();
            if let Some(ms) = get("trace-slow").and_then(|s| s.parse().ok()) {
                tracer.set_threshold(std::time::Duration::from_millis(ms));
            }
            let outcome = pge::scan::scan_with_tracer(
                &model,
                det.threshold,
                std::path::Path::new(&input),
                &cfg,
                &tracer,
            )
            .unwrap_or_else(|e| {
                eprintln!("scan failed: {e}");
                exit(1)
            });
            println!(
                "scanned {} rows ({:.0} rows/s): {} flagged, {} quarantined, {} shards in {out_dir}",
                outcome.rows_scanned,
                outcome.rows_per_sec,
                outcome.errors_flagged,
                outcome.quarantined,
                outcome.shards_total
            );
            if outcome.resumed_rows > 0 {
                println!(
                    "  resumed past {} already-scanned rows",
                    outcome.resumed_rows
                );
            }
            if !outcome.done {
                println!("  stopped early (max-shards); rerun with --resume to finish");
            }
            if let Some(log) = &log {
                let busy = &outcome.worker_busy_sec;
                let busy_min = busy.iter().copied().fold(f64::INFINITY, f64::min);
                log.write(&stats_event(
                    "scan",
                    &[
                        ("rows_scanned", outcome.rows_scanned as f64),
                        ("rows_total", outcome.rows_total as f64),
                        ("errors_total", outcome.errors_total as f64),
                        ("quarantined_total", outcome.quarantined_total as f64),
                        ("shards_total", outcome.shards_total as f64),
                        ("resumed_rows", outcome.resumed_rows as f64),
                        ("rows_per_sec", outcome.rows_per_sec),
                        ("cache_hits", outcome.cache_hits as f64),
                        ("cache_misses", outcome.cache_misses as f64),
                        ("jobs", outcome.jobs as f64),
                        ("host_cpus", outcome.host_cpus as f64),
                        ("effective_parallelism", outcome.effective_parallelism),
                        ("worker_busy_total_sec", busy.iter().sum::<f64>()),
                        (
                            "worker_busy_min_sec",
                            if busy_min.is_finite() { busy_min } else { 0.0 },
                        ),
                        (
                            "worker_busy_max_sec",
                            busy.iter().copied().fold(0.0, f64::max),
                        ),
                    ],
                ));
                // Slow chunk traces, oldest first, for `pge trace`.
                for t in tracer.retained(usize::MAX).iter().rev() {
                    log.write(&trace_event(t));
                }
                log.write(&spans_event());
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_value_flags() {
        let f = parse_flags(&strings(&["--data", "d.tsv", "--model", "m.pge"])).unwrap();
        assert_eq!(f.get("data").map(String::as_str), Some("d.tsv"));
        assert_eq!(f.get("model").map(String::as_str), Some("m.pge"));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn empty_args_yield_no_flags() {
        assert!(parse_flags(&[]).unwrap().is_empty());
    }

    #[test]
    fn trailing_flag_is_boolean() {
        let f = parse_flags(&strings(&["--data", "d.tsv", "--no-cache"])).unwrap();
        assert_eq!(f.get("no-cache").map(String::as_str), Some("true"));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let f = parse_flags(&strings(&["--no-cache", "--threads", "4"])).unwrap();
        assert_eq!(f.get("no-cache").map(String::as_str), Some("true"));
        assert_eq!(f.get("threads").map(String::as_str), Some("4"));
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let f = parse_flags(&strings(&["--offset", "-5"])).unwrap();
        assert_eq!(f.get("offset").map(String::as_str), Some("-5"));
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(parse_flags(&strings(&["stray"])).is_err());
        assert!(parse_flags(&strings(&["--ok", "v", "stray"])).is_err());
    }

    #[test]
    fn rejects_bare_double_dash() {
        assert!(parse_flags(&strings(&["--"])).is_err());
    }

    #[test]
    fn later_occurrence_wins() {
        let f = parse_flags(&strings(&["--seed", "1", "--seed", "2"])).unwrap();
        assert_eq!(f.get("seed").map(String::as_str), Some("2"));
    }
}
