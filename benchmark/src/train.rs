//! The `train` workload: the paper's own cost centre (Table 5).
//! `train_pge` passes on one seeded dataset, then threshold fit,
//! detection and PR-AUC on the held-out split. Training is
//! deterministic, so identical loss and PR-AUC on every pass is the
//! output check.

use crate::fixtures::{self, Scale};
use crate::layers::per_call_ns;
use crate::manifest;
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::spec;
use crate::stats::fastest;
use crate::ChildArgs;
use pge_core::corpus::build_corpus;
use pge_core::{train_pge, ConfidenceStore, Detector, PgeConfig, TextEncoder, TrainedPge};
use pge_eval::average_precision;
use pge_graph::{Dataset, NegativeSampler};
use pge_nn::AdamHparams;
use pge_obs::EpochTelemetry;
use pge_text::{train_word2vec, Word2VecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

struct Pass {
    triples_per_s: f64,
    final_loss: f32,
    pr_auc: f32,
    telemetry: Vec<EpochTelemetry>,
}

/// One timed `train_pge`, then threshold fit, detection and PR-AUC on
/// the held-out split. Only what later steps read is kept, so that
/// the process's peak memory does not grow with the number of passes.
fn pass(data: &Dataset, cfg: &PgeConfig, idx: u64, rec: &mut Recorder) -> (Pass, TrainedPge) {
    let s = rec.begin("core.train_pge", idx);
    let mut trained = train_pge(data, cfg);
    let wall = rec.end(s, 1);
    let det = Detector::fit(&trained.model, &data.graph, &data.valid);
    let pass = Pass {
        triples_per_s: (cfg.epochs * data.train.len()) as f64 / wall,
        final_loss: trained.epoch_losses.last().copied().unwrap_or(f32::NAN),
        pr_auc: fixtures::pr_auc(&det, data),
        telemetry: std::mem::take(&mut trained.telemetry),
    };
    (pass, trained)
}

pub fn child(args: &ChildArgs) -> Result<Outcome, String> {
    let scale = Scale::pick(args.smoke);
    let mut rec = Recorder::new(false);
    let mut o = Outcome::default();

    // Set-up is everything before the first timed pass: generating the
    // dataset, and a one-epoch training that takes the first touch of
    // the heap and the cold caches out of the timed passes.
    let s = rec.begin("setup.train", 0);
    let data = fixtures::train_dataset(&scale, args.seed);
    black_box(train_pge(&data, &fixtures::train_config(args.seed, 1, 0)));
    o.put_value("setup_child_s", rec.end(s, 1));
    o.info_num("train_triples", data.train.len() as f64);
    o.info_num("test_triples", data.test.len() as f64);
    let cfg = fixtures::train_config(args.seed, scale.train_epochs, 0);

    // A traced run alternates passes with the recorder off and on,
    // which prices the recorder against the same drift.
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut first = None;
    let t0 = Instant::now();
    while scale.another_pass(
        passes.len() + traced.len(),
        t0.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        let idx = (passes.len() + traced.len()) as u64;
        let (p, trained) = pass(&data, &cfg, idx, &mut rec);
        passes.push(p);
        first.get_or_insert(trained);
        if args.trace {
            rec.set_on(true);
            traced.push(pass(&data, &cfg, idx + 1, &mut rec).0);
            rec.set_on(false);
        }
    }
    let first = first.expect("min_passes is at least 1");
    // The workload's throughput: training triples visited per wall
    // second around `train_pge`, median pass.
    let rates: Vec<f64> = passes.iter().map(|p| p.triples_per_s).collect();
    o.put_fastest("rows_per_s", &rates);
    o.put_fastest("triples_per_s", &rates);
    o.put_value("peak_rss_mib", manifest::peak_rss_mib());
    o.info_num("passes", passes.len() as f64);
    o.info_num("final_loss", passes[0].final_loss as f64);

    // A pass is one operation; it fails when it disagrees with pass 0
    // in final loss or PR-AUC.
    for p in passes.iter().chain(&traced) {
        o.attempted += 1;
        if p.final_loss.to_bits() != passes[0].final_loss.to_bits()
            || p.pr_auc.to_bits() != passes[0].pr_auc.to_bits()
        {
            o.fail(
                1,
                format!("pass diverged: loss {} pr_auc {}", p.final_loss, p.pr_auc),
            );
        }
    }
    // Quality is one more operation: PR-AUC may not fall more than the
    // metric's bound below the value recorded for a reserved seed, nor
    // below the floor that every seed tried in sizing cleared.
    let auc = passes[0].pr_auc as f64;
    o.attempted += 1;
    let floor = if args.smoke {
        let positives = data.test.iter().filter(|lt| !lt.correct).count();
        positives as f64 / data.test.len().max(1) as f64
    } else {
        spec::pr_auc_floor(args.seed)
    };
    if auc.is_nan() || auc < floor {
        o.fail(1, format!("pr_auc {auc} is below {floor}"));
    }
    o.put_value("pr_auc", auc);

    if args.trace {
        rec.set_on(true);
        let traced_rate = fastest(&traced.iter().map(|p| p.triples_per_s).collect::<Vec<_>>());
        let base = fastest(&rates);
        o.put_value(
            "obs.trace_overhead_pct",
            (base - traced_rate) / base * 100.0,
        );
        layer_metrics(args, &scale, &data, &passes, &first, &mut rec, &mut o);
        let path = fixtures::out_dir().join(format!("trace-{}.jsonl", args.workload));
        rec.write_jsonl(&path)
            .map_err(|e| format!("write trace: {e}"))?;
        o.info_num("trace.spans", rec.len() as f64);
    }
    Ok(o)
}

fn layer_metrics(
    args: &ChildArgs,
    scale: &Scale,
    data: &Dataset,
    passes: &[Pass],
    trained: &TrainedPge,
    rec: &mut Recorder,
    o: &mut Outcome,
) {
    let cfg = fixtures::train_config(args.seed, scale.train_epochs, 0);

    // From the public outcome struct.
    let epochs: Vec<_> = passes.iter().flat_map(|p| &p.telemetry).collect();
    o.put_samples(
        "core.epoch_s_median",
        &epochs.iter().map(|e| e.secs).collect::<Vec<_>>(),
    );
    let util: Vec<f64> = epochs
        .iter()
        .filter(|e| !e.worker_utilization.is_empty())
        .map(|e| e.worker_utilization.iter().sum::<f64>() / e.worker_utilization.len() as f64)
        .collect();
    o.put_samples("core.worker_utilization_mean", &util);
    o.info_num(
        "train_threads",
        epochs.first().map_or(0, |e| e.threads) as f64,
    );

    // threads auto ÷ threads 1 on a short schedule.
    let short = |threads| {
        let c = fixtures::train_config(args.seed, scale.replay_epochs, threads);
        let s = Instant::now();
        black_box(train_pge(data, &c));
        (c.epochs * data.train.len()) as f64 / s.elapsed().as_secs_f64()
    };
    let (auto, one) = (short(0), short(1));
    o.put_value("core.train_scaling_ratio", auto / one);

    // One layer at a time over a prefix of the training triples.
    let prefix = &data.train[..data.train.len().min(20_000)];
    let sampler = NegativeSampler::new(&data.graph, cfg.sampling);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut drawn = 0usize;
    let ns = per_call_ns(rec, "graph.negative_sampler_sample", prefix.len(), |i| {
        drawn += sampler.sample(&mut rng, &prefix[i], cfg.negatives).len();
    });
    black_box(drawn);
    o.put_value("graph.neg_sample_ns_per_triple", ns);

    let TextEncoder::Cnn(enc) = trained.model.encoder() else {
        return o.fail(1, "train replays expect the CNN encoder".into());
    };
    let vocab = &trained.model.vocab;
    let texts: Vec<Vec<u32>> = prefix
        .iter()
        .take(4096)
        .flat_map(|t| [data.graph.title(t.product), data.graph.value_text(t.value)])
        .map(|s| vocab.encode_text(s))
        .collect();
    let mut caches = Vec::with_capacity(texts.len());
    let ns = per_call_ns(rec, "nn.cnn_forward", texts.len(), |i| {
        caches.push(enc.forward(&texts[i]));
    });
    o.put_value("nn.cnn_forward_ns_per_text", ns);
    let mut grads = enc.grad_buffer();
    let ns = per_call_ns(rec, "nn.cnn_backward_into", caches.len(), |i| {
        let (e, cache) = &caches[i];
        enc.backward_into(cache, e, &mut grads);
    });
    o.put_value("nn.cnn_backward_ns_per_text", ns);

    let scorer = trained.model.scorer();
    let r = trained.model.relation(prefix[0].attr).to_vec();
    let (h, v) = (&caches[0].0, &caches[1].0);
    let (mut dh, mut dr, mut dv) = (vec![0.0; h.len()], vec![0.0; r.len()], vec![0.0; v.len()]);
    let ns = per_call_ns(
        rec,
        "core.scorer_backward",
        100 * crate::layers::BATCH,
        |_| {
            scorer.backward(
                black_box(h),
                &r,
                black_box(v),
                0.5,
                &mut dh,
                &mut dr,
                &mut dv,
            );
        },
    );
    black_box((&dh, &dr, &dv));
    o.put_value("core.score_backward_ns_per_call", ns);

    // One optimizer step as the trainer takes it per minibatch: fold
    // a lane's gradients in, then Adam over every parameter.
    let mut enc = enc.clone();
    let hp = AdamHparams::with_lr(cfg.lr);
    let per_batch = cfg.batch * (2 + cfg.negatives);
    let mut step_ms = Vec::new();
    for (t, batch) in caches.chunks(per_batch).take(8).enumerate() {
        let mut g = enc.grad_buffer();
        for (e, cache) in batch {
            enc.backward_into(cache, e, &mut g);
        }
        let s = rec.begin("nn.adam_step", t as u64);
        enc.apply_grads(&mut g);
        enc.adam_step(&hp, t as u64 + 1);
        step_ms.push(rec.end(s, 1) * 1e3);
    }
    o.put_samples("nn.adam_step_ms", &step_ms);

    let mut conf = ConfidenceStore::new(data.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    let n = conf.len();
    let ns = per_call_ns(rec, "core.confidence_update", n, |i| {
        conf.update(i, 0.3 + (i % 7) as f32 * 0.2);
    });
    black_box(conf.mean());
    o.put_value("core.confidence_update_ns_per_triple", ns);

    let s = rec.begin("text.train_word2vec", 0);
    let corpus = build_corpus(&data.graph, &data.train);
    black_box(train_word2vec(
        &corpus.vocab,
        &corpus.sentences,
        &Word2VecConfig {
            dim: cfg.word_dim,
            epochs: cfg.word2vec_epochs,
            seed: cfg.seed ^ 0x5eed,
            ..Word2VecConfig::default()
        },
    ));
    o.put_value("text.word2vec_s", rec.end(s, 1));

    // Offline detection over the whole training split, then PR-AUC
    // on the held-out one.
    let det = Detector::fit(&trained.model, &data.graph, &data.valid);
    let mut detect_rates = Vec::new();
    for rep in 0..15 {
        let s = rec.begin("core.detector_scores", rep);
        let scores = det.scores(&data.graph, &data.train);
        detect_rates.push(scores.len() as f64 / rec.end(s, scores.len() as u64));
        black_box(scores);
    }
    o.put_samples("core.detect_triples_per_s", &detect_rates);
    let scored = fixtures::test_scored(&det, data);
    let mut ap_ms = Vec::new();
    for rep in 0..9 {
        let s = rec.begin("eval.average_precision", rep);
        black_box(average_precision(&scored));
        ap_ms.push(rec.end(s, 1) * 1e3);
    }
    o.put_samples("eval.pr_auc_ms", &ap_ms);
}
