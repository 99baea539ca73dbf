//! One function per paper table/figure.
//!
//! Each returns a rendered ASCII report (what `repro` prints) plus
//! structured numbers where downstream code (tests, EXPERIMENTS.md
//! tooling) needs them.

use crate::methods::{epochs_trained, pge_config, train_method, Method, TrainedMethod};
use crate::scale::Scale;
use pge_core::api::plausibility_parallel;
use pge_core::{default_scoring_threads, train_pge, Detector, ErrorDetector};
use pge_eval::{average_precision, recall_at_precision, Histogram, Scored, Table};
use pge_graph::{Dataset, LabeledTriple, Triple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scored evaluation of one method on one dataset.
#[derive(Clone, Debug)]
pub struct MethodScores {
    pub name: String,
    pub pr_auc: f32,
    /// R@P at the requested precisions, in order.
    pub r_at_p: Vec<f32>,
    pub train_secs: f64,
}

/// Evaluate a detector on a labeled split: PR AUC (positive class =
/// *incorrect*, per the paper) and R@P at each precision.
pub fn evaluate_detector(
    det: &dyn ErrorDetector,
    dataset: &Dataset,
    split: &[LabeledTriple],
    precisions: &[f32],
) -> (f32, Vec<f32>) {
    let triples: Vec<Triple> = split.iter().map(|lt| lt.triple).collect();
    let scores = plausibility_parallel(det, &dataset.graph, &triples, default_scoring_threads());
    let scored: Vec<Scored> = scores
        .iter()
        .zip(split)
        .map(|(&f, lt)| Scored::new(-f, !lt.correct))
        .collect();
    let pr_auc = average_precision(&scored);
    let r_at_p = precisions
        .iter()
        .map(|&p| recall_at_precision(&scored, p))
        .collect();
    (pr_auc, r_at_p)
}

fn eval_method(tm: &TrainedMethod, dataset: &Dataset, precisions: &[f32]) -> MethodScores {
    let (pr_auc, r_at_p) =
        evaluate_detector(tm.detector.as_ref(), dataset, &dataset.test, precisions);
    MethodScores {
        name: tm.method.label().to_string(),
        pr_auc,
        r_at_p,
        train_secs: tm.train_secs,
    }
}

// ---------------------------------------------------------------
// Table 1 — capability matrix (static).
// ---------------------------------------------------------------

/// Render the paper's Table 1 capability matrix.
pub fn table1() -> String {
    let mut t = Table::new(
        "Table 1: Capabilities of different methods",
        &["Methods", "Graph structure", "Textual data", "Noise-aware"],
    );
    for (m, g, x, n) in [
        ("Structure based KG embedding", "yes", "", ""),
        ("Text and KG joint embedding", "yes", "yes", ""),
        ("Noise-aware KG embedding", "yes", "", "yes"),
        ("PGE", "yes", "yes", "yes"),
    ] {
        t.row(&[m.to_string(), g.to_string(), x.to_string(), n.to_string()]);
    }
    t.render()
}

// ---------------------------------------------------------------
// Table 2 — dataset statistics.
// ---------------------------------------------------------------

/// Render dataset statistics in the shape of the paper's Table 2.
pub fn table2(scale: &Scale) -> String {
    let mut t = Table::new(
        "Table 2: Data statistics",
        &[
            "Dataset",
            "#Relations",
            "#Entities",
            "#Products",
            "#Values",
            "#Train",
            "#Valid",
            "#Test",
        ],
    );
    let mut extra = String::new();
    for (name, d) in [
        ("Amazon-like", scale.amazon()),
        ("FB15K-237-like", scale.fb()),
    ] {
        let s = d.stats();
        t.row(&[
            name.to_string(),
            s.relations.to_string(),
            s.entities.to_string(),
            s.products.to_string(),
            s.values.to_string(),
            s.train.to_string(),
            s.valid.to_string(),
            s.test.to_string(),
        ]);
        extra.push_str(&format!(
            "
{name} structure:
{}",
            pge_graph::graph_stats(&d.graph).render()
        ));
    }
    let mut out = t.render();
    out.push_str(&extra);
    out
}

// ---------------------------------------------------------------
// Tables 3/4 — transductive / inductive error detection.
// ---------------------------------------------------------------

/// All Table-3 results for both datasets, plus the Union row.
pub struct Table3Results {
    pub amazon: Vec<MethodScores>,
    pub fb: Vec<MethodScores>,
    pub report: String,
}

fn run_roster(
    dataset: &Dataset,
    roster: &[Method],
    scale: &Scale,
    precisions: &[f32],
) -> Vec<MethodScores> {
    let mut trained: Vec<TrainedMethod> = Vec::new();
    let mut out: Vec<MethodScores> = Vec::new();
    for &m in roster {
        let tm = train_method(dataset, m, scale);
        out.push(eval_method(&tm, dataset, precisions));
        trained.push(tm);
    }
    // Union of Transformer and PGE(CNN)-RotatE.
    let transformer = trained
        .iter()
        .find(|t| t.method == Method::Transformer)
        .map(|t| t.detector.as_ref());
    let pge = trained
        .iter()
        .find(|t| t.method == Method::PgeCnnRotatE)
        .map(|t| t.detector.as_ref());
    if let (Some(a), Some(b)) = (transformer, pge) {
        let u = pge_baselines::Union::new(a, b);
        let (pr_auc, r_at_p) = evaluate_detector(&u, dataset, &dataset.test, precisions);
        out.push(MethodScores {
            name: "Union of Transformer and PGE(CNN)-RotatE".into(),
            pr_auc,
            r_at_p,
            train_secs: 0.0,
        });
    }
    out
}

fn roster_table(title: &str, precisions: &[f32], with_time: bool, rows: &[MethodScores]) -> Table {
    let mut header: Vec<String> = vec!["Method".into(), "PR AUC".into()];
    header.extend(precisions.iter().map(|p| format!("R@P={p}")));
    if with_time {
        header.push("Time (s)".into());
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    for r in rows {
        let mut cells = vec![r.name.clone(), format!("{:.3}", r.pr_auc)];
        cells.extend(r.r_at_p.iter().map(|x| format!("{x:.3}")));
        if with_time {
            cells.push(if r.train_secs > 0.0 {
                format!("{:.1}", r.train_secs)
            } else {
                "-".into()
            });
        }
        t.row(&cells);
    }
    t
}

/// One half of Table 3 (used by the `table3a`/`table3b` fast paths).
pub fn table3_single(scale: &Scale, catalog: bool) -> (Vec<MethodScores>, String) {
    let precisions = [0.7f32, 0.8, 0.9];
    let (data, title) = if catalog {
        (
            scale.amazon(),
            "Table 3a: Transductive error detection — Amazon-like catalog",
        )
    } else {
        (
            scale.fb(),
            "Table 3b: Transductive error detection — FB15K-237-like KG",
        )
    };
    let rows = run_roster(&data, &Method::table3(catalog), scale, &precisions);
    let report = roster_table(title, &precisions, true, &rows).render();
    (rows, report)
}

/// Regenerate Table 3 (transductive error detection on both datasets).
pub fn table3(scale: &Scale) -> Table3Results {
    let precisions = [0.7f32, 0.8, 0.9];
    let amazon_data = scale.amazon();
    let fb_data = scale.fb();
    let amazon = run_roster(&amazon_data, &Method::table3(true), scale, &precisions);
    let fb = run_roster(&fb_data, &Method::table3(false), scale, &precisions);
    let mut report = roster_table(
        "Table 3a: Transductive error detection — Amazon-like catalog",
        &precisions,
        true,
        &amazon,
    )
    .render();
    report.push('\n');
    report.push_str(
        &roster_table(
            "Table 3b: Transductive error detection — FB15K-237-like KG",
            &precisions,
            true,
            &fb,
        )
        .render(),
    );
    Table3Results { amazon, fb, report }
}

/// Table-4 results (inductive) for both datasets.
pub struct Table4Results {
    pub amazon: Vec<MethodScores>,
    pub fb: Vec<MethodScores>,
    pub report: String,
}

/// Regenerate Table 4 (inductive error detection): the catalog variant
/// includes unseen-value errors, and training excludes every triple
/// sharing an entity with the test set (§4.4).
pub fn table4(scale: &Scale) -> Table4Results {
    let precisions = [0.6f32, 0.7, 0.8];
    let amazon_data = scale.amazon_with_unseen().to_inductive();
    let fb_data = scale.fb_inductive().to_inductive();
    let amazon = run_roster(&amazon_data, &Method::table4(), scale, &precisions);
    let fb = run_roster(&fb_data, &Method::table4(), scale, &precisions);
    let mut report = roster_table(
        "Table 4a: Inductive error detection — Amazon-like catalog",
        &precisions,
        false,
        &amazon,
    )
    .render();
    report.push('\n');
    report.push_str(
        &roster_table(
            "Table 4b: Inductive error detection — FB15K-237-like KG",
            &precisions,
            false,
            &fb,
        )
        .render(),
    );
    Table4Results { amazon, fb, report }
}

// ---------------------------------------------------------------
// Figure 2 — headline comparison bars.
// ---------------------------------------------------------------

/// Regenerate Fig. 2 from precomputed Table-3 Amazon rows (PR AUC and
/// R@P bars for RotatE vs Transformer vs PGE vs Union).
pub fn fig2(amazon_rows: &[MethodScores]) -> String {
    let wanted = [
        "RotatE",
        "Transformer",
        "PGE(CNN)-RotatE",
        "Union of Transformer and PGE(CNN)-RotatE",
    ];
    let mut out =
        String::from("== Figure 2: PGE vs RotatE vs Transformer (Amazon-like, transductive) ==\n");
    for metric_ix in 0..4usize {
        let metric = match metric_ix {
            0 => "PR AUC ",
            1 => "R@P=0.7",
            2 => "R@P=0.8",
            _ => "R@P=0.9",
        };
        out.push_str(&format!("{metric}\n"));
        for name in wanted {
            if let Some(r) = amazon_rows.iter().find(|r| r.name == name) {
                let v = if metric_ix == 0 {
                    r.pr_auc
                } else {
                    r.r_at_p[metric_ix - 1]
                };
                let bar = "#".repeat((v * 40.0).round().max(0.0) as usize);
                out.push_str(&format!("  {name:<42} {v:.3} {bar}\n"));
            }
        }
    }
    out
}

// ---------------------------------------------------------------
// Figure 5 — confidence-score distributions.
// ---------------------------------------------------------------

/// Regenerate Fig. 5: confidence-score histograms under (a)
/// labeled-triple injection and (b) artificial-noise injection.
pub fn fig5(scale: &Scale) -> String {
    let base = scale.amazon();
    let mut out =
        String::from("== Figure 5: confidence-score distributions (PGE(CNN)-RotatE) ==\n");

    // (a) Inject human-labeled-style correct + incorrect triples into
    // training and learn confidences for them.
    {
        let mut d = base.clone();
        let offset = d.train.len();
        let mut labels = Vec::new();
        for lt in d.test.iter() {
            d.train.push(lt.triple);
            d.train_clean.push(lt.correct);
            labels.push(lt.correct);
        }
        // Human-labeled-style noise is subtle (semantic swaps), so the
        // confidence mechanism gets a longer schedule and a lower
        // markdown price than the defaults (the paper trains its full
        // catalog for ~40 hours; our rescaled run needs the extra
        // pressure to surface the same contrast).
        let mut cfg = pge_config(Method::PgeCnnRotatE, scale);
        cfg.epochs = scale.epochs * 2;
        cfg.alpha = 0.8;
        cfg.confidence_lr = 0.06;
        let trained = train_pge(&d, &cfg);
        let mut h_good = Histogram::unit(10);
        let mut h_bad = Histogram::unit(10);
        for (j, &correct) in labels.iter().enumerate() {
            let c = trained.confidence.get(offset + j);
            if correct {
                h_good.add(c);
            } else {
                h_bad.add(c);
            }
        }
        out.push_str("(a) injected labeled triples — correct:\n");
        out.push_str(&h_good.render(30));
        out.push_str("(a) injected labeled triples — incorrect:\n");
        out.push_str(&h_bad.render(30));
        out.push_str(&format!(
            "    fraction of correct marked down (C<0.5): {:.3}\n",
            h_good.fraction_below(0.5)
        ));
        out.push_str(&format!(
            "    fraction of incorrect marked down (C<0.5): {:.3}\n",
            h_bad.fraction_below(0.5)
        ));
    }

    // (b) Append artificial value-substitution noises.
    {
        let mut d = base.clone();
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xf16);
        let extra = (d.train.len() / 10).max(10);
        let (train, clean) = pge_graph::noise::append_noise(&d.graph, &d.train, extra, &mut rng);
        d.train = train;
        d.train_clean = clean;
        let trained = train_pge(&d, &pge_config(Method::PgeCnnRotatE, scale));
        let mut h_orig = Histogram::unit(10);
        let mut h_noise = Histogram::unit(10);
        for (i, &is_clean) in d.train_clean.iter().enumerate() {
            let c = trained.confidence.get(i);
            if is_clean {
                h_orig.add(c);
            } else {
                h_noise.add(c);
            }
        }
        out.push_str("(b) artificial noises — original triples:\n");
        out.push_str(&h_orig.render(30));
        out.push_str("(b) artificial noises — injected noises:\n");
        out.push_str(&h_noise.render(30));
        out.push_str(&format!(
            "    original triples marked down (C<0.5): {:.3} (paper: ~1%, real noise)\n",
            h_orig.fraction_below(0.5)
        ));
        out.push_str(&format!(
            "    injected noises marked down (C<0.5): {:.3}\n",
            h_noise.fraction_below(0.5)
        ));
    }
    out
}

// ---------------------------------------------------------------
// Figure 6 — noise-aware ablation.
// ---------------------------------------------------------------

/// Fig. 6 numbers: (with, without) noise-aware mechanism.
pub struct Fig6Results {
    pub with_na: MethodScores,
    pub without_na: MethodScores,
    pub report: String,
}

/// Regenerate Fig. 6: PGE(CNN)-RotatE with vs without the noise-aware
/// mechanism on a noisy catalog.
pub fn fig6(scale: &Scale) -> Fig6Results {
    // Noisier training split makes the mechanism's value visible.
    let mut d = scale.amazon();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xf6);
    let (train, clean) = pge_graph::inject_noise(&d.graph, &d.train, 0.15, &mut rng);
    d.train = train;
    d.train_clean = clean;

    let precisions = [0.7f32, 0.8, 0.9];
    let with_tm = train_method(&d, Method::PgeCnnRotatE, scale);
    let with_na = eval_method(&with_tm, &d, &precisions);
    let wo_tm = train_method(&d, Method::PgeCnnRotatENoNa, scale);
    let without_na = eval_method(&wo_tm, &d, &precisions);

    let mut t = roster_table(
        "Figure 6: PGE(CNN)-RotatE with vs. without noise-aware mechanism (noisy catalog)",
        &precisions,
        false,
        &[with_na.clone(), without_na.clone()],
    );
    let _ = &mut t;
    Fig6Results {
        report: t.render(),
        with_na,
        without_na,
    }
}

// ---------------------------------------------------------------
// Table 5 — training-time scalability.
// ---------------------------------------------------------------

/// Regenerate Table 5: training time vs. sample ratio for RotatE,
/// PGE(CNN)-RotatE and PGE(BERT)-RotatE. Runs projected to exceed
/// `cap_secs` are reported as `> cap` — the analogue of the paper's
/// "> 3 day" entries.
pub fn table5(scale: &Scale, cap_secs: f64) -> String {
    let ratios = [0.1, 0.3, 0.5, 0.7, 1.0];
    let full = scale.amazon();
    let mut t = {
        let mut header: Vec<String> = vec!["Model".into()];
        header.extend(ratios.iter().map(|r| format!("{r}")));
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        Table::new(
            "Table 5: training time (s) vs fraction of sampled triples",
            &refs,
        )
    };
    for method in [Method::RotatE, Method::PgeCnnRotatE, Method::PgeBertRotatE] {
        let mut cells = vec![method.label().to_string()];
        let mut exceeded = false;
        for &ratio in &ratios {
            if exceeded {
                // Training time grows with the sample ratio, so once a
                // smaller ratio blew the cap, larger ones will too —
                // exactly how the paper reports "> 3 day".
                cells.push(format!("> {cap_secs:.0}"));
                continue;
            }
            let d = full.sample_train(ratio);
            let cell = timed_or_capped(&d, method, scale, cap_secs);
            exceeded = cell.starts_with('>');
            cells.push(cell);
        }
        t.row(&cells);
    }
    t.render()
}

/// Train fully if a short probe projects under `cap_secs`, otherwise
/// report `> cap` (the paper's "> 3 day" analogue). The probe runs at
/// `epochs: 1`, which trains one epoch for PGE but two for RotatE, so
/// its time scales by the ratio of the epochs each run really trains.
fn timed_or_capped(d: &Dataset, method: Method, scale: &Scale, cap_secs: f64) -> String {
    let probe_scale = Scale {
        epochs: 1,
        nlp_epochs: 1,
        ..*scale
    };
    let probe = train_method(d, method, &probe_scale);
    let projected = probe.train_secs * epochs_trained(method, scale) as f64
        / epochs_trained(method, &probe_scale) as f64;
    if projected > cap_secs {
        return format!("> {cap_secs:.0}");
    }
    let tm = train_method(d, method, scale);
    format!("{:.1}", tm.train_secs)
}

// ---------------------------------------------------------------
// Table 6 — identified-error case study.
// ---------------------------------------------------------------

/// Regenerate Table 6: the top-ranked detected errors with their
/// ground truth.
pub fn table6(scale: &Scale, top_k: usize) -> String {
    let d = scale.amazon();
    let trained = train_pge(&d, &pge_config(Method::PgeCnnRotatE, scale));
    let detector = Detector::fit(&trained.model, &d.graph, &d.valid);
    let triples: Vec<Triple> = d.test.iter().map(|lt| lt.triple).collect();
    let order = detector.rank_errors(&d.graph, &triples);

    let mut t = Table::new(
        "Table 6: top identified errors on the Amazon-like catalog (PGE(CNN)-RotatE)",
        &["Product", "Attribute", "Attribute Value", "Ground truth"],
    );
    for &ix in order.iter().take(top_k) {
        let lt = &d.test[ix];
        let mut title = d.graph.title(lt.triple.product).to_string();
        if title.len() > 48 {
            title.truncate(45);
            title.push_str("...");
        }
        t.row(&[
            title,
            d.graph.attr_name(lt.triple.attr).to_string(),
            d.graph.value_text(lt.triple.value).to_string(),
            if lt.correct { "correct" } else { "INCORRECT" }.to_string(),
        ]);
    }
    // Precision of the listing.
    let hits = order
        .iter()
        .take(top_k)
        .filter(|&&ix| !d.test[ix].correct)
        .count();
    let mut out = t.render();
    out.push_str(&format!(
        "precision of top-{top_k} detections: {:.2}\n",
        hits as f32 / top_k.min(order.len()).max(1) as f32
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_scale() -> Scale {
        Scale {
            products: 120,
            labeled: 50,
            fb_triples: 400,
            epochs: 2,
            nlp_epochs: 1,
            seed: 5,
        }
    }

    #[test]
    fn table1_static_content() {
        let s = table1();
        assert!(s.contains("PGE"));
        assert!(s.contains("Noise-aware"));
    }

    #[test]
    fn table2_contains_both_datasets() {
        let s = table2(&micro_scale());
        assert!(s.contains("Amazon-like"));
        assert!(s.contains("FB15K-237-like"));
    }

    #[test]
    fn evaluate_detector_perfect_and_inverted() {
        struct Oracle;
        impl ErrorDetector for Oracle {
            fn name(&self) -> String {
                "oracle".into()
            }
            fn plausibility(&self, g: &pge_graph::ProductGraph, t: &Triple) -> f32 {
                // Plausible iff value text does not contain "bad".
                if g.value_text(t.value).contains("bad") {
                    -1.0
                } else {
                    1.0
                }
            }
        }
        let mut g = pge_graph::ProductGraph::new();
        let good = g.add_fact("p0", "a", "fine");
        let bad = g.add_fact("p1", "a", "bad value");
        let test = vec![
            LabeledTriple {
                triple: good,
                correct: true,
            },
            LabeledTriple {
                triple: bad,
                correct: false,
            },
        ];
        let d = Dataset::new(g, vec![], vec![], test);
        let (auc, r) = evaluate_detector(&Oracle, &d, &d.test, &[0.9]);
        assert!((auc - 1.0).abs() < 1e-6);
        assert!((r[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fig2_renders_bars() {
        let rows = vec![
            MethodScores {
                name: "RotatE".into(),
                pr_auc: 0.6,
                r_at_p: vec![0.4, 0.3, 0.2],
                train_secs: 1.0,
            },
            MethodScores {
                name: "PGE(CNN)-RotatE".into(),
                pr_auc: 0.75,
                r_at_p: vec![0.7, 0.5, 0.3],
                train_secs: 1.0,
            },
        ];
        let s = fig2(&rows);
        assert!(s.contains("PGE(CNN)-RotatE"));
        assert!(s.contains("#"));
    }

    #[test]
    fn table6_lists_detections() {
        let s = table6(&micro_scale(), 5);
        assert!(s.contains("Attribute Value"));
        assert!(s.contains("precision of top-5"));
    }
}
