//! End-to-end pipeline tests: generate → train → detect, with quality
//! floors. Sizes are kept small so the suite stays fast in debug
//! builds.

use pge::core::{train_pge, Detector, ErrorDetector, PgeConfig};
use pge::datagen::{generate_catalog, CatalogConfig};
use pge::eval::{average_precision, Scored};

fn small_catalog() -> pge::graph::Dataset {
    // Deliberately easier than the benchmark catalog: titles always
    // mention their value and variants are rare, so the tiny
    // debug-build training budget suffices. Difficulty scaling is the
    // bench harness's job, not this pipeline test's.
    generate_catalog(&CatalogConfig {
        products: 250,
        labeled: 100,
        title_mentions_value: 0.9,
        value_variant_rate: 0.2,
        train_noise: 0.0,
        seed: 9,
        ..CatalogConfig::default()
    })
}

fn fast_cfg() -> PgeConfig {
    // Per-attribute negatives: catalog errors are within-attribute
    // value swaps, so "the other value of this attribute" is the
    // corruption the model must learn to reject — global-uniform
    // negatives mostly contrast against other attributes' values and
    // need several times the epochs for the same separation.
    PgeConfig {
        epochs: 20,
        sampling: pge::graph::SamplingMode::PerAttribute,
        ..PgeConfig::tiny()
    }
}

fn pr_auc_of(det: &dyn ErrorDetector, data: &pge::graph::Dataset) -> f32 {
    let triples: Vec<_> = data.test.iter().map(|lt| lt.triple).collect();
    let scores = det.plausibility_all(&data.graph, &triples);
    let scored: Vec<Scored> = scores
        .iter()
        .zip(&data.test)
        .map(|(&f, lt)| Scored::new(-f, !lt.correct))
        .collect();
    average_precision(&scored)
}

#[test]
fn pge_beats_chance_on_catalog_errors() {
    let data = small_catalog();
    let trained = train_pge(&data, &fast_cfg());
    let auc = pr_auc_of(&trained.model, &data);
    // Chance ≈ fraction of errors (~0.5); require clear daylight.
    let base_rate =
        data.test.iter().filter(|lt| !lt.correct).count() as f32 / data.test.len() as f32;
    assert!(
        auc > base_rate + 0.15,
        "PR AUC {auc:.3} not above chance {base_rate:.3}"
    );
}

#[test]
fn detector_threshold_transfers_from_valid_to_test() {
    let data = small_catalog();
    let trained = train_pge(&data, &fast_cfg());
    let det = Detector::fit(&trained.model, &data.graph, &data.valid);
    let test_acc = det.accuracy(&data.graph, &data.test);
    // The validation-fitted threshold must do better than always
    // guessing the majority class on test.
    let majority = {
        let correct =
            data.test.iter().filter(|lt| lt.correct).count() as f32 / data.test.len() as f32;
        correct.max(1.0 - correct)
    };
    assert!(
        test_acc > majority - 0.05,
        "test accuracy {test_acc:.3} far below majority {majority:.3}"
    );
}

#[test]
fn training_is_deterministic_across_runs() {
    let data = small_catalog();
    let a = train_pge(&data, &fast_cfg());
    let b = train_pge(&data, &fast_cfg());
    for lt in data.test.iter().take(10) {
        assert_eq!(
            a.model.plausibility(&data.graph, &lt.triple),
            b.model.plausibility(&data.graph, &lt.triple)
        );
    }
    assert_eq!(a.epoch_losses, b.epoch_losses);
}

#[test]
fn losses_trend_downward() {
    let data = small_catalog();
    let trained = train_pge(&data, &fast_cfg());
    let first = trained.epoch_losses.first().copied().unwrap();
    let last = trained.epoch_losses.last().copied().unwrap();
    assert!(last < first, "loss went {first} -> {last}");
}
