//! Inductive-setting integration tests (§4.4 of the paper): training
//! and test entity sets are disjoint, and PGE still works because it
//! encodes entities from text.

use pge::core::{train_pge, ErrorDetector, PgeConfig};
use pge::datagen::{generate_catalog, CatalogConfig};

fn inductive_data() -> pge::graph::Dataset {
    let base = generate_catalog(&CatalogConfig {
        products: 300,
        labeled: 90,
        allow_unseen_values: true,
        seed: 11,
        ..CatalogConfig::default()
    });
    base.to_inductive()
}

#[test]
fn inductive_split_is_entity_disjoint() {
    let d = inductive_data();
    assert!(d.is_entity_disjoint());
    assert!(!d.train.is_empty(), "filtering must leave training data");
    assert!(!d.test.is_empty());
}

#[test]
fn pge_scores_unseen_entities_finitely_and_usefully() {
    let d = inductive_data();
    let trained = train_pge(
        &d,
        &PgeConfig {
            epochs: 8,
            ..PgeConfig::tiny()
        },
    );
    let mut good = 0.0f32;
    let mut bad = 0.0f32;
    let mut n_good = 0;
    let mut n_bad = 0;
    for lt in &d.test {
        let f = trained.model.plausibility(&d.graph, &lt.triple);
        assert!(f.is_finite(), "non-finite score on unseen entity");
        if lt.correct {
            good += f;
            n_good += 1;
        } else {
            bad += f;
            n_bad += 1;
        }
    }
    // Means must still separate in the inductive regime (weaker than
    // transductive, but present).
    assert!(
        good / n_good as f32 > bad / n_bad as f32,
        "inductive separation failed: correct {} vs wrong {}",
        good / n_good as f32,
        bad / n_bad as f32
    );
}

#[test]
fn vocabulary_maps_unseen_words_to_unk() {
    let d = inductive_data();
    let trained = train_pge(
        &d,
        &PgeConfig {
            epochs: 1,
            ..PgeConfig::tiny()
        },
    );
    // A nonsense word can't be in the training vocabulary.
    assert_eq!(
        trained.model.vocab.get("qwertyzxcv"),
        None,
        "fabricated word should be unknown"
    );
    let ids = trained.model.vocab.encode(&["qwertyzxcv".to_string()]);
    assert_eq!(ids, vec![pge::text::Vocab::UNK]);
}

#[test]
fn sample_train_preserves_parallel_clean_flags() {
    let d = inductive_data();
    for ratio in [0.1, 0.5, 1.0] {
        let s = d.sample_train(ratio);
        assert_eq!(s.train.len(), s.train_clean.len());
    }
}
