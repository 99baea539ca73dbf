//! Property-based tests for scoring functions, the confidence
//! mechanism and the validation-threshold sweep, and a mutation fuzz of the model and checkpoint
//! decoders.
//!
//! The fuzz's tier-1 run takes 2,000 cases; the ignored run takes
//! 100,000:
//!
//! ```sh
//! cargo test --release -p pge-core --test props -- --include-ignored snapshot
//! ```

#[path = "../../obs/tests/mutator/mod.rs"]
mod mutator;

use pge_core::{
    load_model_auto_path, save_model_store, train_pge, train_pge_resumable, Checkpoint,
    CheckpointOptions, ConfidenceStore, Detector, EmbeddingCache, ErrorDetector, PersistError,
    PgeConfig, ScoreKind, Scorer, CHECKPOINT_FILE,
};
use pge_graph::{AttrId, Dataset, LabeledTriple, ProductGraph, ProductId, Triple, ValueId};
use pge_nn::gradcheck;
use pge_store::{MmapMode, Snapshot, SnapshotWriter};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const KINDS: [ScoreKind; 4] = [
    ScoreKind::TransE,
    ScoreKind::RotatE,
    ScoreKind::DistMult,
    ScoreKind::ComplEx,
];

fn vec_of(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| (((i as u64 + 1) * (seed + 7)) % 997) as f32 / 499.0 - 1.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_scorers_gradcheck_random_inputs(
        kind_ix in 0usize..4,
        half_dim in 1usize..6,
        seed in 0u64..10_000,
        gamma in 0.5f32..12.0,
    ) {
        let kind = KINDS[kind_ix];
        let d = half_dim * 2;
        let s = Scorer::new(kind, gamma);
        let h = vec_of(d, seed);
        let r = vec_of(s.rel_dim(d), seed + 1);
        let t = vec_of(d, seed + 2);
        // Keep away from |x| kinks for the L1-based scorers.
        let near_kink = match kind {
            ScoreKind::TransE => (0..d).any(|i| (h[i] + r[i] - t[i]).abs() < 0.05),
            _ => false,
        };
        prop_assume!(!near_kink);

        let mut dh = vec![0.0; d];
        let mut dr = vec![0.0; r.len()];
        let mut dt = vec![0.0; d];
        s.backward(&h, &r, &t, 1.0, &mut dh, &mut dr, &mut dt);
        let nh = gradcheck::numeric_input_grad(&h, |x| s.score(x, &r, &t));
        let nr = gradcheck::numeric_input_grad(&r, |x| s.score(&h, x, &t));
        let nt = gradcheck::numeric_input_grad(&t, |x| s.score(&h, &r, x));
        gradcheck::assert_close(&dh, &nh, 5e-2, "prop dh");
        gradcheck::assert_close(&dr, &nr, 5e-2, "prop dr");
        gradcheck::assert_close(&dt, &nt, 5e-2, "prop dt");
    }

    #[test]
    fn scores_are_finite(kind_ix in 0usize..4, half_dim in 1usize..8, seed in 0u64..10_000) {
        let kind = KINDS[kind_ix];
        let d = half_dim * 2;
        let s = Scorer::new(kind, 6.0);
        let h = vec_of(d, seed);
        let r = vec_of(s.rel_dim(d), seed + 3);
        let t = vec_of(d, seed + 4);
        prop_assert!(s.score(&h, &r, &t).is_finite());
    }

    #[test]
    fn distance_scorers_never_exceed_gamma(
        half_dim in 1usize..8,
        seed in 0u64..10_000,
        gamma in 0.0f32..24.0,
    ) {
        for kind in [ScoreKind::TransE, ScoreKind::RotatE] {
            let d = half_dim * 2;
            let s = Scorer::new(kind, gamma);
            let h = vec_of(d, seed);
            let r = vec_of(s.rel_dim(d), seed + 5);
            let t = vec_of(d, seed + 6);
            prop_assert!(s.score(&h, &r, &t) <= gamma + 1e-5);
        }
    }

    #[test]
    fn confidence_always_clamped(
        losses in prop::collection::vec(-10.0f32..10.0, 1..100),
        alpha in 0.0f32..3.0,
        beta in 0.0f32..1.0,
        lr in 0.001f32..1.0,
    ) {
        let mut store = ConfidenceStore::new(1, alpha, beta, lr);
        for &l in &losses {
            store.update(0, l);
            let c = store.get(0);
            prop_assert!((0.0..=1.0).contains(&c), "C = {c}");
        }
    }

    #[test]
    fn cache_len_never_exceeds_capacity(
        capacity in 0usize..64,
        keys in prop::collection::vec(0u16..512, 0..300),
    ) {
        // Regression: ceil-rounded per-shard caps let the cache hold
        // up to 15 entries more than the requested capacity.
        let cache = EmbeddingCache::new(capacity);
        for k in &keys {
            let v = cache.get_or_compute(&format!("k{k}"), || vec![f32::from(*k)]);
            prop_assert_eq!(v, vec![f32::from(*k)]);
        }
        prop_assert!(
            cache.len() <= capacity,
            "len {} exceeds capacity {}", cache.len(), capacity
        );
    }

    #[test]
    fn confidence_monotone_in_loss_pressure(
        alpha in 0.2f32..2.0,
        lr in 0.01f32..0.2,
        steps in 10usize..100,
    ) {
        // Higher persistent loss must end with (weakly) lower C.
        let mut low = ConfidenceStore::new(1, alpha, 0.0, lr);
        let mut high = ConfidenceStore::new(1, alpha, 0.0, lr);
        for _ in 0..steps {
            low.update(0, alpha * 0.5);
            high.update(0, alpha * 2.0);
        }
        prop_assert!(high.get(0) <= low.get(0) + 1e-6);
    }
}

/// Plausibility = a fixed score per triple, looked up by value id.
struct ScoreTable(Vec<f32>);

impl ErrorDetector for ScoreTable {
    fn name(&self) -> String {
        "score-table".into()
    }
    fn plausibility(&self, _g: &ProductGraph, t: &Triple) -> f32 {
        self.0[t.value.0 as usize]
    }
}

/// `(θ, accuracy)` that [`Detector::fit`] picks for `(score, is_correct)`.
fn fit_threshold(pairs: &[(f32, bool)]) -> (f32, f32) {
    let valid: Vec<LabeledTriple> = (0..pairs.len() as u32)
        .map(|i| LabeledTriple {
            triple: Triple::new(ProductId(i), AttrId(0), ValueId(i)),
            correct: pairs[i as usize].1,
        })
        .collect();
    let det = ScoreTable(pairs.iter().map(|p| p.0).collect());
    let fit = Detector::fit(&det, &ProductGraph::new(), &valid);
    (fit.threshold, fit.valid_accuracy)
}

/// Accuracy of `predict correct ⇔ score > θ` on `(score, is_correct)`.
fn accuracy_at(pairs: &[(f32, bool)], theta: f32) -> f32 {
    let hits = pairs.iter().filter(|(s, c)| (*s > theta) == *c).count();
    hits as f32 / pairs.len() as f32
}

/// Scores that occasionally go NaN, as a diverged model produces.
fn arb_maybe_nan_score() -> impl Strategy<Value = f32> {
    (0u32..5, -100.0f32..100.0).prop_map(|(k, s)| if k == 0 { f32::NAN } else { s })
}

proptest! {
    #[test]
    fn best_threshold_beats_majority(pairs in prop::collection::vec((-10.0f32..10.0, any::<bool>()), 1..100)) {
        let (_, acc) = fit_threshold(&pairs);
        let correct = pairs.iter().filter(|(_, c)| *c).count() as f32 / pairs.len() as f32;
        let majority = correct.max(1.0 - correct);
        prop_assert!(acc + 1e-6 >= majority, "acc {acc} < majority {majority}");
        prop_assert!(acc <= 1.0 + 1e-6);
    }

    #[test]
    fn best_threshold_survives_nan_scores(
        pairs in prop::collection::vec((arb_maybe_nan_score(), any::<bool>()), 1..100)
    ) {
        // Regression: any NaN score used to hang the sweep forever.
        let (theta, acc) = fit_threshold(&pairs);
        prop_assert!(theta.is_finite(), "theta={theta}");
        prop_assert!((0.0..=1.0).contains(&acc), "acc={acc}");
        // The reported accuracy is attained at θ and bounds any probe.
        prop_assert!((accuracy_at(&pairs, theta) - acc).abs() < 1e-5);
        for probe in [-200.0, 0.0, 200.0] {
            prop_assert!(accuracy_at(&pairs, probe) <= acc + 1e-6);
        }
    }
}

/// A trained model's snapshot and a trainer checkpoint to mutate,
/// with the dataset to load them against.
fn fixture() -> &'static (Dataset, PathBuf, PathBuf) {
    static FIXTURE: OnceLock<(Dataset, PathBuf, PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Six words, so the dimension lines are most of the header,
        // and two attributes, so mutations reach the attribute names.
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for flavor in ["spicy", "sweet"] {
            for kind in ["chips", "snack"] {
                let title = format!("{flavor} {kind}");
                train.push(g.add_fact(&title, "flavor", flavor));
                train.push(g.add_fact(&title, "ingredient", kind));
            }
        }
        let data = Dataset::new(g, train, vec![], vec![]);
        let cfg = PgeConfig {
            epochs: 1,
            ..PgeConfig::tiny()
        };
        let dir = std::env::temp_dir().join(format!("pge-snapshot-fuzz-{}", std::process::id()));
        let model = dir.join("model.pgebin");
        std::fs::create_dir_all(&dir).unwrap();
        let trained = train_pge(&data, &cfg).model;
        assert_eq!(trained.attr_names().len(), 2);
        save_model_store(&trained, &model).unwrap();
        train_pge_resumable(&data, &cfg, None, Some(&CheckpointOptions::new(&dir))).unwrap();
        (data, model, dir.join(CHECKPOINT_FILE))
    })
}

/// Numbers and separators for `model.header` text (kinds 2 and 3).
const TEXT_INSERTS: [&[&str]; 2] = [
    &["0", "1", "7", "-", "4294967296", "99999999999999999999"],
    &[" ", "\n", ",", "rotate", "complex", "é"],
];
/// Raw bytes for `ckpt.meta` and whole files (kinds 2 and 3).
const BYTE_INSERTS: [&[&str]; 2] = [&["\0", "\u{1}", "\u{80}"], &["PGEBIN02", "PGEBIN01"]];

/// Mutate one decoder input into `out` and decode it: `target` 0 is
/// the model's `model.header`, 1 the checkpoint's `ckpt.meta`, 2 and 3
/// the whole model and checkpoint files. A mutated section is written
/// back with a fresh CRC, so the mutation reaches the parser.
fn mutated_load(
    target: u8,
    mmap: bool,
    m: &[(u8, u32, u8)],
    out: &Path,
) -> Result<(), PersistError> {
    let (data, model, ckpt) = fixture();
    let src = if target.is_multiple_of(2) {
        model
    } else {
        ckpt
    };
    if target < 2 {
        let (name, inserts) = if target == 0 {
            ("model.header", &TEXT_INSERTS)
        } else {
            ("ckpt.meta", &BYTE_INSERTS)
        };
        let snap = Snapshot::open(src, MmapMode::Off).unwrap();
        let mut w = SnapshotWriter::create(out).unwrap();
        for s in snap.sections() {
            let bytes = snap.section(&s.name).unwrap().bytes;
            w.begin_section(&s.name, s.kind, s.rows, s.cols).unwrap();
            if s.name == name {
                w.write(&mutator::mutate(bytes.to_vec(), m, inserts))
                    .unwrap();
            } else {
                w.write(bytes).unwrap();
            }
            w.end_section().unwrap();
        }
        w.finish().unwrap();
    } else {
        let bytes = std::fs::read(src).unwrap();
        std::fs::write(out, mutator::mutate(bytes, m, &BYTE_INSERTS)).unwrap();
    }
    if target.is_multiple_of(2) {
        let mode = if mmap { MmapMode::On } else { MmapMode::Off };
        load_model_auto_path(out, &data.graph, mode, 0).map(drop)
    } else {
        Checkpoint::load(out)?.restore_model().map(drop)
    }
}

/// `(target, mmap, mutations)`; see [`mutated_load`].
fn arb_case() -> impl Strategy<Value = (u8, bool, Vec<(u8, u32, u8)>)> {
    (0u8..4, any::<bool>(), mutator::arb_mutations(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]
    /// Every mutant decodes to `Ok` or a typed error; a panic fails
    /// the case.
    #[test]
    fn mutated_snapshots_decode_or_fail_typed((target, mmap, m) in arb_case()) {
        let _ = mutated_load(target, mmap, &m, &fixture().1.with_extension("case"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]
    #[test]
    #[ignore = "100,000 cases; run with --include-ignored"]
    fn mutated_snapshots_decode_or_fail_typed_100k((target, mmap, m) in arb_case()) {
        let _ = mutated_load(target, mmap, &m, &fixture().1.with_extension("case-100k"));
    }
}

#[test]
fn snapshot_mutations_reach_both_outcomes() {
    // The fuzz is only as good as its mix: for every target, some
    // mutants must still load and many must fail, for many reasons.
    let mut rng = proptest::test_runner::TestRng::for_test("snapshot_fuzz::mix");
    let out = fixture().1.with_extension("mix");
    let mut reasons = std::collections::BTreeSet::new();
    for target in 0..4 {
        let (mut ok, mut err) = (0, 0);
        for _ in 0..100 {
            match mutated_load(
                target,
                false,
                &mutator::arb_mutations(4).generate(&mut rng),
                &out,
            ) {
                Ok(()) => ok += 1,
                Err(e) => {
                    err += 1;
                    reasons.insert(e.to_string().split(':').take(2).collect::<String>());
                }
            }
        }
        assert!(ok >= 5 && err >= 20, "target {target}: ok {ok}, err {err}");
    }
    assert!(reasons.len() >= 8, "{reasons:?}");
}
