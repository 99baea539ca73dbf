//! Bit pin for the id-based baselines: tiny TransE, RotatE and CKRL
//! runs must reproduce one golden hash over CKRL's final confidences
//! and every model's test scores, under the scalar and the AVX2
//! kernels alike. A refactor of the training loop that moves one RNG
//! draw or reorders one float operation fails here.

use pge_baselines::{train_ckrl, train_kge, CkrlConfig, KgeConfig};
use pge_core::{ErrorDetector, ScoreKind};
use pge_datagen::{generate_catalog, CatalogConfig};
use pge_graph::Triple;
use pge_tensor::{fnv1a, set_kernel, Kernel, FNV_OFFSET};

/// Fold the little-endian bits of each value into `h`.
fn fold(h: u64, xs: &[f32]) -> u64 {
    xs.iter()
        .fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

const GOLDEN_BASELINE_HASH: u64 = 0xc4d2_2fe0_ed66_18f7;

#[test]
fn baseline_bits_are_pinned_under_both_kernels() {
    let d = generate_catalog(&CatalogConfig {
        products: 80,
        labeled: 40,
        seed: 5,
        ..CatalogConfig::default()
    });
    let test: Vec<Triple> = d.test.iter().map(|lt| lt.triple).collect();
    for kernel in [Kernel::Scalar, Kernel::Simd] {
        set_kernel(Some(kernel));
        let transe = train_kge(
            &d,
            &KgeConfig {
                score: ScoreKind::TransE,
                epochs: 3,
                ..KgeConfig::tiny()
            },
        );
        let rotate = train_kge(
            &d,
            &KgeConfig {
                epochs: 3,
                ..KgeConfig::tiny()
            },
        );
        let ckrl = train_ckrl(
            &d,
            &CkrlConfig {
                epochs: 5,
                ..CkrlConfig::tiny()
            },
        );
        set_kernel(None);
        let mut h = fold(FNV_OFFSET, &ckrl.confidence);
        for det in [&transe as &dyn ErrorDetector, &rotate, &ckrl] {
            h = fold(h, &det.plausibility_all(&d.graph, &test));
        }
        eprintln!("{kernel:?}: hash {h:#018x}");
        assert_eq!(
            h, GOLDEN_BASELINE_HASH,
            "baseline bits moved under {kernel:?}"
        );
    }
}
