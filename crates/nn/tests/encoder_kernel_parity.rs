//! End-to-end kernel invariance of the CNN text encoder: the full
//! embed → conv(+tanh-hoisted max pool) → project pipeline, its
//! backward pass, and the argmax positions that route the gradient
//! must be bit-identical whether the scalar-reference or AVX2 kernels
//! run underneath. This is the layer-level complement of the per-op
//! proofs in `pge-tensor/tests/kernel_parity.rs`, and what the scan
//! shard-CRC and training-resume guarantees actually rest on.
//!
//! Kept as one `#[test]` so the global kernel override is never
//! flipped concurrently by sibling tests in this binary.

use pge_nn::conv::{CnnConfig, TextCnnEncoder};
use pge_nn::Embedding;
use pge_tensor::{init, kernels, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bits with the kernels' one carve-out: NaN payloads are unspecified.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// Everything one kernel produces for one sequence: `infer`, the
/// `forward` embedding and argmax positions, and every gradient buffer
/// `backward_into` filled.
#[derive(Debug, PartialEq)]
struct Trace {
    infer: Vec<u32>,
    forward: Vec<u32>,
    argmax: Vec<u32>,
    grads: Vec<u32>,
}

fn trace(enc: &TextCnnEncoder, tokens: &[u32], kernel: kernels::Kernel) -> Trace {
    kernels::set_kernel(Some(kernel));
    let infer = bits(&enc.infer(tokens));
    let (e, cache) = enc.forward(tokens);
    let grad_out: Vec<f32> = (0..e.len()).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut g = enc.grad_buffer();
    enc.backward_into(&cache, &grad_out, &mut g);
    kernels::set_kernel(None);
    let mut grads = Vec::new();
    for (row, grad) in g.words.iter() {
        grads.push(row as u32);
        grads.extend(bits(grad));
    }
    for (dw, db) in g.convs.iter().chain([&g.proj]) {
        grads.extend(bits(dw.as_slice()));
        grads.extend(bits(db.as_slice()));
    }
    Trace {
        infer,
        forward: bits(&e),
        argmax: cache.argmax().to_vec(),
        grads,
    }
}

fn sequences(rng: &mut StdRng, vocab: u32) -> Vec<Vec<u32>> {
    let mut seqs = vec![vec![], vec![5], (0..40).map(|i| i % vocab).collect()];
    for _ in 0..25 {
        let len = rng.gen_range(1..30);
        seqs.push((0..len).map(|_| rng.gen_range(0..vocab)).collect());
    }
    seqs
}

fn assert_kernel_invariant(enc: &TextCnnEncoder, seqs: &[Vec<u32>], what: &str) {
    for tokens in seqs {
        let scalar = trace(enc, tokens, kernels::Kernel::Scalar);
        let simd = trace(enc, tokens, kernels::Kernel::Simd);
        assert_eq!(
            scalar.infer, scalar.forward,
            "{what}: infer != forward for {tokens:?}"
        );
        assert_eq!(scalar, simd, "{what}: kernels diverged for {tokens:?}");
    }
}

#[test]
fn encoder_bits_invariant_under_kernel_switch() {
    let mut rng = StdRng::seed_from_u64(42);

    // Ragged: windows of 19/38/57 floats never fill the 8-filter tile,
    // so every filter takes the per-row path.
    let ragged = TextCnnEncoder::new(
        &mut rng,
        CnnConfig {
            vocab: 64,
            word_dim: 19,
            widths: vec![1, 2, 3],
            filters_per_width: 7,
            out_dim: 13,
            max_len: 21,
        },
    );
    let seqs = sequences(&mut rng, 64);
    assert_kernel_invariant(&ragged, &seqs, "ragged");

    // The trainer's default shape (two full tiles per width), and 19
    // filters of width-16 windows (two tiles plus three per-row
    // filters). Word 7 is NaN; word 9 repeated makes every window of a
    // width identical, so every pre-activation ties.
    for (word_dim, filters, out_dim) in [(32, 16, 32), (16, 19, 10)] {
        let cfg = CnnConfig {
            vocab: 64,
            word_dim,
            widths: vec![1, 2, 3],
            filters_per_width: filters,
            out_dim,
            max_len: 20,
        };
        let mut table: Matrix = init::embedding(&mut rng, cfg.vocab, word_dim);
        table.row_mut(7).fill(f32::NAN);
        let enc = TextCnnEncoder::with_embeddings(&mut rng, cfg, Embedding::from_matrix(table));
        let mut seqs = sequences(&mut rng, 64);
        seqs.extend([vec![9; 12], vec![7], vec![7, 3, 7], vec![3, 7, 7, 7, 4]]);
        assert_kernel_invariant(&enc, &seqs, &format!("{word_dim}x{filters}"));
        for kernel in [kernels::Kernel::Scalar, kernels::Kernel::Simd] {
            let tied = trace(&enc, &[9; 12], kernel);
            assert!(
                tied.argmax.iter().all(|&p| p == 0),
                "{kernel:?}: tied pre-activations must keep the first position: {:?}",
                tied.argmax
            );
        }
    }

    // Matrix products too (backward path / other layers): matmul's
    // broadcast-axpy and matmul_transposed's dot both dispatch.
    let a = Matrix::from_vec(
        9,
        23,
        (0..9 * 23)
            .map(|i| ((i * 37) % 101) as f32 * 0.13)
            .collect(),
    );
    let b = Matrix::from_vec(
        23,
        11,
        (0..23 * 11)
            .map(|i| ((i * 53) % 97) as f32 * -0.07)
            .collect(),
    );
    let bt = b.transposed();
    kernels::set_kernel(Some(kernels::Kernel::Scalar));
    let (p_s, q_s) = (a.matmul(&b), a.matmul_transposed(&bt));
    kernels::set_kernel(Some(kernels::Kernel::Simd));
    let (p_v, q_v) = (a.matmul(&b), a.matmul_transposed(&bt));
    kernels::set_kernel(None);
    assert_eq!(p_s, p_v, "matmul bits diverged across kernels");
    assert_eq!(q_s, q_v, "matmul_transposed bits diverged across kernels");
}
