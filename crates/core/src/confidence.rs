//! The noise-aware mechanism (§3.3): per-triple learnable confidence.
//!
//! Each training triple `(t,a,v)` carries a confidence `C ∈ [0,1]`.
//! The relaxed objective of Eq. (6) is
//!
//! ```text
//! L = Σ C·L_triple + α Σ (1 − C) + β Σ (1 − C² − (1−C)²)
//! ```
//!
//! Noting `1 − C² − (1−C)² = 2C(1−C)`, the β term penalizes
//! indecision (maximal at C = ½), polarizing C toward {0,1}, while α
//! prices marking a triple down. The gradient w.r.t. one C is
//! `∂L/∂C = L_triple − α + β(2 − 4C)`.
//!
//! # Selectable backends
//!
//! *How* the per-batch training signal turns into a confidence update
//! is a [`ConfidenceUpdater`] backend selected by `--confidence`:
//!
//! * [`ConfidenceBackend::Pge`] (default) is the paper's Eq. (6) SGD
//!   step above, **bit-identical** to the historical hard-coded path —
//!   it consumes only `(index, triple_loss)` and performs the exact
//!   same float operations in the same order.
//! * [`ConfidenceBackend::Cca`] adapts confidence contrastively (after
//!   CCA, Liu et al.): each update blends the InfoNCE win probability
//!   of the positive against its sampled negatives with the cosine
//!   agreement between the triple's value embedding and a cached
//!   per-attribute neighbor centroid (an EMA updated in deterministic
//!   lane order), so confidence tracks *neighborhood consensus* rather
//!   than raw loss magnitude. Its centroid cache is auxiliary state
//!   that checkpoints alongside the confidence table.

/// Confidence scores for a training set, updated by SGD alongside the
/// embedding parameters.
#[derive(Clone, Debug)]
pub struct ConfidenceStore {
    c: Vec<f32>,
    /// Sparsity price α of Eq. (4): larger α makes down-weighting
    /// costlier, so fewer triples are marked down.
    pub alpha: f32,
    /// Polarization strength β of Eq. (6).
    pub beta: f32,
    /// SGD step size for confidence updates.
    pub lr: f32,
}

impl ConfidenceStore {
    /// All-confident initialization (C = 1 for every triple).
    pub fn new(n: usize, alpha: f32, beta: f32, lr: f32) -> Self {
        ConfidenceStore {
            c: vec![1.0; n],
            alpha,
            beta,
            lr,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.c.len()
    }

    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// Confidence of training triple `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        self.c[i]
    }

    /// All confidences (Fig. 5 histograms).
    pub fn scores(&self) -> &[f32] {
        &self.c
    }

    /// Overwrite every confidence score from a checkpoint. Fails when
    /// the checkpoint was taken against a different training set size
    /// — the scores are positional, so a length mismatch means the
    /// corpus changed underneath the checkpoint.
    pub fn restore_scores(&mut self, scores: &[f32]) -> Result<(), String> {
        if scores.len() != self.c.len() {
            return Err(format!(
                "confidence table has {} entries but the training set has {} triples",
                scores.len(),
                self.c.len()
            ));
        }
        self.c.copy_from_slice(scores);
        Ok(())
    }

    /// One SGD step on `C_i` given that triple's current loss
    /// `L_triple`; clamps back into `[0,1]` (the relaxation of
    /// Eq. (5) keeps C in the unit interval).
    #[inline]
    pub fn update(&mut self, i: usize, triple_loss: f32) {
        let c = self.c[i];
        let grad = triple_loss - self.alpha + self.beta * (2.0 - 4.0 * c);
        self.c[i] = (c - self.lr * grad).clamp(0.0, 1.0);
    }

    /// Overwrite one score directly (clamped). Backends other than the
    /// Eq. (6) SGD step use this, as does the incremental trainer when
    /// a retraction pins a triple's confidence to zero.
    #[inline]
    pub fn set(&mut self, i: usize, value: f32) {
        self.c[i] = value.clamp(0.0, 1.0);
    }

    /// Append one all-confident entry — how the incremental trainer
    /// grows the table when a delta window adds training triples.
    pub fn push_default(&mut self) {
        self.c.push(1.0);
    }

    /// Fraction of triples currently marked down (C < 0.5).
    pub fn fraction_marked_down(&self) -> f32 {
        if self.c.is_empty() {
            return 0.0;
        }
        self.c.iter().filter(|&&c| c < 0.5).count() as f32 / self.c.len() as f32
    }

    /// Mean confidence (0 for an empty store).
    pub fn mean(&self) -> f32 {
        if self.c.is_empty() {
            return 0.0;
        }
        self.c.iter().sum::<f32>() / self.c.len() as f32
    }

    /// Fraction of C in `[0, 0.1] ∪ [0.9, 1]` — how polarized the
    /// scores are. The β term of Eq. (6) exists to drive this toward 1;
    /// tracking it per epoch is the direct diagnostic that the relaxed
    /// objective is behaving like the binary one it approximates.
    pub fn polarized_fraction(&self) -> f32 {
        if self.c.is_empty() {
            return 0.0;
        }
        let polar = self.c.iter().filter(|&&c| c <= 0.1 || c >= 0.9).count();
        polar as f32 / self.c.len() as f32
    }

    /// Uniform-bin histogram of the scores over `[0, 1]` (Fig. 5).
    pub fn histogram(&self, bins: usize) -> Vec<u64> {
        let bins = bins.max(1);
        let mut counts = vec![0u64; bins];
        for &c in &self.c {
            let b = ((c * bins as f32) as usize).min(bins - 1);
            counts[b] += 1;
        }
        counts
    }

    /// Snapshot for the run log's per-epoch `confidence` block.
    pub fn telemetry(&self, bins: usize) -> pge_obs::ConfidenceTelemetry {
        pge_obs::ConfidenceTelemetry {
            mean: self.mean(),
            polarized_frac: self.polarized_fraction(),
            marked_down_frac: self.fraction_marked_down(),
            hist: self.histogram(bins),
        }
    }
}

// --- Selectable confidence backends ---------------------------------

/// Which confidence-update rule a training run uses (`--confidence`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConfidenceBackend {
    /// The paper's Eq. (6) SGD step — bit-identical to the historical
    /// hard-coded path.
    #[default]
    Pge,
    /// Contrastive confidence adaption: InfoNCE win probability ×
    /// neighborhood cosine agreement against cached per-attribute
    /// value-embedding centroids.
    Cca,
}

impl ConfidenceBackend {
    /// Stable name — hashed into the checkpoint config hash, so a
    /// checkpoint records which rule produced its confidence table.
    pub fn name(&self) -> &'static str {
        match self {
            ConfidenceBackend::Pge => "pge",
            ConfidenceBackend::Cca => "cca",
        }
    }

    /// Parse a `--confidence` flag value.
    pub fn parse(s: &str) -> Result<ConfidenceBackend, String> {
        match s {
            "pge" => Ok(ConfidenceBackend::Pge),
            "cca" => Ok(ConfidenceBackend::Cca),
            other => Err(format!(
                "unknown confidence backend {other:?} (expected pge or cca)"
            )),
        }
    }

    /// Build the updater for this backend. `num_attrs`/`dim` size the
    /// CCA neighbor cache; the Eq. (6) backend ignores them.
    pub fn make_updater(&self, num_attrs: usize, dim: usize) -> Box<dyn ConfidenceUpdater> {
        match self {
            ConfidenceBackend::Pge => Box::new(PgeUpdater),
            ConfidenceBackend::Cca => Box::new(CcaUpdater::new(num_attrs, dim)),
        }
    }
}

/// The per-triple training signal a batch hands to the updater.
/// Captured inside the gradient lanes and applied in fixed lane order,
/// so every backend inherits the trainer's thread-count invariance.
#[derive(Clone, Debug)]
pub struct ConfidenceSignal {
    /// Dataset index of the training triple.
    pub index: usize,
    /// The triple's Eq. (3) loss term this batch.
    pub triple_loss: f32,
    /// InfoNCE win probability of the positive against its sampled
    /// negatives — only populated when the backend asks for contrast
    /// (see [`ConfidenceUpdater::wants_contrast`]); 0.0 otherwise.
    pub contrast: f32,
    /// Attribute id (indexes the CCA neighbor cache).
    pub attr: u16,
    /// The positive value embedding — empty unless the backend asks
    /// for contrast, so the Eq. (6) path never pays the copy.
    pub value_emb: Vec<f32>,
}

/// A confidence-update rule. Implementations must be deterministic
/// functions of the signal sequence — signals arrive in fixed lane
/// order regardless of thread count.
pub trait ConfidenceUpdater: Send {
    fn backend(&self) -> ConfidenceBackend;

    /// True when batches must capture the contrastive extras (InfoNCE
    /// probability + value embedding) into each signal. The Eq. (6)
    /// path returns false so its hot loop stays byte-for-byte the
    /// historical one.
    fn wants_contrast(&self) -> bool;

    /// Consume one triple's signal, updating `store` (and any cached
    /// backend state).
    fn apply(&mut self, store: &mut ConfidenceStore, sig: ConfidenceSignal);

    /// Auxiliary backend state to embed in checkpoints (the CCA
    /// neighbor cache; empty for Eq. (6)).
    fn aux_state(&self) -> Vec<f32>;

    /// Restore auxiliary state captured by [`Self::aux_state`].
    fn restore_aux(&mut self, aux: &[f32]) -> Result<(), String>;
}

/// Eq. (6) — delegates to [`ConfidenceStore::update`] with the exact
/// historical float operations.
struct PgeUpdater;

impl ConfidenceUpdater for PgeUpdater {
    fn backend(&self) -> ConfidenceBackend {
        ConfidenceBackend::Pge
    }

    fn wants_contrast(&self) -> bool {
        false
    }

    fn apply(&mut self, store: &mut ConfidenceStore, sig: ConfidenceSignal) {
        store.update(sig.index, sig.triple_loss);
    }

    fn aux_state(&self) -> Vec<f32> {
        Vec::new()
    }

    fn restore_aux(&mut self, aux: &[f32]) -> Result<(), String> {
        if aux.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "pge confidence backend carries no auxiliary state but the \
                 checkpoint has {} entries — it was written by another backend",
                aux.len()
            ))
        }
    }
}

/// Contrastive confidence adaption: per-attribute EMA centroids of
/// value embeddings form the "neighbor cache"; confidence relaxes
/// toward √(InfoNCE · cosine-agreement), and each triple's embedding
/// is folded into its attribute's centroid weighted by the updated
/// confidence (so low-confidence triples pollute the cache less).
struct CcaUpdater {
    /// `num_attrs × dim`, row-major EMA centroids.
    centroids: Vec<f32>,
    /// Observations folded into each centroid (cold centroids fall
    /// back to pure contrastive evidence).
    counts: Vec<f32>,
    dim: usize,
    /// EMA rate of the centroid update.
    eta: f32,
}

impl CcaUpdater {
    fn new(num_attrs: usize, dim: usize) -> CcaUpdater {
        CcaUpdater {
            centroids: vec![0.0; num_attrs.max(1) * dim],
            counts: vec![0.0; num_attrs.max(1)],
            dim,
            eta: 0.1,
        }
    }
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = (na.sqrt() * nb.sqrt()).max(1e-12);
    dot / denom
}

impl ConfidenceUpdater for CcaUpdater {
    fn backend(&self) -> ConfidenceBackend {
        ConfidenceBackend::Cca
    }

    fn wants_contrast(&self) -> bool {
        true
    }

    fn apply(&mut self, store: &mut ConfidenceStore, sig: ConfidenceSignal) {
        let a = (sig.attr as usize).min(self.counts.len() - 1);
        let row = &mut self.centroids[a * self.dim..(a + 1) * self.dim];
        debug_assert_eq!(sig.value_emb.len(), self.dim);
        // Neighborhood agreement in [0,1]; a cold centroid carries no
        // evidence, so fall back to the contrastive term alone.
        let agree = if self.counts[a] > 0.0 {
            0.5 * (cosine(row, &sig.value_emb) + 1.0)
        } else {
            sig.contrast
        };
        // Geometric blend: both the contrastive win and the neighbor
        // consensus must hold for confidence to stay high.
        let target = (sig.contrast.max(0.0) * agree.max(0.0)).sqrt();
        let c = store.get(sig.index);
        store.set(sig.index, c + store.lr * (target - c));
        let w = self.eta * store.get(sig.index);
        for (cd, &x) in row.iter_mut().zip(&sig.value_emb) {
            *cd += w * (x - *cd);
        }
        self.counts[a] += 1.0;
    }

    fn aux_state(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.counts.len() + self.centroids.len());
        out.extend_from_slice(&self.counts);
        out.extend_from_slice(&self.centroids);
        out
    }

    fn restore_aux(&mut self, aux: &[f32]) -> Result<(), String> {
        let want = self.counts.len() + self.centroids.len();
        if aux.len() != want {
            return Err(format!(
                "cca neighbor cache has {} entries in the checkpoint but this \
                 run needs {want} ({} attrs × dim {})",
                aux.len(),
                self.counts.len(),
                self.dim
            ));
        }
        let (counts, centroids) = aux.split_at(self.counts.len());
        self.counts.copy_from_slice(counts);
        self.centroids.copy_from_slice(centroids);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_all_ones() {
        let s = ConfidenceStore::new(5, 0.5, 0.1, 0.01);
        assert_eq!(s.len(), 5);
        assert!(s.scores().iter().all(|&c| c == 1.0));
        assert_eq!(s.fraction_marked_down(), 0.0);
    }

    #[test]
    fn high_loss_pushes_confidence_down() {
        let mut s = ConfidenceStore::new(1, 0.5, 0.05, 0.05);
        for _ in 0..200 {
            s.update(0, 5.0); // persistently implausible triple
        }
        assert!(s.get(0) < 0.2, "C = {}", s.get(0));
    }

    #[test]
    fn low_loss_keeps_confidence_up() {
        let mut s = ConfidenceStore::new(1, 0.5, 0.05, 0.05);
        for _ in 0..200 {
            s.update(0, 0.05); // well-explained triple
        }
        assert!(s.get(0) > 0.8, "C = {}", s.get(0));
    }

    #[test]
    fn alpha_controls_markdown_threshold() {
        // A loss between α_small and α_large marks down only under
        // the small α.
        let mut strict = ConfidenceStore::new(1, 0.3, 0.0, 0.05);
        let mut lenient = ConfidenceStore::new(1, 2.0, 0.0, 0.05);
        for _ in 0..300 {
            strict.update(0, 1.0);
            lenient.update(0, 1.0);
        }
        assert!(strict.get(0) < 0.1);
        assert!(lenient.get(0) > 0.9);
    }

    #[test]
    fn beta_polarizes_from_above_half() {
        // With loss exactly α, only β acts; from C=1 it holds C at the
        // pole (gradient β(2−4C) = −2β < 0 pushes C up).
        let mut s = ConfidenceStore::new(1, 0.5, 0.2, 0.05);
        for _ in 0..100 {
            s.update(0, 0.5);
        }
        assert!(s.get(0) > 0.95);
    }

    #[test]
    fn clamped_to_unit_interval() {
        let mut s = ConfidenceStore::new(2, 0.5, 0.1, 10.0); // huge lr
        s.update(0, 100.0);
        s.update(1, -100.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.get(1), 1.0);
    }

    #[test]
    fn fraction_marked_down_counts() {
        let mut s = ConfidenceStore::new(4, 0.5, 0.1, 0.5);
        for _ in 0..50 {
            s.update(0, 10.0);
            s.update(1, 10.0);
        }
        assert!((s.fraction_marked_down() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn polarization_diagnostics() {
        let mut s = ConfidenceStore::new(4, 0.5, 0.1, 0.5);
        // Initial state: everything at the C=1 pole.
        assert_eq!(s.polarized_fraction(), 1.0);
        assert_eq!(s.mean(), 1.0);
        // Slam two to 0, leave two at 1 → still fully polarized,
        // mean halves.
        for _ in 0..50 {
            s.update(0, 100.0);
            s.update(1, 100.0);
        }
        assert_eq!(s.polarized_fraction(), 1.0);
        assert!((s.mean() - 0.5).abs() < 1e-6);
        let hist = s.histogram(10);
        assert_eq!(hist[0], 2);
        assert_eq!(hist[9], 2);
        assert_eq!(hist.iter().sum::<u64>(), 4);
        let t = s.telemetry(10);
        assert_eq!(t.polarized_frac, 1.0);
        assert_eq!(t.marked_down_frac, 0.5);
        assert_eq!(t.hist, hist);
    }

    #[test]
    fn midscale_confidence_is_not_polarized() {
        let mut s = ConfidenceStore::new(1, 0.5, 0.0, 0.1);
        // A few high-loss steps from C=1 leave C mid-scale.
        for _ in 0..3 {
            s.update(0, 2.0);
        }
        let c = s.get(0);
        assert!(c > 0.1 && c < 0.9, "C = {c}");
        assert_eq!(s.polarized_fraction(), 0.0);
    }

    #[test]
    fn restore_scores_round_trips_and_rejects_length_mismatch() {
        let mut s = ConfidenceStore::new(3, 0.5, 0.1, 0.05);
        s.update(0, 10.0);
        let saved = s.scores().to_vec();
        let mut fresh = ConfidenceStore::new(3, 0.5, 0.1, 0.05);
        fresh.restore_scores(&saved).unwrap();
        assert_eq!(fresh.scores(), &saved[..]);
        assert!(fresh.restore_scores(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn empty_store_diagnostics_are_zero() {
        let s = ConfidenceStore::new(0, 0.5, 0.1, 0.05);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.polarized_fraction(), 0.0);
        assert_eq!(s.histogram(4), vec![0, 0, 0, 0]);
    }

    // --- backends ----------------------------------------------------

    fn sig(i: usize, loss: f32, contrast: f32, attr: u16, emb: &[f32]) -> ConfidenceSignal {
        ConfidenceSignal {
            index: i,
            triple_loss: loss,
            contrast,
            attr,
            value_emb: emb.to_vec(),
        }
    }

    #[test]
    fn backend_parse_and_names_round_trip() {
        assert_eq!(ConfidenceBackend::parse("pge").unwrap().name(), "pge");
        assert_eq!(ConfidenceBackend::parse("cca").unwrap().name(), "cca");
        assert!(ConfidenceBackend::parse("mystery").is_err());
        assert_eq!(ConfidenceBackend::default(), ConfidenceBackend::Pge);
    }

    #[test]
    fn pge_backend_is_bit_identical_to_direct_updates() {
        let mut direct = ConfidenceStore::new(3, 1.2, 0.05, 0.03);
        let mut via = ConfidenceStore::new(3, 1.2, 0.05, 0.03);
        let mut up = ConfidenceBackend::Pge.make_updater(4, 8);
        assert!(!up.wants_contrast());
        for (i, loss) in [(0usize, 3.0f32), (1, 0.2), (2, 1.4), (0, 2.8), (1, 0.1)] {
            direct.update(i, loss);
            up.apply(&mut via, sig(i, loss, 0.0, 0, &[]));
        }
        let a: Vec<u32> = direct.scores().iter().map(|c| c.to_bits()).collect();
        let b: Vec<u32> = via.scores().iter().map(|c| c.to_bits()).collect();
        assert_eq!(a, b, "Eq. 6 backend must be bit-identical");
        assert!(up.aux_state().is_empty());
        assert!(up.restore_aux(&[]).is_ok());
        assert!(up.restore_aux(&[1.0]).is_err());
    }

    #[test]
    fn cca_backend_rewards_consensus_and_penalizes_outliers() {
        let mut s = ConfidenceStore::new(20, 1.2, 0.05, 0.3);
        let mut up = ConfidenceBackend::Cca.make_updater(2, 4);
        assert!(up.wants_contrast());
        let consensus = [1.0f32, 0.5, 0.0, 0.0];
        let outlier = [-1.0f32, 0.0, 0.9, 0.0];
        // Many agreeing triples with a strong contrastive win, one
        // repeated outlier with a weak win.
        for round in 0..8 {
            for i in 0..19 {
                up.apply(&mut s, sig(i, 0.1, 0.95, 1, &consensus));
            }
            up.apply(&mut s, sig(19, 3.0, 0.1, 1, &outlier));
            let _ = round;
        }
        assert!(
            s.get(0) > 0.8,
            "consensus triple should stay confident: {}",
            s.get(0)
        );
        assert!(
            s.get(19) < 0.5,
            "outlier should be marked down: {}",
            s.get(19)
        );
    }

    #[test]
    fn cca_aux_round_trips_and_rejects_wrong_shape() {
        let mut s = ConfidenceStore::new(4, 1.2, 0.05, 0.3);
        let mut up = ConfidenceBackend::Cca.make_updater(3, 4);
        for i in 0..4 {
            up.apply(
                &mut s,
                sig(i, 0.5, 0.7, (i % 3) as u16, &[0.3, -0.1, 0.8, 0.2]),
            );
        }
        let aux = up.aux_state();
        assert_eq!(aux.len(), 3 + 3 * 4);
        // A fresh updater restored from aux continues identically.
        let mut s2 = ConfidenceStore::new(4, 1.2, 0.05, 0.3);
        s2.restore_scores(s.scores()).unwrap();
        let mut up2 = ConfidenceBackend::Cca.make_updater(3, 4);
        up2.restore_aux(&aux).unwrap();
        up.apply(&mut s, sig(2, 0.2, 0.9, 1, &[0.5, 0.5, 0.0, 0.1]));
        up2.apply(&mut s2, sig(2, 0.2, 0.9, 1, &[0.5, 0.5, 0.0, 0.1]));
        assert_eq!(s.get(2).to_bits(), s2.get(2).to_bits());
        assert!(up2.restore_aux(&aux[1..]).is_err());
    }

    #[test]
    fn set_and_push_default_grow_and_pin() {
        let mut s = ConfidenceStore::new(1, 1.2, 0.05, 0.03);
        s.push_default();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), 1.0);
        s.set(0, -3.0);
        assert_eq!(s.get(0), 0.0, "set clamps into [0,1]");
        s.set(1, 0.25);
        assert_eq!(s.get(1), 0.25);
    }
}
