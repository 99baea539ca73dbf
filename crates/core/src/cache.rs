//! Embedding caching for inference paths.
//!
//! Encoding an entity is by far the most expensive step of scoring a
//! triple — the CNN/BERT forward pass dwarfs the O(dim) scorer — and
//! real workloads are heavily skewed toward a small set of hot titles
//! and values. [`EmbeddingCache`] is a sharded LRU keyed by the
//! *exact* entity text in front of the model's encoder, and
//! [`CachedModel::score_text_triple_scratch`] is the one cached
//! scoring door: scan, gateway and serve all score through it.
//!
//! Consistency invariant: because the key is the exact text and the
//! encoder is a pure function of that text, a cache hit returns the
//! byte-identical vector the encoder would have produced. Caching
//! can therefore never change a score, only its latency.

use crate::model::{EncodeScratch, PgeModel};
use parking_lot::RwLock;
use pge_graph::AttrId;
use pge_obs::AtomicHistogram;
use pge_tensor::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const SHARDS: usize = 16;

struct Entry {
    vec: Vec<f32>,
    /// Logical clock of the last access; eviction removes the
    /// smallest. Atomic so the read-locked hit path can bump it.
    stamp: AtomicU64,
}

/// Sharded LRU text → embedding cache.
///
/// Reads take a shard read lock and bump the entry's access stamp;
/// only misses take the write lock. A capacity of 0 disables caching
/// entirely (every lookup is a pass-through miss).
pub struct EmbeddingCache {
    shards: Vec<RwLock<FxHashMap<String, Entry>>>,
    /// Per-shard capacities summing to exactly the requested total.
    shard_caps: Vec<usize>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional latency sink for encoder forward passes. Only the
    /// miss path pays the timing cost (two `Instant` reads around a
    /// CNN forward, i.e. noise); the hit path never touches it.
    encode_hist: OnceLock<Arc<AtomicHistogram>>,
}

impl EmbeddingCache {
    /// Cache holding at most `capacity` embeddings across all shards.
    pub fn new(capacity: usize) -> Self {
        // Distribute the budget so Σ shard_caps == capacity. The old
        // `capacity.div_ceil(SHARDS)` per-shard cap let the cache hold
        // up to SHARDS-1 entries more than requested. Shards with a
        // zero quota act as pass-throughs.
        let shard_caps = (0..SHARDS)
            .map(|i| capacity / SHARDS + usize::from(i < capacity % SHARDS))
            .collect();
        EmbeddingCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            shard_caps,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            encode_hist: OnceLock::new(),
        }
    }

    /// Record every encoder forward pass (cache miss) into `hist` —
    /// the `pge_serve_stage_encode_seconds` feed. First caller wins;
    /// later installs are ignored.
    pub fn install_encode_histogram(&self, hist: Arc<AtomicHistogram>) {
        let _ = self.encode_hist.set(hist);
    }

    fn shard_idx(&self, text: &str) -> usize {
        // FNV-1a; shard count is fixed so the modulo bias is moot.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in text.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        (h % SHARDS as u64) as usize
    }

    /// The embedding for `text`, computing it with `f` on a miss.
    pub fn get_or_compute(&self, text: &str, f: impl FnOnce() -> Vec<f32>) -> Vec<f32> {
        let mut out = Vec::new();
        self.copy_or_compute(text, &mut out, f);
        out
    }

    /// Allocation-free variant of [`Self::get_or_compute`]: the
    /// embedding is copied into `out` (cleared first), reusing its
    /// backing buffer. The bulk-scan hot path runs at > 90% hit rate,
    /// where the `Vec` clone per lookup was two avoidable allocations
    /// per scanned row; workers hold one scratch buffer per slot
    /// instead.
    pub fn copy_or_compute(&self, text: &str, out: &mut Vec<f32>, f: impl FnOnce() -> Vec<f32>) {
        out.clear();
        let idx = self.shard_idx(text);
        let cap = self.shard_caps[idx];
        if cap == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            out.extend_from_slice(&self.timed_compute(f));
            return;
        }
        let shard = &self.shards[idx];
        {
            let map = shard.read();
            if let Some(e) = map.get(text) {
                e.stamp.store(
                    self.clock.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.extend_from_slice(&e.vec);
                return;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let vec = self.timed_compute(f);
        out.extend_from_slice(&vec);
        let mut map = shard.write();
        // A racing thread may have inserted meanwhile; keep whichever
        // is present (the vectors are identical by construction).
        if !map.contains_key(text) {
            if map.len() >= cap {
                Self::evict_batch(&mut map, cap);
            }
            map.insert(
                text.to_string(),
                Entry {
                    vec,
                    stamp: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
                },
            );
        }
    }

    /// Run `f` over a cached embedding in place, or return `None` if
    /// `text` is absent (or uncacheable). The scan worker's hit path —
    /// the > 90% steady state — scores straight off the cache entry
    /// instead of copying dim floats into scratch first; the floats
    /// are read exactly once either way, but the copy's store traffic
    /// was measurable at a million rows per second.
    pub fn with_cached<T>(&self, text: &str, f: impl FnOnce(&[f32]) -> T) -> Option<T> {
        let idx = self.shard_idx(text);
        if self.shard_caps[idx] == 0 {
            return None;
        }
        let map = self.shards[idx].read();
        let e = map.get(text)?;
        e.stamp.store(
            self.clock.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(f(&e.vec))
    }

    /// Count a lookup served from a caller-held memo of a cached
    /// embedding (see [`ScoreScratch`]). Keeps the hit/miss counters
    /// meaning "lookups that did / did not run the encoder" even when
    /// the serving copy lives outside the shards.
    pub(crate) fn note_memo_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict the coldest ~1/8 of a full shard in one pass.
    ///
    /// Evicting a single entry per miss costs a full `min_by_key`
    /// scan of the shard — O(shard) per miss, which turned the scan
    /// pipeline's steady state above cache capacity into an accidental
    /// quadratic (a 1M-row scan spent more time scanning stamps than
    /// running the CNN). A batched selection pays one O(shard) pass
    /// per `cap/8` misses instead, amortizing to a handful of stamp
    /// loads per insert while evicting nearly the same cold set strict
    /// LRU would. Eviction policy only ever changes latency, never
    /// scores (see the module invariant), so the batch is free to be
    /// approximate.
    fn evict_batch(map: &mut FxHashMap<String, Entry>, cap: usize) {
        let batch = (cap / 8).max(1).min(map.len());
        // Select the batch-th coldest stamp, then drop everything at or
        // below it with one `retain` pass — no key clones, no per-victim
        // hash lookups. Ties can push the evicted count past `batch`;
        // the policy is approximate LRU either way.
        let mut stamps: Vec<u64> = map
            .values()
            .map(|e| e.stamp.load(Ordering::Relaxed))
            .collect();
        let (_, &mut threshold, _) = stamps.select_nth_unstable(batch - 1);
        map.retain(|_, e| e.stamp.load(Ordering::Relaxed) > threshold);
    }

    /// Run the encoder, observing its wall time when a histogram is
    /// installed.
    fn timed_compute(&self, f: impl FnOnce() -> Vec<f32>) -> Vec<f32> {
        match self.encode_hist.get() {
            Some(h) => {
                let start = Instant::now();
                let vec = f();
                h.observe(start.elapsed().as_secs_f64());
                vec
            }
            None => f(),
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of embeddings currently resident.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`PgeModel`] scoring through an [`EmbeddingCache`]: the cached
/// scoring door. Each thread pairs one shared `CachedModel` with its
/// own [`ScoreScratch`].
pub struct CachedModel<'a> {
    model: &'a PgeModel,
    cache: &'a EmbeddingCache,
    /// Process-unique tag for [`ScoreScratch`]'s title memo, from 1
    /// up. An address would not do: a reassigned binding puts a
    /// different model at the same address. The counter publishes no
    /// other data, so `Relaxed` suffices for uniqueness.
    id: u64,
    /// One [`crate::score::PreparedRelation`] per attribute (relations
    /// are few and closed-world): RotatE's per-dimension trigonometry
    /// is paid once here instead of once per scored row. Prepared
    /// scores are bit-identical to [`crate::score::Scorer::score`].
    prepared: Vec<crate::score::PreparedRelation>,
    /// Attribute name → id. [`PgeModel::lookup_attr`] is a linear
    /// string scan, fine for occasional calls but measurable once per
    /// scanned row; this index makes it one Fx hash.
    attr_index: FxHashMap<String, AttrId>,
}

/// Reusable buffers for [`CachedModel::score_text_triple_scratch`].
/// One per worker/thread.
#[derive(Default)]
pub struct ScoreScratch {
    h: Vec<f32>,
    v: Vec<f32>,
    /// Title whose embedding currently sits in `h`, tagged with the
    /// owning [`CachedModel`]'s id (0 = nothing memoized). Scan
    /// input arrives grouped by product, so one title repeats across
    /// several consecutive rows; reusing the L1-warm copy in `h`
    /// skips the shared-cache probe and cold embedding read that
    /// dominate the hit path at scale.
    memo_title: String,
    memo_owner: u64,
    /// Encoder buffers for cache misses: a miss allocates only the
    /// row the cache keeps.
    enc: EncodeScratch,
}

impl<'a> CachedModel<'a> {
    pub fn new(model: &'a PgeModel, cache: &'a EmbeddingCache) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let scorer = model.scorer();
        let prepared = (0..model.attr_names().len())
            .map(|i| scorer.prepare(model.relation(AttrId(i as u16))))
            .collect();
        let attr_index = model
            .attr_names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), AttrId(i as u16)))
            .collect();
        CachedModel {
            model,
            cache,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            prepared,
            attr_index,
        }
    }

    /// Cached [`PgeModel::score_text_triple`], bit-identical to it.
    /// Embeddings land in the caller's [`ScoreScratch`] via
    /// [`EmbeddingCache::copy_or_compute`], so a call allocates
    /// nothing beyond the rows the cache keeps on a miss. `None` when
    /// the attribute is unknown.
    pub fn score_text_triple_scratch(
        &self,
        title: &str,
        attr: &str,
        value: &str,
        s: &mut ScoreScratch,
    ) -> Option<f32> {
        let prep = &self.prepared[self.attr_index.get(attr)?.0 as usize];
        // `h` is bit-for-bit the cached embedding whether it was
        // copied out just now or memoized from the previous row, and
        // `score` runs on the same floats either way — so every branch
        // below is bit-identical to the plain two-copy path.
        if s.memo_owner == self.id && s.memo_title == title {
            self.cache.note_memo_hit();
        } else {
            self.cache.copy_or_compute(title, &mut s.h, || {
                self.model.embed_text_with(title, &mut s.enc)
            });
            s.memo_title.clear();
            s.memo_title.push_str(title);
            s.memo_owner = self.id;
        }
        if let Some(score) = self.cache.with_cached(value, |v| prep.score(&s.h, v)) {
            return Some(score);
        }
        self.cache.copy_or_compute(value, &mut s.v, || {
            self.model.embed_text_with(value, &mut s.enc)
        });
        Some(prep.score(&s.h, &s.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::ProductGraph;
    use std::sync::atomic::AtomicUsize;

    fn counted(counter: &AtomicUsize) -> impl Fn() -> Vec<f32> + '_ {
        move || {
            counter.fetch_add(1, Ordering::SeqCst);
            vec![1.0, 2.0]
        }
    }

    #[test]
    fn hit_skips_compute_and_counts() {
        let c = EmbeddingCache::new(64);
        let calls = AtomicUsize::new(0);
        assert_eq!(c.get_or_compute("apple", counted(&calls)), vec![1.0, 2.0]);
        assert_eq!(c.get_or_compute("apple", counted(&calls)), vec![1.0, 2.0]);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = EmbeddingCache::new(0);
        let calls = AtomicUsize::new(0);
        c.get_or_compute("apple", counted(&calls));
        c.get_or_compute("apple", counted(&calls));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(c.hits(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn evicts_least_recently_used_within_shard() {
        // Single-slot shards: any two keys in the same shard contend.
        let c = EmbeddingCache::new(1);
        let mut texts: Vec<String> = (0..40).map(|i| format!("key{i}")).collect();
        // Find two keys in the same shard (the one holding the whole
        // capacity-1 budget — quota-0 shards pass through, which also
        // yields one compute per lookup).
        let shard_of = |c: &EmbeddingCache, t: &str| c.shard_idx(t);
        let first = texts.remove(0);
        let second = texts
            .into_iter()
            .find(|t| shard_of(&c, t) == shard_of(&c, &first))
            .expect("40 keys over 16 shards must collide");
        let calls = AtomicUsize::new(0);
        c.get_or_compute(&first, counted(&calls));
        c.get_or_compute(&second, counted(&calls)); // evicts `first`
        c.get_or_compute(&first, counted(&calls)); // recompute
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn resident_count_never_exceeds_capacity() {
        // Regression: the per-shard cap used to round up
        // (`capacity.div_ceil(SHARDS)`), so e.g. capacity 17 allowed
        // 2 entries in all 16 shards = 32 resident embeddings.
        for capacity in [1, 5, 16, 17, 31, 100] {
            let c = EmbeddingCache::new(capacity);
            let calls = AtomicUsize::new(0);
            for i in 0..capacity * 8 {
                c.get_or_compute(&format!("text{i}"), counted(&calls));
            }
            assert!(
                c.len() <= capacity,
                "capacity {capacity} holds {} entries",
                c.len()
            );
        }
    }

    #[test]
    fn recency_protects_hot_entries() {
        let c = EmbeddingCache::new(SHARDS * 2); // two slots per shard
        let shard_of = |t: &str| c.shard_idx(t);
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        let target = shard_of(&keys[0]);
        let mut same: Vec<&String> = keys.iter().filter(|k| shard_of(k) == target).collect();
        assert!(same.len() >= 3, "need 3 colliding keys");
        same.truncate(3);
        let calls = AtomicUsize::new(0);
        c.get_or_compute(same[0], counted(&calls));
        c.get_or_compute(same[1], counted(&calls));
        c.get_or_compute(same[0], counted(&calls)); // refresh [0]
        c.get_or_compute(same[2], counted(&calls)); // evicts [1], not [0]
        c.get_or_compute(same[0], counted(&calls)); // still cached
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn encode_histogram_observes_misses_only() {
        let c = EmbeddingCache::new(64);
        let h = Arc::new(AtomicHistogram::exponential(1e-6, 2.0, 20));
        c.install_encode_histogram(h.clone());
        let calls = AtomicUsize::new(0);
        c.get_or_compute("apple", counted(&calls)); // miss → observed
        c.get_or_compute("apple", counted(&calls)); // hit → not observed
        c.get_or_compute("pear", counted(&calls)); // miss → observed
        assert_eq!(h.count(), 2);
        // Later installs are ignored; the first histogram keeps feeding.
        let other = Arc::new(AtomicHistogram::exponential(1e-6, 2.0, 20));
        c.install_encode_histogram(other.clone());
        c.get_or_compute("plum", counted(&calls));
        assert_eq!(h.count(), 3);
        assert_eq!(other.count(), 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = EmbeddingCache::new(128);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200 {
                        let text = format!("t{}", i % 20);
                        let v = c.get_or_compute(&text, || vec![i as f32 % 20.0]);
                        assert_eq!(v.len(), 1);
                    }
                });
            }
        });
        assert!(c.hits() + c.misses() == 8 * 200);
        assert!(c.len() <= 20);
    }

    // CachedModel equivalence against the raw model.
    fn tiny_setup(seed: u64) -> (ProductGraph, PgeModel) {
        use crate::encoder::TextEncoder;
        use crate::score::{ScoreKind, Scorer};
        use pge_nn::CnnConfig;
        use pge_text::{tokenize, Vocab};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut g = ProductGraph::new();
        g.add_fact("spicy tortilla chips", "flavor", "spicy");
        g.add_fact("sweet honey granola", "flavor", "sweet");
        g.add_fact("sweet honey granola", "grain", "oats");
        let mut vocab = Vocab::new();
        for i in 0..g.num_products() {
            for w in tokenize(g.title(pge_graph::ProductId(i as u32))) {
                vocab.add(&w);
            }
        }
        for i in 0..g.num_values() {
            for w in tokenize(g.value_text(pge_graph::ValueId(i as u32))) {
                vocab.add(&w);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let words = pge_nn::Embedding::new(&mut rng, vocab.len(), 8);
        let enc = TextEncoder::cnn(
            &mut rng,
            CnnConfig {
                vocab: vocab.len(),
                word_dim: 8,
                widths: vec![1, 2],
                filters_per_width: 4,
                out_dim: 6,
                max_len: 12,
            },
            words,
        );
        let scorer = Scorer::new(ScoreKind::TransE, 4.0);
        let relations = pge_nn::Embedding::new_xavier(&mut rng, g.num_attrs(), scorer.rel_dim(6));
        let model = PgeModel::new(vocab, enc, relations, scorer, &g);
        (g, model)
    }

    /// `(title, attr, value)` text of every triple in `g`.
    fn texts(g: &ProductGraph) -> Vec<(&str, &str, &str)> {
        g.triples()
            .iter()
            .map(|t| {
                (
                    g.title(t.product),
                    g.attr_name(t.attr),
                    g.value_text(t.value),
                )
            })
            .collect()
    }

    #[test]
    fn cached_scores_are_bit_identical() {
        let (g, model) = tiny_setup(7);
        let cache = EmbeddingCache::new(256);
        let cm = CachedModel::new(&model, &cache);
        for (title, attr, value) in texts(&g) {
            let raw = model.score_text_triple(title, attr, value);
            assert!(raw.is_some());
            // A fresh scratch per call: no memo, so the second call
            // must be served by the shared cache.
            for _ in 0..2 {
                let mut scratch = ScoreScratch::default();
                assert_eq!(
                    cm.score_text_triple_scratch(title, attr, value, &mut scratch),
                    raw
                );
            }
        }
        assert!(cache.hits() > 0, "repeat scoring must hit the cache");
    }

    #[test]
    fn scratch_scoring_bit_identical_to_allocating_path() {
        // The allocating path is the uncached oracle.
        let (g, model) = tiny_setup(7);
        let cache = EmbeddingCache::new(256);
        let cm = CachedModel::new(&model, &cache);
        let mut scratch = ScoreScratch::default();
        for (title, attr, value) in texts(&g) {
            let alloc = model.score_text_triple(title, attr, value);
            // Twice: once with cold scratch, once with warm buffers.
            for _ in 0..2 {
                assert_eq!(
                    cm.score_text_triple_scratch(title, attr, value, &mut scratch),
                    alloc
                );
            }
        }
        assert_eq!(
            cm.score_text_triple_scratch("x", "nope", "y", &mut scratch),
            None
        );
    }

    #[test]
    fn scratch_memo_does_not_leak_across_models() {
        // Regression: the title memo was tagged with the CachedModel's
        // address, and a reassigned binding reuses that address — so
        // the second model scored with the first model's title vector.
        let (_, m7) = tiny_setup(7);
        let (_, m8) = tiny_setup(8);
        let (c7, c8) = (EmbeddingCache::new(64), EmbeddingCache::new(64));
        let mut scratch = ScoreScratch::default();
        let (title, value) = ("spicy tortilla chips", "spicy");
        let mut cm = CachedModel::new(&m7, &c7);
        assert_eq!(
            cm.score_text_triple_scratch(title, "flavor", value, &mut scratch),
            m7.score_text_triple(title, "flavor", value)
        );
        cm = CachedModel::new(&m8, &c8);
        assert_eq!(
            cm.score_text_triple_scratch(title, "flavor", value, &mut scratch),
            m8.score_text_triple(title, "flavor", value)
        );
    }
}
