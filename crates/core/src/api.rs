//! The uniform interface every error-detection method implements.

use pge_graph::{ProductGraph, Triple};

/// An error-detection method: given a triple, produce a plausibility
/// score (higher = more likely correct). PGE and every baseline
/// implement this, so the evaluation harness ranks, thresholds, and
/// scores them identically.
pub trait ErrorDetector: Sync {
    /// Display name used in result tables.
    fn name(&self) -> String;

    /// Plausibility of one triple.
    fn plausibility(&self, graph: &ProductGraph, t: &Triple) -> f32;

    /// Plausibility of many triples; the default is a serial loop,
    /// overridden where batch inference is cheaper.
    fn plausibility_all(&self, graph: &ProductGraph, triples: &[Triple]) -> Vec<f32> {
        triples
            .iter()
            .map(|t| self.plausibility(graph, t))
            .collect()
    }

    /// `true` when scores are only meaningful batch-wise (e.g. rank
    /// fusion): [`plausibility_parallel`] then defers to
    /// [`ErrorDetector::plausibility_all`] instead of fanning out
    /// per-triple calls.
    fn prefers_batch(&self) -> bool {
        false
    }
}

/// The scoring thread count when none is asked for: the available
/// parallelism, capped at 8.
pub fn default_scoring_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Score `triples` in parallel across `threads` crossbeam workers.
/// Detectors expose `&self` inference, so sharing is free.
pub fn plausibility_parallel(
    det: &dyn ErrorDetector,
    graph: &ProductGraph,
    triples: &[Triple],
    threads: usize,
) -> Vec<f32> {
    let threads = threads.max(1);
    if threads == 1 || triples.len() < 64 || det.prefers_batch() {
        return det.plausibility_all(graph, triples);
    }
    let chunk = triples.len().div_ceil(threads);
    let mut out = vec![0.0; triples.len()];
    crossbeam::thread::scope(|s| {
        let mut rest: &mut [f32] = &mut out;
        let mut handles = Vec::new();
        for part in triples.chunks(chunk) {
            let (head, tail) = rest.split_at_mut(part.len());
            rest = tail;
            handles.push(s.spawn(move |_| {
                for (o, t) in head.iter_mut().zip(part) {
                    *o = det.plausibility(graph, t);
                }
            }));
        }
        for h in handles {
            h.join().expect("scoring worker panicked");
        }
    })
    .expect("crossbeam scope failed");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::{AttrId, ProductId, ValueId};

    /// A detector scoring by value id (deterministic, cheap).
    struct Dummy;

    impl ErrorDetector for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn plausibility(&self, _g: &ProductGraph, t: &Triple) -> f32 {
            t.value.0 as f32
        }
    }

    fn graph_with(n: usize) -> (ProductGraph, Vec<Triple>) {
        let mut g = ProductGraph::new();
        let triples: Vec<Triple> = (0..n)
            .map(|i| g.add_fact(&format!("p{i}"), "a", &format!("v{i}")))
            .collect();
        (g, triples)
    }

    #[test]
    fn default_all_matches_single() {
        let (g, ts) = graph_with(10);
        let d = Dummy;
        let all = d.plausibility_all(&g, &ts);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(all[i], d.plausibility(&g, t));
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (g, ts) = graph_with(500);
        let d = Dummy;
        let serial = d.plausibility_all(&g, &ts);
        for threads in [1, 2, 4, 7] {
            let par = plausibility_parallel(&d, &g, &ts, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_handles_small_input() {
        let (g, ts) = graph_with(3);
        let d = Dummy;
        assert_eq!(plausibility_parallel(&d, &g, &ts, 8), vec![0.0, 1.0, 2.0]);
        assert!(plausibility_parallel(&d, &g, &[], 4).is_empty());
        let _ = (ProductId(0), AttrId(0), ValueId(0));
    }
}
