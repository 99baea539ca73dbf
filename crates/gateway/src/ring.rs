//! Consistent-hash routing of scoring requests to replicas.
//!
//! Each replica owns `vnodes` points on a 64-bit hash ring; a request
//! routes to the replica owning the first point clockwise of the
//! subject title's hash. Two properties matter for the serving tier:
//!
//! * **stability** — the same title always lands on the same replica,
//!   so each replica's embedding-cache shard stays hot for its slice
//!   of the catalog;
//! * **minimal disruption** — growing from N to N+1 replicas moves
//!   only ~1/(N+1) of the key space (virtual nodes keep the moved
//!   slice spread evenly), so a scale-out does not cold-start every
//!   cache at once.

use pge_obs::splitmix64;

/// FNV-1a over the key bytes — the same cheap hash the embedding
/// cache shards by, applied to the routing key. It copies
/// `pge_tensor::fnv1a` rather than calling it: this crate has no
/// `pge-tensor` edge, and adding one would change the dependency graph
/// the benchmark's lock file pins.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A fixed consistent-hash ring over `replicas` replicas.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, u32)>,
    replicas: u32,
}

impl HashRing {
    /// Default virtual nodes per replica: enough that the largest
    /// replica arc stays within a few percent of the mean.
    pub const DEFAULT_VNODES: usize = 64;

    /// # Panics
    /// Panics when `replicas` or `vnodes` is 0.
    pub fn new(replicas: u32, vnodes: usize) -> Self {
        assert!(replicas > 0, "a ring needs at least one replica");
        assert!(vnodes > 0, "a replica needs at least one vnode");
        let mut points: Vec<(u64, u32)> = (0..replicas)
            .flat_map(|r| (0..vnodes as u64).map(move |v| (splitmix64(((r as u64) << 32) | v), r)))
            .collect();
        points.sort_unstable();
        HashRing { points, replicas }
    }

    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// The replica owning `key` (first ring point clockwise of the
    /// key's hash, wrapping).
    pub fn route(&self, key: &str) -> u32 {
        let h = fnv1a64(key.as_bytes());
        let ix = self.points.partition_point(|&(p, _)| p < h);
        self.points[ix % self.points.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("product title {i}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_rebuild_stable() {
        let a = HashRing::new(4, HashRing::DEFAULT_VNODES);
        let b = HashRing::new(4, HashRing::DEFAULT_VNODES);
        for k in keys(1000) {
            assert_eq!(a.route(&k), a.route(&k), "same ring, same answer");
            assert_eq!(a.route(&k), b.route(&k), "rebuilt ring, same answer");
        }
    }

    #[test]
    fn all_replicas_receive_a_fair_share() {
        let ring = HashRing::new(4, HashRing::DEFAULT_VNODES);
        let mut counts = [0usize; 4];
        let n = 10_000;
        for k in keys(n) {
            counts[ring.route(&k) as usize] += 1;
        }
        let mean = n / 4;
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                c > mean / 2 && c < mean * 2,
                "replica {r} got {c} of {n} keys (mean {mean})"
            );
        }
    }

    #[test]
    fn adding_a_replica_moves_about_one_nth_of_keys() {
        let n = 10_000usize;
        let ks = keys(n);
        let before = HashRing::new(4, HashRing::DEFAULT_VNODES);
        let after = HashRing::new(5, HashRing::DEFAULT_VNODES);
        let moved = ks
            .iter()
            .filter(|k| before.route(k) != after.route(k))
            .count();
        // Expected 1/5 = 20%; allow generous slack for vnode variance.
        let frac = moved as f64 / n as f64;
        assert!(
            (0.10..=0.35).contains(&frac),
            "moved {frac:.3} of keys, expected ~0.20"
        );
        // Every moved key must land on the new replica — consistent
        // hashing never shuffles keys between surviving replicas.
        for k in &ks {
            if before.route(k) != after.route(k) {
                assert_eq!(after.route(k), 4, "moved key must go to the new replica");
            }
        }
    }

    #[test]
    fn single_replica_takes_everything() {
        let ring = HashRing::new(1, 8);
        for k in keys(50) {
            assert_eq!(ring.route(&k), 0);
        }
    }
}
