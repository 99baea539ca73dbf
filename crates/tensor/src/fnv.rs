//! FNV-1a 64: the workspace's zero-dependency stable hash. Its bits
//! never depend on platform or release, so checkpoint and delta-stream
//! fingerprints, the embedding bank's on-disk keys and the embedding
//! cache's shard picks all use it.

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the running FNV-1a 64 hash `h`. Inlined across
/// crates: the embedding cache hashes every lookup's key with it.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fold `s` into `h` length-prefixed, so that `"ab", "c"` and
/// `"a", "bc"` hash differently.
#[inline]
pub fn fnv1a_str(h: u64, s: &str) -> u64 {
    fnv1a(fnv1a(h, &(s.len() as u64).to_le_bytes()), s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces equals hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
        let str_pair = |a, b| fnv1a_str(fnv1a_str(FNV_OFFSET, a), b);
        assert_ne!(str_pair("ab", "c"), str_pair("a", "bc"));
    }
}
