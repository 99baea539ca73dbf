//! The byte mutator shared by the decoder fuzzes: bit flips,
//! truncations, and insertions drawn from the caller's tables.

use proptest::prelude::*;

/// Up to five `(kind, position, choice)` triples with `kind < kinds`;
/// see [`mutate`].
pub fn arb_mutations(kinds: u8) -> impl Strategy<Value = Vec<(u8, u32, u8)>> {
    prop::collection::vec((0u8..kinds, any::<u32>(), any::<u8>()), 0..6)
}

/// Apply `mutations` in order, each at `position` wrapped to the
/// current length: kind 0 flips bit `choice % 8` of a byte, kind 1
/// truncates, and kind `k ≥ 2` inserts `inserts[k - 2][choice]` (the
/// choice wrapped to the table). Kinds past the last table, and a flip
/// of empty input, insert from the last table.
pub fn mutate(mut bytes: Vec<u8>, mutations: &[(u8, u32, u8)], inserts: &[&[&str]]) -> Vec<u8> {
    for &(kind, pos, choice) in mutations {
        let at = pos as usize % (bytes.len() + 1);
        match kind {
            0 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (choice % 8);
            }
            1 => bytes.truncate(at),
            k => {
                let table = inserts[(k as usize).wrapping_sub(2).min(inserts.len() - 1)];
                bytes.splice(at..at, table[choice as usize % table.len()].bytes());
            }
        }
    }
    bytes
}
