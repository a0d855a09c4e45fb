//! Hash maps keyed by ids the machine makes: block, node, phase and push
//! ids.
//!
//! The protocol looks these maps up on every message and every pre-send
//! (the directory, the recall cache, the dedup and ack maps, the
//! schedules). Their keys are small integers the program made, not input
//! an adversary picks, so they need no defence against chosen collisions,
//! and SipHash — std's default — costs several times the lookup it keys.
//! [`IdHasher`] takes FxHash's step instead: one rotate, one xor and one
//! multiply per word. It ends by folding the product's high half, which
//! every input bit reaches, into the low bits a power-of-two table
//! indexes by: a product's low bits see only the key's low bits, so
//! without the fold two block ids that differ only above the table's size
//! (the same offset in two nodes' heap segments) would share a bucket.
//!
//! Iteration order is fixed by the keys, where `RandomState`'s changed
//! from process to process; no caller may depend on either.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] keyed by ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// FxHash's multiplier: odd, so the step is a bijection on each word.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The id maps' hasher (module doc).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    // The keys' words: node ids, phase ids, block and push ids.

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    use super::*;
    use crate::{BlockId, NodeId};

    /// Buckets a power-of-two table of `2^bits` buckets puts `keys` in,
    /// indexing by the hash's low bits as std's table does.
    fn buckets<K: std::hash::Hash>(keys: impl Iterator<Item = K>, bits: u32) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mask = (1u64 << bits) - 1;
        keys.map(|k| build.hash_one(k) & mask).collect::<HashSet<_>>().len()
    }

    // A uniform hash fills 1 - 1/e (63 %) of a table with as many buckets
    // as keys; each test asks for more than half.

    #[test]
    fn sequential_block_ids_spread() {
        for (first, bits) in [(0, 12), (1 << 40, 12), (0, 6)] {
            let n = 1u64 << bits;
            let used = buckets((first..first + n).map(BlockId), bits);
            assert!(used as u64 > n / 2, "from {first}: {used} of {n} buckets");
        }
    }

    #[test]
    fn block_ids_that_differ_only_in_their_segment_spread() {
        // The same 128 offsets in each of 32 nodes' heap segments (2^22
        // blocks each at 1 KiB blocks): without the fold they share 128
        // buckets of 4 Ki.
        let ids = (0..32u64).flat_map(|seg| (0..128u64).map(move |r| BlockId(seg << 22 | r)));
        let used = buckets(ids, 12);
        assert!(used > 4096 / 2, "{used} of 4096 buckets");
    }

    #[test]
    fn push_ids_spread() {
        // The dedup map's keys, (sender, push id) for 32 senders drawing
        // ids from 1, and the ack map's bare ids.
        let keys = (0..32 as NodeId).flat_map(|src| (1..129u64).map(move |id| (src, id)));
        let used = buckets(keys, 12);
        assert!(used > 4096 / 2, "{used} of 4096 buckets");
        let used = buckets(1..1025u64, 10);
        assert!(used > 1024 / 2, "{used} of 1024 buckets");
    }
}
