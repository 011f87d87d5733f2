//! The memtable: an unordered hash table keyed by an inline key.
//!
//! Every read the serving path issues is a point lookup, so the table is
//! a hash table, not an ordered map (RocksDB's hash memtable reps are the
//! precedent). Ordering is needed in exactly one place — the SST a frozen
//! table is flushed to — and the flusher sorts there.
//!
//! A key is hashed **once** per operation: [`InlineKey`] carries the hash
//! next to the bytes, the store picks the shard from it, and the table
//! probes with it through a pass-through hasher instead of hashing the
//! bytes again.

use crate::sst::StoredValue;
use helios_types::fx_hash_u64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Longest key stored inline. The serving caches write 8-byte feature
/// keys and 10-byte `(hop, vertex)` sample keys; anything longer spills
/// to the heap.
pub const INLINE_KEY_CAP: usize = 22;

#[derive(Clone, PartialEq, Eq)]
enum KeyRepr {
    /// `buf[len..]` is zero, so equal keys have equal representations.
    Inline { len: u8, buf: [u8; INLINE_KEY_CAP] },
    /// Only for keys longer than [`INLINE_KEY_CAP`].
    Heap(Box<[u8]>),
}

/// A key with its hash: short keys live inline (no allocation per key on
/// the write path, no pointer chase on the read path).
#[derive(Clone, PartialEq, Eq)]
pub struct InlineKey {
    hash: u64,
    repr: KeyRepr,
}

impl InlineKey {
    /// Hash and capture `bytes`.
    #[inline]
    pub fn new(bytes: &[u8]) -> Self {
        Self::with_hash(Self::hash_of(bytes), bytes)
    }

    /// Capture `bytes` under a hash [`InlineKey::hash_of`] already gave.
    #[inline]
    pub(crate) fn with_hash(hash: u64, bytes: &[u8]) -> Self {
        let repr = if bytes.len() <= INLINE_KEY_CAP {
            let mut buf = [0u8; INLINE_KEY_CAP];
            buf[..bytes.len()].copy_from_slice(bytes);
            KeyRepr::Inline {
                len: bytes.len() as u8,
                buf,
            }
        } else {
            KeyRepr::Heap(bytes.into())
        };
        InlineKey { hash, repr }
    }

    /// The hash [`InlineKey::new`] stores for `bytes`. The system's keys
    /// are big-endian vertex ids: read as little-endian words all their
    /// entropy sits in the high bytes, and a bare multiplicative hash
    /// would leave the low bits — the ones a table indexes buckets with —
    /// constant. `fx_hash_u64` finishes each word with an avalanche, so
    /// every bit of the result moves.
    #[inline]
    pub(crate) fn hash_of(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h = fx_hash_u64(h ^ u64::from_le_bytes(w));
        }
        h
    }

    /// The key bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(bytes) => bytes,
        }
    }

    /// Shard this key belongs to among `shards`.
    #[inline]
    pub(crate) fn shard(&self, shards: usize) -> usize {
        shard_of(self.hash, shards)
    }
}

/// Shard a hash belongs to among `shards`.
#[inline]
pub(crate) fn shard_of(hash: u64, shards: usize) -> usize {
    if shards.is_power_of_two() {
        (hash & (shards as u64 - 1)) as usize
    } else {
        (hash % shards as u64) as usize
    }
}

/// What the table sees of a key's hash. It must not be the hash itself:
/// `hash % shards` chose the shard, which for a power-of-two shard count
/// pins the low bits of every hash in one shard's table — and, through
/// the final xor-shift of the avalanche, bits 33 and up as well when the
/// low half of the pre-image is constant, as it is for big-endian ids.
/// One more odd multiply folds every unpinned bit into the high half of
/// the word; the rotation puts that half where the table indexes buckets
/// (its low bits) and leaves well-mixed bits where it tags slots (its
/// top seven).
#[inline]
fn table_hash(hash: u64) -> u64 {
    hash.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(32)
}

impl Hash for InlineKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(table_hash(self.hash));
    }
}

impl std::fmt::Debug for InlineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InlineKey({:02x?})", self.as_bytes())
    }
}

/// Hands the table the hash an [`InlineKey`] already carries.
#[derive(Default)]
pub(crate) struct Prehashed(u64);

impl Hasher for Prehashed {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("InlineKey hashes as one u64");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One memtable (active or frozen) of a shard.
pub(crate) type Memtable = HashMap<InlineKey, StoredValue, BuildHasherDefault<Prehashed>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn short_keys_are_inline_and_long_keys_spill() {
        assert_eq!(std::mem::size_of::<InlineKey>(), 32);
        for len in [0, 1, 8, 10, INLINE_KEY_CAP, INLINE_KEY_CAP + 1, 100] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let key = InlineKey::new(&bytes);
            assert_eq!(key.as_bytes(), &bytes[..]);
            assert_eq!(
                matches!(key.repr, KeyRepr::Inline { .. }),
                len <= INLINE_KEY_CAP
            );
            assert_eq!(
                key,
                InlineKey::with_hash(InlineKey::hash_of(&bytes), &bytes)
            );
        }
        // A key is not equal to its zero-padded extension.
        assert_ne!(InlineKey::new(b"ab"), InlineKey::new(b"ab\0"));
    }

    /// The collision regression: big-endian sequential ids must spread
    /// over the bits the table indexes with (its low bits choose the
    /// bucket, its top seven tag the slot), within one shard as well.
    #[test]
    fn sequential_big_endian_keys_fill_the_tables_buckets() {
        let key8 = |i: u64| i.to_be_bytes().to_vec();
        let key10 = |i: u64| {
            let mut k = vec![0u8, 1];
            k.extend_from_slice(&i.to_be_bytes());
            k
        };
        for make in [&key8 as &dyn Fn(u64) -> Vec<u8>, &key10] {
            for shards in [1usize, 4, 8] {
                let (mut low, mut top) = (HashSet::new(), HashSet::new());
                for i in 0..20_000u64 {
                    let key = InlineKey::new(&make(i));
                    if key.shard(shards) != 0 {
                        continue;
                    }
                    let mut h = Prehashed::default();
                    key.hash(&mut h);
                    low.insert(h.finish() & 127);
                    top.insert(h.finish() >> 57);
                }
                assert!(low.len() >= 116, "{} of 128 low buckets", low.len());
                assert!(top.len() >= 116, "{} of 128 slot tags", top.len());
            }
        }
    }
}
