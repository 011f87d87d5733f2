//! Model-based testing: the LSM store must behave exactly like a
//! `BTreeMap` reference model under arbitrary interleavings of put,
//! delete, flush and compact — in memory mode and hybrid (disk) mode.
//!
//! Key ids map to the key shapes the memtable distinguishes (see
//! [`key_bytes`]): the serving caches' 8- and 10-byte big-endian ids,
//! which it stores inline, a short key, and one longer than the inline
//! capacity, which spills to the heap.

use bytes::Bytes;
use helios_kvstore::{KvConfig, KvStore, WriteOp, INLINE_KEY_CAP};
use helios_types::Timestamp;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    /// Batched lookup over possibly-duplicate, cross-shard keys; must
    /// agree with per-key `get` in input order.
    MultiGet(Vec<u16>),
    /// Batched writes; `None` value = delete. Must apply in input order
    /// (last write per key wins), exactly like sequential put/delete.
    WriteBatch(Vec<(u16, Option<Vec<u8>>)>),
    Flush,
    Compact,
}

/// Key ids in play.
const KEYS: u16 = 64;

/// The bytes of key id `k`, cycling through four shapes: a feature key
/// (8-byte big-endian id), a sample key (2-byte hop + 8-byte big-endian
/// id), a 2-byte key, and a key too long to store inline. Ids are
/// sequential, so the big-endian shapes differ only in their last byte —
/// the low-entropy case a table hash must spread.
fn key_bytes(k: u16) -> Vec<u8> {
    let id = u64::from(k).to_be_bytes();
    match k % 4 {
        0 => id.to_vec(),
        1 => [&1u16.to_be_bytes()[..], &id[..]].concat(),
        2 => k.to_be_bytes().to_vec(),
        _ => [&[0xEE; INLINE_KEY_CAP][..], &id[..]].concat(),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..24)).prop_map(|(k, v)| Op::Put(k % KEYS, v)),
        2 => any::<u16>().prop_map(|k| Op::Delete(k % KEYS)),
        3 => any::<u16>().prop_map(|k| Op::Get(k % KEYS)),
        2 => proptest::collection::vec(any::<u16>().prop_map(|k| k % KEYS), 0..20)
            .prop_map(Op::MultiGet),
        2 => proptest::collection::vec(
            (any::<u16>().prop_map(|k| k % KEYS),
             any::<bool>(),
             proptest::collection::vec(any::<u8>(), 0..16)),
            0..16,
        )
        .prop_map(|entries| Op::WriteBatch(
            entries
                .into_iter()
                .map(|(k, is_put, v)| (k, is_put.then_some(v)))
                .collect(),
        )),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
    ]
}

fn run_model(kv: &KvStore, ops: &[Op], allow_compact: bool) {
    let mut model: BTreeMap<u16, Vec<u8>> = BTreeMap::new();
    let mut ts = 0u64;
    run_model_with(kv, ops, allow_compact, &mut model, &mut ts);
    audit(kv, &model);
}

/// Like [`run_model`] but threading the reference model and timestamp
/// through, so one model can span several store instances (reopen tests).
fn run_model_with(
    kv: &KvStore,
    ops: &[Op],
    allow_compact: bool,
    model: &mut BTreeMap<u16, Vec<u8>>,
    ts: &mut u64,
) {
    for op in ops {
        *ts += 1;
        match op {
            Op::Put(k, v) => {
                kv.put(&key_bytes(*k), Bytes::from(v.clone()), Timestamp(*ts))
                    .unwrap();
                model.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                kv.delete(&key_bytes(*k), Timestamp(*ts)).unwrap();
                model.remove(k);
            }
            Op::Get(k) => {
                let got = kv.get(&key_bytes(*k)).unwrap();
                let want = model.get(k).map(|v| Bytes::from(v.clone()));
                assert_eq!(got, want, "get({k}) diverged after {ts} ops");
            }
            Op::MultiGet(ks) => {
                let keys: Vec<Vec<u8>> = ks.iter().map(|k| key_bytes(*k)).collect();
                let got = kv.multi_get(&keys).unwrap();
                // multi_get(keys) ≡ keys.map(get), in input order.
                let want: Vec<Option<Bytes>> = keys.iter().map(|k| kv.get(k).unwrap()).collect();
                assert_eq!(got, want, "multi_get({ks:?}) diverged after {ts} ops");
                let model_want: Vec<Option<Bytes>> = ks
                    .iter()
                    .map(|k| model.get(k).map(|v| Bytes::from(v.clone())))
                    .collect();
                assert_eq!(got, model_want, "multi_get({ks:?}) diverged from model");
            }
            Op::WriteBatch(entries) => {
                let mut ops = Vec::with_capacity(entries.len());
                for (k, v) in entries {
                    *ts += 1;
                    match v {
                        Some(v) => {
                            ops.push(WriteOp::put(
                                key_bytes(*k),
                                Bytes::from(v.clone()),
                                Timestamp(*ts),
                            ));
                            model.insert(*k, v.clone());
                        }
                        None => {
                            ops.push(WriteOp::delete(key_bytes(*k), Timestamp(*ts)));
                            model.remove(k);
                        }
                    }
                }
                kv.write_batch(ops).unwrap();
            }
            Op::Flush => kv.flush().unwrap(),
            Op::Compact => {
                if allow_compact {
                    kv.compact_blocking(None).unwrap();
                }
            }
        }
    }
}

/// Full audit: every model key reads back, every other key is absent.
fn audit(kv: &KvStore, model: &BTreeMap<u16, Vec<u8>>) {
    for k in 0..KEYS {
        let got = kv.get(&key_bytes(k)).unwrap();
        let want = model.get(&k).map(|v| Bytes::from(v.clone()));
        assert_eq!(got, want, "final audit of key {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn in_memory_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        run_model(&kv, &ops, true);
    }

    #[test]
    fn hybrid_matches_reference(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let dir = std::env::temp_dir().join(format!(
            "helios-kv-model-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Tiny memtable: forces frequent spills so SST paths are exercised.
        let kv = KvStore::open(KvConfig::hybrid(2, 256, dir.clone())).unwrap();
        run_model(&kv, &ops, true);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash/reopen under the model: a second instance opened on the same
    /// directory must discover the first instance's SSTs, serve exactly
    /// the model's contents, and keep serving it correctly through more
    /// arbitrary operations — which fails if id allocation resumes wrong
    /// (a new flush clobbering an old file) or recency order is lost.
    #[test]
    fn reopen_matches_reference(
        before in proptest::collection::vec(op_strategy(), 1..80),
        after in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "helios-kv-reopen-{}-{:x}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut model = BTreeMap::new();
        let mut ts = 0u64;
        {
            let kv = KvStore::open(KvConfig::hybrid(2, 256, dir.clone())).unwrap();
            run_model_with(&kv, &before, true, &mut model, &mut ts);
            // Drop flushes all rotated memtables; only the active
            // memtables' contents are (intentionally) volatile, so pin
            // everything to disk first for a durable handover.
            kv.flush().unwrap();
        }
        let kv = KvStore::open(KvConfig::hybrid(2, 256, dir.clone())).unwrap();
        audit(&kv, &model);
        run_model_with(&kv, &after, true, &mut model, &mut ts);
        audit(&kv, &model);
        drop(kv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The batched read path must be observationally identical to the
    /// point-lookup path: `multi_get(keys) ≡ keys.map(get)` over a random
    /// workload of puts, deletes, flushes, and a query that holds every
    /// key id at least once — so it spans every shard — after a random
    /// run of ids, which are therefore duplicates.
    #[test]
    fn multi_get_equals_sequential_gets(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        query in proptest::collection::vec(any::<u16>().prop_map(|k| k % KEYS), 0..64),
    ) {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        run_model(&kv, &ops, true);
        let keys: Vec<Vec<u8>> = query.into_iter().chain(0..KEYS).map(key_bytes).collect();
        let batched = kv.multi_get(&keys).unwrap();
        let sequential: Vec<Option<Bytes>> =
            keys.iter().map(|k| kv.get(k).unwrap()).collect();
        prop_assert_eq!(batched, sequential);
    }
}

/// Interleaved flush-during-multi_get: a writer churns enough volume to
/// force continuous rotation, background flushing, and compaction, while
/// reader threads multi_get a disjoint set of stable keys. Every stable
/// key must stay visible with its original value through every
/// memtable→immutable→SST transition happening underneath the readers.
#[test]
fn flush_during_multi_get_keeps_stable_keys_visible() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!(
        "helios-kv-interleave-{}-{:x}",
        std::process::id(),
        rand_suffix()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = KvConfig::hybrid(2, 512, dir.clone());
    config.l0_compact_trigger = 3;
    let kv = Arc::new(KvStore::open(config).unwrap());

    // Stable keys live outside the churn key range (0..64).
    let stable: Vec<[u8; 2]> = (1000u16..1064).map(|k| k.to_be_bytes()).collect();
    let expected: Vec<Bytes> = (0..stable.len())
        .map(|i| Bytes::from(vec![i as u8; 16]))
        .collect();
    for (k, v) in stable.iter().zip(&expected) {
        kv.put(k, v.clone(), Timestamp(1)).unwrap();
    }

    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let kv = Arc::clone(&kv);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for i in 0..30_000u64 {
                let k = ((i % 64) as u16).to_be_bytes();
                kv.put(&k, Bytes::from(vec![(i % 251) as u8; 64]), Timestamp(2 + i))
                    .unwrap();
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    let mut rounds = 0u64;
    while !done.load(Ordering::Relaxed) || rounds == 0 {
        let got = kv.multi_get(&stable).unwrap();
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.as_ref(), Some(e), "stable key {i} vanished mid-flush");
        }
        rounds += 1;
    }
    writer.join().unwrap();
    kv.flush().unwrap();
    let st = kv.stats();
    assert!(st.flushes > 0, "workload never actually flushed");
    let got = kv.multi_get(&stable).unwrap();
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.as_ref(), Some(e));
    }
    drop(kv);
    let _ = std::fs::remove_dir_all(&dir);
}

fn rand_suffix() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0)
        .wrapping_add(N.fetch_add(1, Ordering::Relaxed))
}
