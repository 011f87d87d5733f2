//! Seeded model test of the kvstore: random sequences of put, delete, get,
//! multi_get, write_batch, flush, compact, expire and reopen must read
//! back exactly what a `BTreeMap` oracle holds, in memory mode and in
//! hybrid (disk) mode. The sequences come from a fixed set of seeds
//! through a splitmix64 generator, so a failure names the seed and step
//! that reproduce it.

use bytes::Bytes;
use helios_kvstore::{KvConfig, KvStore, WriteOp, INLINE_KEY_CAP};
use helios_types::Timestamp;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Key ids in play.
const KEYS: u16 = 96;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn key(&mut self) -> u16 {
        self.below(u64::from(KEYS)) as u16
    }

    fn value(&mut self) -> Vec<u8> {
        let len = self.below(40) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// The bytes of key id `k`, cycling through the shapes the memtable
/// distinguishes: a feature key (8-byte big-endian id) and a sample key
/// (2-byte hop + 8-byte big-endian id), both stored inline; a 2-byte key;
/// and a key too long to store inline.
fn key_bytes(k: u16) -> Vec<u8> {
    let id = u64::from(k).to_be_bytes();
    match k % 4 {
        0 => id.to_vec(),
        1 => [&1u16.to_be_bytes()[..], &id[..]].concat(),
        2 => k.to_be_bytes().to_vec(),
        _ => [&[0xEE; INLINE_KEY_CAP][..], &id[..]].concat(),
    }
}

/// What the store must hold: key id -> (value, write timestamp).
#[derive(Default)]
struct Oracle {
    live: BTreeMap<u16, (Vec<u8>, u64)>,
    /// Last timestamp handed out; every write gets a fresh, larger one.
    ts: u64,
    /// Highest expiry horizon so far (0 = none).
    horizon: u64,
}

impl Oracle {
    fn tick(&mut self) -> u64 {
        self.ts += 1;
        self.ts
    }

    fn get(&self, k: u16) -> Option<Bytes> {
        self.live.get(&k).map(|(v, _)| Bytes::from(v.clone()))
    }
}

fn open(dir: &Option<PathBuf>) -> KvStore {
    let config = match dir {
        // A tiny memtable budget: constant rotation, flushes and
        // background compaction under the sequence.
        Some(dir) => KvConfig::hybrid(4, 256, dir.clone()),
        None => KvConfig::in_memory(4),
    };
    KvStore::open(config).expect("open store")
}

fn audit(kv: &KvStore, oracle: &Oracle, at: &str) {
    for k in 0..KEYS {
        assert_eq!(
            kv.get(&key_bytes(k)).unwrap(),
            oracle.get(k),
            "{at}: audit of key {k}"
        );
    }
}

fn run(seed: u64, dir: Option<PathBuf>, steps: usize) {
    let mut rng = Rng(seed);
    let mut oracle = Oracle::default();
    let mut kv = open(&dir);
    for step in 0..steps {
        let at = format!(
            "seed {seed} step {step} ({})",
            if dir.is_some() { "hybrid" } else { "memory" }
        );
        match rng.below(100) {
            0..=29 => {
                let (k, v, ts) = (rng.key(), rng.value(), oracle.tick());
                kv.put(&key_bytes(k), Bytes::from(v.clone()), Timestamp(ts))
                    .unwrap();
                oracle.live.insert(k, (v, ts));
            }
            30..=39 => {
                let (k, ts) = (rng.key(), oracle.tick());
                kv.delete(&key_bytes(k), Timestamp(ts)).unwrap();
                oracle.live.remove(&k);
            }
            40..=59 => {
                let k = rng.key();
                assert_eq!(
                    kv.get(&key_bytes(k)).unwrap(),
                    oracle.get(k),
                    "{at}: get({k})"
                );
            }
            60..=69 => {
                // A random run of ids, duplicates included; one batch in
                // four also holds every id, so it spans every shard.
                let mut ids: Vec<u16> = (0..rng.below(40)).map(|_| rng.key()).collect();
                if rng.below(4) == 0 {
                    ids.extend(0..KEYS);
                }
                let keys: Vec<Vec<u8>> = ids.iter().map(|&k| key_bytes(k)).collect();
                let got = kv.multi_get(&keys).unwrap();
                let want: Vec<Option<Bytes>> = ids.iter().map(|&k| oracle.get(k)).collect();
                assert_eq!(got, want, "{at}: multi_get({ids:?})");
                // multi_get(keys) ≡ keys.map(get), in input order.
                let point: Vec<Option<Bytes>> = keys.iter().map(|k| kv.get(k).unwrap()).collect();
                assert_eq!(got, point, "{at}: multi_get({ids:?}) vs point gets");
            }
            70..=79 => {
                // Applies in input order: the last write of a key wins.
                let mut ops = Vec::new();
                for _ in 0..rng.below(24) {
                    let (k, ts) = (rng.key(), oracle.tick());
                    if rng.below(3) == 0 {
                        ops.push(WriteOp::delete(key_bytes(k), Timestamp(ts)));
                        oracle.live.remove(&k);
                    } else {
                        let v = rng.value();
                        ops.push(WriteOp::put(
                            key_bytes(k),
                            Bytes::from(v.clone()),
                            Timestamp(ts),
                        ));
                        oracle.live.insert(k, (v, ts));
                    }
                }
                kv.write_batch(ops).unwrap();
            }
            80..=86 => kv.flush().unwrap(),
            87..=90 => kv.compact_blocking(None).unwrap(),
            91..=95 => {
                // Expire everything written more than a few ticks ago.
                let h = oracle.ts.saturating_sub(rng.below(60));
                kv.expire_before(Timestamp(h)).unwrap();
                oracle.horizon = oracle.horizon.max(h);
                oracle.live.retain(|_, (_, ts)| *ts >= h);
            }
            _ => {
                if dir.is_none() {
                    continue; // a memory store has nothing to reopen
                }
                // Durable handover: the active memtables and the expiry
                // horizon live only in the process, so pin both to disk.
                kv.flush().unwrap();
                if oracle.horizon > 0 {
                    kv.compact_blocking(Some(Timestamp(oracle.horizon)))
                        .unwrap();
                }
                drop(kv);
                kv = open(&dir);
                audit(&kv, &oracle, &at);
            }
        }
    }
    audit(&kv, &oracle, &format!("seed {seed} end"));
}

#[test]
fn memory_store_matches_the_oracle() {
    for seed in 1..=40 {
        run(seed, None, 600);
    }
}

#[test]
fn hybrid_store_matches_the_oracle() {
    for seed in 1..=24 {
        let dir =
            std::env::temp_dir().join(format!("helios-kv-model-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run(seed, Some(dir.clone()), 400);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Interleaved flush-during-multi_get: a writer churns enough volume to
/// force continuous rotation, background flushing, and compaction, while
/// the reader multi_gets a disjoint set of stable keys. Every stable key
/// must stay visible with its original value through every
/// memtable→immutable→SST transition happening underneath the reader.
#[test]
fn flush_during_multi_get_keeps_stable_keys_visible() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("helios-kv-interleave-{}", std::process::id()));
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
