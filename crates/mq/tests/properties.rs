//! Seeded tests of the queue's delivery guarantees: per-key FIFO under
//! concurrent producers, exact resumption at a group's commit (which pins
//! the log, so uncommitted records are re-delivered), and durable
//! recovery equivalence after the in-memory log has been freed.

use bytes::Bytes;
use helios_mq::{Broker, TopicConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Per-key order is preserved no matter how producers interleave, because
/// a key always routes to the same partition and partitions are FIFO.
#[test]
fn per_key_fifo_under_concurrent_producers() {
    let broker = Broker::new();
    let topic = broker.create_topic("t", TopicConfig::in_memory(4)).unwrap();
    let keys_per_thread = 8u64;
    let msgs_per_key = 200u64;
    let mut handles = Vec::new();
    for th in 0..4u64 {
        let topic = Arc::clone(&topic);
        handles.push(std::thread::spawn(move || {
            for seq in 0..msgs_per_key {
                for k in 0..keys_per_thread {
                    let key = th * keys_per_thread + k;
                    let payload = Bytes::from(format!("{key}:{seq}"));
                    topic.produce(key, payload).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut consumer = broker.consumer_all("g", "t").unwrap();
    let mut last_seq: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    let mut total = 0u64;
    loop {
        let recs = consumer.poll_now(1000);
        if recs.is_empty() {
            break;
        }
        for r in recs {
            let s = String::from_utf8(r.payload.to_vec()).unwrap();
            let (key, seq) = s.split_once(':').unwrap();
            let key: u64 = key.parse().unwrap();
            let seq: i64 = seq.parse().unwrap();
            let prev = last_seq.entry(key).or_insert(-1);
            assert!(seq > *prev, "key {key}: seq {seq} after {prev}");
            *prev = seq;
            total += 1;
        }
    }
    assert_eq!(total, 4 * keys_per_thread * msgs_per_key);
}

/// `count` payloads of fewer than `max_len` random bytes each.
fn payloads(rng: &mut StdRng, count: usize, max_len: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut p = vec![0u8; rng.gen_range(0..max_len)];
            rng.fill(&mut p[..]);
            p
        })
        .collect()
}

/// Any produce sequence: a consumer that commits resumes exactly after
/// its commit, however far its predecessor read past it.
#[test]
fn commit_resume_equivalence() {
    for seed in 1..=32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..60);
        let payloads = payloads(&mut rng, count, 16);
        let commit_at = rng.gen_range(0..=payloads.len());
        let at = format!("seed {seed}: {count} records, commit at {commit_at}");

        let broker = Broker::new();
        let topic = broker.create_topic("t", TopicConfig::in_memory(2)).unwrap();
        for (i, p) in payloads.iter().enumerate() {
            topic.produce(i as u64, Bytes::from(p.clone())).unwrap();
        }

        // First consumer reads `commit_at` records, commits, reads the
        // rest without committing, drops.
        {
            let mut c = broker.consumer_all("g", "t").unwrap();
            let mut seen = 0;
            while seen < commit_at {
                let recs = c.poll_now(commit_at - seen);
                assert!(!recs.is_empty(), "{at}: starved after {seen}");
                seen += recs.len();
            }
            c.commit();
            assert_eq!(drain(&mut c).len(), payloads.len() - commit_at, "{at}");
        }
        // Second consumer must see exactly the remainder.
        let mut c2 = broker.consumer_all("g", "t").unwrap();
        assert_eq!(drain(&mut c2).len(), payloads.len() - commit_at, "{at}");
    }
}

/// Durable topics recover the exact same record sequence.
#[test]
fn durable_recovery_equivalence() {
    for seed in 1..=32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1..40);
        let payloads = payloads(&mut rng, count, 12);
        let dir =
            std::env::temp_dir().join(format!("helios-mq-prop-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TopicConfig {
            partitions: 2,
            segment_dir: Some(dir.clone()),
            ..Default::default()
        };
        let before: Vec<Vec<u8>>;
        {
            let broker = Broker::new();
            let topic = broker.create_topic("d", cfg.clone()).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                topic.produce(i as u64, Bytes::from(p.clone())).unwrap();
            }
            topic.sync().unwrap();
            let mut c = broker.consumer_all("g", "d").unwrap();
            before = drain(&mut c);
        }
        assert_eq!(before.len(), payloads.len(), "seed {seed}");
        let broker = Broker::new();
        let _ = broker.recover_topic("d", cfg).unwrap();
        let mut c = broker.consumer_all("g", "d").unwrap();
        let after = drain(&mut c);
        assert_eq!(before, after, "seed {seed}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn drain(c: &mut helios_mq::Consumer) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let recs = c.poll_now(1000);
        if recs.is_empty() {
            break;
        }
        for r in recs {
            out.push(r.payload.to_vec());
        }
    }
    out
}
