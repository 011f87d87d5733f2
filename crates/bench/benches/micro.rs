//! Criterion micro-benchmarks of the primitives on Helios's hot paths:
//! reservoir offers (per strategy), query-aware cache assembly, kvstore
//! point ops, mq produce/consume, query decomposition.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use helios_kvstore::{KvConfig, KvStore, WriteOp};
use helios_mq::{Broker, TopicConfig};
use helios_query::{KHopQuery, SamplingStrategy as QS};
use helios_sampling::{Reservoir, SamplingStrategy};
use helios_types::{EdgeType, Timestamp, VertexId, VertexType};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_reservoir(c: &mut Criterion) {
    let mut g = c.benchmark_group("reservoir_offer");
    for strategy in [
        SamplingStrategy::Random,
        SamplingStrategy::TopK,
        SamplingStrategy::EdgeWeight,
    ] {
        g.bench_function(strategy.name(), |b| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut r = Reservoir::new(strategy, 25);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                r.offer(VertexId(i), Timestamp(i), 1.0 + (i % 7) as f32, &mut rng)
            });
        });
    }
    g.finish();
}

fn bench_kvstore(c: &mut Criterion) {
    let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
    for i in 0..100_000u64 {
        kv.put(&i.to_be_bytes(), Bytes::from(vec![0u8; 64]), Timestamp(i))
            .unwrap();
    }
    let mut g = c.benchmark_group("kvstore");
    g.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 9973) % 100_000;
            kv.get(&i.to_be_bytes()).unwrap()
        });
    });
    g.bench_function("get_miss", |b| {
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            kv.get(&i.to_be_bytes()).unwrap()
        });
    });
    g.bench_function("put", |b| {
        let mut i = 200_000u64;
        b.iter(|| {
            i += 1;
            kv.put(
                &i.to_be_bytes(),
                Bytes::from_static(&[0u8; 64]),
                Timestamp(i),
            )
        });
    });
    // The tentpole comparison: N point gets vs one N-key multi_get over
    // the same keys (all hits, strided across the keyspace and shards).
    for n in [16usize, 64, 256] {
        let keys: Vec<[u8; 8]> = (0..n as u64)
            .map(|i| (i * 389 % 100_000).to_be_bytes())
            .collect();
        g.bench_function(format!("sequential_get_{n}"), |b| {
            b.iter(|| {
                let mut found = 0usize;
                for k in &keys {
                    if kv.get(k).unwrap().is_some() {
                        found += 1;
                    }
                }
                found
            });
        });
        g.bench_function(format!("multi_get_{n}"), |b| {
            b.iter(|| kv.multi_get(&keys).unwrap().iter().flatten().count());
        });
    }
    // Same comparison for the write path: N puts vs one N-op write_batch.
    for n in [64usize, 256] {
        g.bench_function(format!("sequential_put_{n}"), |b| {
            let mut i = 300_000u64;
            b.iter(|| {
                for _ in 0..n {
                    i += 1;
                    kv.put(
                        &i.to_be_bytes(),
                        Bytes::from_static(&[0u8; 64]),
                        Timestamp(i),
                    )
                    .unwrap();
                }
            });
        });
        g.bench_function(format!("write_batch_{n}"), |b| {
            let mut i = 600_000u64;
            b.iter(|| {
                let ops: Vec<WriteOp> = (0..n)
                    .map(|_| {
                        i += 1;
                        WriteOp::put(
                            i.to_be_bytes(),
                            Bytes::from_static(&[0u8; 64]),
                            Timestamp(i),
                        )
                    })
                    .collect();
                kv.write_batch(ops).unwrap()
            });
        });
    }
    g.finish();
}

/// The no-disk-I/O-under-lock criterion for the hybrid store: batched
/// reads while the background flusher is continuously fed must stay
/// close to the no-flush baseline. Criterion reports means; the p99
/// comparison the acceptance criterion asks for is measured manually
/// into histograms and printed alongside.
fn bench_kvstore_hybrid(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("helios-bench-hybrid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = KvConfig::hybrid(4, 1 << 20, dir.clone());
    config.l0_compact_trigger = 4;
    let kv = Arc::new(KvStore::open(config).unwrap());
    for i in 0..100_000u64 {
        kv.put(&i.to_be_bytes(), Bytes::from(vec![0u8; 64]), Timestamp(i))
            .unwrap();
    }
    kv.flush().unwrap();
    let keys: Vec<[u8; 8]> = (0..256u64)
        .map(|i| (i * 389 % 100_000).to_be_bytes())
        .collect();

    // A writer that keeps every shard rotating and flushing for the
    // duration of the "during flush" phases.
    let churn = |kv: Arc<KvStore>, stop: Arc<AtomicBool>| {
        std::thread::spawn(move || {
            let mut i = 1_000_000u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                kv.put(&i.to_be_bytes(), Bytes::from(vec![0u8; 256]), Timestamp(i))
                    .unwrap();
            }
        })
    };

    let mut g = c.benchmark_group("kvstore_hybrid");
    g.bench_function("multi_get_256_steady", |b| {
        b.iter(|| kv.multi_get(&keys).unwrap().iter().flatten().count());
    });
    let stop = Arc::new(AtomicBool::new(false));
    let writer = churn(Arc::clone(&kv), Arc::clone(&stop));
    g.bench_function("multi_get_256_during_flush", |b| {
        b.iter(|| kv.multi_get(&keys).unwrap().iter().flatten().count());
    });
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    g.finish();

    // Manual p99s (the acceptance comparison): the during-flush tail must
    // stay within 2× of the no-flush baseline.
    let measure = |n: usize| {
        let h = helios_telemetry::Histogram::new();
        for _ in 0..n {
            let t = std::time::Instant::now();
            let _ = kv.multi_get(&keys).unwrap();
            h.record_duration(t.elapsed());
        }
        h
    };
    let steady = measure(2_000);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = churn(Arc::clone(&kv), Arc::clone(&stop));
    let flushing = measure(2_000);
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let st = kv.stats();
    println!(
        "kvstore_hybrid multi_get_256 p99: steady {:.3} ms, during flush {:.3} ms ({:.2}x); \
         p50 {:.3} -> {:.3} ms; flushes {}, compactions {}, stall {} ns, \
         block cache {}/{} hits/misses",
        steady.percentile_ms(99.0),
        flushing.percentile_ms(99.0),
        flushing.percentile_ms(99.0) / steady.percentile_ms(99.0).max(f64::EPSILON),
        steady.percentile_ms(50.0),
        flushing.percentile_ms(50.0),
        st.flushes,
        st.compactions,
        st.stall_nanos,
        st.block_cache_hits,
        st.block_cache_misses,
    );
    drop(kv);
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_mq(c: &mut Criterion) {
    let broker = Broker::new();
    broker
        .create_topic("bench", TopicConfig::in_memory(4))
        .unwrap();
    let topic = broker.topic("bench").unwrap();
    let mut g = c.benchmark_group("mq");
    g.bench_function("produce", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            topic.produce(i, Bytes::from_static(&[7u8; 64])).unwrap()
        });
    });
    g.bench_function("produce_consume_batch100", |b| {
        b.iter_batched(
            || broker.consumer_all("g", "bench").unwrap(),
            |mut consumer| {
                consumer.seek_to_end();
                for i in 0..100u64 {
                    topic.produce(i, Bytes::from_static(&[1u8; 64])).unwrap();
                }
                let mut got = 0;
                while got < 100 {
                    got += consumer.poll_now(100).len();
                }
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let q = KHopQuery::builder(VertexType(0))
        .hop(EdgeType(0), VertexType(1), 25, QS::Random)
        .hop(EdgeType(1), VertexType(1), 10, QS::TopK)
        .hop(EdgeType(1), VertexType(1), 5, QS::TopK)
        .build()
        .unwrap();
    c.bench_function("query_decompose_3hop", |b| b.iter(|| q.decompose()));

    let mut schema = helios_query::Schema::new();
    c.bench_function("query_parse", |b| {
        b.iter(|| {
            helios_query::parse_query(
                "g.V('User').outV('Click','Item').sample(25).by('Random')\
                 .outV('CoPurchase','Item').sample(10).by('TopK')",
                &mut schema,
            )
            .unwrap()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20);
    targets = bench_reservoir, bench_kvstore, bench_kvstore_hybrid, bench_mq, bench_query
);
criterion_main!(benches);
