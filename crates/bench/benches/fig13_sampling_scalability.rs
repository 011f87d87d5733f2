//! Fig. 13: scalability of pre-sampling — (a) scale-up with sampling
//! threads per worker, (b) scale-out with sampling workers.
//!
//! **Methodology on a core-starved host.** This reproduction runs
//! threads-as-machines; the benchmark host may have a single core, where
//! wall-clock timing of an oversubscribed pipeline measures the OS
//! scheduler, not Helios. Scaling is therefore measured by *deterministic
//! parallel simulation*: the update stream is partitioned exactly as the
//! deployment's two-level routing would (worker = hash(v) % M, then
//! sampling shard = hash(v) % T), each partition's pre-sampling work
//! (reservoir offers + sample-snapshot encoding, the real hot path) is
//! executed sequentially and timed in isolation, and the simulated
//! parallel throughput is `records ÷ max(partition time)` — the rate a
//! deployment with one core per sampling thread would sustain. A real
//! end-to-end pipeline run is included as a wall-clock reference.

use bytes::BytesMut;
use helios_core::{
    actor::shard_hash, messages::SampleEntryLite, to_reservoir_strategy, HeliosConfig,
    HeliosDeployment,
};
use helios_datagen::{Dataset, DatasetConfig, EdgeSpec, Preset, VertexSpec};
use helios_query::SamplingStrategy;
use helios_sampling::ReservoirTable;
use helios_types::{hash::route, Encode, GraphUpdate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// INTER-shaped dataset in the *production balance regime*: at paper
/// scale the hottest vertex owns a negligible share of all edges (8.5k of
/// 3.8B), so hash sharding balances. A naive mini-scale INTER compresses
/// the key space until one supernode owns ~15% of the stream, which would
/// measure skew, not scalability; this config keeps the schema/density
/// but restores production-like balance.
fn inter_balanced() -> Dataset {
    let config = DatasetConfig {
        name: "INTER-bal",
        feature_dim: 10,
        vertices: vec![
            VertexSpec {
                name: "Forum",
                count: 3_000,
            },
            VertexSpec {
                name: "Person",
                count: 12_000,
            },
        ],
        edges: vec![
            EdgeSpec {
                name: "Has",
                src: "Forum",
                dst: "Person",
                count: 80_000,
                src_skew: 1.02,
                dst_skew: 1.02,
            },
            EdgeSpec {
                name: "Knows",
                src: "Person",
                dst: "Person",
                count: 170_000,
                src_skew: 1.03,
                dst_skew: 1.02,
            },
        ],
        feature_update_ratio: 0.05,
        seed: 0x13,
    };
    Dataset::new(config, Preset::Inter)
}

/// Per-partition pre-sampling work: the reservoir offers and the
/// publish-side snapshot encoding a sampling shard performs.
fn shard_time(events: &[&GraphUpdate], dataset: &Dataset, strategy: SamplingStrategy) -> f64 {
    let query = dataset.table2_query(strategy, false);
    let hops = query.decompose();
    let mut tables: Vec<ReservoirTable> = hops
        .iter()
        .map(|h| ReservoirTable::new(to_reservoir_strategy(h.strategy), h.fanout))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xF16);
    let mut sink = 0usize;
    let t0 = Instant::now();
    for ev in events {
        if let GraphUpdate::Edge(e) = ev {
            for (i, h) in hops.iter().enumerate() {
                if h.matches_edge(e.src_type, e.etype, e.dst_type) {
                    let outcome = tables[i].offer(e.src, e.dst, e.ts, e.weight, &mut rng);
                    if outcome.changed() {
                        // Publish cost: encode the snapshot like the real
                        // sampling thread does.
                        let mut buf = BytesMut::with_capacity(512);
                        for s in tables[i].samples(e.src) {
                            SampleEntryLite {
                                neighbor: s.neighbor,
                                ts: s.ts,
                                weight: s.weight,
                            }
                            .encode(&mut buf);
                        }
                        sink += buf.len();
                    }
                }
            }
        }
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}

/// Simulated parallel rate for (workers × threads) sampling threads.
fn simulate(
    events: &[GraphUpdate],
    dataset: &Dataset,
    workers: usize,
    threads: usize,
    strategy: SamplingStrategy,
) -> f64 {
    // Two-level routing exactly like the deployment.
    let mut partitions: Vec<Vec<&GraphUpdate>> = vec![Vec::new(); workers * threads];
    for ev in events {
        let v = ev.routing_vertex().raw();
        let w = route(v, workers);
        let t = (shard_hash(v) % threads as u64) as usize;
        partitions[w * threads + t].push(ev);
    }
    // Min-of-3 timing per partition suppresses scheduler noise (each
    // partition runs alone, so min approximates uninterrupted compute).
    let critical = partitions
        .iter()
        .map(|p| {
            (0..3)
                .map(|_| shard_time(p, dataset, strategy))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max);
    events.len() as f64 / critical.max(1e-9)
}

fn main() {
    let dataset = inter_balanced();
    let events: Vec<GraphUpdate> = dataset.events().collect();
    println!(
        "INTER (balanced regime): {} events ({} edges)\n",
        events.len(),
        events.iter().filter(|e| e.is_edge()).count()
    );

    let mut a = helios_telemetry::Table::new(
        "Fig. 13(a): pre-sampling scale-up (1 worker, varying sampling threads, INTER)",
        &["Strategy", "threads", "simulated-parallel rec/s", "scaling"],
    );
    for strategy in [SamplingStrategy::TopK, SamplingStrategy::Random] {
        let mut base = None;
        for threads in [1usize, 2, 4, 8] {
            let rate = simulate(&events, &dataset, 1, threads, strategy);
            let b = *base.get_or_insert(rate);
            a.row(&[
                strategy.name().to_string(),
                threads.to_string(),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / b),
            ]);
        }
    }
    a.print();

    let mut b = helios_telemetry::Table::new(
        "Fig. 13(b): pre-sampling scale-out (4 threads/worker, varying workers, INTER)",
        &["Strategy", "workers", "simulated-parallel rec/s", "scaling"],
    );
    for strategy in [SamplingStrategy::TopK, SamplingStrategy::Random] {
        let mut base = None;
        for workers in [1usize, 2, 4] {
            let rate = simulate(&events, &dataset, workers, 4, strategy);
            let bb = *base.get_or_insert(rate);
            b.row(&[
                strategy.name().to_string(),
                workers.to_string(),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / bb),
            ]);
        }
    }
    b.print();

    // Wall-clock reference: the full pipeline (polling, sampling,
    // subscription control, publishing, cache application) on this host.
    let query = dataset.table2_query(SamplingStrategy::Random, false);
    let deployment =
        HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query).expect("start");
    let t0 = Instant::now();
    deployment.ingest_batch(&events).unwrap();
    assert!(deployment.quiesce(Duration::from_secs(600)));
    let wall = events.len() as f64 / t0.elapsed().as_secs_f64();
    deployment.shutdown();
    println!("reference: full-pipeline wall-clock ingestion on this host = {wall:.0} rec/s");
    println!("paper: near-linear scale-up with threads and linear scale-out with workers; 1.49M rec/s per 16-thread worker");
}
