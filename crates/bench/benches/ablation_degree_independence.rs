//! Ablation: the bounded-lookup property of the query-aware sample cache.
//!
//! The design claim behind Figs. 4(c) and 10 is that Helios's serving
//! cost is *independent of vertex degree* (a fixed number of cache
//! lookups), while ad-hoc sampling scales with degree (full adjacency
//! traversal). This ablation isolates the claim: identical graphs where
//! seeds differ only in degree (30 vs 10,000 neighbors — both above the
//! fan-out of 25, so the *lookup counts* are identical), measured
//! sequentially to exclude queueing effects.

use helios_core::{HeliosConfig, HeliosDeployment};
use helios_graphdb::{GraphDb, GraphDbConfig};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_telemetry::Histogram;
use helios_types::{
    EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const USER: VertexType = VertexType(0);
const ITEM: VertexType = VertexType(1);
const CLICK: EdgeType = EdgeType(0);
const COP: EdgeType = EdgeType(1);

/// Seed u clicks `degree` items; each item has 3 co-purchases.
fn build(degree_cold: u64, degree_hot: u64) -> Vec<GraphUpdate> {
    let mut updates = Vec::new();
    let mut ts = 0u64;
    let mut t = || {
        ts += 1;
        ts
    };
    for u in [1u64, 2] {
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: USER,
            id: VertexId(u),
            feature: vec![u as f32; 8],
            ts: Timestamp(t()),
        }));
    }
    let mut item_id = 1000u64;
    let mut add_items =
        |updates: &mut Vec<GraphUpdate>, user: u64, degree: u64, t: &mut dyn FnMut() -> u64| {
            for _ in 0..degree {
                item_id += 1;
                let i = item_id;
                updates.push(GraphUpdate::Vertex(VertexUpdate {
                    vtype: ITEM,
                    id: VertexId(i),
                    feature: vec![i as f32; 8],
                    ts: Timestamp(t()),
                }));
                for j in 0..3u64 {
                    updates.push(GraphUpdate::Edge(EdgeUpdate {
                        etype: COP,
                        src_type: ITEM,
                        src: VertexId(i),
                        dst_type: ITEM,
                        dst: VertexId(1001 + (i + j) % degree.max(3)),
                        ts: Timestamp(t()),
                        weight: 1.0,
                    }));
                }
                updates.push(GraphUpdate::Edge(EdgeUpdate {
                    etype: CLICK,
                    src_type: USER,
                    src: VertexId(user),
                    dst_type: ITEM,
                    dst: VertexId(i),
                    ts: Timestamp(t()),
                    weight: 1.0,
                }));
            }
        };
    add_items(&mut updates, 1, degree_cold, &mut t);
    add_items(&mut updates, 2, degree_hot, &mut t);
    updates
}

fn query() -> KHopQuery {
    KHopQuery::builder(USER)
        .hop(CLICK, ITEM, 25, SamplingStrategy::TopK)
        .hop(COP, ITEM, 10, SamplingStrategy::TopK)
        .build()
        .unwrap()
}

fn measure_sequential(mut f: impl FnMut()) -> Histogram {
    let hist = Histogram::new();
    for _ in 0..300 {
        let t0 = Instant::now();
        f();
        hist.record_duration(t0.elapsed());
    }
    hist
}

fn main() {
    let cold = 30u64; // > fan-out 25, so both seeds serve identical lookup counts
    let hot = 10_000u64;
    let updates = build(cold, hot);

    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 1), query()).unwrap();
    helios.ingest_batch(&updates).unwrap();
    assert!(helios.quiesce(Duration::from_secs(300)));

    let db = GraphDb::new(GraphDbConfig::single_node());
    db.ingest_batch(&updates).unwrap();

    let mut t = helios_telemetry::Table::new(
        format!("Ablation: serving cost vs seed degree ({cold} vs {hot} neighbors)"),
        &[
            "system",
            "seed degree",
            "avg (µs)",
            "P99 (µs)",
            "hot/cold cost ratio",
        ],
    );
    let mut rng = StdRng::seed_from_u64(1);

    let h_cold = measure_sequential(|| {
        let _ = helios.serve(VertexId(1)).unwrap();
    });
    let h_hot = measure_sequential(|| {
        let _ = helios.serve(VertexId(2)).unwrap();
    });
    let b_cold = measure_sequential(|| {
        let _ = db.execute(VertexId(1), &query(), &mut rng).unwrap();
    });
    let mut rng2 = StdRng::seed_from_u64(2);
    let b_hot = measure_sequential(|| {
        let _ = db.execute(VertexId(2), &query(), &mut rng2).unwrap();
    });

    let us = |h: &Histogram, p: f64| h.percentile_ms(p) * 1000.0;
    let hel_ratio = h_hot.mean_ms() / h_cold.mean_ms().max(1e-9);
    let base_ratio = b_hot.mean_ms() / b_cold.mean_ms().max(1e-9);
    t.row(&[
        "Helios".into(),
        cold.to_string(),
        format!("{:.1}", h_cold.mean_ms() * 1000.0),
        format!("{:.1}", us(&h_cold, 99.0)),
        String::new(),
    ]);
    t.row(&[
        "Helios".into(),
        hot.to_string(),
        format!("{:.1}", h_hot.mean_ms() * 1000.0),
        format!("{:.1}", us(&h_hot, 99.0)),
        format!("{hel_ratio:.2}x"),
    ]);
    t.row(&[
        "graph DB".into(),
        cold.to_string(),
        format!("{:.1}", b_cold.mean_ms() * 1000.0),
        format!("{:.1}", us(&b_cold, 99.0)),
        String::new(),
    ]);
    t.row(&[
        "graph DB".into(),
        hot.to_string(),
        format!("{:.1}", b_hot.mean_ms() * 1000.0),
        format!("{:.1}", us(&b_hot, 99.0)),
        format!("{base_ratio:.2}x"),
    ]);
    t.print();
    println!(
        "claim: Helios's hot/cold ratio stays ~1x (bounded lookups); the ad-hoc \
         baseline's grows with degree (full traversal).\n\
         measured: Helios {hel_ratio:.2}x vs baseline {base_ratio:.2}x"
    );
    helios.shutdown();
}
