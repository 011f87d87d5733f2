//! Real-time e-commerce recommendation (§1, §7.4's Taobao workload):
//! train a GraphSAGE link-prediction model *offline* on a snapshot, then
//! serve *online* recommendations whose sampled neighborhoods come from
//! Helios and therefore reflect the user's latest clicks.
//!
//! Run with: `cargo run --release --example recommendation`

use helios::prelude::*;
use helios_gnn::{LinkPredictionTrainer, ModelServer, OracleSampler, SageModel, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let show_stats = helios::telemetry::stats_env();
    if helios::telemetry::trace_env() {
        helios::telemetry::set_tracing(true);
    }
    let dataset = Preset::Taobao.dataset(0.05);
    let user_query = dataset.table2_query(SamplingStrategy::Random, false);
    // Item tower: co-purchase neighborhood of the candidate item.
    let item_query = KHopQuery::builder(dataset.vt("Item"))
        .hop(
            dataset.et("CoPurchase"),
            dataset.vt("Item"),
            5,
            SamplingStrategy::Random,
        )
        .hop(
            dataset.et("CoPurchase"),
            dataset.vt("Item"),
            3,
            SamplingStrategy::Random,
        )
        .build()
        .unwrap();

    // ---- offline stage: snapshot + training (§2.2) ----
    println!("building snapshot and training GraphSAGE offline ...");
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let oracle = OracleSampler::from_events(events.iter().cloned());
    let positives: Vec<(VertexId, VertexId)> = events
        .iter()
        .filter_map(|e| match e {
            GraphUpdate::Edge(edge) if edge.etype == dataset.et("Click") => {
                Some((edge.src, edge.dst))
            }
            _ => None,
        })
        .take(400)
        .collect();
    let (ilo, ihi) = dataset.id_range("Item");
    let item_pool: Vec<VertexId> = (ilo..ihi).map(VertexId).collect();

    let mut rng = StdRng::seed_from_u64(42);
    let mut model = SageModel::new(dataset.config().feature_dim, 32, 16, &mut rng);
    let trainer = LinkPredictionTrainer::new(
        TrainConfig {
            epochs: 4,
            ..Default::default()
        },
        user_query.clone(),
        item_query.clone(),
    );
    let loss = trainer.train(&mut model, &oracle, &positives, &item_pool, &mut rng);
    println!(
        "trained on {} positive clicks, final loss {loss:.3}",
        positives.len()
    );

    // ---- online stage: Helios serves the fresh neighborhoods ----
    let mut config = HeliosConfig::with_workers(2, 2);
    config.ops_addr = helios::telemetry::ops_addr_env();
    let helios = HeliosDeployment::start(config, user_query).unwrap();
    if let Some(addr) = helios.ops_addr() {
        println!("ops server listening on http://{addr}");
    }
    helios.ingest_batch(&events).unwrap();
    assert!(helios.quiesce(Duration::from_secs(60)));
    println!("Helios caught up with {} events", events.len());

    let server = ModelServer::new(model);
    let user = VertexId(3);
    let candidates: Vec<VertexId> = item_pool.iter().step_by(23).take(8).copied().collect();

    let recommend = |label: &str| {
        let user_sg = helios.serve(user).unwrap();
        let mut scored: Vec<(VertexId, f32)> = candidates
            .iter()
            .map(|&item| {
                // Candidate-side neighborhoods come from the (static)
                // offline snapshot here; a production deployment would run
                // a second Helios query group for items.
                let item_sg = oracle.sample(item, &item_query, &mut StdRng::seed_from_u64(1));
                (item, server.score(&user_sg, &item_sg))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!("\n{label} top-3 for user {user}:");
        for (item, s) in scored.iter().take(3) {
            println!("  {item}  score {s:.3}");
        }
        scored
    };

    let before = recommend("before new clicks —");

    // The user clicks a burst of items similar to candidate[0]'s cluster;
    // the next recommendation sees the new neighborhood instantly.
    let last_ts = events.last().map(|e| e.ts().millis()).unwrap_or(0);
    let mut fresh = Vec::new();
    for k in 0..10u64 {
        fresh.push(GraphUpdate::Edge(EdgeUpdate {
            etype: dataset.et("Click"),
            src_type: dataset.vt("User"),
            src: user,
            dst_type: dataset.vt("Item"),
            dst: candidates[0],
            ts: Timestamp(last_ts + 1 + k),
            weight: 1.0,
        }));
    }
    helios.ingest_batch(&fresh).unwrap();
    assert!(helios.quiesce(Duration::from_secs(30)));

    let after = recommend("after 10 fresh clicks —");
    let moved = before
        .iter()
        .position(|(i, _)| *i == candidates[0])
        .unwrap();
    let now = after.iter().position(|(i, _)| *i == candidates[0]).unwrap();
    println!(
        "\ncandidate {} moved from rank {} to rank {} after the click burst",
        candidates[0],
        moved + 1,
        now + 1
    );
    println!(
        "requests served by the model server: {}",
        server.request_count()
    );
    if show_stats {
        println!("\n--- telemetry snapshot (HELIOS_STATS=1) ---");
        print!("{}", helios.telemetry_snapshot().render());
    }
    helios.shutdown();
}
