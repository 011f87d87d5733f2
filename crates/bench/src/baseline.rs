//! Baseline (graph database) setup for paired experiments.

use helios_datagen::{Dataset, Preset};
use helios_graphdb::netsim::NetworkConfig;
use helios_graphdb::{GraphDb, GraphDbConfig};
use helios_query::{KHopQuery, SamplingStrategy};
use helios_types::GraphUpdate;
use std::time::Duration;

/// A TigerGraph-like configuration: regular (single-coordinator) query
/// mode, strong-consistency ingestion, 8 query slots per node.
pub fn tigergraph_like(nodes: usize) -> GraphDbConfig {
    GraphDbConfig {
        nodes,
        compute_slots_per_node: 8,
        network: NetworkConfig {
            rtt: Duration::from_micros(200),
            bandwidth_bps: 1_250_000_000,
        },
        sync_replication: true,
        query_cache: false,
        ..Default::default()
    }
}

/// A NebulaGraph-like configuration: same executor, slightly higher RPC
/// latency and fewer execution slots per storage node (matching the
/// relative ordering the paper measures between the two systems).
pub fn nebulagraph_like(nodes: usize) -> GraphDbConfig {
    GraphDbConfig {
        nodes,
        compute_slots_per_node: 6,
        network: NetworkConfig {
            rtt: Duration::from_micros(300),
            bandwidth_bps: 1_250_000_000,
        },
        sync_replication: true,
        query_cache: false,
        ..Default::default()
    }
}

/// A loaded baseline database plus the workload it was loaded from.
pub struct BaselineBench {
    /// The database.
    pub db: GraphDb,
    /// The dataset.
    pub dataset: Dataset,
    /// The registered query.
    pub query: KHopQuery,
    /// Seconds spent ingesting the stream.
    pub ingest_secs: f64,
}

/// Load a baseline database with the same event stream Helios replays.
pub fn setup_baseline(
    preset: Preset,
    scale: f64,
    strategy: SamplingStrategy,
    three_hop: bool,
    config: GraphDbConfig,
    batch: usize,
) -> BaselineBench {
    let dataset = preset.dataset(scale);
    let query = dataset.table2_query(strategy, three_hop);
    let db = GraphDb::new(config);
    let events: Vec<GraphUpdate> = dataset.events().collect();
    let t0 = std::time::Instant::now();
    for chunk in events.chunks(batch.max(1)) {
        db.ingest_batch(chunk).expect("baseline ingest");
    }
    BaselineBench {
        db,
        dataset,
        query,
        ingest_secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_loads_and_answers() {
        use rand::SeedableRng;
        let b = setup_baseline(
            Preset::Taobao,
            0.005,
            SamplingStrategy::TopK,
            false,
            GraphDbConfig {
                network: NetworkConfig::zero(),
                sync_replication: false,
                ..tigergraph_like(2)
            },
            512,
        );
        let (v, e) = b.db.totals();
        assert!(v > 0 && e > 0);
        let seeds = crate::harness::percent_seeds(&b.dataset, 0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = b.db.execute(seeds[0], &b.query, &mut rng).unwrap();
        assert!(out.subgraph.hop_count() >= 1);
    }
}
