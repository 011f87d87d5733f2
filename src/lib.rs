//! # Helios
//!
//! A from-scratch Rust reproduction of **Helios: Efficient Distributed
//! Dynamic Graph Sampling for Online GNN Inference** (PPoPP 2025).
//!
//! Helios serves K-hop graph-sampling queries for online GNN inference
//! under millisecond latency SLOs by
//!
//! 1. **pre-sampling** the dynamic graph with event-driven reservoir
//!    sampling as updates arrive, instead of traversing adjacency lists at
//!    query time;
//! 2. keeping a **query-aware sample cache** on each serving worker so a
//!    complete K-hop result is a fixed number of local KV lookups;
//! 3. **separating sampling from serving** so both scale independently
//!    and ingestion bursts cannot disturb serving latency.
//!
//! This facade re-exports the workspace crates; see each for details:
//!
//! * [`core`] (`helios-core`) — coordinator, sampling workers, serving
//!   workers, deployment harness: the paper's contribution;
//! * [`sampling`] — reservoir sampling strategies (Random/TopK/EdgeWeight);
//! * [`query`] — K-hop query language, decomposition, result types;
//! * [`mq`] — partitioned message queue (Kafka substitute);
//! * [`kvstore`] — LSM-style KV store (RocksDB substitute);
//! * [`actor`] — thread/actor runtime;
//! * [`netsim`] — network cost model for simulated distribution;
//! * [`graphstore`] — dynamic graph partitions (the baselines' storage);
//! * [`graphdb`] — the distributed graph-database baseline;
//! * [`datagen`] — synthetic datasets with Table 1 shapes;
//! * [`gnn`] — GraphSAGE training/inference + model serving;
//! * [`metrics`] — histograms, throughput meters, table printing;
//! * [`telemetry`] — metrics registry, request/update tracing, and
//!   pipeline lag monitoring (`HELIOS_STATS=1` / `HELIOS_TRACE=1`).
//!
//! ## Quickstart
//!
//! ```
//! use helios::prelude::*;
//!
//! // Fig. 1's 2-hop e-commerce query.
//! let mut schema = Schema::new();
//! let query = parse_query(
//!     "g.V('User').outV('Click', 'Item').sample(2).by('Random')\
//!      .outV('CoPurchase', 'Item').sample(2).by('TopK')",
//!     &mut schema,
//! ).unwrap();
//!
//! let helios = HeliosDeployment::start(HeliosConfig::with_workers(2, 2), query).unwrap();
//! // ingest graph updates ... then serve:
//! let subgraph = helios.serve(VertexId(1)).unwrap();
//! assert_eq!(subgraph.seed, VertexId(1));
//! helios.shutdown();
//! ```

pub use helios_actor as actor;
pub use helios_core as core;
pub use helios_datagen as datagen;
pub use helios_gnn as gnn;
pub use helios_graphdb as graphdb;
pub use helios_graphstore as graphstore;
pub use helios_kvstore as kvstore;
pub use helios_metrics as metrics;
pub use helios_mq as mq;
pub use helios_netsim as netsim;
pub use helios_query as query;
pub use helios_sampling as sampling;
pub use helios_telemetry as telemetry;
pub use helios_types as types;

/// The most common imports for application code.
pub mod prelude {
    pub use helios_core::{HeliosConfig, HeliosDeployment};
    pub use helios_datagen::{Dataset, Preset};
    pub use helios_gnn::{ModelServer, OracleSampler, SageModel};
    pub use helios_query::{parse_query, KHopQuery, SampledSubgraph, SamplingStrategy, Schema};
    pub use helios_types::{
        EdgeType, EdgeUpdate, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exports_resolve() {
        use crate::prelude::*;
        let q = KHopQuery::builder(VertexType(0))
            .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
            .build()
            .unwrap();
        assert_eq!(q.hops(), 1);
    }
}
