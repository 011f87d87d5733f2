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
//! The crates, one job each:
//!
//! * `helios-core` — coordinator, sampling and serving tiers, the
//!   deployment harness and the actor runtime: the paper's contribution;
//! * `helios-sampling` — reservoir sampling strategies
//!   (Random/TopK/EdgeWeight), plus the ad-hoc samplers and graph
//!   partitions the baselines traverse;
//! * `helios-query` — K-hop query language, decomposition, result types;
//! * `helios-mq` — partitioned message queue (Kafka substitute);
//! * `helios-kvstore` — LSM-style KV store (RocksDB substitute);
//! * `helios-membership` — the seed → serving-worker slot route table;
//! * `helios-net` — wire protocol, transports, gateway and the launcher's
//!   process hosts;
//! * `helios-telemetry` — metrics registry and instruments, tracing, the
//!   ops plane (`HELIOS_STATS=1` / `HELIOS_TRACE=1`);
//! * `helios-datagen` — synthetic datasets with Table 1 shapes;
//! * `helios-types` — ids, updates, hashing and the error type;
//! * `helios-graphdb` — the distributed graph-database baseline and its
//!   network cost model;
//! * `helios-gnn` — GraphSAGE training/inference + model serving;
//! * `helios-bench` — the harnesses behind the paper's figures.
//!
//! This package is the `helios` launcher (`src/main.rs`) plus a small
//! facade: [`core`], [`telemetry`] and a [`prelude`] for application
//! code. It links only what the launcher runs; the examples and tests
//! pull in `helios-gnn` and `helios-graphdb` themselves.
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

pub use helios_core as core;
pub use helios_telemetry as telemetry;

/// The most common imports for application code.
pub mod prelude {
    pub use helios_core::{HeliosConfig, HeliosDeployment};
    pub use helios_datagen::{Dataset, Preset};
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
