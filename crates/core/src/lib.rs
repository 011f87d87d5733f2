//! # helios-core
//!
//! The paper's primary contribution: an event-driven pre-sampling service
//! with a query-aware sample cache behind a sampling/serving separation
//! architecture (§4–§6 of *Helios: Efficient Distributed Dynamic Graph
//! Sampling for Online GNN Inference*, PPoPP'25).
//!
//! A [`HeliosDeployment`] is the [`SamplingTier`] plus in-process
//! serving workers; together they wire up:
//!
//! * a **coordinator** ([`coordinator`]) that registers the user's K-hop
//!   sampling query, decomposes it into one-hop queries with a dependency
//!   DAG, and monitors worker liveness / triggers checkpoints;
//! * **M sampling workers** ([`sampler`]) that consume the partitioned
//!   graph-update stream, maintain one reservoir table per one-hop query
//!   (event-driven reservoir sampling, §5.2), track which serving workers
//!   subscribe to which vertices (§5.3), and publish sample/feature
//!   updates;
//! * **N serving workers** ([`serving`]) that each hold a query-aware
//!   sample cache (sample tables + feature table over `helios-kvstore`,
//!   §6) and answer K-hop sampling queries with a *fixed* number of local
//!   lookups — no network, no traversal;
//! * a message broker (`helios-mq`) carrying three kinds of topics:
//!   `updates` (graph updates, partitioned by routing vertex), `control`
//!   (subscription management between sampling workers) and
//!   `samples-<sew>` (pre-sampled results pushed to each serving worker).
//!
//! Consistency is **eventual** (§6): serving never blocks on ingestion,
//! and the staleness window is measured (Fig. 17) rather than eliminated.
//!
//! ```no_run
//! use helios_core::{HeliosConfig, HeliosDeployment};
//! use helios_query::{KHopQuery, SamplingStrategy};
//! use helios_types::{VertexId, VertexType, EdgeType};
//!
//! let query = KHopQuery::builder(VertexType(0))
//!     .hop(EdgeType(0), VertexType(1), 25, SamplingStrategy::Random)
//!     .hop(EdgeType(1), VertexType(1), 10, SamplingStrategy::TopK)
//!     .build()
//!     .unwrap();
//! let helios = HeliosDeployment::start(HeliosConfig::default(), query).unwrap();
//! // ... ingest updates, then:
//! let result = helios.serve(VertexId(42)).unwrap();
//! ```

pub mod config;
pub mod coordinator;
pub mod deployment;
pub mod messages;
pub mod report;
pub mod rescale;
pub mod sampler;
pub mod serving;
pub mod tier;

pub use config::{FreshnessConfig, HeliosConfig};
pub use coordinator::Coordinator;
pub use deployment::HeliosDeployment;
pub use messages::{ControlMsg, SampleEntryLite, SampleMsg, UpdateEnvelope};
pub use report::{DeploymentReport, SamplingReport, ServingReport};
pub use rescale::AutoscalerGuard;
pub use sampler::SamplingWorker;
pub use serving::{ServingMemGauges, ServingWorker};
pub use tier::{QueueMark, SamplingTier, Watermarks};

// Membership/rescale vocabulary, re-exported so deployments can configure
// the autoscaler without depending on helios-membership directly.
pub use helios_membership::{
    RouteTable, Router, ScaleController, ScaleDecision, ScalePolicy, ScaleSignals,
};

use helios_query::SamplingStrategy as QueryStrategy;
use helios_sampling::SamplingStrategy as ReservoirStrategy;

/// Convert the query-layer strategy enum into the sampling-layer one.
/// The two enums are structurally identical (see `helios-query` docs for
/// why they are separate types).
pub fn to_reservoir_strategy(s: QueryStrategy) -> ReservoirStrategy {
    match s {
        QueryStrategy::Random => ReservoirStrategy::Random,
        QueryStrategy::TopK => ReservoirStrategy::TopK,
        QueryStrategy::EdgeWeight => ReservoirStrategy::EdgeWeight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_conversion_is_total() {
        for (q, r) in [
            (QueryStrategy::Random, ReservoirStrategy::Random),
            (QueryStrategy::TopK, ReservoirStrategy::TopK),
            (QueryStrategy::EdgeWeight, ReservoirStrategy::EdgeWeight),
        ] {
            assert_eq!(to_reservoir_strategy(q), r);
            assert_eq!(q.name(), r.name());
        }
    }
}
