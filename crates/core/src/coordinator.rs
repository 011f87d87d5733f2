//! The coordinator (§4.1).
//!
//! Registers the user-specified K-hop query, decomposes it into one-hop
//! queries, models their data dependencies as a DAG distributed to all
//! workers, and monitors worker liveness via heartbeats. Checkpointing is
//! triggered through [`crate::HeliosDeployment::checkpoint`], which the
//! coordinator can drive periodically.

use crate::actor::{Beacon, Liveness};
use helios_query::{KHopQuery, QueryDag};
use std::sync::Arc;
use std::time::Duration;

/// Coordinator state shared with the deployment.
pub struct Coordinator {
    query: KHopQuery,
    dag: QueryDag,
    liveness: Arc<Liveness>,
}

impl Coordinator {
    /// Register a query: decompose it and build the dependency DAG.
    pub fn new(query: KHopQuery) -> Self {
        let dag = query.dag();
        Coordinator {
            query,
            dag,
            liveness: Arc::new(Liveness::new()),
        }
    }

    /// The registered K-hop query.
    pub fn query(&self) -> &KHopQuery {
        &self.query
    }

    /// The one-hop query dependency DAG distributed to workers.
    pub fn dag(&self) -> &QueryDag {
        &self.dag
    }

    /// Register a worker for heartbeat monitoring; the worker bumps the
    /// returned beacon from its polling loops.
    pub fn register_worker(&self, name: &str) -> Beacon {
        self.liveness.register(name)
    }

    /// Shared handle to the liveness registry, for long-lived probe
    /// closures that must not borrow the coordinator.
    pub fn liveness(&self) -> Arc<Liveness> {
        Arc::clone(&self.liveness)
    }

    /// Workers that have not beaten within `timeout`.
    pub fn dead_workers(&self, timeout: Duration) -> Vec<String> {
        self.liveness.dead_workers(timeout)
    }

    /// Number of registered workers.
    pub fn worker_count(&self) -> usize {
        self.liveness.worker_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_query::SamplingStrategy;
    use helios_types::{EdgeType, VertexType};

    fn query() -> KHopQuery {
        KHopQuery::builder(VertexType(0))
            .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
            .hop(EdgeType(1), VertexType(1), 2, SamplingStrategy::TopK)
            .build()
            .unwrap()
    }

    #[test]
    fn decomposes_on_registration() {
        let c = Coordinator::new(query());
        assert_eq!(c.dag().len(), 2);
        assert_eq!(c.query().hops(), 2);
    }

    #[test]
    fn liveness_tracks_registered_workers() {
        let c = Coordinator::new(query());
        let b = c.register_worker("saw0");
        c.register_worker("sew0");
        assert_eq!(c.worker_count(), 2);
        std::thread::sleep(Duration::from_millis(25));
        b.beat();
        let dead = c.dead_workers(Duration::from_millis(15));
        assert_eq!(dead, vec!["sew0".to_string()]);
    }
}
