//! An oracle sampler: ad-hoc K-hop sampling over a single-process graph
//! snapshot with a *visibility horizon*.
//!
//! Two uses:
//!
//! * offline training (§2.2): sample training subgraphs from a snapshot;
//! * the Fig. 18 consistency experiment: sampling "as of" `horizon`
//!   simulates an ingestion latency of `now - horizon` — edges newer than
//!   the horizon exist in the real world but are invisible to the
//!   sampler, exactly the staleness eventual consistency introduces.

use helios_query::{HopSamples, KHopQuery, SampledSubgraph, SamplingStrategy};
use helios_sampling::adhoc::{adhoc_random, adhoc_topk, adhoc_weighted, NeighborEdge};
use helios_sampling::graph::GraphPartition;
use helios_types::{GraphUpdate, Timestamp, VertexId};
use rand::Rng;

/// Single-partition oracle over the full graph.
#[derive(Debug, Default)]
pub struct OracleSampler {
    graph: GraphPartition,
}

impl OracleSampler {
    /// Empty oracle.
    pub fn new() -> Self {
        OracleSampler::default()
    }

    /// Build from an event stream.
    pub fn from_events(events: impl Iterator<Item = GraphUpdate>) -> Self {
        let mut o = OracleSampler::new();
        for ev in events {
            o.apply(&ev);
        }
        o
    }

    /// Apply one update.
    pub fn apply(&mut self, update: &GraphUpdate) {
        self.graph.apply(update);
    }

    /// The underlying partition (read-only).
    pub fn graph(&self) -> &GraphPartition {
        &self.graph
    }

    /// Sample a K-hop subgraph seeing *all* writes (the paper's "optimal
    /// case 1").
    pub fn sample(&self, seed: VertexId, query: &KHopQuery, rng: &mut impl Rng) -> SampledSubgraph {
        self.sample_asof(seed, query, Timestamp::MAX, rng)
    }

    /// Sample seeing only edges/features with `ts <= horizon`.
    pub fn sample_asof(
        &self,
        seed: VertexId,
        query: &KHopQuery,
        horizon: Timestamp,
        rng: &mut impl Rng,
    ) -> SampledSubgraph {
        let mut result = SampledSubgraph::new(seed);
        let mut frontier = vec![seed];
        for hop in query.hop_specs() {
            let mut hs = HopSamples::default();
            let mut next = Vec::new();
            for &v in &frontier {
                let visible: Vec<NeighborEdge> = self
                    .graph
                    .out_neighbors(v, hop.etype)
                    .iter()
                    .filter(|e| e.ts <= horizon)
                    .map(|e| NeighborEdge {
                        neighbor: e.dst,
                        ts: e.ts,
                        weight: e.weight,
                    })
                    .collect();
                let sampled = match hop.strategy {
                    SamplingStrategy::Random => adhoc_random(&visible, hop.fanout as usize, rng),
                    SamplingStrategy::TopK => adhoc_topk(&visible, hop.fanout as usize),
                    SamplingStrategy::EdgeWeight => {
                        adhoc_weighted(&visible, hop.fanout as usize, rng)
                    }
                };
                let children: Vec<VertexId> = sampled.into_iter().map(|e| e.neighbor).collect();
                next.extend(children.iter().copied());
                hs.groups.push((v, children));
            }
            result.hops.push(hs);
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        for v in result.all_vertices() {
            if let (Some(f), Some(fts)) = (self.graph.feature(v), self.graph.feature_ts(v)) {
                if fts <= horizon {
                    result.features.insert(v, f.to_vec());
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, VertexType, VertexUpdate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const U: VertexType = VertexType(0);
    const I: VertexType = VertexType(1);
    const E: EdgeType = EdgeType(0);

    fn build() -> OracleSampler {
        let mut o = OracleSampler::new();
        o.apply(&GraphUpdate::Vertex(VertexUpdate {
            vtype: U,
            id: VertexId(1),
            feature: vec![1.0; 4],
            ts: Timestamp(1),
        }));
        for (dst, ts) in [(10u64, 10u64), (11, 20), (12, 30)] {
            o.apply(&GraphUpdate::Vertex(VertexUpdate {
                vtype: I,
                id: VertexId(dst),
                feature: vec![dst as f32; 4],
                ts: Timestamp(ts),
            }));
            o.apply(&GraphUpdate::Edge(EdgeUpdate {
                etype: E,
                src_type: U,
                src: VertexId(1),
                dst_type: I,
                dst: VertexId(dst),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
        o
    }

    fn q(k: u32) -> KHopQuery {
        KHopQuery::builder(U)
            .hop(E, I, k, SamplingStrategy::TopK)
            .build()
            .unwrap()
    }

    #[test]
    fn full_visibility_sees_latest() {
        let o = build();
        let mut rng = StdRng::seed_from_u64(1);
        let sg = o.sample(VertexId(1), &q(2), &mut rng);
        let mut ids: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![11, 12], "TopK(2) = two newest edges");
        assert_eq!(sg.feature_coverage(), 1.0);
    }

    #[test]
    fn horizon_hides_recent_edges_and_features() {
        let o = build();
        let mut rng = StdRng::seed_from_u64(2);
        let sg = o.sample_asof(VertexId(1), &q(2), Timestamp(15), &mut rng);
        let ids: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
        assert_eq!(ids, vec![10], "only the ts=10 edge is visible");
        // Feature of vertex 11 (written at ts 20) invisible even if the
        // vertex were referenced.
        assert!(sg.feature(VertexId(11)).is_none());
    }

    #[test]
    fn from_events_builds_same_graph() {
        let o = build();
        let o2 = OracleSampler::from_events(
            [GraphUpdate::Edge(EdgeUpdate {
                etype: E,
                src_type: U,
                src: VertexId(1),
                dst_type: I,
                dst: VertexId(10),
                ts: Timestamp(10),
                weight: 1.0,
            })]
            .into_iter(),
        );
        assert_eq!(o2.graph().edge_count(), 1);
        assert_eq!(o.graph().edge_count(), 3);
    }
}
