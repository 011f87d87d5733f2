//! The distributed graph database itself.

use crate::cache::QueryCache;
use crate::netsim::{Network, NetworkConfig};
use crate::semaphore::Semaphore;
use helios_query::{HopSamples, KHopQuery, SampledSubgraph, SamplingStrategy};
use helios_sampling::adhoc::{adhoc_random, adhoc_topk, adhoc_weighted, NeighborEdge};
use helios_sampling::graph::{GraphPartition, StoredEdge};
use helios_telemetry::{span, Counter, TraceCtx};
use helios_types::{hash::route, FxHashMap, GraphUpdate, PartitionPolicy, Result, VertexId};
use parking_lot::RwLock;
use rand::Rng;
use std::sync::Arc;

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct GraphDbConfig {
    /// Number of storage nodes ("machines").
    pub nodes: usize,
    /// Concurrent query-execution slots per node (the paper's systems run
    /// 32 threads per node; scale to taste).
    pub compute_slots_per_node: usize,
    /// Cross-node link model.
    pub network: NetworkConfig,
    /// Edge partition policy.
    pub policy: PartitionPolicy,
    /// Synchronous replication on ingest (strong consistency, §7.2.2).
    pub sync_replication: bool,
    /// Enable the write-invalidated query cache.
    pub query_cache: bool,
}

impl Default for GraphDbConfig {
    fn default() -> Self {
        GraphDbConfig {
            nodes: 4,
            compute_slots_per_node: 8,
            network: NetworkConfig::paper_scaled(),
            policy: PartitionPolicy::BySrc,
            sync_replication: true,
            query_cache: false,
        }
    }
}

impl GraphDbConfig {
    /// A single-node deployment with no network costs (for the Fig. 4(c)
    /// skew experiment, which explicitly removes distribution effects).
    pub fn single_node() -> Self {
        GraphDbConfig {
            nodes: 1,
            network: NetworkConfig::zero(),
            sync_replication: false,
            ..Default::default()
        }
    }
}

struct StorageNode {
    partition: RwLock<GraphPartition>,
    slots: Semaphore,
}

/// What one query execution did (Fig. 4's instrumented quantities).
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The assembled K-hop result.
    pub subgraph: SampledSubgraph,
    /// Neighbor entries touched by full-list scans (Fig. 4(c)'s x-axis).
    pub traversed: u64,
    /// Cross-node request/response rounds paid.
    pub network_rounds: u32,
    /// Served from the query cache?
    pub from_cache: bool,
}

/// Process-global telemetry counters for the baseline database; live in
/// [`helios_telemetry::global`] so experiment binaries see them in the
/// same snapshot as the Helios pipeline's instruments.
struct DbMetrics {
    queries: Arc<Counter>,
    updates: Arc<Counter>,
    traversed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl DbMetrics {
    fn registered() -> Self {
        let g = helios_telemetry::global();
        DbMetrics {
            queries: g.counter("graphdb.queries", &[]),
            updates: g.counter("graphdb.updates_ingested", &[]),
            traversed: g.counter("graphdb.neighbors_traversed", &[]),
            cache_hits: g.counter("graphdb.cache_hit", &[]),
            cache_misses: g.counter("graphdb.cache_miss", &[]),
        }
    }
}

/// The baseline distributed graph database.
pub struct GraphDb {
    config: GraphDbConfig,
    nodes: Vec<StorageNode>,
    network: Network,
    cache: QueryCache,
    metrics: DbMetrics,
}

impl GraphDb {
    /// Deploy a database.
    pub fn new(config: GraphDbConfig) -> Self {
        assert!(config.nodes > 0, "need at least one storage node");
        let nodes = (0..config.nodes)
            .map(|_| StorageNode {
                partition: RwLock::new(GraphPartition::new()),
                slots: Semaphore::new(config.compute_slots_per_node),
            })
            .collect();
        let network = Network::new(config.network);
        GraphDb {
            config,
            nodes,
            network,
            cache: QueryCache::new(),
            metrics: DbMetrics::registered(),
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &GraphDbConfig {
        &self.config
    }

    /// Shared network (for traffic accounting in experiments).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Query-cache statistics.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    #[inline]
    fn owner(&self, v: VertexId) -> usize {
        route(v.raw(), self.nodes.len())
    }

    /// Ingest a batch of graph updates with strong consistency: per owner
    /// node, writes are applied under the write lock and synchronously
    /// replicated to a peer before acknowledging.
    pub fn ingest_batch(&self, updates: &[GraphUpdate]) -> Result<()> {
        let n = self.nodes.len();
        // Route every update (edges may expand to two copies under Both).
        let mut per_owner: FxHashMap<usize, Vec<GraphUpdate>> = FxHashMap::default();
        let mut bytes_per_owner: FxHashMap<usize, usize> = FxHashMap::default();
        for u in updates {
            match u {
                GraphUpdate::Vertex(v) => {
                    let o = self.owner(v.id);
                    per_owner.entry(o).or_default().push(u.clone());
                    *bytes_per_owner.entry(o).or_default() += u.wire_size();
                }
                GraphUpdate::Edge(e) => {
                    for (rv, copy) in self.config.policy.copies(e) {
                        let o = self.owner(rv);
                        let g = GraphUpdate::Edge(copy);
                        *bytes_per_owner.entry(o).or_default() += g.wire_size();
                        per_owner.entry(o).or_default().push(g);
                    }
                }
            }
        }
        for (owner, batch) in per_owner {
            {
                let mut part = self.nodes[owner].partition.write();
                for u in &batch {
                    part.apply(u);
                }
            }
            if self.config.sync_replication && n > 1 {
                let replica = (owner + 1) % n;
                let bytes = bytes_per_owner.get(&owner).copied().unwrap_or(0);
                self.network.transfer(owner, replica, bytes);
                self.network.transfer(replica, owner, 64); // ack
            }
        }
        if self.config.query_cache && !updates.is_empty() {
            self.cache.on_write();
        }
        self.metrics.updates.add(updates.len() as u64);
        Ok(())
    }

    /// Ingest a single update.
    pub fn ingest(&self, update: &GraphUpdate) -> Result<()> {
        self.ingest_batch(std::slice::from_ref(update))
    }

    /// Total vertices/edges across nodes (replicas counted).
    pub fn totals(&self) -> (usize, u64) {
        let mut v = 0;
        let mut e = 0;
        for n in &self.nodes {
            let p = n.partition.read();
            v += p.vertex_count();
            e += p.edge_count();
        }
        (v, e)
    }

    /// Out-degree of a vertex on its owner node (test/inspection helper).
    pub fn out_degree(&self, v: VertexId, etype: helios_types::EdgeType) -> usize {
        self.nodes[self.owner(v)]
            .partition
            .read()
            .out_degree(v, etype)
    }

    /// Execute a K-hop sampling query ad hoc (§3): per hop, scan the full
    /// adjacency lists of the frontier on their owner nodes, paying one
    /// network round per remote owner per hop, then fetch features.
    pub fn execute(
        &self,
        seed: VertexId,
        query: &KHopQuery,
        rng: &mut impl Rng,
    ) -> Result<ExecOutcome> {
        let _exec_span = span("graphdb.execute", TraceCtx::root());
        self.metrics.queries.incr();
        if self.config.query_cache {
            if let Some(sg) = self.cache.get(seed) {
                self.metrics.cache_hits.incr();
                return Ok(ExecOutcome {
                    subgraph: sg,
                    traversed: 0,
                    network_rounds: 0,
                    from_cache: true,
                });
            }
            self.metrics.cache_misses.incr();
        }
        let coordinator = self.owner(seed);
        let mut traversed = 0u64;
        let mut rounds = 0u32;
        let mut result = SampledSubgraph::new(seed);
        let mut frontier = vec![seed];

        for hop in query.hop_specs() {
            // Group the frontier by owner node.
            let mut groups: FxHashMap<usize, Vec<VertexId>> = FxHashMap::default();
            for &v in &frontier {
                groups.entry(self.owner(v)).or_default().push(v);
            }
            let mut hop_samples: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
            for (owner, vertices) in groups {
                if owner != coordinator {
                    // Request: vertex ids to expand.
                    self.network
                        .transfer(coordinator, owner, 64 + vertices.len() * 8);
                }
                let mut response_bytes = 64usize;
                {
                    let _slot = self.nodes[owner].slots.acquire();
                    let part = self.nodes[owner].partition.read();
                    for &v in &vertices {
                        let adj = part.out_neighbors(v, hop.etype);
                        traversed += adj.len() as u64;
                        let sampled = sample_adjacency(adj, hop.fanout as usize, hop.strategy, rng);
                        response_bytes += sampled.len() * 24;
                        hop_samples.insert(v, sampled);
                    }
                }
                if owner != coordinator {
                    // Response: sampled neighbor ids (+ metadata).
                    self.network.transfer(owner, coordinator, response_bytes);
                    rounds += 1;
                }
            }
            // Rebuild in frontier order so results are deterministic.
            let mut hs = HopSamples::default();
            let mut next_frontier = Vec::new();
            for &v in &frontier {
                // `get` + clone, not `remove`: the same vertex can appear
                // several times in the frontier (sampled under multiple
                // parents) and every occurrence keeps its subtree.
                let children = hop_samples.get(&v).cloned().unwrap_or_default();
                next_frontier.extend(children.iter().copied());
                hs.groups.push((v, children));
            }
            result.hops.push(hs);
            frontier = next_frontier;
            if frontier.is_empty() {
                break;
            }
        }

        // Feature fetch for every referenced vertex, one round per remote
        // owner.
        let mut fgroups: FxHashMap<usize, Vec<VertexId>> = FxHashMap::default();
        for v in result.all_vertices() {
            fgroups.entry(self.owner(v)).or_default().push(v);
        }
        for (owner, vertices) in fgroups {
            if owner != coordinator {
                self.network
                    .transfer(coordinator, owner, 64 + vertices.len() * 8);
            }
            let mut response_bytes = 64usize;
            {
                let part = self.nodes[owner].partition.read();
                for &v in &vertices {
                    if let Some(f) = part.feature(v) {
                        response_bytes += f.len() * 4;
                        result.features.insert(v, f.to_vec());
                    }
                }
            }
            if owner != coordinator {
                self.network.transfer(owner, coordinator, response_bytes);
                rounds += 1;
            }
        }

        if self.config.query_cache {
            self.cache.put(seed, result.clone());
        }
        self.metrics.traversed.add(traversed);
        Ok(ExecOutcome {
            subgraph: result,
            traversed,
            network_rounds: rounds,
            from_cache: false,
        })
    }

    /// TTL expiry across all nodes.
    pub fn expire_before(&self, horizon: helios_types::Timestamp) -> u64 {
        let mut dropped = 0;
        for n in &self.nodes {
            dropped += n.partition.write().expire_before(horizon).0;
        }
        dropped
    }
}

fn sample_adjacency(
    adj: &[StoredEdge],
    k: usize,
    strategy: SamplingStrategy,
    rng: &mut impl Rng,
) -> Vec<VertexId> {
    // Convert to the sampler's edge view — this copy *is* the "collect
    // every neighbor's timestamp" cost of §3.1 and is intentional.
    let edges: Vec<NeighborEdge> = adj
        .iter()
        .map(|e| NeighborEdge {
            neighbor: e.dst,
            ts: e.ts,
            weight: e.weight,
        })
        .collect();
    let sampled = match strategy {
        SamplingStrategy::Random => adhoc_random(&edges, k, rng),
        SamplingStrategy::TopK => adhoc_topk(&edges, k),
        SamplingStrategy::EdgeWeight => adhoc_weighted(&edges, k, rng),
    };
    sampled.into_iter().map(|e| e.neighbor).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, Timestamp, VertexType, VertexUpdate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const USER: VertexType = VertexType(0);
    const ITEM: VertexType = VertexType(1);
    const CLICK: EdgeType = EdgeType(0);
    const COP: EdgeType = EdgeType(1);

    fn vertex(id: u64, vt: VertexType, ts: u64) -> GraphUpdate {
        GraphUpdate::Vertex(VertexUpdate {
            vtype: vt,
            id: VertexId(id),
            feature: vec![id as f32; 4],
            ts: Timestamp(ts),
        })
    }

    fn edge(src: u64, dst: u64, et: EdgeType, ts: u64) -> GraphUpdate {
        GraphUpdate::Edge(EdgeUpdate {
            etype: et,
            src_type: if et == CLICK { USER } else { ITEM },
            src: VertexId(src),
            dst_type: ITEM,
            dst: VertexId(dst),
            ts: Timestamp(ts),
            weight: 1.0,
        })
    }

    fn two_hop_query() -> KHopQuery {
        KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .hop(COP, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap()
    }

    /// User 1 clicks items 100..105; items co-purchase items 200+.
    fn populate(db: &GraphDb) {
        let mut updates = vec![vertex(1, USER, 1)];
        for i in 100..105u64 {
            updates.push(vertex(i, ITEM, 1));
            updates.push(edge(1, i, CLICK, 10 + i));
        }
        for i in 100..105u64 {
            for j in 0..3u64 {
                let dst = 200 + i * 10 + j;
                updates.push(vertex(dst, ITEM, 1));
                updates.push(edge(i, dst, COP, 50 + j));
            }
        }
        db.ingest_batch(&updates).unwrap();
    }

    #[test]
    fn two_hop_execution_structure() {
        let db = GraphDb::new(GraphDbConfig {
            network: NetworkConfig::zero(),
            ..Default::default()
        });
        populate(&db);
        let mut rng = StdRng::seed_from_u64(1);
        let out = db.execute(VertexId(1), &two_hop_query(), &mut rng).unwrap();
        let sg = &out.subgraph;
        assert_eq!(sg.hop_count(), 2);
        // Hop 1: TopK(2) of 5 clicks → the two largest timestamps (items
        // 104 and 103, ts 114 and 113).
        let hop1: Vec<u64> = sg.hops[0].flat().map(|v| v.raw()).collect();
        assert_eq!(hop1.len(), 2);
        assert!(hop1.contains(&104) && hop1.contains(&103), "{hop1:?}");
        // Hop 2: each item has 3 co-purchases, sampled down to 2.
        assert_eq!(sg.hops[1].groups.len(), 2);
        for (parent, children) in &sg.hops[1].groups {
            assert_eq!(children.len(), 2);
            for c in children {
                let expect_base = 200 + parent.raw() * 10;
                assert!((expect_base..expect_base + 3).contains(&c.raw()));
            }
        }
        // Features fetched for everything.
        assert_eq!(sg.feature_coverage(), 1.0);
        assert!(out.traversed >= 5 + 6, "traversed {}", out.traversed);
        assert!(!out.from_cache);
    }

    #[test]
    fn single_node_pays_no_network_rounds() {
        let db = GraphDb::new(GraphDbConfig::single_node());
        populate(&db);
        let mut rng = StdRng::seed_from_u64(2);
        let out = db.execute(VertexId(1), &two_hop_query(), &mut rng).unwrap();
        assert_eq!(out.network_rounds, 0);
        assert_eq!(db.network().stats().messages(), 0);
    }

    #[test]
    fn multi_node_pays_rounds_and_traffic() {
        let db = GraphDb::new(GraphDbConfig {
            nodes: 4,
            network: NetworkConfig {
                rtt: std::time::Duration::from_micros(1),
                bandwidth_bps: u64::MAX,
            },
            sync_replication: false,
            ..Default::default()
        });
        populate(&db);
        let mut rng = StdRng::seed_from_u64(3);
        let out = db.execute(VertexId(1), &two_hop_query(), &mut rng).unwrap();
        assert!(out.network_rounds > 0, "4-node deployment must pay rounds");
        assert!(db.network().stats().messages() > 0);
    }

    #[test]
    fn three_hop_costs_more_rounds_than_two_hop() {
        let cfgmk = || GraphDbConfig {
            nodes: 4,
            network: NetworkConfig {
                rtt: std::time::Duration::from_micros(1),
                bandwidth_bps: u64::MAX,
            },
            sync_replication: false,
            ..Default::default()
        };
        let db = GraphDb::new(cfgmk());
        // Chain graph: user clicks items, items co-purchase items, which
        // co-purchase more items.
        populate(&db);
        let mut extra = Vec::new();
        for i in 200..260u64 {
            for j in 0..2u64 {
                extra.push(edge(i * 10 + j, 0, COP, 0)); // filler
            }
        }
        let q2 = two_hop_query();
        let q3 = KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .hop(COP, ITEM, 2, SamplingStrategy::TopK)
            .hop(COP, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let r2 = db.execute(VertexId(1), &q2, &mut rng).unwrap();
        let r3 = db.execute(VertexId(1), &q3, &mut rng).unwrap();
        assert!(
            r3.network_rounds >= r2.network_rounds,
            "3-hop ({}) should cost at least as many rounds as 2-hop ({})",
            r3.network_rounds,
            r2.network_rounds
        );
    }

    #[test]
    fn query_cache_serves_until_write() {
        let db = GraphDb::new(GraphDbConfig {
            nodes: 1,
            network: NetworkConfig::zero(),
            sync_replication: false,
            query_cache: true,
            ..Default::default()
        });
        populate(&db);
        let mut rng = StdRng::seed_from_u64(5);
        let q = two_hop_query();
        let first = db.execute(VertexId(1), &q, &mut rng).unwrap();
        assert!(!first.from_cache);
        let second = db.execute(VertexId(1), &q, &mut rng).unwrap();
        assert!(second.from_cache);
        assert_eq!(second.subgraph, first.subgraph);
        // A write invalidates.
        db.ingest(&edge(1, 100, CLICK, 999)).unwrap();
        let third = db.execute(VertexId(1), &q, &mut rng).unwrap();
        assert!(!third.from_cache);
    }

    #[test]
    fn traversal_scales_with_degree_skew() {
        let db = GraphDb::new(GraphDbConfig::single_node());
        let mut updates = vec![vertex(1, USER, 1), vertex(2, USER, 1)];
        // Vertex 1: 1000 clicks (supernode); vertex 2: 3 clicks.
        for i in 0..1000u64 {
            updates.push(edge(1, 10_000 + i, CLICK, i));
        }
        for i in 0..3u64 {
            updates.push(edge(2, 20_000 + i, CLICK, i));
        }
        db.ingest_batch(&updates).unwrap();
        let q = KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let hot = db.execute(VertexId(1), &q, &mut rng).unwrap();
        let cold = db.execute(VertexId(2), &q, &mut rng).unwrap();
        assert_eq!(hot.traversed, 1000);
        assert_eq!(cold.traversed, 3);
    }

    #[test]
    fn missing_seed_returns_empty_result() {
        let db = GraphDb::new(GraphDbConfig::single_node());
        let mut rng = StdRng::seed_from_u64(7);
        let out = db
            .execute(VertexId(42), &two_hop_query(), &mut rng)
            .unwrap();
        assert_eq!(out.subgraph.sampled_edge_count(), 0);
        assert_eq!(out.traversed, 0);
    }

    #[test]
    fn ingest_totals_and_ttl() {
        let db = GraphDb::new(GraphDbConfig {
            nodes: 2,
            network: NetworkConfig::zero(),
            sync_replication: false,
            ..Default::default()
        });
        populate(&db);
        let (v, e) = db.totals();
        assert!(v > 0);
        assert_eq!(e, 5 + 15);
        let dropped = db.expire_before(Timestamp(60));
        assert!(dropped > 0);
        let (_, e2) = db.totals();
        assert!(e2 < e);
    }

    #[test]
    fn global_telemetry_counters_advance() {
        let g = helios_telemetry::global();
        let q0 = g.counter("graphdb.queries", &[]).get();
        let u0 = g.counter("graphdb.updates_ingested", &[]).get();
        let t0 = g.counter("graphdb.neighbors_traversed", &[]).get();
        let db = GraphDb::new(GraphDbConfig::single_node());
        populate(&db);
        let mut rng = StdRng::seed_from_u64(9);
        db.execute(VertexId(1), &two_hop_query(), &mut rng).unwrap();
        // Deltas, not absolutes: the registry is process-global and other
        // tests in this binary also bump it.
        assert!(g.counter("graphdb.queries", &[]).get() > q0);
        assert!(g.counter("graphdb.updates_ingested", &[]).get() > u0);
        assert!(g.counter("graphdb.neighbors_traversed", &[]).get() > t0);
        let snap = g.snapshot();
        assert!(snap.counter("graphdb.queries") > q0);
    }

    #[test]
    fn replication_generates_traffic() {
        let db = GraphDb::new(GraphDbConfig {
            nodes: 2,
            network: NetworkConfig {
                rtt: std::time::Duration::from_micros(1),
                bandwidth_bps: u64::MAX,
            },
            sync_replication: true,
            ..Default::default()
        });
        db.ingest(&edge(1, 2, CLICK, 1)).unwrap();
        assert!(db.network().stats().messages() >= 2, "write + ack");
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, Timestamp, VertexType, VertexUpdate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Queries and ingestion racing from many threads must neither panic
    /// nor produce structurally invalid results.
    #[test]
    fn concurrent_queries_and_ingest() {
        let db = Arc::new(GraphDb::new(GraphDbConfig {
            nodes: 2,
            compute_slots_per_node: 2,
            network: crate::netsim::NetworkConfig::zero(),
            sync_replication: false,
            query_cache: true,
            ..Default::default()
        }));
        let user = VertexType(0);
        let item = VertexType(1);
        let click = EdgeType(0);
        let mut setup = Vec::new();
        for u in 0..10u64 {
            setup.push(GraphUpdate::Vertex(VertexUpdate {
                vtype: user,
                id: VertexId(u),
                feature: vec![1.0; 4],
                ts: Timestamp(u),
            }));
        }
        db.ingest_batch(&setup).unwrap();

        let query = KHopQuery::builder(user)
            .hop(click, item, 3, SamplingStrategy::TopK)
            .build()
            .unwrap();

        let mut handles = Vec::new();
        // Two writer threads.
        for w in 0..2u64 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let e = GraphUpdate::Edge(EdgeUpdate {
                        etype: click,
                        src_type: user,
                        src: VertexId(i % 10),
                        dst_type: item,
                        dst: VertexId(1000 + w * 1000 + i),
                        ts: Timestamp(100 + i),
                        weight: 1.0,
                    });
                    db.ingest(&e).unwrap();
                }
            }));
        }
        // Four reader threads.
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            let q = query.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for i in 0..200u64 {
                    let out = db.execute(VertexId(i % 10), &q, &mut rng).unwrap();
                    assert!(out.subgraph.hops[0].edge_count() <= 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (_, edges) = db.totals();
        assert_eq!(edges, 1000);
    }
}

#[cfg(test)]
mod duplicate_frontier_tests {
    use super::*;
    use helios_types::{EdgeType, EdgeUpdate, Timestamp, VertexType, VertexUpdate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Regression: a vertex sampled under several parents (duplicate in
    /// the frontier) must keep its children at every occurrence.
    #[test]
    fn duplicate_frontier_vertices_keep_children() {
        let user = VertexType(0);
        let item = VertexType(1);
        let click = EdgeType(0);
        let cop = EdgeType(1);
        let db = GraphDb::new(GraphDbConfig::single_node());
        let mut updates = vec![GraphUpdate::Vertex(VertexUpdate {
            vtype: user,
            id: VertexId(1),
            feature: vec![1.0; 2],
            ts: Timestamp(1),
        })];
        // Two click edges to the SAME item → hop-1 frontier holds it twice.
        for ts in [10u64, 11] {
            updates.push(GraphUpdate::Edge(EdgeUpdate {
                etype: click,
                src_type: user,
                src: VertexId(1),
                dst_type: item,
                dst: VertexId(100),
                ts: Timestamp(ts),
                weight: 1.0,
            }));
        }
        updates.push(GraphUpdate::Edge(EdgeUpdate {
            etype: cop,
            src_type: item,
            src: VertexId(100),
            dst_type: item,
            dst: VertexId(200),
            ts: Timestamp(12),
            weight: 1.0,
        }));
        db.ingest_batch(&updates).unwrap();
        let q = KHopQuery::builder(user)
            .hop(click, item, 2, SamplingStrategy::TopK)
            .hop(cop, item, 2, SamplingStrategy::TopK)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = db.execute(VertexId(1), &q, &mut rng).unwrap();
        assert_eq!(out.subgraph.hops[1].groups.len(), 2);
        for (parent, children) in &out.subgraph.hops[1].groups {
            assert_eq!(*parent, VertexId(100));
            assert_eq!(
                children,
                &vec![VertexId(200)],
                "every occurrence keeps its subtree"
            );
        }
    }
}
