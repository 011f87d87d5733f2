//! One partition of the dynamic graph: adjacency lists + feature table
//! (§4.2), with TTL expiry of stale data. The full-neighbour-list storage
//! that the [`crate::adhoc`] samplers traverse: each graph-database
//! baseline storage node owns one, and so does the GNN accuracy oracle.

use helios_types::{
    EdgeType, EdgeUpdate, FxHashMap, GraphUpdate, Timestamp, VertexId, VertexType, VertexUpdate,
};

/// An edge as stored in an adjacency list (source is implicit: the list's
/// owning vertex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredEdge {
    /// Destination vertex.
    pub dst: VertexId,
    /// Destination vertex label.
    pub dst_type: VertexType,
    /// Edge timestamp.
    pub ts: Timestamp,
    /// Edge weight.
    pub weight: f32,
}

#[derive(Debug, Default, Clone)]
struct VertexRecord {
    vtype: VertexType,
    feature: Vec<f32>,
    feature_ts: Timestamp,
    /// Out-adjacency grouped by edge label; appended in arrival order so
    /// lists are timestamp-sorted for monotone streams.
    adjacency: FxHashMap<EdgeType, Vec<StoredEdge>>,
}

/// A single partition of an append-only dynamic graph.
///
/// Not internally synchronized; owners (a graphdb storage node, a test)
/// wrap it in a lock if shared.
#[derive(Debug, Default)]
pub struct GraphPartition {
    vertices: FxHashMap<VertexId, VertexRecord>,
    edge_count: u64,
}

impl GraphPartition {
    /// Empty partition.
    pub fn new() -> Self {
        GraphPartition::default()
    }

    /// Apply one graph update (the edge must already be routed/oriented to
    /// this partition, see [`helios_types::PartitionPolicy::copies`]).
    pub fn apply(&mut self, update: &GraphUpdate) {
        match update {
            GraphUpdate::Vertex(v) => self.apply_vertex(v),
            GraphUpdate::Edge(e) => self.apply_edge(e),
        }
    }

    /// Insert/refresh a vertex and its feature.
    pub fn apply_vertex(&mut self, v: &VertexUpdate) {
        let rec = self.vertices.entry(v.id).or_default();
        rec.vtype = v.vtype;
        rec.feature = v.feature.clone();
        rec.feature_ts = v.ts;
    }

    /// Append an edge to `src`'s adjacency (creating the vertex record if
    /// the vertex update has not arrived yet — events may be reordered
    /// across partitions).
    pub fn apply_edge(&mut self, e: &EdgeUpdate) {
        let rec = self.vertices.entry(e.src).or_default();
        rec.vtype = e.src_type;
        rec.adjacency.entry(e.etype).or_default().push(StoredEdge {
            dst: e.dst,
            dst_type: e.dst_type,
            ts: e.ts,
            weight: e.weight,
        });
        self.edge_count += 1;
    }

    /// Out-neighbors of `v` over `etype` (empty if none).
    pub fn out_neighbors(&self, v: VertexId, etype: EdgeType) -> &[StoredEdge] {
        self.vertices
            .get(&v)
            .and_then(|r| r.adjacency.get(&etype))
            .map_or(&[], Vec::as_slice)
    }

    /// Out-degree of `v` over `etype`.
    pub fn out_degree(&self, v: VertexId, etype: EdgeType) -> usize {
        self.out_neighbors(v, etype).len()
    }

    /// Total out-degree of `v` across edge labels.
    pub fn total_out_degree(&self, v: VertexId) -> usize {
        self.vertices
            .get(&v)
            .map_or(0, |r| r.adjacency.values().map(Vec::len).sum())
    }

    /// Latest feature of `v`, if any.
    pub fn feature(&self, v: VertexId) -> Option<&[f32]> {
        self.vertices.get(&v).and_then(|r| {
            if r.feature.is_empty() {
                None
            } else {
                Some(r.feature.as_slice())
            }
        })
    }

    /// Timestamp of `v`'s latest feature write.
    pub fn feature_ts(&self, v: VertexId) -> Option<Timestamp> {
        self.vertices.get(&v).and_then(|r| {
            if r.feature.is_empty() {
                None
            } else {
                Some(r.feature_ts)
            }
        })
    }

    /// Label of `v`, if known.
    pub fn vertex_type(&self, v: VertexId) -> Option<VertexType> {
        self.vertices.get(&v).map(|r| r.vtype)
    }

    /// Number of vertices known to this partition.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of stored edges.
    pub fn edge_count(&self) -> u64 {
        self.edge_count
    }

    /// All vertex ids (unordered).
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.keys().copied()
    }

    /// TTL expiry: drop edges older than `horizon` and features last
    /// written before it; remove vertex records that end up empty.
    /// Returns (edges dropped, features dropped).
    pub fn expire_before(&mut self, horizon: Timestamp) -> (u64, u64) {
        let mut edges_dropped = 0u64;
        let mut features_dropped = 0u64;
        self.vertices.retain(|_, rec| {
            for list in rec.adjacency.values_mut() {
                let before = list.len();
                list.retain(|e| e.ts >= horizon);
                edges_dropped += (before - list.len()) as u64;
            }
            rec.adjacency.retain(|_, l| !l.is_empty());
            if !rec.feature.is_empty() && rec.feature_ts < horizon {
                rec.feature.clear();
                features_dropped += 1;
            }
            !rec.adjacency.is_empty() || !rec.feature.is_empty()
        });
        self.edge_count -= edges_dropped;
        (edges_dropped, features_dropped)
    }

    /// Approximate heap footprint in bytes (dataset sizing, Fig. 16's
    /// denominator).
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.vertices.capacity()
            * (std::mem::size_of::<VertexId>() + std::mem::size_of::<VertexRecord>());
        for rec in self.vertices.values() {
            total += rec.feature.capacity() * 4;
            for list in rec.adjacency.values() {
                total += list.capacity() * std::mem::size_of::<StoredEdge>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex(id: u64, vt: u16, ts: u64) -> VertexUpdate {
        VertexUpdate {
            vtype: VertexType(vt),
            id: VertexId(id),
            feature: vec![id as f32; 4],
            ts: Timestamp(ts),
        }
    }

    fn edge(src: u64, dst: u64, et: u16, ts: u64) -> EdgeUpdate {
        EdgeUpdate {
            etype: EdgeType(et),
            src_type: VertexType(0),
            src: VertexId(src),
            dst_type: VertexType(1),
            dst: VertexId(dst),
            ts: Timestamp(ts),
            weight: 1.0,
        }
    }

    #[test]
    fn apply_and_read_back() {
        let mut p = GraphPartition::new();
        p.apply(&GraphUpdate::Vertex(vertex(1, 0, 10)));
        p.apply(&GraphUpdate::Edge(edge(1, 2, 0, 11)));
        p.apply(&GraphUpdate::Edge(edge(1, 3, 0, 12)));
        p.apply(&GraphUpdate::Edge(edge(1, 4, 1, 13)));

        assert_eq!(p.out_degree(VertexId(1), EdgeType(0)), 2);
        assert_eq!(p.out_degree(VertexId(1), EdgeType(1)), 1);
        assert_eq!(p.total_out_degree(VertexId(1)), 3);
        assert_eq!(
            p.out_neighbors(VertexId(1), EdgeType(0))[0].dst,
            VertexId(2)
        );
        assert_eq!(p.feature(VertexId(1)).unwrap(), &[1.0; 4]);
        assert_eq!(p.feature_ts(VertexId(1)), Some(Timestamp(10)));
        assert_eq!(p.vertex_type(VertexId(1)), Some(VertexType(0)));
        assert_eq!(p.edge_count(), 3);
        assert!(p.out_neighbors(VertexId(9), EdgeType(0)).is_empty());
    }

    #[test]
    fn edge_before_vertex_is_tolerated() {
        let mut p = GraphPartition::new();
        p.apply_edge(&edge(5, 6, 0, 1));
        assert_eq!(p.out_degree(VertexId(5), EdgeType(0)), 1);
        assert!(p.feature(VertexId(5)).is_none(), "no feature yet");
        p.apply_vertex(&vertex(5, 0, 2));
        assert!(p.feature(VertexId(5)).is_some());
        assert_eq!(p.out_degree(VertexId(5), EdgeType(0)), 1, "adjacency kept");
    }

    #[test]
    fn feature_update_replaces() {
        let mut p = GraphPartition::new();
        p.apply_vertex(&vertex(1, 0, 10));
        let mut v2 = vertex(1, 0, 20);
        v2.feature = vec![9.0; 4];
        p.apply_vertex(&v2);
        assert_eq!(p.feature(VertexId(1)).unwrap(), &[9.0; 4]);
        assert_eq!(p.feature_ts(VertexId(1)), Some(Timestamp(20)));
        assert_eq!(p.vertex_count(), 1);
    }

    #[test]
    fn ttl_expiry() {
        let mut p = GraphPartition::new();
        p.apply_vertex(&vertex(1, 0, 5));
        for (dst, ts) in [(2u64, 10u64), (3, 20), (4, 30)] {
            p.apply_edge(&edge(1, dst, 0, ts));
        }
        let (e, f) = p.expire_before(Timestamp(15));
        assert_eq!(e, 1);
        assert_eq!(f, 1, "feature written at ts 5 expires");
        assert_eq!(p.out_degree(VertexId(1), EdgeType(0)), 2);
        assert_eq!(p.edge_count(), 2);

        // Everything gone → vertex record removed.
        let (e, _f) = p.expire_before(Timestamp(100));
        assert_eq!(e, 2);
        assert_eq!(p.vertex_count(), 0);
    }

    #[test]
    fn memory_accounting_grows_with_edges() {
        let mut p = GraphPartition::new();
        let before = p.memory_bytes();
        for i in 0..1000u64 {
            p.apply_edge(&edge(i % 10, i, 0, i));
        }
        assert!(p.memory_bytes() > before);
    }

    #[test]
    fn vertex_ids_iterates_everything() {
        let mut p = GraphPartition::new();
        p.apply_vertex(&vertex(1, 0, 1));
        p.apply_edge(&edge(2, 3, 0, 1));
        let mut ids: Vec<u64> = p.vertex_ids().map(|v| v.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
    }
}
