//! Edge partition policies (§4.2).

use crate::{EdgeUpdate, VertexId};

/// How edge updates are assigned to graph partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// Partition by the source vertex id: partition(v) can answer
    /// out-neighbor queries for v. The default for directed graphs.
    #[default]
    BySrc,
    /// Partition by the destination vertex id.
    ByDest,
    /// Replicate in both endpoint partitions, storing the reversed edge at
    /// the destination — the treatment for undirected graphs.
    Both,
}

impl PartitionPolicy {
    /// The routed copies an edge update expands to: `(routing vertex,
    /// edge-as-stored)` pairs. The stored edge is always oriented so that
    /// its `src` equals the routing vertex, which lets every partition
    /// answer "out-neighbors of my local vertices" locally.
    pub fn copies(self, e: &EdgeUpdate) -> Vec<(VertexId, EdgeUpdate)> {
        match self {
            PartitionPolicy::BySrc => vec![(e.src, e.clone())],
            PartitionPolicy::ByDest => vec![(e.dst, e.reversed())],
            PartitionPolicy::Both => {
                if e.src == e.dst {
                    // Self-loop: one copy is enough.
                    vec![(e.src, e.clone())]
                } else {
                    vec![(e.src, e.clone()), (e.dst, e.reversed())]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeType, Timestamp, VertexType};

    fn edge(src: u64, dst: u64) -> EdgeUpdate {
        EdgeUpdate {
            etype: EdgeType(1),
            src_type: VertexType(0),
            src: VertexId(src),
            dst_type: VertexType(1),
            dst: VertexId(dst),
            ts: Timestamp(9),
            weight: 2.0,
        }
    }

    #[test]
    fn by_src_routes_to_source() {
        let copies = PartitionPolicy::BySrc.copies(&edge(1, 2));
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].0, VertexId(1));
        assert_eq!(copies[0].1.src, VertexId(1));
    }

    #[test]
    fn by_dest_routes_to_destination_reversed() {
        let copies = PartitionPolicy::ByDest.copies(&edge(1, 2));
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].0, VertexId(2));
        // Stored oriented from the routing vertex:
        assert_eq!(copies[0].1.src, VertexId(2));
        assert_eq!(copies[0].1.dst, VertexId(1));
    }

    #[test]
    fn both_replicates_in_both_partitions() {
        let copies = PartitionPolicy::Both.copies(&edge(1, 2));
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[0].0, VertexId(1));
        assert_eq!(copies[1].0, VertexId(2));
        assert_eq!(copies[1].1.src, VertexId(2));
    }

    #[test]
    fn self_loop_not_duplicated_under_both() {
        let copies = PartitionPolicy::Both.copies(&edge(3, 3));
        assert_eq!(copies.len(), 1);
    }

    #[test]
    fn invariant_src_equals_routing_vertex() {
        for policy in [
            PartitionPolicy::BySrc,
            PartitionPolicy::ByDest,
            PartitionPolicy::Both,
        ] {
            for (route, stored) in policy.copies(&edge(10, 20)) {
                assert_eq!(route, stored.src, "{policy:?}");
            }
        }
    }
}
