//! Slot-based assignment of seeds to logical serving workers.

use bytes::{Buf, BytesMut};
use helios_types::{hash::route, Decode, Encode, HeliosError, Result, ServingWorkerId, VertexId};

/// A routing table: `slots` hash buckets, each assigned to one logical
/// serving worker. Seeds route `seed → slot → worker`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// Number of logical serving workers (`assignment` values are `< workers`).
    workers: u32,
    /// Slot → logical serving worker.
    assignment: Vec<u32>,
}

impl RouteTable {
    /// The table for a deployment of `workers` serving workers: `slots`
    /// buckets dealt round-robin over them. Deterministic, so every
    /// sampling worker, the gateway and the deployment front-end
    /// independently build the identical table.
    pub fn initial(workers: usize, slots: usize) -> RouteTable {
        assert!(
            workers > 0 && slots >= workers,
            "need slots >= workers >= 1"
        );
        RouteTable {
            workers: workers as u32,
            assignment: (0..slots).map(|s| (s % workers) as u32).collect(),
        }
    }

    /// Number of logical serving workers.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Number of hash slots.
    pub fn slots(&self) -> usize {
        self.assignment.len()
    }

    /// The slot `v` hashes to.
    pub fn slot_of(&self, v: VertexId) -> usize {
        route(v.raw(), self.assignment.len())
    }

    /// The logical serving worker owning `v`.
    pub fn owner_of(&self, v: VertexId) -> ServingWorkerId {
        ServingWorkerId(self.assignment[self.slot_of(v)])
    }

    /// The slot → worker assignment.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }
}

impl Encode for RouteTable {
    fn encode(&self, buf: &mut BytesMut) {
        self.workers.encode(buf);
        self.assignment.encode(buf);
    }
}

impl Decode for RouteTable {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        let workers = u32::decode(buf)?;
        let assignment = Vec::<u32>::decode(buf)?;
        if workers == 0 || assignment.len() < workers as usize {
            return Err(HeliosError::Codec(format!(
                "route table with {workers} workers over {} slots",
                assignment.len()
            )));
        }
        if assignment.iter().any(|&w| w >= workers) {
            return Err(HeliosError::Codec("slot assigned past worker count".into()));
        }
        Ok(RouteTable {
            workers,
            assignment,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_covers_all_workers_evenly() {
        let t = RouteTable::initial(3, 64);
        assert_eq!(t.workers(), 3);
        assert_eq!(t.slots(), 64);
        let mut counts = [0usize; 3];
        for &w in t.assignment() {
            counts[w as usize] += 1;
        }
        assert!(counts.iter().all(|&c| (21..=22).contains(&c)), "{counts:?}");
    }

    #[test]
    fn owner_is_stable_per_vertex() {
        let t = RouteTable::initial(4, 64);
        for v in 0..1000u64 {
            assert_eq!(t.owner_of(VertexId(v)), t.owner_of(VertexId(v)));
            assert!(t.owner_of(VertexId(v)).0 < 4);
        }
    }

    #[test]
    fn codec_round_trips_and_rejects_inconsistent_tables() {
        let t = RouteTable::initial(3, 16);
        assert_eq!(
            RouteTable::decode_from_slice(&t.encode_to_bytes()).unwrap(),
            t
        );
        // workers = 0
        let mut buf = BytesMut::new();
        0u32.encode(&mut buf);
        vec![0u32; 4].encode(&mut buf);
        assert!(RouteTable::decode_from_slice(&buf).is_err());
        // fewer slots than workers
        let mut buf = BytesMut::new();
        4u32.encode(&mut buf);
        vec![0u32, 1].encode(&mut buf);
        assert!(RouteTable::decode_from_slice(&buf).is_err());
        // slot assigned past worker count
        let mut buf = BytesMut::new();
        2u32.encode(&mut buf);
        vec![0u32, 1, 2, 0].encode(&mut buf);
        assert!(RouteTable::decode_from_slice(&buf).is_err());
        // truncated
        let bytes = t.encode_to_bytes();
        assert!(RouteTable::decode_from_slice(&bytes[..bytes.len() - 1]).is_err());
    }
}
