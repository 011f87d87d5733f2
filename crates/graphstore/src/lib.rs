//! # helios-graphstore
//!
//! Dynamic graph storage: adjacency lists + vertex feature table for one
//! partition of an append-only dynamic graph (§4.2). Used by
//!
//! * the graph-database baseline (`helios-graphdb`), where each simulated
//!   storage node owns one [`GraphPartition`] and runs ad-hoc traversals
//!   over it, and
//! * Helios sampling workers, whose feature tables are the same structure
//!   minus adjacency (they keep reservoirs instead of full adjacency).
//!
//! Also implements TTL expiry of stale graph data. The paper's three edge
//! partition policies live in `helios_types::PartitionPolicy`.

pub mod partition;

pub use partition::{GraphPartition, StoredEdge};
