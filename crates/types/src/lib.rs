//! # helios-types
//!
//! Foundation types shared by every Helios crate: identifiers for graph
//! entities and workers, graph-update events, a fast non-cryptographic
//! hasher used for partition routing, a compact binary wire encoding
//! (used by the message queue and KV store), logical timestamps, and the
//! common error type.
//!
//! Helios (PPoPP'25) models a dynamic graph as an append-only stream of
//! [`GraphUpdate`] events: vertex insertions/feature updates and edge
//! insertions (§4.2 of the paper). Everything downstream — reservoir
//! pre-sampling, subscription propagation, the query-aware sample cache —
//! consumes these events.

pub mod affinity;
pub mod encode;
pub mod error;
pub mod event;
pub mod hash;
pub mod ids;
pub mod mem;
pub mod policy;
pub mod profile;
pub mod time;

pub use encode::{Decode, Encode};
pub use error::{HeliosError, Result};
pub use event::{EdgeUpdate, GraphUpdate, VertexUpdate};
pub use hash::{fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{
    EdgeType, PartitionId, QueryHopId, SamplingWorkerId, ServingWorkerId, VertexId, VertexType,
};
pub use mem::MemGauge;
pub use policy::PartitionPolicy;
pub use time::{LogicalClock, Timestamp};
