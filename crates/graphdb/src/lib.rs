//! # helios-graphdb
//!
//! The baseline system: a distributed graph database *simulacrum* standing
//! in for TigerGraph/NebulaGraph (§3, §7.1). It executes sampling queries
//! the way a graph database must — **ad hoc, at query time** — and
//! therefore exhibits the two pathologies that motivate Helios:
//!
//! 1. **Degree-skew tail latency** (§3.1): every TopK/EdgeWeight hop scans
//!    the *entire* adjacency list of each frontier vertex; supernodes make
//!    some queries orders of magnitude more expensive than others.
//! 2. **Per-hop network rounds** (§3.2): the graph is hash-partitioned
//!    over storage nodes; each hop pays one request/response round per
//!    remote node holding frontier vertices, modelled (and slept) by
//!    [`netsim`].
//!
//! Also modelled, because the paper measures them:
//!
//! * **strong-consistency ingestion** — writes synchronously replicate to
//!   a peer node before acknowledging (Fig. 11's ingest gap);
//! * **per-node compute slots** — a storage node has a bounded number of
//!   query-execution threads, so concurrent queries queue (Figs. 9/10's
//!   latency blow-up under concurrency);
//! * **a Neo4j-style query cache** — invalidated wholesale by writes, so
//!   its hit ratio collapses on dynamic graphs (§1).

pub mod cache;
pub mod db;
pub mod netsim;
pub mod semaphore;

pub use cache::QueryCache;
pub use db::{ExecOutcome, GraphDb, GraphDbConfig};
pub use semaphore::Semaphore;
