//! # helios-sampling
//!
//! Event-driven reservoir sampling (§5.2 of the Helios paper) plus the
//! ad-hoc (full-traversal) samplers used by the graph-database baseline,
//! and the [`graph`] partitions they traverse.
//!
//! Helios's key trick is maintaining, for every one-hop query and every
//! target vertex, a **reservoir** of sampled neighbors that is refreshed
//! incrementally as edge updates stream in — so a sampling query at
//! inference time never traverses adjacency lists. Three strategies are
//! supported, matching the paper:
//!
//! * **Random** — Vitter's Algorithm R: the p-th incoming edge replaces a
//!   random slot with probability `C/p`, yielding a uniform sample over
//!   the whole stream.
//! * **TopK** — timestamp TopK: keep the `C` neighbors with the largest
//!   timestamps ("latest-K" recency sampling); an incoming edge evicts
//!   the oldest sample.
//! * **EdgeWeight** — Efraimidis–Spirakis weighted reservoir (A-Res): each
//!   edge draws key `u^(1/w)`; the reservoir keeps the `C` largest keys,
//!   yielding inclusion probability proportional to weight.
//!
//! The crucial property, proven by the property tests in this crate, is
//! that the *distribution* of the reservoir equals the distribution of an
//! ad-hoc sample over the full neighbor list — pre-sampling changes the
//! cost model, not the statistics.

pub mod adhoc;
pub mod graph;
pub mod reservoir;
pub mod table;

pub use adhoc::{adhoc_random, adhoc_topk, adhoc_weighted};
pub use graph::{GraphPartition, StoredEdge};
pub use reservoir::{Reservoir, ReservoirOutcome, SampleEntry, SamplingStrategy};
pub use table::ReservoirTable;
