//! Elastic membership for Helios serving workers (§4, Figs. 13–14).
//!
//! The paper's third contribution is that sampling and serving scale
//! *independently*. This crate holds the pieces that make the serving
//! side elastic on a **running** deployment:
//!
//! * [`RouteTable`] — an epoch-versioned slot→worker assignment. Seeds
//!   hash to a fixed number of slots, slots map to logical serving
//!   workers, and a rescale moves only the minimal set of slots, so most
//!   cached state stays where it is (consistent-hashing-style minimal
//!   disruption without the ring bookkeeping).
//! * [`Router`] — an atomically swappable handle to the current table,
//!   consulted by every ingest/serve/freshness path instead of the old
//!   inline `route(seed, N)` hash.
//! * [`ScaleController`] — hysteresis-damped scale-out/scale-in decisions
//!   from the telemetry signals the ops plane already produces (consumer
//!   lag, freshness SLO burn rate, serve p99).
//!
//! The handoff protocol itself (Prepare, Commit and Abort scans sent to
//! every sampling shard's mailbox, charging new owners via the §5.3
//! idempotent subscription-snapshot path, catch-up watermark, commit,
//! refcounted discharge of old owners) lives in `helios-core::rescale`;
//! this crate is deliberately mechanism-only so it stays unit-testable
//! without a deployment.

mod controller;
mod table;

pub use controller::{ScaleController, ScaleDecision, ScalePolicy, ScaleSignals};
pub use table::{RouteTable, Router};
