//! Seed routing for Helios serving workers (§4).
//!
//! Seeds hash to a fixed number of slots, and slots are dealt
//! round-robin over the deployment's logical serving workers. The
//! [`RouteTable`] is a pure function of `(workers, slots)`, so every
//! process — the gateway, every sampling worker, the in-process
//! front-end — builds the identical table from its own config and never
//! needs to exchange it. A deployment's serving topology is fixed for
//! its lifetime; sampling and serving scale independently by starting
//! deployments of different sizes (Fig. 14).

mod table;

pub use table::RouteTable;
