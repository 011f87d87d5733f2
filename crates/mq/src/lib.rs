//! # helios-mq
//!
//! An in-process, partitioned, offset-addressed message queue — the
//! reproduction's stand-in for the Kafka cluster Helios deploys (§4.1:
//! "Helios adopts Kafka to persistently store and transfer the inputs for
//! sampling and serving workers").
//!
//! Semantics preserved from Kafka, because Helios depends on them:
//!
//! * **Topics split into partitions**; records within a partition are
//!   totally ordered and assigned monotonically increasing offsets.
//! * **Key-hashed routing**: producing with a key routes to
//!   `hash(key) % partitions`, so all updates of one vertex land in the
//!   same partition and are consumed in order.
//! * **Consumer groups with committed offsets**: consumers poll batches,
//!   blocking with a timeout, and commit their positions; a restarted
//!   consumer resumes from the last commit. A group that never committed
//!   resumes at the retained front (Kafka's `auto.offset.reset=earliest`).
//! * **Durability (optional)**: a topic may be backed by append-only
//!   segment files; [`Broker::recover_topic`] replays them on restart.
//! * **Retention**: Helios uses the log only as an ordered FIFO between
//!   tiers, so a partition keeps just what a reader may still read. Every
//!   live consumer's position and every committed offset is a registered
//!   reader; a poll frees the records below their minimum. A consumer
//!   that never polls pins the log until it is dropped, and a partition
//!   with no reader keeps everything. Freeing releases memory only:
//!   durable segments keep every record.
//!
//! What is deliberately *not* reproduced: the network protocol, replication,
//! and rebalancing — Helios's correctness and performance story needs the
//! log semantics, not the distributed implementation of the log itself.

pub mod broker;
pub mod consumer;
pub mod partition;
pub mod record;
pub mod segment;
pub mod topic;

pub use broker::{Broker, LagEntry};
pub use consumer::Consumer;
pub use record::Record;
pub use topic::{Topic, TopicConfig};
