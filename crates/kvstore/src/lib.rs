//! # helios-kvstore
//!
//! A sharded, LSM-flavoured key-value store — the reproduction's stand-in
//! for RocksDB's *hybrid memory-disk mode*, which the paper uses to back
//! the sample table and feature table of each serving worker (§6).
//!
//! Shape of the implementation:
//!
//! * the key space is sharded by hash across `shards` independent shards,
//!   each with its own lock (writes from data-updating threads and reads
//!   from serving threads rarely contend);
//! * each shard has an **active memtable** (a hash table keyed by an
//!   inline key hashed once per operation — every read is a point
//!   lookup; newest values win); when it exceeds its budget it is
//!   *rotated* onto an immutable list under the brief write lock and a
//!   **background flusher thread** sorts it into an immutable **SST
//!   file** (bloom filter + sparse index) — `put`/`write_batch` never
//!   touch the filesystem;
//! * `get`/`multi_get` consult active → immutables → SSTs newest →
//!   oldest, probing the SSTs *outside* the shard lock against a
//!   copy-on-write run-list snapshot, through a shared, sharded CLOCK
//!   **block cache** of index granules;
//! * a **background compaction thread** k-way-stream-merges the oldest
//!   runs of a shard once it crosses `l0_compact_trigger`, dropping
//!   tombstones and TTL-expired entries (§6's "time-to-live threshold to
//!   remove the stale data in the sample cache") without materializing
//!   runs in memory; `compact_blocking()` remains for tests/shutdown;
//! * deletes write **tombstones** (needed when a serving worker evicts
//!   cache entries after an unsubscribe message, §5.3);
//! * memory/disk byte accounting feeds the Fig. 16 cache-ratio
//!   experiment, plus flush/stall/compaction-debt/cache-hit counters for
//!   the ops plane.
//!
//! Not reproduced from RocksDB: the WAL (callers that need durability —
//! the checkpoint path — write through `helios-mq` segments instead),
//! leveled compaction, column families, snapshots.

pub mod bloom;
pub mod cache;
mod compaction;
mod flusher;
mod memtable;
pub mod sst;
pub mod store;

pub use bloom::BloomFilter;
pub use cache::BlockCache;
pub use memtable::{InlineKey, INLINE_KEY_CAP};
pub use store::{EventHook, KvConfig, KvEvent, KvMemGauges, KvStats, KvStore, WriteOp};
