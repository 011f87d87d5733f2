//! The sharded store: active + immutable memtables and SST runs per
//! shard, with flushing and compaction on dedicated background threads.
//!
//! ## Hot-path discipline (hybrid mode)
//!
//! No request-path operation performs disk I/O under a shard lock:
//!
//! * `put`/`write_batch` insert into the shard's *active* memtable under
//!   the write lock; when the shard goes over budget the active table is
//!   swapped (still under that brief lock) onto an immutable list and the
//!   shard index is enqueued to the background flusher — the writer never
//!   touches the filesystem. When the immutable backlog is full
//!   ([`KvConfig::max_immutable_memtables`]) the writer *stalls* outside
//!   any lock until the flusher drains one, accumulating
//!   [`KvStats::stall_nanos`].
//! * `get`/`multi_get` resolve from active → immutables under the read
//!   lock, then clone the shard's copy-on-write run list (`Arc<Vec<Run>>`)
//!   and probe SSTs *after dropping the lock*. This is safe because data
//!   only ever moves down the hierarchy (active → immutable → SST) and an
//!   unlinked SST file stays readable through its held file handle.
//! * The flusher and compactor write SST files with no locks held and
//!   install them with a short write lock whose scope is a list swap.
//!
//! ## On-disk naming and reopen
//!
//! SST files are named `g{gen:010}-{id:010}.sst`. The *generation* is
//! assigned monotonically by the flusher (FIFO per shard), and a
//! compaction output takes the generation of its **oldest** input — so
//! sorting a directory's files by `(gen desc, id desc)` reconstructs
//! run recency even across flush/compaction interleavings and crashes
//! (a compaction output left beside its inputs is shadowed by any newer
//! input and shadows the equal-generation oldest one, both consistent).
//! Legacy `{id:010}.sst` files read as `gen = id`. Reopen routes each
//! file to its shard by hashing its first key (every key of an SST
//! hashed to the shard that flushed it) and resumes the id/generation
//! counters past the maximum found, so live runs are never clobbered.

use crate::cache::BlockCache;
use crate::memtable::{shard_of, InlineKey, Memtable};
use crate::sst::{Sst, StoredValue};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use helios_types::{MemGauge, Result, Timestamp};
use parking_lot::{Condvar, Mutex, RwLock};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flusher-channel sentinel: wake without a shard to flush (shutdown).
pub(crate) const FLUSH_WAKE: usize = usize::MAX;

/// Byte gauges the store mirrors its exact internal accounting into, so
/// a deployment's memory accountant can export
/// `mem.bytes{component=...}` without polling. Every adjustment happens
/// on an alloc/free site the store already tracks (`Shard::mem_bytes`,
/// `CacheShard::bytes`, `Sst::meta_bytes`); the mirror is one relaxed
/// atomic per site. The defaults are fresh unobserved cells — an
/// unwired store accounts into the void at negligible cost.
#[derive(Debug, Clone, Default)]
pub struct KvMemGauges {
    /// Active + immutable memtable bytes (falls on flush/expiry/drop).
    pub memtable: MemGauge,
    /// Block-cache resident data bytes (falls on eviction/purge/drop).
    pub block_cache: MemGauge,
    /// Decoded SST metadata — bloom filters + sparse indexes — charged
    /// at open, released when the `Sst` instance drops.
    pub sst_index: MemGauge,
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Number of independent shards (lock domains).
    pub shards: usize,
    /// Active-memtable byte budget per shard before it is rotated onto
    /// the immutable list and queued for a background flush. Ignored in
    /// pure-memory mode (no `dir`).
    pub memtable_budget: usize,
    /// Directory for SST files. `None` = pure in-memory store.
    pub dir: Option<PathBuf>,
    /// Background compaction fires for a shard once its run count
    /// reaches this.
    pub l0_compact_trigger: usize,
    /// Per-shard bound on unflushed immutable memtables; writers stall
    /// (outside locks) when a shard's backlog is full.
    pub max_immutable_memtables: usize,
    /// Block-cache capacity in bytes, shared across all shards of the
    /// store. `0` disables the cache.
    pub block_cache_bytes: usize,
    /// Gauges the store mirrors its byte accounting into (memtables,
    /// block cache, SST metadata). Default: fresh unobserved cells.
    pub mem: KvMemGauges,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            shards: 8,
            memtable_budget: 4 << 20,
            dir: None,
            l0_compact_trigger: 4,
            max_immutable_memtables: 4,
            block_cache_bytes: 32 << 20,
            mem: KvMemGauges::default(),
        }
    }
}

impl KvConfig {
    /// Pure in-memory configuration with `shards` shards.
    pub fn in_memory(shards: usize) -> Self {
        KvConfig {
            shards,
            ..Default::default()
        }
    }

    /// Hybrid memory/disk configuration (the paper's RocksDB mode).
    pub fn hybrid(shards: usize, memtable_budget: usize, dir: PathBuf) -> Self {
        KvConfig {
            shards,
            memtable_budget,
            dir: Some(dir),
            ..Default::default()
        }
    }
}

/// Aggregate size statistics, the measurement behind Fig. 16.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KvStats {
    /// Live + tombstone entries in memtables (active + immutable).
    pub mem_entries: usize,
    /// Approximate memtable bytes (active + immutable).
    pub mem_bytes: usize,
    /// Number of SST files.
    pub sst_files: usize,
    /// Bytes on disk across SSTs.
    pub disk_bytes: u64,
    /// Memtable flushes performed since open (SST files written).
    pub flushes: u64,
    /// Compaction merge passes actually performed since open (per-shard;
    /// no-op calls do not count).
    pub compactions: u64,
    /// Immutable memtables awaiting background flush.
    pub immutable_memtables: usize,
    /// Bytes held in immutable memtables awaiting flush.
    pub immutable_bytes: usize,
    /// Block-cache granule hits since open.
    pub block_cache_hits: u64,
    /// Block-cache granule misses since open.
    pub block_cache_misses: u64,
    /// Total nanoseconds writers spent stalled on a full immutable
    /// backlog.
    pub stall_nanos: u64,
    /// Σ over shards of `max(0, runs − l0_compact_trigger)`: how far the
    /// store is behind on compaction.
    pub compaction_debt: u64,
}

impl KvStats {
    /// Total footprint (memory + disk), the numerator of the cache ratio.
    pub fn total_bytes(&self) -> u64 {
        self.mem_bytes as u64 + self.disk_bytes
    }
}

/// An event fired by the store's background machinery. Consumers (the
/// deployment layer) forward these to the flight recorder; the store
/// itself has no telemetry dependency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvEvent {
    /// An immutable memtable was flushed to an SST.
    Flush {
        /// Shard index.
        shard: usize,
        /// Entries written.
        entries: usize,
        /// Approximate memtable bytes flushed.
        bytes: usize,
        /// Immutable memtables still pending store-wide after this flush.
        pending: usize,
    },
    /// A compaction merge pass replaced a run tail with one output.
    Compaction {
        /// Shard index.
        shard: usize,
        /// Input runs merged.
        runs_in: usize,
        /// Surviving entries written to the output.
        entries_out: u64,
        /// Output bytes on disk (0 when everything was dropped).
        bytes_out: u64,
    },
    /// A writer stalled on a full immutable backlog.
    Stall {
        /// Stall duration in nanoseconds.
        nanos: u64,
    },
}

/// Callback invoked by background threads (and stalling writers) on
/// [`KvEvent`]s. Must be cheap and non-blocking.
pub type EventHook = Arc<dyn Fn(&KvEvent) + Send + Sync>;

/// One SST run of a shard, newest first in `Shard::runs`.
#[derive(Clone)]
pub(crate) struct Run {
    pub(crate) gen: u64,
    pub(crate) id: u64,
    pub(crate) sst: Arc<Sst>,
}

/// A frozen memtable awaiting flush. `seq` identifies it in the shard's
/// immutable list (the flusher removes exactly the one it wrote).
pub(crate) struct ImmMemtable {
    pub(crate) seq: u64,
    pub(crate) entries: Memtable,
    pub(crate) bytes: usize,
}

pub(crate) struct Shard {
    /// The mutable memtable all writes land in.
    pub(crate) active: Memtable,
    /// Approximate bytes in `active` only.
    pub(crate) mem_bytes: usize,
    /// Frozen memtables, newest first, awaiting the background flusher.
    pub(crate) immutables: Vec<Arc<ImmMemtable>>,
    /// SST runs, newest first. Copy-on-write: readers clone the `Arc`
    /// under the read lock and probe the files lock-free.
    pub(crate) runs: Arc<Vec<Run>>,
    /// Store-wide memtable byte gauge (every shard shares one cell);
    /// mirrors active + immutable bytes for the memory accountant.
    pub(crate) mem: MemGauge,
}

impl Shard {
    fn new(runs: Vec<Run>, mem: MemGauge) -> Self {
        Shard {
            active: Memtable::default(),
            mem_bytes: 0,
            immutables: Vec::new(),
            runs: Arc::new(runs),
            mem,
        }
    }

    /// Memtable-only lookup (active, then immutables newest → oldest);
    /// the caller holds the shard lock. SSTs are probed by the caller
    /// after dropping it.
    fn mem_get(&self, key: &InlineKey) -> Option<&StoredValue> {
        if let Some(sv) = self.active.get(key) {
            return Some(sv);
        }
        for imm in &self.immutables {
            if let Some(sv) = imm.entries.get(key) {
                return Some(sv);
            }
        }
        None
    }

    /// Insert one entry, maintaining the byte accounting. Takes the key by
    /// value so batched writers hand ownership straight to the memtable.
    fn insert(&mut self, key: InlineKey, sv: StoredValue) {
        let klen = key.as_bytes().len();
        let add = klen + sv.footprint();
        if let Some(old) = self.active.insert(key, sv) {
            self.mem_bytes = self.mem_bytes.saturating_sub(old.footprint());
            self.mem_bytes += add - klen;
            self.mem
                .add_signed((add - klen) as i64 - old.footprint() as i64);
        } else {
            self.mem_bytes += add;
            self.mem.add(add);
        }
    }
}

/// One operation of a [`KvStore::write_batch`].
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert or overwrite a key.
    Put {
        /// The key, already hashed (the memtable takes it as it is).
        key: InlineKey,
        /// Value bytes.
        value: Bytes,
        /// Write timestamp (drives TTL expiry).
        ts: Timestamp,
    },
    /// Delete a key (tombstone).
    Delete {
        /// The key, already hashed.
        key: InlineKey,
        /// Tombstone timestamp.
        ts: Timestamp,
    },
}

impl WriteOp {
    /// A put operation.
    pub fn put(key: impl AsRef<[u8]>, value: Bytes, ts: Timestamp) -> Self {
        WriteOp::Put {
            key: InlineKey::new(key.as_ref()),
            value,
            ts,
        }
    }

    /// A delete (tombstone) operation.
    pub fn delete(key: impl AsRef<[u8]>, ts: Timestamp) -> Self {
        WriteOp::Delete {
            key: InlineKey::new(key.as_ref()),
            ts,
        }
    }

    /// The key this operation touches.
    pub fn key(&self) -> &[u8] {
        self.inline_key().as_bytes()
    }

    fn inline_key(&self) -> &InlineKey {
        match self {
            WriteOp::Put { key, .. } | WriteOp::Delete { key, .. } => key,
        }
    }

    fn into_parts(self) -> (InlineKey, StoredValue) {
        match self {
            WriteOp::Put { key, value, ts } => (key, StoredValue::live(value, ts)),
            WriteOp::Delete { key, ts } => (key, StoredValue::tombstone(ts)),
        }
    }
}

/// Reusable per-thread buffers of [`KvStore::multi_get_into`] (which is
/// `&self` from any number of reader threads): at steady state a batch
/// allocates nothing.
#[derive(Default)]
struct MultiGetScratch {
    /// Hash of each input key, by input position.
    hashes: Vec<u64>,
    /// Shard of each input key, by input position.
    shard_at: Vec<u32>,
    /// Per shard, where its range of `order` ends (counts, then start
    /// offsets, while the counting pass runs).
    ends: Vec<u32>,
    /// Input positions bucketed by shard; input order within a shard.
    order: Vec<u32>,
    /// Positions of one shard that its memtables did not resolve.
    pending: Vec<u32>,
}

thread_local! {
    static MULTI_GET_SCRATCH: RefCell<MultiGetScratch> = RefCell::default();
}

/// Resolve a found entry under the sticky TTL horizon. Terminal: older
/// shadowed versions are at least as old, so there is no fall-through.
#[inline]
fn resolve(sv: &StoredValue, horizon: u64) -> Option<Bytes> {
    if sv.tombstone || (horizon > 0 && sv.ts.millis() < horizon) {
        None
    } else {
        Some(sv.data.clone())
    }
}

/// Shared state between the front-end handle and the background threads.
pub(crate) struct StoreInner {
    pub(crate) config: KvConfig,
    pub(crate) shards: Vec<RwLock<Shard>>,
    /// Granule cache shared by every SST of the store (hybrid only, and
    /// only when `block_cache_bytes > 0`).
    pub(crate) cache: Option<Arc<BlockCache>>,
    pub(crate) next_sst_id: AtomicU64,
    pub(crate) next_gen: AtomicU64,
    next_rotation: AtomicU64,
    pub(crate) flushes: AtomicU64,
    pub(crate) compactions: AtomicU64,
    pub(crate) stall_nanos: AtomicU64,
    /// Store-wide count of immutable memtables awaiting flush.
    pub(crate) imm_count: AtomicUsize,
    /// Sticky TTL horizon in millis (0 = none): reads hide anything
    /// older, ahead of physical reclamation by compaction.
    pub(crate) ttl_horizon: AtomicU64,
    /// Set by `expire_before`; tells the compactor to sweep every shard
    /// (not just over-trigger ones) folding the horizon into the merge.
    pub(crate) ttl_dirty: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// Test/ops hook: a paused flusher accumulates backlog (wedge drill).
    pub(crate) flush_paused: AtomicBool,
    /// Condvar home for stalling writers and `flush()` waiters; the
    /// flusher notifies after every drain.
    pub(crate) flush_sync: Mutex<()>,
    pub(crate) flush_cv: Condvar,
    /// Serializes compaction passes (background vs `compact_blocking`).
    pub(crate) maintenance: Mutex<()>,
    hook: RwLock<Option<EventHook>>,
    flush_tx: Option<Sender<usize>>,
    compact_tx: Option<Sender<()>>,
}

impl StoreInner {
    pub(crate) fn sst_path(&self, gen: u64, id: u64) -> PathBuf {
        let dir = self.config.dir.as_ref().expect("hybrid mode");
        dir.join(format!("g{gen:010}-{id:010}.sst"))
    }

    pub(crate) fn open_sst(&self, path: &Path) -> Result<Sst> {
        Sst::open_accounted(
            path,
            self.cache.clone(),
            Some(self.config.mem.sst_index.clone()),
        )
    }

    pub(crate) fn fire(&self, ev: &KvEvent) {
        if let Some(hook) = self.hook.read().as_ref() {
            hook(ev);
        }
    }

    pub(crate) fn nudge_compactor(&self) {
        if let Some(tx) = &self.compact_tx {
            let _ = tx.send(());
        }
    }

    /// Freeze the active memtable onto the immutable list and enqueue it
    /// for the flusher. Caller holds the shard's write lock — the send
    /// under the lock is what keeps per-shard flush requests FIFO.
    fn rotate_locked(&self, idx: usize, shard: &mut Shard) {
        if shard.active.is_empty() {
            return;
        }
        let imm = Arc::new(ImmMemtable {
            seq: self.next_rotation.fetch_add(1, Ordering::Relaxed),
            entries: std::mem::take(&mut shard.active),
            bytes: std::mem::replace(&mut shard.mem_bytes, 0),
        });
        shard.immutables.insert(0, imm);
        self.imm_count.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = &self.flush_tx {
            let _ = tx.send(idx);
        }
    }

    /// Post-insert bookkeeping under the held write lock. Returns true
    /// when the backlog is full and the caller must stall outside the
    /// lock.
    fn over_budget_locked(&self, idx: usize, shard: &mut Shard) -> bool {
        if self.config.dir.is_none() || shard.mem_bytes <= self.config.memtable_budget {
            return false;
        }
        if shard.immutables.len() < self.config.max_immutable_memtables {
            self.rotate_locked(idx, shard);
            false
        } else {
            true
        }
    }

    /// Writer stall: the shard is over budget but its immutable backlog
    /// is full. Wait (lock-free w.r.t. the shard) for the flusher to
    /// drain one, then rotate. Time spent here is the write-stall metric.
    fn stall_rotate(&self, idx: usize) {
        let t0 = Instant::now();
        loop {
            {
                let mut shard = self.shards[idx].write();
                if shard.mem_bytes <= self.config.memtable_budget {
                    break; // another writer rotated for us
                }
                if shard.immutables.len() < self.config.max_immutable_memtables {
                    self.rotate_locked(idx, &mut shard);
                    break;
                }
            }
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let mut g = self.flush_sync.lock();
            let _ = self.flush_cv.wait_for(&mut g, Duration::from_millis(5));
        }
        let nanos = t0.elapsed().as_nanos() as u64;
        self.stall_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.fire(&KvEvent::Stall { nanos });
    }

    /// Expire the *active* memtable in place (no I/O): drop live entries
    /// older than `h`, and tombstones when nothing below the active table
    /// could resurrect the key. Caller decides whether to also kick the
    /// compactor for the on-disk side.
    fn expire_active(&self, h: Timestamp) {
        for lock in &self.shards {
            let mut shard = lock.write();
            let has_below = !shard.immutables.is_empty() || !shard.runs.is_empty();
            let mut freed = 0usize;
            shard.active.retain(|k, v| {
                let keep = if v.tombstone { has_below } else { v.ts >= h };
                if !keep {
                    freed += k.as_bytes().len() + v.footprint();
                }
                keep
            });
            shard.mem_bytes = shard.mem_bytes.saturating_sub(freed);
            shard.mem.sub(freed);
        }
    }
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        // Release whatever the memtables still hold (flushed immutables
        // were already released by the flusher; in pure-memory mode
        // everything is still here). The cache and SSTs release their
        // own gauges on their drops.
        for lock in &self.shards {
            let shard = lock.read();
            let left: usize =
                shard.mem_bytes + shard.immutables.iter().map(|m| m.bytes).sum::<usize>();
            shard.mem.sub(left);
        }
    }
}

/// Sharded LSM-style KV store. All operations are `&self`; internal
/// per-shard `RwLock`s provide concurrency. In hybrid mode a background
/// flusher and compactor thread run for the store's lifetime; dropping
/// the handle stops them (draining any pending flushes first).
pub struct KvStore {
    inner: Arc<StoreInner>,
    flusher: Option<std::thread::JoinHandle<()>>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl KvStore {
    /// Open a store with the given configuration. In hybrid mode this
    /// discovers SST files left by a previous instance in `dir`, routes
    /// each to its shard by first key, orders runs by `(gen, id)` and
    /// resumes the id counters past everything found.
    pub fn open(config: KvConfig) -> Result<Self> {
        assert!(config.shards > 0, "need at least one shard");
        let cache = match (&config.dir, config.block_cache_bytes) {
            (Some(_), bytes) if bytes > 0 => Some(BlockCache::new_accounted(
                bytes,
                config.mem.block_cache.clone(),
            )),
            _ => None,
        };
        let mut per_shard: Vec<Vec<Run>> = (0..config.shards).map(|_| Vec::new()).collect();
        let mut next_id = 0u64;
        let mut next_gen = 0u64;
        if let Some(dir) = &config.dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(stem) = name
                    .to_string_lossy()
                    .strip_suffix(".sst")
                    .map(String::from)
                else {
                    continue;
                };
                let Some((gen, id)) = parse_sst_name(&stem) else {
                    continue;
                };
                let path = entry.path();
                let sst = match Sst::open_accounted(
                    &path,
                    cache.clone(),
                    Some(config.mem.sst_index.clone()),
                ) {
                    Ok(s) => s,
                    // Unreadable leftover (crash mid-header): never data,
                    // skip it but still reserve its ids.
                    Err(_) => {
                        next_id = next_id.max(id + 1);
                        next_gen = next_gen.max(gen + 1);
                        continue;
                    }
                };
                next_id = next_id.max(id + 1);
                next_gen = next_gen.max(gen + 1);
                if sst.is_empty() {
                    // A zero-count table is an unfinished flush/compaction
                    // output; reclaim it.
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                let first = sst.first_key().expect("non-empty SST has a first key");
                let idx = shard_of(InlineKey::hash_of(first), config.shards);
                per_shard[idx].push(Run {
                    gen,
                    id,
                    sst: Arc::new(sst),
                });
            }
            for runs in &mut per_shard {
                // Newest first: higher generation, then higher id.
                runs.sort_by_key(|r| std::cmp::Reverse((r.gen, r.id)));
            }
        }
        let hybrid = config.dir.is_some();
        let (flush_tx, flush_rx) = if hybrid {
            let (tx, rx) = unbounded();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let (compact_tx, compact_rx) = if hybrid {
            let (tx, rx) = unbounded();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mem_gauge = config.mem.memtable.clone();
        let inner = Arc::new(StoreInner {
            config,
            shards: per_shard
                .into_iter()
                .map(|r| RwLock::new(Shard::new(r, mem_gauge.clone())))
                .collect(),
            cache,
            next_sst_id: AtomicU64::new(next_id),
            next_gen: AtomicU64::new(next_gen),
            next_rotation: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
            imm_count: AtomicUsize::new(0),
            ttl_horizon: AtomicU64::new(0),
            ttl_dirty: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            flush_paused: AtomicBool::new(false),
            flush_sync: Mutex::new(()),
            flush_cv: Condvar::new(),
            maintenance: Mutex::new(()),
            hook: RwLock::new(None),
            flush_tx,
            compact_tx,
        });
        let flusher = flush_rx.map(|rx| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("helios-kv-flush".into())
                .spawn(move || crate::flusher::run(inner, rx))
                .expect("spawn flusher")
        });
        let compactor = compact_rx.map(|rx| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("helios-kv-compact".into())
                .spawn(move || crate::compaction::run(inner, rx))
                .expect("spawn compactor")
        });
        Ok(KvStore {
            inner,
            flusher,
            compactor,
        })
    }

    /// Install a callback for background events (flushes, compactions,
    /// write stalls). Replaces any previous hook.
    pub fn set_event_hook(&self, hook: EventHook) {
        *self.inner.hook.write() = Some(hook);
    }

    /// Pause or resume the background flusher (ops/test hook: a paused
    /// flusher lets the immutable backlog build up, as a wedged disk
    /// would). Pending flushes are still drained on drop.
    pub fn set_flush_paused(&self, paused: bool) {
        self.inner.flush_paused.store(paused, Ordering::Relaxed);
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: Bytes, ts: Timestamp) -> Result<()> {
        self.write(key, StoredValue::live(value, ts))
    }

    /// Delete a key (tombstone).
    pub fn delete(&self, key: &[u8], ts: Timestamp) -> Result<()> {
        self.write(key, StoredValue::tombstone(ts))
    }

    fn write(&self, key: &[u8], sv: StoredValue) -> Result<()> {
        let key = InlineKey::new(key);
        let idx = key.shard(self.inner.shards.len());
        let stall = {
            let mut shard = self.inner.shards[idx].write();
            shard.insert(key, sv);
            self.inner.over_budget_locked(idx, &mut shard)
        };
        if stall {
            self.inner.stall_rotate(idx);
        }
        Ok(())
    }

    /// Apply a batch of puts/deletes, taking each touched shard's write
    /// lock exactly once. Operations on the same key apply in input order
    /// (last write wins), matching a sequence of individual
    /// [`KvStore::put`]/[`KvStore::delete`] calls.
    pub fn write_batch(&self, ops: impl IntoIterator<Item = WriteOp>) -> Result<()> {
        // Group by shard, preserving input order within each group.
        let shards = self.inner.shards.len();
        let mut groups: Vec<Vec<WriteOp>> = (0..shards).map(|_| Vec::new()).collect();
        let mut any = false;
        for op in ops {
            groups[op.inline_key().shard(shards)].push(op);
            any = true;
        }
        if !any {
            return Ok(());
        }
        for (idx, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let stall = {
                let mut shard = self.inner.shards[idx].write();
                for op in group {
                    let (key, sv) = op.into_parts();
                    shard.insert(key, sv);
                }
                self.inner.over_budget_locked(idx, &mut shard)
            };
            if stall {
                self.inner.stall_rotate(idx);
            }
        }
        Ok(())
    }

    /// Point lookup: active memtable, then immutables, then SSTs newest →
    /// oldest. SSTs are probed after the shard lock is dropped (the run
    /// list is copy-on-write).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let horizon = self.inner.ttl_horizon.load(Ordering::Relaxed);
        let probe = InlineKey::new(key);
        let idx = probe.shard(self.inner.shards.len());
        let runs = {
            let shard = self.inner.shards[idx].read();
            if let Some(sv) = shard.mem_get(&probe) {
                return Ok(resolve(sv, horizon));
            }
            if shard.runs.is_empty() {
                return Ok(None);
            }
            Arc::clone(&shard.runs)
        };
        let hashes = crate::bloom::hash_pair(key);
        for run in runs.iter() {
            if let Some(sv) = run.sst.get_hashed(key, hashes)? {
                return Ok(resolve(&sv, horizon));
            }
        }
        Ok(None)
    }

    /// Resolve one shard's group of keys — `positions` into `keys`, with
    /// their `hashes` — from the memtables under one read lock, then from
    /// the SSTs lock-free against a run-list snapshot.
    fn lookup_group<K: AsRef<[u8]>>(
        &self,
        idx: usize,
        positions: &[u32],
        hashes: &[u64],
        keys: &[K],
        out: &mut [Option<Bytes>],
        pending: &mut Vec<u32>,
    ) -> Result<()> {
        let horizon = self.inner.ttl_horizon.load(Ordering::Relaxed);
        pending.clear();
        let runs = {
            let shard = self.inner.shards[idx].read();
            for &pos in positions {
                let at = pos as usize;
                let probe = InlineKey::with_hash(hashes[at], keys[at].as_ref());
                match shard.mem_get(&probe) {
                    Some(sv) => out[at] = resolve(sv, horizon),
                    None => pending.push(pos),
                }
            }
            if pending.is_empty() || shard.runs.is_empty() {
                None
            } else {
                Some(Arc::clone(&shard.runs))
            }
        };
        if let Some(runs) = runs {
            for &pos in pending.iter() {
                let key = keys[pos as usize].as_ref();
                let hashes = crate::bloom::hash_pair(key);
                for run in runs.iter() {
                    if let Some(sv) = run.sst.get_hashed(key, hashes)? {
                        out[pos as usize] = resolve(&sv, horizon);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Batched point lookup: values come back in input order (duplicates
    /// allowed), with keys grouped by shard so each shard's read lock is
    /// taken at most once for the whole batch. Equivalent to — but
    /// cheaper than — `keys.map(|k| store.get(k))`; the equivalence is
    /// property-tested in `tests/model.rs`.
    pub fn multi_get<K: AsRef<[u8]>>(&self, keys: &[K]) -> Result<Vec<Option<Bytes>>> {
        let mut out = Vec::new();
        self.multi_get_into(keys, &mut out)?;
        Ok(out)
    }

    /// [`KvStore::multi_get`] into a caller-owned output buffer: `out` is
    /// cleared and refilled in input order, reusing its capacity, and the
    /// shard grouping is a counting pass over per-thread scratch, so a
    /// steady-state reader (the serve loop) allocates nothing per batch
    /// (keys longer than [`crate::INLINE_KEY_CAP`] excepted).
    /// The returned values are *borrowed granules*: each `Bytes` is a
    /// refcounted handle onto the shared allocation it was resolved from
    /// — a decoded block-cache granule entry or a memtable value — never
    /// a copy, so holding them pins those allocations until dropped.
    pub fn multi_get_into<K: AsRef<[u8]>>(
        &self,
        keys: &[K],
        out: &mut Vec<Option<Bytes>>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), None);
        if keys.is_empty() {
            return Ok(());
        }
        let shards = self.inner.shards.len();
        MULTI_GET_SCRATCH.with(|scratch| {
            let MultiGetScratch {
                hashes,
                shard_at,
                ends,
                order,
                pending,
            } = &mut *scratch.borrow_mut();
            // Hash every key once and count the keys of each shard.
            hashes.clear();
            shard_at.clear();
            ends.clear();
            ends.resize(shards, 0);
            for key in keys {
                let hash = InlineKey::hash_of(key.as_ref());
                let shard = shard_of(hash, shards);
                hashes.push(hash);
                shard_at.push(shard as u32);
                ends[shard] += 1;
            }
            // Counts become start offsets; placing each position advances
            // its shard's offset, which therefore finishes as its end.
            let mut next = 0u32;
            for end in ends.iter_mut() {
                let count = *end;
                *end = next;
                next += count;
            }
            order.clear();
            order.resize(keys.len(), 0);
            for (pos, &shard) in shard_at.iter().enumerate() {
                let slot = &mut ends[shard as usize];
                order[*slot as usize] = pos as u32;
                *slot += 1;
            }
            let mut start = 0usize;
            for (idx, &end) in ends.iter().enumerate() {
                let end = end as usize;
                if end > start {
                    self.lookup_group(idx, &order[start..end], hashes, keys, out, pending)?;
                }
                start = end;
            }
            Ok(())
        })
    }

    /// Does the key exist (live)?
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Rotate every non-empty active memtable and wait until the
    /// background flusher has drained the whole immutable backlog.
    /// No-op in memory mode.
    pub fn flush(&self) -> Result<()> {
        if self.inner.config.dir.is_none() {
            return Ok(());
        }
        for (idx, lock) in self.inner.shards.iter().enumerate() {
            let mut shard = lock.write();
            self.inner.rotate_locked(idx, &mut shard);
        }
        self.wait_flush_drain();
        Ok(())
    }

    fn wait_flush_drain(&self) {
        while self.inner.imm_count.load(Ordering::Relaxed) > 0
            && !self.inner.stop.load(Ordering::Relaxed)
        {
            let mut g = self.inner.flush_sync.lock();
            if self.inner.imm_count.load(Ordering::Relaxed) == 0 {
                break;
            }
            let _ = self
                .inner
                .flush_cv
                .wait_for(&mut g, Duration::from_millis(10));
        }
    }

    /// Raise the TTL horizon without blocking on disk: expires the active
    /// memtables in place, hides anything older from reads immediately,
    /// and leaves physical reclamation of immutables/SSTs to the
    /// background compactor (nudged here). This is the serve-path TTL
    /// entry point; [`KvStore::compact_blocking`] is the synchronous
    /// variant for tests and shutdown.
    pub fn expire_before(&self, h: Timestamp) -> Result<()> {
        self.inner
            .ttl_horizon
            .fetch_max(h.millis(), Ordering::Relaxed);
        self.inner.expire_active(h);
        if self.inner.config.dir.is_some() {
            self.inner.ttl_dirty.store(true, Ordering::Relaxed);
            self.inner.nudge_compactor();
        }
        Ok(())
    }

    /// Synchronous stop-the-world maintenance (tests/shutdown): expire
    /// the memtables, drain pending flushes, then merge each shard's runs
    /// into at most one, dropping tombstones and entries older than
    /// `expire_before`. Shards with nothing to do are skipped and do not
    /// count as compaction passes.
    pub fn compact_blocking(&self, expire_before: Option<Timestamp>) -> Result<()> {
        if let Some(h) = expire_before {
            self.inner
                .ttl_horizon
                .fetch_max(h.millis(), Ordering::Relaxed);
            self.inner.expire_active(h);
        }
        if self.inner.config.dir.is_none() {
            return Ok(());
        }
        self.wait_flush_drain();
        for idx in 0..self.inner.shards.len() {
            crate::compaction::merge_shard(&self.inner, idx, usize::MAX, expire_before)?;
        }
        Ok(())
    }

    /// Aggregate size statistics.
    pub fn stats(&self) -> KvStats {
        let inner = &self.inner;
        let mut st = KvStats {
            flushes: inner.flushes.load(Ordering::Relaxed),
            compactions: inner.compactions.load(Ordering::Relaxed),
            stall_nanos: inner.stall_nanos.load(Ordering::Relaxed),
            ..KvStats::default()
        };
        if let Some(cache) = &inner.cache {
            let (h, m) = cache.counters();
            st.block_cache_hits = h;
            st.block_cache_misses = m;
        }
        let trigger = inner.config.l0_compact_trigger;
        for s in &inner.shards {
            let shard = s.read();
            st.mem_entries += shard.active.len();
            st.mem_bytes += shard.mem_bytes;
            for imm in &shard.immutables {
                st.mem_entries += imm.entries.len();
                st.mem_bytes += imm.bytes;
                st.immutable_memtables += 1;
                st.immutable_bytes += imm.bytes;
            }
            st.sst_files += shard.runs.len();
            st.disk_bytes += shard.runs.iter().map(|r| r.sst.file_bytes()).sum::<u64>();
            st.compaction_debt += shard.runs.len().saturating_sub(trigger) as u64;
        }
        st
    }
}

impl Drop for KvStore {
    fn drop(&mut self) {
        let inner = &self.inner;
        inner.stop.store(true, Ordering::Relaxed);
        // Wake everyone: stalled writers, the flusher (sentinel), the
        // compactor (nudge). The flusher drains pending immutables on
        // its way out, even when paused.
        inner.flush_cv.notify_all();
        if let Some(tx) = &inner.flush_tx {
            let _ = tx.send(FLUSH_WAKE);
        }
        inner.nudge_compactor();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
    }
}

fn parse_sst_name(stem: &str) -> Option<(u64, u64)> {
    if let Some(rest) = stem.strip_prefix('g') {
        let (gen, id) = rest.split_once('-')?;
        Some((gen.parse().ok()?, id.parse().ok()?))
    } else {
        let id: u64 = stem.parse().ok()?;
        Some((id, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("helios-kv-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(i: u64) -> Vec<u8> {
        format!("k{i:08}").into_bytes()
    }

    #[test]
    fn put_get_delete_in_memory() {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        kv.put(&key(1), Bytes::from_static(b"one"), Timestamp(1))
            .unwrap();
        assert_eq!(
            kv.get(&key(1)).unwrap().unwrap(),
            Bytes::from_static(b"one")
        );
        assert!(kv.contains(&key(1)).unwrap());
        kv.delete(&key(1), Timestamp(2)).unwrap();
        assert!(kv.get(&key(1)).unwrap().is_none());
        assert!(!kv.contains(&key(1)).unwrap());
        assert!(kv.get(&key(2)).unwrap().is_none());
    }

    #[test]
    fn overwrite_returns_latest() {
        let kv = KvStore::open(KvConfig::in_memory(2)).unwrap();
        kv.put(&key(7), Bytes::from_static(b"v1"), Timestamp(1))
            .unwrap();
        kv.put(&key(7), Bytes::from_static(b"v2"), Timestamp(2))
            .unwrap();
        assert_eq!(kv.get(&key(7)).unwrap().unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn flush_spills_to_disk_and_reads_back() {
        let dir = tmpdir("flush");
        let kv = KvStore::open(KvConfig::hybrid(2, 1 << 30, dir.clone())).unwrap();
        for i in 0..500u64 {
            kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        let st = kv.stats();
        assert_eq!(st.mem_entries, 0);
        assert_eq!(st.immutable_memtables, 0);
        assert!(st.sst_files >= 1);
        assert!(st.disk_bytes > 0);
        assert_eq!(st.flushes as usize, st.sst_files);
        assert_eq!(st.compactions, 0);
        for i in (0..500).step_by(13) {
            assert_eq!(
                kv.get(&key(i)).unwrap().unwrap(),
                Bytes::from(format!("v{i}"))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_rotation_when_over_budget() {
        let dir = tmpdir("auto");
        let kv = KvStore::open(KvConfig::hybrid(1, 4096, dir.clone())).unwrap();
        for i in 0..2000u64 {
            kv.put(&key(i), Bytes::from(vec![0u8; 64]), Timestamp(i))
                .unwrap();
        }
        // Everything remains readable while flushes happen in the
        // background (keys live in active, immutables, or SSTs).
        for i in (0..2000).step_by(97) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        kv.flush().unwrap();
        let st = kv.stats();
        assert!(st.sst_files > 0, "budget overflow must produce SSTs");
        assert!(st.flushes > 0);
        for i in (0..2000).step_by(97) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_value_wins_across_memtable_and_ssts() {
        let dir = tmpdir("newest");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        kv.put(&key(1), Bytes::from_static(b"old"), Timestamp(1))
            .unwrap();
        kv.flush().unwrap();
        kv.put(&key(1), Bytes::from_static(b"new"), Timestamp(2))
            .unwrap();
        assert_eq!(
            kv.get(&key(1)).unwrap().unwrap(),
            Bytes::from_static(b"new")
        );
        // And across two SST runs:
        kv.flush().unwrap();
        assert_eq!(
            kv.get(&key(1)).unwrap().unwrap(),
            Bytes::from_static(b"new")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstone_shadows_older_sst_value() {
        let dir = tmpdir("tomb");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        kv.put(&key(5), Bytes::from_static(b"x"), Timestamp(1))
            .unwrap();
        kv.flush().unwrap();
        kv.delete(&key(5), Timestamp(2)).unwrap();
        assert!(kv.get(&key(5)).unwrap().is_none());
        kv.flush().unwrap();
        assert!(kv.get(&key(5)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_tombstones_and_shrinks_disk() {
        let dir = tmpdir("compact");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        for i in 0..300u64 {
            kv.put(&key(i), Bytes::from(vec![1u8; 32]), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        for i in 0..200u64 {
            kv.delete(&key(i), Timestamp(1000 + i)).unwrap();
        }
        kv.flush().unwrap();
        let before = kv.stats().disk_bytes;
        kv.compact_blocking(None).unwrap();
        let after = kv.stats();
        assert!(after.disk_bytes < before);
        assert_eq!(after.sst_files, 1);
        assert_eq!(after.compactions, 1);
        for i in 0..200u64 {
            assert!(kv.get(&key(i)).unwrap().is_none());
        }
        for i in 200..300u64 {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_counts_only_performed_passes() {
        // Memory mode without a horizon: nothing to do, nothing counted.
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        kv.put(&key(1), Bytes::from_static(b"v"), Timestamp(1))
            .unwrap();
        kv.compact_blocking(None).unwrap();
        assert_eq!(kv.stats().compactions, 0);

        // Hybrid with a single clean run: merging it would be a no-op.
        let dir = tmpdir("noop-compact");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        for i in 0..50u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        kv.compact_blocking(None).unwrap();
        assert_eq!(kv.stats().compactions, 0, "single clean run is a no-op");
        assert_eq!(kv.stats().sst_files, 1);
        // A second run makes it a real merge pass.
        for i in 50..80u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        kv.compact_blocking(None).unwrap();
        assert_eq!(kv.stats().compactions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_expiry_via_compaction() {
        let dir = tmpdir("ttl");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        for i in 0..100u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        kv.compact_blocking(Some(Timestamp(50))).unwrap();
        for i in 0..50u64 {
            assert!(kv.get(&key(i)).unwrap().is_none(), "key {i} should expire");
        }
        for i in 50..100u64 {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ttl_expiry_in_memory_mode() {
        let kv = KvStore::open(KvConfig::in_memory(2)).unwrap();
        for i in 0..100u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.compact_blocking(Some(Timestamp(80))).unwrap();
        assert!(kv.get(&key(10)).unwrap().is_none());
        assert!(kv.get(&key(90)).unwrap().is_some());
        let st = kv.stats();
        assert_eq!(st.mem_entries, 20);
    }

    #[test]
    fn expire_before_hides_stale_reads_without_blocking() {
        let dir = tmpdir("expire-nb");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        for i in 0..100u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        // Push everything into an SST so expiry can't just prune the
        // active memtable.
        kv.flush().unwrap();
        kv.expire_before(Timestamp(60)).unwrap();
        // Reads hide expired entries immediately, even before the
        // background compactor reclaims the disk space.
        for i in 0..60u64 {
            assert!(kv.get(&key(i)).unwrap().is_none(), "key {i} still visible");
        }
        for i in 60..100u64 {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expire_before_drops_memtable_tombstones_without_runs() {
        let kv = KvStore::open(KvConfig::in_memory(2)).unwrap();
        kv.put(&key(1), Bytes::from_static(b"v"), Timestamp(1))
            .unwrap();
        kv.delete(&key(1), Timestamp(2)).unwrap();
        kv.delete(&key(2), Timestamp(2)).unwrap();
        kv.expire_before(Timestamp(0)).unwrap();
        // Nothing on disk below the memtable: tombstones are garbage.
        assert_eq!(kv.stats().mem_entries, 0);
    }

    #[test]
    fn reopen_discovers_ssts_and_resumes_ids() {
        let dir = tmpdir("reopen");
        {
            let kv = KvStore::open(KvConfig::hybrid(2, 1 << 30, dir.clone())).unwrap();
            for i in 0..200u64 {
                kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                    .unwrap();
            }
            kv.flush().unwrap();
            kv.put(&key(7), Bytes::from_static(b"newer"), Timestamp(1000))
                .unwrap();
            kv.flush().unwrap();
        }
        let kv = KvStore::open(KvConfig::hybrid(2, 1 << 30, dir.clone())).unwrap();
        let st = kv.stats();
        assert!(st.sst_files >= 3, "reopen found {} runs", st.sst_files);
        assert_eq!(st.mem_entries, 0);
        // Recency survives reopen: the second flush shadows the first.
        assert_eq!(
            kv.get(&key(7)).unwrap().unwrap(),
            Bytes::from_static(b"newer")
        );
        for i in (0..200).step_by(11) {
            assert!(kv.get(&key(i)).unwrap().is_some(), "key {i} lost on reopen");
        }
        // New flushes must not clobber discovered runs.
        kv.put(&key(9999), Bytes::from_static(b"post"), Timestamp(2000))
            .unwrap();
        kv.flush().unwrap();
        let st2 = kv.stats();
        assert!(st2.sst_files > st.sst_files);
        assert_eq!(
            kv.get(&key(7)).unwrap().unwrap(),
            Bytes::from_static(b"newer")
        );
        assert!(kv.get(&key(9999)).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_compaction_keeps_recency_order() {
        let dir = tmpdir("reopen-compact");
        {
            let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
            kv.put(&key(1), Bytes::from_static(b"a"), Timestamp(1))
                .unwrap();
            kv.flush().unwrap();
            kv.put(&key(1), Bytes::from_static(b"b"), Timestamp(2))
                .unwrap();
            kv.flush().unwrap();
            kv.compact_blocking(None).unwrap();
            // A flush *after* the compaction: its id is smaller than the
            // compaction output's id but its generation is newer.
            kv.put(&key(1), Bytes::from_static(b"c"), Timestamp(3))
                .unwrap();
            kv.flush().unwrap();
        }
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        assert_eq!(kv.get(&key(1)).unwrap().unwrap(), Bytes::from_static(b"c"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paused_flusher_accumulates_backlog_then_drains() {
        let dir = tmpdir("paused");
        let mut config = KvConfig::hybrid(1, 512, dir.clone());
        // High enough that the writer never stalls while the flusher is
        // paused (200 small puts rotate ~15 times).
        config.max_immutable_memtables = 1000;
        config.l0_compact_trigger = 1000; // keep the compactor out of it
        let kv = KvStore::open(config).unwrap();
        kv.set_flush_paused(true);
        for i in 0..200u64 {
            kv.put(&key(i), Bytes::from(vec![0u8; 32]), Timestamp(i))
                .unwrap();
        }
        let st = kv.stats();
        assert!(
            st.immutable_memtables > 0,
            "paused flusher must leave a backlog"
        );
        // Reads still see everything (active + immutables).
        for i in (0..200).step_by(17) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        kv.set_flush_paused(false);
        kv.flush().unwrap();
        let st = kv.stats();
        assert_eq!(st.immutable_memtables, 0);
        assert!(st.sst_files > 0);
        for i in (0..200).step_by(17) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_backlog_stalls_writer_and_records_it() {
        let dir = tmpdir("stall");
        let mut config = KvConfig::hybrid(1, 256, dir.clone());
        config.max_immutable_memtables = 1;
        let kv = Arc::new(KvStore::open(config).unwrap());
        kv.set_flush_paused(true);
        // Resume the flusher shortly, from another thread, so the stalled
        // writer below gets unblocked.
        let unpauser = {
            let kv = Arc::clone(&kv);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                kv.set_flush_paused(false);
            })
        };
        for i in 0..200u64 {
            kv.put(&key(i), Bytes::from(vec![0u8; 32]), Timestamp(i))
                .unwrap();
        }
        unpauser.join().unwrap();
        assert!(
            kv.stats().stall_nanos > 0,
            "writer should have stalled on the full backlog"
        );
        for i in (0..200).step_by(17) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn block_cache_hits_on_repeated_reads() {
        let dir = tmpdir("cache-hits");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        for i in 0..100u64 {
            kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        assert!(kv.get(&key(42)).unwrap().is_some());
        assert!(kv.get(&key(42)).unwrap().is_some());
        let st = kv.stats();
        assert!(st.block_cache_misses > 0);
        assert!(st.block_cache_hits > 0, "repeat read must hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_hook_sees_flush_and_compaction() {
        let dir = tmpdir("hook");
        let kv = KvStore::open(KvConfig::hybrid(1, 1 << 30, dir.clone())).unwrap();
        let events: Arc<Mutex<Vec<KvEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        kv.set_event_hook(Arc::new(move |ev| sink.lock().push(*ev)));
        for i in 0..50u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        for i in 50..80u64 {
            kv.put(&key(i), Bytes::from_static(b"v"), Timestamp(i))
                .unwrap();
        }
        kv.flush().unwrap();
        kv.compact_blocking(None).unwrap();
        let seen = events.lock();
        assert!(seen
            .iter()
            .any(|e| matches!(e, KvEvent::Flush { entries, .. } if *entries > 0)));
        assert!(seen
            .iter()
            .any(|e| matches!(e, KvEvent::Compaction { runs_in: 2, .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_compaction_kicks_in_past_trigger() {
        let dir = tmpdir("bg-compact");
        let mut config = KvConfig::hybrid(1, 1 << 30, dir.clone());
        config.l0_compact_trigger = 3;
        let kv = KvStore::open(config).unwrap();
        for round in 0..6u64 {
            for i in 0..40u64 {
                kv.put(
                    &key(i),
                    Bytes::from(format!("r{round}")),
                    Timestamp(round * 100 + i),
                )
                .unwrap();
            }
            kv.flush().unwrap();
        }
        // The background compactor should bring the run count down below
        // the naive 6 eventually.
        let deadline = Instant::now() + Duration::from_secs(10);
        while kv.stats().sst_files > 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let st = kv.stats();
        assert!(st.sst_files <= 3, "compactor never caught up: {st:?}");
        assert!(st.compactions > 0);
        for i in 0..40u64 {
            assert_eq!(
                kv.get(&key(i)).unwrap().unwrap(),
                Bytes::from_static(b"r5"),
                "newest round must win after background merges"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let kv = Arc::new(KvStore::open(KvConfig::in_memory(8)).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                for i in 0..5000u64 {
                    let k = key(t * 5000 + i);
                    kv.put(&k, Bytes::from(vec![t as u8; 16]), Timestamp(i))
                        .unwrap();
                    assert!(kv.get(&k).unwrap().is_some());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(kv.stats().mem_entries, 20_000);
    }

    #[test]
    fn multi_get_orders_duplicates_and_cross_shard_keys() {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        for i in 0..64u64 {
            kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        // Duplicates, misses, and keys spread across all shards, out of order.
        let keys: Vec<Vec<u8>> = vec![
            key(9),
            key(1),
            key(999), // miss
            key(9),   // duplicate
            key(63),
            key(0),
            key(9), // duplicate again
        ];
        let got = kv.multi_get(&keys).unwrap();
        let want: Vec<Option<Bytes>> = keys.iter().map(|k| kv.get(k).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(got[0], Some(Bytes::from("v9")));
        assert_eq!(got[2], None);
        assert_eq!(got[0], got[3]);
        assert_eq!(got[0], got[6]);
    }

    #[test]
    fn multi_get_empty_and_single() {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        kv.put(&key(1), Bytes::from_static(b"one"), Timestamp(1))
            .unwrap();
        assert!(kv.multi_get::<Vec<u8>>(&[]).unwrap().is_empty());
        let got = kv.multi_get(&[key(1)]).unwrap();
        assert_eq!(got, vec![Some(Bytes::from_static(b"one"))]);
    }

    #[test]
    fn multi_get_into_reuses_the_output_buffer() {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        for i in 0..16u64 {
            kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        let mut out: Vec<Option<Bytes>> = Vec::new();
        kv.multi_get_into(&[key(3), key(99), key(7)], &mut out)
            .unwrap();
        assert_eq!(
            out,
            vec![Some(Bytes::from("v3")), None, Some(Bytes::from("v7"))]
        );
        let cap = out.capacity();
        // A second, smaller batch reuses the buffer: stale results are
        // cleared, capacity is kept.
        kv.multi_get_into(&[key(1)], &mut out).unwrap();
        assert_eq!(out, vec![Some(Bytes::from("v1"))]);
        assert_eq!(out.capacity(), cap);
        kv.multi_get_into::<Vec<u8>>(&[], &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multi_get_memtable_shadows_sst_and_sees_tombstones() {
        let dir = tmpdir("mg-shadow");
        let kv = KvStore::open(KvConfig::hybrid(2, 1 << 30, dir.clone())).unwrap();
        kv.put(&key(1), Bytes::from_static(b"old1"), Timestamp(1))
            .unwrap();
        kv.put(&key(2), Bytes::from_static(b"old2"), Timestamp(1))
            .unwrap();
        kv.put(&key(3), Bytes::from_static(b"v3"), Timestamp(1))
            .unwrap();
        kv.flush().unwrap();
        // key(1): newer memtable value shadows the SST; key(2): tombstone
        // in the memtable shadows the SST; key(3): only in the SST.
        kv.put(&key(1), Bytes::from_static(b"new1"), Timestamp(2))
            .unwrap();
        kv.delete(&key(2), Timestamp(2)).unwrap();
        let got = kv.multi_get(&[key(1), key(2), key(3)]).unwrap();
        assert_eq!(
            got,
            vec![
                Some(Bytes::from_static(b"new1")),
                None,
                Some(Bytes::from_static(b"v3")),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_batch_applies_in_input_order() {
        let kv = KvStore::open(KvConfig::in_memory(4)).unwrap();
        kv.write_batch(vec![
            WriteOp::put(key(1), Bytes::from_static(b"a"), Timestamp(1)),
            WriteOp::put(key(2), Bytes::from_static(b"b"), Timestamp(1)),
            WriteOp::delete(key(1), Timestamp(2)),
            WriteOp::put(key(3), Bytes::from_static(b"c"), Timestamp(1)),
            WriteOp::put(key(2), Bytes::from_static(b"b2"), Timestamp(2)),
        ])
        .unwrap();
        // Last write wins per key, exactly like sequential put/delete.
        assert!(kv.get(&key(1)).unwrap().is_none());
        assert_eq!(kv.get(&key(2)).unwrap().unwrap(), Bytes::from_static(b"b2"));
        assert_eq!(kv.get(&key(3)).unwrap().unwrap(), Bytes::from_static(b"c"));
        // Empty batch is a no-op.
        kv.write_batch(Vec::new()).unwrap();
        assert_eq!(kv.stats().mem_entries, 3);
    }

    #[test]
    fn write_batch_triggers_rotation_over_budget() {
        let dir = tmpdir("wb-flush");
        let kv = KvStore::open(KvConfig::hybrid(2, 4096, dir.clone())).unwrap();
        let ops: Vec<WriteOp> = (0..500u64)
            .map(|i| WriteOp::put(key(i), Bytes::from(vec![0u8; 64]), Timestamp(i)))
            .collect();
        kv.write_batch(ops).unwrap();
        kv.flush().unwrap();
        let st = kv.stats();
        assert!(st.sst_files > 0, "budget overflow must trigger flushes");
        for i in (0..500).step_by(37) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_total() {
        let kv = KvStore::open(KvConfig::in_memory(1)).unwrap();
        kv.put(b"a", Bytes::from_static(b"1"), Timestamp(0))
            .unwrap();
        let st = kv.stats();
        assert_eq!(st.total_bytes(), st.mem_bytes as u64);
        assert_eq!(st.mem_entries, 1);
    }

    #[test]
    fn parse_sst_names() {
        assert_eq!(parse_sst_name("0000000003"), Some((3, 3)));
        assert_eq!(parse_sst_name("g0000000002-0000000007"), Some((2, 7)));
        assert_eq!(parse_sst_name("garbage"), None);
        assert_eq!(parse_sst_name("g12"), None);
    }

    #[test]
    fn mem_gauges_track_insert_flush_and_drop() {
        let dir = tmpdir("memgauge");
        let gauges = KvMemGauges::default();
        let mut config = KvConfig::hybrid(2, 1 << 30, dir.clone());
        config.mem = gauges.clone();
        let kv = KvStore::open(config).unwrap();
        assert_eq!(gauges.memtable.get(), 0);
        for i in 0..300u64 {
            kv.put(&key(i), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        let st = kv.stats();
        assert!(st.mem_bytes > 0);
        assert_eq!(
            gauges.memtable.get(),
            st.mem_bytes as i64,
            "gauge mirrors the store's own memtable byte count"
        );
        assert_eq!(gauges.sst_index.get(), 0);
        kv.flush().unwrap();
        assert_eq!(
            gauges.memtable.get(),
            0,
            "flushed bytes leave the memtable gauge"
        );
        assert!(
            gauges.sst_index.get() > 0,
            "SST metadata is charged after flush"
        );
        // Read back through the cache so granule bytes are charged, then
        // compare the gauge against the cache's own resident count.
        for i in (0..300).step_by(7) {
            assert!(kv.get(&key(i)).unwrap().is_some());
        }
        let cache = kv.inner.cache.as_ref().unwrap();
        assert!(cache.bytes() > 0, "reads populate the block cache");
        assert_eq!(gauges.block_cache.get(), cache.bytes() as i64);
        drop(kv);
        assert_eq!(gauges.memtable.get(), 0);
        assert_eq!(gauges.block_cache.get(), 0, "cache drop releases its gauge");
        assert_eq!(gauges.sst_index.get(), 0, "SST drops release their gauge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_gauge_falls_to_zero_after_ttl_expiry() {
        let gauges = KvMemGauges::default();
        let mut config = KvConfig::in_memory(2);
        config.mem = gauges.clone();
        let kv = KvStore::open(config).unwrap();
        for i in 0..50u64 {
            kv.put(&key(i), Bytes::from(vec![0u8; 64]), Timestamp(i))
                .unwrap();
        }
        assert!(gauges.memtable.get() > 0);
        kv.expire_before(Timestamp(1_000)).unwrap();
        assert_eq!(
            gauges.memtable.get(),
            0,
            "expired entries release their bytes"
        );
        drop(kv);
        assert_eq!(
            gauges.memtable.get(),
            0,
            "drop after expiry double-frees nothing"
        );
    }

    #[test]
    fn mem_gauge_overwrite_tracks_footprint_delta() {
        let gauges = KvMemGauges::default();
        let mut config = KvConfig::in_memory(1);
        config.mem = gauges.clone();
        let kv = KvStore::open(config).unwrap();
        kv.put(b"k", Bytes::from_static(b"small"), Timestamp(1))
            .unwrap();
        let first = gauges.memtable.get();
        assert!(first > 0);
        kv.put(b"k", Bytes::from(vec![0u8; 256]), Timestamp(2))
            .unwrap();
        let second = gauges.memtable.get();
        assert_eq!(second, kv.stats().mem_bytes as i64);
        assert!(second > first, "bigger value grows the gauge");
        kv.delete(b"k", Timestamp(3)).unwrap();
        assert_eq!(
            gauges.memtable.get(),
            kv.stats().mem_bytes as i64,
            "tombstone overwrite stays in sync with the store's count"
        );
        drop(kv);
        assert_eq!(gauges.memtable.get(), 0);
    }

    #[test]
    fn mem_accounting_is_key_length_plus_value_footprint() {
        // The ledger counts what the caller stored — key bytes plus
        // `StoredValue::footprint` — not how the table lays it out, so it
        // reads the same whatever the memtable's representation: inline
        // keys, a spilled key, overwrites, tombstones, expiry.
        let gauges = KvMemGauges::default();
        let mut config = KvConfig::in_memory(4);
        config.mem = gauges.clone();
        let kv = KvStore::open(config).unwrap();
        // key -> (value length, timestamp); a tombstone has length 0.
        let mut oracle: std::collections::BTreeMap<Vec<u8>, (usize, u64)> = Default::default();
        let long_key = vec![7u8; crate::INLINE_KEY_CAP + 9];
        let mut sample_key = vec![0u8, 1];
        sample_key.extend_from_slice(&9u64.to_be_bytes());
        let steps: Vec<(Vec<u8>, Option<usize>, u64)> = vec![
            (3u64.to_be_bytes().to_vec(), Some(5), 10),
            (sample_key.clone(), Some(100), 20),
            (3u64.to_be_bytes().to_vec(), Some(50), 30), // overwrite, bigger
            (sample_key, None, 40),                      // tombstone over a value
            (long_key, Some(7), 50),                     // spills to the heap
            (4u64.to_be_bytes().to_vec(), None, 60),     // tombstone of an absent key
            (5u64.to_be_bytes().to_vec(), Some(0), 70),  // empty value
        ];
        let check = |oracle: &std::collections::BTreeMap<Vec<u8>, (usize, u64)>| {
            let want: usize = oracle
                .iter()
                .map(|(k, (vlen, _))| k.len() + std::mem::size_of::<StoredValue>() + vlen)
                .sum();
            let st = kv.stats();
            assert_eq!(st.mem_entries, oracle.len());
            assert_eq!(st.mem_bytes, want);
            assert_eq!(gauges.memtable.get(), want as i64);
        };
        for (key, value, ts) in steps {
            match value {
                Some(len) => kv
                    .put(&key, Bytes::from(vec![1u8; len]), Timestamp(ts))
                    .unwrap(),
                None => kv.delete(&key, Timestamp(ts)).unwrap(),
            }
            oracle.insert(key, (value.unwrap_or(0), ts));
            check(&oracle);
        }
        // Memory mode has nothing below the memtable: expiry drops every
        // tombstone and every value older than the horizon.
        kv.expire_before(Timestamp(45)).unwrap();
        let tombstones = [40u64, 60];
        oracle.retain(|_, (_, ts)| *ts >= 45 && !tombstones.contains(ts));
        assert_eq!(oracle.len(), 2);
        check(&oracle);
        drop(kv);
        assert_eq!(gauges.memtable.get(), 0);
    }

    #[test]
    fn flushed_sst_is_sorted_whatever_the_insert_order() {
        // The memtable is unordered; the flusher owes the SST its order.
        let n = 1000u64;
        let descending: Vec<u64> = (0..n).rev().collect();
        // 7919 is coprime to 1000: a fixed shuffle of 0..n.
        let shuffled: Vec<u64> = (0..n).map(|i| (i * 7919) % n).collect();
        for (name, order) in [("sorted-desc", descending), ("sorted-rand", shuffled)] {
            let dir = tmpdir(name);
            let kv = KvStore::open(KvConfig::hybrid(2, 1 << 30, dir.clone())).unwrap();
            for &i in &order {
                kv.put(&i.to_be_bytes(), Bytes::from(format!("v{i}")), Timestamp(i))
                    .unwrap();
            }
            kv.flush().unwrap();
            let mut seen = 0u64;
            for lock in &kv.inner.shards {
                let runs = Arc::clone(&lock.read().runs);
                for run in runs.iter() {
                    let entries = run.sst.scan().unwrap();
                    assert!(
                        entries.windows(2).all(|w| w[0].0 < w[1].0),
                        "{name}: SST keys must be strictly ascending"
                    );
                    seen += entries.len() as u64;
                }
            }
            assert_eq!(seen, n, "{name}: every key reached an SST");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn multi_get_with_duplicates_spanning_every_shard() {
        let shards = 8;
        let kv = KvStore::open(KvConfig::in_memory(shards)).unwrap();
        let n = 400u64;
        for i in 0..n {
            kv.put(&i.to_be_bytes(), Bytes::from(format!("v{i}")), Timestamp(i))
                .unwrap();
        }
        // Hits, misses (ids past n) and every hit twice, interleaved so
        // no shard's keys are adjacent in the input.
        let keys: Vec<[u8; 8]> = (0..n + 40)
            .chain((0..n).rev())
            .map(|i| i.to_be_bytes())
            .collect();
        let mut touched = vec![false; shards];
        for key in &keys {
            touched[InlineKey::new(key).shard(shards)] = true;
        }
        assert!(touched.iter().all(|&t| t), "the batch spans every shard");
        let got = kv.multi_get(&keys).unwrap();
        let want: Vec<Option<Bytes>> = keys.iter().map(|k| kv.get(k).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(got.iter().filter(|v| v.is_none()).count(), 40);
    }

    #[test]
    fn unwired_store_defaults_account_into_fresh_gauges() {
        // A store opened without explicit gauges must not panic or leak
        // into anyone else's accounting: the default gauges are private
        // cells nobody observes.
        let kv = KvStore::open(KvConfig::in_memory(1)).unwrap();
        kv.put(b"a", Bytes::from_static(b"1"), Timestamp(0))
            .unwrap();
        drop(kv);
        let g = KvMemGauges::default();
        assert_eq!(g.memtable.get(), 0);
    }
}
