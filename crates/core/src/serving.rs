//! The serving worker and its query-aware sample cache (§4.3, §6).
//!
//! Each serving worker owns the inference traffic of one slice of the
//! seed-vertex space. Its cache has two parts, both over `helios-kvstore`
//! (the paper uses RocksDB's hybrid memory-disk mode):
//!
//! * a **sample table** per one-hop query: `(hop, vertex) → sampled
//!   neighbors`;
//! * a **feature table**: `vertex → latest feature`.
//!
//! **Data-updating threads** drain the worker's sample queue and apply
//! [`SampleMsg`]s; **serving threads** are the caller's threads — `serve`
//! is `&self` and lock-free above the kvstore shards, so any number of
//! front-end threads can call it concurrently (§4.3's serving threads).
//!
//! Serving a K-hop query costs exactly `1 + Σ ∏ Cᵢ` sample-table lookups
//! and at most `1 + Σ ∏ Cᵢ` feature lookups — independent of vertex
//! degree, which is the whole point (§6).

use crate::config::{
    HeliosConfig, POLL_BATCH, POLL_TIMEOUT, SAMPLE_QUEUE_PARTITIONS, UPDATER_THREADS,
};
use crate::messages::{now_nanos, SampleEntryLite, SampleMsg};
use crate::sampler::topics;
use bytes::{Bytes, BytesMut};
use helios_kvstore::{KvConfig, KvEvent, KvMemGauges, KvStats, KvStore, WriteOp};
use helios_mq::Broker;
use helios_query::{KHopQuery, SampledSubgraph, SubgraphArena, SubgraphView};
use helios_telemetry::{span, Counter, EventKind, FlightRecorder, Histogram, Registry, TraceCtx};
use helios_types::profile::{push_frame, register_thread, FrameLabel};
use helios_types::{
    Decode, Encode, FxHashSet, MemGauge, PartitionId, QueryHopId, Result, ServingWorkerId,
    Timestamp, VertexId,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// Logical profiler frames, visible on threads that registered with the
// profiler (the updaters; a serving thread if its owner registered it);
// see `helios_types::profile`.
static SERVE: FrameLabel = FrameLabel::new("serve");
static CACHE_LOOKUP: FrameLabel = FrameLabel::new("cache_lookup");
static HOP_EXPAND: FrameLabel = FrameLabel::new("hop_expand");
static FEATURE_GATHER: FrameLabel = FrameLabel::new("feature_gather");
static ENCODE: FrameLabel = FrameLabel::new("encode");
static CACHE_APPLY: FrameLabel = FrameLabel::new("cache_apply");

fn sample_key(hop: QueryHopId, v: VertexId) -> [u8; 10] {
    let mut k = [0u8; 10];
    k[..2].copy_from_slice(&hop.0.to_be_bytes());
    k[2..].copy_from_slice(&v.raw().to_be_bytes());
    k
}

fn feature_key(v: VertexId) -> [u8; 8] {
    v.raw().to_be_bytes()
}

/// Byte gauges of one serving replica's cache resources, registered with
/// the deployment's memory accountant as `mem.bytes{component=…}`. The
/// two kvstores split their memtable bytes by table but share the block
/// cache and SST-index cells (they are one resource pool per replica).
#[derive(Debug, Clone, Default)]
pub struct ServingMemGauges {
    /// Sample-table memtable bytes (active + immutable).
    pub sample_table: MemGauge,
    /// Feature-table memtable bytes (active + immutable).
    pub feature_table: MemGauge,
    /// Decoded SST granules resident in the shared block caches.
    pub block_cache: MemGauge,
    /// Decoded SST bloom + sparse-index metadata.
    pub sst_index: MemGauge,
    /// Sum of the serving threads' current scratch footprints (arena +
    /// reusable buffers): a thread re-charges its delta after each serve
    /// and releases its share when it exits.
    pub serve_scratch: MemGauge,
}

/// A running serving worker. Its latency histograms and hit/served
/// counters live in the deployment's telemetry registry under
/// `serving.*{worker=<id>,replica=<r>}`.
pub struct ServingWorker {
    id: ServingWorkerId,
    replica: u32,
    query: KHopQuery,
    samples: KvStore,
    features: KvStore,
    serve_latency: Arc<Histogram>,
    ingestion_latency: Arc<Histogram>,
    /// Per-stage serve-path attribution (`serving.stage_latency{stage=…}`):
    /// `cache_lookup + hop_expand + feature_gather + encode` covers the
    /// whole of a serve, so these sum to `serving.latency`.
    stage_cache_lookup: Arc<Histogram>,
    stage_hop_expand: Arc<Histogram>,
    stage_feature_gather: Arc<Histogram>,
    stage_encode: Arc<Histogram>,
    /// Update-path attribution: sample-queue dwell (produce → consume
    /// stamp on the wire record) and batch cache-apply time.
    mq_dwell: Arc<Histogram>,
    cache_apply_latency: Arc<Histogram>,
    served: Arc<Counter>,
    applied: Arc<Counter>,
    decode_errors: Arc<Counter>,
    sample_hits: Arc<Counter>,
    sample_misses: Arc<Counter>,
    feature_hits: Arc<Counter>,
    feature_misses: Arc<Counter>,
    stop: Arc<AtomicBool>,
    updaters: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    mem: ServingMemGauges,
}

/// Per-thread reusable serve state: frontier double buffer, key/value
/// batch buffers, the dedup set, and the response arena. At steady state
/// a serve allocates nothing — every buffer is cleared, not dropped,
/// between requests.
#[derive(Default)]
struct ServeScratch {
    arena: SubgraphArena,
    frontier: Vec<VertexId>,
    keys10: Vec<[u8; 10]>,
    keys8: Vec<[u8; 8]>,
    values: Vec<Option<Bytes>>,
    dedup: FxHashSet<VertexId>,
    vertices: Vec<VertexId>,
}

impl ServeScratch {
    /// Steady-state bytes this scratch pins across requests (buffer
    /// capacities, not lengths — cleared buffers keep their allocation).
    fn footprint(&self) -> usize {
        self.arena.capacity_bytes()
            + self.frontier.capacity() * std::mem::size_of::<VertexId>()
            + self.keys10.capacity() * 10
            + self.keys8.capacity() * 8
            + self.values.capacity() * std::mem::size_of::<Option<Bytes>>()
            + self.dedup.capacity() * std::mem::size_of::<VertexId>()
            + self.vertices.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// One thread's [`ServeScratch`] plus the bytes of it currently charged
/// to a worker's `serve_scratch` gauge — the worker the thread served
/// last. Dropped with the thread, which releases the charge.
#[derive(Default)]
struct ThreadScratch {
    scratch: ServeScratch,
    gauge: MemGauge,
    charged: usize,
}

impl ThreadScratch {
    /// Bring `gauge` up to date with the scratch's footprint, first
    /// releasing what another worker's gauge still holds. At steady state
    /// (same worker, no buffer grew) this writes nothing shared.
    fn recharge(&mut self, gauge: &MemGauge) {
        if !self.gauge.same_cell(gauge) {
            self.gauge.sub(self.charged);
            self.gauge = gauge.clone();
            self.charged = 0;
        }
        let footprint = self.scratch.footprint();
        if footprint != self.charged {
            self.gauge
                .add_signed(footprint as i64 - self.charged as i64);
            self.charged = footprint;
        }
    }
}

impl Drop for ThreadScratch {
    fn drop(&mut self) {
        self.gauge.sub(self.charged);
    }
}

impl ServingWorker {
    /// Start replica `replica` of serving worker `id`: opens its cache
    /// stores and spawns data-updating threads over the partitions of
    /// `samples-<id>`. Each replica consumes the full sample queue under
    /// its own consumer group, so replicas converge to identical caches
    /// (§4.1's replication of highly loaded serving workers).
    #[allow(clippy::too_many_arguments)] // called only by `ServingTier`
    pub(crate) fn start(
        id: ServingWorkerId,
        replica: u32,
        config: &HeliosConfig,
        query: &KHopQuery,
        broker: &Arc<Broker>,
        beacon: crate::actor::Beacon,
        registry: &Registry,
        recorder: &Arc<FlightRecorder>,
    ) -> Result<Arc<ServingWorker>> {
        let mem = ServingMemGauges::default();
        let kv_config = |suffix: &str, table: MemGauge| {
            let gauges = KvMemGauges {
                memtable: table,
                block_cache: mem.block_cache.clone(),
                sst_index: mem.sst_index.clone(),
            };
            let mut c = match &config.cache_dir {
                Some(dir) => {
                    let mut c = KvConfig::hybrid(
                        config.cache_shards,
                        config.cache_memtable_budget,
                        dir.join(format!("sew{}-r{replica}-{suffix}", id.0)),
                    );
                    c.l0_compact_trigger = config.cache_l0_compact_trigger;
                    c.max_immutable_memtables = config.cache_max_immutables;
                    c.block_cache_bytes = config.cache_block_cache_bytes;
                    c
                }
                None => KvConfig::in_memory(config.cache_shards),
            };
            c.mem = gauges;
            c
        };
        let w = id.0.to_string();
        let r = replica.to_string();
        let labels: &[(&str, &str)] = &[("worker", &w), ("replica", &r)];
        let hit_labels = |table: &'static str| {
            [
                ("worker", w.as_str()),
                ("replica", r.as_str()),
                ("table", table),
            ]
        };
        let stage_labels = |stage: &'static str| {
            [
                ("worker", w.as_str()),
                ("replica", r.as_str()),
                ("stage", stage),
            ]
        };
        let applied = registry.counter("serving.applied", labels);
        let decode_errors = registry.counter("serving.decode_errors", labels);
        let worker = Arc::new(ServingWorker {
            id,
            replica,
            query: query.clone(),
            samples: KvStore::open(kv_config("samples", mem.sample_table.clone()))?,
            features: KvStore::open(kv_config("features", mem.feature_table.clone()))?,
            serve_latency: registry.histogram("serving.latency", labels),
            ingestion_latency: registry.histogram("serving.ingestion_latency", labels),
            stage_cache_lookup: registry
                .histogram("serving.stage_latency", &stage_labels("cache_lookup")),
            stage_hop_expand: registry
                .histogram("serving.stage_latency", &stage_labels("hop_expand")),
            stage_feature_gather: registry
                .histogram("serving.stage_latency", &stage_labels("feature_gather")),
            stage_encode: registry.histogram("serving.stage_latency", &stage_labels("encode")),
            mq_dwell: registry.histogram(
                "mq.dwell",
                &[
                    ("topic", "samples"),
                    ("worker", w.as_str()),
                    ("replica", r.as_str()),
                ],
            ),
            cache_apply_latency: registry.histogram("serving.cache_apply_latency", labels),
            served: registry.counter("serving.served", labels),
            applied,
            decode_errors,
            sample_hits: registry.counter("serving.cache_hit", &hit_labels("samples")),
            sample_misses: registry.counter("serving.cache_miss", &hit_labels("samples")),
            feature_hits: registry.counter("serving.cache_hit", &hit_labels("features")),
            feature_misses: registry.counter("serving.cache_miss", &hit_labels("features")),
            stop: Arc::new(AtomicBool::new(false)),
            updaters: parking_lot::Mutex::new(Vec::new()),
            mem: mem.clone(),
        });

        // Background flush/compaction events from both cache stores feed
        // the flight recorder (the kvstore has no telemetry dependency,
        // so the wiring lives here).
        for store in [&worker.samples, &worker.features] {
            let recorder = Arc::clone(recorder);
            let sew = id.0;
            store.set_event_hook(Arc::new(move |ev| match *ev {
                KvEvent::Flush {
                    entries,
                    bytes,
                    pending,
                    ..
                } => recorder.record(
                    EventKind::Flush,
                    sew,
                    entries as u64,
                    bytes as u64,
                    pending as u64,
                ),
                KvEvent::Compaction {
                    runs_in,
                    entries_out,
                    bytes_out,
                    ..
                } => recorder.record(
                    EventKind::Compaction,
                    sew,
                    runs_in as u64,
                    entries_out,
                    bytes_out,
                ),
                KvEvent::Stall { .. } => {}
            }));
        }

        let mut handles = Vec::new();

        // Data-updating threads: split the topic's partitions across them.
        let topic_name = topics::samples(id.0);
        let partitions: Vec<PartitionId> = (0..SAMPLE_QUEUE_PARTITIONS).map(PartitionId).collect();
        let chunks: Vec<Vec<PartitionId>> = split_round_robin(&partitions, UPDATER_THREADS);
        for (t, parts) in chunks.into_iter().enumerate() {
            if parts.is_empty() {
                continue;
            }
            let mut consumer =
                broker.consumer(&format!("sew-{}-r{replica}", id.0), &topic_name, &parts)?;
            let w = Arc::clone(&worker);
            let stop = Arc::clone(&worker.stop);
            let beacon = beacon.clone();
            let recorder = Arc::clone(recorder);
            let updater_name = format!("sew{}r{replica}-updater-{t}", id.0);
            handles.push(
                std::thread::Builder::new()
                    .name(updater_name.clone())
                    .spawn(move || {
                        let _token = register_thread(updater_name);
                        let mut batch: Vec<SampleMsg> = Vec::with_capacity(POLL_BATCH);
                        while !stop.load(Ordering::Relaxed) {
                            beacon.beat();
                            let recs = consumer.poll(POLL_BATCH, POLL_TIMEOUT);
                            if recs.is_empty() {
                                continue;
                            }
                            batch.clear();
                            let mut errors = 0u64;
                            let consumed_at = now_nanos();
                            for rec in &recs {
                                if rec.produced_at > 0 {
                                    w.mq_dwell
                                        .record(consumed_at.saturating_sub(rec.produced_at));
                                }
                                match SampleMsg::decode_from_slice(&rec.payload) {
                                    Ok(msg) => batch.push(msg),
                                    Err(_) => errors += 1,
                                }
                            }
                            // The whole poll batch lands in the cache with
                            // one write-lock acquisition per kvstore shard.
                            let apply_start = std::time::Instant::now();
                            let apply_frame = push_frame(&CACHE_APPLY);
                            w.apply_batch(&batch);
                            drop(apply_frame);
                            w.cache_apply_latency.record_duration(apply_start.elapsed());
                            w.applied.add(batch.len() as u64);
                            if errors > 0 {
                                w.decode_errors.add(errors);
                                recorder.record(EventKind::DecodeError, id.0, errors, 0, 0);
                            }
                            recorder.record(
                                EventKind::UpdateApplied,
                                id.0,
                                batch.len() as u64,
                                errors,
                                u64::from(replica),
                            );
                        }
                    })
                    .expect("spawn updater thread"),
            );
        }
        *worker.updaters.lock() = handles;
        Ok(worker)
    }

    /// Worker id.
    pub fn id(&self) -> ServingWorkerId {
        self.id
    }

    /// Replica index within the logical serving worker.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Apply one cache update (normally called by updater threads; public
    /// for tests and custom pipelines).
    pub fn apply(&self, msg: &SampleMsg) {
        self.apply_batch(std::slice::from_ref(msg));
    }

    /// Apply a batch of cache updates, writing each table through one
    /// [`KvStore::write_batch`] — one write-lock acquisition per touched
    /// kvstore shard for the whole batch instead of one per message.
    /// Per-key input order is preserved, so the result is identical to
    /// applying the messages one by one.
    pub fn apply_batch(&self, msgs: &[SampleMsg]) {
        let mut sample_ops: Vec<WriteOp> = Vec::new();
        let mut feature_ops: Vec<WriteOp> = Vec::new();
        let mut caused: Vec<(u64, u64)> = Vec::new();
        for msg in msgs {
            let trace = msg.trace();
            let _apply_span = span("serving.cache_apply", trace);
            match msg {
                SampleMsg::SampleUpdate {
                    hop,
                    key,
                    entries,
                    caused_at,
                    ..
                } => {
                    let mut buf = BytesMut::with_capacity(8 + entries.len() * 20);
                    entries.encode(&mut buf);
                    let ts = entries
                        .iter()
                        .map(|e| e.ts)
                        .max()
                        .unwrap_or(Timestamp::ZERO);
                    sample_ops.push(WriteOp::put(sample_key(*hop, *key), buf.freeze(), ts));
                    if *caused_at > 0 {
                        caused.push((*caused_at, trace.trace));
                    }
                }
                SampleMsg::Evict { hop, key } => {
                    sample_ops.push(WriteOp::delete(sample_key(*hop, *key), Timestamp::MAX));
                }
                SampleMsg::FeatureUpdate {
                    vertex,
                    feature,
                    ts,
                    caused_at,
                    ..
                } => {
                    let mut buf = BytesMut::with_capacity(feature.len() * 4 + 8);
                    feature.encode(&mut buf);
                    feature_ops.push(WriteOp::put(feature_key(*vertex), buf.freeze(), *ts));
                    if *caused_at > 0 {
                        caused.push((*caused_at, trace.trace));
                    }
                }
                SampleMsg::EvictFeature { vertex } => {
                    feature_ops.push(WriteOp::delete(feature_key(*vertex), Timestamp::MAX));
                }
            }
        }
        if !sample_ops.is_empty() {
            let _ = self.samples.write_batch(sample_ops);
        }
        if !feature_ops.is_empty() {
            let _ = self.features.write_batch(feature_ops);
        }
        // Ingestion latency is "enqueue → visible in cache", so the stamps
        // are recorded only after the batch has landed.
        for (at, trace) in caused {
            self.record_ingestion(at, trace);
        }
    }

    fn record_ingestion(&self, caused_at: u64, trace: u64) {
        if caused_at > 0 {
            let now = now_nanos();
            if now > caused_at {
                self.ingestion_latency
                    .record_with_exemplar(now - caused_at, trace);
            }
        }
    }

    /// Answer a K-hop sampling query for `seed` from the local cache: a
    /// fixed number of lookups, no traversal, no network (§6's "Serving
    /// Sampling Queries", Fig. 8). Runs on the caller's thread, assembles
    /// the result in that thread's reusable arena and writes the canonical
    /// response bytes straight into `out` — the owned [`SampledSubgraph`]
    /// (one allocation per group and per feature) is never materialized.
    /// `out` is cleared first; its capacity is reused. The serve continues
    /// the caller's trace; with [`TraceCtx::NONE`] and tracing enabled, a
    /// fresh trace starts at this request.
    pub fn serve_encoded(&self, seed: VertexId, parent: TraceCtx, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        self.with_thread_scratch(|scratch| {
            self.serve_core(seed, parent, scratch, |view| view.encode_into(out))
        })
    }

    /// Owned adapter over the same path as
    /// [`ServingWorker::serve_encoded`], for callers that want the
    /// [`SampledSubgraph`] rather than its bytes.
    pub fn serve(&self, seed: VertexId, parent: TraceCtx) -> Result<SampledSubgraph> {
        self.with_thread_scratch(|scratch| {
            self.serve_core(seed, parent, scratch, |view| view.to_subgraph())
        })
    }

    /// Run `f` with this thread's reusable scratch, then charge what the
    /// scratch now pins to this worker's `serve_scratch` gauge. Serving is
    /// `&self` from any number of connection threads, so the scratch is
    /// thread-local.
    fn with_thread_scratch<R>(&self, f: impl FnOnce(&mut ServeScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: std::cell::RefCell<ThreadScratch> =
                std::cell::RefCell::new(ThreadScratch::default());
        }
        SCRATCH.with(|cell| {
            let mut thread = cell.borrow_mut();
            let result = f(&mut thread.scratch);
            thread.recharge(&self.mem.serve_scratch);
            result
        })
    }

    /// The serve hot path. Assembles the K-hop result into
    /// `scratch.arena` — flat buffers, no per-group/per-feature `Vec`s —
    /// then hands the borrowed [`SubgraphView`] to `finish` (owned
    /// conversion, wire encoding, …) inside the encode stage.
    fn serve_core<R>(
        &self,
        seed: VertexId,
        parent: TraceCtx,
        scratch: &mut ServeScratch,
        finish: impl FnOnce(SubgraphView<'_>) -> R,
    ) -> Result<R> {
        let root = if parent.is_active() {
            parent
        } else {
            TraceCtx::root()
        };
        let serve_span = span("serving.serve", root);
        let _serve_frame = push_frame(&SERVE);
        let ctx = serve_span.ctx();
        let start = std::time::Instant::now();
        // Stage clocks are *contiguous*: each stage window runs from the
        // previous stage's end mark, so the four windows tile the whole
        // serve and `Σ stage_latency ≈ serving.latency` stays an identity
        // even though the arena path shrank per-stage work to microseconds
        // (with per-stage clocks, the fixed scaffolding between windows —
        // frontier recycling, counter flushes — escaped attribution).
        let mut mark = start;
        let ServeScratch {
            arena,
            frontier,
            keys10,
            keys8,
            values,
            dedup,
            vertices,
        } = scratch;
        arena.reset(seed);
        frontier.clear();
        frontier.push(seed);
        for hop_idx in 0..self.query.hops() {
            let hop = QueryHopId(hop_idx as u16);
            // Stage: cache lookup. One shard-grouped multi_get over the
            // whole frontier — the sample table's shard locks are taken
            // once per hop, not once per vertex — into the reused value
            // buffer. The values are borrowed granules: refcounted handles
            // onto block-cache/memtable memory, not copies.
            let lookup_span = span("serving.cache_lookup", ctx);
            let lookup_frame = push_frame(&CACHE_LOOKUP);
            keys10.clear();
            keys10.extend(frontier.iter().map(|&v| sample_key(hop, v)));
            self.samples.multi_get_into(keys10, values)?;
            drop(lookup_frame);
            drop(lookup_span);
            let now = std::time::Instant::now();
            self.stage_cache_lookup
                .record_duration(now.duration_since(mark));
            mark = now;
            // Stage: hop expand. Stream the sampled neighbor ids straight
            // off the raw bytes into the arena — no `Vec<VertexId>` per
            // parent, no intermediate `Vec<SampleEntryLite>`.
            let expand_span = span("serving.hop_expand", ctx);
            let expand_frame = push_frame(&HOP_EXPAND);
            let (mut hits, mut misses) = (0u64, 0u64);
            for (&v, value) in frontier.iter().zip(values.iter()) {
                arena.begin_group(v);
                match value {
                    Some(raw) => {
                        hits += 1;
                        // Undecodable lists degrade to an empty group,
                        // like the owned path always has.
                        if let Ok(neighbors) = SampleEntryLite::neighbors_iter(raw) {
                            for c in neighbors {
                                arena.push_child(c);
                            }
                        }
                    }
                    None => misses += 1,
                }
            }
            arena.end_hop();
            self.sample_hits.add(hits);
            self.sample_misses.add(misses);
            drop(expand_frame);
            drop(expand_span);
            let now = std::time::Instant::now();
            self.stage_hop_expand
                .record_duration(now.duration_since(mark));
            mark = now;
            if arena.last_hop_children().is_empty() {
                break;
            }
            frontier.clear();
            frontier.extend_from_slice(arena.last_hop_children());
        }
        // Stage: feature gather. Deduplicate, so a vertex sampled under
        // many parents costs one feature lookup; the whole set is fetched
        // with a single multi_get into the reused value buffer.
        let gather_span = span("serving.feature_gather", ctx);
        let gather_frame = push_frame(&FEATURE_GATHER);
        dedup.clear();
        vertices.clear();
        for v in std::iter::once(seed).chain(arena.sampled_vertices().iter().copied()) {
            if dedup.insert(v) {
                vertices.push(v);
            }
        }
        // In id order, the order the arena keeps features in, so each
        // gathered feature appends.
        vertices.sort_unstable();
        keys8.clear();
        keys8.extend(vertices.iter().map(|&v| feature_key(v)));
        self.features.multi_get_into(keys8, values)?;
        drop(gather_frame);
        drop(gather_span);
        let now = std::time::Instant::now();
        self.stage_feature_gather
            .record_duration(now.duration_since(mark));
        mark = now;
        // Stage: encode. Decode the fetched feature vectors straight into
        // the arena's flat feature buffer, then finish (owned conversion
        // or wire encoding) from the borrowed view.
        let encode_span = span("serving.encode", ctx);
        let encode_frame = push_frame(&ENCODE);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (&v, value) in vertices.iter().zip(values.iter()) {
            match value {
                Some(raw) => {
                    hits += 1;
                    // Malformed features are skipped, like the owned path.
                    arena.push_feature_raw(v, raw);
                }
                None => misses += 1,
            }
        }
        self.feature_hits.add(hits);
        self.feature_misses.add(misses);
        let result = finish(arena.view());
        drop(encode_frame);
        drop(encode_span);
        self.stage_encode.record_duration(mark.elapsed());
        // The end-to-end observation carries the trace id as an exemplar
        // (0 — untraced — degrades to a plain record).
        self.serve_latency
            .record_duration_with_exemplar(start.elapsed(), root.trace);
        self.served.incr();
        Ok(result)
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served.get()
    }

    /// Number of sample-queue records applied.
    pub fn applied(&self) -> u64 {
        self.applied.get()
    }

    /// Number of sample-queue records that failed to decode (and were
    /// therefore *not* applied).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.get()
    }

    /// Records this worker has taken off its sample queue, applied or
    /// rejected: its term of the drain equation.
    pub fn consumed(&self) -> u64 {
        self.applied() + self.decode_errors()
    }

    /// Sample-table cache lookups: (hits, misses).
    pub fn sample_lookups(&self) -> (u64, u64) {
        (self.sample_hits.get(), self.sample_misses.get())
    }

    /// Feature-table cache lookups: (hits, misses).
    pub fn feature_lookups(&self) -> (u64, u64) {
        (self.feature_hits.get(), self.feature_misses.get())
    }

    /// Serving latency histogram.
    pub fn serve_latency(&self) -> &Histogram {
        &self.serve_latency
    }

    /// End-to-end ingestion latency histogram (update enqueue → cache
    /// visible), Fig. 17.
    pub fn ingestion_latency(&self) -> &Histogram {
        &self.ingestion_latency
    }

    /// Sample-queue dwell-time histogram: broker-append to updater-poll
    /// per record, from the wire `produced_at` stamp. The mq slice of the
    /// ingestion latency.
    pub fn mq_dwell(&self) -> &Histogram {
        &self.mq_dwell
    }

    /// Byte gauges of this replica's cache resources, for registration
    /// with the deployment's memory accountant.
    pub fn mem_gauges(&self) -> &ServingMemGauges {
        &self.mem
    }

    /// Cache size statistics: (sample table, feature table) — Fig. 16.
    pub fn cache_stats(&self) -> (KvStats, KvStats) {
        (self.samples.stats(), self.features.stats())
    }

    /// Total cache bytes (memory + disk).
    pub fn cache_bytes(&self) -> u64 {
        let (s, f) = self.cache_stats();
        s.total_bytes() + f.total_bytes()
    }

    /// TTL expiry of cached samples/features older than `horizon`.
    /// Non-blocking: raises the stores' read-filter horizon (stale
    /// entries become invisible immediately) and nudges the background
    /// compactor to reclaim the space; never performs disk I/O on the
    /// caller's thread.
    pub fn expire_before(&self, horizon: Timestamp) -> Result<()> {
        self.samples.expire_before(horizon)?;
        self.features.expire_before(horizon)
    }

    /// Pause/resume the caches' background flushers (ops drills and
    /// wedge tests; rotated memtables accumulate while paused and drain
    /// on resume).
    pub fn pause_cache_flush(&self, paused: bool) {
        self.samples.set_flush_paused(paused);
        self.features.set_flush_paused(paused);
    }

    /// Stop updater threads (call once; serve remains usable on the
    /// remaining cache contents).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.updaters.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn split_round_robin(parts: &[PartitionId], n: usize) -> Vec<Vec<PartitionId>> {
    let mut out = vec![Vec::new(); n.max(1)];
    for (i, &p) in parts.iter().enumerate() {
        out[i % n.max(1)].push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_encodings_are_disjoint_and_ordered() {
        let a = sample_key(QueryHopId(0), VertexId(1));
        let b = sample_key(QueryHopId(0), VertexId(2));
        let c = sample_key(QueryHopId(1), VertexId(1));
        assert!(a < b);
        assert!(b < c, "hop is the major key");
        assert_ne!(feature_key(VertexId(1)), feature_key(VertexId(2)));
    }

    #[test]
    fn round_robin_split_covers_all() {
        let parts: Vec<PartitionId> = (0..5).map(PartitionId).collect();
        let chunks = split_round_robin(&parts, 2);
        assert_eq!(chunks.len(), 2);
        let total: usize = chunks.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        let chunks1 = split_round_robin(&parts, 8);
        assert_eq!(chunks1.iter().filter(|c| !c.is_empty()).count(), 5);
    }
}
