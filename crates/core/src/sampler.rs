//! The sampling worker (§4.2, §5).
//!
//! Each sampling worker owns one partition of the graph-update stream.
//! Internally it follows the paper's thread structure:
//!
//! * **one polling thread** continuously fetches the worker's partition
//!   of the `updates` topic and dispatches each update to a sampling
//!   thread by vertex hash;
//! * **sampling threads** — a [`ShardedPool`], each shard exclusively
//!   owning a slice of the key space with its per-hop reservoir tables,
//!   feature table and subscription tables (no locks on the hot path);
//!   publishing to the output queues happens once per drain. A shard
//!   handles the messages waiting in its mailbox (at most `POLL_BATCH`),
//!   then flushes: one record per `(hop, key, serving worker)` and per
//!   `(vertex, serving worker)` the drain changed, carrying the state at
//!   the end of the drain, in one produce per sample queue, and the net
//!   refcount change per subscription target as `|net|` control messages
//!   sent straight to the mailbox of the shard that owns the target
//!   vertex, on whichever worker owns it. A hot key that takes a
//!   thousand edges in one drain is sent once.
//!
//! Every sampling worker of a deployment runs in one process, so control
//! messages and resubscribe scans need no log: a shard mailbox is already
//! the per-sender FIFO channel they need.
//!
//! Subscription propagation implements §5.3 / Fig. 7 with refcounts: a
//! serving worker's subscription to `(hop k, vertex)` exists as long as at
//! least one upstream reservoir it subscribes to contains that vertex.

use crate::actor::{Actor, Beacon, ShardedPool};
use crate::config::{HeliosConfig, POLL_BATCH, POLL_TIMEOUT};
use crate::coordinator::Coordinator;
use crate::messages::{now_nanos, ControlMsg, SampleEntryLite, SampleMsg, UpdateEnvelope};
use crate::to_reservoir_strategy;
use helios_membership::RouteTable;
use helios_mq::{Broker, Consumer, Topic};
use helios_query::{KHopQuery, QueryDag};
use helios_sampling::{ReservoirOutcome, ReservoirTable, SampleEntry};
use helios_telemetry::{span, Counter, EventKind, FlightRecorder, Histogram, Registry, TraceCtx};
use helios_types::{
    hash::route, Decode, EdgeUpdate, Encode, FxHashMap, GraphUpdate, HeliosError, PartitionId,
    QueryHopId, Result, SamplingWorkerId, ServingWorkerId, Timestamp, VertexId, VertexType,
    VertexUpdate,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Topic names shared between the deployment and the workers.
pub mod topics {
    /// Graph-update stream (M partitions, one per sampling worker).
    pub const UPDATES: &str = "updates";
    /// Sample queue of one serving worker.
    pub fn samples(sew: u32) -> String {
        format!("samples-{sew}")
    }
}

/// Shared throughput/progress counters of one sampling worker, registered
/// as `sampler.*` instruments in the deployment's telemetry registry so
/// snapshots and reports see them by name.
#[derive(Debug)]
pub struct SamplerMetrics {
    /// Update records dispatched by the polling thread.
    pub updates_dispatched: Arc<Counter>,
    /// Update records fully processed by sampling threads: counted when
    /// the drain that handled them has flushed its output.
    pub updates_processed: Arc<Counter>,
    /// Control messages this worker's shards sent to a shard mailbox,
    /// counted before the send.
    pub control_dispatched: Arc<Counter>,
    /// Control messages fully processed (counted at the receiving shard's
    /// flush, like updates).
    pub control_processed: Arc<Counter>,
    /// Sample/feature records published to serving workers, after each
    /// drain coalesced them to one per `(hop, key)` or vertex and worker.
    pub published: Arc<Counter>,
    /// Per-sampling-thread busy nanoseconds. On a machine with fewer
    /// cores than threads, `max` over these is the critical-path compute
    /// time a truly parallel deployment would take — the scalability
    /// experiments report throughput against it ("simulated-parallel").
    pub shard_busy_nanos: Vec<Arc<Counter>>,
    /// Time update records spent in the updates topic before this worker
    /// polled them (`mq.dwell{topic=updates}`), from the produce stamp on
    /// the wire record.
    pub update_dwell: Arc<Histogram>,
    /// Shard time spent mutating local state per update (reservoir offer,
    /// feature upsert) — the update path's "sampler-apply" stage.
    pub apply_latency: Arc<Histogram>,
    /// Shard time spent flushing a drain's owed records and net control
    /// messages — the "samples-propagate" stage, one observation per
    /// flush. The sum of `apply` and `propagate` is the shard's stream
    /// processing time.
    pub propagate_latency: Arc<Histogram>,
}

impl SamplerMetrics {
    /// Standalone metrics (not in any registry) for a worker with
    /// `threads` sampling threads; used by unit tests.
    pub fn new(threads: usize) -> Self {
        SamplerMetrics {
            updates_dispatched: Arc::new(Counter::new()),
            updates_processed: Arc::new(Counter::new()),
            control_dispatched: Arc::new(Counter::new()),
            control_processed: Arc::new(Counter::new()),
            published: Arc::new(Counter::new()),
            shard_busy_nanos: (0..threads).map(|_| Arc::new(Counter::new())).collect(),
            update_dwell: Arc::new(Histogram::new()),
            apply_latency: Arc::new(Histogram::new()),
            propagate_latency: Arc::new(Histogram::new()),
        }
    }

    /// Metrics registered under `sampler.*{worker=<id>}` in `registry`.
    pub fn registered(registry: &Registry, worker: u32, threads: usize) -> Self {
        let w = worker.to_string();
        let labels: &[(&str, &str)] = &[("worker", &w)];
        SamplerMetrics {
            updates_dispatched: registry.counter("sampler.updates_dispatched", labels),
            updates_processed: registry.counter("sampler.updates_processed", labels),
            control_dispatched: registry.counter("sampler.control_dispatched", labels),
            control_processed: registry.counter("sampler.control_processed", labels),
            published: registry.counter("sampler.published", labels),
            shard_busy_nanos: (0..threads)
                .map(|s| {
                    let s = s.to_string();
                    registry.counter("sampler.shard_busy_nanos", &[("worker", &w), ("shard", &s)])
                })
                .collect(),
            update_dwell: registry.histogram("mq.dwell", &[("topic", "updates"), ("worker", &w)]),
            apply_latency: registry.histogram("sampler.apply_latency", labels),
            propagate_latency: registry.histogram("sampler.propagate_latency", labels),
        }
    }

    /// The busiest sampling thread's accumulated compute time, in
    /// nanoseconds: the parallel critical path.
    pub fn max_shard_busy_nanos(&self) -> u64 {
        self.shard_busy_nanos
            .iter()
            .map(|b| b.get())
            .max()
            .unwrap_or(0)
    }

    /// Total compute nanoseconds across sampling threads.
    pub fn total_busy_nanos(&self) -> u64 {
        self.shard_busy_nanos.iter().map(|b| b.get()).sum()
    }
}

/// Every sampling worker's shard mailboxes, indexed by worker id: where
/// a flush sends its control messages. Set once, before any shard
/// handles a message.
type Mailboxes = Arc<OnceLock<Vec<Arc<ShardedPool<ShardMsg>>>>>;

/// Context shared by all shards of one sampling worker.
struct Ctx {
    worker: SamplingWorkerId,
    /// Seed→serving-worker routing, the same table the deployment
    /// front-end and the gateway build.
    routes: Arc<RouteTable>,
    dag: QueryDag,
    seed_type: VertexType,
    /// Sample queue of each serving worker, indexed by its id.
    sample_topics: Vec<Arc<Topic>>,
    mailboxes: Mailboxes,
    metrics: Arc<SamplerMetrics>,
    recorder: Arc<FlightRecorder>,
}

impl Ctx {
    /// Context of worker `worker`, resolving one `samples-<s>` queue on
    /// `broker` per serving worker `routes` routes to.
    fn new(
        worker: SamplingWorkerId,
        query: &KHopQuery,
        broker: &Broker,
        routes: Arc<RouteTable>,
        mailboxes: Mailboxes,
        metrics: Arc<SamplerMetrics>,
        recorder: Arc<FlightRecorder>,
    ) -> Result<Ctx> {
        let sample_topics = (0..routes.workers() as u32)
            .map(|s| broker.topic(&topics::samples(s)))
            .collect::<Result<_>>()?;
        Ok(Ctx {
            worker,
            routes,
            dag: query.dag(),
            seed_type: query.seed_type(),
            sample_topics,
            mailboxes,
            metrics,
            recorder,
        })
    }

    #[inline]
    fn sew_of(&self, v: VertexId) -> ServingWorkerId {
        self.routes.owner_of(v)
    }

    /// Append a drain's records for `sew` with one produce, waking its
    /// consumers once. Records for a worker outside the table are
    /// dropped: only subscriptions restored from a checkpoint that lost
    /// its manifest can name one.
    fn publish_samples(&self, sew: u32, records: Vec<(u64, bytes::Bytes)>) {
        if let Some(topic) = self.sample_topics.get(sew as usize) {
            let landed = topic.produce_many(records).unwrap_or(0);
            self.metrics.published.add(landed as u64);
        }
    }

    /// Send `msg` to the shard that owns its target vertex `v`: shard
    /// `shard_hash(v) % n` of worker `route(v, M)`.
    fn send_control(&self, msg: ControlMsg) {
        let pools = self
            .mailboxes
            .get()
            .expect("mailboxes are set before any shard handles a message");
        let v = msg.target_vertex().raw();
        pools[route(v, pools.len())].send(v, ShardMsg::Control(msg));
    }
}

/// One refcount that a control message moves on the owner of its vertex.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SubTarget {
    Samples(QueryHopId, VertexId, ServingWorkerId),
    Feature(VertexId, ServingWorkerId),
}

impl SubTarget {
    /// The message that moves this refcount up (`subscribe`) or down.
    fn msg(self, subscribe: bool) -> ControlMsg {
        match (self, subscribe) {
            (SubTarget::Samples(hop, vertex, sew), true) => {
                ControlMsg::SubscribeSamples { hop, vertex, sew }
            }
            (SubTarget::Samples(hop, vertex, sew), false) => {
                ControlMsg::UnsubscribeSamples { hop, vertex, sew }
            }
            (SubTarget::Feature(vertex, sew), true) => ControlMsg::SubscribeFeature { vertex, sew },
            (SubTarget::Feature(vertex, sew), false) => {
                ControlMsg::UnsubscribeFeature { vertex, sew }
            }
        }
    }
}

/// Queue `delta` on the subscriptions `sew` holds because `neighbor` is
/// sampled under `hop`: its feature, and its samples on every downstream
/// hop.
fn ripple(
    controls: &mut FxHashMap<SubTarget, i64>,
    dag: &QueryDag,
    hop: QueryHopId,
    neighbor: VertexId,
    sew: ServingWorkerId,
    delta: i64,
) {
    *controls
        .entry(SubTarget::Feature(neighbor, sew))
        .or_insert(0) += delta;
    for d in dag.downstream(hop) {
        *controls
            .entry(SubTarget::Samples(d.hop, neighbor, sew))
            .or_insert(0) += delta;
    }
}

/// The serving workers a drain owes a record for one cache key, and the
/// cause that record carries: the earliest non-zero enqueue stamp among
/// the updates that changed the key, with that update's trace.
#[derive(Default)]
struct Owed {
    sews: Vec<u32>,
    caused_at: u64,
    trace: TraceCtx,
}

impl Owed {
    fn mark(&mut self, sew: u32, caused_at: u64, trace: TraceCtx) {
        if !self.sews.contains(&sew) {
            self.sews.push(sew);
        }
        if caused_at != 0 && (self.caused_at == 0 || caused_at < self.caused_at) {
            self.caused_at = caused_at;
            self.trace = trace;
        }
    }
}

/// One step of re-deriving every subscription after a checkpoint is
/// restored into a different topology (see `handle_resubscribe`).
#[derive(Clone, Copy, Debug)]
enum Resubscribe {
    /// Drop every subscription; `seeds` keeps its keys for `Rebuild`.
    Clear,
    /// Re-derive the seeds' subscriptions from `seeds` and reservoir
    /// contents under the routing table. Sent only once every shard has
    /// run `Clear`, so no shard clears a charge another shard's `Rebuild`
    /// already sent it.
    Rebuild,
}

/// Messages handled by a sampling shard.
enum ShardMsg {
    Update(UpdateEnvelope),
    Control(ControlMsg),
    /// TTL expiry up to the horizon.
    Expire(Timestamp),
    /// Write shard state to `dir` and ack.
    Checkpoint(PathBuf, crossbeam::channel::Sender<Result<()>>),
    /// Load shard state from `dir` (if a file exists) and ack.
    Restore(PathBuf, crossbeam::channel::Sender<Result<()>>),
    /// Run one resubscribe step and ack.
    Resubscribe(Resubscribe, crossbeam::channel::Sender<()>),
    /// Deep-copy the shard's state for tests/diagnostics and ack.
    Inspect(crossbeam::channel::Sender<ShardSnapshot>),
}

type SubTable = FxHashMap<VertexId, FxHashMap<u32, u32>>;

/// A deep copy of one sampling shard's state, taken through the shard's
/// own mailbox (so it is a consistent point-in-time view). Used by the
/// subscription-churn tests.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Per hop: reservoir key → current sampled neighbors.
    pub reservoirs: Vec<FxHashMap<VertexId, Vec<VertexId>>>,
    /// Per hop: vertex → serving worker → subscription refcount.
    pub sample_subs: Vec<FxHashMap<VertexId, FxHashMap<u32, u32>>>,
    /// Vertex → serving worker → feature subscription refcount.
    pub feat_subs: FxHashMap<VertexId, FxHashMap<u32, u32>>,
    /// Seed → serving worker currently charged with its implicit
    /// subscriptions.
    pub seeds: FxHashMap<VertexId, u32>,
}

/// One sampling thread's exclusive state.
///
/// A shard publishes nothing while it handles a drain. Every event that
/// changes what a serving worker should hold for a cache key marks the
/// key owed to that worker; every subscription change adds to a net
/// refcount delta per target. [`Actor::flush`] turns both into records at
/// the end of the drain, from the state at that point.
struct SamplerShard {
    ctx: Arc<Ctx>,
    shard_idx: usize,
    /// Reservoir table per one-hop query (indexed by hop).
    reservoirs: Vec<ReservoirTable>,
    /// Latest features of locally-owned vertices.
    features: FxHashMap<VertexId, (Vec<f32>, Timestamp)>,
    /// Per-hop sample subscription refcounts.
    sample_subs: Vec<SubTable>,
    /// Feature subscription refcounts.
    feat_subs: SubTable,
    /// Seed → serving worker holding its *implicit* subscriptions (the
    /// hop-0 sample sub and one feature-sub refcount). A restore into a
    /// different topology re-derives them from these keys.
    seeds: FxHashMap<VertexId, u32>,
    rng: StdRng,
    /// Sample cells the current drain changed for some serving worker.
    owed_samples: FxHashMap<(QueryHopId, VertexId), Owed>,
    /// Feature cells the current drain changed for some serving worker.
    owed_features: FxHashMap<VertexId, Owed>,
    /// Net refcount change per subscription target over the current
    /// drain. Every subscription change, immediate or cascaded, lands
    /// here in handling order, so between two flushes this shard's share
    /// of a remote refcount moves one way only and never reads negative.
    controls: FxHashMap<SubTarget, i64>,
    /// Update and control messages handled since the last flush; they
    /// count as processed only once their output is sent.
    unflushed_updates: u64,
    unflushed_controls: u64,
    /// Profiler registration, held for the shard thread's lifetime
    /// (populated by `on_start` on the actor's own thread).
    profile_token: Option<helios_types::profile::ThreadToken>,
}

impl SamplerShard {
    fn new(ctx: Arc<Ctx>, shard_idx: usize) -> Self {
        let reservoirs = ctx
            .dag
            .nodes()
            .iter()
            .map(|q| ReservoirTable::new(to_reservoir_strategy(q.strategy), q.fanout))
            .collect();
        let sample_subs = vec![SubTable::default(); ctx.dag.len()];
        let seed = (ctx.worker.0 as u64) << 32 | shard_idx as u64;
        SamplerShard {
            ctx,
            shard_idx,
            reservoirs,
            features: FxHashMap::default(),
            sample_subs,
            feat_subs: SubTable::default(),
            seeds: FxHashMap::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x4845_4C49_4F53_u64),
            owed_samples: FxHashMap::default(),
            owed_features: FxHashMap::default(),
            controls: FxHashMap::default(),
            unflushed_updates: 0,
            unflushed_controls: 0,
            profile_token: None,
        }
    }

    fn lite_entries(entries: &[SampleEntry]) -> Vec<SampleEntryLite> {
        entries
            .iter()
            .map(|e| SampleEntryLite {
                neighbor: e.neighbor,
                ts: e.ts,
                weight: e.weight,
            })
            .collect()
    }

    /// Run a non-stream operation. It sees, checkpoints or changes the
    /// state the serving workers were last sent, so the drain so far is
    /// flushed first, and what the operation changes is sent before the
    /// caller acks.
    fn between_flushes<R>(&mut self, op: impl FnOnce(&mut Self) -> R) -> R {
        self.flush();
        let start = Instant::now();
        let result = op(self);
        self.charge_busy(start);
        self.flush();
        result
    }

    /// Add the time since `since` to this shard's busy counter; returns it.
    fn charge_busy(&self, since: Instant) -> u64 {
        let ns = since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if let Some(cell) = self.ctx.metrics.shard_busy_nanos.get(self.shard_idx) {
            cell.add(ns);
        }
        ns
    }

    // ---- update handling (§5.2) ----

    fn handle_vertex(&mut self, v: &VertexUpdate, caused_at: u64, trace: TraceCtx) {
        self.features.insert(v.id, (v.feature.clone(), v.ts));
        if v.vtype == self.ctx.seed_type {
            // Seed vertices are implicitly subscribed by their serving
            // worker (it will need the seed feature — and, when edges
            // arrive, the hop-0 samples — to answer requests on v).
            self.ensure_seed_sub(v.id);
        }
        if let Some(subs) = self.feat_subs.get(&v.id) {
            let owed = self.owed_features.entry(v.id).or_default();
            for &sew in subs.keys() {
                owed.mark(sew, caused_at, trace);
            }
        }
    }

    fn handle_edge(&mut self, e: &EdgeUpdate, caused_at: u64, trace: TraceCtx) {
        // An edge can match several one-hop queries (e.g. FIN's two
        // TransferTo hops); each maintains its own reservoir.
        for hop_idx in 0..self.ctx.dag.len() {
            let node = self.ctx.dag.nodes()[hop_idx];
            if !node.matches_edge(e.src_type, e.etype, e.dst_type) {
                continue;
            }
            let hop = QueryHopId(hop_idx as u16);
            if hop_idx == 0 {
                // Implicit seed subscription (Q₁ keys are seeds; their
                // serving worker is determined by routing).
                self.ensure_seed_sub(e.src);
            }
            let reservoir_span = span("sampler.reservoir", trace);
            let outcome =
                self.reservoirs[hop_idx].offer(e.src, e.dst, e.ts, e.weight, &mut self.rng);
            drop(reservoir_span);
            let (added, evicted) = match outcome {
                ReservoirOutcome::Ignored => (None, None),
                ReservoirOutcome::Added => (Some(e.dst), None),
                ReservoirOutcome::Replaced { evicted } => (Some(e.dst), Some(evicted.neighbor)),
            };
            if outcome.changed() {
                self.on_reservoir_change(hop, e.src, added, evicted, caused_at, trace);
            }
        }
    }

    /// Owe every subscriber of `(hop, key)` the new reservoir and queue
    /// the refcount moves for the entering and evicted samples.
    fn on_reservoir_change(
        &mut self,
        hop: QueryHopId,
        key: VertexId,
        added: Option<VertexId>,
        evicted: Option<VertexId>,
        caused_at: u64,
        trace: TraceCtx,
    ) {
        let Some(subs) = self.sample_subs[hop.index()].get(&key) else {
            return;
        };
        let owed = self.owed_samples.entry((hop, key)).or_default();
        for &sew in subs.keys() {
            owed.mark(sew, caused_at, trace);
            let sew = ServingWorkerId(sew);
            if let Some(new_neighbor) = added {
                ripple(&mut self.controls, &self.ctx.dag, hop, new_neighbor, sew, 1);
            }
            if let Some(old_neighbor) = evicted {
                ripple(
                    &mut self.controls,
                    &self.ctx.dag,
                    hop,
                    old_neighbor,
                    sew,
                    -1,
                );
            }
        }
    }

    // ---- subscription handling (§5.3) ----

    /// Charge `seed`'s owner with its implicit subscriptions the first
    /// time the seed shows up: the hop-0 sample sub plus one feature-sub
    /// refcount. Called on every hop-0 edge and seed-typed vertex update.
    /// The subscribe path owes the owner the reservoir and feature
    /// snapshots (§5.3, idempotent).
    fn ensure_seed_sub(&mut self, seed: VertexId) {
        if self.seeds.contains_key(&seed) {
            return;
        }
        let owner = self.ctx.sew_of(seed);
        self.seeds.insert(seed, owner.0);
        self.sub_samples(QueryHopId(0), seed, owner);
        self.sub_feature(seed, owner);
    }

    fn sub_samples(&mut self, hop: QueryHopId, vertex: VertexId, sew: ServingWorkerId) {
        let rc = self.sample_subs[hop.index()]
            .entry(vertex)
            .or_default()
            .entry(sew.0)
            .or_insert(0);
        *rc += 1;
        let first = *rc == 1;
        // Every subscribe owes a snapshot (idempotent), so the subscriber
        // converges even if it subscribed mid-stream.
        self.owed_samples
            .entry((hop, vertex))
            .or_default()
            .mark(sew.0, 0, TraceCtx::NONE);
        if first {
            for e in self.reservoirs[hop.index()].samples(vertex) {
                ripple(&mut self.controls, &self.ctx.dag, hop, e.neighbor, sew, 1);
            }
        }
    }

    fn unsub_samples(&mut self, hop: QueryHopId, vertex: VertexId, sew: ServingWorkerId) {
        let mut drop_all = false;
        if let Some(m) = self.sample_subs[hop.index()].get_mut(&vertex) {
            if let Some(rc) = m.get_mut(&sew.0) {
                *rc = rc.saturating_sub(1);
                if *rc == 0 {
                    m.remove(&sew.0);
                    drop_all = true;
                }
            }
            if m.is_empty() {
                self.sample_subs[hop.index()].remove(&vertex);
            }
        }
        if drop_all {
            self.owed_samples
                .entry((hop, vertex))
                .or_default()
                .mark(sew.0, 0, TraceCtx::NONE);
            for e in self.reservoirs[hop.index()].samples(vertex) {
                ripple(&mut self.controls, &self.ctx.dag, hop, e.neighbor, sew, -1);
            }
        }
    }

    fn sub_feature(&mut self, vertex: VertexId, sew: ServingWorkerId) {
        let rc = self
            .feat_subs
            .entry(vertex)
            .or_default()
            .entry(sew.0)
            .or_insert(0);
        *rc += 1;
        if *rc == 1 {
            self.owed_features
                .entry(vertex)
                .or_default()
                .mark(sew.0, 0, TraceCtx::NONE);
        }
    }

    fn unsub_feature(&mut self, vertex: VertexId, sew: ServingWorkerId) {
        let mut evict = false;
        if let Some(m) = self.feat_subs.get_mut(&vertex) {
            if let Some(rc) = m.get_mut(&sew.0) {
                *rc = rc.saturating_sub(1);
                if *rc == 0 {
                    m.remove(&sew.0);
                    evict = true;
                }
            }
            if m.is_empty() {
                self.feat_subs.remove(&vertex);
            }
        }
        if evict {
            self.owed_features
                .entry(vertex)
                .or_default()
                .mark(sew.0, 0, TraceCtx::NONE);
        }
    }

    fn handle_control(&mut self, msg: ControlMsg) {
        match msg {
            ControlMsg::SubscribeSamples { hop, vertex, sew } => self.sub_samples(hop, vertex, sew),
            ControlMsg::UnsubscribeSamples { hop, vertex, sew } => {
                self.unsub_samples(hop, vertex, sew)
            }
            ControlMsg::SubscribeFeature { vertex, sew } => self.sub_feature(vertex, sew),
            ControlMsg::UnsubscribeFeature { vertex, sew } => self.unsub_feature(vertex, sew),
        }
    }

    // ---- resubscribe (topology-mismatched restore) ----

    /// `Clear` then `Rebuild` re-derive the whole subscription tree from
    /// reservoir contents under the routing table.
    fn handle_resubscribe(&mut self, step: Resubscribe) {
        match step {
            Resubscribe::Clear => {
                for t in &mut self.sample_subs {
                    t.clear();
                }
                self.feat_subs.clear();
            }
            Resubscribe::Rebuild => {
                let mut seeds: Vec<VertexId> =
                    std::mem::take(&mut self.seeds).into_keys().collect();
                seeds.extend(self.reservoirs[0].iter().map(|(k, _)| k));
                seeds.sort_unstable();
                seeds.dedup();
                for v in seeds {
                    self.ensure_seed_sub(v);
                }
            }
        }
    }

    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            reservoirs: self
                .reservoirs
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|(k, r)| (k, r.neighbors().collect()))
                        .collect()
                })
                .collect(),
            sample_subs: self.sample_subs.clone(),
            feat_subs: self.feat_subs.clone(),
            seeds: self.seeds.clone(),
        }
    }

    // ---- TTL (§4.2) ----

    fn handle_expire(&mut self, horizon: Timestamp) {
        for hop_idx in 0..self.reservoirs.len() {
            let hop = QueryHopId(hop_idx as u16);
            for (key, entry) in self.reservoirs[hop_idx].expire_before(horizon) {
                let Some(subs) = self.sample_subs[hop_idx].get(&key) else {
                    continue;
                };
                let owed = self.owed_samples.entry((hop, key)).or_default();
                for &sew in subs.keys() {
                    owed.mark(sew, 0, TraceCtx::NONE);
                    let sew = ServingWorkerId(sew);
                    ripple(
                        &mut self.controls,
                        &self.ctx.dag,
                        hop,
                        entry.neighbor,
                        sew,
                        -1,
                    );
                }
            }
        }
        self.features.retain(|_, (_, ts)| *ts >= horizon);
    }

    // ---- checkpointing (§4.1 fault tolerance) ----

    fn checkpoint_path(&self, dir: &std::path::Path) -> PathBuf {
        dir.join(format!(
            "saw{}-shard{}.ckpt",
            self.ctx.worker.0, self.shard_idx
        ))
    }

    fn handle_checkpoint(&mut self, dir: &std::path::Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut buf = bytes::BytesMut::new();
        (self.reservoirs.len() as u32).encode(&mut buf);
        for (hop_idx, table) in self.reservoirs.iter().enumerate() {
            let cells: Vec<(VertexId, helios_sampling::Reservoir)> =
                table.iter().map(|(k, r)| (k, r.clone())).collect();
            (cells.len() as u32).encode(&mut buf);
            for (k, r) in cells {
                k.encode(&mut buf);
                r.encode(&mut buf);
            }
            // Subscriptions for this hop.
            let subs = &self.sample_subs[hop_idx];
            (subs.len() as u32).encode(&mut buf);
            for (v, m) in subs {
                v.encode(&mut buf);
                let pairs: Vec<(u32, u32)> = m.iter().map(|(a, b)| (*a, *b)).collect();
                pairs.encode(&mut buf);
            }
        }
        // Features + feature subs.
        (self.features.len() as u32).encode(&mut buf);
        for (v, (f, ts)) in &self.features {
            v.encode(&mut buf);
            f.encode(&mut buf);
            ts.encode(&mut buf);
        }
        (self.feat_subs.len() as u32).encode(&mut buf);
        for (v, m) in &self.feat_subs {
            v.encode(&mut buf);
            let pairs: Vec<(u32, u32)> = m.iter().map(|(a, b)| (*a, *b)).collect();
            pairs.encode(&mut buf);
        }
        // Seed ownership (who is charged with each implicit subscription).
        (self.seeds.len() as u32).encode(&mut buf);
        for (v, sew) in &self.seeds {
            v.encode(&mut buf);
            sew.encode(&mut buf);
        }
        std::fs::write(self.checkpoint_path(dir), &buf)?;
        Ok(())
    }

    fn handle_restore(&mut self, dir: &std::path::Path) -> Result<()> {
        let path = self.checkpoint_path(dir);
        let raw = match std::fs::read(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let mut buf = raw.as_slice();
        let hops = u32::decode(&mut buf)? as usize;
        for hop_idx in 0..hops.min(self.reservoirs.len()) {
            let cells = u32::decode(&mut buf)?;
            for _ in 0..cells {
                let k = VertexId::decode(&mut buf)?;
                let r = helios_sampling::Reservoir::decode(&mut buf)?;
                self.reservoirs[hop_idx].restore(k, r);
            }
            let subs = u32::decode(&mut buf)?;
            for _ in 0..subs {
                let v = VertexId::decode(&mut buf)?;
                let pairs = Vec::<(u32, u32)>::decode(&mut buf)?;
                self.sample_subs[hop_idx].insert(v, pairs.into_iter().collect());
            }
        }
        let feats = u32::decode(&mut buf)?;
        for _ in 0..feats {
            let v = VertexId::decode(&mut buf)?;
            let f = Vec::<f32>::decode(&mut buf)?;
            let ts = Timestamp::decode(&mut buf)?;
            self.features.insert(v, (f, ts));
        }
        let fsubs = u32::decode(&mut buf)?;
        for _ in 0..fsubs {
            let v = VertexId::decode(&mut buf)?;
            let pairs = Vec::<(u32, u32)>::decode(&mut buf)?;
            self.feat_subs.insert(v, pairs.into_iter().collect());
        }
        let seeds = u32::decode(&mut buf)?;
        for _ in 0..seeds {
            let v = VertexId::decode(&mut buf)?;
            let sew = u32::decode(&mut buf)?;
            self.seeds.insert(v, sew);
        }
        Ok(())
    }
}

static SHARD_UPDATE: helios_types::profile::FrameLabel =
    helios_types::profile::FrameLabel::new("shard_update");

impl Actor for SamplerShard {
    type Msg = ShardMsg;

    fn on_start(&mut self) {
        self.profile_token = Some(helios_types::profile::register_thread(format!(
            "saw{}-sampler-{}",
            self.ctx.worker.0, self.shard_idx
        )));
    }

    fn handle(&mut self, msg: ShardMsg) {
        let start = Instant::now();
        match msg {
            ShardMsg::Update(env) => {
                {
                    let _frame = helios_types::profile::push_frame(&SHARD_UPDATE);
                    let shard_span = span("sampler.shard", env.trace);
                    let trace = shard_span.ctx();
                    match &env.update {
                        GraphUpdate::Vertex(v) => self.handle_vertex(v, env.enqueued_at, trace),
                        GraphUpdate::Edge(e) => self.handle_edge(e, env.enqueued_at, trace),
                    }
                }
                // Local-state mutation only ("sampler-apply"); the fan-out
                // is the flush's ("samples-propagate").
                let ns = self.charge_busy(start);
                self.ctx.metrics.apply_latency.record(ns);
                self.unflushed_updates += 1;
            }
            ShardMsg::Control(c) => {
                self.handle_control(c);
                self.charge_busy(start);
                self.unflushed_controls += 1;
            }
            ShardMsg::Expire(h) => self.between_flushes(|s| s.handle_expire(h)),
            ShardMsg::Checkpoint(dir, ack) => {
                let _ = ack.send(self.between_flushes(|s| s.handle_checkpoint(&dir)));
            }
            ShardMsg::Restore(dir, ack) => {
                let _ = ack.send(self.between_flushes(|s| s.handle_restore(&dir)));
            }
            ShardMsg::Resubscribe(step, ack) => {
                self.between_flushes(|s| s.handle_resubscribe(step));
                let _ = ack.send(());
            }
            ShardMsg::Inspect(ack) => {
                let _ = ack.send(self.between_flushes(|s| s.snapshot()));
            }
        }
    }

    /// Publish what the drain owes: per sample topic, one record per
    /// owed `(hop, key)` and `vertex` — the state now if the worker is
    /// still subscribed, an eviction otherwise — in one produce; then the
    /// net refcount change per control target as `|net|` messages, each
    /// counted as sent and then put in its owner's mailbox. Only then does
    /// the drain count as processed, so the drain equation never reads
    /// drained while its output is unsent.
    fn flush(&mut self) {
        if self.owed_samples.is_empty()
            && self.owed_features.is_empty()
            && self.controls.is_empty()
            && self.unflushed_updates == 0
            && self.unflushed_controls == 0
        {
            return;
        }
        let start = Instant::now();
        let mut records: FxHashMap<u32, Vec<(u64, bytes::Bytes)>> = FxHashMap::default();
        for ((hop, key), owed) in std::mem::take(&mut self.owed_samples) {
            let _fanout_span = span("sampler.fanout", owed.trace);
            let subs = self.sample_subs[hop.index()].get(&key);
            let (mut update, mut evict) = (None, None);
            for &sew in &owed.sews {
                let payload = if subs.is_some_and(|m| m.contains_key(&sew)) {
                    update.get_or_insert_with(|| {
                        SampleMsg::SampleUpdate {
                            hop,
                            key,
                            entries: Self::lite_entries(self.reservoirs[hop.index()].samples(key)),
                            caused_at: owed.caused_at,
                            trace: owed.trace,
                        }
                        .encode_to_bytes()
                    })
                } else {
                    evict.get_or_insert_with(|| SampleMsg::Evict { hop, key }.encode_to_bytes())
                };
                records
                    .entry(sew)
                    .or_default()
                    .push((key.raw(), payload.clone()));
            }
            self.ctx.recorder.record(
                EventKind::HopExpanded,
                self.ctx.worker.0,
                u64::from(hop.0),
                key.raw(),
                owed.sews.len() as u64,
            );
        }
        for (vertex, owed) in std::mem::take(&mut self.owed_features) {
            let subs = self.feat_subs.get(&vertex);
            let (mut update, mut evict) = (None, None);
            for &sew in &owed.sews {
                let payload = if subs.is_some_and(|m| m.contains_key(&sew)) {
                    let Some((feature, ts)) = self.features.get(&vertex) else {
                        continue;
                    };
                    update.get_or_insert_with(|| {
                        SampleMsg::FeatureUpdate {
                            vertex,
                            feature: feature.clone(),
                            ts: *ts,
                            caused_at: owed.caused_at,
                            trace: owed.trace,
                        }
                        .encode_to_bytes()
                    })
                } else {
                    evict
                        .get_or_insert_with(|| SampleMsg::EvictFeature { vertex }.encode_to_bytes())
                };
                records
                    .entry(sew)
                    .or_default()
                    .push((vertex.raw(), payload.clone()));
            }
        }
        for (sew, batch) in records {
            self.ctx.publish_samples(sew, batch);
        }
        if !self.controls.is_empty() {
            let sent = self.controls.values().map(|net| net.unsigned_abs()).sum();
            self.ctx.metrics.control_dispatched.add(sent);
            for (target, net) in self.controls.drain() {
                for _ in 0..net.unsigned_abs() {
                    self.ctx.send_control(target.msg(net > 0));
                }
            }
        }
        let metrics = &self.ctx.metrics;
        metrics
            .updates_processed
            .add(std::mem::take(&mut self.unflushed_updates));
        metrics
            .control_processed
            .add(std::mem::take(&mut self.unflushed_controls));
        let ns = self.charge_busy(start);
        self.ctx.metrics.propagate_latency.record(ns);
    }
}

/// A running sampling worker: one polling thread + sampling shard pool.
pub struct SamplingWorker {
    id: SamplingWorkerId,
    shards: Arc<ShardedPool<ShardMsg>>,
    metrics: Arc<SamplerMetrics>,
    stop: Arc<AtomicBool>,
    poller: Mutex<Option<JoinHandle<()>>>,
}

/// Send `msg(ack)` to every shard of `workers` and wait until each has
/// answered on `ack`, which it does once it has handled the message
/// (between two flushes). `what` names the message in the error.
fn each_shard<R>(
    workers: &[SamplingWorker],
    what: &str,
    msg: impl Fn(crossbeam::channel::Sender<R>) -> ShardMsg,
) -> Result<Vec<R>> {
    let owed = workers.iter().map(|w| w.shards.shards()).sum();
    let (tx, rx) = crossbeam::channel::bounded(owed);
    for w in workers {
        for i in 0..w.shards.shards() {
            w.shards.send_to(i, msg(tx.clone()));
        }
    }
    (0..owed)
        .map(|_| {
            rx.recv()
                .map_err(|_| HeliosError::Disconnected(format!("{what} ack")))
        })
        .collect()
}

impl SamplingWorker {
    /// Start sampling workers `0..M`, routing seeds to serving workers
    /// through `routes`, each with a `saw<id>` heartbeat on
    /// `coordinator`. Counters register as `sampler.*{worker=<id>}` in
    /// `registry`. Every worker's shard mailboxes exist before any
    /// updates poller starts, so a flush can always reach the owner of a
    /// control message's target.
    pub(crate) fn start_all(
        config: &HeliosConfig,
        query: &KHopQuery,
        broker: &Arc<Broker>,
        routes: &Arc<RouteTable>,
        coordinator: &Coordinator,
        registry: &Registry,
        recorder: &Arc<FlightRecorder>,
    ) -> Result<Vec<SamplingWorker>> {
        let mailboxes = Mailboxes::default();
        let m = config.sampling_workers as u32;
        let (workers, consumers): (Vec<SamplingWorker>, Vec<Consumer>) = (0..m)
            .map(|w| {
                let id = SamplingWorkerId(w);
                let consumer =
                    broker.consumer(&format!("saw-{w}"), topics::UPDATES, &[PartitionId(w)])?;
                let metrics = Arc::new(SamplerMetrics::registered(
                    registry,
                    w,
                    config.sampling_threads,
                ));
                let ctx = Arc::new(Ctx::new(
                    id,
                    query,
                    broker,
                    Arc::clone(routes),
                    Arc::clone(&mailboxes),
                    Arc::clone(&metrics),
                    Arc::clone(recorder),
                )?);
                let shards = Arc::new(ShardedPool::new(
                    &format!("saw{w}-sampler"),
                    config.sampling_threads,
                    move |i| SamplerShard::new(Arc::clone(&ctx), i),
                ));
                let worker = SamplingWorker {
                    id,
                    shards,
                    metrics,
                    stop: Arc::new(AtomicBool::new(false)),
                    poller: Mutex::new(None),
                };
                Ok((worker, consumer))
            })
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let _ = mailboxes.set(workers.iter().map(|w| Arc::clone(&w.shards)).collect());
        for (w, consumer) in workers.iter().zip(consumers) {
            let beacon = coordinator.register_worker(&format!("saw{}", w.id.0));
            let (id, shards) = (w.id, Arc::clone(&w.shards));
            let (stop, metrics) = (Arc::clone(&w.stop), Arc::clone(&w.metrics));
            let poller = std::thread::Builder::new()
                .name(format!("saw{}-poll-updates", id.0))
                .spawn(move || poll_updates(id, consumer, &shards, &stop, &metrics, &beacon))
                .expect("spawn updates poller");
            *w.poller.lock() = Some(poller);
        }
        Ok(workers)
    }

    /// Worker id.
    pub fn id(&self) -> SamplingWorkerId {
        self.id
    }

    /// Shared counters.
    pub fn metrics(&self) -> &Arc<SamplerMetrics> {
        &self.metrics
    }

    /// Pending messages in the sampling shards' mailboxes.
    pub fn backlog(&self) -> usize {
        self.shards.backlog()
    }

    /// Trigger TTL expiry on every shard.
    pub fn expire_before(&self, horizon: Timestamp) {
        for i in 0..self.shards.shards() {
            self.shards.send_to(i, ShardMsg::Expire(horizon));
        }
    }

    /// Checkpoint all shard state into `dir`; blocks until done.
    pub fn checkpoint(&self, dir: &std::path::Path) -> Result<()> {
        each_shard(std::slice::from_ref(self), "checkpoint", |ack| {
            ShardMsg::Checkpoint(dir.to_path_buf(), ack)
        })?
        .into_iter()
        .collect()
    }

    /// Restore shard state from `dir`; blocks until done. Call before any
    /// updates are ingested.
    pub fn restore(&self, dir: &std::path::Path) -> Result<()> {
        each_shard(std::slice::from_ref(self), "restore", |ack| {
            ShardMsg::Restore(dir.to_path_buf(), ack)
        })?
        .into_iter()
        .collect()
    }

    /// Deep-copy every shard's sampling state (consistent per shard, not
    /// across shards — quiesce first for a global view).
    pub fn inspect(&self) -> Result<Vec<ShardSnapshot>> {
        each_shard(std::slice::from_ref(self), "inspect", ShardMsg::Inspect)
    }

    /// Drop all subscriptions of `workers` and re-derive them from
    /// reservoir contents under the routing table; blocks until every
    /// shard is done. Every shard clears before any shard re-derives,
    /// because a shard's re-derive sends charges to other workers'
    /// shards. Used after restoring a checkpoint into a different worker
    /// topology, before any traffic flows.
    pub(crate) fn rebuild_subscriptions(workers: &[SamplingWorker]) -> Result<()> {
        for step in [Resubscribe::Clear, Resubscribe::Rebuild] {
            each_shard(workers, "resubscribe", |ack| {
                ShardMsg::Resubscribe(step, ack)
            })?;
        }
        Ok(())
    }

    /// Stop the polling and sampling threads (drains shard mailboxes
    /// first). Idempotent: the tier that owns the worker is shared with
    /// probe threads, so it stops its workers through `&self`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(p) = self.poller.lock().take() {
            let _ = p.join();
        }
        self.shards.stop();
    }
}

/// The updates poller of worker `id`: decode each record of its
/// partition and send it to the shard that owns its routing vertex.
fn poll_updates(
    id: SamplingWorkerId,
    mut consumer: Consumer,
    shards: &ShardedPool<ShardMsg>,
    stop: &AtomicBool,
    metrics: &SamplerMetrics,
    beacon: &Beacon,
) {
    let _token = helios_types::profile::register_thread(format!("saw{}-poll-updates", id.0));
    while !stop.load(Ordering::Relaxed) {
        beacon.beat();
        let recs = consumer.poll(POLL_BATCH, POLL_TIMEOUT);
        let consumed_at = if recs.is_empty() { 0 } else { now_nanos() };
        for rec in recs {
            if rec.produced_at > 0 {
                metrics
                    .update_dwell
                    .record(consumed_at.saturating_sub(rec.produced_at));
            }
            metrics.updates_dispatched.incr();
            match UpdateEnvelope::decode_from_slice(&rec.payload) {
                Ok(mut env) => {
                    let key = env.update.routing_vertex().raw();
                    // Nest the shard's work under a dispatch span so the
                    // trace shows the poll → shard handoff.
                    let poll_span = span("sampler.poll", env.trace);
                    env.trace = poll_span.ctx();
                    shards.send(key, ShardMsg::Update(env));
                }
                // Corrupt record: count it processed so drain accounting
                // stays consistent.
                Err(_) => metrics.updates_processed.incr(),
            }
        }
    }
}

/// Timestamp helper re-exported for deployment-level ingestion stamping.
pub fn stamp_now() -> u64 {
    now_nanos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_mq::TopicConfig;
    use helios_query::SamplingStrategy;
    use helios_types::EdgeType;

    const USER: VertexType = VertexType(0);
    const ITEM: VertexType = VertexType(1);
    const CLICK: EdgeType = EdgeType(0);
    const COP: EdgeType = EdgeType(1);

    fn two_hop() -> KHopQuery {
        KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .hop(COP, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap()
    }

    /// A mailbox that hands every message it is sent to the test.
    struct Sink(crossbeam::channel::Sender<ShardMsg>);

    impl Actor for Sink {
        type Msg = ShardMsg;

        fn handle(&mut self, msg: ShardMsg) {
            let _ = self.0.send(msg);
        }
    }

    /// Shard 0 of the only sampling worker, on a broker holding
    /// `serving` sample queues, with its control messages going to a
    /// [`Sink`]. Tests drive it through `handle` and `flush` directly, so
    /// drain boundaries are exact.
    fn shard(
        query: &KHopQuery,
        serving: usize,
    ) -> (
        SamplerShard,
        Arc<Broker>,
        crossbeam::channel::Receiver<ShardMsg>,
    ) {
        let broker = Broker::new();
        for s in 0..serving as u32 {
            broker
                .create_topic(&topics::samples(s), TopicConfig::default())
                .unwrap();
        }
        let (tx, sink) = crossbeam::channel::unbounded();
        let mailboxes = Mailboxes::default();
        let _ = mailboxes.set(vec![Arc::new(ShardedPool::new("sink", 1, |_| {
            Sink(tx.clone())
        }))]);
        let ctx = Ctx::new(
            SamplingWorkerId(0),
            query,
            &broker,
            Arc::new(RouteTable::initial(serving, 16)),
            mailboxes,
            Arc::new(SamplerMetrics::new(1)),
            FlightRecorder::new(16),
        )
        .unwrap();
        (SamplerShard::new(Arc::new(ctx), 0), broker, sink)
    }

    /// Take `n` control messages from the sink, in the order sent.
    fn take(sink: &crossbeam::channel::Receiver<ShardMsg>, n: u64) -> Vec<ControlMsg> {
        (0..n)
            .map(
                |_| match sink.recv_timeout(std::time::Duration::from_secs(10)) {
                    Ok(ShardMsg::Control(c)) => c,
                    _ => panic!("the sink holds fewer than {n} control messages"),
                },
            )
            .collect()
    }

    fn edge(etype: EdgeType, src_type: VertexType, src: u64, dst: u64, ts: u64) -> ShardMsg {
        ShardMsg::Update(UpdateEnvelope::stamp(GraphUpdate::Edge(EdgeUpdate {
            etype,
            src_type,
            src: VertexId(src),
            dst_type: ITEM,
            dst: VertexId(dst),
            ts: Timestamp(ts),
            weight: 1.0,
        })))
    }

    /// Every record in `topic`, decoded (nothing reads these queues, so
    /// the log retains them all).
    fn records<T: Decode>(broker: &Broker, topic: &str) -> Vec<T> {
        let t = broker.topic(topic).unwrap();
        (0..t.partition_count())
            .flat_map(|p| t.partition(PartitionId(p)).unwrap().fetch(0, usize::MAX).0)
            .map(|r| T::decode_from_slice(&r.payload).unwrap())
            .collect()
    }

    #[test]
    fn a_drain_sends_each_subscriber_one_record_with_the_final_reservoir() {
        let query = KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap();
        let (mut shard, broker, sink) = shard(&query, 2);
        let owner = shard.ctx.sew_of(VertexId(1));
        let other = ServingWorkerId(1 - owner.0);
        shard.handle(ShardMsg::Control(ControlMsg::SubscribeSamples {
            hop: QueryHopId(0),
            vertex: VertexId(1),
            sew: other,
        }));
        for i in 0..50 {
            shard.handle(edge(CLICK, USER, 1, 100 + i, 10 + i));
        }
        assert!(records::<SampleMsg>(&broker, &topics::samples(owner.0)).is_empty());
        shard.flush();
        for sew in [owner, other] {
            let got: Vec<SampleMsg> = records(&broker, &topics::samples(sew.0));
            let [SampleMsg::SampleUpdate {
                hop,
                key,
                entries,
                caused_at,
                ..
            }] = got.as_slice()
            else {
                panic!("{sew:?}: one sample update expected, got {got:?}");
            };
            assert_eq!((*hop, *key), (QueryHopId(0), VertexId(1)));
            let mut neighbors: Vec<u64> = entries.iter().map(|e| e.neighbor.raw()).collect();
            neighbors.sort_unstable();
            assert_eq!(
                neighbors,
                vec![148, 149],
                "{sew:?}: the drain's final top 2"
            );
            assert!(*caused_at > 0, "the record carries its earliest cause");
        }
        // Feature refcounts net to the two survivors per subscriber.
        let controls = take(&sink, 4);
        assert_eq!(shard.ctx.metrics.control_dispatched.get(), 4);
        assert!(
            sink.recv_timeout(std::time::Duration::from_millis(200))
                .is_err(),
            "the sink holds more than 4 control messages"
        );
        assert!(controls.iter().all(|c| matches!(
            c,
            ControlMsg::SubscribeFeature { vertex, .. } if vertex.raw() >= 148
        )));
    }

    #[test]
    fn a_subscribe_and_unsubscribe_in_one_drain_cancel() {
        let (mut shard, broker, _sink) = shard(&two_hop(), 1);
        shard.handle(edge(COP, ITEM, 7, 900, 1));
        shard.handle(edge(COP, ITEM, 7, 901, 2));
        shard.flush();
        let control = Arc::clone(&shard.ctx.metrics.control_dispatched);
        let sent = control.get();
        let before = shard.snapshot();
        let (hop, vertex, sew) = (QueryHopId(1), VertexId(7), ServingWorkerId(0));
        shard.handle(ShardMsg::Control(ControlMsg::SubscribeSamples {
            hop,
            vertex,
            sew,
        }));
        shard.handle(ShardMsg::Control(ControlMsg::UnsubscribeSamples {
            hop,
            vertex,
            sew,
        }));
        shard.flush();
        assert_eq!(control.get(), sent, "no control record");
        let after = shard.snapshot();
        assert_eq!(after.sample_subs, before.sample_subs);
        assert_eq!(after.feat_subs, before.feat_subs);
        // What the worker is owed resolves against the end state.
        let got: Vec<SampleMsg> = records(&broker, &topics::samples(0));
        assert!(
            matches!(got.as_slice(), [SampleMsg::Evict { hop: h, key }] if *h == hop && *key == vertex),
            "{got:?}"
        );
    }

    #[test]
    fn processed_counters_move_only_at_flush() {
        let (mut shard, broker, _sink) = shard(&two_hop(), 1);
        let metrics = Arc::clone(&shard.ctx.metrics);
        shard.handle(edge(CLICK, USER, 1, 100, 1));
        shard.handle(ShardMsg::Control(ControlMsg::SubscribeFeature {
            vertex: VertexId(1),
            sew: ServingWorkerId(0),
        }));
        let counts = || {
            (
                metrics.updates_processed.get(),
                metrics.control_processed.get(),
            )
        };
        assert_eq!(counts(), (0, 0));
        assert_eq!(metrics.published.get(), 0);
        shard.flush();
        assert_eq!(counts(), (1, 1));
        assert_eq!(metrics.published.get(), 1, "the seed's hop-0 cell");
        assert_eq!(records::<SampleMsg>(&broker, &topics::samples(0)).len(), 1);
        shard.flush();
        assert_eq!(counts(), (1, 1), "an empty flush counts nothing");
    }

    #[test]
    fn a_sent_control_holds_the_drain_open_until_its_receiver_flushes() {
        let query = KHopQuery::builder(USER)
            .hop(CLICK, ITEM, 2, SamplingStrategy::TopK)
            .build()
            .unwrap();
        let (mut sender, _broker, sink) = shard(&query, 1);
        let mut receiver = SamplerShard::new(Arc::clone(&sender.ctx), 0);
        let metrics = Arc::clone(&sender.ctx.metrics);
        // The sampling side of `SamplingTier::watermarks` for one worker.
        let marks = |backlog| crate::tier::Watermarks {
            updates_end: 2,
            updates_done: metrics.updates_processed.get(),
            control_end: metrics.control_dispatched.get(),
            control_done: metrics.control_processed.get(),
            backlog,
            replicas: 1,
            queues: Vec::new(),
        };
        sender.handle(edge(CLICK, USER, 1, 100, 1));
        sender.handle(edge(CLICK, USER, 1, 101, 2));
        sender.flush();
        // The seed's owner now needs both sampled items' features.
        assert_eq!(metrics.updates_processed.get(), 2);
        assert_eq!(marks(2).control_end, 2, "sent counts at the sender's flush");
        assert_eq!(metrics.control_processed.get(), 0);
        assert!(!marks(2).drained());
        for msg in take(&sink, 2) {
            receiver.handle(ShardMsg::Control(msg));
        }
        assert_eq!(metrics.control_processed.get(), 0, "handled is not done");
        assert!(!marks(0).drained(), "an empty mailbox is not a drain");
        receiver.flush();
        assert_eq!(metrics.control_processed.get(), 2);
        assert!(marks(0).drained());
    }
}
