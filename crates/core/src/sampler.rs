//! The sampling worker (§4.2, §5).
//!
//! Each sampling worker owns one partition of the graph-update stream.
//! Internally it follows the paper's thread structure:
//!
//! * **polling threads** (two: updates + control) continuously fetch from
//!   the worker's input queues and dispatch to sampling threads by vertex
//!   hash;
//! * **sampling threads** — a [`ShardedPool`], each shard exclusively
//!   owning a slice of the key space with its per-hop reservoir tables,
//!   feature table and subscription tables (no locks on the hot path);
//!   publishing to the output queues happens inline (the `helios-mq`
//!   produce path is a short critical section, so a separate publisher
//!   stage would only add a hop).
//!
//! Subscription propagation implements §5.3 / Fig. 7 with refcounts: a
//! serving worker's subscription to `(hop k, vertex)` exists as long as at
//! least one upstream reservoir it subscribes to contains that vertex.

use crate::actor::{Beacon, ShardedPool};
use crate::config::{HeliosConfig, POLL_BATCH, POLL_TIMEOUT};
use crate::messages::{now_nanos, ControlMsg, SampleEntryLite, SampleMsg, UpdateEnvelope};
use crate::to_reservoir_strategy;
use helios_membership::{MembershipMsg, RouteTable, Router};
use helios_mq::Broker;
use helios_query::{KHopQuery, QueryDag};
use helios_sampling::{ReservoirOutcome, ReservoirTable, SampleEntry};
use helios_telemetry::{span, Counter, EventKind, FlightRecorder, Histogram, Registry, TraceCtx};
use helios_types::{
    hash::route, Decode, EdgeUpdate, Encode, FxHashMap, GraphUpdate, PartitionId, QueryHopId,
    Result, SamplingWorkerId, ServingWorkerId, Timestamp, VertexId, VertexType, VertexUpdate,
};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Topic names shared between the deployment and the workers.
pub mod topics {
    /// Graph-update stream (M partitions, one per sampling worker).
    pub const UPDATES: &str = "updates";
    /// Inter-sampling-worker subscription control (M partitions).
    pub const CONTROL: &str = "control";
    /// Membership / rescale broadcasts (M partitions; the deployment
    /// writes every message to all partitions so each sampling worker
    /// sees the full epoch sequence on its own partition).
    pub const MEMBERSHIP: &str = "membership";
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
    /// Update records fully processed by sampling threads.
    pub updates_processed: Arc<Counter>,
    /// Control records dispatched by the control polling thread.
    pub control_dispatched: Arc<Counter>,
    /// Control records fully processed.
    pub control_processed: Arc<Counter>,
    /// Sample/feature messages published to serving workers.
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
    /// Shard time spent fanning the change out to subscribers (sample
    /// publishes + control ripple) — the "samples-propagate" stage.
    /// `apply + propagate` = total shard processing time per update.
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

/// Context shared by all shards of one sampling worker.
struct Ctx {
    worker: SamplingWorkerId,
    m: usize,
    /// Epoch-versioned seed→serving-worker routing, shared with the
    /// deployment front-end. Installed tables change where *new* implicit
    /// seed subscriptions go; existing subscriptions move via the
    /// Prepare/Commit handoff scans.
    router: Arc<Router>,
    dag: QueryDag,
    seed_type: VertexType,
    broker: Arc<Broker>,
    /// Lazily resolved sample-queue handles, keyed by logical serving
    /// worker. Invalidated when a commit shrinks or re-creates topics so
    /// a stale `Arc<Topic>` can never shadow a re-created queue.
    sample_topics: RwLock<FxHashMap<u32, Arc<helios_mq::Topic>>>,
    control_topic: Arc<helios_mq::Topic>,
    metrics: Arc<SamplerMetrics>,
    recorder: Arc<FlightRecorder>,
}

impl Ctx {
    #[inline]
    fn sew_of(&self, v: VertexId) -> ServingWorkerId {
        self.router.owner_of(v)
    }

    /// Resolve the sample topic of `sew`. Only workers inside the
    /// currently *committed* table are cached: during a scale-out's
    /// prepare window (and a scale-in's drain window) the joining or
    /// departing worker's topic is looked up per publish, so deleting and
    /// re-creating `samples-<sew>` across rescale cycles is always seen.
    fn sample_topic(&self, sew: u32) -> Option<Arc<helios_mq::Topic>> {
        if let Some(t) = self.sample_topics.read().get(&sew) {
            return Some(Arc::clone(t));
        }
        let t = self.broker.topic(&topics::samples(sew)).ok()?;
        if (sew as usize) < self.router.table().workers() {
            self.sample_topics.write().insert(sew, Arc::clone(&t));
        }
        Some(t)
    }

    /// Drop cached topic handles outside the committed worker set.
    fn invalidate_sample_topics(&self, live_workers: u32) {
        self.sample_topics
            .write()
            .retain(|sew, _| *sew < live_workers);
    }

    fn publish_sample(&self, sew: ServingWorkerId, msg: &SampleMsg) {
        self.publish_sample_raw(sew, msg.routing_key(), msg.encode_to_bytes());
    }

    /// Publish an already-encoded message (lets multi-subscriber fan-out
    /// encode once and clone the frozen buffer). Publishes to a departed
    /// worker (topic deleted) are dropped silently: its cache is gone.
    fn publish_sample_raw(&self, sew: ServingWorkerId, key: u64, payload: bytes::Bytes) {
        if let Some(topic) = self.sample_topic(sew.0) {
            let _ = topic.produce(key, payload);
            self.metrics.published.incr();
        }
    }

    /// Send a batch of control messages, waking control consumers once
    /// for the whole batch ([`helios_mq::Topic::produce_many_to`])
    /// instead of once per message. Per-vertex order is preserved.
    fn send_controls(&self, msgs: impl IntoIterator<Item = ControlMsg>) {
        let _ = self
            .control_topic
            .produce_many_to(msgs.into_iter().map(|msg| {
                let v = msg.target_vertex();
                let partition = PartitionId(route(v.raw(), self.m) as u32);
                (partition, v.raw(), msg.encode_to_bytes())
            }));
    }
}

/// Which rescale scan a shard should run (see `handle_rescale`).
#[derive(Clone, Copy, Debug)]
enum RescalePhase {
    /// Charge the pending table's new owners of moved seeds; routing and
    /// the `seeds` map stay on the committed table.
    Prepare,
    /// Move moved seeds fully: charge new owner (a no-op after Prepare),
    /// repoint `seeds`, discharge the old owner.
    Commit,
    /// Undo an abandoned Prepare: discharge the pending table's new
    /// owners of would-move seeds (a no-op for anything already
    /// committed), so a timed-out handoff leaks no subscriptions.
    Abort,
    /// Drop every subscription and re-derive them from reservoir contents
    /// under the current table (checkpoint restored into a different
    /// topology).
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
    /// Run one rescale scan against `table` and ack.
    Rescale {
        table: Arc<RouteTable>,
        phase: RescalePhase,
        ack: crossbeam::channel::Sender<()>,
    },
    /// Deep-copy the shard's state for tests/diagnostics and ack.
    Inspect(crossbeam::channel::Sender<ShardSnapshot>),
}

type SubTable = FxHashMap<VertexId, FxHashMap<u32, u32>>;

/// A deep copy of one sampling shard's state, taken through the shard's
/// own mailbox (so it is a consistent point-in-time view). Used by the
/// subscription-churn tests and rescale diagnostics.
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
    /// hop-0 sample sub and one feature-sub refcount). The routing table
    /// says where a seed *should* live; this map says who is *currently*
    /// charged, which is what lets rescale scans find and move exactly
    /// the seeds whose owner changed.
    seeds: FxHashMap<VertexId, u32>,
    rng: StdRng,
    /// Nanoseconds the current update spent fanning out to subscribers
    /// (reset per update; see `apply_latency`/`propagate_latency`).
    propagate_ns: u64,
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
            propagate_ns: 0,
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

    // ---- update handling (§5.2) ----

    fn handle_vertex(&mut self, v: &VertexUpdate, caused_at: u64, trace: TraceCtx) {
        self.features.insert(v.id, (v.feature.clone(), v.ts));
        if v.vtype == self.ctx.seed_type {
            // Seed vertices are implicitly subscribed by their serving
            // worker (it will need the seed feature — and, when edges
            // arrive, the hop-0 samples — to answer requests on v).
            self.ensure_seed_sub(v.id);
        }
        let mut fanout_ns = 0u64;
        if let Some(subs) = self.feat_subs.get(&v.id) {
            let fanout_start = std::time::Instant::now();
            let msg = SampleMsg::FeatureUpdate {
                vertex: v.id,
                feature: v.feature.clone(),
                ts: v.ts,
                caused_at,
                trace,
            };
            for &sew in subs.keys() {
                self.ctx.publish_sample(ServingWorkerId(sew), &msg);
            }
            fanout_ns = fanout_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        }
        self.propagate_ns += fanout_ns;
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

    /// Publish the new reservoir contents to every subscriber and ripple
    /// subscribe/unsubscribe messages for the entering/evicted samples.
    fn on_reservoir_change(
        &mut self,
        hop: QueryHopId,
        key: VertexId,
        added: Option<VertexId>,
        evicted: Option<VertexId>,
        caused_at: u64,
        trace: TraceCtx,
    ) {
        let entries = Self::lite_entries(self.reservoirs[hop.index()].samples(key));
        let subs: Vec<u32> = self.sample_subs[hop.index()]
            .get(&key)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        if subs.is_empty() {
            return;
        }
        let fanout_start = std::time::Instant::now();
        let _fanout_span = span("sampler.fanout", trace);
        self.ctx.recorder.record(
            EventKind::HopExpanded,
            self.ctx.worker.0,
            u64::from(hop.0),
            key.raw(),
            subs.len() as u64,
        );
        let downstream: Vec<QueryHopId> = self.ctx.dag.downstream(hop).map(|d| d.hop).collect();
        let msg = SampleMsg::SampleUpdate {
            hop,
            key,
            entries,
            caused_at,
            trace,
        };
        let payload = msg.encode_to_bytes();
        let routing_key = msg.routing_key();
        let mut controls: Vec<ControlMsg> = Vec::new();
        for &sew_raw in &subs {
            let sew = ServingWorkerId(sew_raw);
            self.ctx
                .publish_sample_raw(sew, routing_key, payload.clone());
            if let Some(new_neighbor) = added {
                controls.push(ControlMsg::SubscribeFeature {
                    vertex: new_neighbor,
                    sew,
                });
                for &d in &downstream {
                    controls.push(ControlMsg::SubscribeSamples {
                        hop: d,
                        vertex: new_neighbor,
                        sew,
                    });
                }
            }
            if let Some(old_neighbor) = evicted {
                controls.push(ControlMsg::UnsubscribeFeature {
                    vertex: old_neighbor,
                    sew,
                });
                for &d in &downstream {
                    controls.push(ControlMsg::UnsubscribeSamples {
                        hop: d,
                        vertex: old_neighbor,
                        sew,
                    });
                }
            }
        }
        self.ctx.send_controls(controls);
        self.propagate_ns += fanout_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    }

    // ---- subscription handling (§5.3) ----

    /// Make sure `seed`'s implicit subscriptions are charged to its
    /// *current* owner per the routing table. Called on every hop-0 edge
    /// and seed-typed vertex update; after a rescale commit this is also
    /// what moves a seed the commit scan has not reached yet (new traffic
    /// must never resurrect a discharged owner).
    fn ensure_seed_sub(&mut self, seed: VertexId) {
        let owner = self.ctx.sew_of(seed);
        match self.seeds.get(&seed).copied() {
            None => {
                self.seeds.insert(seed, owner.0);
                self.charge_seed(seed, owner);
            }
            Some(old) if old != owner.0 => {
                self.charge_seed(seed, owner);
                self.seeds.insert(seed, owner.0);
                self.discharge_seed(seed, ServingWorkerId(old));
            }
            Some(_) => {}
        }
    }

    /// Charge `sew` with `seed`'s implicit subscriptions: the hop-0
    /// sample sub plus one feature-sub refcount. Guarded by the hop-0
    /// sub's presence — only charges ever create hop-0 subs (there is no
    /// transitive `SubscribeSamples{hop: 0}`), so presence means "already
    /// charged" and a Prepare-then-Commit double charge is a no-op. The
    /// subscribe path pushes reservoir/feature snapshots (§5.3,
    /// idempotent), which is exactly the bootstrap a joining worker needs.
    fn charge_seed(&mut self, seed: VertexId, sew: ServingWorkerId) {
        let charged = self.sample_subs[0]
            .get(&seed)
            .is_some_and(|m| m.contains_key(&sew.0));
        if !charged {
            self.sub_samples(QueryHopId(0), seed, sew);
            self.sub_feature(seed, sew);
        }
    }

    /// Mirror of `charge_seed`: drop the implicit subscriptions held by
    /// `sew`. The transitive unsubscribe cascade discharges everything
    /// the seed's subscription tree pinned on other workers.
    fn discharge_seed(&mut self, seed: VertexId, sew: ServingWorkerId) {
        let charged = self.sample_subs[0]
            .get(&seed)
            .is_some_and(|m| m.contains_key(&sew.0));
        if charged {
            self.unsub_samples(QueryHopId(0), seed, sew);
            self.unsub_feature(seed, sew);
        }
    }

    fn sub_samples(&mut self, hop: QueryHopId, vertex: VertexId, sew: ServingWorkerId) {
        let rc = self.sample_subs[hop.index()]
            .entry(vertex)
            .or_default()
            .entry(sew.0)
            .or_insert(0);
        *rc += 1;
        let first = *rc == 1;
        // Snapshot push (idempotent) so the subscriber converges
        // even if it subscribed mid-stream.
        let entries = Self::lite_entries(self.reservoirs[hop.index()].samples(vertex));
        let neighbors: Vec<VertexId> = entries.iter().map(|e| e.neighbor).collect();
        self.ctx.publish_sample(
            sew,
            &SampleMsg::SampleUpdate {
                hop,
                key: vertex,
                entries,
                caused_at: 0,
                trace: TraceCtx::NONE,
            },
        );
        if first {
            let downstream: Vec<QueryHopId> = self.ctx.dag.downstream(hop).map(|d| d.hop).collect();
            let mut controls: Vec<ControlMsg> = Vec::new();
            for w in neighbors {
                controls.push(ControlMsg::SubscribeFeature { vertex: w, sew });
                for &d in &downstream {
                    controls.push(ControlMsg::SubscribeSamples {
                        hop: d,
                        vertex: w,
                        sew,
                    });
                }
            }
            self.ctx.send_controls(controls);
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
            self.ctx
                .publish_sample(sew, &SampleMsg::Evict { hop, key: vertex });
            let neighbors: Vec<VertexId> = self.reservoirs[hop.index()]
                .samples(vertex)
                .iter()
                .map(|e| e.neighbor)
                .collect();
            let downstream: Vec<QueryHopId> = self.ctx.dag.downstream(hop).map(|d| d.hop).collect();
            let mut controls: Vec<ControlMsg> = Vec::new();
            for w in neighbors {
                controls.push(ControlMsg::UnsubscribeFeature { vertex: w, sew });
                for &d in &downstream {
                    controls.push(ControlMsg::UnsubscribeSamples {
                        hop: d,
                        vertex: w,
                        sew,
                    });
                }
            }
            self.ctx.send_controls(controls);
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
            if let Some((f, ts)) = self.features.get(&vertex) {
                self.ctx.publish_sample(
                    sew,
                    &SampleMsg::FeatureUpdate {
                        vertex,
                        feature: f.clone(),
                        ts: *ts,
                        caused_at: 0,
                        trace: TraceCtx::NONE,
                    },
                );
            }
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
            self.ctx
                .publish_sample(sew, &SampleMsg::EvictFeature { vertex });
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

    // ---- rescale (membership handoff scans) ----

    /// Run one rescale scan. `Prepare` charges the pending table's new
    /// owner of every seed whose owner changes (warming its cache through
    /// the idempotent snapshot path) without touching routing state, so
    /// live traffic keeps flowing to the old owners. `Commit` makes the
    /// move authoritative: charge (no-op when prepared), repoint `seeds`,
    /// discharge the old owner — the refcounted unsubscribe cascade then
    /// strips everything only the old owner pinned. `Abort` undoes an
    /// abandoned `Prepare` by discharging the pending owners it charged.
    /// `Rebuild` re-derives the whole subscription tree from reservoir
    /// contents under the current table (topology-mismatched restore).
    fn handle_rescale(&mut self, table: &RouteTable, phase: RescalePhase) {
        match phase {
            RescalePhase::Prepare => {
                let moved: Vec<VertexId> = self
                    .seeds
                    .iter()
                    .filter(|(v, &old)| table.owner_of(**v).0 != old)
                    .map(|(v, _)| *v)
                    .collect();
                for v in moved {
                    self.charge_seed(v, table.owner_of(v));
                }
            }
            RescalePhase::Commit => {
                let moved: Vec<(VertexId, u32)> = self
                    .seeds
                    .iter()
                    .filter(|(v, &old)| table.owner_of(**v).0 != old)
                    .map(|(v, &old)| (*v, old))
                    .collect();
                for (v, old) in moved {
                    let new = table.owner_of(v);
                    self.charge_seed(v, new);
                    self.seeds.insert(v, new.0);
                    self.discharge_seed(v, ServingWorkerId(old));
                }
            }
            RescalePhase::Abort => {
                // Exact mirror of Prepare: every seed the abandoned table
                // would have moved had its pending owner charged; drop
                // that charge. Seeds it never moved — or that a Commit of
                // this very table already repointed — fail the filter (or
                // the discharge guard) and are untouched.
                let moved: Vec<VertexId> = self
                    .seeds
                    .iter()
                    .filter(|(v, &cur)| table.owner_of(**v).0 != cur)
                    .map(|(v, _)| *v)
                    .collect();
                for v in moved {
                    self.discharge_seed(v, table.owner_of(v));
                }
            }
            RescalePhase::Rebuild => {
                let mut seeds: Vec<VertexId> = self.seeds.keys().copied().collect();
                seeds.extend(self.reservoirs[0].iter().map(|(k, _)| k));
                seeds.sort_unstable();
                seeds.dedup();
                for t in &mut self.sample_subs {
                    t.clear();
                }
                self.feat_subs.clear();
                self.seeds.clear();
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
            let evicted = self.reservoirs[hop_idx].expire_before(horizon);
            let downstream: Vec<QueryHopId> = self.ctx.dag.downstream(hop).map(|d| d.hop).collect();
            let mut touched: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
            for (key, entry) in evicted {
                touched.entry(key).or_default().push(entry.neighbor);
            }
            for (key, lost) in touched {
                let subs: Vec<u32> = self.sample_subs[hop_idx]
                    .get(&key)
                    .map(|m| m.keys().copied().collect())
                    .unwrap_or_default();
                if subs.is_empty() {
                    continue;
                }
                let entries = Self::lite_entries(self.reservoirs[hop_idx].samples(key));
                let msg = SampleMsg::SampleUpdate {
                    hop,
                    key,
                    entries,
                    caused_at: 0,
                    trace: TraceCtx::NONE,
                };
                let mut controls: Vec<ControlMsg> = Vec::new();
                for &sew_raw in &subs {
                    let sew = ServingWorkerId(sew_raw);
                    self.ctx.publish_sample(sew, &msg);
                    for &w in &lost {
                        controls.push(ControlMsg::UnsubscribeFeature { vertex: w, sew });
                        for &d in &downstream {
                            controls.push(ControlMsg::UnsubscribeSamples {
                                hop: d,
                                vertex: w,
                                sew,
                            });
                        }
                    }
                }
                self.ctx.send_controls(controls);
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

impl crate::actor::Actor for SamplerShard {
    type Msg = ShardMsg;

    fn on_start(&mut self) {
        self.profile_token = Some(helios_types::profile::register_thread(format!(
            "saw{}-sampler-{}",
            self.ctx.worker.0, self.shard_idx
        )));
    }

    fn handle(&mut self, msg: ShardMsg) {
        let busy_start = std::time::Instant::now();
        match msg {
            ShardMsg::Update(env) => {
                let _frame = helios_types::profile::push_frame(&SHARD_UPDATE);
                let shard_span = span("sampler.shard", env.trace);
                let trace = shard_span.ctx();
                self.propagate_ns = 0;
                match &env.update {
                    GraphUpdate::Vertex(v) => self.handle_vertex(v, env.enqueued_at, trace),
                    GraphUpdate::Edge(e) => self.handle_edge(e, env.enqueued_at, trace),
                }
                // Split the shard's processing time into local-state
                // mutation ("sampler-apply") and subscriber fan-out
                // ("samples-propagate"); the handlers accumulated the
                // fan-out share in `propagate_ns`.
                let total = busy_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                let propagate = self.propagate_ns.min(total);
                self.ctx.metrics.apply_latency.record(total - propagate);
                self.ctx.metrics.propagate_latency.record(propagate);
                self.ctx.metrics.updates_processed.incr();
            }
            ShardMsg::Control(c) => {
                self.handle_control(c);
                self.ctx.metrics.control_processed.incr();
            }
            ShardMsg::Expire(h) => self.handle_expire(h),
            ShardMsg::Checkpoint(dir, ack) => {
                let _ = ack.send(self.handle_checkpoint(&dir));
            }
            ShardMsg::Restore(dir, ack) => {
                let _ = ack.send(self.handle_restore(&dir));
            }
            ShardMsg::Rescale { table, phase, ack } => {
                self.handle_rescale(&table, phase);
                let _ = ack.send(());
            }
            ShardMsg::Inspect(ack) => {
                let _ = ack.send(self.snapshot());
            }
        }
        if let Some(cell) = self.ctx.metrics.shard_busy_nanos.get(self.shard_idx) {
            cell.add(busy_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }
}

/// A running sampling worker: polling threads + sampling shard pool.
pub struct SamplingWorker {
    id: SamplingWorkerId,
    ctx: Arc<Ctx>,
    shards: Arc<ShardedPool<ShardMsg>>,
    metrics: Arc<SamplerMetrics>,
    stop: Arc<AtomicBool>,
    /// Highest route-table epoch whose Prepare scan every shard has run.
    prepared_epoch: Arc<AtomicU64>,
    /// Highest route-table epoch whose Commit scan every shard has run.
    committed_epoch: Arc<AtomicU64>,
    pollers: Mutex<Vec<JoinHandle<()>>>,
}

impl SamplingWorker {
    /// Start sampling worker `id` of `m`, routing seeds to serving
    /// workers through `router`. Counters register as
    /// `sampler.*{worker=<id>}` in `registry`.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        id: SamplingWorkerId,
        config: &HeliosConfig,
        query: &KHopQuery,
        broker: &Arc<Broker>,
        router: Arc<Router>,
        beacon: Beacon,
        registry: &Registry,
        recorder: &Arc<FlightRecorder>,
    ) -> Result<SamplingWorker> {
        let m = config.sampling_workers;
        let metrics = Arc::new(SamplerMetrics::registered(
            registry,
            id.0,
            config.sampling_threads,
        ));
        let ctx = Arc::new(Ctx {
            worker: id,
            m,
            router,
            dag: query.dag(),
            seed_type: query.seed_type(),
            broker: Arc::clone(broker),
            sample_topics: RwLock::new(FxHashMap::default()),
            control_topic: broker.topic(topics::CONTROL)?,
            metrics: Arc::clone(&metrics),
            recorder: Arc::clone(recorder),
        });
        let pool_ctx = Arc::clone(&ctx);
        let shards = Arc::new(ShardedPool::new(
            &format!("saw{}-sampler", id.0),
            config.sampling_threads,
            move |i| SamplerShard::new(Arc::clone(&pool_ctx), i),
        ));

        let stop = Arc::new(AtomicBool::new(false));
        let mut pollers = Vec::new();

        // Updates polling thread.
        {
            let mut consumer = broker.consumer(
                &format!("saw-{}", id.0),
                topics::UPDATES,
                &[PartitionId(id.0)],
            )?;
            let shards = Arc::clone(&shards);
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let beacon2 = beacon.clone();
            pollers.push(
                std::thread::Builder::new()
                    .name(format!("saw{}-poll-updates", id.0))
                    .spawn(move || {
                        let _token = helios_types::profile::register_thread(format!(
                            "saw{}-poll-updates",
                            id.0
                        ));
                        while !stop.load(Ordering::Relaxed) {
                            beacon2.beat();
                            let recs = consumer.poll(POLL_BATCH, POLL_TIMEOUT);
                            let consumed_at = if recs.is_empty() { 0 } else { now_nanos() };
                            for rec in recs {
                                if rec.produced_at > 0 {
                                    metrics
                                        .update_dwell
                                        .record(consumed_at.saturating_sub(rec.produced_at));
                                }
                                match UpdateEnvelope::decode_from_slice(&rec.payload) {
                                    Ok(mut env) => {
                                        let key = env.update.routing_vertex().raw();
                                        metrics.updates_dispatched.incr();
                                        // Nest the shard's work under a
                                        // dispatch span so the trace shows
                                        // the poll → shard handoff.
                                        let poll_span = span("sampler.poll", env.trace);
                                        env.trace = poll_span.ctx();
                                        shards.send(key, ShardMsg::Update(env));
                                    }
                                    Err(_) => {
                                        // Corrupt record: count it processed so
                                        // drain accounting stays consistent.
                                        metrics.updates_dispatched.incr();
                                        metrics.updates_processed.incr();
                                    }
                                }
                            }
                            // Soft backpressure: let sampling threads drain.
                            while shards.backlog() > 100_000 && !stop.load(Ordering::Relaxed) {
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                        }
                    })
                    .expect("spawn updates poller"),
            );
        }

        // Control polling thread.
        {
            let mut consumer = broker.consumer(
                &format!("saw-ctl-{}", id.0),
                topics::CONTROL,
                &[PartitionId(id.0)],
            )?;
            let shards = Arc::clone(&shards);
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            pollers.push(
                std::thread::Builder::new()
                    .name(format!("saw{}-poll-control", id.0))
                    .spawn(move || {
                        let _token = helios_types::profile::register_thread(format!(
                            "saw{}-poll-control",
                            id.0
                        ));
                        while !stop.load(Ordering::Relaxed) {
                            beacon.beat();
                            let recs = consumer.poll(POLL_BATCH, POLL_TIMEOUT);
                            for rec in recs {
                                match ControlMsg::decode_from_slice(&rec.payload) {
                                    Ok(msg) => {
                                        let key = msg.target_vertex().raw();
                                        metrics.control_dispatched.incr();
                                        shards.send(key, ShardMsg::Control(msg));
                                    }
                                    Err(_) => {
                                        metrics.control_dispatched.incr();
                                        metrics.control_processed.incr();
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn control poller"),
            );
        }

        let prepared_epoch = Arc::new(AtomicU64::new(0));
        let committed_epoch = Arc::new(AtomicU64::new(0));

        // Membership polling thread: applies Prepare/Commit rescale
        // broadcasts. Each message is fanned out to every shard and the
        // acks are awaited before the epoch watermark advances, so the
        // deployment can tell when *all* shards of this worker have run a
        // scan. Commit additionally installs the table (new traffic
        // routes to new owners) and invalidates cached topic handles.
        if let Ok(mut consumer) = broker.consumer(
            &format!("saw-mbr-{}", id.0),
            topics::MEMBERSHIP,
            &[PartitionId(id.0)],
        ) {
            let shards = Arc::clone(&shards);
            let stop = Arc::clone(&stop);
            let ctx2 = Arc::clone(&ctx);
            let prepared = Arc::clone(&prepared_epoch);
            let committed = Arc::clone(&committed_epoch);
            pollers.push(
                std::thread::Builder::new()
                    .name(format!("saw{}-poll-membership", id.0))
                    .spawn(move || {
                        let _token = helios_types::profile::register_thread(format!(
                            "saw{}-poll-membership",
                            id.0
                        ));
                        while !stop.load(Ordering::Relaxed) {
                            for rec in consumer.poll(64, POLL_TIMEOUT) {
                                let msg = match MembershipMsg::decode_from_slice(&rec.payload) {
                                    Ok(m) => m,
                                    Err(_) => continue,
                                };
                                let (phase, table) = match msg {
                                    MembershipMsg::Prepare { table } => {
                                        (RescalePhase::Prepare, Arc::new(table))
                                    }
                                    MembershipMsg::Commit { table } => {
                                        (RescalePhase::Commit, Arc::new(table))
                                    }
                                    MembershipMsg::Abort { table } => {
                                        (RescalePhase::Abort, Arc::new(table))
                                    }
                                };
                                if matches!(phase, RescalePhase::Commit) {
                                    ctx2.router.install(Arc::clone(&table));
                                    ctx2.invalidate_sample_topics(table.workers() as u32);
                                }
                                let (tx, rx) = crossbeam::channel::bounded(shards.shards());
                                for i in 0..shards.shards() {
                                    shards.send_to(
                                        i,
                                        ShardMsg::Rescale {
                                            table: Arc::clone(&table),
                                            phase,
                                            ack: tx.clone(),
                                        },
                                    );
                                }
                                drop(tx);
                                for _ in 0..shards.shards() {
                                    if rx.recv().is_err() {
                                        break;
                                    }
                                }
                                match phase {
                                    RescalePhase::Prepare => {
                                        prepared.fetch_max(table.epoch(), Ordering::SeqCst);
                                    }
                                    RescalePhase::Commit => {
                                        committed.fetch_max(table.epoch(), Ordering::SeqCst);
                                    }
                                    // Aborts are fire-and-forget: nothing
                                    // awaits them (FIFO ordering alone
                                    // guarantees they run before a retry's
                                    // Prepare scan).
                                    RescalePhase::Abort | RescalePhase::Rebuild => {}
                                }
                            }
                        }
                    })
                    .expect("spawn membership poller"),
            );
        }

        Ok(SamplingWorker {
            id,
            ctx,
            shards,
            metrics,
            stop,
            prepared_epoch,
            committed_epoch,
            pollers: Mutex::new(pollers),
        })
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
        let (tx, rx) = crossbeam::channel::bounded(self.shards.shards());
        for i in 0..self.shards.shards() {
            self.shards
                .send_to(i, ShardMsg::Checkpoint(dir.to_path_buf(), tx.clone()));
        }
        for _ in 0..self.shards.shards() {
            rx.recv()
                .map_err(|_| helios_types::HeliosError::Disconnected("checkpoint ack".into()))??;
        }
        Ok(())
    }

    /// Restore shard state from `dir`; blocks until done. Call before any
    /// updates are ingested.
    pub fn restore(&self, dir: &std::path::Path) -> Result<()> {
        let (tx, rx) = crossbeam::channel::bounded(self.shards.shards());
        for i in 0..self.shards.shards() {
            self.shards
                .send_to(i, ShardMsg::Restore(dir.to_path_buf(), tx.clone()));
        }
        for _ in 0..self.shards.shards() {
            rx.recv()
                .map_err(|_| helios_types::HeliosError::Disconnected("restore ack".into()))??;
        }
        Ok(())
    }

    /// Highest route-table epoch whose Prepare scan has completed on
    /// every shard of this worker.
    pub fn prepared_epoch(&self) -> u64 {
        self.prepared_epoch.load(Ordering::SeqCst)
    }

    /// Highest route-table epoch whose Commit scan has completed on every
    /// shard of this worker.
    pub fn committed_epoch(&self) -> u64 {
        self.committed_epoch.load(Ordering::SeqCst)
    }

    /// Deep-copy every shard's sampling state (consistent per shard, not
    /// across shards — quiesce first for a global view).
    pub fn inspect(&self) -> Result<Vec<ShardSnapshot>> {
        let (tx, rx) = crossbeam::channel::bounded(self.shards.shards());
        for i in 0..self.shards.shards() {
            self.shards.send_to(i, ShardMsg::Inspect(tx.clone()));
        }
        drop(tx);
        let mut out = Vec::with_capacity(self.shards.shards());
        for _ in 0..self.shards.shards() {
            out.push(
                rx.recv()
                    .map_err(|_| helios_types::HeliosError::Disconnected("inspect ack".into()))?,
            );
        }
        Ok(out)
    }

    /// Drop all subscriptions and re-derive them from reservoir contents
    /// under the router's current table; blocks until every shard is
    /// done. Used after restoring a checkpoint into a different worker
    /// topology, before any traffic flows.
    pub fn rebuild_subscriptions(&self) -> Result<()> {
        let table = self.ctx.router.table();
        let (tx, rx) = crossbeam::channel::bounded(self.shards.shards());
        for i in 0..self.shards.shards() {
            self.shards.send_to(
                i,
                ShardMsg::Rescale {
                    table: Arc::clone(&table),
                    phase: RescalePhase::Rebuild,
                    ack: tx.clone(),
                },
            );
        }
        drop(tx);
        for _ in 0..self.shards.shards() {
            rx.recv()
                .map_err(|_| helios_types::HeliosError::Disconnected("rebuild ack".into()))?;
        }
        Ok(())
    }

    /// Drop cached sample-topic handles outside the live worker set
    /// (called by the deployment after deleting a departed worker's
    /// topic, so a later re-creation is never shadowed by a stale handle).
    pub fn invalidate_sample_topics(&self, live_workers: u32) {
        self.ctx.invalidate_sample_topics(live_workers);
    }

    /// Stop polling and sampling threads (drains shard mailboxes first).
    /// Idempotent: the tier that owns the worker is shared with probe
    /// threads, so it stops its workers through `&self`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        for p in self.pollers.lock().drain(..) {
            let _ = p.join();
        }
        self.shards.stop();
    }
}

/// Timestamp helper re-exported for deployment-level ingestion stamping.
pub fn stamp_now() -> u64 {
    now_nanos()
}
