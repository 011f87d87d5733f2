//! The two tiers of Fig. 5 (§4.1), each built once, here, for every
//! assembly:
//!
//! - [`SamplingTier`]: the partitioned update stream, the M sampling
//!   workers consuming it, the shared seed→worker router and one sample
//!   queue per serving worker.
//! - [`ServingTier`]: serving workers (and their replicas), each applying
//!   its sample queue to a query-aware cache that serving threads read.
//!
//! `HeliosDeployment` is a sampling tier plus a serving tier on the same
//! broker; the launcher's `SamplingHost` is a sampling tier plus one TCP
//! relay per serving worker, and its `ServeHost` a serving tier of one
//! worker on a local queue. Each tier brings its own `/healthz` probes
//! and its share of the stats tick to the process's
//! [`crate::plane::OpsPlane`].
//!
//! [`Watermarks`] is the one drain equation: `quiesce`, the `/healthz`
//! "pipeline" probe, both hosts' `StatsOk` replies and the multi-process
//! drain loops all read it.

use crate::actor::Liveness;
use crate::config::{
    HeliosConfig, HEALTH_MAX_BACKLOG, HEALTH_WORKER_TIMEOUT, SAMPLE_QUEUE_PARTITIONS,
};
use crate::coordinator::Coordinator;
use crate::messages::UpdateEnvelope;
use crate::plane::{mq_probe, OpsPlane};
use crate::sampler::{topics, SamplingWorker};
use crate::serving::ServingWorker;
use helios_membership::{RouteTable, Router};
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::ops::HealthProbe;
use helios_telemetry::{EventKind, FlightRecorder, HealthReport, MemAccountant, Registry};
use helios_types::{
    hash::route, Decode, Encode, GraphUpdate, MemGauge, PartitionId, Result, SamplingWorkerId,
    ServingWorkerId, VertexId,
};
use parking_lot::RwLock;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Topology a checkpoint was taken under, written alongside the shard
/// files so a restore into a different deployment shape is detected
/// instead of silently mis-routing restored subscriptions.
struct CheckpointManifest {
    sampling_workers: u32,
    sampling_threads: u32,
    serving_workers: u32,
    table: RouteTable,
}

impl CheckpointManifest {
    const FILE: &'static str = "manifest.ckpt";
}

impl Encode for CheckpointManifest {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        self.sampling_workers.encode(buf);
        self.sampling_threads.encode(buf);
        self.serving_workers.encode(buf);
        self.table.encode(buf);
    }
}

impl Decode for CheckpointManifest {
    fn decode(buf: &mut impl bytes::Buf) -> Result<Self> {
        Ok(CheckpointManifest {
            sampling_workers: u32::decode(buf)?,
            sampling_threads: u32::decode(buf)?,
            serving_workers: u32::decode(buf)?,
            table: RouteTable::decode(buf)?,
        })
    }
}

/// The sampling tier: topics on one broker, the epoch-0 router and the
/// M sampling workers.
pub struct SamplingTier {
    config: HeliosConfig,
    broker: Arc<Broker>,
    router: Arc<Router>,
    updates: Arc<Topic>,
    control: Arc<Topic>,
    /// Every topic's retained log bytes, rescale-created queues included.
    mq_log: MemGauge,
    workers: Vec<SamplingWorker>,
}

impl SamplingTier {
    /// Create the `updates`/`control`/`membership` topics (one partition
    /// per sampling worker), one `samples-<s>` queue per serving worker
    /// and the epoch-0 router. No worker runs until
    /// [`SamplingTier::start_workers`], so an assembly can attach the
    /// sample queues' consumers first.
    pub fn create(config: &HeliosConfig) -> Result<SamplingTier> {
        let broker = Broker::new();
        let mq_log = MemGauge::new();
        let m = config.sampling_workers as u32;
        let topic = |partitions| TopicConfig {
            partitions,
            mem: mq_log.clone(),
            ..Default::default()
        };
        let updates = broker.create_topic(topics::UPDATES, topic(m))?;
        let control = broker.create_topic(topics::CONTROL, topic(m))?;
        broker.create_topic(topics::MEMBERSHIP, topic(m))?;
        let tier = SamplingTier {
            config: config.clone(),
            broker,
            // Deterministic, so every process and every sampling worker
            // agrees on it without a broadcast.
            router: Arc::new(Router::new(RouteTable::initial(
                config.serving_workers,
                config.route_slots as usize,
            ))),
            updates,
            control,
            mq_log,
            workers: Vec::new(),
        };
        for s in 0..config.serving_workers as u32 {
            tier.create_sample_queue(s)?;
        }
        Ok(tier)
    }

    /// Start the M sampling workers, restoring each from `restore` when
    /// given, and charge every topic's log to `plane`'s `mq_log` ledger
    /// entry. A checkpoint taken under a different topology or routing
    /// table raises a `TopologyMismatch` flight event and every worker
    /// re-derives its subscriptions under the epoch-0 table (no traffic
    /// has flowed yet). Comparing the table — not just worker counts —
    /// catches a checkpoint taken after a rescale that happens to land on
    /// this tier's logical worker count.
    pub fn start_workers(
        &mut self,
        query: &KHopQuery,
        coordinator: &Coordinator,
        plane: &OpsPlane,
        restore: Option<&Path>,
    ) -> Result<()> {
        plane.accountant().adopt("mq_log", &[], self.mq_log.clone());
        let (registry, recorder) = (plane.registry(), plane.recorder());
        for w in 0..self.config.sampling_workers as u32 {
            let beacon = coordinator.register_worker(&format!("saw{w}"));
            let worker = SamplingWorker::start(
                SamplingWorkerId(w),
                &self.config,
                query,
                &self.broker,
                Arc::clone(&self.router),
                beacon,
                registry,
                recorder,
            )?;
            if let Some(dir) = restore {
                worker.restore(dir)?;
            }
            self.workers.push(worker);
        }
        let Some(dir) = restore else {
            return Ok(());
        };
        let raw = match std::fs::read(dir.join(CheckpointManifest::FILE)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let manifest = CheckpointManifest::decode_from_slice(&raw)?;
        let mismatch = manifest.table != *self.router.table()
            || manifest.sampling_workers as usize != self.config.sampling_workers
            || manifest.sampling_threads as usize != self.config.sampling_threads;
        if mismatch {
            recorder.record(
                EventKind::TopologyMismatch,
                u32::MAX,
                u64::from(manifest.serving_workers),
                self.config.serving_workers as u64,
                u64::from(manifest.sampling_workers),
            );
            for w in &self.workers {
                w.rebuild_subscriptions()?;
            }
        }
        Ok(())
    }

    /// Create serving worker `s`'s sample queue, charged to the shared
    /// `mq_log` gauge (startup and rescale scale-out).
    pub(crate) fn create_sample_queue(&self, s: u32) -> Result<()> {
        self.broker.create_topic(
            &topics::samples(s),
            TopicConfig {
                partitions: SAMPLE_QUEUE_PARTITIONS,
                mem: self.mq_log.clone(),
                ..Default::default()
            },
        )?;
        Ok(())
    }

    /// The broker every topic lives on.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The epoch-versioned seed→worker router shared with every worker.
    pub(crate) fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The sampling workers (M is fixed for the tier's lifetime).
    pub(crate) fn workers(&self) -> &[SamplingWorker] {
        &self.workers
    }

    /// Ingest one graph update: expand it per the edge partition policy,
    /// stamp each copy and append it to its routing vertex's partition of
    /// the update stream (the front end of Fig. 5).
    pub(crate) fn ingest(&self, update: &GraphUpdate) -> Result<()> {
        match update {
            GraphUpdate::Vertex(_) => self.produce(update.clone(), update.routing_vertex()),
            GraphUpdate::Edge(e) => {
                for (rv, copy) in self.config.policy.copies(e) {
                    self.produce(GraphUpdate::Edge(copy), rv)?;
                }
                Ok(())
            }
        }
    }

    /// Ingest a batch in order, stopping at the first failure.
    pub fn ingest_batch(&self, updates: &[GraphUpdate]) -> Result<()> {
        updates.iter().try_for_each(|u| self.ingest(u))
    }

    fn produce(&self, update: GraphUpdate, rv: VertexId) -> Result<()> {
        let env = UpdateEnvelope::stamp(update);
        let partition = PartitionId(route(rv.raw(), self.config.sampling_workers) as u32);
        self.updates
            .produce_to(partition, rv.raw(), env.encode_to_bytes())?;
        Ok(())
    }

    /// Pending messages in every sampling shard's mailbox.
    pub fn backlog(&self) -> u64 {
        self.workers.iter().map(|w| w.backlog() as u64).sum()
    }

    /// The tier's `/healthz` probes: `mq` (every consumer group's lag
    /// within `health_max_lag`) and `sampler` (the shard mailboxes'
    /// total backlog within [`HEALTH_MAX_BACKLOG`]).
    pub fn probes(self: &Arc<Self>) -> Vec<HealthProbe> {
        let tier = Arc::clone(self);
        vec![
            mq_probe(&self.broker, self.config.health_max_lag),
            Box::new(move || {
                let total = tier.backlog();
                HealthReport::new(
                    "sampler",
                    total <= HEALTH_MAX_BACKLOG,
                    format!("mailbox backlog {total} (bound {HEALTH_MAX_BACKLOG})"),
                )
            }),
        ]
    }

    /// The tier's share of a stats tick: `mq.lag{group,topic}` (plus a
    /// lag sample in the flight ring), `actor.mailbox_depth{worker}`, and
    /// the fleet's shape — routing epoch, routed serving workers and the
    /// workers whose heartbeats on `coordinator` are older than
    /// [`HEALTH_WORKER_TIMEOUT`] — so `/vars` answers "what shape is the
    /// fleet in" without scraping the membership topic.
    pub fn stats_tick(
        self: &Arc<Self>,
        plane: &OpsPlane,
        coordinator: &Coordinator,
    ) -> impl FnMut() + Send + 'static {
        let tier = Arc::clone(self);
        let registry = Arc::clone(plane.registry());
        let recorder = Arc::clone(plane.recorder());
        let liveness = coordinator.liveness();
        move || {
            let (mut total_lag, mut max_lag) = (0u64, 0u64);
            for e in tier.broker.lag_report() {
                registry
                    .gauge("mq.lag", &[("group", &e.group), ("topic", &e.topic)])
                    .set(e.lag as i64);
                total_lag += e.lag;
                max_lag = max_lag.max(e.lag);
            }
            recorder.record(EventKind::LagSample, u32::MAX, total_lag, max_lag, 0);
            for w in &tier.workers {
                registry
                    .gauge("actor.mailbox_depth", &[("worker", &w.id().0.to_string())])
                    .set(w.backlog() as i64);
            }
            let table = tier.router.table();
            registry
                .gauge("membership.epoch", &[])
                .set(table.epoch() as i64);
            registry
                .gauge("membership.workers", &[])
                .set(table.workers() as i64);
            registry
                .gauge("membership.dead_workers", &[])
                .set(liveness.dead_workers(HEALTH_WORKER_TIMEOUT).len() as i64);
        }
    }

    /// The sampling side of the drain equation over sample queues
    /// `0..queues`. Each queue's `forwarded` reads as its end and
    /// `applied` as 0: the assembly that delivers and applies the queue
    /// fills those in. Ends are read before the counters that chase them.
    pub fn watermarks(&self, queues: u32) -> Watermarks {
        let updates_end = self.updates.total_end_offset();
        let control_end = self.control.total_end_offset();
        let queues = (0..queues)
            .map(|s| {
                let end = self
                    .broker
                    .topic(&topics::samples(s))
                    .map(|t| t.total_end_offset())
                    .unwrap_or(0);
                QueueMark {
                    end,
                    forwarded: end,
                    applied: 0,
                }
            })
            .collect();
        Watermarks {
            updates_end,
            updates_done: self
                .workers
                .iter()
                .map(|w| w.metrics().updates_processed.get())
                .sum(),
            control_end,
            control_done: self
                .workers
                .iter()
                .map(|w| w.metrics().control_processed.get())
                .sum(),
            backlog: self.backlog(),
            replicas: 1,
            queues,
        }
    }

    /// Checkpoint every worker's state into `dir` (§4.1), plus a manifest
    /// of the topology and routing table it was taken under.
    /// `serving_workers` is the live logical serving-worker count.
    pub(crate) fn checkpoint(&self, dir: &Path, serving_workers: u32) -> Result<()> {
        for w in &self.workers {
            w.checkpoint(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let manifest = CheckpointManifest {
            sampling_workers: self.config.sampling_workers as u32,
            sampling_threads: self.config.sampling_threads as u32,
            serving_workers,
            table: (*self.router.table()).clone(),
        };
        std::fs::write(
            dir.join(CheckpointManifest::FILE),
            manifest.encode_to_bytes(),
        )?;
        Ok(())
    }

    /// Stop every sampling worker (idempotent).
    pub fn shutdown(&self) {
        for w in &self.workers {
            w.shutdown();
        }
    }
}

/// The serving tier: logical serving workers `first..first + n`,
/// `serving_replicas` replicas each, consuming their `samples-<s>`
/// queues on one broker. The only place a [`ServingWorker`] is started:
/// each replica registers its `sew{s}-r{r}` heartbeat and its cache's
/// byte gauges with the process's memory ledger as it comes up.
pub struct ServingTier {
    config: HeliosConfig,
    query: KHopQuery,
    broker: Arc<Broker>,
    liveness: Arc<Liveness>,
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    accountant: Arc<MemAccountant>,
    /// Id of the tier's first logical worker.
    first: u32,
    replicas: usize,
    /// The live fleet, flat: `[sew0-r0, sew0-r1, …, sew1-r0, …]`, index =
    /// logical * replicas + r. Replaced wholesale (an `Arc` swap) when a
    /// rescale commits, so every reader — serve paths, probes, the stats
    /// reporter — grabs a consistent snapshot and never observes a
    /// half-extended fleet.
    set: RwLock<Arc<Vec<Arc<ServingWorker>>>>,
}

impl ServingTier {
    /// Start serving workers `ids` on `broker`, where their sample
    /// queues must already exist.
    pub fn start(
        config: &HeliosConfig,
        coordinator: &Coordinator,
        broker: &Arc<Broker>,
        plane: &OpsPlane,
        ids: Range<u32>,
    ) -> Result<Arc<ServingTier>> {
        let tier = ServingTier {
            config: config.clone(),
            query: coordinator.query().clone(),
            broker: Arc::clone(broker),
            liveness: coordinator.liveness(),
            registry: Arc::clone(plane.registry()),
            recorder: Arc::clone(plane.recorder()),
            accountant: Arc::clone(plane.accountant()),
            first: ids.start,
            replicas: config.serving_replicas,
            set: RwLock::default(),
        };
        tier.extend_to(ids.len())?;
        Ok(Arc::new(tier))
    }

    /// Start replica `r` of serving worker `s` and adopt its cache's byte
    /// gauges. The block-cache and SST-index cells are shared by the
    /// replica's two kvstores; the ledger dedups by cell, so adopting
    /// once per replica is exact.
    fn start_replica(&self, s: u32, r: u32) -> Result<Arc<ServingWorker>> {
        let worker = ServingWorker::start(
            ServingWorkerId(s),
            r,
            &self.config,
            &self.query,
            &self.broker,
            self.liveness.register(&format!("sew{s}-r{r}")),
            &self.registry,
            &self.recorder,
        )?;
        let (sw, rs) = (s.to_string(), r.to_string());
        let labels: &[(&str, &str)] = &[("worker", &sw), ("replica", &rs)];
        let g = worker.mem_gauges();
        for (component, gauge) in [
            ("sample_table", &g.sample_table),
            ("feature_table", &g.feature_table),
            ("block_cache", &g.block_cache),
            ("sst_index", &g.sst_index),
            ("serve_scratch", &g.serve_scratch),
        ] {
            self.accountant.adopt(component, labels, gauge.clone());
        }
        Ok(worker)
    }

    /// A consistent snapshot of every live replica, flat (see `set`).
    pub fn workers(&self) -> Arc<Vec<Arc<ServingWorker>>> {
        Arc::clone(&self.set.read())
    }

    /// Replicas per logical worker.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of live logical serving workers.
    pub(crate) fn logical(&self) -> usize {
        self.workers().len() / self.replicas
    }

    /// Grow to `target` logical workers, keeping the ones already up
    /// (a rescale's scale-out, run before any routing change). Their
    /// sample queues must exist.
    pub(crate) fn extend_to(&self, target: usize) -> Result<()> {
        let mut joined = Vec::new();
        for s in self.logical()..target {
            for r in 0..self.replicas as u32 {
                joined.push(self.start_replica(self.first + s as u32, r)?);
            }
        }
        let mut set = self.set.write();
        *set = Arc::new(set.iter().cloned().chain(joined).collect());
        Ok(())
    }

    /// Shrink to `target` logical workers (a rescale's scale-in, run
    /// after the commit routes nothing at the rest): drop the rest from
    /// the set, stop them and end their heartbeat monitoring.
    pub(crate) fn truncate_to(&self, target: usize) {
        let removed = {
            let mut set = self.set.write();
            let mut workers = set.to_vec();
            let removed = workers.split_off(target * self.replicas);
            *set = Arc::new(workers);
            removed
        };
        for w in &removed {
            w.shutdown();
            self.liveness
                .deregister(&format!("sew{}-r{}", w.id().0, w.replica()));
        }
    }

    /// The drain equation with this tier's replicas consuming
    /// `sampling`'s sample queues in process: every replica applies its
    /// logical worker's whole queue, and malformed records are counted,
    /// never applied — both tallies drain it.
    pub(crate) fn watermarks(&self, sampling: &SamplingTier) -> Watermarks {
        let set = self.workers();
        let mut w = sampling.watermarks((set.len() / self.replicas) as u32);
        w.replicas = self.replicas as u64;
        for s in set.iter() {
            w.queues[s.id().0 as usize].applied += s.consumed();
        }
        w
    }

    /// A serve host's `StatsOk` entries: sample records applied and
    /// rejected as undecodable, and requests served, over the tier.
    pub fn stats_entries(&self) -> Vec<(String, u64)> {
        let set = self.workers();
        let sum = |count: fn(&ServingWorker) -> u64| set.iter().map(|w| count(w)).sum();
        vec![
            (Watermarks::APPLIED.into(), sum(ServingWorker::applied)),
            (
                Watermarks::DECODE_ERRORS.into(),
                sum(ServingWorker::decode_errors),
            ),
            ("served".into(), sum(ServingWorker::served)),
        ]
    }

    /// The tier's `/healthz` probe, `kvstore`. Hybrid caches must keep
    /// their memtables near budget and no store's immutable backlog at
    /// the stall cap — otherwise the background flusher is not keeping up
    /// and writers stall next. Purely in-memory caches have no flush
    /// stage, so the probe only reports their size.
    pub fn probes(self: &Arc<Self>) -> Vec<HealthProbe> {
        let tier = Arc::clone(self);
        let flush_bounded = self.config.cache_dir.is_some();
        let mem_bound = (self.config.cache_memtable_budget * self.config.cache_shards * 4) as u64;
        let imm_bound = (self.config.cache_max_immutables * self.config.cache_shards) as u64;
        vec![Box::new(move || {
            let set = tier.workers();
            let mut mem = 0u64;
            let mut worst_imm = 0u64;
            for w in set.iter() {
                let (s, f) = w.cache_stats();
                mem += s.mem_bytes as u64 + f.mem_bytes as u64;
                worst_imm = worst_imm
                    .max(s.immutable_memtables as u64)
                    .max(f.immutable_memtables as u64);
            }
            if flush_bounded {
                let healthy = mem <= mem_bound * set.len() as u64 && worst_imm < imm_bound;
                HealthReport::new(
                    "kvstore",
                    healthy,
                    format!(
                        "memtable bytes {mem} (bound {mem_bound}/worker), \
                         worst immutable backlog {worst_imm} (stall cap {imm_bound})"
                    ),
                )
            } else {
                HealthReport::new("kvstore", true, format!("in-memory, {mem} bytes"))
            }
        })]
    }

    /// The tier's share of a stats tick: `kvstore.*{worker,replica,table}`
    /// (cache memtable/SST sizes and activity) per replica, and a
    /// `DecodeError` anomaly — a flight-ring dump — when at least
    /// `decode_error_spike` sample records failed to decode since the
    /// last tick: something upstream is emitting garbage.
    pub fn stats_tick(self: &Arc<Self>) -> impl FnMut() + Send + 'static {
        let tier = Arc::clone(self);
        let spike = self.config.decode_error_spike;
        let mut last_decode = 0u64;
        move || {
            let registry = &tier.registry;
            let mut decode = 0u64;
            for w in tier.workers().iter() {
                decode += w.decode_errors();
                let sw = w.id().0.to_string();
                let r = w.replica().to_string();
                let (s, f) = w.cache_stats();
                for (table, st) in [("samples", s), ("features", f)] {
                    let labels: &[(&str, &str)] =
                        &[("worker", &sw), ("replica", &r), ("table", table)];
                    registry
                        .gauge("kvstore.mem_bytes", labels)
                        .set(st.mem_bytes as i64);
                    registry
                        .gauge("kvstore.mem_entries", labels)
                        .set(st.mem_entries as i64);
                    registry
                        .gauge("kvstore.immutable_memtables", labels)
                        .set(st.immutable_memtables as i64);
                    registry
                        .gauge("kvstore.sst_files", labels)
                        .set(st.sst_files as i64);
                    registry
                        .gauge("kvstore.disk_bytes", labels)
                        .set(st.disk_bytes as i64);
                    registry
                        .gauge("kvstore.flushes", labels)
                        .set(st.flushes as i64);
                    registry
                        .gauge("kvstore.compactions", labels)
                        .set(st.compactions as i64);
                    registry
                        .gauge("kvstore.compaction_debt", labels)
                        .set(st.compaction_debt as i64);
                    registry
                        .gauge("kvstore.block_cache_hits", labels)
                        .set(st.block_cache_hits as i64);
                    registry
                        .gauge("kvstore.block_cache_misses", labels)
                        .set(st.block_cache_misses as i64);
                    registry
                        .gauge("kvstore.stall_nanos", labels)
                        .set(st.stall_nanos as i64);
                }
            }
            if decode.saturating_sub(last_decode) >= spike {
                tier.recorder.anomaly(
                    EventKind::DecodeError,
                    u32::MAX,
                    decode - last_decode,
                    decode,
                    0,
                );
            }
            last_decode = decode;
        }
    }

    /// Stop every replica's updater threads; caches stay readable.
    pub fn shutdown(&self) {
        for w in self.workers().iter() {
            w.shutdown();
        }
    }
}

/// One sample queue's share of the drain equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMark {
    /// Records appended to `samples-<s>`.
    pub end: u64,
    /// Records delivered to serving worker `s`: the relay's acked count
    /// across processes, `end` in one process.
    pub forwarded: u64,
    /// Records applied — or counted as undecodable — summed over `s`'s
    /// replicas.
    pub applied: u64,
}

/// The pipeline's drain numbers at one instant: every stage's produced
/// count next to the count its consumer has finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watermarks {
    /// Records appended to `updates`.
    pub updates_end: u64,
    /// Updates the sampling workers finished (corrupt ones included).
    pub updates_done: u64,
    /// Records appended to `control`.
    pub control_end: u64,
    /// Control messages the sampling workers finished.
    pub control_done: u64,
    /// Messages waiting in sampling-shard mailboxes.
    pub backlog: u64,
    /// Replicas consuming every sample queue in full (1 across processes).
    pub replicas: u64,
    /// One entry per serving worker, by id.
    pub queues: Vec<QueueMark>,
}

impl Watermarks {
    /// `StatsOk` key: records appended to `updates`.
    pub const UPDATES_END: &'static str = "updates_end";
    /// `StatsOk` key: updates finished.
    pub const UPDATES_DONE: &'static str = "updates_done";
    /// `StatsOk` key: records appended to `control`.
    pub const CONTROL_END: &'static str = "control_end";
    /// `StatsOk` key: control messages finished.
    pub const CONTROL_DONE: &'static str = "control_done";
    /// `StatsOk` key: sampling-shard mailbox backlog.
    pub const BACKLOG: &'static str = "backlog";
    /// Serve-host `StatsOk` key: sample records applied.
    pub const APPLIED: &'static str = "applied";
    /// Serve-host `StatsOk` key: sample records rejected as undecodable.
    pub const DECODE_ERRORS: &'static str = "decode_errors";

    /// Sampling-host `StatsOk` key: records appended to `samples-<s>`.
    pub fn samples_end_key(s: usize) -> String {
        format!("samples_end_{s}")
    }

    /// Sampling-host `StatsOk` key: records relayed to serving worker `s`.
    pub fn forwarded_key(s: usize) -> String {
        format!("forwarded_{s}")
    }

    /// Every stage has consumed exactly what the stage before it
    /// produced. A relay retry after a lost ack redelivers a batch, but
    /// the serve host lands each record only at its source offset, so
    /// `applied` never runs ahead of `forwarded` and equality is exact.
    pub fn drained(&self) -> bool {
        self.updates_done == self.updates_end
            && self.control_done == self.control_end
            && self.backlog == 0
            && self
                .queues
                .iter()
                .all(|q| q.forwarded == q.end && q.applied == q.forwarded * self.replicas)
    }

    /// The drain equation as one number: messages produced but not yet
    /// consumed over all stages plus the mailbox backlog. Zero means
    /// drained; a live pipeline under load sits at a small positive value.
    /// Records applied beyond what was forwarded count too: they can only
    /// be duplicates, which the equation must not absorb.
    pub fn deficit(&self) -> u64 {
        let queues: u64 = self
            .queues
            .iter()
            .map(|q| {
                q.end.saturating_sub(q.forwarded)
                    + (q.forwarded * self.replicas).abs_diff(q.applied)
            })
            .sum();
        self.updates_end.saturating_sub(self.updates_done)
            + self.control_end.saturating_sub(self.control_done)
            + queues
            + self.backlog
    }

    /// The sampling host's `StatsOk` entries: everything but `applied`,
    /// which each serve host reports for its own queue.
    pub fn stats_entries(&self) -> Vec<(String, u64)> {
        let mut entries = vec![
            (Self::UPDATES_END.into(), self.updates_end),
            (Self::UPDATES_DONE.into(), self.updates_done),
            (Self::CONTROL_END.into(), self.control_end),
            (Self::CONTROL_DONE.into(), self.control_done),
            (Self::BACKLOG.into(), self.backlog),
        ];
        for (s, q) in self.queues.iter().enumerate() {
            entries.push((Self::samples_end_key(s), q.end));
            entries.push((Self::forwarded_key(s), q.forwarded));
        }
        entries
    }

    /// Reassemble a multi-process deployment's watermarks from the
    /// sampling host's `StatsOk` entries and each serve host's, indexed
    /// by serving worker id. Missing keys read as 0.
    pub fn from_stats(sampling: &[(String, u64)], workers: &[Vec<(String, u64)>]) -> Watermarks {
        let stat = |entries: &[(String, u64)], key: &str| {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v)
        };
        Watermarks {
            updates_end: stat(sampling, Self::UPDATES_END),
            updates_done: stat(sampling, Self::UPDATES_DONE),
            control_end: stat(sampling, Self::CONTROL_END),
            control_done: stat(sampling, Self::CONTROL_DONE),
            backlog: stat(sampling, Self::BACKLOG),
            replicas: 1,
            queues: workers
                .iter()
                .enumerate()
                .map(|(s, w)| QueueMark {
                    end: stat(sampling, &Self::samples_end_key(s)),
                    forwarded: stat(sampling, &Self::forwarded_key(s)),
                    applied: stat(w, Self::APPLIED) + stat(w, Self::DECODE_ERRORS),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained_marks() -> Watermarks {
        Watermarks {
            updates_end: 10,
            updates_done: 10,
            control_end: 4,
            control_done: 4,
            backlog: 0,
            replicas: 2,
            queues: vec![QueueMark {
                end: 6,
                forwarded: 6,
                applied: 12,
            }],
        }
    }

    #[test]
    fn drained_iff_deficit_is_zero_in_process() {
        let w = drained_marks();
        assert!(w.drained());
        assert_eq!(w.deficit(), 0);
        let mut behind = w.clone();
        behind.queues[0].applied = 11; // one replica one record behind
        assert!(!behind.drained());
        assert_eq!(behind.deficit(), 1);
        let mut busy = w;
        busy.backlog = 3;
        busy.updates_done = 8;
        assert!(!busy.drained());
        assert_eq!(busy.deficit(), 5);
    }

    #[test]
    fn stats_entries_round_trip_through_from_stats() {
        let mut w = drained_marks();
        w.replicas = 1;
        w.queues[0].forwarded = 5; // relay one record behind
        w.queues[0].applied = 5;
        let worker = vec![
            (Watermarks::APPLIED.to_string(), 4),
            (Watermarks::DECODE_ERRORS.to_string(), 1),
            ("served".to_string(), 99),
        ];
        let back = Watermarks::from_stats(&w.stats_entries(), &[worker]);
        assert_eq!(back, w);
        assert!(!back.drained());
        assert_eq!(back.deficit(), 1);
        let keys: Vec<String> = w.stats_entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "updates_end",
                "updates_done",
                "control_end",
                "control_done",
                "backlog",
                "samples_end_0",
                "forwarded_0"
            ]
        );
    }

    #[test]
    fn a_redelivery_cannot_stand_in_for_an_unapplied_batch() {
        // Batch A (3 records) lands but its ack is lost; A is applied
        // twice; B is acked, so forwarded = 6 while B is still in flight.
        // With `applied >= forwarded` this read as drained.
        let mut w = drained_marks();
        w.replicas = 1;
        w.queues[0].applied = 6;
        w.queues[0].forwarded = 6;
        assert!(w.drained());
        w.queues[0].applied = 9;
        assert!(!w.drained(), "an over-count is not a drain");
        assert_eq!(w.deficit(), 3);
    }
}
