//! The two tiers of Fig. 5 (§4.1), each built once, here, for every
//! assembly:
//!
//! - [`SamplingTier`]: the partitioned update stream, the M sampling
//!   workers consuming it (control messages between them go straight to
//!   their shard mailboxes), the seed→worker route table and one sample
//!   queue per serving worker.
//! - [`ServingTier`]: serving workers (and their replicas), each applying
//!   its sample queue to a query-aware cache that serving threads read.
//!
//! Both tiers keep their shape for their lifetime: the route table is
//! `RouteTable::initial(N, route_slots)` in every process, and no worker
//! joins or leaves a running tier.
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

use crate::config::{
    HeliosConfig, HEALTH_MAX_BACKLOG, HEALTH_WORKER_TIMEOUT, MAX_PENDING_UPDATES, POLL_BATCH,
    SAMPLE_QUEUE_PARTITIONS,
};
use crate::coordinator::Coordinator;
use crate::messages::UpdateEnvelope;
use crate::plane::{mq_probe, OpsPlane};
use crate::sampler::{topics, SamplingWorker};
use crate::serving::ServingWorker;
use helios_membership::RouteTable;
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::ops::HealthProbe;
use helios_telemetry::{EventKind, FlightRecorder, HealthReport, Registry};
use helios_types::{
    hash::route, Decode, Encode, GraphUpdate, MemGauge, PartitionId, Result, ServingWorkerId,
};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The sampling tier: topics on one broker, the route table and the M
/// sampling workers.
pub struct SamplingTier {
    config: HeliosConfig,
    broker: Arc<Broker>,
    routes: Arc<RouteTable>,
    updates: Arc<Topic>,
    /// Every topic's retained log bytes.
    mq_log: MemGauge,
    workers: Vec<SamplingWorker>,
}

impl SamplingTier {
    /// Create the `updates` topic (one partition per sampling worker),
    /// one `samples-<s>` queue per serving worker and the route table.
    /// No worker runs until [`SamplingTier::start_workers`], so an
    /// assembly can attach the sample queues' consumers first.
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
        for s in 0..config.serving_workers as u32 {
            broker.create_topic(&topics::samples(s), topic(SAMPLE_QUEUE_PARTITIONS))?;
        }
        Ok(SamplingTier {
            config: config.clone(),
            broker,
            // Deterministic, so every process and every sampling worker
            // agrees on it without a broadcast.
            routes: Arc::new(RouteTable::initial(
                config.serving_workers,
                config.route_slots as usize,
            )),
            updates,
            mq_log,
            workers: Vec::new(),
        })
    }

    /// Start the M sampling workers, restoring each from `restore` when
    /// given, and charge every topic's log to `plane`'s `mq_log` ledger
    /// entry. A checkpoint taken under a different topology or routing
    /// table raises a `TopologyMismatch` flight event and every worker
    /// re-derives its subscriptions under this tier's table (no traffic
    /// has flowed yet). Comparing the table — not just worker counts —
    /// also catches a different `route_slots`.
    pub fn start_workers(
        &mut self,
        query: &KHopQuery,
        coordinator: &Coordinator,
        plane: &OpsPlane,
        restore: Option<&Path>,
    ) -> Result<()> {
        plane.accountant().adopt("mq_log", &[], self.mq_log.clone());
        let recorder = plane.recorder();
        self.workers = SamplingWorker::start_all(
            &self.config,
            query,
            &self.broker,
            &self.routes,
            coordinator,
            plane.registry(),
            recorder,
        )?;
        let Some(dir) = restore else {
            return Ok(());
        };
        for w in &self.workers {
            w.restore(dir)?;
        }
        let raw = match std::fs::read(dir.join(CheckpointManifest::FILE)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e.into()),
        };
        let manifest = CheckpointManifest::decode_from_slice(&raw)?;
        let mismatch = manifest.table != *self.routes
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
            SamplingWorker::rebuild_subscriptions(&self.workers)?;
        }
        Ok(())
    }

    /// The broker every topic lives on.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The seed→serving-worker route table every worker shares.
    pub(crate) fn route_table(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// The sampling workers (M is fixed for the tier's lifetime).
    pub(crate) fn workers(&self) -> &[SamplingWorker] {
        &self.workers
    }

    /// Ingest one graph update: expand it per the edge partition policy,
    /// stamp each copy and append it to its routing vertex's partition of
    /// the update stream (the front end of Fig. 5), once at most
    /// [`MAX_PENDING_UPDATES`] appended updates are unfinished.
    pub(crate) fn ingest(&self, update: &GraphUpdate) -> Result<()> {
        self.await_sampling_headroom();
        self.updates.produce_many_to(self.routed(update))?;
        Ok(())
    }

    /// Ingest a batch in order, stopping at the first failure. Before each
    /// [`POLL_BATCH`] of it, wait until at most [`MAX_PENDING_UPDATES`]
    /// appended updates are unfinished, so the memory a burst holds in
    /// flight is bounded by that, not by how far ingest outruns sampling.
    /// Each chunk's routed copies are appended with one produce: one
    /// sequence bump and one consumer wake-up per chunk.
    pub fn ingest_batch(&self, updates: &[GraphUpdate]) -> Result<()> {
        for chunk in updates.chunks(POLL_BATCH) {
            self.await_sampling_headroom();
            let records: Vec<_> = chunk.iter().flat_map(|u| self.routed(u)).collect();
            self.updates.produce_many_to(records)?;
        }
        Ok(())
    }

    /// `update`'s copies per the edge partition policy, each stamped,
    /// encoded and addressed to its routing vertex's partition.
    fn routed(&self, update: &GraphUpdate) -> Vec<(PartitionId, u64, bytes::Bytes)> {
        let copies = match update {
            GraphUpdate::Vertex(_) => vec![(update.routing_vertex(), update.clone())],
            GraphUpdate::Edge(e) => self
                .config
                .policy
                .copies(e)
                .into_iter()
                .map(|(rv, copy)| (rv, GraphUpdate::Edge(copy)))
                .collect(),
        };
        copies
            .into_iter()
            .map(|(rv, copy)| {
                let partition = PartitionId(route(rv.raw(), self.config.sampling_workers) as u32);
                let env = UpdateEnvelope::stamp(copy);
                (partition, rv.raw(), env.encode_to_bytes())
            })
            .collect()
    }

    /// Updates the sampling workers finished (corrupt ones included).
    fn updates_done(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.metrics().updates_processed.get())
            .sum()
    }

    /// Block while more than [`MAX_PENDING_UPDATES`] appended updates are
    /// unfinished. Samplers that finish nothing for
    /// [`HEALTH_WORKER_TIMEOUT`] (stopped or wedged) are not waited for.
    fn await_sampling_headroom(&self) {
        let (mut done, mut since) = (self.updates_done(), Instant::now());
        while self.updates.total_end_offset().saturating_sub(done) > MAX_PENDING_UPDATES {
            std::thread::sleep(Duration::from_millis(1));
            let now_done = self.updates_done();
            if now_done != done {
                (done, since) = (now_done, Instant::now());
            } else if since.elapsed() >= HEALTH_WORKER_TIMEOUT {
                return;
            }
        }
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
    /// `membership.dead_workers`: the workers whose heartbeats on
    /// `coordinator` are older than [`HEALTH_WORKER_TIMEOUT`].
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
        let control_end = self
            .workers
            .iter()
            .map(|w| w.metrics().control_dispatched.get())
            .sum();
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
            updates_done: self.updates_done(),
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
    pub(crate) fn checkpoint(&self, dir: &Path) -> Result<()> {
        for w in &self.workers {
            w.checkpoint(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        let manifest = CheckpointManifest {
            sampling_workers: self.config.sampling_workers as u32,
            sampling_threads: self.config.sampling_threads as u32,
            serving_workers: self.config.serving_workers as u32,
            table: (*self.routes).clone(),
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
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    replicas: usize,
    /// The fleet, flat: `[sew0-r0, sew0-r1, …, sew1-r0, …]`, index =
    /// (logical - first) * replicas + r.
    set: Vec<Arc<ServingWorker>>,
}

impl ServingTier {
    /// Start serving workers `ids` on `broker`, where their sample
    /// queues must already exist. Each replica's cache byte gauges join
    /// `plane`'s memory ledger; the block-cache and SST-index cells are
    /// shared by the replica's two kvstores, and the ledger dedups by
    /// cell, so adopting once per replica is exact.
    pub fn start(
        config: &HeliosConfig,
        coordinator: &Coordinator,
        broker: &Arc<Broker>,
        plane: &OpsPlane,
        ids: Range<u32>,
    ) -> Result<Arc<ServingTier>> {
        let liveness = coordinator.liveness();
        let mut set = Vec::with_capacity(ids.len() * config.serving_replicas);
        for s in ids {
            for r in 0..config.serving_replicas as u32 {
                let worker = ServingWorker::start(
                    ServingWorkerId(s),
                    r,
                    config,
                    coordinator.query(),
                    broker,
                    liveness.register(&format!("sew{s}-r{r}")),
                    plane.registry(),
                    plane.recorder(),
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
                    plane.accountant().adopt(component, labels, gauge.clone());
                }
                set.push(worker);
            }
        }
        Ok(Arc::new(ServingTier {
            config: config.clone(),
            registry: Arc::clone(plane.registry()),
            recorder: Arc::clone(plane.recorder()),
            replicas: config.serving_replicas,
            set,
        }))
    }

    /// Every replica, flat (see `set`).
    pub fn workers(&self) -> &[Arc<ServingWorker>] {
        &self.set
    }

    /// Replicas per logical worker.
    pub(crate) fn replicas(&self) -> usize {
        self.replicas
    }

    /// The drain equation with this tier's replicas consuming
    /// `sampling`'s sample queues in process: every replica applies its
    /// logical worker's whole queue, and malformed records are counted,
    /// never applied — both tallies drain it.
    pub(crate) fn watermarks(&self, sampling: &SamplingTier) -> Watermarks {
        let mut w = sampling.watermarks((self.set.len() / self.replicas) as u32);
        w.replicas = self.replicas as u64;
        for s in &self.set {
            w.queues[s.id().0 as usize].applied += s.consumed();
        }
        w
    }

    /// A serve host's `StatsOk` entries: sample records applied and
    /// rejected as undecodable, and requests served, over the tier.
    pub fn stats_entries(&self) -> Vec<(String, u64)> {
        let sum = |count: fn(&ServingWorker) -> u64| self.set.iter().map(|w| count(w)).sum();
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
            let mut mem = 0u64;
            let mut worst_imm = 0u64;
            for w in &tier.set {
                let (s, f) = w.cache_stats();
                mem += s.mem_bytes as u64 + f.mem_bytes as u64;
                worst_imm = worst_imm
                    .max(s.immutable_memtables as u64)
                    .max(f.immutable_memtables as u64);
            }
            if flush_bounded {
                let healthy = mem <= mem_bound * tier.set.len() as u64 && worst_imm < imm_bound;
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
            for w in &tier.set {
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
        for w in &self.set {
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
    /// Control messages the sampling workers sent to a shard mailbox.
    pub control_end: u64,
    /// Control messages the sampling workers finished (counted at the
    /// receiving shard's flush).
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
    /// `StatsOk` key: control messages sent.
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
    use helios_types::VertexId;

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

    #[test]
    fn ingest_holds_back_while_the_samplers_are_behind() {
        use helios_query::SamplingStrategy;
        use helios_types::{EdgeType, EdgeUpdate, Timestamp, VertexType};

        let config = HeliosConfig::with_workers(1, 1);
        let query = KHopQuery::builder(VertexType(0))
            .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
            .hop(EdgeType(0), VertexType(1), 2, SamplingStrategy::Random)
            .build()
            .unwrap();
        let mut plane = OpsPlane::new(&config);
        let mut tier = SamplingTier::create(&config).unwrap();
        tier.start_workers(&query, &Coordinator::new(query.clone()), &plane, None)
            .unwrap();
        // Far more than the samplers finish while they are appended.
        let edges: Vec<GraphUpdate> = (0..8 * MAX_PENDING_UPDATES)
            .map(|i| {
                GraphUpdate::Edge(EdgeUpdate {
                    etype: EdgeType(0),
                    src_type: VertexType(0),
                    src: VertexId(i % 4096),
                    dst_type: VertexType(1),
                    dst: VertexId(i % 64),
                    ts: Timestamp(i),
                    weight: 1.0,
                })
            })
            .collect();
        tier.ingest_batch(&edges).unwrap();
        let marks = tier.watermarks(1);
        // The last chunk went in once at most MAX_PENDING_UPDATES were
        // unfinished; each edge is appended at most twice.
        let pending = marks.updates_end - marks.updates_done;
        assert!(
            pending <= MAX_PENDING_UPDATES + 2 * POLL_BATCH as u64,
            "{pending} updates unfinished when ingest_batch returned"
        );
        // One update at a time is held back the same way, from several
        // callers at once: each appends at most two copies past the bound.
        const CALLERS: usize = 4;
        let worst = std::thread::scope(|s| {
            let callers: Vec<_> = edges
                .chunks(edges.len() / CALLERS)
                .map(|part| {
                    let tier = &tier;
                    s.spawn(move || {
                        let mut worst = 0;
                        for e in part {
                            tier.ingest(e).unwrap();
                            let end = tier.updates.total_end_offset();
                            let pending = end.saturating_sub(tier.updates_done());
                            worst = worst.max(pending);
                        }
                        worst
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).max()
        });
        let bound = MAX_PENDING_UPDATES + 2 * CALLERS as u64;
        assert!(
            worst <= Some(bound),
            "{worst:?} updates unfinished after an ingest (bound {bound})"
        );
        tier.shutdown();
        plane.shutdown();
    }
}
