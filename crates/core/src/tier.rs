//! The sampling tier (Fig. 5, §4.1): the partitioned update stream, the
//! M sampling workers consuming it, the shared seed→worker router and one
//! sample queue per serving worker — built once, here, for both
//! assemblies. `HeliosDeployment` is this tier plus in-process serving
//! workers on the tier's broker; the launcher's `SamplingHost` is this
//! tier plus one TCP relay per serving worker.
//!
//! [`Watermarks`] is the one drain equation: `quiesce`, the `/healthz`
//! "pipeline" probe, the sampling host's `StatsOk` reply and the
//! multi-process drain loops all read it.

use crate::config::HeliosConfig;
use crate::coordinator::Coordinator;
use crate::messages::UpdateEnvelope;
use crate::sampler::{topics, SamplingWorker};
use helios_membership::{RouteTable, Router};
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::{EventKind, FlightRecorder, Registry};
use helios_types::{
    hash::route, Decode, Encode, GraphUpdate, MemGauge, PartitionId, Result, SamplingWorkerId,
    VertexId,
};
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
    /// given. A checkpoint taken under a different topology or routing
    /// table raises a `TopologyMismatch` flight event and every worker
    /// re-derives its subscriptions under the epoch-0 table (no traffic
    /// has flowed yet). Comparing the table — not just worker counts —
    /// catches a checkpoint taken after a rescale that happens to land on
    /// this tier's logical worker count.
    pub fn start_workers(
        &mut self,
        query: &KHopQuery,
        coordinator: &Coordinator,
        registry: &Registry,
        recorder: &Arc<FlightRecorder>,
        restore: Option<&Path>,
    ) -> Result<()> {
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
                partitions: self.config.sample_queue_partitions,
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

    /// The gauge all topics charge their retained log bytes to.
    pub(crate) fn mq_log_gauge(&self) -> &MemGauge {
        &self.mq_log
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

    /// Every stage has consumed what the stage before it produced.
    /// `applied >= forwarded`: a relay retry after a lost ack can deliver
    /// a batch twice; duplicates are idempotent downstream.
    pub fn drained(&self) -> bool {
        self.updates_done == self.updates_end
            && self.control_done == self.control_end
            && self.backlog == 0
            && self
                .queues
                .iter()
                .all(|q| q.forwarded == q.end && q.applied >= q.forwarded * self.replicas)
    }

    /// The drain equation as one number: messages produced but not yet
    /// consumed over all stages plus the mailbox backlog. Zero means
    /// drained; a live pipeline under load sits at a small positive value.
    pub fn deficit(&self) -> u64 {
        let queues: u64 = self
            .queues
            .iter()
            .map(|q| {
                q.end.saturating_sub(q.forwarded)
                    + (q.forwarded * self.replicas).saturating_sub(q.applied)
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
    fn a_duplicated_relay_batch_still_counts_as_drained() {
        let mut w = drained_marks();
        w.replicas = 1;
        w.queues[0].applied = 9; // 6 forwarded, one 3-record batch redelivered
        assert!(w.drained());
        assert_eq!(w.deficit(), 0);
    }
}
