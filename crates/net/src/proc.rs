//! Per-process hosts: the pieces a multi-process deployment is built
//! from, mirroring GraphWorker's worker/partitioner/executer split.
//!
//! A single-process `HeliosDeployment` wires sampling workers to serving
//! workers through in-memory mq topics. Here the same unmodified workers
//! run in separate OS processes:
//!
//! - [`SamplingHost`] owns the update/control/membership topics and the
//!   sampling workers. Per serving worker, a **relay** thread consumes
//!   the local `samples-<s>` topic and ships each batch over TCP as a
//!   `Produce` frame, waiting for the ack before the next batch so the
//!   per-partition record order — the thing cache convergence depends
//!   on — is preserved end to end.
//! - [`ServeHost`] owns one serving worker and its local `samples-<s>`
//!   topic. Incoming `Produce` frames are appended partition-for-
//!   partition, key-for-key, each record at its source offset, so the
//!   worker's updater threads see exactly the sequence they would have
//!   seen in process — a redelivered batch lands once — and serve replies
//!   are byte-identical to the in-process transport on the same stream.
//!
//! Both hosts are built from the pieces `HeliosDeployment` runs in
//! process: an [`OpsPlane`] (registry, flight recorder, memory ledger,
//! traces, profiler, ops server and stats reporter) plus the
//! [`SamplingTier`] or a [`ServingTier`] of one worker. Both expose the
//! drain numbers (`StatsOk`) a coordinator needs to decide "all ingested
//! data has been applied": `Watermarks::from_stats` joins them into the
//! one drain equation `HeliosDeployment::quiesce` reads.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use helios_core::plane::mq_probe;
use helios_core::sampler::topics;
use helios_core::{
    Coordinator, HeliosConfig, OpsPlane, SamplingTier, ServingTier, ServingWorker, POLL_BATCH,
    POLL_TIMEOUT, SAMPLE_QUEUE_PARTITIONS,
};
use helios_mq::{Broker, Topic, TopicConfig};
use helios_query::KHopQuery;
use helios_telemetry::registry::Registry;
use helios_telemetry::TraceCtx;
use helios_types::{HeliosError, PartitionId, Result, VertexId};
use parking_lot::Mutex;

use crate::server::{NetServer, NetService};
use crate::transport::{NetMetrics, TcpOptions, TcpTransport, Transport};
use crate::wire::{ErrCode, Payload, RelayRecord};

/// How long a relay sleeps between redelivery attempts to a serve
/// worker that is down or unreachable.
const RELAY_RETRY: Duration = Duration::from_millis(100);

/// Configuration for a [`ServeHost`] process.
pub struct ServeHostConfig {
    /// Which serving worker this process hosts.
    pub sew: u32,
    /// Wire listen address (`127.0.0.1:0` for ephemeral).
    pub listen: String,
    /// The deployment-wide config — must be identical on every process
    /// (partition counts and route slots are topology-defining). Its
    /// `ops_addr` and `stats_interval` apply to this process.
    pub config: HeliosConfig,
    /// The query every process compiles.
    pub query: KHopQuery,
}

struct ServeHostService {
    sew: u32,
    /// The tier's one worker, held directly so a serve takes no lock.
    worker: Arc<ServingWorker>,
    serving: Arc<ServingTier>,
    topic: Arc<Topic>,
    /// Serializes `Produce` handling: the offset check and the append
    /// must not interleave with a redelivery arriving on another
    /// connection.
    produce_lock: Mutex<()>,
}

/// The records of a relayed batch not yet in `topic`. Each partition's
/// end offset is the next source offset it expects (the relay appends
/// nothing else to it): records below it already landed and are
/// skipped; a record above it means an earlier one is missing, and the
/// whole batch is refused so the relay retries.
fn fresh_records(
    topic: &Topic,
    records: Vec<RelayRecord>,
) -> Result<Vec<(PartitionId, u64, bytes::Bytes)>> {
    let mut next: Vec<u64> = (0..topic.partition_count())
        .map(|p| {
            topic
                .partition(PartitionId(p))
                .map_or(0, |p| p.end_offset())
        })
        .collect();
    let mut fresh = Vec::with_capacity(records.len());
    for rec in records {
        let Some(expect) = next.get_mut(rec.partition.0 as usize) else {
            return Err(HeliosError::NotFound(format!(
                "partition {} of {}",
                rec.partition.0,
                topic.name()
            )));
        };
        if rec.offset < *expect {
            continue;
        }
        if rec.offset > *expect {
            return Err(HeliosError::NotFound(format!(
                "{} partition {} is missing offsets {expect}..{}",
                topic.name(),
                rec.partition.0,
                rec.offset
            )));
        }
        *expect += 1;
        fresh.push((rec.partition, rec.key, rec.payload));
    }
    Ok(fresh)
}

impl NetService for ServeHostService {
    fn serve_encoded(&self, seed: VertexId, out: &mut Vec<u8>) -> Result<()> {
        self.worker.serve_encoded(seed, TraceCtx::NONE, out)
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::Produce { sew, records } => {
                if sew != self.sew {
                    return Payload::Error {
                        code: ErrCode::NotFound,
                        message: format!("this process hosts sew {}, not {sew}", self.sew),
                    };
                }
                // What has not landed yet lands with one sequence bump and
                // one wake-up for the whole batch, not one per record.
                let _one_batch_at_a_time = self.produce_lock.lock();
                let landed = fresh_records(&self.topic, records)
                    .and_then(|fresh| self.topic.produce_many_to(fresh));
                match landed {
                    Ok(count) => Payload::Ack {
                        count: count as u64,
                    },
                    Err(e) => Payload::Error {
                        code: ErrCode::from_error(&e),
                        message: e.to_string(),
                    },
                }
            }
            Payload::HealthReq => Payload::HealthOk {
                healthy: true,
                detail: format!(
                    "sew {} applied {} served {}",
                    self.sew,
                    self.worker.applied(),
                    self.worker.served()
                ),
            },
            Payload::StatsReq => Payload::StatsOk {
                entries: self.serving.stats_entries(),
            },
            other => Payload::Error {
                code: ErrCode::NotFound,
                message: format!("serve worker does not handle {} frames", other.kind_name()),
            },
        }
    }
}

/// A serving-worker process: an ops plane, a local `samples-<sew>`
/// queue and a [`ServingTier`] of one worker behind a [`NetServer`].
pub struct ServeHost {
    addr: SocketAddr,
    server: Option<NetServer>,
    plane: OpsPlane,
    serving: Arc<ServingTier>,
    worker: Arc<ServingWorker>,
}

impl ServeHost {
    /// Start the host: ops plane, local sample queue, serving tier, wire
    /// server.
    pub fn start(host: ServeHostConfig) -> Result<ServeHost> {
        // A deployed worker's replicas would be separate processes: each
        // process runs exactly one.
        let config = HeliosConfig {
            serving_replicas: 1,
            ..host.config
        };
        let mut plane = OpsPlane::new(&config);
        let broker = Broker::new();
        let topic = broker.create_topic(
            &topics::samples(host.sew),
            TopicConfig {
                partitions: SAMPLE_QUEUE_PARTITIONS,
                mem: plane.accountant().register("mq_log", &[]),
                ..Default::default()
            },
        )?;
        let coordinator = Coordinator::new(host.query);
        let serving = ServingTier::start(
            &config,
            &coordinator,
            &broker,
            &plane,
            host.sew..host.sew + 1,
        )?;
        let worker = Arc::clone(&serving.workers()[0]);

        plane.start_reporter(serving.stats_tick());
        let mut probes = vec![mq_probe(&broker, config.health_max_lag)];
        probes.extend(serving.probes());
        plane.start_ops_server(probes)?;

        let service = Arc::new(ServeHostService {
            sew: host.sew,
            worker: Arc::clone(&worker),
            serving: Arc::clone(&serving),
            topic,
            produce_lock: Mutex::new(()),
        });
        let net = NetMetrics::new(plane.registry(), "worker");
        let recorder = Some(Arc::clone(plane.recorder()));
        let server = NetServer::start(&host.listen, service, net, recorder)?;
        Ok(ServeHost {
            addr: server.addr(),
            server: Some(server),
            plane,
            serving,
            worker,
        })
    }

    /// The wire address clients (gateway, relays) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops address, when an ops server was started.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.plane.ops_addr()
    }

    /// This process's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        self.plane.registry()
    }

    /// The hosted worker (tests assert on its counters).
    pub fn worker(&self) -> &Arc<ServingWorker> {
        &self.worker
    }

    /// Stop the wire server and the ops plane, then the worker.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.plane.shutdown();
        self.serving.shutdown();
    }
}

/// Configuration for a [`SamplingHost`] process.
pub struct SamplingHostConfig {
    /// Wire listen address for ingest/stats traffic.
    pub listen: String,
    /// The deployment-wide config (same instance everywhere). Its
    /// `ops_addr` and `stats_interval` apply to this process.
    pub config: HeliosConfig,
    /// The query every process compiles.
    pub query: KHopQuery,
    /// Serve-worker wire addresses, indexed by serving worker id; one
    /// relay per entry.
    pub serve_workers: Vec<String>,
}

/// Frame dispatch for the sampling host: ingest into the tier, report
/// its watermarks with each relay's acked count.
struct SamplingHostService {
    tier: Arc<SamplingTier>,
    /// Records each relay has had acked, by serving worker.
    forwarded: Arc<Vec<AtomicU64>>,
}

impl NetService for SamplingHostService {
    fn serve_encoded(&self, _seed: VertexId, _out: &mut Vec<u8>) -> Result<()> {
        Err(HeliosError::NotFound(
            "sampling host does not serve queries".into(),
        ))
    }

    fn handle(&self, payload: Payload) -> Payload {
        match payload {
            Payload::Updates { updates } => match self.tier.ingest_batch(&updates) {
                Ok(()) => Payload::Ack {
                    count: updates.len() as u64,
                },
                Err(e) => Payload::Error {
                    code: ErrCode::from_error(&e),
                    message: e.to_string(),
                },
            },
            Payload::HealthReq => Payload::HealthOk {
                healthy: true,
                detail: format!("backlog {}", self.tier.backlog()),
            },
            Payload::StatsReq => {
                let mut marks = self.tier.watermarks(self.forwarded.len() as u32);
                for (queue, acked) in marks.queues.iter_mut().zip(self.forwarded.iter()) {
                    queue.forwarded = acked.load(Ordering::SeqCst);
                }
                Payload::StatsOk {
                    entries: marks.stats_entries(),
                }
            }
            other => Payload::Error {
                code: ErrCode::NotFound,
                message: format!("sampling host does not handle {} frames", other.kind_name()),
            },
        }
    }
}

/// A sampling process: an ops plane and the [`SamplingTier`], plus one
/// relay per serving worker shipping `samples-<s>` over TCP.
pub struct SamplingHost {
    addr: SocketAddr,
    server: Option<NetServer>,
    plane: OpsPlane,
    tier: Arc<SamplingTier>,
    relays: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl SamplingHost {
    /// Start the host: ops plane, sampling tier, relays, wire server.
    pub fn start(host: SamplingHostConfig) -> Result<SamplingHost> {
        let config = host.config;
        if host.serve_workers.len() != config.serving_workers {
            return Err(HeliosError::InvalidConfig(format!(
                "{} serve-worker endpoints for {} serving workers",
                host.serve_workers.len(),
                config.serving_workers
            )));
        }
        let mut plane = OpsPlane::new(&config);
        let mut tier = SamplingTier::create(&config)?;
        let coordinator = Coordinator::new(host.query.clone());
        tier.start_workers(&host.query, &coordinator, &plane, None)?;
        let tier = Arc::new(tier);
        plane.start_reporter(tier.stats_tick(&plane, &coordinator));
        plane.start_ops_server(tier.probes())?;
        let forwarded: Arc<Vec<AtomicU64>> = Arc::new(
            host.serve_workers
                .iter()
                .map(|_| AtomicU64::new(0))
                .collect(),
        );
        let net = NetMetrics::new(plane.registry(), "relay");
        let stop = Arc::new(AtomicBool::new(false));
        let mut relays = Vec::with_capacity(host.serve_workers.len());
        for (s, addr) in host.serve_workers.iter().enumerate() {
            let consumer = tier
                .broker()
                .consumer_all(&format!("relay-{s}"), &topics::samples(s as u32))?;
            let transport = TcpTransport::with_options(
                addr,
                TcpOptions {
                    pool: 1,
                    metrics: Arc::clone(&net),
                    ..TcpOptions::default()
                },
            );
            let stop = Arc::clone(&stop);
            let forwarded = Arc::clone(&forwarded);
            relays.push(
                std::thread::Builder::new()
                    .name(format!("relay-{s}"))
                    .spawn(move || relay_loop(s, consumer, transport, stop, forwarded))
                    .expect("spawn relay"),
            );
        }
        let service = Arc::new(SamplingHostService {
            tier: Arc::clone(&tier),
            forwarded,
        });
        let net_server = NetMetrics::new(plane.registry(), "worker");
        let server = NetServer::start(
            &host.listen,
            service,
            net_server,
            Some(Arc::clone(plane.recorder())),
        )?;
        Ok(SamplingHost {
            addr: server.addr(),
            server: Some(server),
            plane,
            tier,
            relays,
            stop,
        })
    }

    /// The wire address the gateway/clients send ingest to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ops address, when an ops server was started.
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.plane.ops_addr()
    }

    /// This process's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        self.plane.registry()
    }

    /// Stop relays (after they drain), the wire server and the ops
    /// plane, then the tier.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for relay in self.relays.drain(..) {
            let _ = relay.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.plane.shutdown();
        self.tier.shutdown();
    }
}

/// Relay: poll the local sample topic, ship each batch as a `Produce`
/// frame, wait for the ack so per-partition order is preserved, retry
/// forever (the serve worker owns the data; dropping is not an option)
/// until the host shuts down.
fn relay_loop(
    sew: usize,
    mut consumer: helios_mq::Consumer,
    transport: TcpTransport,
    stop: Arc<AtomicBool>,
    forwarded: Arc<Vec<AtomicU64>>,
) {
    loop {
        let recs = consumer.poll(POLL_BATCH, POLL_TIMEOUT);
        if recs.is_empty() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        }
        let count = recs.len() as u64;
        let records: Vec<RelayRecord> = recs
            .into_iter()
            .map(|r| RelayRecord {
                partition: r.partition,
                key: r.key,
                offset: r.offset,
                payload: r.payload,
            })
            .collect();
        let request = Payload::Produce {
            sew: sew as u32,
            records,
        };
        loop {
            match transport.call(request.clone()) {
                Ok(Payload::Ack { .. }) => {
                    forwarded[sew].fetch_add(count, Ordering::SeqCst);
                    break;
                }
                Ok(_) | Err(_) => {
                    // Not acked: redeliver the same frame. The receiver
                    // lands each record only at its source offset, so a
                    // batch that did land before its ack was lost is
                    // skipped, not appended twice.
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(RELAY_RETRY);
                }
            }
        }
    }
}
